"""Kernel contract of the event queue and the compiled table lane.

The table kernel (``engine="table"``, the default) compiles
``_StageRuntime``'s per-job lifecycle into integer transition tables
(:mod:`repro.sim.system_table`) dispatched through the opcode rows of
:class:`~repro.sim.engine.Engine`.  End-to-end bit-identity against the
object kernel lives in ``tests/test_sim_kernel_equivalence.py``; this
module covers:

* the opcode rows: scheduling and deferral semantics, FIFO interleaving
  with callables, a raising handler leaving the rest queued (between any
  two rows, with an in-order resume), non-re-entrancy, and the
  object-kernel primitives running beside them;
* the queue both kernels share: same-cycle scheduling from inside a
  handler, the clock a run ends at, runs that a raising handler stops and
  a later run resumes (also across compactions), compaction of the row
  columns (bounded columns, unchanged dispatch order and results) and
  ``reset``;
* the burst rows of :class:`~repro.sim.system_table.TableProgram`: the
  chunks of one group that find free DMA channels enter the NoC as one
  ``OP_NOC_BURST`` row, which saves ``k - 1`` events per burst of ``k``
  chunks and changes no observable;
* the ``engine`` axis: two registered engines, ``table`` the default, and
  the retired ``"array"`` name rejected everywhere a user can spell it
  (per-engine cache keys are covered in the equivalence suite).
"""

import weakref

import pytest

from repro.scenarios import Scenario, SpecError, load_spec
from repro.sim import (
    CreditStore,
    Engine,
    Server,
    SimulationError,
    SystemSimulator,
    fast_forward_simulate,
    result_mismatches,
    simulate,
)
from repro.sim import engine as engine_module
from repro.sim.engine import K_OP_BASE
from repro.sim.steady_state import MAX_WINDOW, MIN_JOBS
from repro.sim.system import DEFAULT_ENGINE, SIMULATION_ENGINES
from repro.sim.system_table import OP_NOC_BURST, OP_NOC_START, TableProgram

from test_sim_fast_forward import ARCH64, _chain, _chunked_chain


# --------------------------------------------------------------------------- #
# Stopping a run: a handler that raises
# --------------------------------------------------------------------------- #
class _Stop(Exception):
    """Raised by a wrapped handler to stop a run after its event."""


def _raise_every(engine, every):
    """Wrap ``engine``'s handlers so that every ``every``-th dispatch raises
    :class:`_Stop` once its handler has run.  Call it after
    ``set_handlers``."""
    dispatched = [0]

    def wrap(handler):
        def dispatch(arg):
            handler(arg)
            dispatched[0] += 1
            if dispatched[0] % every == 0:
                raise _Stop(dispatched[0])

        return dispatch

    engine._handlers = tuple(wrap(handler) for handler in engine._handlers)


def _run_through_stops(engine):
    """Run ``engine`` until it drains, starting a new run after every
    :class:`_Stop`; return the clock at the end of each run."""
    stops = []
    while True:
        try:
            engine.run()
        except _Stop:
            stops.append(engine.now)
            continue
        stops.append(engine.now)
        return stops


# --------------------------------------------------------------------------- #
# The opcode rows
# --------------------------------------------------------------------------- #
class TestOpcodeRows:
    def _engine(self, log):
        engine = Engine()
        engine.set_handlers((lambda arg: log.append(arg),))
        return engine

    def test_sched_op_dispatches_through_the_jump_table(self):
        log = []
        engine = self._engine(log)
        engine.sched_op(5, K_OP_BASE, "b")
        engine.sched_op(2, K_OP_BASE, "a")
        engine.sched_op(5, K_OP_BASE, "c")
        assert engine.run() == 5
        assert log == ["a", "b", "c"]
        assert engine.events_processed == 3

    def test_op_rows_interleave_with_callables_in_fifo_order(self):
        log = []
        engine = self._engine(log)
        engine.at(3, lambda: log.append("cb1"))
        engine.sched_op(3, K_OP_BASE, "op")
        engine.at(3, lambda: log.append("cb2"))
        engine.run()
        assert log == ["cb1", "op", "cb2"]

    def test_defer_op_requeues_at_dispatch_time(self):
        # the deferral is two events: a row dispatches at time 2 and
        # queues the opcode row at 5, *after* the callable that was
        # already scheduled there.
        log = []
        engine = self._engine(log)
        engine.at(5, lambda: log.append("resident"))
        engine.defer_op(2, 3, K_OP_BASE, "deferred")
        engine.run()
        assert log == ["resident", "deferred"]
        assert engine.events_processed == 3  # callable + two deferral rows

    def test_defer_op_equals_at_plus_after(self):
        """defer_op(t, c, op, arg) runs at t + c, like at(t, after(c, ...))."""
        table = Engine()
        obj = Engine()
        seen_table, seen_obj = [], []
        table.set_handlers((lambda arg: seen_table.append((table.now, arg)),))
        table.defer_op(10, 7, K_OP_BASE, "x")
        obj.at(10, lambda: obj.after(7, lambda: seen_obj.append((obj.now, "x"))))
        table.run()
        obj.run()
        assert seen_table == seen_obj == [(17, "x")]

    def test_zero_cycle_deferral_lands_after_everything_queued_at_its_cycle(self):
        log = []
        engine = self._engine(log)
        engine.defer_op(3, 0, K_OP_BASE, "deferred")
        engine.at(3, lambda: log.append("peer"))
        engine.sched_op(3, K_OP_BASE, "row")

        def chained():
            # queued while cycle 3 drains, after the deferral's second row
            log.append("chained")
            engine.after(0, lambda: log.append("chained-again"))

        engine.at(3, chained)
        engine.run()
        assert log == ["peer", "row", "chained", "deferred", "chained-again"]
        assert engine.now == 3

    def test_long_same_cycle_run_keeps_scheduling_order(self):
        log = []
        engine = Engine()
        engine.set_handlers((lambda arg: log.append((engine.now, arg)),))
        for i in range(24):
            engine.defer_op(10, i % 3, K_OP_BASE, i)
        engine.at(10, lambda: log.append((engine.now, "mid")))
        for i in range(24, 32):
            engine.defer_op(10, 0, K_OP_BASE, i)
        engine.run()
        # every row lands at 10 + its own deferral, and rows sharing a
        # cycle keep the order in which they were deferred
        assert log == (
            [(10, "mid")]
            + [(10, i) for i in range(0, 24, 3)]
            + [(10, i) for i in range(24, 32)]
            + [(11, i) for i in range(1, 24, 3)]
            + [(12, i) for i in range(2, 24, 3)]
        )

    def test_deferral_counts_as_two_events(self):
        engine = self._engine([])
        engine.defer_op(1, 5, K_OP_BASE, None)
        engine.run()
        # the deferring row's dispatch plus the opcode row's
        assert engine.events_processed == 2

    MIXED_ORDER = ["op1", "callable", "cb-row", "deferred0", "op2", "deferred3"]

    def _queue_mixed_rows(self, engine, log):
        """Queue an event of every kind: opcode rows, a callable that
        schedules a callable, a plain callable and two deferred opcode
        rows.  Nine events in all, seven of them at cycle 4."""
        engine.sched_op(4, K_OP_BASE, "op1")
        engine.at(4, lambda: engine.after(0, lambda: log.append("cb-row")))
        engine.at(4, lambda: log.append("callable"))
        engine.defer_op(4, 0, K_OP_BASE, "deferred0")
        engine.defer_op(4, 3, K_OP_BASE, "deferred3")
        engine.sched_op(6, K_OP_BASE, "op2")

    def test_mixed_rows_dispatch_in_scheduling_order(self):
        """Callables, the rows a callable schedules, opcode rows and
        deferred opcode rows run in (cycle, scheduling order), one event
        per row."""
        log = []
        engine = self._engine(log)
        self._queue_mixed_rows(engine, log)
        assert engine.run() == 7
        assert log == self.MIXED_ORDER
        assert engine.events_processed == 9

    def test_a_raise_after_any_row_resumes_in_order(self):
        """A raising handler stops the run between any two events of any
        kind, and the next run resumes exactly where it stopped."""
        for every in (1, 2, 3):
            log = []
            engine = self._engine(log)
            self._queue_mixed_rows(engine, log)
            _raise_every(engine, every)
            stops = _run_through_stops(engine)
            assert log == self.MIXED_ORDER, every
            assert engine.events_processed == 9
            # one stopped run per ``every`` events, then the draining run
            assert len(stops) == 9 // every + 1
            assert stops == sorted(stops)
            if every == 1:
                # one event per run: the clock never runs ahead of the rows
                assert stops == [4] * 7 + [6, 7, 7]

    def test_rows_count_as_events_across_a_raise(self):
        log = []
        engine = self._engine(log)
        for tag in ("a", "b", "c"):
            engine.sched_op(4, K_OP_BASE, tag)
        _raise_every(engine, 2)
        with pytest.raises(_Stop):
            engine.run()
        assert log == ["a", "b"]
        assert engine.now == 4 and engine.events_processed == 2
        engine.run()  # the next run resumes mid-cycle
        assert log == ["a", "b", "c"]
        assert engine.events_processed == 3

    def test_deferred_rows_queue_behind_their_cycle_across_a_raise(self):
        """A zero-cycle deferral's opcode row is scheduled when its first
        row dispatches, so it runs after the events queued for its cycle
        before then, also when raises stop the run inside that cycle."""
        order = []
        engine = self._engine(order)
        engine.defer_op(7, 0, K_OP_BASE, "r1")
        engine.defer_op(7, 0, K_OP_BASE, "r2")
        engine.at(7, lambda: order.append("c1"))
        engine.at(9, lambda: order.append("late"))
        _raise_every(engine, 2)
        # six events: both deferring rows, c1, r1, r2 and late
        assert _run_through_stops(engine) == [7, 7, 9, 9]
        assert order == ["c1", "r1", "r2", "late"]
        assert engine.events_processed == 6

    def test_handler_exception_requeues_the_unprocessed_tail(self):
        log = []
        engine = Engine()

        def boom(arg):
            raise RuntimeError(arg)

        engine.set_handlers((lambda arg: log.append(arg), boom))
        engine.sched_op(1, K_OP_BASE + 1, "kaboom")
        engine.defer_op(1, 0, K_OP_BASE, "deferred")
        engine.sched_op(1, K_OP_BASE, "survivor")
        with pytest.raises(RuntimeError, match="kaboom"):
            engine.run()
        assert engine.now == 1 and not engine.empty()
        engine.run()
        assert log == ["survivor", "deferred"]
        assert engine.empty()

    def test_reentrant_run_raises(self):
        engine = Engine()
        errors = []

        def reenter(arg):
            try:
                engine.run()
            except SimulationError as error:
                errors.append(str(error))

        engine.set_handlers((reenter,))
        engine.defer_op(1, 0, K_OP_BASE, None)
        engine.run()
        assert len(errors) == 1
        assert "re-entrant" in errors[0]
        engine.at(2, lambda: None)
        assert engine.run() == 2

    def test_scheduling_in_the_past_and_negative_deferrals_raise(self):
        engine = self._engine([])
        engine.sched_op(3, K_OP_BASE, None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.sched_op(1, K_OP_BASE, None)
        with pytest.raises(SimulationError):
            engine.defer_op(1, 2, K_OP_BASE, None)
        with pytest.raises(SimulationError):
            engine.defer_op(5, -1, K_OP_BASE, None)


# --------------------------------------------------------------------------- #
# The queue both kernels share: same-cycle order, compaction, reset
# --------------------------------------------------------------------------- #
class _Recorder:
    """Wraps an engine's handlers to log every dispatch as ``(cycle, kind,
    payload)`` (a callable payload by its qualified name) and to check, at
    every dispatch, that the columns hold at most ``COMPACT_ROWS`` rows
    besides the pending ones."""

    def __init__(self):
        self.log = []
        self.widest = 0  # most dispatched rows the columns held at once

    def wrap(self, engine, handlers):
        def recording(kind, handler):
            def dispatch(arg):
                dead = len(engine._kind) - len(engine._heap)
                assert dead <= engine_module.COMPACT_ROWS
                self.widest = max(self.widest, dead)
                label = arg if type(arg) is int else getattr(arg, "__qualname__", "?")
                self.log.append((engine.now, kind, label))
                handler(arg)

            return dispatch

        return tuple(recording(kind, handler) for kind, handler in enumerate(handlers))


def _recorded_run(engine_kind, workload, monkeypatch):
    """Simulate ``workload`` on ``engine_kind``, logging every dispatch."""
    recorder = _Recorder()
    simulator = SystemSimulator(ARCH64, workload, True, engine=engine_kind)
    engine = simulator.engine
    with monkeypatch.context() as patch:
        if engine_kind == "table":
            set_handlers = Engine.set_handlers

            def recording(self, handlers):
                set_handlers(self, handlers)
                self._handlers = recorder.wrap(self, self._handlers)

            patch.setattr(Engine, "set_handlers", recording)
        else:
            engine._handlers = recorder.wrap(engine, engine._handlers)
        result = simulator.run()
    return result, recorder, engine.events_processed


class TestQueue:
    def test_same_cycle_schedules_run_after_everything_queued(self):
        """Rows and callables scheduled for the current cycle from inside a
        handler run after everything already queued for that cycle, in
        scheduling order."""
        engine = Engine()
        log = []
        engine.set_handlers((lambda arg: log.append(arg),))

        def handler(tag):
            log.append(tag)
            engine.after(0, lambda: log.append(f"{tag}-after0"))
            engine.sched_op(engine.now, K_OP_BASE, f"{tag}-row")
            engine.at(engine.now, lambda: log.append(f"{tag}-atnow"))

        engine.at(5, lambda: handler("x"))
        engine.sched_op(5, K_OP_BASE, "queued-row")
        engine.at(5, lambda: handler("y"))
        engine.at(6, lambda: log.append("next"))
        engine.run()
        assert log == [
            "x", "queued-row", "y", "x-after0", "x-row", "x-atnow",
            "y-after0", "y-row", "y-atnow", "next",
        ]

    def test_a_drained_queue_keeps_the_clock(self):
        """``run()`` returns the clock it ends at: the last event's cycle,
        or the clock unchanged when nothing is queued.  Back-to-back runs
        schedule relative to it."""
        engine = Engine()
        seen = []
        assert engine.run() == 0
        engine.at(10, lambda: seen.append(engine.now))
        assert engine.run() == 10
        assert engine.run() == 10 and engine.now == 10
        engine.after(5, lambda: seen.append(engine.now))
        engine.at(10, lambda: seen.append(engine.now))  # now is not the past
        assert engine.run() == 15
        assert seen == [10, 10, 15]
        assert engine.events_processed == 3

    def test_run_takes_no_bound(self):
        """A run always drains: a caller that asks for a bound fails
        loudly instead of running past it, and leaves the queue as it
        was."""
        engine = Engine()
        engine.at(5, lambda: None)
        for bound in ({"until": 3}, {"max_events": 1}):
            with pytest.raises(TypeError):
                engine.run(**bound)
        assert engine.now == 0 and engine.events_processed == 0
        assert not engine.empty()
        assert engine.run() == 5

    def test_a_raise_mid_batch_leaves_consistent_clock_and_order(self):
        """A handler that raises inside a same-cycle batch stops the run at
        that cycle with the rest of the batch queued; the next run resumes
        with it, FIFO, and then runs the later events."""
        engine = Engine()
        order = []

        def fail():
            order.append("b")
            raise RuntimeError("b failed")

        engine.at(7, lambda: order.append("a"))
        engine.at(7, fail)
        engine.at(7, lambda: order.append("c"))
        engine.at(9, lambda: order.append("late"))
        with pytest.raises(RuntimeError, match="b failed"):
            engine.run()
        assert order == ["a", "b"]
        assert engine.now == 7 and not engine.empty()
        assert engine.events_processed == 2
        assert engine.run() == 9
        assert order == ["a", "b", "c", "late"]
        assert engine.events_processed == 4

    def test_a_raise_keeps_same_cycle_continuations(self):
        """Events that a handler scheduled before it raised stay queued,
        behind the events already queued for their cycle."""
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.after(0, lambda: order.append("chained"))
            engine.after(2, lambda: order.append("later"))
            raise RuntimeError("first failed")

        engine.at(3, first)
        engine.at(3, lambda: order.append("second"))
        with pytest.raises(RuntimeError, match="first failed"):
            engine.run()
        assert order == ["first"]
        assert engine.now == 3
        assert engine.run() == 5
        assert order == ["first", "second", "chained", "later"]

    def test_raising_handlers_stop_and_resume_across_compactions(self, monkeypatch):
        """Runs that raising handlers stop resume in order when the columns
        compact between and inside the runs, and the columns never hold
        more than ``COMPACT_ROWS`` dispatched rows."""

        def trace(compact_rows, every):
            monkeypatch.setattr(engine_module, "COMPACT_ROWS", compact_rows)
            engine = Engine()
            log = []

            def event(tag, depth):
                log.append((engine.now, tag))
                assert len(engine._kind) - len(engine._heap) <= compact_rows
                if depth:
                    # a same-cycle cascade and a later event per level
                    engine.after(0, lambda: event(f"{tag}.0", depth - 1))
                    engine.after(depth, lambda: event(f"{tag}.{depth}", depth - 1))

            for i in range(6):
                engine.at(i % 3, lambda i=i: event(str(i), 4))
            if every is not None:
                _raise_every(engine, every)
            stops = _run_through_stops(engine)
            return log, engine.events_processed, stops

        reference, events, __ = trace(4096, None)
        assert events == len(reference) == 6 * 31
        for every in (1, 7, 30):
            for compact_rows in (3, 8):
                log, traced_events, stops = trace(compact_rows, every)
                assert log == reference, (every, compact_rows)
                assert traced_events == events
                assert len(stops) == events // every + 1
                assert stops == sorted(stops)

    @pytest.mark.parametrize("engine_kind", SIMULATION_ENGINES)
    def test_compaction_keeps_dispatch_order_and_results(self, engine_kind, monkeypatch):
        """A run forced through many compactions dispatches the same
        sequence as an uncompacted one, gives the same result, and its
        columns never hold more than ``COMPACT_ROWS`` dispatched rows."""
        workload = _chunked_chain(24, residual="storage")
        compactions = []
        compact = Engine._compact

        def counting(self):
            compactions.append(len(self._heap))
            compact(self)

        monkeypatch.setattr(Engine, "_compact", counting)
        monkeypatch.setattr(engine_module, "COMPACT_ROWS", 1 << 30)
        reference, plain, events = _recorded_run(engine_kind, workload, monkeypatch)
        assert compactions == []
        monkeypatch.setattr(engine_module, "COMPACT_ROWS", 16)
        result, compacted, compacted_events = _recorded_run(
            engine_kind, workload, monkeypatch
        )
        assert len(compactions) == events // 16 > 20
        assert compacted.widest == 16
        assert compacted.log == plain.log
        assert compacted_events == events == len(plain.log)
        assert result_mismatches(reference, result) == []


# --------------------------------------------------------------------------- #
# Row storage: bounded columns and reset
# --------------------------------------------------------------------------- #
class TestRowStorage:
    def test_columns_stay_bounded(self):
        """A long run keeps at most ``COMPACT_ROWS`` dispatched rows in the
        columns besides the pending ones, and counts every event."""
        engine = Engine()
        widest = []

        def step(left):
            widest.append(len(engine._kind) - len(engine._heap))
            if left:
                engine.after(left % 3, lambda: step(left - 1))
                engine.after(0, lambda: None)

        engine.at(0, lambda: step(5000))
        engine.run()
        assert engine.events_processed == 1 + 2 * 5000
        # the run outgrew the threshold twice, and compacted each time
        assert engine.events_processed > 2 * engine_module.COMPACT_ROWS
        assert max(widest) <= engine_module.COMPACT_ROWS
        assert len(engine._kind) <= engine_module.COMPACT_ROWS

    def test_a_dispatched_row_drops_its_payload(self):
        """The columns keep no callable alive once its event has run."""

        class Payload:
            def __call__(self):
                pass

        engine = Engine()
        payload = Payload()
        alive = weakref.ref(payload)
        engine.at(1, payload)
        del payload
        seen = []
        engine.at(2, lambda: seen.append(alive()))
        engine.run()
        assert seen == [None] and engine.empty()

    def test_a_row_dispatched_before_a_raise_drops_its_payload(self):
        """A run that a raising handler stops keeps no callable of the rows
        it dispatched alive, the raising one included."""

        class Payload:
            def __init__(self, fail):
                self.fail = fail

            def __call__(self):
                if self.fail:
                    raise RuntimeError("stop")

        engine = Engine()
        payloads = [Payload(False), Payload(True)]
        alive = [weakref.ref(payload) for payload in payloads]
        engine.at(1, payloads[0])
        engine.at(2, payloads[1])
        del payloads
        seen = []
        engine.at(3, lambda: seen.append([ref() for ref in alive]))
        with pytest.raises(RuntimeError, match="stop"):
            engine.run()
        assert engine.now == 2 and not engine.empty()
        assert [ref() for ref in alive] == [None, None]
        engine.run()
        assert seen == [[None, None]] and engine.empty()

    def test_reset_releases_the_columns(self):
        """A drained engine's columns go, its event count stays, and it
        stays usable."""
        engine = Engine()
        fired = []
        for start in range(8):
            engine.at(start, lambda start=start: fired.append(start))
            engine.at(start, lambda: engine.after(1, lambda: None))
        engine.run()
        assert len(engine._kind) == len(engine._arg) == 8 * 3
        engine.reset()
        assert engine._kind == [] and engine._arg == [] and engine._heap == []
        assert engine.events_processed == 8 * 3
        engine.at(20, lambda: fired.append("z"))
        engine.run()
        assert fired == list(range(8)) + ["z"]
        assert engine.events_processed == 8 * 3 + 1

    @pytest.mark.parametrize("lane", ["op", "callback"])
    def test_reset_refuses_pending_events(self, lane):
        """A reset must never orphan a pending row."""
        engine = Engine()
        engine.set_handlers((lambda arg: None,))
        if lane == "op":
            engine.sched_op(5, K_OP_BASE, None)
        else:
            engine.at(5, lambda: None)
        with pytest.raises(SimulationError, match="pending"):
            engine.reset()
        engine.run()
        engine.reset()  # drained: now legal

    def test_reset_refuses_reentrant_call(self):
        engine = Engine()
        errors = []

        def from_inside():
            try:
                engine.reset()
            except SimulationError as error:
                errors.append(str(error))

        engine.at(1, from_inside)
        engine.run()
        assert errors and "inside run()" in errors[0]

    @pytest.mark.parametrize("engine_kind", SIMULATION_ENGINES)
    def test_simulator_run_compacts_a_drained_engine(self, engine_kind):
        """SystemSimulator.run() resets the columns after the run drains,
        so long-lived workers do not retain them between scenarios."""
        simulator = SystemSimulator(ARCH64, _chain(n_jobs=8), engine=engine_kind)
        simulator.run()
        assert simulator.engine._kind == [] and simulator.engine._arg == []
        assert simulator.engine.events_processed > 0


# --------------------------------------------------------------------------- #
# Callables beside opcode rows
# --------------------------------------------------------------------------- #
class TestCallablesBesideRows:
    def test_object_primitives_run_unchanged(self):
        """Server and CreditStore run unchanged on an engine with an opcode
        table registered."""
        engine = Engine()
        engine.set_handlers((lambda arg: None,))
        server = Server(engine, "s", capacity=1)
        store = CreditStore(engine, "c", initial=1)
        done = []
        store.acquire(lambda: server.submit(10, lambda: done.append(engine.now)))
        store.acquire(lambda: server.submit(10, lambda: done.append(engine.now)))
        engine.at(5, store.release)
        engine.run()
        # second job is granted at t=5, queues behind the first (busy until
        # t=10) and serves 10 cycles
        assert done == [10, 20]


# --------------------------------------------------------------------------- #
# TableProgram: chunk bursts enter the NoC as one row and land as one row
# --------------------------------------------------------------------------- #
def _saved_events(bursts, folded):
    """Events the merged rows save against one row per chunk: ``k - 1``
    per burst row, and ``k - 1`` per folded landing (``k`` landing rows
    of one event each become one)."""
    return sum(k - 1 for k, __ in bursts) + sum(k - 1 for k, __ in folded)


class TestBurstRows:
    def _run(self, workload, model_contention, monkeypatch, per_chunk=False):
        """A table-lane run, its event count and the merged rows it dispatched.

        Returns ``(result, events, bursts, folded)``: ``bursts`` holds the
        ``(k, group_id * n_jobs + job)`` of every OP_NOC_BURST row,
        ``folded`` the same of every OP_BURST_LANDED row.  ``per_chunk``
        expands each burst row into ``k`` adjacent OP_NOC_START rows where
        it is scheduled: the rows the lane scheduled before burst rows
        existed, each of which lands through its own row.
        """
        simulator = SystemSimulator(ARCH64, workload, model_contention, engine="table")
        program = simulator._table
        bursts = []
        folded = []
        with monkeypatch.context() as patch:

            def record(name, rows):
                dispatch = getattr(TableProgram, name)

                def recording(self, arg):
                    rows.append(divmod(arg, self._burst_stride))
                    dispatch(self, arg)

                patch.setattr(TableProgram, name, recording)

            record("_op_noc_burst", bursts)
            record("_op_burst_landed", folded)
            if per_chunk:
                sched_op = Engine.sched_op

                def expanded(engine, time, op, arg):
                    if op != OP_NOC_BURST:
                        sched_op(engine, time, op, arg)
                        return
                    k, base = divmod(arg, program._burst_stride)
                    for __ in range(k):
                        sched_op(engine, time, OP_NOC_START, base)

                patch.setattr(Engine, "sched_op", expanded)
            result = simulator.run()
        return result, simulator.engine.events_processed, bursts, folded

    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_a_burst_row_saves_k_minus_one_events(self, model_contention, monkeypatch):
        # 16-chunk stage flows against 16 DMA channels: every job's flow
        # finds all channels free, so each is one burst row of k = 16;
        # under contention its landings fold into one row once the
        # destination is touched, i.e. on every job but the first
        workload = _chunked_chain(16)
        chunked = [
            flow.transfers_per_job
            for stage in workload.stages
            for flow in stage.outputs
            if flow.transfers_per_job > 1
        ]
        result, events, bursts, folded = self._run(workload, model_contention, monkeypatch)
        per_chunk, per_chunk_events, unmerged, unfolded = self._run(
            workload, model_contention, monkeypatch, per_chunk=True
        )
        assert unmerged == unfolded == []  # every burst row was expanded
        assert [k for k, __ in bursts] == [16] * (workload.n_jobs * len(chunked))
        if model_contention:
            assert [k for k, __ in folded] == [16] * ((workload.n_jobs - 1) * len(chunked))
        else:
            assert folded == []  # uncontended landings stay per chunk
        assert events == per_chunk_events - _saved_events(bursts, folded)
        assert result_mismatches(per_chunk, result) == []

    def test_split_bursts_keep_per_chunk_rows_for_busy_channels(self, monkeypatch):
        # 24 chunks: 16 find free channels (one burst row), 8 wait
        workload = _chunked_chain(24, residual="storage")
        result, events, bursts, folded = self._run(workload, True, monkeypatch)
        per_chunk, per_chunk_events, __, __ = self._run(
            workload, True, monkeypatch, per_chunk=True
        )
        assert bursts and {k for k, __ in bursts} <= set(range(2, 17))
        # only a burst row's landings can fold: the waiting chunks enter
        # and land one row each
        assert folded and set(folded) <= set(bursts)
        assert events == per_chunk_events - _saved_events(bursts, folded)
        assert result_mismatches(per_chunk, result) == []

    def test_a_burst_to_an_untouched_cluster_keeps_per_chunk_landings(self, monkeypatch):
        # the first job's bursts are the first traffic into the clusters of
        # stages 1 and 2, whose first-touch order the tracer keeps
        workload = _chunked_chain(16)
        result, __, bursts, folded = self._run(workload, True, monkeypatch)
        unfolded = {base for __, base in bursts} - {base for __, base in folded}
        # one burst of each of the two chunked flows, both of job 0
        groups, jobs = zip(*sorted(divmod(base, workload.n_jobs) for base in unfolded))
        assert len(set(groups)) == 2 and jobs == (0, 0)
        python = simulate(ARCH64, workload, True, engine="python")
        assert result_mismatches(python, result) == []


# --------------------------------------------------------------------------- #
# The engine axis: two registered engines, the retired name rejected
# --------------------------------------------------------------------------- #
class TestEngineAxis:
    def test_table_is_the_default_engine(self):
        assert SIMULATION_ENGINES == ("python", "table")
        assert DEFAULT_ENGINE == "table"
        assert Scenario().engine == DEFAULT_ENGINE

    def test_unknown_engine_rejected(self):
        workload = _chain(n_jobs=4)
        with pytest.raises(ValueError, match="unknown simulation engine"):
            simulate(ARCH64, workload, engine="compiled")
        with pytest.raises(ValueError, match="unknown simulation engine"):
            SystemSimulator(ARCH64, workload, engine="compiled")

    @pytest.mark.parametrize(
        "refusal", ["open-workload", "probe-too-short", "window-too-large"]
    )
    def test_unknown_engine_rejected_by_fast_forward(self, refusal):
        """The fast-forward checks the engine before it refuses a workload
        that it would refuse on a registered engine."""
        workload = {
            "open-workload": _chain(n_jobs=MIN_JOBS).with_arrivals(
                range(0, 400 * MIN_JOBS, 400)
            ),
            "probe-too-short": _chain(n_jobs=MIN_JOBS - 1),
            "window-too-large": _chain(
                n_stages=2, n_jobs=MIN_JOBS, replication=MAX_WINDOW + 1
            ),
        }[refusal]
        assert fast_forward_simulate(ARCH64, workload).reason == refusal
        with pytest.raises(ValueError, match="unknown simulation engine"):
            fast_forward_simulate(ARCH64, workload, engine="bogus")

    def test_retired_array_engine_rejected_by_simulate(self):
        with pytest.raises(ValueError, match="'array'"):
            simulate(ARCH64, _chain(n_jobs=4), engine="array")

    def test_retired_array_engine_rejected_by_scenario(self):
        with pytest.raises(SpecError) as info:
            Scenario(engine="array")
        assert "'python'" in str(info.value) and "'table'" in str(info.value)

    def test_retired_array_engine_rejected_by_spec_file(self, tmp_path):
        spec = tmp_path / "spec.toml"
        spec.write_text(
            '[base]\nmodel = "tiny_cnn"\nengine = "array"\n\n'
            "[axes]\nbatch_size = [1, 2]\n"
        )
        with pytest.raises(SpecError) as info:
            load_spec(spec)
        assert "'python'" in str(info.value) and "'table'" in str(info.value)
