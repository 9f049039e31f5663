"""Kernel contract of the compiled table lane.

The table kernel (``engine="table"``, the default) compiles
``_StageRuntime``'s per-job lifecycle into integer transition tables
(:mod:`repro.sim.system_table`) dispatched through
:class:`~repro.sim.engine_table.TableEngine`'s row lane.  End-to-end
bit-identity against the object kernel lives in
``tests/test_sim_kernel_equivalence.py``; this module covers:

* ``TableEngine`` alone: opcode scheduling/deferral semantics, callback
  rows (``defer_at``), FIFO interleaving with callables, row storage with
  its free list and ``reset`` rules, the bounded ``max_events`` loop
  (truncation between rows with in-order resume, the exception-safe tail
  requeue), ``until`` bounds and non-re-entrancy;
* the burst rows of :class:`~repro.sim.system_table.TableProgram`: the
  chunks of one group that find free DMA channels enter the NoC as one
  ``OP_NOC_BURST`` row, which saves ``k - 1`` events per burst of ``k``
  chunks and changes no observable;
* the ``engine`` axis: two registered engines, ``table`` the default, and
  the retired ``"array"`` name rejected everywhere a user can spell it
  (per-engine cache keys are covered in the equivalence suite).
"""

import pytest

from repro.scenarios import Scenario, SpecError, load_spec
from repro.sim import (
    CreditStore,
    Engine,
    Server,
    SimulationError,
    SystemSimulator,
    TableEngine,
    result_mismatches,
    simulate,
)
from repro.sim.engine_table import K_OP_BASE
from repro.sim.system import DEFAULT_ENGINE, SIMULATION_ENGINES
from repro.sim.system_table import OP_NOC_BURST, OP_NOC_START, TableProgram

from test_sim_fast_forward import ARCH64, _chain, _chunked_chain


# --------------------------------------------------------------------------- #
# TableEngine: the opcode lane
# --------------------------------------------------------------------------- #
class TestTableEngine:
    def _engine(self, log):
        engine = TableEngine()
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
        # the deferral is two events: the row dispatches at time 2 and
        # re-queues itself into bucket 5, landing *after* the callable
        # that was already scheduled there.
        log = []
        engine = self._engine(log)
        engine.at(5, lambda: log.append("resident"))
        engine.defer_op(2, 3, K_OP_BASE, "deferred")
        engine.run()
        assert log == ["resident", "deferred"]
        assert engine.events_processed == 3  # callable + row twice

    def test_zero_cycle_deferral_appends_to_the_active_bucket_tail(self):
        log = []
        engine = self._engine(log)
        engine.defer_op(0, 0, K_OP_BASE, "deferred")
        engine.at(0, lambda: log.append("same-bucket"))
        engine.run()
        assert log == ["same-bucket", "deferred"]

    def test_max_events_truncates_between_mixed_rows_and_resumes_in_order(self):
        """The bounded loop stops between any two entries — callables,
        callback rows, opcode rows and deferred opcode rows alike — and a
        later run resumes exactly where it stopped."""

        def trace(bound):
            log = []
            engine = self._engine(log)
            engine.sched_op(4, K_OP_BASE, "op1")
            engine.defer_at(4, 0, lambda: log.append("cb-row"))
            engine.at(4, lambda: log.append("callable"))
            engine.defer_op(4, 0, K_OP_BASE, "deferred0")
            engine.defer_op(4, 3, K_OP_BASE, "deferred3")
            engine.sched_op(6, K_OP_BASE, "op2")
            steps = []
            while not engine.empty():
                engine.run(max_events=bound)
                steps.append((engine.now, len(log)))
            return log, engine.events_processed, steps

        unbounded_log, unbounded_events, __ = trace(None)
        assert unbounded_log == [
            "op1", "callable", "cb-row", "deferred0", "op2", "deferred3",
        ]
        for bound in (1, 2, 3):
            log, events, steps = trace(bound)
            assert log == unbounded_log, bound
            assert events == unbounded_events == 9
            # every bounded call dispatched at most ``bound`` events
            assert len(steps) >= -(-events // bound)
        # one event at a time: the clock never runs ahead of the rows
        __, __, steps = trace(1)
        assert [now for now, __ in steps] == [4] * 7 + [6, 7]

    def test_bounded_run_counts_rows_as_events(self):
        log = []
        engine = self._engine(log)
        engine.sched_op(4, K_OP_BASE, "a")
        engine.sched_op(4, K_OP_BASE, "b")
        engine.sched_op(4, K_OP_BASE, "c")
        engine.run(max_events=2)
        assert log == ["a", "b"]
        assert engine.now == 4 and engine.events_processed == 2
        engine.run()  # the unbounded inlined loop resumes mid-bucket
        assert log == ["a", "b", "c"]

    @pytest.mark.parametrize("max_events", [None, 10], ids=["unbounded", "bounded"])
    def test_handler_exception_requeues_the_unprocessed_tail(self, max_events):
        log = []
        engine = TableEngine()

        def boom(arg):
            raise RuntimeError(arg)

        engine.set_handlers((lambda arg: log.append(arg), boom))
        engine.sched_op(1, K_OP_BASE + 1, "kaboom")
        engine.defer_op(1, 0, K_OP_BASE, "deferred")
        engine.sched_op(1, K_OP_BASE, "survivor")
        with pytest.raises(RuntimeError, match="kaboom"):
            engine.run(max_events=max_events)
        assert engine.now == 1 and not engine.empty()
        engine.run(max_events=max_events)
        assert log == ["survivor", "deferred"]
        assert engine.empty()

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
# TableEngine: callback rows (defer_at)
# --------------------------------------------------------------------------- #
class TestDeferAt:
    def test_equivalent_to_at_plus_after(self):
        """defer_at(t, c, cb) fires cb at t + c, like at(t, after(c, cb))."""
        table = TableEngine()
        obj = Engine()
        seen_table, seen_obj = [], []
        table.defer_at(10, 7, lambda: seen_table.append(table.now))
        obj.at(10, lambda: obj.after(7, lambda: seen_obj.append(obj.now)))
        table.run()
        obj.run()
        assert seen_table == seen_obj == [17]

    def test_zero_cycles_row_lands_in_same_cycle(self):
        engine = TableEngine()
        order = []
        engine.at(5, lambda: order.append("callable"))
        engine.defer_at(5, 0, lambda: order.append("row"))
        engine.run()
        # the row dispatches after the callable (FIFO within the cycle) and
        # its zero deferral re-queues it at the tail of the in-flight batch
        assert order == ["callable", "row"]
        assert engine.now == 5

    def test_zero_heap_cascade_from_row_callback(self):
        """A row's callback can chain after(0) continuations, all at one t."""
        engine = TableEngine()
        order = []

        def chained():
            order.append("chained")
            engine.after(0, lambda: order.append("chained-again"))

        engine.defer_at(3, 0, chained)
        engine.at(3, lambda: order.append("peer"))
        engine.run()
        # the row's zero deferral joins the tail of the in-flight batch
        # (after the already-queued peer), then its callback chains again
        assert order == ["peer", "chained", "chained-again"]
        assert engine.now == 3

    def test_rows_interleave_with_callables_in_fifo_order(self):
        engine = TableEngine()
        order = []
        engine.defer_at(4, 0, lambda: order.append("r1"))
        engine.at(4, lambda: order.append("c1"))
        engine.defer_at(4, 0, lambda: order.append("r2"))
        engine.at(4, lambda: order.append("c2"))
        engine.run()
        # rows dispatch in submission order relative to callables; their
        # zero deferrals append to the batch tail in dispatch order
        assert order == ["c1", "c2", "r1", "r2"]

    def test_long_same_cycle_run_dispatches_in_row_order(self):
        engine = TableEngine()
        done = []
        for i in range(24):
            engine.defer_at(10, i % 3, lambda i=i: done.append((engine.now, i)))
        engine.run()
        # every callback fires at 10 + its own deferral, and rows sharing a
        # target time keep their submission order
        assert done == sorted(done)
        assert {time for time, __ in done} == {10, 11, 12}

    def test_row_runs_split_at_a_callable_keep_fifo_order(self):
        engine = TableEngine()
        order = []
        for i in range(8):
            engine.defer_at(1, 0, lambda i=i: order.append(f"a{i}"))
        engine.at(1, lambda: order.append("mid"))
        for i in range(8):
            engine.defer_at(1, 0, lambda i=i: order.append(f"b{i}"))
        engine.run()
        assert order == ["mid"] + [f"a{i}" for i in range(8)] + [f"b{i}" for i in range(8)]

    def test_past_time_rejected(self):
        engine = TableEngine()
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.defer_at(5, 1, lambda: None)

    def test_negative_cycles_rejected(self):
        engine = TableEngine()
        with pytest.raises(SimulationError):
            engine.defer_at(0, -1, lambda: None)

    def test_row_counts_as_two_events(self):
        engine = TableEngine()
        engine.defer_at(1, 5, lambda: None)
        engine.run()
        # the row's dispatch plus the dispatch of its deferred callback
        assert engine.events_processed == 2


# --------------------------------------------------------------------------- #
# TableEngine: row storage
# --------------------------------------------------------------------------- #
class TestRowStorage:
    def test_free_list_recycles_rows(self):
        """Sequential rows reuse one storage slot — the table stays dense."""
        engine = TableEngine()
        for start in range(0, 50, 2):
            engine.defer_at(start, 1, lambda: None)
            engine.run()
        assert len(engine._row_kind) == 1
        assert engine._free_rows == [0]

    def test_reset_releases_row_storage(self):
        """Post-run compaction drops the peak-size columns and free list of
        opcode and callback rows alike."""
        fired = []
        engine = TableEngine()
        engine.set_handlers((fired.append,))
        for start in range(8):
            engine.sched_op(start, K_OP_BASE, start)
            engine.defer_at(start, 1, lambda: None)
        engine.run()
        assert len(engine._row_kind) > 0 and engine._free_rows
        engine.reset()
        assert engine._row_kind == []
        assert engine._row_cycles == []
        assert engine._row_callback == []
        assert engine._free_rows == []
        # the engine stays usable after compaction
        engine.sched_op(20, K_OP_BASE, "z")
        engine.defer_at(20, 2, lambda: fired.append("cb"))
        engine.run()
        assert fired == list(range(8)) + ["z", "cb"]

    @pytest.mark.parametrize("lane", ["op", "callback"])
    def test_reset_refuses_pending_events(self, lane):
        """A reset must never orphan a live row index sitting in a bucket."""
        engine = TableEngine()
        engine.set_handlers((lambda arg: None,))
        if lane == "op":
            engine.sched_op(5, K_OP_BASE, None)
        else:
            engine.defer_at(5, 1, lambda: None)
        with pytest.raises(SimulationError, match="pending"):
            engine.reset()
        engine.run()
        engine.reset()  # drained: now legal

    def test_reset_refuses_reentrant_call(self):
        engine = TableEngine()
        errors = []

        def from_inside():
            try:
                engine.reset()
            except SimulationError as error:
                errors.append(str(error))

        engine.at(1, from_inside)
        engine.run()
        assert errors and "inside run()" in errors[0]

    def test_simulator_run_compacts_a_drained_engine(self):
        """SystemSimulator.run() resets the row storage after the run
        drains, so long-lived workers do not retain peak-size columns
        between scenarios."""
        simulator = SystemSimulator(ARCH64, _chain(n_jobs=8), engine="table")
        simulator.run()
        assert simulator.engine._row_kind == []
        assert simulator.engine._free_rows == []


# --------------------------------------------------------------------------- #
# TableEngine: bounded runs and re-entrancy
# --------------------------------------------------------------------------- #
class TestBoundedRuns:
    def test_max_events_truncates_between_rows_and_resumes_in_order(self):
        """Mirrors the object kernel's mid-batch truncation contract."""
        engine = TableEngine()
        order = []
        engine.defer_at(7, 0, lambda: order.append("r1"))
        engine.defer_at(7, 0, lambda: order.append("r2"))
        engine.at(7, lambda: order.append("c1"))
        engine.at(9, lambda: order.append("late"))
        engine.run(max_events=2)
        # two of the three t=7 entries dispatched; the rows re-queued
        # themselves behind the unprocessed tail
        assert engine.now == 7
        assert not engine.empty()
        engine.run()
        assert order == ["c1", "r1", "r2", "late"]
        assert engine.now == 9

    def test_max_events_counts_rows_as_events(self):
        engine = TableEngine()
        fired = []
        for i in range(4):
            engine.defer_at(1, 10, lambda i=i: fired.append(i))
        engine.run(max_events=3)
        assert engine.now == 1
        assert fired == []  # rows dispatched, callbacks land at t=11
        engine.run()
        assert fired == [0, 1, 2, 3]

    def test_until_bound_matches_object_engine(self):
        table = TableEngine()
        obj = Engine()
        for engine in (table, obj):
            engine.at(100, lambda: None)
            assert engine.run(until=50) == 50
            assert engine.run(until=40) == 50  # stale bound: no rewind
            engine.run()
            assert engine.now == 100

    def test_reentrant_run_raises(self):
        engine = TableEngine()
        errors = []

        def reenter():
            try:
                engine.run()
            except SimulationError as error:
                errors.append(str(error))

        engine.defer_at(1, 0, reenter)
        engine.run()
        assert len(errors) == 1
        assert "re-entrant" in errors[0]
        engine.at(2, lambda: None)
        assert engine.run() == 2


class TestDropIn:
    def test_object_primitives_run_unchanged(self):
        """Server and CreditStore work on TableEngine exactly as on Engine."""
        engine = TableEngine()
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
        assert server.jobs_served == 2

    def test_uses_slots(self):
        assert not hasattr(TableEngine(), "__dict__")


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
                sched_op = TableEngine.sched_op

                def expanded(engine, time, op, arg):
                    if op != OP_NOC_BURST:
                        sched_op(engine, time, op, arg)
                        return
                    k, base = divmod(arg, program._burst_stride)
                    for __ in range(k):
                        sched_op(engine, time, OP_NOC_START, base)

                patch.setattr(TableEngine, "sched_op", expanded)
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
