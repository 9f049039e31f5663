"""Cycle-batched state-machine dispatch: opcode rows + a handler jump table.

The object kernel (:mod:`repro.sim.engine`) dispatches every event as a
Python callable, and profiling the FINAL-mapping run shows the floor is
exactly those callables: per-job closures (start/finish/deliver),
credit-grant lambdas and per-chunk transfer completions.

:class:`TableEngine` keeps the object kernel's bucketed queue (heap of
distinct timestamps, FIFO list per timestamp, zero-heap same-cycle lane)
and its exact dispatch contract, and adds a lane of **rows**: an event may
be a plain callable *or* an integer row index into columnar
(structure-of-arrays) row storage::

    kind      int   jump-table index of the row's handler
    cycles    int   pending deferral, or the consumed marker (-1)
    payload   obj   the handler argument

Dispatching a row is one table lookup plus one handler call on dense
integer state — no closure is ever allocated.  ``kind`` indexes the
handler table registered once per run (:meth:`set_handlers`), and the
payload is usually a packed integer (``state_id * n_jobs + job``) naming a
slot in the client's flat state vectors, so the client's transition logic
(:class:`repro.sim.system_table.TableProgram`) advances whole lifecycle
steps per handler call instead of one callback hop each.  Kind
:data:`K_TRANSFER_DRAIN` is reserved: its handler calls the payload, which
is how :meth:`defer_at` carries arbitrary callbacks.

Three scheduling entry points:

* :meth:`sched_op` ≡ ``at(time, lambda: handler(arg))`` — the handler runs
  when the row is dispatched;
* :meth:`defer_op` ≡ ``at(time, lambda: after(cycles, lambda:
  handler(arg)))`` — at dispatch the row *re-queues itself* into bucket
  ``time + cycles`` (zero allocation: the row flips its ``cycles`` field
  to the consumed marker), and the handler runs when the re-queued row is
  dispatched.  The insertion into the target bucket happens at simulated
  time ``time``, as the object kernel's ``after`` inside its ``at``
  callback does (a queued DMA start), which keeps the two kernels' event
  orders aligned; a ``cycles == 0`` deferral re-queues at the tail of the
  active bucket, like ``after(0, ...)``;
* :meth:`defer_at` — :meth:`defer_op` with a callback payload.

Rows are single-use and recycled through a free list so the storage stays
dense; :meth:`reset` releases it after a drained run.  Every row dispatch
counts as one event, so a ``defer_op`` or ``defer_at`` costs two events,
exactly as the object kernel's deferral does.  Bounded runs
(``max_events``) may stop between any two entries of a bucket and resume
in order; an unbounded run takes a single-pass loop (:meth:`_drain`).
The bit-identity gate is
``tests/test_sim_kernel_equivalence.py``; this module's own contract is
tested in ``tests/test_sim_engine_table.py``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence, Tuple

from .engine import Callback, Engine, SimulationError

#: row kind of a :meth:`TableEngine.defer_at` callback row (a callback
#: deferred by a fixed number of cycles from the row's own cycle); its
#: built-in handler calls the payload.
K_TRANSFER_DRAIN = 0

#: first client opcode: kinds at or above it index the handlers passed to
#: :meth:`TableEngine.set_handlers`, in order.
K_OP_BASE = K_TRANSFER_DRAIN + 1

#: ``cycles`` marker of a row whose deferral (if any) has been consumed:
#: dispatching it runs the handler.  ``sched_op`` rows are born consumed;
#: ``defer_op`` rows carry ``cycles >= 0`` and flip to the marker when
#: they re-queue themselves.
_CONSUMED = -1


def _call(callback: Callback) -> None:
    callback()


class TableEngine(Engine):
    """Event queue with a row lane dispatched through a jump table.

    A drop-in :class:`~repro.sim.engine.Engine`: ``at``/``after``/``run``
    keep their exact semantics for callable events, callables and rows
    coexist in the same buckets and dispatch in exact FIFO order, and the
    object-kernel primitives (:class:`~repro.sim.engine.Server`,
    :class:`~repro.sim.engine.CreditStore`) run on it unchanged.
    """

    __slots__ = ("_row_kind", "_row_cycles", "_row_callback", "_free_rows", "_handlers")

    def __init__(self):
        super().__init__()
        # columnar row storage; ``_row_callback`` holds each row's payload
        self._row_kind: List[int] = []
        self._row_cycles: List[int] = []
        self._row_callback: List[object] = []
        self._free_rows: List[int] = []
        self._handlers: Tuple[Callable, ...] = (_call,)

    def set_handlers(self, handlers: Sequence[Callable]) -> None:
        """Register the opcode jump table: ``handlers[op - K_OP_BASE]``."""
        self._handlers = (_call,) + tuple(handlers)

    # ------------------------------------------------------------------ #
    # Row lane
    # ------------------------------------------------------------------ #
    def sched_op(self, time: int, op: int, arg) -> None:
        """Schedule ``handlers[op - K_OP_BASE](arg)`` at ``time``.

        One event, like ``at(time, callback)``; the handler runs when the
        row is dispatched.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        free = self._free_rows
        if free:
            row = free.pop()
            self._row_kind[row] = op
            self._row_cycles[row] = _CONSUMED
            self._row_callback[row] = arg
        else:
            row = len(self._row_kind)
            self._row_kind.append(op)
            self._row_cycles.append(_CONSUMED)
            self._row_callback.append(arg)
        if time == self._now and self._active is not None:
            self._active.append(row)
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [row]
            heapq.heappush(self._times, time)
        else:
            bucket.append(row)

    def defer_op(self, time: int, cycles: int, op: int, arg) -> None:
        """At ``time``, defer ``handlers[op - K_OP_BASE](arg)`` by ``cycles``.

        Two events: the row is dispatched at ``time`` and re-queues
        *itself* into bucket ``time + cycles`` (flipping ``cycles`` to the
        consumed marker — no second allocation), where its dispatch runs
        the handler.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        if cycles < 0:
            raise SimulationError(f"deferral cannot be negative, got {cycles}")
        free = self._free_rows
        if free:
            row = free.pop()
            self._row_kind[row] = op
            self._row_cycles[row] = cycles
            self._row_callback[row] = arg
        else:
            row = len(self._row_kind)
            self._row_kind.append(op)
            self._row_cycles.append(cycles)
            self._row_callback.append(arg)
        if time == self._now and self._active is not None:
            self._active.append(row)
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [row]
            heapq.heappush(self._times, time)
        else:
            bucket.append(row)

    def defer_at(self, time: int, cycles: int, callback: Callback) -> None:
        """At ``time``, defer ``callback`` by ``cycles`` (a callback row).

        Equivalent to ``at(time, lambda: after(cycles, callback))`` without
        the closure: ``callback`` runs in bucket ``time + cycles``, inserted
        there at simulated time ``time``.
        """
        self.defer_op(int(time), int(cycles), K_TRANSFER_DRAIN, callback)

    def reset(self) -> None:
        """Release the row storage and free list (post-run compaction).

        Row storage grows to the run's peak number of in-flight rows and is
        only ever recycled, never shrunk, while events are pending.  A
        long-lived holder of the engine (a ``SweepRunner`` worker, the
        steady-state prober) would otherwise retain the peak-size columns;
        after a drained run this drops them.  Raises
        :class:`SimulationError` when called mid-run or with events still
        queued — a reset must never orphan a live row index in a bucket.
        """
        if self._running:
            raise SimulationError("cannot reset an engine from inside run()")
        if self._times:
            raise SimulationError("cannot reset an engine with pending events")
        self._row_kind.clear()
        self._row_cycles.clear()
        self._row_callback.clear()
        self._free_rows.clear()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, entry) -> None:
        """Dispatch one bucket entry at the current time (bounded runs)."""
        if type(entry) is not int:
            entry()
            return
        cycles = self._row_cycles[entry]
        if cycles < 0:
            arg = self._row_callback[entry]
            self._row_callback[entry] = None
            self._free_rows.append(entry)
            self._handlers[self._row_kind[entry]](arg)
            return
        # deferral pending: re-queue this same row, deferral consumed
        self._row_cycles[entry] = _CONSUMED
        if cycles == 0:
            self._active.append(entry)
            return
        time = self._now + cycles
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [entry]
            heapq.heappush(self._times, time)
        else:
            bucket.append(entry)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``until`` / ``max_events`` is hit).

        Same contract as :meth:`repro.sim.engine.Engine.run` — including
        mid-batch ``max_events`` truncation with in-order resume, the
        exception-safe tail requeue and non-re-entrancy — extended to rows,
        each dispatch of which counts as one event.  An unbounded run (no
        ``until``, no ``max_events``) takes :meth:`_drain`, the hot loop;
        bounded runs dispatch through :meth:`_dispatch`.
        """
        if self._running:
            raise SimulationError(
                "Engine.run() is not re-entrant: it was called from inside "
                "an event callback while a run is already in progress"
            )
        if until is None and max_events is None:
            return self._drain()
        if until is not None and until < self._now:
            return self._now
        self._running = True
        processed = 0
        times = self._times
        buckets = self._buckets
        dispatch = self._dispatch
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heapq.heappop(times)
                bucket = buckets.pop(time)
                self._now = time
                self._active = bucket
                index = 0
                try:
                    while index < len(bucket):
                        entry = bucket[index]
                        index += 1
                        processed += 1
                        dispatch(entry)
                        if max_events is not None and processed >= max_events:
                            break
                finally:
                    self._active = None
                    if index < len(bucket):
                        # truncated mid-batch (max_events, or a handler
                        # raised): requeue the unprocessed tail so a later
                        # run() resumes in order.
                        buckets[time] = bucket[index:]
                        heapq.heappush(times, time)
                if max_events is not None and processed >= max_events:
                    break
            if until is not None and not times and self._now < until:
                self._now = until
        finally:
            self._running = False
            self._active = None
            self._events_processed += processed
        return self._now

    def _drain(self) -> int:
        """The unbounded run: dispatch every bucket in one pass each.

        :meth:`_dispatch` is inlined, so a row costs one jump-table call.
        ``for entry in bucket`` also yields the entries appended while the
        bucket drains (a list iterator checks the length at every step),
        which is how same-cycle cascades join the tail of the batch.  The
        event count at the bucket's start locates the entry that raised,
        if a handler raises: the unprocessed tail is requeued at the
        current time and the exception propagates.
        """
        self._running = True
        processed = 0
        first = 0
        bucket: Optional[list] = None
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        heappush = heapq.heappush
        row_kind = self._row_kind
        row_cycles = self._row_cycles
        row_callback = self._row_callback
        free = self._free_rows
        handlers = self._handlers
        try:
            while times:
                time = heappop(times)
                bucket = buckets.pop(time)
                self._now = time
                self._active = bucket
                first = processed
                for entry in bucket:
                    processed += 1
                    if type(entry) is not int:
                        entry()
                        continue
                    cycles = row_cycles[entry]
                    if cycles < 0:
                        arg = row_callback[entry]
                        row_callback[entry] = None
                        free.append(entry)
                        handlers[row_kind[entry]](arg)
                        continue
                    # pending deferral: re-queue this same row
                    row_cycles[entry] = _CONSUMED
                    if cycles == 0:
                        bucket.append(entry)
                        continue
                    target = time + cycles
                    nxt = buckets.get(target)
                    if nxt is None:
                        buckets[target] = [entry]
                        heappush(times, target)
                    else:
                        nxt.append(entry)
        except BaseException:
            if bucket is not None and processed - first < len(bucket):
                buckets[self._now] = bucket[processed - first:]
                heappush(times, self._now)
            raise
        finally:
            self._running = False
            self._active = None
            self._events_processed += processed
        return self._now
