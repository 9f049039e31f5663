"""Discrete-event simulation kernel.

The paper evaluates its architecture on GVSOC, a C++ event-based simulator.
This module is the Python substitute: a small, dependency-free event kernel
with the three primitives the system model needs:

* :class:`Engine` — the event queue and simulated clock (in cycles);
* :class:`Server` — a capacity-limited FIFO resource that serves jobs with a
  caller-specified duration (used for IMAs and core complexes);
* :class:`CreditStore` — a counter-based credit/token mechanism used for the
  bounded buffers that implement the self-timed flow control between
  pipeline stages.

Timing is expressed in integer cycles of the 1 GHz system clock; the engine
itself is unit-agnostic.

Dispatch contract (see ``docs/simulator.md`` for the full kernel contract):
events fire in non-decreasing time order, FIFO within a timestamp —
including events scheduled *at the current timestamp while it is being
drained*, which land at the tail of the in-flight batch without touching
the heap.  The engine keeps one list ("bucket") of callbacks per distinct
timestamp and a heap of the timestamps themselves, so a cascade of
``after(0, ...)`` continuations (the dominant pattern in credit release →
job start chains) costs one list append each instead of a heap push/pop
pair, and draining ``k`` events that share a timestamp touches the heap
once, not ``k`` times.

:class:`~repro.sim.engine_table.TableEngine` subclasses this kernel with a
lane of opcode rows (integer row indices in the buckets instead of
closures, dispatched through a handler jump table); it is the default
engine of :func:`repro.sim.system.simulate` and must stay bit-identical to
this one (``tests/test_sim_kernel_equivalence.py``).  Any change to the
dispatch contract here must be mirrored there.
"""

from __future__ import annotations

import heapq
from typing import Callable, Deque, Dict, List, Optional
from collections import deque


Callback = Callable[[], None]


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation primitives."""


class Engine:
    """Event queue and simulated clock."""

    __slots__ = ("_times", "_buckets", "_now", "_events_processed", "_running", "_active")

    def __init__(self):
        #: heap of distinct timestamps that have pending events.
        self._times: List[int] = []
        #: pending callbacks per timestamp, in FIFO order.
        self._buckets: Dict[int, List[Callback]] = {}
        self._now = 0
        self._events_processed = 0
        self._running = False
        #: the bucket currently being drained by :meth:`run`; same-cycle
        #: scheduling appends here directly (the zero-heap fast lane).
        self._active: Optional[List[Callback]] = None

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> int:
        """Current simulated time, in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostic)."""
        return self._events_processed

    def at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` at absolute time ``time``."""
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        if time == self._now and self._active is not None:
            self._active.append(callback)
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heapq.heappush(self._times, time)
        else:
            bucket.append(callback)

    def after(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"delay cannot be negative, got {delay}")
        time = self._now + int(delay)
        if time == self._now:
            active = self._active
            if active is not None:
                active.append(callback)
                return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heapq.heappush(self._times, time)
        else:
            bucket.append(callback)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``until`` / ``max_events`` is hit).

        Returns the simulated time at which the run stopped.  A bounded run
        always leaves the clock at ``until`` when the queue drains earlier,
        so back-to-back ``run(until=...)`` calls observe a consistent,
        monotonic clock regardless of how the events happen to be spaced.
        A bound in the past is a no-op: the clock never moves backward.
        ``max_events`` may stop the run in the middle of a same-cycle batch;
        the unprocessed remainder stays queued in order and a later ``run``
        resumes exactly where this one stopped.  ``run`` is not re-entrant:
        calling it from inside an event callback raises
        :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError(
                "Engine.run() is not re-entrant: it was called from inside "
                "an event callback while a run is already in progress"
            )
        if until is not None and until < self._now:
            return self._now
        self._running = True
        processed = 0
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heappop(times)
                bucket = buckets.pop(time)
                self._now = time
                self._active = bucket
                index = 0
                try:
                    if max_events is None:
                        # hot loop: the batch may grow while it drains
                        # (same-cycle continuations append to ``bucket``),
                        # so iterate by index until it runs off the end.
                        while True:
                            try:
                                callback = bucket[index]
                            except IndexError:
                                break
                            index += 1
                            callback()
                            processed += 1
                    else:
                        while index < len(bucket):
                            callback = bucket[index]
                            index += 1
                            callback()
                            processed += 1
                            if processed >= max_events:
                                break
                finally:
                    self._active = None
                    if index < len(bucket):
                        # truncated mid-batch (max_events, or a callback
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

    def empty(self) -> bool:
        """Whether no events remain."""
        return not self._times


def _schedule(engine: Engine, time: int, callback: Callback) -> None:
    """Engine-internal scheduling body, shared by the kernel primitives.

    Identical to :meth:`Engine.after` with a pre-validated absolute time;
    a module-level function so the server hot path pays one call, not two.
    """
    if time == engine._now:
        active = engine._active
        if active is not None:
            active.append(callback)
            return
    bucket = engine._buckets.get(time)
    if bucket is None:
        engine._buckets[time] = [callback]
        heapq.heappush(engine._times, time)
    else:
        bucket.append(callback)


class _ServerJob:
    """One queued unit of service; ``finish`` is the completion event.

    Holding the owning server lets the engine schedule the bound method
    ``job.finish`` directly instead of allocating a closure per job.
    """

    __slots__ = ("server", "duration", "on_done", "enqueued_at")

    def __init__(self, server: "Server", duration: int, on_done: Callback, enqueued_at: int):
        self.server = server
        self.duration = duration
        self.on_done = on_done
        self.enqueued_at = enqueued_at

    def finish(self) -> None:
        self.server._finish(self)


class Server:
    """A FIFO resource with ``capacity`` parallel service slots.

    Jobs are submitted with :meth:`submit`; when a slot is free the job is
    "serviced" for its duration and the completion callback fires.  The
    server keeps busy-time and queueing statistics used by the tracer.

    The uncontended case (a free slot, nobody queued) is the hot path of
    the system simulation, so :meth:`submit` starts such jobs directly —
    straight-line counter updates, no queue traffic, no wait-time
    arithmetic.  Congested submissions take the queued path and pay for
    their bookkeeping when a slot frees up.
    """

    __slots__ = (
        "engine",
        "name",
        "capacity",
        "_in_service",
        "_waiting",
        "busy_time",
        "jobs_served",
        "total_wait",
        "total_service",
        "_busy_slot_time",
    )

    def __init__(self, engine: Engine, name: str, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("server capacity must be positive")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._in_service = 0
        self._waiting: Deque[_ServerJob] = deque()
        # statistics
        self.busy_time = 0
        self.jobs_served = 0
        self.total_wait = 0
        self.total_service = 0
        self._busy_slot_time = 0

    # ------------------------------------------------------------------ #
    @property
    def in_service(self) -> int:
        """Number of jobs currently being serviced."""
        return self._in_service

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting for a slot."""
        return len(self._waiting)

    @property
    def utilization_time(self) -> int:
        """Accumulated slot-busy time (slot-cycles)."""
        return self._busy_slot_time

    @property
    def idle(self) -> bool:
        """Whether no job is in service and nobody is queued."""
        return self._in_service == 0 and not self._waiting

    def submit(self, duration: int, on_done: Callback) -> None:
        """Submit a job needing ``duration`` cycles of service."""
        if duration < 0:
            raise SimulationError("job duration cannot be negative")
        duration = int(duration)
        engine = self.engine
        job = _ServerJob(self, duration, on_done, engine._now)
        if self._in_service < self.capacity and not self._waiting:
            # fast lane: free slot, empty queue — start now (wait is 0).
            # The completion event is scheduled inline (the ``after``
            # fast-lane logic, minus a call per job).
            self._in_service += 1
            self.total_service += duration
            self._busy_slot_time += duration
            _schedule(engine, engine._now + duration, job.finish)
        else:
            self._waiting.append(job)

    # ------------------------------------------------------------------ #
    # Direct occupancy
    # ------------------------------------------------------------------ #
    def occupy(self, duration: int) -> None:
        """Take one slot for ``duration`` cycles without a completion event.

        The caller guarantees the server is idle and promises to call
        :meth:`vacate` exactly ``duration`` cycles later.  Statistics are
        accounted exactly as for a zero-wait :meth:`submit`.
        """
        self._in_service += 1
        self.total_service += duration
        self._busy_slot_time += duration

    def vacate(self) -> None:
        """Release a slot taken with :meth:`occupy`, waking queued jobs."""
        self._in_service -= 1
        self.jobs_served += 1
        if self._waiting:
            self._start_queued()

    # ------------------------------------------------------------------ #
    def _start_queued(self) -> None:
        """Start queued jobs while slots are free (the congested path)."""
        engine = self.engine
        now = engine._now
        waiting = self._waiting
        while waiting and self._in_service < self.capacity:
            job = waiting.popleft()
            self._in_service += 1
            self.total_wait += now - job.enqueued_at
            self.total_service += job.duration
            self._busy_slot_time += job.duration
            _schedule(engine, now + job.duration, job.finish)

    def _finish(self, job: _ServerJob) -> None:
        self._in_service -= 1
        self.jobs_served += 1
        job.on_done()
        if self._waiting and self._in_service < self.capacity:
            self._start_queued()


class CreditStore:
    """Counting semaphore used for credit-based (bounded-buffer) flow control.

    A producer acquires one credit before pushing a chunk towards a
    consumer; the consumer returns the credit when the chunk has been
    consumed and its L1 slot freed.  An initial credit count of 2 models the
    double-buffered tiles of the paper's execution model.

    Each blocked waiter is stored as one ``(callback, enqueued_at)`` pair,
    so wait-time accounting adds no bookkeeping structures on the hot path.
    """

    __slots__ = (
        "engine",
        "name",
        "_credits",
        "_waiting",
        "total_wait",
        "acquisitions",
    )

    def __init__(self, engine: Engine, name: str, initial: int = 2):
        if initial < 0:
            raise SimulationError("initial credit count cannot be negative")
        self.engine = engine
        self.name = name
        self._credits = initial
        #: blocked producers as (callback, enqueued_at) pairs, FIFO.
        self._waiting: Deque = deque()
        # statistics
        self.total_wait = 0
        self.acquisitions = 0

    @property
    def available(self) -> int:
        """Credits currently available."""
        return self._credits

    @property
    def waiters(self) -> int:
        """Number of producers blocked waiting for a credit."""
        return len(self._waiting)

    def acquire(self, callback: Callback) -> None:
        """Take one credit, calling ``callback`` when it is granted."""
        if self._credits > 0 and not self._waiting:
            self._credits -= 1
            self.acquisitions += 1
            callback()
        else:
            self._waiting.append((callback, self.engine._now))

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` credits, waking blocked producers in FIFO order."""
        if amount < 0:
            raise SimulationError("cannot release a negative credit amount")
        self._credits += amount
        waiting = self._waiting
        while self._credits > 0 and waiting:
            callback, enqueued_at = waiting.popleft()
            self.total_wait += self.engine._now - enqueued_at
            self._credits -= 1
            self.acquisitions += 1
            callback()


class Barrier:
    """Calls a callback once ``count`` events have arrived.

    Used to join the multiple input transfers of one pipeline job (e.g. a
    residual addition waiting for both operands).
    """

    __slots__ = ("_remaining", "_on_complete", "_fired")

    def __init__(self, count: int, on_complete: Callback):
        if count < 0:
            raise SimulationError("barrier count cannot be negative")
        self._remaining = count
        self._on_complete = on_complete
        self._fired = False
        if count == 0:
            self._fire()

    def arrive(self) -> None:
        """Signal one arrival."""
        if self._fired:
            raise SimulationError("barrier already completed")
        self._remaining -= 1
        if self._remaining == 0:
            self._fire()
        elif self._remaining < 0:  # pragma: no cover - guarded above
            raise SimulationError("too many arrivals at barrier")

    def _fire(self) -> None:
        self._fired = True
        self._on_complete()

    @property
    def done(self) -> bool:
        """Whether the barrier has completed."""
        return self._fired
