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
events fire in (cycle, scheduling order), so events that share a cycle fire
FIFO, and an event scheduled *at the current cycle while it drains* runs
after everything already queued for that cycle.  Every event is a **row**
of two append-only columns, a handler kind and its payload, and the queue
is one heap of integer keys ``cycle << 32 | row``.  A row is allocated when
its event is scheduled, so the row number is the scheduling order and one
integer comparison orders two events.  A callable scheduled with
:meth:`Engine.at` or :meth:`Engine.after` is a row of kind :data:`K_CALL`,
whose handler calls the payload.  The kinds from :data:`K_OP_BASE` up
index a handler table a client registers once per run
(:meth:`Engine.set_handlers`); their payload is the handler's argument,
usually a packed integer naming a slot in the client's flat state
vectors.  The compiled table lane (:mod:`repro.sim.system_table`) runs
on these opcode rows and the object kernel on callables, so both kernels
run on this one queue.

Two entry points schedule an opcode row:

* :meth:`Engine.sched_op` ≡ ``at(time, lambda: handler(arg))`` — one
  event;
* :meth:`Engine.defer_op` ≡ ``at(time, lambda: after(cycles, lambda:
  handler(arg)))`` — two events: a call row at ``time`` whose dispatch
  schedules the opcode row at ``time + cycles``.  The second row is
  allocated at simulated time ``time``, where the object kernel's
  ``after`` inside its ``at`` callback allocates its event (a queued DMA
  start), which keeps the two kernels' event orders aligned.

A client may also append rows to the columns and push their keys itself,
exactly as :meth:`Engine.sched_op` does.

A run dispatches until the queue drains.  The columns only grow while it
does, so every :data:`COMPACT_ROWS` dispatched rows the queue renumbers
its pending rows ``0 … n-1`` in row order and truncates the columns in
place.  Renumbering keeps the relative order of rows, so it keeps the
order of events.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from operator import call as _call
from typing import Callable, Deque, List, Sequence

Callback = Callable[[], None]

#: row kind of a callable event; its handler calls the payload.
K_CALL = 0
#: first client opcode: kinds at or above it index the handlers passed to
#: :meth:`Engine.set_handlers`, in order.
K_OP_BASE = K_CALL + 1
#: bits of a queue key below the cycle, which hold the row.
ROW_BITS = 32
_ROW_MASK = (1 << ROW_BITS) - 1
#: dispatched rows the columns keep before the queue compacts them away.
#: A run reads it when it starts.
COMPACT_ROWS = 4096


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation primitives."""


class Engine:
    """Event queue and simulated clock."""

    __slots__ = ("_heap", "_kind", "_arg", "_handlers", "_dropped", "_now", "_running")

    def __init__(self):
        #: keys ``cycle << ROW_BITS | row`` of the pending rows.
        self._heap: List[int] = []
        #: per row: the index of its handler in ``_handlers``, and the
        #: handler's argument.
        self._kind: List[int] = []
        self._arg: List[object] = []
        self._handlers = (_call,)
        #: dispatched rows that compaction and :meth:`reset` removed.
        self._dropped = 0
        self._now = 0
        self._running = False

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> int:
        """Current simulated time, in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostic).

        Every row is either pending or dispatched, so this counts itself.
        """
        return self._dropped + len(self._kind) - len(self._heap)

    def at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` at absolute time ``time``."""
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        _schedule(self, time, callback)

    def after(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"delay cannot be negative, got {delay}")
        _schedule(self, self._now + int(delay), callback)

    def set_handlers(self, handlers: Sequence[Callable]) -> None:
        """Register the opcode jump table: ``handlers[op - K_OP_BASE]``."""
        self._handlers = self._handlers[:K_OP_BASE] + tuple(handlers)

    def sched_op(self, time: int, op: int, arg) -> None:
        """Schedule ``handlers[op - K_OP_BASE](arg)`` at ``time``.

        One event, like ``at(time, callback)``.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        _schedule(self, time, arg, op)

    def defer_op(self, time: int, cycles: int, op: int, arg) -> None:
        """At ``time``, defer ``handlers[op - K_OP_BASE](arg)`` by ``cycles``.

        Two events: a row at ``time`` whose dispatch schedules the opcode
        row at ``time + cycles``, behind every row already queued there.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        if cycles < 0:
            raise SimulationError(f"deferral cannot be negative, got {cycles}")
        _schedule(self, time, partial(self.sched_op, time + cycles, op, arg))

    def run(self) -> int:
        """Run until the queue drains; return the simulated time it ends at.

        The run dispatches in passes of :data:`COMPACT_ROWS`: a pass may
        dispatch only as many rows as the columns have room for dead
        rows, and a pass that uses them all ends in a compaction.  A
        handler that raises leaves every later event queued, and a later
        ``run`` resumes with them.  ``run`` is not re-entrant: calling it
        from inside an event callback raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError(
                "Engine.run() is not re-entrant: it was called from inside "
                "an event callback while a run is already in progress"
            )
        self._running = True
        heap = self._heap
        kinds = self._kind
        args = self._arg
        handlers = self._handlers
        heappop = heapq.heappop
        limit = COMPACT_ROWS
        try:
            while heap:
                for __ in range(limit - len(kinds) + len(heap)):
                    if not heap:
                        break
                    key = heappop(heap)
                    row = key & _ROW_MASK
                    self._now = key >> ROW_BITS
                    arg = args[row]
                    args[row] = None
                    handlers[kinds[row]](arg)
                else:
                    self._compact()
        finally:
            self._running = False
        return self._now

    def _compact(self) -> None:
        """Drop the dispatched rows: renumber the pending rows ``0 … n-1``
        in row order and truncate the columns in place.

        The renumbering keeps the relative order of rows, so every key
        keeps its rank and the heap stays a heap when its keys are
        rewritten where they are.
        """
        heap = self._heap
        kinds = self._kind
        args = self._arg
        rows = sorted(key & _ROW_MASK for key in heap)
        renumbered = {row: new for new, row in enumerate(rows)}
        self._dropped += len(kinds) - len(rows)
        kinds[:] = [kinds[row] for row in rows]
        args[:] = [args[row] for row in rows]
        for index, key in enumerate(heap):
            row = key & _ROW_MASK
            heap[index] = key - row + renumbered[row]

    def reset(self) -> None:
        """Release the columns of a drained engine.

        Compaction keeps them at most :data:`COMPACT_ROWS` rows longer
        than the pending rows, and a long-lived holder of the engine (a
        ``SweepRunner`` worker, the steady-state fast-forward) need not keep even
        those.  Raises :class:`SimulationError` when called mid-run or with
        events still queued: a reset must never orphan a pending row.
        """
        if self._running:
            raise SimulationError("cannot reset an engine from inside run()")
        if self._heap:
            raise SimulationError("cannot reset an engine with pending events")
        self._dropped += len(self._kind)
        self._kind.clear()
        self._arg.clear()

    def empty(self) -> bool:
        """Whether no events remain."""
        return not self._heap


def _schedule(engine: Engine, time: int, payload, kind: int = K_CALL) -> None:
    """Queue a row of ``kind`` (by default a callable ``payload``) at the
    pre-validated absolute ``time``.

    A module-level function so the server hot path pays one call, not two.
    """
    kinds = engine._kind
    heapq.heappush(engine._heap, time << ROW_BITS | len(kinds))
    kinds.append(kind)
    engine._arg.append(payload)


class _ServerJob:
    """One queued unit of service; ``finish`` is the completion event.

    Holding the owning server lets the engine schedule the bound method
    ``job.finish`` directly instead of allocating a closure per job.
    """

    __slots__ = ("server", "duration", "on_done")

    def __init__(self, server: "Server", duration: int, on_done: Callback):
        self.server = server
        self.duration = duration
        self.on_done = on_done

    def finish(self) -> None:
        self.server._finish(self)


class Server:
    """A FIFO resource with ``capacity`` parallel service slots.

    Jobs are submitted with :meth:`submit`; when a slot is free the job is
    "serviced" for its duration and the completion callback fires.

    The uncontended case (a free slot, nobody queued) is the hot path of
    the system simulation, so :meth:`submit` starts such jobs directly,
    with no queue traffic; congested submissions queue and start when a
    slot frees up.
    """

    __slots__ = (
        "engine",
        "name",
        "capacity",
        "_in_service",
        "_waiting",
    )

    def __init__(self, engine: Engine, name: str, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("server capacity must be positive")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._in_service = 0
        self._waiting: Deque[_ServerJob] = deque()

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
    def idle(self) -> bool:
        """Whether no job is in service and nobody is queued."""
        return self._in_service == 0 and not self._waiting

    def submit(self, duration: int, on_done: Callback) -> None:
        """Submit a job needing ``duration`` cycles of service."""
        if duration < 0:
            raise SimulationError("job duration cannot be negative")
        duration = int(duration)
        engine = self.engine
        job = _ServerJob(self, duration, on_done)
        if self._in_service < self.capacity and not self._waiting:
            # fast lane: free slot, empty queue — start now.
            self._in_service += 1
            _schedule(engine, engine._now + duration, job.finish)
        else:
            self._waiting.append(job)

    # ------------------------------------------------------------------ #
    def _start_queued(self) -> None:
        """Start queued jobs while slots are free (the congested path)."""
        engine = self.engine
        now = engine._now
        waiting = self._waiting
        while waiting and self._in_service < self.capacity:
            job = waiting.popleft()
            self._in_service += 1
            _schedule(engine, now + job.duration, job.finish)

    def _finish(self, job: _ServerJob) -> None:
        self._in_service -= 1
        job.on_done()
        if self._waiting and self._in_service < self.capacity:
            self._start_queued()


class CreditStore:
    """Counting semaphore used for credit-based (bounded-buffer) flow control.

    A producer acquires one credit before pushing a chunk towards a
    consumer; the consumer returns the credit when the chunk has been
    consumed and its L1 slot freed.  An initial credit count of 2 models the
    double-buffered tiles of the paper's execution model.
    """

    __slots__ = (
        "engine",
        "name",
        "_credits",
        "_waiting",
    )

    def __init__(self, engine: Engine, name: str, initial: int = 2):
        if initial < 0:
            raise SimulationError("initial credit count cannot be negative")
        self.engine = engine
        self.name = name
        self._credits = initial
        #: callbacks of the blocked producers, FIFO.
        self._waiting: Deque[Callback] = deque()

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
            callback()
        else:
            self._waiting.append(callback)

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` credits, waking blocked producers in FIFO order."""
        if amount < 0:
            raise SimulationError("cannot release a negative credit amount")
        self._credits += amount
        waiting = self._waiting
        while self._credits > 0 and waiting:
            callback = waiting.popleft()
            self._credits -= 1
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
