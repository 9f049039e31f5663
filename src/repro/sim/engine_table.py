"""Opcode rows dispatched through a handler jump table.

The object kernel (:mod:`repro.sim.engine`) dispatches every event as a
Python callable, and profiling the FINAL-mapping run shows the floor is
exactly those callables: per-job closures (start/finish/deliver),
credit-grant lambdas and per-chunk transfer completions.

:class:`TableEngine` runs on the object kernel's queue unchanged — one heap
of keys ``cycle << ROW_BITS | row`` over two row columns, a handler kind
and a payload — and adds opcode kinds.  Kind
:data:`~repro.sim.engine.K_CALL` calls its payload; the kinds from
:data:`K_OP_BASE` up index the handler table registered once per run
(:meth:`set_handlers`), and their payload is usually a packed integer
(``state_id * n_jobs + job``) naming a slot in the client's flat state
vectors.  So the client's transition logic
(:class:`repro.sim.system_table.TableProgram`) advances whole lifecycle
steps per handler call instead of one callback hop each, and no closure is
allocated.  The client may also append rows to the columns and push their
keys itself, exactly as :meth:`sched_op` does.

Two scheduling entry points:

* :meth:`sched_op` ≡ ``at(time, lambda: handler(arg))`` — one event; the
  handler runs when the row is dispatched;
* :meth:`defer_op` ≡ ``at(time, lambda: after(cycles, lambda:
  handler(arg)))`` — two events: a call row at ``time`` whose dispatch
  schedules the opcode row at ``time + cycles``.  The second row is
  allocated at simulated time ``time``, where the object kernel's ``after``
  inside its ``at`` callback allocates its event (a queued DMA start),
  which keeps the two kernels' event orders aligned.

The bit-identity gate is ``tests/test_sim_kernel_equivalence.py``; this
module's own contract is tested in ``tests/test_sim_engine_table.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from .engine import K_CALL, Engine, SimulationError, _schedule

#: first client opcode: kinds at or above it index the handlers passed to
#: :meth:`TableEngine.set_handlers`, in order.
K_OP_BASE = K_CALL + 1


class TableEngine(Engine):
    """The event queue with client opcode kinds.

    A drop-in :class:`~repro.sim.engine.Engine`: callables and opcode rows
    share one queue and dispatch in (cycle, scheduling order), and the
    object-kernel primitives (:class:`~repro.sim.engine.Server`,
    :class:`~repro.sim.engine.CreditStore`) run on it unchanged.
    """

    __slots__ = ()

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
