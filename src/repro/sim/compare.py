"""Bit-identity comparison of two :class:`~repro.sim.system.SimulationResult`\\ s.

The repository keeps two observationally equivalent implementations of the
same simulation semantics — the object kernel (``engine="python"``) and
the compiled table lane (``engine="table"``) — plus the steady-state
fast-forward, whose acceptance contract is likewise bit-identity with the
full run.  This module is the single definition of what "bit-identical"
means: every payload-visible observable must match, and so must the order
of the tracer's dictionaries, which a pickled payload freezes.  That order
is a rule, not a history (:meth:`~repro.sim.tracer.Tracer.order_records`):
clusters by id, links by name, stages in stage order and completions in
completion order, so the order checks below check the rule.

:func:`result_mismatches` returns a human-readable list of differences
(empty = identical), so an equivalence-test failure names the first
diverging observable instead of dumping two multi-megabyte objects;
:func:`assert_results_identical` wraps it for test use.
"""

from __future__ import annotations

from typing import List

from .system import SimulationResult

__all__ = ["result_mismatches", "assert_results_identical"]


def _check(mismatches: List[str], label: str, a: object, b: object) -> None:
    if a != b:
        mismatches.append(f"{label}: {a!r} != {b!r}")


def result_mismatches(
    a: SimulationResult, b: SimulationResult, ignore_provenance: bool = False
) -> List[str]:
    """Every observable in which two results differ (empty = bit-identical).

    ``ignore_provenance`` skips the ``fast_forwarded`` flag and the
    ``fast_forward_refusal`` record — the two fields the fast-forward is
    *supposed* to change.
    """
    out: List[str] = []
    _check(out, "makespan_cycles", a.makespan_cycles, b.makespan_cycles)
    _check(out, "jobs_completed", a.jobs_completed, b.jobs_completed)
    _check(
        out,
        "final_stage_completions",
        a.final_stage_completions,
        b.final_stage_completions,
    )
    _check(out, "model_contention", a.model_contention, b.model_contention)
    if not ignore_provenance:
        _check(out, "fast_forwarded", a.fast_forwarded, b.fast_forwarded)
        _check(
            out,
            "fast_forward_refusal",
            a.fast_forward_refusal,
            b.fast_forward_refusal,
        )
    ta, tb = a.tracer, b.tracer
    for counter in ("noc_bytes", "noc_byte_hops", "hbm_bytes", "local_bytes",
                    "n_transfers", "makespan"):
        _check(out, f"tracer.{counter}", getattr(ta, counter), getattr(tb, counter))
    # dict key order is part of the serialised payload, so it is compared
    # alongside the contents.
    _check(out, "tracer.clusters order", list(ta.clusters), list(tb.clusters))
    for cid in ta.clusters:
        x = ta.clusters[cid]
        y = tb.clusters.get(cid)
        if y is None:
            continue  # already reported by the order check
        _check(
            out,
            f"tracer.clusters[{cid}]",
            (x.analog, x.digital, x.communication, x.synchronization,
             x.last_busy_cycle, x.jobs),
            (y.analog, y.digital, y.communication, y.synchronization,
             y.last_busy_cycle, y.jobs),
        )
    _check(out, "tracer.stages order", list(ta.stages), list(tb.stages))
    for sid in ta.stages:
        x = ta.stages[sid]
        y = tb.stages.get(sid)
        if y is None:
            continue
        _check(
            out,
            f"tracer.stages[{sid}]",
            (x.name, x.jobs_completed, x.analog_busy, x.digital_busy,
             x.input_stall, x.output_stall, x.first_job_start, x.last_job_end),
            (y.name, y.jobs_completed, y.analog_busy, y.digital_busy,
             y.input_stall, y.output_stall, y.first_job_start, y.last_job_end),
        )
    _check(out, "tracer.link_busy order", list(ta.link_busy), list(tb.link_busy))
    _check(out, "tracer.link_busy", dict(ta.link_busy), dict(tb.link_busy))
    _check(
        out,
        "tracer.stage_completions order",
        list(ta.stage_completions),
        list(tb.stage_completions),
    )
    for sid in ta.stage_completions:
        if sid in tb.stage_completions:
            _check(
                out,
                f"tracer.stage_completions[{sid}]",
                list(ta.stage_completions[sid]),
                list(tb.stage_completions[sid]),
            )
    # per-request completions (open workloads): both the mapping and its
    # insertion (= completion) order are payload-visible.
    ra = ta.request_completions
    rb = tb.request_completions
    _check(out, "tracer.request_completions order", list(ra), list(rb))
    _check(out, "tracer.request_completions", dict(ra), dict(rb))
    return out


def assert_results_identical(
    a: SimulationResult, b: SimulationResult, ignore_provenance: bool = False
) -> None:
    """Assert bit-identity, reporting the diverging observables on failure."""
    mismatches = result_mismatches(a, b, ignore_provenance=ignore_provenance)
    assert not mismatches, "results diverge:\n  " + "\n  ".join(mismatches)
