"""Fig. 5B/C/D — per-cluster execution-time breakdown of the three mappings.

The paper plots, for every cluster, the time spent computing, communicating,
synchronising and sleeping over one batch, marking clusters as analog- or
digital-bound.  The naive mapping (5B) shows a large unbalance between the
first and the deepest layers; data-replication (5C) balances the pipeline;
the final mapping (5D) removes the communication bottleneck and shows the
expected head/tail pipeline staircase.
"""

from repro import OptimizationLevel
from repro.analysis import breakdown_summary, cluster_breakdown, format_breakdown


def _rows(study, level):
    entry = study[level]
    return cluster_breakdown(entry["result"], entry["mapping"])


def test_fig5b_naive_breakdown_is_unbalanced(study):
    """Fig. 5B: the naive mapping leaves most clusters asleep most of the time."""
    rows = _rows(study, OptimizationLevel.NAIVE)
    summary = breakdown_summary(rows)
    print("\nFig. 5B — naive mapping, per-cluster activity summary")
    for key, value in summary.items():
        print(f"  {key}: {value:.3f}")
    busiest = max(rows, key=lambda r: r.compute)
    print(format_breakdown(rows, max_rows=20))
    # Strong unbalance: the busiest cluster computes for most of the run
    # while the average cluster is mostly idle.
    assert busiest.compute > 0.5 * busiest.total
    assert summary["mean_compute_fraction"] < 0.35


def test_fig5c_replication_balances_pipeline(study):
    """Fig. 5C: replication/parallelisation raises average cluster utilisation."""
    naive = breakdown_summary(_rows(study, OptimizationLevel.NAIVE))
    replicated = breakdown_summary(_rows(study, OptimizationLevel.REPLICATED))
    print("\nFig. 5C — mean compute fraction per cluster")
    print(f"  naive      : {naive['mean_compute_fraction']:.3f}")
    print(f"  replicated : {replicated['mean_compute_fraction']:.3f}")
    assert replicated["mean_compute_fraction"] > naive["mean_compute_fraction"]
    assert replicated["n_clusters"] > naive["n_clusters"]


def test_fig5d_final_breakdown(study):
    """Fig. 5D: the final mapping mixes analog- and digital-bound clusters."""
    rows = _rows(study, OptimizationLevel.FINAL)
    summary = breakdown_summary(rows)
    print("\nFig. 5D — final mapping, per-cluster activity summary")
    for key, value in summary.items():
        print(f"  {key}: {value:.3f}")
    assert 0.05 < summary["analog_bound_fraction"] < 0.95
    # Every cluster's accounted time equals the makespan.
    makespan = study[OptimizationLevel.FINAL]["result"].makespan_cycles
    assert all(row.total == makespan for row in rows)


def test_fig5d_pipeline_staircase(study):
    """Fig. 5D: later pipeline stages start later (pipeline fill staircase)."""
    result = study[OptimizationLevel.FINAL]["result"]
    stages = [result.tracer.stages[sid] for sid in sorted(result.tracer.stages)]
    starts = [s.first_job_start for s in stages if s.first_job_start is not None]
    print(f"\n  first-job start of first stage: {starts[0]} cycles, last stage: {starts[-1]} cycles")
    assert starts[-1] > starts[0]
    # The start times are (weakly) increasing along the pipeline for the
    # overwhelming majority of stages.
    increasing = sum(1 for a, b in zip(starts, starts[1:]) if b >= a)
    assert increasing >= 0.9 * (len(starts) - 1)


def test_bench_breakdown_extraction(final_entry):
    """Extract the Fig. 5D per-cluster series from a trace."""
    rows = cluster_breakdown(final_entry["result"], final_entry["mapping"])
    assert len(rows) > 300
