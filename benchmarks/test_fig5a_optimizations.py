"""Fig. 5A — throughput with the successive mapping optimisations.

The paper reports, for a batch of 16 256x256 images:

* naive multi-cluster mapping (residuals in HBM)      — baseline,
* + data-replication / parallelisation                — 1.6x faster,
* + residuals in the L1 of spare clusters             — a further 1.9x,

reaching 20.2 TOPS.  This module regenerates the three bars and re-runs
the full simulation of the final design point.
"""

from repro import OptimizationLevel
from repro.analysis import format_comparison
from repro.core import lower_to_workload
from repro.sim import simulate

PAPER_FIG5A = {
    "replication_gain": 1.6,
    "residual_gain": 1.9,
    "final_tops": 20.2,
}


def test_fig5a_optimization_ladder(study):
    """Each optimisation level improves end-to-end throughput."""
    ordered = [study[level]["metrics"] for level in OptimizationLevel.all()]
    print("\nFig. 5A — throughput with different mapping optimisations")
    print(format_comparison(ordered))
    naive, replicated, final = (m.throughput_tops for m in ordered)
    replication_gain = replicated / naive
    residual_gain = final / replicated
    print(f"\n  paper: replication x{PAPER_FIG5A['replication_gain']}, "
          f"residual x{PAPER_FIG5A['residual_gain']}, final {PAPER_FIG5A['final_tops']} TOPS")
    print(f"  ours : replication x{replication_gain:.2f}, residual x{residual_gain:.2f}, "
          f"final {final:.1f} TOPS")
    # Shape: monotonic improvement, both optimisations contribute, and the
    # residual optimisation lands in the same range as the paper's 1.9x.
    assert replicated > naive
    assert final >= replicated
    assert replication_gain > 1.3
    assert 1.2 < residual_gain < 3.0


def test_fig5a_cluster_cost_of_optimizations(study):
    """Replication costs extra clusters; residual storage costs only ~2 more."""
    naive = study[OptimizationLevel.NAIVE]["mapping"].n_used_clusters
    replicated = study[OptimizationLevel.REPLICATED]["mapping"].n_used_clusters
    final = study[OptimizationLevel.FINAL]["mapping"].n_used_clusters
    print(f"\n  clusters: naive {naive}, replicated {replicated}, final {final}")
    assert replicated > naive
    assert 0 <= final - replicated <= 8


def test_fig5a_hbm_traffic_drop(study):
    """Moving residuals to spare L1 removes most of the HBM traffic."""
    replicated = study[OptimizationLevel.REPLICATED]["metrics"].hbm_traffic_mb
    final = study[OptimizationLevel.FINAL]["metrics"].hbm_traffic_mb
    print(f"\n  HBM traffic per batch: replicated {replicated:.1f} MB -> final {final:.1f} MB")
    assert final < replicated / 3


def test_bench_final_mapping_simulation(final_entry, paper_arch):
    """Event-driven simulation of the final ResNet-18 mapping."""
    result = simulate(paper_arch, final_entry["workload"])
    assert result.completed
