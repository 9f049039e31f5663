"""Sec. VI headline results — end-to-end ResNet-18 inference figures.

The paper reports, for the final mapping of ResNet-18 (batch of 16 256x256
images) on the 512-cluster system: 20.2 TOPS, 3303 images/s,
42 GOPS/mm2, ~15 mJ and 6.5 TOPS/W, with 322 of 512 clusters used and a
~480 mm2 chip.  This module regenerates those numbers and checks they land
in the same range (the substrate is a calibrated Python model, not the
authors' RTL-calibrated GVSOC, so exact equality is not expected).
"""

from repro.analysis import format_metrics

PAPER_HEADLINE = {
    "throughput_tops": 20.2,
    "images_per_second": 3303,
    "area_efficiency_gops_mm2": 42.0,
    "energy_efficiency_tops_w": 6.5,
    "energy_mj": 15.0,
    "used_clusters": 322,
    "chip_area_mm2": 480.0,
}


def test_headline_metrics(final_entry):
    """Regenerate the Sec. VI headline paragraph and compare with the paper."""
    metrics = final_entry["metrics"]
    print("\nSec. VI — headline results (final mapping, batch 16)")
    print(format_metrics(metrics))
    print("\n  paper reference:", PAPER_HEADLINE)
    # Same order of magnitude / same decade for every headline figure.
    assert 10 < metrics.throughput_tops < 60
    assert 1500 < metrics.images_per_second < 12000
    assert 20 < metrics.area_efficiency_gops_mm2 < 130
    assert 1.5 < metrics.energy_efficiency_tops_w < 30
    assert 3 < metrics.energy_mj < 60
    assert 250 < metrics.used_clusters < 512
    assert 400 < metrics.chip_area_mm2 < 560


def test_batch_latency_in_milliseconds(final_entry):
    """The batch-16 inference completes in a few milliseconds (paper: 4.8-9.2 ms)."""
    metrics = final_entry["metrics"]
    print(f"\n  batch latency: {metrics.makespan_ms:.2f} ms "
          f"({metrics.latency_per_image_ms:.3f} ms/image)")
    assert 1.0 < metrics.makespan_ms < 20.0


def test_energy_dominated_by_onchip_components(final_entry):
    """With residuals on-chip, HBM energy is not the dominant contributor."""
    breakdown = final_entry["metrics"].energy_breakdown
    print("\n  energy breakdown (mJ):")
    for key, value in breakdown.items():
        print(f"    {key:<14} {value:8.3f}")
    assert breakdown["hbm_traffic"] < 0.5 * breakdown["total"]


def test_all_stages_complete_all_jobs(final_entry):
    """Sanity: the pipelined execution processed the whole batch everywhere."""
    result = final_entry["result"]
    assert result.completed
    assert result.makespan_cycles > 0


def test_bench_end_to_end_flow(resnet18_graph, paper_arch):
    """The complete flow (mapping + lowering + simulation) at batch 4."""
    from repro import run_inference

    report = run_inference(resnet18_graph, paper_arch, batch_size=4, with_breakdown=False)
    assert report.result.completed
