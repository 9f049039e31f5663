"""Fig. 6 — performance degradation from ideal peak to achieved throughput.

The paper decomposes the ~28x gap between the 512-cluster ideal peak and
the achieved ResNet-18 throughput into global mapping (1.6x), local mapping
(3.0x), intra-layer/pipeline unbalance (5.0x) and communication (1.2x).
This module regenerates the waterfall for the final mapping and checks its
shape: every step degrades, mapping + unbalance dominate, communication is
a second-order effect once residuals live on-chip.
"""

import pytest

from repro.analysis import compute_waterfall

PAPER_FIG6 = {
    "global mapping": 1.6,
    "local mapping": 3.0,
    "intra-layer unbalance": 5.0,
    "communication": 1.2,
    "total": 28.4,
}


@pytest.fixture(scope="module")
def waterfall(final_entry, compute_only_result):
    return compute_waterfall(
        final_entry["mapping"],
        full_result=final_entry["result"],
        compute_only_result=compute_only_result,
    )


def test_fig6_waterfall_shape(waterfall):
    """All four degradation factors are >= 1 and the bars decrease monotonically."""
    print("\nFig. 6 — performance degradation waterfall")
    print(waterfall.format())
    print("\n  paper factors:", PAPER_FIG6)
    tops = [step.throughput_tops for step in waterfall.steps]
    assert tops == sorted(tops, reverse=True)
    for step in waterfall.steps[1:]:
        assert step.degradation_from_previous >= 1.0


def test_fig6_factor_ranges(waterfall):
    """Each factor lands in a plausible range around the paper's values."""
    global_factor = waterfall.step("global mapping").degradation_from_previous
    local_factor = waterfall.step("local mapping").degradation_from_previous
    unbalance_factor = waterfall.step("intra-layer unbalance").degradation_from_previous
    communication_factor = waterfall.step("communication").degradation_from_previous
    print(
        f"\n  ours: global {global_factor:.2f}x, local {local_factor:.2f}x, "
        f"unbalance {unbalance_factor:.2f}x, communication {communication_factor:.2f}x, "
        f"total {waterfall.total_degradation:.1f}x"
    )
    assert 1.05 < global_factor < 2.5      # paper: 1.6x
    assert 1.2 < local_factor < 5.0        # paper: 3.0x
    assert 1.5 < unbalance_factor < 12.0   # paper: 5.0x
    assert 1.0 <= communication_factor < 2.5  # paper: 1.2x
    assert 8 < waterfall.total_degradation < 60  # paper: 28.4x


def test_fig6_mapping_factors_match_mapping_statistics(waterfall, final_entry):
    """The first two bars are pure mapping statistics (no simulation involved)."""
    mapping = final_entry["mapping"]
    ideal = waterfall.step("ideal").throughput_tops
    assert waterfall.step("global mapping").throughput_tops == pytest.approx(
        ideal * mapping.global_mapping_efficiency
    )
    assert (
        waterfall.step("local mapping").throughput_tops
        <= ideal * mapping.local_mapping_efficiency * (1 + 1e-9)
    )


def test_bench_waterfall_computation(final_entry, compute_only_result):
    """Compute the waterfall from existing simulation results."""
    computed = compute_waterfall(
        final_entry["mapping"],
        full_result=final_entry["result"],
        compute_only_result=compute_only_result,
    )
    assert computed.total_degradation > 1
