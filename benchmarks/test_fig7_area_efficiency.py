"""Fig. 7 — area efficiency per layer group (communication excluded).

The paper groups ResNet-18's layers by IFM shape and shows that the early
and middle groups (large feature maps, high parameter reuse) reach high
GOPS/mm2 while the deepest group (8x8x512) is an order of magnitude less
efficient, because its layers perform few MVMs per statically-mapped
crossbar and interleave core-bound reductions.
"""

from repro.analysis import format_group_efficiency, group_area_efficiency


def _conv_group_rows(final_entry, compute_only_result):
    rows = group_area_efficiency(final_entry["mapping"], compute_only_result)
    # Keep the six convolutional IFM groups of Fig. 7 (drop the classifier tail).
    return [row for row in rows if row.ifm_shape != "1x1x512"]


def test_fig7_groups_match_paper(final_entry, compute_only_result):
    """The six IFM-shape groups of Fig. 7 are present."""
    rows = _conv_group_rows(final_entry, compute_only_result)
    print("\nFig. 7 — area efficiency per layer group (no communication)")
    print(format_group_efficiency(rows))
    shapes = {row.ifm_shape for row in rows}
    for expected in (
        "256x256x3",
        "128x128x64",
        "64x64x64",
        "32x32x128",
        "16x16x256",
        "8x8x512",
    ):
        assert expected in shapes


def test_fig7_deep_group_is_least_efficient(final_entry, compute_only_result):
    """The 8x8x512 group is far less area-efficient than the mid-network groups."""
    rows = _conv_group_rows(final_entry, compute_only_result)
    by_shape = {row.ifm_shape: row.area_efficiency_gops_mm2 for row in rows}
    deep = by_shape["8x8x512"]
    mid = max(by_shape["64x64x64"], by_shape["32x32x128"], by_shape["16x16x256"])
    print(f"\n  mid-network best: {mid:.0f} GOPS/mm2, deepest group: {deep:.0f} GOPS/mm2 "
          f"(ratio {mid / max(deep, 1e-9):.1f}x; paper shows roughly 5-10x)")
    assert deep < mid / 2.5


def test_fig7_deep_group_occupies_most_area(final_entry, compute_only_result):
    """Despite its low efficiency, the deepest group uses the most clusters."""
    rows = _conv_group_rows(final_entry, compute_only_result)
    by_shape = {row.ifm_shape: row.n_clusters for row in rows}
    assert by_shape["8x8x512"] == max(by_shape.values())


def test_fig7_efficiencies_in_plausible_range(final_entry, compute_only_result):
    """Group efficiencies fall within the 0-700 GOPS/mm2 range of the figure."""
    rows = _conv_group_rows(final_entry, compute_only_result)
    for row in rows:
        assert 0 <= row.area_efficiency_gops_mm2 < 700


def test_bench_group_efficiency(final_entry, compute_only_result):
    """Compute the Fig. 7 series from a simulation result."""
    rows = group_area_efficiency(final_entry["mapping"], compute_only_result)
    assert rows
