"""Table I — architecture parameters of the evaluated platform.

Regenerates the configuration table and instantiates the full
512-cluster topology (routes included), the setup every other experiment
pays for.
"""

from repro.arch import ArchConfig

PAPER_TABLE1 = {
    "Number of clusters": "512",
    "Number of IMA per cluster": "1",
    "Number of CORES per cluster": "16",
    "L1 memory size": "1 MB",
    "HBM size": "1.5 GB",
    "Operating frequency": "1 GHz",
    "Number of streamers ports (read and write)": "16",
    "IMA crossbar size": "256x256",
}


def test_table1_matches_paper(paper_arch):
    """Every Table I row reproduced by the default configuration."""
    table = paper_arch.table1()
    print("\nTable I — GVSOC architecture parameters")
    for key, value in table.items():
        print(f"  {key:<50} {value}")
    for key, expected in PAPER_TABLE1.items():
        assert table[key] == expected
    assert "130" in table["Analog latency (MVM operation)"]
    assert "(1, 8, 4, 4, 4)" in table["Quadrant factor (HBM link,wrapper,L3,L2,L1)"]


def test_peak_capability_derived_from_table1(paper_arch):
    """Derived peak numbers: ~516 TOPS ideal peak, ~480 mm2."""
    print(f"\n  ideal peak throughput : {paper_arch.peak_tops:.1f} TOPS")
    print(f"  chip area             : {paper_arch.chip_area_mm2:.1f} mm2")
    print(f"  NV parameter capacity : {paper_arch.total_crossbar_params / 1e6:.1f} M weights")
    assert 450 < paper_arch.peak_tops < 600
    assert 400 < paper_arch.chip_area_mm2 < 560


def test_bench_topology_construction():
    """Build the 512-cluster quadrant topology and route across it."""
    arch = ArchConfig.paper()
    topo = arch.topology()
    hops = 0
    for cluster in range(0, arch.n_clusters, 37):
        hops += topo.route(cluster, (cluster * 7 + 13) % arch.n_clusters).n_hops
        hops += topo.route_to_hbm(cluster).n_hops
    assert hops > 0
