"""Fig. 2 — ResNet-18 DAG and its static mapping on the 512-cluster system.

Regenerates the layer graph (Fig. 2A), the per-group cluster allocation
(Fig. 2B) and the pipeline job structure (Fig. 2C), and re-runs the
mapping pass itself.
"""

from repro import OptimizationLevel
from repro.core import MappingOptimizer, build_mapping


def test_resnet18_dag_structure(resnet18_graph):
    """Fig. 2A: 28 compute nodes (17 convs, 8 residual adds, 2 pools, 1 FC)."""
    kinds = [node.kind for node in resnet18_graph.nodes if node.inputs]
    print(f"\n  compute nodes: {len(kinds)}")
    assert len(kinds) == 28
    assert kinds.count("conv2d") == 17
    assert kinds.count("add") == 8
    assert kinds.count("linear") == 1


def test_mapping_per_group_cluster_counts(final_entry, paper_arch):
    """Fig. 2B: clusters per IFM-shape group of the final mapping.

    The paper's final mapping uses 322 of the 512 clusters, with the deepest
    group (8x8x512 IFMs) by far the largest consumer (167 clusters).
    """
    mapping = final_entry["mapping"]
    counts = mapping.clusters_per_group()
    shapes = mapping.group_shapes()
    print("\n  clusters per layer group (Fig. 2B / Fig. 5 annotations):")
    for group, count in counts.items():
        shape = shapes.get(group, "-")
        print(f"    group {group} ({shape}): {count} clusters")
    print(f"  total clusters used: {mapping.n_used_clusters} / {paper_arch.n_clusters}")
    # Shape checks: a majority of the machine is used, the deepest
    # convolutional group dominates the allocation.
    assert 0.5 < mapping.global_mapping_efficiency <= 1.0
    deep_group = max(
        (g for g, s in shapes.items() if str(s) == "8x8x512"), default=None
    )
    assert deep_group is not None
    assert counts[deep_group] == max(
        count for group, count in counts.items() if str(shapes.get(group)) != "1x1x512"
    )


def test_pipeline_job_structure(final_entry):
    """Fig. 2C: the batch is processed as W-tiles streamed through the pipeline."""
    workload = final_entry["workload"]
    print(
        f"\n  batch {workload.batch_size} images x {workload.tiles_per_image} tiles "
        f"= {workload.n_jobs} pipeline jobs over {len(workload.stages)} stages"
    )
    assert workload.n_jobs == workload.batch_size * workload.tiles_per_image
    assert len(workload.stages) == 28


def test_bench_mapping_construction(resnet18_graph, paper_arch, optimizer):
    """Build the final (replicated + spare-L1 residuals) mapping from scratch."""
    options = optimizer.options_for(OptimizationLevel.FINAL)
    mapping = build_mapping(resnet18_graph, paper_arch, options, tiling=optimizer.tiling)
    assert mapping.n_used_clusters > 200
