"""Unit tests for the DNN frontend (graph IR, layers, builder, model zoo)."""

import pytest

from repro.dnn import (
    Add,
    AvgPool2D,
    Conv2D,
    Flatten,
    Graph,
    GraphBuilder,
    GraphError,
    Input,
    LayerError,
    Linear,
    MaxPool2D,
    ReLU,
    TensorShape,
    models,
)


class TestTensorShape:
    def test_basic_properties(self):
        shape = TensorShape(64, 32, 16)
        assert shape.n_elements == 64 * 32 * 16
        assert shape.n_bytes() == shape.n_elements
        assert shape.n_bytes(2) == 2 * shape.n_elements
        assert shape.chw == (64, 32, 16)
        assert shape.hwc == (32, 16, 64)

    def test_string_uses_hwc_order(self):
        assert str(TensorShape(3, 256, 256)) == "256x256x3"

    def test_from_chw_hwc_round_trip(self):
        shape = TensorShape.from_chw((8, 4, 2))
        assert shape == TensorShape(8, 4, 2)
        assert TensorShape.from_hwc(shape.hwc) == shape

    def test_with_width_and_column_bytes(self):
        shape = TensorShape(16, 8, 32)
        tile = shape.with_width(4)
        assert tile.width == 4 and tile.channels == 16
        assert shape.column_bytes() == 16 * 8

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            TensorShape(0, 4, 4)
        with pytest.raises(ValueError):
            TensorShape(4, 4, 4).n_bytes(0)


class TestLayers:
    def test_conv_output_shape_same_padding(self):
        conv = Conv2D(out_channels=64, kernel_size=3, stride=1, padding=1)
        out = conv.output_shape([TensorShape(3, 32, 32)])
        assert out == TensorShape(64, 32, 32)

    def test_conv_output_shape_stride2(self):
        conv = Conv2D(out_channels=64, kernel_size=7, stride=2, padding=3)
        out = conv.output_shape([TensorShape(3, 256, 256)])
        assert out == TensorShape(64, 128, 128)

    def test_conv_params_and_macs(self):
        conv = Conv2D(out_channels=64, kernel_size=3, stride=1, padding=1, bias=False)
        ifm = TensorShape(64, 56, 56)
        assert conv.param_count([ifm]) == 64 * 64 * 9
        assert conv.macs([ifm]) == 56 * 56 * 64 * 64 * 9

    def test_conv_weight_matrix_shape(self):
        conv = Conv2D(out_channels=128, kernel_size=3)
        assert conv.weight_matrix_shape([TensorShape(64, 32, 32)]) == (576, 128)

    def test_depthwise_conv(self):
        conv = Conv2D(out_channels=32, kernel_size=3, groups=32)
        ifm = TensorShape(32, 16, 16)
        assert conv.is_depthwise
        assert conv.param_count([ifm]) == 32 * 9 + 32
        assert conv.weight_matrix_shape([ifm]) == (9, 1)

    def test_conv_group_mismatch_raises(self):
        conv = Conv2D(out_channels=32, kernel_size=3, groups=3)
        with pytest.raises(LayerError):
            conv.output_shape([TensorShape(32, 16, 16)])

    def test_conv_invalid_parameters(self):
        with pytest.raises(LayerError):
            Conv2D(out_channels=0)
        with pytest.raises(LayerError):
            Conv2D(stride=0)

    def test_maxpool_shape_and_ops(self):
        pool = MaxPool2D(kernel_size=3, stride=2, padding=1)
        out = pool.output_shape([TensorShape(64, 128, 128)])
        assert out == TensorShape(64, 64, 64)
        assert pool.digital_ops([TensorShape(64, 128, 128)]) == out.n_elements * 9

    def test_maxpool_default_stride_equals_kernel(self):
        pool = MaxPool2D(kernel_size=2)
        assert pool.effective_stride == 2
        assert pool.output_shape([TensorShape(8, 8, 8)]) == TensorShape(8, 4, 4)

    def test_global_avgpool(self):
        pool = AvgPool2D(global_pool=True)
        assert pool.output_shape([TensorShape(512, 8, 8)]) == TensorShape(512, 1, 1)

    def test_add_requires_matching_shapes(self):
        add = Add()
        shape = TensorShape(16, 8, 8)
        assert add.output_shape([shape, shape]) == shape
        with pytest.raises(LayerError):
            add.output_shape([shape, TensorShape(16, 8, 4)])

    def test_linear(self):
        fc = Linear(out_features=1000)
        ifm = TensorShape(512, 1, 1)
        assert fc.output_shape([ifm]) == TensorShape(1000, 1, 1)
        assert fc.param_count([ifm]) == 512 * 1000 + 1000
        assert fc.weight_matrix_shape([ifm]) == (512, 1000)

    def test_relu_and_flatten(self):
        shape = TensorShape(4, 4, 4)
        assert ReLU().output_shape([shape]) == shape
        assert Flatten().output_shape([shape]) == TensorShape(64, 1, 1)

    def test_analog_classification(self):
        assert Conv2D().is_analog
        assert Linear().is_analog
        assert not MaxPool2D().is_analog
        assert not Add().is_analog


class TestGraph:
    def _chain(self):
        graph = Graph("chain")
        node_in = graph.add(Input(shape=TensorShape(3, 8, 8)))
        conv = graph.add(Conv2D(out_channels=4, kernel_size=3), [node_in])
        pool = graph.add(MaxPool2D(kernel_size=2), [conv])
        return graph, node_in, conv, pool

    def test_topological_order_and_shapes(self):
        graph, node_in, conv, pool = self._chain()
        graph.infer_shapes()
        order = [node.node_id for node in graph.topological_order()]
        assert order == [node_in, conv, pool]
        assert graph.node(pool).output_shape == TensorShape(4, 4, 4)

    def test_an_edit_after_the_order_was_taken_yields_the_new_order_and_shapes(self):
        graph, node_in, conv, pool = self._chain()
        graph.ensure_shapes()
        first = graph.topological_order()
        assert graph.topological_order() is first  # memoised
        with pytest.raises((TypeError, AttributeError)):
            first.reverse()  # callers cannot reorder the memo
        relu = graph.add(ReLU(), [pool])
        assert not graph.shapes_inferred
        graph.ensure_shapes()
        assert [node.node_id for node in graph.topological_order()] == [
            node_in, conv, pool, relu,
        ]
        assert [node.node_id for node in first] == [node_in, conv, pool]
        assert graph.node(relu).output_shape == TensorShape(4, 4, 4)

    def test_consumers_and_producers(self):
        graph, node_in, conv, pool = self._chain()
        assert graph.consumers(node_in) == [conv]
        assert graph.producers(pool) == [conv]
        assert [n.node_id for n in graph.output_nodes] == [pool]

    def test_wrong_arity_rejected(self):
        graph = Graph()
        node_in = graph.add(Input(shape=TensorShape(3, 8, 8)))
        with pytest.raises(GraphError):
            graph.add(Add(), [node_in])

    def test_missing_input_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add(Conv2D(), [42])

    def test_totals(self):
        graph, *_ = self._chain()
        assert graph.total_params() > 0
        assert graph.total_macs() > 0
        assert graph.total_ops() >= 2 * graph.total_macs()

    def test_summary_contains_each_node(self):
        graph, *_ = self._chain()
        text = graph.summary()
        assert "conv2d" in text and "maxpool2d" in text

    def test_analog_digital_partition(self):
        graph, node_in, conv, pool = self._chain()
        graph.infer_shapes()
        assert [n.node_id for n in graph.analog_nodes()] == [conv]
        assert [n.node_id for n in graph.digital_nodes()] == [pool]


class TestBuilderAndModels:
    def test_builder_residual_connection(self):
        builder = GraphBuilder("net", input_shape=(3, 16, 16))
        builder.conv2d(8)
        skip = builder.current
        builder.conv2d(8)
        builder.add(skip)
        builder.global_avg_pool()
        builder.linear(10)
        graph = builder.build()
        adds = [n for n in graph.nodes if n.kind == "add"]
        assert len(adds) == 1
        assert len(adds[0].inputs) == 2

    def test_resnet18_structure(self, resnet18_graph):
        graph = resnet18_graph
        kinds = [node.kind for node in graph.nodes]
        assert kinds.count("conv2d") == 17  # stem + 16 block convolutions
        assert kinds.count("add") == 8
        assert kinds.count("maxpool2d") == 1
        assert kinds.count("linear") == 1
        # ~11.5 M parameters and ~2.3 GMAC at 256x256 (no projection convs).
        assert 11e6 < graph.total_params() < 12.5e6
        assert 2.0e9 < graph.total_macs() < 2.7e9

    def test_resnet18_ifm_groups(self, resnet18_graph):
        shapes = {str(n.input_shapes[0]) for n in resnet18_graph.nodes if n.input_shapes}
        for expected in (
            "256x256x3",
            "128x128x64",
            "64x64x64",
            "32x32x128",
            "16x16x256",
            "8x8x512",
        ):
            assert expected in shapes

    def test_resnet18_projection_variant_has_more_convs(self):
        paper = models.resnet18(paper_dag=True)
        full = models.resnet18(paper_dag=False)
        n_paper = sum(1 for n in paper.nodes if n.kind == "conv2d")
        n_full = sum(1 for n in full.nodes if n.kind == "conv2d")
        assert n_full > n_paper

    def test_resnet34_is_deeper(self):
        assert len(models.resnet34()) > len(models.resnet18())

    def test_resnet_cifar_depth_validation(self):
        graph = models.resnet_cifar(depth=20)
        assert graph.total_params() < 1e6
        with pytest.raises(ValueError):
            models.resnet_cifar(depth=21)

    def test_vgg16_parameter_count(self):
        graph = models.vgg16()
        assert 130e6 < graph.total_params() < 145e6

    def test_mobilenet_v2_builds(self):
        graph = models.mobilenet_v2()
        assert any(getattr(n.layer, "groups", 1) > 1 for n in graph.nodes)
        assert 2.5e6 < graph.total_params() < 5e6

    def test_simple_models_build(self):
        for factory in (
            models.tiny_cnn,
            models.linear_cnn,
            models.wide_layer_cnn,
            models.residual_chain,
            models.mlp,
        ):
            graph = factory()
            graph.infer_shapes()
            assert len(graph) > 2
