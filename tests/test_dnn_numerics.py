"""Tests for the numpy reference executor."""

import numpy as np
import pytest

from repro.dnn import (
    Conv2D,
    MaxPool2D,
    ReferenceExecutor,
    TensorShape,
    conv2d_reference,
    im2col,
    models,
    random_input,
)
from repro.dnn.graph import GraphError
from repro.dnn.numerics import avgpool2d_reference, linear_reference, maxpool2d_reference
from repro.dnn.layers import AvgPool2D, Linear, ReLU


def _maxpool_oracle(ifm, kernel, stride, padding):
    """Max pooling one window element at a time, padding cells skipped."""
    channels, height, width = ifm.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    output = np.empty((channels, out_h, out_w))
    for c in range(channels):
        for row in range(out_h):
            for col in range(out_w):
                best = -np.inf
                for dy in range(kernel):
                    for dx in range(kernel):
                        y = row * stride + dy - padding
                        x = col * stride + dx - padding
                        if 0 <= y < height and 0 <= x < width:
                            best = max(best, ifm[c, y, x])
                output[c, row, col] = best
    return output


class TestIm2Col:
    def test_shape(self):
        ifm = np.arange(3 * 8 * 8, dtype=float).reshape(3, 8, 8)
        cols = im2col(ifm, kernel_size=3, stride=1, padding=1)
        assert cols.shape == (64, 27)

    def test_stride_reduces_rows(self):
        ifm = np.ones((2, 8, 8))
        cols = im2col(ifm, kernel_size=3, stride=2, padding=1)
        assert cols.shape == (16, 18)

    def test_identity_kernel_matches_input(self):
        ifm = np.random.default_rng(0).normal(size=(1, 4, 4))
        cols = im2col(ifm, kernel_size=1, stride=1, padding=0)
        assert np.allclose(cols.reshape(4, 4), ifm[0])

    def test_invalid_input_raises(self):
        with pytest.raises(ValueError):
            im2col(np.ones((4, 4)), 3, 1, 1)


class TestReferenceKernels:
    def test_conv_matches_manual_1x1(self):
        ifm = np.random.default_rng(1).normal(size=(4, 5, 5))
        weights = np.random.default_rng(2).normal(size=(8, 4, 1, 1))
        layer = Conv2D(out_channels=8, kernel_size=1, padding=0, bias=False, fused_relu=False)
        out = conv2d_reference(ifm, weights, None, layer)
        manual = np.einsum("oc,chw->ohw", weights[:, :, 0, 0], ifm)
        assert np.allclose(out, manual)

    def test_conv_relu_clamps_negatives(self):
        ifm = -np.ones((1, 4, 4))
        weights = np.ones((1, 1, 1, 1))
        layer = Conv2D(out_channels=1, kernel_size=1, padding=0, bias=False, fused_relu=True)
        out = conv2d_reference(ifm, weights, None, layer)
        assert np.all(out == 0.0)

    def test_maxpool_reference(self):
        ifm = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = maxpool2d_reference(ifm, MaxPool2D(kernel_size=2, stride=2))
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 5.0
        assert out[0, 1, 1] == 15.0

    @pytest.mark.parametrize("shape", [(2, 7, 5), (3, 6, 9)])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 2, 3])
    def test_maxpool_equals_per_window_oracle(self, kernel, stride, padding, shape):
        # all-negative inputs: a padding cell winning a window would show
        ifm = -np.abs(np.random.default_rng(kernel + 3 * stride).normal(size=shape)) - 0.5
        layer = MaxPool2D(kernel_size=kernel, stride=stride, padding=padding)
        output = maxpool2d_reference(ifm, layer)
        assert output.shape == layer.output_shape([TensorShape(*shape)]).chw
        assert np.array_equal(output, _maxpool_oracle(ifm, kernel, stride, padding))

    def test_global_avgpool_reference(self):
        ifm = np.ones((3, 4, 4)) * np.arange(1, 4)[:, None, None]
        out = avgpool2d_reference(ifm, AvgPool2D(global_pool=True))
        assert np.allclose(out.reshape(-1), [1.0, 2.0, 3.0])

    def test_linear_reference(self):
        ifm = np.ones((4, 1, 1))
        weights = np.eye(4)
        out = linear_reference(ifm, weights, None, Linear(out_features=4, bias=False))
        assert np.allclose(out.reshape(-1), np.ones(4))


class TestReferenceExecutor:
    def test_runs_every_node(self, tiny_graph):
        executor = ReferenceExecutor(tiny_graph, seed=0)
        outputs = executor.run(random_input(tiny_graph, seed=1))
        assert set(outputs) == {node.node_id for node in tiny_graph.nodes}

    def test_output_shape_matches_graph(self, tiny_graph):
        executor = ReferenceExecutor(tiny_graph, seed=0)
        out = executor.run_output(random_input(tiny_graph, seed=1))
        expected = tiny_graph.output_nodes[0].output_shape
        assert out.shape == expected.chw

    def test_deterministic_given_seed(self, tiny_graph):
        image = random_input(tiny_graph, seed=3)
        a = ReferenceExecutor(tiny_graph, seed=5).run_output(image)
        b = ReferenceExecutor(tiny_graph, seed=5).run_output(image)
        assert np.allclose(a, b)

    def test_wrong_input_shape_rejected(self, tiny_graph):
        executor = ReferenceExecutor(tiny_graph, seed=0)
        with pytest.raises(ValueError):
            executor.run(np.zeros((1, 8, 8)))

    def test_mvm_hook_is_used(self, tiny_graph):
        calls = []

        def hook(node, inputs, weights):
            calls.append(node.node_id)
            return inputs @ weights

        executor = ReferenceExecutor(tiny_graph, seed=0, mvm_hook=hook)
        executor.run_output(random_input(tiny_graph, seed=1))
        analog_ids = {node.node_id for node in tiny_graph.analog_nodes()}
        assert analog_ids.issubset(set(calls))

    def test_run_output_rejects_two_outputs_before_running(self):
        graph = models.tiny_cnn(input_shape=(3, 32, 32), num_classes=10)
        head = graph.output_nodes[0]
        graph.add(ReLU(name="head2"), inputs=[head.inputs[0]])
        calls = []

        def hook(node, inputs, weights):
            calls.append(node.node_id)
            return inputs @ weights

        executor = ReferenceExecutor(graph, seed=0, mvm_hook=hook)
        with pytest.raises(GraphError, match="exactly one output"):
            executor.run_output(random_input(graph, seed=1))
        assert calls == []

    def test_run_output_holds_only_tensors_still_to_be_read(self, monkeypatch):
        graph = models.resnet18(input_shape=(3, 32, 32), num_classes=10)
        order = graph.topological_order()
        held = []
        run_node = ReferenceExecutor._run_node

        def recording(self, node, outputs, input_tensor):
            held.append(set(outputs))
            return run_node(self, node, outputs, input_tensor)

        monkeypatch.setattr(ReferenceExecutor, "_run_node", recording)
        image = random_input(graph, seed=1)
        output = ReferenceExecutor(graph, seed=0).run_output(image)
        assert len(held) == len(order)
        for position, node_ids in enumerate(held):
            done = {node.node_id for node in order[:position]}
            still_read = {src for node in order[position:] for src in node.inputs}
            assert node_ids == done & still_read
        monkeypatch.undo()
        outputs = ReferenceExecutor(graph, seed=0).run(image)
        assert np.array_equal(output, outputs[graph.output_nodes[0].node_id])

    def test_mobilenet_depthwise_runs(self):
        graph = models.mobilenet_v2(input_shape=(3, 32, 32), num_classes=10)
        executor = ReferenceExecutor(graph, seed=0)
        out = executor.run_output(random_input(graph, seed=1))
        assert out.shape == (10, 1, 1)
