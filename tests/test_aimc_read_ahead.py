"""The read-ahead forward of :class:`AnalogExecutor` against the inline one.

On the vectorized backend with read noise, a forward draws each analog
layer's noisy read ahead on a thread pool and multiplies on its own
thread.  Every layer reads only its own generators, so the bytes must
equal those of the sequential oracle kept here: matrices programmed one
after another, run by a plain :class:`ReferenceExecutor` whose hook calls
:meth:`TiledMatrix.mvm`, which reads inline.  Comparing bytes across
forwards also checks the draws the reads leave behind.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.aimc import NOISE_PRESETS, AnalogExecutor, TiledMatrix
from repro.aimc import crossbar
from repro.dnn import initialize_parameters, models, random_input
from repro.dnn.graph import GraphError
from repro.dnn.layers import ReLU
from repro.dnn.numerics import ReferenceExecutor

SEED = 3


def inline_forwards(graph, parameters, noise, images):
    """The sequential oracle's outputs of consecutive forwards of ``images``."""
    analog_nodes = graph.analog_nodes()
    seeds = np.random.SeedSequence(SEED).spawn(len(analog_nodes))
    tiled = {
        node.node_id: TiledMatrix(
            parameters[node.node_id].weight_matrix, noise=noise, seed=seed
        )
        for node, seed in zip(analog_nodes, seeds)
        if getattr(node.layer, "groups", 1) == 1
    }
    executor = ReferenceExecutor(
        graph,
        parameters=parameters,
        mvm_hook=lambda node, inputs, _weights: tiled[node.node_id].mvm(inputs),
    )
    return [executor.run_output(image) for image in images]


@pytest.fixture(scope="module")
def resnet():
    graph = models.resnet18(input_shape=(3, 32, 32), num_classes=10)
    images = [random_input(graph, seed=seed) for seed in (1, 2)]
    return graph, initialize_parameters(graph, seed=0), images


@pytest.fixture(scope="module")
def oracle(resnet):
    """The oracle's two forwards per preset, each computed once."""
    graph, parameters, images = resnet
    outputs = {}

    def forwards(preset):
        if preset not in outputs:
            noise = NOISE_PRESETS[preset]()
            outputs[preset] = inline_forwards(graph, parameters, noise, images)
        return outputs[preset]

    return forwards


def build(graph, parameters, preset="typical"):
    return AnalogExecutor(
        graph, parameters=parameters, noise=NOISE_PRESETS[preset](), seed=SEED
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("preset", ["typical", "drift", "pessimistic", "ideal"])
def test_consecutive_forwards_equal_the_inline_ones(
    resnet, oracle, preset, workers, monkeypatch
):
    """Four workers on a smaller host are more threads than CPUs; a short
    switch interval makes the interpreter hand the lock over often."""
    graph, parameters, images = resnet
    monkeypatch.setattr(crossbar, "_available_cpus", lambda: workers)
    executor = build(graph, parameters, preset)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outputs = [executor.run_output(image) for image in images]
    finally:
        sys.setswitchinterval(interval)
    for output, expected in zip(outputs, oracle(preset), strict=True):
        assert output.tobytes() == expected.tobytes()


def test_reads_run_ahead_on_the_pool(resnet, monkeypatch):
    """Each layer is read once, on a pool thread, into an operand it is
    handed, at most two layers ahead of the one being multiplied, and
    every multiply runs on the forward's thread in graph order."""
    graph, parameters, images = resnet
    monkeypatch.setattr(crossbar, "_available_cpus", lambda: 2)
    executor = build(graph, parameters)
    events = []
    lock = threading.Lock()
    read, multiply = TiledMatrix._effective_dense, TiledMatrix._mvm_vectorized

    def logged_read(self, out=None):
        with lock:
            events.append(("read", self, threading.get_ident()))
        assert out is not None and out.flags.c_contiguous
        return read(self, out)

    def logged_multiply(self, batch, dense):
        with lock:
            events.append(("multiply", self, threading.get_ident()))
        return multiply(self, batch, dense)

    monkeypatch.setattr(TiledMatrix, "_effective_dense", logged_read)
    monkeypatch.setattr(TiledMatrix, "_mvm_vectorized", logged_multiply)
    executor.run_output(images[0])

    layers = [
        executor._tiled[node.node_id]
        for node in graph.topological_order()
        if node.node_id in executor._tiled
    ]
    reads = [(layer, thread) for kind, layer, thread in events if kind == "read"]
    multiplies = [(layer, thread) for kind, layer, thread in events if kind == "multiply"]
    forward_thread = threading.get_ident()
    assert [layer for layer, _ in multiplies] == layers
    assert sorted(map(id, (layer for layer, _ in reads))) == sorted(map(id, layers))
    assert all(thread != forward_thread for _, thread in reads)
    assert all(thread == forward_thread for _, thread in multiplies)
    started = done = 0
    for kind, _, _ in events:
        if kind == "read":
            started += 1
        else:
            assert started <= done + 1 + 2
            done += 1


def test_a_rejected_input_draws_nothing(resnet, oracle):
    graph, parameters, images = resnet
    executor = build(graph, parameters)
    with pytest.raises(ValueError, match="does not match graph input"):
        executor.run_output(np.zeros((3, 16, 16)))
    assert executor.run_output(images[0]).tobytes() == oracle("typical")[0].tobytes()


def test_a_graph_with_two_outputs_draws_nothing():
    graph = models.tiny_cnn(input_shape=(3, 32, 32), num_classes=10)
    head = graph.output_nodes[0]
    graph.add(ReLU(name="head2"), inputs=[head.inputs[0]])
    parameters = initialize_parameters(graph, seed=0)
    image = random_input(graph, seed=1)
    executor = build(graph, parameters)
    with pytest.raises(GraphError, match="exactly one output"):
        executor.run_output(image)
    outputs = executor.run(image)
    expected = build(graph, parameters).run(image)
    assert list(outputs) == list(expected)
    for node_id, output in outputs.items():
        assert output.tobytes() == expected[node_id].tobytes()


@pytest.mark.parametrize("model", ["resnet18", "mobilenet_v2"])
def test_run_output_equals_run(model):
    """MobileNetV2's depthwise layers run on the digital reference and stay
    out of the read order."""
    graph = getattr(models, model)(input_shape=(3, 32, 32), num_classes=10)
    parameters = initialize_parameters(graph, seed=0)
    image = random_input(graph, seed=1)
    output = build(graph, parameters).run_output(image)
    outputs = build(graph, parameters).run(image)
    assert output.tobytes() == outputs[graph.output_nodes[0].node_id].tobytes()


def test_a_finished_executor_is_freed_by_reference_counting():
    """Nothing the executor holds refers back to it, so its conductances go
    with its last reference, not at the next cyclic collection."""
    graph = models.tiny_cnn(input_shape=(3, 32, 32), num_classes=10)
    image = random_input(graph, seed=1)
    gc.disable()
    try:
        executor = build(graph, initialize_parameters(graph, seed=0))
        executor.run_output(image)
        executor.run(image)
        executor.compare_with_reference(image)
        alive = weakref.ref(executor)
        del executor
        assert alive() is None
    finally:
        gc.enable()
