"""The read-ahead forward of :class:`AnalogExecutor` against the inline one.

On the vectorized backend with read noise, a forward draws each analog
layer's noisy read ahead on a thread pool and multiplies on its own
thread.  Every layer reads only its own generators, so the bytes must
equal those of the sequential oracle kept here: matrices programmed one
after another, run by a plain :class:`ReferenceExecutor` whose hook calls
:meth:`TiledMatrix.mvm`, which reads inline.  Comparing bytes across
forwards also checks the draws the reads leave behind.

The constructor returns while the layers program; the tests at the end
hold programming back, make it fail, and check that the accuracy stage,
which runs the digital reference meanwhile, gives the record of the same
steps run one after another.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.aimc import NOISE_PRESETS, AnalogExecutor, TiledMatrix
from repro.aimc import crossbar
from repro.dnn import initialize_parameters, models, numerics, random_input
from repro.dnn.graph import GraphError
from repro.dnn.layers import ReLU
from repro.dnn.numerics import ReferenceExecutor
from repro.scenarios import AccuracyRecord, ExecutionSpec, accuracy_stage

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


#: how long a gated layer waits before the test gives up on the gate
GATE_TIMEOUT_S = 5.0


def pool_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("ThreadPoolExecutor-")
    }


def test_the_constructor_returns_while_the_layers_program(resnet, monkeypatch):
    """Programming is held on a gate: the constructor must return with the
    gate closed (a constructor that waited times the gate out), and the
    first forward after the gate opens gives the ungated bytes."""
    graph, _, images = resnet
    noise = NOISE_PRESETS["typical"]()
    expected = AnalogExecutor(graph, noise=noise, seed=SEED).run_output(images[0])
    gate = threading.Event()
    program = TiledMatrix.__init__

    def gated(self, *args, **kwargs):
        if not gate.wait(GATE_TIMEOUT_S):
            gate.set()  # time out once, not once per layer
            raise TimeoutError("the constructor waited for programming")
        program(self, *args, **kwargs)

    monkeypatch.setattr(TiledMatrix, "__init__", gated)
    executor = AnalogExecutor(graph, noise=noise, seed=SEED)
    returned_with_the_gate_closed = not gate.is_set()
    gate.set()
    assert returned_with_the_gate_closed
    assert executor.run_output(images[0]).tobytes() == expected.tobytes()


class BrokenLayer(RuntimeError):
    """Raised by the one layer whose programming the test breaks."""


@pytest.mark.parametrize("drawn", [False, True])
def test_a_programming_error_is_raised_at_first_use(resnet, monkeypatch, drawn):
    """The constructor returns; the first forward and every later use
    re-raise the layer's error with its type, and no programming thread
    outlives the first use."""
    graph, parameters, images = resnet
    broken = graph.analog_nodes()[7].node_id
    if drawn:
        parameters = initialize_parameters(graph, seed=SEED)
    target = parameters[broken].weight_matrix
    program = TiledMatrix.__init__

    def breaks_one_layer(self, weights, *args, **kwargs):
        if weights.shape == target.shape and np.array_equal(weights, target):
            raise BrokenLayer(f"layer {broken}")
        program(self, weights, *args, **kwargs)

    monkeypatch.setattr(TiledMatrix, "__init__", breaks_one_layer)
    before = pool_threads()
    noise = NOISE_PRESETS["typical"]()
    executor = AnalogExecutor(
        graph, parameters=None if drawn else parameters, noise=noise, seed=SEED
    )
    with pytest.raises(BrokenLayer, match=f"layer {broken}") as first:
        executor.run_output(images[0])
    assert type(first.value) is BrokenLayer
    assert not pool_threads() - before
    with pytest.raises(BrokenLayer, match=f"layer {broken}"):
        executor.total_crossbars
    with pytest.raises(BrokenLayer, match=f"layer {broken}"):
        executor.compare_with_reference(images[0])
    assert not pool_threads() - before


def sequential_record(graph, execution, crossbar_size):
    """The accuracy stage's record computed one step after another: one
    parameter draw, the digital reference forward, then an executor
    handed that draw, programmed before it returns its first output."""
    parameters = initialize_parameters(graph, seed=execution.seed)
    images = [
        random_input(graph, seed=np.random.SeedSequence((execution.seed, index)))
        for index in range(execution.n_inputs)
    ]
    reference = ReferenceExecutor(graph, parameters=parameters)
    references = [reference.run_output(image) for image in images]
    executor = AnalogExecutor(
        graph,
        parameters=parameters,
        noise=execution.noise_model,
        crossbar_rows=crossbar_size,
        crossbar_cols=crossbar_size,
        seed=execution.seed,
        backend=execution.backend,
    )
    outputs = [executor.run_output(image) for image in images]
    squared_error = squared_reference = 0.0
    n_values = agreements = 0
    for output, expected in zip(outputs, references):
        squared_error += float(np.sum((output - expected) ** 2))
        squared_reference += float(np.sum(expected**2))
        n_values += expected.size
        agreements += int(np.argmax(output)) == int(np.argmax(expected))
    return AccuracyRecord(
        backend=execution.backend,
        noise_label=execution.noise_label,
        crossbar_size=crossbar_size,
        n_inputs=execution.n_inputs,
        total_crossbars=executor.total_crossbars,
        rms_error=float(np.sqrt(squared_error / n_values)),
        reference_rms=float(np.sqrt(squared_reference / n_values)),
        top1_agreement=agreements / execution.n_inputs,
    )


@pytest.mark.parametrize("preset", ["typical", "drift"])
@pytest.mark.parametrize("model", ["tiny_cnn", "resnet18"])
def test_the_accuracy_stage_draws_once_and_keeps_the_sequential_record(
    model, preset, monkeypatch
):
    graph = getattr(models, model)(input_shape=(3, 32, 32), num_classes=10)
    execution = ExecutionSpec(noise=preset, seed=SEED, n_inputs=2)
    expected = sequential_record(graph, execution, crossbar_size=128)
    draws = []
    real_draw = numerics.draw_parameters

    def counted(graph, seed=0):
        draws.append(seed)
        return real_draw(graph, seed)

    monkeypatch.setattr(numerics, "draw_parameters", counted)
    monkeypatch.setattr(crossbar, "draw_parameters", counted)
    record = accuracy_stage(graph, execution, crossbar_size=128)
    assert draws == [SEED]
    assert record == expected
