"""Bit-level pins of the analog device state on the vectorized backend.

The programmed conductances, the dense GEMM operand a read hands the MVM
and the digital max-pooling kernel come only from PCG64 draws and
element-wise IEEE arithmetic, so their bytes are the same on every CPU and
a digest pins them exactly.  Nothing that passes through a GEMM is pinned:
BLAS results differ between CPUs.  The backend equivalence suite compares
with tolerances, so these pins are what catches a change to the order of
the random draws or to the per-element operation sequence.

:class:`AnalogExecutor` programs its layers on a pool of one thread per
CPU the process may run on; the last tests require the same bytes from a
one-worker pool and from the default one, and from an executor that
draws its own parameters, programming each layer as it is drawn, and one
handed those parameters.
"""

import hashlib

import numpy as np
import pytest

from repro.aimc import NOISE_PRESETS, AnalogExecutor, TiledMatrix
from repro.aimc import crossbar
from repro.dnn import initialize_parameters, models, random_input
from repro.dnn.layers import MaxPool2D
from repro.dnn.numerics import maxpool2d_reference

#: 300x200 weights on 128x128 crossbars: both axes are ragged, so the
#: matrix splits into all four tile groups (interior, right edge, bottom
#: edge, corner).
WEIGHTS = np.random.default_rng(2023).normal(size=(300, 200))
CROSSBAR = 128

#: per noise preset: digests of the programmed g+ and g- (all groups, in
#: group order) and of the dense GEMM operand of two consecutive reads.
DEVICE_PINS = {
    "drift": {
        "g_plus": "5ac1974326ec0cdc",
        "g_minus": "a3a3ec6379fe2135",
        "read_1": "d1183a2195693126",
        "read_2": "1938176ce8c03fee",
    },
    "ideal": {
        "g_plus": "fc74d9dfac70964c",
        "g_minus": "d4a8246a3458137b",
        "read_1": "c301a5b2073a74c3",
        "read_2": "c301a5b2073a74c3",
    },
    "pessimistic": {
        "g_plus": "d68adb7ed084a344",
        "g_minus": "056960893830fa48",
        "read_1": "155c26a943ea9b7c",
        "read_2": "c621a1e1a0f0ef66",
    },
    "typical": {
        "g_plus": "5ac1974326ec0cdc",
        "g_minus": "a3a3ec6379fe2135",
        "read_1": "f921b385c9d270b2",
        "read_2": "85cea7e9c5b462c9",
    },
}

MAXPOOL_PIN = "9dcd1b298cebd320"


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 prefix over the shapes and float64 bytes of ``arrays``."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(repr(array.shape).encode())
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_pins_cover_every_preset():
    assert set(DEVICE_PINS) == set(NOISE_PRESETS)


@pytest.mark.parametrize("preset", sorted(NOISE_PRESETS))
def test_device_state_is_pinned(preset):
    tiled = TiledMatrix(
        WEIGHTS,
        crossbar_rows=CROSSBAR,
        crossbar_cols=CROSSBAR,
        noise=NOISE_PRESETS[preset](),
        seed=7,
        backend="vectorized",
    )
    arrays = [group.array for group in tiled._groups]
    assert len(arrays) == 4
    reads = [tiled._effective_dense(), tiled._effective_dense()]
    for dense in reads:
        # the GEMM operand's layout is part of the pin: a different layout
        # would change the GEMM
        assert dense.shape == WEIGHTS.shape and dense.flags.c_contiguous
    observed = {
        "g_plus": digest(*(array._g_plus for array in arrays)),
        "g_minus": digest(*(array._g_minus for array in arrays)),
        "read_1": digest(reads[0]),
        "read_2": digest(reads[1]),
    }
    assert observed == DEVICE_PINS[preset]


def test_maxpool_output_is_pinned():
    ifm = np.random.default_rng(11).normal(size=(8, 33, 31))
    output = maxpool2d_reference(ifm, MaxPool2D(kernel_size=3, stride=2, padding=1))
    assert output.shape == (8, 17, 16)
    assert digest(output) == MAXPOOL_PIN


@pytest.mark.parametrize("preset", ["typical", "drift"])
def test_executor_bytes_do_not_depend_on_the_pool_size(preset, monkeypatch):
    """Each layer draws only from its own seed's generators, so a
    one-worker pool and the default pool program the same conductances
    and hand the MVMs the same read operands and the same output."""
    graph = models.resnet18(input_shape=(3, 32, 32), num_classes=10)
    parameters = initialize_parameters(graph, seed=0)
    noise = NOISE_PRESETS[preset]()

    def build() -> AnalogExecutor:
        return AnalogExecutor(graph, parameters=parameters, noise=noise, seed=3)

    pooled = build()
    with monkeypatch.context() as patch:
        patch.setattr(crossbar, "_available_cpus", lambda: 1)
        serial = build()
    assert list(serial._tiled) == list(pooled._tiled)
    assert len(serial._tiled) == 18
    for node_id, tiled in serial._tiled.items():
        other = pooled._tiled[node_id]
        for group, other_group in zip(tiled._groups, other._groups, strict=True):
            assert digest(group.array._g_plus) == digest(other_group.array._g_plus)
            assert digest(group.array._g_minus) == digest(other_group.array._g_minus)
        assert digest(tiled._effective_dense()) == digest(other._effective_dense())
    image = random_input(graph, seed=1)
    assert digest(serial.run_output(image)) == digest(pooled.run_output(image))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_an_executor_that_draws_its_parameters_gives_the_same_bytes(
    workers, monkeypatch
):
    """Drawn by the executor, layer by layer while the pool programs the
    layers already drawn, the parameters are ``initialize_parameters``'
    bytes, and the executor programs, reads and outputs what one handed
    those parameters does."""
    graph = models.resnet18(input_shape=(3, 32, 32), num_classes=10)
    noise = NOISE_PRESETS["typical"]()
    monkeypatch.setattr(crossbar, "_available_cpus", lambda: workers)
    drawn = AnalogExecutor(graph, noise=noise, seed=5)
    parameters = initialize_parameters(graph, seed=5)
    given = AnalogExecutor(graph, parameters=parameters, noise=noise, seed=5)
    assert list(drawn.parameters) == list(parameters)
    for node_id, layer in parameters.items():
        other = drawn.parameters[node_id]
        assert digest(other.weights) == digest(layer.weights)
        assert (other.bias is None) == (layer.bias is None)
        if layer.bias is not None:
            assert digest(other.bias) == digest(layer.bias)
    assert list(drawn._tiled) == list(given._tiled)
    assert len(drawn._tiled) == 18
    for node_id, tiled in given._tiled.items():
        other = drawn._tiled[node_id]
        for group, other_group in zip(tiled._groups, other._groups, strict=True):
            assert digest(group.array._g_plus) == digest(other_group.array._g_plus)
            assert digest(group.array._g_minus) == digest(other_group.array._g_minus)
        assert digest(tiled._effective_dense()) == digest(other._effective_dense())
    image = random_input(graph, seed=1)
    assert digest(drawn.run_output(image)) == digest(given.run_output(image))
