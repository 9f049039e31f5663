"""Equivalence suite: vectorized analog backend vs the per-tile reference.

With noise disabled the two backends must agree to float rounding on every
model in the zoo; with noise enabled (tiles seeded from the same
``SeedSequence``) they draw different but identically distributed streams,
so they must agree statistically.  Shape validation must behave identically
on both backends.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.aimc import (
    AnalogExecutor,
    NoiseModel,
    StackedPCMArray,
    TiledMatrix,
)
from repro.dnn import initialize_parameters, models, random_input

SMALL = (3, 32, 32)

#: every model in repro.dnn.models, built at a size small enough to test.
MODEL_BUILDERS = {
    "tiny_cnn": lambda: models.tiny_cnn(input_shape=SMALL, num_classes=10),
    "linear_cnn": lambda: models.linear_cnn(n_layers=3, input_shape=SMALL, width=16),
    "wide_layer_cnn": lambda: models.wide_layer_cnn(
        input_shape=(16, 8, 8), channels=96, num_classes=10
    ),
    "residual_chain": lambda: models.residual_chain(n_blocks=2, input_shape=SMALL),
    "mlp": lambda: models.mlp(input_features=96, hidden=160, n_hidden_layers=2),
    "mobilenet_v2": lambda: models.mobilenet_v2(
        input_shape=SMALL, num_classes=10, width_multiplier=0.5
    ),
    "resnet18": lambda: models.resnet18(input_shape=SMALL, num_classes=10),
    "resnet34": lambda: models.resnet34(input_shape=SMALL, num_classes=10),
    "resnet_cifar": lambda: models.resnet_cifar(depth=8),
    "vgg11": lambda: models.vgg11(input_shape=SMALL, num_classes=10, classifier_width=64),
    "vgg13": lambda: models.vgg13(input_shape=SMALL, num_classes=10, classifier_width=64),
    "vgg16": lambda: models.vgg16(input_shape=SMALL, num_classes=10, classifier_width=64),
}


def test_every_zoo_model_is_covered():
    assert set(MODEL_BUILDERS) == set(models.__all__)


class TestNoiseFreeEquivalence:
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_backends_identical_without_noise(self, name):
        graph = MODEL_BUILDERS[name]()
        parameters = initialize_parameters(graph, seed=0)
        image = random_input(graph, seed=1)
        outputs = {}
        for backend in ("reference", "vectorized"):
            executor = AnalogExecutor(
                graph,
                parameters=parameters,
                noise=NoiseModel.ideal(),
                crossbar_rows=128,
                crossbar_cols=128,
                seed=0,
                backend=backend,
            )
            outputs[backend] = executor.run_output(image)
        assert np.allclose(
            outputs["reference"], outputs["vectorized"], rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "shape,crossbar",
        [
            ((40, 30), 64),  # single tile, smaller than the crossbar
            ((128, 128), 64),  # exact multi-tile grid
            ((300, 190), 128),  # ragged grid: right, bottom and corner groups
            ((130, 70), 64),  # ragged on both axes
        ],
    )
    def test_tiled_mvm_matches_reference_and_matmul(self, shape, crossbar):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=shape)
        batch = rng.normal(size=(5, shape[0]))
        results = {}
        for backend in ("reference", "vectorized"):
            tiled = TiledMatrix(
                weights,
                crossbar_rows=crossbar,
                crossbar_cols=crossbar,
                noise=NoiseModel.ideal(),
                seed=7,
                backend=backend,
            )
            results[backend] = tiled.mvm(batch)
        assert np.allclose(results["reference"], results["vectorized"], atol=1e-12)
        assert np.allclose(results["vectorized"], batch @ weights, atol=1e-9)

    def test_single_vector_input_shape(self):
        weights = np.random.default_rng(1).normal(size=(100, 60))
        x = np.random.default_rng(2).normal(size=100)
        tiled = TiledMatrix(
            weights, crossbar_rows=64, crossbar_cols=64,
            noise=NoiseModel.ideal(), backend="vectorized",
        )
        assert tiled.mvm(x).shape == (60,)


class TestNoisyEquivalence:
    def test_backends_statistically_close(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(200, 150))
        batch = rng.normal(size=(16, 200))
        golden = batch @ weights
        errors = {}
        for backend in ("reference", "vectorized"):
            tiled = TiledMatrix(
                weights,
                crossbar_rows=64,
                crossbar_cols=64,
                noise=NoiseModel.typical(),
                seed=11,
                backend=backend,
            )
            output = tiled.mvm(batch)
            errors[backend] = np.linalg.norm(output - golden) / np.linalg.norm(golden)
        # both backends approximate the digital result with the same noise
        # budget; neither may be wildly off nor suspiciously exact.
        for backend, error in errors.items():
            assert 0.0 < error < 0.3, f"{backend} error {error}"
        assert abs(errors["reference"] - errors["vectorized"]) < 0.1

    def test_noisy_executor_close_to_reference_backend(self, tiny_graph):
        parameters = initialize_parameters(tiny_graph, seed=0)
        image = random_input(tiny_graph, seed=1)
        outputs = {}
        for backend in ("reference", "vectorized"):
            executor = AnalogExecutor(
                tiny_graph,
                parameters=parameters,
                noise=NoiseModel.typical(),
                crossbar_rows=64,
                crossbar_cols=64,
                seed=0,
                backend=backend,
            )
            outputs[backend] = executor.run_output(image)
        scale = float(np.abs(outputs["reference"]).max())
        diff = float(np.abs(outputs["reference"] - outputs["vectorized"]).max())
        assert diff < 0.5 * scale + 0.5

    def test_read_noise_varies_between_calls_on_both_backends(self):
        weights = np.random.default_rng(3).normal(size=(96, 96))
        x = np.random.default_rng(4).normal(size=(4, 96))
        for backend in ("reference", "vectorized"):
            tiled = TiledMatrix(
                weights, crossbar_rows=64, crossbar_cols=64,
                noise=NoiseModel.typical(), seed=5, backend=backend,
            )
            assert not np.allclose(tiled.mvm(x), tiled.mvm(x)), backend


class TestShapeValidation:
    def test_mvm_rejects_wrong_length_identically(self):
        weights = np.ones((50, 40))
        messages = {}
        for backend in ("reference", "vectorized"):
            tiled = TiledMatrix(
                weights, crossbar_rows=32, crossbar_cols=32,
                noise=NoiseModel.ideal(), backend=backend,
            )
            with pytest.raises(ValueError) as excinfo:
                tiled.mvm(np.ones(49))
            messages[backend] = str(excinfo.value)
        assert messages["reference"] == messages["vectorized"]

    def test_batched_mvm_rejects_wrong_length_identically(self):
        weights = np.ones((50, 40))
        for backend in ("reference", "vectorized"):
            tiled = TiledMatrix(
                weights, crossbar_rows=32, crossbar_cols=32,
                noise=NoiseModel.ideal(), backend=backend,
            )
            with pytest.raises(ValueError):
                tiled.mvm(np.ones((3, 51)))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            TiledMatrix(np.ones((4, 4)), backend="gpu")
        with pytest.raises(ValueError):
            AnalogExecutor(MODEL_BUILDERS["tiny_cnn"](), backend="gpu")

    def test_non_2d_weights_rejected(self):
        with pytest.raises(ValueError):
            TiledMatrix(np.ones((2, 2, 2)))

    def test_per_tile_objects_only_on_reference_backend(self):
        weights = np.ones((50, 40))
        reference = TiledMatrix(
            weights, crossbar_rows=32, crossbar_cols=32,
            noise=NoiseModel.ideal(), backend="reference",
        )
        assert len(reference.tiles) == reference.n_crossbars
        vectorized = TiledMatrix(
            weights, crossbar_rows=32, crossbar_cols=32,
            noise=NoiseModel.ideal(), backend="vectorized",
        )
        with pytest.raises(RuntimeError, match="reference"):
            vectorized.tiles
        assert len(vectorized.tile_coordinates) == vectorized.n_crossbars


class TestDeviceStateCache:
    def test_deterministic_read_serves_cached_tensor(self):
        array = StackedPCMArray((2, 2), 8, 8, seed=0)
        array.program(np.random.default_rng(0).normal(size=(2, 2, 8, 8)), ideal=True)
        first = array.effective_weights(time_s=100.0, read_noise=False)
        second = array.effective_weights(time_s=100.0, read_noise=False)
        assert first is second

    def test_cache_invalidated_by_drift_time_change(self):
        array = StackedPCMArray((1, 1), 8, 8, seed=0)
        array.program(np.abs(np.random.default_rng(1).normal(size=(1, 1, 8, 8))), ideal=True)
        fresh = array.effective_weights(time_s=None)
        drifted = array.effective_weights(time_s=1e6)
        assert fresh is not drifted
        assert np.linalg.norm(drifted) < np.linalg.norm(fresh)

    def test_cache_invalidated_by_reprogram(self):
        array = StackedPCMArray((1, 2), 4, 4, seed=0)
        weights = np.random.default_rng(2).normal(size=(1, 2, 4, 4))
        array.program(weights, ideal=True)
        before = array.effective_weights()
        array.program(2.0 * weights, ideal=True)
        after = array.effective_weights()
        assert before is not after
        assert np.allclose(after, 2.0 * before)

    def test_read_noise_bypasses_cache(self):
        array = StackedPCMArray((2, 1), 8, 8, seed=3)
        array.program(np.random.default_rng(3).normal(size=(2, 1, 8, 8)), ideal=True)
        cached = array.effective_weights()
        noisy_a = array.effective_weights(read_noise=True)
        noisy_b = array.effective_weights(read_noise=True)
        assert noisy_a is not cached and noisy_b is not cached
        assert not np.allclose(noisy_a, noisy_b)
        # the deterministic cache survives noisy reads
        assert array.effective_weights() is cached

    def test_read_into_out_neither_serves_nor_fills_cache(self):
        array = StackedPCMArray((2, 1), 8, 8, seed=3)
        array.program(np.random.default_rng(3).normal(size=(2, 1, 8, 8)), ideal=True)
        out = np.empty(array.full_shape)
        assert array.effective_weights(out=out) is out
        cached = array.effective_weights()
        assert cached is not out and np.array_equal(cached, out)
        # a strided destination, as TiledMatrix passes its GEMM operand
        dense = np.empty((16, 8))
        view = dense.reshape(2, 8, 1, 8).transpose(0, 2, 1, 3)
        assert array.effective_weights(read_noise=True, out=view) is view
        assert not np.array_equal(view, cached)
        assert array.effective_weights() is cached

    def test_drift_preset_reads_draw_noise(self):
        # the drift preset is the typical model an hour after programming,
        # read noise included: every read is fresh, none comes from the cache
        preset = NoiseModel.drifted()
        assert preset == NoiseModel.typical().with_drift(3600.0)
        assert preset.read_noise and not preset.deterministic_read
        tiled = TiledMatrix(
            np.random.default_rng(6).normal(size=(96, 96)),
            crossbar_rows=64, crossbar_cols=64, noise=preset, seed=7,
        )
        first, second = tiled._effective_dense(), tiled._effective_dense()
        assert first is not second
        assert not np.allclose(first, second)

    def test_drift_without_read_noise_is_served_from_cache(self):
        quiet = replace(NoiseModel.drifted(), read_noise=False)
        assert quiet.deterministic_read
        tiled = TiledMatrix(
            np.random.default_rng(6).normal(size=(96, 96)),
            crossbar_rows=64, crossbar_cols=64, noise=quiet, seed=7,
        )
        assert tiled._effective_dense() is tiled._effective_dense()

    def test_ideal_programming_matches_targets(self):
        weights = np.random.default_rng(4).normal(size=(3, 2, 6, 5))
        array = StackedPCMArray((3, 2), 6, 5, seed=0)
        array.program(weights, ideal=True)
        assert np.allclose(array.effective_weights(), weights, atol=1e-12)

    def test_unprogrammed_read_raises(self):
        with pytest.raises(RuntimeError):
            StackedPCMArray((1, 1), 4, 4).effective_weights()

    def test_shape_mismatch_rejected(self):
        array = StackedPCMArray((2, 2), 4, 4)
        with pytest.raises(ValueError):
            array.program(np.ones((2, 2, 4, 5)))


class TestSeeding:
    def test_adjacent_layers_draw_distinct_programming_noise(self):
        """The old ``seed + node_id`` / ``31*row + col`` scheme collided
        across layers; SeedSequence spawning must not."""
        noise = NoiseModel(
            programming_noise=True, read_noise=False, converter_quantization=False
        )
        weights = np.random.default_rng(5).normal(size=(64, 64))
        x = np.random.default_rng(6).normal(size=64)
        outputs = []
        for seed in (0, 1):
            for backend in ("reference", "vectorized"):
                tiled = TiledMatrix(
                    weights, crossbar_rows=64, crossbar_cols=64,
                    noise=noise, seed=seed, backend=backend,
                )
                outputs.append(tiled.mvm(x))
        # four independently seeded programmings: all pairwise distinct
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                assert not np.allclose(outputs[i], outputs[j]), (i, j)

    def test_compare_with_reference_cache_consistent(self, tiny_graph):
        parameters = initialize_parameters(tiny_graph, seed=0)
        image = random_input(tiny_graph, seed=1)
        executor = AnalogExecutor(
            tiny_graph,
            parameters=parameters,
            noise=NoiseModel.ideal(),
            crossbar_rows=64,
            crossbar_cols=64,
            backend="vectorized",
        )
        first = executor.compare_with_reference(image)
        second = executor.compare_with_reference(image)
        assert first == second < 1e-9
        other = random_input(tiny_graph, seed=2)
        assert executor.compare_with_reference(other) < 1e-9
