"""Tests for the analog crossbar functional models (repro.aimc)."""

import numpy as np
import pytest

from repro.aimc import (
    ADCSpec,
    AnalogExecutor,
    Crossbar,
    DACSpec,
    NoiseModel,
    PCMArray,
    PCMCellSpec,
    TiledMatrix,
)
from repro.dnn import ReferenceExecutor, initialize_parameters, models, random_input


class TestPCM:
    def test_ideal_programming_is_exact(self):
        array = PCMArray(8, 8, seed=0)
        weights = np.random.default_rng(0).normal(size=(8, 8))
        array.program(weights, ideal=True)
        assert array.programming_error(weights) < 1e-12

    def test_noisy_programming_close_but_not_exact(self):
        cell = PCMCellSpec(programming_noise_frac=0.02)
        array = PCMArray(32, 32, cell=cell, seed=1)
        weights = np.random.default_rng(1).normal(size=(32, 32))
        array.program(weights)
        error = array.programming_error(weights)
        assert 0 < error < 0.2 * np.abs(weights).max()

    def test_drift_reduces_magnitude(self):
        array = PCMArray(16, 16, seed=2)
        weights = np.abs(np.random.default_rng(2).normal(size=(16, 16)))
        array.program(weights, ideal=True)
        fresh = array.effective_weights()
        drifted = array.effective_weights(time_s=1e6)
        assert np.linalg.norm(drifted) < np.linalg.norm(fresh)

    def test_unprogrammed_read_raises(self):
        with pytest.raises(RuntimeError):
            PCMArray(4, 4).effective_weights()

    def test_shape_mismatch_raises(self):
        array = PCMArray(4, 4)
        with pytest.raises(ValueError):
            array.program(np.ones((2, 2)))

    def test_invalid_cell_spec(self):
        with pytest.raises(ValueError):
            PCMCellSpec(g_max_us=0.0, g_min_us=0.0)

    def test_deterministic_reads_are_cached(self):
        """Same drift time -> same matrix object; the values stay exact."""
        array = PCMArray(8, 8, seed=3)
        weights = np.random.default_rng(3).normal(size=(8, 8))
        array.program(weights, ideal=True)
        first = array.effective_weights(time_s=3600.0)
        assert array.effective_weights(time_s=3600.0) is first
        # a different drift time misses and replaces the cache
        other = array.effective_weights(time_s=1e6)
        assert other is not first
        assert array.effective_weights(time_s=1e6) is other
        np.testing.assert_array_equal(other, array.effective_weights(time_s=1e6))

    def test_cache_invalidated_by_reprogramming(self):
        array = PCMArray(8, 8, seed=4)
        rng = np.random.default_rng(4)
        array.program(rng.normal(size=(8, 8)), ideal=True)
        before = array.effective_weights()
        new_weights = rng.normal(size=(8, 8))
        array.program(new_weights, ideal=True)
        after = array.effective_weights()
        assert after is not before
        np.testing.assert_allclose(after, new_weights, atol=1e-12)

    def test_read_noise_bypasses_the_cache(self):
        array = PCMArray(8, 8, seed=5)
        array.program(np.random.default_rng(5).normal(size=(8, 8)), ideal=True)
        deterministic = array.effective_weights()
        noisy_a = array.effective_weights(read_noise=True)
        noisy_b = array.effective_weights(read_noise=True)
        assert noisy_a is not deterministic
        assert not np.array_equal(noisy_a, noisy_b)  # fresh noise every read
        # the deterministic cache survives noisy reads untouched
        assert array.effective_weights() is deterministic


class TestConverters:
    def test_dac_is_idempotent_on_grid(self):
        dac = DACSpec(bits=8)
        values = np.linspace(-1, 1, 11)
        once = dac.convert(values, full_scale=1.0)
        twice = dac.convert(once, full_scale=1.0)
        assert np.allclose(once, twice)

    def test_dac_quantisation_error_bounded(self):
        dac = DACSpec(bits=8)
        values = np.random.default_rng(0).uniform(-1, 1, 1000)
        error = np.abs(dac.convert(values, full_scale=1.0) - values)
        step = 1.0 / ((dac.n_levels - 1) // 2)
        assert error.max() <= step / 2 + 1e-12

    def test_adc_clips_out_of_range(self):
        adc = ADCSpec(bits=8)
        out = adc.convert(np.array([10.0, -10.0]), full_scale=1.0)
        assert out.max() <= 1.0 and out.min() >= -1.0

    def test_zero_input_passthrough(self):
        assert np.all(DACSpec().convert(np.zeros(4)) == 0)
        assert np.all(ADCSpec().convert(np.zeros(4)) == 0)

    def test_invalid_resolution(self):
        """A 1-bit converter has one level and no nonzero code, so the range
        starts at 2 bits; the error names the field."""
        for spec in (DACSpec, ADCSpec):
            for bits in (0, 1, 17, 32):
                with pytest.raises(ValueError, match="bits must be in 2..16"):
                    spec(bits=bits)

    @pytest.mark.parametrize("spec", [DACSpec, ADCSpec], ids=["dac", "adc"])
    def test_non_integer_resolution(self, spec):
        """A width that is not an integer fails when the converter is
        built, naming the value, not later inside ``n_levels``."""
        for bad in (4.5, 8.0, "8", True):
            with pytest.raises(
                ValueError, match=rf"bits must be an integer, got {bad!r}"
            ):
                spec(bits=bad)
        assert spec(bits=np.int64(6)).n_levels == spec(bits=6).n_levels == 63

    @pytest.mark.parametrize("spec", [DACSpec, ADCSpec], ids=["dac", "adc"])
    def test_fewer_bits_give_larger_error(self, spec):
        values = np.random.default_rng(1).normal(size=(32, 32))
        rmse = [
            np.sqrt(np.mean((spec(bits=bits).convert(values) - values) ** 2))
            for bits in (4, 6, 8)
        ]
        assert rmse[0] > rmse[1] > rmse[2]
        assert rmse[2] < 0.02 * np.abs(values).max()

    @pytest.mark.parametrize("spec", [DACSpec, ADCSpec], ids=["dac", "adc"])
    def test_outputs_lie_on_the_code_grid(self, spec):
        """Every output is a whole number of steps within the symmetric
        codes, and inputs past the full scale land on the outermost code."""
        values = np.linspace(-3, 3, 101)
        for bits in (2, 5, 8):
            converter = spec(bits=bits)
            half_levels = (converter.n_levels - 1) // 2
            codes = converter.convert(values, full_scale=2.0) / (2.0 / half_levels)
            assert np.allclose(codes, np.round(codes))
            assert np.abs(np.round(codes)).max() == half_levels
            assert len(np.unique(np.round(codes))) <= converter.n_levels

    def test_array_full_scale_quantises_each_row_on_its_own_grid(self):
        """A per-row full scale quantises each row as that scalar full
        scale would; a zero full scale, or one whose step underflows, maps
        its row to zeros."""
        rng = np.random.default_rng(2)
        values = np.stack(
            [rng.uniform(-1, 1, 10), rng.uniform(-100, 100, 10)]
            + [rng.uniform(-1, 1, 10)] * 2
        )
        full_scale = np.array([[1.0], [100.0], [0.0], [5e-324]])
        for converter in (DACSpec(), ADCSpec()):
            out = converter.convert(values, full_scale=full_scale)
            for row, scale in ((0, 1.0), (1, 100.0)):
                assert np.array_equal(out[row], converter.convert(values[row], full_scale=scale))
                step = scale / ((converter.n_levels - 1) // 2)
                assert np.abs(out[row] - values[row]).max() <= step / 2 + 1e-12
            assert np.all(out[2:] == 0)

    def test_a_full_scale_too_small_for_one_step_gives_zeros(self):
        """A peak so small that its step underflows to zero quantises
        every value to zero, not to NaN."""
        values = np.array([5e-324, 0.0, -5e-324])
        for converter in (DACSpec(), ADCSpec()):
            assert np.array_equal(converter.convert(values), np.zeros(3))
            assert np.array_equal(converter.convert(values, full_scale=1e-322), np.zeros(3))

    def test_default_full_scale_is_the_peak_magnitude(self):
        values = np.random.default_rng(3).normal(size=64)
        peak_index = np.argmax(np.abs(values))
        for converter in (DACSpec(), ADCSpec()):
            out = converter.convert(values)
            assert np.array_equal(
                out, converter.convert(values, full_scale=np.abs(values).max())
            )
            # the peak sits on the outermost code
            assert out[peak_index] == pytest.approx(values[peak_index])

    def test_adc_noise_is_seeded_and_scaled_by_its_fraction(self):
        values = np.linspace(-1, 1, 200)
        adc = ADCSpec(bits=8, noise_frac=0.01)
        first = adc.convert(values, full_scale=1.0, rng=np.random.default_rng(3))
        again = adc.convert(values, full_scale=1.0, rng=np.random.default_rng(3))
        ideal = ADCSpec(bits=8).convert(values, full_scale=1.0)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, ideal)
        # 1% of full scale per sigma: within five sigma plus one step
        assert np.abs(first - ideal).max() <= 5 * 0.01 + 1.0 / 127
        with pytest.raises(ValueError):
            ADCSpec(noise_frac=-0.1)

    def test_empty_input_passthrough(self):
        for converter in (DACSpec(), ADCSpec(noise_frac=0.1)):
            assert converter.convert(np.zeros((0, 4))).shape == (0, 4)


class TestCrossbar:
    def test_ideal_mvm_matches_matmul(self):
        noise = NoiseModel.ideal()
        crossbar = Crossbar(32, 16, noise=noise, seed=0)
        weights = np.random.default_rng(0).normal(size=(32, 16))
        crossbar.program(weights)
        x = np.random.default_rng(1).normal(size=32)
        assert np.allclose(crossbar.mvm(x), x @ weights, atol=1e-10)

    def test_batched_mvm(self):
        crossbar = Crossbar(16, 8, noise=NoiseModel.ideal(), seed=0)
        weights = np.random.default_rng(2).normal(size=(16, 8))
        crossbar.program(weights)
        batch = np.random.default_rng(3).normal(size=(5, 16))
        assert np.allclose(crossbar.mvm(batch), batch @ weights, atol=1e-10)

    def test_noisy_mvm_close_to_ideal(self):
        weights = np.random.default_rng(4).normal(size=(64, 64))
        x = np.random.default_rng(5).normal(size=64)
        noisy = Crossbar(64, 64, noise=NoiseModel.typical(), seed=1)
        noisy.program(weights)
        reference = x @ weights
        error = np.linalg.norm(noisy.mvm(x) - reference) / np.linalg.norm(reference)
        assert error < 0.25

    def test_partial_fill_and_utilization(self):
        crossbar = Crossbar(64, 64, noise=NoiseModel.ideal())
        crossbar.program(np.ones((10, 20)))
        assert crossbar.utilization == pytest.approx(200 / 4096)
        out = crossbar.mvm(np.ones(10))
        assert out.shape == (20,)

    def test_oversized_weights_rejected(self):
        with pytest.raises(ValueError):
            Crossbar(8, 8).program(np.ones((9, 8)))

    def test_unprogrammed_mvm_rejected(self):
        with pytest.raises(RuntimeError):
            Crossbar(8, 8).mvm(np.ones(8))

    def test_wrong_input_length_rejected(self):
        crossbar = Crossbar(8, 8, noise=NoiseModel.ideal())
        crossbar.program(np.ones((8, 8)))
        with pytest.raises(ValueError):
            crossbar.mvm(np.ones(4))


class TestTiledMatrix:
    def test_tile_count_matches_splits(self):
        weights = np.random.default_rng(0).normal(size=(300, 500))
        tiled = TiledMatrix(weights, crossbar_rows=256, crossbar_cols=256,
                            noise=NoiseModel.ideal(), seed=0)
        assert tiled.n_row_splits == 2
        assert tiled.n_col_splits == 2
        assert tiled.n_crossbars == 4

    def test_tiled_mvm_matches_matmul(self):
        weights = np.random.default_rng(1).normal(size=(130, 70))
        tiled = TiledMatrix(weights, crossbar_rows=64, crossbar_cols=64,
                            noise=NoiseModel.ideal(), seed=0)
        x = np.random.default_rng(2).normal(size=130)
        assert np.allclose(tiled.mvm(x), x @ weights, atol=1e-9)

    def test_utilization_below_one_for_ragged_split(self):
        weights = np.ones((100, 100))
        tiled = TiledMatrix(weights, crossbar_rows=64, crossbar_cols=64,
                            noise=NoiseModel.ideal())
        assert 0 < tiled.utilization < 1

    def test_input_length_validation(self):
        tiled = TiledMatrix(np.ones((10, 10)), crossbar_rows=8, crossbar_cols=8,
                            noise=NoiseModel.ideal())
        with pytest.raises(ValueError):
            tiled.mvm(np.ones(9))


class TestAnalogExecutor:
    def test_ideal_executor_matches_reference(self, tiny_graph):
        params = initialize_parameters(tiny_graph, seed=0)
        image = random_input(tiny_graph, seed=1)
        executor = AnalogExecutor(
            tiny_graph, parameters=params, noise=NoiseModel.ideal(),
            crossbar_rows=64, crossbar_cols=64, seed=0,
        )
        assert executor.compare_with_reference(image) < 1e-9

    def test_noisy_executor_close_to_reference(self, tiny_graph):
        params = initialize_parameters(tiny_graph, seed=0)
        image = random_input(tiny_graph, seed=1)
        executor = AnalogExecutor(
            tiny_graph, parameters=params, noise=NoiseModel.typical(),
            crossbar_rows=64, crossbar_cols=64, seed=0,
        )
        reference = ReferenceExecutor(tiny_graph, parameters=params)
        golden = reference.run_output(image)
        error = executor.compare_with_reference(image)
        assert error < 0.5 * np.abs(golden).max() + 0.5

    def test_total_crossbars_positive(self, tiny_graph):
        executor = AnalogExecutor(tiny_graph, noise=NoiseModel.ideal(),
                                  crossbar_rows=64, crossbar_cols=64)
        assert executor.total_crossbars >= len(tiny_graph.analog_nodes())

    def test_noise_presets(self):
        assert not NoiseModel.ideal().programming_noise
        assert NoiseModel.typical().programming_noise
        assert NoiseModel.pessimistic().adc.bits < NoiseModel.typical().adc.bits
        drifted = NoiseModel.typical().with_drift(100.0)
        assert drifted.drift_time_s == 100.0

    def test_invalid_noise_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(ir_drop_factor=0.0)
        with pytest.raises(ValueError):
            NoiseModel(drift_time_s=-1.0)
