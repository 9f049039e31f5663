"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.arch import HBMSpec, IMASpec, InterconnectSpec, QuadrantTopology
from repro.aimc.adc_dac import _peak
from repro.aimc import (
    ADCSpec,
    Crossbar,
    DACSpec,
    NoiseModel,
    PCMCellSpec,
    StackedPCMArray,
    TiledMatrix,
)
from repro.core import LayerSplit, ReductionPlan
from repro.dnn import TensorShape
from repro.dnn.numerics import im2col
from repro.sim import Engine, Server


# --------------------------------------------------------------------------- #
# Architecture invariants
# --------------------------------------------------------------------------- #
@given(rows=st.integers(1, 4096), cols=st.integers(1, 4096))
def test_split_covers_whole_matrix(rows, cols):
    """Row/column splits always allocate at least as many cells as the matrix has."""
    ima = IMASpec()
    split = LayerSplit.for_matrix(rows, cols, ima)
    allocated_rows = split.n_row_splits * ima.rows
    allocated_cols = split.n_col_splits * ima.cols
    assert allocated_rows >= rows
    assert allocated_cols >= cols
    assert 0 < split.cell_utilization <= 1
    # Splits are minimal: one fewer split along either axis would not fit.
    assert (split.n_row_splits - 1) * ima.rows < rows
    assert (split.n_col_splits - 1) * ima.cols < cols


@given(n_partials=st.integers(1, 200))
def test_reduction_plan_reduces_to_one(n_partials):
    """The dedicated reduction tree always converges to a single output."""
    plan = ReductionPlan.plan(n_partials)
    if plan.dedicated:
        assert plan.levels[0].n_inputs == n_partials
        assert plan.levels[-1].n_outputs == 1
        for earlier, later in zip(plan.levels, plan.levels[1:]):
            assert later.n_inputs == earlier.n_outputs
    ops = plan.total_ops_per_job(100)
    assert ops == 100 * (n_partials - 1)


@given(
    src=st.integers(0, 511),
    dst=st.integers(0, 511),
    n_bytes=st.integers(1, 1 << 20),
)
@settings(max_examples=50)
def test_route_properties(src, dst, n_bytes):
    """Routes are loop-free, symmetric in hop count, and HBM routes are longest."""
    topo = QuadrantTopology()
    route = topo.route(src, dst)
    assert len(set(route.links)) == len(route.links)  # no link repeated
    assert route.n_hops == topo.route(dst, src).n_hops
    assert route.serialization_cycles(n_bytes) == math.ceil(n_bytes / 64)
    if src != dst:
        assert route.n_hops >= 2
        assert route.n_hops <= topo.route_to_hbm(src).n_hops + topo.route_to_hbm(dst).n_hops


@given(n_bytes=st.integers(0, 1 << 22))
def test_hbm_service_cycles_monotonic(n_bytes):
    """HBM channel occupancy grows monotonically with the payload."""
    hbm = HBMSpec()
    assert hbm.service_cycles(n_bytes) <= hbm.service_cycles(n_bytes + 64)
    if n_bytes > 0:
        assert hbm.service_cycles(n_bytes) >= hbm.access_latency_cycles


@given(factors=st.lists(st.integers(1, 8), min_size=2, max_size=5))
def test_interconnect_from_factors_capacity(factors):
    """The topology hosts exactly the product of its quadrant factors."""
    spec = InterconnectSpec.from_factors(factors)
    expected = 1
    for factor in factors:
        expected *= factor
    assert spec.max_clusters == expected


# --------------------------------------------------------------------------- #
# Numerics invariants
# --------------------------------------------------------------------------- #
@given(
    channels=st.integers(1, 4),
    size=st.integers(3, 12),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
)
@settings(max_examples=30, deadline=None)
def test_im2col_shape_invariant(channels, size, kernel, stride):
    """im2col always produces (out_pixels, C*K*K) with finite values."""
    padding = kernel // 2
    ifm = np.random.default_rng(0).normal(size=(channels, size, size))
    cols = im2col(ifm, kernel, stride, padding)
    out = (size + 2 * padding - kernel) // stride + 1
    assert cols.shape == (out * out, channels * kernel * kernel)
    assert np.all(np.isfinite(cols))


@given(
    bits=st.integers(2, 10),
    values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=64),
)
def test_converter_error_bounded_by_half_step(bits, values):
    """With the default full scale (the peak magnitude), neither converter
    is ever off by more than half a quantisation step."""
    tensor = np.asarray(values)
    peak = np.abs(tensor).max()
    for converter in (DACSpec(bits=bits), ADCSpec(bits=bits)):
        out = converter.convert(tensor)
        step = peak / ((converter.n_levels - 1) // 2)
        assert np.all(np.abs(out - tensor) <= step / 2 + 1e-9)


def _peak_via_abs(values: np.ndarray) -> float:
    """The converters' former default full scale, with its ``abs`` temporary."""
    return float(np.max(np.abs(values)))


@given(
    values=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=24),
        elements=st.floats(),
    ),
)
@example(values=np.zeros(5))
@example(values=np.array([-0.0]))
@example(values=np.array([-0.0, 0.0, -0.0]))
@example(values=np.array([[np.inf, -1.0], [2.0, 3.0]]))
@example(values=np.array([-np.inf, 1.0]))
@example(values=np.array([1.0, np.nan, -2.0]))
@example(values=np.array([1.0, -np.nan]))
@example(values=np.full(40, np.nan))
@settings(max_examples=200, deadline=None)
def test_converter_full_scale_keeps_its_bits(values):
    """``max(x.max(), -x.min())`` gives the bits of ``max(abs(x))`` and so
    the same conversions, NaN, infinities and signed zeros included."""
    expected = _peak_via_abs(values)
    assert struct.pack("<d", _peak(values)) == struct.pack("<d", expected)
    dac = DACSpec(bits=6)
    with np.errstate(all="ignore"):  # infinities and NaN warn as they pass
        assert dac.convert(values).tobytes() == dac.convert(values, expected).tobytes()
        for adc in (ADCSpec(bits=8), ADCSpec(bits=8, noise_frac=0.05)):
            new = adc.convert(values, rng=np.random.default_rng(1))
            old = adc.convert(values, expected, rng=np.random.default_rng(1))
            assert new.tobytes() == old.tobytes()


@given(
    rows=st.integers(1, 96),
    cols=st.integers(1, 96),
    xbar=st.sampled_from([16, 32, 64]),
)
@settings(max_examples=25, deadline=None)
def test_tiled_matrix_equals_dense_matmul(rows, cols, xbar):
    """Row/column-split analog execution (ideal) equals the dense product."""
    rng = np.random.default_rng(rows * 1000 + cols)
    weights = rng.normal(size=(rows, cols))
    x = rng.normal(size=rows)
    tiled = TiledMatrix(weights, crossbar_rows=xbar, crossbar_cols=xbar,
                        noise=NoiseModel.ideal(), seed=0)
    assert tiled.n_crossbars == math.ceil(rows / xbar) * math.ceil(cols / xbar)
    assert np.allclose(tiled.mvm(x), x @ weights, atol=1e-8)


def _program_whole_stack(weights, cell, rng, ideal):
    """``StackedPCMArray.program`` spelled over the whole stack at once:
    the oracle its tile-by-tile kernel must reproduce bit for bit."""
    g_plus = np.abs(weights)
    max_abs = np.max(g_plus, axis=(-2, -1), keepdims=True)
    scale = np.where(max_abs > 0, max_abs, 1.0)
    np.divide(weights, scale, out=g_plus)
    g_minus = np.negative(g_plus)
    for g in (g_plus, g_minus):
        np.maximum(g, 0.0, out=g)
        g *= cell.g_range_us
        g += cell.g_min_us
    if not ideal:
        sigma = cell.programming_noise_frac * cell.g_max_us
        g_plus += rng.normal(0.0, sigma, size=weights.shape)
        g_minus += rng.normal(0.0, sigma, size=weights.shape)
    np.clip(g_plus, cell.g_min_us, cell.g_max_us, out=g_plus)
    np.clip(g_minus, cell.g_min_us, cell.g_max_us, out=g_minus)
    return g_plus, g_minus, scale


def _read_whole_stack(g_plus, g_minus, scale, cell, rng, time_s, read_noise):
    """``StackedPCMArray.effective_weights`` spelled over the whole stack."""
    if time_s is not None and time_s > cell.drift_t0_s:
        drift = (time_s / cell.drift_t0_s) ** (-cell.drift_nu)
        g_plus = g_plus * drift
        g_minus = g_minus * drift
    if read_noise:
        sigma = cell.read_noise_frac * cell.g_max_us
        g_plus = rng.normal(0.0, sigma, size=g_plus.shape) + g_plus
        g_minus = rng.normal(0.0, sigma, size=g_minus.shape) + g_minus
    return (g_plus - g_minus) / cell.g_range_us * scale


@given(
    stack=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    tile=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    zero_tile=st.booleans(),
    cell=st.sampled_from([
        PCMCellSpec(),
        PCMCellSpec(g_max_us=20.0, g_min_us=2.0, programming_noise_frac=0.1,
                    read_noise_frac=0.05),
    ]),
    ideal=st.booleans(),
    read_noise=st.booleans(),
    time_s=st.sampled_from([None, 10.0, 25.0, 3600.0]),
    into_dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(stack=(1, 1), tile=(4, 4), zero_tile=False, cell=PCMCellSpec(), ideal=False,
         read_noise=True, time_s=None, into_dense=True, seed=0)
@example(stack=(2, 3), tile=(5, 7), zero_tile=True, cell=PCMCellSpec(), ideal=False,
         read_noise=True, time_s=3600.0, into_dense=True, seed=1)
@settings(max_examples=60, deadline=None)
def test_stacked_pcm_tile_kernels_match_the_whole_stack(
    stack, tile, zero_tile, cell, ideal, read_noise, time_s, into_dense, seed
):
    """Programming and reading one tile at a time draws the same stream and
    computes the same bits as whole-stack arithmetic, including into a
    strided view of a dense operand and over two consecutive reads."""
    shape = stack + tile
    weights = np.random.default_rng(seed).normal(size=shape)
    if zero_tile:
        weights[-1, -1] = 0.0
    array = StackedPCMArray(stack, *tile, cell=cell, seed=seed)
    array.program(weights, ideal=ideal)
    rng = np.random.default_rng(seed)
    g_plus, g_minus, scale = _program_whole_stack(weights, cell, rng, ideal)
    assert array._g_plus.tobytes() == g_plus.tobytes()
    assert array._g_minus.tobytes() == g_minus.tobytes()
    assert array._target_scale.tobytes() == scale.tobytes()
    for _ in range(2):
        expected = _read_whole_stack(
            g_plus, g_minus, scale, cell, rng, time_s, read_noise
        )
        if into_dense:
            # the view TiledMatrix hands a read: one group's block, offset
            # inside a larger operand, in stacked tile order
            dense = np.full((stack[0] * tile[0] + 1, stack[1] * tile[1] + 2), np.nan)
            out = dense[1:, 2:].reshape(stack[0], tile[0], stack[1], tile[1])
            out = out.transpose(0, 2, 1, 3)
            assert array.effective_weights(time_s, read_noise, out=out) is out
            assert np.isnan(dense[0]).all() and np.isnan(dense[:, :2]).all()
            observed = out
        else:
            observed = array.effective_weights(time_s, read_noise)
        assert np.ascontiguousarray(observed).tobytes() == expected.tobytes()


@given(shape=st.tuples(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64)))
def test_tensor_shape_invariants(shape):
    """Byte counts and tiling helpers are consistent."""
    tensor = TensorShape(*shape)
    assert tensor.n_bytes(2) == 2 * tensor.n_elements
    assert TensorShape.from_hwc(tensor.hwc) == tensor
    tile = tensor.with_width(1)
    assert tile.n_elements == tensor.channels * tensor.height


# --------------------------------------------------------------------------- #
# Event-kernel invariants
# --------------------------------------------------------------------------- #
@given(durations=st.lists(st.integers(0, 50), min_size=1, max_size=30),
       capacity=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_server_conservation(durations, capacity):
    """A server serves every job exactly once."""
    engine = Engine()
    server = Server(engine, "s", capacity=capacity)
    finished = []
    for duration in durations:
        server.submit(duration, lambda d=duration: finished.append(d))
    engine.run()
    assert sorted(finished) == sorted(durations)
    # Makespan can never beat the ideal parallel bound.
    assert engine.now >= math.ceil(sum(durations) / capacity) - max(durations, default=0)


@given(delays=st.lists(st.integers(0, 1000), min_size=1, max_size=50))
def test_engine_time_is_monotonic(delays):
    """Simulated time only moves forward regardless of scheduling order."""
    engine = Engine()
    observed = []
    for delay in delays:
        engine.after(delay, lambda: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert engine.now == max(delays)
