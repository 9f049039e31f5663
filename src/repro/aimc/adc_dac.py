"""Digital-to-analog and analog-to-digital converter models.

Every word line of the crossbar is driven by a DAC and every bit line is
read by an ADC (Fig. 1C).  Both converters quantise their signal to a fixed
number of bits, which bounds the numerical fidelity of the analog MVM
independently of the PCM cell quality.  The models here are simple uniform
quantisers with configurable clipping, matching the 8-bit converters the
paper assumes.

Both converters accept arbitrarily shaped arrays, so the vectorized
execution engine converts one whole layer batch per call instead of one
tile at a time; ``full_scale`` may be an array broadcastable against the
values for per-tile (or per-row) ranges.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

FullScale = Union[None, float, np.ndarray]


def _uniform_quantize(
    values: np.ndarray, full_scale: Union[float, np.ndarray], n_levels: int
) -> np.ndarray:
    """Symmetric uniform quantisation onto ``n_levels`` codes with clipping.

    ``full_scale`` may be a scalar or an array broadcastable against
    ``values``.  Where it is zero, or so small that its step underflows to
    zero, the values quantise to zero.
    """
    half_levels = (n_levels - 1) // 2
    scale = np.asarray(full_scale, dtype=float)
    if scale.ndim == 0:
        step = float(scale) / half_levels
        if step == 0.0:
            return np.zeros_like(values)
        # round → clip → rescale, computed in place on one fresh array: the
        # converters run once per layer batch on the vectorized hot path,
        # where the extra temporaries are measurable memory traffic.
        codes = values / step
        np.round(codes, out=codes)
        np.clip(codes, -half_levels, half_levels, out=codes)
        codes *= step
        return codes
    step = scale / half_levels
    live = step > 0
    step = np.where(live, step, 1.0)
    codes = values / step
    np.round(codes, out=codes)
    np.clip(codes, -half_levels, half_levels, out=codes)
    codes *= step
    return np.where(live, codes, 0.0)


def _peak(values: np.ndarray) -> float:
    """``max(abs(values))``, the converters' default full scale, without a
    temporary as large as ``values``.

    The same bits for every input, NaN, infinities and signed zeros
    included: the outer ``abs`` clears the sign that ``-values.min()`` can
    leave on a zero or a NaN, as the elementwise ``abs`` did.
    """
    return abs(float(np.maximum(values.max(), -values.min())))


def _check_bits(converter: str, bits: object) -> None:
    """Reject a converter resolution that is not an integer in 2..16."""
    if isinstance(bits, bool) or not isinstance(bits, numbers.Integral):
        raise ValueError(f"{converter} bits must be an integer, got {bits!r}")
    if not 2 <= bits <= 16:
        raise ValueError(f"{converter} bits must be in 2..16, got {bits}")


@dataclass(frozen=True)
class DACSpec:
    """Uniform digital-to-analog converter."""

    bits: int = 8

    def __post_init__(self) -> None:
        _check_bits("DAC", self.bits)

    @property
    def n_levels(self) -> int:
        """Number of representable input levels (symmetric, including zero)."""
        return (1 << self.bits) - 1

    def convert(self, values: np.ndarray, full_scale: FullScale = None) -> np.ndarray:
        """Quantise digital input values onto the DAC grid.

        ``full_scale`` defaults to the maximum absolute value of the input;
        values outside the full-scale range are clipped.  An array full
        scale (broadcastable against ``values``) quantises each slice onto
        its own grid, as the per-tile DACs of the reference backend do.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return values
        if full_scale is None:
            full_scale = _peak(values)
        return _uniform_quantize(values, full_scale, self.n_levels)


@dataclass(frozen=True)
class ADCSpec:
    """Uniform analog-to-digital converter with optional thermal noise."""

    bits: int = 8
    #: input-referred noise, as a fraction of the full-scale range.
    noise_frac: float = 0.0

    def __post_init__(self) -> None:
        _check_bits("ADC", self.bits)
        if self.noise_frac < 0:
            raise ValueError("ADC noise fraction cannot be negative")

    @property
    def n_levels(self) -> int:
        """Number of representable output codes (symmetric, including zero)."""
        return (1 << self.bits) - 1

    def convert(
        self,
        values: np.ndarray,
        full_scale: FullScale = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Quantise analog bit-line outputs onto the ADC grid."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return values
        if full_scale is None:
            full_scale = _peak(values)
        if self.noise_frac > 0:
            generator = rng if rng is not None else np.random.default_rng()
            values = values + generator.normal(0.0, 1.0, size=values.shape) * (
                self.noise_frac * np.asarray(full_scale, dtype=float)
            )
        return _uniform_quantize(values, full_scale, self.n_levels)
