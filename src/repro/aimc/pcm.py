"""Phase-Change Memory (PCM) device model.

The IMA stores DNN parameters as analog conductances of PCM cells placed at
the cross-points of the crossbar (Sec. II.2).  Real PCM devices suffer from
programming noise (the iterative write procedure lands near, not at, the
target conductance), read noise, and conductance drift over time; the paper
mentions these non-idealities as the reason analog-aware training exists but
does not quantify their accuracy impact.  We model them anyway so the
library can run functional (accuracy-oriented) experiments in addition to
the performance experiments the paper reports.

The default constants follow the published characterisation of doped-GST
PCM arrays used by IBM's HERMES-class prototypes: conductances in
``[0, g_max]`` with ``g_max`` around 25 microsiemens, programming noise of a
few percent of ``g_max`` and drift exponent around 0.03.

Random-draw contract.  Every array draws from its own generator, and only
in two places.  ``program`` (unless ``ideal``) draws the stream of
``normal(0.0, programming_noise_frac * g_max)`` for the whole g+ tensor,
then for the whole g- tensor.  A read with ``read_noise`` draws
``normal(0.0, read_noise_frac * g_max)`` in the same order; a
deterministic read draws nothing.  Each tensor's stream fills it in C
order: for :class:`StackedPCMArray` that is ``stack_shape + (rows,
cols)``.  The per-element arithmetic is fixed as well: programming is
``clip(max(±w / scale, 0) * g_range + g_min + n)`` and a read is ``((g+ *
d + n+) - (g- * d + n-)) / g_range * scale``, with ``d`` the drift factor
when drift applies.

:class:`PCMArray` spells this with whole-array calls and temporaries.
:class:`StackedPCMArray` works one ``(rows, cols)`` tile at a time, in
place: each tile's noise is drawn into one reusable tile buffer with
``standard_normal(out=)`` and scaled by sigma, which equals ``normal(0.0,
sigma)`` bit for bit; all of g+'s tiles are drawn before g-'s, which is
the stream one whole-tensor call draws; a noisy read writes each tile
straight into the caller's ``out``.  Its results equal the whole-tensor
spelling bit for bit, because IEEE addition commutes and neither the
draws nor the operation sequence move.  A stacked array touches only its
own generator and arrays, so arrays may be programmed and read on
different threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence]


@dataclass(frozen=True)
class PCMCellSpec:
    """Static characteristics of one PCM cell used as a programmable resistor."""

    #: maximum programmable conductance, in microsiemens.
    g_max_us: float = 25.0
    #: minimum programmable conductance, in microsiemens.
    g_min_us: float = 0.0
    #: standard deviation of programming error, as a fraction of g_max.
    programming_noise_frac: float = 0.02
    #: standard deviation of instantaneous read noise, as a fraction of g_max.
    read_noise_frac: float = 0.005
    #: conductance drift exponent (G(t) = G(t0) * (t/t0)^-nu).
    drift_nu: float = 0.03
    #: reference time after programming, in seconds, at which G is nominal.
    drift_t0_s: float = 25.0

    def __post_init__(self) -> None:
        if self.g_max_us <= self.g_min_us:
            raise ValueError("g_max must be greater than g_min")
        if self.programming_noise_frac < 0 or self.read_noise_frac < 0:
            raise ValueError("noise fractions cannot be negative")
        if self.drift_nu < 0:
            raise ValueError("drift exponent cannot be negative")
        if self.drift_t0_s <= 0:
            raise ValueError("drift reference time must be positive")

    @property
    def g_range_us(self) -> float:
        """Programmable conductance range in microsiemens."""
        return self.g_max_us - self.g_min_us


class PCMArray:
    """A 2D array of PCM conductance pairs encoding a signed weight matrix.

    Signed weights are stored differentially (``G_plus - G_minus``), the
    standard technique for bipolar weights on unipolar conductances.  The
    array supports noisy programming, read noise and conductance drift.

    Device-state cache: deterministic reads (no read noise; drift at a
    fixed time is deterministic) return a cached effective-weight matrix,
    exactly like :class:`StackedPCMArray` — the same invalidation rules
    apply (reprogramming, a different drift time; read-noise reads always
    bypass and never touch the cache).
    """

    #: sentinel marking the cache as empty (``None`` is a valid drift time).
    _NO_CACHE = object()

    def __init__(
        self,
        rows: int,
        cols: int,
        cell: Optional[PCMCellSpec] = None,
        seed: SeedLike = None,
    ):
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.cell = cell if cell is not None else PCMCellSpec()
        self._rng = np.random.default_rng(seed)
        self._g_plus = np.zeros((rows, cols))
        self._g_minus = np.zeros((rows, cols))
        self._target_scale = 1.0
        self._programmed = False
        self._cache_time = PCMArray._NO_CACHE
        self._cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Programming
    # ------------------------------------------------------------------ #
    def program(self, weights: np.ndarray, ideal: bool = False) -> None:
        """Program a signed weight matrix into differential conductances.

        The weight with the largest magnitude maps to ``g_max``; programming
        noise is added unless ``ideal`` is set.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.rows, self.cols):
            raise ValueError(
                f"weight matrix shape {weights.shape} does not match array "
                f"({self.rows}, {self.cols})"
            )
        max_abs = float(np.max(np.abs(weights)))
        self._target_scale = max_abs if max_abs > 0 else 1.0
        normalized = weights / self._target_scale  # in [-1, 1]
        g_range = self.cell.g_range_us
        g_plus = np.where(normalized > 0, normalized, 0.0) * g_range + self.cell.g_min_us
        g_minus = np.where(normalized < 0, -normalized, 0.0) * g_range + self.cell.g_min_us
        if not ideal:
            sigma = self.cell.programming_noise_frac * self.cell.g_max_us
            g_plus = g_plus + self._rng.normal(0.0, sigma, size=g_plus.shape)
            g_minus = g_minus + self._rng.normal(0.0, sigma, size=g_minus.shape)
        self._g_plus = np.clip(g_plus, self.cell.g_min_us, self.cell.g_max_us)
        self._g_minus = np.clip(g_minus, self.cell.g_min_us, self.cell.g_max_us)
        self._programmed = True
        self._cache_time = PCMArray._NO_CACHE
        self._cache = None

    @property
    def is_programmed(self) -> bool:
        """Whether the array has been programmed since construction."""
        return self._programmed

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def effective_weights(
        self, time_s: Optional[float] = None, read_noise: bool = False
    ) -> np.ndarray:
        """Signed weight matrix currently encoded by the conductances.

        ``time_s`` applies conductance drift relative to the programming
        reference time; ``read_noise`` adds per-read Gaussian noise.
        Deterministic reads are cached (callers must not mutate the
        returned matrix); read-noise reads bypass the cache and draw fresh
        noise every time.
        """
        if not self._programmed:
            raise RuntimeError("the PCM array has not been programmed")
        if not read_noise and self._cache_time is not PCMArray._NO_CACHE:
            if self._cache_time == time_s:
                return self._cache
        g_plus = self._g_plus
        g_minus = self._g_minus
        if time_s is not None and time_s > self.cell.drift_t0_s:
            drift = (time_s / self.cell.drift_t0_s) ** (-self.cell.drift_nu)
            g_plus = g_plus * drift
            g_minus = g_minus * drift
        if read_noise:
            sigma = self.cell.read_noise_frac * self.cell.g_max_us
            g_plus = g_plus + self._rng.normal(0.0, sigma, size=g_plus.shape)
            g_minus = g_minus + self._rng.normal(0.0, sigma, size=g_minus.shape)
        differential = (g_plus - g_minus) / self.cell.g_range_us
        weights = differential * self._target_scale
        if not read_noise:
            self._cache_time = time_s
            self._cache = weights
        return weights

    def programming_error(self, target_weights: np.ndarray) -> float:
        """RMS error between target and programmed weights (no drift/read noise)."""
        target = np.asarray(target_weights, dtype=float)
        actual = self.effective_weights()
        return float(np.sqrt(np.mean((target - actual) ** 2)))


class StackedPCMArray:
    """Differential PCM pairs for a stack of equally-shaped crossbar tiles.

    The vectorized execution engine programs every tile of one shape group
    into a single ``stack_shape + (rows, cols)`` conductance-pair tensor, so
    one einsum reads the whole group at once instead of looping over
    :class:`PCMArray` objects.  Each tile keeps its own weight-to-conductance
    scale (the per-tile ``max |w|`` normalisation the per-tile arrays use),
    stored broadcastable against the conductances.

    Unlike :class:`PCMArray`, the stacked array holds exactly the programmed
    slice — tiles are never zero-padded to the physical crossbar size, so
    memory scales with the actual weights.

    Device-state cache: when reads are deterministic (no read noise — drift
    at a fixed time is deterministic), :meth:`effective_weights` is computed
    once and cached.  The cache is invalidated by :meth:`program` and by a
    call with a different drift time; read-noise reads always bypass it.
    """

    __slots__ = (
        "stack_shape",
        "rows",
        "cols",
        "cell",
        "_rng",
        "_g_plus",
        "_g_minus",
        "_target_scale",
        "_programmed",
        "_cache_time",
        "_cache",
    )

    #: sentinel marking the cache as empty (``None`` is a valid drift time).
    _NO_CACHE = object()

    def __init__(
        self,
        stack_shape: Tuple[int, ...],
        rows: int,
        cols: int,
        cell: Optional[PCMCellSpec] = None,
        seed: SeedLike = None,
    ):
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        if any(n <= 0 for n in stack_shape):
            raise ValueError("stack dimensions must be positive")
        self.stack_shape = tuple(int(n) for n in stack_shape)
        self.rows = rows
        self.cols = cols
        self.cell = cell if cell is not None else PCMCellSpec()
        self._rng = np.random.default_rng(seed)
        self._g_plus: Optional[np.ndarray] = None
        self._g_minus: Optional[np.ndarray] = None
        self._target_scale: Optional[np.ndarray] = None
        self._programmed = False
        self._cache_time: object = self._NO_CACHE
        self._cache: Optional[np.ndarray] = None

    @property
    def full_shape(self) -> Tuple[int, ...]:
        """Shape of the stacked conductance tensor."""
        return self.stack_shape + (self.rows, self.cols)

    # ------------------------------------------------------------------ #
    # Programming
    # ------------------------------------------------------------------ #
    def program(self, weights: np.ndarray, ideal: bool = False) -> None:
        """Program every tile from a stacked signed weight tensor.

        ``weights`` has shape ``stack_shape + (rows, cols)``; each tile is
        normalised by its own largest magnitude, exactly as the per-tile
        :meth:`PCMArray.program` does.  The work runs one tile at a time,
        so its temporaries are one tile large.  Invalidates the
        device-state cache.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.full_shape:
            raise ValueError(
                f"stacked weight shape {weights.shape} does not match array "
                f"{self.full_shape}"
            )
        cell = self.cell
        g_plus = np.empty(self.full_shape)
        g_minus = np.empty(self.full_shape)
        scale = np.empty(self.stack_shape + (1, 1))
        noise = None if ideal else np.empty((self.rows, self.cols))
        sigma = cell.programming_noise_frac * cell.g_max_us

        def add_noise_and_clip(g: np.ndarray) -> None:
            if noise is not None:
                g += self._draw(noise, sigma)
            np.clip(g, cell.g_min_us, cell.g_max_us, out=g)

        # Tile by tile, in place, in the per-element sequence PCMArray.program
        # spells with temporaries: normalise, split into positive / negative
        # parts, scale, offset, add the programming noise, clip.  Every
        # tile's g+ noise is drawn before any g- noise.
        tiles = list(np.ndindex(self.stack_shape))
        for tile in tiles:
            plus, minus = g_plus[tile], g_minus[tile]
            np.abs(weights[tile], out=plus)
            max_abs = plus.max()
            scale[tile] = max_abs if max_abs > 0 else 1.0
            np.divide(weights[tile], scale[tile], out=plus)  # in [-1, 1]
            np.negative(plus, out=minus)
            for g in (plus, minus):
                np.maximum(g, 0.0, out=g)
                g *= cell.g_range_us
                g += cell.g_min_us
            add_noise_and_clip(plus)
        for tile in tiles:
            add_noise_and_clip(g_minus[tile])
        self._g_plus = g_plus
        self._g_minus = g_minus
        self._target_scale = scale
        self._programmed = True
        self._cache_time = self._NO_CACHE
        self._cache = None

    @property
    def is_programmed(self) -> bool:
        """Whether the stack has been programmed since construction."""
        return self._programmed

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def effective_weights(
        self,
        time_s: Optional[float] = None,
        read_noise: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked signed weights currently encoded by the conductances.

        Deterministic reads (``read_noise=False``) are served from the
        device-state cache when the drift time matches the cached one; the
        returned array is shared and must not be mutated by callers.

        ``out`` — any array (or strided view) of :attr:`full_shape` —
        receives the weights and is returned; such a read neither consults
        nor fills the cache.  :class:`~repro.aimc.crossbar.TiledMatrix`
        passes its GEMM operand's view of this stack, so a noisy read lands
        in the operand without an intermediate stacked tensor.
        """
        if not self._programmed:
            raise RuntimeError("the PCM array has not been programmed")
        cache = out is None and not read_noise
        if cache and self._cache_time is not self._NO_CACHE:
            if self._cache_time == time_s:
                return self._cache
        cell = self.cell
        drift = None
        if time_s is not None and time_s > cell.drift_t0_s:
            drift = (time_s / cell.drift_t0_s) ** (-cell.drift_nu)
        if read_noise:
            return self._noisy_read(drift, out)
        g_plus = self._g_plus
        g_minus = self._g_minus
        if drift is not None:
            g_plus = g_plus * drift
            g_minus = g_minus * drift
        differential = g_plus - g_minus
        differential /= cell.g_range_us
        weights = np.multiply(differential, self._target_scale, out=out)
        if cache:
            self._cache_time = time_s
            self._cache = weights
        return weights

    def _noisy_read(
        self, drift: Optional[float], out: Optional[np.ndarray]
    ) -> np.ndarray:
        """A read-noise read, one tile at a time, straight into ``out``.

        Each tile becomes ``((g+ * d + n+) - (g- * d + n-)) / g_range *
        scale`` (no ``* d`` without drift).  Every tile's ``n+`` is drawn
        before any ``n-``.  The sums are formed as ``g + n`` and ``n + g``
        where that saves a buffer; IEEE addition commutes, so the bits do
        not change.
        """
        cell = self.cell
        if out is None:
            out = np.empty(self.full_shape)
        sigma = cell.read_noise_frac * cell.g_max_us
        noise = np.empty((self.rows, self.cols))
        drifted = None if drift is None else np.empty((self.rows, self.cols))
        tiles = list(np.ndindex(self.stack_shape))
        for tile in tiles:
            weights = out[tile]
            self._draw(noise, sigma)
            if drift is None:
                np.add(self._g_plus[tile], noise, out=weights)
            else:
                np.multiply(self._g_plus[tile], drift, out=weights)
                weights += noise
        for tile in tiles:
            weights = out[tile]
            self._draw(noise, sigma)
            if drift is None:
                noise += self._g_minus[tile]
            else:
                noise += np.multiply(self._g_minus[tile], drift, out=drifted)
            weights -= noise
            weights /= cell.g_range_us
            weights *= self._target_scale[tile]
        return out

    def _draw(self, buffer: np.ndarray, sigma: float) -> np.ndarray:
        """Fill ``buffer`` with the next ``normal(0.0, sigma)`` draws.

        ``standard_normal(out=)`` times ``sigma`` equals ``normal(0.0,
        sigma)`` bit for bit, and filling the stream tile by tile in C
        order draws what one call over the whole stack would.
        """
        self._rng.standard_normal(out=buffer)
        buffer *= sigma
        return buffer
