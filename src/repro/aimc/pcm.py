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
in two places.  ``program`` (unless ``ideal``) makes two calls
``normal(0.0, programming_noise_frac * g_max, size=...)`` over the whole
conductance tensor, g+'s noise first, then g-'s.  A read with
``read_noise`` makes two calls ``normal(0.0, read_noise_frac * g_max,
size=...)`` in the same order; a deterministic read draws nothing.  Each
call fills its tensor in C order: for :class:`StackedPCMArray` that is
``stack_shape + (rows, cols)``.  The per-element arithmetic is fixed as
well: programming is ``clip(max(±w / scale, 0) * g_range + g_min + n)``
and a read is ``((g+ * d + n+) - (g- * d + n-)) / g_range * scale``, with
``d`` the drift factor when drift applies.  :class:`StackedPCMArray`
computes these in place, on preallocated or caller-supplied arrays.  Its
results equal the temporaries-based spelling bit for bit, because IEEE
addition commutes and neither the draws nor the operation sequence move.
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
        """Program all tiles at once from a stacked signed weight tensor.

        ``weights`` has shape ``stack_shape + (rows, cols)``; each tile is
        normalised by its own largest magnitude, exactly as the per-tile
        :meth:`PCMArray.program` does.  Invalidates the device-state cache.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.full_shape:
            raise ValueError(
                f"stacked weight shape {weights.shape} does not match array "
                f"{self.full_shape}"
            )
        cell = self.cell
        # g+ and g- are built in place, on two preallocated tensors, in the
        # per-element sequence PCMArray.program spells with temporaries:
        # normalise, split into positive / negative parts, scale, offset,
        # add the programming noise, clip.
        g_plus = np.abs(weights, out=np.empty(self.full_shape))
        max_abs = np.max(g_plus, axis=(-2, -1), keepdims=True)
        self._target_scale = np.where(max_abs > 0, max_abs, 1.0)
        np.divide(weights, self._target_scale, out=g_plus)  # in [-1, 1] per tile
        g_minus = np.negative(g_plus)
        for g in (g_plus, g_minus):
            np.maximum(g, 0.0, out=g)
            g *= cell.g_range_us
            g += cell.g_min_us
        if not ideal:
            sigma = cell.programming_noise_frac * cell.g_max_us
            g_plus += self._rng.normal(0.0, sigma, size=self.full_shape)
            g_minus += self._rng.normal(0.0, sigma, size=self.full_shape)
        self._g_plus = np.clip(g_plus, cell.g_min_us, cell.g_max_us, out=g_plus)
        self._g_minus = np.clip(g_minus, cell.g_min_us, cell.g_max_us, out=g_minus)
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
        g_plus = self._g_plus
        g_minus = self._g_minus
        if time_s is not None and time_s > cell.drift_t0_s:
            drift = (time_s / cell.drift_t0_s) ** (-cell.drift_nu)
            g_plus = g_plus * drift
            g_minus = g_minus * drift
        if read_noise:
            # the noise tensor takes the sum: IEEE addition commutes, so
            # ``n + g`` is ``g + n`` bit for bit
            sigma = cell.read_noise_frac * cell.g_max_us
            noisy_plus = self._rng.normal(0.0, sigma, size=self.full_shape)
            noisy_plus += g_plus
            noisy_minus = self._rng.normal(0.0, sigma, size=self.full_shape)
            noisy_minus += g_minus
            differential = np.subtract(noisy_plus, noisy_minus, out=noisy_plus)
        else:
            differential = g_plus - g_minus
        differential /= cell.g_range_us
        weights = np.multiply(differential, self._target_scale, out=out)
        if cache:
            self._cache_time = time_s
            self._cache = weights
        return weights
