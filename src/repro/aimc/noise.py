"""Aggregate non-ideality configuration for the analog crossbar model.

:class:`NoiseModel` gathers every knob that degrades the analog MVM fidelity
(PCM programming/read noise, drift, ADC/DAC resolution and ADC noise, IR
drop approximation) into one object with named convenience presets
(:data:`NOISE_PRESETS`):

* :meth:`NoiseModel.ideal` — a perfectly digital-equivalent crossbar, used
  by tests that check the tiled analog execution against the numpy
  reference bit-exactly (up to float tolerance);
* :meth:`NoiseModel.typical` — default non-idealities representative of
  published PCM compute cores;
* :meth:`NoiseModel.pessimistic` — exaggerated non-idealities for
  robustness studies;
* :meth:`NoiseModel.drifted` — the typical model read one hour after
  programming.  Its drift is deterministic, but it keeps the typical
  model's read noise, so every read draws noise and bypasses the
  vectorized device-state cache (see :attr:`NoiseModel.deterministic_read`).

Module contract (what the scenario subsystem relies on):

* ``NoiseModel`` and its nested specs are **frozen dataclasses of
  scalars** — picklable, hashable, and canonicalisable by
  :mod:`repro.scenarios.fingerprint`, so a resolved model participates
  directly in content-addressed cache keys.  Two spellings that resolve
  to the same model (a preset name vs an equivalent inline mapping)
  therefore share cached accuracy artifacts.
* :func:`resolve_noise_spec` is the single place spec-file noise values
  (preset names or inline field mappings) become models; scenario specs
  (:class:`repro.scenarios.spec.ExecutionSpec`) never construct models
  any other way.
* Nothing here is version-stamped: a change to a *preset's values*
  changes the resolved model and thus every key derived from it, which
  invalidates cleanly on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Callable, Dict, Mapping, Optional, Union

from .adc_dac import ADCSpec, DACSpec
from .pcm import PCMCellSpec


@dataclass(frozen=True)
class NoiseModel:
    """Complete non-ideality configuration of one analog crossbar."""

    cell: PCMCellSpec = field(default_factory=PCMCellSpec)
    dac: DACSpec = field(default_factory=DACSpec)
    adc: ADCSpec = field(default_factory=ADCSpec)
    #: apply programming noise when weights are written.
    programming_noise: bool = True
    #: apply per-read conductance noise.
    read_noise: bool = True
    #: apply DAC/ADC quantisation.
    converter_quantization: bool = True
    #: elapsed time since programming, used for drift (None disables drift).
    drift_time_s: Optional[float] = None
    #: multiplicative output attenuation approximating IR drop on long
    #: bit lines (1.0 = no attenuation).
    ir_drop_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ir_drop_factor <= 1.0:
            raise ValueError("ir_drop_factor must be in (0, 1]")
        if self.drift_time_s is not None and self.drift_time_s < 0:
            raise ValueError("drift_time_s cannot be negative")

    @property
    def deterministic_read(self) -> bool:
        """Whether repeated reads of the array return identical weights.

        ``NoiseModel`` is frozen, so the drift time is fixed for the life of
        the model and drift is deterministic; only per-read conductance
        noise varies between reads.  When this is true the vectorized
        engine computes effective weights once at program time and serves
        every MVM from that device-state cache (invalidated on reprogram).
        """
        return not self.read_noise

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def ideal(cls) -> "NoiseModel":
        """A noise-free, quantisation-free crossbar (digital equivalent)."""
        return cls(
            programming_noise=False,
            read_noise=False,
            converter_quantization=False,
            drift_time_s=None,
            ir_drop_factor=1.0,
        )

    @classmethod
    def typical(cls) -> "NoiseModel":
        """Default non-idealities of a PCM compute core."""
        return cls()

    @classmethod
    def pessimistic(cls) -> "NoiseModel":
        """Exaggerated non-idealities for robustness studies."""
        return cls(
            cell=PCMCellSpec(programming_noise_frac=0.06, read_noise_frac=0.02),
            adc=ADCSpec(bits=6, noise_frac=0.01),
            dac=DACSpec(bits=6),
            drift_time_s=3600.0,
            ir_drop_factor=0.97,
        )

    @classmethod
    def drifted(cls) -> "NoiseModel":
        """The typical model read one hour after programming.

        The drift time is fixed, so the drift itself is deterministic.  The
        model inherits ``read_noise=True`` from :meth:`typical`, though, so
        :attr:`deterministic_read` is false: every read draws fresh noise and
        bypasses the vectorized engine's device-state cache.
        """
        return cls().with_drift(3600.0)

    def with_drift(self, time_s: float) -> "NoiseModel":
        """Copy of this model evaluated ``time_s`` seconds after programming."""
        return replace(self, drift_time_s=time_s)


#: named noise presets accepted wherever a noise configuration is declared
#: as data (scenario ``execution`` blocks, spec files).
NOISE_PRESETS: Dict[str, Callable[[], NoiseModel]] = {
    "ideal": NoiseModel.ideal,
    "typical": NoiseModel.typical,
    "pessimistic": NoiseModel.pessimistic,
    "drift": NoiseModel.drifted,
}

#: scalar :class:`NoiseModel` fields an inline noise mapping may override.
#: The nested converter/cell specs are deliberately excluded — converter
#: resolutions are first-class ``ExecutionSpec`` axes, and cell physics
#: beyond the presets is out of declarative scope.
INLINE_NOISE_FIELDS = frozenset(
    f.name
    for f in dataclass_fields(NoiseModel)
    if f.name not in ("cell", "dac", "adc")
)


def resolve_noise_spec(spec: Union[str, Mapping, NoiseModel]) -> NoiseModel:
    """Resolve a declarative noise specification to a :class:`NoiseModel`.

    ``spec`` may be a model (returned as-is), a preset name from
    :data:`NOISE_PRESETS`, or a mapping of scalar model fields applied on
    top of a base preset (the optional ``"preset"`` key, default
    ``"typical"``)::

        resolve_noise_spec("pessimistic")
        resolve_noise_spec({"read_noise": False, "drift_time_s": 3600.0})
        resolve_noise_spec({"preset": "ideal", "ir_drop_factor": 0.99})

    Raises :class:`ValueError` on unknown presets or fields so spec files
    fail loudly at load time rather than silently running the default.
    """
    if isinstance(spec, NoiseModel):
        return spec
    if isinstance(spec, str):
        try:
            return NOISE_PRESETS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown noise preset {spec!r}; available: "
                f"{', '.join(sorted(NOISE_PRESETS))}"
            ) from None
    if isinstance(spec, Mapping):
        overrides = dict(spec)
        base = resolve_noise_spec(overrides.pop("preset", "typical"))
        unknown = set(overrides) - INLINE_NOISE_FIELDS
        if unknown:
            raise ValueError(
                f"unknown noise field(s) {', '.join(sorted(unknown))}; "
                f"inline noise accepts {', '.join(sorted(INLINE_NOISE_FIELDS))} "
                "plus an optional 'preset'"
            )
        return replace(base, **overrides)
    raise TypeError(
        f"noise spec must be a preset name, a field mapping or a NoiseModel, "
        f"not {type(spec).__name__}"
    )
