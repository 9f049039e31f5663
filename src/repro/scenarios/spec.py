"""Declarative experiment specifications.

A :class:`Scenario` describes one end-to-end experiment — which network, on
which architecture design point, at which batch size and mapping level,
with which simulator options — as plain data.  Because a scenario is data
(no live ``Graph`` or ``ArchConfig`` objects), it can be fingerprinted for
the artifact cache, pickled to worker processes, loaded from a TOML/JSON
spec file and expanded from sweep grids.

:class:`ScenarioGrid` expands cartesian sweeps ("crossbar size x cluster
count x batch size") into explicit scenario lists, which is how the paper's
design-space studies (Sec. VI) and the Fig. 5 optimisation ladder are
expressed.  :func:`load_spec` reads either format::

    name = "dse"                    # TOML (JSON uses the same structure)

    [base]
    model = "resnet18"
    input_shape = [3, 256, 256]
    level = "final"

    [axes]
    crossbar_size = [128, 256, 512]
    n_clusters = [64, 256]
    batch_size = [1, 16]

An optional ``execution`` block (:class:`ExecutionSpec`) makes the analog
functional path a scenario dimension: which execution backend evaluates
the network numerically (digital reference, vectorized analog, per-tile
analog reference loop), under which named or inline
:class:`~repro.aimc.noise.NoiseModel`, at which DAC/ADC resolutions.  A
scenario with an execution block additionally runs the accuracy stage
(:func:`repro.scenarios.pipeline.accuracy_stage`); ``execution`` is also a
sweep axis, so accuracy/performance trade-off grids (noise preset x
converter resolution x architecture scale) expand like any other sweep.
See ``docs/scenario-spec.md`` for the full field reference.

Module contract: every spec type here is a **frozen dataclass of plain
data** — hashable where field types allow, picklable, JSON-renderable via
``as_dict()``, and canonicalisable by :mod:`repro.scenarios.fingerprint`.
Specs carry no live objects (graphs and architectures are *built* from
them), which is what lets a scenario cross process boundaries and key the
artifact cache.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..aimc.crossbar import BACKENDS as ANALOG_BACKENDS
from ..aimc.noise import NOISE_PRESETS, NoiseModel, resolve_noise_spec
from ..arch.config import ArchConfig
from ..core.optimizer import OptimizationLevel
from ..core.policies import (
    MappingPolicy,
    PolicyError,
    available_policies,
    resolve_policy,
)
from ..dnn import models as model_zoo
from ..dnn.graph import Graph
from ..sim.system import DEFAULT_ENGINE, check_engine
from ..sim.workload import (
    ARRIVAL_PROCESSES,
    ArrivalError,
    TraceArrivals,
    load_arrival_trace,
    resolve_arrivals,
)


class SpecError(ValueError):
    """Raised on invalid scenario specifications."""


def _integer(
    field: str, value: object, minimum: int, maximum: Optional[int] = None
) -> int:
    """The one integer rule of every spec field: a non-bool
    ``numbers.Integral`` (numpy integers included) in ``minimum..maximum``,
    returned as ``int``; anything else is a :class:`SpecError` naming the
    field and the value.  Without a ``maximum``, ``minimum`` is 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(f"{field} must be an integer, got {value!r}")
    value = int(value)
    if maximum is not None and not minimum <= value <= maximum:
        raise SpecError(f"{field} must be in {minimum}..{maximum}, got {value}")
    if value < minimum:
        bound = "positive" if minimum == 1 else "non-negative"
        raise SpecError(f"{field} must be {bound}, got {value}")
    return value


def _freeze_table(
    field: str, value: object, spelling: str
) -> Union[str, Tuple[Tuple[str, object], ...]]:
    """The one table rule of every structured spec field: a name stays a
    string, a mapping or its ``(key, value)`` pairs become sorted pairs (so
    the spec stays hashable and equal spellings compare equal), and
    anything else is a :class:`SpecError` saying the field must be
    ``spelling``."""
    if isinstance(value, str):
        return value
    pairs = value.items() if isinstance(value, Mapping) else value
    try:
        return tuple(sorted((str(key), item) for key, item in pairs))
    except (TypeError, ValueError):
        raise SpecError(
            f"{field} must be {spelling}, not {type(value).__name__}"
        ) from None


def _inline_table(key: str, name: str, instance: object) -> Dict[str, object]:
    """A registered dataclass instance spelled as the table resolving to it."""
    fields = dataclasses.fields(instance)
    return {key: name, **{f.name: getattr(instance, f.name) for f in fields}}


#: the paper's Table I system, the single source of the architecture
#: defaults below — deriving them here (rather than repeating literals)
#: guarantees a Table I change can never desynchronise scenario labels
#: from the architectures scenarios actually build.
_PAPER_ARCH = ArchConfig.paper()

#: cluster count a ``n_clusters=None`` scenario resolves to.
PAPER_N_CLUSTERS = _PAPER_ARCH.n_clusters

#: fields of :class:`ArchConfig.scaled` that scenarios may set.  When every
#: one keeps its default the scenario targets the paper's Table I system.
_PAPER_DEFAULTS = {
    "n_clusters": None,
    "crossbar_size": _PAPER_ARCH.ima.rows,
    "cores_per_cluster": _PAPER_ARCH.cores.n_cores,
}


#: valid values of :attr:`ExecutionSpec.backend`: the digital floating-point
#: reference plus the two analog engines of :mod:`repro.aimc.crossbar`.
EXECUTION_BACKENDS = ("digital",) + ANALOG_BACKENDS


@dataclass(frozen=True)
class ExecutionSpec:
    """How a scenario's network is evaluated *numerically* (the accuracy axis).

    The performance stages (mapping, lowering, event-driven simulation)
    never execute the network's arithmetic; this block declares a
    functional execution of the same graph through
    :class:`~repro.aimc.crossbar.AnalogExecutor` (or the digital
    :class:`~repro.dnn.numerics.ReferenceExecutor`) so accuracy metrics
    ride the same sweep as timing metrics.

    Everything is plain data: ``noise`` is a preset name from
    :data:`~repro.aimc.noise.NOISE_PRESETS` or an inline field mapping
    (normalised to a sorted tuple of pairs so the spec stays hashable);
    the resolved :class:`~repro.aimc.noise.NoiseModel` is available as
    :attr:`noise_model`.  ``dac_bits``/``adc_bits`` override the resolved
    model's converter resolutions, making converter precision a first-class
    sweep axis.
    """

    backend: str = "vectorized"
    noise: Union[str, Tuple[Tuple[str, object], ...]] = "typical"
    #: DAC/ADC resolution overrides (None keeps the noise model's value).
    dac_bits: Optional[int] = None
    adc_bits: Optional[int] = None
    #: seed of the deterministic parameter/input generation and of every
    #: stochastic analog effect — accuracy results are pure functions of
    #: the spec, which is what makes them cacheable.
    seed: int = 0
    #: number of deterministic input images evaluated; top-1 agreement is
    #: the fraction of them whose argmax matches the digital reference.
    n_inputs: int = 1

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            raise SpecError(
                f"unknown execution backend {self.backend!r}; expected one of "
                f"{', '.join(EXECUTION_BACKENDS)}"
            )
        if isinstance(self.noise, NoiseModel):
            # specs stay declarative plain data; a resolved model has no
            # lossless inline spelling (nested cell/converter specs)
            raise SpecError(
                "noise must be a preset name or an inline field mapping, "
                "not a NoiseModel — spell the configuration as data, "
                'e.g. {"preset": "typical", "drift_time_s": 3600.0}'
            )
        noise = _freeze_table("noise", self.noise, "a preset name or a field mapping")
        object.__setattr__(self, "noise", noise)
        for name in ("dac_bits", "adc_bits"):
            bits = getattr(self, name)
            if bits is not None:
                object.__setattr__(self, name, _integer(name, bits, 2, 16))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        object.__setattr__(self, "n_inputs", _integer("n_inputs", self.n_inputs, 1))
        try:
            self.noise_model  # resolve once so bad specs fail at load time
        except (TypeError, ValueError) as error:
            raise SpecError(str(error)) from None

    @classmethod
    def coerce(cls, value: object) -> "ExecutionSpec":
        """Build a spec from the forms spec files use.

        Accepts an existing spec, a bare noise-preset name (``"ideal"``,
        the common sweep-axis shorthand), or a field mapping whose
        ``noise`` entry may itself be a preset name or an inline table.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(noise=value)
        if isinstance(value, Mapping):
            unknown = set(value) - _EXECUTION_FIELDS
            if unknown:
                raise SpecError(
                    f"unknown execution field(s): {', '.join(sorted(unknown))}; "
                    f"expected {', '.join(sorted(_EXECUTION_FIELDS))}"
                )
            return cls(**value)
        raise SpecError(
            f"execution must be a table, a noise-preset name or an "
            f"ExecutionSpec, not {type(value).__name__}"
        )

    # ------------------------------------------------------------------ #
    @property
    def noise_model(self) -> NoiseModel:
        """The resolved noise model, converter overrides applied.

        Two spellings that resolve to the same model (preset name vs an
        equivalent inline mapping) produce equal models — and therefore
        share cached accuracy artifacts, because the cache keys hash this
        resolved model, never the spelling.
        """
        spec = self.noise if isinstance(self.noise, str) else dict(self.noise)
        model = resolve_noise_spec(spec)
        if self.dac_bits is not None:
            model = dataclasses.replace(
                model, dac=dataclasses.replace(model.dac, bits=self.dac_bits)
            )
        if self.adc_bits is not None:
            model = dataclasses.replace(
                model, adc=dataclasses.replace(model.adc, bits=self.adc_bits)
            )
        return model

    @property
    def noise_label(self) -> str:
        """Display name of the noise configuration.

        Derived from the *resolved* model, never the spelling: an inline
        mapping equivalent to a preset labels as that preset (``inline``
        otherwise).  Cached :class:`~repro.scenarios.pipeline.
        AccuracyRecord` objects carry this label, and cache keys hash the
        resolved model — a spelling-dependent label would let a record
        built under one spelling be served, mislabelled, to an equivalent
        spelling.
        """
        if isinstance(self.noise, str):
            return self.noise
        model = resolve_noise_spec(dict(self.noise))
        for name, factory in NOISE_PRESETS.items():
            if factory() == model:
                return name
        return "inline"

    @property
    def label(self) -> str:
        """Short identifier used inside scenario labels."""
        parts = [self.backend, self.noise_label]
        if self.dac_bits is not None or self.adc_bits is not None:
            parts.append(f"d{self.dac_bits or '-'}a{self.adc_bits or '-'}")
        return ":".join(parts)

    def as_dict(self) -> Dict[str, object]:
        """Plain-data rendering (JSON-safe) of the spec."""
        payload = dataclasses.asdict(self)
        payload["noise"] = (
            self.noise if isinstance(self.noise, str) else dict(self.noise)
        )
        return payload


_EXECUTION_FIELDS = {f.name for f in dataclasses.fields(ExecutionSpec)}

#: integer fields of :class:`Scenario` and their minimum (``None`` is also
#: valid for ``num_classes`` and ``n_clusters``: the model's, the paper's).
_SCENARIO_INTEGERS = {
    "num_classes": 1,
    "batch_size": 1,
    "n_clusters": 1,
    "crossbar_size": 1,
    "cores_per_cluster": 1,
    "reserve_clusters": 0,
    "max_replication": 1,
    "buffer_depth": 1,
}


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment point.

    Everything is plain data so the spec can be hashed, pickled and written
    to disk.  ``model`` names a builder in :mod:`repro.dnn.models`;
    architecture fields follow :meth:`ArchConfig.scaled` with ``None``
    cluster count (and default crossbar/cores) meaning the paper's Table I
    configuration.
    """

    model: str = "resnet18"
    input_shape: Tuple[int, int, int] = (3, 224, 224)
    num_classes: Optional[int] = None
    batch_size: int = 16
    #: name of the mapping policy (the paper ladder levels are policies
    #: too, so any registered name is accepted).  Ignored when ``mapping``
    #: is set; kept as the stable historical spelling of the ladder.
    level: str = OptimizationLevel.FINAL.value
    #: full mapping-policy spec: a registered policy name, or a mapping
    #: with a ``policy`` key naming the policy plus its parameters, e.g.
    #: ``{"policy": "schedule", "path": "sched.toml"}`` (normalised to a
    #: sorted tuple of pairs so the spec stays hashable).  ``None`` falls
    #: back to ``level``.
    mapping: Optional[Union[str, Tuple[Tuple[str, object], ...]]] = None
    # -- architecture axes (ArchConfig.scaled) -------------------------- #
    n_clusters: Optional[int] = None
    crossbar_size: int = _PAPER_DEFAULTS["crossbar_size"]
    cores_per_cluster: int = _PAPER_DEFAULTS["cores_per_cluster"]
    # -- mapping-optimizer knobs ---------------------------------------- #
    reserve_clusters: int = 4
    max_replication: int = 64
    # -- simulator options ----------------------------------------------- #
    model_contention: bool = True
    buffer_depth: int = 2
    #: when True the simulation stage may use the steady-state fast-forward
    #: (:mod:`repro.sim.steady_state`): periodic runs are cut short and
    #: extrapolated exactly, non-periodic ones run as the full event-driven
    #: simulation.  Results are bit-identical either way; the
    #: flag is still part of the simulation cache key because the record
    #: carries the ``fast_forwarded`` provenance marker.
    fast_forward: bool = False
    #: which event-kernel implementation runs the simulation stage:
    #: ``"table"`` (the compiled state-machine lane, default) or
    #: ``"python"`` (the object kernel, the readable reference); any other
    #: value is a :class:`SpecError`.  The two are bit-identical, so this
    #: is a performance axis; it is still part of the simulation cache key
    #: so a sweep that pins it never reuses another kernel's artifacts
    #: (which would mask any divergence the equivalence suite is meant to
    #: catch).
    engine: str = DEFAULT_ENGINE
    # -- serving axis: open-system arrival process ------------------------- #
    #: arrival-process spec making the scenario an open-system serving run:
    #: a mapping with a ``process`` key naming a registered kind from
    #: :data:`~repro.sim.workload.ARRIVAL_PROCESSES` plus its parameters
    #: (normalised to a sorted tuple of pairs so the spec stays hashable),
    #: or a string path to an SWF-style arrival trace file.  ``None`` keeps
    #: the scenario a closed batch.  The simulation stage resolves the spec,
    #: generates the per-job arrival schedule and keys the cache on the
    #: *resolved* cycle tuple — two spellings that generate the same
    #: schedule share artifacts, and a trace file edit is never masked by
    #: its unchanged path.
    arrivals: Optional[Union[str, Tuple[Tuple[str, object], ...]]] = None
    # -- accuracy axis: functional execution of the network ---------------- #
    #: when set, the scenario additionally runs the accuracy stage
    #: (functional execution vs the digital reference) with this backend/
    #: noise/converter configuration; ``None`` keeps the scenario
    #: performance-only.  Accepts an :class:`ExecutionSpec`, a mapping of
    #: its fields, or a bare noise-preset name.
    execution: Optional[ExecutionSpec] = None
    # -- optional display name -------------------------------------------- #
    name: Optional[str] = None

    def __post_init__(self) -> None:
        # the one place a field is checked: a bad value fails here, naming
        # the field, before anything is built or run
        if self.model not in model_zoo.__all__:
            raise SpecError(
                f"unknown model {self.model!r}; available: "
                f"{', '.join(model_zoo.__all__)}"
            )
        if self.name is not None and not isinstance(self.name, str):
            raise SpecError(f"name must be a string, got {self.name!r}")
        if self.level not in available_policies():
            # enumerate the live registry, not a hard-coded list: plug-in
            # policies are first-class `level` values
            valid = ", ".join(available_policies())
            raise SpecError(
                f"unknown optimisation level {self.level!r}; registered "
                f"mapping policies: {valid}"
            ) from None
        dims = tuple(self.input_shape) if isinstance(self.input_shape, Iterable) else ()
        if len(dims) != 3:
            raise SpecError(
                f"input_shape must be (channels, height, width), got {self.input_shape!r}"
            )
        shape = tuple(_integer(f"input_shape[{i}]", d, 1) for i, d in enumerate(dims))
        object.__setattr__(self, "input_shape", shape)
        for name, minimum in _SCENARIO_INTEGERS.items():
            value = getattr(self, name)
            if value is not None or name not in ("num_classes", "n_clusters"):
                object.__setattr__(self, name, _integer(name, value, minimum))
        for name in ("model_contention", "fast_forward"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise SpecError(f"{name} must be a bool, got {flag!r}")
        try:
            check_engine(self.engine)
        except ValueError as error:
            raise SpecError(str(error)) from None
        mapping = self.mapping
        if isinstance(mapping, MappingPolicy):
            mapping = _inline_table("policy", type(mapping).name, mapping)
        if mapping is not None:
            mapping = _freeze_table(
                "mapping", mapping, "a policy name or a {'policy': name, ...} table"
            )
            object.__setattr__(self, "mapping", mapping)
        try:
            policy = self.mapping_policy
        except PolicyError as error:
            raise SpecError(str(error)) from None
        # cache the display label: recomputing it would re-read schedule
        # files on every table/log line
        object.__setattr__(self, "_policy_label", policy.label)
        if self.arrivals is not None:
            arrivals = self.arrivals
            if isinstance(arrivals, TraceArrivals):
                arrivals = arrivals.path
            elif dataclasses.is_dataclass(arrivals) and hasattr(arrivals, "generate"):
                names = {cls: name for name, cls in ARRIVAL_PROCESSES.items()}
                if type(arrivals) not in names:
                    raise SpecError(
                        f"arrivals process {type(arrivals).__name__} is not "
                        f"registered in ARRIVAL_PROCESSES; spell the "
                        f"configuration as data"
                    )
                arrivals = _inline_table("process", names[type(arrivals)], arrivals)
            elif isinstance(arrivals, Path):
                arrivals = str(arrivals)
            arrivals = _freeze_table(
                "arrivals", arrivals, "a trace path or a {'process': name, ...} table"
            )
            object.__setattr__(self, "arrivals", arrivals)
            try:
                process = resolve_arrivals(self.arrivals)
                if isinstance(process, TraceArrivals):
                    # resolve the trace eagerly (like schedule files) so a
                    # missing or malformed trace fails at load time
                    load_arrival_trace(process.path)
            except ArrivalError as error:
                raise SpecError(str(error)) from None
            label = (
                f"trace:{Path(process.path).stem}"
                if isinstance(process, TraceArrivals)
                else dict(self.arrivals)["process"]
            )
            object.__setattr__(self, "_arrivals_label", str(label))
        if self.execution is not None:
            object.__setattr__(self, "execution", ExecutionSpec.coerce(self.execution))

    # ------------------------------------------------------------------ #
    # Resolution to live objects
    # ------------------------------------------------------------------ #
    @property
    def level_enum(self) -> OptimizationLevel:
        """The mapping level as the optimizer's enum.

        Only meaningful for the ladder levels; scenarios pinned to a
        non-ladder policy (via ``mapping`` or a policy-valued ``level``)
        raise :class:`ValueError` — use :attr:`mapping_policy` instead.
        """
        return OptimizationLevel(self.level)

    @property
    def mapping_policy(self) -> MappingPolicy:
        """The resolved mapping policy (``mapping`` block, else ``level``)."""
        spec = self.mapping if self.mapping is not None else self.level
        return resolve_policy(spec)

    @property
    def policy_label(self) -> str:
        """Display label of the resolved mapping policy."""
        return self._policy_label

    @property
    def targets_paper_arch(self) -> bool:
        """Whether every architecture axis keeps the paper's Table I value."""
        return all(
            getattr(self, name) == value for name, value in _PAPER_DEFAULTS.items()
        )

    def build_graph(self) -> Graph:
        """Instantiate the DNN graph this scenario targets."""
        builder = getattr(model_zoo, self.model)
        kwargs: Dict[str, object] = {"input_shape": self.input_shape}
        if self.num_classes is not None:
            kwargs["num_classes"] = self.num_classes
        return builder(**kwargs)

    @property
    def resolved_n_clusters(self) -> int:
        """The cluster count this scenario builds (``None`` -> the paper's)."""
        return self.n_clusters if self.n_clusters is not None else PAPER_N_CLUSTERS

    def build_arch(self) -> ArchConfig:
        """Instantiate the architecture design point this scenario targets."""
        if self.targets_paper_arch:
            return ArchConfig.paper()
        return ArchConfig.scaled(
            n_clusters=self.resolved_n_clusters,
            crossbar_size=self.crossbar_size,
            cores_per_cluster=self.cores_per_cluster,
        )

    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """Short human-readable identifier used in tables and logs."""
        if self.name:
            return self.name
        policy = self.level if self.mapping is None else self.policy_label
        label = (
            f"{self.model}/{policy}"
            f"/x{self.crossbar_size}/c{self.resolved_n_clusters}/b{self.batch_size}"
        )
        if self.arrivals is not None:
            label += f"/arr:{self.arrivals_label}"
        if self.execution is not None:
            label += f"/{self.execution.label}"
        return label

    @property
    def arrivals_label(self) -> str:
        """Display name of the arrival process (``""`` on closed batches)."""
        return getattr(self, "_arrivals_label", "")

    def replace(self, **changes: object) -> "Scenario":
        """A copy of this scenario with some fields changed."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        """Plain-data rendering (JSON-safe) of the spec."""
        payload = dataclasses.asdict(self)
        payload["input_shape"] = list(self.input_shape)
        payload["execution"] = (
            self.execution.as_dict() if self.execution is not None else None
        )
        if self.mapping is not None and not isinstance(self.mapping, str):
            payload["mapping"] = dict(self.mapping)
        if self.arrivals is not None and not isinstance(self.arrivals, str):
            payload["arrivals"] = dict(self.arrivals)
        return payload


_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)}


@dataclass(frozen=True)
class ScenarioGrid:
    """A cartesian sweep: a base scenario plus per-field value axes.

    Expansion order is deterministic: axes vary in their declaration order,
    with the last axis varying fastest (like nested ``for`` loops).  Each
    axis value goes through the :class:`Scenario` constructor when the grid
    is built, and is stored as that constructor normalises it.
    """

    base: Scenario = field(default_factory=Scenario)
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    name: str = "sweep"

    def __post_init__(self) -> None:
        normalized = []
        for axis, values in self.axes.items() if isinstance(self.axes, Mapping) else self.axes:
            if axis not in _SCENARIO_FIELDS:
                raise SpecError(
                    f"unknown sweep axis {axis!r}; scenario fields are "
                    f"{', '.join(sorted(_SCENARIO_FIELDS))}"
                )
            values = tuple(values)
            if not values:
                raise SpecError(f"sweep axis {axis!r} has no values")
            # check each value by the scenario's own rules, so a bad one
            # fails when the grid is built, not mid-sweep at expand()
            values = tuple(getattr(self.base.replace(**{axis: v}), axis) for v in values)
            normalized.append((axis, values))
        object.__setattr__(self, "axes", tuple(normalized))

    @classmethod
    def from_axes(
        cls,
        base: Optional[Scenario] = None,
        name: str = "sweep",
        **axes: Sequence[object],
    ) -> "ScenarioGrid":
        """Grid from keyword axes: ``ScenarioGrid.from_axes(batch_size=[1, 16])``."""
        return cls(base=base if base is not None else Scenario(), axes=axes, name=name)

    def __len__(self) -> int:
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    def expand(self) -> List[Scenario]:
        """The explicit scenario list of the cartesian sweep."""
        if not self.axes:
            return [self.base]
        names = [axis for axis, _ in self.axes]
        scenarios = []
        for point in itertools.product(*(values for _, values in self.axes)):
            scenarios.append(self.base.replace(**dict(zip(names, point))))
        return scenarios


# --------------------------------------------------------------------------- #
# Spec files
# --------------------------------------------------------------------------- #
def parse_spec(payload: Mapping[str, object], name: str = "sweep") -> ScenarioGrid:
    """Build a grid from the parsed TOML/JSON structure."""
    if not isinstance(payload, Mapping):
        raise SpecError("spec must be a table/object with [base] and [axes]")
    unknown = set(payload) - {"name", "base", "axes"}
    if unknown:
        # a misspelled [axes] would otherwise silently run a 1-point sweep
        raise SpecError(
            f"unknown spec section(s): {', '.join(sorted(map(str, unknown)))} "
            "(expected name, [base], [axes])"
        )
    base = payload.get("base", {})
    if not isinstance(base, Mapping):
        raise SpecError("[base] must map scenario fields to values")
    unknown = set(base) - _SCENARIO_FIELDS
    if unknown:
        raise SpecError(f"unknown scenario field(s) in [base]: {', '.join(sorted(unknown))}")
    axes = payload.get("axes", {})
    if not isinstance(axes, Mapping):
        raise SpecError("[axes] must map scenario fields to value lists")
    for axis, values in axes.items():
        if not isinstance(values, (list, tuple)):
            raise SpecError(f"axis {axis!r} must list its values")
    return ScenarioGrid(base=Scenario(**base), axes=axes, name=str(payload.get("name", name)))


def load_spec(path: Union[str, Path]) -> ScenarioGrid:
    """Load a sweep specification from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file {path} does not exist")
    if path.suffix.lower() == ".json":
        payload = json.loads(path.read_text())
    elif path.suffix.lower() == ".toml":
        import tomllib

        payload = tomllib.loads(path.read_text())
    else:
        raise SpecError(f"unsupported spec format {path.suffix!r} (use .toml or .json)")
    return parse_spec(payload, name=path.stem)
