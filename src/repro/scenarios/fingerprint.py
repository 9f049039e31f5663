"""Stable content fingerprints for experiment artifacts.

The artifact cache (:mod:`repro.scenarios.cache`) is keyed by *content*, not
by object identity: two scenarios that resolve to the same DNN graph, the
same architecture and the same mapping decisions must produce the same key,
while any change to any field must produce a different one.  Fingerprints
are hex SHA-256 digests of a canonical JSON rendering, so they are stable
across processes and Python invocations (no reliance on ``hash()``, which is
salted per process).

The canonical form handles the object kinds that appear in specs and
artifacts: dataclasses (by class name + field values), enums, tensors/graph
IR objects, numpy scalars and arrays, mappings with non-string keys, and
sets.  Unknown objects are rejected loudly rather than fingerprinted by
``repr`` — a silent identity-based key would defeat the cache's correctness
contract.

Canonicalisation dispatches on the exact type of the builtins the IR is
made of, renders a dataclass from a field plan built once per class
(editing a dataclass's fields at runtime is therefore unsupported), and
sends every other object through one ordered ``isinstance`` chain.
:func:`content_digest` memoizes a digest on the object it describes.  The
workload stage computes a workload's digest when it lowers it, so the memo
is persisted with the workload and a workload served from the store keys
its simulation, closed-batch or open-system, without being canonicalised
again.

Module contract:

* **What is hashed:** the ``*_key`` helpers below define, per pipeline
  stage, exactly which inputs enter the key — see ``docs/caching.md`` for
  the stage-by-stage rules.  Keys hash a stage's *inputs*, never its
  outputs, so a behavioural change to a stage must be caught by that
  stage's payload version, not here.
* **What is versioned:** :data:`CANONICAL_VERSION` stamps the
  canonicalisation rules themselves; the on-disk store namespaces entries
  by it, so bumping it silently invalidates every persisted artifact.
  Adding a *new* tagged key region (e.g. the ``"accuracy"`` tag) does not
  require a bump — existing keys are unaffected.  The persisted workload
  carries no payload stamp, so :func:`workload_key` hashes the mapping
  and lowering versions instead.
* Everything canonicalised must be plain data or a registered type; the
  rendering is injective on its domain (tuples and lists tag distinctly,
  class names tag dataclasses and enums).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Tuple

import numpy as np

from ..core import mapping as core_mapping
from ..core import pipeline as core_pipeline
from ..dnn.graph import Graph
from ..sim.system import DEFAULT_ENGINE


class FingerprintError(TypeError):
    """Raised when an object has no canonical (content-stable) rendering."""


#: version of the canonicalisation rules.  Persisted artifact keys (the
#: on-disk :class:`~repro.scenarios.store.ArtifactStore`) namespace their
#: entries by this number: any change to :func:`canonicalize` — new type
#: tags, different float rendering — produces keys that must never be
#: looked up against entries written under the old rules.  Bump it on every
#: behavioural change to this module.
CANONICAL_VERSION = 2


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable structure with a stable order.

    The rendering is injective on the supported domain: distinct values map
    to distinct structures (class names tag dataclasses and enums so that,
    e.g., two spec types with identical fields do not collide).

    Exact builtin types and dataclasses with a cached plan are dispatched
    first; every other object takes the ordered ``isinstance`` chain,
    which is also where a dataclass's plan is built.
    """
    kind = type(obj)
    if kind is int or kind is str or kind is bool or obj is None:
        return obj
    if kind is tuple:
        # Tagged distinctly from lists: (1, 2) and [1, 2] are different
        # values and the injectivity contract forbids their collision.
        return {"__tuple__": [canonicalize(item) for item in obj]}
    plan = _DATACLASS_PLANS.get(kind)
    if plan is not None:
        name, fields = plan
        rendered = {}
        for field_name, omit_default, default in fields:
            value = getattr(obj, field_name)
            if omit_default and value == default:
                continue
            rendered[field_name] = canonicalize(value)
        return {"__dataclass__": name, "fields": rendered}
    if kind is float:
        # repr() is the shortest round-trip representation: stable and exact.
        return {"__float__": repr(obj)}
    if kind is list:
        return [canonicalize(item) for item in obj]
    if kind is dict:
        return _canonicalize_dict(obj)
    if isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return {"__float__": repr(obj)}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": canonicalize(obj.value)}
    if isinstance(obj, Graph):
        return _canonicalize_graph(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _DATACLASS_PLANS[kind] = _dataclass_plan(kind)
        return canonicalize(obj)
    if isinstance(obj, list):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, tuple):
        return {"__tuple__": [canonicalize(item) for item in obj]}
    if isinstance(obj, (set, frozenset)):
        items = sorted(json.dumps(canonicalize(i), sort_keys=True) for i in obj)
        return {"__set__": items}
    if isinstance(obj, dict):
        return _canonicalize_dict(obj)
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": obj.shape,
            "dtype": str(obj.dtype),
            "sha256": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
        }
    if isinstance(obj, np.generic):
        return canonicalize(obj.item())
    raise FingerprintError(
        f"cannot fingerprint object of type {type(obj).__name__}; add a "
        "canonical rendering to repro.scenarios.fingerprint"
    )


#: :func:`_dataclass_plan` of each dataclass :func:`canonicalize` has
#: rendered, keyed by the exact class.  Plans are read from the class once,
#: so editing a dataclass's fields or its ``__fingerprint_omit_defaults__``
#: at runtime is unsupported.
_DATACLASS_PLANS: Dict[type, Tuple[str, Tuple[Tuple[str, bool, Any], ...]]] = {}


def _dataclass_plan(cls: type) -> Tuple[str, Tuple[Tuple[str, bool, Any], ...]]:
    """The field plan :func:`canonicalize` renders instances of ``cls`` from:
    the class name and one ``(field name, omit-when-default, default)``
    triple per field, in declaration order.

    A dataclass may opt individual fields out of the rendering *while they
    hold their default value* by listing them in a class-level
    ``__fingerprint_omit_defaults__`` tuple.  This lets an artifact type
    grow a new optional field (e.g. ``Workload.arrival_cycles``) without
    changing the canonical form — and therefore the content keys — of
    every pre-existing value that does not use it.  A non-default value
    renders normally, so the axis still keys.
    """
    omit_defaults = frozenset(getattr(cls, "__fingerprint_omit_defaults__", ()))
    fields = tuple(
        (f.name, f.name in omit_defaults, f.default) for f in dataclasses.fields(cls)
    )
    return cls.__name__, fields


def _canonicalize_dict(obj: Dict[Any, Any]) -> Any:
    """Keys may be non-strings (e.g. per-node-id replication factors):
    canonicalize them too and sort by the serialised key."""
    items = sorted(
        (json.dumps(canonicalize(k), sort_keys=True), canonicalize(v))
        for k, v in obj.items()
    )
    return {"__dict__": items}


def _canonicalize_graph(graph: Graph) -> Any:
    """A graph is its name plus its nodes (layer payloads and wiring).

    Inferred shapes are deliberately excluded: they are derived from the
    structure, and including them would make the fingerprint depend on
    whether :meth:`~repro.dnn.graph.Graph.infer_shapes` ran.
    """
    nodes = [
        {
            "id": node.node_id,
            "layer": canonicalize(node.layer),
            "inputs": list(node.inputs),
        }
        for node in graph.nodes
    ]
    return {"__graph__": graph.name, "nodes": nodes}


def fingerprint(obj: Any) -> str:
    """Hex SHA-256 digest of the canonical rendering of ``obj``."""
    payload = json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Keys of the pipeline stages
# --------------------------------------------------------------------------- #
#: attribute used to memoize content digests on artifact objects.
_DIGEST_ATTR = "_repro_content_digest"


def content_digest(obj: Any) -> str:
    """Fingerprint ``obj``, memoizing the digest on the object itself.

    Canonicalising a paper-scale graph or workload IR costs milliseconds;
    on a warm cache path that would dominate.  The digest is stored under a
    private attribute after the first computation, so repeated keying of
    the *same object* is O(1).  Objects exposing a ``structure_version``
    counter (:class:`~repro.dnn.graph.Graph` bumps it on every edit) get
    their memo revalidated against it; the other artifacts flowing through
    the pipeline are build-once (workloads and mappings are never mutated
    after lowering).  Objects that reject attribute assignment are simply
    fingerprinted each time.

    The memo is an instance attribute, so it is pickled with the object.
    The workload stage digests each workload it lowers before the store
    persists it, so a workload served from the store returns its memo here
    without being canonicalised.  Copies made with
    :func:`dataclasses.replace` (``Workload.with_arrivals``,
    ``Workload.with_n_jobs``) do not inherit the memo; the simulation stage
    therefore keys an open-system run on the memo of the workload it is
    handed plus the schedule, and never digests the stamped copy.
    """
    version = getattr(obj, "structure_version", None)
    memo = getattr(obj, _DIGEST_ATTR, None)
    if memo is not None and memo[0] == version:
        return memo[1]
    digest = fingerprint(obj)
    try:
        object.__setattr__(obj, _DIGEST_ATTR, (version, digest))
    except (AttributeError, TypeError):
        pass
    return digest


def graph_key(graph: Graph) -> str:
    """Content key of a DNN graph."""
    return content_digest(graph)


#: attribute used to memoize the name-stripped digest on arch objects.
_ARCH_KEY_ATTR = "_repro_arch_key_digest"


def arch_key(arch: Any) -> str:
    """Content key of an architecture configuration.

    The cosmetic ``name`` field is excluded: ``ArchConfig.paper()`` and
    ``ArchConfig.scaled(512, 256, 16)`` describe the same hardware and must
    share cached artifacts regardless of their display labels.

    The name-stripped digest is memoized on the original object (frozen
    dataclasses only, so the memo cannot go stale): every pipeline stage
    keys on the architecture, and re-canonicalising the full config — let
    alone rebuilding a name-stripped copy — on every stage call would
    dominate the warm cache path.
    """
    if dataclasses.is_dataclass(arch) and hasattr(arch, "name"):
        frozen = type(arch).__dataclass_params__.frozen
        if frozen:
            memo = getattr(arch, _ARCH_KEY_ATTR, None)
            if memo is not None:
                return memo
        digest = fingerprint(dataclasses.replace(arch, name=""))
        if frozen:
            try:
                object.__setattr__(arch, _ARCH_KEY_ATTR, digest)
            except (AttributeError, TypeError):
                pass
        return digest
    return fingerprint(arch)


def mapping_key(
    graph_fp: str,
    arch_fp: str,
    batch_size: int,
    level: Any,
    reserve_clusters: int,
    max_replication: int,
) -> str:
    """Key of a built :class:`~repro.core.mapping.NetworkMapping`.

    Derived from the *inputs* of the mapping build (which is deterministic),
    so a cache hit skips the optimizer entirely.  ``level`` is either an
    :class:`~repro.core.optimizer.OptimizationLevel` member (the historical
    spelling, hashed as the enum so pre-registry artifacts stay
    addressable) or a :class:`~repro.core.policies.MappingPolicy`, which is
    hashed through its ``fingerprint_token()`` — the *resolved* policy, so
    a named policy and its equivalent inline spelling share a key, and a
    schedule policy keys on the schedule's contents rather than its path.
    """
    token = level.fingerprint_token() if hasattr(level, "fingerprint_token") else level
    return fingerprint(
        ("mapping", graph_fp, arch_fp, batch_size, token, reserve_clusters, max_replication)
    )


def workload_key(mapping_fp: str, zero_communication: bool) -> str:
    """Key of a lowered :class:`~repro.sim.workload.Workload`.

    The persisted workload carries no payload stamp, so the key hashes the
    versions of the rules that produced it:
    :data:`~repro.core.mapping.MAPPING_PAYLOAD_VERSION` (placement) and
    :data:`~repro.core.pipeline.WORKLOAD_PAYLOAD_VERSION` (lowering and
    cost model).  Bumping either re-keys every workload, so a warm store
    lowers each one again instead of serving it stale.  Both are read at
    call time, from their defining modules.
    """
    return fingerprint(
        (
            "workload",
            mapping_fp,
            zero_communication,
            core_mapping.MAPPING_PAYLOAD_VERSION,
            core_pipeline.WORKLOAD_PAYLOAD_VERSION,
        )
    )


def simulation_key(
    arch_fp: str,
    workload_fp: str,
    model_contention: bool,
    buffer_depth: int,
    fast_forward: bool = False,
    engine: str = DEFAULT_ENGINE,
    arrivals: Any = None,
) -> str:
    """Key of a :class:`~repro.sim.system.SimulationResult`.

    The architecture is part of the key in its own right: the simulator
    reads timing parameters (HBM burst size, DMA bandwidth, link latencies)
    straight from the :class:`~repro.arch.config.ArchConfig`, which the
    workload IR deliberately does not encode.  ``fast_forward`` is part of
    the key even though fast-forwarded results are bit-identical on every
    metric: the persisted payload records the ``fast_forwarded`` provenance
    flag, and serving one mode's artifact to the other would misreport it.
    ``engine`` (table lane vs python kernel) is likewise part of the key
    despite bit-identical payloads: a sweep that pins the kernel must
    actually run it — serving another kernel's artifact would silently
    mask any divergence the kernel-equivalence suite exists to catch.
    Adding the axis changed every simulation key once, and so did moving
    the default from ``"array"`` to ``"table"``; historical artifacts miss
    cleanly and are re-simulated.

    ``arrivals`` carries the *resolved* arrival schedule of an open-system
    workload — the tuple of per-job arrival cycles, never the generator
    spec or trace path that produced it — so two spellings resolving to
    the same timestamps share one artifact, and a trace file's location on
    disk never enters the key.  ``workload_fp`` may then be the digest of
    the workload *before* the schedule was stamped on it (the scenario
    pipeline's simulation stage keys that way, so the stamped copy is
    never canonicalised): stamping is a pure function of the two, so the
    pair still identifies the simulated workload.  Closed-batch
    simulations pass ``None`` and the key token is omitted entirely,
    keeping their keys byte-identical to the pre-arrivals rendering.
    """
    token = (
        "simulate",
        arch_fp,
        workload_fp,
        model_contention,
        buffer_depth,
        fast_forward,
        engine,
    )
    if arrivals is not None:
        token = token + (("arrivals", tuple(arrivals)),)
    return fingerprint(token)


def accuracy_key(
    graph_fp: str,
    noise_model: Any,
    backend: str,
    crossbar_size: int,
    seed: int,
    n_inputs: int,
) -> str:
    """Key of an :class:`~repro.scenarios.pipeline.AccuracyRecord`.

    The key hashes the **resolved** :class:`~repro.aimc.noise.NoiseModel`
    (a frozen dataclass, canonicalised field by field), never the spelling
    that produced it: a preset name and an equivalent inline mapping key
    the same artifact, while any change to any noise/converter field —
    including the DAC/ADC resolution overrides, which are applied before
    resolution — misses cleanly.  The architecture axes the functional
    path does not read (cluster count, batch size, simulator options) are
    deliberately excluded, so one accuracy artifact serves every
    performance point that shares its graph, crossbar geometry and noise
    configuration.  For the same reason callers normalise ``noise_model``
    to ``None`` and ``crossbar_size`` to 0 on the digital backend, which
    reads neither.
    """
    return fingerprint(
        ("accuracy", graph_fp, noise_model, backend, crossbar_size, seed, n_inputs)
    )
