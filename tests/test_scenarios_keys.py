"""Pinned cache keys of the scenario pipeline and of the canonical rendering.

The persistent artifact store addresses every entry by these keys.
Changing a pin re-keys every store: a warm store would silently turn
cold, and two versions of the canonical rules would share a namespace.
A change to the canonical rules that alters a pin must therefore bump
:data:`~repro.scenarios.fingerprint.CANONICAL_VERSION` (which moves stores
to a fresh namespace) instead of editing the pin.  The workload digest is
pinned through ``content_digest``, which the simulation key hashes.  A
change to the fields of the workload IR changes the workload's content
whatever the namespace, so it re-pins the workload digest, the
simulation key and both keys in ``PINNED_REKEYED`` together with its
:data:`~repro.core.pipeline.WORKLOAD_PAYLOAD_VERSION` bump, and leaves
``CANONICAL_VERSION`` alone; the graph, arch and mapping pins do not move.

Two keys are pinned apart, in ``PINNED_REKEYED``, because each was
re-keyed once on purpose.  ``workload_key`` hashes
:data:`~repro.core.mapping.MAPPING_PAYLOAD_VERSION` and
:data:`~repro.core.pipeline.WORKLOAD_PAYLOAD_VERSION`, so bumping either
moves it; re-pin it with the bump, and only then.  The
``open_simulation`` key is that of an open-system run, keyed on the
lowered workload's digest plus its resolved arrival schedule, as the
simulation stage keys it.
"""

import collections
import dataclasses
import enum
from typing import NamedTuple, Tuple

import numpy as np
import pytest

from repro.core.policies import resolve_policy
from repro.dnn import models
from repro.dnn.graph import Graph
from repro.dnn.layers import Conv2D, Input, ReLU
from repro.dnn.tensor import TensorShape
from repro.scenarios import (
    Scenario,
    fingerprint,
    graph_stage,
    mapping_stage,
    workload_stage,
)
from repro.scenarios.fingerprint import (
    arch_key,
    content_digest,
    graph_key,
    mapping_key,
    simulation_key,
    workload_key,
)
from repro.scenarios.pipeline import _mapping_content_key
from repro.sim.workload import DeterministicArrivals

#: the ladder's three models at 3x64x64, batch 4, on the paper's 512
#: clusters, at each mapping level; plus the paper's Sec. VI headline.
SCENARIOS = {
    f"{model}/{level}": Scenario(
        model=model, input_shape=(3, 64, 64), batch_size=4, level=level
    )
    for model in ("resnet18", "resnet34", "mobilenet_v2")
    for level in ("naive", "replicated", "final")
}
SCENARIOS["headline"] = Scenario(
    model="resnet18", input_shape=(3, 256, 256), batch_size=16, level="final"
)

PINNED_KEYS = {
    "headline": {
        "graph": "36e837a5ac7d8315a712718eb046dfcabc52ed661fb243890fb4c9485a443fcf",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "d09175233518e03abfabbf555e69b1cb6de47d491c286adae49447a3c3457d1d",
        "workload": "b2b5119ada8cecf19c9d6b1dc4d34f9c614c915ce8a87ee278e2966b6745bd77",
        "simulation": "1bba16d37365bc35ad7421166e59048bc83b2570263a1817c2777c37af319534",
    },
    "mobilenet_v2/final": {
        "graph": "285d0969e6dc4de0a55e65267786b1eadd4f1a4bad583f3b9802da19d6e5e7ab",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "8f2a4f5fb353bf13804dc73d70162998fa93c3b429694a643b76066bf6d3795f",
        "workload": "951a480ad7d16e1aa8ef30430aa3738a2d1f2e45df76ff2c3b4435420796b038",
        "simulation": "258e26827d64bac178b2f3259af01e11a1ec8e84aa521088a76177c28fff25fd",
    },
    "mobilenet_v2/naive": {
        "graph": "285d0969e6dc4de0a55e65267786b1eadd4f1a4bad583f3b9802da19d6e5e7ab",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "12cb3f65d64bd9ed034063ed53c8fc784d39eb891444ac2f0e0f3725c3cf6613",
        "workload": "135f76001fadbe60b184a9c936c2e1833805b939caf36171fca05b07dfbaa38a",
        "simulation": "76737df15dfb6dcba511d2f75e7f41323151adf87d0857b0e4c2bc65c8c99e2e",
    },
    "mobilenet_v2/replicated": {
        "graph": "285d0969e6dc4de0a55e65267786b1eadd4f1a4bad583f3b9802da19d6e5e7ab",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "2148f90aaee7412aa44f8589b6efbb1a2d5321030d8d6b9d8d2ad0e4a5b0f27d",
        "workload": "3afe0dc66ef2f2bc21d11f36af6038b07c5154e8f11b14907e42c16f3dd50ed7",
        "simulation": "b433873b1944803170c0c1a68c1b55ca1b0eeab0c35574ee15b5a245a82fbd1c",
    },
    "resnet18/final": {
        "graph": "cafd83445ae07c7182447ec0428c8b5908f11e7faeded51b017402743aeb3295",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "19573b739b3b8c638df545655bbb3d09c4d1639882c37aca6c66986ff6f9c96b",
        "workload": "7ff2371365549e0fd9be19519ee909fc7c0004b419cf6ccbe6ec014de3039443",
        "simulation": "0accfc57acc9ef0becf587495b87e151748e55c05f543ba8ba06f4968abde4aa",
    },
    "resnet18/naive": {
        "graph": "cafd83445ae07c7182447ec0428c8b5908f11e7faeded51b017402743aeb3295",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "ba91b5219865bcdd53a149337139f9ebeacb97e9b47d96f8724f8c305d79b081",
        "workload": "59f8f999a5b13c4ce5666bc17abf27f2a8dd05018d0302f9649ddced8c4702bd",
        "simulation": "ce247e9acbbda1fa0b52ab12d44c5640232889d4f5bac60ca4d4ba313b473ff1",
    },
    "resnet18/replicated": {
        "graph": "cafd83445ae07c7182447ec0428c8b5908f11e7faeded51b017402743aeb3295",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "6cfb743b981a5b4d0eb6991d830091673be49bfa97be656909cea9cdfa1ddd45",
        "workload": "8e63b0ce88572c8c5cbea38206ccf9daf806213df8256fac566e319794b92369",
        "simulation": "bde8407937c9c71686cd9cb331c22039ac4d7c57d63e3b8ac03afae7357b9684",
    },
    "resnet34/final": {
        "graph": "f349f750a84d389f30065379b91161e3c7264e7b33260a4bbb1f812eade8cd39",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "0bfa388767cffafb03345d9cbe810800ae9b478c3d22d6bb1c5e1d6f5cabb5cd",
        "workload": "936a088e5b837535328eea42ca1fb0052971a26a7a5334a16356d9bbb125454f",
        "simulation": "ddb7534511bb54f41ecd19501e0147dd6ca45c4605141db388eb0df357caf30f",
    },
    "resnet34/naive": {
        "graph": "f349f750a84d389f30065379b91161e3c7264e7b33260a4bbb1f812eade8cd39",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "f63e294949fab4468f282902227b3ee06715d6755bbdb92781d4977ccf54bf5d",
        "workload": "1ee61d97687fcff32b1f604dc2e2d75e35f4ebf4aff3b9db6a618dc50813167c",
        "simulation": "51e3553568dc8ab12bd93c19fab1f84506402d373c10735bfd1f9833824e2241",
    },
    "resnet34/replicated": {
        "graph": "f349f750a84d389f30065379b91161e3c7264e7b33260a4bbb1f812eade8cd39",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "c4d57861536de9ab24ae90535f72d5ef3f8a4d05b5e7ab0c15d883755d6cba36",
        "workload": "38560235bac980d54bdca25e7a0495696f27361b07adb2aea4ed46cc86ff5944",
        "simulation": "908389c62af6d3b084544d20afc49614ee74c2d1113592e00c5d396f8343ff19",
    },
}


#: the two keys that were re-keyed once since the pins above were taken:
#: the workload key (which gained the mapping and lowering versions) and
#: the open-system simulation key (which hashes the lowered workload's
#: digest rather than that of the copy stamped with the schedule).
PINNED_REKEYED = {
    "headline": {
        "workload_key": "9f4477a8435cbf40b5dd99e2cba0973c4a9655b4bb5181d9da64d39202bac69a",
        "open_simulation": "978e3415396833b002a4a6beef48de855f64257994400928ca00f83cea1fb984",
    },
    "mobilenet_v2/final": {
        "workload_key": "4fc2c9afc75abaa056b3fdadf568dbda0da46daf5f5f65457215114166f98cc4",
        "open_simulation": "056501a98619a24735debf9c76a1bde263df77ea9bf42c59d2d7141343e73ab2",
    },
    "mobilenet_v2/naive": {
        "workload_key": "366f31a8d88cb7b18eeb6ffa683efdd93b9b8b3229102833fe1a2b2a77acd4bd",
        "open_simulation": "9a0c7a663624e99a372fd2b3d072a19b96a7424567d08491c0f8e635f3580588",
    },
    "mobilenet_v2/replicated": {
        "workload_key": "68535b72bae6ca8d350e33ec62dd6d0c99e9973b6b8623cc8f880346d36113bf",
        "open_simulation": "a18274db4ef1fa79b60713edea076ec1043cb6cc83f29639fb4a4b2491b4091f",
    },
    "resnet18/final": {
        "workload_key": "014bd129c954c545f80f61cce4cca482e9cba39f70f8253604987c0a5f360bde",
        "open_simulation": "2273013ec5708bb492d8b6462767152bd823a29fa7156512a8f782519f4b4810",
    },
    "resnet18/naive": {
        "workload_key": "66dabdfcbcde548a0a0e51ff2608363a6003f2b3a50e426dcfdef30699c96287",
        "open_simulation": "29718069261fbda239913803b9d054b9ea51a91ea0f29e84fd9c0a67adad628d",
    },
    "resnet18/replicated": {
        "workload_key": "a6f77e1c70572a139bf3bfc4cde488f8ce32e88cc0e946a8d33f12c3c8569d90",
        "open_simulation": "512a87c6fb9fa4af88b2842c91d1d302e5b62c10932190a03200f27b83f6f774",
    },
    "resnet34/final": {
        "workload_key": "84fe3c3351aa27bc2c549ed94bdc6c520d30690bd0c3a2acce2c7d6fa279c10a",
        "open_simulation": "8cb111244db5f0163b9d6a36f9a61996c021ffdfd758dff1fad37c097d1fc729",
    },
    "resnet34/naive": {
        "workload_key": "f0a7370c1ec6b2358b64c924d311364aaf1cad4a38c3d90084b913c0841931d3",
        "open_simulation": "37aa20b51e927d72c38faf2af0c5477b0cb6b40da5b27c1b960133b739abd972",
    },
    "resnet34/replicated": {
        "workload_key": "061e25833e23cc83c1062210735479940e4e6da41b350bc0d2a28cb46d8f26fa",
        "open_simulation": "0edb8b52cb9e3a7ca54785c75fededa0ffcd05e0d2c5f744ee9c7d94efed8e52",
    },
}


#: the arrival schedule of the pinned open-system simulation keys.
OPEN_ARRIVALS = DeterministicArrivals(interval_cycles=1000)


def stage_keys(scenario: Scenario):
    """Graph, arch, mapping, workload and simulation keys of one scenario,
    plus the simulation key of the same point served open-system."""
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(
        graph,
        arch,
        scenario.batch_size,
        scenario.mapping_policy,
        reserve_clusters=scenario.reserve_clusters,
        max_replication=scenario.max_replication,
    )
    workload = workload_stage(mapping)
    return {
        "graph": graph_key(graph),
        "arch": arch_key(arch),
        "mapping": mapping_key(
            graph_key(graph),
            arch_key(arch),
            scenario.batch_size,
            resolve_policy(scenario.mapping_policy),
            scenario.reserve_clusters,
            scenario.max_replication,
        ),
        "workload": content_digest(workload),
        "workload_key": workload_key(_mapping_content_key(mapping), False),
        "simulation": simulation_key(
            arch_key(arch),
            content_digest(workload),
            scenario.model_contention,
            scenario.buffer_depth,
            scenario.fast_forward,
            scenario.engine,
        ),
        "open_simulation": simulation_key(
            arch_key(arch),
            content_digest(workload),
            scenario.model_contention,
            scenario.buffer_depth,
            scenario.fast_forward,
            scenario.engine,
            arrivals=OPEN_ARRIVALS.generate(workload.n_jobs),
        ),
    }


class _Mode(enum.Enum):
    FAST = "fast"


class _Level(enum.IntEnum):
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class _Point:
    x: int
    label: str = ""
    tags: Tuple[str, ...] = ()

    __fingerprint_omit_defaults__ = ("tags",)


class _Pair(NamedTuple):
    left: int
    right: str


class _Ratio(float):
    pass


class _Path(list):
    pass


def _small_graph() -> Graph:
    graph = Graph("corpus")
    source = graph.add(Input(name="in", shape=TensorShape(3, 8, 8)))
    conv = graph.add(Conv2D(name="conv", out_channels=4), inputs=[source])
    graph.add(ReLU(name="relu"), inputs=[conv])
    return graph


#: one object per branch of ``canonicalize``: the builtins it dispatches on
#: by exact type, dataclasses (an omitted default and a rendered one), and
#: the ordered chain (subclasses of the builtins, enums, graphs, arrays,
#: numpy scalars, sets).
CORPUS = {
    "none": None,
    "bool": True,
    "int": -7,
    "str": "aimc",
    "float": 1 / 3,
    "tuple": (1, "a"),
    "list": [1, "a"],
    "nested": ((1, [2, (3,)]), [[4], ()]),
    "dict": {1: "one", (2, 3): [4.5], "k": None},
    "dataclass_default": _Point(3, "p"),
    "dataclass_non_default": _Point(3, "p", tags=("hot",)),
    "enum": _Mode.FAST,
    "int_enum": _Level.HIGH,
    "graph": _small_graph(),
    "ndarray": np.arange(6, dtype=np.int32).reshape(2, 3),
    "numpy_int": np.int64(3),
    "numpy_float": np.float32(0.5),
    "set": {3, 1, 2},
    "frozenset": frozenset({"b", "a"}),
    "namedtuple": _Pair(1, "r"),
    "float_subclass": _Ratio(0.25),
    "list_subclass": _Path([1, 2]),
    "ordered_dict": collections.OrderedDict([("b", 1), ("a", 2)]),
}

PINNED_CORPUS = {
    "bool": "b5bea41b6c623f7c09f1bf24dcae58ebab3c0cdd90ad966bc43a45b44867e12b",
    "dataclass_default": "bda641a2a84702599530d564da2d1b8843154e88dfedd207d47de838df2e1830",
    "dataclass_non_default": "34e09388d4ea498608fe3d7463854b0daba1d8f2643c2f259260ef13180bf954",
    "dict": "7a653a7189e59f62d8692f01f0fcbe302ada89dda1706b8e052dfd9c42fe2ec7",
    "enum": "b437523d9e391867dfd6e49a8ac363ecc5d5ddb0f98a478d333580b183e5e229",
    "float": "997d3fde814c39d37babc8461da8dbc79c8c35d649286588b186aef5a56e3be7",
    "float_subclass": "e35a0781eb2f0a72312a56c9bc2287f67bb327c09b38f9b4e7365628bfbfefa6",
    "frozenset": "063300f0a74fef5b962d61fde3571dcd9f028f9ebcdf25dd1aed9ec3a1aa3a27",
    "graph": "5d7a344f1d99dce52165a6e7ed56650d8f27d01da7c0e36a9718b9be36ee7d10",
    "int": "a770d3270c9dcdedf12ed9fd70444f7c8a95c26cae3cae9bd867499090a2f14b",
    "int_enum": "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
    "list": "2010945388e2de98f5651051478912aa4ff38bb13a2cdb1a2c257bb97fbf98ff",
    "list_subclass": "49a64717d5d4cb19952e6eac2946415cf6879adacf9908e7d872332d32c6e684",
    "namedtuple": "2b4db5817e307b6853cd3423c77f88c34c1895f757ba0498e6553e1571123ec1",
    "ndarray": "0ab15b744212c4d66eede41656461bc1bc44d4286ce091269fe4ae339dfea686",
    "nested": "edd07c450a1ce76b82c0f05638d1f42bab52d345e1392a5b38dd5db1be63f572",
    "none": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
    "numpy_float": "f18bb89adbe0e685e9d822524f58b5859e736547e6dd660498e58492d1953ce7",
    "numpy_int": "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
    "ordered_dict": "1f7791f5c01d037efca03ed8668a845eba899e60dbbe6c0edd540238e8ee23a7",
    "set": "54471dcf03028e1f9cece0542a4932c01252e24936235ed08a4aa678ddc23a17",
    "str": "39fb98168b20b0e5b3fbeeae082cd047efb5130481f2b4965aaa202e5eb47a5a",
    "tuple": "e33afe5f23bdf3ef90c1d20deb14a29ecfab9a0fec4645775537686989d28568",
}


def pinned_subset(keys, pins):
    """The entries of ``keys`` that ``pins`` pins."""
    return {name: keys[name] for name in pins}


class TestStageKeyPins:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_stage_keys_are_pinned(self, name):
        keys = stage_keys(SCENARIOS[name])
        assert pinned_subset(keys, PINNED_KEYS[name]) == PINNED_KEYS[name]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_rekeyed_keys_are_pinned(self, name):
        keys = stage_keys(SCENARIOS[name])
        assert pinned_subset(keys, PINNED_REKEYED[name]) == PINNED_REKEYED[name]


class TestCanonicalPins:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fingerprint_is_pinned(self, name):
        assert fingerprint(CORPUS[name]) == PINNED_CORPUS[name]

    def test_corpus_covers_every_pin(self):
        assert set(CORPUS) == set(PINNED_CORPUS)
        assert set(SCENARIOS) == set(PINNED_KEYS) == set(PINNED_REKEYED)


#: graph keys of the ResNet builders at their default input shapes, each
#: pinned from the builder that inferred the partial graph's shapes at
#: every stride-1 block to decide its shortcut.
RESNET_BUILDS = {
    "resnet18": lambda: models.resnet18(),
    "resnet18/projections": lambda: models.resnet18(paper_dag=False),
    "resnet34": lambda: models.resnet34(),
    "resnet34/projections": lambda: models.resnet34(paper_dag=False),
    "resnet20-cifar": lambda: models.resnet_cifar(),
}
PINNED_RESNET_GRAPHS = {
    "resnet18": "36e837a5ac7d8315a712718eb046dfcabc52ed661fb243890fb4c9485a443fcf",
    "resnet18/projections": (
        "a5c86dd02d82911be24f3feae3f53758ea81abbe27d10abff425de33d403bc8c"
    ),
    "resnet34": "ce34bbee3ff1c2827028cf9f36b47089dcdc204c325043535015b67e54acaec3",
    "resnet34/projections": (
        "d8dd3cab968dc7a22ed5ee90de3712156000d775482d587d040ea3255fc81e0a"
    ),
    "resnet20-cifar": (
        "84f2e3b52bc1951b914a74f7223ddcd20a216ed0e242de1d18399534ba90ecb2"
    ),
}


class TestResNetBuilds:
    @pytest.mark.parametrize("name", sorted(RESNET_BUILDS))
    def test_one_shape_pass_per_build(self, name, monkeypatch):
        passes = []
        real = Graph.infer_shapes

        def counting(self):
            passes.append(1)
            real(self)

        monkeypatch.setattr(Graph, "infer_shapes", counting)
        graph = RESNET_BUILDS[name]()
        assert passes == [1]
        assert graph_key(graph) == PINNED_RESNET_GRAPHS[name]
