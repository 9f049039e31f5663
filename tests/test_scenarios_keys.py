"""Pinned cache keys of the scenario pipeline and of the canonical rendering.

The persistent artifact store addresses every entry by these keys.
Changing a pin re-keys every store: a warm store would silently turn
cold, and two versions of the canonical rules would share a namespace.
A change that alters a pin must therefore bump
:data:`~repro.scenarios.fingerprint.CANONICAL_VERSION` (which moves stores
to a fresh namespace) instead of editing the pin.  The workload digest is
pinned through ``content_digest``, which the simulation key hashes.

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
        "workload": "60a2363769b2908a434218529ef6f210d116bcb1f53791f96fbb24309af9505c",
        "simulation": "a42b74b1961afaf3f29dbb3853ac430aac69458cc9efe98c89287832e3a6caf7",
    },
    "mobilenet_v2/final": {
        "graph": "285d0969e6dc4de0a55e65267786b1eadd4f1a4bad583f3b9802da19d6e5e7ab",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "8f2a4f5fb353bf13804dc73d70162998fa93c3b429694a643b76066bf6d3795f",
        "workload": "a61b7a4c1207820d2d861c91aa962ceca788af419226d0a6f01a33ca879e9391",
        "simulation": "f9911f0cd140d659c3c3df19319c6460bd15f135367aa41606339cd02361ea0f",
    },
    "mobilenet_v2/naive": {
        "graph": "285d0969e6dc4de0a55e65267786b1eadd4f1a4bad583f3b9802da19d6e5e7ab",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "12cb3f65d64bd9ed034063ed53c8fc784d39eb891444ac2f0e0f3725c3cf6613",
        "workload": "8a639613946da64ecedea0d0664277076c38de55daa3e242d748020b2f98df19",
        "simulation": "eea3940fab96bb3c09ff4a938e46598e40b5749b1f3363220eb924a0fc0462ea",
    },
    "mobilenet_v2/replicated": {
        "graph": "285d0969e6dc4de0a55e65267786b1eadd4f1a4bad583f3b9802da19d6e5e7ab",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "2148f90aaee7412aa44f8589b6efbb1a2d5321030d8d6b9d8d2ad0e4a5b0f27d",
        "workload": "5e574fdbf2bceb008b3b5e4f6316e541ab17fbe820b739fc7551fa2b305e2808",
        "simulation": "9cfa1abc08c2a350142c92001ea729f348718098bbe9d0ee79011477116b1f9c",
    },
    "resnet18/final": {
        "graph": "cafd83445ae07c7182447ec0428c8b5908f11e7faeded51b017402743aeb3295",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "19573b739b3b8c638df545655bbb3d09c4d1639882c37aca6c66986ff6f9c96b",
        "workload": "41469754c461789948c4e58fc3984ab89e78021d6476e8c5c784f3e955892715",
        "simulation": "cc1b7897d2417d3ccfee45e3abc1445a2eaf283fc290519181924af575d205f5",
    },
    "resnet18/naive": {
        "graph": "cafd83445ae07c7182447ec0428c8b5908f11e7faeded51b017402743aeb3295",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "ba91b5219865bcdd53a149337139f9ebeacb97e9b47d96f8724f8c305d79b081",
        "workload": "d445788b35e80dd7a11d88f34751061c3484d89add97805458ef397b6a3a1908",
        "simulation": "b48eaf7a31f7f1f4d698765da615b177f1912893a7f3232fe51eff9e1c4a28ef",
    },
    "resnet18/replicated": {
        "graph": "cafd83445ae07c7182447ec0428c8b5908f11e7faeded51b017402743aeb3295",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "6cfb743b981a5b4d0eb6991d830091673be49bfa97be656909cea9cdfa1ddd45",
        "workload": "d126929e6bdc533da97557077e6d290408ddd24cd4a123e7796b1951c2c44c4b",
        "simulation": "2f9df9d5d9822beeeee3e812f8cfcb5abdd7b2d0a125732710d18399d321b85e",
    },
    "resnet34/final": {
        "graph": "f349f750a84d389f30065379b91161e3c7264e7b33260a4bbb1f812eade8cd39",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "0bfa388767cffafb03345d9cbe810800ae9b478c3d22d6bb1c5e1d6f5cabb5cd",
        "workload": "92a6729a9cd151548e178e7771ccebdb87a4ee21637afb570415d86c91d698be",
        "simulation": "a0e767d0a8ac1a6d6815eff13e10aae684490694a08a2de9addf38323c0c5d7f",
    },
    "resnet34/naive": {
        "graph": "f349f750a84d389f30065379b91161e3c7264e7b33260a4bbb1f812eade8cd39",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "f63e294949fab4468f282902227b3ee06715d6755bbdb92781d4977ccf54bf5d",
        "workload": "f56ab42c1f3fca79207fc6778dbe9e61efb179c30f45369c5910822d59497f3f",
        "simulation": "b32f7cbcc91cdad98a1a45dfde98229d1e0459a6f4e3e650b8b0ae4c6fd6201e",
    },
    "resnet34/replicated": {
        "graph": "f349f750a84d389f30065379b91161e3c7264e7b33260a4bbb1f812eade8cd39",
        "arch": "aae50b283e56074a9e3267ff325720d7a5dce4293422643c9c2281ea3f27a4af",
        "mapping": "c4d57861536de9ab24ae90535f72d5ef3f8a4d05b5e7ab0c15d883755d6cba36",
        "workload": "08834fb35269f9712b93fb4b3da4abf4d21f2c4ad417e6313423122bf1db563e",
        "simulation": "4deaa54bf8f98dff3b5282da8a744bbdc51f716e2781425437a0a8d17a0442e1",
    },
}


#: the two keys that were re-keyed once since the pins above were taken:
#: the workload key (which gained the mapping and lowering versions) and
#: the open-system simulation key (which hashes the lowered workload's
#: digest rather than that of the copy stamped with the schedule).
PINNED_REKEYED = {
    "headline": {
        "workload_key": "531ced029b360826a58cdc033593f8f59393fa0e10def18fa96c0c1638cc6766",
        "open_simulation": "4bbac3d69fd2402f51811729b8ed95a0e2fb50680aa71f6150e22be2b8d87200",
    },
    "mobilenet_v2/final": {
        "workload_key": "d2948621862d3a3d0142caba51fe735d9447e213cf33a6a11720bc5c6aa1f8ef",
        "open_simulation": "1611c53a1f811cdcedb5908a148556cc4c5d22676646897776520373d8f7c621",
    },
    "mobilenet_v2/naive": {
        "workload_key": "8099a0dc7f6b9dfae6240e4e2cbb08358a13f4403fae227fe40c4964f30ac739",
        "open_simulation": "0f3e0ea0a35e433ac46b409ab498f517e19b9d2215efd2d8ba13109c05dfa7b4",
    },
    "mobilenet_v2/replicated": {
        "workload_key": "652cb27a98cdeefa5e8f7b0dc3b0e6a5c095b195e3f04dd587241559d234910c",
        "open_simulation": "96b4506f53f2417bc713415fd2c989b2cdc5a0c32c0fa05ee4032cab6da24369",
    },
    "resnet18/final": {
        "workload_key": "fb615b2728263c041c8087e364d86c9f979cd171dae1710c9f92a156314f17f8",
        "open_simulation": "76e1fa650fd193ed153d21090f1aad5c9da4c698deb35398dfcffa7d1f712b38",
    },
    "resnet18/naive": {
        "workload_key": "b8c7e6d218855ea93b002c3ad88fa046f993c1ebf3b9f8c11c7f9634ce805ca1",
        "open_simulation": "8c7270cef2e41617e4f47db2087723d591207dfab7f681beb543758e6c44a341",
    },
    "resnet18/replicated": {
        "workload_key": "0107f91b95c23e8d1042324cf75da099cc2997d37aab885d7f3d2052c8d46668",
        "open_simulation": "e56c222cf8a085604f4f8fbcf5ece5439365135cb0faa14c4b15fe1556795396",
    },
    "resnet34/final": {
        "workload_key": "ecc4c3b5f214a5dbc08ee009957e0fa09df8a23b48d17a8020085e017b32cf5f",
        "open_simulation": "bd362a2974ea0d728bfec0f29facda07c2c28756e061ab89e5194022dcc3f50c",
    },
    "resnet34/naive": {
        "workload_key": "446e2ead70fba91d03ad11a8cacc3ff728f296e360605f84b3d3b2c44f27507a",
        "open_simulation": "706fc6b6e0abf57c55e69cea8a3835616593b0cd9f338c15f9b46688e46eaa32",
    },
    "resnet34/replicated": {
        "workload_key": "1d964f60a446f06a9fc64aff8f0ef8d4c0fac568c79947c2f4d0994c6697ab11",
        "open_simulation": "b782ad169e29b7ed3d7df8256e728177973c81e5ef97087f24e099dd24f84e69",
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
