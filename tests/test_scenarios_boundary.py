"""The spec boundary: every scenario field is checked where the spec is built.

A wrong value fails with a :class:`SpecError` that names the field when the
``Scenario`` (or the ``ScenarioGrid`` or spec file holding it) is built,
never later inside the mapper, the arch or the simulator.  A valid scenario
whose mapping cannot fit the machine fails with an ``AllocationError`` that
names the architecture fields and what the naive mapping alone needs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AllocationError
from repro.scenarios import Scenario, ScenarioGrid, SpecError, parse_spec, run_scenario
from repro.scenarios.cli import main as cli_main

#: the probe point: tiny_cnn 3x32x32, batch 2, 64 clusters, FINAL.
TINY = dict(
    model="tiny_cnn", input_shape=(3, 32, 32), batch_size=2, n_clusters=64, level="final"
)

#: 22 of the 25 single-field probes: each fails when the scenario is built.
SPEC_ERRORS = [
    ("max_replication", 0),
    ("max_replication", -1),
    ("buffer_depth", 1.5),
    ("batch_size", True),
    ("batch_size", 1.5),
    ("batch_size", "2"),
    ("batch_size", None),
    ("n_clusters", True),
    ("reserve_clusters", 1.5),
    ("reserve_clusters", -1),
    ("num_classes", 1.5),
    ("num_classes", 0),
    ("cores_per_cluster", 1.5),
    ("cores_per_cluster", 0),
    ("input_shape", (3, 32.0, 32)),
    ("input_shape", (3, 0, 32)),
    ("crossbar_size", 0),
    ("crossbar_size", 2.5),
    ("model", 3),
    ("model_contention", "no"),
    ("fast_forward", 1),
    ("name", 3),
]


@pytest.mark.parametrize("field, value", SPEC_ERRORS)
def test_wrong_field_fails_at_construction(field, value):
    with pytest.raises(SpecError, match=field):
        Scenario(**{**TINY, field: value})


@pytest.mark.parametrize(
    "field, value, needed", [("n_clusters", 1, 6), ("crossbar_size", 1, 7785)]
)
def test_mapping_that_does_not_fit_names_the_fields(field, value, needed):
    """Two more probes build, then fail in the mapper with the fit error:
    it keeps the allocator's type and text and adds the scenario fields and
    the naive mapping's cluster count."""
    scenario = Scenario(**{**TINY, field: value})
    with pytest.raises(AllocationError, match="allocate") as error:
        run_scenario(scenario)
    message = str(error.value)
    assert f"{field}={value}," in message
    assert "n_clusters" in message and "reserve_clusters=4" in message
    assert f"the naive mapping alone needs {needed} clusters" in message


def test_reserve_beyond_the_spare_clusters_maps_final_without_replication():
    """The last probe runs: a reserve of every cluster leaves the balancer
    no budget, which is FINAL without replication (the documented end of
    the reserve range, not a spec error)."""
    reserved = run_scenario(Scenario(**{**TINY, "reserve_clusters": 64}))
    unreplicated = run_scenario(Scenario(**{**TINY, "max_replication": 1}))
    assert reserved.metrics.used_clusters == 7
    assert reserved.simulation.makespan_cycles == unreplicated.simulation.makespan_cycles


# --------------------------------------------------------------------------- #
# Property tests: wrong values built only, small valid values run
# --------------------------------------------------------------------------- #
#: integer fields, their minimum, and whether ``None`` is valid.
INTEGER_FIELDS = {
    "num_classes": (1, True),
    "batch_size": (1, False),
    "n_clusters": (1, True),
    "crossbar_size": (1, False),
    "cores_per_cluster": (1, False),
    "reserve_clusters": (0, False),
    "max_replication": (1, False),
    "buffer_depth": (1, False),
}
#: string fields and whether ``None`` is valid.
STRING_FIELDS = {"model": False, "level": False, "engine": False, "name": True}
BOOL_FIELDS = ("model_contention", "fast_forward")

NON_INTEGERS = (
    st.booleans()
    | st.floats()
    | st.integers(-8, 4096).map(float)
    | st.text(max_size=4)
)


def _wrong_integer(minimum, optional):
    wrong = NON_INTEGERS | st.integers(max_value=minimum - 1)
    return wrong if optional else wrong | st.none()


WRONG_VALUES = {
    **{name: _wrong_integer(*rule) for name, rule in INTEGER_FIELDS.items()},
    **{
        name: st.integers()
        | st.floats()
        | st.booleans()
        | (st.nothing() if optional else st.none())
        for name, optional in STRING_FIELDS.items()
    },
    **{
        name: st.integers() | st.floats() | st.text(max_size=4) | st.none()
        for name in BOOL_FIELDS
    },
    # one wrong dimension anywhere, or the wrong number of dimensions
    "input_shape": st.tuples(_wrong_integer(1, False), st.just(32), st.just(32)).flatmap(
        st.permutations
    )
    | st.lists(st.integers(1, 64), max_size=5).filter(lambda dims: len(dims) != 3),
}


@st.composite
def wrong_fields(draw):
    field = draw(st.sampled_from(sorted(WRONG_VALUES)))
    return field, draw(WRONG_VALUES[field])


@given(probe=wrong_fields())
@settings(max_examples=400, deadline=None)
def test_any_wrong_value_fails_at_construction(probe):
    """Bools, floats (integral ones too), strings, ``None``, zero and
    negatives: each is a SpecError naming the field, and nothing runs."""
    field, value = probe
    with pytest.raises(SpecError) as error:
        Scenario(**{**TINY, field: value})
    assert field in str(error.value)


@given(
    field=st.sampled_from(sorted(INTEGER_FIELDS)),
    value=st.integers(1, 64),
    dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]),
)
@settings(max_examples=60, deadline=None)
def test_numpy_integers_are_stored_as_int(field, value, dtype):
    scenario = Scenario(**{**TINY, field: dtype(value)})
    assert type(getattr(scenario, field)) is int
    assert scenario == Scenario(**{**TINY, field: value})
    shape = Scenario(**{**TINY, "input_shape": tuple(map(dtype, (3, value, 32)))})
    assert shape.input_shape == (3, value, 32)
    assert all(type(d) is int for d in shape.input_shape)


@given(
    input_shape=st.tuples(st.integers(1, 3), st.integers(1, 32), st.integers(1, 32)),
    num_classes=st.none() | st.integers(1, 10),
    batch_size=st.integers(1, 4),
    level=st.sampled_from(["naive", "pipelined", "replicated", "final"]),
    n_clusters=st.integers(1, 64),
    crossbar_size=st.integers(1, 512),
    cores_per_cluster=st.integers(1, 16),
    reserve_clusters=st.integers(0, 70),
    max_replication=st.integers(1, 70),
    model_contention=st.booleans(),
    buffer_depth=st.integers(1, 4),
    fast_forward=st.booleans(),
    engine=st.sampled_from(["table", "python"]),
)
@settings(max_examples=150, deadline=None)
def test_small_valid_scenarios_run_or_do_not_fit(**fields):
    """Every valid draw runs to a result or raises the fit error, never an
    error from inside the mapper, the arch or the simulator."""
    scenario = Scenario(model="tiny_cnn", **fields)
    try:
        outcome = run_scenario(scenario)
    except AllocationError as error:
        assert "the mapping does not fit" in str(error)
    else:
        assert 0 < outcome.metrics.used_clusters <= scenario.n_clusters


# --------------------------------------------------------------------------- #
# Grids and spec files go through the same constructor
# --------------------------------------------------------------------------- #
def test_grid_built_in_code_rejects_a_bad_axis_value():
    base = Scenario(**TINY)
    with pytest.raises(SpecError, match="batch_size must be positive, got 0"):
        ScenarioGrid.from_axes(base, batch_size=[2, 0])
    # axis values are stored as the scenario normalises them
    grid = ScenarioGrid.from_axes(base, input_shape=[[3, 16, np.int64(16)]])
    assert grid.axes == (("input_shape", ((3, 16, 16),)),)


@pytest.mark.parametrize("base", [3, [["model", "tiny_cnn"]], "tiny_cnn"])
def test_base_section_must_be_a_table(base):
    with pytest.raises(SpecError, match=r"\[base\] must map scenario fields"):
        parse_spec({"base": base})


SPEC_HEAD = """
[base]
model = "tiny_cnn"
input_shape = [3, 32, 32]
n_clusters = 16
batch_size = 2
"""


@pytest.mark.parametrize(
    "extra, field",
    [
        ("max_replication = 0\n", "max_replication"),
        ("[axes]\nbatch_size = [2, 1.5]\n", "batch_size"),
    ],
)
def test_cli_rejects_a_bad_spec_before_anything_runs(tmp_path, capsys, extra, field):
    spec = tmp_path / "bad.toml"
    spec.write_text(SPEC_HEAD + extra)
    assert cli_main([str(spec), "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""  # no grid summary, so no scenario ran
