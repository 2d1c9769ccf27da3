"""Configuration-space behaviour: domains, enumeration, mutation, encoding."""

import itertools
import math
import random

import pytest

from heterotune import (
    EncodingError,
    NoNeighborError,
    ParameterSpace,
    SpaceDefinitionError,
    bundled_space,
    bundled_space_names,
    space_from_dict,
)
from heterotune.space import MAX_RANGE_VALUES


def make_space(params, name="test"):
    return space_from_dict({"name": name, "parameters": params})


# ----- cardinality and enumeration -------------------------------------------


def test_ida_cardinality(ida):
    assert ida.cardinality() == 101


def test_emil_cardinality(emil):
    assert emil.cardinality() == 4 * 4 * 3 * 3 * 101 == 14544


def test_single_value_space_cardinality():
    space = make_space(
        [
            {"name": "CPU-W", "kind": "levels", "values": [100]},
            {"name": "ACC-W", "derived_from": "CPU-W"},
        ]
    )
    assert space.cardinality() == 1


def test_enumerate_order_first_parameter_varies_slowest():
    space = make_space(
        [
            {"name": "CPU-T", "kind": "levels", "values": [12, 24]},
            {"name": "CPU-W", "kind": "range", "min": 0, "max": 1},
        ]
    )
    configs = list(space.enumerate_all())
    assert configs == [
        {"CPU-T": 12, "CPU-W": 0},
        {"CPU-T": 12, "CPU-W": 1},
        {"CPU-T": 24, "CPU-W": 0},
        {"CPU-T": 24, "CPU-W": 1},
    ]


@pytest.mark.parametrize("name", ["ida", "emil"])
def test_enumerate_count_matches_cardinality(name):
    space = bundled_space(name)
    configs = list(space.enumerate_all())
    assert len(configs) == space.cardinality()
    # every enumerated configuration is valid and distinct
    keys = {space.config_key(c) for c in configs}
    assert len(keys) == len(configs)
    for config in configs[:50]:
        assert space.validate(config) == []


def enumerate_by_make_config(space):
    """Every configuration, each built by `make_config` from its free values."""
    free = [p.name for p in space.free_parameters]
    for combo in itertools.product(*(p.domain for p in space.free_parameters)):
        yield space.make_config(dict(zip(free, combo)))


SPACES = [
    bundled_space("emil"),
    bundled_space("ida"),
    make_space(
        [
            {"name": "B-W", "derived_from": "A-W"},
            {"name": "A-W", "kind": "range", "min": 0, "max": 100},
            {"name": "T", "kind": "levels", "values": [1, 2, 4]},
            {"name": "M", "kind": "categorical", "labels": ["x", "y"]},
        ],
        name="source-not-last",
    ),
    make_space(
        [
            {"name": "T", "kind": "levels", "values": [1, 2, 4]},
            {"name": "M", "kind": "categorical", "labels": ["x", "y"]},
        ],
        name="no-derived",
    ),
]


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.name)
def test_enumerate_matches_make_config_in_order_and_key_order(space):
    def items(configs):
        return [[(k, type(v), v) for k, v in c.items()] for c in configs]

    first, second = list(space.enumerate_all()), list(space.enumerate_all())
    assert items(first) == items(second) == items(enumerate_by_make_config(space))
    # fresh dicts: none is shared within a call or between calls
    assert len({id(c) for c in first + second}) == 2 * len(first)


@pytest.mark.parametrize(
    "space",
    SPACES + [
        make_space(
            [
                {"name": "B-W", "derived_from": "A-W"},
                {"name": "A-W", "kind": "range", "min": 0, "max": 300},
                {"name": "T", "kind": "levels", "values": [8]},
                {"name": "M", "kind": "categorical", "labels": ["x", "y"]},
            ],
            name="one-value-parameter",
        ),
    ],
    ids=lambda space: space.name,
)
def test_codes_give_enumerate_all(space):
    def items(configs):
        return [[(k, type(v), v) for k, v in c.items()] for c in configs]

    codes = space.codes()
    free = space.free_parameters
    assert codes.shape == (space.cardinality(), len(free))
    assert codes.dtype == ("u2" if max(p.size for p in free) > 256 else "u1")
    expected = items(space.enumerate_all())
    assert items(space.configs(codes)) == expected
    assert [items([space.config_at(row)])[0] for row in codes.tolist()] == expected
    for name in space.names:
        values, column = space.code_table(name)
        assert [c[name] for c in space.enumerate_all()] == [values[i] for i in codes[:, column]]


def test_configs_without_parameters_is_one_empty_dict():
    space = ParameterSpace("none", ())
    assert space.codes().shape == (1, 0)
    assert list(space.configs(space.codes())) == list(space.enumerate_all()) == [{}]


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.name)
def test_codes_of_given_rows(space):
    rows = random.Random(0).sample(range(space.cardinality()), min(20, space.cardinality()))
    assert space.codes(rows).dtype == space.codes().dtype
    assert space.codes(rows).tolist() == space.codes()[rows].tolist()


def test_enumerate_fills_derived_complement(ida):
    for config in ida.enumerate_all():
        assert config["GPU-W"] == 100 - config["CPU-W"]


# ----- validation --------------------------------------------------------------


def test_validate_ok(ida):
    assert ida.validate({"CPU-W": 60, "GPU-W": 40}) == []


def test_validate_complement_violation(ida):
    violations = ida.validate({"CPU-W": 60, "GPU-W": 50})
    assert len(violations) == 1
    assert "GPU-W" in violations[0]


def test_validate_out_of_domain(emil):
    config = emil.make_config(
        {"CPU-T": 24, "ACC-T": 60, "CPU-A": "none", "ACC-A": "balanced", "CPU-W": 50}
    )
    bad = dict(config)
    bad["CPU-T"] = 13
    violations = emil.validate(bad)
    assert any("CPU-T" in v for v in violations)


def test_validate_missing_parameter(ida):
    violations = ida.validate({"CPU-W": 60})
    assert any("GPU-W" in v for v in violations)


def test_validate_unknown_parameter(ida):
    violations = ida.validate({"CPU-W": 60, "GPU-W": 40, "XXX": 1})
    assert any("XXX" in v for v in violations)


@pytest.mark.parametrize(
    "name, value, expected",
    [
        ("CPU-W", True, ["parameter 'ACC-W': expected 100 - CPU-W = 99, got 100"]),
        ("CPU-W", 1.0, []),
        ("CPU-W", 0.0, []),
        ("CPU-W", math.nan, ["parameter 'CPU-W': value nan not in domain"]),
        ("CPU-W", "0", ["parameter 'CPU-W': value '0' not in domain"]),
        ("CPU-W", [0], ["parameter 'CPU-W': value [0] not in domain"]),
        ("CPU-W", 101, ["parameter 'CPU-W': value 101 not in domain",
                        "parameter 'ACC-W': expected 100 - CPU-W = -1, got 100"]),
        ("CPU-A", 0, ["parameter 'CPU-A': value 0 not in domain"]),
        ("CPU-A", {"none"}, ["parameter 'CPU-A': value {'none'} not in domain"]),
    ],
)
def test_validate_is_domain_membership(emil, name, value, expected):
    # As `value in domain`: True == 1 and 1.0 == 1 are members (True then breaks
    # the complement, being 1), NaN and unhashable values are not.
    config = emil.make_config(
        {"CPU-T": 24, "ACC-T": 60, "CPU-A": "none", "ACC-A": "balanced", "CPU-W": 0}
    )
    config[name] = value
    assert emil.validate(config) == expected


def test_make_config_fills_derived(emil):
    config = emil.make_config(
        {"CPU-T": 12, "ACC-T": 60, "CPU-A": "none", "ACC-A": "balanced", "CPU-W": 30}
    )
    assert config["ACC-W"] == 70
    assert emil.validate(config) == []


def test_make_config_passes_unknown_names_to_validate(ida):
    config = ida.make_config({"CPU-W": 10, "nope": 1})
    assert any("nope" in v for v in ida.validate(config))


# ----- random_config ------------------------------------------------------------


def test_random_config_deterministic(emil):
    a = emil.random_config(random.Random(7))
    b = emil.random_config(random.Random(7))
    assert a == b


def test_random_config_always_valid(emil):
    rng = random.Random(123)
    for _ in range(1000):
        assert emil.validate(emil.random_config(rng)) == []


def test_random_config_covers_small_domains(emil):
    rng = random.Random(0)
    seen = {"CPU-T": set(), "ACC-T": set(), "CPU-A": set(), "ACC-A": set()}
    for _ in range(10000):
        config = emil.random_config(rng)
        for name in seen:
            seen[name].add(config[name])
    assert seen["CPU-T"] == {12, 24, 36, 48}
    assert seen["ACC-T"] == {60, 120, 180, 240}
    assert seen["CPU-A"] == {"none", "scatter", "compact"}
    assert seen["ACC-A"] == {"balanced", "scatter", "compact"}


# ----- neighbor -----------------------------------------------------------------


def test_neighbor_changes_exactly_one_free_parameter(emil):
    rng = random.Random(5)
    config = emil.random_config(rng)
    for _ in range(500):
        other = emil.neighbor(config, rng)
        changed = [
            p.name
            for p in emil.free_parameters
            if other[p.name] != config[p.name]
        ]
        assert len(changed) == 1
        # the derived complement follows its source
        assert other["ACC-W"] == 100 - other["CPU-W"]
        config = other


def test_neighbor_never_returns_input(ida):
    rng = random.Random(1)
    config = ida.make_config({"CPU-W": 50})
    for _ in range(1000):
        other = ida.neighbor(config, rng)
        assert other != config


def test_neighbor_deterministic(emil):
    config = emil.random_config(random.Random(3))
    a = emil.neighbor(config, random.Random(11))
    b = emil.neighbor(config, random.Random(11))
    assert a == b


def test_neighbor_always_valid(emil):
    rng = random.Random(42)
    config = emil.random_config(rng)
    for _ in range(1000):
        config = emil.neighbor(config, rng)
        assert emil.validate(config) == []


@pytest.mark.parametrize("current", [150, [50], "50"], ids=["off-domain", "unhashable", "str"])
def test_neighbor_of_a_value_off_its_domain_raises(ida, current):
    with pytest.raises(ValueError, match="not in tuple"):
        ida.neighbor({"CPU-W": current, "GPU-W": 50}, random.Random(0))


def test_neighbor_of_an_equal_value_of_another_type_moves_alike(ida):
    """50.0 and True are not ints, so they are found by equality in the domain."""
    for current in (50.0, True):
        expected = ida.neighbor({"CPU-W": int(current), "GPU-W": 0}, random.Random(4))
        assert ida.neighbor({"CPU-W": current, "GPU-W": 0}, random.Random(4)) == expected


def test_neighbor_requires_an_alternative():
    space = make_space(
        [
            {"name": "CPU-W", "kind": "levels", "values": [100]},
            {"name": "ACC-W", "derived_from": "CPU-W"},
        ]
    )
    config = space.make_config({"CPU-W": 100})
    with pytest.raises(NoNeighborError):
        space.neighbor(config, random.Random(0))


# ----- encoding ----------------------------------------------------------------


def test_encode_categorical_codes(emil):
    config = emil.make_config(
        {"CPU-T": 12, "ACC-T": 60, "CPU-A": "scatter", "ACC-A": "balanced", "CPU-W": 60}
    )
    vector = emil.encode(config)
    names = emil.names
    assert vector[names.index("CPU-A")] == 1.0  # none=0, scatter=1, compact=2
    assert vector[names.index("ACC-A")] == 0.0  # balanced=0
    assert vector[names.index("CPU-W")] == 60.0


def test_encode_arity(emil):
    config = emil.random_config(random.Random(0))
    assert len(emil.encode(config)) == len(emil.names) == 6


def reference_encode(space, config):
    """Encoding through `Parameter.code_of` alone, one parameter at a time."""
    return tuple(p.code_of(config[p.name]) for p in space.parameters)


@pytest.mark.parametrize("name", ["emil", "ida"])
def test_encode_matches_code_of_on_every_configuration(name):
    space = bundled_space(name)
    for config in space.enumerate_all():
        assert space.encode(config) == reference_encode(space, config)


@pytest.mark.parametrize(
    "override",
    [{"CPU-T": True}, {"CPU-W": True}, {"CPU-A": 1.0}, {"CPU-A": "nope"}, {"ACC-A": None}],
    ids=["bool-off-domain", "bool-on-domain", "float-on-categorical", "unknown-label",
         "none-label"],
)
def test_encode_rejects_what_code_of_rejects(emil, override):
    config = {**emil.random_config(random.Random(4)), **override}
    with pytest.raises(EncodingError):
        emil.encode(config)


def test_encode_rejects_missing_parameter(emil):
    config = emil.random_config(random.Random(4))
    del config["ACC-T"]
    with pytest.raises(EncodingError, match="ACC-T"):
        emil.encode(config)


@pytest.mark.parametrize(
    "override",
    [{"CPU-T": 13}, {"CPU-A": 2}, {"CPU-W": 24.0}, {"CPU-W": -0.0}, {"CPU-W": 2.5}],
    ids=["off-domain-int", "categorical-int-code", "float-on-grid", "negative-zero", "off-grid-float"],
)
def test_encode_off_table_values_as_code_of(emil, override):
    config = {**emil.random_config(random.Random(4)), **override}
    encoded, expected = emil.encode(config), reference_encode(emil, config)
    assert encoded == expected
    assert [math.copysign(1.0, v) for v in encoded] == [math.copysign(1.0, v) for v in expected]


def test_space_equality_and_hash_stay_on_fields(emil):
    again = bundled_space("emil")
    again.encode(again.random_config(random.Random(0)))
    assert again == emil and hash(again) == hash(emil)
    assert again != bundled_space("ida")


def test_config_key_is_hashable_and_order_fixed(emil):
    config = emil.random_config(random.Random(2))
    key = emil.config_key(config)
    assert key == tuple(config[name] for name in emil.names)
    hash(key)


# ----- definitions and bundled spaces -------------------------------------------


def test_bundled_space_names():
    assert bundled_space_names() == ["emil", "ida"]


def test_bundled_space_returns_parameter_space(ida):
    assert isinstance(ida, ParameterSpace)
    assert ida.name == "ida"


def test_unknown_bundled_space():
    with pytest.raises(SpaceDefinitionError):
        bundled_space("nope")


def test_definition_rejects_duplicate_names():
    with pytest.raises(SpaceDefinitionError):
        make_space(
            [
                {"name": "A", "kind": "levels", "values": [1]},
                {"name": "A", "kind": "levels", "values": [2]},
            ]
        )


def test_definition_rejects_unknown_derived_source():
    with pytest.raises(SpaceDefinitionError):
        make_space([{"name": "B", "derived_from": "missing"}])


def test_definition_rejects_empty_domain():
    with pytest.raises(SpaceDefinitionError):
        make_space([{"name": "A", "kind": "levels", "values": []}])


def test_definition_rejects_bad_range():
    with pytest.raises(SpaceDefinitionError):
        make_space([{"name": "A", "kind": "range", "min": 5, "max": 1}])


def test_definition_caps_range_length():
    assert make_space([{"name": "A", "kind": "range", "min": 1, "max": MAX_RANGE_VALUES}]
                      ).cardinality() == MAX_RANGE_VALUES
    # one value more is rejected from min and max alone, as is a span of 10**10
    for hi in (MAX_RANGE_VALUES + 1, 10**10):
        with pytest.raises(SpaceDefinitionError, match=f"range of {hi} values"):
            make_space([{"name": "A", "kind": "range", "min": 1, "max": hi}])


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "A", "kind": "levels", "values": [0, True]},
        {"name": "A", "kind": "levels", "values": [False, 5]},
        {"name": "A", "kind": "range", "min": False, "max": 4},
        {"name": "A", "kind": "range", "min": 0, "max": True},
    ],
    ids=["level-true", "level-false", "range-min", "range-max"],
)
def test_definition_rejects_booleans_in_numeric_domains(entry):
    with pytest.raises(SpaceDefinitionError):
        make_space([entry])
