"""Discrete configuration spaces for heterogeneous-system tuning.

A space is an ordered list of named parameters. Numeric parameters carry an
ordered integer domain, categorical parameters carry an ordered label list
whose integer codes are the label positions. A parameter may be derived as
the complement-to-100 of another parameter (workload split percentages),
in which case it contributes no free dimension to the search.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Iterator, Mapping, Sequence

import numpy as np
import yaml

from ._documents import read

KIND_RANGE = "range"
KIND_LEVELS = "levels"
KIND_CATEGORICAL = "categorical"
_NUMERIC_KINDS = (KIND_RANGE, KIND_LEVELS)
_ALL_KINDS = (KIND_RANGE, KIND_LEVELS, KIND_CATEGORICAL)

COMPLEMENT_TOTAL = 100

# Most values a `range` parameter may span. Its domain is built as a tuple of
# Python ints, and the lookup tables grow with it: loading costs about 220
# bytes per value (10**6 values: 1.2 s and 218 MiB on a 2-CPU Xeon), so a
# typo such as `max: 10000000000` would ask for terabytes. 2**16 values load
# in 0.2 s, and their `codes()` column still fits `uint16`; the bundled
# ranges hold 101 values.
MAX_RANGE_VALUES = 2**16

# Probability that a numeric move steps to an adjacent level instead of a
# uniformly drawn one.
ADJACENT_MOVE_PROBABILITY = 0.5

#: A configuration is a plain mapping from parameter name to value. Numeric
#: parameters hold ints, categorical parameters hold their labels.
Configuration = dict[str, Any]

#: Encoded configuration: one float per parameter, in space order.
FeatureVector = tuple[float, ...]


class SpaceDefinitionError(ValueError):
    """A space definition file or parameter set is malformed."""


class EncodingError(ValueError):
    """A configuration cannot be encoded against its space."""


class NoNeighborError(RuntimeError):
    """No single-parameter move is possible in this space."""


_MISSING = object()


def _is_int(value: Any) -> bool:
    """An int that is not a bool, which YAML's true/false load as."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Parameter:
    """One tunable dimension of a configuration space.

    Attributes:
        name: unique identifier within the space.
        kind: "range", "levels" or "categorical".
        domain: admissible values in order. Integers for numeric kinds,
            labels for categorical (code of a label = its position).
        derived_from: name of the source parameter when this parameter is
            the complement-to-100 of another one, else None.
    """

    name: str
    kind: str
    domain: tuple[Any, ...]
    derived_from: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpaceDefinitionError("parameter name must be non-empty")
        if self.kind not in _ALL_KINDS:
            raise SpaceDefinitionError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}"
            )
        if len(self.domain) == 0:
            raise SpaceDefinitionError(f"parameter {self.name!r}: empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise SpaceDefinitionError(
                f"parameter {self.name!r}: duplicate domain values"
            )
        if self.kind in _NUMERIC_KINDS:
            if not all(_is_int(v) for v in self.domain):
                raise SpaceDefinitionError(
                    f"parameter {self.name!r}: numeric domains must be integers, not booleans"
                )
            if any(a >= b for a, b in zip(self.domain, self.domain[1:])):
                raise SpaceDefinitionError(
                    f"parameter {self.name!r}: numeric domain must be strictly increasing"
                )
        else:
            if not all(isinstance(v, str) for v in self.domain):
                raise SpaceDefinitionError(
                    f"parameter {self.name!r}: categorical domain must be labels"
                )

    @property
    def is_derived(self) -> bool:
        return self.derived_from is not None

    @property
    def is_numeric(self) -> bool:
        return self.kind in _NUMERIC_KINDS

    @property
    def size(self) -> int:
        return len(self.domain)

    def code_of(self, value: Any) -> float:
        """Map a value to its numeric feature encoding."""
        if self.is_numeric:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EncodingError(
                    f"parameter {self.name!r}: expected a number, got {value!r}"
                )
            return float(value)
        if isinstance(value, str):
            try:
                return float(self.domain.index(value))
            except ValueError:
                raise EncodingError(
                    f"parameter {self.name!r}: unknown label {value!r}"
                ) from None
        if isinstance(value, int) and 0 <= value < len(self.domain):
            return float(value)
        raise EncodingError(
            f"parameter {self.name!r}: unknown label {value!r}"
        )

    def canonical_value(self, value: Any) -> Any:
        """Normalize a raw input value to its domain representation.

        Categorical parameters accept either the label or its integer code
        and normalize to the label. Numeric values pass through unchanged.
        """
        if (
            not self.is_numeric
            and _is_int(value)
            and 0 <= value < len(self.domain)
        ):
            return self.domain[value]
        return value


@dataclass(frozen=True)
class ParameterSpace:
    """An ordered, validated set of parameters."""

    name: str
    parameters: tuple[Parameter, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise SpaceDefinitionError(f"space {self.name!r}: duplicate parameter names")
        by_name = {p.name: p for p in self.parameters}
        for p in self.parameters:
            if not p.is_derived:
                continue
            source = by_name.get(p.derived_from)
            if source is None:
                raise SpaceDefinitionError(
                    f"space {self.name!r}: {p.name!r} derives from unknown "
                    f"parameter {p.derived_from!r}"
                )
            if source.is_derived:
                raise SpaceDefinitionError(
                    f"space {self.name!r}: {p.name!r} derives from derived "
                    f"parameter {source.name!r}"
                )
            if not source.is_numeric or not p.is_numeric:
                raise SpaceDefinitionError(
                    f"space {self.name!r}: complement parameters must be numeric"
                )
        # Lookup tables built once; they are not fields, so equality and the
        # hash stay on (name, parameters).
        free = tuple(p for p in self.parameters if not p.is_derived)
        derived = tuple((p.name, p.derived_from) for p in self.parameters if p.is_derived)
        column = {p.name: j for j, p in enumerate(free)}
        tables = {
            "_names": tuple(names),
            "_name_set": frozenset(names),
            "_by_name": by_name,
            "_free": free,
            "_derived": derived,
            # Per free parameter with more than one value: its column in `codes`.
            "_movable": tuple((j, p) for j, p in enumerate(free) if p.size > 1),
            # Per parameter: the exact value type of its domain and a
            # value -> code table, so `encode` skips `code_of` on a hit.
            "_encoders": tuple(
                (p, int if p.is_numeric else str,
                 {v: p.code_of(v) for v in p.domain})
                for p in self.parameters
            ),
            # Per parameter, in `enumerate_all`'s key order: its value at each
            # code of the free parameter it follows, and that one's column in `codes`.
            "_code_tables": {
                **{p.name: (p.domain, j) for j, p in enumerate(free)},
                **{name: (tuple(COMPLEMENT_TOTAL - v for v in by_name[source].domain),
                          column[source])
                   for name, source in derived},
            },
        }
        for attr, table in tables.items():
            object.__setattr__(self, attr, table)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def free_parameters(self) -> tuple[Parameter, ...]:
        return self._free

    def parameter(self, name: str) -> Parameter:
        return self._by_name[name]

    def complement_sources(self) -> tuple[str, ...]:
        """Names of parameters that some derived parameter complements."""
        return tuple(dict.fromkeys(source for _, source in self._derived))

    # ----- enumeration ---------------------------------------------------

    def cardinality(self) -> int:
        """Number of distinct configurations (product of free domain sizes)."""
        return math.prod(p.size for p in self.free_parameters)

    def enumerate_all(self) -> Iterator[Configuration]:
        """Yield every configuration in lexicographic domain order."""
        yield from self.configs(self.codes())

    def codes(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """Every configuration as one row of free-parameter domain positions,
        in `enumerate_all` order: an (N, free) matrix of the smallest unsigned
        dtype. With `rows`, only those rows of it, in the order given."""
        sizes = [p.size for p in self._free]
        dtype = np.min_scalar_type(max(sizes, default=1) - 1)
        if rows is None:
            return np.indices(sizes, dtype=dtype).reshape(len(sizes), self.cardinality()).T
        # A trailing axis of size one keeps unravel_index defined without parameters.
        return np.array(np.unravel_index(rows, [*sizes, 1]), dtype=dtype)[:-1].T

    def code_table(self, name: str) -> tuple[tuple[Any, ...], int]:
        """The values of parameter `name` by code, and the column of `codes`
        that holds its code (its complement source's, for a derived parameter)."""
        return self._code_tables[name]

    def config_at(self, row: Sequence[int]) -> Configuration:
        """The configuration of one row of `codes`, keyed as `enumerate_all` keys it."""
        return {name: values[row[j]] for name, (values, j) in self._code_tables.items()}

    def configs(self, codes: np.ndarray) -> Iterator[Configuration]:
        """A fresh configuration per row of `codes`, keyed as `enumerate_all` keys
        it: each parameter's values are gathered for all rows, then zipped."""
        columns = [np.array(values, dtype=object)[codes[:, j]].tolist()
                   for values, j in self._code_tables.values()]
        rows = zip(*columns) if columns else [()] * len(codes)  # a row without parameters is {}
        return map(dict, map(zip, [tuple(self._code_tables)] * len(codes), rows))

    def make_config(self, assignment: Mapping[str, Any]) -> Configuration:
        """Build a configuration from a (possibly partial) assignment.

        Missing derived parameters are filled from their sources, and
        categorical codes are normalized to labels. The result is not
        validated; call :meth:`validate` for that.
        """
        config: Configuration = {}
        for name, value in assignment.items():
            param = self._by_name.get(name)
            config[name] = value if param is None else param.canonical_value(value)
        missing_sources = [
            name for name, source in self._derived
            if name not in config and source not in config
        ]
        if missing_sources:
            names = ", ".join(missing_sources)
            raise SpaceDefinitionError(f"cannot fill derived parameter(s): {names}")
        for name, source in self._derived:
            if name not in config:
                config[name] = COMPLEMENT_TOTAL - config[source]
        return config

    # ----- validation ----------------------------------------------------

    def validate(self, config: Mapping[str, Any]) -> list[str]:
        """Return a list of violations; an empty list means valid."""
        violations: list[str] = []
        for p, _, codes in self._encoders:
            if p.name not in config:
                violations.append(f"missing parameter {p.name!r}")
                continue
            value = config[p.name]
            try:
                known = value in codes  # as `in p.domain`: hash, then ==
            except TypeError:  # unhashable
                known = value in p.domain
            if not known:
                violations.append(
                    f"parameter {p.name!r}: value {value!r} not in domain"
                )
                continue
            if p.derived_from is not None and p.derived_from in config:
                source_value = config[p.derived_from]
                if isinstance(source_value, int) and value != COMPLEMENT_TOTAL - source_value:
                    violations.append(
                        f"parameter {p.name!r}: expected "
                        f"{COMPLEMENT_TOTAL} - {p.derived_from} = "
                        f"{COMPLEMENT_TOTAL - source_value}, got {value!r}"
                    )
        for name in config:
            if name not in self._name_set:
                violations.append(f"unknown parameter {name!r}")
        return violations

    # ----- sampling and moves ---------------------------------------------

    def random_row(self, rng: random.Random) -> tuple[int, ...]:
        """Draw each free parameter's position uniformly: one row of `codes`."""
        return tuple(rng.randrange(p.size) for p in self._free)

    def neighbor(self, row: Sequence[int], rng: random.Random) -> tuple[int, ...]:
        """Return a copy of a row of `codes` with exactly one position changed.

        The modified parameter is chosen uniformly among free parameters
        with more than one admissible value. Ordered numeric domains move
        to an adjacent level with probability 0.5 and to a uniformly drawn
        different level otherwise; categorical parameters draw uniformly
        among the other labels.
        """
        if not self._movable:
            raise NoNeighborError(
                f"space {self.name!r} has no free parameter with more than one value"
            )
        column, param = rng.choice(self._movable)
        idx = row[column]
        if param.is_numeric and rng.random() < ADJACENT_MOVE_PROBABILITY:
            if idx == 0:
                new_idx = 1
            elif idx == param.size - 1:
                new_idx = param.size - 2
            else:
                new_idx = idx + rng.choice((-1, 1))
        else:
            new_idx = rng.randrange(param.size - 1)
            if new_idx >= idx:
                new_idx += 1
        return (*row[:column], new_idx, *row[column + 1:])

    # ----- encoding --------------------------------------------------------

    def encode(self, config: Mapping[str, Any]) -> FeatureVector:
        """Encode a configuration as one float per parameter, in space order.

        Numeric values pass through; categorical labels map to their codes.
        A value off its domain table is encoded by `Parameter.code_of`.
        """
        values = []
        for p, value_type, codes in self._encoders:
            value = config.get(p.name, _MISSING)
            if value is _MISSING:
                raise EncodingError(f"missing parameter {p.name!r}")
            code = codes.get(value) if type(value) is value_type else None
            values.append(p.code_of(value) if code is None else code)
        return tuple(values)

    def config_key(self, config: Mapping[str, Any]) -> tuple[Any, ...]:
        """Hashable identity of a configuration (values in space order)."""
        try:
            return tuple(map(config.__getitem__, self._names))
        except KeyError as exc:
            raise EncodingError(f"missing parameter {exc.args[0]!r}") from None


# ----- definition files -----------------------------------------------------


def space_from_dict(doc: Mapping[str, Any]) -> ParameterSpace:
    """Build a space from a parsed definition document."""
    if not isinstance(doc, Mapping):
        raise SpaceDefinitionError("space definition must be a mapping")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SpaceDefinitionError("space definition needs a non-empty 'name'")
    raw_params = doc.get("parameters")
    if not isinstance(raw_params, list) or not raw_params:
        raise SpaceDefinitionError("space definition needs a 'parameters' list")

    parsed: list[Parameter] = []
    pending: list[tuple[str, str]] = []  # (name, derived_from)
    for entry in raw_params:
        if not isinstance(entry, Mapping):
            raise SpaceDefinitionError("each parameter must be a mapping")
        pname = entry.get("name")
        if not isinstance(pname, str) or not pname:
            raise SpaceDefinitionError("each parameter needs a non-empty 'name'")
        derived_from = entry.get("derived_from")
        if derived_from is not None:
            if not isinstance(derived_from, str):
                raise SpaceDefinitionError(
                    f"parameter {pname!r}: 'derived_from' must be a parameter name"
                )
            pending.append((pname, derived_from))
            continue
        kind = entry.get("kind")
        if kind == KIND_RANGE:
            lo, hi = entry.get("min"), entry.get("max")
            if not _is_int(lo) or not _is_int(hi) or lo > hi:
                raise SpaceDefinitionError(
                    f"parameter {pname!r}: range needs integer min <= max"
                )
            if hi - lo >= MAX_RANGE_VALUES:
                raise SpaceDefinitionError(
                    f"parameter {pname!r}: range of {hi - lo + 1} values is longer "
                    f"than {MAX_RANGE_VALUES}"
                )
            domain: tuple[Any, ...] = tuple(range(lo, hi + 1))
        elif kind == KIND_LEVELS:
            values = entry.get("values")
            if not isinstance(values, list) or not values:
                raise SpaceDefinitionError(
                    f"parameter {pname!r}: levels need a 'values' list"
                )
            domain = tuple(values)
        elif kind == KIND_CATEGORICAL:
            labels = entry.get("labels")
            if not isinstance(labels, list) or not labels:
                raise SpaceDefinitionError(
                    f"parameter {pname!r}: categorical needs a 'labels' list"
                )
            domain = tuple(labels)
        else:
            raise SpaceDefinitionError(
                f"parameter {pname!r}: unknown kind {kind!r}"
            )
        parsed.append(Parameter(pname, kind, domain))

    by_name = {p.name: p for p in parsed}
    derived: dict[str, Parameter] = {}
    for pname, source_name in pending:
        source = by_name.get(source_name)
        if source is None:
            raise SpaceDefinitionError(
                f"parameter {pname!r} derives from unknown parameter {source_name!r}"
            )
        if not source.is_numeric:
            raise SpaceDefinitionError(
                f"parameter {pname!r}: complement source must be numeric"
            )
        domain = tuple(sorted(COMPLEMENT_TOTAL - v for v in source.domain))
        derived[pname] = Parameter(pname, source.kind, domain, derived_from=source_name)

    ordered: list[Parameter] = []
    for entry in raw_params:
        pname = entry["name"]
        ordered.append(derived[pname] if pname in derived else by_name[pname])
    return ParameterSpace(name, tuple(ordered))


def load_space(path: str) -> ParameterSpace:
    """Load a space definition from a YAML file; a malformed one raises SpaceDefinitionError."""
    return read(path, yaml.safe_load, space_from_dict, SpaceDefinitionError, "space definition")


def _data_dir():
    return resources.files("heterotune").joinpath("data")


def bundled_space_names() -> list[str]:
    """Names of the space definitions shipped with the package."""
    out = []
    for item in _data_dir().iterdir():
        if item.name.endswith(".yaml"):
            out.append(item.name[: -len(".yaml")])
    return sorted(out)


def bundled_space(name: str) -> ParameterSpace:
    """Load one of the space definitions shipped with the package."""
    ref = _data_dir().joinpath(f"{name}.yaml")
    if not ref.is_file():
        raise SpaceDefinitionError(
            f"no bundled space {name!r}; available: {', '.join(bundled_space_names())}"
        )
    return load_space(str(ref))


def bundled_data_path(name: str) -> str:
    """Filesystem path of a CSV fixture shipped with the package."""
    ref = _data_dir().joinpath(f"{name}.csv")
    if not ref.is_file():
        available = sorted(
            item.name[: -len(".csv")]
            for item in _data_dir().iterdir()
            if item.name.endswith(".csv")
        )
        raise FileNotFoundError(
            f"no bundled data file {name!r}; available: {', '.join(available)}"
        )
    return str(ref)
