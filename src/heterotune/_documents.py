"""One reading policy for every persisted file (model, campaign report, space
definition, measurement log): which failures mean the file is malformed, and
the value checks the builders share. The checks raise ValueError, which
`failures_as` turns into the reader's own error class."""
from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from typing import IO, Any, Callable, Iterator, TypeVar

import yaml

T = TypeVar("T")

# The file cannot be opened, decoded or parsed (RecursionError: nested too
# deep for the parser), or a value in it makes building fail.
_DATA_ERRORS = (
    OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError, yaml.YAMLError,
    csv.Error, KeyError, TypeError, ValueError, OverflowError,
)


@contextmanager
def failures_as(error: type[Exception], what: str) -> Iterator[None]:
    """Raise each bad-data failure in the block as `error`; one already of
    that class passes through unchanged."""
    try:
        yield
    except error:
        raise
    except _DATA_ERRORS as exc:
        problem = "cannot read" if isinstance(exc, OSError) else "malformed"
        detail = f"missing {exc}" if type(exc) is KeyError else exc
        raise error(f"{problem} {what}: {detail}") from exc


def read(path: Any, parse: Callable[[IO[str]], Any], build: Callable[[Any], T],
         error: type[Exception], what: str) -> T:
    """`build(parse(file))` for the UTF-8 text file at `path`, opened with
    newline="" as csv needs; its failures are raised as `error`."""
    with failures_as(error, f"{what} {path}"), open(path, encoding="utf-8", newline="") as f:
        return build(parse(f))


def exact(value: Any, kind: type, what: str) -> Any:
    """`value`, if it is exactly a `kind` (a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def finite(value: Any, what: str) -> Any:
    """`value`, if it is a finite number: a bool is none, and an int outside
    the float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also false for NaN
        raise ValueError(f"{what} {value!r} is not finite")
    return value
