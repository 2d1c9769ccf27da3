"""Performance, power and energy-efficiency metrics.

A raw measurement records, for one configuration, the workload size and the
per-unit processing times, energies and workload shares of the CPU and the
accelerator. All derived quantities follow from those fields:

    time                = max(cpu_time, acc_time)
    throughput          = workload / time            (per unit: own workload / own time)
    energy              = cpu_energy + acc_energy
    power               = cpu_energy/cpu_time + acc_energy/acc_time
    energy efficiency   = throughput / power

MB means 10**6 bytes throughout. An idle unit (zero workload) contributes
zero time, zero energy, zero throughput and zero power.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from ._documents import failures_as, read
from .space import Configuration, ParameterSpace

#: Measurement-log value columns, in order, following the space's parameter
#: name columns.
LOG_VALUE_COLUMNS = (
    "workload_mb",
    "cpu_time_s",
    "acc_time_s",
    "cpu_energy_j",
    "acc_energy_j",
    "cpu_workload_mb",
    "acc_workload_mb",
)

_REL_TOL = 1e-9


class InvalidMeasurementError(ValueError):
    """A raw measurement violates a physical consistency constraint."""


class UndefinedEfficiencyError(ValueError):
    """Energy efficiency is undefined (zero total power)."""


class MeasurementLogError(ValueError):
    """A measurement log file is malformed.

    Attributes:
        line_number: 1-based line of the offending record, 0 for file-level
            problems.
    """

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class RawMeasurement:
    """One measured experiment for a single configuration."""

    config: Configuration
    workload_mb: float
    cpu_time_s: float
    acc_time_s: float
    cpu_energy_j: float
    acc_energy_j: float
    cpu_workload_mb: float
    acc_workload_mb: float

    def __post_init__(self) -> None:
        for name in LOG_VALUE_COLUMNS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidMeasurementError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        total = self.cpu_workload_mb + self.acc_workload_mb
        if not math.isclose(total, self.workload_mb, rel_tol=_REL_TOL, abs_tol=_REL_TOL):
            raise InvalidMeasurementError(
                f"unit workloads sum to {total!r}, expected {self.workload_mb!r}"
            )
        for unit in ("cpu", "acc"):
            workload = getattr(self, f"{unit}_workload_mb")
            if workload == 0:
                if getattr(self, f"{unit}_time_s") != 0:
                    raise InvalidMeasurementError(
                        f"idle {unit} unit must have zero time"
                    )
                if getattr(self, f"{unit}_energy_j") != 0:
                    raise InvalidMeasurementError(
                        f"idle {unit} unit must have zero energy"
                    )


class PowerBreakdown(NamedTuple):
    cpu_w: float
    acc_w: float
    total_w: float


@dataclass(frozen=True)
class DerivedMetrics:
    """All derived quantities for one measurement."""

    time_s: float
    throughput_mb_s: float
    cpu_throughput_mb_s: float
    acc_throughput_mb_s: float
    energy_j: float
    cpu_power_w: float
    acc_power_w: float
    power_w: float
    energy_efficiency_mb_j: float


def exec_time(m: RawMeasurement) -> float:
    """Execution time of the slower unit, in seconds."""
    return max(m.cpu_time_s, m.acc_time_s)


def throughput(m: RawMeasurement) -> float:
    """Total throughput in MB/s."""
    time_s = exec_time(m)
    if time_s <= 0:
        raise InvalidMeasurementError("zero execution time")
    return m.workload_mb / time_s


def unit_throughputs(m: RawMeasurement) -> tuple[float, float]:
    """Per-unit throughputs in MB/s; an idle unit yields 0.0."""
    out = []
    for unit in ("cpu", "acc"):
        workload = getattr(m, f"{unit}_workload_mb")
        time_s = getattr(m, f"{unit}_time_s")
        if workload == 0:
            out.append(0.0)
        elif time_s <= 0:
            raise InvalidMeasurementError(
                f"{unit} unit has workload {workload!r} but zero time"
            )
        else:
            out.append(workload / time_s)
    return out[0], out[1]


def energy(m: RawMeasurement) -> float:
    """Total consumed energy in joules."""
    return m.cpu_energy_j + m.acc_energy_j


def power(m: RawMeasurement) -> PowerBreakdown:
    """Per-unit and total power in watts.

    Per-unit power is the unit's energy over its own time; the total is the
    sum of the unit terms. An idle unit contributes 0 W.
    """
    terms = []
    for unit in ("cpu", "acc"):
        energy_j = getattr(m, f"{unit}_energy_j")
        time_s = getattr(m, f"{unit}_time_s")
        if energy_j > 0 and time_s <= 0:
            raise InvalidMeasurementError(
                f"{unit} unit has energy {energy_j!r} but zero time"
            )
        terms.append(energy_j / time_s if time_s > 0 else 0.0)
    return PowerBreakdown(terms[0], terms[1], terms[0] + terms[1])


def energy_efficiency(m: RawMeasurement) -> float:
    """Energy efficiency in MB/J (throughput over total power)."""
    total_power = power(m).total_w
    if total_power <= 0:
        raise UndefinedEfficiencyError("zero total power")
    return throughput(m) / total_power


def energy_efficiencies(
    workload_mb: np.ndarray | float,
    cpu_time_s: np.ndarray | float,
    acc_time_s: np.ndarray | float,
    cpu_energy_j: np.ndarray | float,
    acc_energy_j: np.ndarray | float,
    cpu_workload_mb: np.ndarray | float,
    acc_workload_mb: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """`energy_efficiency` of many measurements given as columns (arrays, or
    numbers shared by every row), with the same operations in the same order.

    Returns the efficiencies and which rows are valid: a row is invalid where
    RawMeasurement or `energy_efficiency` would raise, and its value is then
    meaningless.
    """
    columns = (workload_mb, cpu_time_s, acc_time_s, cpu_energy_j, acc_energy_j,
               cpu_workload_mb, acc_workload_mb)
    with np.errstate(all="ignore"):  # invalid rows may divide by zero
        total = cpu_workload_mb + acc_workload_mb  # math.isclose(total, workload_mb)
        gap = np.abs(workload_mb - total)
        valid = np.isfinite(total) & (
            (total == workload_mb)
            | (gap <= np.abs(_REL_TOL * workload_mb))
            | (gap <= np.abs(_REL_TOL * total))
            | (gap <= _REL_TOL)
        )
        for column in columns:
            valid = valid & np.isfinite(column) & (column >= 0)
        for workload, time_s, energy_j in ((cpu_workload_mb, cpu_time_s, cpu_energy_j),
                                           (acc_workload_mb, acc_time_s, acc_energy_j)):
            valid = valid & ((workload != 0) | ((time_s == 0) & (energy_j == 0)))  # idle
            valid = valid & ((energy_j <= 0) | (time_s > 0))
        total_w = (np.where(cpu_time_s > 0, cpu_energy_j / cpu_time_s, 0.0)
                   + np.where(acc_time_s > 0, acc_energy_j / acc_time_s, 0.0))
        time_s = np.maximum(cpu_time_s, acc_time_s)
        valid = valid & (total_w > 0) & (time_s > 0)
        return workload_mb / time_s / total_w, valid


def derive_all(m: RawMeasurement) -> DerivedMetrics:
    """Compute every derived metric for one measurement."""
    cpu_thr, acc_thr = unit_throughputs(m)
    pw = power(m)
    return DerivedMetrics(
        time_s=exec_time(m),
        throughput_mb_s=throughput(m),
        cpu_throughput_mb_s=cpu_thr,
        acc_throughput_mb_s=acc_thr,
        energy_j=energy(m),
        cpu_power_w=pw.cpu_w,
        acc_power_w=pw.acc_w,
        power_w=pw.total_w,
        energy_efficiency_mb_j=energy_efficiency(m),
    )


# ----- measurement logs -------------------------------------------------------


def log_header(space: ParameterSpace) -> list[str]:
    return list(space.names) + list(LOG_VALUE_COLUMNS)


def _format_config_value(value: Any) -> str:
    return value if isinstance(value, str) else str(value)


def measurement_to_row(m: RawMeasurement, space: ParameterSpace) -> list[str]:
    """Serialize one measurement as a log row."""
    row = [_format_config_value(m.config[name]) for name in space.names]
    row += [repr(float(getattr(m, col))) for col in LOG_VALUE_COLUMNS]
    return row


def parse_measurement_row(
    fields: Sequence[str], space: ParameterSpace, line_number: int = 0
) -> RawMeasurement:
    """Parse one log row into a measurement, validating against the space."""
    expected = len(space.names) + len(LOG_VALUE_COLUMNS)
    if len(fields) != expected:
        raise MeasurementLogError(
            f"line {line_number}: expected {expected} fields, got {len(fields)}",
            line_number,
        )
    config: Configuration = {}
    for param, field in zip(space.parameters, fields):
        if param.is_numeric:
            try:
                config[param.name] = int(field)
            except ValueError:
                raise MeasurementLogError(
                    f"line {line_number}: parameter {param.name!r}: "
                    f"invalid integer {field!r}",
                    line_number,
                ) from None
        else:
            config[param.name] = field
    violations = space.validate(config)
    if violations:
        raise MeasurementLogError(
            f"line {line_number}: {'; '.join(violations)}", line_number
        )
    values = []
    for column, field in zip(LOG_VALUE_COLUMNS, fields[len(space.names):]):
        try:
            values.append(float(field))
        except ValueError:
            raise MeasurementLogError(
                f"line {line_number}: column {column!r}: invalid number {field!r}",
                line_number,
            ) from None
    try:
        return RawMeasurement(config, *values)
    except InvalidMeasurementError as exc:
        raise MeasurementLogError(f"line {line_number}: {exc}", line_number) from exc


def write_measurement_log(
    path: str, space: ParameterSpace, measurements: Iterable[RawMeasurement]
) -> int:
    """Write a log with a header row; returns the number of data rows."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(log_header(space))
        for m in measurements:
            writer.writerow(measurement_to_row(m, space))
            count += 1
    return count


def log_has_header(path: str) -> bool:
    """Whether a log exists with a first line to append after; raises
    MeasurementLogError if it is not UTF-8 text."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return False
    with handle, failures_as(MeasurementLogError, f"measurement log {path}"):
        return bool(handle.readline().strip())


def append_measurement(path: str, space: ParameterSpace, m: RawMeasurement) -> None:
    """Append one row, writing the header first if the file does not exist."""
    has_header = log_has_header(path)
    with open(path, "a", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        if not has_header:
            writer.writerow(log_header(space))
        writer.writerow(measurement_to_row(m, space))


def read_measurement_log(path: str, space: ParameterSpace) -> list[RawMeasurement]:
    """Read a whole log; raises MeasurementLogError, with a line number where
    one row is at fault."""
    return read_measurement_lines(path, space)[0]


def read_measurement_lines(
    path: str, space: ParameterSpace
) -> tuple[list[RawMeasurement], list[int]]:
    """`read_measurement_log`, with the line each row ends on."""
    return read(path, csv.reader, lambda reader: _parse_log(reader, space),
                MeasurementLogError, "measurement log")


def _parse_log(reader: Any, space: ParameterSpace) -> tuple[list[RawMeasurement], list[int]]:
    try:
        header = next(reader)
        if header != log_header(space):
            raise MeasurementLogError(
                f"line 1: header {header!r} does not match space {space.name!r}", 1
            )
        measurements, lines = [], []
        for fields in reader:
            if not fields:
                continue
            measurements.append(parse_measurement_row(fields, space, reader.line_num))
            lines.append(reader.line_num)
    except StopIteration:
        raise MeasurementLogError("empty measurement log", 1) from None
    except csv.Error as exc:  # a line csv cannot split, such as an overlong field
        raise MeasurementLogError(f"line {reader.line_num}: {exc}", reader.line_num) from exc
    return measurements, lines
