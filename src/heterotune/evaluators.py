"""Evaluation backends: surrogate model, replay, synthetic oracles, commands.

Every evaluator maps a configuration to its energy efficiency in MB/J. The
measuring evaluators (replay, oracles, commands) share measure(config) ->
RawMeasurement, from which the base class derives MB/J. Deduplication of
repeated configurations is the searcher's job, not the evaluator's.

The synthetic oracles produce full raw measurements from closed-form cost
models, so generated datasets replay to exactly the same efficiencies.

Evaluators whose evaluation is pure (deterministic and free of side
effects), the model and the emil-pm oracle, also offer
evaluate_codes(space, codes), which scores rows of `space.codes()` in one
call: `[evaluate(c) for c in space.configs(codes)]` bit for bit, or None
where it cannot give that, a subclass's `evaluate` included. Measuring
through commands has side effects, so they have none.
"""
from __future__ import annotations

import csv
import hashlib
import math
import re
import shlex
import subprocess
from typing import Any, Iterator, Mapping

import numpy as np

from . import metrics
from .metrics import (
    MeasurementLogError,
    RawMeasurement,
    append_measurement,
    log_has_header,
    log_header,
    parse_measurement_row,
    read_measurement_log,
)
from .space import Configuration, EncodingError, ParameterSpace
from .surrogate import BoostedModel, load_model, predict_boosted, predict_boosted_batch

ELEMENT_BYTES = 4
MB = 1e6


class NotRecordedError(LookupError):
    """Replay was asked for a configuration missing from its log."""


class AmbiguousLogError(ValueError):
    """A replay log records the same configuration more than once."""


class CommandExecutionError(RuntimeError):
    """An external measurement command failed.

    Attributes:
        command: the substituted command line.
        returncode: process exit status, or None for timeouts.
        stdout, stderr: captured output.
    """

    def __init__(
        self,
        message: str,
        command: str,
        returncode: int | None = None,
        stdout: str = "",
        stderr: str = "",
    ):
        super().__init__(message)
        self.command = command
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def _batch_matches(evaluator: Any, cls: type) -> bool:
    """Whether `cls.evaluate_codes` gives `evaluator.evaluate`'s values: not
    for a subclass, nor for an instance whose `evaluate` or `measure` was
    replaced by assignment."""
    return type(evaluator) is cls and not {"evaluate", "measure"} & vars(evaluator).keys()


class Evaluator:
    """Base class: evaluation defaults to MB/J of self.measure(config)."""

    def evaluate(self, config: Configuration) -> float:
        """Energy efficiency of `config` in MB/J."""
        return metrics.energy_efficiency(self.measure(config))  # type: ignore[attr-defined]

    def describe(self) -> str:
        return type(self).__name__


class ModelEvaluator(Evaluator):
    """Predicts efficiency with a trained boosted regression tree model."""

    def __init__(self, model: BoostedModel, space: ParameterSpace, source: str | None = None):
        if tuple(model.feature_names) != space.names:
            raise ValueError(
                f"model features {model.feature_names!r} do not match space "
                f"parameters {space.names!r}"
            )
        self.model = model
        self.space = space
        self.source = source

    @classmethod
    def from_file(cls, path: str, space: ParameterSpace) -> "ModelEvaluator":
        return cls(load_model(path), space, source=path)

    def evaluate(self, config: Configuration) -> float:
        return predict_boosted(self.model, self.space.encode(config))

    def evaluate_codes(self, space: ParameterSpace, codes: np.ndarray) -> list[float] | None:
        """One batch prediction over rows of `space.codes()`, bit for bit
        `evaluate`'s, each feature gathered from a code -> feature table; None
        for a space the model cannot encode, or where `_batch_matches` fails."""
        if not _batch_matches(self, ModelEvaluator):
            return None
        matrix = np.empty((len(codes), len(self.space.parameters)), dtype=np.float64)
        try:
            for k, p in enumerate(self.space.parameters):
                values, column = space.code_table(p.name)
                features = np.array([p.code_of(v) for v in values], dtype=np.float64)
                matrix[:, k] = features[codes[:, column]]
        except (KeyError, EncodingError):
            return None
        return predict_boosted_batch(self.model, matrix).tolist()

    def describe(self) -> str:
        origin = self.source or "in-memory"
        return f"model:{origin}({len(self.model.stages)} stages)"


class ReplayEvaluator(Evaluator):
    """Replays efficiencies from previously recorded measurements."""

    def __init__(
        self,
        space: ParameterSpace,
        measurements: list[RawMeasurement],
        source: str | None = None,
    ):
        self.space = space
        self.source = source
        self._by_key: dict[tuple[Any, ...], RawMeasurement] = {}
        for m in measurements:
            key = space.config_key(m.config)
            if key in self._by_key:
                raise AmbiguousLogError(
                    f"duplicate measurement for configuration {m.config!r}"
                )
            self._by_key[key] = m

    @classmethod
    def from_log(cls, path: str, space: ParameterSpace) -> "ReplayEvaluator":
        return cls(space, read_measurement_log(path, space), source=path)

    def __len__(self) -> int:
        return len(self._by_key)

    def measure(self, config: Configuration) -> RawMeasurement:
        key = self.space.config_key(config)
        try:
            return self._by_key[key]
        except KeyError:
            raise NotRecordedError(
                f"configuration {config!r} is not recorded"
            ) from None

    def describe(self) -> str:
        origin = self.source or "in-memory"
        return f"replay:{origin}({len(self._by_key)} rows)"


# ----- synthetic oracles ------------------------------------------------------


def _jitter_key(config: Mapping[str, Any]) -> str:
    """The configuration part of a jitter hash key: sorted name=value pairs."""
    return "|".join([f"{k}={config[k]}" for k in sorted(config)])


def _jitter_keys(space: ParameterSpace, codes: np.ndarray) -> Iterator[bytes]:
    """`_jitter_key` of each row of `codes`, UTF-8 encoded: each name=value
    pair is formatted once, and the keys are joined one row at a time."""
    pairs = []
    for name in sorted(space.names):
        values, column = space.code_table(name)
        formatted = [f"{name}={value}".encode("utf-8") for value in values]
        positions = memoryview(np.ascontiguousarray(codes[:, column]))
        pairs.append(map(formatted.__getitem__, positions))
    return map(b"|".join, zip(*pairs))


def _rugged_factors(seed: int, config: Mapping[str, Any], amplitude: float) -> tuple[float, float]:
    """Deterministic multiplicative jitter of the cpu and the acc unit, each in
    [1 - amplitude, 1 + amplitude): the configuration's key is hashed once,
    then each unit's tail from a copy of that state."""
    if amplitude == 0:
        return 1.0, 1.0
    head = hashlib.blake2b(_jitter_key(config).encode("utf-8"), digest_size=8)
    factors = []
    for unit in ("cpu", "acc"):
        unit_hash = head.copy()
        unit_hash.update(f"|{unit}|{seed}".encode("utf-8"))
        unit_noise = int.from_bytes(unit_hash.digest(), "big") / 2**63 - 1.0
        factors.append(1.0 + amplitude * unit_noise)
    return factors[0], factors[1]


def _require_split(config: Mapping[str, Any], name: str) -> int:
    value = config.get(name)
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 100:
        raise ValueError(f"{name} must be an integer in [0, 100], got {value!r}")
    return value


class PccOracle(Evaluator):
    """Cost model of a row-partitioned all-pairs correlation on CPU + GPU.

    Row i is compared against every later row, so early rows carry more
    work: the CPU takes the first ceil(CPU-W * rows / 100) rows and the GPU
    the rest, plus a host-to-device transfer of the whole matrix whenever it
    participates. Unit energies are a constant draw times the unit's busy
    time.
    """

    name = "ida-pcc"

    def __init__(
        self,
        rows: int = 1024,
        cols: int = 8192,
        cpu_op_cost_s: float = 2e-9,
        acc_op_cost_s: float | None = None,
        transfer_bandwidth_b_s: float = 1e9,
        cpu_power_w: float = 105.0,
        acc_power_w: float = 250.0,
    ):
        if rows < 2 or cols < 1:
            raise ValueError("need at least 2 rows and 1 column")
        if cpu_op_cost_s <= 0 or transfer_bandwidth_b_s <= 0:
            raise ValueError("costs and bandwidth must be positive")
        if cpu_power_w <= 0 or acc_power_w <= 0:
            raise ValueError("power draws must be positive")
        self.rows = rows
        self.cols = cols
        self.cpu_op_cost_s = cpu_op_cost_s
        self.acc_op_cost_s = (
            acc_op_cost_s if acc_op_cost_s is not None else cpu_op_cost_s / 20.0
        )
        self.transfer_bandwidth_b_s = transfer_bandwidth_b_s
        self.cpu_power_w = cpu_power_w
        self.acc_power_w = acc_power_w

    def comparison_split(self, cpu_share_percent: int) -> tuple[int, int]:
        """Pair comparisons done by (cpu, acc) for a CPU row share."""
        rows = self.rows
        cpu_rows = -(-cpu_share_percent * rows // 100)  # ceil
        cpu = cpu_rows * (rows - 1) - cpu_rows * (cpu_rows - 1) // 2
        total = rows * (rows - 1) // 2
        return cpu, total - cpu

    def measure(self, config: Configuration) -> RawMeasurement:
        split = _require_split(config, "CPU-W")
        cpu_comparisons, acc_comparisons = self.comparison_split(split)
        total_comparisons = cpu_comparisons + acc_comparisons
        workload_mb = self.rows * self.cols * ELEMENT_BYTES / MB

        cpu_time = cpu_comparisons * self.cols * self.cpu_op_cost_s
        acc_time = acc_comparisons * self.cols * self.acc_op_cost_s
        if acc_comparisons > 0:
            acc_time += self.rows * self.cols * ELEMENT_BYTES / self.transfer_bandwidth_b_s

        if cpu_comparisons == 0:
            cpu_workload = 0.0
        elif acc_comparisons == 0:
            cpu_workload = workload_mb
        else:
            cpu_workload = workload_mb * (cpu_comparisons / total_comparisons)
        acc_workload = workload_mb - cpu_workload

        return RawMeasurement(
            config=dict(config),
            workload_mb=workload_mb,
            cpu_time_s=cpu_time,
            acc_time_s=acc_time,
            cpu_energy_j=self.cpu_power_w * cpu_time,
            acc_energy_j=self.acc_power_w * acc_time,
            cpu_workload_mb=cpu_workload,
            acc_workload_mb=acc_workload,
        )

    def describe(self) -> str:
        return f"oracle:{self.name}(rows={self.rows},cols={self.cols})"


class PatternMatchOracle(Evaluator):
    """Cost model of a linearly partitioned pattern-matching scan on
    CPU + many-core accelerator.

    Each unit streams its workload share at a rate set by its thread count
    and affinity; both units report the wall duration of the hybrid run as
    their time, while energy accrues only over a unit's own busy interval.
    A seeded hash jitters the busy times, which roughens the efficiency
    landscape without breaking determinism. Every setting but the seed is
    stored as a Python float, so `measure` rounds as NumPy's float64 does.
    """

    name = "emil-pm"

    def __init__(
        self,
        input_mb: float = 3170.0,
        cpu_base_rate_mb_s: float = 5200.0,
        acc_base_rate_mb_s: float = 11500.0,
        cpu_thread_scale: Mapping[int, float] | None = None,
        acc_thread_scale: Mapping[int, float] | None = None,
        cpu_affinity_scale: Mapping[str, float] | None = None,
        acc_affinity_scale: Mapping[str, float] | None = None,
        cpu_power_w: float = 115.0,
        acc_power_w: float = 300.0,
        rugged_amplitude: float = 0.03,
        seed: int = 0,
    ):
        if input_mb <= 0 or cpu_base_rate_mb_s <= 0 or acc_base_rate_mb_s <= 0:
            raise ValueError("workload and base rates must be positive")
        if cpu_power_w <= 0 or acc_power_w <= 0:
            raise ValueError("power draws must be positive")
        if not 0 <= rugged_amplitude < 1:
            raise ValueError("rugged_amplitude must be in [0, 1)")
        self.input_mb = float(input_mb)
        self.cpu_base_rate_mb_s = float(cpu_base_rate_mb_s)
        self.acc_base_rate_mb_s = float(acc_base_rate_mb_s)
        self.cpu_thread_scale = dict(
            cpu_thread_scale if cpu_thread_scale is not None
            else {12: 0.55, 24: 1.00, 36: 0.88, 48: 0.78}
        )
        self.acc_thread_scale = dict(
            acc_thread_scale if acc_thread_scale is not None
            else {60: 0.40, 120: 0.72, 180: 0.92, 240: 1.00}
        )
        self.cpu_affinity_scale = dict(
            cpu_affinity_scale if cpu_affinity_scale is not None
            else {"none": 0.90, "scatter": 1.00, "compact": 0.80}
        )
        self.acc_affinity_scale = dict(
            acc_affinity_scale if acc_affinity_scale is not None
            else {"balanced": 1.00, "scatter": 0.93, "compact": 0.85}
        )
        for table_name in ("cpu_thread_scale", "acc_thread_scale",
                           "cpu_affinity_scale", "acc_affinity_scale"):
            table = getattr(self, table_name)
            if not table or any(v <= 0 for v in table.values()):
                raise ValueError(f"{table_name} must map to positive factors")
            table.update({key: float(factor) for key, factor in table.items()})
        self.cpu_power_w = float(cpu_power_w)
        self.acc_power_w = float(acc_power_w)
        self.rugged_amplitude = float(rugged_amplitude)
        self.seed = seed  # kept as given: it is hashed as text

    def _lookup(self, table: Mapping[Any, float], value: Any, label: str) -> float:
        try:
            return table[value]
        except (KeyError, TypeError):
            raise ValueError(
                f"{label} {value!r} outside the modeled domain "
                f"{sorted(table, key=str)}"
            ) from None

    def unit_rates(self, config: Configuration) -> tuple[float, float]:
        """Effective (cpu, acc) scan rates in MB/s for a configuration."""
        cpu_rate = (
            self.cpu_base_rate_mb_s
            * self._lookup(self.cpu_thread_scale, config.get("CPU-T"), "CPU-T")
            * self._lookup(self.cpu_affinity_scale, config.get("CPU-A"), "CPU-A")
        )
        acc_rate = (
            self.acc_base_rate_mb_s
            * self._lookup(self.acc_thread_scale, config.get("ACC-T"), "ACC-T")
            * self._lookup(self.acc_affinity_scale, config.get("ACC-A"), "ACC-A")
        )
        return cpu_rate, acc_rate

    def measure(self, config: Configuration) -> RawMeasurement:
        split = _require_split(config, "CPU-W")
        cpu_rate, acc_rate = self.unit_rates(config)
        cpu_workload = self.input_mb * split / 100.0
        acc_workload = self.input_mb - cpu_workload

        cpu_jitter, acc_jitter = _rugged_factors(self.seed, config, self.rugged_amplitude)
        cpu_busy = (cpu_workload / cpu_rate) * cpu_jitter if split > 0 else 0.0
        acc_busy = (acc_workload / acc_rate) * acc_jitter if split < 100 else 0.0
        duration = max(cpu_busy, acc_busy)

        return RawMeasurement(
            config=dict(config),
            workload_mb=self.input_mb,
            cpu_time_s=duration if split > 0 else 0.0,
            acc_time_s=duration if split < 100 else 0.0,
            cpu_energy_j=self.cpu_power_w * cpu_busy,
            acc_energy_j=self.acc_power_w * acc_busy,
            cpu_workload_mb=cpu_workload,
            acc_workload_mb=acc_workload,
        )

    def evaluate_codes(self, space: ParameterSpace, codes: np.ndarray) -> list[float] | None:
        """MB/J of each row of `space.codes()`, bit for bit `evaluate`'s.

        Factors and splits are gathered by code and the jitter is hashed once
        per configuration for both units; the rest runs in NumPy with the
        operations of `measure` and `metrics.energy_efficiency`, in the same
        order. None where that cannot match `evaluate`: a missing parameter, a
        value off the modeled domain, a measurement either would reject, or
        where `_batch_matches` fails.
        """
        if not _batch_matches(self, PatternMatchOracle):
            return None
        tables = (self.cpu_thread_scale, self.cpu_affinity_scale,
                  self.acc_thread_scale, self.acc_affinity_scale)
        factors = []
        try:
            for table, name in zip(tables, ("CPU-T", "CPU-A", "ACC-T", "ACC-A")):
                values, column = space.code_table(name)
                by_code = np.array([table[value] for value in values], dtype=np.float64)
                factors.append(by_code[codes[:, column]])
            splits, column = space.code_table("CPU-W")
        except KeyError:
            return None
        # A split off [0, 100] makes a unit workload negative, which the checks reject.
        if any(type(s) is not int for s in splits):
            return None
        cpu_t, cpu_a, acc_t, acc_a = factors
        split = np.array(splits, dtype=np.float64)[codes[:, column]]
        cpu_jitter, acc_jitter = self._jitter_factors(space, codes)
        cpu_on, acc_on = split > 0, split < 100
        with np.errstate(all="ignore"):  # rows that overflow are rejected below
            cpu_workload = self.input_mb * split / 100.0
            acc_workload = self.input_mb - cpu_workload
            cpu_rate = self.cpu_base_rate_mb_s * cpu_t * cpu_a
            acc_rate = self.acc_base_rate_mb_s * acc_t * acc_a
            cpu_busy = np.where(cpu_on, cpu_workload / cpu_rate * cpu_jitter, 0.0)
            acc_busy = np.where(acc_on, acc_workload / acc_rate * acc_jitter, 0.0)
            duration = np.maximum(cpu_busy, acc_busy)
            values, valid = metrics.energy_efficiencies(
                self.input_mb,
                np.where(cpu_on, duration, 0.0),
                np.where(acc_on, duration, 0.0),
                self.cpu_power_w * cpu_busy,
                self.acc_power_w * acc_busy,
                cpu_workload,
                acc_workload,
            )
        return values.tolist() if valid.all() else None

    def _jitter_factors(self, space: ParameterSpace, codes: np.ndarray) -> tuple[Any, Any]:
        """`_rugged_factors` of every row of `codes`."""
        if self.rugged_amplitude == 0:
            return 1.0, 1.0
        tails = [f"|{unit}|{self.seed}".encode("utf-8") for unit in ("cpu", "acc")]
        digests = bytearray()  # one buffer, not a 41-byte object per 8-byte digest
        for key in _jitter_keys(space, codes):
            head = hashlib.blake2b(key, digest_size=8)
            for tail in tails:
                unit_hash = head.copy()
                unit_hash.update(tail)
                digests += unit_hash.digest()
        draws = np.frombuffer(digests, dtype=">u8").astype(np.float64)
        factors = 1.0 + self.rugged_amplitude * (draws / 2**63 - 1.0)
        return factors[0::2], factors[1::2]

    def describe(self) -> str:
        return f"oracle:{self.name}(input_mb={self.input_mb})"


ORACLE_FAMILIES = {
    PccOracle.name: PccOracle,
    PatternMatchOracle.name: PatternMatchOracle,
}


def make_oracle(name: str, **overrides: Any) -> Evaluator:
    """Instantiate a synthetic oracle by family name."""
    try:
        family = ORACLE_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown oracle {name!r}; available: {', '.join(sorted(ORACLE_FAMILIES))}"
        ) from None
    return family(**overrides)


# ----- external commands ------------------------------------------------------

_PLACEHOLDER = re.compile(r"\{([^{}]*)\}")


class CommandEvaluator(Evaluator):
    """Runs an external measurement command per configuration.

    Parameter values are substituted for "{PARAM-NAME}" placeholders. The
    command must print a measurement row (measurement-log columns, one csv
    line as the log writes it) on stdout; the last parsable row for the
    requested configuration wins. Rows can be appended to a log for later
    training.
    """

    def __init__(
        self,
        template: str,
        space: ParameterSpace,
        log_path: str | None = None,
        timeout_s: float = 60.0,
    ):
        names = set(space.names)
        unknown = [p for p in _PLACEHOLDER.findall(template) if p not in names]
        if unknown:
            raise ValueError(
                f"template references unknown parameter(s): {', '.join(unknown)}"
            )
        if not 0 < timeout_s < math.inf:
            raise ValueError(f"timeout_s must be positive and finite, got {timeout_s}")
        if log_path:
            log_has_header(log_path)  # a log that cannot be appended to fails before any command runs
        self.template = template
        self.space = space
        self.log_path = log_path
        self.timeout_s = timeout_s

    def substitute(self, config: Configuration) -> str:
        def fill(match: re.Match) -> str:
            value = config[match.group(1)]
            return value if isinstance(value, str) else str(value)

        return _PLACEHOLDER.sub(fill, self.template)

    def _parse_output(
        self, stdout: str, config: Configuration
    ) -> tuple[RawMeasurement | None, str | None]:
        """The last row for `config`, and why the last rejected row was
        rejected; only a line with the log's field count counts as a row."""
        wanted = self.space.config_key(config)
        width = len(log_header(self.space))
        found = rejected = None
        for number, line in enumerate(stdout.splitlines(), 1):
            try:  # one row per line, read as the measurement log reads it
                fields = next(csv.reader([line.strip()]))
                m = parse_measurement_row(fields, self.space, number)
            except csv.Error:
                continue
            except MeasurementLogError as exc:
                if len(fields) == width:  # a banner line is not a rejected row
                    rejected = str(exc)
                continue
            if self.space.config_key(m.config) == wanted:
                found = m  # last matching line wins
        return found, rejected

    def measure(self, config: Configuration) -> RawMeasurement:
        command = self.substitute(config)
        try:
            proc = subprocess.run(
                shlex.split(command),
                capture_output=True,
                text=True,
                timeout=self.timeout_s,
            )
        except subprocess.TimeoutExpired as exc:
            raise CommandExecutionError(
                f"command timed out after {self.timeout_s}s: {command}",
                command,
                stdout=(exc.stdout or b"").decode() if isinstance(exc.stdout, bytes)
                else (exc.stdout or ""),
                stderr=(exc.stderr or b"").decode() if isinstance(exc.stderr, bytes)
                else (exc.stderr or ""),
            ) from exc
        except OSError as exc:
            raise CommandExecutionError(
                f"cannot run command: {exc}", command
            ) from exc
        if proc.returncode != 0:
            raise CommandExecutionError(
                f"command exited with status {proc.returncode}: {command}",
                command,
                returncode=proc.returncode,
                stdout=proc.stdout,
                stderr=proc.stderr,
            )
        m, rejected = self._parse_output(proc.stdout, config)
        if m is None:
            reason = "" if rejected is None else f"; last rejected row: stdout {rejected}"
            raise CommandExecutionError(
                f"no measurement row for the requested configuration on stdout: {command}"
                + reason,
                command,
                returncode=proc.returncode,
                stdout=proc.stdout,
                stderr=proc.stderr,
            )
        if self.log_path:
            append_measurement(self.log_path, self.space, m)
        return m

    def describe(self) -> str:
        return f"cmd:{self.template}"


# ----- CLI-style evaluator specs ----------------------------------------------


def make_evaluator(
    spec: str,
    space: ParameterSpace,
    command_log: str | None = None,
    command_timeout_s: float = 60.0,
) -> Evaluator:
    """Build an evaluator from a spec string.

    Accepted forms: "model:PATH", "replay:PATH", "oracle:NAME",
    "cmd:TEMPLATE".
    """
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(
            f"evaluator spec {spec!r} must look like kind:argument"
        )
    if kind == "model":
        return ModelEvaluator.from_file(rest, space)
    if kind == "replay":
        return ReplayEvaluator.from_log(rest, space)
    if kind == "oracle":
        return make_oracle(rest)
    if kind == "cmd":
        return CommandEvaluator(
            rest, space, log_path=command_log, timeout_s=command_timeout_s
        )
    raise ValueError(
        f"unknown evaluator kind {kind!r}; expected model, replay, oracle or cmd"
    )
