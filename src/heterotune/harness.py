"""Campaign runner: exhaustive and annealed searches, training, comparison.

Two search methods share one report shape. EM ("exhaustive measurement")
evaluates every configuration; AML ("annealing + machine learning") runs
the simulated-annealing search, normally against a trained surrogate.
Reports serialize to JSON with a stable field order; wall time is the one
field excluded on demand so byte-identical golden runs stay possible.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import metrics
from ._documents import exact, failures_as, finite, read
from .annealing import AnnealParams, SearchStep, SearchTrace, anneal, first_best
from .metrics import (
    MeasurementLogError, RawMeasurement, read_measurement_log, write_measurement_log,
)
from .space import Configuration, ParameterSpace
from .surrogate import (
    BoostedModel,
    Dataset,
    Hyperparameters,
    ModelMetrics,
    save_model,
    validate_and_fit,
)

METHOD_EM = "EM"
METHOD_AML = "AML"

MIN_TRAINING_ROWS = 10


class ReportFormatError(ValueError):
    """A persisted campaign report is malformed."""


class CampaignError(RuntimeError):
    """A campaign failed midway; the partial report is attached. It is None
    when dataset generation fails, which builds no report."""

    def __init__(self, message: str, partial_report: "CampaignReport | None"):
        super().__init__(message)
        self.partial_report = partial_report


def _optional(value: Any, check: Any, *args: Any) -> Any:
    """A report value that may be null, else passed through `check`."""
    return None if value is None else check(value, *args)


def _agree(
    stored: Mapping[str, Any], derived: Mapping[str, Any], keys: Sequence[str], what: str
) -> None:
    """Summaries stored beside the records must equal what they give, type and all."""
    for key in keys:
        if type(stored[key]) is not type(derived[key]) or stored[key] != derived[key]:
            raise ValueError(
                f"{what}{key} = {stored[key]!r} but the records give {derived[key]!r}"
            )


def _step_from_doc(doc: Mapping[str, Any]) -> SearchStep:
    return SearchStep(
        index=exact(doc["index"], int, "step index"),
        temperature=finite(doc["temperature"], "step temperature"),
        candidate=dict(doc["candidate"]),
        value=finite(doc["value"], "step value"),
        accepted=exact(doc["accepted"], bool, "step accepted"),
        acceptance_probability=finite(
            doc["acceptance_probability"], "step acceptance_probability"
        ),
    )


def _trace_to_doc(trace: SearchTrace) -> dict[str, Any]:
    return {
        "seed_evaluations": [
            {"config": dict(config), "value": value}
            for config, value in trace.seed_evaluations
        ],
        "steps": [{**s._asdict(), "candidate": dict(s.candidate)} for s in trace.steps],
        "winner_config": None if trace.winner_config is None else dict(trace.winner_config),
        "winner_value": trace.winner_value,
        "evaluations_used": trace.evaluations_used,
    }


def _trace_from_doc(
    doc: Mapping[str, Any], evaluations: tuple[tuple[Configuration, float], ...]
) -> SearchTrace:
    """Rebuild a trace whose distinct evaluations are the report's records."""
    trace = SearchTrace(
        steps=tuple(_step_from_doc(s) for s in doc["steps"]),
        seed_evaluations=tuple(
            (dict(entry["config"]), finite(entry["value"], "seed value"))
            for entry in doc["seed_evaluations"]
        ),
        evaluations=evaluations,
    )
    keys = ("winner_config", "winner_value", "evaluations_used")
    _agree(doc, _trace_to_doc(trace), keys, "trace ")
    return trace


class SweepRecords(Sequence):
    """An EM sweep's (config, value) records, read-only. They hold the rows of
    `space.codes()` and the values; a record's configuration dict is built
    each time the record is read."""

    def __init__(self, space: ParameterSpace, codes: np.ndarray, values: list[float]):
        self.space, self.codes, self.values = space, codes, values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return SweepRecords(self.space, self.codes[index], self.values[index])
        return self.space.config_at(self.codes[index].tolist()), self.values[index]

    def __iter__(self) -> Iterator[tuple[Configuration, float]]:
        return zip(self.space.configs(self.codes), self.values)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one search campaign over a configuration space.

    The best configuration and value (the first record holding the maximum)
    and the evaluation count derive from the records: a tuple, or an EM
    sweep's `SweepRecords`.
    """

    method: str
    space_name: str
    evaluator: str
    records: Sequence[tuple[Configuration, float]]
    budget: int | None = None
    budget_fraction: float | None = None
    seed: int | None = None
    anneal_params: dict[str, Any] | None = None
    trace: SearchTrace | None = None
    wall_time_s: float | None = None
    best_config: Configuration | None = field(init=False)
    best_value: float | None = field(init=False)
    evaluations_used: int = field(init=False)

    def __post_init__(self) -> None:
        if self.method not in (METHOD_EM, METHOD_AML):
            raise ValueError(f"method must be {METHOD_EM} or {METHOD_AML}")
        values = self.records.values if isinstance(self.records, SweepRecords) else None
        best_config, best_value = first_best(self.records, values)
        object.__setattr__(self, "best_config", best_config)
        object.__setattr__(self, "best_value", best_value)
        object.__setattr__(self, "evaluations_used", len(self.records))

    def to_dict(self, include_wall_time: bool = True) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "method": self.method,
            "space": self.space_name,
            "evaluator": self.evaluator,
            "best_config": None if self.best_config is None else dict(self.best_config),
            "best_value_mb_per_j": self.best_value,
            "evaluations_used": self.evaluations_used,
            "budget": self.budget,
            "budget_fraction": self.budget_fraction,
            "seed": self.seed,
            "anneal_params": self.anneal_params,
            "records": [
                {"config": dict(config), "value": value}
                for config, value in self.records
            ],
            "trace": None if self.trace is None else _trace_to_doc(self.trace),
        }
        if include_wall_time:
            doc["wall_time_s"] = self.wall_time_s
        return doc

    @classmethod
    @failures_as(ReportFormatError, "campaign report")
    def from_dict(cls, doc: Mapping[str, Any]) -> "CampaignReport":
        """Rebuild a report; its stored summaries must agree with its records."""
        records = tuple(
            (dict(entry["config"]), finite(entry["value"], "record value"))
            for entry in doc["records"]
        )
        report = cls(
            method=doc["method"],
            space_name=doc["space"],
            evaluator=doc["evaluator"],
            records=records,
            budget=_optional(doc.get("budget"), exact, int, "budget"),
            budget_fraction=_optional(doc.get("budget_fraction"), finite, "budget_fraction"),
            seed=_optional(doc.get("seed"), exact, int, "seed"),
            anneal_params=_optional(doc.get("anneal_params"), exact, dict, "anneal_params"),
            trace=(
                None if doc.get("trace") is None
                else _trace_from_doc(doc["trace"], records)
            ),
            wall_time_s=doc.get("wall_time_s"),
        )
        if doc["best_value_mb_per_j"] is not None:
            finite(doc["best_value_mb_per_j"], "best_value_mb_per_j")
        keys = ("best_config", "best_value_mb_per_j", "evaluations_used")
        _agree(doc, report.to_dict(), keys, "")
        return report

    def save(self, path: str, include_wall_time: bool = True) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(include_wall_time), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CampaignReport":
        """Read a report; a malformed document raises ReportFormatError."""
        return read(path, json.load, cls.from_dict, ReportFormatError, "campaign report")


def run_em(space: ParameterSpace, evaluator: Any) -> CampaignReport:
    """Evaluate every configuration; the first maximum wins.

    An evaluator failure or a non-finite value raises CampaignError with the
    partial report (the configurations finished so far) attached. An
    evaluator with `evaluate_codes` scores the whole of `space.codes()` in one
    call; where it declines (None), fails or gives a non-finite value, the
    sweep runs one configuration at a time, which raises that error. The
    report's records are `SweepRecords` over the codes.
    """
    started = time.perf_counter()
    codes = space.codes()
    values: list[float] = []

    def report() -> CampaignReport:
        return CampaignReport(
            method=METHOD_EM,
            space_name=space.name,
            evaluator=evaluator.describe() if hasattr(evaluator, "describe") else repr(evaluator),
            records=SweepRecords(space, codes[:len(values)], values),
            wall_time_s=time.perf_counter() - started,
        )

    try:  # no batch call, a decline (None) or a failure: one at a time below
        batch = evaluator.evaluate_codes(space, codes)
        complete = len(batch) == len(codes) and all(map(math.isfinite, batch))
    except Exception:
        complete = False
    if complete:
        values = batch
        return report()
    for config in space.configs(codes):
        try:
            value = evaluator.evaluate(config)
            if not math.isfinite(value):
                raise ValueError(f"value {value!r} is not finite")
        except Exception as exc:
            raise CampaignError(
                f"evaluator failed on {config!r} after {len(values)} "
                f"evaluations: {exc}",
                report(),
            ) from exc
        values.append(value)
    return report()


def run_aml(
    space: ParameterSpace, evaluator: Any, params: AnnealParams
) -> CampaignReport:
    """Run the annealing search and package its trace as a report.

    The report's records are the trace's distinct evaluations in
    first-evaluation order (memoized repeats collapse onto their first
    occurrence).
    """
    started = time.perf_counter()
    trace = anneal(space, evaluator, params)
    return CampaignReport(
        method=METHOD_AML,
        space_name=space.name,
        evaluator=evaluator.describe() if hasattr(evaluator, "describe") else repr(evaluator),
        records=trace.evaluations,
        budget=params.evaluation_budget,
        budget_fraction=trace.evaluations_used / space.cardinality(),
        seed=params.seed,
        anneal_params={
            "initial_temperature": params.initial_temperature,
            "cooling_factor": params.effective_cooling_factor,
            "evaluation_budget": params.evaluation_budget,
            "seed": params.seed,
        },
        trace=trace,
        wall_time_s=time.perf_counter() - started,
    )


# ----- dataset generation and model training ----------------------------------


def gen_dataset(
    space: ParameterSpace,
    oracle: Any,
    *,
    sample: int | None = None,
    seed: int = 0,
    path: str | None = None,
) -> list[RawMeasurement]:
    """Measure every configuration, or a seeded distinct random sample.

    The oracle must expose measure(config) -> RawMeasurement. With `path`
    the rows are also written as a measurement log. A failing measurement
    raises CampaignError naming the configuration, and no log is written.
    """
    if not hasattr(oracle, "measure"):
        raise TypeError(
            f"{type(oracle).__name__} cannot produce raw measurements; "
            "dataset generation needs a measuring evaluator"
        )
    if sample is None:
        codes = space.codes()
    else:  # only the sampled rows are built, not the whole code matrix
        total = space.cardinality()
        if not 1 <= sample <= total:
            raise ValueError(f"sample size must be in [1, {total}], got {sample}")
        codes = space.codes(random.Random(seed).sample(range(total), sample))
    rows: list[RawMeasurement] = []
    for config in space.configs(codes):
        try:
            rows.append(oracle.measure(config))
        except Exception as exc:
            raise CampaignError(
                f"oracle failed on {config!r} after {len(rows)} measurements: {exc}", None
            ) from exc
    if path is not None:
        write_measurement_log(path, space, rows)
    return rows


def dataset_from_measurements(
    space: ParameterSpace, rows: Sequence[RawMeasurement]
) -> Dataset:
    """Encode measurements into a training dataset (target: MB/J).

    A row whose efficiency is undefined (zero total power, or energy over a
    zero time) cannot be a target: it is a MeasurementLogError naming the
    row's 1-based position.
    """
    pairs = []
    for number, m in enumerate(rows, 1):
        features = space.encode(m.config)
        try:
            target = metrics.energy_efficiency(m)
        except (metrics.InvalidMeasurementError, metrics.UndefinedEfficiencyError) as exc:
            raise MeasurementLogError(f"measurement row {number} ({m.config!r}): {exc}") from exc
        pairs.append((features, target))
    return Dataset.from_rows(space.names, pairs)


def dataset_from_log(path: str, space: ParameterSpace) -> Dataset:
    return dataset_from_measurements(space, read_measurement_log(path, space))


def parse_validation_spec(spec: str) -> tuple[str, Any]:
    """Parse "kfold:K", "split:FRACTION" or "none"."""
    if spec == "none":
        return "none", None
    kind, sep, argument = spec.partition(":")
    if sep and kind == "kfold":
        try:
            k = int(argument)
        except ValueError:
            k = 0
        if k >= 2:
            return "kfold", k
        raise ValueError(f"kfold needs an integer fold count >= 2, got {argument!r}")
    if sep and kind == "split":
        try:
            fraction = float(argument)
        except ValueError:
            fraction = -1.0
        if 0 < fraction < 1:
            return "split", fraction
        raise ValueError(
            f"split needs a training fraction in (0, 1), got {argument!r}"
        )
    raise ValueError(
        f"validation spec {spec!r} must be kfold:K, split:FRACTION or none"
    )


@dataclass(frozen=True)
class TrainingResult:
    """A trained model plus how it validated."""

    model: BoostedModel
    validation: ModelMetrics | None
    n_rows: int
    seed: int


def train_model(
    log_path: str,
    space: ParameterSpace,
    *,
    hyper: Hyperparameters | None = None,
    validation: str = "kfold:10",
    seed: int = 0,
    model_path: str | None = None,
) -> TrainingResult:
    """Train a boosted surrogate from a measurement log.

    Validation (cross-validation or a holdout split) draws from its own seeded
    generator and the returned model is fitted on all rows with a fresh one, so
    the persisted bytes depend only on the log and the seed. The fits run at
    the same time on the usable CPUs (see `validate_and_fit`).
    """
    scheme, argument = parse_validation_spec(validation)
    rows = read_measurement_log(log_path, space)
    if len(rows) < MIN_TRAINING_ROWS:  # a data problem in the log, not a usage error
        raise MeasurementLogError(
            f"training needs at least {MIN_TRAINING_ROWS} measurement rows, "
            f"got {len(rows)}",
            line_number=0,
        )
    data = dataset_from_measurements(space, rows)

    outcome, model = validate_and_fit(
        data, seed, hyper=hyper,
        folds=argument if scheme == "kfold" else None,
        train_fraction=argument if scheme == "split" else None,
    )
    if model_path is not None:
        save_model(model, model_path)
    return TrainingResult(model=model, validation=outcome, n_rows=len(rows), seed=seed)


# ----- comparison --------------------------------------------------------------


@dataclass(frozen=True)
class CompareRow:
    """One EM-vs-AML line: values, absolute gap, and AML as a share of EM."""

    label: str
    em_value: float
    aml_value: float
    abs_difference: float = field(init=False)
    aml_fraction_percent: float | None = field(init=False)

    def __post_init__(self) -> None:
        for name, value in (("em_value", self.em_value), ("aml_value", self.aml_value)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(self, "abs_difference", abs(self.em_value - self.aml_value))
        object.__setattr__(
            self,
            "aml_fraction_percent",
            100.0 * self.aml_value / self.em_value if self.em_value > 0 else None,
        )


def compare(
    em: CampaignReport, aml: CampaignReport, label: str | None = None
) -> CompareRow:
    """Line up an exhaustive report against an annealed one."""
    if em.method != METHOD_EM or aml.method != METHOD_AML:
        raise ReportFormatError(
            f"compare needs an {METHOD_EM} and an {METHOD_AML} report, "
            f"got {em.method} and {aml.method}"
        )
    if em.space_name != aml.space_name:
        raise ValueError(
            f"reports cover different spaces: {em.space_name!r} vs {aml.space_name!r}"
        )
    if em.best_value is None or aml.best_value is None:
        raise ReportFormatError("both reports need a best value to compare")
    return CompareRow(
        label=label if label is not None else em.space_name,
        em_value=em.best_value,
        aml_value=aml.best_value,
    )


def summarize(rows: Sequence[CompareRow]) -> dict[str, Any]:
    """Aggregate comparison rows: worst and mean gaps, fraction statistics."""
    if not rows:
        raise ValueError("nothing to summarize")
    differences = [row.abs_difference for row in rows]
    fractions = [
        row.aml_fraction_percent for row in rows if row.aml_fraction_percent is not None
    ]
    summary: dict[str, Any] = {
        "rows": len(rows),
        "max_abs_difference": max(differences),
        "mean_abs_difference": sum(differences) / len(differences),
    }
    if fractions:
        summary["min_fraction_percent"] = min(fractions)
        summary["median_fraction_percent"] = statistics.median(fractions)
    return summary


def compare_table(rows: Sequence[CompareRow]) -> str:
    """Monospace table of comparison rows plus a summary line."""
    header = f"{'label':<16} {'EM':>10} {'AML':>10} {'|diff|':>10} {'AML/EM':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        fraction = (
            f"{row.aml_fraction_percent:.2f}%"
            if row.aml_fraction_percent is not None
            else "n/a"
        )
        lines.append(
            f"{row.label:<16} {row.em_value:>10.3f} {row.aml_value:>10.3f} "
            f"{row.abs_difference:>10.5f} {fraction:>9}"
        )
    summary = summarize(rows)
    lines.append(
        f"max |diff| {summary['max_abs_difference']:.5f}, "
        f"mean |diff| {summary['mean_abs_difference']:.5f}"
        + (
            f", min AML/EM {summary['min_fraction_percent']:.2f}%"
            if "min_fraction_percent" in summary
            else ""
        )
    )
    return "\n".join(lines)
