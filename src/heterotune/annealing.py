"""Simulated annealing over discrete configuration spaces.

The search seeds itself with the two workload-split extremes (all work on
the CPU, all work on the accelerator) when the space has a complement
parameter, then walks single-parameter neighbor moves under a geometric
cooling schedule, accepting worse candidates with probability
exp(delta / T), where delta is the value change normalized by the incumbent
best magnitude. The loop runs while the temperature exceeds 1.

Evaluations are memoized per run: re-proposing an already evaluated
configuration consumes no budget.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from .space import Configuration, ParameterSpace

#: Floor for the normalization scale, guarding against a zero incumbent.
SCALE_EPSILON = 1e-9

#: Loop continues while the temperature is above this bound.
TEMPERATURE_FLOOR = 1.0


class SearchAborted(RuntimeError):
    """An evaluator failed mid-search; carries the partial trace."""

    def __init__(self, message: str, trace: "SearchTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class AnnealParams:
    """Annealing schedule knobs.

    When evaluation_budget is set, the cooling factor is derived as
    initial_temperature ** (-1 / budget) so the schedule crosses the
    temperature floor after exactly `budget` steps.
    """

    initial_temperature: float = 1000.0
    cooling_factor: float = 0.95
    evaluation_budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not TEMPERATURE_FLOOR < self.initial_temperature < math.inf:
            raise ValueError("initial_temperature must exceed 1 and be finite")
        if not 0 < self.cooling_factor < 1:
            raise ValueError("cooling_factor must be in (0, 1)")
        if self.evaluation_budget is not None and self.evaluation_budget < 1:
            raise ValueError("evaluation_budget must be at least 1")

    @property
    def effective_cooling_factor(self) -> float:
        if self.evaluation_budget is None:
            return self.cooling_factor
        return derived_cooling_factor(self.initial_temperature, self.evaluation_budget)


class SearchStep(NamedTuple):
    """One annealing step: the proposed candidate and the accept decision."""

    index: int
    temperature: float
    candidate: Configuration
    value: float
    accepted: bool
    acceptance_probability: float


@dataclass(frozen=True)
class SearchTrace:
    """Complete record of one annealing run.

    `evaluations` holds each distinct configuration evaluated, with its
    value, in first-evaluation order; the winner and the count derive from it.
    """

    steps: tuple[SearchStep, ...]
    seed_evaluations: tuple[tuple[Configuration, float], ...]
    evaluations: tuple[tuple[Configuration, float], ...]

    @property
    def evaluations_used(self) -> int:
        return len(self.evaluations)

    @property
    def winner_config(self) -> Configuration | None:
        return first_best(self.evaluations)[0]

    @property
    def winner_value(self) -> float | None:
        return first_best(self.evaluations)[1]


def first_best(
    records: Sequence[tuple[Configuration, float]], values: Sequence[float] | None = None
) -> tuple[Any, Any]:
    """The first (config, value) record holding the maximum value; (None, None) if none.
    Given the records' `values`, only the winning record is read."""
    if values is None:
        values = [value for _, value in records]
    best = max(range(len(values)), key=values.__getitem__, default=None)
    return (None, None) if best is None else records[best]


def acceptance_probability(
    current_value: float,
    candidate_value: float,
    temperature: float,
    best_value: float,
) -> float:
    """Probability of moving to the candidate.

    Improvements (and ties) are always accepted. For a worse candidate the
    probability is exp(delta / temperature) with delta the value change
    normalized by max(|best_value|, 1e-9).
    """
    if not (math.isfinite(current_value) and math.isfinite(candidate_value)
            and math.isfinite(temperature) and math.isfinite(best_value)):
        for name, value in (
            ("current_value", current_value),
            ("candidate_value", candidate_value),
            ("temperature", temperature),
            ("best_value", best_value),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scale = max(abs(best_value), SCALE_EPSILON)
    delta = (candidate_value - current_value) / scale
    if delta >= 0:
        return 1.0
    return min(1.0, math.exp(delta / temperature))


def cooling_step(temperature: float, cooling_factor: float) -> float:
    """Geometric cooling: the next temperature."""
    if not 0 < cooling_factor < 1:
        raise ValueError("cooling_factor must be in (0, 1)")
    return temperature * cooling_factor


def derived_cooling_factor(initial_temperature: float, budget: int) -> float:
    """Cooling factor whose schedule lasts exactly `budget` steps."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not TEMPERATURE_FLOOR < initial_temperature < math.inf:
        raise ValueError("initial_temperature must exceed 1 and be finite")
    return initial_temperature ** (-1.0 / budget)


def anneal(space: ParameterSpace, evaluator: Any, params: AnnealParams) -> SearchTrace:
    """Run one seeded annealing search and return its trace.

    `evaluator` must expose evaluate(config) -> float. The search state is a
    row of free-parameter positions, as in `space.codes()`; each distinct row
    becomes a configuration once, through `space.config_at`, and that dict is
    evaluated and recorded. The winner is the first configuration reaching
    the maximal observed value, boundary seeds included. An evaluator
    exception or a non-finite value aborts the run with the partial trace
    attached to the raised SearchAborted.
    """
    rng = random.Random(params.seed)
    cache: dict[tuple[int, ...], tuple[Configuration, float]] = {}
    steps: list[SearchStep] = []
    seed_evaluations: list[tuple[Configuration, float]] = []

    def partial_trace() -> SearchTrace:
        return SearchTrace(tuple(steps), tuple(seed_evaluations), tuple(cache.values()))

    def evaluate(row: tuple[int, ...]) -> tuple[Configuration, float]:
        hit = cache.get(row)
        if hit is not None:
            return hit
        config = space.config_at(row)
        try:
            value = float(evaluator.evaluate(config))
        except Exception as exc:
            raise SearchAborted(
                f"evaluator failed on {config!r}: {exc}", partial_trace()
            ) from exc
        if not math.isfinite(value):
            raise SearchAborted(
                f"evaluator returned {value!r} on {config!r}", partial_trace()
            )
        cache[row] = hit = (config, value)
        return hit

    # Boundary seeds: both extremes of the first workload-split parameter.
    sources = space.complement_sources()
    if sources:
        values, column = space.code_table(sources[0])
        base = space.random_row(rng)
        for boundary in (len(values) - 1, 0):
            seed_evaluations.append(evaluate(base[:column] + (boundary,) + base[column + 1:]))

    current_row = space.random_row(rng)
    seed_evaluations.append(evaluate(current_row))
    current_value = seed_evaluations[-1][1]
    # The best value seen before each step scales its acceptance probability.
    best_value = max(value for _, value in seed_evaluations)

    if any(p.size > 1 for p in space.free_parameters):
        # The budget counts the distinct evaluations after the seeds.
        budget = params.evaluation_budget
        limit = math.inf if budget is None else len(cache) + budget
        alpha = params.effective_cooling_factor
        temperature = params.initial_temperature
        while temperature > TEMPERATURE_FLOOR and len(cache) < limit:
            candidate = space.neighbor(current_row, rng)
            config, value = evaluate(candidate)
            probability = acceptance_probability(
                current_value, value, temperature, best_value
            )
            best_value = max(best_value, value)
            accepted = rng.random() < probability
            steps.append(
                SearchStep(len(steps), temperature, config, value, accepted, probability)
            )
            if accepted:
                current_row, current_value = candidate, value
            temperature = cooling_step(temperature, alpha)

    return partial_trace()


def trace_to_rows(trace: SearchTrace, space: ParameterSpace) -> list[list[Any]]:
    """Tabulate a trace: one row per step, parameter values as columns."""
    rows = []
    for step in trace.steps:
        rows.append(
            [step.index, step.temperature]
            + [step.candidate[name] for name in space.names]
            + [step.value, step.acceptance_probability, int(step.accepted)]
        )
    return rows


def write_trace_csv(path: str, trace: SearchTrace, space: ParameterSpace) -> None:
    """Export a trace as delimiter-separated text with a header row."""
    header = (
        ["step", "temperature"]
        + list(space.names)
        + ["value", "acceptance_probability", "accepted"]
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(trace_to_rows(trace, space))
