"""Simulated-annealing search: acceptance law, cooling, traces, memoization."""

import csv
import math

import pytest

from heterotune import (
    AnnealParams,
    Evaluator,
    SearchAborted,
    acceptance_probability,
    anneal,
    cooling_step,
    derived_cooling_factor,
    space_from_dict,
    trace_to_rows,
    write_trace_csv,
)


class FunctionEvaluator:
    """Counts calls and delegates to a plain function of the configuration."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def evaluate(self, config):
        self.calls += 1
        return self.fn(config)

    def describe(self):
        return "fn"


def split_space():
    return space_from_dict(
        {
            "name": "splitty",
            "parameters": [
                {"name": "CPU-W", "kind": "range", "min": 0, "max": 100},
                {"name": "ACC-W", "derived_from": "CPU-W"},
            ],
        }
    )


def plain_space(lo=0, hi=100):
    return space_from_dict(
        {
            "name": "plain",
            "parameters": [{"name": "V", "kind": "range", "min": lo, "max": hi}],
        }
    )


# ----- acceptance probability -----------------------------------------------------


def test_equal_values_always_accepted():
    assert acceptance_probability(5.0, 5.0, 10.0, 5.0) == 1.0


def test_improvement_always_accepted():
    assert acceptance_probability(5.0, 6.0, 0.001, 6.0) == 1.0


def test_normalized_drop_of_t_gives_inverse_e():
    # delta = (candidate - current)/|best| = -2; T = 2 -> exp(-1)
    p = acceptance_probability(10.0, 8.0, 2.0, 1.0)
    assert p == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_worse_candidate_below_one():
    assert 0.0 < acceptance_probability(10.0, 9.0, 1.0, 10.0) < 1.0


def test_probability_monotone_in_candidate_value():
    probabilities = [
        acceptance_probability(10.0, v, 1.0, 10.0) for v in (2.0, 5.0, 8.0, 10.0)
    ]
    assert probabilities == sorted(probabilities)


def test_probability_monotone_in_temperature_for_worse():
    probabilities = [
        acceptance_probability(10.0, 5.0, t, 10.0) for t in (0.5, 1.0, 10.0, 100.0)
    ]
    assert probabilities == sorted(probabilities)


def test_non_finite_inputs_rejected():
    names = ("current_value", "candidate_value", "temperature", "best_value")
    for position, name in enumerate(names):
        for bad in (math.nan, math.inf, -math.inf):
            args = [1.0, 1.0, 1.0, 1.0]
            args[position] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
                acceptance_probability(*args)


def test_non_positive_temperature_rejected():
    with pytest.raises(ValueError):
        acceptance_probability(1.0, 0.5, 0.0, 1.0)


def test_tiny_best_uses_epsilon_floor():
    # best 0 -> scale 1e-9; a drop of 1e-9 at T=1 is one normalized unit
    p = acceptance_probability(1e-9, 0.0, 1.0, 0.0)
    assert p == pytest.approx(math.exp(-1.0), rel=1e-9)


# ----- cooling ---------------------------------------------------------------------


def test_cooling_step():
    assert cooling_step(100.0, 0.95) == pytest.approx(95.0)


def test_cooling_schedule_length_for_defaults():
    temperature, count = 1000.0, 0
    while temperature > 1.0:
        temperature = cooling_step(temperature, 0.95)
        count += 1
    assert count == 135
    assert count == math.ceil(math.log(1000.0) / math.log(1.0 / 0.95))


def test_derived_cooling_factor_lasts_exactly_budget_steps():
    # After `budget` steps the temperature sits at 1.0 up to rounding, so the
    # crossing happens at budget steps or one step later; the annealer's own
    # budget counter makes the stop exact either way.
    for budget in (1, 7, 135, 1018):
        alpha = derived_cooling_factor(1000.0, budget)
        temperature, count = 1000.0, 0
        while temperature > 1.0 and count <= budget + 5:
            temperature = cooling_step(temperature, alpha)
            count += 1
        assert budget <= count <= budget + 1
        assert 1000.0 * alpha ** budget == pytest.approx(1.0, rel=1e-12)


def test_cooling_rejects_bad_factor():
    with pytest.raises(ValueError):
        cooling_step(10.0, 1.0)
    with pytest.raises(ValueError):
        cooling_step(10.0, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        AnnealParams(initial_temperature=1.0)
    with pytest.raises(ValueError):
        AnnealParams(cooling_factor=1.5)
    with pytest.raises(ValueError):
        AnnealParams(evaluation_budget=0)
    with pytest.raises(ValueError, match="initial_temperature must exceed 1 and be finite"):
        AnnealParams(initial_temperature=math.inf)
    with pytest.raises(ValueError, match="initial_temperature must exceed 1 and be finite"):
        derived_cooling_factor(math.inf, 5)


def test_effective_cooling_factor_prefers_budget():
    params = AnnealParams(cooling_factor=0.5, evaluation_budget=100)
    assert params.effective_cooling_factor == pytest.approx(
        1000.0 ** (-1 / 100), rel=1e-15
    )
    assert AnnealParams(cooling_factor=0.5).effective_cooling_factor == 0.5


# ----- anneal ------------------------------------------------------------------------


def test_single_configuration_space():
    space = space_from_dict(
        {
            "name": "one",
            "parameters": [
                {"name": "CPU-W", "kind": "levels", "values": [100]},
                {"name": "ACC-W", "derived_from": "CPU-W"},
            ],
        }
    )
    evaluator = FunctionEvaluator(lambda c: 42.0)
    trace = anneal(space, evaluator, AnnealParams(seed=0))
    assert trace.winner_config == {"CPU-W": 100, "ACC-W": 0}
    assert trace.winner_value == 42.0
    assert trace.steps == ()
    assert trace.evaluations_used == 1  # both boundary seeds and the initial collapse


def test_boundary_seeds_evaluated_first():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float(c["CPU-W"]))
    trace = anneal(space, evaluator, AnnealParams(seed=3))
    seeds = [config["CPU-W"] for config, _ in trace.seed_evaluations[:2]]
    assert seeds == [100, 0]


def test_winner_is_max_over_everything():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: -abs(c["CPU-W"] - 37) + 100.0)
    trace = anneal(space, evaluator, AnnealParams(seed=5))
    values = [v for _, v in trace.seed_evaluations] + [s.value for s in trace.steps]
    assert trace.winner_value == max(values)
    assert space.validate(trace.winner_config) == []


def test_winner_monotone_along_trace():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float((c["CPU-W"] * 37) % 101))
    trace = anneal(space, evaluator, AnnealParams(seed=7))
    best = max(v for _, v in trace.seed_evaluations)
    for step in trace.steps:
        best = max(best, step.value)
    assert best == trace.winner_value


def test_improvements_always_accepted_in_trace():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float((c["CPU-W"] * 53) % 101))
    trace = anneal(space, evaluator, AnnealParams(seed=11))
    current = None
    for config, value in trace.seed_evaluations[2:]:
        current = value
    for step in trace.steps:
        if step.value > current:
            assert step.accepted
            assert step.acceptance_probability == 1.0
        if step.accepted:
            current = step.value
    assert any(not s.accepted for s in trace.steps) or len(trace.steps) > 0


def test_candidates_validate_against_space():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float(c["CPU-W"]))
    trace = anneal(space, evaluator, AnnealParams(seed=13))
    for step in trace.steps:
        assert space.validate(step.candidate) == []


def test_same_seed_identical_trace():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float((c["CPU-W"] * 29) % 101))
    params = AnnealParams(seed=17)
    t1 = anneal(space, evaluator, params)
    t2 = anneal(space, FunctionEvaluator(lambda c: float((c["CPU-W"] * 29) % 101)), params)
    assert t1 == t2


def test_different_seeds_differ():
    space = split_space()
    fn = lambda c: float((c["CPU-W"] * 29) % 101)
    t1 = anneal(space, FunctionEvaluator(fn), AnnealParams(seed=0))
    t2 = anneal(space, FunctionEvaluator(fn), AnnealParams(seed=1))
    assert t1 != t2


def test_memoization_counts_distinct_only():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float(c["CPU-W"]))
    trace = anneal(space, evaluator, AnnealParams(seed=19))
    assert evaluator.calls == trace.evaluations_used
    distinct = {space.config_key(c) for c, _ in trace.seed_evaluations}
    distinct |= {space.config_key(s.candidate) for s in trace.steps}
    assert len(distinct) == trace.evaluations_used
    assert trace.evaluations_used <= 101


def test_budget_caps_distinct_evaluations():
    space = split_space()
    for budget in (5, 20, 60):
        evaluator = FunctionEvaluator(lambda c: float((c["CPU-W"] * 7) % 101))
        params = AnnealParams(evaluation_budget=budget, seed=23)
        trace = anneal(space, evaluator, params)
        # two boundary seeds and the initial draw ride on top of the budget
        assert trace.evaluations_used <= budget + 3
        assert evaluator.calls == trace.evaluations_used


def test_steps_can_exceed_budget_via_cache_hits():
    space = plain_space(0, 3)  # tiny space: plenty of revisits
    evaluator = FunctionEvaluator(lambda c: float(c["V"]))
    trace = anneal(space, evaluator, AnnealParams(seed=29))
    assert trace.evaluations_used <= 4
    assert len(trace.steps) > trace.evaluations_used


def test_no_boundary_seeds_without_complement_parameter():
    space = plain_space()
    evaluator = FunctionEvaluator(lambda c: float(c["V"]))
    trace = anneal(space, evaluator, AnnealParams(seed=31))
    assert len(trace.seed_evaluations) == 1  # just the initial configuration


def test_evaluator_failure_carries_partial_trace():
    space = split_space()

    class Flaky:
        def __init__(self):
            self.calls = 0

        def evaluate(self, config):
            self.calls += 1
            if self.calls > 10:
                raise RuntimeError("measurement rig unplugged")
            return float(c := config["CPU-W"])

    with pytest.raises(SearchAborted) as excinfo:
        anneal(space, Flaky(), AnnealParams(seed=37))
    partial = excinfo.value.trace
    assert partial.evaluations_used == 10
    assert partial.winner_value is not None


def test_nan_from_evaluator_aborts_with_partial_trace():
    space = split_space()

    class NanAfterTen(Evaluator):
        calls = 0

        def evaluate(self, config):
            self.calls += 1
            if self.calls > 10:
                return float("nan")
            return float(config["CPU-W"])

    with pytest.raises(SearchAborted, match="nan") as excinfo:
        anneal(space, NanAfterTen(), AnnealParams(seed=37))
    partial = excinfo.value.trace
    assert partial.evaluations_used == 10
    assert math.isfinite(partial.winner_value)
    assert all(math.isfinite(step.value) for step in partial.steps)


# ----- trace export -----------------------------------------------------------------


def test_trace_rows_shape():
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float(c["CPU-W"]))
    trace = anneal(space, evaluator, AnnealParams(seed=41))
    rows = trace_to_rows(trace, space)
    assert len(rows) == len(trace.steps)
    width = 2 + len(space.names) + 3
    assert all(len(row) == width for row in rows)


def test_trace_csv_round_readable(tmp_path):
    space = split_space()
    evaluator = FunctionEvaluator(lambda c: float(c["CPU-W"]))
    trace = anneal(space, evaluator, AnnealParams(seed=43))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace, space)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "step", "temperature", "CPU-W", "ACC-W",
        "value", "acceptance_probability", "accepted",
    ]
    assert len(rows) == 1 + len(trace.steps)
    assert rows[1][0] == "0"
