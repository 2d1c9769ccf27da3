"""Campaign runner: EM/AML reports, dataset generation, training, comparison."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from conftest import assert_no_children
from heterotune import (
    AnnealParams,
    CampaignError,
    CampaignReport,
    CompareRow,
    Hyperparameters,
    ModelEvaluator,
    PatternMatchOracle,
    PccOracle,
    ReplayEvaluator,
    ReportFormatError,
    compare,
    compare_table,
    dataset_from_log,
    dataset_from_measurements,
    fit_boosted,
    gen_dataset,
    model_to_json,
    parse_validation_spec,
    run_aml,
    run_em,
    summarize,
    train_model,
    write_measurement_log,
)

REL = 1e-12


@pytest.fixture(scope="module")
def ida_em(ida):
    return run_em(ida, PccOracle())


@pytest.fixture(scope="module")
def ida_log(ida, tmp_path_factory):
    path = tmp_path_factory.mktemp("logs") / "ida_em.csv"
    gen_dataset(ida, PccOracle(), path=str(path))
    return str(path)


# ----- run_em -------------------------------------------------------------------


def test_em_evaluates_whole_space(ida, ida_em):
    assert ida_em.evaluations_used == 101
    assert len(ida_em.records) == 101
    assert ida_em.method == "EM"
    assert ida_em.space_name == "ida"


def test_em_best_is_max_over_records(ida_em):
    assert ida_em.best_value == max(value for _, value in ida_em.records)


def test_em_best_matches_independent_enumeration(ida, ida_em):
    oracle = PccOracle()
    values = {w: oracle.evaluate(ida.make_config({"CPU-W": w})) for w in range(101)}
    best_w = max(values, key=values.get)
    assert ida_em.best_config["CPU-W"] == best_w
    assert ida_em.best_value == values[best_w]


def test_em_first_wins_on_ties(ida):
    class Constant:
        def evaluate(self, config):
            return 1.0

        def describe(self):
            return "const"

    report = run_em(ida, Constant())
    assert report.best_config == {"CPU-W": 0, "GPU-W": 100}  # enumeration order


def test_em_failure_carries_partial_report(ida):
    class Flaky:
        calls = 0

        def evaluate(self, config):
            Flaky.calls += 1
            if Flaky.calls > 7:
                raise RuntimeError("rig down")
            return float(config["CPU-W"])

        def describe(self):
            return "flaky"

    with pytest.raises(CampaignError) as excinfo:
        run_em(ida, Flaky())
    partial = excinfo.value.partial_report
    assert partial.evaluations_used == 7
    assert partial.best_value == 6.0


@pytest.mark.parametrize(
    "finite_calls, bad",
    [(7, math.nan), (7, math.inf), (7, -math.inf), (0, math.nan)],
    ids=["nan", "inf", "-inf", "nan-first"],
)
def test_em_non_finite_value_carries_partial_report(ida, finite_calls, bad):
    class TurnsBad:
        calls = 0

        def evaluate(self, config):
            self.calls += 1
            return bad if self.calls > finite_calls else float(config["CPU-W"])

    with pytest.raises(CampaignError, match=f"{bad!r} is not finite") as excinfo:
        run_em(ida, TurnsBad())
    partial = excinfo.value.partial_report
    assert partial.evaluations_used == finite_calls
    assert partial.best_value == (finite_calls - 1.0 if finite_calls else None)


# ----- run_aml -------------------------------------------------------------------


def test_aml_records_match_distinct_evaluations(ida):
    report = run_aml(ida, PccOracle(), AnnealParams(seed=0))
    assert report.method == "AML"
    assert len(report.records) == report.evaluations_used
    keys = {tuple(sorted(c.items())) for c, _ in report.records}
    assert len(keys) == report.evaluations_used
    assert report.records == report.trace.evaluations
    doc = report.to_dict()
    assert CampaignReport.from_dict(doc).to_dict() == doc


def test_aml_budget_fraction(emil):
    params = AnnealParams(evaluation_budget=100, seed=1)
    report = run_aml(emil, PatternMatchOracle(), params)
    assert report.budget == 100
    assert report.evaluations_used <= 100 + 3
    assert report.budget_fraction == report.evaluations_used / 14544


def test_aml_same_seed_same_report(ida):
    a = run_aml(ida, PccOracle(), AnnealParams(seed=9))
    b = run_aml(ida, PccOracle(), AnnealParams(seed=9))
    assert a.to_dict(include_wall_time=False) == b.to_dict(include_wall_time=False)


def test_aml_winner_at_least_boundary_seeds(ida):
    report = run_aml(ida, PccOracle(), AnnealParams(seed=2))
    seeds = report.trace.seed_evaluations
    assert len(seeds) >= 2
    assert all(report.best_value >= value for _, value in seeds)


def test_aml_never_beats_em(ida, ida_em):
    for seed in range(5):
        report = run_aml(ida, PccOracle(), AnnealParams(seed=seed))
        assert report.best_value <= ida_em.best_value


#: SHA-256 of the JSON of `to_dict(include_wall_time=False)` for one AML
#: search at 7 % of emil, recorded before `ParameterSpace` cached its tables
#: and before the one-row combine left NumPy. Any change to the search's
#: random draws, its trace or a prediction changes these bytes.
AML_ORACLE_SHA256 = "3c2682b0f8ace2f45e31bf6bcd091ac14a5a944c8d4b49c305f93df55ea2b54d"
AML_MODEL_SHA256 = "4ae7a1fe62646ca53fd40265b3a9370bac991df6d2308d6304a8ec60729464e7"


def aml_digest(space, evaluator):
    report = run_aml(space, evaluator, AnnealParams(evaluation_budget=1018, seed=5))
    doc = report.to_dict(include_wall_time=False)
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def test_aml_over_oracle_bytes_pinned(emil):
    assert aml_digest(emil, PatternMatchOracle()) == AML_ORACLE_SHA256


def test_aml_over_model_bytes_pinned(emil):
    # The model pinned as EMIL_MODEL_SHA256 in test_surrogate.py.
    rows = gen_dataset(emil, PatternMatchOracle(), sample=400, seed=3)
    model = fit_boosted(
        dataset_from_measurements(emil, rows), np.random.default_rng(11),
        n_estimators=8, max_depth=6,
    )
    assert aml_digest(emil, ModelEvaluator(model, emil)) == AML_MODEL_SHA256


#: SHA-256 of `json.dumps(to_dict(include_wall_time=False), indent=2)` for EM
#: over each bundled space with its oracle, recorded while `run_em` still
#: tracked the best value beside the records.
EM_IDA_SHA256 = "ffa09314da32cf04dbb00ba5c55723a23e8742b8801f4ae8b4bfdf5f47614796"
EM_EMIL_SHA256 = "449c27f8ec41d7f41758681e5c01ff1bccb23a999dcbfa47541f03c701892f21"


def em_digest(report):
    doc = report.to_dict(include_wall_time=False)
    return hashlib.sha256(json.dumps(doc, indent=2).encode("utf-8")).hexdigest()


def test_em_over_ida_bytes_pinned(ida_em):
    assert em_digest(ida_em) == EM_IDA_SHA256


def test_em_over_emil_bytes_pinned(emil):
    assert em_digest(run_em(emil, PatternMatchOracle())) == EM_EMIL_SHA256


# ----- report persistence -----------------------------------------------------------


def test_report_round_trip(ida, tmp_path):
    report = run_aml(ida, PccOracle(), AnnealParams(evaluation_budget=40, seed=3))
    path = tmp_path / "report.json"
    report.save(path)
    back = CampaignReport.load(path)
    assert back.to_dict() == report.to_dict()
    assert back.trace == report.trace


def test_report_can_exclude_wall_time(ida, tmp_path):
    report = run_em(ida, PccOracle())
    path = tmp_path / "report.json"
    report.save(path, include_wall_time=False)
    doc = json.loads(path.read_text())
    assert "wall_time_s" not in doc
    assert CampaignReport.load(path).wall_time_s is None


def test_report_rejects_inconsistent_best(ida):
    doc = run_aml(ida, PccOracle(), AnnealParams(evaluation_budget=20, seed=1)).to_dict()
    doc["best_value_mb_per_j"] -= 1.0
    with pytest.raises(ReportFormatError, match="best_value_mb_per_j = "):
        CampaignReport.from_dict(doc)


def test_report_rejects_unknown_method():
    with pytest.raises(ValueError):
        CampaignReport(method="XX", space_name="x", evaluator="e", records=())


@pytest.mark.parametrize(
    "key, value",
    [("records", "1.5"), ("records", True), ("best_value_mb_per_j", "1.5"),
     ("best_value_mb_per_j", False)],
)
def test_report_rejects_non_number_values(ida, key, value):
    doc = run_aml(ida, PccOracle(), AnnealParams(evaluation_budget=20, seed=1)).to_dict()
    if key == "records":
        doc["records"][0]["value"] = value
    else:
        doc[key] = value
    with pytest.raises(ReportFormatError, match="must be a number"):
        CampaignReport.from_dict(doc)


# ----- gen_dataset --------------------------------------------------------------------


def test_gen_full_enumeration(ida, ida_log):
    data = dataset_from_log(ida_log, ida)
    assert len(data) == 101
    assert data.feature_names == ida.names


def test_gen_replay_reproduces_oracle(ida, ida_log):
    oracle = PccOracle()
    replay = ReplayEvaluator.from_log(ida_log, ida)
    for w in range(0, 101, 9):
        config = ida.make_config({"CPU-W": w})
        assert replay.evaluate(config) == pytest.approx(
            oracle.evaluate(config), rel=1e-9
        )


def test_gen_sampled_reproducible(emil, tmp_path):
    oracle = PatternMatchOracle()
    rows_a = gen_dataset(emil, oracle, sample=50, seed=4)
    rows_b = gen_dataset(emil, oracle, sample=50, seed=4)
    assert rows_a == rows_b
    keys = {emil.config_key(m.config) for m in rows_a}
    assert len(keys) == 50  # sampling without replacement


def test_gen_sample_bounds(ida):
    with pytest.raises(ValueError):
        gen_dataset(ida, PccOracle(), sample=0)
    with pytest.raises(ValueError):
        gen_dataset(ida, PccOracle(), sample=102)


def test_gen_requires_measuring_evaluator(ida):
    class Bare:
        def evaluate(self, config):
            return 1.0

    with pytest.raises(TypeError):
        gen_dataset(ida, Bare())


# ----- validation specs -----------------------------------------------------------------


def test_parse_validation_specs():
    assert parse_validation_spec("none") == ("none", None)
    assert parse_validation_spec("kfold:10") == ("kfold", 10)
    assert parse_validation_spec("split:0.8") == ("split", 0.8)


@pytest.mark.parametrize(
    "bad", ["kfold:1", "kfold:x", "split:0", "split:1", "split:nope", "holdout:0.5", ""]
)
def test_parse_validation_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_validation_spec(bad)


# ----- train_model ----------------------------------------------------------------------


def test_train_with_kfold(ida, ida_log, tmp_path):
    result = train_model(
        ida_log,
        ida,
        hyper=Hyperparameters(n_estimators=10, max_depth=6),
        validation="kfold:5",
        seed=0,
        model_path=str(tmp_path / "m.json"),
    )
    assert result.n_rows == 101
    assert result.validation.scheme == "5-fold cross-validation"
    assert result.validation.n_samples == 101
    assert result.validation.r2 <= 1.0
    assert (tmp_path / "m.json").exists()


def test_train_with_split_reports_both_sizes(ida, ida_log):
    result = train_model(
        ida_log,
        ida,
        hyper=Hyperparameters(n_estimators=5, max_depth=5),
        validation="split:0.8",
        seed=0,
    )
    # ceil(0.8 * 101) = 81 training rows, 20 held out
    assert "train=81" in result.validation.scheme
    assert "test=20" in result.validation.scheme
    assert result.validation.n_samples == 20


def test_train_without_validation(ida, ida_log):
    result = train_model(
        ida_log,
        ida,
        hyper=Hyperparameters(n_estimators=5, max_depth=5),
        validation="none",
    )
    assert result.validation is None
    assert len(result.model.stages) >= 1


def test_train_needs_ten_rows(ida, tmp_path):
    oracle = PccOracle()
    rows = [oracle.measure(ida.make_config({"CPU-W": w})) for w in range(9)]
    path = tmp_path / "small.csv"
    write_measurement_log(path, ida, rows)
    with pytest.raises(ValueError):
        train_model(str(path), ida)


def test_train_same_seed_identical_bytes(ida, ida_log, tmp_path):
    hyper = Hyperparameters(n_estimators=8, max_depth=6)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    train_model(ida_log, ida, hyper=hyper, validation="none", seed=5, model_path=str(a))
    train_model(ida_log, ida, hyper=hyper, validation="kfold:4", seed=5, model_path=str(b))
    # the final model depends only on the log and the seed, not the validation
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("validation, fits", [("kfold:2", 3), ("kfold:10", 11), ("split:0.8", 2)])
def test_train_same_bits_on_any_cpu_count(ida, ida_log, cpus, validation, fits):
    trained = []
    for n in (1, 2, 3):
        forked = cpus(n)
        result = train_model(ida_log, ida, hyper=Hyperparameters(n_estimators=10, max_depth=6),
                             validation=validation, seed=3)
        assert len(forked) == min(n, fits) - 1
        trained.append((model_to_json(result.model), result.validation))
    assert trained[1] == trained[0] and trained[2] == trained[0]
    assert_no_children()


# ----- compare ------------------------------------------------------------------------------


def report_with_best(space_name, method, value):
    return CampaignReport(
        method=method,
        space_name=space_name,
        evaluator="synthetic",
        records=(({"CPU-W": 0}, value),),
    )


def test_compare_difference_close_to_published_row():
    row = compare(
        report_with_best("ida", "EM", 2.072),
        report_with_best("ida", "AML", 2.067),
        label="1024 x 4096",
    )
    assert row.abs_difference == pytest.approx(0.00474, abs=1e-3)


def test_compare_fraction_percent():
    row = compare(
        report_with_best("emil", "EM", 44.97),
        report_with_best("emil", "AML", 43.87),
    )
    assert row.aml_fraction_percent == pytest.approx(97.55, abs=5e-3)
    assert row.label == "emil"


def test_compare_identical_reports():
    row = compare(
        report_with_best("ida", "EM", 1.5), report_with_best("ida", "AML", 1.5)
    )
    assert row.abs_difference == 0.0
    assert row.aml_fraction_percent == 100.0


def test_compare_rejects_mismatched_spaces():
    with pytest.raises(ValueError):
        compare(
            report_with_best("ida", "EM", 1.0), report_with_best("emil", "AML", 1.0)
        )


def test_compare_requires_best_values():
    empty = CampaignReport(method="EM", space_name="ida", evaluator="e", records=())
    with pytest.raises(ReportFormatError):
        compare(empty, report_with_best("ida", "AML", 1.0))


def test_compare_row_difference_symmetric():
    a = CompareRow("x", 2.0, 3.0)
    b = CompareRow("x", 3.0, 2.0)
    assert a.abs_difference == b.abs_difference == 1.0


def test_compare_row_rejects_non_finite():
    with pytest.raises(ValueError):
        CompareRow("x", math.nan, 1.0)


def test_fraction_none_when_em_not_positive():
    row = CompareRow("x", 0.0, 1.0)
    assert row.aml_fraction_percent is None


def test_summarize():
    rows = [CompareRow("a", 2.0, 1.9), CompareRow("b", 4.0, 3.0)]
    summary = summarize(rows)
    assert summary["rows"] == 2
    assert summary["max_abs_difference"] == 1.0
    assert summary["mean_abs_difference"] == pytest.approx(0.55)
    assert summary["min_fraction_percent"] == 75.0
    assert summary["median_fraction_percent"] == pytest.approx((95.0 + 75.0) / 2)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_compare_table_renders():
    rows = [CompareRow("512 x 32768", 3.169, 3.169)]
    table = compare_table(rows)
    assert "512 x 32768" in table
    assert "100.00%" in table
    assert "3.169" in table
