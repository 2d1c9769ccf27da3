"""Campaign runner: EM/AML reports, dataset generation, training, comparison."""

import dataclasses
import gc
import hashlib
import json
import math
import random
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from conftest import assert_no_children, em_as_one_at_a_time
from heterotune import (
    AnnealParams,
    CampaignError,
    CampaignReport,
    CommandEvaluator,
    CompareRow,
    Evaluator,
    Hyperparameters,
    ModelEvaluator,
    Parameter,
    ParameterSpace,
    PatternMatchOracle,
    PccOracle,
    RawMeasurement,
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


class Sweep:
    """CPU-W as the value, until CPU-W 7: then `bad` is raised or returned."""

    def __init__(self, bad):
        self.bad = bad

    def evaluate(self, config):
        if config["CPU-W"] < 7:
            return float(config["CPU-W"])
        if isinstance(self.bad, Exception):
            raise self.bad
        return self.bad

    def describe(self):
        return "sweep"


class PureSweep(Sweep):
    """The same values, scored a whole sweep at a time."""

    def __init__(self, bad, batch_error=None):
        super().__init__(bad)
        self.batch_error = batch_error
        self.batches = 0

    def evaluate_codes(self, space, codes):
        self.batches += 1
        if self.batch_error is not None:
            raise self.batch_error
        return [self.evaluate(c) for c in space.configs(codes)]


@pytest.mark.parametrize(
    "batch_error", [None, KeyError("batch lost")], ids=["batch-loops", "batch-raises"]
)
@pytest.mark.parametrize(
    "bad", [RuntimeError("rig down"), math.nan, math.inf], ids=["raise", "nan", "inf"]
)
def test_em_batch_failure_is_the_one_at_a_time_failure(ida, bad, batch_error):
    with pytest.raises(CampaignError) as one_at_a_time:
        run_em(ida, Sweep(bad))
    pure = PureSweep(bad, batch_error)
    with pytest.raises(CampaignError) as batched:
        run_em(ida, pure)
    assert pure.batches == 1
    assert str(batched.value) == str(one_at_a_time.value)
    assert type(batched.value.__cause__) is type(one_at_a_time.value.__cause__)
    partial = batched.value.partial_report
    assert partial.evaluations_used == 7
    assert partial.to_dict(False) == one_at_a_time.value.partial_report.to_dict(False)


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_em_off_the_evaluator_tables_fails_as_one_at_a_time(emil, emil_8_tree_model, kind):
    """CPU-T 13 is off the oracle's tables; the model cannot encode a space without ACC-A."""
    if kind == "oracle":
        evaluator, first_failure = PatternMatchOracle(), 3636  # after every CPU-T 12 configuration
        cpu_t = Parameter("CPU-T", "levels", (12, 13))
        parameters = tuple(cpu_t if p.name == "CPU-T" else p for p in emil.parameters)
    else:
        evaluator, first_failure = ModelEvaluator(emil_8_tree_model, emil), 0
        parameters = tuple(p for p in emil.parameters if p.name != "ACC-A")
    failure = em_as_one_at_a_time(ParameterSpace("changed-emil", parameters), evaluator)
    assert failure.partial_report.evaluations_used == first_failure


class HostDrawOracle(PatternMatchOracle):
    """The emil-pm oracle with a 50 W host draw over the run, charged to the
    CPU where it works and to the accelerator otherwise."""

    def measure(self, config):
        m = super().measure(config)
        host_j = 50.0 * max(m.cpu_time_s, m.acc_time_s)
        if m.cpu_workload_mb > 0:
            return dataclasses.replace(m, cpu_energy_j=m.cpu_energy_j + host_j)
        return dataclasses.replace(m, acc_energy_j=m.acc_energy_j + host_j)


class CpuShareBonus(ModelEvaluator):
    """The model's estimate plus 0.1 MB/J per CPU-W percent."""

    def evaluate(self, config):
        return super().evaluate(config) + 0.1 * config["CPU-W"]


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_em_over_a_subclass_is_one_at_a_time(emil, emil_8_tree_model, kind):
    """A subclass that changes `measure` or `evaluate` is swept through them: the
    base class's batch declines, where it would give the base class's values."""
    if kind == "oracle":
        evaluator, base = HostDrawOracle(), PatternMatchOracle()
    else:
        evaluator = CpuShareBonus(emil_8_tree_model, emil)
        base = ModelEvaluator(emil_8_tree_model, emil)
    assert evaluator.evaluate_codes(emil, emil.codes()) is None
    report = em_as_one_at_a_time(emil, evaluator)
    assert report.best_value != run_em(emil, base).best_value


def test_em_over_an_instance_patch_is_one_at_a_time(emil, emil_8_tree_model):
    """`measure` or `evaluate` replaced on the instance is swept through too.
    The oracle's batch used to report 46.39 MB/J here: the unpatched optimum,
    whose pick measures 23.20 MB/J through the patch."""
    oracle = PatternMatchOracle()
    measure = oracle.measure

    def doubled_cpu_energy(config):
        m = measure(config)
        return dataclasses.replace(m, cpu_energy_j=2 * m.cpu_energy_j)

    oracle.measure = doubled_cpu_energy
    report = em_as_one_at_a_time(emil, oracle)
    assert round(report.best_value, 2) == 39.35
    assert oracle.evaluate(report.best_config) == report.best_value

    model = ModelEvaluator(emil_8_tree_model, emil)
    model.evaluate = lambda config: -ModelEvaluator.evaluate(model, config)
    assert model.evaluate_codes(emil, emil.codes()) is None
    report = em_as_one_at_a_time(emil, model)
    assert report.best_value == max(model.evaluate(c) for c in emil.enumerate_all())


def test_em_records_build_each_configuration_when_read(emil):
    report = run_em(emil, PatternMatchOracle())
    records, values = report.records, report.records.values
    expected = tuple(zip(emil.enumerate_all(), values))
    assert len(records) == len(expected) == 14544
    assert records[0] == expected[0] and records[-1] == expected[-1]
    assert list(records[0][0]) == list(expected[0][0])  # key order, as enumerate_all
    assert records[100:103] == expected[100:103] and len(records[100:103]) == 3
    assert list(records) == list(expected)
    assert records == expected and expected == records and records == list(expected)
    assert records != expected[:-1] and records != expected[:-1] + ((expected[0][0], 0.0),)
    first = records[0][0]
    first["CPU-T"] = 99  # a read record is a fresh dict
    assert records[0][0]["CPU-T"] == 12
    with pytest.raises(TypeError):
        records[0] = expected[1]
    assert report.best_value == max(values)
    assert report.best_config == expected[values.index(max(values))][0]
    back = CampaignReport.from_dict(report.to_dict())
    assert type(back.records) is tuple and back.records == records
    assert back == report and back.to_dict() == report.to_dict()


@pytest.mark.parametrize("kind, bound_mib", [("oracle", 4), ("model", 3)])
def test_em_sweep_memory_and_collections(emil, emil_8_tree_model, kind, bound_mib):
    """Bounds fixed from measured tracemalloc peaks of 2.78 MiB (oracle) and
    1.80 MiB (model), with no collection in a sweep; over the 14544
    configuration dicts, the peaks were 7.30 and 5.61 MiB, with 38 and 41
    collections."""
    evaluator = (PatternMatchOracle() if kind == "oracle"
                 else ModelEvaluator(emil_8_tree_model, emil))
    run_em(emil, evaluator)
    collections = []
    gc.collect()
    gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
    tracemalloc.start()
    try:
        report = run_em(emil, evaluator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.callbacks.pop()
    assert report.evaluations_used == 14544
    assert peak < bound_mib * 2**20
    assert collections == []


COUNTING_STUB = textwrap.dedent(
    """
    import sys
    w = int(sys.argv[1])
    with open(sys.argv[2], "a") as calls:
        calls.write(f"{w}\\n")
    if w >= 3:
        sys.exit(1)
    cpu = 1.0 if w else 0.0
    print(f"{w},{100 - w},100.0,{cpu},1.0,{cpu},1.0,{float(w)},{100.0 - w}")
    """
).strip()


def test_em_runs_a_failing_command_once_per_configuration(ida, tmp_path):
    script, calls = tmp_path / "rig.py", tmp_path / "calls.txt"
    script.write_text(COUNTING_STUB + "\n")
    evaluator = CommandEvaluator(f'"{sys.executable}" "{script}" {{CPU-W}} "{calls}"', ida)
    with pytest.raises(CampaignError, match="status 1") as excinfo:
        run_em(ida, evaluator)
    assert excinfo.value.partial_report.evaluations_used == 3
    assert calls.read_text().split() == ["0", "1", "2", "3"]


def test_measuring_commands_and_replay_have_no_batch():
    assert hasattr(PatternMatchOracle, "evaluate_codes")
    assert hasattr(ModelEvaluator, "evaluate_codes")
    for one_at_a_time in (Evaluator, CommandEvaluator, ReplayEvaluator, PccOracle):
        assert not hasattr(one_at_a_time, "evaluate_codes")
        assert not hasattr(one_at_a_time, "evaluate_many")


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
#: The same for ida-pcc (one free parameter) under the default schedule, with
#: no budget, seed 2; recorded while `anneal` still searched on dicts.
AML_IDA_SHA256 = "d999f0b74ace068b15f0170a0fa8b30c66b7ec452663ca19f53141a295fd0ab1"


def aml_digest(space, evaluator, params=AnnealParams(evaluation_budget=1018, seed=5)):
    report = run_aml(space, evaluator, params)
    doc = report.to_dict(include_wall_time=False)
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def test_aml_over_oracle_bytes_pinned(emil):
    assert aml_digest(emil, PatternMatchOracle()) == AML_ORACLE_SHA256


def test_aml_over_model_bytes_pinned(emil, emil_8_tree_model):
    assert aml_digest(emil, ModelEvaluator(emil_8_tree_model, emil)) == AML_MODEL_SHA256


def test_aml_over_ida_bytes_pinned(ida):
    assert aml_digest(ida, PccOracle(), AnnealParams(seed=2)) == AML_IDA_SHA256


#: SHA-256 of `json.dumps(to_dict(include_wall_time=False), indent=2)` for EM
#: over each bundled space with its oracle, recorded while `run_em` still
#: tracked the best value beside the records.
EM_IDA_SHA256 = "ffa09314da32cf04dbb00ba5c55723a23e8742b8801f4ae8b4bfdf5f47614796"
EM_EMIL_SHA256 = "449c27f8ec41d7f41758681e5c01ff1bccb23a999dcbfa47541f03c701892f21"
#: The same for EM over the 8-tree model, recorded while `run_em` still called
#: `evaluate` once per configuration.
EM_MODEL_SHA256 = "2368665d3e85349d5d569856180f908ee2ccce541cef6535203273782b1dc13e"


def em_digest(report):
    doc = report.to_dict(include_wall_time=False)
    return hashlib.sha256(json.dumps(doc, indent=2).encode("utf-8")).hexdigest()


def test_em_over_ida_bytes_pinned(ida_em):
    assert em_digest(ida_em) == EM_IDA_SHA256


def test_em_over_emil_bytes_pinned(emil):
    assert em_digest(run_em(emil, PatternMatchOracle())) == EM_EMIL_SHA256


def test_em_over_model_bytes_pinned(emil, emil_8_tree_model):
    assert em_digest(run_em(emil, ModelEvaluator(emil_8_tree_model, emil))) == EM_MODEL_SHA256


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


def test_gen_sample_builds_only_the_sampled_rows():
    """Two 4096-value ranges give 2**24 configurations, whose whole code matrix
    takes 64 MiB; a 10-row sample peaked at 0.04 MiB."""
    space = ParameterSpace("wide", (Parameter("A", "range", tuple(range(4096))),
                                    Parameter("B", "range", tuple(range(4096)))))

    class Flat:
        def measure(self, config):
            return RawMeasurement(dict(config), 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)

    tracemalloc.start()
    try:
        rows = gen_dataset(space, Flat(), sample=10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    picks = random.Random(0).sample(range(4096 * 4096), 10)
    assert [m.config for m in rows] == [{"A": i // 4096, "B": i % 4096} for i in picks]


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
