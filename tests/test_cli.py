"""Command-line interface: subcommands, artifacts, and exit codes."""

import importlib.metadata
import json
import math
import os
import shutil
import sys
from pathlib import Path

import pytest

from heterotune import (
    AnnealParams, CampaignReport, MeasurementLogError, PccOracle, ReportFormatError,
    SpaceDefinitionError, bundled_data_path, bundled_space, load_space, read_measurement_log,
    run_aml, surrogate, write_measurement_log,
)
from heterotune.cli import main

REPLAY = f"replay:{bundled_data_path('ida_512x32768_em')}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- space-info -----------------------------------------------------------------


def test_space_info(capsys):
    code, out, _ = run(capsys, "space-info", "--space", "emil")
    assert code == 0
    assert "cardinality: 14544" in out
    assert "CPU-A" in out


def test_space_info_from_file(capsys, tmp_path):
    path = tmp_path / "custom.yaml"
    path.write_text(
        "name: custom\n"
        "parameters:\n"
        "  - name: V\n"
        "    kind: range\n"
        "    min: 0\n"
        "    max: 4\n"
    )
    code, out, _ = run(capsys, "space-info", "--space", str(path))
    assert code == 0
    assert "cardinality: 5" in out


def test_unknown_space_is_usage_error(capsys):
    code, _, err = run(capsys, "space-info", "--space", "neither")
    assert code == 1
    assert "neither" in err


# ----- em --------------------------------------------------------------------------


def test_em_replay_finds_recorded_optimum(capsys, tmp_path):
    out_path = tmp_path / "em.json"
    code, out, _ = run(
        capsys, "em", "--space", "ida", "--eval", REPLAY, "--out", str(out_path)
    )
    assert code == 0
    assert "method: EM" in out
    assert "best: CPU-W=0, GPU-W=100" in out
    assert "efficiency: 3.169000 MB/J" in out
    assert "evaluations: 101" in out
    report = CampaignReport.load(out_path)
    assert report.best_value == pytest.approx(3.169, rel=1e-12)


def test_em_report_omits_wall_time(capsys, tmp_path):
    out_path = tmp_path / "em.json"
    code, _, _ = run(
        capsys, "em", "--space", "ida", "--eval", "oracle:ida-pcc",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert "wall_time_s" not in doc
    assert doc["method"] == "EM"
    assert doc["evaluations_used"] == 101


# ----- aml -------------------------------------------------------------------------


def test_aml_with_budget_and_trace(capsys, tmp_path):
    out_path = tmp_path / "aml.json"
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        "aml", "--space", "ida", "--eval", "oracle:ida-pcc",
        "--seed", "3", "--budget", "50",
        "--out", str(out_path), "--trace", str(trace_path),
    )
    assert code == 0
    assert "method: AML" in out
    assert "budget: 50" in out
    report = CampaignReport.load(out_path)
    assert report.evaluations_used <= 53
    assert trace_path.exists()
    header = trace_path.read_text().splitlines()[0]
    assert header.startswith("step,temperature,CPU-W,GPU-W,value")


def test_aml_budget_fraction(capsys, tmp_path):
    out_path = tmp_path / "aml.json"
    code, _, _ = run(
        capsys,
        "aml", "--space", "ida", "--eval", REPLAY,
        "--seed", "0", "--budget-fraction", "0.2",
        "--out", str(out_path),
    )
    assert code == 0
    report = CampaignReport.load(out_path)
    assert report.budget == 20  # int(0.2 * 101)
    assert report.seed == 0


@pytest.mark.parametrize("fraction", ["inf", "0", "-3"])
def test_aml_budget_fraction_must_be_positive_and_finite(capsys, fraction):
    code, _, err = run(
        capsys,
        "aml", "--space", "ida", "--eval", REPLAY, "--budget-fraction", fraction,
    )
    assert code == 1
    assert "--budget-fraction must be positive and finite" in err


def test_aml_budget_flags_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "aml", "--space", "ida", "--eval", REPLAY,
                "--budget", "5", "--budget-fraction", "0.1",
            ]
        )
    assert excinfo.value.code == 1
    assert "not allowed with" in capsys.readouterr().err


# ----- gen / train / predict pipeline ------------------------------------------------


def test_gen_train_predict_pipeline(capsys, tmp_path):
    log = tmp_path / "ida.csv"
    model = tmp_path / "model.json"
    predictions = tmp_path / "predictions.csv"

    code, out, _ = run(
        capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log)
    )
    assert code == 0
    assert "wrote 101 measurement rows" in out

    code, out, _ = run(
        capsys,
        "train", "--space", "ida", "--log", str(log), "--out", str(model),
        "--validation", "kfold:5", "--trees", "10", "--max-depth", "6",
    )
    assert code == 0
    assert "trained on 101 rows" in out
    assert "validation: 5-fold cross-validation" in out

    code, out, _ = run(
        capsys,
        "predict", "--space", "ida", "--model", str(model),
        "--config", "CPU-W=0", "--config", "CPU-W=50",
        "--out", str(predictions),
    )
    assert code == 0
    assert out.count("MB/J") >= 2
    rows = predictions.read_text().splitlines()
    assert rows[0] == "CPU-W,GPU-W,predicted_mb_per_j"
    assert len(rows) == 3


@pytest.mark.parametrize("validation", ["kfold:10", "none"])
@pytest.mark.parametrize(
    "rate, message",
    [("inf", "learning_rate must be positive and finite"),
     ("nan", "learning_rate must be positive and finite"),
     ("1e308", "stage weight inf is not finite")],
    ids=["inf", "nan", "1e308"],
)
def test_train_never_writes_an_unloadable_model(capsys, tmp_path, rate, message, validation):
    log = tmp_path / "ida.csv"
    model = tmp_path / "model.json"
    run(capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log))
    code, _, err = run(
        capsys,
        "train", "--space", "ida", "--log", str(log), "--out", str(model),
        "--validation", validation, "--learning-rate", rate,
    )
    assert code == 1
    assert message in err
    assert not model.exists()


def test_train_exits_2_when_a_training_process_dies(capsys, tmp_path, monkeypatch, cpus):
    log = tmp_path / "ida.csv"
    model = tmp_path / "model.json"
    run(capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log))
    caller, fit = os.getpid(), surrogate.fit_boosted

    def fit_or_die(train, rng, **hyper):
        if os.getpid() != caller:
            os._exit(5)
        return fit(train, rng, **hyper)

    monkeypatch.setattr(surrogate, "fit_boosted", fit_or_die)
    cpus(2)
    code, _, err = run(
        capsys,
        "train", "--space", "ida", "--log", str(log), "--out", str(model), "--trees", "3",
    )
    assert code == 2
    assert "execution error" in err and "exited with status 5" in err
    assert not model.exists()


@pytest.mark.parametrize(
    "edits, message",
    [({"cpu_energy_j": "0.0", "acc_energy_j": "0.0"}, "zero total power"),
     ({"cpu_time_s": "0.0"}, "cpu unit has energy 676.0169472 but zero time")],
    ids=["zero-energy", "energy-over-zero-time"],
)
def test_train_exits_3_naming_a_row_without_an_efficiency(capsys, tmp_path, edits, message):
    log, bad, model = tmp_path / "ida.csv", tmp_path / "bad.csv", tmp_path / "model.json"
    run(capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log))
    lines = log.read_text().splitlines()
    header, fields = lines[0].split(","), lines[51].split(",")
    assert fields[:2] == ["50", "50"]  # both units busy: times and workloads are not 0
    for column, value in edits.items():
        fields[header.index(column)] = value
    lines[51] = ",".join(fields)
    bad.write_text("\n".join(lines) + "\n")
    assert len(read_measurement_log(str(bad), bundled_space("ida"))) == 101  # the log reads
    code, _, err = run(capsys, "train", "--space", "ida", "--log", str(bad), "--out", str(model))
    assert code == 3
    assert "data error: measurement row 51 ({'CPU-W': 50, 'GPU-W': 50}): " + message in err
    assert not model.exists()


def test_gen_sampled(capsys, tmp_path):
    log = tmp_path / "emil.csv"
    code, out, _ = run(
        capsys,
        "gen", "--space", "emil", "--oracle", "emil-pm",
        "--out", str(log), "--sample", "60", "--seed", "2",
    )
    assert code == 0
    assert "wrote 60 measurement rows" in out


def test_predict_all_over_small_space(capsys, tmp_path):
    log = tmp_path / "ida.csv"
    model = tmp_path / "model.json"
    run(capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log))
    run(
        capsys,
        "train", "--space", "ida", "--log", str(log), "--out", str(model),
        "--validation", "none", "--trees", "5",
    )
    code, out, _ = run(
        capsys, "predict", "--space", "ida", "--model", str(model), "--all"
    )
    assert code == 0
    assert out.count("MB/J") == 101


def test_predict_requires_config_or_all(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--space", "ida", "--model", str(tmp_path / "m.json")])
    assert excinfo.value.code == 1
    assert "--config" in capsys.readouterr().err


def test_predict_rejects_config_with_all(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "predict", "--space", "ida", "--model", str(tmp_path / "m.json"),
            "--all", "--config", "NOPE=zz",
        ])
    assert excinfo.value.code == 1
    assert "not allowed with" in capsys.readouterr().err


def test_predict_bad_config_value(capsys, tmp_path):
    log = tmp_path / "ida.csv"
    model = tmp_path / "model.json"
    run(capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log))
    run(
        capsys,
        "train", "--space", "ida", "--log", str(log), "--out", str(model),
        "--validation", "none", "--trees", "5",
    )
    code, _, err = run(
        capsys,
        "predict", "--space", "ida", "--model", str(model),
        "--config", "CPU-W=200",
    )
    assert code == 1
    assert "invalid --config" in err


# ----- compare --------------------------------------------------------------------------


def test_compare_reports(capsys, tmp_path):
    em_path = tmp_path / "em.json"
    aml_path = tmp_path / "aml.json"
    compare_path = tmp_path / "compare.json"
    run(capsys, "em", "--space", "ida", "--eval", REPLAY, "--out", str(em_path))
    run(
        capsys,
        "aml", "--space", "ida", "--eval", REPLAY, "--seed", "1",
        "--out", str(aml_path),
    )
    code, out, _ = run(
        capsys,
        "compare", "--em", str(em_path), "--aml", str(aml_path),
        "--label", "512 x 32768", "--out", str(compare_path),
    )
    assert code == 0
    assert "512 x 32768" in out
    doc = json.loads(compare_path.read_text())
    assert doc["rows"][0]["label"] == "512 x 32768"
    assert doc["summary"]["rows"] == 1
    assert doc["rows"][0]["em_value"] == pytest.approx(3.169, rel=1e-12)


def test_compare_rejects_swapped_reports(capsys, tmp_path):
    em_path = tmp_path / "em.json"
    aml_path = tmp_path / "aml.json"
    run(capsys, "em", "--space", "ida", "--eval", REPLAY, "--out", str(em_path))
    run(capsys, "aml", "--space", "ida", "--eval", REPLAY, "--out", str(aml_path))
    code, out, err = run(capsys, "compare", "--em", str(aml_path), "--aml", str(em_path))
    assert code == 3
    assert "data error" in err and "got AML and EM" in err
    assert "AML/EM" not in out


# ----- exit codes --------------------------------------------------------------------------


def test_exit_2_on_command_failure(capsys, tmp_path):
    script = tmp_path / "fail.py"
    script.write_text("import sys; sys.exit(9)\n")
    code, _, err = run(
        capsys,
        "em", "--space", "ida", "--eval", f'cmd:"{sys.executable}" "{script}"',
    )
    assert code == 2
    assert "execution error" in err


def test_exit_3_on_command_log_that_is_not_utf8(capsys, tmp_path):
    script, calls, log = tmp_path / "rig.py", tmp_path / "calls.txt", tmp_path / "bad.csv"
    script.write_text(
        "import sys\nw = int(sys.argv[1])\nopen(sys.argv[2], 'a').write(f'{w}\\n')\n"
        "print(f'{w},{100 - w},100.0,1.0,1.0,1.0,1.0,{float(w)},{100.0 - w}')\n"
    )
    log.write_bytes(b"\xff\xfe")
    code, _, err = run(
        capsys,
        "aml", "--space", "ida", "--eval", f'cmd:"{sys.executable}" "{script}" {{CPU-W}} "{calls}"',
        "--cmd-log", str(log), "--budget", "3",
    )
    assert code == 3
    assert "data error" in err and "not UTF-8" in err
    assert not calls.exists()  # the command never ran
    assert log.read_bytes() == b"\xff\xfe"


def test_exit_2_on_non_finite_em_value(capsys, tmp_path):
    # A valid measurement row whose efficiency overflows: 1e308 MB for 1e-300 J.
    script = tmp_path / "rig.py"
    script.write_text(
        "import sys\nw = int(sys.argv[1])\n"
        "print(f'{w},{100 - w},1e308,0.0,1e-300,0.0,1e-300,0.0,1e308')\n"
    )
    out = tmp_path / "em.json"
    code, _, err = run(
        capsys,
        "em", "--space", "ida", "--eval", f'cmd:"{sys.executable}" "{script}" {{CPU-W}}',
        "--out", str(out),
    )
    assert code == 2
    assert "execution error" in err and "inf is not finite" in err
    assert not out.exists()


def test_exit_2_on_incomplete_replay(capsys, tmp_path):
    # replay log covering two configurations cannot serve the full space
    from heterotune import PccOracle, bundled_space, write_measurement_log

    ida = bundled_space("ida")
    oracle = PccOracle()
    rows = [oracle.measure(ida.make_config({"CPU-W": w})) for w in (0, 1)]
    log = tmp_path / "partial.csv"
    write_measurement_log(log, ida, rows)
    code, _, err = run(capsys, "em", "--space", "ida", "--eval", f"replay:{log}")
    assert code == 2
    assert "execution error" in err


def test_exit_2_when_the_oracle_rejects_a_gen_configuration(capsys, tmp_path):
    # emil's parameters, with a CPU thread count the emil-pm oracle does not model
    space = tmp_path / "emil13.yaml"
    space.write_text(
        "name: emil13\nparameters:\n"
        "  - {name: CPU-T, kind: levels, values: [12, 13]}\n"
        "  - {name: ACC-T, kind: levels, values: [60]}\n"
        "  - {name: CPU-A, kind: categorical, labels: [none]}\n"
        "  - {name: ACC-A, kind: categorical, labels: [balanced]}\n"
        "  - {name: CPU-W, kind: range, min: 0, max: 2}\n"
        "  - {name: ACC-W, derived_from: CPU-W}\n"
    )
    log = tmp_path / "log.csv"
    code, _, err = run(
        capsys, "gen", "--space", str(space), "--oracle", "emil-pm", "--out", str(log)
    )
    assert code == 2
    assert "execution error" in err and "'CPU-T': 13" in err
    assert "after 3 measurements" in err and "outside the modeled domain" in err
    assert not log.exists()


def test_exit_3_on_malformed_log(capsys, tmp_path):
    log = tmp_path / "bad.csv"
    log.write_text("definitely,not,a,measurement,log\n")
    code, _, err = run(
        capsys, "train", "--space", "ida", "--log", str(log)
    )
    assert code == 3
    assert "data error" in err


@pytest.mark.parametrize("data_rows", [0, 3])
def test_exit_3_on_too_short_log(capsys, tmp_path, data_rows):
    log = tmp_path / "ida.csv"
    run(capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log))
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[: 1 + data_rows]))
    code, _, err = run(capsys, "train", "--space", "ida", "--log", str(log))
    assert code == 3
    assert f"at least 10 measurement rows, got {data_rows}" in err


def test_exit_3_on_malformed_model(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text('{"not": "a model"}')
    code, _, err = run(
        capsys,
        "predict", "--space", "ida", "--model", str(model), "--all",
    )
    assert code == 3
    assert "data error" in err


def drop_records(doc):
    del doc["records"]


def miscount_records(doc):
    doc["evaluations_used"] += 1


def miscount_trace(doc):
    doc["trace"]["evaluations_used"] += 1


def stringify_values(doc):
    for entry in doc["records"]:
        entry["value"] = str(entry["value"])
    doc["best_value_mb_per_j"] = str(doc["best_value_mb_per_j"])


def bool_best_value(doc):
    doc["best_value_mb_per_j"] = True


def move_best_config(doc):
    doc["best_config"] = doc["records"][0]["config"]
    assert doc["records"][0]["value"] != doc["best_value_mb_per_j"]


def move_trace_winner(doc):
    doc["trace"]["winner_config"] = doc["records"][0]["config"]
    assert doc["records"][0]["value"] != doc["trace"]["winner_value"]


def lower_trace_winner_value(doc):
    doc["trace"]["winner_value"] -= 1.0


def fractional_count(doc):
    doc["evaluations_used"] += 0.5


def string_accepted(doc):
    doc["trace"]["steps"][0]["accepted"] = "false"


def string_step_value(doc):
    doc["trace"]["steps"][0]["value"] = str(doc["trace"]["steps"][0]["value"])


def nest_deeply(doc):
    return "[" * 100000 + "]" * 100000


def string_budget(doc):
    doc["budget"] = "10"


def fractional_budget(doc):
    doc["budget"] = 10.5


def string_budget_fraction(doc):
    doc["budget_fraction"] = "abc"


def infinite_budget_fraction(doc):
    doc["budget_fraction"] = math.inf  # written as Infinity, which the reader parses


def bool_seed(doc):
    doc["seed"] = True


def list_anneal_params(doc):
    doc["anneal_params"] = [1]


@pytest.mark.parametrize(
    "corrupt",
    [miscount_records, drop_records, miscount_trace, stringify_values, bool_best_value,
     move_best_config, move_trace_winner, lower_trace_winner_value, fractional_count,
     string_accepted, string_step_value, nest_deeply, string_budget, fractional_budget,
     string_budget_fraction, infinite_budget_fraction, bool_seed, list_anneal_params],
    ids=["record-count", "missing-records", "trace-count", "string-values", "bool-best",
         "best-config", "trace-winner-config", "trace-winner-value", "fractional-count",
         "string-accepted", "string-step-value", "deep-nesting", "string-budget",
         "fractional-budget", "string-budget-fraction", "infinite-budget-fraction",
         "bool-seed", "list-anneal-params"],
)
def test_exit_3_on_malformed_report(capsys, tmp_path, corrupt):
    em_path = tmp_path / "em.json"
    aml_path = tmp_path / "aml.json"
    run(capsys, "em", "--space", "ida", "--eval", REPLAY, "--out", str(em_path))
    run(capsys, "aml", "--space", "ida", "--eval", REPLAY, "--out", str(aml_path))
    doc = json.loads(aml_path.read_text())
    text = corrupt(doc)  # a corruption returns the whole text, or edits the document
    aml_path.write_text(json.dumps(doc) if text is None else text)
    code, _, err = run(capsys, "compare", "--em", str(em_path), "--aml", str(aml_path))
    assert code == 3
    assert "data error" in err and "malformed campaign report" in err


def test_exit_3_on_report_without_best_value(capsys, tmp_path):
    em_path = tmp_path / "em.json"
    aml_path = tmp_path / "aml.json"
    run(capsys, "em", "--space", "ida", "--eval", REPLAY, "--out", str(em_path))
    run(capsys, "aml", "--space", "ida", "--eval", REPLAY, "--out", str(aml_path))
    doc = json.loads(em_path.read_text())
    doc.update(records=[], evaluations_used=0, best_config=None, best_value_mb_per_j=None)
    em_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compare", "--em", str(em_path), "--aml", str(aml_path))
    assert code == 3
    assert "data error" in err and "need a best value" in err


def train_ida_model(capsys, tmp_path):
    log = tmp_path / "ida.csv"
    model = tmp_path / "model.json"
    run(capsys, "gen", "--space", "ida", "--oracle", "ida-pcc", "--out", str(log))
    run(
        capsys,
        "train", "--space", "ida", "--log", str(log), "--out", str(model),
        "--validation", "none", "--trees", "3",
    )
    return model


def corrupt_root_split(model, key, value):
    """Overwrite one field of the first stage's root split in a saved model."""
    doc = json.loads(model.read_text())
    root = doc["stages"][0]["tree"]
    assert "feature" in root
    root[key] = value
    model.write_text(json.dumps(doc))


def test_exit_3_on_out_of_range_feature(capsys, tmp_path):
    model = train_ida_model(capsys, tmp_path)
    corrupt_root_split(model, "feature", 7)
    code, _, err = run(
        capsys,
        "predict", "--space", "ida", "--model", str(model), "--config", "CPU-W=5",
    )
    assert code == 3
    assert "data error" in err
    assert "split feature 7" in err


def test_exit_3_on_fractional_feature(capsys, tmp_path):
    model = train_ida_model(capsys, tmp_path)
    corrupt_root_split(model, "feature", 0.9)  # once read as feature 0
    code, _, err = run(
        capsys,
        "predict", "--space", "ida", "--model", str(model), "--config", "CPU-W=5",
    )
    assert code == 3
    assert "data error" in err
    assert "split feature must be a JSON int" in err


def test_exit_3_on_nan_threshold(capsys, tmp_path):
    model = train_ida_model(capsys, tmp_path)
    corrupt_root_split(model, "threshold", float("nan"))
    code, _, err = run(
        capsys,
        "predict", "--space", "ida", "--model", str(model), "--config", "CPU-W=5",
    )
    assert code == 3
    assert "data error" in err
    assert "not finite" in err


def test_predict_space_mismatch_is_usage_error(capsys, tmp_path):
    model = train_ida_model(capsys, tmp_path)
    code, _, err = run(
        capsys, "predict", "--space", "emil", "--model", str(model), "--all"
    )
    assert code == 1
    assert "do not match" in err


def test_exit_3_on_malformed_space_yaml(capsys, tmp_path):
    path = tmp_path / "broken.yaml"
    for text in ("parameters: [unclosed\n", "parameters: " + "[" * 5000 + "]" * 5000 + "\n"):
        path.write_text(text)
        code, _, err = run(capsys, "space-info", "--space", str(path))
        assert code == 3
        assert "data error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--space", "emil", "--model", "{bad}", "--all"],
        ["train", "--space", "emil", "--log", "{bad}"],
        ["em", "--space", "emil", "--eval", "replay:{bad}"],
        ["space-info", "--space", "{bad}"],
    ],
    ids=["model", "log", "replay-log", "space"],
)
def test_exit_3_on_file_that_is_not_utf8(capsys, tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, *(a.replace("{bad}", str(bad)) for a in argv))
    assert code == 3
    assert "data error" in err and "can't decode" in err


HUGE = 10**400  # an int past the float range and past a C ssize_t
ONE_PARAMETER_SPACE = "name: huge\nparameters:\n  - name: A\n"


def huge_report_member(*keys):
    """Writes an AML report whose member at `keys` is HUGE."""
    def write(path):
        doc = run_aml(bundled_space("ida"), PccOracle(),
                      AnnealParams(evaluation_budget=20, seed=1)).to_dict()
        *outer, last = keys
        parent = doc
        for key in outer:
            parent = parent[key]
        parent[last] = HUGE
        path.write_text(json.dumps(doc))
    return write


def space_text(parameter):
    return lambda path: path.write_text(ONE_PARAMETER_SPACE + parameter)


def log_with_long_field(path):
    """Writes an ida log whose one row is a quoted field past csv's size limit."""
    write_measurement_log(path, bundled_space("ida"), [])
    with path.open("a") as sink:
        sink.write('"' + "x" * 200_000 + '"\n')


READERS = {
    "report": (CampaignReport.load, ReportFormatError),
    "space": (load_space, SpaceDefinitionError),
    "log": (lambda path: read_measurement_log(path, bundled_space("ida")), MeasurementLogError),
}
COMPARE = ["compare", "--em", "{file}", "--aml", "{file}"]


@pytest.mark.parametrize(
    "reader, write, argv",
    [
        ("report", huge_report_member("records", 0, "value"), COMPARE),
        ("report", huge_report_member("budget_fraction"), COMPARE),
        ("report", huge_report_member("trace", "steps", 0, "temperature"), COMPARE),
        ("report", None, COMPARE),
        ("space", space_text(f"    kind: levels\n    values: [1, {HUGE}]\n"),
         ["space-info", "--space", "{file}"]),
        ("space", space_text(f"    kind: range\n    min: 0\n    max: {HUGE}\n"),
         ["space-info", "--space", "{file}"]),
        ("space", space_text("    kind: levels\n    values: [[1], [2]]\n"),
         ["space-info", "--space", "{file}"]),
        ("space", space_text("    kind: categorical\n    labels: [{a: 1}]\n"),
         ["space-info", "--space", "{file}"]),
        ("log", log_with_long_field, ["train", "--space", "ida", "--log", "{file}"]),
        ("log", log_with_long_field, ["em", "--space", "ida", "--eval", "replay:{file}"]),
    ],
    ids=["report-huge-record-value", "report-huge-budget-fraction",
         "report-huge-step-temperature", "report-missing", "space-huge-level",
         "space-huge-range-max", "space-list-levels", "space-mapping-label",
         "log-long-field-train", "log-long-field-replay"],
)
def test_malformed_file_is_a_data_error(capsys, tmp_path, reader, write, argv):
    path = tmp_path / "file"
    if write is not None:  # else the file is missing
        write(path)
    read, error = READERS[reader]
    with pytest.raises(error):
        read(path)
    code, _, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert code == 3
    assert "heterotune: data error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "parameter, message",
    [
        ("    kind: levels\n    values: [0, true]\n", "not booleans"),
        ("    kind: range\n    min: false\n    max: 4\n", "integer min <= max"),
    ],
    ids=["bool-level", "bool-range-bound"],
)
def test_exit_3_on_boolean_in_numeric_space(capsys, tmp_path, parameter, message):
    path = tmp_path / "bools.yaml"
    path.write_text("name: bools\nparameters:\n  - name: A\n" + parameter)
    code, _, err = run(capsys, "space-info", "--space", str(path))
    assert code == 3
    assert message in err


def test_exit_1_on_unknown_oracle(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "gen", "--space", "ida", "--oracle", "ida-pcc", "--out",
        str(tmp_path / "x.csv"), "--sample", "500",
    )
    assert code == 1  # sample exceeds cardinality -> usage error


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    assert "usage:" in capsys.readouterr().err.lower()


def distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("heterotune") == "heterotune.cli:main"
    target = importlib.metadata.EntryPoint(
        name="heterotune", value=scripts["heterotune"], group="console_scripts"
    ).load()
    assert callable(target)
    assert target is main


@pytest.mark.skipif(
    not distribution_installed("heterotune"),
    reason="the heterotune distribution is not installed "
    "(importlib.metadata.PackageNotFoundError); the console script exists "
    "only after `pip install`",
)
def test_console_script_installed():
    assert shutil.which("heterotune") is not None
    entry_points = [
        ep
        for ep in importlib.metadata.distribution("heterotune").entry_points
        if ep.group == "console_scripts" and ep.name == "heterotune"
    ]
    assert len(entry_points) == 1
    assert entry_points[0].load() is main
