"""Acceptance gate: the eight end-to-end claims this package must honor.

Each test prints exactly one PASS/FAIL line (surfaced by the -rP report
option configured in pyproject.toml) and then asserts the same condition.
"""

import csv
import hashlib
import math
import os
import random
import statistics
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import heterotune
from heterotune import (
    AnnealParams,
    CommandEvaluator,
    CompareRow,
    ModelEvaluator,
    PatternMatchOracle,
    PccOracle,
    RawMeasurement,
    acceptance_probability,
    anneal,
    bundled_data_path,
    dataset_from_measurements,
    derive_all,
    fit_boosted,
    gen_dataset,
    kfold_cv,
    model_to_json,
    run_em,
    space_from_dict,
)

REL = 1e-12
# sha256 of model_to_json(emil_model): the default 50-stage, depth-8 model.
DEFAULT_EMIL_MODEL_SHA256 = "9dde10b73ef5b4d3befa6c925c792fe07fa316a29ca47477f99bf1ec8a663e03"


def verdict(number, title, ok, detail):
    line = f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ----- shared fixtures -------------------------------------------------------------


@pytest.fixture(scope="module")
def emil_dataset(emil):
    """5000 distinct oracle measurements of the large space, plus gen time."""
    started = time.perf_counter()
    rows = gen_dataset(emil, PatternMatchOracle(), sample=5000, seed=0)
    data = dataset_from_measurements(emil, rows)
    return data, time.perf_counter() - started


@pytest.fixture(scope="module")
def boosted_cv(emil_dataset):
    """Default-hyperparameter 10-fold CV of the boosted model, plus CV time."""
    data, _ = emil_dataset
    started = time.perf_counter()
    outcome = kfold_cv(data, 10, np.random.default_rng(0))
    return outcome, time.perf_counter() - started


@pytest.fixture(scope="module")
def emil_model(emil_dataset):
    data, _ = emil_dataset
    return fit_boosted(data, np.random.default_rng(0))


def test_default_model_bytes_pinned(emil_model):
    digest = hashlib.sha256(model_to_json(emil_model).encode("utf-8")).hexdigest()
    assert digest == DEFAULT_EMIL_MODEL_SHA256


# ----- criterion 1: surrogate accuracy ----------------------------------------------


def test_criterion_1_surrogate_accuracy(emil_dataset, boosted_cv):
    data, gen_seconds = emil_dataset
    outcome, cv_seconds = boosted_cv
    total = gen_seconds + cv_seconds
    ok = len(data) >= 5000 and outcome.r2 >= 0.95 and total < 60.0
    line = verdict(
        1,
        "surrogate accuracy",
        ok,
        f"10-fold CV R^2 = {outcome.r2:.4f} (need >= 0.95) on {len(data)} rows "
        f"in {total:.1f} s (need < 60 s)",
    )
    assert ok, line


# ----- criterion 2: search budget ----------------------------------------------------


def test_criterion_2_budget_claim(emil):
    started = time.perf_counter()
    oracle = PatternMatchOracle()
    em = run_em(emil, oracle)
    budget = int(0.07 * emil.cardinality())

    ratios = []
    for seed in range(30):
        trace = anneal(
            emil, oracle, AnnealParams(evaluation_budget=budget, seed=seed)
        )
        assert trace.evaluations_used <= budget + 3
        ratios.append(trace.winner_value / em.best_value)
    elapsed = time.perf_counter() - started

    successes = sum(1 for r in ratios if r >= 0.95)
    median = statistics.median(ratios)
    ok = successes >= 27 and median >= 0.97 and elapsed < 300.0
    line = verdict(
        2,
        "budget claim",
        ok,
        f"budget {budget} (7% of {emil.cardinality()}): {successes}/30 seeds "
        f">= 95% of the exhaustive optimum (need >= 27), median "
        f"{100 * median:.2f}% (need >= 97%), in {elapsed:.1f} s (need < 300 s)",
    )
    assert ok, line


def test_criterion_2b_budget_claim_over_model(emil, emil_model):
    """The paper's method: anneal over the surrogate, then measure the pick."""
    started = time.perf_counter()
    oracle = PatternMatchOracle()
    em = run_em(emil, oracle)
    budget = int(0.07 * emil.cardinality())
    evaluator = ModelEvaluator(emil_model, emil)

    ratios, winners = [], []
    for seed in range(30):
        trace = anneal(
            emil, evaluator, AnnealParams(evaluation_budget=budget, seed=seed)
        )
        assert trace.evaluations_used <= budget + 3
        ratios.append(oracle.evaluate(trace.winner_config) / em.best_value)
        winners.append(trace.winner_value)
    elapsed = time.perf_counter() - started

    # Where the loss comes from, reported but not bounded. Model regret: the
    # oracle's value at the model's own argmax over the EM optimum. Search
    # regret: the winner's model value over the model maximum (median over seeds).
    configs = list(emil.enumerate_all())
    predictions = evaluator.evaluate_codes(emil, emil.codes())
    model_max = max(predictions)
    model_argmax = configs[predictions.index(model_max)]
    model_regret = oracle.evaluate(model_argmax) / em.best_value
    search_regret = statistics.median(value / model_max for value in winners)

    # Measured on a 2-core box: median 96.40 %, lowest seed 93.25 %, 3.2 s.
    median = statistics.median(ratios)
    ok = median >= 0.95 and min(ratios) >= 0.90 and elapsed < 30.0
    line = verdict(
        "2b",
        "budget claim over the model",
        ok,
        f"budget {budget} over the 5000-row surrogate, picks measured with the "
        f"oracle: median {100 * median:.2f}% of the exhaustive optimum "
        f"(need >= 95%), lowest seed {100 * min(ratios):.2f}% (need >= 90%), "
        f"in {elapsed:.1f} s (need < 30 s); model regret {100 * model_regret:.2f}% "
        f"(the model's argmax measured), search regret {100 * search_regret:.2f}% "
        f"(median winner over the model maximum)",
    )
    assert ok, line


# ----- criterion 3: speed claim --------------------------------------------------------


LATENCY_STUB = textwrap.dedent(
    """
    import sys, time
    time.sleep(0.1)  # simulated program run
    w = int(sys.argv[1])
    workload = 100.0
    cpu_mb = workload * w / 100.0
    acc_mb = workload - cpu_mb
    cpu_t = 0.02 * w if w else 0.0
    acc_t = 0.015 * (100 - w) if w < 100 else 0.0
    row = [w, 100 - w, workload, cpu_t, acc_t, 105.0 * cpu_t, 250.0 * acc_t,
           cpu_mb, acc_mb]
    print(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                   for v in row))
    """
).strip()


@pytest.fixture(scope="module")
def command_latency(ida, tmp_path_factory):
    """Seconds per evaluation through the stub command, over 25 probes."""
    script = tmp_path_factory.mktemp("stub") / "measure.py"
    script.write_text(LATENCY_STUB + "\n")
    evaluator = CommandEvaluator(
        f'"{sys.executable}" "{script}" {{CPU-W}}', ida, timeout_s=30.0
    )
    probes = 25
    probe_started = time.perf_counter()
    for w in range(1, probes + 1):
        evaluator.evaluate(ida.make_config({"CPU-W": w}))
    return (time.perf_counter() - probe_started) / probes


def test_criterion_3_speed_claim(emil, emil_model, command_latency):
    n = 2912
    codes = emil.codes()[random.Random(0).sample(range(emil.cardinality()), n)]
    evaluator = ModelEvaluator(emil_model, emil)
    started = time.perf_counter()
    predictions = evaluator.evaluate_codes(emil, codes)
    batch_seconds = time.perf_counter() - started
    assert len(predictions) == n

    command_seconds = command_latency * n

    speedup = command_seconds / batch_seconds if batch_seconds > 0 else math.inf
    ok = batch_seconds < 10.0 and speedup >= 100.0
    line = verdict(
        3,
        "speed claim",
        ok,
        f"{n} predictions in {batch_seconds:.3f} s (need < 10 s); command "
        f"replay at {command_latency * 1000:.0f} ms/evaluation extrapolates to "
        f"{command_seconds:.0f} s -> {speedup:.0f}x faster (need >= 100x)",
    )
    assert ok, line


def test_criterion_3b_one_row_speed_claim(emil, emil_model, command_latency):
    """The paper's "> 1000x faster", on the one-row path that AML calls."""
    configs = random.Random(0).sample(list(emil.enumerate_all()), 2912)
    evaluator = ModelEvaluator(emil_model, emil)
    passes = []  # the fastest of three passes, so a busy moment of the box does not decide
    for _ in range(3):
        started = time.perf_counter()
        for config in configs:
            evaluator.evaluate(config)
        passes.append((time.perf_counter() - started) / len(configs))
    one_row_seconds = min(passes)

    # Bound fixed before the first run. Measured on a 2-core box: 40-62 us
    # against 155-174 ms, 2690-3880x (75-115 us and 1450-2310x before one-row
    # prediction walked a per-model table).
    speedup = command_latency / one_row_seconds
    ok = speedup >= 1000.0
    line = verdict(
        "3b",
        "speed claim, one row",
        ok,
        f"one-row model evaluation {one_row_seconds * 1e6:.0f} us (fastest of 3 passes "
        f"over {len(configs)} configurations) against "
        f"{command_latency * 1000:.0f} ms through the command -> {speedup:.0f}x "
        f"faster (need >= 1000x)",
    )
    assert ok, line


# ----- criterion 4: published comparison fidelity ----------------------------------------


def test_criterion_4_reference_table_fidelity():
    with open(bundled_data_path("ida_pcc_reference"), newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 24

    worst = 0.0
    for entry in rows:
        row = CompareRow(
            label=entry["workload"],
            em_value=float(entry["em_mb_per_j"]),
            aml_value=float(entry["aml_mb_per_j"]),
        )
        deviation = abs(row.abs_difference - float(entry["abs_difference_mb_per_j"]))
        worst = max(worst, deviation)
    ok = worst <= 1e-3
    line = verdict(
        4,
        "reference table fidelity",
        ok,
        f"24/24 absolute differences reproduced; worst deviation "
        f"{worst:.2e} (need <= 1e-3)",
    )
    assert ok, line


# ----- criterion 5: metric laws ------------------------------------------------------------


def test_criterion_5_metric_laws(ida):
    rng = random.Random(0)
    failures = 0
    checked = 0

    def close(a, b):
        return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)

    for i in range(10_000):
        mode = i % 10  # 0: cpu-only, 1: acc-only, otherwise both busy
        workload = rng.uniform(1.0, 50_000.0)
        if mode == 0:
            split, cpu_mb = 100, workload
            cpu_t, acc_t = rng.uniform(0.01, 100.0), 0.0
            cpu_e, acc_e = rng.uniform(0.1, 10_000.0), 0.0
        elif mode == 1:
            split, cpu_mb = 0, 0.0
            cpu_t, acc_t = 0.0, rng.uniform(0.01, 100.0)
            cpu_e, acc_e = 0.0, rng.uniform(0.1, 10_000.0)
        else:
            split = rng.randint(1, 99)
            cpu_mb = workload * split / 100.0
            cpu_t, acc_t = rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0)
            cpu_e, acc_e = rng.uniform(0.1, 10_000.0), rng.uniform(0.1, 10_000.0)

        m = RawMeasurement(
            config=ida.make_config({"CPU-W": split}),
            workload_mb=workload,
            cpu_time_s=cpu_t,
            acc_time_s=acc_t,
            cpu_energy_j=cpu_e,
            acc_energy_j=acc_e,
            cpu_workload_mb=cpu_mb,
            acc_workload_mb=workload - cpu_mb,
        )
        d = derive_all(m)
        laws = [
            d.time_s == max(cpu_t, acc_t),
            close(d.throughput_mb_s, workload / max(cpu_t, acc_t)),
            d.energy_j == cpu_e + acc_e,
            close(
                d.power_w,
                (cpu_e / cpu_t if cpu_t > 0 else 0.0)
                + (acc_e / acc_t if acc_t > 0 else 0.0),
            ),
            close(d.energy_efficiency_mb_j, d.throughput_mb_s / d.power_w),
            close(d.energy_efficiency_mb_j * d.power_w, d.throughput_mb_s),
        ]
        if mode == 0:  # idle accelerator reduces to the CPU-only system
            laws.append(d.acc_power_w == 0.0 and d.acc_throughput_mb_s == 0.0)
            laws.append(close(d.power_w, d.cpu_power_w))
        if mode == 1:
            laws.append(d.cpu_power_w == 0.0 and d.cpu_throughput_mb_s == 0.0)
            laws.append(close(d.power_w, d.acc_power_w))
        checked += 1
        if not all(laws):
            failures += 1

    ok = failures == 0 and checked == 10_000
    line = verdict(
        5,
        "metric laws",
        ok,
        f"{checked} random measurements, {failures} law violations at "
        f"rel. tol. 1e-12 (need 0)",
    )
    assert ok, line


# ----- criterion 6: annealing correctness ----------------------------------------------------


def test_criterion_6a_acceptance_analytic_points():
    p_tie = acceptance_probability(5.0, 5.0, 7.0, 5.0)
    # normalized drop equal to the temperature -> exp(-1)
    p_unit = acceptance_probability(10.0, 7.0, 3.0, 1.0)
    p_better = acceptance_probability(1.0, 2.0, 0.01, 2.0)
    ok = (
        p_tie == 1.0
        and math.isclose(p_unit, math.exp(-1.0), rel_tol=1e-12)
        and p_better == 1.0
    )
    line = verdict(
        "6a",
        "acceptance analytic points",
        ok,
        f"tie -> {p_tie}, unit normalized drop -> {p_unit:.6f} "
        f"(e^-1 = {math.exp(-1):.6f}), improvement -> {p_better}",
    )
    assert ok, line


def test_criterion_6b_finds_exhaustive_optimum(ida):
    oracle = PccOracle()
    em = run_em(ida, oracle)
    hits = 0
    for seed in range(30):
        trace = anneal(
            ida, oracle, AnnealParams(evaluation_budget=135, seed=seed)
        )
        if (
            trace.winner_config["CPU-W"] == em.best_config["CPU-W"]
            and trace.winner_value == em.best_value
        ):
            hits += 1
    ok = hits >= 28
    line = verdict(
        "6b",
        "exact optimum on the small space",
        ok,
        f"budget 135 over 101 configurations: exact optimum in {hits}/30 "
        f"seeds (need >= 28)",
    )
    assert ok, line


def two_peak_value(v):
    """Global maximum at 80, lower local maximum at 20."""
    return 1.0 * math.exp(-(((v - 20) / 18.0) ** 2)) + 1.2 * math.exp(
        -(((v - 80) / 8.0) ** 2)
    )


def greedy_climb(v):
    """Adjacent-step hill climbing until no better neighbor exists."""
    while True:
        best, best_value = v, two_peak_value(v)
        for candidate in (v - 1, v + 1):
            if 0 <= candidate <= 100 and two_peak_value(candidate) > best_value:
                best, best_value = candidate, two_peak_value(candidate)
        if best == v:
            return v
        v = best


def test_criterion_6c_escapes_local_optimum():
    space = space_from_dict(
        {
            "name": "two-peak",
            "parameters": [{"name": "V", "kind": "range", "min": 0, "max": 100}],
        }
    )

    class TwoPeak:
        def evaluate(self, config):
            return two_peak_value(config["V"])

        def describe(self):
            return "two-peak"

    values = [two_peak_value(v) for v in range(101)]
    global_argmax = values.index(max(values))
    assert global_argmax == 80

    sa_hits = greedy_hits = 0
    for seed in range(100):
        start = space.config_at(space.random_row(random.Random(seed)))
        trace = anneal(space, TwoPeak(), AnnealParams(seed=seed))
        assert trace.seed_evaluations[0][0] == start  # identical starts
        if trace.winner_config["V"] == global_argmax:
            sa_hits += 1
        if greedy_climb(start["V"]) == global_argmax:
            greedy_hits += 1

    ok = sa_hits > greedy_hits
    line = verdict(
        "6c",
        "escaping a local optimum",
        ok,
        f"two-peak landscape, 100 shared starts: annealing hit the global "
        f"optimum {sa_hits}/100 times vs greedy hill-climbing {greedy_hits}/100 "
        f"(need annealing > greedy)",
    )
    assert ok, line


# ----- criterion 7: boosting benefit ------------------------------------------------------------


def test_criterion_7_boosting_beats_single_tree(emil_dataset, boosted_cv):
    data, _ = emil_dataset
    boosted, _ = boosted_cv
    tree = kfold_cv(data, 10, np.random.default_rng(0), model_kind="tree")
    ok = boosted.r2 >= tree.r2
    line = verdict(
        7,
        "boosting benefit",
        ok,
        f"10-fold CV R^2: boosted {boosted.r2:.4f} vs single tree "
        f"{tree.r2:.4f} (need boosted >= tree)",
    )
    assert ok, line


# ----- criterion 8: pipeline determinism ----------------------------------------------------------


PIPELINE = [
    [
        "gen", "--space", "emil", "--oracle", "emil-pm",
        "--out", "log.csv", "--sample", "600", "--seed", "7",
    ],
    [
        "train", "--space", "emil", "--log", "log.csv", "--out", "model.json",
        "--validation", "split:0.8", "--seed", "7", "--trees", "15",
    ],
    [
        "aml", "--space", "emil", "--eval", "model:model.json",
        "--seed", "7", "--budget-fraction", "0.07",
        "--out", "report.json", "--trace", "trace.csv",
    ],
]

ARTIFACTS = ["log.csv", "model.json", "report.json", "trace.csv"]


def cli_env():
    """Environment for CLI subprocesses that run in another working directory.

    The directory holding the heterotune package this process imported goes
    first on PYTHONPATH, as an absolute path, so the child imports the same
    code whether or not the package is installed; existing entries follow.
    """
    package_root = str(Path(heterotune.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (package_root, env.get("PYTHONPATH")) if entry
    )
    return env


def stderr_tail(stderr, lines=3):
    return " | ".join(stderr.strip().splitlines()[-lines:]) or "(empty)"


def test_criterion_8_pipeline_determinism(tmp_path):
    env = cli_env()
    for run_name in ("run1", "run2"):
        run_dir = tmp_path / run_name
        run_dir.mkdir()
        for command in PIPELINE:
            proc = subprocess.run(
                [sys.executable, "-m", "heterotune.cli", *command],
                cwd=run_dir,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            if proc.returncode != 0:
                line = verdict(
                    8,
                    "pipeline determinism",
                    False,
                    f"{run_name}: step '{command[0]}' exited {proc.returncode}; "
                    f"stderr tail: {stderr_tail(proc.stderr)}",
                )
                assert proc.returncode == 0, line

    identical = [
        name
        for name in ARTIFACTS
        if (tmp_path / "run1" / name).read_bytes()
        == (tmp_path / "run2" / name).read_bytes()
    ]
    ok = identical == ARTIFACTS
    line = verdict(
        8,
        "pipeline determinism",
        ok,
        f"gen -> train -> aml rerun with the same seeds: "
        f"{len(identical)}/{len(ARTIFACTS)} artifacts byte-identical "
        f"({', '.join(ARTIFACTS)})",
    )
    assert ok, line
