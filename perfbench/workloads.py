"""The benchmark's workloads: rounds of the paper pipeline on the emil space.

Every workload runs the same stages, so that every run reports every
end-to-end metric; each workload sizes them so that the stage it is named
after dominates its time:

    train      k-fold CV and the final fit of a 20-tree boosted model, with
               exhaustive and annealing searches against the oracle beside it
    aml-model  annealing searches over a surrogate (one-row predictions)

One round trains a model from the measurement log written at set-up
(read, k-fold CV, fit, save), then reloads it and predicts every
configuration, runs AML searches, and runs EM sweeps. Each output is
checked against ground truth from `reference`, never against a stored
copy of an earlier output.
"""
from __future__ import annotations

import contextlib
import json
import math
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

import heterotune as ht
import reference

BUDGET_FRACTION = 0.07  # the paper's claim: a near-optimum after 7 % of the space
SEED_EVALUATIONS = 3  # AML evaluates two boundary seeds and one random start
R2_FLOOR = 0.95  # criterion 1, for CV R² and for the benchmark's holdout R²
QUALITY_FLOOR_PCT = {"oracle": 90.0, "model": 85.0}
SETUP_REPEATS = 5
# Two folds keep a round short; the samples are large enough that CV R2
# stays above R2_FLOOR with them.
FOLDS = 2
BATCHES_PER_ROUND = 3  # model reloads + predictions of every configuration


@dataclass(frozen=True)
class Workload:
    name: str
    sample: int  # oracle rows in the measurement log
    trees: int  # boosting stages
    max_depth: int
    aml_over: str  # "model" or "oracle"
    aml_seeds: int  # AML seeds whose median pick quality is reported
    aml_per_round: int  # AML searches per round, cycling through the seeds
    em_sweeps: int  # EM sweeps per round

    @property
    def min_rounds(self) -> int:
        """Rounds needed to search every AML seed once."""
        return -(-self.aml_seeds // self.aml_per_round)

    def schedule(self) -> list[str]:
        """One round: the train stage, then the other operations spread evenly,
        so that each metric samples the whole run and not one part of it."""
        spread = sorted(
            ((i + 0.5) / count, kind)
            for kind, count in (("batch", BATCHES_PER_ROUND), ("aml", self.aml_per_round),
                                ("em", self.em_sweeps))
            for i in range(count)
        )
        return ["train"] + [kind for _, kind in spread]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", sample=2000, trees=20, max_depth=8,
                 aml_over="oracle", aml_seeds=16, aml_per_round=8, em_sweeps=2),
        Workload("aml-model", sample=3000, trees=10, max_depth=6,
                 aml_over="model", aml_seeds=6, aml_per_round=1, em_sweeps=1),
    )
}


def model_file_sizes(path: str) -> dict[str, float]:
    """Stages, tree nodes and bytes of a saved model, read from its JSON file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    doc = json.loads(raw)

    def nodes(tree: Any) -> int:
        if not isinstance(tree, dict):
            return 0
        return int("value" in tree or "feature" in tree) + sum(nodes(v) for v in tree.values())

    return {
        "surrogate.stages": len(doc["stages"]),
        "surrogate.nodes": sum(nodes(stage["tree"]) for stage in doc["stages"]),
        "surrogate.model_bytes": len(raw),
    }


class Bench:
    """Inputs, ground truth, timings and check results of one run."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.tracer: Any = None  # a tracing.Tracer while a traced run records spans
        rng = random.Random(seed)
        self.sample_seed = rng.randrange(2**31)
        self.train_seed = rng.randrange(2**31)
        self.aml_seeds = rng.sample(range(2**31), workload.aml_seeds)
        self.log_path = f"{workdir}/measurements.csv"
        self.model_path = f"{workdir}/model.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.setup_times: list[float] = []
        self.round_times: list[float] = []
        self.model_sizes: dict[str, float] = {}
        self.searches = 0
        self.quality: dict[int, float] = {}  # pick quality of each AML seed's first search

        names, configs = reference.emil_configurations()
        self.names = names
        self.keys = [tuple(c[n] for n in names) for c in configs]
        self.index_of = {key: i for i, key in enumerate(self.keys)}
        truth_oracle = ht.make_oracle("emil-pm")
        self.truth = [reference.efficiency_mb_per_j(truth_oracle.measure(c)) for c in configs]
        self.best = reference.first_argmax(self.truth)
        self.budget = round(BUDGET_FRACTION * len(self.keys))
        space = ht.bundled_space("emil")
        self.features = np.array([space.encode(c) for c in configs], dtype=np.float64)

    # ----- bookkeeping ---------------------------------------------------------

    @contextlib.contextmanager
    def operations(self, count: int, what: str) -> Iterator[None]:
        """Count `count` operations; if the block raises, all of them failed."""
        self.attempted += count
        try:
            yield
        except Exception as exc:  # a failing program operation is counted, not fatal
            self.failed += count
            print(f"perfbench: {what} failed: {exc!r}", file=sys.stderr)

    def skip(self, count: int) -> None:
        """Operations that could not start because an earlier one failed."""
        self.attempted += count
        self.failed += count

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def key(self, config: dict[str, Any]) -> tuple[Any, ...]:
        return tuple(config[n] for n in self.names)

    def trace(self, evaluator: Any, kind: str) -> Any:
        return self.tracer.wrap_evaluator(evaluator, kind) if self.tracer else evaluator

    # ----- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Space load, oracle and its seeded sample, written as a measurement log."""
        started = time.perf_counter()
        self.space = ht.bundled_space("emil")
        self.oracle = self.trace(ht.make_oracle("emil-pm"), "oracle")
        self.rows = ht.gen_dataset(self.space, self.oracle, sample=self.workload.sample,
                                   seed=self.sample_seed)
        with self.operations(1, "measurement log write"):
            ht.write_measurement_log(self.log_path, self.space, self.rows)
        self.setup_times.append(time.perf_counter() - started)

    # ----- one round ---------------------------------------------------------------

    def round(self) -> None:
        started = time.perf_counter()
        trained = None
        for kind in self.workload.schedule():
            if kind == "train":
                trained = self._train()
            elif kind == "em":
                self._exhaustive()
            elif trained is None:
                self.skip(2 if kind == "batch" or self.workload.aml_over == "model" else 1)
            elif kind == "batch":
                self._batch(trained[1])
            else:
                self._search(trained[0])
        self.round_times.append(time.perf_counter() - started)

    def _train(self) -> tuple[Any, np.ndarray] | None:
        """Log to validated, saved model; returns the model and its predictions."""
        w = self.workload
        result = None
        with self.operations(FOLDS + 3, "training (log read, CV folds, fit, save)"):
            started = time.perf_counter()
            result = ht.train_model(
                self.log_path, self.space,
                hyper=ht.Hyperparameters(n_estimators=w.trees, max_depth=w.max_depth),
                validation=f"kfold:{FOLDS}", seed=self.train_seed,
                model_path=self.model_path,
            )
            self.samples["train_s"].append(time.perf_counter() - started)
            if self.tracer is not None:
                self.model_sizes = model_file_sizes(self.model_path)
            self.check(result.validation.r2 >= R2_FLOOR,
                       f"CV R2 {result.validation.r2:.4f} is below {R2_FLOOR}")
        with self.operations(1, "measurement log read-back"):
            self.check(ht.read_measurement_log(self.log_path, self.space) == self.rows,
                       "the measurement log read back differs from the rows written")
        if result is None:
            self.skip(1)
            return None
        trained = None
        with self.operations(1, "in-memory prediction batch"):
            trained = result.model, ht.predict_boosted_batch(result.model, self.features)
        return trained

    def _batch(self, in_memory: np.ndarray) -> None:
        """Reload the saved model and predict every configuration (`predict --all`)."""
        space = self.space
        with self.operations(2, "model load and prediction batch"):
            started = time.perf_counter()
            model = ht.load_model(self.model_path)
            configs = list(space.enumerate_all())
            matrix = np.array([space.encode(c) for c in configs], dtype=np.float64)
            predictions = ht.predict_boosted_batch(model, matrix)
            elapsed = time.perf_counter() - started
            self.samples["batch_estimates_per_s"].append(len(configs) / elapsed)
            self.check(np.array_equal(predictions, in_memory),
                       "the reloaded model predicts differently from the in-memory model")
            if "holdout_r2" not in self.samples:
                self.check([self.key(c) for c in configs] == self.keys,
                           "enumerate_all differs from the emil definition")
                self._holdout(predictions)

    def _holdout(self, predictions: np.ndarray) -> None:
        sampled = {self.index_of[self.key(m.config)] for m in self.rows}
        held_out = [i for i in range(len(self.keys)) if i not in sampled]
        score = reference.r2([float(predictions[i]) for i in held_out],
                             [self.truth[i] for i in held_out])
        self.samples["holdout_r2"].append(score)
        self.check(score >= R2_FLOOR, f"holdout R2 {score:.4f} is below {R2_FLOOR}")

    def _search(self, model: Any) -> None:
        """One AML search at the 7 % budget, the next seed in the cycle."""
        space = self.space
        over_model = self.workload.aml_over == "model"
        seed = self.aml_seeds[self.searches % len(self.aml_seeds)]
        self.searches += 1
        with self.operations(2 if over_model else 1, "AML search"):
            evaluator = (self.trace(ht.ModelEvaluator(model, space), "model")
                         if over_model else self.oracle)
            started = time.perf_counter()
            report = ht.run_aml(space, evaluator,
                                ht.AnnealParams(evaluation_budget=self.budget, seed=seed))
            self.samples["aml_s"].append(time.perf_counter() - started)
            self.check(report.evaluations_used <= self.budget + SEED_EVALUATIONS,
                       f"AML used {report.evaluations_used} evaluations, budget {self.budget}")
            pick = self.index_of.get(self.key(report.best_config))
            self.check(pick is not None, f"AML picked {report.best_config!r}, not an emil configuration")
            values = [value for _, value in report.records]
            self.check(report.best_value == max(values),
                       "AML's reported value is not the best value it evaluated")
            if over_model:
                matrix = np.array([space.encode(c) for c, _ in report.records])
                self.check(np.array_equal(ht.predict_boosted_batch(model, matrix), values),
                           "one-row predictions differ from the batch predictions")
            else:
                self.check(all(reference.same_value(value, self.truth[self.index_of[self.key(c)]])
                               for c, value in report.records),
                           "AML's oracle values differ from the raw measurements")
            if pick is not None:
                quality = 100.0 * self.truth[pick] / self.truth[self.best]
                self.check(quality <= 100.0, f"AML's pick beats the exhaustive optimum: {quality} %")
                self.quality.setdefault(seed, quality)

    def _exhaustive(self) -> None:
        with self.operations(1, "EM sweep"):
            started = time.perf_counter()
            report = ht.run_em(self.space, self.oracle)
            self.samples["em_s"].append(time.perf_counter() - started)
            self.check(report.evaluations_used == len(self.keys),
                       f"EM used {report.evaluations_used} evaluations, not {len(self.keys)}")
            self.check(self.key(report.best_config) == self.keys[self.best]
                       and reference.same_value(report.best_value, self.truth[self.best]),
                       f"EM returned {report.best_config!r}, not the first maximum")

    # ----- results ---------------------------------------------------------------

    def finish(self) -> None:
        """Checks that need the whole run: the median quality over every AML seed."""
        if len(self.quality) == len(self.aml_seeds):
            quality = statistics.median(self.quality.values())
            floor = QUALITY_FLOOR_PCT[self.workload.aml_over]
            self.check(quality >= floor, f"AML median quality {quality:.2f} % is below {floor} %")
            self.samples["aml_quality_pct"].append(quality)

    def end_to_end(self, import_s: float, peak_rss_mb: float) -> dict[str, float]:
        def median(name: str) -> float:
            values = self.samples.get(name)
            return statistics.median(values) if values else math.nan


        return {
            "setup_s": import_s + statistics.median(self.setup_times),
            "train_s": median("train_s"),
            "batch_estimates_per_s": median("batch_estimates_per_s"),
            "holdout_r2": median("holdout_r2"),
            "aml_s": median("aml_s"),
            "aml_quality_pct": median("aml_quality_pct"),
            "em_s": median("em_s"),
            "peak_rss_mb": peak_rss_mb,
        }
