"""Span tracing of heterotune's public functions, installed from outside the package.

A traced run wraps the library's public functions and methods, and the
evaluator objects the benchmark passes in, so that every call records one
span: a name, a start, an end and the span that was open when it began.
Spans live in flat arrays in memory and are written out once, when the run
ends. `uninstall` puts every original back, so later rounds of the same
process run the untouched library.
"""
from __future__ import annotations

import array
import gzip
import time
from typing import Any, Callable, Iterator

import heterotune
from heterotune import annealing, evaluators, harness, metrics, space, surrogate

# Span name -> (owner, attribute). Module-level functions are also replaced
# wherever another heterotune module imported them by name.
FUNCTIONS = {
    "metrics.write_measurement_log": (metrics, "write_measurement_log"),
    "metrics.read_measurement_log": (metrics, "read_measurement_log"),
    "metrics.energy_efficiency": (metrics, "energy_efficiency"),
    "surrogate.fit_boosted": (surrogate, "fit_boosted"),
    "surrogate.kfold_cv": (surrogate, "kfold_cv"),
    "surrogate.predict_tree_batch": (surrogate, "predict_tree_batch"),
    "surrogate.predict_boosted": (surrogate, "predict_boosted"),
    "surrogate.predict_boosted_batch": (surrogate, "predict_boosted_batch"),
    "surrogate.save_model": (surrogate, "save_model"),
    "surrogate.load_model": (surrogate, "load_model"),
    "annealing.anneal": (annealing, "anneal"),
    "harness.run_em": (harness, "run_em"),
    "harness.run_aml": (harness, "run_aml"),
    "harness.gen_dataset": (harness, "gen_dataset"),
    "harness.dataset_from_measurements": (harness, "dataset_from_measurements"),
    "harness.train_model": (harness, "train_model"),
}
METHODS = {
    "space.neighbor": (space.ParameterSpace, "neighbor"),
    "space.encode": (space.ParameterSpace, "encode"),
}
# A generator: one span per item drawn, so that a consumer's work between
# draws is not charged to the space layer.
GENERATORS = {
    "space.enumerate_all": (space.ParameterSpace, "enumerate_all"),
}
# Rows per call, recorded with the span where a metric is per row.
ROW_COUNTS: dict[str, Callable[..., int]] = {
    "surrogate.predict_boosted_batch": lambda model, X: len(X),
}

MODULES = (heterotune, annealing, evaluators, harness, metrics, space, surrogate)


class Tracer:
    """Records spans while installed; derives nothing itself."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.rows = array.array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    def __len__(self) -> int:
        return len(self.starts)

    # ----- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, rows: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._name_id(name)
        count_rows = ROW_COUNTS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name_id, count_rows(*args, **kwargs) if count_rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def generator_span(self, name: str, fn: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
        """One empty span per call, and one `<name>.next` span per item drawn."""
        call_id = self._name_id(name)
        next_id = self._name_id(name + ".next")

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            self._close(self._open(call_id, 0))
            inner = fn(*args, **kwargs)
            while True:
                index = self._open(next_id, 1)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    # ----- installing ------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any, on_instance: bool = False) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute), on_instance))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for name, (owner, attribute) in FUNCTIONS.items():
            original = getattr(owner, attribute)
            traced = self.span(name, original)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        for name, (owner, attribute) in METHODS.items():
            self._patch(owner, attribute, self.span(name, getattr(owner, attribute)))
        for name, (owner, attribute) in GENERATORS.items():
            self._patch(owner, attribute, self.generator_span(name, getattr(owner, attribute)))

    def wrap_evaluator(self, evaluator: Any, kind: str) -> Any:
        """Trace `evaluate` (and an oracle's `measure`) on this object only."""
        self._patch(evaluator, "evaluate",
                    self.span(f"evaluators.{kind}.evaluate", evaluator.evaluate), True)
        if hasattr(evaluator, "measure"):
            self._patch(evaluator, "measure",
                        self.span(f"evaluators.{kind}.measure", evaluator.measure), True)
        return evaluator

    def uninstall(self) -> None:
        for owner, attribute, original, on_instance in reversed(self._patches):
            if on_instance:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at uninstall")

    # ----- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: index, name, parent, start and end in ns, rows."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index,name,parent,start_ns,end_ns,rows\n")
            handle.writelines(
                f"{index},{names[name_id]},{parent},{start},{end},{rows}\n"
                for index, (name_id, parent, start, end, rows) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends, self.rows))
            )


def _direct_children(tracer: Tracer) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in range(len(tracer))]
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            children[parent].append(index)
    return children


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Counts, mean times, self times and ratios per layer, from the spans alone.

    `.s` and `.us` are mean seconds and microseconds per call; `.self_s` is
    the mean per call of a span's duration minus its direct child spans;
    `.calls` is a total over the traced part of the run. A layer with no
    calls reads 0.
    """
    ids = tracer.name_ids
    names = tracer.names
    id_of = {name: name_id for name_id, name in enumerate(names)}
    durations = [(end - start) / 1e9 for start, end in zip(tracer.starts, tracer.ends)]
    children = _direct_children(tracer)
    by_name: dict[str, list[int]] = {}
    for index, name_id in enumerate(ids):
        by_name.setdefault(names[name_id], []).append(index)

    def spans(name: str) -> list[int]:
        return by_name.get(name, [])

    def calls(name: str) -> int:
        return len(spans(name))

    def mean(name: str, scale: float = 1.0) -> float:
        found = spans(name)
        return scale * sum(durations[i] for i in found) / len(found) if found else 0.0

    def mean_self(name: str) -> float:
        found = spans(name)
        if not found:
            return 0.0
        own = [durations[i] - sum(durations[c] for c in children[i]) for i in found]
        return sum(own) / len(found)

    def per_call_total(parent: str, child: str) -> float:
        """Mean per `parent` call of the total duration of `child` spans under it."""
        found = spans(parent)
        if not found:
            return 0.0
        child_id = id_of.get(child)
        total = sum(durations[c] for i in found for c in children[i] if ids[c] == child_id)
        return total / len(found)

    def name_of(index: int) -> str:
        return names[ids[index]]

    # Anneal steps: one neighbor draw each. Distinct evaluations made by the
    # step loop are the evaluator calls after the first draw.
    steps = loop_evals = all_evals = 0
    anneals = spans("annealing.anneal")
    for i in anneals:
        seen_step = False
        for c in children[i]:
            child = name_of(c)
            if child == "space.neighbor":
                steps += 1
                seen_step = True
            elif child.startswith("evaluators.") and child.endswith(".evaluate"):
                all_evals += 1
                loop_evals += seen_step

    # Batch predictions proper, not the one-row batch inside predict_boosted.
    batch_s = batch_rows = 0.0
    one_row_id = id_of.get("surrogate.predict_boosted")
    for i in spans("surrogate.predict_boosted_batch"):
        parent = tracer.parents[i]
        if parent < 0 or ids[parent] != one_row_id:
            batch_s += durations[i]
            batch_rows += tracer.rows[i]

    return {
        "space.neighbor.calls": calls("space.neighbor"),
        "space.neighbor.us": mean("space.neighbor", 1e6),
        "space.encode.us": mean("space.encode", 1e6),
        "space.enumerate_all.s": (
            sum(durations[i] for i in spans("space.enumerate_all.next")) / calls("space.enumerate_all")
            if calls("space.enumerate_all") else 0.0
        ),
        "metrics.write_measurement_log.s": mean("metrics.write_measurement_log"),
        "metrics.read_measurement_log.s": mean("metrics.read_measurement_log"),
        "metrics.energy_efficiency.calls": calls("metrics.energy_efficiency"),
        "metrics.energy_efficiency.us": mean("metrics.energy_efficiency", 1e6),
        "evaluators.oracle.evaluate.calls": calls("evaluators.oracle.evaluate"),
        "evaluators.oracle.evaluate.us": mean("evaluators.oracle.evaluate", 1e6),
        "evaluators.oracle.measure.us": mean("evaluators.oracle.measure", 1e6),
        "evaluators.model.evaluate.calls": calls("evaluators.model.evaluate"),
        "evaluators.model.evaluate.us": mean("evaluators.model.evaluate", 1e6),
        "surrogate.fit_boosted.s": mean("surrogate.fit_boosted"),
        "surrogate.fit_boosted.self_s": mean_self("surrogate.fit_boosted"),
        "surrogate.kfold_cv.s": mean("surrogate.kfold_cv"),
        "surrogate.predict_tree_batch.calls": calls("surrogate.predict_tree_batch"),
        "surrogate.predict_tree_batch.s": per_call_total("surrogate.fit_boosted", "surrogate.predict_tree_batch"),
        "surrogate.predict_boosted.us": mean("surrogate.predict_boosted", 1e6),
        "surrogate.predict_boosted_batch.us_per_row": 1e6 * batch_s / batch_rows if batch_rows else 0.0,
        "surrogate.save_model.s": mean("surrogate.save_model"),
        "surrogate.load_model.s": mean("surrogate.load_model"),
        "annealing.anneal.s": mean("annealing.anneal"),
        "annealing.anneal.self_s": mean_self("annealing.anneal"),
        "annealing.steps": steps / len(anneals) if anneals else 0.0,
        "annealing.distinct_evals": all_evals / len(anneals) if anneals else 0.0,
        "annealing.evals_per_step": loop_evals / steps if steps else 0.0,
        "harness.run_em.self_s": mean_self("harness.run_em"),
        "harness.run_aml.self_s": mean_self("harness.run_aml"),
        "harness.gen_dataset.s": mean("harness.gen_dataset"),
        "harness.dataset_from_measurements.s": mean("harness.dataset_from_measurements"),
    }
