"""Ground truth computed apart from heterotune's own arithmetic.

The emil-pm oracle stands in for the machine, so its raw measurements are
the truth. This module enumerates the emil space from its definition file,
derives MB/J from each raw measurement as throughput over summed unit
power, and takes the first maximum, without calling heterotune's space,
metrics or search code.
"""
from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Any, Sequence

import yaml

EMIL_DEFINITION = Path(__file__).resolve().parents[1] / "src" / "heterotune" / "data" / "emil.yaml"
COMPLEMENT_TOTAL = 100


def emil_configurations() -> tuple[tuple[str, ...], list[dict[str, Any]]]:
    """Parameter names and every configuration, in lexicographic domain order."""
    doc = yaml.safe_load(EMIL_DEFINITION.read_text(encoding="utf-8"))
    names = tuple(entry["name"] for entry in doc["parameters"])
    free: list[tuple[str, list[Any]]] = []
    derived: list[tuple[str, str]] = []
    for entry in doc["parameters"]:
        if "derived_from" in entry:
            derived.append((entry["name"], entry["derived_from"]))
        elif entry["kind"] == "levels":
            free.append((entry["name"], list(entry["values"])))
        elif entry["kind"] == "categorical":
            free.append((entry["name"], list(entry["labels"])))
        else:
            free.append((entry["name"], list(range(entry["min"], entry["max"] + 1))))
    configs = []
    for combo in itertools.product(*(domain for _, domain in free)):
        config = dict(zip((name for name, _ in free), combo))
        for name, source in derived:
            config[name] = COMPLEMENT_TOTAL - config[source]
        configs.append({name: config[name] for name in names})
    return names, configs


def efficiency_mb_per_j(m: Any) -> float:
    """Throughput (workload over the slower unit's time) over summed unit power."""
    throughput = m.workload_mb / max(m.cpu_time_s, m.acc_time_s)
    power = sum(
        energy / time for energy, time in
        ((m.cpu_energy_j, m.cpu_time_s), (m.acc_energy_j, m.acc_time_s))
        if time > 0
    )
    return throughput / power


def first_argmax(values: Sequence[float]) -> int:
    best = 0
    for index, value in enumerate(values):
        if value > values[best]:
            best = index
    return best


def r2(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Coefficient of determination, summed with math.fsum."""
    mean = math.fsum(targets) / len(targets)
    ss_tot = math.fsum((t - mean) ** 2 for t in targets)
    ss_res = math.fsum((t - p) ** 2 for p, t in zip(predictions, targets))
    return 1.0 - ss_res / ss_tot


def same_value(a: float, b: float) -> bool:
    """Equal up to the last bits that a different operation order can move."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
