"""Run one heterotune benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0

Run from anywhere inside a source checkout: the library is imported from
the checkout's `src/`, in this one process, with BLAS pinned to one thread.
The import itself is timed in SETUP_IMPORTS fresh interpreters, which are
waited for. The run sets up SETUP_REPEATS times, then runs whole rounds of the
workload until `--seconds` have passed and every AML seed was searched, and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Results and span files are written under `.perfbench_runs/`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench_runs"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("train", "aml-model")
SPEC = ROOT / "BENCHMARK.json"
SETUP_IMPORTS = 5
IMPORT_PROBE = ("import time; started = time.perf_counter(); import heterotune; "
                "print(time.perf_counter() - started)")


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(environment: dict[str, str]) -> float:
    """Median time to import heterotune (and NumPy with it) in a fresh interpreter."""
    times = []
    for _ in range(SETUP_IMPORTS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=environment,
                               capture_output=True, text=True, check=True, timeout=60)
        times.append(float(probe.stdout))
    return statistics.median(times)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    if not (SOURCE / "heterotune" / "__init__.py").is_file():
        print(f"perfbench: no heterotune sources under {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    environment = dict(os.environ, PYTHONPATH=str(SOURCE))
    import_s = import_seconds(environment)
    sys.path.insert(0, str(SOURCE))
    import numpy
    import heterotune
    if Path(heterotune.__file__).resolve().parent != SOURCE / "heterotune":
        print(f"perfbench: imported heterotune from {heterotune.__file__}, not {SOURCE}",
              file=sys.stderr)
        return 2

    import workloads

    OUTPUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUTPUT)
    try:
        bench = workloads.Bench(workloads.WORKLOADS[args.workload], args.seed, workdir)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            bench.tracer = tracer
        for _ in range(workloads.SETUP_REPEATS):
            bench.setup()
        # A traced run traces the set-ups and its first round, then runs the
        # same rounds untraced: the difference is the tracing overhead.
        loop_started = time.perf_counter()
        while True:
            bench.round()
            if tracer is not None and bench.tracer is not None:
                bench.tracer = None
                tracer.uninstall()
            rounds = len(bench.round_times)
            if (time.perf_counter() - loop_started >= args.seconds
                    and rounds >= bench.workload.min_rounds
                    and (tracer is None or rounds >= 2)):
                break
        bench.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        values = bench.end_to_end(import_s, peak_rss_mb)
    else:
        values = tracing.layer_metrics(tracer)
        values.update(bench.model_sizes)
        untraced = statistics.median(bench.round_times[1:])
        values["trace.overhead_pct"] = 100.0 * (bench.round_times[0] / untraced - 1.0)
        values["trace.spans"] = len(tracer)
        tracer.write(str(OUTPUT / f"{tag}.spans.csv.gz"))
    metrics = {}
    for entry in spec["per_layer" if tracer else "end_to_end"]:
        value = values[entry["name"]]
        if not math.isfinite(value):
            bench.problems.append(f"{entry['name']} has no measurement")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": 1, "rounds": len(bench.round_times),
        "round_s": bench.round_times, "setup_repeats": len(bench.setup_times),
        "samples": {name: len(samples) for name, samples in bench.samples.items()},
        "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems,
    }
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    with open(OUTPUT / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"run": info, "result": result}, handle, indent=2)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
