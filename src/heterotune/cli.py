"""Command-line interface.

Subcommands: space-info, em, aml, gen, train, predict, compare. Exit codes:
0 success, 1 usage error, 2 evaluator/execution failure, 3 data-format
error. Reports written by the CLI omit wall time so seeded runs produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Any, Sequence

from .annealing import AnnealParams, SearchAborted, write_trace_csv
from .evaluators import (
    AmbiguousLogError,
    CommandExecutionError,
    ModelEvaluator,
    NotRecordedError,
    ORACLE_FAMILIES,
    make_evaluator,
    make_oracle,
)
from .harness import (
    CampaignError,
    CampaignReport,
    ReportFormatError,
    compare,
    compare_table,
    gen_dataset,
    run_aml,
    run_em,
    summarize,
    train_model,
)
from .metrics import (
    InvalidMeasurementError,
    MeasurementLogError,
    UndefinedEfficiencyError,
)
from .space import (
    Configuration,
    ParameterSpace,
    SpaceDefinitionError,
    bundled_space,
    bundled_space_names,
    load_space,
)
from .surrogate import Hyperparameters, ModelFormatError, UndefinedScoreError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXECUTION = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with status 2; this CLI reserves 2 for
    execution failures, so usage errors exit 1 instead."""

    def error(self, message: str) -> "NoReturn":  # type: ignore[name-defined]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def resolve_space(value: str) -> ParameterSpace:
    """Interpret --space as a bundled space name or a YAML file path."""
    if value in bundled_space_names():
        return bundled_space(value)
    if os.path.exists(value):
        return load_space(value)
    raise ValueError(
        f"--space {value!r} is neither a bundled space "
        f"({', '.join(bundled_space_names())}) nor an existing file"
    )


def parse_config_option(space: ParameterSpace, text: str) -> Configuration:
    """Parse "NAME=VALUE,NAME=VALUE" into a validated configuration."""
    assignment: dict[str, Any] = {}
    for chunk in text.split(","):
        name, sep, raw = chunk.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"--config chunk {chunk!r} is not NAME=VALUE")
        raw = raw.strip()
        value: Any = raw
        try:
            param = space.parameter(name)
        except KeyError:
            raise ValueError(f"unknown parameter {name!r} in --config") from None
        if param.is_numeric:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(
                    f"parameter {name!r} expects an integer, got {raw!r}"
                ) from None
        assignment[name] = value
    config = space.make_config(assignment)
    violations = space.validate(config)
    if violations:
        raise ValueError("invalid --config: " + "; ".join(violations))
    return config


def format_config(space: ParameterSpace, config: Configuration) -> str:
    return ", ".join(f"{name}={config[name]}" for name in space.names)


# ----- subcommands --------------------------------------------------------------


def cmd_space_info(args: argparse.Namespace) -> int:
    space = resolve_space(args.space)
    print(f"space: {space.name}")
    print(f"cardinality: {space.cardinality()}")
    for param in space.parameters:
        if param.is_derived:
            print(f"  {param.name}: derived = 100 - {param.derived_from}")
        elif param.kind == "range":
            print(f"  {param.name}: range {param.domain[0]}..{param.domain[-1]}")
        else:
            values = ", ".join(str(v) for v in param.domain)
            print(f"  {param.name}: {param.kind} {{{values}}}")
    return EXIT_OK


def _finish_campaign(
    args: argparse.Namespace, space: ParameterSpace, report: CampaignReport
) -> int:
    assert report.best_config is not None and report.best_value is not None
    print(f"method: {report.method}")
    print(f"space: {report.space_name} ({space.cardinality()} configurations)")
    print(f"evaluator: {report.evaluator}")
    print(f"best: {format_config(space, report.best_config)}")
    print(f"efficiency: {report.best_value:.6f} MB/J")
    print(f"evaluations: {report.evaluations_used}")
    if report.budget is not None:
        print(f"budget: {report.budget}")
    if report.wall_time_s is not None:
        print(f"wall time: {report.wall_time_s:.3f} s")
    if args.out:
        report.save(args.out, include_wall_time=False)
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_em(args: argparse.Namespace) -> int:
    space = resolve_space(args.space)
    evaluator = make_evaluator(
        args.eval, space, command_log=args.cmd_log, command_timeout_s=args.cmd_timeout
    )
    report = run_em(space, evaluator)
    return _finish_campaign(args, space, report)


def cmd_aml(args: argparse.Namespace) -> int:
    fraction = args.budget_fraction
    if fraction is not None and not 0 < fraction < math.inf:
        raise ValueError(f"--budget-fraction must be positive and finite, got {fraction}")
    space = resolve_space(args.space)
    evaluator = make_evaluator(
        args.eval, space, command_log=args.cmd_log, command_timeout_s=args.cmd_timeout
    )
    budget = args.budget
    if fraction is not None:
        budget = max(1, int(fraction * space.cardinality()))
    params = AnnealParams(
        initial_temperature=args.initial_temperature,
        cooling_factor=args.cooling_factor,
        evaluation_budget=budget,
        seed=args.seed,
    )
    report = run_aml(space, evaluator, params)
    status = _finish_campaign(args, space, report)
    if args.trace and report.trace is not None:
        write_trace_csv(args.trace, report.trace, space)
        print(f"trace written to {args.trace}")
    return status


def cmd_gen(args: argparse.Namespace) -> int:
    space = resolve_space(args.space)
    oracle = make_oracle(args.oracle)
    rows = gen_dataset(
        space, oracle, sample=args.sample, seed=args.seed, path=args.out
    )
    print(f"wrote {len(rows)} measurement rows to {args.out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    space = resolve_space(args.space)
    max_depth = None if args.max_depth == 0 else args.max_depth
    hyper = Hyperparameters(
        n_estimators=args.trees,
        max_depth=max_depth,
        min_samples_leaf=args.min_leaf,
        learning_rate=args.learning_rate,
    )
    result = train_model(
        args.log,
        space,
        hyper=hyper,
        validation=args.validation,
        seed=args.seed,
        model_path=args.out,
    )
    print(f"trained on {result.n_rows} rows ({len(result.model.stages)} stages)")
    if result.validation is not None:
        print(
            f"validation: {result.validation.scheme}, "
            f"R^2 = {result.validation.r2:.4f} over {result.validation.n_samples} rows"
        )
    if args.out:
        print(f"model written to {args.out}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    space = resolve_space(args.space)
    evaluator = ModelEvaluator.from_file(args.model, space)
    if args.all:  # an EM sweep over the model
        rows = list(run_em(space, evaluator).records)
    else:
        configs = [parse_config_option(space, text) for text in args.config]
        rows = [(config, evaluator.evaluate(config)) for config in configs]
    for config, value in rows:
        print(f"{format_config(space, config)} -> {value:.6f} MB/J")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(list(space.names) + ["predicted_mb_per_j"])
            for config, value in rows:
                writer.writerow(
                    [config[name] for name in space.names] + [repr(value)]
                )
        print(f"predictions written to {args.out}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    em_report = CampaignReport.load(args.em)
    aml_report = CampaignReport.load(args.aml)
    row = compare(em_report, aml_report, label=args.label)
    print(compare_table([row]))
    if args.out:
        doc = {
            "rows": [dataclasses.asdict(row)],
            "summary": summarize([row]),
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"comparison written to {args.out}")
    return EXIT_OK


# ----- parser -------------------------------------------------------------------


def _add_space_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--space",
        required=True,
        help="bundled space name (ida, emil) or a space YAML path",
    )


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--eval",
        required=True,
        help="evaluator: model:PATH, replay:PATH, oracle:NAME or cmd:TEMPLATE",
    )
    parser.add_argument(
        "--cmd-log",
        default=None,
        help="measurement log appended to by cmd: evaluators",
    )
    parser.add_argument(
        "--cmd-timeout",
        type=float,
        default=60.0,
        help="timeout in seconds for cmd: evaluators (default 60)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heterotune",
        description=(
            "Configuration autotuner for heterogeneous systems: exhaustive "
            "and surrogate-guided annealing searches over energy efficiency."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("space-info", help="describe a configuration space")
    _add_space_flag(p)
    p.set_defaults(func=cmd_space_info)

    p = sub.add_parser("em", help="exhaustive search over every configuration")
    _add_space_flag(p)
    _add_eval_flags(p)
    p.add_argument("--out", default=None, help="write the campaign report (JSON)")
    p.set_defaults(func=cmd_em)

    p = sub.add_parser("aml", help="simulated-annealing search")
    _add_space_flag(p)
    _add_eval_flags(p)
    p.add_argument("--seed", type=int, default=0, help="search seed (default 0)")
    p.add_argument(
        "--initial-temperature",
        type=float,
        default=1000.0,
        help="starting temperature (default 1000)",
    )
    # A budget derives the cooling factor, so at most one of the three is given.
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--cooling-factor",
        type=float,
        default=0.95,
        help="geometric cooling factor in (0, 1) (default 0.95)",
    )
    group.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on distinct evaluations; derives the cooling factor",
    )
    group.add_argument(
        "--budget-fraction",
        type=float,
        default=None,
        help="budget as a fraction of the space cardinality",
    )
    p.add_argument("--out", default=None, help="write the campaign report (JSON)")
    p.add_argument("--trace", default=None, help="write the step trace (CSV)")
    p.set_defaults(func=cmd_aml)

    p = sub.add_parser("gen", help="generate a measurement log from an oracle")
    _add_space_flag(p)
    p.add_argument(
        "--oracle",
        required=True,
        choices=sorted(ORACLE_FAMILIES),
        help="synthetic oracle family",
    )
    p.add_argument("--out", required=True, help="measurement log path (CSV)")
    p.add_argument(
        "--sample",
        type=int,
        default=None,
        help="random sample size (default: full enumeration)",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a boosted surrogate from a log")
    _add_space_flag(p)
    p.add_argument("--log", required=True, help="measurement log path (CSV)")
    p.add_argument("--out", default=None, help="write the model (JSON)")
    p.add_argument(
        "--validation",
        default="kfold:10",
        help="kfold:K, split:FRACTION or none (default kfold:10)",
    )
    p.add_argument("--seed", type=int, default=0, help="training seed (default 0)")
    p.add_argument("--trees", type=int, default=50, help="boosting stages (default 50)")
    p.add_argument(
        "--max-depth",
        type=int,
        default=8,
        help="tree depth cap; 0 means unlimited (default 8)",
    )
    p.add_argument(
        "--min-leaf", type=int, default=2, help="minimum rows per leaf (default 2)"
    )
    p.add_argument(
        "--learning-rate", type=float, default=1.0, help="boosting shrinkage (default 1)"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict efficiencies with a trained model")
    _add_space_flag(p)
    p.add_argument("--model", required=True, help="model path (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--config",
        action="append",
        help='configuration as "NAME=VALUE,NAME=VALUE"; repeatable',
    )
    group.add_argument(
        "--all", action="store_true", help="predict every configuration in the space"
    )
    p.add_argument("--out", default=None, help="write predictions (CSV)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare", help="compare an EM report against an AML report")
    p.add_argument("--em", required=True, help="EM campaign report (JSON)")
    p.add_argument("--aml", required=True, help="AML campaign report (JSON)")
    p.add_argument("--label", default=None, help="row label (default: space name)")
    p.add_argument("--out", default=None, help="write the comparison (JSON)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        MeasurementLogError,
        ModelFormatError,
        ReportFormatError,
        SpaceDefinitionError,
        AmbiguousLogError,
        InvalidMeasurementError,
    ) as exc:
        print(f"heterotune: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        CommandExecutionError,
        SearchAborted,
        CampaignError,
        NotRecordedError,
        UndefinedEfficiencyError,
        UndefinedScoreError,
        ChildProcessError,  # a training process died; an OSError, but not a usage error
    ) as exc:
        print(f"heterotune: execution error: {exc}", file=sys.stderr)
        return EXIT_EXECUTION
    except (ValueError, LookupError, OSError) as exc:
        print(f"heterotune: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
