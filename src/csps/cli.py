"""Command-line interface.

Subcommands: ``example`` (embedded worked example, self-checking; no
options), ``estimate`` (per-unit scores), ``balance`` (chained balancing
report) and ``simulate`` (replicated experiments).  Exit codes: 0 success,
1 worked example mismatch, 2 input error (:data:`errors.INPUT_ERRORS`),
3 estimation or balancing failure.

:func:`_build_parser` defines each option's type, choices and default once.
A ``--config`` file of ``key=value`` lines, keyed by option name
(``per_unit`` for ``--per-unit``), is read through the same types and
choices into the subcommand's defaults, so explicit flags override it.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import example_data
from .balancing import AlgorithmConfig, run_algorithm
from .contrasts import assignment_indicators, read_contrast_file
from .data import _write_csv_columns, load_dataset, write_dataset_csv
from .errors import INPUT_ERRORS, CspsError, ParseError
from .estimation import empirical_csps, model_csps
from .reporting import (
    format_balance_table,
    format_experiment_table,
    write_balance_csv,
    write_replications_csv,
)
from .simulation import (
    SimulationConfig,
    mechanism_i,
    mechanism_ii,
    oracle_group_means,
    run_experiment,
)


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    """The ``key=value`` lines of ``path`` as values of ``parser``'s options.

    A key that names no option, or a value its option's type or choices
    refuse, is a ParseError naming the line.
    """
    # argparse keeps no public list of a parser's options
    options = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            where = f"{path}, line {lineno}"
            if not sep:
                raise ParseError(f"{where}: expected key=value")
            key, value = key.strip(), value.strip()
            if key not in options:
                raise ParseError(f"{where}: unknown key {key!r}")
            action = options[key]
            try:
                value = (action.type or str)(value)
            except ValueError:
                raise ParseError(f"{where}: invalid {key} {value!r}") from None
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(action.choices)
                raise ParseError(f"{where}: {key} must be one of {choices}, not {value!r}")
            values[key] = value
    return values


def _in_a_directory(name: str, option: str) -> Path:
    """``name`` as a path; FileNotFoundError when its directory does not exist."""
    path = Path(name)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"no directory {str(path.parent)!r} for {option} {name}")
    return path


def _out_path(args, filename: str) -> Path:
    if args.out is not None:
        return _in_a_directory(args.out, "--out")
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / filename


def cmd_example(args) -> int:
    dataset, first, second, chained, assignment = example_data._pipeline()

    print("worked example: 24 units, 3 treatments, 4 covariate cells")
    print("cell            units  score1  score2  chained  subclass")
    for key, idx in dataset.cell_index:
        cell = "(" + ", ".join(str(int(v)) for v in key) + ")"
        sub = {int(assignment.labels[i]) for i in idx if assignment.labels[i] > 0}
        print(
            f"{cell:<15} {len(idx):>5}  {str(first.values[idx[0]]):>6}  "
            f"{str(second.values[idx[0]]):>6}  {str(chained.values[idx[0]]):>7}  "
            f"{','.join(str(s) for s in sorted(sub)):>8}"
        )

    problems = example_data.verify_worked_example()
    if problems:
        print("\nmismatches:")
        for p in problems:
            print(f"  {p}")
        return 1
    print("\nall values reproduced exactly (including the one-score counterexample)")
    return 0


def cmd_estimate(args) -> int:
    if args.data is None or args.contrasts is None:
        raise ValueError("estimate: --data and --contrasts are required")
    algo = AlgorithmConfig(estimator=args.estimator, ridge=args.ridge)
    dataset = load_dataset(args.data)
    contrasts = read_contrast_file(args.contrasts)
    tags = [c.label or "-".join(str(v) for v in c.coefficients) for c in contrasts]
    _refuse_repeats(tags, f"{args.contrasts}: two contrasts are tagged")

    columns: dict[str, np.ndarray] = {"unit": np.arange(1, dataset.n_units + 1)}
    for c, tag in zip(contrasts, tags):
        d = assignment_indicators(c, dataset.treatments)
        if algo.estimator == "empirical":
            scores = empirical_csps(dataset, c)
        else:
            scores = model_csps(dataset, c, ridge=algo.ridge)
        columns[f"d[{tag}]"] = d
        columns[f"csps[{tag}]"] = np.ma.masked_invalid(scores.as_floats())

    path = _out_path(args, "scores.csv")
    _write_csv_columns(path, list(columns), list(columns.values()), dataset.n_units)
    print(f"wrote {path}")
    return 0


def cmd_balance(args) -> int:
    if args.data is None or args.contrasts is None:
        raise ValueError("balance: --data and --contrasts are required")
    algo = AlgorithmConfig(
        estimator=args.estimator,
        subclass_method=args.method,
        num_subclasses=args.subclasses,
        ridge=args.ridge,
    )
    dataset = load_dataset(args.data)
    balancing = read_contrast_file(args.contrasts)
    targets = read_contrast_file(args.targets) if args.targets else balancing
    # resolved before any output, so an input error leaves none
    path = _out_path(args, "balance.csv") if args.format in ("csv", "both") else None
    if args.per_unit:
        _in_a_directory(args.per_unit, "--per-unit")
        _refuse_repeats(
            [*dataset.covariate_names, dataset.treatment_name,
             *(name for t in targets for name in _per_unit_names(t))],
            f"{args.data}: --per-unit would write two columns named",
        )

    report = run_algorithm(dataset, balancing, targets, algo)
    if args.format in ("text", "both"):
        print(format_balance_table(report))
    if path is not None:
        write_balance_csv(report, path)
        print(f"wrote {path}")
    if args.per_unit:
        _write_per_unit_csv(dataset, report, args.per_unit)
        print(f"wrote {args.per_unit}")
    failed = [e for e in report.entries if e.error is not None]
    for entry in failed:
        print(
            f"estimation error: target {entry.contrast.describe()}: {entry.error}",
            file=sys.stderr,
        )
    return 3 if failed else 0


def _refuse_repeats(names, message: str) -> None:
    """ParseError ``message`` and the first name of ``names`` that repeats."""
    name, count = Counter(names).most_common(1)[0]
    if count > 1:
        raise ParseError(f"{message} {name!r}")


def _per_unit_names(target) -> tuple[str, str, str]:
    """The indicator, score and subclass columns ``--per-unit`` adds for ``target``."""
    tag = target.describe()
    return f"d[{tag}]", f"score[{tag}]", f"subclass[{tag}]"


def _write_per_unit_csv(dataset, report, path) -> None:
    """Mirror the dataset plus indicator, score and subclass columns per target.

    The scores and subclasses are those the report kept; the indicators come
    from each target and the treatments.  A unit in neither group of a target
    has no subclass, and one with an undefined score no score: those fields
    are left blank.
    """
    extras: dict[str, np.ndarray] = {}
    for entry in report.entries:
        if entry.error is not None:
            continue
        d, score, subclass = _per_unit_names(entry.contrast)
        labels = entry.assignment.labels
        extras[d] = assignment_indicators(entry.contrast, dataset.treatments).astype(np.int8)
        extras[score] = np.ma.masked_invalid(entry.scores.as_floats())
        extras[subclass] = np.ma.masked_array(labels, mask=labels == 0)
    write_dataset_csv(dataset, path, extras)


def _mechanism_config(args) -> SimulationConfig:
    kwargs = dict(
        num_units=args.units,
        replications=args.reps,
        seed=args.seed,
        algorithm=AlgorithmConfig(
            estimator=args.estimator,
            num_subclasses=args.subclasses,
            ridge=args.ridge,
        ),
    )
    if args.mechanism.upper() == "I":
        return mechanism_i(**kwargs)
    if args.mechanism.upper() == "II":
        return mechanism_ii(**kwargs)
    # custom: text file with one row of K coefficients per treatment
    try:
        B = np.loadtxt(args.mechanism, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read coefficient file {args.mechanism!r}: {exc}") from exc
    return SimulationConfig(coefficients=tuple(map(tuple, B)), **kwargs)


def cmd_simulate(args) -> int:
    cfg = _mechanism_config(args)
    text = args.format in ("text", "both")
    # drawn and resolved before any output, so an input error leaves none
    oracle = oracle_group_means(cfg, oracle_n=args.oracle) if text and args.oracle else None
    path = _out_path(args, "replications.csv") if args.format in ("csv", "both") else None
    result = run_experiment(cfg)
    if text:
        print(format_experiment_table(result))
        if oracle is not None:
            print(f"\nlarge-sample pooled differences (n={args.oracle}):")
            for target, row in zip(cfg.targets, oracle):
                cells = "  ".join(f"{v:8.4f}" for v in row)
                print(f"  {target.describe():<12} {cells}")
    if path is not None:
        write_replications_csv(result, path)
        print(f"wrote {path}")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``csps`` parser and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="csps",
        description="Contrast-specific propensity scores and chained balancing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def outputs(p, formats: bool):
        p.add_argument("--config", help="key=value defaults file")
        p.add_argument("--output-dir", dest="output_dir",
                       default=os.environ.get("CSPS_OUTPUT_DIR", "."),
                       help="output directory (default: $CSPS_OUTPUT_DIR, else .)")
        p.add_argument("--out", help="explicit output file path")
        if formats:
            p.add_argument("--format", choices=["text", "csv", "both"], default="both",
                           help="emit the text table, the CSV, or both (default)")

    def inputs(p, contrasts: str):
        p.add_argument("--data", help="dataset CSV")
        p.add_argument("--contrasts", help=contrasts)

    def estimation(p, subclasses: bool):
        p.add_argument("--estimator", choices=["empirical", "logistic"], default="logistic")
        p.add_argument("--ridge", type=float, default=0.0)
        if subclasses:
            p.add_argument("--subclasses", type=int, default=5)

    p = sub.add_parser("example", help="run the embedded worked example")
    p.set_defaults(run=cmd_example)

    p = sub.add_parser("estimate", help="emit per-unit group indicators and scores")
    p.set_defaults(run=cmd_estimate)
    outputs(p, formats=False)
    inputs(p, "contrast file")
    estimation(p, subclasses=False)

    p = sub.add_parser("balance", help="chained balancing and diagnostics")
    p.set_defaults(run=cmd_balance)
    outputs(p, formats=True)
    inputs(p, "balancing contrast file")
    p.add_argument("--targets", help="target contrast file (default: balancing)")
    estimation(p, subclasses=True)
    p.add_argument("--method", choices=["exact", "quantile"], default="quantile")
    p.add_argument("--per-unit", dest="per_unit",
                   help="also write the dataset with score/subclass columns here")

    p = sub.add_parser("simulate", help="replicated simulation experiment")
    p.set_defaults(run=cmd_simulate)
    outputs(p, formats=True)
    p.add_argument(
        "--mechanism", default="I",
        help="I (randomized), II (covariate-driven), or a coefficient file",
    )
    p.add_argument("--units", type=int, default=800)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    estimation(p, subclasses=True)
    p.add_argument("--oracle", type=int,
                   help="also print an oracle of this size with the text table")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            command = commands[args.command]
            command.set_defaults(**_read_config_file(args.config, command))
            args = parser.parse_args(argv)
        return args.run(args)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CspsError as exc:
        print(f"estimation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
