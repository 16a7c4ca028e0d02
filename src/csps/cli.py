"""Command-line interface.

Subcommands: ``example`` (embedded worked example, self-checking),
``estimate`` (per-unit scores), ``balance`` (chained balancing report) and
``simulate`` (replicated experiments).  Exit codes: 0 success, 1 worked
example mismatch, 2 input error, 3 estimation or balancing failure.

Defaults can come from a config file of ``key=value`` lines (``--config``),
whose keys are the subcommand's option names (``per_unit`` for
``--per-unit``); any other key is an input error, and explicit flags
override the file.  The output directory defaults to the
``CSPS_OUTPUT_DIR`` environment variable, then the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import example_data
from .balancing import AlgorithmConfig, chained_propensity, run_algorithm, subclassify
from .contrasts import assignment_indicators, read_contrast_file
from .data import _write_csv_columns, load_dataset, write_dataset_csv
from .errors import (
    AllZero,
    CspsError,
    DimensionMismatch,
    EmptyFile,
    InvalidBounds,
    MissingValue,
    NotAContrast,
    OutOfRangeTreatment,
    ParseError,
    TooShort,
)
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

INPUT_ERRORS = (
    ParseError,
    MissingValue,
    EmptyFile,
    NotAContrast,
    AllZero,
    TooShort,
    DimensionMismatch,
    InvalidBounds,
    OutOfRangeTreatment,
    OSError,
    ValueError,
)


def _read_config_file(path: str, keys) -> dict[str, str]:
    """The ``key=value`` lines of ``path``; a key not in ``keys`` is a ParseError."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"{path}, line {lineno}: expected key=value")
            key = key.strip()
            if key not in keys:
                raise ParseError(f"{path}, line {lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _resolve(args, config: dict[str, str], key: str, default, cast):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return cast(config[key])
    return default


def _out_path(args, config, filename: str) -> Path:
    out = _resolve(args, config, "out", None, str)
    if out is not None:
        return Path(out)
    outdir = _resolve(
        args, config, "output_dir", os.environ.get("CSPS_OUTPUT_DIR", "."), str
    )
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / filename


def cmd_example(args, config) -> int:
    dataset = example_data.worked_example_dataset()
    first = empirical_csps(dataset, example_data.FIRST_CONTRAST)
    second = empirical_csps(dataset, example_data.SECOND_CONTRAST)
    chained = chained_propensity(
        dataset,
        [example_data.FIRST_CONTRAST, example_data.SECOND_CONTRAST],
        example_data.TARGET_CONTRAST,
        estimator="empirical",
    )
    d_target = assignment_indicators(
        example_data.TARGET_CONTRAST, dataset.treatments
    )
    assignment = subclassify(chained, d_target, method="exact")

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


def cmd_estimate(args, config) -> int:
    data_path = _resolve(args, config, "data", None, str)
    contrasts_path = _resolve(args, config, "contrasts", None, str)
    if data_path is None or contrasts_path is None:
        raise ValueError("estimate: --data and --contrasts are required")
    algo = AlgorithmConfig(
        estimator=_resolve(args, config, "estimator", "logistic", str),
        ridge=_resolve(args, config, "ridge", 0.0, float),
    )
    dataset = load_dataset(data_path)
    contrasts = read_contrast_file(contrasts_path)

    columns: dict[str, np.ndarray] = {"unit": np.arange(1, dataset.n_units + 1)}
    for c in contrasts:
        tag = c.label or "-".join(str(v) for v in c.coefficients)
        d = assignment_indicators(c, dataset.treatments)
        if algo.estimator == "empirical":
            scores = empirical_csps(dataset, c)
        else:
            scores = model_csps(dataset, c, ridge=algo.ridge)
        columns[f"d[{tag}]"] = d
        columns[f"csps[{tag}]"] = np.ma.masked_array(
            scores.as_floats(), mask=~scores.defined_mask
        )

    path = _out_path(args, config, "scores.csv")
    _write_csv_columns(path, list(columns), list(columns.values()), dataset.n_units)
    print(f"wrote {path}")
    return 0


def cmd_balance(args, config) -> int:
    data_path = _resolve(args, config, "data", None, str)
    contrasts_path = _resolve(args, config, "contrasts", None, str)
    if data_path is None or contrasts_path is None:
        raise ValueError("balance: --data and --contrasts are required")
    targets_path = _resolve(args, config, "targets", None, str)
    algo = AlgorithmConfig(
        estimator=_resolve(args, config, "estimator", "logistic", str),
        subclass_method=_resolve(args, config, "method", "quantile", str),
        num_subclasses=int(_resolve(args, config, "subclasses", 5, int)),
        ridge=_resolve(args, config, "ridge", 0.0, float),
    )
    dataset = load_dataset(data_path)
    balancing = read_contrast_file(contrasts_path)
    targets = read_contrast_file(targets_path) if targets_path else balancing

    report = run_algorithm(dataset, balancing, targets, algo)
    fmt = _resolve(args, config, "format", "both", str)
    if fmt not in ("text", "csv", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt in ("text", "both"):
        print(format_balance_table(report))
    if fmt in ("csv", "both"):
        path = _out_path(args, config, "balance.csv")
        write_balance_csv(report, path)
        print(f"wrote {path}")
    per_unit = _resolve(args, config, "per_unit", None, str)
    if per_unit:
        _write_per_unit_csv(dataset, report, per_unit)
        print(f"wrote {per_unit}")
    failed = [e for e in report.entries if e.error is not None]
    for entry in failed:
        print(
            f"estimation error: target {entry.contrast.describe()}: {entry.error}",
            file=sys.stderr,
        )
    return 3 if failed else 0


def _write_per_unit_csv(dataset, report, path) -> None:
    """Mirror the dataset plus chained score and subclass columns per target.

    The columns come from the group indicators, scores and subclasses the
    report kept.  A
    unit in neither group of a target has no subclass, and one with an
    undefined score no score: those fields are left blank.
    """
    extras: dict[str, np.ndarray] = {}
    for entry in report.entries:
        if entry.error is not None:
            continue
        tag = entry.contrast.describe()
        labels = entry.assignment.labels
        extras[f"d[{tag}]"] = entry.assignment.indicator
        extras[f"score[{tag}]"] = np.ma.masked_array(
            entry.scores.as_floats(), mask=~entry.scores.defined_mask
        )
        extras[f"subclass[{tag}]"] = np.ma.masked_array(labels, mask=labels == 0)
    write_dataset_csv(dataset, path, extras)


def _mechanism_config(args, config) -> SimulationConfig:
    mechanism = _resolve(args, config, "mechanism", "I", str)
    kwargs = dict(
        num_units=int(_resolve(args, config, "units", 800, int)),
        replications=int(_resolve(args, config, "reps", 100, int)),
        seed=int(_resolve(args, config, "seed", 0, int)),
        algorithm=AlgorithmConfig(
            estimator=_resolve(args, config, "estimator", "logistic", str),
            num_subclasses=int(_resolve(args, config, "subclasses", 5, int)),
            ridge=_resolve(args, config, "ridge", 0.0, float),
        ),
    )
    if mechanism.upper() == "I":
        return mechanism_i(**kwargs)
    if mechanism.upper() == "II":
        return mechanism_ii(**kwargs)
    # custom: text file with one row of K coefficients per treatment
    try:
        B = np.loadtxt(mechanism, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read coefficient file {mechanism!r}: {exc}") from exc
    return SimulationConfig(coefficients=tuple(map(tuple, B)), **kwargs)


def cmd_simulate(args, config) -> int:
    cfg = _mechanism_config(args, config)
    fmt = _resolve(args, config, "format", "both", str)
    if fmt not in ("text", "csv", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    result = run_experiment(cfg)
    if fmt in ("text", "both"):
        print(format_experiment_table(result))
        oracle_n = _resolve(args, config, "oracle", None, int)
        if oracle_n:
            rows = oracle_group_means(cfg, oracle_n=int(oracle_n))
            print(f"\nlarge-sample pooled differences (n={int(oracle_n)}):")
            for target, row in zip(cfg.targets, rows):
                cells = "  ".join(f"{v:8.4f}" for v in row)
                print(f"  {target.describe():<12} {cells}")
    if fmt in ("csv", "both"):
        path = _out_path(args, config, "replications.csv")
        write_replications_csv(result, path)
        print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csps",
        description="Contrast-specific propensity scores and chained balancing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value defaults file")
        p.add_argument("--output-dir", dest="output_dir", help="output directory")
        p.add_argument("--out", help="explicit output file path")
        p.add_argument("--format", choices=["text", "csv", "both"],
                       help="emit the text table, the CSV, or both (default)")

    p = sub.add_parser("example", help="run the embedded worked example")
    common(p)

    p = sub.add_parser("estimate", help="emit per-unit group indicators and scores")
    common(p)
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--contrasts", help="contrast file")
    p.add_argument("--estimator", choices=["empirical", "logistic"])
    p.add_argument("--ridge", type=float)

    p = sub.add_parser("balance", help="chained balancing and diagnostics")
    common(p)
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--contrasts", help="balancing contrast file")
    p.add_argument("--targets", help="target contrast file (default: balancing)")
    p.add_argument("--estimator", choices=["empirical", "logistic"])
    p.add_argument("--method", choices=["exact", "quantile"])
    p.add_argument("--subclasses", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--per-unit", dest="per_unit",
                   help="also write the dataset with score/subclass columns here")

    p = sub.add_parser("simulate", help="replicated simulation experiment")
    common(p)
    p.add_argument(
        "--mechanism",
        help="I (randomized), II (covariate-driven), or a coefficient file",
    )
    p.add_argument("--units", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--estimator", choices=["empirical", "logistic"])
    p.add_argument("--subclasses", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--oracle", type=int, help="also print an oracle of this size")
    return parser


COMMANDS = {
    "example": cmd_example,
    "estimate": cmd_estimate,
    "balance": cmd_balance,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        keys = set(vars(args)) - {"command", "config"}
        config = _read_config_file(args.config, keys) if args.config else {}
        return COMMANDS[args.command](args, config)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CspsError as exc:
        print(f"estimation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
