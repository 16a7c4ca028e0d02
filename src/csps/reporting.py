"""Rendering of balance reports and simulation results.

Text tables round to 2 decimals for reading; CSV output keeps 17 significant
digits so the numbers round-trip float64 exactly.  Both views are generated
from the same in-memory report.
"""

from __future__ import annotations

import csv
from collections import Counter

import numpy as np

from .balancing import BalanceReport
from .simulation import ExperimentResult

__all__ = [
    "format_balance_table",
    "write_balance_csv",
    "format_experiment_table",
    "write_replications_csv",
]


def _fmt(value) -> str:
    return f"{float(value):.2f}"


def _full(value) -> str:
    return format(float(value), ".17g")


def format_balance_table(report: BalanceReport) -> str:
    """Aligned per-target table of before/after covariate mean differences.

    The table is followed by each target's subclasses and then by one line
    per failed target.
    """
    names = list(report.covariate_names)
    header = (
        ["target", "n+", "n-", "S"]
        + [f"before:{n}" for n in names]
        + [f"after:{n}" for n in names]
    )
    rows = [header]
    notes = []
    for entry in report.entries:
        label = entry.contrast.describe()
        if entry.error is not None:
            notes.append(f"target {label}: {entry.error}")
            continue
        row = [label, str(entry.n_positive), str(entry.n_negative)]
        row.append(str(entry.num_subclasses) if entry.subclass_rows else "-")
        row += [_fmt(v) for v in entry.before]
        after = entry.after
        if after is not None:
            row += [_fmt(v) for v in after]
        else:
            row += ["-"] * len(names)
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]

    for entry in report.entries:
        if not entry.subclass_rows:
            continue
        lines.append(f"subclasses for {entry.contrast.describe()}:")
        for r in entry.subclass_rows:
            diffs = "  ".join(_fmt(v) for v in r.difference)
            lines.append(
                f"  subclass {r.subclass_id}: n+={r.n_positive} "
                f"n-={r.n_negative} weight={float(r.weight):.3f} diff: {diffs}"
            )
    lines.extend(notes)
    return "\n".join(lines)


def write_balance_csv(report: BalanceReport, path) -> None:
    """Long-format CSV: overall rows plus one row per subclass and covariate."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "target",
                "row_type",
                "subclass",
                "covariate",
                "n_positive",
                "n_negative",
                "weight",
                "before",
                "after",
                "difference",
                "error",
            ]
        )
        for entry in report.entries:
            label = entry.contrast.describe()
            if entry.error is not None:
                writer.writerow([label, "error", "", "", "", "", "", "", "", "", entry.error])
                continue
            before, after = entry.before, entry.after
            for k, name in enumerate(report.covariate_names):
                writer.writerow(
                    [
                        label,
                        "overall",
                        "",
                        name,
                        entry.n_positive,
                        entry.n_negative,
                        "",
                        _full(before[k]),
                        _full(after[k]) if after is not None else "",
                        "",
                        "",
                    ]
                )
            for r in entry.subclass_rows or ():
                difference = r.difference
                for k, name in enumerate(report.covariate_names):
                    writer.writerow(
                        [
                            label,
                            "subclass",
                            r.subclass_id,
                            name,
                            r.n_positive,
                            r.n_negative,
                            _full(r.weight),
                            "",
                            "",
                            _full(difference[k]),
                            "",
                        ]
                    )


def format_experiment_table(result: ExperimentResult) -> str:
    """Per-target table of replication-averaged before/after differences.

    When some (replication, target) pairs failed, a last line counts them,
    grouped by error type.
    """
    cfg = result.config
    names = [f"x{k + 1}" for k in range(cfg.num_covariates)]
    header = (
        ["target", "reps"]
        + [f"before:{n}" for n in names]
        + [f"after:{n}" for n in names]
    )
    mb, ma = result.mean_before, result.mean_after
    excluded = result.excluded_counts()
    rows = [header]
    for j, target in enumerate(cfg.targets):
        used = cfg.replications - int(excluded[j])
        row = [target.describe(), str(used)]
        row += [_fmt(v) for v in mb[j]]
        row += [_fmt(v) for v in ma[j]]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]
    if result.errors:
        causes = Counter(message.split(":", 1)[0] for _, _, message in result.errors)
        by_cause = ", ".join(
            f"{name} {count}"
            for name, count in sorted(causes.items(), key=lambda c: (-c[1], c[0]))
        )
        lines.append(
            f"excluded (replication, target) pairs: {len(result.errors)} ({by_cause})"
        )
    return "\n".join(lines)


def write_replications_csv(result: ExperimentResult, path) -> None:
    """One row per replication, target, and covariate, full precision."""
    cfg = result.config
    messages = {(r, j): msg for r, j, msg in result.errors}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replication", "target", "covariate", "before", "after", "error"]
        )
        for r in range(cfg.replications):
            for j, target in enumerate(cfg.targets):
                msg = messages.get((r, j), "")
                for k in range(cfg.num_covariates):
                    b = result.before[r, j, k]
                    a = result.after[r, j, k]
                    writer.writerow(
                        [
                            r,
                            target.describe(),
                            f"x{k + 1}",
                            "" if np.isnan(b) else _full(b),
                            "" if np.isnan(a) else _full(a),
                            msg,
                        ]
                    )
