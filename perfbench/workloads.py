"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

Each workload is a closed loop: one caller runs a pass, waits for it to
finish, then runs the next.  ``run`` is the timed pass; ``outputs`` digests
what the pass wrote, outside the timing.  Why each workload exists:

- ``sim_mech2``: the paper's Monte Carlo study, many small problems, so
  per-call overhead, the Newton fits (half of them repeats) and exact means
  on small groups dominate.
- ``balance_cli_80k``: the ``balance`` command on one large CSV; the only
  workload that reads a CSV, writes the per-unit CSV and recomputes the
  chained scores and subclasses per target in the CLI.
- ``balance_exact_80k``: the exact-cell path on 80k units with 8 covariate
  cells; no Newton fit and no ingest, time goes to ``Fraction`` scores.

The checks hold for every seed: reruns and the unit-permuted copy give one
digest, the telescoping identity holds exactly, no target fails, and on the
exact-cell workload the after-subclassing differences are exactly zero.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
from pathlib import Path

import numpy as np

from csps import balancing, cli, simulation
from csps.data import Dataset

from spans import rebind

SIZES = {
    "full": {"reps": 100, "sim_units": 800, "units": 80_000},
    "tiny": {"reps": 2, "sim_units": 300, "units": 3_000},
}

MECHANISM_II = ((0.0, 0.0, 0.0), (0.75, 0.25, 0.5), (0.25, 0.75, 0.5))
# Binary covariates: no two of the 8 cells share a linear predictor, so each
# cell has its own true score and exact subclassing keeps the cells apart.
EXACT_MECHANISM = ((0.0, 0.0, 0.0), (0.8, 0.3, 0.45), (0.2, 0.7, 0.55))
EXACT_SHARES = (0.3, 0.5, 0.7)

BALANCING_FILE = "1/3 2/3 -1  # both-vs-3\n1 -1 0  # 1-vs-2\n"
TARGETS_FILE = BALANCING_FILE + "1 0 -1  # 1-vs-3\n0 1 -1  # 2-vs-3\n"


def _draw(rng, n, coefficients, shares=None):
    """Covariates and multinomial-logit treatments 1..T for ``n`` units."""
    B = np.array(coefficients)
    if shares is None:
        X = rng.standard_normal((n, B.shape[1]))
    else:
        X = (rng.random((n, B.shape[1])) < np.array(shares)).astype(float)
    eta = X @ B.T
    P = np.exp(eta - eta.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    W = 1 + (rng.random(n)[:, None] > np.cumsum(P, axis=1)[:, :-1]).sum(axis=1)
    return X, W


def _write_csv(path: Path, X, W) -> None:
    # repr() round-trips float64 exactly
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"x{k + 1}" for k in range(X.shape[1])) + ",w\n")
        fh.writelines(
            ",".join(map(repr, row)) + f",{w}\n" for row, w in zip(X.tolist(), W.tolist())
        )


class SimMech2:
    """``run_experiment(mechanism_ii(seed))``: logistic, 2 balancing, 4 targets."""

    name = "sim_mech2"
    permutable = False
    zero_after = False

    def __init__(self, seed: int, size: str, workdir: Path):
        s = SIZES[size]
        self.config = simulation.mechanism_ii(
            seed=seed, replications=s["reps"], num_units=s["sim_units"]
        )
        self.units = s["reps"] * s["sim_units"]
        self.targets = len(self.config.targets)

    def run(self, permuted: bool = False):
        return simulation.run_experiment(self.config)

    def outputs(self, result):
        digest = hashlib.sha256(
            result.before.tobytes() + result.after.tobytes() + repr(result.errors).encode()
        )
        return digest.hexdigest(), []


class BalanceCli:
    """``csps balance --per-unit`` in-process on an 80k-unit mechanism II CSV."""

    name = "balance_cli_80k"
    permutable = True
    zero_after = False

    def __init__(self, seed: int, size: str, workdir: Path):
        n = SIZES[size]["units"]
        rng = np.random.default_rng([seed, 1])
        X, W = _draw(rng, n, MECHANISM_II)
        order = rng.permutation(n)
        workdir.mkdir(parents=True, exist_ok=True)
        self.data = workdir / "units.csv"
        self.permuted_data = workdir / "units_permuted.csv"
        _write_csv(self.data, X, W)
        _write_csv(self.permuted_data, X[order], W[order])
        contrasts = workdir / "balancing.txt"
        targets = workdir / "targets.txt"
        contrasts.write_text(BALANCING_FILE, encoding="utf-8")
        targets.write_text(TARGETS_FILE, encoding="utf-8")
        self.per_unit = workdir / "per_unit.csv"
        self.balance_csv = workdir / "balance.csv"
        self.argv = [
            "balance", "--contrasts", str(contrasts), "--targets", str(targets),
            "--estimator", "logistic", "--method", "quantile", "--subclasses", "5",
            "--format", "both", "--out", str(self.balance_csv),
            "--per-unit", str(self.per_unit),
        ]
        self.units = n
        self.targets = 4

    def run(self, permuted: bool = False):
        data = self.permuted_data if permuted else self.data
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(self.argv + ["--data", str(data)])
        return code, stdout.getvalue()

    def outputs(self, result):
        code, stdout = result
        problems = [] if code == 0 else [f"csps balance exited with {code}"]
        digest = hashlib.sha256(stdout.encode())
        digest.update(self.balance_csv.read_bytes())
        # the per-unit rows follow the input order; the sum of their hashes
        # does not, and streaming keeps the check out of the peak memory
        rows = 0
        with open(self.per_unit, "rb") as fh:
            for line in fh:
                rows += int.from_bytes(hashlib.blake2b(line).digest(), "big")
        digest.update(str(rows).encode())
        return digest.hexdigest(), problems


class BalanceExact:
    """``run_algorithm`` with exact cells on 80k units, 3 binary covariates."""

    name = "balance_exact_80k"
    permutable = True
    zero_after = True
    algorithm = balancing.AlgorithmConfig(estimator="empirical", subclass_method="exact")

    def __init__(self, seed: int, size: str, workdir: Path):
        n = SIZES[size]["units"]
        rng = np.random.default_rng([seed, 2])
        X, W = _draw(rng, n, EXACT_MECHANISM, EXACT_SHARES)
        order = rng.permutation(n)
        self.dataset = Dataset(X, W, num_treatments=3)
        self.permuted_dataset = Dataset(X[order], W[order], num_treatments=3)
        self.balancing = simulation.default_balancing()
        self.target_contrasts = simulation.simulation_contrasts()
        self.units = n
        self.targets = len(self.target_contrasts)

    def run(self, permuted: bool = False):
        dataset = self.permuted_dataset if permuted else self.dataset
        return balancing.run_algorithm(
            dataset, self.balancing, self.target_contrasts, self.algorithm
        )

    def outputs(self, result):
        return "", []


WORKLOADS = {w.name: w for w in (SimMech2, BalanceCli, BalanceExact)}


@contextlib.contextmanager
def captured_reports():
    """Collect every ``BalanceReport`` that ``run_algorithm`` returns."""
    reports = []

    def make(run_algorithm):
        @functools.wraps(run_algorithm)
        def tapped(*args, **kwargs):
            report = run_algorithm(*args, **kwargs)
            reports.append(report)
            return report

        return tapped

    restore = rebind("csps.balancing.run_algorithm", make)
    try:
        yield reports
    finally:
        restore()


def _exact(values):
    return None if values is None else [(v.numerator, v.denominator) for v in values]


def numbers_digest(reports) -> str:
    """Digest of every target's exact before/after differences and subclass sizes."""
    digest = hashlib.sha256()
    for report in reports:
        for e in report.entries:
            sizes = [(r.n_positive, r.n_negative) for r in e.subclass_rows or ()]
            digest.update(repr((
                e.contrast.describe(), e.error is None, e.n_positive, e.n_negative,
                _exact(e.before_exact), _exact(e.after_exact), sizes,
            )).encode())
    return digest.hexdigest()


def invariant_failures(reports, zero_after: bool) -> list[str]:
    """Failed targets and broken identities in the reports of one pass."""
    failures = []
    for r, report in enumerate(reports):
        entries = {e.contrast.describe(): e for e in report.entries}
        for label, e in entries.items():
            if e.error is not None:
                failures.append(f"report {r}, {label}: {e.error}")
            elif zero_after and any(v != 0 for v in e.after_exact):
                failures.append(f"report {r}, {label}: after-subclassing difference is not 0")
        parts = [entries.get(k) for k in ("1-vs-3", "1-vs-2", "2-vs-3")]
        if all(e is not None and e.error is None for e in parts):
            whole, left, right = (e.before_exact for e in parts)
            if any(w != a + b for w, a, b in zip(whole, left, right)):
                failures.append(f"report {r}: before(1-vs-3) != before(1-vs-2) + before(2-vs-3)")
    return failures


class Checker:
    """Output checks over all passes of one run.

    Every pass must give the first pass's digest.  ``reference`` is the
    numbers digest recorded for this seed, when one was recorded.
    """

    def __init__(self, zero_after: bool, reference: str | None = None):
        self.zero_after = zero_after
        self.reference = reference
        self.first = None
        self.entries = 0
        self.failures: list[str] = []

    def add(self, reports, outputs_digest: str, problems) -> None:
        self.failures.extend(problems)
        if not reports:
            self.failures.append("no balance report was produced")
        self.failures.extend(invariant_failures(reports, self.zero_after))
        self.entries += sum(len(report) for report in reports)
        numbers = numbers_digest(reports)
        digest = (numbers, outputs_digest)
        if self.first is None:
            self.first = digest
            if self.reference is not None and numbers != self.reference:
                self.failures.append("digest differs from the one recorded for this seed")
        elif digest != self.first:
            self.failures.append("pass output differs from the first pass")
