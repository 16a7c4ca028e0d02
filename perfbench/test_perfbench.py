"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import dataclasses
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import csps  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def test_workload_names_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(name, trace, kind):
    result = run.run(name, seed=1, seconds=0.0, trace=bool(trace), size="tiny")
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    # every traced binding is put back
    assert not hasattr(csps.balancing.model_csps, "__wrapped__")
    assert csps.balancing.run_algorithm is csps.run_algorithm
    assert not hasattr(csps.simulation.run_algorithm, "__wrapped__")


@pytest.mark.parametrize("field", ["before_exact", "after_exact"])
def test_perturbed_fraction_is_caught(tmp_path, field):
    workload = workloads.BalanceExact(seed=1, size="tiny", workdir=tmp_path)
    with workloads.captured_reports() as reports:
        result = workload.run()
    (report,) = reports
    checker = workloads.Checker(workload.zero_after)
    checker.add([report], *workload.outputs(result))
    assert checker.failures == []

    entries = list(report.entries)
    entry = entries[2]
    values = getattr(entry, field)
    nudged = (values[0] + Fraction(1, 10**12),) + values[1:]
    entries[2] = dataclasses.replace(entry, **{field: nudged})
    bad = dataclasses.replace(report, entries=tuple(entries))
    checker.add([bad], *workload.outputs(result))
    assert "pass output differs from the first pass" in checker.failures


def test_telescoping_and_zero_after_checks():
    workload = workloads.BalanceExact(seed=2, size="tiny", workdir=None)
    with workloads.captured_reports() as reports:
        workload.run()
    (report,) = reports
    assert workloads.invariant_failures([report], zero_after=True) == []
    entries = list(report.entries)
    e = entries[2]  # 1-vs-3
    entries[2] = dataclasses.replace(
        e,
        before_exact=(e.before_exact[0] + 1,) + e.before_exact[1:],
        after_exact=(Fraction(1, 3),) + e.after_exact[1:],
    )
    failures = workloads.invariant_failures(
        [dataclasses.replace(report, entries=tuple(entries))], zero_after=True
    )
    assert any("before(1-vs-3)" in f for f in failures)
    assert any("not 0" in f for f in failures)


def test_reference_digest_mismatch_is_caught():
    checker = workloads.Checker(zero_after=False, reference="0" * 64)
    workload = workloads.BalanceExact(seed=3, size="tiny", workdir=None)
    with workloads.captured_reports() as reports:
        result = workload.run()
    checker.add(reports, *workload.outputs(result))
    assert checker.failures == ["digest differs from the one recorded for this seed"]


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling() as samples:
        time.sleep(0.1)
    assert len(samples) >= 4 and all(t > 0 for t in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.scale(samples) > 0
