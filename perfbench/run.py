"""Run one csps benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload sim_mech2 --seed 0 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  The workload's inputs come from ``--seed``.  One
untimed warm-up pass (on the unit-permuted copy of the input, where the
workload has one) is followed by timed passes, back to back, until
``--seconds`` have passed.  Every pass is checked.  Times are scaled to a
reference CPU speed read by a probe during the pass (see ``speed.py``).
With ``--trace 1`` the timed passes alternate untraced and traced, and the
per-layer figures come from the traced ones; the spans are written to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (target entries checked), ``failed`` (failed
targets plus failed checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
# BLAS is pinned to one thread: the workloads' matrices are thin (N x 4) and a
# second thread only adds contention on a shared 2-CPU machine.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import csps; print(time.perf_counter() - t)"
)
REFERENCE_SEED = 0


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_seconds() -> float:
    """Median time of ``import csps`` in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def stamp() -> dict:
    """Machine and version stamp of a result."""
    import numpy as np  # only after main() has pinned the BLAS threads

    tree = hashlib.sha256()
    for path in sorted((SRC / "csps").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(ROOT),
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, warm up, run timed passes and check them; returns the result."""
    # imported here, after main() has pinned the BLAS threads and found src/
    from spans import Tracer, pass_metrics
    from workloads import WORKLOADS, Checker, captured_reports

    units = {
        metric["name"]: metric["unit"]
        for kind in ("end_to_end", "per_layer")
        for metric in load_benchmark()[kind]
    }
    references = json.loads((HERE / "reference.json").read_text())
    reference = references["digests"].get(name) if (
        size == "full" and seed == references["seed"]
    ) else None

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    try:
        with speed.sampling() as probe:
            import_s = _import_seconds()
            setup_times = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload = WORKLOADS[name](seed, size, workdir)
                setup_times.append(time.perf_counter() - start)
        setup_s = (import_s + statistics.median(setup_times)) * speed.scale(probe)
        checker = Checker(workload.zero_after, reference)
        tracer = Tracer() if trace else None
        walls = {False: [], True: []}  # pass times scaled to the reference speed
        raw = []
        windows = []
        with captured_reports() as reports:
            checker.add(reports, *workload.outputs(workload.run(permuted=workload.permutable)))
            reports.clear()
            begin = time.perf_counter()
            while True:
                traced = tracer is not None and len(walls[False]) > len(walls[True])
                gc.collect()  # each pass starts without the last one's garbage
                with tracer.installed() if traced else nullcontext(), speed.sampling() as probe:
                    first = len(tracer.spans) if traced else 0
                    start = time.perf_counter()
                    result = workload.run()
                    wall = time.perf_counter() - start
                factor = speed.scale(probe)
                walls[traced].append(wall * factor)
                if not traced:
                    raw.append(wall)
                else:
                    windows.append((first, len(tracer.spans), wall, factor))
                checker.add(reports, *workload.outputs(result))
                reports.clear()
                if time.perf_counter() - begin >= seconds and (tracer is None or windows):
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it

    if trace:
        per_pass = []
        for first, last, wall, factor in windows:
            figures = pass_metrics(tracer.spans, first, last, wall)
            per_pass.append({
                key: value * factor if units[key] == "s" else value
                for key, value in figures.items()
            })
        metrics = {
            key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{name}-seed{seed}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "info"],
            "passes": windows,
            "spans": tracer.spans,
        }))
    else:
        timed = walls[False]
        metrics = {
            "pass_s": statistics.median(timed),
            "unit_targets_per_s": statistics.median(
                workload.units * workload.targets / w for w in timed
            ),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "correct": not checker.failures,
        "attempted": max(checker.entries, 1),
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": len(walls[False]) + len(walls[True]),
        "raw_pass_s": statistics.median(raw),
        "failures": checker.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in load_benchmark()["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        import csps
    except ImportError as exc:
        print(f"cannot import csps from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(csps.__file__).resolve().parent.parent != SRC:
        print(f"csps was imported from {csps.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['passes']} timed passes after one warm-up")
    print("stamp " + json.dumps(stamp()))
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"unscaled median of the untraced passes {result['raw_pass_s']:.6g} s")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
