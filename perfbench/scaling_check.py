"""Measure how much of the work added to a pass the speed-scaled time reports.

    python3 perfbench/scaling_check.py --workload sim_mech2 --rounds 15

``run.py`` scales each pass time by a CPU-speed probe that runs inside the
pass (see ``speed.py``).  If work added to a pass also slowed the probe, by
sharing caches, the allocator or the garbage collector with it, the scaled
time would hide part of that work.  This script runs one workload in one
process, in rounds.  Each round runs, in rotating order, the plain pass and
the pass with extra work appended inside the timed region: pure-Python work
(dict and tuple churn over 200k keys) or numpy work (elementwise passes over
a 64 MB array).  The extra work is sized to about ``SHARE`` of a plain pass.

Adjacent passes run at nearly the same CPU speed, so the median over rounds
of raw(variant) / raw(plain) is the slowdown the extra work really causes.
The same median of the scaled times is the slowdown the benchmark reports.
"between" scales by probes taken only just before and after the pass
instead, for comparison.  If the extra work slowed the probe, the probe would
read slower inside than just outside the pass by more in the passes with
extra work than in the plain ones; that ratio is printed per variant.
The last line is a JSON object with these figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import suppress

import run
import speed

SHARE = 0.10
PYTHON_KEYS = 200_000
ARRAY_FLOATS = 8_000_000  # 64 MB, larger than the CPU's caches
BURST = 50  # probes just before and just after a pass, for the "between" scaling


def python_work(repeats: int) -> int:
    total = 0
    for _ in range(repeats):
        table = {}
        for i in range(PYTHON_KEYS):
            table[i] = (i, i & 7)
        total += len(table)
    return total


def numpy_work(repeats: int, block) -> float:
    total = 0.0
    for _ in range(repeats):
        total += float((block * 1.5 + 1.0).sum())
    return total


def _raw_seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in run.load_benchmark()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)

    for variable in run.BLAS_VARIABLES:
        os.environ[variable] = run.BLAS_THREADS
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    from workloads import WORKLOADS

    block = np.random.default_rng(args.seed).random(ARRAY_FLOATS)
    workdir = run.ROOT / ".perfbench_work" / f"scaling-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, "full", workdir)
        plain = statistics.median(_raw_seconds(workload.run) for _ in range(3))
        one_python = statistics.median(_raw_seconds(lambda: python_work(1)) for _ in range(5))
        one_numpy = statistics.median(_raw_seconds(lambda: numpy_work(1, block)) for _ in range(5))
        python_repeats = max(1, round(SHARE * plain / one_python))
        numpy_repeats = max(1, round(SHARE * plain / one_numpy))
        variants = {
            "plain": lambda: None,
            "python": lambda: python_work(python_repeats),
            "numpy": lambda: numpy_work(numpy_repeats, block),
        }
        times = {v: {"raw": [], "scaled": [], "between": []} for v in variants}
        probe_ratio = {v: [] for v in variants}
        names = list(variants)
        for r in range(args.rounds):
            for v in names[r % 3:] + names[:r % 3]:
                gc.collect()
                outside = [speed.probe() for _ in range(BURST)]
                with speed.sampling() as probe:
                    start = time.perf_counter()
                    workload.run()
                    variants[v]()
                    wall = time.perf_counter() - start
                outside += [speed.probe() for _ in range(BURST)]
                times[v]["raw"].append(wall)
                times[v]["scaled"].append(wall * speed.scale(probe))
                times[v]["between"].append(wall * speed.scale(outside))
                probe_ratio[v].append(speed.scale(outside) / speed.scale(probe))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it

    result = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "plain_raw_s": statistics.median(times["plain"]["raw"]),
              "plain_scaled_s": statistics.median(times["plain"]["scaled"]),
              "repeats": {"python": python_repeats, "numpy": numpy_repeats}}
    for v in variants:
        result[f"{v}_probe_inside_vs_outside"] = statistics.median(probe_ratio[v])
        print(f"{v} passes: probe median inside / just outside the pass "
              f"{result[f'{v}_probe_inside_vs_outside']:.4f}")
    for v in ("python", "numpy"):
        for kind in ("raw", "scaled", "between"):
            ratios = [a / b for a, b in zip(times[v][kind], times["plain"][kind])]
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            result[f"{v}_{kind}_added"] = median - 1.0
            print(f"{v} work, {kind} times: added {median - 1.0:+.4f} of a plain pass "
                  f"(quartiles {q1 - 1.0:+.4f} {q3 - 1.0:+.4f})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
