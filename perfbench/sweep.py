"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --workloads sim_mech2 balance_exact_80k --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --append-history "what changed"

Each run is its own untraced process, one after another, with the run length
from BENCHMARK.json.  For every end-to-end metric the summary gives the
median, the quartiles and the quartile spread as a share of the median, the
figure each bound in BENCHMARK.json is set against, and how much worse the
median is than in the last entry of ``perfbench/history.json``.  The exit
code is 1 when a run fails or is incorrect, or a median is worse than that
entry's by more than the metric's bound.  ``--append-history`` adds the
summary, with the machine stamp, to ``perfbench/history.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--append-history", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    path = HERE / "history.json"
    history = json.loads(path.read_text()) if path.exists() else []
    last = history[-1]["workloads"] if history else {}

    entry = {"label": args.append_history, "seeds": args.seeds,
             "run_seconds": benchmark["run_seconds"],
             "stamp": None, "workloads": {}}
    ok = True
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                       "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            elapsed = time.monotonic() - start
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("stamp "):
                    entry["stamp"] = entry["stamp"] or json.loads(line[6:])
            ok = ok and result["correct"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            shown = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown} "
                  f"({elapsed:.0f} s)", flush=True)
        entry["workloads"][name] = {k: summary(v) for k, v in values.items()}
        for key, s in entry["workloads"][name].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            worse = ""
            if key in last.get(name, {}):
                before = last[name][key]["median"]
                change = (s["median"] - before) / before
                worse_by = change if lower[key] else -change
                ok = ok and worse_by <= bounds[key]
                worse = f", worse than the last history entry by {worse_by:+.4f}"
            print(f"  {name} {key}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {spread} (bound {bounds[key]}){worse}")

    if args.append_history:
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
