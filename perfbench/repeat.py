"""Run workloads once per seed, each run in its own process, and summarize.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--out FILE]

By default every workload of ``BENCHMARK.json`` runs once per seed, one
run after another, for its ``run_seconds``, untraced.  Each
run's metrics are printed with their units and its failed fraction.  Then,
per workload and metric, come the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  ``--out FILE`` also
writes these, with every run's metrics and noise-loop time, as JSON.
The exit code is 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def run_once(workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-1].startswith('{"correct"'):
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma list (default: those of BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summaries here as JSON")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    all_ok = True
    report = {}
    for workload in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            got = run_once(workload, seed, seconds)
            if got is None:
                return 1
            record, result = got
            all_ok = all_ok and result["correct"]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "noise_loop_s": record["noise_loop_s"],
                         "pass_wall_s": record["pass_wall_s"], "metrics": metrics})
            shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}, failed_frac={record['failed_frac']:.4g}"
                  f" ({record['failed']} of {record['attempted']})", flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.1%}"
            print(f"{workload} {name}: median {s['median']:.6g}  "
                  f"quartiles {s['q1']:.6g} .. {s['q3']:.6g}  spread {spread}")
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "workloads": report}, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
