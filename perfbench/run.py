"""Run one ospcheck benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the library is imported from ``src/``
there and nowhere else.  One run, in one single-threaded process:

1. times a fixed pure-Python loop (the noise record, printed beside the
   results and never used to scale a metric);
2. sets up the workload's ``setup_repeats`` times (more where a set-up
   is quick), each time collecting the previous set-up's garbage
   (untimed), importing ``ospcheck`` afresh and building the workload's
   serialized inputs; ``setup_s`` is the median;
3. repeats passes over those inputs while another pass still fits in
   ``--seconds`` (at least one) and reports figures over the whole run:
   ``wall_s`` is the mean pass time (the time of all passes over their
   number), and ``verify_p50_ms`` and ``verify_p99_ms`` are percentiles,
   over the inputs, of each input's median time from its serialized form
   to all of its verdicts.  A shared host's speed drifts from one half
   minute to the next, so only figures taken over the whole run follow
   that drift, rather than one moment of it;
4. checks every output against its pin (``workloads.py``) and counts each
   operation that raised or mismatched.

With ``--trace 1`` passes alternate untraced and traced, and the metrics
are the per-layer ones: self time per span name (median over set-ups plus
median over traced passes), exact counts, the time no span covers, and the
tracing overhead (median traced minus median untraced pass time).  The
spans go to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check held, 1 when one failed, and 2 when the checkout has no library.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import NULL_TRACER, Gate, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NOISE_LOOP_STEPS = 2_000_000

SPAN_METRICS = [
    "search.falsify",
    "checkers.osp", "checkers.dsic", "checkers.ir", "checkers.nnt", "checkers.ratio",
    "checkers.badgood", "checkers.divergence", "checkers.payment_bounds",
    "serialize.parse", "serialize.write",
    "model.run",
    "mechanisms.build",
    "valuations.domain",
    "structure.audit", "structure.decisive",
    "cli.verify", "cli.ratio", "cli.analyze", "cli.fixtures",
    "bench.instance",
]
COUNT_METRICS = [
    "search.examined",
    "checkers.calls", "checkers.failed_verdicts", "checkers.badgood_violations",
    "serialize.bytes",
    "model.replays",
    "structure.queries",
]


def noise_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(NOISE_LOOP_STEPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def load_ospcheck():
    """Import ``ospcheck`` from this checkout's ``src``, discarding any
    earlier import so that each set-up pays the whole import."""
    for name in [m for m in sys.modules if m == "ospcheck" or m.startswith("ospcheck.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.import_module("ospcheck.cli")
    oc = sys.modules["ospcheck"]
    if Path(oc.__file__).resolve().parent != SRC / "ospcheck":
        raise ImportError(f"ospcheck was imported from {oc.__file__}, not {SRC}")
    return oc


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(samples, q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer_metrics(tracer: Tracer, plain_walls, traced_walls, noise):
    """Per-layer metrics, and each span name's share of the traced pass time."""
    phases = tracer.phase_summaries()
    setups = [p for p in phases if p["kind"] == "setup"]
    passes = [p for p in phases if p["kind"] == "pass"]

    def per_run(read) -> float:
        return median_or_zero([read(p) for p in setups]) + median_or_zero([read(p) for p in passes])

    out = {}
    for name in SPAN_METRICS:
        out[f"{name}_s"] = (per_run(lambda p: p["self"].get(name, 0.0)), "s")
    for name in COUNT_METRICS:
        out[name] = (per_run(lambda p: p["counts"].get(name, 0)), "count")
    out["trace.uncovered_s"] = (median_or_zero([p["uncovered"] for p in passes]), "s")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    out["trace.spans"] = (median_or_zero([sum(p["calls"].values()) for p in passes]), "count")
    out["noise.loop_s"] = (noise, "s")
    pass_wall = statistics.median(traced_walls)
    shares = {
        name: median_or_zero([p["self"].get(name, 0.0) for p in passes]) / pass_wall
        for name in SPAN_METRICS
    }
    return out, shares


def run(name: str, seed: int, seconds: float, traced: bool, size: str = "full"):
    workload = WORKLOADS[name]
    gate = Gate()
    tracer = Tracer() if traced else None
    origin = time.perf_counter()
    noise = noise_loop()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        gate.tracer = tracer or NULL_TRACER
        setup_times = []
        for _ in range(workload.setup_repeats):
            oc = state = None
            gc.collect()
            if tracer is not None:
                tracer.phase("setup")
            start = time.perf_counter()
            oc = load_ospcheck()
            state = workload.setup(oc, gate, seed, Path(tmp), size)
            setup_times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.close()

        plain_walls, traced_walls, latencies = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            traced_pass = tracer is not None and len(plain_walls) > len(traced_walls)
            gate.tracer = tracer if traced_pass else NULL_TRACER
            if traced_pass:
                tracer.phase("pass")
            start = time.perf_counter()
            pass_latencies = workload.run_pass(state, gate)
            wall = time.perf_counter() - start
            if traced_pass:
                tracer.close()
                traced_walls.append(wall)
            else:
                plain_walls.append(wall)
                latencies.append(pass_latencies)
            done = plain_walls and (tracer is None or traced_walls)
            typical = statistics.median(plain_walls + traced_walls)
            if done and time.perf_counter() + typical > deadline:
                break

    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "noise_loop_s": noise,
        "setup_s": setup_times,
        "pass_wall_s": plain_walls,
        "traced_pass_wall_s": traced_walls,
        "verify_samples": len(latencies[0]),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_frac": gate.failed / max(gate.attempted, 1),
        "problems": gate.problems,
    }
    if tracer is not None:
        metrics, shares = per_layer_metrics(tracer, plain_walls, traced_walls, noise)
        record["pass_share"] = {k: v for k, v in shares.items() if v > 0}
        trace_file = OUT / f"trace-{name}-{seed}.json"
        trace_file.write_text(json.dumps({"run": record, **tracer.dump(origin)}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        per_input = [statistics.median(times) for times in zip(*latencies)]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.fmean(plain_walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "verify_p50_ms": (percentile(per_input, 50) * 1000, "ms"),
            "verify_p99_ms": (percentile(per_input, 99) * 1000, "ms"),
        }
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ospcheck" / "__init__.py").is_file():
        print(f"perfbench: no ospcheck library under {SRC}", file=sys.stderr)
        return 2

    record, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# noise loop {record['noise_loop_s']:.4f} s (recorded only, never used to scale)")
    print(f"# passes {len(record['pass_wall_s'])} untraced, {len(record['traced_pass_wall_s'])} traced;"
          f" {record['verify_samples']} verify samples (inputs, each its median over the passes)")
    print(f"# failed_frac {record['failed_frac']} ({record['failed']} of {record['attempted']})")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    for name, share in sorted(record.get("pass_share", {}).items(), key=lambda kv: -kv[1]):
        print(f"# {name} self time is {share:.1%} of the traced pass")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
