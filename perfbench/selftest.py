"""Self-test of the benchmark harness, at smoke size (about half a minute).

    python3 perfbench/selftest.py

1. Runs every workload at smoke size, untraced and traced, and requires
   zero failed operations and every metric present.
2. Alters one pinned expectation (or, for ``check-sweep``, one input) per
   workload and requires the gate to count failed operations.
3. Runs the benchmark command in a directory holding only
   ``BENCHMARK.json`` and ``perfbench/`` and requires a nonzero exit code
   and no result line.

Exits 0 when every step holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import run as runner
from workloads import WORKLOADS

SMOKE_SECONDS = 0.3


def metric_names(kind: str) -> set:
    spec = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@contextmanager
def altered(target: dict, key, value):
    saved = target[key]
    target[key] = value
    try:
        yield
    finally:
        target[key] = saved


@contextmanager
def corrupted_sweep_input():
    sweep = WORKLOADS["check-sweep"]
    original = sweep.setup

    def setup(*args):
        state = original(*args)
        state["texts"][0] = state["texts"][0].replace("\n", "\n ", 1)
        return state

    sweep.setup = setup
    try:
        yield
    finally:
        del sweep.setup


def smoke_run(name: str, traced: bool = False):
    return runner.run(name, seed=3, seconds=SMOKE_SECONDS, traced=traced, size="smoke")


def main() -> int:
    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {what}")

    for name in WORKLOADS:
        for traced in (False, True):
            record, metrics = smoke_run(name, traced)
            want = metric_names("per_layer" if traced else "end_to_end")
            report(
                record["failed"] == 0 and set(metrics) == want,
                f"{name} smoke, trace={int(traced)}: {record['failed']} of "
                f"{record['attempted']} operations failed, {len(metrics)} metrics",
            )

    audit_pins = WORKLOADS["search-audit"].sizes["smoke"][2]
    refute_pins = WORKLOADS["search-refute"].sizes["smoke"][2]
    clock_pins = WORKLOADS["check-reference"].pins["grand-bundle-k16-adversarial"]
    trips = [
        ("search-audit", "examined count + 1", altered(audit_pins, "examined", 1702)),
        ("search-refute", "outcome", altered(refute_pins, "outcome", "counterexample")),
        ("check-reference", "clock ratio 2 -> 3/2", altered(clock_pins, "ratio", Fraction(3, 2))),
        ("check-sweep", "one serialized input re-indented", corrupted_sweep_input()),
    ]
    for name, change, context in trips:
        with context:
            record, _ = smoke_run(name)
        report(record["failed"] > 0, f"{name} gate trips on altered {change}: "
                                     f"{record['failed']} failed, first: {record['problems'][0][:100]}")

    runner.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runner.OUT) as bare:
        shutil.copy(runner.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(runner.ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    report(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without the library the command exits {proc.returncode} and prints no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
