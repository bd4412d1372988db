"""Spans, counts and the output gate of the benchmark.

Every call the benchmark makes into ``ospcheck`` goes through ``Gate.op``
(or, in set-up, ``Tracer.call``).  With tracing off the tracer is
``NULL_TRACER`` and a call costs one extra Python frame; with tracing on
each call becomes a span ``[name, start, end, parent, group, phase]`` kept
in memory until the run ends.  A span name is ``<layer>.<operation>``,
where the layer is the ``ospcheck`` module called.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, GROUP, PHASE = range(6)


class NullTracer:
    """Tracing off: calls go straight through, counts are dropped."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, group=None):
        return nullcontext()

    def count(self, name, amount=1):
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans and counts, grouped into phases (one set-up or one pass)."""

    def __init__(self):
        self.spans: list = []
        self.phases: list = []  # [kind, start, end]
        self.counts: list = []  # one Counter per phase
        self._stack: list = []

    def phase(self, kind):
        self.phases.append([kind, time.perf_counter(), None])
        self.counts.append(Counter())

    def close(self):
        self.phases[-1][2] = time.perf_counter()

    def _open(self, name, group):
        parent = self._stack[-1] if self._stack else None
        if group is None and parent is not None:
            group = self.spans[parent][GROUP]
        rec = [name, 0.0, 0.0, parent, group, len(self.phases) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name, None)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name, group=None):
        rec = self._open(name, group)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[-1][name] += amount

    # -- summaries -------------------------------------------------------

    def phase_summaries(self) -> list:
        """Per phase: kind, wall, self time and span count per span name,
        counts, and the time no span covers."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out = [
            {
                "kind": kind,
                "wall": end - start,
                "self": defaultdict(float),
                "calls": Counter(),
                "covered": 0.0,
                "counts": self.counts[i],
            }
            for i, (kind, start, end) in enumerate(self.phases)
        ]
        for idx, rec in enumerate(self.spans):
            summary = out[rec[PHASE]]
            duration = rec[END] - rec[START]
            summary["self"][rec[NAME]] += duration - child_time[idx]
            summary["calls"][rec[NAME]] += 1
            if rec[PARENT] is None:
                summary["covered"] += duration
        for summary in out:
            summary["uncovered"] = summary["wall"] - summary["covered"]
        return out

    def dump(self, origin: float) -> dict:
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "group", "phase"],
            "phases": [[k, s - origin, e - origin] for k, s, e in self.phases],
            "spans": [
                [i, r[NAME], r[START] - origin, r[END] - origin, r[PARENT], r[GROUP], r[PHASE]]
                for i, r in enumerate(self.spans)
            ],
        }


class Gate:
    """Counts operations and the ones that failed.

    An operation fails if it raises or if ``check`` (given its result)
    returns a problem description.  A failed operation returns ``None``
    when it raised, so dependent operations fail too and are counted.
    """

    def __init__(self):
        self.tracer = NULL_TRACER
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def op(self, name, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            out = self.tracer.call(name, fn, *args, **kwargs)
        except Exception as exc:  # a failing operation is a measured outcome
            self._fail(name, f"raised {exc!r}")
            return None
        try:
            problem = check(out) if check is not None else None
        except Exception as exc:  # an unreadable output differs from its pin
            problem = f"output check raised {exc!r}"
        if problem:
            self._fail(name, problem)
        return out

    def _fail(self, name, problem):
        self.failed += 1
        line = f"{name}: {problem}"
        if len(self.problems) < 20 and line not in self.problems:
            self.problems.append(line)
