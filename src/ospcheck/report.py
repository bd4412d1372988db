"""Report documents: one structure, JSON and plain-text renderings."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .checkers import RatioReport, Verdict, Witness
from .structure import AscendingAudit
from .serialize import bundle_to_json_doc, frac_str, valuation_to_json


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "tag") and hasattr(obj, "evaluate"):
        return valuation_to_json(obj)
    if isinstance(obj, Witness):
        out = {}
        for name in (
            "player", "vertex", "valuation", "profile", "alt_profile",
            "leaf", "alt_leaf", "utility", "alt_utility", "note",
        ):
            value = getattr(obj, name)
            if value is not None and value != "":
                out[name] = _jsonable(value)
        return out
    raise TypeError(f"no report encoding for {type(obj).__name__}")


def verdict_item(v: Verdict) -> dict:
    item = {"kind": "verdict", "property": v.prop, "pass": v.passed}
    if v.witness is not None:
        item["witness"] = _jsonable(v.witness)
    return item


def ratio_item(r: RatioReport) -> dict:
    return {
        "kind": "ratio",
        "ratio": "unbounded" if r.unbounded else frac_str(r.ratio),
        "worst_profile": _jsonable(r.worst_profile),
        "mechanism_welfare": _jsonable(r.mechanism_welfare),
        "opt_welfare": _jsonable(r.optimum),
    }


def audit_item(a: AscendingAudit) -> dict:
    return {
        "kind": "structure-audit",
        "all_continue_or_quit": a.all_continue_or_quit,
        "vertices": [
            {
                "vertex": c.vertex,
                "continue_or_quit": c.continue_or_quit,
                "continue_message": c.continue_message,
                "winning_message_count": c.winning_message_count,
            }
            for c in a.classifications
        ],
    }


def search_item(verdict) -> dict:
    item = {
        "kind": "search",
        "outcome": verdict.outcome,
        "examined": verdict.examined,
        "survivors": verdict.survivors,
        "elapsed_seconds": round(verdict.elapsed, 3),
        "class": verdict.class_description,
        "caveat": verdict.caveat,
        "audit": _jsonable(verdict.audit),
        "progress": verdict.progress,
    }
    if verdict.counterexample is not None:
        item["counterexample"] = bundle_to_json_doc(verdict.counterexample)
    return item


@dataclass
class ReportDocument:
    """Machine- and human-readable account of one tool invocation."""

    command: str
    inputs: list = field(default_factory=list)
    items: list = field(default_factory=list)

    def add_input(self, path: str, data: bytes) -> None:
        self.inputs.append({"path": str(path), "sha256": hashlib.sha256(data).hexdigest()})

    def add(self, item: dict) -> None:
        self.items.append(item)

    @property
    def ok(self) -> bool:
        for item in self.items:
            if item.get("kind") == "verdict" and not item["pass"]:
                return False
            if item.get("kind") == "search" and item["outcome"] != "no-counterexample":
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "tool": "ospcheck",
            "tool_version": __version__,
            "command": self.command,
            "inputs": self.inputs,
            "items": self.items,
            "status": "pass" if self.ok else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"ospcheck {__version__} :: {self.command}"]
        for entry in self.inputs:
            lines.append(f"  input {entry['path']}  sha256={entry['sha256'][:16]}...")
        for item in self.items:
            kind = item.get("kind")
            if kind == "verdict":
                mark = "PASS" if item["pass"] else "FAIL"
                lines.append(f"[{mark}] {item['property']}")
                if not item["pass"]:
                    wit = item.get("witness", {})
                    brief = ", ".join(
                        f"{k}={wit[k]}" for k in ("player", "vertex", "leaf", "alt_leaf") if k in wit
                    )
                    lines.append(f"       witness: {brief}")
                    if wit.get("note"):
                        lines.append(f"       {wit['note']}")
            elif kind == "ratio":
                lines.append(f"[INFO] welfare ratio = {item['ratio']}")
                lines.append(f"       worst profile welfare {item['mechanism_welfare']} vs OPT {item['opt_welfare']}")
            elif kind == "structure-audit":
                mark = "yes" if item["all_continue_or_quit"] else "no"
                lines.append(f"[INFO] all vertices continue-or-quit: {mark}")
                for row in item["vertices"]:
                    cm = row["continue_message"]
                    lines.append(
                        f"       {row['vertex']}: winning messages {row['winning_message_count']}"
                        + (f", continue={cm!r}" if cm is not None else "")
                    )
            elif kind == "search":
                lines.append(f"[{'PASS' if item['outcome'] == 'no-counterexample' else 'NOTE'}] search outcome: {item['outcome']}")
                lines.append(f"       {item['survivors']} survivors, {item['elapsed_seconds']}s")
                if item["outcome"] == "budget-exhausted":
                    progress = item["progress"]
                    lines.append(
                        f"       budget ran out after {progress['positions_done']} positions,"
                        f" {progress['join_steps']} join steps"
                    )
                lines.append(f"       class: {item['class']}")
                lines.append(f"       caveat: {item['caveat']}")
            else:
                lines.append(f"[INFO] {json.dumps(item)}")
        lines.append(f"status: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"
