"""The four benchmark workloads, each at a full and a smoke size.

A workload has a ``setup`` (imports excluded; those are timed by the
runner) that builds its inputs in serialized form, a ``setup_repeats``
count (how many times the runner times that set-up), and a ``run_pass`` that
goes from those serialized inputs to every verdict, checks each output
against its pin or a property that holds for any seed, and returns the
per-input latencies in seconds.  ``oc`` is the ``ospcheck`` package as
freshly imported by the runner.

Pins were taken from the unmodified library; a pin that no longer matches
is a failed operation, never a reason to edit the pin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction

from instances import random_bundle

TARGET = Fraction(2)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(got, want, what: str):
    return None if got == want else f"{what} is {got!r}, pinned {want!r}"


def _mu22(oc):
    return oc.AuctionSetting(kind="multi-unit", n=2, m=2)


def bare_mu_domain(oc):
    return oc.adversarial_domain(_mu22(oc), "mu-single-minded")


def reduced_mu_domain(oc):
    """The bare fixture with the second player pinned to its low valuation."""
    dom = bare_mu_domain(oc)
    return oc.Domain(setting=dom.setting, players=(dom.players[0], (dom.players[1][0],)))


def augmented_mu_domain(oc):
    """The bare fixture plus the square-value grand-bundle valuation."""
    dom = bare_mu_domain(oc)
    k = max(dom.setting.m, dom.setting.n)
    square = oc.SingleMindedMU(quantity=dom.setting.m, value=Fraction(k**2))
    return oc.Domain(
        setting=dom.setting,
        players=tuple(vs + (square,) if len(vs) > 1 else vs for vs in dom.players),
    )


def replay_witness(oc, bundle, verdict):
    """Replay a failing verdict's witness through ``run``; return a problem or None."""
    w = verdict.witness
    tree = bundle.tree
    leaf_id, path = oc.run(tree, w.behaviors)
    if leaf_id != w.leaf:
        return f"{verdict.prop} witness reaches {leaf_id}, claims {w.leaf}"
    leaf = tree.nodes[leaf_id]
    if verdict.prop == "nnt":
        pay = leaf.payments[w.player]
        return None if pay < 0 and -pay == w.utility else "nnt witness payment mismatch"
    u = oc.utility(w.valuation, leaf.allocation[w.player], leaf.payments[w.player])
    if verdict.prop == "ir":
        return None if u < 0 and u == w.utility else "ir witness utility mismatch"
    if verdict.prop == "osp":
        alt = w.alt_behaviors
    else:  # dsic: the player alone deviates against the same opponents
        alt = w.behaviors[: w.player] + (w.alt_behaviors[w.player],) + w.behaviors[w.player + 1:]
    alt_id, alt_path = oc.run(tree, alt)
    alt_leaf = tree.nodes[alt_id]
    alt_u = oc.utility(w.valuation, alt_leaf.allocation[w.player], alt_leaf.payments[w.player])
    if alt_id != w.alt_leaf:
        return f"{verdict.prop} alternative reaches {alt_id}, claims {w.alt_leaf}"
    if w.vertex not in path or w.vertex not in alt_path:
        return f"{verdict.prop} witness paths miss vertex {w.vertex}"
    if not (u == w.utility < w.alt_utility == alt_u):
        return f"{verdict.prop} witness utilities do not replay to a strict gain"
    return None


def replay_worst_profile(oc, bundle, report):
    """Run the ratio's worst profile and return the welfare it realizes."""
    profile = report.worst_profile
    behaviors = tuple(bundle.strategies[i][v] for i, v in enumerate(profile))
    leaf_id, _ = oc.run(bundle.tree, behaviors)
    return oc.social_welfare(profile, bundle.tree.nodes[leaf_id].allocation)


def _replay_ratio(gate, oc, bundle, report):
    if report is None or report.worst_profile is None:
        return
    gate.op("model.run", replay_worst_profile, oc, bundle, report,
            check=lambda sw: _expect(sw, report.mechanism_welfare, "replayed worst-profile welfare"))
    gate.tracer.count("model.replays")


class Search:
    """One counterexample scan of a fixed domain and grid, target ratio 2."""

    setup_repeats = 25  # about 0.08 s each

    def __init__(self, audit_survivors, sizes):
        self.audit_survivors = audit_survivors
        self.sizes = sizes  # size -> (domain builder, grid, pins)

    def setup(self, oc, gate, seed, workdir, size):
        make_domain, grid, pins = self.sizes[size]
        t = gate.tracer
        domain = t.call("valuations.domain", make_domain, oc)
        text = t.call("serialize.write", oc.serialize.serialize_domain, domain)
        t.count("serialize.bytes", len(text))
        return {"oc": oc, "text": text, "grid": tuple(Fraction(g) for g in grid), "pins": pins}

    def _check_verdict(self, pins, verdict):
        got = {
            "outcome": verdict.outcome,
            "examined": verdict.examined,
            "survivors": verdict.survivors,
            "audit": verdict.audit,
        }
        want = {k: pins[k] for k in got}
        return _expect(got, want, "search verdict")

    def run_pass(self, st, gate):
        oc, pins = st["oc"], st["pins"]
        t = gate.tracer
        start = time.perf_counter()
        domain = gate.op("serialize.parse", oc.serialize.parse_domain, st["text"])
        t.count("serialize.bytes", len(st["text"]))

        def scan():
            space = oc.SearchSpace(domain=domain, payment_grid=st["grid"])
            return oc.falsify_impossibility(space, TARGET, audit_survivors=self.audit_survivors)

        verdict = gate.op("search.falsify", scan, check=lambda v: self._check_verdict(pins, v))
        if verdict is not None:
            t.count("search.examined", verdict.examined)
        bundle = verdict.counterexample if verdict is not None else None
        if pins["digest"] is not None:
            text = gate.op("serialize.write", oc.serialize.serialize_mechanism, bundle,
                           check=lambda s: _expect(_digest(s), pins["digest"], "counterexample digest"))
            t.count("serialize.bytes", len(text or ""))
            args = bundle.checker_args() if bundle is not None else ()
            for prop in ("osp", "ir", "nnt"):
                gate.op(f"checkers.{prop}", getattr(oc, f"check_{prop}"), *args,
                        check=lambda v: None if v.passed else "counterexample fails re-verification")
                t.count("checkers.calls")
            report = gate.op("checkers.ratio", oc.welfare_ratio, *args,
                             check=lambda r: None if r.ratio is not None and r.ratio < TARGET
                             else f"counterexample ratio {r.ratio} does not beat {TARGET}")
            t.count("checkers.calls")
            _replay_ratio(gate, oc, bundle, report)
        return [time.perf_counter() - start]


class Sweep:
    """Many small seeded random instances through every checker."""

    sizes = {"full": 1000, "smoke": 40}
    setup_repeats = 7  # about 0.7 s each

    def setup(self, oc, gate, seed, workdir, size):
        t = gate.tracer
        rng = random.Random(seed)
        texts = []
        for _ in range(self.sizes[size]):
            bundle = random_bundle(oc, rng)
            text = t.call("serialize.write", oc.serialize.serialize_mechanism, bundle)
            t.count("serialize.bytes", len(text))
            texts.append(text)
        return {"oc": oc, "texts": texts, "signatures": [None] * len(texts)}

    def run_pass(self, st, gate):
        oc = st["oc"]
        t = gate.tracer
        latencies = []
        for i, text in enumerate(st["texts"]):
            start = time.perf_counter()
            with t.span("bench.instance", group=i):
                self._instance(oc, gate, st, i, text)
            latencies.append(time.perf_counter() - start)
        return latencies

    def _instance(self, oc, gate, st, i, text):
        t = gate.tracer
        bundle = gate.op("serialize.parse", oc.serialize.parse_mechanism, text)
        gate.op("serialize.write", oc.serialize.serialize_mechanism, bundle,
                check=lambda s: None if s == text else "serialize-parse-serialize changed the bytes")
        t.count("serialize.bytes", 2 * len(text))
        args = bundle.checker_args() if bundle is not None else ()
        verdicts = {
            prop: gate.op(f"checkers.{prop}", getattr(oc, f"check_{prop}"), *args)
            for prop in ("osp", "dsic", "ir", "nnt")
        }
        report = gate.op("checkers.ratio", oc.welfare_ratio, *args)

        def consistent(bad):
            osp, dsic = verdicts["osp"], verdicts["dsic"]
            if osp is not None and osp.passed and not (dsic is not None and dsic.passed and not bad):
                return "OSP passes but DSIC fails or the bad-leaf scan is not empty"
            signature = (
                tuple(v.passed if v is not None else None for v in verdicts.values()),
                report.ratio if report is not None else None,
                len(bad),
            )
            if st["signatures"][i] is None:
                st["signatures"][i] = signature
            return _expect(signature, st["signatures"][i], "verdicts on a repeated pass")

        bad = gate.op("checkers.badgood", oc.scan_bad_leaf_good_leaf, *args, check=consistent)
        t.count("checkers.calls", 6)
        t.count("checkers.badgood_violations", len(bad or ()))
        for verdict in verdicts.values():
            if verdict is not None and not verdict.passed:
                t.count("checkers.failed_verdicts")
                gate.op("model.run", replay_witness, oc, bundle, verdict, check=lambda p: p)
                t.count("model.replays", 2 if verdict.prop in ("osp", "dsic") else 1)


def _posted_price(oc, m):
    return oc.serial_posted_price(1, 3, oc.AuctionSetting(kind="combinatorial", n=2, m=m))


def _adversarial_clock(oc, mu_domain):
    return oc.grand_bundle_ascending(mu_domain.setting, 16, domain=mu_domain)


def decisive_queries(oc, tree, prices=(1, 4, 16)):
    """Minimal price and decisiveness of every player for the grand bundle at
    every internal vertex."""
    setting = tree.setting
    bundle = setting.grand_bundle()
    out = []
    for nid in tree.internal_ids:
        for player in range(setting.n):
            out.append(oc.minimal_price(tree, nid, player, bundle))
            out.extend(oc.is_decisive(tree, nid, player, bundle, p) for p in prices)
    return out


class Reference:
    """The reference constructors at larger domains, plus the CLI in process."""

    setup_repeats = 15  # about 0.14 s each

    # name -> constructor(oc, bare MU22 fixture); every one passes OSP, DSIC,
    # IR and NNT with an empty bad-leaf scan, and is pinned on the outputs below
    sizes = {
        "full": {
            "posted-price-ca22": lambda oc, _: _posted_price(oc, 2),
            "ascending-k6-n3": lambda oc, _: oc.ascending_single_item(6, n=3),
            "grand-bundle-k12": lambda oc, _: oc.grand_bundle_ascending(_mu22(oc), 12),
            "grand-bundle-k16-adversarial": _adversarial_clock,
        },
        "smoke": {
            "posted-price-ca21": lambda oc, _: _posted_price(oc, 1),
            "ascending-k3-n2": lambda oc, _: oc.ascending_single_item(3, n=2),
            "grand-bundle-k4": lambda oc, _: oc.grand_bundle_ascending(_mu22(oc), 4),
            "grand-bundle-k16-adversarial": _adversarial_clock,
        },
    }
    _QUIT = (0, ("quit", "stay"))
    pins = {
        "posted-price-ca22": {"ratio": Fraction(1), "continue_or_quit": False,
                              "divergence": ("r1.p0.e0.0", 0, ("no", "yes"))},
        "posted-price-ca21": {"ratio": Fraction(1), "continue_or_quit": False,
                              "divergence": ("r1.p0.e0.0", 0, ("no", "yes"))},
        "ascending-k6-n3": {"ratio": Fraction(1), "continue_or_quit": True,
                            "divergence": ("p2.b0.3",) + _QUIT},
        "ascending-k3-n2": {"ratio": Fraction(1), "continue_or_quit": True,
                            "divergence": ("p2.b0.2",) + _QUIT},
        "grand-bundle-k12": {
            "ratio": Fraction(1), "continue_or_quit": True, "divergence": ("p2.b0.2",) + _QUIT,
            "decisive": "e14bfa797c5b47c38e4ad455c2bc8cdfc3eaaa44632700a96a062a4af87fcc63",
        },
        "grand-bundle-k4": {
            "ratio": Fraction(1), "continue_or_quit": True, "divergence": ("p2.b0.2",) + _QUIT,
            "decisive": "e02d4057840bb32fbad689cb598a0e0e4cf445dbdd7a70625041e534dd05bad4",
        },
        "grand-bundle-k16-adversarial": {
            "ratio": Fraction(2), "continue_or_quit": True, "divergence": ("p2.b0.2",) + _QUIT,
            "decisive": "aec78372d7c131065d3563e2bb16891365062803626ec529cc2fd46cbec4b413",
            "payment_bounds": (True, True),
        },
    }
    cli_files = ("serial_posted_price.json", "grand_bundle_ascending_mu.json")

    def setup(self, oc, gate, seed, workdir, size):
        t = gate.tracer
        mu_domain = t.call("valuations.domain", bare_mu_domain, oc)
        texts = {}
        for name, build in self.sizes[size].items():
            bundle = t.call("mechanisms.build", build, oc, mu_domain)
            texts[name] = t.call("serialize.write", oc.serialize.serialize_mechanism, bundle)
            t.count("serialize.bytes", len(texts[name]))
        out = workdir / "fixtures"
        self._cli(oc, gate, "cli.fixtures", ["fixtures", "--out", str(out)])
        return {"oc": oc, "texts": texts, "fixtures": out}

    @staticmethod
    def _cli(oc, gate, span, argv, field=None, want=None):
        """Run one ``ospcheck`` command in process, machine format, stdout captured."""

        def call():
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = oc.cli.main(argv + ["--format", "machine"])
            return code, captured.getvalue()

        def check(result):
            code, out = result
            if code != 0:
                return f"{argv[0]} exits {code}"
            if field is None:
                return None
            doc = json.loads(out)
            got = doc["status"] if field == "status" else doc["items"][0][field]
            return _expect(got, want, f"{argv[0]} report {field}")

        gate.op(span, call, check=check)

    def run_pass(self, st, gate):
        oc = st["oc"]
        latencies = []
        for name, text in st["texts"].items():
            start = time.perf_counter()
            with gate.tracer.span("bench.instance", group=name):
                self._mechanism(oc, gate, name, text)
            latencies.append(time.perf_counter() - start)
        self._cli_pass(oc, gate, st["fixtures"])
        return latencies

    def _mechanism(self, oc, gate, name, text):
        t = gate.tracer
        pins = self.pins[name]
        bundle = gate.op("serialize.parse", oc.serialize.parse_mechanism, text)
        gate.op("serialize.write", oc.serialize.serialize_mechanism, bundle,
                check=lambda s: None if s == text else "serialize-parse-serialize changed the bytes")
        t.count("serialize.bytes", 2 * len(text))
        args = bundle.checker_args() if bundle is not None else ()
        for prop in ("osp", "dsic", "ir", "nnt"):
            gate.op(f"checkers.{prop}", getattr(oc, f"check_{prop}"), *args,
                    check=lambda v: None if v.passed else f"{v.prop} fails")
        report = gate.op("checkers.ratio", oc.welfare_ratio, *args,
                         check=lambda r: _expect(r.ratio, pins["ratio"], "welfare ratio"))
        gate.op("checkers.badgood", oc.scan_bad_leaf_good_leaf, *args,
                check=lambda bad: _expect(len(bad), 0, "bad-leaf violations"))
        gate.op("checkers.divergence", oc.first_divergence, *args,
                check=lambda d: _expect((d.vertex, d.player, d.labels), pins["divergence"],
                                        "first divergence"))
        t.count("checkers.calls", 7)
        if "payment_bounds" in pins:
            gate.op("checkers.payment_bounds", oc.mu_payment_bounds, *args,
                    check=lambda r: _expect((r.winners_pay_at_most_one, r.all_units_within_square),
                                            pins["payment_bounds"], "payment bounds"))
            t.count("checkers.calls")
        tree = bundle.tree if bundle is not None else None
        gate.op("structure.audit", oc.audit_ascending_structure, tree,
                check=lambda a: _expect(a.all_continue_or_quit, pins["continue_or_quit"],
                                        "continue-or-quit"))
        if "decisive" in pins:
            answers = gate.op("structure.decisive", decisive_queries, oc, tree,
                              check=lambda a: _expect(_digest(repr(a)), pins["decisive"],
                                                      "decisiveness answers"))
            t.count("structure.queries", len(answers or ()))
        _replay_ratio(gate, oc, bundle, report)

    def _cli_pass(self, oc, gate, fixtures):
        for fname in self.cli_files:
            self._cli(oc, gate, "cli.verify", ["verify", "--mechanism", str(fixtures / fname)],
                      "status", "pass")
        clock = str(fixtures / "grand_bundle_ascending_mu.json")
        self._cli(oc, gate, "cli.ratio", ["ratio", "--mechanism", clock], "ratio", "2/1")
        self._cli(oc, gate, "cli.analyze", ["analyze", "--mechanism", clock],
                  "all_continue_or_quit", True)


WORKLOADS = {
    "search-audit": Search(
        audit_survivors=True,
        sizes={
            "full": (bare_mu_domain, (0, 1, 5), {
                "outcome": "counterexample",
                "examined": 453135534,
                "survivors": 453135534,
                "audit": {
                    "applicable": True,
                    "survivors_checked": 453135534,
                    "low_profile_bound_failures": 0,
                    "square_bound_premise_met": 73372,
                    "square_bound_failures": 50440,
                },
                "digest": "44d0bde188507bf21e8ebb71ef6a93586cb7a81311b2d96c53518dbb5fcde82a",
            }),
            "smoke": (reduced_mu_domain, (0, 1), {
                "outcome": "counterexample",
                "examined": 1701,
                "survivors": 1701,
                "audit": {
                    "applicable": True,
                    "survivors_checked": 1701,
                    "low_profile_bound_failures": 0,
                    "square_bound_premise_met": 98,
                    "square_bound_failures": 0,
                },
                "digest": "eefd6e5f748b7781a037670f603d1084ad30b44a4a097574efa152ceb9e0ba7b",
            }),
        },
    ),
    "search-refute": Search(
        audit_survivors=False,
        sizes={
            size: (augmented_mu_domain, grid, {
                "outcome": "no-counterexample",
                "examined": 0,
                "survivors": 0,
                "audit": {
                    "applicable": False,
                    "survivors_checked": 0,
                    "low_profile_bound_failures": 0,
                    "square_bound_premise_met": 0,
                    "square_bound_failures": 0,
                },
                "digest": None,
            })
            for size, grid in (("full", (0, 1, 5)), ("smoke", (0, 1)))
        },
    ),
    "check-sweep": Sweep(),
    "check-reference": Reference(),
}
