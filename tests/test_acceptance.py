"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to watch
them live).  Two assertions are knowingly red: over the bare three-valuation
multi-unit fixture the welfare-ratio impossibility does not hold (criterion
6, first half) and neither does the square payment bound (criterion 7,
second half); a mechanism that charges the all-units winner exactly the
square threshold plus one evades both, which the exhaustive scan, the
property checkers, and the definitional oracles all confirm.  Augmenting
the fixture with the square-value grand-bundle valuation restores the
impossibility; the supplementary test at the bottom verifies that run.
"""

import hashlib
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ospcheck import (
    AuctionSetting,
    Behavior,
    Domain,
    SingleMindedMU,
    adversarial_domain,
    check_dsic,
    check_ir,
    check_nnt,
    check_osp,
    grand_bundle_ascending,
    opt_welfare,
    run,
    scan_bad_leaf_good_leaf,
    serial_posted_price,
    welfare_ratio,
)
from ospcheck.checkers import utility
from ospcheck.search import SearchSpace, default_payment_grid, falsify_impossibility
from ospcheck.serialize import parse_mechanism
from ospcheck.structure import audit_ascending_structure, is_decisive, minimal_price

from helpers import oracle_decisive, oracle_scan, random_instance

FIXTURES = Path(__file__).parent / "fixtures"
MU22 = AuctionSetting(kind="multi-unit", n=2, m=2)
CA22 = AuctionSetting(kind="combinatorial", n=2, m=2)


def announce(criterion: str, ok: bool, elapsed: float, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {criterion} ({elapsed:.2f}s): {detail}")


def test_criterion_1_figure_fidelity():
    t0 = time.monotonic()
    bundle = parse_mechanism((FIXTURES / "fig1_second_price.json").read_bytes())
    profile = (
        Behavior(owner=0, choices={"N1": "2"}),
        Behavior(owner=1, choices={"N2": "2", "N3": "1"}),
    )
    leaf, path = run(bundle.tree, profile)
    ok = leaf == "L3" and path == ["N1", "N3", "L3"]
    # the four truthful profiles: responder (jacket role) wins every tie
    expected_winner = {(1, 1): 1, (1, 2): 1, (2, 1): 0, (2, 2): 1}
    for (a, b), winner in expected_winner.items():
        va = bundle.domain.players[0][a - 1]
        vb = bundle.domain.players[1][b - 1]
        leaf_id, _ = run(
            bundle.tree, (bundle.strategies[0][va], bundle.strategies[1][vb])
        )
        got = bundle.tree.nodes[leaf_id].allocation
        ok = ok and got[winner] == frozenset({0})
    elapsed = time.monotonic() - t0
    announce("1", ok and elapsed < 1, elapsed, f"figure run path {path}, winners as captioned")
    assert ok
    assert elapsed < 1


def test_criterion_2_posted_price_welfare():
    t0 = time.monotonic()
    bundle = serial_posted_price(1, 3, CA22)
    verdicts = {
        name: chk(*bundle.checker_args()).passed
        for name, chk in (("osp", check_osp), ("ir", check_ir), ("nnt", check_nnt))
    }
    report = welfare_ratio(*bundle.checker_args())
    profiles = bundle.domain.size()
    ok = all(verdicts.values()) and report.ratio == 1 and profiles == 81
    elapsed = time.monotonic() - t0
    announce("2", ok and elapsed < 10, elapsed,
             f"posted price: {verdicts}, ratio {report.ratio} over {profiles} profiles")
    assert ok
    assert elapsed < 10


def test_criterion_3_grand_bundle_tightness():
    t0 = time.monotonic()
    domain = adversarial_domain(MU22, "mu-single-minded")
    assert [v.value for v in domain.players[0]] == [1, 5, 16]
    bundle = grand_bundle_ascending(MU22, 16, domain=domain)
    verdicts = [chk(*bundle.checker_args()).passed for chk in (check_osp, check_ir, check_nnt)]
    report = welfare_ratio(*bundle.checker_args())
    one = SingleMindedMU(quantity=1, value=Fraction(1))
    ok = (
        all(verdicts)
        and report.ratio == Fraction(2)
        and report.worst_profile == (one, one)
        and Fraction(2) == Fraction(min(MU22.m, MU22.n))
    )
    elapsed = time.monotonic() - t0
    announce("3", ok and elapsed < 10, elapsed,
             f"grand bundle ratio {report.ratio} = min(m,n), worst profile all-low")
    assert ok
    assert elapsed < 10


@pytest.fixture(scope="module")
def random_instances():
    rng = random.Random(20240613)
    return [random_instance(rng, max_depth=3, max_domain=3) for _ in range(1000)]


def test_criterion_4_equivalence_of_verdicts(random_instances):
    t0 = time.monotonic()
    agree = 0
    for bundle in random_instances:
        osp = check_osp(*bundle.checker_args()).passed
        dsic = check_dsic(*bundle.checker_args()).passed
        agree += osp == dsic
    ok = agree == len(random_instances)
    elapsed = time.monotonic() - t0
    announce("4", ok and elapsed < 300, elapsed,
             f"obvious-dominance and dominance verdicts agree on {agree}/{len(random_instances)} instances")
    assert ok
    assert elapsed < 300


def test_criterion_5_same_message_scan_consistency(random_instances):
    t0 = time.monotonic()
    checked_empty = 0
    replayed = 0
    for bundle in random_instances:
        verdict = check_osp(*bundle.checker_args())
        if verdict.passed:
            assert scan_bad_leaf_good_leaf(*bundle.checker_args()) == []
            checked_empty += 1
        else:
            w = verdict.witness
            tree = bundle.tree
            leaf1, path1 = run(tree, w.behaviors)
            leaf2, path2 = run(tree, w.alt_behaviors)
            assert leaf1 == w.leaf and leaf2 == w.alt_leaf
            assert w.vertex in path1 and w.vertex in path2
            assert (
                w.behaviors[w.player].choices[w.vertex]
                != w.alt_behaviors[w.player].choices[w.vertex]
            )
            l1, l2 = tree.nodes[leaf1], tree.nodes[leaf2]
            u1 = utility(w.valuation, l1.allocation[w.player], l1.payments[w.player])
            u2 = utility(w.valuation, l2.allocation[w.player], l2.payments[w.player])
            assert u1 < u2
            replayed += 1
    elapsed = time.monotonic() - t0
    announce("5", True, elapsed,
             f"{checked_empty} passing instances scan empty, {replayed} witnesses replay to real gaps")


@pytest.fixture(scope="module")
def literal_scan():
    """The headline scan: bare adversarial fixture, default grid, target 2."""
    domain = adversarial_domain(MU22, "mu-single-minded")
    space = SearchSpace(domain=domain, payment_grid=default_payment_grid(MU22))
    return falsify_impossibility(space, Fraction(2), budget_seconds=1800)


def test_criterion_6_impossibility_at_target_two(literal_scan):
    verdict = literal_scan
    ok = verdict.outcome == "no-counterexample"
    announce("6 (target 2)", ok, verdict.elapsed,
             f"outcome {verdict.outcome} after {verdict.examined} survivors")
    assert ok, (
        "the three-valuation multi-unit fixture admits obviously "
        "strategy-proof, individually rational, no-transfer mechanisms with "
        "welfare ratio 1: charging the all-units winner exactly the square "
        "threshold plus one (5 when k=2) leaves the mid-value bidder nothing "
        "to envy, so the same-message machinery never binds; the payment "
        "bound argument pins that payment below the square threshold only via the "
        "auxiliary square-value valuation, which this fixture lacks.  See "
        "test_augmented_fixture_restores_impossibility for the repaired run."
    )


def test_criterion_6_epsilon_counterexample_reverifies():
    t0 = time.monotonic()
    domain = adversarial_domain(MU22, "mu-single-minded")
    space = SearchSpace(domain=domain, payment_grid=default_payment_grid(MU22))
    verdict = falsify_impossibility(
        space, Fraction(2) + Fraction(1, 1000), budget_seconds=1800, audit_survivors=False
    )
    ok = verdict.outcome == "counterexample"
    bundle = verdict.counterexample
    checks = ok and all(
        chk(*bundle.checker_args()).passed for chk in (check_osp, check_ir, check_nnt)
    )
    report = welfare_ratio(*bundle.checker_args())
    ok = checks and not report.unbounded and report.ratio < Fraction(2) + Fraction(1, 1000)
    elapsed = time.monotonic() - t0
    announce("6 (target 2+1/1000)", ok, elapsed,
             f"counterexample found, re-verified at ratio {report.ratio}")
    assert ok


def test_criterion_6_pruning_agreement():
    t0 = time.monotonic()
    domain = adversarial_domain(MU22, "mu-single-minded")
    reduced = Domain(setting=MU22, players=(domain.players[0], (domain.players[1][0],)))
    space = SearchSpace(domain=reduced, payment_grid=(Fraction(0), Fraction(1)))
    on = falsify_impossibility(space, Fraction(2))
    off = oracle_scan(space, Fraction(2), stop_at_first=True)
    ok = on.outcome == off.outcome
    if on.counterexample is not None:
        from ospcheck.serialize import serialize_mechanism

        ok = ok and serialize_mechanism(on.counterexample) == serialize_mechanism(
            off.counterexample
        )
    elapsed = time.monotonic() - t0
    announce("6 (pruning on/off)", ok, elapsed,
             f"reduced {{0,1}}-grid sub-run agrees: both {on.outcome}")
    assert ok


def test_literal_scan_headline_totals(literal_scan):
    """The m = n = 2 totals and first counterexample, pinned byte for byte."""
    from ospcheck.serialize import serialize_mechanism

    audit = literal_scan.audit
    assert literal_scan.survivors == 40_653_539_908
    assert audit["square_bound_premise_met"] == 3_832_024
    assert audit["square_bound_failures"] == 2_498_868
    assert audit["low_profile_bound_failures"] == 0
    digest = hashlib.sha256(
        serialize_mechanism(literal_scan.counterexample).encode("utf-8")
    ).hexdigest()
    assert digest == "44d0bde188507bf21e8ebb71ef6a93586cb7a81311b2d96c53518dbb5fcde82a"


def test_literal_scan_progress(literal_scan):
    """How far the headline scan went: one memo position per reachable
    tuple of the players' consistent sets, and its leaves and join steps."""
    assert literal_scan.progress == {"positions_done": 49, "join_steps": 3_338_775}


def test_criterion_7_low_profile_payment_bound(literal_scan):
    audit = literal_scan.audit
    ok = (
        audit["applicable"]
        and audit["survivors_checked"] > 0
        and audit["low_profile_bound_failures"] == 0
    )
    announce("7 (winners pay at most 1)", ok, literal_scan.elapsed,
             f"{audit['survivors_checked']} survivors audited, "
             f"{audit['low_profile_bound_failures']} failures")
    assert ok


def test_criterion_7_square_payment_bound(literal_scan):
    audit = literal_scan.audit
    ok = audit["square_bound_failures"] == 0
    announce("7 (all-units winner pays at most k^2)", ok, literal_scan.elapsed,
             f"{audit['square_bound_premise_met']} ratio-beating survivors, "
             f"{audit['square_bound_failures']} exceed the square bound")
    assert ok, (
        "survivors beating ratio min(m, n) over the bare three-valuation "
        "fixture may charge the all-units winner up to the square threshold "
        "plus one; the bound needs the auxiliary square-value valuation in "
        "the domain (see test_augmented_fixture_restores_impossibility)"
    )


def test_criterion_8_structure_analysis():
    t0 = time.monotonic()
    domain = adversarial_domain(MU22, "mu-single-minded")
    audit = audit_ascending_structure(grand_bundle_ascending(MU22, 16, domain=domain).tree)
    ok = audit.all_continue_or_quit

    rng = random.Random(4242)
    from helpers import random_setting, random_tree_spec
    from ospcheck import build_tree

    queries = 0
    while queries < 500:
        setting = random_setting(rng)
        tree = build_tree(random_tree_spec(rng, setting, 3), setting)
        if len(tree.internal_ids) > 9:
            continue
        nid = rng.choice(tree.preorder)
        player = rng.randrange(setting.n)
        if setting.is_combinatorial:
            bundle = frozenset(j for j in range(setting.m) if rng.random() < 0.5)
            smaller = [frozenset(s) for s in [set()] + [{j} for j in bundle]]
        else:
            bundle = rng.randint(0, setting.m)
            smaller = list(range(bundle + 1))
        price = rng.choice([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(3)])
        queries += 1
        decided = is_decisive(tree, nid, player, bundle, price)
        ok = ok and decided == oracle_decisive(tree, nid, player, bundle, price)
        if decided:
            # price monotone and bundle monotone
            ok = ok and is_decisive(tree, nid, player, bundle, price + 1)
            ok = ok and all(is_decisive(tree, nid, player, s, price) for s in smaller)
            mp = minimal_price(tree, nid, player, bundle)
            ok = ok and mp is not None and mp <= price
    elapsed = time.monotonic() - t0
    announce("8", ok and elapsed < 60, elapsed,
             f"clock auction all continue-or-quit; {queries} decisiveness queries match the oracle")
    assert ok
    assert elapsed < 60


def test_criterion_9_additive_unit_demand_fixtures():
    t0 = time.monotonic()
    add = adversarial_domain(CA22, "additive")
    ud = adversarial_domain(CA22, "unit-demand")
    ok = (
        add.players[0][3].values == (10, 8)
        and add.players[0][1].values == (48, 0)
        and add.players[1][3].values == (8, 10)
        and [v.values for v in ud.players[0]] == [v.values for v in add.players[0]]
    )
    for profile in add.profiles():
        w, _ = opt_welfare(profile, CA22)
        closed = sum(max(v.values[j] for v in profile) for j in range(CA22.m))
        ok = ok and w == closed
    elapsed = time.monotonic() - t0
    announce("9", ok and elapsed < 1, elapsed,
             "fixture values exact; optimum equals the per-item maximum on all profiles")
    assert ok
    assert elapsed < 1


def test_supplementary_scan_mode_consistency(literal_scan):
    """The counterexample-only aggregation must count exactly the survivors
    the full scan flags as beating the ratio, and both must surface the
    same first counterexample."""
    t0 = time.monotonic()
    domain = adversarial_domain(MU22, "mu-single-minded")
    space = SearchSpace(domain=domain, payment_grid=default_payment_grid(MU22))
    fast = falsify_impossibility(space, Fraction(2), audit_survivors=False)
    ok = (
        fast.outcome == literal_scan.outcome
        and fast.examined == literal_scan.audit["square_bound_premise_met"]
    )
    from ospcheck.serialize import serialize_mechanism

    ok = ok and serialize_mechanism(fast.counterexample) == serialize_mechanism(
        literal_scan.counterexample
    )
    elapsed = time.monotonic() - t0
    announce("supplementary (scan modes)", ok, elapsed,
             f"counterexample-only mode counts {fast.examined} ratio-beating survivors, "
             "matching the full audit")
    assert ok


def test_augmented_fixture_restores_impossibility():
    """Supplementary: adding the square-value grand-bundle valuation (the
    one the payment-bound argument introduces) makes the target-2 scan
    exhaust with no counterexample, the desk-scale impossibility."""
    t0 = time.monotonic()
    domain = adversarial_domain(MU22, "mu-single-minded")
    k = max(MU22.m, MU22.n)
    square = SingleMindedMU(quantity=MU22.m, value=Fraction(k**2))
    augmented = Domain(
        setting=MU22,
        players=tuple(
            vs + (square,) if len(vs) > 1 else vs for vs in domain.players
        ),
    )
    grid = (Fraction(0), Fraction(1), Fraction(4), Fraction(5), Fraction(16))
    space = SearchSpace(domain=augmented, payment_grid=grid)
    verdict = falsify_impossibility(
        space, Fraction(2), budget_seconds=1800, audit_survivors=False
    )
    ok = verdict.outcome == "no-counterexample"
    elapsed = time.monotonic() - t0
    announce("supplementary (augmented fixture)", ok, elapsed,
             f"outcome {verdict.outcome}: no mechanism in the class beats min(m,n)")
    assert ok


@pytest.mark.parametrize(
    "family, examined, digest, ratio",
    [
        ("additive", 150_320_604_432,
         "c3b4a4defd9c771ca4e3df511464282403a5c4caeb02740dc10d0d435ca55ea1", Fraction(18, 11)),
        ("unit-demand", 320_061_291_128,
         "f2feab7b937bd45ac849146b9be3cdba105b2266d82b85819b991e82ac3141f5", Fraction(1)),
        ("ca-single-minded", 0, None, None),
    ],
    ids=["additive", "unit-demand", "ca-single-minded"],
)
def test_combinatorial_fixture_refute_scan(family, examined, digest, ratio):
    """Supplementary: the target-2 refute scan over the two-item, two-bidder
    fixture of each combinatorial family, on grid {0, 1}.  The additive and
    unit-demand fixtures admit an OSP, IR and NNT mechanism beating ratio 2
    (charging nothing, each bidder winning at most one item); the
    single-minded one admits none on this grid."""
    from ospcheck.serialize import serialize_mechanism

    t0 = time.monotonic()
    domain = adversarial_domain(CA22, family)
    space = SearchSpace(domain=domain, payment_grid=(Fraction(0), Fraction(1)))
    verdict = falsify_impossibility(space, Fraction(2), budget_seconds=600, audit_survivors=False)
    assert verdict.examined == examined
    if digest is None:
        assert verdict.outcome == "no-counterexample"
        detail = "no mechanism in the class beats min(m,n)"
    else:
        assert verdict.outcome == "counterexample"
        bundle = verdict.counterexample
        text = serialize_mechanism(bundle)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        for chk in (check_osp, check_ir, check_nnt):
            assert chk(*bundle.checker_args()).passed
        report = welfare_ratio(*bundle.checker_args())
        assert not report.unbounded and report.ratio == ratio
        detail = f"counterexample re-verified at ratio {report.ratio}"
    announce(f"supplementary ({family} fixture)", True, time.monotonic() - t0, detail)
