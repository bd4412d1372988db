"""Property checkers against hand computations and brute-force oracles."""

import hashlib
import random
from fractions import Fraction

import pytest

from ospcheck import (
    AdditiveValuation,
    AuctionSetting,
    Behavior,
    Domain,
    GeneralMU,
    MechanismBundle,
    SingleMindedMU,
    adversarial_domain,
    build_tree,
    check_dsic,
    check_ir,
    check_nnt,
    check_osp,
    evaluate,
    first_divergence,
    grand_bundle_ascending,
    mu_payment_bounds,
    opt_welfare,
    run,
    scan_bad_leaf_good_leaf,
    second_price_single_item,
    serial_posted_price,
    welfare_ratio,
)

from helpers import (
    leaf_utility,
    oracle_bad_leaf_good_leaf,
    oracle_dsic,
    oracle_osp,
    random_instance,
)

CA21 = AuctionSetting(kind="combinatorial", n=2, m=1)
MU22 = AuctionSetting(kind="multi-unit", n=2, m=2)


def first_price_bundle(K=2):
    """First speaker wins at a price equal to her own report; not obviously
    dominant: a high value prefers deviating to the cheapest report."""
    spec = {
        "id": "R",
        "speaker": 0,
        "edges": {
            str(a): {
                "allocation": [[0], []],
                "payments": [Fraction(a), Fraction(0)],
            }
            for a in range(1, K + 1)
        },
    }
    tree = build_tree(spec, CA21)
    vals = tuple(AdditiveValuation(values=(Fraction(t),)) for t in range(1, K + 1))
    domain = Domain(setting=CA21, players=(vals, vals))
    strategies = (
        {v: Behavior(owner=0, choices={"R": str(v.values[0])}) for v in vals},
        {v: Behavior(owner=1, choices={}) for v in vals},
    )
    return MechanismBundle(tree=tree, strategies=strategies, domain=domain)


def charging_loser_bundle():
    """Single leaf that gives player 0 nothing but charges 1."""
    spec = {"allocation": [[], []], "payments": [Fraction(1), Fraction(0)]}
    tree = build_tree(spec, CA21)
    v = AdditiveValuation(values=(Fraction(1),))
    domain = Domain(setting=CA21, players=((v,), (v,)))
    strategies = tuple({v: Behavior(owner=i, choices={})} for i in range(2))
    return MechanismBundle(tree=tree, strategies=strategies, domain=domain)


def test_ir_failure_witness():
    verdict = check_ir(*charging_loser_bundle().checker_args())
    assert not verdict.passed
    assert verdict.witness.player == 0
    assert verdict.witness.utility == -1


def test_ir_passes_reference_mechanisms():
    sp = serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2))
    assert check_ir(*sp.checker_args()).passed
    gb = grand_bundle_ascending(MU22, 16, domain=adversarial_domain(MU22, "mu-single-minded"))
    assert check_ir(*gb.checker_args()).passed


def test_nnt():
    spec = {"allocation": [[], []], "payments": [Fraction(-1), Fraction(0)]}
    tree = build_tree(spec, CA21)
    v = AdditiveValuation(values=(Fraction(1),))
    domain = Domain(setting=CA21, players=((v,), (v,)))
    strategies = tuple({v: Behavior(owner=i, choices={})} for i in range(2))
    bundle = MechanismBundle(tree=tree, strategies=strategies, domain=domain)
    verdict = check_nnt(*bundle.checker_args())
    assert not verdict.passed and verdict.witness.player == 0
    assert check_nnt(*charging_loser_bundle().checker_args()).passed


def test_osp_fig1_passes_and_first_price_fails():
    fig1 = second_price_single_item(2, tiebreak_winner=1)
    assert check_osp(*fig1.checker_args()).passed
    fp = first_price_bundle()
    verdict = check_osp(*fp.checker_args())
    assert not verdict.passed
    w = verdict.witness
    assert w.vertex == "R"
    assert evaluate(w.valuation, frozenset({0})) == 2
    assert w.utility == 0 and w.alt_utility == 1


def test_osp_witness_replays():
    fp = first_price_bundle()
    verdict = check_osp(*fp.checker_args())
    w = verdict.witness
    tree = fp.tree
    leaf1, path1 = run(tree, w.behaviors)
    leaf2, path2 = run(tree, w.alt_behaviors)
    assert leaf1 == w.leaf and leaf2 == w.alt_leaf
    assert w.vertex in path1 and w.vertex in path2
    assert w.behaviors[w.player].choices[w.vertex] != w.alt_behaviors[w.player].choices[w.vertex]
    assert leaf_utility(tree, leaf1, w.player, w.valuation) == w.utility
    assert leaf_utility(tree, leaf2, w.player, w.valuation) == w.alt_utility
    assert w.utility < w.alt_utility


def test_dsic_fig1_passes_and_first_price_fails():
    fig1 = second_price_single_item(2, tiebreak_winner=1)
    assert check_dsic(*fig1.checker_args()).passed
    verdict = check_dsic(*first_price_bundle().checker_args())
    assert not verdict.passed
    w = verdict.witness
    tree = first_price_bundle().tree
    # same fixed opponent behaviors, the alternative strictly wins
    leaf1, _ = run(tree, w.behaviors)
    profile = list(w.behaviors)
    profile[w.player] = w.alt_behaviors[w.player]
    leaf2, _ = run(tree, tuple(profile))
    assert leaf_utility(tree, leaf2, w.player, w.valuation) > leaf_utility(
        tree, leaf1, w.player, w.valuation
    )


def test_single_leaf_passes_everything():
    spec = {"allocation": [[], []], "payments": [Fraction(0), Fraction(0)]}
    tree = build_tree(spec, CA21)
    v = AdditiveValuation(values=(Fraction(1),))
    domain = Domain(setting=CA21, players=((v,), (v,)))
    strategies = tuple({v: Behavior(owner=i, choices={})} for i in range(2))
    bundle = MechanismBundle(tree=tree, strategies=strategies, domain=domain)
    for chk in (check_osp, check_dsic, check_ir, check_nnt):
        assert chk(*bundle.checker_args()).passed


def test_osp_and_dsic_against_definition_oracles():
    rng = random.Random(2024)
    done = 0
    while done < 12:
        bundle = random_instance(rng, max_depth=2, max_domain=2)
        if len(bundle.tree.nodes) > 8:
            continue
        done += 1
        assert check_osp(*bundle.checker_args()).passed == oracle_osp(bundle)
        assert check_dsic(*bundle.checker_args()).passed == oracle_dsic(bundle)


def test_osp_implies_dsic_on_randoms():
    rng = random.Random(99)
    for _ in range(150):
        bundle = random_instance(rng)
        if check_osp(*bundle.checker_args()).passed:
            assert check_dsic(*bundle.checker_args()).passed


def test_opt_welfare_additive_closed_form():
    setting = AuctionSetting(kind="combinatorial", n=3, m=3)
    rng = random.Random(5)
    for _ in range(20):
        profile = tuple(
            AdditiveValuation(values=tuple(Fraction(rng.randint(0, 9)) for _ in range(3)))
            for _ in range(3)
        )
        w, alloc = opt_welfare(profile, setting)
        closed = sum(max(v.values[j] for v in profile) for j in range(3))
        assert w == closed
        assert w == sum(evaluate(v, alloc[i]) for i, v in enumerate(profile))


def test_opt_welfare_mu_example():
    v_all = SingleMindedMU(quantity=2, value=Fraction(16))
    v_one = SingleMindedMU(quantity=1, value=Fraction(1))
    w, alloc = opt_welfare((v_all, v_one), MU22)
    assert w == 16
    assert alloc[0] == 2
    assert opt_welfare(
        (GeneralMU(values=(Fraction(0),) * 3), GeneralMU(values=(Fraction(0),) * 3)), MU22
    )[0] == 0


def test_welfare_ratio_conventions():
    # all-zero valuations: 0/0 counts as ratio 1
    spec = {"allocation": [[], []], "payments": [Fraction(0), Fraction(0)]}
    tree = build_tree(spec, CA21)
    zero = AdditiveValuation(values=(Fraction(0),))
    one = AdditiveValuation(values=(Fraction(1),))
    strategies = tuple(
        {zero: Behavior(owner=i, choices={}), one: Behavior(owner=i, choices={})}
        for i in range(2)
    )
    dom0 = Domain(setting=CA21, players=((zero,), (zero,)))
    r = welfare_ratio(tree, strategies, dom0)
    assert r.ratio == 1 and not r.unbounded
    dom1 = Domain(setting=CA21, players=((one,), (zero,)))
    r = welfare_ratio(tree, strategies, dom1)
    assert r.unbounded and r.worst_profile == (one, zero)


def test_welfare_ratio_reference_values():
    gb = grand_bundle_ascending(MU22, 16, domain=adversarial_domain(MU22, "mu-single-minded"))
    r = welfare_ratio(*gb.checker_args())
    assert r.ratio == Fraction(2)
    assert r.worst_profile == (
        SingleMindedMU(quantity=1, value=Fraction(1)),
        SingleMindedMU(quantity=1, value=Fraction(1)),
    )
    sp = serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2))
    assert welfare_ratio(*sp.checker_args()).ratio == 1
    single = grand_bundle_ascending(AuctionSetting(kind="combinatorial", n=1, m=2), 3)
    assert welfare_ratio(*single.checker_args()).ratio == 1


def test_scan_bad_leaf_good_leaf():
    fig1 = second_price_single_item(2, tiebreak_winner=1)
    assert scan_bad_leaf_good_leaf(*fig1.checker_args()) == []
    fp = first_price_bundle()
    violations = scan_bad_leaf_good_leaf(*fp.checker_args())
    assert violations
    osp_w = check_osp(*fp.checker_args()).witness
    assert any(v.vertex == osp_w.vertex and v.player == osp_w.player for v in violations)
    # singleton domains: no distinct valuations, nothing to scan
    v = AdditiveValuation(values=(Fraction(2),))
    singleton = Domain(setting=CA21, players=((v,), (v,)))
    strategies = (
        {v: fp.strategies[0][v]},
        {v: Behavior(owner=1, choices={})},
    )
    assert scan_bad_leaf_good_leaf(fp.tree, strategies, singleton) == []


def rotated_plans(bundle) -> MechanismBundle:
    """The bundle with each player's plans shifted by one valuation, so that
    a reference tree is followed by plans that are not obviously dominant."""
    strategies = tuple(
        {v: table[w] for v, w in zip(vs, vs[1:] + vs[:1])}
        for vs, table in zip(bundle.domain.players, bundle.strategies)
    )
    return MechanismBundle(tree=bundle.tree, strategies=strategies, domain=bundle.domain)


def test_scan_bad_leaf_good_leaf_matches_definition_oracle():
    rng = random.Random(31)
    bundles = [random_instance(rng) for _ in range(300)]
    references = [
        serial_posted_price(1, 3, CA21),
        serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2)),
        grand_bundle_ascending(MU22, 4),
        grand_bundle_ascending(MU22, 16, domain=adversarial_domain(MU22, "mu-single-minded")),
    ]
    bundles += [first_price_bundle(), first_price_bundle(K=4)]
    bundles += references + [rotated_plans(b) for b in references]
    found = 0
    for bundle in bundles:
        got = scan_bad_leaf_good_leaf(*bundle.checker_args())
        assert got == oracle_bad_leaf_good_leaf(*bundle.checker_args())
        found += len(got)
    assert all(scan_bad_leaf_good_leaf(*b.checker_args()) == [] for b in references)
    assert all(scan_bad_leaf_good_leaf(*rotated_plans(b).checker_args()) for b in references)
    assert found > 1000


def test_dsic_witnesses_pinned():
    """First DSIC witnesses on seeded random instances, byte for byte."""
    rng = random.Random(4242)
    digest = hashlib.sha256()
    failed = 0
    for _ in range(300):
        verdict = check_dsic(*random_instance(rng).checker_args())
        failed += not verdict.passed
        digest.update(repr(verdict).encode() + b"\n")
    assert failed == 161
    assert digest.hexdigest() == "2d1f0cf38876fc932787c5ef3d39d0fd7e4b47fe85099cb8e2fec80d120880c9"


def test_osp_witnesses_pinned():
    """First OSP witnesses on seeded random instances, byte for byte."""
    rng = random.Random(2424)
    digest = hashlib.sha256()
    failed = 0
    for _ in range(600):
        verdict = check_osp(*random_instance(rng).checker_args())
        failed += not verdict.passed
        digest.update(repr(verdict).encode() + b"\n")
    assert failed == 351
    assert digest.hexdigest() == "fb586aa629ac5a29d8916f3d2c1f528e0187c11889a29a2c1b8c60aeaa82f7cf"


def test_first_divergence():
    spec = {"allocation": [[], []], "payments": [Fraction(0), Fraction(0)]}
    leaf_tree = build_tree(spec, CA21)
    v = AdditiveValuation(values=(Fraction(1),))
    strategies = tuple({v: Behavior(owner=i, choices={})} for i in range(2))
    dom = Domain(setting=CA21, players=((v,), (v,)))
    assert first_divergence(leaf_tree, strategies, dom) is None

    fig1 = second_price_single_item(2, tiebreak_winner=1)
    div = first_divergence(fig1.tree, fig1.strategies, fig1.domain)
    assert div.vertex == "N1" and div.player == 0

    # restricting to the responder's two valuations diverges at her top node
    sub = Domain(setting=CA21, players=((fig1.domain.players[0][0],), fig1.domain.players[1]))
    div = first_divergence(fig1.tree, fig1.strategies, sub)
    assert div.player == 1 and div.vertex == "N2"


def test_first_divergence_reports_shallowest_vertex():
    # the responder also diverges at N2/N3, but the announcer already parts
    # ways at the root, which must win the breadth-first scan
    fig1 = second_price_single_item(2, tiebreak_winner=1)
    sub = Domain(
        setting=CA21,
        players=((fig1.domain.players[0][0], fig1.domain.players[0][1]), fig1.domain.players[1]),
    )
    div = first_divergence(fig1.tree, fig1.strategies, sub)
    assert div.vertex == "N1"


def test_mu_payment_bounds_rejects_foreign_domains():
    sp = serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2))
    with pytest.raises(ValueError, match="fixture"):
        mu_payment_bounds(*sp.checker_args())


def test_first_divergence_exists_for_low_ratio_mechanisms():
    # profiles (all, one) and (one, all) must part ways in any mechanism
    # whose ratio beats min(m, n); the clock auction's do
    dom = adversarial_domain(MU22, "mu-single-minded")
    gb = grand_bundle_ascending(MU22, 16, domain=dom)
    subsets = Domain(
        setting=MU22,
        players=((dom.players[0][0], dom.players[0][2]), (dom.players[1][0], dom.players[1][2])),
    )
    assert first_divergence(gb.tree, gb.strategies, subsets) is not None


def test_scaling_invariance():
    rng = random.Random(17)
    for _ in range(25):
        bundle = random_instance(rng)
        factor = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = _scale_bundle(bundle, factor)
        for chk in (check_osp, check_dsic, check_ir, check_nnt):
            assert chk(*bundle.checker_args()).passed == chk(*scaled.checker_args()).passed
        r1 = welfare_ratio(*bundle.checker_args())
        r2 = welfare_ratio(*scaled.checker_args())
        assert r1.unbounded == r2.unbounded
        if not r1.unbounded:
            assert r1.ratio == r2.ratio
            assert r1.ratio >= 1  # realized allocations never exceed the optimum


def _scale_valuation(v, c: Fraction):
    from ospcheck import GeneralCA

    if isinstance(v, (GeneralCA, GeneralMU)):
        return type(v)(values=tuple(x * c for x in v.values))
    raise AssertionError("random instances only use table valuations")


def _scale_bundle(bundle: MechanismBundle, c: Fraction) -> MechanismBundle:
    from ospcheck import Leaf, MechanismTree

    tree = bundle.tree
    nodes = {}
    for nid, node in tree.nodes.items():
        if isinstance(node, Leaf):
            nodes[nid] = Leaf(
                allocation=node.allocation,
                payments=tuple(p * c for p in node.payments),
            )
        else:
            nodes[nid] = node
    scaled_tree = MechanismTree(setting=tree.setting, nodes=nodes, root=tree.root)
    players = tuple(
        tuple(_scale_valuation(v, c) for v in vs) for vs in bundle.domain.players
    )
    domain = Domain(setting=tree.setting, players=players)
    strategies = tuple(
        {
            _scale_valuation(v, c): beh
            for v, beh in bundle.strategies[i].items()
        }
        for i in range(tree.setting.n)
    )
    return MechanismBundle(tree=scaled_tree, strategies=strategies, domain=domain)


def test_mu_payment_bounds_reference_and_violation():
    dom = adversarial_domain(MU22, "mu-single-minded")
    gb = grand_bundle_ascending(MU22, 16, domain=dom)
    report = mu_payment_bounds(*gb.checker_args())
    assert report.winners_pay_at_most_one
    assert report.all_units_winner is not None
    assert report.all_units_within_square

    # a hand-built overcharging tree: player 0 reveals, the all-bundle leaf
    # charges above the square threshold; OSP+IR+NNT all hold, which is why
    # the square bound needs the approximation premise
    spec = {
        "id": "root",
        "speaker": 0,
        "edges": {
            "0": {"allocation": [0, 0], "payments": [Fraction(0), Fraction(0)]},
            "1": {"allocation": [0, 0], "payments": [Fraction(0), Fraction(0)]},
            "2": {"allocation": [2, 0], "payments": [Fraction(5), Fraction(0)]},
        },
    }
    tree = build_tree(spec, MU22)
    strategies = (
        {v: Behavior(owner=0, choices={"root": str(k)}) for k, v in enumerate(dom.players[0])},
        {v: Behavior(owner=1, choices={}) for v in dom.players[1]},
    )
    bundle = MechanismBundle(tree=tree, strategies=strategies, domain=dom)
    assert check_osp(*bundle.checker_args()).passed
    assert check_ir(*bundle.checker_args()).passed
    assert check_nnt(*bundle.checker_args()).passed
    report = mu_payment_bounds(*bundle.checker_args())
    assert report.all_units_winner == (0, Fraction(5))
    assert report.all_units_within_square is False
    assert welfare_ratio(*bundle.checker_args()).unbounded
