"""Property checkers against hand computations and brute-force oracles."""

import collections
import hashlib
import itertools
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
    ascending_single_item,
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
    social_welfare,
    welfare_ratio,
)
from ospcheck import checkers
from ospcheck.model import Leaf, MechanismError, MechanismTree

from helpers import (
    MIXED_LEVELS,
    divergence_domains,
    leaf_utility,
    oracle_bad_leaf_good_leaf,
    oracle_dsic,
    oracle_osp,
    random_instance,
    random_setting,
    random_valuation,
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
    assert not verdict.passed and not verdict
    assert verdict.witness.player == 0
    assert verdict.witness.utility == -1


def test_ir_passes_reference_mechanisms():
    sp = serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2))
    assert check_ir(*sp.checker_args()).passed
    assert check_ir(*sp.checker_args())  # a verdict is truthy when it passed
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


def test_dsic_verdict_equals_osp():
    """Opponents range over every contingent behavior, so the two sides of a
    split vertex are chosen independently: a DSIC pair (own leaf, vertex,
    better off-path leaf) is an OSP violation at that vertex and conversely."""
    rng = random.Random(31)
    bundles = [random_instance(rng) for _ in range(300)]
    ca = AuctionSetting(kind="combinatorial", n=2, m=2)
    dom = adversarial_domain(MU22, "mu-single-minded")
    bundles += [
        first_price_bundle(),
        first_price_bundle(3),
        charging_loser_bundle(),
        second_price_single_item(2),
        second_price_single_item(2, tiebreak_winner=1),
        second_price_single_item(3),
        ascending_single_item(6, n=3),
        grand_bundle_ascending(MU22, 4, domain=dom),
        serial_posted_price(1, 3, ca),
    ]
    verdicts = [
        (check_osp(*b.checker_args()).passed, check_dsic(*b.checker_args()).passed)
        for b in bundles
    ]
    assert all(osp == dsic for osp, dsic in verdicts)
    assert 0 < sum(osp for osp, _ in verdicts) < len(verdicts)


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


def reference_bundles() -> dict:
    """The reference mechanisms the benchmark checks, by name."""
    return {
        "posted-price-ca22": serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2)),
        "ascending-k6-n3": ascending_single_item(6, n=3),
        "grand-bundle-k12": grand_bundle_ascending(MU22, 12),
        "grand-bundle-k16-adversarial": grand_bundle_ascending(
            MU22, 16, domain=adversarial_domain(MU22, "mu-single-minded")),
    }


def test_large_tree_witnesses_pinned():
    """First OSP and DSIC witnesses and the bad-leaf lists of the reference trees
    under rotated plans, byte for byte: on the full domain and with each player
    held to each one of her valuations, so that many leaves tie.  The digests
    were taken from the whole-tree min/max tables the leaf slices replaced."""
    pins = {
        "posted-price-ca22": (
            "324778e9a17f24c3d27b14f0cfdcfb5791caa7f92fd0e714e51b90df71e00233",
            "c6e27c0b92a888f3abaf8b784460f70b614da070fea5c462a3c6b2c712c66c60",
            "976a3dc11d747252816defb4d716226bfef2f24a3a32057d6280b25c837b68e5",
        ),
        "ascending-k6-n3": (
            "09088269cc625b2681ddaf8ac3ac411edac106d0395ff0fc1c1174127e47cd3c",
            "e987caca46dac83f22015424ca238704f56ea790872b35886bdf139cb56922e7",
            "7de4d345dc36c1d662fb603620a6a8dc15e4044834f7d28f6e42a9264ff19c86",
        ),
        "grand-bundle-k12": (
            "a18121e317626d2b22024acd5f30e19ca5e4426411630aa0908cd93173617c82",
            "865c648ebd14b4766fbf47239bd6958b13602e45cde425cbe8dc6cc0824535d6",
            "1132ad77830e8637550707110bc18d1f12975a026f616b9ddde9335faa417c7a",
        ),
        "grand-bundle-k16-adversarial": (
            "a8a4a2d077fb6873b7e1549c1087bafc489879847a52d07660083eae93a1c9de",
            "5b3b6ffdedabf6e1e986cad4e0f6dd854e174ab9aba16b60be695d0de1adbe14",
            "9a1cf19cc2398ebdcf7b8ac120abe4b746814f4268f6a7a9f0c8102eb83f8bdb",
        ),
    }
    for name, bundle in reference_bundles().items():
        tree, strategies, dom = rotated_plans(bundle).checker_args()
        players = dom.players
        domains = [dom] + [
            Domain(setting=tree.setting, players=players[:i] + ((v,),) + players[i + 1:])
            for i, vs in enumerate(players) for v in vs
        ]
        digests = []
        for chk in (check_osp, check_dsic, scan_bad_leaf_good_leaf):
            digest = hashlib.sha256()
            for d in domains:
                digest.update(repr(chk(tree, strategies, d)).encode() + b"\n")
            digests.append(digest.hexdigest())
        assert tuple(digests) == pins[name], name


def test_bad_plan_raises_run_messages():
    """A plan naming a missing label, or missing a reachable own node, fails
    every checker with the message ``run()`` gives.  ``check_dsic`` still
    raises after ``check_osp`` raised on the same tree: no answer was kept."""
    fig1 = second_price_single_item(2)
    tree, strategies, dom = fig1.checker_args()
    v = dom.players[0][0]
    good = strategies[0][v]
    cases = [
        ({**good.choices, "N1": "nope"}, "label 'nope' does not exist at node 'N1'"),
        ({k: x for k, x in good.choices.items() if k != "N1"},
         "behavior of player 0 undefined at node 'N1'"),
    ]
    checks = (check_osp, check_dsic, check_ir, check_nnt, welfare_ratio, scan_bad_leaf_good_leaf)
    for choices, message in cases:
        bad = ({**strategies[0], v: Behavior(owner=0, choices=choices)}, strategies[1])
        for chk in checks:
            with pytest.raises(MechanismError, match=message):
                chk(tree, bad, dom)
        assert repr(check_osp(tree, strategies, dom)) == repr(check_osp(_fresh(tree), strategies, dom))


def test_stored_answers_match_a_fresh_tree():
    """``check_dsic`` after ``check_osp`` on one tree reads the answers
    ``check_osp`` kept, and gives what it gives on a tree that kept none."""
    rng = random.Random(1414)
    bundles = [random_instance(rng) for _ in range(200)]
    references = list(reference_bundles().values())
    bundles += references + [rotated_plans(b) for b in references]
    failed = 0
    for bundle in bundles:
        tree, strategies, dom = bundle.checker_args()
        osp = check_osp(tree, strategies, dom)
        failed += not osp.passed
        assert repr(check_dsic(tree, strategies, dom)) == repr(check_dsic(_fresh(tree), strategies, dom))
        assert repr(check_osp(tree, strategies, dom)) == repr(osp)
    assert 50 < failed < len(bundles)


def test_stored_answers_follow_the_plans():
    """Replacing a plan, or changing its ``choices`` in place, between two
    calls on one tree gives the verdicts of a fresh tree."""
    rng = random.Random(1515)
    changed = 0
    for _ in range(150):
        bundle = random_instance(rng)
        tree, strategies, dom = bundle.checker_args()
        players = dom.players
        i = rng.randrange(len(players))
        v = rng.choice(players[i])
        own = tree.nodes_of(i)
        if not own:
            continue
        for chk in (check_osp, check_dsic):
            chk(tree, strategies, dom)
        nid = rng.choice(own)
        label = rng.choice(sorted(tree.nodes[nid].edges))
        replaced = ({**strategies[i], v: Behavior(owner=i, choices={**strategies[i][v].choices,
                                                                    nid: label})},)
        replaced = strategies[:i] + replaced + strategies[i + 1:]
        before = [repr(chk(_fresh(tree), strategies, dom)) for chk in (check_osp, check_dsic)]
        for plans in (replaced, strategies):
            want = [repr(chk(_fresh(tree), plans, dom)) for chk in (check_osp, check_dsic)]
            assert [repr(chk(tree, plans, dom)) for chk in (check_osp, check_dsic)] == want
        strategies[i][v].choices[nid] = label
        want = [repr(chk(_fresh(tree), strategies, dom)) for chk in (check_osp, check_dsic)]
        assert [repr(chk(tree, strategies, dom)) for chk in (check_osp, check_dsic)] == want
        changed += want != before
    assert changed >= 10


def test_osp_then_dsic_answer_each_plan_once(monkeypatch):
    """On the K=16 adversarial clock, ``check_osp`` then ``check_dsic`` decide
    each (player, valuation) at most once."""
    gb = grand_bundle_ascending(MU22, 16, domain=adversarial_domain(MU22, "mu-single-minded"))
    tree, strategies, dom = gb.checker_args()
    calls = collections.Counter()
    decide = checkers._osp_violation

    def counted(tree, player, behavior, utils):
        calls[player, id(utils)] += 1
        return decide(tree, player, behavior, utils)

    monkeypatch.setattr(checkers, "_osp_violation", counted)
    assert check_osp(tree, strategies, dom).passed
    assert check_dsic(tree, strategies, dom).passed
    pairs = sum(len(vs) for vs in dom.players)
    assert sum(calls.values()) == pairs
    assert set(calls.values()) == {1}


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
    # with the announcer's high value alone no profile reaches N2, which is
    # skipped, and the responder diverges at N3
    sub = Domain(setting=CA21, players=((fig1.domain.players[0][1],), fig1.domain.players[1]))
    div = first_divergence(fig1.tree, fig1.strategies, sub)
    assert div.player == 1 and div.vertex == "N3"


def test_first_divergences_pinned():
    """First divergences on seeded random instances, each on its full domain and
    on a sub-domain of two valuations of one player, byte for byte."""
    rng = random.Random(2222)
    digest = hashlib.sha256()
    found = 0
    for _ in range(300):
        bundle = random_instance(rng)
        for domain in divergence_domains(rng, bundle):
            div = first_divergence(bundle.tree, bundle.strategies, domain)
            found += div is not None
            digest.update(repr(div).encode() + b"\n")
    assert found == 182
    assert digest.hexdigest() == "b8f552f03bfbefa04b9c29e0920f4dddeb004b8fb54fa6d6aef58d5726866c68"


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


def test_exact_values_match_the_fraction_oracles():
    """On seeded random domains, ``ExactValues`` holds ``social_welfare`` and
    ``opt_welfare`` scaled, and its ratio counts 0/0 as 1 and a positive OPT
    over zero welfare as unbounded (None)."""
    rng = random.Random(1818)
    for _ in range(40):
        setting = random_setting(rng)
        players = tuple(
            tuple(random_valuation(rng, setting, MIXED_LEVELS) for _ in range(rng.randint(1, 3)))
            for _ in range(setting.n))
        payments = [rng.choice(MIXED_LEVELS) for _ in range(2)]
        values = checkers.ExactValues(setting, players, payments)
        assert all(values.exact(values.scaled(p)) == p for p in payments)
        profiles = list(itertools.product(*players))
        welfare = list(values.welfare())
        assert len(welfare) == len(profiles)
        for profile, (sums, opt) in zip(profiles, welfare):
            assert list(sums) == [social_welfare(profile, alloc) * values.scale
                                  for alloc in values.allocations]
            assert opt == opt_welfare(profile, setting)[0] * values.scale
    ratio = checkers.ExactValues.ratio
    assert (ratio(0, 0), ratio(0, 3), ratio(2, 3), ratio(3, 3)) == (1, None, Fraction(3, 2), 1)


def test_checkers_read_a_list_allocation():
    """``MechanismTree`` accepts a leaf allocation given as a list of bundles;
    the checkers judge such a tree as the one holding tuples."""
    for bundle in (first_price_bundle(3), charging_loser_bundle(),
                   serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2))):
        tree = bundle.tree
        nodes = {nid: Leaf(allocation=list(node.allocation), payments=node.payments)
                 if isinstance(node, Leaf) else node for nid, node in tree.nodes.items()}
        listed = MechanismBundle(tree=MechanismTree(tree.setting, nodes, tree.root),
                                 strategies=bundle.strategies, domain=bundle.domain)
        for check in (check_ir, check_osp, check_dsic, welfare_ratio):
            assert check(*listed.checker_args()) == check(*bundle.checker_args())


def brute_ratio(bundle):
    """``welfare_ratio``'s report recomputed profile by profile with
    ``opt_welfare`` and ``social_welfare`` over exact Fractions."""
    tree, strategies, domain = bundle.checker_args()
    worst = None
    for profile in domain.profiles():
        leaf_id, _ = run(tree, tuple(strategies[i][v] for i, v in enumerate(profile)))
        sw = social_welfare(profile, tree.nodes[leaf_id].allocation)
        opt, _ = opt_welfare(profile, tree.setting)
        if sw == 0 and opt > 0:
            return (None, profile, sw, opt)
        ratio = opt / sw if sw else Fraction(1)
        if worst is None or ratio > worst[0]:
            worst = (ratio, profile, sw, opt)
    return worst


def test_integer_path_with_mixed_denominators():
    """Values and payments in thirds, sevenths and 1/97ths: the integer
    verdicts, witnesses, bad-leaf scan and ratio match the Fraction oracles."""
    rng = random.Random(1997)
    denominators = set()
    small = 0
    for _ in range(150):
        bundle = random_instance(rng, levels=MIXED_LEVELS, pay_levels=MIXED_LEVELS)
        args = bundle.checker_args()
        tree = bundle.tree
        if len(tree.nodes) <= 8:
            small += 1
            assert check_osp(*args).passed == oracle_osp(bundle)
            assert check_dsic(*args).passed == oracle_dsic(bundle)
        for chk in (check_osp, check_dsic, check_ir):
            w = chk(*args).witness
            if w is None:
                continue
            assert w.utility == leaf_utility(tree, w.leaf, w.player, w.valuation)
            if w.alt_leaf is not None:
                assert w.alt_utility == leaf_utility(tree, w.alt_leaf, w.player, w.valuation)
            denominators.add(w.utility.denominator)
        bad = scan_bad_leaf_good_leaf(*args)
        assert bad == oracle_bad_leaf_good_leaf(*args)
        denominators.update(v.alt_utility.denominator for v in bad)
        report = welfare_ratio(*args)
        assert (report.ratio, report.worst_profile, report.mechanism_welfare,
                report.optimum) == brute_ratio(bundle)
        if report.ratio is not None:
            denominators.update((report.ratio.denominator, report.optimum.denominator))
    assert small >= 20
    assert {3, 7, 97} <= {p for d in denominators for p in (3, 7, 97) if d % p == 0}


def _fresh(tree):
    return MechanismTree(setting=tree.setting, nodes=tree.nodes, root=tree.root)


def test_utility_table_follows_the_domain():
    """One tree checked against two domains in alternation: each call gives
    that domain's own verdicts and ratio, as on a tree that never saw the
    other domain."""
    rng = random.Random(77)
    dom = adversarial_domain(MU22, "mu-single-minded")
    bundles = [random_instance(rng, levels=MIXED_LEVELS, pay_levels=MIXED_LEVELS)
               for _ in range(40)]
    bundles += [grand_bundle_ascending(MU22, 16, domain=dom), first_price_bundle(3)]
    checks = (check_osp, check_dsic, check_ir, check_nnt, welfare_ratio,
              scan_bad_leaf_good_leaf)
    differ = 0
    for bundle in bundles:
        tree, strategies, full = bundle.checker_args()
        last = tuple(vs[-1:] for vs in full.players)
        domains = [full, Domain(setting=tree.setting, players=last), last]
        expected = [[repr(chk(_fresh(tree), strategies, d)) for chk in checks] for d in domains]
        differ += expected[0] != expected[1]
        for d, want in [*zip(domains, expected)] * 2:
            assert [repr(chk(tree, strategies, d)) for chk in checks] == want
    assert differ >= 10


def test_checkers_evaluate_once_per_player_valuation_bundle(monkeypatch):
    """Over every checker on the K=16 adversarial clock, each valuation is
    evaluated at most once per player holding it and bundle, however many
    leaves and profiles there are."""
    dom = adversarial_domain(MU22, "mu-single-minded")
    gb = grand_bundle_ascending(MU22, 16, domain=dom)
    calls = collections.Counter()

    def counted(valuation, bundle):
        calls[valuation, bundle] += 1
        return evaluate(valuation, bundle)

    monkeypatch.setattr(checkers, "evaluate", counted)
    args = gb.checker_args()
    for chk in (check_osp, check_dsic, check_ir, check_nnt, welfare_ratio,
                scan_bad_leaf_good_leaf, first_divergence, mu_payment_bounds):
        chk(*args)
    holders = collections.Counter(v for vs in dom.players for v in set(vs))
    assert len(gb.tree.leaf_ids) * len(dom.players[0]) > sum(holders.values()) * (MU22.m + 1)
    assert 0 < sum(calls.values()) <= sum(holders.values()) * (MU22.m + 1)
    assert all(count <= holders[v] for (v, _), count in calls.items())


def test_tree_checkers_never_enumerate_allocations(monkeypatch):
    """IR, OSP, DSIC, NNT and the bad-leaf scan read only the leaves' bundles,
    so their cost follows the tree: the m = 40 clock, over 3^40 allocations,
    passes all four checks with an empty bad-leaf scan."""
    def refuse(setting):
        raise AssertionError("a tree checker enumerated the allocations")

    monkeypatch.setattr(checkers, "enumerate_allocations", refuse)
    for m in (2, 40):
        bundle = grand_bundle_ascending(AuctionSetting(kind="combinatorial", n=2, m=m), 3)
        args = bundle.checker_args()
        assert all(check(*args) for check in (check_ir, check_osp, check_dsic, check_nnt))
        assert scan_bad_leaf_good_leaf(*args) == []
    # failing verdicts build their witnesses from the same table
    for bundle in (first_price_bundle(3), charging_loser_bundle()):
        args = bundle.checker_args()
        assert not all(check(*args) for check in (check_ir, check_osp, check_dsic, check_nnt))
        scan_bad_leaf_good_leaf(*args)
