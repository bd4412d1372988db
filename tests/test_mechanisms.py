"""Reference constructors: structure, traces, and the four property checks."""

import pytest
from fractions import Fraction

from ospcheck import (
    AdditiveValuation,
    AuctionSetting,
    MechanismBundle,
    MechanismError,
    adversarial_domain,
    ascending_single_item,
    check_dsic,
    check_ir,
    check_nnt,
    check_osp,
    evaluate,
    grand_bundle_ascending,
    opt_welfare,
    realize,
    second_price_single_item,
    serial_posted_price,
    welfare_ratio,
)

CA22 = AuctionSetting(kind="combinatorial", n=2, m=2)
MU22 = AuctionSetting(kind="multi-unit", n=2, m=2)

ALL_CHECKS = (check_osp, check_dsic, check_ir, check_nnt)


def outcome(bundle, *values):
    """Realized (allocation, payments) at the profile of per-player values."""
    profile = tuple(
        bundle.domain.players[i][v - 1] for i, v in enumerate(values)
    )
    table = realize(bundle.tree, bundle.strategies, [[v] for v in profile])
    return table[profile]


def test_every_constructor_passes_all_checks():
    bundles = [
        second_price_single_item(2, tiebreak_winner=1),
        second_price_single_item(1),
        ascending_single_item(3),
        ascending_single_item(5),
        ascending_single_item(2, n=3),
        grand_bundle_ascending(MU22, 16, domain=adversarial_domain(MU22, "mu-single-minded")),
        grand_bundle_ascending(CA22, 4),
        serial_posted_price(1, 3, CA22),
        serial_posted_price(Fraction(1, 2), Fraction(5, 2), AuctionSetting(kind="combinatorial", n=3, m=2)),
    ]
    for bundle in bundles:
        for chk in ALL_CHECKS:
            assert chk(*bundle.checker_args()).passed, chk.__name__


def test_second_price_revelation_tree_fails_beyond_fig1():
    """The two-round second-price tree is obviously dominant only for the
    two-value instance with ties to the responder.  With three values the
    responder's plan can reward overbidding, and with ties to the first
    speaker underbidding into a cheap tie pays; the checkers expose both.
    The ascending clock is the construction that scales in K."""
    for bundle in (
        second_price_single_item(3, tiebreak_winner=1),
        second_price_single_item(2, tiebreak_winner=0),
    ):
        assert not check_osp(*bundle.checker_args()).passed
        assert not check_dsic(*bundle.checker_args()).passed
        assert check_ir(*bundle.checker_args()).passed
        assert check_nnt(*bundle.checker_args()).passed


def test_second_price_structure_and_payments():
    b = second_price_single_item(2, tiebreak_winner=1)
    assert len(b.tree.internal_ids) == 3 and len(b.tree.leaf_ids) == 4
    alloc, pays = outcome(b, 2, 1)
    assert alloc[0] == frozenset({0}) and pays == (1, 0)
    alloc, pays = outcome(b, 1, 1)
    assert alloc[1] == frozenset({0})  # tiebreak to the jacket role
    # default tiebreak is the lowest index
    b0 = second_price_single_item(2)
    alloc, pays = outcome(b0, 2, 2)
    assert alloc[0] == frozenset({0}) and pays == (2, 0)


def test_second_price_K1():
    b = second_price_single_item(1, tiebreak_winner=1)
    for leaf_id in b.tree.leaf_ids:
        leaf = b.tree.nodes[leaf_id]
        assert leaf.allocation[1] == frozenset({0})
        assert leaf.payments[1] == 1
    with pytest.raises(MechanismError):
        second_price_single_item(0)


def test_ascending_traces():
    b = ascending_single_item(2)
    alloc, pays = outcome(b, 2, 1)
    assert alloc[0] == frozenset({0}) and pays[0] == 2
    # clock-end tie at K: the lowest index wins at the final clock price
    b1 = ascending_single_item(1)
    alloc, pays = outcome(b1, 1, 1)
    assert alloc[0] == frozenset({0}) and pays[0] == 1
    # below-K tie: the short-circuit survivor wins at her last accepted price
    alloc, pays = outcome(b, 1, 1)
    assert alloc[1] == frozenset({0}) and pays[1] == 1


def test_ascending_single_bidder():
    b = ascending_single_item(3, n=1)
    assert len(b.tree.nodes) == 1
    leaf = b.tree.nodes[b.tree.root]
    assert leaf.allocation[0] == frozenset({0}) and leaf.payments[0] == 1


def test_ascending_allocates_to_argmax():
    K = 3
    b = ascending_single_item(K)
    table = realize(b.tree, b.strategies, b.domain)
    for profile, (alloc, _) in table.items():
        values = [v.values[0] for v in profile]
        winners = [i for i in range(2) if alloc[i]]
        assert len(winners) == 1
        assert values[winners[0]] == max(values)
    assert welfare_ratio(*b.checker_args()).ratio == 1


def test_grand_bundle_over_adversarial_domain():
    dom = adversarial_domain(MU22, "mu-single-minded")
    b = grand_bundle_ascending(MU22, 16, domain=dom)
    report = welfare_ratio(*b.checker_args())
    assert report.ratio == 2
    assert report.worst_profile == (dom.players[0][0], dom.players[1][0])
    # thresholds 16 vs 1: spiked bidder takes everything
    table = realize(b.tree, b.strategies, dom)
    alloc, pays = table[(dom.players[0][2], dom.players[1][0])]
    assert alloc[0] == 2 and alloc[1] == 0
    # a winner never pays more than her grand-bundle value
    grand = MU22.grand_bundle()
    for profile, (alloc, pays) in table.items():
        for i in range(2):
            if alloc[i] == 2:
                assert pays[i] <= evaluate(profile[i], grand)


def test_serial_posted_price_trace():
    b = serial_posted_price(1, 3, CA22)
    v1 = AdditiveValuation(values=(Fraction(3), Fraction(1)))
    v2 = AdditiveValuation(values=(Fraction(3), Fraction(3)))
    table = realize(b.tree, b.strategies, [[v1], [v2]])
    alloc, pays = table[(v1, v2)]
    assert alloc == (frozenset({0}), frozenset({1}))
    assert pays == (1, 1)
    zero = AdditiveValuation(values=(Fraction(0), Fraction(0)))
    table = realize(b.tree, b.strategies, [[zero], [zero]])
    alloc, pays = table[(zero, zero)]
    assert alloc == (frozenset(), frozenset()) and pays == (0, 0)


def test_serial_posted_price_welfare_optimal_everywhere():
    b = serial_posted_price(1, 3, CA22)
    table = realize(b.tree, b.strategies, b.domain)
    assert len(table) == 81
    for profile, (alloc, _) in table.items():
        realized = sum(evaluate(v, alloc[i]) for i, v in enumerate(profile))
        assert realized == opt_welfare(profile, CA22)[0]
    with pytest.raises(MechanismError):
        serial_posted_price(3, 1, CA22)


def test_constructors_read_numbers_strictly():
    # prices are exact rationals and counts integers, read as a file reads them:
    # 0.1 would be stored as 3602879701896397/36028797018963968, and True as 1
    tree = serial_posted_price("1/10", 3, CA22).tree
    paid = {p for lid in tree.leaf_ids for p in tree.nodes[lid].payments}
    assert paid == {Fraction(0), Fraction(1, 10), Fraction(2, 10)}
    for bad in (0.1, True, "x"):
        with pytest.raises(MechanismError, match="bad rational"):
            serial_posted_price(bad, 3, CA22)
        with pytest.raises(MechanismError, match="bad rational"):
            serial_posted_price(1, bad, CA22)
    for bad in (2.5, True, "2"):
        for make in (lambda: grand_bundle_ascending(MU22, bad),
                     lambda: second_price_single_item(bad),
                     lambda: second_price_single_item(2, tiebreak_winner=bad),
                     lambda: ascending_single_item(bad)):
            with pytest.raises(MechanismError, match="expected an integer"):
                make()


def test_constructor_input_errors():
    """Each check of a bundle or constructor raises MechanismError with its reason."""
    sp = second_price_single_item(2)
    cases = (
        (lambda: MechanismBundle(tree=sp.tree, strategies=sp.strategies[:1], domain=sp.domain),
         "need one strategy table per player"),
        (lambda: MechanismBundle(tree=sp.tree, strategies=({}, sp.strategies[1]), domain=sp.domain),
         "strategy of player 0 misses domain valuations"),
        (lambda: second_price_single_item(2, tiebreak_winner=2),
         "tiebreak winner must be a player id"),
        (lambda: second_price_single_item(0), "K must be at least 1"),
        (lambda: grand_bundle_ascending(MU22, 0), "K must be at least 1"),
        (lambda: serial_posted_price(1, 3, MU22), "posted-price mechanism is combinatorial"),
    )
    for make, message in cases:
        with pytest.raises(MechanismError) as caught:
            make()
        assert message in str(caught.value)
