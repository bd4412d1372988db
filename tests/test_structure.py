"""Structural analyzers vs hand computations and the enumeration oracle."""

import random
from fractions import Fraction

import pytest

from ospcheck import (
    AuctionSetting,
    MechanismError,
    adversarial_domain,
    audit_ascending_structure,
    build_tree,
    classify_continue_or_quit,
    grand_bundle_ascending,
    is_decisive,
    minimal_price,
    second_price_single_item,
    serial_posted_price,
)

from helpers import oracle_decisive, random_setting, random_tree_spec

MU22 = AuctionSetting(kind="multi-unit", n=2, m=2)


def test_minimal_price_second_price():
    tree = second_price_single_item(2, tiebreak_winner=1).tree
    # first speaker wins only at L3, paying the responder's announcement 1
    assert minimal_price(tree, "N1", 0, frozenset({0})) == 1
    # responder wins at L1 (pays 1), L2 (pays 1), L4 (pays 2)
    assert minimal_price(tree, "N1", 1, frozenset({0})) == 1
    assert minimal_price(tree, "N3", 1, frozenset({0})) == 2
    # no winning leaf below L3 subtree for the responder
    assert minimal_price(tree, "L3", 1, frozenset({0})) is None
    # empty query bundle is covered by every leaf
    assert minimal_price(tree, "N1", 0, frozenset()) == 0


def test_minimal_price_monotone_down_the_tree():
    rng = random.Random(31)
    for _ in range(25):
        setting = random_setting(rng)
        tree = build_tree(random_tree_spec(rng, setting, 3), setting)
        query = setting.empty_bundle() if rng.random() < 0.4 else (
            frozenset({0}) if setting.is_combinatorial else 1
        )
        for nid in tree.internal_ids:
            parent_min = minimal_price(tree, nid, 0, query)
            for child in tree.nodes[nid].edges.values():
                child_min = minimal_price(tree, child, 0, query)
                if parent_min is not None and child_min is not None:
                    assert child_min >= parent_min


def test_decisive_on_clock_auction():
    dom = adversarial_domain(MU22, "mu-single-minded")
    gb = grand_bundle_ascending(MU22, 4, domain=dom)
    tree = gb.tree
    root = tree.root
    # staying forever guarantees the lowest-indexed bidder the prize at K
    assert is_decisive(tree, root, 0, 2, 4)
    # the higher-indexed bidder loses clock-end ties, so no guarantee
    assert not is_decisive(tree, root, 1, 2, 4)
    # quitting guarantees the empty bundle at zero payment
    assert is_decisive(tree, root, 0, 0, 0)
    assert is_decisive(tree, root, 1, 0, 0)


def test_decisive_price_monotone():
    tree = second_price_single_item(3).tree
    item = frozenset({0})
    prices = [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]
    for player in (0, 1):
        flags = [is_decisive(tree, tree.root, player, item, p) for p in prices]
        # once decisive, decisive at every higher price
        assert flags == sorted(flags)


def test_decisive_bundle_monotone():
    rng = random.Random(77)
    ca = AuctionSetting(kind="combinatorial", n=2, m=2)
    for _ in range(20):
        tree = build_tree(random_tree_spec(rng, ca, 3), ca)
        nid = rng.choice(tree.preorder)
        price = rng.choice([Fraction(0), Fraction(1), Fraction(2)])
        big = frozenset({0, 1})
        if is_decisive(tree, nid, 0, big, price):
            for small in (frozenset(), frozenset({0}), frozenset({1})):
                assert is_decisive(tree, nid, 0, small, price)


def test_decisive_implies_minimal_price_within():
    rng = random.Random(78)
    for _ in range(30):
        setting = random_setting(rng)
        tree = build_tree(random_tree_spec(rng, setting, 3), setting)
        nid = rng.choice(tree.preorder)
        bundle = setting.grand_bundle() if rng.random() < 0.5 else setting.empty_bundle()
        price = Fraction(rng.randint(0, 3))
        if is_decisive(tree, nid, 0, bundle, price):
            mp = minimal_price(tree, nid, 0, bundle)
            assert mp is not None and mp <= price


def test_decisive_matches_enumeration_oracle():
    rng = random.Random(123)
    for _ in range(60):
        setting = random_setting(rng)
        tree = build_tree(random_tree_spec(rng, setting, 3), setting)
        nid = rng.choice(tree.preorder)
        player = rng.randrange(setting.n)
        if setting.is_combinatorial:
            bundle = frozenset(j for j in range(setting.m) if rng.random() < 0.5)
        else:
            bundle = rng.randint(0, setting.m)
        price = rng.choice([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(3)])
        assert is_decisive(tree, nid, player, bundle, price) == oracle_decisive(
            tree, nid, player, bundle, price
        )


def test_decisive_reads_price_strictly():
    # a price is an exact rational: 0.3 is not 3/10, and True is no price
    ca11 = AuctionSetting(kind="combinatorial", n=1, m=1)
    tree = serial_posted_price("3/10", 1, ca11).tree
    item = frozenset({0})
    assert minimal_price(tree, tree.root, 0, item) == Fraction(3, 10)
    assert is_decisive(tree, tree.root, 0, item, Fraction(3, 10))
    assert is_decisive(tree, tree.root, 0, item, "3/10")
    for bad in (0.3, True):
        with pytest.raises(MechanismError, match="bad rational"):
            is_decisive(tree, tree.root, 0, item, bad)


def test_unknown_node_rejected():
    tree = second_price_single_item(2).tree
    for query in (lambda: minimal_price(tree, "nope", 0, frozenset()),
                  lambda: is_decisive(tree, "nope", 0, frozenset(), 0),
                  lambda: classify_continue_or_quit(tree, "nope")):
        with pytest.raises(MechanismError, match="unknown node 'nope'"):
            query()


def test_classify_continue_or_quit():
    dom = adversarial_domain(MU22, "mu-single-minded")
    gb = grand_bundle_ascending(MU22, 4, domain=dom)
    for nid in gb.tree.internal_ids:
        row = classify_continue_or_quit(gb.tree, nid)
        assert row.continue_or_quit
        # staying is the only message that can still win; at the very last
        # ask of the clock the higher-indexed bidder cannot win a tie, so
        # she may have no winning message at all
        if row.winning_message_count == 1:
            assert row.continue_message == "stay"

    # second-price responder nodes have two winning messages
    sp = second_price_single_item(2, tiebreak_winner=1).tree
    row = classify_continue_or_quit(sp, "N2")
    assert not row.continue_or_quit and row.winning_message_count == 2

    # speaker who never wins anywhere: zero winning messages still qualifies
    ca = AuctionSetting(kind="combinatorial", n=2, m=1)
    spec = {
        "id": "u",
        "speaker": 0,
        "edges": {
            "a": {"allocation": [[], [0]], "payments": ["0", "0"]},
            "b": {"allocation": [[], []], "payments": ["0", "0"]},
        },
    }
    tree = build_tree(spec, ca)
    row = classify_continue_or_quit(tree, "u")
    assert row.continue_or_quit and row.winning_message_count == 0
    assert row.continue_message is None

    with pytest.raises(MechanismError):
        classify_continue_or_quit(tree, next(iter(tree.leaf_ids)))


def test_audit_ascending_structure():
    dom = adversarial_domain(MU22, "mu-single-minded")
    gb = grand_bundle_ascending(MU22, 16, domain=dom)
    audit = audit_ascending_structure(gb.tree)
    assert audit.all_continue_or_quit
    assert len(audit.classifications) == len(gb.tree.internal_ids)

    sp = second_price_single_item(2, tiebreak_winner=1)
    assert not audit_ascending_structure(sp.tree).all_continue_or_quit

    ca = AuctionSetting(kind="combinatorial", n=1, m=1)
    single = build_tree({"allocation": [[]], "payments": ["0"]}, ca)
    assert audit_ascending_structure(single).all_continue_or_quit


def test_is_decisive_leaves_no_reference_cycle():
    """With the cyclic collector off, a decisiveness query leaves nothing for
    it to collect, so the tree and the checker table kept on it are freed with
    their last reference."""
    import gc

    bundle = grand_bundle_ascending(MU22, 4, domain=adversarial_domain(MU22, "mu-single-minded"))
    tree = bundle.tree
    gc.collect()
    gc.disable()
    try:
        assert is_decisive(tree, tree.root, 0, 2, 4)
        assert not is_decisive(tree, tree.root, 0, 2, 0)
        assert gc.collect() == 0
    finally:
        gc.enable()
