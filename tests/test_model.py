"""Core tree model: building, running, attainability, realization."""

import random
from fractions import Fraction

import pytest

from ospcheck import (
    AuctionSetting,
    Behavior,
    InternalNode,
    Leaf,
    MechanismError,
    MechanismTree,
    attainable,
    build_tree,
    adversarial_domain,
    grand_bundle_ascending,
    realize,
    run,
    second_price_single_item,
    serial_posted_price,
)
from ospcheck.serialize import parse_mechanism, serialize_mechanism

from helpers import random_instance, random_setting, random_tree_spec, walk_index


CA11 = AuctionSetting(kind="combinatorial", n=1, m=1)


def leaf_spec(n, alloc=None, pays=None, **extra):
    alloc = alloc if alloc is not None else [[] for _ in range(n)]
    pays = pays if pays is not None else ["0/1"] * n
    return {"allocation": alloc, "payments": pays, **extra}


def fig1_bundle():
    return second_price_single_item(2, tiebreak_winner=1)


def test_fig1_structure():
    tree = fig1_bundle().tree
    assert len(tree.internal_ids) == 3
    assert len(tree.leaf_ids) == 4
    assert tree.depth == 2


def test_fig1_run_path():
    tree = fig1_bundle().tree
    profile = (
        Behavior(owner=0, choices={"N1": "2"}),
        Behavior(owner=1, choices={"N2": "2", "N3": "1"}),
    )
    leaf, path = run(tree, profile)
    assert leaf == "L3"
    assert path == ["N1", "N3", "L3"]


def test_fig1_truthful_run_by_hand():
    # truthful (1, 2): first speaker says 1, responder says 2 at N2 -> L2,
    # where the responder (jacket) wins
    bundle = fig1_bundle()
    v1 = bundle.domain.players[0][0]
    v2 = bundle.domain.players[1][1]
    leaf, _ = run(bundle.tree, (bundle.strategies[0][v1], bundle.strategies[1][v2]))
    assert leaf == "L2"
    assert bundle.tree.nodes[leaf].allocation[1] == frozenset({0})


def test_single_leaf_tree():
    tree = build_tree(leaf_spec(1), CA11)
    assert tree.depth == 0
    leaf, path = run(tree, (Behavior(owner=0, choices={}),))
    assert path == [tree.root] == [leaf]


def test_duplicate_label_rejected():
    spec = {
        "speaker": 0,
        "edges": {"1": leaf_spec(1), 1: leaf_spec(1)},
    }
    with pytest.raises(MechanismError, match="duplicate message label"):
        build_tree(spec, CA11)


def test_bad_allocation_rejected():
    setting = AuctionSetting(kind="combinatorial", n=2, m=1)
    spec = leaf_spec(2, alloc=[[0], [0]])
    with pytest.raises(MechanismError, match="disjoint"):
        build_tree(spec, setting)
    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    with pytest.raises(MechanismError, match="exceed"):
        build_tree({"allocation": [2, 1], "payments": ["0", "0"]}, mu)


def test_speaker_out_of_range():
    spec = {"speaker": 1, "edges": {"a": leaf_spec(1)}}
    with pytest.raises(MechanismError, match="speaker"):
        build_tree(spec, CA11)


def test_arena_cycle_and_orphan():
    cycle = {
        "a": InternalNode(speaker=0, edges={"x": "b"}),
        "b": InternalNode(speaker=0, edges={"x": "a"}),
    }
    with pytest.raises(MechanismError, match="cycle"):
        MechanismTree(CA11, cycle, "a")
    leaf = Leaf(allocation=(frozenset(),), payments=(Fraction(0),))
    with pytest.raises(MechanismError, match="orphan"):
        MechanismTree(CA11, {"a": leaf, "b": leaf}, "a")
    # build_tree reads only the nested form: an arena spec is a leaf without fields
    arena = {"root": "a", "nodes": {"a": leaf_spec(1)}}
    with pytest.raises(MechanismError, match="'allocation'"):
        build_tree(arena, CA11)


def test_attainable_fig1():
    tree = fig1_bundle().tree
    low = Behavior(owner=0, choices={"N1": "1"})
    assert attainable(tree, 0, low, "N1")
    # the responder's N2 sits under edge "1", N3 under edge "2"
    resp = Behavior(owner=1, choices={"N2": "1", "N3": "1"})
    assert attainable(tree, 1, resp, "N2")
    assert attainable(tree, 1, resp, "N3")
    with pytest.raises(MechanismError):
        attainable(tree, 0, low, "N2")  # not owned by player 0


def test_attainability_blocked_by_own_choice():
    # player 0 speaks twice along one branch; contradicting the first choice
    # makes the deeper node unattainable
    spec = {
        "id": "top",
        "speaker": 0,
        "edges": {
            "l": {
                "id": "deep",
                "speaker": 0,
                "edges": {"l": leaf_spec(1), "r": leaf_spec(1)},
            },
            "r": leaf_spec(1),
        },
    }
    tree = build_tree(spec, CA11)
    follows = Behavior(owner=0, choices={"top": "l", "deep": "l"})
    contradicts = Behavior(owner=0, choices={"top": "r", "deep": "l"})
    assert attainable(tree, 0, follows, "deep")
    assert not attainable(tree, 0, contradicts, "deep")


def test_attainability_monotone_along_paths():
    rng = random.Random(7)
    for _ in range(30):
        bundle = random_instance(rng)
        tree = bundle.tree
        for i in range(tree.setting.n):
            for v in bundle.domain.players[i]:
                beh = bundle.strategies[i][v]
                for nid in tree.nodes_of(i):
                    if attainable(tree, i, beh, nid):
                        for anc in tree.path_to(nid)[:-1]:
                            if tree.nodes[anc].speaker == i:
                                assert attainable(tree, i, beh, anc)


def test_run_determinism_and_prefix_property():
    rng = random.Random(11)
    for _ in range(20):
        bundle = random_instance(rng)
        tree = bundle.tree
        profile = tuple(
            bundle.strategies[i][bundle.domain.players[i][0]]
            for i in range(tree.setting.n)
        )
        first = run(tree, profile)
        assert run(tree, profile) == first
        leaf, path = first
        # mutate one player's behavior below a prefix: paths share the prefix
        cut = rng.randrange(len(path))
        prefix_nodes = set(path[:cut])
        altered = []
        for i, beh in enumerate(profile):
            choices = dict(beh.choices)
            for nid in tree.nodes_of(i):
                if nid not in prefix_nodes:
                    choices[nid] = sorted(tree.nodes[nid].edges)[-1]
            altered.append(Behavior(owner=i, choices=choices))
        _, path2 = run(tree, tuple(altered))
        assert path2[:cut] == path[:cut]


def test_realize_totality_and_error():
    rng = random.Random(3)
    bundle = random_instance(rng)
    table = realize(bundle.tree, bundle.strategies, bundle.domain)
    assert len(table) == bundle.domain.size()
    missing = [dict(s) for s in bundle.strategies]
    victim = bundle.domain.players[0][0]
    del missing[0][victim]
    with pytest.raises(MechanismError, match="undefined"):
        realize(bundle.tree, missing, bundle.domain)


def test_serialization_round_trip_structural_equality():
    rng = random.Random(23)
    for _ in range(15):
        setting = random_setting(rng)
        tree = build_tree(random_tree_spec(rng, setting, 3), setting)
        text = serialize_mechanism(tree)
        again = parse_mechanism(text)
        assert again == tree
        assert serialize_mechanism(again) == text


def test_tree_index_matches_walks():
    """The index recorded by validation agrees with plain recursive walks."""
    rng = random.Random(31)
    trees = []
    for depth in (0, 1, 3, 5):
        for _ in range(40):
            setting = random_setting(rng, max_n=3)
            trees.append(build_tree(random_tree_spec(rng, setting, depth), setting))
    ca22 = AuctionSetting(kind="combinatorial", n=2, m=2)
    mu22 = AuctionSetting(kind="multi-unit", n=2, m=2)
    trees += [
        second_price_single_item(3).tree,
        serial_posted_price(1, 3, ca22).tree,
        grand_bundle_ascending(mu22, 16, domain=adversarial_domain(mu22, "mu-single-minded")).tree,
    ]
    for tree in trees:
        walk = walk_index(tree)
        assert tree.preorder == tuple(walk.preorder)
        internal = tuple(nid for nid in walk.preorder if not isinstance(tree.nodes[nid], Leaf))
        assert tree.internal_ids == internal
        assert tree.leaf_ids == tuple(walk.leaves_below[tree.root])
        assert tree.depth == max(walk.depths.values())
        assert tree.bfs_internal() == walk.bfs_internal
        for i in range(tree.setting.n):
            assert tree.nodes_of(i) == tuple(x for x in internal if tree.nodes[x].speaker == i)
        for nid in walk.preorder:
            assert tuple(tree.subtree_leaves(nid)) == tuple(walk.leaves_below[nid])
            assert tree.path_to(nid) == walk.paths[nid]
            if nid != tree.root:
                assert tree.label_into(nid) == walk.labels[nid]
