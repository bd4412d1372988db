"""Shared test utilities: random instances and brute-force oracles.

The oracles quantify directly over behavior profiles per the definitions,
with none of the library's per-vertex factoring, so agreement between the
two is a real check.
"""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ospcheck import (
    AuctionSetting,
    Behavior,
    GeneralCA,
    GeneralMU,
    Domain,
    InternalNode,
    Leaf,
    MechanismBundle,
    MechanismTree,
    build_tree,
    bundle_contains,
    check_ir,
    check_nnt,
    check_osp,
    evaluate,
    mu_payment_bounds,
    run,
    utility,
    welfare_ratio,
)
from ospcheck.checkers import BadGoodViolation, enumerate_allocations

PAY_LEVELS = [Fraction(0), Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
VALUE_LEVELS = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
#: Levels in thirds, sevenths and 1/97ths, so that sums need a common
#: denominator far above the halves of the levels above.
MIXED_LEVELS = [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1, 97),
                Fraction(1), Fraction(5, 21), Fraction(3)]


def random_setting(rng: random.Random, max_n=2, max_m=2) -> AuctionSetting:
    kind = rng.choice(["combinatorial", "multi-unit"])
    return AuctionSetting(kind=kind, n=rng.randint(1, max_n), m=rng.randint(1, max_m))


def random_valuation(rng: random.Random, setting: AuctionSetting, levels=VALUE_LEVELS):
    if setting.is_combinatorial:
        values = [Fraction(0)] * (1 << setting.m)
        for mask in range(1, 1 << setting.m):
            floor = max(
                values[mask & ~(1 << j)] for j in range(setting.m) if mask >> j & 1
            )
            values[mask] = floor + rng.choice(levels)
        return GeneralCA(values=tuple(values))
    values = [Fraction(0)]
    for _ in range(setting.m):
        values.append(values[-1] + rng.choice(levels))
    return GeneralMU(values=tuple(values))


def random_allocation(rng: random.Random, setting: AuctionSetting):
    if setting.is_combinatorial:
        buckets = [frozenset()] * setting.n
        pools = [set() for _ in range(setting.n)]
        for j in range(setting.m):
            who = rng.randint(-1, setting.n - 1)
            if who >= 0:
                pools[who].add(j)
        return tuple(frozenset(p) for p in pools)
    remaining = setting.m
    out = []
    for i in range(setting.n):
        q = rng.randint(0, remaining)
        out.append(q)
        remaining -= q
    return tuple(out)


def random_tree_spec(rng: random.Random, setting: AuctionSetting, depth: int,
                     pay_levels=PAY_LEVELS):
    if depth == 0 or rng.random() < 0.35:
        return {
            "allocation": list(random_allocation(rng, setting)),
            "payments": [rng.choice(pay_levels) for _ in range(setting.n)],
        }
    fanout = rng.randint(2, 3)
    return {
        "speaker": rng.randrange(setting.n),
        "edges": {
            str(lbl): random_tree_spec(rng, setting, depth - 1, pay_levels)
            for lbl in range(fanout)
        },
    }


def random_instance(rng: random.Random, max_depth=3, max_domain=3,
                    levels=VALUE_LEVELS, pay_levels=PAY_LEVELS) -> MechanismBundle:
    """Random (tree, strategies, domain): strategies are arbitrary, not truthful.

    Valuation increments are drawn from ``levels``, leaf payments from
    ``pay_levels``.
    """
    setting = random_setting(rng)
    tree = build_tree(random_tree_spec(rng, setting, max_depth, pay_levels), setting)
    players = tuple(
        tuple(random_valuation(rng, setting, levels) for _ in range(rng.randint(1, max_domain)))
        for _ in range(setting.n)
    )
    domain = Domain(setting=setting, players=players)
    strategies = []
    for i in range(setting.n):
        table = {}
        for v in players[i]:
            choices = {
                nid: rng.choice(sorted(tree.nodes[nid].edges))
                for nid in tree.nodes_of(i)
            }
            table[v] = Behavior(owner=i, choices=choices)
        strategies.append(table)
    return MechanismBundle(tree=tree, strategies=tuple(strategies), domain=domain)


def divergence_domains(rng: random.Random, bundle: MechanismBundle) -> list:
    """The bundle's domain and, when some player holds two valuations or more,
    a sub-domain as plain lists: two of one such player's valuations, drawn by
    ``rng``, and the first valuation of every other player."""
    players = bundle.domain.players
    domains = [bundle.domain]
    several = [i for i, vs in enumerate(players) if len(vs) > 1]
    if several:
        i = rng.choice(several)
        domains.append([rng.sample(vs, 2) if j == i else [vs[0]] for j, vs in enumerate(players)])
    return domains


@dataclass
class WalkIndex:
    """Tree facts from plain recursion and a queue, independent of MechanismTree's index."""

    preorder: list
    bfs_internal: list
    depths: dict
    paths: dict
    labels: dict
    leaves_below: dict


def walk_index(tree) -> WalkIndex:
    index = WalkIndex([], [], {}, {}, {}, {})

    def visit(nid, path, label):
        index.preorder.append(nid)
        index.depths[nid] = len(path)
        index.paths[nid] = path = path + [nid]
        index.labels[nid] = label
        node = tree.nodes[nid]
        below = [nid] if isinstance(node, Leaf) else []
        for lbl, child in getattr(node, "edges", {}).items():
            below += visit(child, path, lbl)
        index.leaves_below[nid] = below
        return below

    visit(tree.root, [], None)
    queue = collections.deque([tree.root])
    while queue:
        nid = queue.popleft()
        node = tree.nodes[nid]
        if not isinstance(node, Leaf):
            index.bfs_internal.append(nid)
            queue.extend(node.edges.values())
    return index


def all_behaviors(tree, player):
    """Every behavior of a player, by brute-force product over her nodes."""
    nodes = tree.nodes_of(player)
    label_sets = [sorted(tree.nodes[nid].edges) for nid in nodes]
    for combo in itertools.product(*label_sets):
        yield Behavior(owner=player, choices=dict(zip(nodes, combo)))


def leaf_utility(tree, leaf_id, player, valuation) -> Fraction:
    leaf = tree.nodes[leaf_id]
    return evaluate(valuation, leaf.allocation[player]) - leaf.payments[player]


def oracle_osp(bundle: MechanismBundle) -> bool:
    """Obvious dominance straight from the definition.

    For every player, valuation, and vertex attainable under her planned
    behavior where the plan and some alternative differ, compare every pair
    of behavior profiles passing through the vertex.
    """
    tree = bundle.tree
    n = tree.setting.n
    behaviors = [list(all_behaviors(tree, i)) for i in range(n)]
    profiles = list(itertools.product(*behaviors))
    outcomes = {tuple(id(b) for b in prof): run(tree, prof) for prof in profiles}

    for i in range(n):
        for v in bundle.domain.players[i]:
            plan = bundle.strategies[i][v]
            for nid in tree.nodes_of(i):
                for prof in profiles:
                    if prof[i].choices != plan.choices:
                        continue
                    leaf1, path1 = outcomes[tuple(id(b) for b in prof)]
                    if nid not in path1:
                        continue
                    for prof2 in profiles:
                        if prof2[i].choices[nid] == plan.choices[nid]:
                            continue
                        leaf2, path2 = outcomes[tuple(id(b) for b in prof2)]
                        if nid not in path2:
                            continue
                        if leaf_utility(tree, leaf1, i, v) < leaf_utility(tree, leaf2, i, v):
                            return False
    return True


def oracle_dsic(bundle: MechanismBundle) -> bool:
    """Dominance straight from the definition: every opponent behavior
    profile, every alternative own behavior."""
    tree = bundle.tree
    n = tree.setting.n
    behaviors = [list(all_behaviors(tree, i)) for i in range(n)]
    for i in range(n):
        others = [behaviors[j] for j in range(n) if j != i]
        for v in bundle.domain.players[i]:
            plan = bundle.strategies[i][v]
            for opp in itertools.product(*others):
                profile = list(opp)
                profile.insert(i, plan)
                leaf1, _ = run(tree, tuple(profile))
                u_plan = leaf_utility(tree, leaf1, i, v)
                for alt in behaviors[i]:
                    profile[i] = alt
                    leaf2, _ = run(tree, tuple(profile))
                    if leaf_utility(tree, leaf2, i, v) > u_plan:
                        return False
                profile[i] = plan
    return True


def oracle_bad_leaf_good_leaf(tree, strategies, domain) -> list:
    """The bad-leaf/good-leaf scan straight from its definition.

    Every ordered pair of realized profiles, every vertex both paths visit,
    every player: no use of the fact that only the split vertex can qualify.
    """
    realized = []
    for profile in itertools.product(*domain.players):
        behaviors = tuple(strategies[i][profile[i]] for i in range(tree.setting.n))
        leaf_id, path = run(tree, behaviors)
        realized.append((profile, behaviors, leaf_id, path))
    out = []
    for (p1, _, leaf1, path1), (p2, _, leaf2, path2) in itertools.product(realized, repeat=2):
        common = set(path1) & set(path2)
        l1, l2 = tree.nodes[leaf1], tree.nodes[leaf2]
        for i in range(tree.setting.n):
            v, v_alt = p1[i], p2[i]
            u_bad = utility(v, l1.allocation[i], l1.payments[i])
            u_good = utility(v, l2.allocation[i], l2.payments[i])
            if not u_bad < u_good:
                continue
            b, b_alt = strategies[i][v], strategies[i][v_alt]
            for nid in common:
                node = tree.nodes[nid]
                if isinstance(node, Leaf) or node.speaker != i:
                    continue
                if b.choices[nid] != b_alt.choices[nid]:
                    out.append(
                        BadGoodViolation(
                            player=i, vertex=nid, profile=p1, alt_profile=p2,
                            leaf=leaf1, alt_leaf=leaf2,
                            utility=u_bad, alt_utility=u_good,
                        )
                    )
    return out


def oracle_decisive(tree, nid, player, bundle, price) -> bool:
    """Decisiveness by explicit enumeration of sub-behaviors below the node."""
    setting = tree.setting
    price = Fraction(price)
    sub_internal = [x for x in tree.internal_ids if nid in tree.path_to(x)]
    mine = [x for x in sub_internal if tree.nodes[x].speaker == player]
    theirs = [x for x in sub_internal if tree.nodes[x].speaker != player]

    def walk(own_map, other_map) -> bool:
        cur = nid
        while not isinstance(tree.nodes[cur], Leaf):
            node = tree.nodes[cur]
            lbl = own_map[cur] if node.speaker == player else other_map[cur]
            cur = node.edges[lbl]
        leaf = tree.nodes[cur]
        return (
            bundle_contains(setting, leaf.allocation[player], bundle)
            and leaf.payments[player] <= price
        )

    my_labels = [sorted(tree.nodes[x].edges) for x in mine]
    their_labels = [sorted(tree.nodes[x].edges) for x in theirs]
    for own in itertools.product(*my_labels):
        own_map = dict(zip(mine, own))
        if all(
            walk(own_map, dict(zip(theirs, rest)))
            for rest in itertools.product(*their_labels)
        ):
            return True
    return False


def oracle_combine(agg, j, blocks, children, masks, insert) -> None:
    """The sibling join as one depth-first pass over every compatible
    combination of child classes, each merged on its own.

    A drop-in for ``_Scan._combine`` (bind ``agg``): compatible choices
    are found with the scan's bitset tables, visited lowest bit first,
    and each complete combination is merged row by row and inserted, so
    classes arrive in stream order with no grouping of prefixes.  Rows are
    read through ``agg.row_of`` and merged rows interned in ``agg.row_ids``;
    violation words are ORed.
    """
    from ospcheck.search import _BIG, _at_most, _set_bits

    lists = [child[0] for child in children]
    indexes = [agg._join_index(child, j) for child in children]
    size = agg.sizes[j]
    members = [[vi for vi in range(size) if b >> vi & 1] for b in blocks]
    owner = [next((t for t, b in enumerate(blocks) if b >> vi & 1), None) for vi in range(size)]
    last = len(blocks)
    chosen: list = []

    def merge(parts):
        out = []
        for jj, ids in enumerate(zip(*parts)):
            if masks[jj] == agg.full[jj]:
                out.append(agg.row_ids[()])
                continue
            rows = [agg.row_of[x] for x in ids]
            row = []
            for vi, pairs in enumerate(zip(*rows)):
                rmins, emaxs = zip(*pairs)
                if jj == j:
                    rmin = _BIG if owner[vi] is None else rmins[owner[vi]]
                else:
                    rmin = min(rmins)
                row.append((rmin, max(emaxs)))
            out.append(agg.row_ids[tuple(row)])
        return tuple(out)

    # allowed[k] is the candidate bitset of level t + k given chosen[:t]
    def rec(t, allowed):
        if t == last:
            count, word = 1, 0
            for c in chosen:
                count *= c[2]
                word |= c[1]
            insert(merge([c[0] for c in chosen]), word, count,
                   ("node", j, blocks, tuple(c[3] for c in chosen)))
            return
        for i in _set_bits(allowed[0]):
            cand = lists[t][i]
            row = agg.row_of[cand[0][j]]
            narrowed = []
            for u in range(t + 1, last):
                bits = allowed[u - t]
                by_emax, by_neg_rmin = indexes[u]
                for vi in members[t]:
                    bits &= _at_most(by_emax[vi], row[vi][0])
                for vi in members[u]:
                    bits &= _at_most(by_neg_rmin[vi], -row[vi][1])
                if not bits:
                    break
                narrowed.append(bits)
            else:
                chosen.append(cand)
                rec(t + 1, tuple(narrowed))
                chosen.pop()

    rec(0, tuple((1 << len(lst)) - 1 for lst in lists))


def _set_partitions(items: tuple):
    """Partitions of ``items`` into two or more blocks: each item joins an
    earlier block in order or opens a new one, so blocks are ordered by their
    first item and partitions by their restricted-growth strings."""
    def grow(k, blocks):
        if k == len(items):
            if len(blocks) >= 2:
                yield tuple(map(tuple, blocks))
            return
        for block in blocks + [[]]:
            block.append(items[k])
            yield from grow(k + 1, blocks if len(block) > 1 else blocks + [block])
            block.pop()

    if items:
        yield from grow(1, [[items[0]]])


def normalized_stream(space):
    """Every member of the search class of ``space``, in stream order.

    A depth-first walk over positions, the players' consistent sets of
    valuations: first every leaf (valid allocations in order, each with every
    vector of grid payments), then, for each player
    whose set has two or more valuations and each partition of it into two
    or more blocks, every choice of one subtree per block at the position
    where her set is that block, the first block's subtree varying slowest.
    Block t is message ``str(t)``, node ids ``u0, u1, ...`` follow preorder,
    and a plan sends the label of the block holding its valuation, else
    ``"0"``.  Payments stay ``Fraction`` grid points throughout.
    """
    domain = space.domain
    setting = domain.setting
    players = domain.players
    leaves = [
        ("leaf", allocation, payments)
        for allocation in enumerate_allocations(setting)
        for payments in itertools.product(space.payment_grid, repeat=setting.n)
    ]

    def subtrees(consistent):
        yield from leaves
        for j, vs in enumerate(consistent):
            for blocks in _set_partitions(vs):
                for subs in children(consistent, j, blocks):
                    yield ("node", j, blocks, subs)

    def children(consistent, j, blocks):
        if not blocks:
            yield ()
            return
        below = consistent[:j] + (blocks[0],) + consistent[j + 1:]
        for sub in subtrees(below):
            for rest in children(consistent, j, blocks[1:]):
                yield (sub,) + rest

    def build(desc):
        nodes = {}
        plans = [{v: {} for v in vs} for vs in players]

        def add(desc):
            nid = f"u{len(nodes)}"
            nodes[nid] = None
            if desc[0] == "leaf":
                nodes[nid] = Leaf(allocation=desc[1], payments=desc[2])
                return nid
            _, j, blocks, subs = desc
            for v in players[j]:
                plans[j][v][nid] = next((str(t) for t, b in enumerate(blocks) if v in b), "0")
            edges = {str(t): add(sub) for t, sub in enumerate(subs)}
            nodes[nid] = InternalNode(speaker=j, edges=dict(sorted(edges.items())))
            return nid

        tree = MechanismTree(setting=setting, nodes=nodes, root=add(desc))
        strategies = tuple(
            {v: Behavior(owner=i, choices=plan) for v, plan in table.items()}
            for i, table in enumerate(plans)
        )
        return MechanismBundle(tree=tree, strategies=strategies, domain=domain)

    for desc in subtrees(tuple(players)):
        yield build(desc)


@dataclass
class OracleScan:
    """What ``oracle_scan`` found: ``members`` stream members built, of
    which ``survivors`` pass OSP, IR and NNT; ``audit`` has the layout of
    ``SearchVerdict.audit``."""

    outcome: str
    counterexample: Optional[MechanismBundle]
    members: int
    survivors: int
    audit: dict


def _payment_bounds(args):
    """``mu_payment_bounds``, or None when the domain is not the adversarial
    multi-unit fixture."""
    try:
        return mu_payment_bounds(*args)
    except ValueError:
        return None


def oracle_scan(space, target, stop_at_first=False) -> OracleScan:
    """The search verdict from every stream member, judged by the checkers alone.

    Each member of ``normalized_stream`` is built and passed to
    ``check_osp``, ``check_ir`` and ``check_nnt``.  A survivor beats a
    ratio when ``welfare_ratio`` is bounded and below it; the first survivor
    beating ``target`` is the counterexample, and with ``stop_at_first`` the
    scan ends there, leaving the counts partial.  On the adversarial
    multi-unit fixture every survivor is audited with ``mu_payment_bounds``:
    a winner at the all-one profile paying more than 1 is a low-bound
    failure, and a survivor beating min(m, n) meets the square-bound premise
    and fails the bound when its all-units winner pays more than k^2.  No
    scaled tables, predicate bitsets or class summaries are shared with
    ``falsify_impossibility``.
    """
    target = Fraction(target)
    setting = space.domain.setting
    audit = {
        "applicable": None,
        "survivors_checked": 0,
        "low_profile_bound_failures": 0,
        "square_bound_premise_met": 0,
        "square_bound_failures": 0,
    }
    members = survivors = 0
    counterexample = None
    for bundle in normalized_stream(space):
        members += 1
        args = bundle.checker_args()
        if audit["applicable"] is None:  # a property of the domain alone
            audit["applicable"] = _payment_bounds(args) is not None
        if not (check_osp(*args).passed and check_ir(*args).passed and check_nnt(*args).passed):
            continue
        survivors += 1
        report = welfare_ratio(*args)
        if audit["applicable"]:
            bounds = _payment_bounds(args)
            premise = not report.unbounded and report.ratio < min(setting.m, setting.n)
            audit["survivors_checked"] += 1
            audit["low_profile_bound_failures"] += not bounds.winners_pay_at_most_one
            audit["square_bound_premise_met"] += premise
            audit["square_bound_failures"] += premise and bounds.all_units_within_square is False
        if counterexample is None and not report.unbounded and report.ratio < target:
            counterexample = bundle
            if stop_at_first:
                break
    outcome = "no-counterexample" if counterexample is None else "counterexample"
    return OracleScan(outcome, counterexample, members, survivors, audit)
