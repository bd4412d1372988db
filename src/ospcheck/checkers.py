"""Deciders for the auction properties, each with replayable witnesses.

Four verdicts (individual rationality, no-negative-transfers, obvious
dominance, dominant strategies), the exact welfare-approximation ratio over
a finite domain, and two proof-machinery scans: the bad-leaf/good-leaf
consistency scan and the first-divergence locator.

Every checker walks the supplied domain in deterministic product order, so
the first witness found is independent of how callers partition the work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from .model import (
    AuctionSetting,
    Behavior,
    InternalNode,
    Leaf,
    MechanismTree,
    bundle_contains,
    bundle_is_empty,
    run,
)
from .valuations import Domain, SingleMindedMU, evaluate


def utility(valuation, bundle, payment) -> Fraction:
    return evaluate(valuation, bundle) - payment


@dataclass(frozen=True)
class Witness:
    """Concrete violating data; every field optional, absent ones are None."""

    player: Optional[int] = None
    vertex: Optional[str] = None
    valuation: object = None
    profile: Optional[tuple] = None
    alt_profile: Optional[tuple] = None
    behaviors: Optional[tuple] = None
    alt_behaviors: Optional[tuple] = None
    leaf: Optional[str] = None
    alt_leaf: Optional[str] = None
    utility: Optional[Fraction] = None
    alt_utility: Optional[Fraction] = None
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    prop: str
    passed: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class RatioReport:
    """Worst-case OPT / realized-welfare over a finite domain.

    ``ratio`` is None when some profile realizes zero welfare while the
    optimum is positive (unbounded).  A profile with zero welfare on both
    sides counts as ratio 1.
    """

    ratio: Optional[Fraction]
    worst_profile: Optional[tuple]
    mechanism_welfare: Optional[Fraction]
    optimum: Optional[Fraction]

    @property
    def unbounded(self) -> bool:
        return self.ratio is None


def _players(domain) -> tuple:
    return getattr(domain, "players", domain)


def _realized(tree: MechanismTree, strategies: Sequence, domain):
    """Yield (profile, behaviors, leaf_id, path) in deterministic order.

    Plans are looked up once per player and valuation, then walked by
    position in the same product order as the profiles: hashing a valuation
    per profile would hash every ``Fraction`` in it each time.
    """
    players = _players(domain)
    plans = [[strategies[i][v] for v in vs] for i, vs in enumerate(players)]
    for profile, behaviors in zip(itertools.product(*players), itertools.product(*plans)):
        leaf_id, path = run(tree, behaviors)
        yield profile, behaviors, leaf_id, path


def check_ir(tree: MechanismTree, strategies: Sequence, domain) -> Verdict:
    """Individual rationality: realized utility is never negative."""
    for profile, behaviors, leaf_id, _ in _realized(tree, strategies, domain):
        leaf = tree.nodes[leaf_id]
        for i, v in enumerate(profile):
            u = utility(v, leaf.allocation[i], leaf.payments[i])
            if u < 0:
                return Verdict(
                    "ir",
                    False,
                    Witness(player=i, valuation=v, profile=profile,
                            behaviors=behaviors, leaf=leaf_id, utility=u),
                )
    return Verdict("ir", True)


def check_nnt(tree: MechanismTree, strategies: Sequence, domain) -> Verdict:
    """No negative transfers: realized payments are never negative."""
    for profile, behaviors, leaf_id, _ in _realized(tree, strategies, domain):
        leaf = tree.nodes[leaf_id]
        for i, p in enumerate(leaf.payments):
            if p < 0:
                return Verdict(
                    "nnt",
                    False,
                    Witness(player=i, profile=profile, behaviors=behaviors,
                            leaf=leaf_id, utility=-p,
                            note="player is paid by the mechanism"),
                )
    return Verdict("nnt", True)


class _Utilities(dict):
    """One player's utility under one valuation, per leaf id, computed on first use."""

    def __init__(self, tree: MechanismTree, player: int, valuation):
        self.nodes, self.player, self.valuation = tree.nodes, player, valuation

    def __missing__(self, lid: str) -> Fraction:
        leaf, i = self.nodes[lid], self.player
        u = self[lid] = utility(self.valuation, leaf.allocation[i], leaf.payments[i])
        return u


def _off_path(tree: MechanismTree, path: list):
    """Yield ``(vertex, leaves)`` per subtree branching off ``path`` at ``vertex``, in
    preorder: subtrees left of the path shallowest first, then right of it deepest first."""
    left, right = [], []
    for w, nxt in zip(path, path[1:]):
        children = list(tree.nodes[w].edges.values())
        k = children.index(nxt)
        left += [(w, c) for c in children[:k]]
        right[:0] = [(w, c) for c in children[k + 1:]]
    for w, c in left + right:
        yield w, tree.subtree_leaves(c)


def _consistent_reach(tree: MechanismTree, player: int, behavior: Behavior):
    """Nodes reachable when ``player`` follows ``behavior`` and others roam.

    Exactly the vertices attainable given the behavior, plus the leaves the
    player can realize with it.
    """
    visited = []
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        visited.append(nid)
        node = tree.nodes[nid]
        if isinstance(node, Leaf):
            continue
        if node.speaker == player:
            child = node.edges.get(behavior.choices[nid])
            stack.append(child)
        else:
            stack.extend(reversed(list(node.edges.values())))
    return visited


def _osp_stats(tree: MechanismTree, player: int, behavior: Behavior, u: _Utilities):
    """Per-node (min, argmin-leaf) of the player's utility over leaves she can still
    reach from that node while following ``behavior`` at her own nodes, and per-node
    (max, argmax-leaf) over all leaves below; ties keep the first leaf in preorder."""
    fmin: dict = {}
    amax: dict = {}
    for nid in reversed(tree.preorder):
        node = tree.nodes[nid]
        if isinstance(node, Leaf):
            fmin[nid] = amax[nid] = (u[nid], nid)
            continue
        children = node.edges.values()
        amax[nid] = max((amax[c] for c in children), key=itemgetter(0))
        if node.speaker == player:
            fmin[nid] = fmin[node.edges[behavior.choices[nid]]]
        else:
            fmin[nid] = min((fmin[c] for c in children), key=itemgetter(0))
    return fmin, amax


def _first_label(node: InternalNode) -> str:
    return next(iter(node.edges))


def _profile_through(tree: MechanismTree, paths, fixed=None) -> tuple:
    """A full behavior profile routing along every path in ``paths``.

    Paths must be pairwise consistent (tree paths from the root are, once
    they diverge they never remeet).  ``fixed`` optionally pins one player's
    entire behavior.  Off-path nodes take their first edge label.
    """
    n = tree.setting.n
    choices: list = [dict() for _ in range(n)]
    for path in paths:
        for nid, nxt in zip(path, path[1:]):
            choices[tree.nodes[nid].speaker][nid] = tree.label_into(nxt)
    profile = []
    for i in range(n):
        if fixed is not None and fixed.owner == i:
            profile.append(fixed)
            continue
        full = dict(choices[i])
        for nid in tree.nodes_of(i):
            full.setdefault(nid, _first_label(tree.nodes[nid]))
        profile.append(Behavior(owner=i, choices=full))
    return tuple(profile)


def check_osp(tree: MechanismTree, strategies: Sequence, domain) -> Verdict:
    """Obvious dominance of the given strategies over the domain.

    At every attainable decision vertex with at least two messages, the
    worst leaf still reachable while the owner keeps following her plan must
    be at least as good as the best leaf anywhere under any other message.
    Vertices with a single message impose no constraint.
    """
    for i in range(tree.setting.n):
        for v in _players(domain)[i]:
            behavior = strategies[i][v]
            reach = set(_consistent_reach(tree, i, behavior))
            fmin, amax = _osp_stats(tree, i, behavior, _Utilities(tree, i, v))
            for nid in tree.nodes_of(i):
                node = tree.nodes[nid]
                if nid not in reach or len(node.edges) < 2:
                    continue
                own_label = behavior.choices[nid]
                worst, worst_leaf = fmin[node.edges[own_label]]
                best, best_leaf, best_label = None, None, None
                for lbl, child in node.edges.items():
                    if lbl == own_label:
                        continue
                    m, ml = amax[child]
                    if best is None or m > best:
                        best, best_leaf, best_label = m, ml, lbl
                if best is not None and worst < best:
                    bad = _profile_through(tree, [tree.path_to(worst_leaf)], fixed=behavior)
                    good = _profile_through(
                        tree, [tree.path_to(nid), tree.path_to(best_leaf)]
                    )
                    return Verdict(
                        "osp",
                        False,
                        Witness(
                            player=i, vertex=nid, valuation=v,
                            behaviors=bad, alt_behaviors=good,
                            leaf=worst_leaf, alt_leaf=best_leaf,
                            utility=worst, alt_utility=best,
                            note=f"following sends {own_label!r}, deviating to "
                                 f"{best_label!r} can end strictly better",
                        ),
                    )
    return Verdict("osp", True)


def check_dsic(tree: MechanismTree, strategies: Sequence, domain) -> Verdict:
    """Dominant-strategy incentive compatibility over the domain.

    Quantifies over every opponent behavior profile and every alternative
    behavior of the player.  A pair of leaves (realized one following the
    plan, better one after a unilateral deviation) certifies a violation
    exactly when the paths to them split at a vertex the player owns; the
    scan below enumerates those pairs directly, computing each utility once
    per (valuation, leaf) in a call.
    """
    for i in range(tree.setting.n):
        for v in _players(domain)[i]:
            behavior = strategies[i][v]
            u = _Utilities(tree, i, v)
            reach = _consistent_reach(tree, i, behavior)
            own_leaves = [nid for nid in reach if isinstance(tree.nodes[nid], Leaf)]
            for leaf_id in own_leaves:
                path = tree.path_to(leaf_id)
                for w, others in _off_path(tree, path):
                    if tree.nodes[w].speaker != i:
                        continue
                    other_id = next((x for x in others if u[x] > u[leaf_id]), None)
                    if other_id is None:
                        continue
                    other_path = tree.path_to(other_id)
                    opponents = _profile_through(tree, [path, other_path], fixed=behavior)
                    alt = _profile_through(tree, [other_path])
                    return Verdict(
                        "dsic",
                        False,
                        Witness(
                            player=i, vertex=w, valuation=v,
                            behaviors=opponents, alt_behaviors=alt,
                            leaf=leaf_id, alt_leaf=other_id,
                            utility=u[leaf_id], alt_utility=u[other_id],
                            note="a unilateral deviation beats the plan "
                                 "against fixed opponent behaviors",
                        ),
                    )
    return Verdict("dsic", True)


def enumerate_allocations(setting: AuctionSetting):
    """All valid allocations, in a fixed lexicographic order."""
    if setting.is_combinatorial:
        owners = (-1,) + tuple(range(setting.n))
        for assignment in itertools.product(owners, repeat=setting.m):
            yield tuple(
                frozenset(j for j, who in enumerate(assignment) if who == i)
                for i in range(setting.n)
            )
    else:
        for quantities in itertools.product(range(setting.m + 1), repeat=setting.n):
            if sum(quantities) <= setting.m:
                yield quantities


def opt_welfare(profile: Sequence, setting: AuctionSetting):
    """Maximum social welfare over all valid allocations, by brute force.

    Returns ``(welfare, allocation)``; ties keep the first allocation in
    enumeration order.
    """
    best, best_alloc = None, None
    for alloc in enumerate_allocations(setting):
        w = sum((evaluate(v, alloc[i]) for i, v in enumerate(profile)), Fraction(0))
        if best is None or w > best:
            best, best_alloc = w, alloc
    return best, best_alloc


def social_welfare(profile: Sequence, allocation) -> Fraction:
    return sum((evaluate(v, allocation[i]) for i, v in enumerate(profile)), Fraction(0))


def welfare_ratio(tree: MechanismTree, strategies: Sequence, domain) -> RatioReport:
    """Exact worst-case OPT over realized welfare across the domain.

    Conventions: 0/0 counts as 1; positive OPT over zero realized welfare is
    unbounded and dominates every finite ratio.
    """
    setting = tree.setting
    worst = None  # (ratio or None-for-unbounded, profile, sw, opt)
    for profile, _, leaf_id, _ in _realized(tree, strategies, domain):
        leaf = tree.nodes[leaf_id]
        sw = social_welfare(profile, leaf.allocation)
        opt, _ = opt_welfare(profile, setting)
        if sw == 0:
            ratio = None if opt > 0 else Fraction(1)
        else:
            ratio = opt / sw
        if ratio is None:
            return RatioReport(None, profile, sw, opt)
        if worst is None or ratio > worst[0]:
            worst = (ratio, profile, sw, opt)
    assert worst is not None
    return RatioReport(*worst)


@dataclass(frozen=True)
class BadGoodViolation:
    """A vertex where a strictly worse outcome fails to pin the message."""

    player: int
    vertex: str
    profile: tuple
    alt_profile: tuple
    leaf: str
    alt_leaf: str
    utility: Fraction
    alt_utility: Fraction


def scan_bad_leaf_good_leaf(tree: MechanismTree, strategies: Sequence, domain) -> list:
    """All witnesses against the same-message consequence of obviousness.

    Finds every (player, vertex, profile pair) where both realized paths
    visit the vertex, the first outcome is strictly worse for the player's
    valuation in the first profile, and yet her plan sends different
    messages there.  Above their split vertex both paths take the same edge,
    so both plans send the same message: only the split vertex and its
    speaker can qualify, and the scan checks nothing else.  Any obviously
    dominant plan yields an empty list.
    """
    realized = list(_realized(tree, strategies, domain))
    rows = [[_Utilities(tree, i, v) for v in vs] for i, vs in enumerate(_players(domain))]
    out = []
    # product order over the tables matches the realized profiles' order
    for us, (p1, _, leaf1, path1) in zip(itertools.product(*rows), realized):
        good = {}  # leaf -> (player, vertex, bad utility, good utility)
        for w, leaves in _off_path(tree, path1):
            i = tree.nodes[w].speaker
            u = us[i]
            good.update((x, (i, w, u[leaf1], u[x])) for x in leaves if u[leaf1] < u[x])
        if not good:
            continue
        for p2, _, leaf2, _ in realized:
            if leaf2 in good:
                i, w, u_bad, u_good = good[leaf2]
                out.append(BadGoodViolation(i, w, p1, p2, leaf1, leaf2, u_bad, u_good))
    return out


@dataclass(frozen=True)
class Divergence:
    vertex: str
    player: int
    valuations: tuple
    labels: tuple


def first_divergence(tree: MechanismTree, strategies: Sequence, subsets) -> Optional[Divergence]:
    """Shallowest vertex where two profiles from the subsets part ways.

    Vertices are scanned breadth-first with ties broken by preorder
    position.  Returns None when every profile reaches the same leaf.
    """
    routes = []  # (profile, label taken out of each internal node on its path)
    for profile, _, _, path in _realized(tree, strategies, subsets):
        routes.append((profile, {w: tree.label_into(x) for w, x in zip(path, path[1:])}))
    for nid in tree.bfs_internal():
        node = tree.nodes[nid]
        taken = [(profile, out[nid]) for profile, out in routes if nid in out]
        if not taken:
            continue
        first_label = taken[0][1]
        for profile, lbl in taken[1:]:
            if lbl != first_label:
                return Divergence(
                    vertex=nid,
                    player=node.speaker,
                    valuations=(taken[0][0][node.speaker], profile[node.speaker]),
                    labels=(first_label, lbl),
                )
    return None


@dataclass(frozen=True)
class PaymentBoundReport:
    """Realized payments at the two profiles the payment-bound argument constrains."""

    all_one_winners: tuple          # (player, payment) at the all-one profile
    winners_pay_at_most_one: bool
    all_units_winner: Optional[tuple]  # (player, payment) if someone wins all units
    all_units_within_square: Optional[bool]
    k: Fraction


def _mu_fixture_profiles(setting: AuctionSetting, players: tuple) -> Optional[tuple]:
    """(all-one, spike) profiles of the adversarial multi-unit fixture.

    The all-one profile gives every player the one-unit value-1 valuation;
    the spike profile gives the first player who can demand all m units at
    value k^4 that valuation instead.  None when the domain is not that
    fixture.
    """
    if setting.is_combinatorial:
        return None
    k = Fraction(max(setting.m, setting.n))
    one = SingleMindedMU(quantity=1, value=Fraction(1))
    all_v = SingleMindedMU(quantity=setting.m, value=k**4)
    if any(one not in vs for vs in players):
        return None
    featured = next((i for i, vs in enumerate(players) if all_v in vs), None)
    if featured is None:
        return None
    all_one = tuple(one for _ in players)
    spike = tuple(all_v if i == featured else one for i in range(len(players)))
    return all_one, spike


def mu_payment_bounds(tree: MechanismTree, strategies: Sequence, domain: Domain) -> PaymentBoundReport:
    """Check the payment bounds at the adversarial multi-unit profiles.

    At the profile where everyone is a one-unit value-1 bidder, any winner
    must pay at most 1.  At the profile where the first featured bidder
    demands everything (value k^4) against one-unit rivals, a bidder who
    wins all m units should pay at most k^2; that second bound additionally
    presumes the mechanism's ratio beats min(m, n), which the caller is
    responsible for establishing.
    """
    setting = tree.setting
    profiles = _mu_fixture_profiles(setting, _players(domain))
    if profiles is None:
        raise ValueError("domain is not the adversarial multi-unit fixture")
    all_one, spike = profiles
    m = setting.m
    k = Fraction(max(setting.m, setting.n))

    def outcome(profile):
        behaviors = tuple(strategies[i][profile[i]] for i in range(setting.n))
        leaf_id, _ = run(tree, behaviors)
        leaf = tree.nodes[leaf_id]
        return leaf.allocation, leaf.payments

    alloc, pays = outcome(all_one)
    winners = tuple(
        (i, pays[i]) for i in range(setting.n) if not bundle_is_empty(setting, alloc[i])
    )
    bound_one = all(p <= 1 for _, p in winners)

    alloc2, pays2 = outcome(spike)
    all_units = next(
        ((i, pays2[i]) for i in range(setting.n) if bundle_contains(setting, alloc2[i], m)),
        None,
    )
    within = None if all_units is None else all_units[1] <= k**2
    return PaymentBoundReport(
        all_one_winners=winners,
        winners_pay_at_most_one=bound_one,
        all_units_winner=all_units,
        all_units_within_square=within,
        k=k,
    )
