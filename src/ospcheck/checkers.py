"""Deciders for the auction properties, each with replayable witnesses.

Four verdicts (individual rationality, no-negative-transfers, obvious
dominance, dominant strategies), the exact welfare-approximation ratio over
a finite domain, and two proof-machinery scans: the bad-leaf/good-leaf
consistency scan and the first-divergence locator.

Every checker reads the domain in product order (``model.play_profiles``),
so the first witness found is independent of how callers partition the work.

The IR, OSP and DSIC checkers, the bad-leaf scan and the welfare ratio
compare integers: every value and payment they read is scaled by one common
denominator, in a table built once per tree and domain (``_Table``), with
values for the leaves' bundles only: their cost follows the tree, and only
the welfare ratio enumerates the (n+1)^m allocations.  Witnesses and reports
carry the exact ``Fraction`` values.  The table's values, welfare sums and
OPT / SW convention are those of ``ExactValues``, which the search
(``search._Scan``) reads too, so both judge a ratio by one definition.
``opt_welfare``, ``social_welfare`` and ``mu_payment_bounds`` read
``Fraction`` values and stay independent of it.

The table holds each player's utilities under each valuation as one list in
preorder leaf order, and a subtree's leaves are one slice of it
(``MechanismTree.leaf_span``).  So OSP, DSIC and the bad-leaf scan read the
best leaf under a message as the max of a slice, and the worst leaf under a
plan as the min over a slice of the leaves the plan can realize.
The obvious-dominance answer for a player, valuation and plan is kept on the
table, keyed by the plan's labels at the player's nodes, so ``check_dsic``
after ``check_osp`` on one tree reuses every answer ``check_osp`` computed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .model import (
    AuctionSetting,
    Behavior,
    MechanismTree,
    bundle_contains,
    follow,
    plans_of,
    play_profiles,
    players_of,
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


class _AutoDict(dict):
    """A dict that fills itself: a missing key maps to ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        got = self[key] = self.make(key)
        return got


def _scaled(x, scale: int) -> int:
    return x.numerator * (scale // x.denominator)


class ExactValues:
    """The players' values of bundles, and their welfare over the valid
    allocations, as integers over one common denominator.

    ``scale`` is the lcm of the valuations' ``denominator`` and the
    ``payments``' denominators: ``scaled(x)`` stores such a rational, or a
    bundle's value, as an integer and ``exact(y)`` gives it back.
    ``values[i][b]`` is player i's row of values, one per valuation, for
    bundle b.  Like it, the valid ``allocations`` (``enumerate_allocations``
    order) and ``rows[a][i]``, player i's row for her bundle in allocation a,
    are built on first use.  Every loop over the allocations goes through
    ``polled``, which calls ``poll``, if set, at the first allocation and every
    4,096th: the search sets its deadline reader there and walks its own
    tables through ``polled`` too.  ``welfare()`` generates the summed values
    per profile, and ``ratio`` holds the OPT / SW convention.
    """

    def __init__(self, setting: AuctionSetting, players, payments):
        self.setting = setting
        scale = self.scale = lcm(*(v.denominator for vs in players for v in vs),
                                 *(p.denominator for p in payments))
        self.values = [_AutoDict(lambda b, vs=vs: [_scaled(evaluate(v, b), scale) for v in vs])
                       for vs in players]

    poll = None

    @functools.cached_property
    def allocations(self) -> tuple:
        return tuple(self.polled(enumerate_allocations(self.setting)))

    @functools.cached_property
    def rows(self) -> list:
        return [[self.values[i][b] for i, b in enumerate(a)] for a in self.polled(self.allocations)]

    def polled(self, items):
        """``items``, calling ``poll()``, unless None, before the first and every 4,096th."""
        for k, item in enumerate(items):
            if self.poll is not None and not k & 4095:
                self.poll()
            yield item

    def scaled(self, x) -> int:
        return _scaled(x, self.scale)

    def exact(self, y: int) -> Fraction:
        return Fraction(y, self.scale)

    def welfare(self):
        """Per profile, in product order, ``(sums, opt)``: every allocation's
        summed value there and the largest.  Generated, so no allocations x
        profiles table is kept."""
        for sums in zip(*(map(sum, itertools.product(*rows)) for rows in self.polled(self.rows))):
            yield sums, max(sums)

    @staticmethod
    def ratio(sw: int, opt: int) -> Optional[Fraction]:
        """OPT / SW: 1 when both are 0, and None (unbounded) when only SW is."""
        if sw:
            return Fraction(opt, sw)
        return None if opt else Fraction(1)


class _Table(ExactValues):
    """Every utility and value the checkers compare, as exact integers.

    The ``ExactValues`` of the tree's leaf payments.  ``utils[i][vi]`` lists
    player i's scaled utility under her vi-th valuation at each leaf, in
    ``tree.leaf_ids`` order.  ``answers`` keeps ``_osp_violation`` answers
    (``_plan_answer``).
    """

    def __init__(self, tree: MechanismTree, players):
        leaves = [tree.nodes[lid] for lid in tree.leaf_ids]
        super().__init__(tree.setting, players, (p for leaf in leaves for p in leaf.payments))
        self.utils = [[[] for _ in vs] for vs in players]
        for leaf in leaves:
            for us, values, b, p in zip(self.utils, self.values, leaf.allocation, leaf.payments):
                pay = self.scaled(p)
                for u, x in zip(us, values[b]):
                    u.append(x - pay)
        self.answers: dict = {}


def _table(tree: MechanismTree, domain) -> _Table:
    """The table for ``tree`` and the domain's players, kept on the tree and
    reused for that same players object.  Trees and valuations never change,
    so only a mutable players container could go stale: none is kept."""
    players = players_of(domain)
    memo = tree.checker_memo
    if memo is not None and memo[0] is players:
        return memo[1]
    table = _Table(tree, players)
    if isinstance(players, tuple) and all(isinstance(vs, tuple) for vs in players):
        tree.checker_memo = (players, table)
    return table


def check_ir(tree: MechanismTree, strategies: Sequence, domain) -> Verdict:
    """Individual rationality: realized utility is never negative."""
    table = _table(tree, domain)
    realized = play_profiles(tree, strategies, domain)
    for us, (profile, behaviors, leaf_id, _) in zip(itertools.product(*table.utils), realized):
        k = tree.leaf_span(leaf_id)[0]
        for i, u in enumerate(us):
            if u[k] < 0:
                return Verdict(
                    "ir",
                    False,
                    Witness(player=i, valuation=profile[i], profile=profile,
                            behaviors=behaviors, leaf=leaf_id,
                            utility=table.exact(u[k])),
                )
    return Verdict("ir", True)


def check_nnt(tree: MechanismTree, strategies: Sequence, domain) -> Verdict:
    """No negative transfers: realized payments are never negative."""
    for profile, behaviors, leaf_id, _ in play_profiles(tree, strategies, domain):
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


def _off_path(tree: MechanismTree, path: list):
    """Yield ``(vertex, lo, hi)`` for the leaves ``leaf_ids[lo:hi]`` below each vertex
    of ``path`` but off it, in preorder: left of the path shallowest vertex first, then
    right of it deepest vertex first.  A subtree's leaves are contiguous, so each run
    is one slice."""
    spans = [(w, tree.leaf_span(w), tree.leaf_span(c)) for w, c in zip(path, path[1:])]
    for w, (lo_w, _), (lo_c, _) in spans:
        yield w, lo_w, lo_c
    for w, (_, hi_w), (_, hi_c) in reversed(spans):
        yield w, hi_c, hi_w


def _plan_reach(tree: MechanismTree, player: int, behavior: Behavior):
    """``(own, reach)`` while ``player`` follows ``behavior`` and the others roam.
    ``own`` lists her attainable vertices in preorder, each as ``(vertex, lo, hi,
    lo_c, hi_c)``: the leaf spans of the vertex and of the child her plan takes.
    ``reach`` holds a flag per position of ``leaf_ids``, True when she can realize
    that leaf.  Her vertices are visited in preorder, so those above a vertex have
    already cleared the children her plan does not take there: the vertex is
    attainable exactly when its first leaf is still set.  A choice the plan lacks, or
    a label the tree lacks, at an attainable vertex raises ``run()``'s MechanismError."""
    span = tree.leaf_span
    own, reach = [], [True] * len(tree.leaf_ids)
    for nid in tree.nodes_of(player):
        lo, hi = span(nid)
        if reach[lo]:
            lo_c, hi_c = span(follow(behavior, nid, tree.nodes[nid]))
            own.append((nid, lo, hi, lo_c, hi_c))
            if lo < lo_c:
                reach[lo:lo_c] = [False] * (lo_c - lo)
            if hi_c < hi:
                reach[hi_c:hi] = [False] * (hi - hi_c)
    return own, reach


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
            full.setdefault(nid, next(iter(tree.nodes[nid].edges)))
        profile.append(Behavior(owner=i, choices=full))
    return tuple(profile)


def _osp_violation(tree: MechanismTree, player: int, behavior: Behavior, u: list):
    """The first of the player's attainable vertices, in preorder, where following
    ``behavior`` is not obviously dominant for the utilities ``u`` (in ``leaf_ids``
    order), as ``(vertex, own_label, worst, worst_leaf, best, best_leaf, best_label)``;
    None when there is none.

    Below the vertex, the other messages' leaves are the slices of ``u`` left and
    right of the own child's span, and the worst leaf under the plan is the min over
    the leaves of that span that ``reach`` keeps.  Ties keep the first leaf in
    preorder."""
    own, reach = _plan_reach(tree, player, behavior)
    for nid, lo, hi, lo_c, hi_c in own:
        if hi - lo == hi_c - lo_c:  # one message: every child holds a leaf
            continue
        left = u[lo:lo_c]
        best = max(left + u[hi_c:hi])
        worst = min(itertools.compress(u[lo_c:hi_c], reach[lo_c:hi_c]))
        if worst < best:
            worst_leaf = tree.leaf_ids[
                next(k for k in range(lo_c, hi_c) if reach[k] and u[k] == worst)]
            k = u.index(best, lo, lo_c) if best in left else u.index(best, hi_c, hi)
            best_leaf = tree.leaf_ids[k]
            path = tree.path_to(best_leaf)
            best_label = tree.label_into(path[path.index(nid) + 1])
            return nid, behavior.choices[nid], worst, worst_leaf, best, best_leaf, best_label
    return None


def _plan_answer(tree: MechanismTree, table: _Table, player: int, vi: int, behavior: Behavior):
    """``_osp_violation`` for the player's vi-th valuation, kept on ``table``.

    The answer reads the tree, that valuation's utilities and the plan's labels at
    the player's nodes, so those labels, read afresh on every call, key it: a plan
    replaced or changed in place between calls gets its own answer.  A call that
    raises keeps nothing.  Threads sharing a tree may both compute one answer; they
    store equal values."""
    key = (player, vi, tuple(map(behavior.choices.get, tree.nodes_of(player))))
    answers = table.answers
    if key not in answers:
        answers[key] = _osp_violation(tree, player, behavior, table.utils[player][vi])
    return answers[key]


def check_osp(tree: MechanismTree, strategies: Sequence, domain) -> Verdict:
    """Obvious dominance of the given strategies over the domain.

    At every attainable decision vertex with at least two messages, the
    worst leaf still reachable while the owner keeps following her plan must
    be at least as good as the best leaf anywhere under any other message.
    Vertices with a single message impose no constraint.  Both sides are
    read from slices of the player's utilities in preorder leaf order, and
    each (player, valuation, plan) answer is kept on the tree's table for
    :func:`check_dsic` to reuse.
    """
    table = _table(tree, domain)
    for i, (vs, plans) in enumerate(zip(players_of(domain), plans_of(strategies, domain))):
        for vi, (v, behavior) in enumerate(zip(vs, plans)):
            found = _plan_answer(tree, table, i, vi, behavior)
            if found is None:
                continue
            nid, own_label, worst, worst_leaf, best, best_leaf, best_label = found
            bad = _profile_through(tree, [tree.path_to(worst_leaf)], fixed=behavior)
            good = _profile_through(tree, [tree.path_to(nid), tree.path_to(best_leaf)])
            return Verdict(
                "osp",
                False,
                Witness(
                    player=i, vertex=nid, valuation=v,
                    behaviors=bad, alt_behaviors=good,
                    leaf=worst_leaf, alt_leaf=best_leaf,
                    utility=table.exact(worst), alt_utility=table.exact(best),
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
    scan below enumerates those pairs directly.

    Opponents range over all contingent behaviors, so the two sides of a
    split vertex are chosen independently and the verdict is that of
    :func:`check_osp`, per player and valuation: a pair (own leaf, vertex,
    better off-path leaf) is an OSP violation at the vertex and conversely;
    only witnesses differ.  So the pairs are scanned only for a player and
    valuation whose obvious-dominance answer, shared with ``check_osp``
    through the tree's table, flags a vertex; the better leaves off a path
    are slices of the player's utilities in preorder leaf order.  This is
    not the DSIC over opponents' valuations under which VCG is dominant;
    switching to that notion would change verdicts and is not done here.
    """
    table = _table(tree, domain)
    for i, (vs, plans) in enumerate(zip(players_of(domain), plans_of(strategies, domain))):
        for vi, (v, behavior) in enumerate(zip(vs, plans)):
            if _plan_answer(tree, table, i, vi, behavior) is None:
                continue
            u = table.utils[i][vi]
            for k in itertools.compress(range(len(u)), _plan_reach(tree, i, behavior)[1]):
                leaf_id = tree.leaf_ids[k]
                path = tree.path_to(leaf_id)
                for w, lo, hi in _off_path(tree, path):
                    if tree.nodes[w].speaker != i or max(u[lo:hi], default=u[k]) <= u[k]:
                        continue
                    x = next(x for x in range(lo, hi) if u[x] > u[k])
                    other_id = tree.leaf_ids[x]
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
                            utility=table.exact(u[k]),
                            alt_utility=table.exact(u[x]),
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

    Per profile, the ratio is ``ExactValues.ratio`` of the best and the
    reached leaf's welfare on the tree's table: 0/0 counts as 1, and a
    positive OPT over zero realized welfare is unbounded and dominates every
    finite ratio.  Ties keep the first profile.
    """
    table = _table(tree, domain)
    worst = None  # (ratio, profile, sw, opt)
    realized = play_profiles(tree, strategies, domain)
    indices = itertools.product(*(range(len(vs)) for vs in players_of(domain)))
    for (_, opt), vis, (profile, _, leaf_id, _) in zip(table.welfare(), indices, realized):
        sw = sum(vs[b][vi] for vs, b, vi in zip(table.values, tree.nodes[leaf_id].allocation, vis))
        ratio = table.ratio(sw, opt)
        if ratio is None:
            worst = (None, profile, sw, opt)
            break
        if worst is None or ratio > worst[0]:
            worst = (ratio, profile, sw, opt)
    ratio, profile, sw, opt = worst
    return RatioReport(ratio, profile, table.exact(sw), table.exact(opt))


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

    Only leaves some profile reaches can be the second outcome.  So an
    off-path slice of the player's utilities is scanned only when its max
    beats the realized utility, only reached leaves enter ``good``, and the
    profiles are paired only when one does.
    """
    table = _table(tree, domain)
    realized = list(play_profiles(tree, strategies, domain))
    reach = {leaf for _, _, leaf, _ in realized}
    leaf_ids = tree.leaf_ids
    runs: dict = {}  # realized leaf -> (its position, nonempty off-path slices of its path)
    out = []
    # product order over the tables matches the realized profiles' order
    for us, (p1, _, leaf1, path1) in zip(itertools.product(*table.utils), realized):
        got = runs.get(leaf1)
        if got is None:
            got = runs[leaf1] = (tree.leaf_span(leaf1)[0], [
                (w, tree.nodes[w].speaker, lo, hi) for w, lo, hi in _off_path(tree, path1) if lo < hi])
        k1, spans = got
        good = {}  # leaf -> (player, vertex, bad utility, good utility)
        for w, i, lo, hi in spans:
            u = us[i]
            bad = u[k1]
            if max(u[lo:hi]) > bad:
                good.update((leaf_ids[x], (i, w, bad, u[x])) for x in range(lo, hi)
                            if bad < u[x] and leaf_ids[x] in reach)
        if not good:
            continue
        for p2, _, leaf2, _ in realized:
            if leaf2 in good:
                i, w, u_bad, u_good = good[leaf2]
                out.append(BadGoodViolation(i, w, p1, p2, leaf1, leaf2,
                                            table.exact(u_bad), table.exact(u_good)))
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
    position; there the first profile and the first to take another label
    are reported.  Returns None when every profile reaches the same leaf.
    """
    firsts: dict = {}  # vertex -> {label taken there: first profile taking it}
    for profile, _, _, path in play_profiles(tree, strategies, subsets):
        for w, x in zip(path, path[1:]):
            firsts.setdefault(w, {}).setdefault(tree.label_into(x), profile)
    for nid in tree.bfs_internal():
        taken = firsts.get(nid, {})
        if len(taken) > 1:
            (label, profile), (alt_label, alt_profile) = itertools.islice(taken.items(), 2)
            i = tree.nodes[nid].speaker
            return Divergence(vertex=nid, player=i, valuations=(profile[i], alt_profile[i]),
                              labels=(label, alt_label))
    return None


@dataclass(frozen=True)
class PaymentBoundReport:
    """Realized payments at the two profiles the payment-bound argument constrains."""

    all_one_winners: tuple          # (player, payment) at the all-one profile
    winners_pay_at_most_one: bool
    all_units_winner: Optional[tuple]  # (player, payment) if someone wins all units
    all_units_within_square: Optional[bool]


def _mu_fixture_bounds(setting: AuctionSetting, players: tuple) -> Optional[tuple]:
    """Payment bounds of the adversarial multi-unit fixture, as entries
    ``(profile, bundle, cap)``: at ``profile`` a bidder whose bundle covers
    ``bundle`` (``model.bundle_contains``) pays at most ``cap``.  At the
    all-one profile, every player holding the one-unit value-1 valuation,
    any winner pays at most 1; at the spike profile, where the first player
    who can demand all m units at value k^4 holds that valuation instead, a
    winner of all m units pays at most k^2.  None off the fixture.
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
    return (all_one, 1, Fraction(1)), (spike, setting.m, k**2)


def mu_payment_bounds(tree: MechanismTree, strategies: Sequence, domain: Domain) -> PaymentBoundReport:
    """Check the payment bounds of ``_mu_fixture_bounds`` on one mechanism.

    Any winner at the all-one profile pays at most 1, and a winner of all m
    units at the spike profile at most k^2; that second bound presumes the
    mechanism's ratio beats min(m, n), which the caller establishes.
    """
    setting = tree.setting
    bounds = _mu_fixture_bounds(setting, players_of(domain))
    if bounds is None:
        raise ValueError("domain is not the adversarial multi-unit fixture")
    (all_one, one, cap_one), (spike, everything, square) = bounds

    def winners(profile, bundle) -> tuple:
        ((_, _, leaf_id, _),) = play_profiles(tree, strategies, [(v,) for v in profile])
        leaf = tree.nodes[leaf_id]
        return tuple(
            (i, pay) for i, (got, pay) in enumerate(zip(leaf.allocation, leaf.payments))
            if bundle_contains(setting, got, bundle)
        )

    low = winners(all_one, one)
    all_units = next(iter(winners(spike, everything)), None)
    return PaymentBoundReport(
        all_one_winners=low,
        winners_pay_at_most_one=all(p <= cap_one for _, p in low),
        all_units_winner=all_units,
        all_units_within_square=None if all_units is None else all_units[1] <= square,
    )
