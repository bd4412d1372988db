"""Verified constructors for the concrete mechanisms used throughout.

Each constructor returns a :class:`MechanismBundle`: the protocol tree, the
truthful strategy table of every player, and the domain those strategies
cover.  The bundles are ready for the property checkers.  Prices are read
by ``model.read_rational`` and counts by ``model.read_int``, as in a file:
a float or a bool raises MechanismError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    COMBINATORIAL,
    AuctionSetting,
    Behavior,
    MechanismError,
    MechanismTree,
    build_tree,
    plans_of,
    read_int,
    read_rational,
    validate_strategy,
)
from .valuations import (
    AdditiveValuation,
    Domain,
    SingleMindedCA,
    SingleMindedMU,
    evaluate,
    restricted_additive_domain,
)


@dataclass(frozen=True)
class MechanismBundle:
    """A tree together with total strategies over an intended domain."""

    tree: MechanismTree
    strategies: tuple
    domain: Domain

    def __post_init__(self):
        if len(self.strategies) != self.tree.setting.n:
            raise MechanismError("need one strategy table per player")
        plans_of(self.strategies, self.domain)
        for i, table in enumerate(self.strategies):
            validate_strategy(self.tree, i, table)

    def checker_args(self):
        return self.tree, self.strategies, self.domain


class _Choices:
    """Accumulates per-(player, valuation) message choices while building."""

    def __init__(self, domain: Domain):
        self.domain = domain
        self.maps = [[dict() for _ in vs] for vs in domain.players]

    def record(self, node_id: str, player: int, decide) -> None:
        for vi, v in enumerate(self.domain.players[player]):
            self.maps[player][vi][node_id] = decide(v)

    def tables(self) -> tuple:
        out = []
        for i, vs in enumerate(self.domain.players):
            out.append(
                {v: Behavior(owner=i, choices=self.maps[i][vi]) for vi, v in enumerate(vs)}
            )
        return tuple(out)


def second_price_single_item(K: int, tiebreak_winner: int = 0) -> MechanismBundle:
    """Sequential second-price auction of one item between two bidders.

    Player 0 announces a value in 1..K, player 1 responds, the higher
    announcement wins (ties go to ``tiebreak_winner``), and the winner pays
    the other's announcement.  Node names follow the usual two-level
    picture: internal N1..N{K+1}, leaves L1..L{K*K}.

    Truthful play is obviously dominant only for the two-value instance
    with ties to the responder: with a third value the responder can reward
    overbidding after seeing it, and with ties to the first speaker she
    gains by underbidding into a cheap tie.  The constructor builds the
    tree for any K; run the checkers to see exactly where obviousness dies.
    """
    if read_int(K) < 1:
        raise MechanismError("K must be at least 1")
    setting = AuctionSetting(kind=COMBINATORIAL, n=2, m=1)
    if read_int(tiebreak_winner) not in (0, 1):
        raise MechanismError("tiebreak winner must be a player id")

    def leaf(a: int, b: int) -> dict:
        if a > b:
            winner, price = 0, b
        elif b > a:
            winner, price = 1, a
        else:
            winner, price = tiebreak_winner, a
        alloc = [frozenset(), frozenset()]
        alloc[winner] = frozenset({0})
        pays = [Fraction(0), Fraction(0)]
        pays[winner] = Fraction(price)
        return {
            "id": f"L{(a - 1) * K + b}",
            "allocation": alloc,
            "payments": pays,
        }

    spec = {
        "id": "N1",
        "speaker": 0,
        "edges": {
            str(a): {
                "id": f"N{a + 1}",
                "speaker": 1,
                "edges": {str(b): leaf(a, b) for b in range(1, K + 1)},
            }
            for a in range(1, K + 1)
        },
    }
    tree = build_tree(spec, setting)

    domain = Domain(
        setting=setting,
        players=tuple(
            tuple(AdditiveValuation(values=(Fraction(t),)) for t in range(1, K + 1))
            for _ in range(2)
        ),
    )
    choices = _Choices(domain)
    choices.record("N1", 0, lambda v: str(v.values[0]))
    for a in range(1, K + 1):
        choices.record(f"N{a + 1}", 1, lambda v: str(v.values[0]))
    return MechanismBundle(tree=tree, strategies=choices.tables(), domain=domain)


def _default_clock_domain(setting: AuctionSetting, K: int) -> Domain:
    if setting.is_combinatorial:
        grand = frozenset(range(setting.m))
        vals = tuple(SingleMindedCA(bundle=grand, value=Fraction(t)) for t in range(1, K + 1))
    else:
        vals = tuple(SingleMindedMU(quantity=setting.m, value=Fraction(t)) for t in range(1, K + 1))
    return Domain(setting=setting, players=tuple(vals for _ in range(setting.n)))


def grand_bundle_ascending(setting: AuctionSetting, K: int, domain: Domain = None) -> MechanismBundle:
    """Clock auction selling all items as one indivisible prize.

    The price climbs 1..K; at each price the bidders still in are asked, in
    ascending index order, to stay or quit.  A bidder who quits is out for
    good; the moment a single bidder is left she wins the grand bundle at
    the last price she accepted.  If several bidders stay through price K,
    the lowest-indexed of them wins at K.  Truthful play stays while the
    price is at most the value of the grand bundle.
    """
    if read_int(K) < 1:
        raise MechanismError("K must be at least 1")
    if domain is None:
        domain = _default_clock_domain(setting, K)
    prize = setting.grand_bundle()
    empty = setting.empty_bundle()
    n = setting.n
    choices = _Choices(domain)
    seq = itertools.count()

    def leaf(winner: int, price: int) -> dict:
        alloc = [empty] * n
        alloc[winner] = prize
        pays = [Fraction(0)] * n
        pays[winner] = Fraction(price)
        return {"allocation": alloc, "payments": pays}

    def build(price: int, in_play: tuple, to_ask: tuple) -> dict:
        if len(in_play) == 1:
            winner = in_play[0]
            paid = price - 1 if winner in to_ask else price
            return leaf(winner, paid)
        if not to_ask:
            if price == K:
                return leaf(min(in_play), K)
            return build(price + 1, in_play, in_play)
        bidder = to_ask[0]
        # histories can revisit the same (price, bidder); the sequence number
        # keeps ids unique and construction-order stable
        nid = f"p{price}.b{bidder}.{next(seq)}"
        choices.record(nid, bidder, lambda v: "stay" if price <= evaluate(v, prize) else "quit")
        rest = to_ask[1:]
        return {
            "id": nid,
            "speaker": bidder,
            "edges": {
                "stay": build(price, in_play, rest),
                "quit": build(price, tuple(p for p in in_play if p != bidder), rest),
            },
        }

    if n == 1:
        spec = leaf(0, 1)
    else:
        spec = build(1, tuple(range(n)), tuple(range(n)))
    del build  # the closure refers to itself: a reference cycle until deleted
    tree = build_tree(spec, setting)
    return MechanismBundle(tree=tree, strategies=choices.tables(), domain=domain)


def ascending_single_item(K: int, n: int = 2) -> MechanismBundle:
    """Ascending clock auction of a single item among ``n`` bidders."""
    K = read_int(K)
    setting = AuctionSetting(kind=COMBINATORIAL, n=n, m=1)
    values = tuple(AdditiveValuation(values=(Fraction(t),)) for t in range(1, K + 1))
    return grand_bundle_ascending(setting, K, domain=Domain(setting=setting, players=(values,) * n))


def serial_posted_price(x_l, x_h, setting: AuctionSetting) -> MechanismBundle:
    """Two-round posted-price mechanism with every item priced at ``x_l``.

    Round one walks the players in index order; each is asked, item by
    remaining item, whether her value for it is the high one, taking it at
    price ``x_l`` on a yes.  Round two repeats the walk (takers included)
    for the remaining items at the same price, now asking for the low
    value.  On the restricted additive domain the realized outcome always
    maximizes welfare.
    """
    x_l, x_h = read_rational(x_l), read_rational(x_h)
    if not 0 < x_l < x_h:
        raise MechanismError("need 0 < x_l < x_h")
    if not setting.is_combinatorial:
        raise MechanismError("posted-price mechanism is combinatorial")
    domain = restricted_additive_domain(x_l, x_h, setting)
    n, m = setting.n, setting.m
    choices = _Choices(domain)
    seq = itertools.count()

    def leaf(taken: tuple) -> dict:
        alloc = [frozenset(owned) for owned in taken]
        pays = [x_l * len(owned) for owned in taken]
        return {"allocation": alloc, "payments": pays}

    def build(rnd: int, player: int, remaining: tuple, idx: int, taken: tuple) -> dict:
        if not remaining or (player >= n and rnd == 2):
            return leaf(taken)
        if idx >= len(remaining):
            return build(rnd, player + 1, remaining, 0, taken)
        if player >= n:
            return build(2, 0, remaining, 0, taken)
        item = remaining[idx]
        nid = f"r{rnd}.p{player}.e{item}.{next(seq)}"
        if rnd == 1:
            choices.record(nid, player, lambda v: "yes" if v.values[item] == x_h else "no")
        else:
            choices.record(nid, player, lambda v: "yes" if v.values[item] >= x_l else "no")
        took = list(taken)
        took[player] = taken[player] + (item,)
        return {
            "id": nid,
            "speaker": player,
            "edges": {
                "yes": build(rnd, player, tuple(j for j in remaining if j != item), idx, tuple(took)),
                "no": build(rnd, player, remaining, idx + 1, taken),
            },
        }

    spec = build(1, 0, tuple(range(m)), 0, tuple(() for _ in range(n)))
    del build  # the closure refers to itself: a reference cycle until deleted
    tree = build_tree(spec, setting)
    return MechanismBundle(tree=tree, strategies=choices.tables(), domain=domain)
