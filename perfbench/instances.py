"""Seeded random mechanism instances for the ``check-sweep`` workload.

The generator follows the same recipe as the test suite's random instances
(depth-3 trees, at most three valuations per player, arbitrary rather than
truthful strategies) but lives here, so that the benchmark's inputs only
change when the benchmark does.  ``oc`` is the freshly imported
``ospcheck`` package: each set-up imports it again.
"""

from __future__ import annotations

import random
from fractions import Fraction

PAY_LEVELS = [Fraction(0), Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
VALUE_STEPS = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]


def _setting(oc, rng: random.Random):
    kind = rng.choice(["combinatorial", "multi-unit"])
    return oc.AuctionSetting(kind=kind, n=rng.randint(1, 2), m=rng.randint(1, 2))


def _valuation(oc, rng: random.Random, setting):
    if setting.is_combinatorial:
        values = [Fraction(0)] * (1 << setting.m)
        for mask in range(1, 1 << setting.m):
            floor = max(values[mask & ~(1 << j)] for j in range(setting.m) if mask >> j & 1)
            values[mask] = floor + rng.choice(VALUE_STEPS)
        return oc.GeneralCA(values=tuple(values))
    values = [Fraction(0)]
    for _ in range(setting.m):
        values.append(values[-1] + rng.choice(VALUE_STEPS))
    return oc.GeneralMU(values=tuple(values))


def _allocation(rng: random.Random, setting) -> list:
    if setting.is_combinatorial:
        pools = [set() for _ in range(setting.n)]
        for j in range(setting.m):
            who = rng.randint(-1, setting.n - 1)
            if who >= 0:
                pools[who].add(j)
        return [frozenset(p) for p in pools]
    remaining = setting.m
    out = []
    for _ in range(setting.n):
        q = rng.randint(0, remaining)
        out.append(q)
        remaining -= q
    return out


def _tree_spec(rng: random.Random, setting, depth: int) -> dict:
    if depth == 0 or rng.random() < 0.35:
        return {
            "allocation": _allocation(rng, setting),
            "payments": [rng.choice(PAY_LEVELS) for _ in range(setting.n)],
        }
    return {
        "speaker": rng.randrange(setting.n),
        "edges": {
            str(lbl): _tree_spec(rng, setting, depth - 1) for lbl in range(rng.randint(2, 3))
        },
    }


def random_bundle(oc, rng: random.Random, max_depth: int = 3, max_domain: int = 3):
    """One (tree, strategies, domain) bundle drawn from ``rng``."""
    setting = _setting(oc, rng)
    tree = oc.build_tree(_tree_spec(rng, setting, max_depth), setting)
    players = tuple(
        tuple(_valuation(oc, rng, setting) for _ in range(rng.randint(1, max_domain)))
        for _ in range(setting.n)
    )
    strategies = []
    for i in range(setting.n):
        table = {}
        for v in players[i]:
            choices = {nid: rng.choice(sorted(tree.nodes[nid].edges)) for nid in tree.nodes_of(i)}
            table[v] = oc.Behavior(owner=i, choices=choices)
        strategies.append(table)
    domain = oc.Domain(setting=setting, players=players)
    return oc.MechanismBundle(tree=tree, strategies=tuple(strategies), domain=domain)
