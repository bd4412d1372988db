"""Structural analyzers: minimal prices, decisive bundles, continue-or-quit.

These inspect the shape of a protocol tree independently of any strategy:
what a player could still guarantee or win below a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import (
    Leaf,
    MechanismTree,
    MechanismError,
    bundle_contains,
    bundle_is_empty,
    read_rational,
)


def minimal_price(tree: MechanismTree, nid: str, player: int, bundle) -> Optional[Fraction]:
    """Cheapest payment of ``player`` over leaves below ``nid`` that award her
    a bundle covering ``bundle``; None when no such leaf exists."""
    if nid not in tree.nodes:
        raise MechanismError(f"unknown node {nid!r}")
    setting = tree.setting
    best = None
    for leaf_id in tree.subtree_leaves(nid):
        leaf = tree.nodes[leaf_id]
        if bundle_contains(setting, leaf.allocation[player], bundle):
            p = leaf.payments[player]
            if best is None or p < best:
                best = p
    return best


def is_decisive(tree: MechanismTree, nid: str, player: int, bundle, price) -> bool:
    """Whether ``player`` can force, from ``nid``, a leaf granting a bundle
    that covers ``bundle`` at a payment of at most ``price``, an exact
    rational (``model.read_rational``).

    At the player's own vertices she picks the best message (OR); at other
    players' vertices every message must work out (AND); continuations range
    over the subtree of ``nid`` only, the history above is fixed.
    """
    if nid not in tree.nodes:
        raise MechanismError(f"unknown node {nid!r}")
    return _forces(tree, nid, player, bundle, read_rational(price))


def _forces(tree: MechanismTree, nid: str, player: int, bundle, price: Fraction) -> bool:
    # not a closure over itself, which would hold the tree in a reference cycle
    node = tree.nodes[nid]
    if isinstance(node, Leaf):
        return (
            bundle_contains(tree.setting, node.allocation[player], bundle)
            and node.payments[player] <= price
        )
    children = node.edges.values()
    if node.speaker == player:
        return any(_forces(tree, c, player, bundle, price) for c in children)
    return all(_forces(tree, c, player, bundle, price) for c in children)


@dataclass(frozen=True)
class VertexClassification:
    vertex: str
    continue_or_quit: bool
    continue_message: Optional[str]
    winning_message_count: int


def classify_continue_or_quit(tree: MechanismTree, nid: str) -> VertexClassification:
    """Count the speaker's messages that can still lead to a win for her.

    A vertex is continue-or-quit when at most one of its messages leads to a
    subtree containing a leaf that gives the speaker a nonempty bundle; that
    message, if present, is the continue message.
    """
    node = tree.nodes.get(nid)
    if node is None:
        raise MechanismError(f"unknown node {nid!r}")
    if isinstance(node, Leaf):
        raise MechanismError(f"node {nid!r} is a leaf")
    setting = tree.setting
    winning = []
    for lbl, child in node.edges.items():
        if any(
            not bundle_is_empty(setting, tree.nodes[leaf_id].allocation[node.speaker])
            for leaf_id in tree.subtree_leaves(child)
        ):
            winning.append(lbl)
    return VertexClassification(
        vertex=nid,
        continue_or_quit=len(winning) <= 1,
        continue_message=winning[0] if len(winning) == 1 else None,
        winning_message_count=len(winning),
    )


@dataclass(frozen=True)
class AscendingAudit:
    classifications: tuple
    all_continue_or_quit: bool


def audit_ascending_structure(tree: MechanismTree) -> AscendingAudit:
    """Classify every internal vertex and flag whether all are continue-or-quit."""
    rows = tuple(classify_continue_or_quit(tree, nid) for nid in tree.internal_ids)
    return AscendingAudit(
        classifications=rows,
        all_continue_or_quit=all(r.continue_or_quit for r in rows),
    )
