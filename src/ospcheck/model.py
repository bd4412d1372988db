"""Protocol trees for sequential auctions and their execution semantics.

A mechanism is a finite rooted tree.  Every internal node names the single
player who speaks there and maps each message label to a child; every leaf
carries an allocation of the items and one payment per player.  Running the
tree against a behavior profile (one message choice per node per owner)
walks from the root to a leaf; ``play_profiles`` does so for every profile
of a finite domain, the one walk ``realize`` and the checkers read.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

COMBINATORIAL = "combinatorial"
MULTI_UNIT = "multi-unit"

#: A bundle is a frozenset of item indices (combinatorial) or a quantity
#: of identical units (multi-unit).
Bundle = Union[frozenset, int]

#: One bundle per player.  Combinatorial bundles must be pairwise disjoint;
#: multi-unit quantities must sum to at most m.  Items may stay unallocated.
Allocation = tuple


class MechanismError(ValueError):
    """Raised for structurally invalid trees, behaviors or allocations."""


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class AuctionSetting:
    """Auction environment: item model, player count and item count."""

    kind: str
    n: int
    m: int

    def __post_init__(self):
        if self.kind not in (COMBINATORIAL, MULTI_UNIT):
            raise MechanismError(f"unknown setting kind {self.kind!r}")
        if self.n < 1 or self.m < 1:
            raise MechanismError("need n >= 1 players and m >= 1 items")

    @property
    def is_combinatorial(self) -> bool:
        return self.kind == COMBINATORIAL

    def grand_bundle(self) -> Bundle:
        return frozenset(range(self.m)) if self.is_combinatorial else self.m

    def empty_bundle(self) -> Bundle:
        return frozenset() if self.is_combinatorial else 0


def validate_bundle(setting: AuctionSetting, bundle: Bundle) -> None:
    if setting.is_combinatorial:
        if not isinstance(bundle, frozenset):
            raise MechanismError("combinatorial bundle must be a frozenset of item indices")
        if any(not (0 <= j < setting.m) for j in bundle):
            raise MechanismError("item index out of range")
    else:
        if not is_int(bundle):
            raise MechanismError("multi-unit bundle must be an integer quantity")
        if not (0 <= bundle <= setting.m):
            raise MechanismError("quantity out of range")


def bundle_contains(setting: AuctionSetting, outer: Bundle, inner: Bundle) -> bool:
    """Whether ``outer`` covers ``inner`` (superset / at-least-quantity)."""
    if setting.is_combinatorial:
        return inner <= outer
    return outer >= inner


def bundle_is_empty(setting: AuctionSetting, bundle: Bundle) -> bool:
    return len(bundle) == 0 if setting.is_combinatorial else bundle == 0


def validate_allocation(setting: AuctionSetting, allocation: Allocation) -> None:
    if len(allocation) != setting.n:
        raise MechanismError("allocation must assign one bundle per player")
    for b in allocation:
        validate_bundle(setting, b)
    if setting.is_combinatorial:
        seen: set = set()
        for b in allocation:
            if b & seen:
                raise MechanismError("combinatorial bundles must be pairwise disjoint")
            seen |= b
    else:
        if sum(allocation) > setting.m:
            raise MechanismError("multi-unit quantities exceed supply")


@dataclass(frozen=True)
class Leaf:
    allocation: Allocation
    payments: tuple


@dataclass(frozen=True)
class InternalNode:
    speaker: int
    # label -> child node id, in lexicographic label order (canonical form)
    edges: Mapping[str, str]


@dataclass(frozen=True)
class Behavior:
    """A full choice of messages for one player, one per owned node."""

    owner: int
    choices: Mapping[str, str]


class MechanismTree:
    """Immutable arena of nodes with a distinguished root.

    Built by :func:`build_tree` or from an arena whose edge maps are in label
    order; never mutated after validation, so safe to share across threads.

    Validation is one depth-first preorder walk, children in edge-label
    order.  Besides checking the tree, it records the tree index that every
    structural query reads: ``preorder``, ``leaf_ids`` and ``internal_ids``
    (both in preorder), ``depth`` (of the deepest leaf), and per node its
    parent, the label of the edge into it, its depth, and the span of
    ``leaf_ids`` below it.  A subtree's leaves are contiguous in preorder,
    so that span is one slice.
    """

    def __init__(self, setting: AuctionSetting, nodes: dict, root: str):
        self.setting = setting
        self.nodes = nodes
        self.root = root
        self._validate()
        #: ``(players, table)`` of the checkers' last utility table for this
        #: tree; read and written only by ``checkers._table``.
        self.checker_memo = None

    def _validate(self) -> None:
        if self.root not in self.nodes:
            raise MechanismError("root id missing from node arena")
        n = self.setting.n
        preorder, leaves, internal = [], [], []
        owned: dict = {}  # speaker -> her nodes; only speakers that occur, whatever n is
        parent, label, depth, span = {}, {}, {}, {}
        stack = [(self.root, 0)]
        while stack:
            nid, d = stack.pop()
            if d is None:  # every leaf below ``nid`` is listed now
                span[nid] = (span[nid], len(leaves))
                continue
            if nid in depth:
                raise MechanismError(f"node {nid!r} reached twice (cycle or shared child)")
            node = self.nodes.get(nid)
            if node is None:
                raise MechanismError(f"edge points to unknown node {nid!r}")
            depth[nid] = d
            preorder.append(nid)
            if isinstance(node, InternalNode):
                if not (0 <= node.speaker < n):
                    raise MechanismError(f"speaker {node.speaker} out of range at node {nid!r}")
                if not node.edges:
                    raise MechanismError(f"internal node {nid!r} has no outgoing edge")
                internal.append(nid)
                owned.setdefault(node.speaker, []).append(nid)
                span[nid] = len(leaves)
                stack.append((nid, None))
                for lbl, child in reversed(list(node.edges.items())):
                    if child in parent:
                        raise MechanismError(f"node {child!r} has two parents")
                    parent[child], label[child] = nid, lbl
                    stack.append((child, d + 1))
            else:
                validate_allocation(self.setting, node.allocation)
                if len(node.payments) != n:
                    raise MechanismError(f"leaf {nid!r} needs one payment per player")
                span[nid] = (len(leaves), len(leaves) + 1)
                leaves.append(nid)
        orphans = set(self.nodes) - depth.keys()
        if orphans:
            raise MechanismError(f"orphan nodes not reachable from root: {sorted(orphans)}")
        self.preorder = tuple(preorder)
        self.leaf_ids = tuple(leaves)
        self.internal_ids = tuple(internal)
        self.depth = max(depth.values())
        self._owned = {i: tuple(ns) for i, ns in owned.items()}
        self._parent, self._label, self._depth, self._span = parent, label, depth, span

    def nodes_of(self, player: int) -> tuple:
        """All node ids where ``player`` speaks, in preorder; () if she never does."""
        return self._owned.get(player, ())

    def path_to(self, nid: str) -> list:
        """Node ids from the root down to ``nid`` inclusive."""
        path = [nid]
        while path[-1] != self.root:
            path.append(self._parent[path[-1]])
        path.reverse()
        return path

    def label_into(self, nid: str) -> str:
        """Label of the edge from the parent of ``nid`` (not the root) to ``nid``."""
        return self._label[nid]

    def leaf_span(self, nid: str) -> tuple:
        """``(lo, hi)`` with ``leaf_ids[lo:hi]`` the leaves below ``nid``."""
        return self._span[nid]

    def subtree_leaves(self, nid: str) -> tuple:
        """Leaf ids below ``nid`` (``nid`` itself if a leaf), in preorder."""
        lo, hi = self.leaf_span(nid)
        return self.leaf_ids[lo:hi]

    def bfs_internal(self) -> list:
        """Internal node ids by depth, ties broken by preorder position."""
        return sorted(self.internal_ids, key=self._depth.__getitem__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MechanismTree):
            return NotImplemented
        return (
            self.setting == other.setting
            and self.root == other.root
            and self.nodes == other.nodes
        )

    def __hash__(self):
        raise TypeError("MechanismTree is not hashable")


def read_int(raw) -> int:
    """``raw`` itself if it is an ``int`` and not a ``bool``; MechanismError otherwise."""
    if is_int(raw):
        return raw
    raise MechanismError(f"expected an integer, got {raw!r}")


def read_str(raw) -> str:
    """``raw`` itself if it is a ``str``; MechanismError otherwise."""
    if isinstance(raw, str):
        return raw
    raise MechanismError(f"expected a string, got {raw!r}")


def read_object(raw) -> dict:
    """``raw`` itself if it is a ``dict`` (a JSON object); MechanismError otherwise."""
    if isinstance(raw, dict):
        return raw
    raise MechanismError(f"expected an object, got {raw!r}")


@functools.lru_cache(maxsize=1024)
def _fraction_of(text: str) -> Fraction:
    # Fraction is immutable, so one instance can serve every equal string;
    # a string Fraction() rejects raises and so is never cached
    return Fraction(text)


def read_rational(raw) -> Fraction:
    """An exact rational from a ``Fraction``, a non-bool ``int`` or a string that
    ``Fraction()`` accepts (``"3"``, ``"7/2"``); MechanismError otherwise."""
    if isinstance(raw, str):  # first: a Fraction check on a str is an ABC lookup
        try:
            return _fraction_of(raw)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(raw, Fraction):
        return raw
    elif is_int(raw):
        return Fraction(raw)
    raise MechanismError(f"bad rational {raw!r}")


def read_seconds(raw):
    """A time budget: ``raw`` if a real number >= 0, not a bool; NaN is never reached."""
    if isinstance(raw, numbers.Real) and not isinstance(raw, bool) and raw >= 0:
        return raw
    raise MechanismError(f"time budget must be a nonnegative number, got {raw!r}")


def read_list(read):
    """Reader of a list (or tuple, set, frozenset): ``read`` on each entry, as a tuple."""
    def read_each(raw) -> tuple:
        if not isinstance(raw, (list, tuple, set, frozenset)):
            raise MechanismError(f"expected a list, got {raw!r}")
        return tuple(map(read, raw))
    return read_each


_read_ints = read_list(read_int)
read_rationals = read_list(read_rational)


def read_items(raw) -> frozenset:
    """A combinatorial bundle from a list of integer item indices."""
    return frozenset(_read_ints(raw))


def read_field(raw: dict, name: str, read, where: str):
    """``read(raw[name])``; a missing or unreadable field raises MechanismError naming it."""
    if not isinstance(raw, dict) or name not in raw:
        raise MechanismError(f"{where} has no {name!r} field")
    return read_value(raw[name], name, read, where)


def read_value(value, name: str, read, where: str):
    """``read(value)``; an unreadable value raises MechanismError naming field ``name``."""
    try:
        return read(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MechanismError(f"{where}: unreadable {name!r} field: {exc}") from None


_AUTO_PREFIX = "#"


def build_tree(spec, setting: AuctionSetting) -> MechanismTree:
    """Validate a nested node description and produce a MechanismTree.

    ``spec`` is a nested node dict: internal ``{"speaker", "edges"}`` with
    ``edges`` mapping each label to a child description, leaf
    ``{"allocation", "payments"}``, both with an optional ``"id"``.  Ids
    and edge labels are strings.  A missing or unreadable field raises
    MechanismError naming it, and so does an edge map whose ``duplicates``
    attribute (the parser's record of keys its source repeats) is nonempty,
    with the path of labels to the node.  Edge maps
    are canonicalized to lexicographic label order and unnamed nodes get
    stable preorder ids ``#0, #1, ...``, so rebuilding a serialized tree
    reproduces the same ids.
    """
    read_allocation = read_list(read_items) if setting.is_combinatorial else _read_ints
    nodes: dict = {}
    return MechanismTree(setting=setting, nodes=nodes, root=_add_node(spec, None, nodes, read_allocation))


def _add_node(raw, trail, nodes: dict, read_allocation) -> str:
    # trail: (parent trail, label into this node), None at the root; no closure, no cycle
    if not isinstance(raw, dict):
        raise MechanismError(f"node description must be a mapping, got {type(raw).__name__}")
    given = raw.get("id")
    if given is None:
        nid = _AUTO_PREFIX + str(len(nodes))
    else:
        nid = read_value(given, "id", read_str, "node description")
        if nid.startswith(_AUTO_PREFIX):
            raise MechanismError(f"node ids may not start with {_AUTO_PREFIX!r}: {nid!r}")
    if nid in nodes:
        raise MechanismError(f"duplicate node id {nid!r}")
    nodes[nid] = None  # reserve before children so ids follow preorder
    where = f"node {nid!r}"
    if "edges" in raw or "speaker" in raw:
        edges_raw = raw.get("edges")
        if not isinstance(edges_raw, dict) or not edges_raw:
            raise MechanismError(f"internal node {nid!r} needs a nonempty edge map")
        duplicates = getattr(edges_raw, "duplicates", ())
        if duplicates:
            raise MechanismError(
                f"duplicate message label {duplicates[0]!r} at node {_label_path(trail)}"
            )
        for lbl in edges_raw:
            if not isinstance(lbl, str):
                # a file holds every label as a string, so this one
                # is a duplicate if its string is another label
                if str(lbl) in edges_raw:
                    raise MechanismError(f"duplicate message label at node {nid!r}")
                raise MechanismError(f"{where}: message label {lbl!r} is not a string")
        speaker = read_field(raw, "speaker", read_int, where)
        edges = {lbl: _add_node(edges_raw[lbl], (trail, lbl), nodes, read_allocation)
                 for lbl in sorted(edges_raw)}
        nodes[nid] = InternalNode(speaker=speaker, edges=edges)
    else:
        nodes[nid] = Leaf(
            allocation=read_field(raw, "allocation", read_allocation, where),
            payments=read_field(raw, "payments", read_rationals, where),
        )
    return nid


def _label_path(trail) -> str:
    """``/a/b`` for the labels of a ``build_tree`` trail, ``/`` at the root."""
    labels = []
    while trail is not None:
        trail, label = trail
        labels.append(label)
    return "".join("/" + label for label in reversed(labels)) or "/"


def run(tree: MechanismTree, profile: Sequence[Behavior]):
    """Execute the tree under a behavior profile.

    Returns ``(leaf_id, path)`` where ``path`` lists every visited node id,
    root first and the reached leaf last.
    """
    if len(profile) != tree.setting.n:
        raise MechanismError("need one behavior per player")
    for i, beh in enumerate(profile):
        if beh.owner != i:
            raise MechanismError(f"behavior at position {i} owned by player {beh.owner}")
    path = []
    nid = tree.root
    while True:
        path.append(nid)
        node = tree.nodes[nid]
        if isinstance(node, Leaf):
            return nid, path
        behavior = profile[node.speaker]
        # labels are strings, so a missing choice finds no edge either
        nid = node.edges.get(behavior.choices.get(nid)) or follow(behavior, nid, node)


def follow(behavior: Behavior, nid: str, node: InternalNode) -> str:
    """The child of internal node ``nid`` that ``behavior`` sends the play to;
    MechanismError when the behavior has no choice there or names no edge."""
    choice = behavior.choices.get(nid)
    if choice is None:
        raise MechanismError(f"behavior of player {node.speaker} undefined at node {nid!r}")
    child = node.edges.get(choice)
    if child is None:
        raise MechanismError(f"label {choice!r} does not exist at node {nid!r}")
    return child


def attainable(tree: MechanismTree, player: int, behavior: Behavior, nid: str) -> bool:
    """Whether ``nid`` is reachable for some opponent play, given ``behavior``.

    True iff on the root-to-node path every node owned by ``player`` has its
    outgoing path edge equal to the behavior's choice there.
    """
    node = tree.nodes.get(nid)
    if not isinstance(node, InternalNode) or node.speaker != player:
        raise MechanismError(f"node {nid!r} is not owned by player {player}")
    path = tree.path_to(nid)
    return all(
        behavior.choices.get(cur) == tree.label_into(nxt)
        for cur, nxt in zip(path, path[1:])
        if tree.nodes[cur].speaker == player
    )


def validate_strategy(tree: MechanismTree, player: int, strategy: Mapping) -> None:
    """Check that every behavior in a strategy table is total on the player's nodes."""
    owned = tree.nodes_of(player)
    for valuation, behavior in strategy.items():
        if behavior.owner != player:
            raise MechanismError("behavior owner mismatch in strategy table")
        for nid in owned:
            lbl = behavior.choices.get(nid)
            if lbl is None:
                raise MechanismError(
                    f"strategy of player {player} undefined at node {nid!r} for {valuation!r}"
                )
            if lbl not in tree.nodes[nid].edges:
                raise MechanismError(f"label {lbl!r} does not exist at node {nid!r}")


def players_of(domain) -> Sequence:
    """``domain.players`` of a ``valuations.Domain``; plain player lists as they are."""
    return getattr(domain, "players", domain)


def plans_of(strategies: Sequence[Mapping], domain) -> list:
    """``plans[i][vi]``, player i's behavior for her vi-th domain valuation; MechanismError
    unless there is one strategy table per player and each covers her valuations."""
    players = players_of(domain)
    if len(strategies) != len(players):
        raise MechanismError("need one strategy table per player")
    plans = [[table.get(v) for v in vs] for table, vs in zip(strategies, players)]
    for i, plan in enumerate(plans):
        if None in plan:
            raise MechanismError(f"strategy of player {i} misses domain valuations: "
                                 f"undefined for valuation {plan.index(None)}")
    return plans


def play_profiles(tree: MechanismTree, strategies: Sequence[Mapping], domain):
    """Yield ``(profile, behaviors, leaf_id, path)`` per profile of the domain, in
    product order.  Plans are looked up once (``plans_of``) and walked by position:
    hashing a valuation per profile would hash every ``Fraction``."""
    players = players_of(domain)
    plans = plans_of(strategies, players)
    for profile, behaviors in zip(itertools.product(*players), itertools.product(*plans)):
        leaf_id, path = run(tree, behaviors)
        yield profile, behaviors, leaf_id, path


def realize(tree: MechanismTree, strategies: Sequence[Mapping], domain) -> dict:
    """Tabulate the realized outcome for every profile of the finite domain.

    ``strategies`` holds one valuation-to-behavior map per player; ``domain``
    is the per-player valuation lists (a ``valuations.Domain`` or plain
    sequence of sequences).  Returns a dict mapping each valuation profile
    to ``(allocation, payments)``.
    """
    players = players_of(domain)
    for i, (vs, plan) in enumerate(zip(players, plans_of(strategies, players))):
        validate_strategy(tree, i, dict(zip(vs, plan)))
    nodes = tree.nodes
    return {profile: (nodes[leaf_id].allocation, nodes[leaf_id].payments)
            for profile, _, leaf_id, _ in play_profiles(tree, strategies, players)}
