"""Bounded exhaustive enumeration of normalized mechanisms.

The search walks every mechanism of a declared finite class: trees whose
internal nodes partition the speaker's currently-consistent valuation set
into message blocks (players with a singleton consistent set never speak),
whose leaves combine any valid allocation with per-player payments from a
finite grid, and whose strategies are block membership.  Within that class
the walk is exhaustive, duplicate-free up to message relabeling, and
deterministic, so a "no counterexample" verdict is a statement about the
whole class.

Why this class is enough, for a finite domain.  Take any mechanism whose
plans are obviously dominant on the domain.  Pruning the nodes that no
profile reaches under the plans (Li, *Obviously strategy-proof mechanisms*,
AER 2017) keeps every realized outcome and keeps the plans obviously
dominant, since each comparison then ranges over fewer leaves.  A message
left at a node stands for the speaker's still-consistent valuations whose
plans send it, so the messages partition that set and plans are block
membership (Mackenzie, *A revelation principle for obviously strategy-proof
implementation*, GEB 2020); a node with one block constrains nothing and is
contracted.  Outcomes, hence IR, NNT and the welfare ratio on the domain,
are unchanged, and every kept node splits some consistent set, so a path
has at most sum(|V_i| - 1) internal nodes: the class needs no depth cap.
Left open: payments off the grid, and valuations outside the domain
supplied.

``falsify_impossibility`` counts the class by equivalence class instead of
building its members (``_Scan``).  Leaves whose payments would break
individual rationality or charge a negative payment on a profile reaching
them are never generated.  Bottom-up over positions (the players'
consistent sets), every subtree is summarized by the utilities that the
bad-leaf/good-leaf consequence of obvious strategy-proofness compares: per
player and valuation, the minimum utility over the leaves that valuation can
reach (rmin) and the maximum over all leaves (emax).  Under a node where
player j speaks, children are joined only when, for each of j's valuations,
the rmin of its own child is at least the emax of every sibling; that is the
obvious strategy-proofness condition at that node.  Profiles covered by
siblings are disjoint, so the count of a joined class is the product of its
parts.

Four reductions keep the join small:

* The class key holds no row for a player whose consistent set is still
  full.  A row is read only by an ancestor where its player speaks, and then
  in a child where that player's set is a proper block; sets only shrink
  downward, so a player with a full set has not spoken above, and no
  ancestor can read the row.  Dropping it merges exactly the classes that no
  later comparison can tell apart, so every count stays exact.
* Compatibility is a dominance test per valuation.  Each child class list
  gets, per speaker, threshold tables of bitsets (Python ints) over emax and
  rmin, and a child's candidate set is the AND of one lookup per valuation
  of the blocks involved, visited lowest bit first.
* Siblings are joined level by level over prefix classes, not once per
  combination.  A later child reads the classes chosen for earlier siblings
  only through the speaker's row of their partial summary, and the other
  rows and the violation word fold associatively, so prefixes with an
  equal partial state are interchangeable: each level keeps one group per
  state, with the summed count and the first prefix, in stream order.
* Candidates are folded once per bucket, not once per group.  The groups of
  a level that share a speaker's row allow the same candidates and fold the
  same row into each, so per such row the allowed candidates are folded once
  and those left with an equal state are collapsed into one, with the summed
  count and the lowest index.  Each group then walks the collapsed list and
  folds only its rest (the other rows and the word), through a table of
  fold results memoized per rest.

The scan judges a tree by its violation word, an int with one bit per miss:
``MISSES_TARGET`` or ``MISSES_MINMN`` when on some profile its ratio, read
from ``checkers.ExactValues`` as ``welfare_ratio`` reads it, is unbounded or
not below the target or min(m, n); ``LOW_VIOL`` or ``SQUARE_VIOL`` when the
first or second payment bound of ``checkers._mu_fixture_bounds`` (the table
that ``mu_payment_bounds`` reads) fails.  A leaf's word comes from the
profiles it covers (``_Scan.leaf_flags``, from one predicate table built per
call), and a tree's is the OR of its leaves'; its leaves cover disjoint
profile sets whose union is every profile reaching the tree, so the OR is
the verdict over those profiles.  Only an audited scan of the multi-unit
fixture sets the last three bits, and a refute scan lists no leaf that
misses the target: its words are 0.

Stream order is that of a depth-first walk of the class.  At a position
(the players' consistent sets) it first lists every leaf: the valid
allocations in ``enumerate_allocations`` order, each with every grid payment
vector in product order.  Then, for each player in index order whose
consistent set holds two or more valuations, and for each partition of that
set into two or more blocks (restricted-growth strings in lexicographic
order, blocks ordered by their smallest valuation), it lists every choice
of one subtree per block, the first block's subtree varying slowest, each
at the position where that player's set is the block.
Block t is sent as message ``str(t)``, node ids ``u0, u1, ...`` follow
preorder, and a plan sends the label of the block holding its valuation,
else ``"0"``.

Classes are kept in first-encounter order, so the stored representative of
each class is its first member in stream order, and the first counterexample
is the first stream member that the OSP, IR and NNT checkers pass and
``welfare_ratio`` puts below the target.  The library does not build the
stream: the tests walk it on their own (``normalized_stream``), judge every
member with the checkers alone (``oracle_scan``), and compare those verdicts
with this scan's.
"""

from __future__ import annotations

import functools
import itertools
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .checkers import ExactValues, _AutoDict, _mu_fixture_bounds
from .mechanisms import MechanismBundle, _Choices
from .model import build_tree, bundle_contains, read_rational, read_seconds
from .valuations import Domain

GRID_CAVEAT = (
    "verdict is relative to the declared normalized class and its finite payment "
    "grid; it is not a proof over unbounded payments"
)

_BIG = 1 << 62

# bits of a violation word: a tree's word is the OR of its leaves' words
MISSES_TARGET, MISSES_MINMN, LOW_VIOL, SQUARE_VIOL = 1, 2, 4, 8


def default_payment_grid(setting) -> tuple:
    """Payment levels the impossibility arguments pin payments near.

    The integers 0..5 and, with k = max(m, n), the thresholds k^2, k^2+1
    and k^4; a combinatorial setting adds 2k^2, 2k^2+2 and 2k^3+k^2, the
    item levels of its fixtures.  A domain's valuations all match the
    setting's kind, so the setting alone decides the family.
    """
    k = Fraction(max(setting.m, setting.n))
    levels = {Fraction(t) for t in range(6)}
    levels.update({k**2, k**2 + 1, k**4})
    if setting.is_combinatorial:
        levels.update({2 * k**2, 2 * k**2 + 2, 2 * k**3 + k**2})
    return tuple(sorted(levels))


@dataclass(frozen=True)
class SearchSpace:
    """Domain and payment grid delimiting the search class.

    Grid levels are exact rationals at least 0 (``model.read_rational``).  A
    player may not list one valuation twice: plans are keyed by valuation, so
    both copies would share one plan and the class would hold trees that no
    strategy table can express."""

    domain: Domain
    payment_grid: tuple

    def __post_init__(self):
        grid = tuple(sorted(set(map(read_rational, self.payment_grid))))
        if not grid:
            raise ValueError("payment grid must be nonempty")
        if grid[0] < 0:
            raise ValueError(f"payment grid level {grid[0]} is negative; levels must be >= 0")
        object.__setattr__(self, "payment_grid", grid)
        for i, vs in enumerate(self.domain.players):
            if len(set(vs)) != len(vs):
                raise ValueError(f"player {i} lists a valuation twice; search needs distinct ones")

    def describe(self) -> str:
        sizes = "x".join(str(len(vs)) for vs in self.domain.players)
        grid = ", ".join(f"{p.numerator}/{p.denominator}" for p in self.payment_grid)
        return (
            f"normalized partition-message mechanisms over a {sizes} domain, "
            f"all valid allocations, payments in {{{grid}}}"
        )


@dataclass
class SearchVerdict:
    """What ``falsify_impossibility`` found.

    ``survivors`` is the number of class members that pass OSP, IR and NNT,
    or with ``audit_survivors=False`` the number of those that also beat the
    target; ``examined`` is the same count under its older name.  It is 0
    on ``budget-exhausted``, since counts exist only at the root; how far
    such a scan got is in ``progress``: ``positions_done``, the memo positions
    (the players' consistent sets) whose class lists were finished,
    and ``join_steps``, the leaves built plus the join candidates tested.
    """

    outcome: str  # "no-counterexample" | "counterexample" | "budget-exhausted"
    counterexample: Optional[MechanismBundle]
    survivors: int
    elapsed: float
    class_description: str
    audit: dict = field(default_factory=dict)
    caveat: str = GRID_CAVEAT
    progress: dict = field(default_factory=dict)

    @property
    def examined(self) -> int:
        return self.survivors


def _partitions(mask: int) -> list:
    """Partitions of the set bits of ``mask`` into >= 2 blocks, each block a
    bitmask, in canonical order: restricted-growth strings grown one bit at
    a time, in lexicographic order, so blocks come out ordered by their
    lowest bit."""
    parts = [()]
    for vi in range(mask.bit_length()):
        if mask >> vi & 1:
            parts = [part[:b] + (part[b] | 1 << vi,) + part[b + 1:] if b < len(part)
                     else part + (1 << vi,)
                     for part in parts for b in range(len(part) + 1)]
    return [part for part in parts if len(part) >= 2]


class _BudgetExceeded(Exception):
    pass


def _read_deadline(deadline) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise _BudgetExceeded


class _Scan:
    """The aggregated scan of one search space for one target ratio.

    Counts surviving mechanisms by equivalence class instead of one by one.
    Two subtrees over the same consistent sets are interchangeable when they
    share (a) the per-valuation min-realized / max-anywhere utility vectors
    that the obvious strategy-proofness join compares, and (b) their
    violation word (``leaf_flags``).  Both the sibling join and the final
    verdict depend only on those, and the covered profile sets of siblings
    are disjoint, so classes compose: the count of a joined class is the
    product of its parts, its rows are their elementwise (min rmin, max
    emax), and its word is the OR of theirs.  One first-encountered
    descriptor per class is kept so a counterexample can still be
    materialized.

    Values, welfare and ratios are those of ``values``, the
    ``checkers.ExactValues`` of the payment grid: ``allocations``, ``scale``
    and ``rows`` are its own, and ``grid`` is the grid scaled.

    Class entry layout: (summary, word, count, descriptor) where summary is
    a per-player tuple of row ids, interned in ``row_ids`` (``row_of[id]``
    gives the row back), and word is the violation word.  A player's row
    holds one (rmin, emax) pair per valuation, except that it is empty while
    the player's consistent set is still full: such a player has not spoken
    on the path from the root, so no ancestor ever compares that row.

    The memo maps a position, the players' consistent sets as bitmasks, to
    the entry (classes, join_index, rests).  join_index maps a speaker to
    the bitset tables ``_combine`` uses when that list is joined as a later
    child of a node where the speaker speaks; rests maps a speaker to each
    class's rest id.  A rest is a class's row ids other than the speaker's,
    with its word, interned too, so the join hashes and folds small ints
    through memoized fold tables.
    Counts are Python ints: they pass 2**63 on 5 x 5 domains.
    """

    def __init__(self, space: SearchSpace, target: Fraction, deadline=None,
                 beating_only: bool = False):
        self.space = space
        self.setting = space.domain.setting
        self.players = space.domain.players
        self.n = self.setting.n
        self.sizes = [len(vs) for vs in self.players]
        self.full = tuple((1 << c) - 1 for c in self.sizes)
        # a partial, not a bound method, so the value table holds no cycle back to the scan
        self._check_deadline = functools.partial(_read_deadline, deadline)
        self.beating_only = beating_only

        values = self.values = ExactValues(self.setting, self.players, space.payment_grid)
        # read at the first allocation too, so a spent budget builds no table
        values.poll = self._check_deadline
        self.allocations, self.scale, self.rows = values.allocations, values.scale, values.rows
        self.grid = list(map(values.scaled, space.payment_grid))
        # profile indexing, row-major over player valuation indices
        self.strides = [0] * self.n
        stride = 1
        for i in reversed(range(self.n)):
            self.strides[i] = stride
            stride *= self.sizes[i]
        self._build_predicates(target)

        self.partitions = _AutoDict(_partitions)
        self.memo: dict = {}
        self.work = 0
        self.row_ids = _Ids()
        self.row_of = self.row_ids.of
        self.rest_ids = _Ids()
        self.fold_rows = _row_folds(self.row_ids)
        self.fold_rests = _rest_folds(self.rest_ids, self.fold_rows)

    def _build_predicates(self, target: Fraction) -> None:
        """Per allocation, the bitset of the profiles where its ratio misses the
        target; for an audited scan of the multi-unit fixture, also those where
        it misses min(m, n), and the payment bounds of ``_mu_fixture_bounds``
        as (flag, profile bit, bundle, scaled cap) entries.  The deadline is
        read every 4,096 allocations, here and in ``values.welfare()``."""
        bounds = None if self.beating_only else _mu_fixture_bounds(self.setting, self.players)
        self.audit_applicable = bounds is not None
        limits = (target,) if bounds is None else (target, min(self.setting.m, self.setting.n))
        misses = [[0] * len(self.rows) for _ in limits]
        ratio = self.values.ratio
        for p, (sums, opt) in enumerate(self.values.welfare()):
            bit = 1 << p
            for a, sw in enumerate(sums):
                if not a & 4095:
                    self._check_deadline()
                r = ratio(sw, opt)
                for bits, bound in zip(misses, limits):
                    if r is None or r >= bound:
                        bits[a] |= bit
        self.misses_target = misses[0]
        if bounds is not None:
            self.misses_minmn = misses[1]
            # an integer payment exceeds the cap exactly when it exceeds its floor
            self.bounds = [
                (flag, 1 << sum(self.players[i].index(v) * self.strides[i]
                                for i, v in enumerate(profile)), bundle, cap * self.scale // 1)
                for flag, (profile, bundle, cap) in zip((LOW_VIOL, SQUARE_VIOL), bounds)
            ]

    def leaf_flags(self, covered: int, ai: int, pays: tuple) -> int:
        """The violation word of a leaf covering the profile bitset ``covered``:
        ``MISSES_TARGET`` or ``MISSES_MINMN`` when its ratio misses that bound
        on a covered profile, and the flag of each payment bound whose profile
        is covered and whose cap a bidder holding its bundle exceeds; the last
        three only for an audit."""
        word = MISSES_TARGET if covered & self.misses_target[ai] else 0
        if self.audit_applicable:
            alloc = self.allocations[ai]
            word |= MISSES_MINMN if covered & self.misses_minmn[ai] else 0
            for flag, bit, bundle, cap in self.bounds:
                if covered & bit and any(p > cap and bundle_contains(self.setting, a, bundle)
                                         for a, p in zip(alloc, pays)):
                    word |= flag
        return word

    # -- per-position tables ---------------------------------------------

    def _covered(self, masks: tuple) -> int:
        """Bitset of the profiles whose valuations all lie in ``masks``."""
        axes = [[vi for vi in range(c) if mask >> vi & 1] for mask, c in zip(masks, self.sizes)]
        got = 0
        for combo in itertools.product(*axes):
            got |= 1 << sum(vi * self.strides[i] for i, vi in enumerate(combo))
        return got

    def _leaf_options(self, masks: tuple, covered: int) -> Iterator[tuple]:
        """Leaves at ``masks`` that keep IR and NNT on the profiles ``covered``:
        each payment lies between 0 and the payer's least value there.  A refute
        scan skips an allocation missing the target there, whatever it charges."""
        for ai, rows in enumerate(self.rows):
            self._check_deadline()
            if self.beating_only and covered & self.misses_target[ai]:
                continue
            per_player = []
            for mask, row in zip(masks, rows):
                cap = min(x for vi, x in enumerate(row) if mask >> vi & 1)
                per_player.append([p for p in self.grid if p <= cap])
            for pays in itertools.product(*per_player):
                yield ai, pays

    # -- materialization ---------------------------------------------------

    def materialize(self, descriptor: tuple) -> MechanismBundle:
        """The member ``descriptor`` names: node ids ``u0, u1, ...`` in preorder; a plan
        sends the index of the block holding its valuation, else ``"0"``."""
        choices = _Choices(self.space.domain)
        tree = build_tree(self._spec(descriptor, itertools.count(), choices), self.setting)
        return MechanismBundle(tree=tree, strategies=choices.tables(), domain=self.space.domain)

    def _spec(self, desc: tuple, ids, choices: _Choices) -> dict:
        # a method, not a closure over itself and the scan: a scan in no
        # reference cycle is freed as soon as ``falsify_impossibility`` returns
        nid = f"u{next(ids)}"  # drawn before the children's, so ids follow preorder
        if desc[0] == "leaf":
            _, ai, pays = desc
            return {"id": nid, "allocation": self.allocations[ai],
                    "payments": tuple(map(self.values.exact, pays))}
        _, j, blocks, subs = desc
        index = self.players[j].index
        choices.record(nid, j, lambda v: next(
            (str(t) for t, block in enumerate(blocks) if block >> index(v) & 1), "0"))
        return {"id": nid, "speaker": j,
                "edges": {str(t): self._spec(sub, ids, choices) for t, sub in enumerate(subs)}}

    # -- composition ------------------------------------------------------

    def _tick(self, steps: int) -> None:
        """Count leaves or join candidates tested; check the deadline every 4096."""
        self.work += steps
        if self.work >> 12 != (self.work - steps) >> 12:
            self._check_deadline()

    def _leaf_summary(self, masks: tuple, ai: int, pays: tuple) -> tuple:
        return tuple(
            self.row_ids[() if mask == full else tuple(
                (u if mask >> vi & 1 else _BIG, u) for vi, u in enumerate(x - pay for x in row)
            )]
            for mask, full, row, pay in zip(masks, self.full, self.rows[ai], pays)
        )

    def classes(self, masks: tuple) -> tuple:
        """Memo entry (classes, join_index, rests) for every subtree at ``masks``."""
        got = self.memo.get(masks)
        if got is not None:
            return got
        self._check_deadline()
        table: dict = {}

        def insert(summary, word, count, desc) -> None:
            entry = table.get((summary, word))
            if entry is None:
                table[summary, word] = [summary, word, count, desc]
            else:
                entry[2] += count

        covered = self._covered(masks)
        for ai, pays in self._leaf_options(masks, covered):
            self._tick(1)
            word = self.leaf_flags(covered, ai, pays)
            insert(self._leaf_summary(masks, ai, pays), word, 1, ("leaf", ai, pays))
        for j in range(self.n):
            for blocks in self.partitions[masks[j]]:
                children = [self.classes(masks[:j] + (block,) + masks[j + 1:]) for block in blocks]
                self._combine(j, blocks, children, masks, insert)
        # first-encounter (insertion) order makes the stored representative of
        # each class the stream-first member, so counterexamples match the stream
        got = self.memo[masks] = ([tuple(entry) for entry in table.values()], {}, {})
        return got

    def _join_index(self, child: tuple, j: int) -> tuple:
        """(by_emax, by_neg_rmin): per valuation of speaker ``j``, tables for
        ``_at_most`` over the child's classes by emax and by negated rmin."""
        classes, join_index, _ = child
        got = join_index.get(j)
        if got is None:
            rows = [self.row_of[c[0][j]] for c in classes]
            by_emax, by_neg_rmin = [], []
            for vi in range(self.sizes[j]):
                self._check_deadline()
                by_emax.append(_threshold_table([row[vi][1] for row in rows]))
                by_neg_rmin.append(_threshold_table([-row[vi][0] for row in rows]))
            got = join_index[j] = (by_emax, by_neg_rmin)
        return got

    def _rests(self, child: tuple, j: int) -> list:
        """Per class of ``child``, the id of its rest for speaker ``j``: the
        other players' row ids and the word."""
        classes, _, rests = child
        got = rests.get(j)
        if got is None:
            got = rests[j] = [self.rest_ids[c[0][:j] + c[0][j + 1:], c[1]] for c in classes]
        return got

    def _combine(self, j: int, blocks: tuple, children: list, masks: tuple, insert) -> None:
        """Insert every compatible choice of one class per child, in stream order.

        Siblings s < t are compatible when, for speaker ``j``, child t's emax
        stays at most child s's rmin on s's block and child t's rmin stays at
        least child s's emax on t's block.  So child t reads a prefix (one
        class per earlier child) only through the speaker's row of its partial
        summary: the owner's rmin on each earlier block (the other children
        hold ``_BIG`` there) and the max emax over earlier siblings.  The rest
        (the other rows and the word) folds associatively, so prefixes with
        an equal speaker's row and rest are one group, with the summed count
        and the lexicographically first prefix.  Groups are walked in dict
        order and candidates lowest bit first, so each level's dict fills in
        order of first prefixes (a new group's first prefix extends that of
        the earliest group reaching it): the depth-first stream's order.

        The groups sharing a speaker's row form a bucket: they allow the same
        candidates, and fold the same speaker's row into each.  So per bucket,
        once, the allowed candidates are folded and those that end with an
        equal (folded speaker's row, rest) are collapsed into one, with the
        summed count and the descriptor of the lowest index, kept in order of
        that index.  For every group of the bucket, collapsed candidates reach
        one key, and the first of them to reach it is the lowest index, so
        each key first appears at the same (group, candidate) pair as in a
        walk of every candidate: counts, order and first prefixes are kept.
        At the last level a full speaker's set stores no row, so the folded
        row is left out of the key and ``insert`` gets groups already merged.
        """
        members = [[vi for vi in range(self.sizes[j]) if b >> vi & 1] for b in blocks]
        row_of, fold_rows, fold_rests = self.row_of, self.fold_rows, self.fold_rests
        empty = self.row_ids[()] if masks[j] == self.full[j] else None
        groups = [(c[0][j], rest, c[2], (c[3],))
                  for c, rest in zip(children[0][0], self._rests(children[0], j))]
        for t in range(1, len(blocks)):
            candidates = children[t][0]
            by_emax, by_neg_rmin = self._join_index(children[t], j)
            rests = self._rests(children[t], j)
            earlier = [vi for block in members[:t] for vi in block]
            everyone = (1 << len(candidates)) - 1
            drop = empty is not None and t == len(blocks) - 1
            buckets: dict = {}
            level: dict = {}
            for own, rest, count, prefix in groups:
                bucket = buckets.get(own)
                if bucket is None:
                    row = row_of[own]
                    bits = everyone
                    for vi in earlier:
                        bits &= _at_most(by_emax[vi], row[vi][0])
                    for vi in members[t]:
                        bits &= _at_most(by_neg_rmin[vi], -row[vi][1])
                    fold_own = fold_rows[own]
                    collapsed: dict = {}
                    for tested, i in enumerate(_set_bits(bits), 1):
                        if not tested & 4095:
                            self._check_deadline()
                        cand_ids, _, cand_count, desc = candidates[i]
                        key = (empty if drop else fold_own[cand_ids[j]], rests[i])
                        entry = collapsed.get(key)
                        if entry is None:
                            collapsed[key] = [cand_count, desc]
                        else:
                            entry[0] += cand_count
                    bucket = buckets[own] = (bits.bit_count(), [
                        (folded, cand_rest, cand_count, desc)
                        for (folded, cand_rest), (cand_count, desc) in collapsed.items()
                    ])
                width, collapsed_candidates = bucket
                self._tick(width)
                fold_rest = fold_rests[rest]
                for folded, cand_rest, cand_count, desc in collapsed_candidates:
                    key = (folded, fold_rest[cand_rest])
                    entry = level.get(key)
                    if entry is None:
                        level[key] = [count * cand_count, prefix + (desc,)]
                    else:
                        entry[0] += count * cand_count
            groups = [(own, rest, count, prefix) for (own, rest), (count, prefix) in level.items()]
        for own, rest, count, prefix in groups:
            others, word = self.rest_ids.of[rest]
            insert(others[:j] + (own,) + others[j:], word, count, ("node", j, blocks, prefix))


class _Ids(dict):
    """Dense ids for hashable values: ``ids[value]`` gives ``value`` the
    next free id on first sight, and ``ids.of[id]`` gives the value back."""

    __slots__ = ("of",)

    def __init__(self):
        super().__init__()
        self.of: list = []

    def __missing__(self, value) -> int:
        got = self[value] = len(self.of)
        self.of.append(value)
        return got


def _fold_table(fold) -> _AutoDict:
    """``table[a][b]`` is ``fold(a, b)``, computed on first use.

    The folds below close over id tables, not over the scan, so that no
    table refers back to the scan and its memo is freed with it."""
    return _AutoDict(lambda a: _AutoDict(functools.partial(fold, a)))


def _row_folds(row_ids: _Ids) -> _AutoDict:
    """Fold table of row ids: the elementwise (min rmin, max emax)."""
    of = row_ids.of

    def fold(a: int, b: int) -> int:
        return row_ids[tuple(
            (r if r < s else s, e if e > f else f) for (r, e), (s, f) in zip(of[a], of[b])
        )]

    return _fold_table(fold)


def _rest_folds(rest_ids: _Ids, row_folds: _AutoDict) -> _AutoDict:
    """Fold table of rest ids: rows by ``row_folds``, violation words by OR."""
    of = rest_ids.of

    def fold(a: int, b: int) -> int:
        (rows_a, word_a), (rows_b, word_b) = of[a], of[b]
        rows = tuple(row_folds[x][y] for x, y in zip(rows_a, rows_b))
        return rest_ids[rows, word_a | word_b]

    return _fold_table(fold)


def _threshold_table(values: list) -> tuple:
    """(keys, masks) for ``_at_most``: ``keys`` are the distinct values
    ascending, and ``masks[k]`` has bit i set for each i with
    ``values[i] <= keys[k - 1]`` (``masks[0]`` is empty)."""
    by_value: dict = {}
    for i, x in enumerate(values):
        by_value[x] = by_value.get(x, 0) | 1 << i
    keys = sorted(by_value)
    masks = [0]
    for x in keys:
        masks.append(masks[-1] | by_value[x])
    return keys, masks


def _at_most(table: tuple, x) -> int:
    """Bitset of the indices whose value is at most ``x``."""
    keys, masks = table
    return masks[bisect_right(keys, x)]


def _set_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, lowest first."""
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def falsify_impossibility(
    space: SearchSpace,
    target_ratio,
    budget_seconds: Optional[float] = None,
    audit_survivors: bool = True,
) -> SearchVerdict:
    """Scan the class for an OSP + IR + NNT mechanism beating ``target_ratio``.

    Returns the first such bundle in enumeration order, or no-counterexample
    once the class is exhausted, or budget-exhausted.  Alongside the scan,
    every surviving (OSP + IR + NNT) mechanism is audited against the
    payment bounds: any winner at the all-low-value profile pays at most 1;
    and, for survivors whose ratio additionally beats min(m, n) on the
    adversarial multi-unit fixture, a bidder winning all units at the spike
    profile pays at most the square threshold.

    The scan aggregates interchangeable subtrees and counts them in bulk.
    It keeps the order of the depth-first walk the module docstring defines,
    so its outcome, totals and first counterexample are those of building
    every member of the class in that order and judging it with the property
    checkers, as the tests' ``oracle_scan`` does.  ``audit_survivors=False``
    restricts the aggregation to target-beating subtrees only: much faster,
    same outcome and counterexample, but the survivor totals and payment
    audit are not collected (survivors then counts candidate counterexamples
    only).
    """
    target = read_rational(target_ratio)
    if target <= 1:
        raise ValueError("target ratio must exceed 1")
    start = time.monotonic()
    deadline = None if budget_seconds is None else start + read_seconds(budget_seconds)
    bounds = _mu_fixture_bounds(space.domain.setting, space.domain.players) if audit_survivors else None
    audit = {
        "applicable": bounds is not None,
        "survivors_checked": 0,
        "low_profile_bound_failures": 0,
        "square_bound_premise_met": 0,
        "square_bound_failures": 0,
    }
    survivors, counterexample, scan = 0, None, None
    try:  # the scan's tables are built inside the budget too
        scan = _Scan(space, target, deadline, beating_only=not audit_survivors)
        root = scan.classes(scan.full)[0]
    except _BudgetExceeded:
        outcome = "budget-exhausted"
    else:
        for _, word, count, desc in root:
            survivors += count
            if audit["applicable"]:
                audit["survivors_checked"] += count
                audit["low_profile_bound_failures"] += count * bool(word & LOW_VIOL)
                audit["square_bound_premise_met"] += count * (not word & MISSES_MINMN)
                audit["square_bound_failures"] += count * (
                    word & (MISSES_MINMN | SQUARE_VIOL) == SQUARE_VIOL)
            if not word & MISSES_TARGET and counterexample is None:
                counterexample = scan.materialize(desc)
        outcome = "no-counterexample" if counterexample is None else "counterexample"
    return SearchVerdict(
        outcome=outcome,
        counterexample=counterexample,
        survivors=survivors,
        elapsed=time.monotonic() - start,
        class_description=space.describe(),
        audit=audit,
        progress={"positions_done": len(scan.memo) if scan else 0,
                  "join_steps": scan.work if scan else 0},
    )
