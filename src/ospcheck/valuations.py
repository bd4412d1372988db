"""Valuation families, finite domains, and the adversarial fixture sets.

All valuations are normalized (worth 0 on the empty bundle), monotone, and
nonnegative; constructors enforce this at build time, exhaustively for
explicit tables.  Values are exact rationals so threshold comparisons in the
checkers never suffer rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .model import (
    COMBINATORIAL,
    MULTI_UNIT,
    AuctionSetting,
    Bundle,
    is_int,
    read_int,
    read_items,
    read_rational,
    read_rationals,
    read_value,
)


class ValuationError(ValueError):
    """Raised for ill-formed valuation parameters or domains."""


#: Per valuation field: its reader.  Every family's constructor reads its
#: fields through these, so a value from a file or a library caller is
#: converted once, and an unreadable one raises naming its field.
_FIELD_READERS = {
    "values": read_rationals,
    "bundle": read_items,
    "value": read_rational,
    "quantity": read_int,
}


def _read_fields(v) -> None:
    """Read every field of ``v`` and store the hash of the field tuple, the
    dataclass's own hash: valuations are hashed often, and each fresh hash
    would hash every ``Fraction`` field again.  Store ``denominator`` too, the
    lcm of its rationals' denominators: each of them is some bundle's value,
    and every value of a bundle is 0, one of them or a sum of them."""
    where = f"{v.tag} valuation"
    for name in v.__dataclass_fields__:
        object.__setattr__(v, name, read_value(getattr(v, name), name, _FIELD_READERS[name], where))
    object.__setattr__(v, "_hash", hash(tuple(getattr(v, name) for name in v.__dataclass_fields__)))
    rationals = v.values if "values" in v.__dataclass_fields__ else (v.value,)
    object.__setattr__(v, "denominator", lcm(*(x.denominator for x in rationals)))


def _cached_hash(v) -> int:
    return v._hash


def _nonneg(values) -> None:
    if any(v < 0 for v in values):
        raise ValuationError("values must be nonnegative")


@dataclass(frozen=True)
class AdditiveValuation:
    """Worth the sum of per-item values of the received bundle."""

    values: tuple

    tag = "additive"
    kind = COMBINATORIAL
    __hash__ = _cached_hash

    def __post_init__(self):
        _read_fields(self)
        _nonneg(self.values)

    def evaluate(self, bundle: Bundle) -> Fraction:
        _expect_set(bundle)
        return sum((self.values[j] for j in bundle), Fraction(0))


@dataclass(frozen=True)
class UnitDemandValuation:
    """Worth the best single item in the received bundle."""

    values: tuple

    tag = "unit-demand"
    kind = COMBINATORIAL
    __hash__ = _cached_hash

    def __post_init__(self):
        _read_fields(self)
        _nonneg(self.values)

    def evaluate(self, bundle: Bundle) -> Fraction:
        _expect_set(bundle)
        return max((self.values[j] for j in bundle), default=Fraction(0))


@dataclass(frozen=True)
class SingleMindedCA:
    """Worth ``value`` for any bundle containing the target bundle, else 0."""

    bundle: frozenset
    value: Fraction

    tag = "single-minded-ca"
    kind = COMBINATORIAL
    __hash__ = _cached_hash

    def __post_init__(self):
        _read_fields(self)
        if self.value < 0:
            raise ValuationError("values must be nonnegative")
        if not self.bundle:
            raise ValuationError("single-minded target bundle must be nonempty")

    def evaluate(self, b: Bundle) -> Fraction:
        _expect_set(b)
        return self.value if self.bundle <= b else Fraction(0)


@dataclass(frozen=True)
class SingleMindedMU:
    """Worth ``value`` for any quantity of at least ``quantity``, else 0."""

    quantity: int
    value: Fraction

    tag = "single-minded-mu"
    kind = MULTI_UNIT
    __hash__ = _cached_hash

    def __post_init__(self):
        _read_fields(self)
        if self.value < 0:
            raise ValuationError("values must be nonnegative")
        if self.quantity < 1:
            raise ValuationError("single-minded quantity must be at least 1")

    def evaluate(self, b: Bundle) -> Fraction:
        _expect_int(b)
        return self.value if b >= self.quantity else Fraction(0)


@dataclass(frozen=True)
class GeneralCA:
    """Explicit table over all bundles of ``m`` items, indexed by bitmask."""

    values: tuple

    tag = "general-ca"
    kind = COMBINATORIAL
    __hash__ = _cached_hash

    def __post_init__(self):
        _read_fields(self)
        vals = self.values
        _nonneg(vals)
        size = len(vals)
        if size == 0 or size & (size - 1):
            raise ValuationError("general table length must be a power of two")
        if vals[0] != 0:
            raise ValuationError("not normalized: v(empty) must be 0")
        m = size.bit_length() - 1
        for mask in range(size):
            for j in range(m):
                if not mask & (1 << j) and vals[mask] > vals[mask | (1 << j)]:
                    raise ValuationError("table violates monotonicity")

    def evaluate(self, b: Bundle) -> Fraction:
        _expect_set(b)
        return self.values[sum(1 << j for j in b)]


@dataclass(frozen=True)
class GeneralMU:
    """Explicit table over quantities ``0..m``."""

    values: tuple

    tag = "general-mu"
    kind = MULTI_UNIT
    __hash__ = _cached_hash

    def __post_init__(self):
        _read_fields(self)
        vals = self.values
        _nonneg(vals)
        if not vals:
            raise ValuationError("empty quantity table")
        if vals[0] != 0:
            raise ValuationError("not normalized: v(0) must be 0")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValuationError("table violates monotonicity")

    def evaluate(self, b: Bundle) -> Fraction:
        _expect_int(b)
        return self.values[b]


FAMILIES = {
    cls.tag: cls
    for cls in (AdditiveValuation, UnitDemandValuation, SingleMindedCA, SingleMindedMU,
                GeneralCA, GeneralMU)
}

#: Per family: the field that must fit a setting of m items, whether it
#: does, and what it must be.
_FITS = {
    AdditiveValuation: ("values", lambda v, m: len(v.values) == m, "m entries"),
    UnitDemandValuation: ("values", lambda v, m: len(v.values) == m, "m entries"),
    GeneralCA: ("values", lambda v, m: len(v.values) == 1 << m, "2^m entries"),
    GeneralMU: ("values", lambda v, m: len(v.values) == m + 1, "m + 1 entries"),
    SingleMindedCA: ("bundle", lambda v, m: all(0 <= j < m for j in v.bundle),
                     "integer item indices in 0..m-1"),
    SingleMindedMU: ("quantity", lambda v, m: v.quantity <= m, "an integer in 1..m"),
}


def _expect_set(b) -> None:
    if not isinstance(b, frozenset):
        raise ValuationError("bundle kind mismatch: expected a combinatorial bundle")


def _expect_int(b) -> None:
    if not is_int(b):
        raise ValuationError("bundle kind mismatch: expected a multi-unit quantity")


def evaluate(valuation, bundle: Bundle) -> Fraction:
    """Value of ``bundle`` under ``valuation`` (dispatches on the family)."""
    return valuation.evaluate(bundle)


def make_valuation(tag: str, **params):
    """Build and validate a valuation from its tag and parameters."""
    cls = FAMILIES.get(tag)
    if cls is None:
        raise ValuationError(f"unknown valuation tag {tag!r}")
    return cls(**params)


@dataclass(frozen=True)
class Domain:
    """One finite, nonempty valuation list per player; every valuation has
    the setting's kind and fits its m items (``_FITS``)."""

    setting: AuctionSetting
    players: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "players", tuple(tuple(vs) for vs in self.players)
        )
        if len(self.players) != self.setting.n:
            raise ValuationError("need one valuation list per player")
        m = self.setting.m
        for i, vs in enumerate(self.players):
            if not vs:
                raise ValuationError("every player needs a nonempty valuation list")
            for v in vs:
                if v.kind != self.setting.kind:
                    raise ValuationError(
                        f"{v.tag} valuation incompatible with {self.setting.kind} setting"
                    )
                name, fits, need = _FITS[type(v)]
                if not fits(v, m):
                    raise ValuationError(
                        f"{v.tag} valuation of player {i}: {name!r} field needs {need} (m = {m})"
                    )

    def profiles(self):
        return itertools.product(*self.players)

    def size(self) -> int:
        out = 1
        for vs in self.players:
            out *= len(vs)
        return out


ADVERSARIAL_FAMILIES = ("mu-single-minded", "ca-single-minded", "additive", "unit-demand")


def adversarial_domain(setting: AuctionSetting, family: str, featured=(0, 1)) -> Domain:
    """The exact valuation subsets driving the lower-bound arguments.

    ``featured`` names the two players who receive the full valuation sets
    (the argument's "bidders 1 and 2"); everyone else keeps the singleton
    one-item valuation.  Requires m >= 2 and n >= 2.
    """
    m, n = setting.m, setting.n
    if m < 2 or n < 2:
        raise ValuationError("adversarial domains need m >= 2 and n >= 2")
    if family not in ADVERSARIAL_FAMILIES:
        raise ValuationError(f"unknown adversarial family {family!r}")
    a, b = featured
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValuationError("featured players must be two distinct player ids")
    k = Fraction(max(m, n))

    def target_item(i: int) -> int:
        # player i's privately valuable item; everyone past the item count
        # shares the last item
        return min(i, m - 1)

    if target_item(a) == target_item(b):
        raise ValuationError("featured players must have distinct target items")

    if family == "mu-single-minded":
        one = SingleMindedMU(quantity=1, value=Fraction(1))
        featured_set = (
            one,
            SingleMindedMU(quantity=1, value=k**2 + 1),
            SingleMindedMU(quantity=m, value=k**4),
        )
        players = [
            featured_set if i in (a, b) else (one,) for i in range(n)
        ]
        return Domain(setting=setting, players=tuple(players))

    if family == "ca-single-minded":
        def own(i: int, x: Fraction) -> SingleMindedCA:
            return SingleMindedCA(bundle=frozenset({target_item(i)}), value=x)

        everything = SingleMindedCA(bundle=frozenset(range(m)), value=k**4)
        players = [
            (own(i, Fraction(1)), own(i, k**2 + 1), everything) if i in (a, b)
            else (own(i, Fraction(1)),)
            for i in range(n)
        ]
        return Domain(setting=setting, players=tuple(players))

    # additive and unit-demand share one parameterization
    cls = AdditiveValuation if family == "additive" else UnitDemandValuation

    def vector(item_values: dict) -> tuple:
        vals = [Fraction(0)] * m
        for j, x in item_values.items():
            vals[j] = x
        return tuple(vals)

    def single(j: int, x: Fraction):
        return cls(values=vector({j: x}))

    players = []
    for i in range(n):
        t_own = target_item(i)
        if i in (a, b):
            t_other = target_item(b if i == a else a)
            players.append(
                (
                    single(t_own, Fraction(1)),
                    single(t_own, 3 * k**4),
                    single(t_other, 3 * k**4),
                    cls(values=vector({t_own: 2 * k**2 + 2, t_other: 2 * k**2})),
                )
            )
        else:
            players.append((single(t_own, Fraction(1)),))
    return Domain(setting=setting, players=tuple(players))


def restricted_additive_domain(x_l, x_h, setting: AuctionSetting) -> Domain:
    """All additive valuations with per-item values in {0, x_l, x_h}."""
    x_l, x_h = read_rational(x_l), read_rational(x_h)
    if not 0 < x_l < x_h:
        raise ValuationError("need 0 < x_l < x_h")
    if not setting.is_combinatorial:
        raise ValuationError("restricted additive domain is combinatorial")
    levels = (Fraction(0), x_l, x_h)
    vals = tuple(
        AdditiveValuation(values=combo)
        for combo in itertools.product(levels, repeat=setting.m)
    )
    return Domain(setting=setting, players=tuple(vals for _ in range(setting.n)))
