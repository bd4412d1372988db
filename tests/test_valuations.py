"""Valuation families, adversarial fixtures, restricted domains."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ospcheck import (
    AdditiveValuation,
    AuctionSetting,
    Domain,
    GeneralCA,
    GeneralMU,
    SingleMindedCA,
    SingleMindedMU,
    UnitDemandValuation,
    ValuationError,
    adversarial_domain,
    evaluate,
    make_valuation,
    restricted_additive_domain,
)
from ospcheck.valuations import FAMILIES

CA22 = AuctionSetting(kind="combinatorial", n=2, m=2)
MU22 = AuctionSetting(kind="multi-unit", n=2, m=2)


def test_evaluate_basics():
    add = AdditiveValuation(values=(Fraction(3), Fraction(1)))
    ud = UnitDemandValuation(values=(Fraction(3), Fraction(1)))
    both = frozenset({0, 1})
    assert evaluate(add, both) == 4
    assert evaluate(ud, both) == 3
    assert evaluate(add, frozenset()) == 0
    assert evaluate(ud, frozenset()) == 0


def test_evaluate_mu_single_minded_all():
    v_all = SingleMindedMU(quantity=2, value=Fraction(16))
    assert evaluate(v_all, 1) == 0
    assert evaluate(v_all, 2) == 16


def test_kind_mismatch():
    add = AdditiveValuation(values=(Fraction(1),))
    with pytest.raises(ValuationError, match="mismatch"):
        evaluate(add, 1)
    smu = SingleMindedMU(quantity=1, value=Fraction(1))
    with pytest.raises(ValuationError, match="mismatch"):
        evaluate(smu, frozenset({0}))


def test_make_valuation_validation():
    with pytest.raises(ValuationError, match="normalized"):
        make_valuation("general-ca", values=[Fraction(1), Fraction(1)])
    with pytest.raises(ValuationError, match="monotonicity"):
        make_valuation("general-mu", values=[Fraction(0), Fraction(2), Fraction(1)])
    with pytest.raises(ValuationError, match="nonnegative"):
        make_valuation("additive", values=[Fraction(-1)])
    sm = make_valuation("single-minded-ca", bundle={0}, value=Fraction(5))
    assert evaluate(sm, frozenset({0, 1})) == 5
    assert evaluate(sm, frozenset({1})) == 0


def test_mu_adversarial_values():
    dom = adversarial_domain(MU22, "mu-single-minded")
    assert [v.value for v in dom.players[0]] == [1, 5, 16]
    assert [v.quantity for v in dom.players[0]] == [1, 1, 2]
    assert dom.players[0] == dom.players[1]


def test_mu_adversarial_third_player_singleton():
    setting = AuctionSetting(kind="multi-unit", n=3, m=2)
    dom = adversarial_domain(setting, "mu-single-minded")
    assert len(dom.players[2]) == 1
    assert dom.players[2][0] == SingleMindedMU(quantity=1, value=Fraction(1))
    # k = max(m, n) = 3 there
    assert dom.players[0][1].value == 10
    assert dom.players[0][2].value == 81


def test_ca_adversarial_values():
    dom = adversarial_domain(CA22, "ca-single-minded")
    one, big_one, everything = dom.players[0]
    assert (one.bundle, one.value) == (frozenset({0}), 1)
    assert (big_one.bundle, big_one.value) == (frozenset({0}), 5)
    assert (everything.bundle, everything.value) == (frozenset({0, 1}), 16)
    two = dom.players[1]
    assert two[0].bundle == frozenset({1})
    assert two[1].value == 5 and two[1].bundle == frozenset({1})
    # a third player is not featured: she holds her own item's value 1 alone
    three = adversarial_domain(AuctionSetting(kind="combinatorial", n=3, m=2), "ca-single-minded")
    assert three.players[2] == (SingleMindedCA(bundle=frozenset({1}), value=Fraction(1)),)


def test_additive_adversarial_values():
    dom = adversarial_domain(CA22, "additive")
    p0 = dom.players[0]
    assert p0[0].values == (1, 0)
    assert p0[1].values == (48, 0)
    assert p0[2].values == (0, 48)
    assert p0[3].values == (10, 8)
    p1 = dom.players[1]
    assert p1[0].values == (0, 1)
    assert p1[3].values == (8, 10)


def test_unit_demand_adversarial_matches_additive_numbers():
    add = adversarial_domain(CA22, "additive")
    ud = adversarial_domain(CA22, "unit-demand")
    for vs_a, vs_u in zip(add.players, ud.players):
        assert [v.values for v in vs_a] == [v.values for v in vs_u]
        assert all(isinstance(v, UnitDemandValuation) for v in vs_u)


def test_adversarial_featured_permutation():
    setting = AuctionSetting(kind="multi-unit", n=3, m=3)
    dom = adversarial_domain(setting, "mu-single-minded", featured=(1, 2))
    assert len(dom.players[0]) == 1
    assert len(dom.players[1]) == 3
    assert len(dom.players[2]) == 3


def test_adversarial_preconditions():
    small = AuctionSetting(kind="multi-unit", n=1, m=2)
    with pytest.raises(ValuationError):
        adversarial_domain(small, "mu-single-minded")
    with pytest.raises(ValuationError):
        adversarial_domain(MU22, "no-such-family")


def test_adversarial_value_ordering():
    for n, m in [(2, 2), (3, 2), (2, 4), (5, 3)]:
        mu = AuctionSetting(kind="multi-unit", n=n, m=m)
        dom = adversarial_domain(mu, "mu-single-minded")
        k = max(m, n)
        one, big, everything = (v.value for v in dom.players[0])
        assert 1 == one < big == k**2 + 1 < everything == k**4
        ca = AuctionSetting(kind="combinatorial", n=n, m=m)
        add = adversarial_domain(ca, "additive")
        both_hi = add.players[0][3].values
        assert 2 * k**2 < 2 * k**2 + 2 < 3 * k**4
        assert sorted(both_hi, reverse=True)[:2] == [2 * k**2 + 2, 2 * k**2]


def test_restricted_additive_domain():
    dom = restricted_additive_domain(1, 3, CA22)
    assert all(len(vs) == 9 for vs in dom.players)
    vectors = {v.values for v in dom.players[0]}
    assert (Fraction(0), Fraction(0)) in vectors
    assert (Fraction(3), Fraction(1)) in vectors
    assert len(vectors) == 9
    with pytest.raises(ValuationError):
        restricted_additive_domain(3, 1, CA22)
    with pytest.raises(ValuationError):
        restricted_additive_domain(0, 1, CA22)


def test_additive_and_unit_demand_agree_on_singletons():
    rng = random.Random(9)
    for _ in range(20):
        values = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(3))
        add = AdditiveValuation(values=values)
        ud = UnitDemandValuation(values=values)
        for j in range(3):
            assert evaluate(add, frozenset({j})) == evaluate(ud, frozenset({j}))


def test_evaluate_monotone_every_family():
    rng = random.Random(5)
    m = 3
    ca = AuctionSetting(kind="combinatorial", n=2, m=m)
    fams = [
        AdditiveValuation(values=(Fraction(1), Fraction(2), Fraction(1, 2))),
        UnitDemandValuation(values=(Fraction(1), Fraction(2), Fraction(1, 2))),
        SingleMindedCA(bundle=frozenset({0, 2}), value=Fraction(7, 2)),
    ]
    for v in fams:
        for sub in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(m), r) for r in range(m + 1)
        )):
            for extra in range(m):
                assert evaluate(v, sub | {extra}) >= evaluate(v, sub)
    mu = AuctionSetting(kind="multi-unit", n=2, m=4)
    for v in (SingleMindedMU(quantity=3, value=Fraction(9)),
              GeneralMU(values=(Fraction(0), Fraction(1), Fraction(1), Fraction(4), Fraction(4)))):
        for q in range(mu.m):
            assert evaluate(v, q + 1) >= evaluate(v, q)


def test_hash_is_the_field_tuple_hash():
    """Each family returns the hash stored at construction: the hash of its
    field tuple, as the dataclass would compute it, read from any input."""
    fams = [
        AdditiveValuation(values=(1, "1/3")),
        UnitDemandValuation(values=(Fraction(2, 7), 1)),
        SingleMindedCA(bundle=[0, 1], value="5/97"),
        SingleMindedMU(quantity=2, value=3),
        GeneralCA(values=(0, "1/3", 1, 2)),
        GeneralMU(values=(0, Fraction(3, 97), 1)),
    ]
    assert {type(v) for v in fams} == set(FAMILIES.values())
    for v in fams:
        fields = tuple(getattr(v, f.name) for f in dataclasses.fields(v))
        assert hash(v) == hash(fields)
        twin = dataclasses.replace(v)
        assert twin == v and hash(twin) == hash(v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_general_tables_accept_only_monotone(data):
    m = data.draw(st.integers(min_value=1, max_value=3))
    raw = [Fraction(0)] + [
        Fraction(data.draw(st.integers(min_value=0, max_value=6)))
        for _ in range((1 << m) - 1)
    ]
    monotone = True
    for mask in range(1 << m):
        for j in range(m):
            if mask >> j & 1 and raw[mask] < raw[mask & ~(1 << j)]:
                monotone = False
    if monotone:
        v = GeneralCA(values=tuple(raw))
        full = frozenset(range(m))
        assert evaluate(v, full) == raw[-1]
    else:
        with pytest.raises(ValuationError):
            GeneralCA(values=tuple(raw))


def test_valuation_input_errors():
    """Each check on a valuation, a domain or a fixture's arguments raises
    ValuationError with its reason."""
    one = SingleMindedMU(quantity=1, value=Fraction(1))
    additive = AdditiveValuation(values=(Fraction(1), Fraction(1)))
    ca32 = AuctionSetting(kind="combinatorial", n=3, m=2)
    cases = (
        (lambda: SingleMindedCA(bundle=frozenset({0}), value=Fraction(-1)), "must be nonnegative"),
        (lambda: SingleMindedCA(bundle=frozenset(), value=Fraction(1)), "bundle must be nonempty"),
        (lambda: SingleMindedMU(quantity=1, value=Fraction(-1)), "must be nonnegative"),
        (lambda: SingleMindedMU(quantity=0, value=Fraction(1)), "quantity must be at least 1"),
        (lambda: GeneralCA(values=(Fraction(0),) * 3), "length must be a power of two"),
        (lambda: GeneralCA(values=()), "length must be a power of two"),
        (lambda: GeneralMU(values=()), "empty quantity table"),
        (lambda: GeneralMU(values=(Fraction(1),)), "v(0) must be 0"),
        (lambda: make_valuation("bogus"), "unknown valuation tag 'bogus'"),
        (lambda: Domain(setting=MU22, players=((one,),)), "one valuation list per player"),
        (lambda: Domain(setting=MU22, players=((one,), ())), "nonempty valuation list"),
        (lambda: Domain(setting=MU22, players=((one,), (additive,))),
         "additive valuation incompatible with multi-unit setting"),
        (lambda: adversarial_domain(MU22, "mu-single-minded", featured=(0, 0)),
         "two distinct player ids"),
        (lambda: adversarial_domain(MU22, "mu-single-minded", featured=(0, 2)),
         "two distinct player ids"),
        (lambda: adversarial_domain(ca32, "additive", featured=(1, 2)), "distinct target items"),
        (lambda: restricted_additive_domain(1, 2, MU22), "domain is combinatorial"),
    )
    for make, message in cases:
        with pytest.raises(ValuationError) as caught:
            make()
        assert message in str(caught.value)
