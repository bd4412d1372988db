"""Search engine: stream counts, scan and oracle agreement, verdict plumbing."""

import functools
import gc
import hashlib
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ospcheck import (
    AdditiveValuation,
    AuctionSetting,
    Domain,
    SearchSpace,
    SingleMindedMU,
    adversarial_domain,
    ascending_single_item,
    build_tree,
    check_dsic,
    check_ir,
    check_nnt,
    check_osp,
    default_payment_grid,
    falsify_impossibility,
    first_divergence,
    grand_bundle_ascending,
    mu_payment_bounds,
    scan_bad_leaf_good_leaf,
    second_price_single_item,
    serial_posted_price,
    welfare_ratio,
)
from ospcheck.checkers import _mu_fixture_bounds
from ospcheck.search import (
    LOW_VIOL,
    MISSES_MINMN,
    MISSES_TARGET,
    SQUARE_VIOL,
    _partitions,
    _Scan,
)
from ospcheck.serialize import parse_mechanism, serialize_mechanism

from helpers import normalized_stream, oracle_combine, oracle_scan, random_instance

CA11 = AuctionSetting(kind="combinatorial", n=1, m=1)
CA22 = AuctionSetting(kind="combinatorial", n=2, m=2)
MU22 = AuctionSetting(kind="multi-unit", n=2, m=2)
MU32 = AuctionSetting(kind="multi-unit", n=3, m=2)
ZERO_GRID = (Fraction(0),)


def val(x):
    return AdditiveValuation(values=(Fraction(x),))


def test_singleton_domain_streams_leaf_mechanisms():
    dom = Domain(setting=CA11, players=((val(1),),))
    space = SearchSpace(domain=dom, payment_grid=ZERO_GRID)
    bundles = list(normalized_stream(space))
    assert len(bundles) == 2  # item unallocated or to the only player
    assert all(b.tree.depth == 0 for b in bundles)


def test_two_valuation_count_closed_form():
    dom = Domain(setting=CA11, players=((val(1), val(2)),))
    space = SearchSpace(domain=dom, payment_grid=ZERO_GRID)
    bundles = list(normalized_stream(space))
    assert len(bundles) == 2 + 4  # |alloc| + |alloc|^2


def test_streamed_bundles_are_valid_and_strategies_total():
    dom = Domain(
        setting=MU22,
        players=(
            (SingleMindedMU(1, Fraction(1)), SingleMindedMU(2, Fraction(3))),
            (SingleMindedMU(1, Fraction(2)),),
        ),
    )
    space = SearchSpace(domain=dom, payment_grid=(Fraction(0), Fraction(1)))
    seen = 0
    for bundle in normalized_stream(space):
        seen += 1  # MechanismBundle construction validates tree + totality
        for i, vs in enumerate(dom.players):
            assert all(v in bundle.strategies[i] for v in vs)
    assert seen > 6


def _mixed_space():
    # values in thirds and sevenths, payments in 97ths and sevenths: the
    # common denominator is 2037, and no value or payment is an integer there
    dom = Domain(
        setting=MU22,
        players=(
            (SingleMindedMU(1, Fraction(1, 3)), SingleMindedMU(2, Fraction(5, 7))),
            (SingleMindedMU(1, Fraction(2, 7)),),
        ),
    )
    return SearchSpace(domain=dom, payment_grid=(Fraction(0), Fraction(1, 97), Fraction(2, 7)))


def test_stream_pinned():
    # member counts and the SHA-256 of the concatenated serialized members,
    # recorded from the stream the library built before it moved here
    dom = adversarial_domain(MU22, "mu-single-minded")
    cases = [
        (SearchSpace(
            domain=Domain(setting=MU22, players=(
                (SingleMindedMU(1, Fraction(1)), SingleMindedMU(2, Fraction(16))),
                (SingleMindedMU(1, Fraction(1)),),
            )),
            payment_grid=(Fraction(0), Fraction(1)),
        ), 600, "2b5b0d4e228ca47609625103cc315d521873e7eb4d08d0bce7f849812203fb37"),
        (SearchSpace(
            domain=Domain(setting=MU22, players=tuple(vs[:2] for vs in dom.players)),
            payment_grid=ZERO_GRID,
        ), 3534, "c60e6879f26665edf9cbf1e656a50a8c76bd0619b74b1f3862d15822c12e7ab3"),
        (_mixed_space(), 2970,
         "35dcad66c489548260cbf0aac357caa38aa72c70a177d9247f83e45f0a941d31"),
    ]
    for space, members, digest in cases:
        h = hashlib.sha256()
        count = 0
        for bundle in normalized_stream(space):
            h.update(serialize_mechanism(bundle).encode())
            count += 1
        assert (count, h.hexdigest()) == (members, digest)


def test_scan_scales_non_unit_denominators():
    space = _mixed_space()
    off = oracle_scan(space, Fraction(3, 2))
    on = falsify_impossibility(space, Fraction(3, 2))
    assert on.outcome == off.outcome == "counterexample"
    assert on.survivors == on.examined == off.survivors == 190
    assert on.audit == off.audit
    text = serialize_mechanism(on.counterexample)
    assert text == serialize_mechanism(off.counterexample)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "164470de0666f265b59e0ab571bcabc6f3125a37cb88804fcec122be4b504449"
    )


def test_space_validation():
    dom = Domain(setting=CA11, players=((val(1),),))
    with pytest.raises(ValueError, match="grid"):
        SearchSpace(domain=dom, payment_grid=())
    space = SearchSpace(domain=dom, payment_grid=ZERO_GRID)
    with pytest.raises(ValueError, match="target"):
        falsify_impossibility(space, Fraction(1))


def test_space_reads_exact_rationals():
    # grid levels and the target are read as the file formats read them: a
    # float would be stored inexactly (0.1 is not 1/10) and a bool is no number
    dom = Domain(setting=CA11, players=((val(1),),))
    assert SearchSpace(domain=dom, payment_grid=(0, "1/10", Fraction(1))).payment_grid == (
        Fraction(0), Fraction(1, 10), Fraction(1))
    space = SearchSpace(domain=dom, payment_grid=ZERO_GRID)
    for bad in (0.1, True, "x"):
        with pytest.raises(ValueError, match="rational"):
            SearchSpace(domain=dom, payment_grid=(0, bad))
    for bad in (2.1, True, "x"):
        with pytest.raises(ValueError, match="rational"):
            falsify_impossibility(space, bad)


def test_space_rejects_negative_grid_levels():
    # no leaf may charge a negative payment, so such a level would be dropped
    # silently, and a grid of negative levels alone would pass vacuously
    dom = adversarial_domain(MU22, "mu-single-minded")
    for grid, level in (((-1,), "-1"), ((-1, 0), "-1"), ((0, Fraction(-1, 2), 1), "-1/2")):
        with pytest.raises(ValueError, match=f"payment grid level {level} is negative"):
            SearchSpace(domain=dom, payment_grid=grid)


def test_budget_is_read_strictly():
    # a budget is a real number of seconds: a bool is no number, a string is
    # not read, NaN is never reached and a negative budget is meaningless
    space = _sub_space()
    for bad in (True, False, "5", float("nan"), -1, Fraction(-1, 2), [1]):
        with pytest.raises(ValueError, match="time budget"):
            falsify_impossibility(space, Fraction(2), budget_seconds=bad)
    for good in (0, 0.0, Fraction(0)):
        verdict = falsify_impossibility(space, Fraction(2), budget_seconds=good)
        assert verdict.outcome == "budget-exhausted"
    assert falsify_impossibility(space, Fraction(2), budget_seconds=60).outcome == "counterexample"


def test_space_rejects_repeated_valuations():
    # plans are keyed by valuation, so two copies of one valuation share a
    # plan: the scan would count trees that no strategy table expresses
    one, five = SingleMindedMU(1, Fraction(1)), SingleMindedMU(1, Fraction(5))
    for players in (((one, one), (one,)), ((one, five, one), (one,)), ((one,), (five, five))):
        dom = Domain(setting=MU22, players=players)
        player = next(i for i, vs in enumerate(players) if len(set(vs)) < len(vs))
        with pytest.raises(ValueError, match=f"player {player} lists a valuation twice"):
            SearchSpace(domain=dom, payment_grid=(Fraction(0), Fraction(1)))


def _sub_space(grid=(Fraction(0), Fraction(1))):
    dom = adversarial_domain(MU22, "mu-single-minded")
    sub = Domain(setting=MU22, players=(dom.players[0], (dom.players[1][0],)))
    return SearchSpace(domain=sub, payment_grid=grid)


def test_scan_and_oracle_agree_on_first_counterexample():
    space = _sub_space()
    on = falsify_impossibility(space, Fraction(2))
    off = oracle_scan(space, Fraction(2), stop_at_first=True)
    assert on.outcome == off.outcome == "counterexample"
    assert serialize_mechanism(on.counterexample) == serialize_mechanism(off.counterexample)
    fast = falsify_impossibility(space, Fraction(2), audit_survivors=False)
    assert serialize_mechanism(fast.counterexample) == serialize_mechanism(on.counterexample)


def test_aggregated_totals_match_checker_by_checker_scan():
    # small enough to judge every raw stream member with the real checkers
    dom = Domain(
        setting=MU22,
        players=(
            (SingleMindedMU(1, Fraction(1)), SingleMindedMU(2, Fraction(16))),
            (SingleMindedMU(1, Fraction(1)),),
        ),
    )
    space = SearchSpace(domain=dom, payment_grid=(Fraction(0), Fraction(1)))
    oracle = oracle_scan(space, Fraction(2))
    raw, survivors = oracle.members, oracle.survivors
    assert raw == 600  # |alloc|*|grid|^2 + (|alloc|*|grid|^2)^2 = 24 + 576
    # the aggregated scan tallies every class even after a counterexample,
    # so its examined/survivor totals must equal the checker-by-checker count
    on = falsify_impossibility(space, Fraction(2))
    assert on.examined == survivors
    assert on.audit["survivors_checked"] == survivors
    assert on.audit["low_profile_bound_failures"] == 0


def test_aggregated_totals_match_checker_by_checker_scan_both_speaking():
    # both players hold two valuations, so sibling joins run under either
    # speaker; a join index shared across speakers miscounts here
    dom = adversarial_domain(MU22, "mu-single-minded")
    sub = Domain(setting=MU22, players=tuple(vs[:2] for vs in dom.players))
    space = SearchSpace(domain=sub, payment_grid=ZERO_GRID)
    off = oracle_scan(space, Fraction(2))
    raw, survivors = off.members, off.survivors
    assert (raw, survivors) == (3534, 262)
    on = falsify_impossibility(space, Fraction(2))
    assert on.examined == on.survivors == survivors
    assert on.outcome == off.outcome == "counterexample"
    assert serialize_mechanism(on.counterexample) == serialize_mechanism(off.counterexample)


def test_aggregated_audit_matches_checkers():
    # every stream member judged by the checkers alone: welfare_ratio for the
    # premise (ratio below min(m, n) = 2), mu_payment_bounds for both bounds
    space = _sub_space(grid=(Fraction(0), Fraction(5)))
    oracle = oracle_scan(space, Fraction(2))
    members, survivors, audit = oracle.members, oracle.survivors, oracle.audit
    premise, square_failures = audit["square_bound_premise_met"], audit["square_bound_failures"]
    low_failures = audit["low_profile_bound_failures"]
    assert (members, survivors, premise, square_failures, low_failures) == (57048, 458, 23, 9, 0)
    on = falsify_impossibility(space, Fraction(2))
    assert on.survivors == survivors
    assert on.audit == {
        "applicable": True,
        "survivors_checked": survivors,
        "low_profile_bound_failures": low_failures,
        "square_bound_premise_met": premise,
        "square_bound_failures": square_failures,
    }


def test_prefix_join_matches_per_combination_oracle():
    # every memo key's class list, entry by entry (summary, flags, count,
    # descriptor) and in order, against the join that merges each
    # combination of child classes on its own; the two scans intern rows in
    # different orders, so summaries are compared as rows, not as row ids
    dom = adversarial_domain(MU22, "mu-single-minded")
    k = max(MU22.m, MU22.n)
    square = SingleMindedMU(quantity=MU22.m, value=Fraction(k**2))
    grid = (Fraction(0), Fraction(1), Fraction(5))
    three = Domain(setting=MU32, players=(
        (SingleMindedMU(1, Fraction(1)), SingleMindedMU(2, Fraction(3))),
        (SingleMindedMU(1, Fraction(1)), SingleMindedMU(2, Fraction(5))),
        (SingleMindedMU(1, Fraction(2)), SingleMindedMU(2, Fraction(4))),
    ))
    cases = [  # (domain, grid, beating_only, classes over all memo keys)
        (dom, grid, False, 5018),
        (Domain(setting=MU22, players=tuple(vs[:2] for vs in dom.players)), grid, False, 91),
        (Domain(setting=MU22, players=tuple(vs + (square,) if len(vs) > 1 else vs
                                            for vs in dom.players)), grid, True, 5765),
        # three players who all speak: a join folds two non-speaker rows
        (three, (Fraction(0), Fraction(1), Fraction(3)), False, 853),
        (adversarial_domain(CA22, "ca-single-minded"), (Fraction(0), Fraction(1)), False, 2216),
        (dom, (Fraction(0), Fraction(1), Fraction(4), Fraction(5)), False, 11989),
    ]
    for domain, grid, beating_only, size in cases:
        space = SearchSpace(domain=domain, payment_grid=grid)
        memos = []
        for combine in (None, oracle_combine):
            agg = _Scan(space, Fraction(2), beating_only=beating_only)
            if combine is not None:
                agg._combine = functools.partial(combine, agg)
            agg.classes(agg.full)
            memos.append({
                key: [(tuple(map(agg.row_of.__getitem__, c[0])),) + c[1:] for c in entry[0]]
                for key, entry in agg.memo.items()
            })
        prefix, oracle = memos
        assert prefix.keys() == oracle.keys()
        for key, classes in oracle.items():
            assert len(prefix[key]) == len(classes), key
            for got, want in zip(prefix[key], classes):
                assert got == want, key
        assert sum(map(len, oracle.values())) == size


def test_class_words_carry_only_read_bits(monkeypatch):
    # a refute scan lists only target-beating leaves and reads no audit bit,
    # so every word is 0 and the fixture's audit profiles are never looked up
    dom = adversarial_domain(MU22, "mu-single-minded")
    square = SingleMindedMU(quantity=MU22.m, value=Fraction(4))
    augmented = Domain(setting=MU22, players=tuple(vs + (square,) if len(vs) > 1 else vs
                                                   for vs in dom.players))
    grid = (Fraction(0), Fraction(1), Fraction(5))

    def words(scan):
        return {c[1] for classes, _, _ in scan.memo.values() for c in classes}

    with monkeypatch.context() as patch:
        patch.setattr("ospcheck.search._mu_fixture_bounds", None)
        refute = _Scan(SearchSpace(domain=augmented, payment_grid=grid), Fraction(2),
                       beating_only=True)
        refute.classes(refute.full)
        assert words(refute) == {0}
        assert not refute.audit_applicable
    # off the fixture an audited scan reads only the target bit, even where
    # min(m, n) = 2 and the target 3/2 differ
    three = Domain(setting=MU32, players=(
        (SingleMindedMU(1, Fraction(1)), SingleMindedMU(2, Fraction(3))),
        (SingleMindedMU(1, Fraction(1)), SingleMindedMU(2, Fraction(5))),
        (SingleMindedMU(1, Fraction(2)), SingleMindedMU(2, Fraction(4))),
    ))
    audited = _Scan(SearchSpace(domain=three, payment_grid=grid), Fraction(3, 2))
    audited.classes(audited.full)
    assert not audited.audit_applicable
    assert words(audited) == {0, MISSES_TARGET}
    # an audited fixture scan sets the audit bits too (IR caps the all-one
    # winners' payments at 1 here, so LOW_VIOL never shows)
    fixture = _Scan(SearchSpace(domain=augmented, payment_grid=grid), Fraction(3))
    fixture.classes(fixture.full)
    assert fixture.audit_applicable
    assert functools.reduce(int.__or__, words(fixture)) == (
        MISSES_TARGET | MISSES_MINMN | SQUARE_VIOL)


def test_leaf_flags_read_the_declared_bounds():
    # a bound holds a bidder only if her bundle covers the declared one; the
    # scan lists no leaf that breaks IR, where that test never decides, so
    # these leaves are made by hand
    dom = adversarial_domain(MU22, "mu-single-minded")
    scan = _Scan(SearchSpace(domain=dom, payment_grid=(0, 5)), Fraction(2))
    (all_one, _, _), (spike, _, _) = _mu_fixture_bounds(MU22, dom.players)

    def bit(profile):
        return 1 << sum(dom.players[i].index(v) * scan.strides[i] for i, v in enumerate(profile))

    for alloc, profile, word in (
            ((2, 0), spike, SQUARE_VIOL),  # the all-units winner pays 5 > k^2 = 4
            ((1, 1), spike, 0),            # one unit does not cover all m = 2
            ((1, 0), all_one, LOW_VIOL),   # a winner pays 5 > 1
            ((0, 1), all_one, 0)):         # a bidder with no unit is not held
        pays = (5 * scan.scale, 0)
        got = scan.leaf_flags(bit(profile), scan.allocations.index(alloc), pays)
        assert got & (LOW_VIOL | SQUARE_VIOL) == word, alloc


def test_counterexample_reverifies():
    space = _sub_space()
    verdict = falsify_impossibility(space, Fraction(2))
    bundle = verdict.counterexample
    assert check_osp(*bundle.checker_args()).passed
    assert check_ir(*bundle.checker_args()).passed
    assert check_nnt(*bundle.checker_args()).passed
    report = welfare_ratio(*bundle.checker_args())
    assert not report.unbounded and report.ratio < 2


def test_determinism_across_runs():
    space = _sub_space()
    a = falsify_impossibility(space, Fraction(2))
    b = falsify_impossibility(space, Fraction(2))
    assert a.outcome == b.outcome and a.examined == b.examined
    assert serialize_mechanism(a.counterexample) == serialize_mechanism(b.counterexample)


def test_budget_exhaustion():
    dom = adversarial_domain(MU22, "mu-single-minded")
    space = SearchSpace(domain=dom, payment_grid=default_payment_grid(MU22))
    verdict = falsify_impossibility(space, Fraction(2), budget_seconds=0.0)
    assert verdict.outcome == "budget-exhausted"
    assert verdict.caveat
    # a scan too small to reach the periodic check in the join still stops
    small = falsify_impossibility(_sub_space(), Fraction(2), budget_seconds=0.0)
    assert small.outcome == "budget-exhausted"
    # the join and the leaf tables check the deadline as they go
    start = time.monotonic()
    short = falsify_impossibility(space, Fraction(2), budget_seconds=0.3)
    assert short.outcome == "budget-exhausted"
    assert short.elapsed < 2 and time.monotonic() - start < 2
    # counts exist only at the root, so how far the scan got is the progress
    assert (short.examined, short.survivors, short.audit["survivors_checked"]) == (0, 0, 0)
    assert short.progress["join_steps"] > 0
    assert verdict.progress == {"positions_done": 0, "join_steps": 0}


def test_default_payment_grid_follows_setting_kind():
    ints = [Fraction(t) for t in range(6)]
    assert default_payment_grid(MU22) == tuple(ints + [Fraction(16)])
    assert default_payment_grid(CA22) == tuple(ints + [Fraction(t) for t in (8, 10, 16, 20)])


def test_verdict_carries_class_description_and_caveat():
    space = _sub_space()
    verdict = falsify_impossibility(space, Fraction(2))
    assert "normalized" in verdict.class_description
    assert "grid" in verdict.caveat


def test_partitions_pinned():
    """Partitions into at least two blocks, in restricted-growth order: Bell(k) - 1
    of them for k elements, pinned by SHA-256 for 1 to 5 elements."""
    def partitions(k):
        # blocks are bitmasks; read them back as element tuples
        return [tuple(tuple(vi for vi in range(k) if block >> vi & 1) for block in part)
                for part in _partitions((1 << k) - 1)]

    assert [len(partitions(k)) for k in range(1, 6)] == [0, 1, 4, 14, 51]
    assert partitions(3) == [
        ((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2)), ((0,), (1,), (2,)),
    ]
    digest = hashlib.sha256(repr([partitions(k) for k in range(1, 6)]).encode())
    assert digest.hexdigest() == "893652573f657d87f9f46a033fc450fd659ec16408728897805c73eb5c2c7db7"


def test_scan_leaves_no_reference_cycle():
    """With the cyclic collector off, parsing, building a tree, the reference
    constructors, a refute scan, an audited scan that materializes its
    counterexample and every checker leave nothing for it to collect."""
    rng = random.Random(21)
    texts = [serialize_mechanism(random_instance(rng)) for _ in range(200)]
    space = SearchSpace(
        domain=adversarial_domain(MU22, "mu-single-minded"),
        payment_grid=(Fraction(0), Fraction(1), Fraction(5)),
    )
    checkers = (check_osp, check_dsic, check_ir, check_nnt, welfare_ratio,
                scan_bad_leaf_good_leaf, first_divergence)
    constructors = (
        functools.partial(grand_bundle_ascending, MU22, 16, domain=space.domain),
        functools.partial(grand_bundle_ascending, MU22, 12),
        functools.partial(ascending_single_item, 6, n=3),
        functools.partial(serial_posted_price, 1, 3, CA22),
        functools.partial(second_price_single_item, 3),
    )
    gc.collect()
    gc.disable()
    try:
        bundles = [parse_mechanism(text) for text in texts]
        assert gc.collect() == 0
        build_tree({"allocation": [[0]], "payments": ["0"]}, CA11)
        assert gc.collect() == 0
        for construct in constructors:
            bundles.append(construct())
            assert gc.collect() == 0
        verdict = falsify_impossibility(space, Fraction(2), audit_survivors=False)
        assert verdict.outcome == "counterexample"
        assert gc.collect() == 0
        verdict = falsify_impossibility(space, Fraction(2))
        assert verdict.outcome == "counterexample"
        assert gc.collect() == 0
        for bundle in bundles + [verdict.counterexample]:
            for check in checkers:
                check(*bundle.checker_args())
        mu_payment_bounds(*verdict.counterexample.checker_args())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_budget_is_read_while_allocations_are_drawn(monkeypatch):
    """The scan reads its deadline every 4,096 allocations while it enumerates
    them and builds their value rows: once the deadline passes, at most 4,096
    more allocations are drawn, not all (n+1)^m = 177,147 of CA n = 2, m = 11."""
    from ospcheck import checkers, search

    setting = AuctionSetting(kind="combinatorial", n=2, m=11)
    vals = tuple(AdditiveValuation(values=tuple(Fraction(j + t) for j in range(11)))
                 for t in range(3))
    space = SearchSpace(domain=Domain(setting=setting, players=(vals, vals)),
                        payment_grid=(Fraction(0), Fraction(1)))
    drawn, passes_at = [0], 10_000
    enumerate_allocations = checkers.enumerate_allocations

    def counted(setting):
        for allocation in enumerate_allocations(setting):
            drawn[0] += 1
            yield allocation

    monkeypatch.setattr(checkers, "enumerate_allocations", counted)
    monkeypatch.setattr(search, "time", SimpleNamespace(
        monotonic=lambda: 0.0 if drawn[0] < passes_at else 1.0))
    verdict = falsify_impossibility(space, Fraction(2), budget_seconds=0.5)
    assert verdict.outcome == "budget-exhausted"
    assert passes_at <= drawn[0] <= passes_at + 4096


def test_budget_is_read_while_predicates_are_scored(monkeypatch):
    """The scan reads its deadline every 4,096 allocations while it scores each
    profile's allocations against the target: once the deadline passes, at most
    4,096 more of the 177,147 allocations of CA n = 2, m = 11 are scored."""
    from ospcheck import search
    from ospcheck.checkers import ExactValues

    setting = AuctionSetting(kind="combinatorial", n=2, m=11)
    vals = tuple(AdditiveValuation(values=tuple(Fraction((j + t) % 3) for j in range(11)))
                 for t in range(3))
    space = SearchSpace(domain=Domain(setting=setting, players=(vals, vals)),
                        payment_grid=(Fraction(0), Fraction(1)))
    scored, passes_at = [0], 10_000
    ratio = ExactValues.ratio

    def counted(sw, opt):
        scored[0] += 1
        return ratio(sw, opt)

    monkeypatch.setattr(ExactValues, "ratio", staticmethod(counted))
    monkeypatch.setattr(search, "time", SimpleNamespace(
        monotonic=lambda: 0.0 if scored[0] < passes_at else 1.0))
    verdict = falsify_impossibility(space, Fraction(2), budget_seconds=0.5)
    assert verdict.outcome == "budget-exhausted"
    assert passes_at <= scored[0] <= passes_at + 4096


def test_zero_budget_builds_no_table(monkeypatch):
    """The scan builds its tables inside the budget: under a zero budget it
    reads at most one profile's welfare, and reports the audit and progress of
    a scan that never started."""
    from ospcheck.checkers import ExactValues

    read = []
    welfare = ExactValues.welfare

    def counted(self):
        for got in welfare(self):
            read.append(got)
            yield got

    monkeypatch.setattr(ExactValues, "welfare", counted)
    space = SearchSpace(domain=adversarial_domain(MU22, "mu-single-minded"),
                        payment_grid=default_payment_grid(MU22))
    verdict = falsify_impossibility(space, Fraction(2), budget_seconds=0)
    assert verdict.outcome == "budget-exhausted" and len(read) <= 1
    assert verdict.audit == {"applicable": True, "survivors_checked": 0,
                             "low_profile_bound_failures": 0, "square_bound_premise_met": 0,
                             "square_bound_failures": 0}
    assert verdict.progress == {"positions_done": 0, "join_steps": 0}
    refute = falsify_impossibility(space, Fraction(2), budget_seconds=0, audit_survivors=False)
    assert not refute.audit["applicable"]
    # with time to spare every profile is read
    read.clear()
    assert falsify_impossibility(_sub_space(), Fraction(2)).outcome == "counterexample"
    assert len(read) == 3
