"""File formats: canonical round-trips, error reporting."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ospcheck import (
    AdditiveValuation,
    AuctionSetting,
    Domain,
    GeneralCA,
    GeneralMU,
    MechanismBundle,
    SingleMindedCA,
    SingleMindedMU,
    UnitDemandValuation,
    adversarial_domain,
    grand_bundle_ascending,
    restricted_additive_domain,
    second_price_single_item,
    serial_posted_price,
)
from ospcheck.serialize import (
    ParseError,
    _dump,
    parse_domain,
    parse_mechanism,
    serialize_domain,
    serialize_mechanism,
    valuation_from_json,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_fig1_fixture_parses():
    bundle = parse_mechanism((FIXTURES / "fig1_second_price.json").read_bytes())
    assert isinstance(bundle, MechanismBundle)
    assert len(bundle.tree.leaf_ids) == 4
    assert bundle.tree.root == "N1"


def test_parse_serialize_parse_idempotent():
    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    dom = adversarial_domain(mu, "mu-single-minded")
    bundles = [
        second_price_single_item(2, tiebreak_winner=1),
        grand_bundle_ascending(mu, 4, domain=dom),
        serial_posted_price(1, 3, AuctionSetting(kind="combinatorial", n=2, m=2)),
    ]
    for bundle in bundles:
        text = serialize_mechanism(bundle)
        once = parse_mechanism(text)
        again = parse_mechanism(serialize_mechanism(once))
        assert serialize_mechanism(again) == text
        assert again.tree == bundle.tree


def test_valuation_bytes_pinned():
    """Every valuation family serializes to pinned bytes (its tag, then its
    dataclass fields in order) and parses back to an equal domain."""
    F = Fraction
    ca = AuctionSetting(kind="combinatorial", n=2, m=2)
    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    ca_dom = Domain(setting=ca, players=(
        (AdditiveValuation(values=(F(1), F(7, 2))), UnitDemandValuation(values=(F(0), F(5, 3)))),
        (SingleMindedCA(bundle=frozenset({1, 0}), value=F(9, 4)),
         GeneralCA(values=(F(0), F(1), F(2), F(7, 2)))),
    ))
    mu_dom = Domain(setting=mu, players=(
        (SingleMindedMU(quantity=2, value=F(11, 3)),),
        (GeneralMU(values=(F(0), F(1, 2), F(3))), SingleMindedMU(quantity=1, value=F(4))),
    ))
    pins = {
        ca_dom: "8bf8160443b509ae67ca8d1010c15987dd0edb91144a4d3fe95d94820b714c3c",
        mu_dom: "225d2fd486a64aa30b4839d54f124072449cdcca5a53f59e35929e87f14b3cdc",
    }
    for dom, digest in pins.items():
        text = serialize_domain(dom)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert parse_domain(text) == dom


def test_tree_only_files_supported():
    tree = second_price_single_item(2).tree
    import json

    doc = json.loads(serialize_mechanism(tree))
    assert "strategies" not in doc
    parsed = parse_mechanism(json.dumps(doc))
    assert parsed == tree


def test_domain_round_trip():
    ca = AuctionSetting(kind="combinatorial", n=2, m=2)
    for dom in (
        adversarial_domain(ca, "additive"),
        adversarial_domain(ca, "unit-demand"),
        adversarial_domain(ca, "ca-single-minded"),
        adversarial_domain(AuctionSetting(kind="multi-unit", n=3, m=2), "mu-single-minded"),
        restricted_additive_domain(Fraction(1, 2), Fraction(7, 3), ca),
    ):
        text = serialize_domain(dom)
        assert parse_domain(text) == dom


def test_syntax_error_carries_position():
    with pytest.raises(ParseError, match=r"line \d+ column \d+"):
        parse_mechanism('{"format": "ospcheck-mechanism",\n "root": }')


def test_duplicate_label_names_node_path():
    doc = """
    {"format": "ospcheck-mechanism", "version": 1,
     "setting": {"kind": "combinatorial", "n": 1, "m": 1},
     "root": {"speaker": 0, "edges": {
        "x": {"speaker": 0, "edges": {
            "a": {"allocation": [[]], "payments": ["0/1"]},
            "a": {"allocation": [[]], "payments": ["0/1"]}}}}}}
    """
    with pytest.raises(ParseError, match="duplicate message label 'a' at node /x"):
        parse_mechanism(doc)


def test_wrong_format_and_bad_rational():
    with pytest.raises(ParseError, match="format"):
        parse_mechanism('{"format": "something-else"}')
    with pytest.raises(ParseError, match="format"):
        parse_domain('{"format": "ospcheck-mechanism"}')
    doc = """
    {"format": "ospcheck-domain", "version": 1,
     "setting": {"kind": "combinatorial", "n": 1, "m": 1},
     "players": [[{"tag": "additive", "values": ["1/0"]}]]}
    """
    with pytest.raises(ParseError, match="bad rational"):
        parse_domain(doc)


def test_valuation_entry_errors():
    with pytest.raises(ParseError, match="unknown valuation tag 'bogus'"):
        valuation_from_json({"tag": "bogus"})
    with pytest.raises(ParseError, match="single-minded-mu valuation has no 'value' field"):
        valuation_from_json({"tag": "single-minded-mu", "quantity": 1})


#: Strings that stress escaping: quotes, backslashes, control characters,
#: non-ASCII and astral (surrogate-pair) characters, among arbitrary text.
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001f600a') | st.characters())
INTS = st.integers() | st.sampled_from([-(2**63) - 1, 2**63, 2**64 + 1, -(10**30)])
DOCS = st.recursive(
    TEXT | INTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_writer_matches_json_dumps(doc):
    assert _dump(doc) == json.dumps(doc, indent=2)


def test_writer_rejects_other_types():
    for bad in (1.5, True, None, [1, False], {"a": [None]}, {1: "a"}, frozenset()):
        with pytest.raises(TypeError):
            _dump(bad)


def test_fig1_fixture_is_canonical():
    data = (FIXTURES / "fig1_second_price.json").read_text()
    assert serialize_mechanism(parse_mechanism(data)) == data


def test_duplicate_label_deep_in_the_tree():
    leaf = '{"allocation": [[]], "payments": ["0/1"]}'
    doc = f"""
    {{"format": "ospcheck-mechanism", "version": 1,
     "setting": {{"kind": "combinatorial", "n": 1, "m": 1}},
     "root": {{"speaker": 0, "edges": {{"x": {{"speaker": 0, "edges": {{
        "y": {{"speaker": 0, "edges": {{"a": {leaf}, "b": {leaf}, "a": {leaf}}}}},
        "z": {leaf}}}}}}}}}}}
    """
    with pytest.raises(ParseError, match="duplicate message label 'a' at node /x/y"):
        parse_mechanism(doc)


def test_repeated_field_keeps_the_last():
    """A key repeated outside an edge map is no error: the last one counts,
    as in ``json.loads``."""
    doc = """
    {"format": "ospcheck-mechanism", "version": 1,
     "setting": {"kind": "combinatorial", "n": 1, "m": 1},
     "root": {"speaker": 0, "edges": {
        "a": {"allocation": [[0]], "payments": ["1/1"], "payments": ["5/2"]},
        "b": {"allocation": [[]], "payments": ["0/1"]}}}}
    """
    tree = parse_mechanism(doc)
    assert tree.nodes["#1"].payments == (Fraction(5, 2),)
    assert tree.nodes["#2"].payments == (Fraction(0),)
