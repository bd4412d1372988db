"""Mechanism and domain file formats (JSON, rationals as "p/q" strings).

The canonical encoding sorts edge labels, reduces rationals, and omits
auto-generated node ids, so parse -> serialize -> parse is the identity on
the parsed objects and serialized bytes are stable.  Those bytes are
exactly what ``json.dumps(doc, indent=2)`` writes for the document, plus a
final newline: one entry per line, indented two spaces per level, and
every non-ASCII character escaped as ``\\uXXXX``.  :func:`_dump` writes
them directly, with the C string escaper ``json.dumps`` itself uses,
since with an indent ``json.dumps`` falls back to its pure-Python
encoder.  Reports (``report.to_json``) stay on ``json.dumps``: they carry
floats and are written once per command.

``load_json``, the one JSON reader, also reads search configs.  Loading
builds plain dicts and checks each object's key count against its source
pairs; only an object whose source repeats a key records which keys repeat,
and ``build_tree`` rejects an edge map holding such a record, so a
duplicate message label is still an error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .model import (
    AuctionSetting,
    Behavior,
    InternalNode,
    MechanismError,
    MechanismTree,
    build_tree,
    plans_of,
    read_field,
    read_int,
    read_list,
    read_object,
    read_str,
)
from .valuations import FAMILIES, Domain, ValuationError
from .mechanisms import MechanismBundle

MECHANISM_FORMAT = "ospcheck-mechanism"
DOMAIN_FORMAT = "ospcheck-domain"
FORMAT_VERSION = 1


class ParseError(ValueError):
    """Input file is syntactically or semantically unusable."""


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def setting_to_json(setting: AuctionSetting) -> dict:
    return {"kind": setting.kind, "n": setting.n, "m": setting.m}


def setting_from_json(raw) -> AuctionSetting:
    try:
        return AuctionSetting(
            kind=read_field(raw, "kind", read_str, "setting"),
            n=read_field(raw, "n", read_int, "setting"),
            m=read_field(raw, "m", read_int, "setting"),
        )
    except MechanismError as exc:
        raise ParseError(f"bad setting block: {exc}") from None


#: Per valuation field: its JSON encoding.  A family's JSON object is its
#: tag followed by its dataclass fields, in declaration order.
_VALUATION_FIELDS = {
    "values": lambda xs: [frac_str(x) for x in xs],
    "bundle": sorted,
    "value": frac_str,
    "quantity": lambda q: q,
}


def valuation_to_json(v) -> dict:
    doc = {"tag": v.tag}
    for name in v.__dataclass_fields__:
        doc[name] = _VALUATION_FIELDS[name](getattr(v, name))
    return doc


def valuation_from_json(raw) -> object:
    """The family's constructor reads and checks each field (``valuations``)."""
    tag = read_field(raw, "tag", read_str, "valuation")
    cls = FAMILIES.get(tag)
    if cls is None:
        raise ParseError(f"unknown valuation tag {tag!r}")
    try:
        params = {name: raw[name] for name in cls.__dataclass_fields__}
    except KeyError as exc:
        raise ParseError(f"{tag} valuation has no {exc.args[0]!r} field") from None
    return cls(**params)


def _choices(raw) -> dict:
    """A behavior: a JSON object from node ids to message labels, all strings."""
    for label in read_object(raw).values():
        if not isinstance(label, str):
            raise MechanismError(f"message label {label!r} is not a string")
    return raw


def _node_to_json(tree: MechanismTree, nid: str) -> dict:
    node = tree.nodes[nid]
    out: dict = {}
    if not nid.startswith("#"):
        out["id"] = nid
    if isinstance(node, InternalNode):
        out["speaker"] = node.speaker
        out["edges"] = {
            lbl: _node_to_json(tree, child) for lbl, child in sorted(node.edges.items())
        }
    else:
        combinatorial = tree.setting.is_combinatorial
        out["allocation"] = [sorted(b) if combinatorial else b for b in node.allocation]
        out["payments"] = [frac_str(p) for p in node.payments]
    return out


def tree_to_json(tree: MechanismTree) -> dict:
    return {
        "format": MECHANISM_FORMAT,
        "version": FORMAT_VERSION,
        "setting": setting_to_json(tree.setting),
        "root": _node_to_json(tree, tree.root),
    }


def bundle_to_json_doc(bundle: MechanismBundle) -> dict:
    doc = tree_to_json(bundle.tree)
    doc["strategies"] = [
        [
            {"valuation": valuation_to_json(v), "behavior": dict(sorted(behavior.choices.items()))}
            for v, behavior in zip(vs, plans)
        ]
        for vs, plans in zip(bundle.domain.players, plans_of(bundle.strategies, bundle.domain))
    ]
    return doc


def _dump(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for the formats' types, nested at ``pad``.

    ``value`` is a dict with str keys, a list or tuple, a str, or an int
    that is not a bool; any other type raises TypeError.  A list of only
    strs or only ints is joined in one step.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        body = [_quote(key) + ": " + _dump(item, inner) for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            body = map(_quote, value)
        elif kinds == {int}:
            body = map(int.__repr__, value)
        else:
            body = [_dump(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    raise TypeError(f"a {kind.__name__} has no place in an ospcheck file")


def serialize_mechanism(obj) -> str:
    doc = bundle_to_json_doc(obj) if isinstance(obj, MechanismBundle) else tree_to_json(obj)
    return _dump(doc) + "\n"


class _TrackedDict(dict):
    """Dict that remembers keys repeated in the source JSON object."""

    __slots__ = ("duplicates",)

    def __init__(self, pairs):
        super().__init__()
        self.duplicates = []
        for key, value in pairs:
            if key in self:
                self.duplicates.append(key)
            self[key] = value


def _object(pairs) -> dict:
    """A JSON object as a plain dict, or a _TrackedDict if its source repeats a key."""
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else _TrackedDict(pairs)


def load_json(data, what: str):
    """The JSON document in UTF-8 bytes or a str, a ``what`` file.  Bad bytes, bad
    syntax, nesting past the recursion limit (about 500 tree levels) and an
    integer too long to convert (``sys.get_int_max_str_digits``) raise ParseError."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data, object_pairs_hook=_object)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{what} is JSON nested too deeply to read") from None
    except ValueError:  # an integer past the conversion limit
        raise ParseError(f"{what} holds an integer of over {sys.get_int_max_str_digits()} digits") from None


def parse_mechanism(data):
    """Parse mechanism bytes/str into a MechanismBundle or bare MechanismTree.

    Files without a strategies section yield the tree alone.  A player may
    list one valuation twice only with the same behavior both times.
    """
    doc = load_json(data, "mechanism")
    if not isinstance(doc, dict) or doc.get("format") != MECHANISM_FORMAT:
        raise ParseError(f"not a mechanism file (format must be {MECHANISM_FORMAT!r})")
    setting = setting_from_json(doc.get("setting", {}))
    raw_strategies = doc.get("strategies")
    try:
        tree = build_tree(doc.get("root"), setting)
        if raw_strategies is None:
            return tree
        if not isinstance(raw_strategies, list) or len(raw_strategies) != setting.n:
            raise ParseError("the 'strategies' section needs one entry list per player")
        players, tables = [], []
        for i, entries in enumerate(raw_strategies):
            if not isinstance(entries, list):
                raise ParseError(f"'strategies' of player {i} must be a list of entries")
            vals, table = [], {}
            for k, entry in enumerate(entries):
                where = f"strategy entry {k} of player {i}"
                v = valuation_from_json(read_field(entry, "valuation", read_object, where))
                behavior = Behavior(owner=i, choices=read_field(entry, "behavior", _choices, where))
                kept = table.setdefault(v, behavior)
                if kept is not behavior and kept != behavior:
                    raise ParseError(f"{where} repeats the valuation of strategy entry "
                                     f"{vals.index(v)} with a different behavior")
                vals.append(v)
            players.append(tuple(vals))
            tables.append(table)
        domain = Domain(setting=setting, players=tuple(players))
        return MechanismBundle(tree=tree, strategies=tuple(tables), domain=domain)
    except (ValuationError, MechanismError) as exc:
        raise ParseError(str(exc)) from None


def domain_to_json_doc(domain: Domain) -> dict:
    return {
        "format": DOMAIN_FORMAT,
        "version": FORMAT_VERSION,
        "setting": setting_to_json(domain.setting),
        "players": [[valuation_to_json(v) for v in vs] for vs in domain.players],
    }


def serialize_domain(domain: Domain) -> str:
    return _dump(domain_to_json_doc(domain)) + "\n"


def parse_domain(data) -> Domain:
    return domain_from_json(load_json(data, "domain"))


def domain_from_json(doc) -> Domain:
    """The domain a loaded domain document describes."""
    if not isinstance(doc, dict) or doc.get("format") != DOMAIN_FORMAT:
        raise ParseError(f"not a domain file (format must be {DOMAIN_FORMAT!r})")
    setting = setting_from_json(doc.get("setting", {}))
    try:
        players = read_field(doc, "players", read_list(read_list(valuation_from_json)), "domain")
        return Domain(setting=setting, players=players)
    except (ValuationError, MechanismError) as exc:
        raise ParseError(str(exc)) from None
