"""Mechanism and domain file formats (JSON, rationals as "p/q" strings).

The canonical encoding sorts edge labels, reduces rationals, and omits
auto-generated node ids, so parse -> serialize -> parse is the identity on
the parsed objects and serialized bytes are stable.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction

from .model import (
    AuctionSetting,
    Behavior,
    InternalNode,
    MechanismError,
    MechanismTree,
    build_tree,
    read_field,
    read_int,
    read_items,
    read_list,
    read_rational,
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
            kind=read_field(raw, "kind", str, "setting"),
            n=read_field(raw, "n", read_int, "setting"),
            m=read_field(raw, "m", read_int, "setting"),
        )
    except MechanismError as exc:
        raise ParseError(f"bad setting block: {exc}") from None


#: Per valuation field: its JSON encoder and its reader.  A family's JSON
#: object is its tag followed by its dataclass fields, in declaration order.
_VALUATION_FIELDS = {
    "values": (lambda xs: [frac_str(x) for x in xs], read_list(read_rational)),
    "bundle": (sorted, read_items),
    "value": (frac_str, read_rational),
    "quantity": (lambda q: q, read_int),
}


def valuation_to_json(v) -> dict:
    doc = {"tag": v.tag}
    for f in fields(v):
        doc[f.name] = _VALUATION_FIELDS[f.name][0](getattr(v, f.name))
    return doc


def valuation_from_json(raw) -> object:
    tag = read_field(raw, "tag", str, "valuation")
    cls = FAMILIES.get(tag)
    if cls is None:
        raise ParseError(f"unknown valuation tag {tag!r}")
    where = f"{tag} valuation"
    return cls(**{
        f.name: read_field(raw, f.name, _VALUATION_FIELDS[f.name][1], where)
        for f in fields(cls)
    })


def _choices(raw) -> dict:
    return {str(nid): str(lbl) for nid, lbl in dict(raw).items()}


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
            {
                "valuation": valuation_to_json(v),
                "behavior": dict(sorted(bundle.strategies[i][v].choices.items())),
            }
            for v in bundle.domain.players[i]
        ]
        for i in range(bundle.tree.setting.n)
    ]
    return doc


def serialize_mechanism(obj) -> str:
    doc = bundle_to_json_doc(obj) if isinstance(obj, MechanismBundle) else tree_to_json(obj)
    return json.dumps(doc, indent=2) + "\n"


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


def _check_labels(raw, path: str) -> None:
    if not isinstance(raw, dict):
        raise ParseError(f"node at {path or '/'} must be an object")
    if "edges" in raw or "speaker" in raw:
        edges = raw.get("edges")
        if not isinstance(edges, dict):
            raise ParseError(f"node at {path or '/'} needs an edge object")
        for dup in getattr(edges, "duplicates", ()):
            raise ParseError(f"duplicate message label {dup!r} at node {path or '/'}")
        for lbl, child in edges.items():
            _check_labels(child, f"{path}/{lbl}")


def _load_json(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data, object_pairs_hook=_TrackedDict)
    except json.JSONDecodeError as exc:
        raise ParseError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def parse_mechanism(data):
    """Parse mechanism bytes/str into a MechanismBundle or bare MechanismTree.

    Files without a strategies section yield the tree alone.
    """
    doc = _load_json(data)
    if not isinstance(doc, dict) or doc.get("format") != MECHANISM_FORMAT:
        raise ParseError(f"not a mechanism file (format must be {MECHANISM_FORMAT!r})")
    setting = setting_from_json(doc.get("setting", {}))
    root = doc.get("root")
    _check_labels(root, "")
    raw_strategies = doc.get("strategies")
    try:
        tree = build_tree(root, setting)
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
                v = valuation_from_json(read_field(entry, "valuation", dict, where))
                table[v] = Behavior(owner=i, choices=read_field(entry, "behavior", _choices, where))
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
    return json.dumps(domain_to_json_doc(domain), indent=2) + "\n"


def parse_domain(data) -> Domain:
    doc = _load_json(data)
    if not isinstance(doc, dict) or doc.get("format") != DOMAIN_FORMAT:
        raise ParseError(f"not a domain file (format must be {DOMAIN_FORMAT!r})")
    setting = setting_from_json(doc.get("setting", {}))
    try:
        players = read_field(doc, "players", read_list(read_list(valuation_from_json)), "domain")
        return Domain(setting=setting, players=players)
    except (ValuationError, MechanismError) as exc:
        raise ParseError(str(exc)) from None
