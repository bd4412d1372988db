"""Command-line surface: verify, ratio, analyze, fixtures, search.

Exit codes: 0 when everything passed (or the search found no
counterexample), 1 when a property failed or a counterexample was found or
the search budget ran out, 2 for usage or input errors, including a tree or
document nested past the interpreter's recursion limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .checkers import check_dsic, check_ir, check_nnt, check_osp, welfare_ratio
from .mechanisms import (
    MechanismBundle,
    grand_bundle_ascending,
    second_price_single_item,
    serial_posted_price,
)
from .model import COMBINATORIAL, MULTI_UNIT, AuctionSetting, MechanismError, read_rational
from .report import ReportDocument, audit_item, ratio_item, search_item, verdict_item
from .search import SearchSpace, default_payment_grid, falsify_impossibility
from .serialize import (
    ParseError,
    parse_domain,
    parse_mechanism,
    serialize_domain,
    serialize_mechanism,
)
from .structure import audit_ascending_structure
from .valuations import ValuationError, adversarial_domain, restricted_additive_domain

CHECKS = {"osp": check_osp, "dsic": check_dsic, "ir": check_ir, "nnt": check_nnt}
SEARCH_CONFIG_KEYS = ("domain", "target_ratio", "grid", "budget_seconds")


class UsageError(Exception):
    pass


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_bundle(report: ReportDocument, mechanism_path: str, domain_path=None) -> MechanismBundle:
    data = _read(mechanism_path)
    report.add_input(mechanism_path, data)
    parsed = parse_mechanism(data)
    domain = None
    if domain_path is not None:
        ddata = _read(domain_path)
        report.add_input(domain_path, ddata)
        domain = parse_domain(ddata)
    if isinstance(parsed, MechanismBundle):
        if domain is None:
            return parsed
        return MechanismBundle(tree=parsed.tree, strategies=parsed.strategies, domain=domain)
    raise UsageError(
        f"{mechanism_path} has no strategies section; verify/ratio need a full bundle"
    )


def _emit(report: ReportDocument, fmt: str) -> None:
    sys.stdout.write(report.to_json() if fmt == "machine" else report.to_text())


def _cmd_verify(args) -> int:
    report = ReportDocument(command="verify")
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise UsageError(f"no check named (choose from {', '.join(CHECKS)})")
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks: {', '.join(unknown)} (choose from {', '.join(CHECKS)})")
    bundle = _load_bundle(report, args.mechanism, args.domain)
    for name in names:
        report.add(verdict_item(CHECKS[name](*bundle.checker_args())))
    _emit(report, args.format)
    return 0 if report.ok else 1


def _cmd_ratio(args) -> int:
    report = ReportDocument(command="ratio")
    bundle = _load_bundle(report, args.mechanism, args.domain)
    report.add(ratio_item(welfare_ratio(*bundle.checker_args())))
    _emit(report, args.format)
    return 0 if report.ok else 1


def _cmd_analyze(args) -> int:
    report = ReportDocument(command="analyze")
    data = _read(args.mechanism)
    report.add_input(args.mechanism, data)
    parsed = parse_mechanism(data)
    tree = parsed.tree if isinstance(parsed, MechanismBundle) else parsed
    report.add(audit_item(audit_ascending_structure(tree)))
    _emit(report, args.format)
    return 0 if report.ok else 1


def _parse_fraction(raw, what: str) -> Fraction:
    try:
        return read_rational(raw)
    except MechanismError:
        raise UsageError(f"bad {what}: {raw!r} (expected an integer or P/Q)")


def _config_entry(config: dict, key: str, types: tuple, what: str):
    """A search config entry, None when absent or null; wrongly typed entries are usage errors."""
    value = config.get(key)
    if value is not None and type(value) not in types:
        raise UsageError(f"config entry {key!r} must be {what}, got {value!r}")
    return value


def _cmd_search(args) -> int:
    report = ReportDocument(command="search")
    config = {}
    if args.config:
        cdata = _read(args.config)
        report.add_input(args.config, cdata)
        try:
            config = json.loads(cdata)
        except UnicodeDecodeError as exc:
            raise ParseError(f"config is not UTF-8 text: {exc}")
        except json.JSONDecodeError as exc:
            raise ParseError(f"config syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}")
        if not isinstance(config, dict):
            raise ParseError("search config must be a JSON object")
        for key in config:
            if key not in SEARCH_CONFIG_KEYS:
                raise UsageError(
                    f"unknown search config entry {key!r} "
                    f"(choose from {', '.join(SEARCH_CONFIG_KEYS)})"
                )

    domain_src = args.domain or config.get("domain")
    if domain_src is None:
        raise UsageError("search needs --domain FILE or a domain entry in the config")
    if isinstance(domain_src, str):
        ddata = _read(domain_src)
        report.add_input(domain_src, ddata)
        domain = parse_domain(ddata)
    else:
        domain = parse_domain(json.dumps(domain_src))

    if args.grid is not None:
        levels = args.grid.split(",")
    else:
        levels = _config_entry(config, "grid", (list,), "a list of payment levels")
    if levels is None:
        grid = default_payment_grid(domain.setting)
    else:
        grid = tuple(_parse_fraction(g, "grid entry") for g in levels)

    target = args.target_ratio or config.get("target_ratio")
    if target is None:
        raise UsageError("search needs --target-ratio P/Q or a target_ratio config entry")
    target = _parse_fraction(target, "target ratio")

    budget = args.budget
    if budget is None:
        budget = _config_entry(config, "budget_seconds", (int, float), "a number")

    try:
        space = SearchSpace(domain=domain, payment_grid=grid)
        verdict = falsify_impossibility(space, target, budget_seconds=budget)
    except ValueError as exc:
        raise UsageError(str(exc))
    report.add(search_item(verdict))
    _emit(report, args.format)
    return 0 if report.ok else 1


def _cmd_fixtures(args) -> int:
    report = ReportDocument(command="fixtures")
    out = Path(args.out)
    m, n = args.m, args.n
    ca = AuctionSetting(kind=COMBINATORIAL, n=n, m=m)
    mu = AuctionSetting(kind=MULTI_UNIT, n=n, m=m)
    k = max(m, n)

    files = {
        "fig1_second_price.json": serialize_mechanism(
            second_price_single_item(2, tiebreak_winner=1)
        ),
        "mu_adversarial_domain.json": serialize_domain(adversarial_domain(mu, "mu-single-minded")),
        "ca_adversarial_domain.json": serialize_domain(adversarial_domain(ca, "ca-single-minded")),
        "additive_adversarial_domain.json": serialize_domain(adversarial_domain(ca, "additive")),
        "unit_demand_adversarial_domain.json": serialize_domain(
            adversarial_domain(ca, "unit-demand")
        ),
        "restricted_additive_domain.json": serialize_domain(
            restricted_additive_domain(1, 3, ca)
        ),
        "serial_posted_price.json": serialize_mechanism(serial_posted_price(1, 3, ca)),
        "grand_bundle_ascending_mu.json": serialize_mechanism(
            grand_bundle_ascending(mu, k**4, domain=adversarial_domain(mu, "mu-single-minded"))
        ),
    }
    # every document is built first, so a build that fails writes nothing
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(str(path))
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}")
    report.add({"kind": "fixtures", "written": written})
    _emit(report, args.format)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospcheck",
        description="Verify sequential auction mechanisms: incentive properties, "
        "welfare ratios, structural audits, and bounded counterexample search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="report rendering (default: text)")

    p = sub.add_parser("verify", help="run property checks on a mechanism bundle")
    p.add_argument("--mechanism", required=True, help="mechanism file (with strategies)")
    p.add_argument("--domain", help="domain file overriding the bundle's domain")
    p.add_argument("--checks", default="osp,dsic,ir,nnt",
                   help="comma list from osp,dsic,ir,nnt (default: all)")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ratio", help="exact welfare-approximation ratio over a domain")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--domain", help="domain file overriding the bundle's domain")
    common(p)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("analyze", help="structural audit (continue-or-quit classification)")
    p.add_argument("--mechanism", required=True)
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fixtures", help="write reference mechanisms and domains to files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--m", type=int, default=2, help="item count (default 2)")
    p.add_argument("--n", type=int, default=2, help="player count (default 2)")
    common(p)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("search", help="exhaustive counterexample search at desk scale")
    p.add_argument("--config", help="JSON config block; flags override its entries")
    p.add_argument("--domain", help="domain file")
    p.add_argument("--target-ratio", help="scan for mechanisms strictly below this ratio (P/Q)")
    p.add_argument("--grid", help="comma list of payment levels (default: impossibility-argument thresholds)")
    p.add_argument("--budget", type=float, help="time budget in seconds (default: unlimited)")
    common(p)
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ParseError, MechanismError, ValuationError) as exc:
        print(f"ospcheck: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("ospcheck: error: nesting exceeds the interpreter's recursion limit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
