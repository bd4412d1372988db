"""Command-line surface: verify, ratio, analyze, fixtures, search.

Files are read by ``serialize.load_json``, and each search config entry,
or the flag that overrides it, by the ``model`` reader of a file field.
Each command fills the report ``main`` makes for it, and ``main`` renders it.
Exit codes: 0 when everything passed (or the search found no
counterexample; ``fixtures`` always), 1 when a property failed or a
counterexample was found or the search budget ran out, 2 for usage or input
errors, including a tree or document nested too deeply and an integer too
long to convert.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkers import check_dsic, check_ir, check_nnt, check_osp, welfare_ratio
from .mechanisms import (
    MechanismBundle,
    grand_bundle_ascending,
    second_price_single_item,
    serial_posted_price,
)
from .model import (COMBINATORIAL, MULTI_UNIT, AuctionSetting, MechanismError, read_rational,
                    read_rationals, read_seconds, read_value)
from .report import ReportDocument, audit_item, ratio_item, search_item, verdict_item
from .search import SearchSpace, default_payment_grid, falsify_impossibility
from .serialize import (
    ParseError,
    domain_from_json,
    load_json,
    parse_domain,
    parse_mechanism,
    serialize_domain,
    serialize_mechanism,
)
from .structure import audit_ascending_structure
from .valuations import ValuationError, adversarial_domain, restricted_additive_domain

CHECKS = {"osp": check_osp, "dsic": check_dsic, "ir": check_ir, "nnt": check_nnt}
#: Per search config entry: what it is and its reader (a domain is a path or a domain document).
SEARCH_ENTRIES = {
    "domain": ("domain", None),
    "target_ratio": ("target ratio", read_rational),
    "grid": ("payment grid", read_rationals),
    "budget_seconds": ("time budget", read_seconds),
}


class UsageError(Exception):
    pass


def _read(report: ReportDocument, path: str) -> bytes:
    """The bytes of the file at ``path``, recorded as an input of ``report``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    report.add_input(path, data)
    return data


def _load_bundle(report: ReportDocument, mechanism_path: str, domain_path=None) -> MechanismBundle:
    parsed = parse_mechanism(_read(report, mechanism_path))
    domain = None if domain_path is None else parse_domain(_read(report, domain_path))
    if isinstance(parsed, MechanismBundle):
        if domain is None:
            return parsed
        return MechanismBundle(tree=parsed.tree, strategies=parsed.strategies, domain=domain)
    raise UsageError(
        f"{mechanism_path} has no strategies section; verify/ratio need a full bundle"
    )


def _cmd_verify(args, report: ReportDocument) -> ReportDocument:
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise UsageError(f"no check named (choose from {', '.join(CHECKS)})")
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks: {', '.join(unknown)} (choose from {', '.join(CHECKS)})")
    bundle = _load_bundle(report, args.mechanism, args.domain)
    for name in names:
        report.add(verdict_item(CHECKS[name](*bundle.checker_args())))
    return report


def _cmd_ratio(args, report: ReportDocument) -> ReportDocument:
    bundle = _load_bundle(report, args.mechanism, args.domain)
    report.add(ratio_item(welfare_ratio(*bundle.checker_args())))
    return report


def _cmd_analyze(args, report: ReportDocument) -> ReportDocument:
    parsed = parse_mechanism(_read(report, args.mechanism))
    tree = parsed.tree if isinstance(parsed, MechanismBundle) else parsed
    report.add(audit_item(audit_ascending_structure(tree)))
    return report


def _cmd_search(args, report: ReportDocument) -> ReportDocument:
    """Each entry is its flag, else its config entry (null is absent)."""
    config = {}
    if args.config:
        config = load_json(_read(report, args.config), "config")
        if not isinstance(config, dict):
            raise ParseError("search config must be a JSON object")
        for key in config:
            if key not in SEARCH_ENTRIES:
                raise UsageError(
                    f"unknown search config entry {key!r} (choose from {', '.join(SEARCH_ENTRIES)})"
                )
    flags = {"domain": args.domain, "target_ratio": args.target_ratio, "budget_seconds": args.budget,
             "grid": None if args.grid is None else args.grid.split(",")}
    entries = {key: config.get(key) if flag is None else flag for key, flag in flags.items()}

    def read(key: str):
        what, reader = SEARCH_ENTRIES[key]
        return None if entries[key] is None else read_value(entries[key], key, reader, what)

    domain = entries["domain"]
    if domain is None:
        raise UsageError("search needs --domain FILE or a domain entry in the config")
    domain = parse_domain(_read(report, domain)) if isinstance(domain, str) else domain_from_json(domain)
    grid = read("grid")
    target = read("target_ratio")
    if target is None:
        raise UsageError("search needs --target-ratio P/Q or a target_ratio config entry")
    try:
        space = SearchSpace(domain=domain, payment_grid=default_payment_grid(domain.setting)
                            if grid is None else grid)
        verdict = falsify_impossibility(space, target, budget_seconds=read("budget_seconds"))
    except ValueError as exc:
        raise UsageError(str(exc))
    report.add(search_item(verdict))
    return report


def _cmd_fixtures(args, report: ReportDocument) -> ReportDocument:
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
    return report


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
        report = args.func(args, ReportDocument(command=args.command))
        sys.stdout.write(report.to_json() if args.format == "machine" else report.to_text())
    except (UsageError, ParseError, MechanismError, ValuationError) as exc:
        print(f"ospcheck: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("ospcheck: error: nesting exceeds the interpreter's recursion limit", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
