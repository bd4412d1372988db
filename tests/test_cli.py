"""Command-line surface: subcommands, exit codes, report formats."""

import functools
import json
import operator
from pathlib import Path

from ospcheck.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
FIG1 = str(FIXTURES / "fig1_second_price.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_fig1_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--mechanism", FIG1)
    assert code == 0
    assert "[PASS] osp" in out and "[PASS] dsic" in out
    assert "status: pass" in out


def test_verify_machine_format_digests(capsys):
    code, out, _ = run_cli(capsys, "verify", "--mechanism", FIG1, "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["inputs"][0]["sha256"]
    assert {item["property"] for item in doc["items"]} == {"osp", "dsic", "ir", "nnt"}


def test_verify_subset_of_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--mechanism", FIG1, "--checks", "ir,nnt")
    assert code == 0
    assert "[PASS] ir" in out and "[PASS] osp" not in out


def test_verify_failure_exit_code(tmp_path, capsys):
    from ospcheck import second_price_single_item
    from ospcheck.serialize import serialize_mechanism

    bad = tmp_path / "sp3.json"
    bad.write_text(serialize_mechanism(second_price_single_item(3)))
    code, out, _ = run_cli(capsys, "verify", "--mechanism", str(bad))
    assert code == 1
    assert "[FAIL] osp" in out and "status: fail" in out


def test_ratio_command(tmp_path, capsys):
    from ospcheck import AuctionSetting, adversarial_domain, grand_bundle_ascending
    from ospcheck.serialize import serialize_mechanism

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    dom = adversarial_domain(mu, "mu-single-minded")
    path = tmp_path / "gb.json"
    path.write_text(serialize_mechanism(grand_bundle_ascending(mu, 16, domain=dom)))
    code, out, _ = run_cli(capsys, "ratio", "--mechanism", str(path), "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["items"][0]["ratio"] == "2/1"


def test_analyze_command(tmp_path, capsys):
    from ospcheck import AuctionSetting, grand_bundle_ascending
    from ospcheck.serialize import serialize_mechanism

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    path = tmp_path / "gb.json"
    path.write_text(serialize_mechanism(grand_bundle_ascending(mu, 3)))
    code, out, _ = run_cli(capsys, "analyze", "--mechanism", str(path))
    assert code == 0
    assert "all vertices continue-or-quit: yes" in out


def test_fixtures_command(tmp_path, capsys):
    out_dir = tmp_path / "fx"
    code, out, _ = run_cli(capsys, "fixtures", "--out", str(out_dir))
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert "fig1_second_price.json" in names
    assert "mu_adversarial_domain.json" in names
    assert "grand_bundle_ascending_mu.json" in names
    # emitted fixtures verify end to end
    code, _, _ = run_cli(
        capsys, "verify", "--mechanism", str(out_dir / "serial_posted_price.json")
    )
    assert code == 0


def test_search_command_with_flags(tmp_path, capsys):
    out_dir = tmp_path / "fx"
    run_cli(capsys, "fixtures", "--out", str(out_dir))
    domain = str(out_dir / "mu_adversarial_domain.json")
    # restrict player 2 to her first valuation to keep the space tiny
    doc = json.loads(Path(domain).read_text())
    doc["players"][1] = doc["players"][1][:1]
    small = tmp_path / "small.json"
    small.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys,
        "search",
        "--domain",
        str(small),
        "--target-ratio",
        "2",
        "--grid",
        "0,1",
        "--format",
        "machine",
    )
    assert code == 1  # counterexample found
    doc = json.loads(out)
    item = doc["items"][0]
    assert item["outcome"] == "counterexample"
    assert item["caveat"]
    assert "counterexample" in item


def test_search_command_with_config(tmp_path, capsys):
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    dom = adversarial_domain(mu, "mu-single-minded")
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(serialize_domain(dom))
    config = tmp_path / "search.json"
    config.write_text(
        json.dumps(
            {
                "domain": str(domain_path),
                "target_ratio": "3",
                "grid": ["0", "1"],
                "budget_seconds": 60,
            }
        )
    )
    # a {0,1} grid cannot express the square-threshold payment that evades
    # the envy argument, so the impossibility holds in this class
    code, out, _ = run_cli(capsys, "search", "--config", str(config))
    assert code == 0
    assert "no-counterexample" in out


def test_search_default_grid_follows_setting(tmp_path, capsys):
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    ca = AuctionSetting(kind="combinatorial", n=2, m=2)
    domain_path = tmp_path / "additive.json"
    domain_path.write_text(serialize_domain(adversarial_domain(ca, "additive")))
    code, out, _ = run_cli(
        capsys, "search", "--domain", str(domain_path), "--target-ratio", "2",
        "--budget", "0", "--format", "machine",
    )
    assert code == 1
    item = json.loads(out)["items"][0]
    assert item["outcome"] == "budget-exhausted"
    # no --grid: the combinatorial levels 2k^2, 2k^2+2 and 2k^3+k^2 join k^4 = 16
    assert "5/1, 8/1, 10/1, 16/1, 20/1}" in item["class"]


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--mechanism", "/no/such/file.json")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--mechanism", FIG1, "--no-such-flag")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--mechanism", FIG1, "--checks", "bogus")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--mechanism", str(bad))
    assert code == 2
    assert "line" in err

    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(serialize_domain(adversarial_domain(mu, "mu-single-minded")))
    search = ["search", "--domain", str(domain_path), "--target-ratio", "2"]
    code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--max-depth", "-1")
    assert code == 2 and "depth" in err
    code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--no-prune")
    assert code == 2 and "--no-prune" in err
    # wrongly typed entries, and unknown ones: a stale switch or a misspelt key
    entries = ({"max_depth": "3"}, {"budget_seconds": "5"}, {"grid": 5},
               {"prune": False}, {"budget": 5})
    for entry in entries:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry))
        code, _, err = run_cli(capsys, *search, "--config", str(config))
        assert code == 2 and repr(next(iter(entry))) in err
    # a NaN budget is never reached, a negative one is meaningless
    for budget in ("nan", "-1"):
        code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--budget", budget)
        assert code == 2 and "budget" in err
    config.write_text('{"budget_seconds": NaN}')
    code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--config", str(config))
    assert code == 2 and "budget" in err

    # a malformed field in a mechanism or domain file is named, not a traceback
    leaf = ["root", "edges", "1", "edges", "1"]
    fig1 = json.loads(Path(FIG1).read_text())
    domain = json.loads(domain_path.read_text())
    cases = (
        ("allocation", fig1, leaf + ["allocation"], None),
        ("speaker", fig1, ["root", "speaker"], "x"),
        ("allocation", fig1, leaf + ["allocation", 1, 0], "x"),
        ("payments", fig1, leaf + ["payments", 0], "1/0"),
        ("behavior", fig1, ["strategies", 0, 0, "behavior"], None),
        ("strategies", fig1, ["strategies"], 5),
        ("strategies", fig1, ["strategies", 0], 5),
        ("quantity", domain, ["players", 0, 0, "quantity"], "x"),
    )
    for field, doc, path, value in cases:
        doc = json.loads(json.dumps(doc))
        *outer, last = path
        target = functools.reduce(operator.getitem, outer, doc)
        if value is None:
            del target[last]
        else:
            target[last] = value
        bad.write_text(json.dumps(doc))
        if "players" in doc:
            code, _, err = run_cli(capsys, "search", "--domain", str(bad), "--target-ratio", "2")
        else:
            code, _, err = run_cli(capsys, "analyze", "--mechanism", str(bad))
        assert code == 2 and err.startswith("ospcheck: error:") and repr(field) in err, err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "verify" in out and "search" in out
