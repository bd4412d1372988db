"""Command-line surface: subcommands, exit codes, report formats."""

import functools
import json
import operator
import re
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


def test_fixtures_write_errors_exit_2(tmp_path, capsys):
    # a file where the directory should be, or above it, is reported, not raised
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "sub"):
        code, out, err = run_cli(capsys, "fixtures", "--out", str(out_dir))
        assert code == 2 and not out and f"cannot write {out_dir}" in err, err
    # m = 4 asks for a K = 256 clock, deeper than the recursion limit allows;
    # nothing is written, not even the directory
    out_dir = tmp_path / "deep"
    code, out, err = run_cli(capsys, "fixtures", "--out", str(out_dir), "--m", "4")
    assert code == 2 and not out and "recursion limit" in err, err
    assert not out_dir.exists()


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


def test_search_budget_exhausted_reports_progress(tmp_path, capsys):
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(serialize_domain(adversarial_domain(mu, "mu-single-minded")))
    search = ["search", "--domain", str(domain_path), "--target-ratio", "2", "--budget", "0"]
    code, out, _ = run_cli(capsys, *search)
    assert code == 1
    assert "budget ran out after 0 positions, 0 join steps" in out
    code, out, _ = run_cli(capsys, *search, "--format", "machine")
    item = json.loads(out)["items"][0]
    assert item["progress"] == {"positions_done": 0, "join_steps": 0}


def test_search_rejects_repeated_valuations(tmp_path, capsys):
    # plans are keyed by valuation, so the search cannot give two copies of
    # one valuation different plans; the domain itself stays valid
    from fractions import Fraction

    from ospcheck import AuctionSetting, Domain, SingleMindedMU
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    one = SingleMindedMU(1, Fraction(1))
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(serialize_domain(Domain(setting=mu, players=((one, one), (one,)))))
    code, out, err = run_cli(capsys, "search", "--domain", str(domain_path),
                             "--target-ratio", "2", "--grid", "0,1")
    assert code == 2 and not out
    assert err.startswith("ospcheck: error:") and "player 0 lists a valuation twice" in err


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--mechanism", "/no/such/file.json")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--mechanism", FIG1, "--no-such-flag")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--mechanism", FIG1, "--checks", "bogus")
    assert code == 2
    for checks in ("", ","):
        code, out, err = run_cli(capsys, "verify", "--mechanism", FIG1, "--checks", checks)
        assert code == 2 and "no check named" in err and not out
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--mechanism", str(bad))
    assert code == 2
    assert "line" in err
    # bytes that are not UTF-8, and nesting past the JSON decoder's recursion
    # limit: 600 one-edge nodes, two JSON objects each
    bad.write_bytes(b"\xff\xfe")
    for argv in (("verify", "--mechanism"), ("search", "--target-ratio", "2", "--domain")):
        code, out, err = run_cli(capsys, *argv, str(bad))
        assert code == 2 and not out and "not UTF-8 text" in err, err
    bad.write_text('{"format": "ospcheck-mechanism", "version": 1, '
                   '"setting": {"kind": "multi-unit", "n": 1, "m": 1}, "root": '
                   + '{"speaker": 0, "edges": {"a": ' * 600
                   + '{"allocation": [0], "payments": ["0/1"]}' + "}}" * 600 + "}")
    code, out, err = run_cli(capsys, "analyze", "--mechanism", str(bad))
    assert code == 2 and not out and "nested too deeply" in err, err

    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(serialize_domain(adversarial_domain(mu, "mu-single-minded")))
    search = ["search", "--domain", str(domain_path), "--target-ratio", "2"]
    # the class needs no depth cap, so there is no --max-depth flag
    code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--max-depth", "3")
    assert code == 2 and "--max-depth" in err
    code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--no-prune")
    assert code == 2 and "--no-prune" in err
    # wrongly typed entries, and unknown ones: a stale switch or a misspelt key
    entries = ({"budget_seconds": "5"}, {"grid": 5}, {"prune": False}, {"budget": 5})
    for entry in entries:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry))
        code, _, err = run_cli(capsys, *search, "--config", str(config))
        assert code == 2 and repr(next(iter(entry))) in err
    config.write_bytes(b'{"a": 1}\xff')
    code, out, err = run_cli(capsys, "search", "--config", str(config))
    assert code == 2 and not out and "config is not UTF-8 text" in err, err
    config.write_text('{"max_depth": 3}')  # no depth cap in the config either
    code, _, err = run_cli(capsys, *search, "--config", str(config))
    assert code == 2 and "unknown search config entry 'max_depth'" in err
    # a NaN budget is never reached, a negative one is meaningless
    for budget in ("nan", "-1"):
        code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--budget", budget)
        assert code == 2 and "budget" in err
    config.write_text('{"budget_seconds": NaN}')
    code, _, err = run_cli(capsys, *search, "--grid", "0,1", "--config", str(config))
    assert code == 2 and "budget" in err
    # rationals are integers or P/Q strings, in a config as in a file
    config.write_text('{"target_ratio": 2.5}')
    code, _, err = run_cli(capsys, "search", "--domain", str(domain_path), "--config", str(config))
    assert code == 2 and "target ratio" in err

    # a malformed field in a mechanism or domain file is named, not a traceback
    leaf = ["root", "edges", "1", "edges", "1"]
    fig1 = json.loads(Path(FIG1).read_text())
    domain = json.loads(domain_path.read_text())
    ca = AuctionSetting(kind="combinatorial", n=2, m=2)
    ca_domain = json.loads(serialize_domain(adversarial_domain(ca, "ca-single-minded")))
    values = ["strategies", 0, 0, "valuation", "values"]
    # fig1 with its root named "7", so that an integer id 7 would match by coercion
    fig1_7 = json.loads(json.dumps(fig1).replace('"N1"', '"7"'))
    cases = (
        ("allocation", fig1, leaf + ["allocation"], None),
        ("speaker", fig1, ["root", "speaker"], "x"),
        ("allocation", fig1, leaf + ["allocation", 1, 0], "x"),
        ("payments", fig1, leaf + ["payments", 0], "1/0"),
        ("behavior", fig1, ["strategies", 0, 0, "behavior"], None),
        ("strategies", fig1, ["strategies"], 5),
        ("strategies", fig1, ["strategies", 0], 5),
        ("quantity", domain, ["players", 0, 0, "quantity"], "x"),
        # values of the wrong type are rejected, not rounded or coerced
        ("speaker", fig1, ["root", "speaker"], 0.9),
        ("n", fig1, ["setting", "n"], 2.5),
        ("payments", fig1, leaf + ["payments", 0], True),
        ("allocation", fig1, leaf + ["allocation", 1, 0], 0.5),
        ("quantity", domain, ["players", 0, 0, "quantity"], 2.7),
        ("bundle", ca_domain, ["players", 0, 0, "bundle"], ["x"]),
        ("players", domain, ["players"], 5),
        # ids and labels are strings and a behavior is an object
        ("behavior", fig1, ["strategies", 0, 0, "behavior", "N1"], 1),
        ("behavior", fig1, ["strategies", 0, 1, "behavior"], [["N1", "2"]]),
        ("id", fig1_7, ["root", "id"], 7),
        # valuations that do not fit the setting's m items
        ("values", fig1, values, []),
        ("values", fig1, values, ["1/1", "2/1"]),
        ("quantity", domain, ["players", 0, 0, "quantity"], 3),
    )
    # a valuation listed twice must carry one behavior: keeping the last plan
    # would check a mechanism the file does not describe
    repeat = json.loads(json.dumps(fig1))
    repeat["strategies"][0].append({"valuation": fig1["strategies"][0][0]["valuation"],
                                    "behavior": {"N1": "2"}})
    bad.write_text(json.dumps(repeat))
    code, out, err = run_cli(capsys, "verify", "--mechanism", str(bad))
    assert code == 2 and not out
    assert "strategy entry 2 of player 0" in err and "strategy entry 0" in err
    repeat["strategies"][0][2]["behavior"] = {"N1": "1"}  # an identical repeat is kept
    bad.write_text(json.dumps(repeat))
    assert run_cli(capsys, "verify", "--mechanism", str(bad))[0] == run_cli(
        capsys, "verify", "--mechanism", FIG1)[0]
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


def test_domain_file_overrides_the_bundles(tmp_path, capsys):
    # verify and ratio play the bundle's strategies over the domain file given
    from fractions import Fraction

    from ospcheck import (AuctionSetting, Domain, SingleMindedMU, adversarial_domain,
                          grand_bundle_ascending, second_price_single_item)
    from ospcheck.serialize import serialize_domain, serialize_mechanism

    mech, dom = tmp_path / "mech.json", tmp_path / "dom.json"
    sp3 = second_price_single_item(3)
    mech.write_text(serialize_mechanism(sp3))
    lowest, every = sp3.domain.players[0][:1], sp3.domain.players[1]
    dom.write_text(serialize_domain(Domain(setting=sp3.tree.setting, players=(lowest, every))))
    assert run_cli(capsys, "verify", "--mechanism", str(mech))[0] == 1
    code, out, _ = run_cli(capsys, "verify", "--mechanism", str(mech), "--domain", str(dom))
    assert code == 0 and "[PASS] osp" in out

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    gb = grand_bundle_ascending(mu, 16, domain=adversarial_domain(mu, "mu-single-minded"))
    mech.write_text(serialize_mechanism(gb))
    code, out, _ = run_cli(capsys, "ratio", "--mechanism", str(mech))
    assert code == 0
    assert "[INFO] welfare ratio = 2/1\n       worst profile welfare 1/1 vs OPT 2/1\n" in out
    spike = (gb.domain.players[0][2:], gb.domain.players[1][:1])
    dom.write_text(serialize_domain(Domain(setting=mu, players=spike)))
    code, out, _ = run_cli(capsys, "ratio", "--mechanism", str(mech), "--domain", str(dom))
    assert code == 0 and "[INFO] welfare ratio = 1/1\n" in out
    # a valuation the strategies do not cover cannot be played
    unplayed = (spike[0], (SingleMindedMU(2, Fraction(3)),))
    dom.write_text(serialize_domain(Domain(setting=mu, players=unplayed)))
    code, out, err = run_cli(capsys, "ratio", "--mechanism", str(mech), "--domain", str(dom))
    assert code == 2 and not out and "strategy of player 1 misses domain valuations" in err
    # a file without a strategies section holds a tree alone
    mech.write_text(serialize_mechanism(gb.tree))
    for command in ("verify", "ratio"):
        code, out, err = run_cli(capsys, command, "--mechanism", str(mech))
        assert code == 2 and not out and "has no strategies section" in err


def test_search_config_errors_and_inline_domain(tmp_path, capsys):
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    domain = json.loads(serialize_domain(adversarial_domain(mu, "mu-single-minded")))
    config = tmp_path / "config.json"
    cases = (
        ('{"target_ratio": ', "config syntax error at line 1 column 18"),
        ("[1, 2]", "search config must be a JSON object"),
        ('{"target_ratio": "2"}', "search needs --domain FILE or a domain entry"),
        (json.dumps({"domain": domain}), "search needs --target-ratio P/Q"),
    )
    for text, message in cases:
        config.write_text(text)
        code, out, err = run_cli(capsys, "search", "--config", str(config))
        assert code == 2 and not out and message in err, err
    # the domain entry may hold the domain document itself, not a path
    config.write_text(json.dumps({"domain": domain, "target_ratio": "3", "grid": ["0", "1"]}))
    code, out, _ = run_cli(capsys, "search", "--config", str(config))
    assert code == 0 and "no-counterexample" in out
    # the text report gives the survivor count once; the machine report
    # keeps "examined" as an alias of it
    assert re.search(r"\n       \d+ survivors, [\d.]+s\n", out) and "examined" not in out


def test_oversized_integers_exit_2(tmp_path, capsys):
    # Python refuses to convert an integer of more than 4,300 digits
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    big = "7" * 5000
    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    domain = serialize_domain(adversarial_domain(mu, "mu-single-minded"))
    mech, dom, config = tmp_path / "mech.json", tmp_path / "dom.json", tmp_path / "config.json"
    mech.write_text(Path(FIG1).read_text().replace('"n": 2', '"n": ' + big))
    dom.write_text(domain.replace('"quantity": 1', '"quantity": ' + big, 1))
    config.write_text('{"budget_seconds": %s}' % big)
    for argv, what in ((("verify", "--mechanism", str(mech)), "mechanism"),
                       (("search", "--target-ratio", "2", "--domain", str(dom)), "domain"),
                       (("search", "--config", str(config)), "config")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out and f"{what} holds an integer of over" in err, err


def test_search_flags_override_config_entries(tmp_path, capsys):
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(serialize_domain(adversarial_domain(mu, "mu-single-minded")))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domain": str(domain_path), "target_ratio": "3",
                                  "grid": ["x"], "budget_seconds": "soon"}))
    search = ["search", "--config", str(config)]
    # the entries are read as a file's fields are, each naming its key
    code, out, err = run_cli(capsys, *search)
    assert code == 2 and not out and "unreadable 'grid' field" in err, err
    code, out, err = run_cli(capsys, *search, "--grid", "0,1")
    assert code == 2 and not out and "unreadable 'budget_seconds' field" in err, err
    code, out, _ = run_cli(capsys, *search, "--grid", "0,1", "--budget", "60")
    assert code == 0 and "no-counterexample" in out
    code, out, _ = run_cli(capsys, *search, "--grid", "0,1", "--budget", "0")
    assert code == 1 and "budget ran out after 0 positions" in out
    # an empty grid is no grid to search over
    config.write_text(json.dumps({"domain": str(domain_path), "target_ratio": "3", "grid": []}))
    code, out, err = run_cli(capsys, *search)
    assert code == 2 and not out and "payment grid must be nonempty" in err, err


def test_search_rejects_negative_grid_levels(tmp_path, capsys):
    # no leaf may charge a negative payment, so such a level used to be
    # dropped silently, and a grid of negative levels alone passed vacuously
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(serialize_domain(adversarial_domain(mu, "mu-single-minded")))
    for grid, level in (("-1", "-1"), ("-1,0", "-1"), ("0,-1/2,1", "-1/2")):
        code, out, err = run_cli(capsys, "search", "--domain", str(domain_path),
                                 "--target-ratio", "2", f"--grid={grid}")
        assert code == 2 and not out and f"payment grid level {level} is negative" in err


def test_malformed_files_exit_2(tmp_path, capsys):
    """Each check that a mechanism or domain file can reach exits 2 with its reason."""
    from ospcheck import AuctionSetting, adversarial_domain
    from ospcheck.serialize import serialize_domain

    fig1 = json.loads(Path(FIG1).read_text())
    leaf = ["root", "edges", "1", "edges", "1"]
    one_leaf = {"format": "ospcheck-mechanism", "version": 1,
                "setting": {"kind": "multi-unit", "n": 1, "m": 1},
                "root": {"allocation": [0], "payments": ["0/1"]}}
    mu = AuctionSetting(kind="multi-unit", n=2, m=2)
    ca = AuctionSetting(kind="combinatorial", n=2, m=2)
    mu_domain = json.loads(serialize_domain(adversarial_domain(mu, "mu-single-minded")))
    ca_domain = json.loads(serialize_domain(adversarial_domain(ca, "ca-single-minded")))
    entry = ["strategies", 0, 0]
    cases = (
        (fig1, ["setting", "kind"], "auction", "unknown setting kind 'auction'"),
        (fig1, ["setting", "n"], 0, "need n >= 1 players"),
        (fig1, ["setting", "m"], 0, "m >= 1 items"),
        (fig1, leaf + ["allocation", 1, 0], 1, "item index out of range"),
        (one_leaf, ["root", "allocation", 0], 2, "quantity out of range"),
        (fig1, leaf + ["allocation"], [[]], "one bundle per player"),
        (fig1, leaf + ["payments"], ["0/1"], "leaf 'L1' needs one payment per player"),
        (fig1, leaf + ["id"], "#1", "node ids may not start with '#'"),
        (fig1, leaf + ["id"], "N1", "duplicate node id 'N1'"),
        (fig1, ["root", "edges", "1", "edges"], {}, "internal node 'N2' needs a nonempty edge map"),
        (fig1, ["root", "edges", "1"], 5, "node description must be a mapping, got int"),
        (fig1, entry + ["behavior"], {}, "strategy of player 0 undefined at node 'N1'"),
        (fig1, entry + ["behavior", "N1"], "9", "label '9' does not exist at node 'N1'"),
        (fig1, entry + ["valuation", "tag"], "bogus", "unknown valuation tag 'bogus'"),
        (fig1, entry + ["valuation"], {"tag": "additive"}, "additive valuation has no 'values'"),
        (mu_domain, ["players", 0, 0, "value"], "-1", "values must be nonnegative"),
        (mu_domain, ["players", 0, 0, "quantity"], 0, "quantity must be at least 1"),
        (mu_domain, ["players", 1], [], "every player needs a nonempty valuation list"),
        (mu_domain, ["players"], [[{"tag": "general-mu", "values": ["0", "1", "1"]}]],
         "need one valuation list per player"),
        (mu_domain, ["players", 0, 0], {"tag": "general-mu", "values": []}, "empty quantity table"),
        (mu_domain, ["players", 0, 0], {"tag": "general-mu", "values": ["1", "1", "1"]},
         "v(0) must be 0"),
        (mu_domain, ["players", 0, 0], {"tag": "additive", "values": ["1/1", "1/1"]},
         "additive valuation incompatible with multi-unit setting"),
        (ca_domain, ["players", 0, 0, "bundle"], [], "target bundle must be nonempty"),
        (ca_domain, ["players", 0, 0], {"tag": "general-ca", "values": ["0", "1", "1"]},
         "table length must be a power of two"),
    )
    bad = tmp_path / "bad.json"
    for doc, path, value, message in cases:
        doc = json.loads(json.dumps(doc))
        *outer, last = path
        functools.reduce(operator.getitem, outer, doc)[last] = value
        bad.write_text(json.dumps(doc))
        if "players" in doc:
            code, out, err = run_cli(capsys, "search", "--domain", str(bad), "--target-ratio", "2")
        else:
            code, out, err = run_cli(capsys, "analyze", "--mechanism", str(bad))
        assert code == 2 and not out and err.startswith("ospcheck: error:") and message in err, err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "verify" in out and "search" in out


def test_player_count_costs_no_memory_before_a_leaf(tmp_path, capsys):
    # a tree is validated without one list per player, so a huge player
    # count is refused at the first leaf at little cost
    import tracemalloc

    mech = tmp_path / "wide.json"
    mech.write_text(json.dumps({
        "format": "ospcheck-mechanism", "version": 1,
        "setting": {"kind": "multi-unit", "n": 2_000_000, "m": 1},
        "root": {"speaker": 0, "edges": {"a": {"allocation": [0], "payments": ["0"]}}}}))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "analyze", "--mechanism", str(mech))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not out and "one bundle per player" in err, err
    assert peak < 20 * 2**20, peak


def test_domain_over_another_setting_exits_2(tmp_path, capsys):
    # the two-unit clock's own valuations, declared over three units
    from ospcheck import AuctionSetting, Domain, grand_bundle_ascending
    from ospcheck.serialize import serialize_domain, serialize_mechanism

    gb = grand_bundle_ascending(AuctionSetting(kind="multi-unit", n=2, m=2), 3)
    mech, dom = tmp_path / "gb.json", tmp_path / "d23.json"
    mech.write_text(serialize_mechanism(gb))
    three = AuctionSetting(kind="multi-unit", n=2, m=3)
    dom.write_text(serialize_domain(Domain(setting=three, players=gb.domain.players)))
    for command in ("ratio", "verify"):
        code, out, err = run_cli(capsys, command, "--mechanism", str(mech), "--domain", str(dom))
        assert code == 2 and not out and "domain is over" in err
