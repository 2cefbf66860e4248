import copy
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gotzmann import __version__
from gotzmann import cli, threshold, verify
from gotzmann.cli import EXIT_CAP, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from gotzmann.monomial import Monomial, ParseError
from gotzmann.paths import WalkState, advance
from gotzmann.threshold import report_to_dict, tau


def _wrong_cost(u, b):
    # the walk's answer with the origin planted as its cost
    st = advance(u, b)
    return WalkState(st.current, u, st.steps)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_tau_plain(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "5", "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")

    def test_tau_lowered_by_last_variable(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "5", "x2^2*x4*x5^2")
        assert (code, out) == (EXIT_OK, "4\n")

    def test_tau_json_tower(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "5", "--json", "x2^2*x4")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["tau"] == "6"
        assert rep["t_star"] == "1"
        assert rep["f"] == "8" and rep["h"] == "3" and rep["k"] == "0"
        assert rep["sub_report"]["sub_report"]["n"] == 3

    def test_is_gotzmann(self, capsys):
        assert run(capsys, "is-gotzmann", "--n", "5", "x2^2*x4*x5^6")[1] == "true\n"
        assert run(capsys, "is-gotzmann", "--n", "5", "x2^2*x4*x5^5")[1] == "false\n"

    def test_is_gotzmann_json(self, capsys):
        code, out, _ = run(capsys, "is-gotzmann", "--n", "3", "--json", "x2^2")
        w = json.loads(out)
        assert w["is_gotzmann"] is False
        assert w["mg"] == "x3"

    def test_mg(self, capsys):
        assert run(capsys, "mg", "--n", "5", "x2^2*x4")[1] == "x3*x4^2*x5^5\n"

    def test_mg_shifted(self, capsys):
        code, out, _ = run(capsys, "mg", "--n", "5", "x2^2*x4", "--t", "2")
        assert out == "x3*x4^4*x5^12\n"

    def test_mg_renders_integers_of_any_size(self, capsys):
        code, out, _ = run(capsys, "mg", "--n", "8", "x2^2", "--t", str(10**1000))
        assert code == EXIT_OK
        exponents = [factor.partition("^")[2] for factor in out.strip().split("*")]
        assert max(len(e) for e in exponents) > 4300

    def test_mc(self, capsys):
        assert run(capsys, "mc", "--n", "3", "x2^2")[1] == "x2\n"

    def test_cost(self, capsys):
        code, out, _ = run(capsys, "cost", "--n", "5", "x2^2*x4*x5", "x2^2*x3*x4")
        assert out == "x4*x5^2\n"

    def test_pred(self, capsys):
        assert run(capsys, "pred", "--n", "5", "x2^2*x4*x5")[1] == "x2^2*x4^2\n"
        assert run(capsys, "pred", "--n", "3", "--steps", "3", "x3^2")[1] == "x1*x3\n"

    def test_sigma(self, capsys):
        assert run(capsys, "sigma", "--n", "5", "x2")[1] == "x2*x3*x4*x5\n"
        assert run(capsys, "sigma", "--n", "4", "x2", "--t", "2")[1] == "x2*x3^2*x4^3\n"


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "tau", "--n", "5", "x2^^2")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_bad_ambient(self, capsys):
        assert run(capsys, "tau", "--n", "0", "x1")[0] == EXIT_USAGE

    def test_budget_too_large(self, capsys):
        assert run(capsys, "pred", "--n", "3", "--steps", "99", "x3^2")[0] == EXIT_USAGE

    def test_jump_cap(self, capsys):
        code, _, err = run(capsys, "tau", "--n", "5", "--max-jumps", "3", "x2^5")
        assert code == EXIT_CAP
        assert "jump cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("tau", "--n", "5", "x2^2*x4"),
            ("pred", "--n", "5", "x2^2*x4*x5"),
            ("conjecture", "--n", "5", "--d", "2..3"),
        ],
    )
    def test_negative_jump_cap_is_a_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--max-jumps", "-1")
        assert (code, out) == (EXIT_USAGE, "")

    def test_zero_jump_cap_is_a_cap_hit(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "5", "--max-jumps", "0", "x2^2*x4")
        assert (code, out) == (EXIT_CAP, "")

    def test_reversed_cost_order(self, capsys):
        assert run(capsys, "cost", "--n", "3", "x1^2", "x3^2")[0] == EXIT_USAGE

    def test_failing_suite_reports_one(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "walk", lambda: (1, ["boom"]))
        code, out, _ = run(capsys, "verify", "--suite", "walk")
        assert code == EXIT_VERIFY
        assert json.loads(out)["failures"] == 1


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "paper-examples"),
            ("verify", "--suite", "walk", "--count", "25"),
            ("verify", "--suite", "formulas", "--d", "2..4"),
            ("verify", "--suite", "oracle", "--n", "3", "--max-deg", "3"),
        ],
    )
    def test_suites_pass(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["failures"] == 0
        assert summary["checked"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "oracle", "--n", "0", "--max-deg", "1"),
            ("verify", "--suite", "oracle", "--max-deg", "-1"),
            ("verify", "--suite", "walk", "--count", "-5"),
            ("verify", "--suite", "walk", "--count", "0"),
            ("verify", "--suite", "formulas", "--d", ""),
            ("verify", "--suite", "walk", "--n", "3"),
            ("verify", "--suite", "paper-examples", "--count", "5"),
            ("verify", "--suite", "oracle", "--n", "3", "--max-deg", "1", "--seed", "4"),
        ],
    )
    def test_suites_that_would_check_nothing_are_usage_errors(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")

    def test_unread_option_is_named(self):
        with pytest.raises(ParseError, match="the walk suite takes no option n$"):
            verify.run("walk", n=3)

    def test_unknown_suite_names_the_valid_ones(self, capsys):
        with pytest.raises(ParseError, match="unknown suite 'walks'; have formulas, oracle, paper-examples, walk$"):
            verify.run("walks")
        code, out, err = run(capsys, "verify", "--suite", "walks")
        assert (code, out) == (EXIT_USAGE, "")
        assert "paper-examples" in err

    def test_other_commands_do_not_import_the_suites(self):
        # nor the standard modules that would dominate start-up; -S, because
        # site can preload typing through a .pth file
        src = str(Path(cli.__file__).parent.parent)
        unwanted = ["gotzmann.verify", "dataclasses", "decimal", "fractions", "inspect", "typing"]
        code = f"import sys, gotzmann.cli; print([m for m in {unwanted!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env={"PYTHONPATH": src}, check=True,
        )
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv, name, fault",
        [
            (("formulas", "--d", "2..3"), "tau", lambda u, n: SimpleNamespace(tau=tau(u, n).tau + 1)),
            (("oracle", "--n", "3", "--max-deg", "2"), "tau", lambda u, n: SimpleNamespace(tau=tau(u, n).tau + 1)),
            (("walk", "--count", "5"), "advance", _wrong_cost),
            (("paper-examples",), "mg_closed", lambda u: u),
        ],
        ids=["formulas", "oracle", "walk", "paper-examples"],
    )
    def test_each_suite_catches_a_planted_fault(self, capsys, monkeypatch, argv, name, fault):
        # a suite that compared a function with itself would pass here
        monkeypatch.setattr(verify, name, fault)
        code, out, _ = run(capsys, "verify", "--suite", *argv)
        summary = json.loads(out)
        assert (code, summary["suite"]) == (EXIT_VERIFY, argv[0])
        assert summary["failures"] > 0
        assert summary["examples"]

    def test_walk_suite_is_seedable(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "walk", "--count", "10", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--suite", "walk", "--count", "10", "--seed", "7")
        assert out1 == out2


class TestConjecture:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--n", "5", "--d", "2..4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["d", "tau_5", "tau_4", "ratio", "approx"]
        assert lines[1].split()[:3] == ["2", "4", "2"]
        assert lines[2].split()[:4] == ["3", "56", "10", "56/45"]

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--n", "4", "--d", "2..8", "--json")
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["interpolation"]["matches_conjectured_degree"] is True
        d3 = next(r for r in doc["rows"] if r["d"] == 3)
        assert (d3["ratio_num"], d3["ratio_den"]) == ("10", "3")
        d2 = next(r for r in doc["rows"] if r["d"] == 2)
        assert d2["ratio_num"] is None

    def test_bad_range(self, capsys):
        assert run(capsys, "conjecture", "--n", "4", "--d", "5..2")[0] == EXIT_USAGE


class TestCache:
    def test_miss_then_hit_identical(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        _, miss, _ = run(capsys, "tau", "--n", "6", "--json", "--cache", str(cache), "x2^2")
        assert cache.exists()
        _, hit, _ = run(capsys, "tau", "--n", "6", "--json", "--cache", str(cache), "x2^2")
        assert miss == hit
        assert len(cache.read_text().splitlines()) == 1

    def test_core_entry_serves_shifted_queries(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        run(capsys, "tau", "--n", "6", "--cache", str(cache), "x2^2")
        _, out, _ = run(capsys, "tau", "--n", "6", "--cache", str(cache), "x2^2*x6^3")
        assert out == "7\n"
        assert len(cache.read_text().splitlines()) == 1

    def test_replay_rewalks_levels_at_zero_with_the_jump_cap(self, capsys, tmp_path, monkeypatch):
        # the n = 4 level of x2^2*x4^3 has its threshold clamped to 0; its walk
        # runs again on replay, under --max-jumps, and not after a computed tower
        cache = tmp_path / "reports.jsonl"
        walks, real = [], cli.find_z
        monkeypatch.setattr(
            cli, "find_z", lambda *a, **kw: walks.append((a[1], kw["max_jumps"])) or real(*a, **kw)
        )
        argv = ("tau", "--n", "5", "--json", "--max-jumps", "500", "--cache", str(cache), "x2^2*x4^3")
        _, miss, _ = run(capsys, *argv)
        assert walks == []
        _, hit, _ = run(capsys, *argv)
        assert hit == miss and walks == [(4, 500)]
        code, out, _ = run(capsys, "tau", "--n", "5", "--json", "x2^2*x4^3")
        assert (code, out) == (EXIT_OK, miss) and walks == [(4, 500)]

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_warm_conjecture_scan_replays_without_tau(self, capsys, tmp_path, monkeypatch, flags):
        cache = tmp_path / "reports.jsonl"
        argv = ("conjecture", "--n", "6", "--d", "0..5", *flags)
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--cache", str(cache)) == plain
        stored = cache.read_bytes()
        assert len(stored.splitlines()) == 6
        for module in (cli, threshold):
            monkeypatch.setattr(module, "tau", lambda *a, **kw: pytest.fail("tau ran on a warm cache"))
        assert run(capsys, *argv, "--cache", str(cache)) == plain
        assert cache.read_bytes() == stored

    def test_conjecture_scan_computes_only_the_rows_it_misses(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "reports.jsonl"
        run(capsys, "conjecture", "--n", "6", "--d", "0..3", "--cache", str(cache))
        computed, real = [], threshold.tau

        def counted(u, n, **kw):
            if n == 6:  # the top of each tower; the recursion below it calls tau too
                computed.append(str(u))
            return real(u, n, **kw)

        for module in (cli, threshold):
            monkeypatch.setattr(module, "tau", counted)
        code, out, _ = run(capsys, "conjecture", "--n", "6", "--d", "2..5", "--cache", str(cache))
        assert code == EXIT_OK and computed == ["x2^4", "x2^5"]
        monkeypatch.undo()
        assert run(capsys, "conjecture", "--n", "6", "--d", "2..5") == (code, out, "")
        assert len(cache.read_text().splitlines()) == 6

    @pytest.mark.parametrize("argv", [("--n", "2", "--d", "0..3"), ("--n", "6", "--d=-1..3")], ids=["n", "d"])
    def test_bad_conjecture_query_touches_no_cache(self, capsys, tmp_path, argv):
        cache = tmp_path / "reports.jsonl"
        assert run(capsys, "conjecture", *argv, "--cache", str(cache))[0] == EXIT_USAGE
        assert not cache.exists()

    def test_environment_variable(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "reports.jsonl"
        monkeypatch.setenv("GOTZ_CACHE", str(cache))
        run(capsys, "tau", "--n", "4", "x2^2")
        assert cache.exists()
        entry = json.loads(cache.read_text())
        assert entry["version"] == __version__
        assert entry["u0"] == "x2^2"

    def test_stale_version_ignored(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        bogus = {"version": "0.0.0", "n": 4, "u0": "x2^2", "report": {"tau": "999"}}
        cache.write_text(json.dumps(bogus) + "\n")
        _, out, _ = run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2")
        assert out == "2\n"
        assert len(cache.read_text().splitlines()) == 2

    def test_malformed_lines_tolerated(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        cache.write_text("not json\n\n[1, 2]\n")
        _, out, _ = run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2")
        assert out == "2\n"

    def test_empty_report_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        entry = {"version": __version__, "n": 5, "u0": "x2^2*x4", "report": {}}
        cache.write_text(json.dumps(entry) + "\n")
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert len(cache.read_text().splitlines()) == 2

    def test_wrong_tau_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        report = report_to_dict(tau(Monomial(5, (0, 2, 0, 1, 0)), 5))
        report["tau"] = "999"
        entry = {"version": __version__, "n": 5, "u0": "x2^2*x4", "report": report}
        cache.write_text(json.dumps(entry, sort_keys=True) + "\n")
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert len(cache.read_text().splitlines()) == 2
        _, hit, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert hit == "6\n"
        assert len(cache.read_text().splitlines()) == 2

    @pytest.mark.xfail(strict=True, reason="a hit is not certified: a consistent edit of the top level replays")
    @pytest.mark.parametrize("edit", [{"h": 1, "delta": -1, "tau": -1}, {"k": 1, "tau": -1}])
    def test_forged_top_level_is_recomputed(self, capsys, tmp_path, edit):
        cache = tmp_path / "reports.jsonl"
        report = report_to_dict(tau(Monomial(5, (0, 2, 0, 1, 0)), 5))
        for key, step in edit.items():
            report[key] = str(int(report[key]) + step)
        entry = {"version": __version__, "n": 5, "u0": "x2^2*x4", "report": report}
        cache.write_text(json.dumps(entry, sort_keys=True) + "\n")
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert len(cache.read_text().splitlines()) == 2

    def test_hit_parses_only_the_matching_line(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "reports.jsonl"
        report = report_to_dict(tau(Monomial(5, (0, 2, 0, 1, 0)), 5))
        lines = [
            json.dumps({"version": __version__, "n": 5, "u0": f"x3^{d}", "report": {"tau": str(d)}})
            for d in range(1, 2000)
        ]
        hit = json.dumps({"version": __version__, "n": 5, "u0": "x2^2*x4", "report": report}, sort_keys=True)
        lines.insert(1000, hit)
        cache.write_text("\n".join(lines) + "\n")
        parsed = []
        loads = json.loads
        monkeypatch.setattr(cli.json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert parsed == [hit + "\n"]
        assert len(cache.read_text().splitlines()) == 2000

    def test_hand_spaced_line_is_a_miss(self, capsys, tmp_path):
        # the scan looks for '"u0": ' as json.dumps writes it; other spacing is a miss
        cache = tmp_path / "reports.jsonl"
        report = report_to_dict(tau(Monomial(4, (0, 2, 0, 0)), 4))
        entry = {"version": __version__, "n": 4, "report": report, "u0": "x2^2"}
        cache.write_text(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
        _, out, _ = run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2")
        assert out == "2\n"
        lines = cache.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[1]) == entry
        _, hit, _ = run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2")
        assert hit == "2\n"
        assert len(cache.read_text().splitlines()) == 2


@given(
    st.integers(1, 6).flatmap(lambda m: st.lists(st.integers(0, 4), min_size=m, max_size=m)),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_cache_accepts_real_towers_and_rejects_edited_counts(exps, t):
    n = len(exps) + 1
    u0 = Monomial(n, tuple(exps) + (0,))
    report = report_to_dict(tau(u0, n))
    assert cli._replays(report, u0) is not None

    def rejects(depth, key, value):
        edited = copy.deepcopy(report)
        level = edited
        for _ in range(depth):
            level = level["sub_report"]
        level[key] = value
        return cli._replays(edited, u0) is None

    level, depth = report, 0
    while level is not None:
        # below the top, a level whose shifted tau is clamped at 0 passes no
        # change of k upward; replay re-walks such a level
        for key in ("t_star", "f", "h", "k", "delta", "tau"):
            assert rejects(depth, key, str(int(level[key]) + 1)), (depth, key)
        for key in ("t_star", "f", "h", "k", "delta", "tau"):
            for bad in ("-1", "07", "+7", " 7", 7) + (("1",) if level["n"] == 2 else ()):
                assert rejects(depth, key, bad), (depth, key, bad)
        for key, bad in (("n", float(level["n"])), ("n", True), ("extra", "0")):
            assert rejects(depth, key, bad), (depth, key, bad)
        level, depth = level["sub_report"], depth + 1
    shifted = report_to_dict(tau(Monomial(n, tuple(exps) + (t,)), n))
    assert (cli._replays(shifted, u0) is not None) == (shifted == report)


@pytest.mark.parametrize("exc", [RuntimeError("invariant broken"), MemoryError()])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "tau", broken)
    code, out, err = run(capsys, "tau", "--n", "5", "x2^2*x4")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: ")


def test_negative_binom_is_an_internal_error(capsys, monkeypatch):
    from gotzmann import paths
    from gotzmann.combinatorics import binom

    monkeypatch.setattr(paths, "binom", lambda a, b: binom(-1, b))
    # a budget walk that solves a block bound through binom (row heads are products)
    code, out, err = run(capsys, "pred", "--n", "5", "x5^20", "--steps", "1000")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "binom needs nonnegative arguments" in err


def test_trace_streams_jsonl(capsys):
    code, out, err = run(capsys, "cost", "--n", "5", "--trace", "x2^2*x4*x5", "x2^2*x3*x4")
    assert out == "x4*x5^2\n"
    records = [json.loads(line) for line in err.splitlines()]
    assert records
    assert records[-1]["to"] == "x2^2*x3*x4"
    assert all({"from", "to", "block_cost", "steps_so_far"} == set(r) for r in records)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_console_script_or_module():
    exe = shutil.which("gotz")
    argv = [exe] if exe else [sys.executable, "-m", "gotzmann"]
    proc = subprocess.run(
        argv + ["tau", "--n", "5", "x2^2*x4"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def _readme_examples():
    """Each `$ gotz ...` line of README.md with the lines printed under it."""
    examples = []
    current = None
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ gotz "):
            current = []
            argv = shlex.split(line[len("$ gotz "):], comments=True)
            examples.append(pytest.param(argv, current, id=" ".join(argv)))
        elif current is not None:
            current.append(line)
    return examples


@pytest.mark.parametrize("argv, printed", _readme_examples())
def test_readme_examples(capsys, argv, printed):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    if printed:
        assert out == "".join(line + "\n" for line in printed)
