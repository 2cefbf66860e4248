import copy
import errno
import fcntl
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gotzmann import __version__
from gotzmann import cache as gcache, cli, threshold, verify
from gotzmann.cli import EXIT_CAP, EXIT_INTERNAL, EXIT_OK, EXIT_PIPE, EXIT_USAGE, EXIT_VERIFY, main
from gotzmann.maxgen import mg_shifted
from gotzmann.monomial import Monomial, ParseError, parse
from gotzmann.paths import WalkState, advance
from gotzmann.threshold import tau


def _wrong_cost(u, b):
    # the walk's answer with the origin planted as its cost
    st = advance(u, b)
    return WalkState(st.current, u, st.steps)


def cache_line(n, core, rows, version=__version__):
    # a cache line as gotz writes it: the key first, then the hex rows
    return json.dumps({"key": [version, n, core], "rows": rows})


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

    def test_mg_json_renders_t_as_a_decimal_string(self, capsys):
        t = 10**23
        code, out, _ = run(capsys, "mg", "--n", "5", "--json", "x2^2*x4", "--t", str(t))
        assert code == EXIT_OK
        assert json.loads(out) == {"u": "x2^2*x4", "t": str(t), "mg": str(mg_shifted(parse("x2^2*x4", 5), t))}
        code, out, _ = run(capsys, "mg", "--n", "5", "--json", "x2^2*x4")
        assert json.loads(out) == {"u": "x2^2*x4", "t": None, "mg": "x3*x4^2*x5^5"}

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
        # tau(x2^5, 5) needs a cap of 3: its longest find_z walk takes 3 jumps
        code, _, err = run(capsys, "tau", "--n", "5", "--max-jumps", "2", "x2^5")
        assert code == EXIT_CAP
        assert "jump cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("tau", "--n", "5", "x2^2*x4"),
            ("pred", "--n", "5", "x2^2*x4*x5"),
            ("conjecture", "--n", "5", "--d", "2..3"),
            ("tau", "--n", "2", "x2"),  # a tower that runs no walk
        ],
    )
    def test_negative_jump_cap_is_a_usage_error(self, capsys, argv, tmp_path):
        code, out, _ = run(capsys, *argv, "--max-jumps", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        if argv[0] in ("tau", "conjecture"):  # also when the cache holds every answer
            cache = str(tmp_path / "c.jsonl")
            assert run(capsys, *argv, "--cache", cache)[0] == EXIT_OK
            code, out, _ = run(capsys, *argv, "--max-jumps", "-1", "--cache", cache)
            assert (code, out) == (EXIT_USAGE, "")

    def test_zero_jump_cap_is_a_cap_hit(self, capsys):
        code, out, _ = run(capsys, "tau", "--n", "5", "--max-jumps", "0", "x2^2*x4")
        assert (code, out) == (EXIT_CAP, "")

    @pytest.mark.parametrize("argv", [("tau", "--n", "1100", "x1"), ("conjecture", "--n", "1100", "--d", "0..1")])
    def test_tower_deeper_than_the_recursion_limit_is_a_cap_hit(self, capsys, argv):
        # a tower nests one call per variable; past Python's recursion limit that is a cap, not a broken invariant
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CAP, "")
        assert "recursion limit" in err

    @pytest.mark.parametrize(
        "argv",
        [("tau", "--n", "1" + "0" * 27, "x1"), ("mg", "--n", "1" + "0" * 27, "x1"),
         ("conjecture", "--n", "4", "--d", "1..1" + "0" * 23)],
    )
    def test_count_past_pythons_size_limit_is_a_cap_hit(self, capsys, argv):
        # a list of the n exponents, or of the d values, longer than Python can index
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CAP, "")
        assert err.startswith("error: ") and "size limit" in err

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

    def test_range_for_a_law_that_reads_none_is_a_usage_error(self, capsys):
        # only tau5 reads --d; tau3, tau4 and tau_x2 check fixed grids
        for which in ("tau3", "tau4", "tau_x2"):
            code, out, err = run(capsys, "verify", "--suite", "formulas", "--which", which, "--d", "3..4")
            assert (code, out) == (EXIT_USAGE, "") and f"the {which} law takes no option d" in err
        # tau5 is an alias of tau5_x2, the one law that reads it
        outs = {run(capsys, "verify", "--suite", "formulas", "--which", which, "--d", "3..4")
                for which in ("tau5", "tau5_x2")}
        assert [(code, json.loads(out)["checked"]) for code, out, _ in outs] == [(EXIT_OK, 2)]

    @pytest.mark.parametrize("which", [None, "tau5", "tau5_x2"])
    def test_empty_range_is_refused_by_the_library_too(self, capsys, which):
        # with every law the other laws would still be checked, and the suite would pass
        # without a single tau5_x2 point; the library refuses lo > hi as the CLI's --d does
        options = {"d": (5, 3)} if which is None else {"which": which, "d": (5, 3)}
        with pytest.raises(ParseError, match="^empty range '5..3'$"):
            verify.run("formulas", **options)
        code, out, err = run(capsys, "verify", "--suite", "formulas", "--d", "5..3")
        assert (code, out) == (EXIT_USAGE, "") and "empty range '5..3'" in err

    def test_every_closed_law_has_one_row(self):
        # a law registered in threshold but not in the suite, or the other way round, shows here
        assert set(verify.LAWS) == set(threshold._FORMULAS)

    def test_unknown_law_names_the_valid_ones(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "formulas", "--which", "tau6")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unknown law 'tau6'" in err and all(law in err for law in threshold._FORMULAS)

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
            capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
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
        walks, real = [], gcache._counts
        monkeypatch.setattr(gcache, "_counts", lambda *a: walks.append((a[1], a[3])) or real(*a))
        argv = ("tau", "--n", "5", "--json", "--max-jumps", "500", "--cache", str(cache), "x2^2*x4^3")
        _, miss, _ = run(capsys, *argv)
        assert walks == []
        _, hit, _ = run(capsys, *argv)
        assert hit == miss and walks == [(4, 500)]
        code, out, _ = run(capsys, "tau", "--n", "5", "--json", "x2^2*x4^3")
        assert (code, out) == (EXIT_OK, miss) and walks == [(4, 500)]

    def test_edited_f_of_a_level_at_zero_is_recomputed(self, capsys, tmp_path):
        # the n = 4 level of x2^2*x4^3 is clamped to 0, so f + 1 and delta + 1 there
        # rebuild every row; its walk gives back f = 2, so the line is a miss
        cache = tmp_path / "reports.jsonl"
        rows = gcache.rows(tau(Monomial(5, (0, 2, 0, 3, 0)), 5))
        assert rows[1] == ["1", "2", "1", "0", "1", "0"]
        rows[1][1], rows[1][4] = "3", "2"
        cache.write_text(cache_line(5, "x2^2*x4^3", rows) + "\n")
        code, out, _ = run(capsys, "tau", "--n", "5", "--json", "--cache", str(cache), "x2^2*x4^3")
        assert (code, out) == run(capsys, "tau", "--n", "5", "--json", "x2^2*x4^3")[:2]
        level = json.loads(out)["sub_report"]
        assert (level["n"], level["f"], level["delta"]) == (4, "2", "1")
        assert len(cache.read_text().splitlines()) == 2

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
        assert entry["key"] == [__version__, 4, "x2^2"]

    @pytest.mark.parametrize("via", ["option", "environment"])
    @pytest.mark.parametrize("where", ["directory", "missing_directory"])
    @pytest.mark.parametrize(
        "argv", [("tau", "--n", "4", "x2^2"), ("conjecture", "--n", "4", "--d", "0..2")], ids=["tau", "conjecture"]
    )
    def test_unusable_cache_path_is_a_usage_error(self, capsys, tmp_path, monkeypatch, argv, where, via):
        # reported before anything is computed, as exit 2 rather than a traceback
        if where == "directory":
            path, reason = tmp_path, os.strerror(errno.EISDIR)
        else:
            path, reason = tmp_path / "missing" / "reports.jsonl", os.strerror(errno.ENOENT)
        if via == "option":
            argv += ("--cache", str(path))
        else:
            monkeypatch.setenv("GOTZ_CACHE", str(path))
        monkeypatch.setattr(cli, "tau", lambda *a, **kw: pytest.fail("tau ran with an unusable cache"))
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: cannot use cache file {path}: {reason}\n")
        assert not (tmp_path / "missing").exists()

    def test_line_that_is_not_utf8_is_a_miss(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "reports.jsonl"
        good = cache_line(4, "x2^2", gcache.rows(tau(Monomial(4, (0, 2, 0, 0)), 4))).encode()
        bad = b"\xff\xfe not text\n" + good.replace(b'"2"', b'"\xff"', 1) + b"\n"
        cache.write_bytes(bad)
        assert run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2") == (EXIT_OK, "2\n", "")
        assert cache.read_bytes() == bad + good + b"\n"
        monkeypatch.setattr(cli, "tau", lambda *a, **kw: pytest.fail("tau ran on a hit"))
        assert run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2") == (EXIT_OK, "2\n", "")
        assert cache.read_bytes() == bad + good + b"\n"

    def test_stale_version_ignored(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        cache.write_text(cache_line(4, "x2^2", gcache.rows(tau(Monomial(4, (0, 2, 0, 0)), 4)), "0.0.0") + "\n")
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
        cache.write_text(cache_line(5, "x2^2*x4", []) + "\n")
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert len(cache.read_text().splitlines()) == 2

    def test_wrong_tau_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "reports.jsonl"
        rows = gcache.rows(tau(Monomial(5, (0, 2, 0, 1, 0)), 5))
        rows[0][5] = format(999, "x")
        cache.write_text(cache_line(5, "x2^2*x4", rows) + "\n")
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert len(cache.read_text().splitlines()) == 2
        _, hit, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert hit == "6\n"
        assert len(cache.read_text().splitlines()) == 2

    @pytest.mark.xfail(strict=True, reason="a hit is not certified: a consistent edit of the top level replays")
    @pytest.mark.parametrize("edit", [{2: 1, 4: -1, 5: -1}, {3: 1, 5: -1}])
    def test_forged_top_level_is_recomputed(self, capsys, tmp_path, edit):
        # columns of a row: t*, f, h, k, delta, tau
        cache = tmp_path / "reports.jsonl"
        rows = gcache.rows(tau(Monomial(5, (0, 2, 0, 1, 0)), 5))
        for column, step in edit.items():
            rows[0][column] = format(int(rows[0][column], 16) + step, "x")
        cache.write_text(cache_line(5, "x2^2*x4", rows) + "\n")
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert len(cache.read_text().splitlines()) == 2

    def test_hit_parses_only_the_matching_line(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "reports.jsonl"
        lines = [cache_line(5, f"x3^{d}", [[format(d, "x")] * 6]) for d in range(1, 2000)]
        hit = cache_line(5, "x2^2*x4", gcache.rows(tau(Monomial(5, (0, 2, 0, 1, 0)), 5)))
        lines.insert(1000, hit)
        cache.write_text("\n".join(lines) + "\n")
        parsed = []
        loads = json.loads
        monkeypatch.setattr(gcache.json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
        code, out, _ = run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4")
        assert (code, out) == (EXIT_OK, "6\n")
        assert parsed == [hit + "\n"]
        assert len(cache.read_text().splitlines()) == 2000

    def test_line_that_does_not_open_with_its_key_is_a_miss(self, capsys, tmp_path):
        # only a line that opens with its key as json.dumps writes it is read
        cache = tmp_path / "reports.jsonl"
        key, rows = [__version__, 4, "x2^2"], gcache.rows(tau(Monomial(4, (0, 2, 0, 0)), 4))
        others = [
            json.dumps({"key": key, "rows": rows}, separators=(",", ":")),
            json.dumps({"rows": rows, "key": key}),
        ]
        cache.write_text("".join(other + "\n" for other in others))
        _, out, _ = run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2")
        assert out == "2\n"
        assert cache.read_text().splitlines() == others + [cache_line(4, "x2^2", rows)]
        _, hit, _ = run(capsys, "tau", "--n", "4", "--cache", str(cache), "x2^2")
        assert hit == "2\n"
        assert len(cache.read_text().splitlines()) == 3

    def test_old_nested_line_is_a_miss(self, capsys, tmp_path, monkeypatch):
        # the earlier format, the sorted --json tower under "report", is never replayed
        cache = tmp_path / "reports.jsonl"
        rep = tau(Monomial(5, (0, 2, 0, 1, 0)), 5)
        old = json.dumps(
            {"version": __version__, "n": 5, "u0": "x2^2*x4", "report": threshold.report_to_dict(rep)},
            sort_keys=True,
        )
        cache.write_text(old + "\n")
        assert run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4") == (EXIT_OK, "6\n", "")
        assert cache.read_text().splitlines() == [old, cache_line(5, "x2^2*x4", gcache.rows(rep))]
        monkeypatch.setattr(cli, "tau", lambda *a, **kw: pytest.fail("tau ran on a hit"))
        assert run(capsys, "tau", "--n", "5", "--cache", str(cache), "x2^2*x4") == (EXIT_OK, "6\n", "")
        assert len(cache.read_text().splitlines()) == 2


@given(
    st.integers(1, 6).flatmap(lambda m: st.lists(st.integers(0, 4), min_size=m, max_size=m)),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_cache_accepts_real_towers_and_rejects_edited_counts(exps, t):
    n = len(exps) + 1
    u0 = Monomial(n, tuple(exps) + (0,))
    rows = gcache.rows(tau(u0, n))
    assert gcache.replay(rows, u0) == tau(u0, n)

    def rejects(edited):
        return gcache.replay(edited, u0) is None

    # columns t*, f, h, k, delta, tau; below the top, a level whose shifted tau
    # is clamped at 0 passes no change of k upward, and replay re-walks it
    for depth, row in enumerate(rows):
        for column, count in enumerate(row):
            plus_one = format(int(count, 16) + 1, "x")
            for bad in (plus_one, "-1", "07", "+7", " 7", 7) + (("1",) if depth == n - 2 else ()):
                edited = copy.deepcopy(rows)
                edited[depth][column] = bad
                assert rejects(edited), (depth, column, bad)
        edited = copy.deepcopy(rows)
        edited[depth].append("0")
        assert rejects(edited), depth
        assert rejects(rows[:depth] + rows[depth + 1 :]), depth
    assert rejects(rows + [["0"] * 6])

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reports.jsonl"

        def loads(text):
            path.write_text(text + "\n")
            return gcache.load(str(path), n, {str(u0): u0})

        assert loads(cache_line(n, str(u0), rows)) == {str(u0): tau(u0, n)}
        other = str(Monomial(n, tuple(exps[:-1]) + (exps[-1] + 1, 0)))
        for m, core, version in ((n + 1, str(u0), __version__), (n, other, __version__), (n, str(u0), "0.0.0")):
            assert loads(cache_line(m, core, rows, version)) == {}, (m, core, version)

    shifted = gcache.rows(tau(Monomial(n, tuple(exps) + (t,)), n))
    assert (gcache.replay(shifted, u0) is not None) == (shifted == rows)


@pytest.mark.parametrize("exc", [RuntimeError("invariant broken"), MemoryError()])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "tau", broken)
    code, out, err = run(capsys, "tau", "--n", "5", "x2^2*x4")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: ")


def test_inconsistent_target_is_an_internal_error(capsys, monkeypatch):
    # a level's check of the tower's run walk against its gap count, seen from the command
    # line: the top level's gap form is off by one, the levels below it are not
    from gotzmann import combinatorics, threshold

    def off_by_one(exps, n=0, levels=None):
        v, q = combinatorics._run_walk(exps, n, levels)
        levels[-1][1][-1] += 1
        return v, q

    monkeypatch.setattr(threshold, "_run_walk", off_by_one)
    code, out, err = run(capsys, "tau", "--n", "5", "x2^2*x4")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "internal inconsistency: mg(x2^2*x4) in ambient 5 has degree 9, not the gap count 8" in err


def _gotz_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered, as from a shell
    env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
    return env


def test_closed_pipe_exits_quietly_with_its_own_code():
    # the reader takes 10 bytes and closes the pipe; the rest of an output larger than the
    # pipe buffer cannot be written, which is neither a traceback nor a verification failure
    argv = [sys.executable, "-m", "gotzmann", "tau", "--n", "900", "--json", "x1"]
    full = subprocess.run(argv, capture_output=True, env=_gotz_env(), check=True).stdout
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_gotz_env())
    assert len(full) > fcntl.fcntl(proc.stdout, fcntl.F_GETPIPE_SZ)  # 97,890 bytes against 64 KiB on Linux
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), head, err) == (EXIT_PIPE, full[:10], b"")
    assert EXIT_PIPE not in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL)


def test_pipe_closed_before_any_output():
    # the answer waits in stdout's buffer; main flushes it into the closed pipe, and the
    # flush at exit, pointed at devnull, must not fail a second time (exit 120)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "gotzmann", "tau", "--n", "5", "x2^2*x4"],
                              stdout=write, stderr=subprocess.PIPE, env=_gotz_env())
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"")


def test_negative_binom_is_an_internal_error(capsys, monkeypatch):
    from gotzmann import combinatorics

    binom = combinatorics.binom
    monkeypatch.setattr(combinatorics, "binom", lambda a, b: binom(-1, b))
    # the budget check ranks the origin through binom (lex_rank) before the walk
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
