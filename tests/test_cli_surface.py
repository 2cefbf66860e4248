"""The command line's surface: each subcommand's options, what it parses, and
what verify forwards to its suites.

These tests pin what a user can type and what the commands receive, so that
a change to how build_parser declares its options shows here first.
"""

import argparse
import json

import pytest

from gotzmann import cli, verify
from gotzmann.paths import DEFAULT_MAX_JUMPS

HELP = (("-h", "--help"), False)
WALK = [(("--max-jumps",), False), (("--trace",), False)]

# per subcommand: (option strings, or the dest of a positional; required)
SURFACE = {
    "tau": {HELP, (("--n",), True), ("monomial", True), (("--json",), False), (("--cache",), False), *WALK},
    "is-gotzmann": {HELP, (("--n",), True), ("monomial", True), (("--json",), False), *WALK},
    "mg": {HELP, (("--n",), True), ("monomial", True), (("--t",), False), (("--json",), False)},
    "mc": {HELP, (("--n",), True), ("monomial", True), *WALK},
    "cost": {HELP, (("--n",), True), ("lower", True), ("upper", True), *WALK},
    "pred": {HELP, (("--n",), True), ("monomial", True), (("--steps",), False), *WALK},
    "sigma": {HELP, (("--n",), True), ("monomial", True), (("--t",), False)},
    "verify": {
        HELP, (("--suite",), True), (("--n",), False), (("--max-deg",), False), (("--which",), False),
        (("--d",), False), (("--count",), False), (("--seed",), False),
    },
    "conjecture": {
        HELP, (("--n",), True), (("--d",), True), (("--json",), False), (("--cache",), False),
        (("--max-jumps",), False),
    },
}

# per subcommand: a minimal and a full argv, each with the namespace it parses to
PARSED = {
    "tau": [
        (["--n", "5", "x2"], {"n": 5, "monomial": "x2", "json": False, "cache": None,
                              "max_jumps": DEFAULT_MAX_JUMPS, "trace": False}),
        (["--trace", "--n", "5", "--json", "--cache", "c.jsonl", "--max-jumps", "7", "x2^2*x4"],
         {"n": 5, "monomial": "x2^2*x4", "json": True, "cache": "c.jsonl", "max_jumps": 7, "trace": True}),
    ],
    "is-gotzmann": [
        (["--n", "3", "x3"], {"n": 3, "monomial": "x3", "json": False, "max_jumps": DEFAULT_MAX_JUMPS,
                              "trace": False}),
        (["x3", "--n", "3", "--json", "--max-jumps", "0", "--trace"],
         {"n": 3, "monomial": "x3", "json": True, "max_jumps": 0, "trace": True}),
    ],
    "mg": [
        (["--n", "4", "x2"], {"n": 4, "monomial": "x2", "t": None, "json": False}),
        (["--n", "4", "--t", "-3", "--json", "x2"], {"n": 4, "monomial": "x2", "t": -3, "json": True}),
    ],
    "mc": [
        (["--n", "4", "x2"], {"n": 4, "monomial": "x2", "max_jumps": DEFAULT_MAX_JUMPS, "trace": False}),
        (["--n", "4", "--max-jumps", "-1", "--trace", "x2"],
         {"n": 4, "monomial": "x2", "max_jumps": -1, "trace": True}),
    ],
    "cost": [
        (["--n", "3", "x1", "x3"], {"n": 3, "lower": "x1", "upper": "x3", "max_jumps": DEFAULT_MAX_JUMPS,
                                    "trace": False}),
        (["x1", "--trace", "x3", "--n", "3", "--max-jumps", "12"],
         {"n": 3, "lower": "x1", "upper": "x3", "max_jumps": 12, "trace": True}),
    ],
    "pred": [
        (["--n", "3", "x3"], {"n": 3, "monomial": "x3", "steps": 1, "max_jumps": DEFAULT_MAX_JUMPS,
                              "trace": False}),
        (["--n", "3", "--steps", "4", "--max-jumps", "9", "--trace", "x3"],
         {"n": 3, "monomial": "x3", "steps": 4, "max_jumps": 9, "trace": True}),
    ],
    "sigma": [
        (["--n", "3", "x2"], {"n": 3, "monomial": "x2", "t": 1}),
        (["--n", "3", "--t", "5", "x2"], {"n": 3, "monomial": "x2", "t": 5}),
    ],
    "verify": [
        (["--suite", "walk"], {"suite": "walk"}),
        (["--suite", "oracle", "--n", "3", "--max-deg", "2", "--which", "tau5_x2", "--d", "1..2",
          "--count", "4", "--seed", "0"],
         {"suite": "oracle", "n": 3, "max_deg": 2, "which": "tau5_x2", "d": "1..2", "count": 4, "seed": 0}),
    ],
    "conjecture": [
        (["--n", "4", "--d", "0..2"], {"n": 4, "d": "0..2", "json": False, "cache": None,
                                       "max_jumps": DEFAULT_MAX_JUMPS}),
        (["--max-jumps", "9", "--n", "4", "--d", "3", "--json", "--cache", "c.jsonl"],
         {"n": 4, "d": "3", "json": True, "cache": "c.jsonl", "max_jumps": 9}),
    ],
}


def _subcommands():
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_subcommand_is_pinned():
    assert set(_subcommands()) == set(SURFACE) == set(PARSED)


@pytest.mark.parametrize("command", SURFACE)
def test_options_and_positionals(command):
    actions = _subcommands()[command]._actions
    assert {(tuple(a.option_strings) or a.dest, a.required) for a in actions} == SURFACE[command]
    assert len(actions) == len(SURFACE[command])


@pytest.mark.parametrize("command, argv, expected", [(c, a, e) for c, cases in PARSED.items() for a, e in cases])
def test_parsed_namespace(command, argv, expected):
    ns = vars(cli.build_parser().parse_args([command, *argv]))
    assert ns.pop("command") == command
    assert ns.pop("func").__name__ == "cmd_" + command.replace("-", "_")
    if command == "verify":
        # an option left out never reaches a suite, whether it parses as absent or as None
        ns = {k: v for k, v in ns.items() if v is not None}
    assert ns == expected


@pytest.mark.parametrize("argv", [["mg", "--n", "3"], ["cost", "--n", "3", "x1"], ["conjecture", "--n", "3"],
                                  ["verify"], ["tau", "x2"], ["verify", "--suite", "walk", "--which", "tau6"]])
def test_missing_or_bad_arguments_are_usage_errors(argv, capsys):
    # --which takes any name: verify.run, not argparse, refuses a law, so that argv returns
    if "--which" in argv:
        assert cli.main(argv) == cli.EXIT_USAGE
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, suite, options",
    [
        (["--suite", "walk"], "walk", {}),
        (["--suite", "walk", "--count", "5", "--seed", "0"], "walk", {"count": 5, "seed": 0}),
        (["--suite", "oracle", "--n", "3", "--max-deg", "2"], "oracle", {"n": 3, "max_deg": 2}),
        (["--suite", "formulas", "--which", "tau5", "--d", "2..4"], "formulas", {"which": "tau5", "d": (2, 4)}),
        (["--d", "3", "--suite", "formulas"], "formulas", {"d": (3, 3)}),
        (["--suite", "nosuch", "--n", "0", "--max-deg", "-1", "--which", "tau3", "--d", "5..5", "--count", "0",
          "--seed", "-2"],
         "nosuch", {"n": 0, "max_deg": -1, "which": "tau3", "d": (5, 5), "count": 0, "seed": -2}),
    ],
)
def test_verify_forwards_the_options_given(argv, suite, options, monkeypatch, capsys):
    calls = []

    def recorder(name, **given):
        calls.append((name, given))
        return {"suite": name, "checked": 1, "failures": 0}

    monkeypatch.setattr(verify, "run", recorder)
    assert cli.main(["verify", *argv]) == cli.EXIT_OK
    assert calls == [(suite, options)]
    assert json.loads(capsys.readouterr().out)["suite"] == suite
