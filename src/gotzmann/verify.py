"""Cross-check suites: every fast path against its referee.

Each suite returns (checked, failures): how many comparisons it made and a
description of each one that disagreed.  The referees are the enumeration
oracles, the step-by-step walk, the known closed laws and the paper's worked
examples.  run() binds keyword options to one suite and builds the summary
that `gotz verify` prints; it is also the library entry point:

    run("walk", count=25, seed=7)   # {"suite": "walk", "checked": 25, "failures": 0}
"""

from __future__ import annotations

import inspect
import random

from .combinatorics import binom, borel_enumerate, enumerate_monomials, lex_rank, lexinterval
from .maxgen import maxgen_of_set, mg_closed, mg_oracle, target_decompose
from .monomial import Monomial, ParseError, parse, sigma, sigma_pow
from .paths import TargetOvershoot, advance, advance_oracle, cost_between, find_z
from .threshold import is_gotzmann, is_gotzmann_oracle, tau, tau_formula, tau_oracle


def oracle(n: int | None = None, max_deg: int = 4) -> tuple[int, list[str]]:
    """Verdicts, gap forms and thresholds against enumeration up to degree
    max_deg, at ambient n (3 and 4 when None)."""
    checked = 0
    failures = []
    for n in [3, 4] if n is None else [n]:
        if n < 3:
            raise ParseError("the oracle suite needs n >= 3")
        for d in range(max_deg + 1):
            for u in enumerate_monomials(n, d):
                checked += 2
                if is_gotzmann(u).is_gotzmann != is_gotzmann_oracle(u):
                    failures.append(f"verdict mismatch at {u} (n={n})")
                if mg_closed(u) != mg_oracle(u):
                    failures.append(f"mg mismatch at {u} (n={n})")
        for d in range(max_deg + 1):
            for u0 in enumerate_monomials(n - 1, d):
                cand = Monomial(n, u0.exps + (0,))
                checked += 1
                if tau(cand, n).tau != tau_oracle(cand, n):
                    failures.append(f"tau mismatch at {cand} (n={n})")
    return checked, failures


# each closed law of threshold._FORMULAS: given the tau5 range d, its cases, each one the law's
# arguments, in the order its failure text names them, and the core whose threshold they give
LAWS = {
    "tau3": lambda d: [({"a": a, "b": b}, Monomial(3, (a, b, 0))) for a in range(3) for b in range(13)],
    "tau4": lambda d: [({"b": b, "c": c}, Monomial(4, (0, b, c, 0))) for b in range(7) for c in range(7)],
    "tau5_x2": lambda d: [({"d": e}, Monomial(5, (0, e, 0, 0, 0))) for e in range(d[0], d[1] + 1)],
    "tau_x2": lambda d: [({"n": n, "d": e}, Monomial(n, (0, e) + (0,) * (n - 2))) for n in range(3, 13) for e in range(8)],
}


def formulas(which: str | None = None, d: tuple[int, int] | None = None) -> tuple[int, list[str]]:
    """Thresholds against the closed laws of LAWS, tau5 an alias of tau5_x2,
    over exponents d = (lo, hi), (2, 8) when None; every law when which is None.
    Only tau5 reads d, so d with another law is a ParseError, and so are an
    unknown law and lo > hi, which would check no tau5 point."""
    law = {"tau5": "tau5_x2"}.get(which, which)
    if law not in (None, *LAWS):
        raise ParseError(f"unknown law {which!r}; have {', '.join(sorted(LAWS))}, and tau5 for tau5_x2")
    if d is not None and law not in (None, "tau5_x2"):
        raise ParseError(f"the {which} law takes no option d; only tau5 does")
    if d is not None and d[0] > d[1]:
        raise ParseError(f"empty range '{d[0]}..{d[1]}'")  # the wording of the CLI's --d
    laws = LAWS if law is None else [law]
    cases = [(name, args, core) for name in laws for args, core in LAWS[name](d or (2, 8))]
    failures = []
    for name, args, core in cases:
        got = tau(core, core.n).tau
        if got != tau_formula(name, **args):
            failures.append(f"{name} at {', '.join(f'{k}={v}' for k, v in args.items())}: {got}")
    return len(cases), failures


def walk(count: int = 200, seed: int = 20260814) -> tuple[int, list[str]]:
    """Block walks against step-by-step walks from count random origins."""
    rng = random.Random(seed)
    checked = 0
    failures = []
    for _ in range(count):
        n = rng.randint(2, 6)
        exps = [rng.randint(0, 4) for _ in range(n)]
        if not any(exps):
            exps[-1] = rng.randint(1, 4)
        u = Monomial(n, tuple(exps))
        budget = rng.randint(0, min(10_000, lex_rank(u) - 1))
        fast = advance(u, budget)
        slow = advance_oracle(u, budget)
        checked += 1
        if (fast.current, fast.cost, fast.steps) != (slow.current, slow.cost, slow.steps):
            failures.append(f"engines disagree from {u} after {budget} steps")
    return checked, failures


def _first_hit_missing() -> bool:
    try:
        find_z(parse("x2^2", 3), 4, 0)
    except TargetOvershoot:
        return True
    return False


def paper_examples() -> tuple[int, list[str]]:
    """The paper's worked examples and small closed laws, one check each."""
    slice32 = enumerate_monomials(3, 2)
    interval = lexinterval(parse("x2^2*x3*x4", 5), parse("x2^2*x4*x5", 5))
    hits = [find_z(parse("x2^2*x4", 4), 5, t) for t in range(1, 7)]  # z = x2^3*x3*x5^(t-1)
    checks = [
        ("slice listing", [str(u) for u in slice32] == ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]),
        ("maxgen of the full slice", str(maxgen_of_set(slice32)) == "x1*x2^2*x3^3"),
        ("closure of x2^2", [str(u) for u in borel_enumerate(parse("x2^2", 3))] == ["x1^2", "x1*x2", "x2^2"]),
        ("rank of x2*x3", lex_rank(parse("x2*x3", 3)) == 5),
        ("prefix-sum map", str(sigma(parse("x2", 5))) == "x2*x3*x4*x5"),
        ("prefix-sum map 2", str(sigma(parse("x2^2*x3^5", 4))) == "x2^2*x3^7*x4^7"),
        ("iterated prefix-sum", str(sigma_pow(parse("x2", 4), 2)) == "x2*x3^2*x4^3"),
        ("predecessor", str(advance(parse("x2^2*x4*x5", 5), 1).current) == "x2^2*x4^2"),
        ("interval", [str(u) for u in interval] == ["x2^2*x3*x5", "x2^2*x4^2", "x2^2*x4*x5"]),
        ("walk cost", str(cost_between(parse("x2^2*x4*x5", 5), parse("x2^2*x3*x4", 5))) == "x4*x5^2"),
        ("gap form", str(mg_closed(parse("x2^2*x4", 5))) == "x3*x4^2*x5^5"),
        ("gap form of x2^3", str(mg_closed(parse("x2^3", 5))) == "x3^3*x4^4*x5^5"),
        ("f polynomial", all(target_decompose(parse("x2^2*x4", 4), 5, t).xn_exp == binom(t + 1, 2) + 2 * t + 5 for t in range(13))),
        ("first-hit walk", all(
            z == Monomial(5, (0, 3, 1, 0, t - 1)) and st.cost.exps[4] == binom(t + 3, 2) - 3
            for t, (z, st) in enumerate(hits, 1)
        )),
        ("first-hit nonexistence", _first_hit_missing()),
        ("threshold worked example", tau(parse("x2^2*x4", 5), 5).tau == 6),
        ("threshold drop under shift", tau(parse("x2^2*x4*x5^2", 5), 5).tau == 4),
        ("threshold of x2^2 in four", tau(parse("x2^2", 4), 4).tau == 2),
        ("three-variable law", all(tau(Monomial(3, (0, b, 0)), 3).tau == binom(b, 2) for b in range(9))),
        ("two variables always pass", all(is_gotzmann(u).is_gotzmann for d in range(6) for u in enumerate_monomials(2, d))),
        ("witness true at 6", is_gotzmann(parse("x2^2*x4*x5^6", 5)).is_gotzmann),
        ("witness false at 5", not is_gotzmann(parse("x2^2*x4*x5^5", 5)).is_gotzmann),
        ("four-variable law sample", tau_formula("tau4", b=3, c=0) == 10 and tau(parse("x2^3", 4), 4).tau == 10),
        ("five-variable law sample", tau_formula("tau5_x2", d=2) == 4 and tau(parse("x2^2", 5), 5).tau == 4),
    ]
    return len(checks), [desc for desc, ok in checks if not ok]


SUITES = {"oracle": oracle, "formulas": formulas, "walk": walk, "paper-examples": paper_examples}


def run(suite: str, **options) -> dict:
    """Run one suite: {"suite", "checked", "failures"}, plus up to ten
    "examples" of what failed.

    An unknown suite, an option the suite does not read, or options that
    leave it nothing to check, raise ParseError.
    """
    if suite not in SUITES:
        raise ParseError(f"unknown suite {suite!r}; have {', '.join(sorted(SUITES))}")
    fn = SUITES[suite]
    unread = sorted(set(options) - set(inspect.signature(fn).parameters))
    if unread:
        raise ParseError(f"the {suite} suite takes no option {', '.join(unread)}")
    checked, failures = fn(**options)
    if checked == 0:
        raise ParseError(f"the {suite} suite would check nothing with these options")
    summary = {"suite": suite, "checked": checked, "failures": len(failures)}
    if failures:
        summary["examples"] = failures[:10]
    return summary
