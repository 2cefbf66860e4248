"""Command line front end.

Query commands (tau, is-gotzmann, mg, mc, cost, pred, sigma) print single
exact values; verify runs self-contained cross-check suites; conjecture scans
the growth of tau(x_2^d) with the ambient.  All arithmetic is exact, and JSON
output renders big integers as decimal strings so nothing is ever rounded by
a consumer.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap exceeded, 4 internal error (a broken invariant or exhausted
memory).

Threshold reports can be cached in an append-only JSONL file (--cache or the
GOTZ_CACHE environment variable), keyed by package version, ambient and the
x_n-free core; entries from other versions are ignored.  An entry is replayed
only if rebuilding its tower from the stored f, h and k (report_from_dict)
reproduces it byte for byte; any other entry counts as a miss, so the report
is computed again and appended.  Below the top level, a k whose level
threshold is lowered to 0 by the split-off power of x_n cannot be re-derived
without the walk, so it is replayed as stored.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .combinatorics import CapExceeded, enumerate_monomials, lex_rank
from .maxgen import maxgen_of_set, mg_closed, mg_oracle, mg_shifted
from .monomial import Monomial, ParseError, div, parse, sigma, sigma_pow, variable_power
from .paths import (
    DEFAULT_MAX_JUMPS,
    TargetOvershoot,
    advance,
    cost_between,
    find_z,
    mc,
)
from .threshold import (
    conjecture_scan,
    is_gotzmann,
    is_gotzmann_oracle,
    report_from_dict,
    report_to_dict,
    tau,
    tau_formula,
    tau_oracle,
    witness_to_dict,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _tracer(args) -> None:
    if not getattr(args, "trace", False):
        return None
    return lambda rec: print(json.dumps(rec, sort_keys=True), file=sys.stderr)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ParseError(f"bad range {text!r}; expected lo..hi") from None
    if lo > hi:
        raise ParseError(f"empty range {text!r}")
    return lo, hi


def _replays(rep, core: Monomial) -> bool:
    """Whether rebuilding a stored tower from its f, h and k gives it back byte for byte."""
    try:
        rebuilt = report_from_dict(rep, core)
    except (LookupError, TypeError, ValueError, ArithmeticError, RuntimeError):
        # not a tower: missing keys, wrong types, bad digits or a broken invariant
        return False
    return json.dumps(report_to_dict(rebuilt), sort_keys=True) == json.dumps(rep, sort_keys=True)


def _load_cache(path: str, n: int, cores: dict) -> dict:
    """The cached towers of the given cores (keyed by string) that replay; later lines win."""
    entries = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return entries
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict) or obj.get("version") != __version__:
                continue
            u0_str, rep = obj.get("u0"), obj.get("report")
            if obj.get("n") == n and isinstance(u0_str, str) and u0_str in cores:
                if _replays(rep, cores[u0_str]):
                    entries[u0_str] = rep
    return entries


def _core_reports(args, n: int, cores, compute) -> dict:
    """The report dict of each x_n-free core, by core string.

    With a cache path (--cache or GOTZ_CACHE), a core whose stored tower
    replays is served from the cache; every other core gets report_to_dict of
    compute(core), appended to the cache.
    """
    path = args.cache or os.environ.get("GOTZ_CACHE")
    by_str = {str(core): core for core in cores}
    reports = _load_cache(path, n, by_str) if path else {}
    for key, core in by_str.items():
        if key not in reports:
            reports[key] = report_to_dict(compute(core))
            if path:
                entry = {"version": __version__, "n": n, "u0": key, "report": reports[key]}
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return reports


def cmd_tau(args) -> int:
    n = args.n
    u = parse(args.monomial, n)
    core = div(u, variable_power(n, u.exps[n - 1], n))
    stored = _core_reports(
        args, n, [core], lambda c: tau(c, n, max_jumps=args.max_jumps, trace=_tracer(args))
    )
    rep = report_to_dict(report_from_dict(stored[str(core)], u))
    print(json.dumps(rep, sort_keys=True) if args.json else rep["tau"])
    return EXIT_OK


def cmd_is_gotzmann(args) -> int:
    u = parse(args.monomial, args.n)
    w = is_gotzmann(u, max_jumps=args.max_jumps, trace=_tracer(args))
    if args.json:
        print(json.dumps(witness_to_dict(w), sort_keys=True))
    else:
        print("true" if w.is_gotzmann else "false")
    return EXIT_OK


def cmd_mg(args) -> int:
    u = parse(args.monomial, args.n)
    result = mg_shifted(u, args.t) if args.t is not None else mg_closed(u)
    if args.json:
        print(json.dumps({"u": str(u), "t": args.t, "mg": str(result)}, sort_keys=True))
    else:
        print(result)
    return EXIT_OK


def cmd_mc(args) -> int:
    u = parse(args.monomial, args.n)
    print(mc(u, max_jumps=args.max_jumps, trace=_tracer(args)))
    return EXIT_OK


def cmd_cost(args) -> int:
    u = parse(args.lower, args.n)
    v = parse(args.upper, args.n)
    print(cost_between(u, v, max_jumps=args.max_jumps, trace=_tracer(args)))
    return EXIT_OK


def cmd_pred(args) -> int:
    u = parse(args.monomial, args.n)
    if args.steps < 0:
        raise ParseError("--steps must be nonnegative")
    st = advance(u, args.steps, max_jumps=args.max_jumps, trace=_tracer(args))
    print(st.current)
    return EXIT_OK


def cmd_sigma(args) -> int:
    u = parse(args.monomial, args.n)
    if args.t < 0:
        raise ParseError("--t must be nonnegative")
    print(sigma_pow(u, args.t))
    return EXIT_OK


def _suite_oracle(args):
    ns = [args.n] if args.n is not None else [3, 4]
    max_deg = args.max_deg if args.max_deg is not None else 4
    if max_deg < 0:
        raise ParseError("--max-deg must be nonnegative")
    checked = 0
    failures = []
    for n in ns:
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


def _suite_formulas(args):
    which = [args.which] if args.which is not None else ["tau3", "tau4", "tau5"]
    lo, hi = _parse_range(args.d) if args.d is not None else (2, 8)
    checked = 0
    failures = []
    if "tau3" in which:
        for a in range(3):
            for b in range(13):
                checked += 1
                got = tau(Monomial(3, (a, b, 0)), 3).tau
                if got != tau_formula("tau3", b=b, a=a):
                    failures.append(f"tau3 at a={a}, b={b}: {got}")
    if "tau4" in which:
        for b in range(7):
            for c in range(7):
                checked += 1
                got = tau(Monomial(4, (0, b, c, 0)), 4).tau
                if got != tau_formula("tau4", b=b, c=c):
                    failures.append(f"tau4 at b={b}, c={c}: {got}")
    if "tau5" in which or "tau5_x2" in which:
        for d in range(lo, hi + 1):
            checked += 1
            got = tau(Monomial(5, (0, d, 0, 0, 0)), 5).tau
            if got != tau_formula("tau5_x2", d=d):
                failures.append(f"tau5_x2 at d={d}: {got}")
    return checked, failures


def _suite_walk(args):
    count = args.count if args.count is not None else 200
    if count < 0:
        raise ParseError("--count must be nonnegative")
    rng = random.Random(args.seed if args.seed is not None else 20260814)
    checked = 0
    failures = []
    for _ in range(count):
        n = rng.randint(2, 6)
        exps = [rng.randint(0, 4) for _ in range(n)]
        if not any(exps):
            exps[-1] = rng.randint(1, 4)
        u = Monomial(n, tuple(exps))
        budget = rng.randint(0, min(10_000, lex_rank(u) - 1))
        fast = advance(u, budget, engine="block")
        slow = advance(u, budget, engine="elementary")
        checked += 1
        if (fast.current, fast.cost, fast.steps) != (slow.current, slow.cost, slow.steps):
            failures.append(f"engines disagree from {u} after {budget} steps")
    return checked, failures


def _suite_reference(args):
    checks = []

    def chk(desc: str, ok: bool) -> None:
        checks.append((desc, bool(ok)))

    def M(text: str, n: int) -> Monomial:
        return parse(text, n)

    from .combinatorics import binom, borel_enumerate, lexinterval

    slice32 = enumerate_monomials(3, 2)
    chk("slice listing", [str(u) for u in slice32] == ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"])
    chk("maxgen of the full slice", str(maxgen_of_set(slice32)) == "x1*x2^2*x3^3")
    chk("closure of x2^2", [str(u) for u in borel_enumerate(M("x2^2", 3))] == ["x1^2", "x1*x2", "x2^2"])
    chk("rank of x2*x3", lex_rank(M("x2*x3", 3)) == 5)
    chk("prefix-sum map", str(sigma(M("x2", 5))) == "x2*x3*x4*x5")
    chk("prefix-sum map 2", str(sigma(M("x2^2*x3^5", 4))) == "x2^2*x3^7*x4^7")
    chk("iterated prefix-sum", str(sigma_pow(M("x2", 4), 2)) == "x2*x3^2*x4^3")
    chk("predecessor", str(advance(M("x2^2*x4*x5", 5), 1).current) == "x2^2*x4^2")
    got_interval = [str(u) for u in lexinterval(M("x2^2*x3*x4", 5), M("x2^2*x4*x5", 5))]
    chk("interval", got_interval == ["x2^2*x3*x5", "x2^2*x4^2", "x2^2*x4*x5"])
    chk("walk cost", str(cost_between(M("x2^2*x4*x5", 5), M("x2^2*x3*x4", 5))) == "x4*x5^2")
    chk("gap form", str(mg_closed(M("x2^2*x4", 5))) == "x3*x4^2*x5^5")
    chk("gap form of x2^3", str(mg_closed(M("x2^3", 5))) == "x3^3*x4^4*x5^5")
    from .maxgen import f_poly_eval
    ok_f = all(
        f_poly_eval(M("x2^2*x4", 4), 5, t) == binom(t + 1, 2) + 2 * t + 5
        for t in range(13)
    )
    chk("f polynomial", ok_f)
    ok_z = True
    for t in range(1, 7):
        z, st = find_z(M("x2^2*x4", 4), 5, t)
        ok_z = ok_z and z == Monomial(5, (0, 3, 1, 0, t - 1))
        ok_z = ok_z and st.cost.exps[4] == binom(t + 3, 2) - 3
    chk("first-hit walk", ok_z)
    try:
        find_z(M("x2^2", 3), 4, 0)
        chk("first-hit nonexistence", False)
    except TargetOvershoot:
        chk("first-hit nonexistence", True)
    chk("threshold worked example", tau(M("x2^2*x4", 5), 5).tau == 6)
    chk("threshold drop under shift", tau(M("x2^2*x4*x5^2", 5), 5).tau == 4)
    chk("threshold of x2^2 in four", tau(M("x2^2", 4), 4).tau == 2)
    chk("three-variable law", all(tau(Monomial(3, (0, b, 0)), 3).tau == binom(b, 2) for b in range(9)))
    chk("two variables always pass", all(is_gotzmann(u).is_gotzmann for d in range(6) for u in enumerate_monomials(2, d)))
    chk("witness true at 6", is_gotzmann(M("x2^2*x4*x5^6", 5)).is_gotzmann)
    chk("witness false at 5", not is_gotzmann(M("x2^2*x4*x5^5", 5)).is_gotzmann)
    chk("four-variable law sample", tau_formula("tau4", b=3, c=0) == 10 and tau(M("x2^3", 4), 4).tau == 10)
    chk("five-variable law sample", tau_formula("tau5_x2", d=2) == 4 and tau(M("x2^2", 5), 5).tau == 4)

    failures = [desc for desc, ok in checks if not ok]
    return len(checks), failures


_SUITES = {
    "oracle": _suite_oracle,
    "formulas": _suite_formulas,
    "walk": _suite_walk,
    "paper-examples": _suite_reference,
}


def cmd_verify(args) -> int:
    checked, failures = _SUITES[args.suite](args)
    summary = {"suite": args.suite, "checked": checked, "failures": len(failures)}
    if failures:
        summary["examples"] = failures[:10]
    print(json.dumps(summary, sort_keys=True))
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_conjecture(args) -> int:
    lo, hi = _parse_range(args.d)
    scan = conjecture_scan(args.n, range(lo, hi + 1), max_jumps=args.max_jumps)
    computed = {row.report.u0: row.report for row in scan.rows}
    _core_reports(args, args.n, computed, computed.__getitem__)
    if args.json:
        rows = []
        for r in scan.rows:
            rows.append(
                {
                    "d": r.d,
                    "tau_n": str(r.tau_n),
                    "tau_prev": str(r.tau_prev),
                    "ratio_num": str(r.ratio.numerator) if r.ratio is not None else None,
                    "ratio_den": str(r.ratio.denominator) if r.ratio is not None else None,
                    "ratio_approx": float(r.ratio) if r.ratio is not None else None,
                }
            )
        interp = None
        if scan.interp_coeffs is not None:
            interp = {
                "degree": len(scan.interp_coeffs) - 1,
                "coeffs_num": [str(c.numerator) for c in scan.interp_coeffs],
                "coeffs_den": [str(c.denominator) for c in scan.interp_coeffs],
                "matches_conjectured_degree": scan.degree_match,
            }
        print(
            json.dumps(
                {
                    "n": scan.n,
                    "conjectured_degree": scan.conjectured_degree,
                    "rows": rows,
                    "interpolation": interp,
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    head = ["d", f"tau_{scan.n}", f"tau_{scan.n - 1}", "ratio", "approx"]
    table = [head]
    for r in scan.rows:
        ratio = f"{r.ratio.numerator}/{r.ratio.denominator}" if r.ratio is not None else "-"
        approx = f"{float(r.ratio):.6f}" if r.ratio is not None else "-"
        table.append([str(r.d), str(r.tau_n), str(r.tau_prev), ratio, approx])
    widths = [max(len(row[i]) for row in table) for i in range(len(head))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if scan.interp_coeffs is not None:
        degree = len(scan.interp_coeffs) - 1
        line = f"interpolated degree {degree} from {len(scan.rows)} points (conjectured {scan.conjectured_degree}"
        if scan.degree_match is None:
            need = scan.conjectured_degree + 2
            line += f"; {need} points needed to certify)"
        else:
            line += "; match)" if scan.degree_match else "; MISMATCH)"
        print(line)
    return EXIT_OK


def _add_walk_options(sp) -> None:
    sp.add_argument("--max-jumps", type=int, default=DEFAULT_MAX_JUMPS,
                    help="cap on walk iterations before giving up")
    sp.add_argument("--trace", action="store_true",
                    help="stream walk jumps to stderr as JSON lines")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gotz",
        description="Exact Gotzmann thresholds for principal Borel-stable monomial ideals.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tau", help="threshold of a monomial")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("monomial")
    sp.add_argument("--json", action="store_true", help="print the full report tower")
    sp.add_argument("--cache", help="JSONL report cache (default: $GOTZ_CACHE)")
    _add_walk_options(sp)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("is-gotzmann", help="witness test for one monomial")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("monomial")
    sp.add_argument("--json", action="store_true")
    _add_walk_options(sp)
    sp.set_defaults(func=cmd_is_gotzmann)

    sp = sub.add_parser("mg", help="gap form of a monomial")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("monomial")
    sp.add_argument("--t", type=int, default=None, help="shift by x_n^t first")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_mg)

    sp = sub.add_parser("mc", help="cogap form of a monomial")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("monomial")
    _add_walk_options(sp)
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("cost", help="walk cost between two monomials")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("lower")
    sp.add_argument("upper")
    _add_walk_options(sp)
    sp.set_defaults(func=cmd_cost)

    sp = sub.add_parser("pred", help="iterated predecessor")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("monomial")
    sp.add_argument("--steps", type=int, default=1)
    _add_walk_options(sp)
    sp.set_defaults(func=cmd_pred)

    sp = sub.add_parser("sigma", help="iterated prefix-sum map")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("monomial")
    sp.add_argument("--t", type=int, default=1)
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("verify", help="run a cross-check suite")
    sp.add_argument("--suite", required=True, choices=sorted(_SUITES))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--max-deg", type=int, default=None)
    sp.add_argument("--which", choices=["tau3", "tau4", "tau5", "tau5_x2"], default=None)
    sp.add_argument("--d", default=None, help="range lo..hi for the tau5 law")
    sp.add_argument("--count", type=int, default=None, help="cases for the walk suite")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("conjecture", help="scan tau(x_2^d) growth")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", required=True, help="range lo..hi of exponents")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--cache", help="JSONL report cache (default: $GOTZ_CACHE)")
    sp.add_argument("--max-jumps", type=int, default=DEFAULT_MAX_JUMPS)
    sp.set_defaults(func=cmd_conjecture)

    return p


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # integers of any size render and parse in full (python/cpython#95778)
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except TargetOvershoot as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:
        # after CapExceeded and TargetOvershoot, which are RuntimeErrors too
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
