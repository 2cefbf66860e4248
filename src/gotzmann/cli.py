"""Command line front end.

Query commands (tau, is-gotzmann, mg, mc, cost, pred, sigma) print single
exact values; verify runs one of the cross-check suites of verify.py, which
holds every check and every oracle the CLI reaches; conjecture scans
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
reproduces it byte for byte and, at each level below the top whose threshold
is 0, the walk (find_z at that level's t*) gives back the stored h and k;
any other entry counts as a miss, so the report is computed again and
appended.  These checks catch a malformed or singly edited entry, not a
forged one: the top level's h, k and tau are re-derived from each other, not
walked, so a line whose top level has h + 1, delta - 1 and tau - 1 (or k + 1
and tau - 1) still replays its wrong tau.  Only trusted files belong in the
cache.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .combinatorics import CapExceeded
from .maxgen import mg_closed, mg_shifted
from .monomial import Monomial, ParseError, deg_in, div, parse, sigma_pow, truncate, variable_power
from .paths import DEFAULT_MAX_JUMPS, TargetOvershoot, advance, cost_between, find_z, mc
from .threshold import (ThresholdReport, _level, _scan, is_gotzmann, report_from_dict,
                        report_to_dict, tau, witness_to_dict)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

_VERIFY_OPTIONS = ("n", "max_deg", "which", "d", "count", "seed")


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


def _replays(rep, core: Monomial, max_jumps: int = DEFAULT_MAX_JUMPS) -> ThresholdReport | None:
    """The tower of core that a stored report describes, or None if it is not one.

    Rebuilding it from its f, h and k must give it back byte for byte.  Below
    the top, a level whose threshold is 0 may be clamped there by the
    split-off power of x_n, which hides its h and k from the levels above, so
    that level's walk is run again and must give both.
    """
    try:
        rebuilt = report_from_dict(rep, core)
        if json.dumps(report_to_dict(rebuilt), sort_keys=True) != json.dumps(rep, sort_keys=True):
            return None
        level = rebuilt.sub_report
        while level is not None and level.n > 2:
            if level.tau == 0:
                z, state = find_z(truncate(level.u0, level.n - 1), level.n, level.t_star, max_jumps=max_jumps)
                if (level.h_at_tstar, level.k_at_tstar) != (deg_in(state.cost, level.n), deg_in(z, level.n)):
                    return None
            level = level.sub_report
    except (LookupError, TypeError, ValueError, ArithmeticError, RuntimeError):
        # not a tower: missing keys, wrong types, bad digits, a broken invariant
        # or a walk that cannot run (CapExceeded and TargetOvershoot are RuntimeErrors)
        return None
    return rebuilt


def _load_cache(path: str, n: int, cores: dict, max_jumps: int) -> dict:
    """The cached towers of the given cores (keyed by string) that replay, rebuilt; later lines win.

    Only lines whose last '"u0": ' (sort_keys puts the top-level one after "report")
    holds json.dumps(core) for a requested core are parsed; the rest can only miss.
    """
    wanted = {json.dumps(key) for key in cores}
    entries = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return entries
    with fh:
        for line in fh:
            at = line.rfind('"u0": ') + 6
            if at < 6 or line[at : line.find('"', at + 1) + 1] not in wanted:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict) or obj.get("version") != __version__:
                continue
            u0_str, rep = obj.get("u0"), obj.get("report")
            if obj.get("n") == n and isinstance(u0_str, str) and u0_str in cores:
                rebuilt = _replays(rep, cores[u0_str], max_jumps)
                if rebuilt is not None:
                    entries[u0_str] = rebuilt
    return entries


def _core_reports(args, n: int, cores, compute) -> list[ThresholdReport]:
    """The report tower of each x_n-free core, in the order of cores.

    With a cache path (--cache or GOTZ_CACHE), a core whose stored tower
    replays is served from the cache; every other core gets compute(core),
    whose report_to_dict is appended to the cache.
    """
    path = args.cache or os.environ.get("GOTZ_CACHE")
    by_str = {str(core): core for core in cores}
    reports = _load_cache(path, n, by_str, args.max_jumps) if path else {}
    for key, core in by_str.items():
        if key not in reports:
            reports[key] = compute(core)
            if path:
                entry = {"version": __version__, "n": n, "u0": key, "report": report_to_dict(reports[key])}
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return [reports[key] for key in by_str]


def cmd_tau(args) -> int:
    n = args.n
    u = parse(args.monomial, n)
    core = div(u, variable_power(n, u.exps[n - 1], n))
    [top] = _core_reports(args, n, [core], lambda c: tau(c, n, max_jumps=args.max_jumps, trace=_tracer(args)))
    rep = _level(u, top.f_at_tstar, top.h_at_tstar, top.k_at_tstar, top.sub_report)
    print(json.dumps(report_to_dict(rep), sort_keys=True) if args.json else rep.tau)
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


def cmd_verify(args) -> int:
    # imported here, not at the top, so that no other command pays for the suites
    from . import verify

    options = {k: v for k, v in vars(args).items() if k in _VERIFY_OPTIONS and v is not None}
    if "d" in options:
        options["d"] = _parse_range(options["d"])
    summary = verify.run(args.suite, **options)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_VERIFY if summary["failures"] else EXIT_OK


def cmd_conjecture(args) -> int:
    lo, hi = _parse_range(args.d)

    def towers(cores):
        # called by _scan once n and the d are checked, so a bad query touches no cache
        return _core_reports(args, args.n, cores, lambda core: tau(core, args.n, max_jumps=args.max_jumps))

    scan = _scan(args.n, range(lo, hi + 1), towers)
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
    sp.add_argument("--suite", required=True, help="cross-check suite; an unknown name lists the valid ones")
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
