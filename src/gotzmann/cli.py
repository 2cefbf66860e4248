"""Command line front end.

Query commands (tau, is-gotzmann, mg, mc, cost, pred, sigma) print single
exact values; verify runs one of the cross-check suites of verify.py, which
holds every check and every oracle the CLI reaches; conjecture scans
the growth of tau(x_2^d) with the ambient.  All arithmetic is exact, and JSON
output renders big integers as decimal strings so nothing is ever rounded by
a consumer.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap exceeded (Python's recursion and size limits included),
4 internal error (a broken invariant or exhausted memory), 141 stdout closed
by its reader before the output was written (the shell's code for SIGPIPE).

Threshold towers can be cached in an append-only JSONL file (--cache or the
GOTZ_CACHE environment variable) through cache.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, cache
from .combinatorics import CapExceeded
from .maxgen import mg_closed, mg_shifted
from .monomial import ParseError, _decimal, div, parse, sigma_pow, variable_power
from .paths import DEFAULT_MAX_JUMPS, TargetOvershoot, advance, cost_between, mc
from .threshold import _level, _scan, is_gotzmann, report_to_dict, tau, witness_to_dict

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that a closed pipe ended


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


def _towers(args, n: int, cores, trace=None) -> list:
    # the tower of each core, through the cache file that --cache or GOTZ_CACHE names
    def compute(core):
        return tau(core, n, max_jumps=args.max_jumps, trace=trace)

    return cache.reports(args.cache or os.environ.get("GOTZ_CACHE"), n, cores, compute, args.max_jumps)


def cmd_tau(args) -> int:
    n = args.n
    u = parse(args.monomial, n)
    core = div(u, variable_power(n, u.exps[n - 1], n))
    [top] = _towers(args, n, [core], _tracer(args))
    rep = _level(u.exps, top.f_at_tstar, top.h_at_tstar, top.k_at_tstar, top.sub_report)
    print(json.dumps(report_to_dict(rep), sort_keys=True) if args.json else _decimal(rep.tau))
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
        t = None if args.t is None else _decimal(args.t)
        print(json.dumps({"u": str(u), "t": t, "mg": str(result)}, sort_keys=True))
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

    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "suite")}
    if "d" in options:
        options["d"] = _parse_range(options["d"])
    summary = verify.run(args.suite, **options)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_VERIFY if summary["failures"] else EXIT_OK


def cmd_conjecture(args) -> int:
    lo, hi = _parse_range(args.d)
    # _scan asks for the towers once n and the d are checked, so a bad query touches no cache
    scan = _scan(args.n, range(lo, hi + 1), lambda cores: _towers(args, args.n, cores))
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
        out = {"n": scan.n, "conjectured_degree": scan.conjectured_degree, "rows": rows, "interpolation": interp}
        print(json.dumps(out, sort_keys=True))
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gotz",
        description="Exact Gotzmann thresholds for principal Borel-stable monomial ideals.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, parents, **kwargs) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=parents, **kwargs)
        sp.set_defaults(func=func)
        return sp

    # each option shared between subcommands is declared once, in a parent of its own
    n, monomial, as_json, cached, jumps, trace = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    n.add_argument("--n", type=int, required=True)
    monomial.add_argument("monomial")
    as_json.add_argument("--json", action="store_true", help="print JSON; big integers as decimal strings")
    cached.add_argument("--cache", help="JSONL report cache (default: $GOTZ_CACHE)")
    jumps.add_argument("--max-jumps", type=int, default=DEFAULT_MAX_JUMPS, help="cap on walk iterations before giving up")
    trace.add_argument("--trace", action="store_true", help="stream walk jumps to stderr as JSON lines")

    command("tau", cmd_tau, [n, monomial, as_json, cached, jumps, trace], help="threshold of a monomial")
    command("is-gotzmann", cmd_is_gotzmann, [n, monomial, as_json, jumps, trace], help="witness test for one monomial")
    sp = command("mg", cmd_mg, [n, monomial, as_json], help="gap form of a monomial")
    sp.add_argument("--t", type=int, default=None, help="shift by x_n^t first")
    command("mc", cmd_mc, [n, monomial, jumps, trace], help="cogap form of a monomial")
    sp = command("cost", cmd_cost, [n, jumps, trace], help="walk cost between two monomials")
    sp.add_argument("lower")
    sp.add_argument("upper")
    sp = command("pred", cmd_pred, [n, monomial, jumps, trace], help="iterated predecessor")
    sp.add_argument("--steps", type=int, default=1)
    sp = command("sigma", cmd_sigma, [n, monomial], help="iterated prefix-sum map")
    sp.add_argument("--t", type=int, default=1)

    # an option left out never reaches the namespace, so cmd_verify forwards only what was given
    sp = command("verify", cmd_verify, [], argument_default=argparse.SUPPRESS, help="run a cross-check suite")
    sp.add_argument("--suite", required=True, help="cross-check suite; an unknown name lists the valid ones")
    sp.add_argument("--n", type=int)
    sp.add_argument("--max-deg", type=int)
    sp.add_argument("--which", help="closed law for the formulas suite; an unknown name lists the valid ones")
    sp.add_argument("--d", help="range lo..hi for the tau5 law")
    sp.add_argument("--count", type=int, help="cases for the walk suite")
    sp.add_argument("--seed", type=int)

    sp = command("conjecture", cmd_conjecture, [n, as_json, cached, jumps], help="scan tau(x_2^d) growth")
    sp.add_argument("--d", required=True, help="range lo..hi of exponents")

    return p


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # integers of any size render and parse in full (python/cpython#95778)
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe early shows here, not at exit
        return code
    except BrokenPipeError:
        # no more output can reach the reader; point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except TargetOvershoot as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RecursionError, OverflowError) as exc:
        # Python's own limits: a tower nests one call per variable, in tau and in what reads its
        # reports, and a list of the n exponents or of the d values must fit an index
        why = f"nests deeper than Python's recursion limit ({sys.getrecursionlimit()})"
        if isinstance(exc, OverflowError):
            why = f"counts past Python's size limit for a list or an index ({exc})"
        print(f"error: the computation {why}", file=sys.stderr)
        return EXIT_CAP
    except (RuntimeError, MemoryError) as exc:
        # after CapExceeded, TargetOvershoot and RecursionError, which are RuntimeErrors too
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
