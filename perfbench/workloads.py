"""The four workloads: seeded op lists built from the certified reference pools.

Every op is a call into the public API (or one `gotz` invocation) plus the
answer it must give.  The run seed only chooses which pool entries a run uses
and in what order; pick_balanced and pick_per_class keep the chosen entries'
costs alike across seeds, so that the run-to-run spread measures the
program, not the draw.  Pool costs come from reference.json and are never used to check.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gotzmann
from gotzmann.monomial import Monomial, parse

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Op:
    """One unit of client work and the answer it must produce."""

    label: str
    call: Callable[["Context"], Any]
    expect: Any
    tag: str = ""  # "D" and "4D" mark the pair behind threshold.tau.exp_scaling
    known_failure: str = ""  # why this op is known to fail, if it is


@dataclass
class Context:
    """What an op needs at call time: the jump callback and the CLI runner."""

    trace: Callable[[dict], None] | None
    cli: Callable[[list[str]], str]  # argv -> stdout; raises on a nonzero exit
    work_dir: Path


@dataclass
class Workload:
    name: str
    ops: list[Op]
    before_pass: Callable[[Context], None] = lambda ctx: None
    spawns: bool = False  # every op is a gotz process rather than an in-process call


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def pick_balanced(pool: list[dict], k: int, rng: random.Random, tol: float = 0.01) -> list[dict]:
    """k entries, one from each of k cost strata of the pool, of near-mean total cost.

    One entry per stratum keeps every order statistic of the chosen costs,
    the median and the tail included, close to the pool's.  Within a
    stratum only entries within 10% of its median cost are eligible, which
    matters in the wide top stratum of a heavy-tailed pool.  Among such
    draws the first whose total lies within tol of the expected total is
    taken.
    """
    ranked = sorted(pool, key=lambda e: e["cost_s"])
    strata = []
    for i in range(k):
        stratum = ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k]
        mid = stratum[len(stratum) // 2]["cost_s"]
        strata.append([e for e in stratum if abs(e["cost_s"] - mid) <= 0.1 * mid])
    target = sum(s[len(s) // 2]["cost_s"] for s in strata)
    best, best_gap = None, None
    for _ in range(5000):
        sel = [rng.choice(s) for s in strata]
        gap = abs(sum(e["cost_s"] for e in sel) - target)
        if best is None or gap < best_gap:
            best, best_gap = sel, gap
        if gap <= tol * target:
            break
    return best


def pick_per_class(pool: list[dict], size: Callable[[dict], int], step: int, rng: random.Random) -> list[dict]:
    """One entry from each size class, a class being the nearest multiple of step."""
    classes: dict[int, list[dict]] = {}
    for e in pool:
        classes.setdefault(round(size(e) / step), []).append(e)
    return [rng.choice(classes[c]) for c in sorted(classes)]


def _mono(entry: dict) -> Monomial:
    return Monomial(entry["n"], tuple(entry["exps"]))


def _shifted(u0: Monomial, t: int) -> Monomial:
    return Monomial(u0.n, u0.exps[:-1] + (t,))


def tau_op(u0: Monomial, value: int, tag: str = "") -> Op:
    return Op(f"tau {u0} n={u0.n}", lambda ctx: gotzmann.tau(u0, u0.n, trace=ctx.trace).tau, value, tag)


def witness_op(u: Monomial, verdict: bool) -> Op:
    return Op(f"is_gotzmann {u}", lambda ctx: gotzmann.is_gotzmann(u, trace=ctx.trace).is_gotzmann, verdict)


def build_tau_deep(ref: dict, rng: random.Random) -> Workload:
    entries = list(ref["grid"]) + pick_balanced(ref["general"], 14, rng)
    rng.shuffle(entries)
    return Workload("tau_deep", [tau_op(_mono(e), int(e["tau"], 16)) for e in entries])


def build_tau_bigexp(ref: dict, rng: random.Random) -> Workload:
    ops = []
    (pw,) = pick_balanced(ref["x2_power"], 1, rng)
    d = pw["d"]
    ops.append(tau_op(Monomial(5, (0, d, 0, 0, 0)), int(pw["tau_d"], 16), tag="D"))
    ops.append(tau_op(Monomial(5, (0, 4 * d, 0, 0, 0)), int(pw["tau_4d"], 16), tag="4D"))
    for e in pick_per_class(ref["two_runs"], lambda e: sum(e["exps"]), 4000, rng):
        ops.append(tau_op(_mono(e), int(e["tau"], 16)))
    for e in pick_per_class(ref["xn_power"], lambda e: e["e"], 25000, rng):
        u = Monomial(5, (0, 2, 0, 1, e["e"]))
        ops.append(Op(f"borel_size {u}", lambda ctx, u=u: gotzmann.borel_size(u), int(e["borel_size"], 16)))
        ops.append(Op(f"mc {u}", lambda ctx, u=u: gotzmann.mc(u, trace=ctx.trace).exps,
                      tuple(int(x, 16) for x in e["mc"])))
        ops.append(witness_op(u, e["is_gotzmann"]))
    head, rest = ops[:2], ops[2:]
    rng.shuffle(rest)
    return Workload("tau_bigexp", head + rest)


CORES_PER_N = {"10": 12, "11": 12, "12": 12}


def build_certify_mix(ref: dict, rng: random.Random) -> Workload:
    # More picks, hence narrower cost strata, where the tail (n = 12, the
    # fourth-slowest op) and the median (n = 10 and 11) of the op costs fall.
    ops = []
    for n in sorted(ref, key=int):
        for e in pick_balanced(ref[n], CORES_PER_N.get(n, 4), rng):
            u0, value = _mono(e), int(e["tau"], 16)
            ops.append(tau_op(u0, value))
            ops.append(witness_op(_shifted(u0, value), True))
            ops.append(witness_op(_shifted(u0, value - 1), False))
    triples = [ops[i:i + 3] for i in range(0, len(ops), 3)]
    rng.shuffle(triples)
    return Workload("certify_mix", [op for t in triples for op in t])


def big_mg_expected() -> tuple[list[str], str]:
    """argv and true stdout of `gotz mg --n 8 x2^2 --t 10^1000`.

    The answer has more than 4300 digits, so it is rendered here with the
    interpreter's integer-to-text limit lifted for the duration of the call.
    """
    t = "1" + "0" * 1000
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(gotzmann.mg_shifted(parse("x2^2", 8), int(t))) + "\n"
    finally:
        sys.set_int_max_str_digits(old)
    return ["mg", "--n", "8", "x2^2", "--t", t], text


def build_cli_session(ref: dict, rng: random.Random) -> Workload:
    queries = rng.sample(ref["queries"], 6)
    scan = rng.choice(ref["scans"])

    def cache(ctx: Context) -> str:
        return str(ctx.work_dir / "cache.jsonl")

    def tau_argv(ctx, q):
        return ["tau", "--json", "--n", str(q["n"]), q["monomial"], "--cache", cache(ctx)]

    ops = []
    for phase in ("cold", "warm"):
        for q in queries:
            ops.append(Op(f"{phase} tau --json --n {q['n']} {q['monomial']}",
                          lambda ctx, q=q: ctx.cli(tau_argv(ctx, q)), q["stdout"]))
    ops.append(Op(f"conjecture --n 7 --d {scan['d']}",
                  lambda ctx: ctx.cli(["conjecture", "--json", "--n", "7", "--d", scan["d"],
                                       "--cache", cache(ctx)]),
                  scan["stdout"]))
    probe = {"n": 7, "monomial": scan["probe"]}
    ops.append(Op(f"scanned tau --json --n 7 {scan['probe']}",
                  lambda ctx: ctx.cli(tau_argv(ctx, probe)), scan["probe_stdout"]))
    argv, text = big_mg_expected()
    ops.append(Op("mg --n 8 x2^2 --t 10^1000", lambda ctx: ctx.cli(argv), text,
                  known_failure="answer exceeds CPython's 4300-digit str(int) limit; gotz exits 2"))

    def fresh_cache(ctx: Context) -> None:
        Path(cache(ctx)).unlink(missing_ok=True)

    return Workload("cli_session", ops, before_pass=fresh_cache, spawns=True)


BUILDERS = {
    "tau_deep": build_tau_deep,
    "tau_bigexp": build_tau_bigexp,
    "certify_mix": build_certify_mix,
    "cli_session": build_cli_session,
}


def build(name: str, seed: int, ref: dict) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](ref[name], rng)
