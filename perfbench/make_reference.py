"""Generate and certify the reference answers that the benchmark checks against.

Run once from the repository root:

    python3 perfbench/make_reference.py

It draws every workload's candidate pool from a fixed generation seed, asks
the package for each answer, certifies every answer by a method that does not
share the code path under test, and writes perfbench/reference.json.  Timed
runs then only compare outputs against these stored values.

Certification of a threshold tau(u0, n):
  * the witness test: u0*x_n^tau is Gotzmann and u0*x_n^(tau-1) is not;
  * every level of the recursion tower is certified the same way, and also
    against the closed laws tau3, tau4 and tau5_x2 where one applies and
    against tau_oracle (an upward scan of witness tests) when the level's
    value is small.
Other answers are certified against closed forms that the walk does not use
(see certify_xn_power).

Each pool entry also records cost_s, the host-normalised time its ops took
here; workloads.py uses it only to pick seed-dependent subsets of like cost,
never to check.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gotzmann import (  # noqa: E402
    Monomial,
    borel_enumerate,
    borel_size,
    is_gotzmann,
    is_gotzmann_oracle,
    mc,
    mg_closed,
    tau,
    tau_formula,
    tau_oracle,
)
from gotzmann.combinatorics import binom  # noqa: E402
from gotzmann.monomial import format as mono_text  # noqa: E402
from run import CAL_REF_S, calibrate  # noqa: E402

GEN_SEED = 240309497
ORACLE_MAX = 300
OUT = Path(__file__).resolve().parent / "reference.json"


def shifted(u0: Monomial, t: int) -> Monomial:
    return Monomial(u0.n, u0.exps[:-1] + (t,))


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"certification failed: {what}")


def closed_law(core: Monomial):
    """The closed threshold law that covers this x_n-free core, if any."""
    e = core.exps
    if core.n == 3:
        return tau_formula("tau3", b=e[1], a=e[0])
    if core.n == 4 and e[0] == 0:
        return tau_formula("tau4", b=e[1], c=e[2])
    if core.n == 5 and e[0] == e[2] == e[3] == 0:
        return tau_formula("tau5_x2", d=e[1])
    return None


def certify_core(core: Monomial, value: int) -> None:
    require(is_gotzmann(shifted(core, value)).is_gotzmann, f"{core} not Gotzmann at tau={value}")
    if value > 0:
        require(not is_gotzmann(shifted(core, value - 1)).is_gotzmann,
                f"{core} already Gotzmann at tau-1")
    law = closed_law(core)
    if law is not None:
        require(law == value, f"closed law gives {law} for {core}, tower says {value}")
    if value <= ORACLE_MAX and core.n <= 7:
        require(tau_oracle(core, core.n, scan_cap=ORACLE_MAX) == value, f"tau_oracle disagrees at {core}")


def certified_tau(u0: Monomial, n: int) -> int:
    """tau(u0, n) for an x_n-free u0, certified at every level of its tower."""
    rep = tau(u0, n)
    level = rep
    while level is not None:
        if level.n > 2:
            certify_core(level.u0, level.delta - level.k_at_tstar + level.t_star)
        level = level.sub_report
    require(rep.tau == rep.delta - rep.k_at_tstar + rep.t_star, f"top level of {u0} is shifted")
    return rep.tau


def timed(fn, *args, repeat: int = 3):
    """fn(*args) and its fastest host-normalised time over `repeat` calls (see run.calibrate)."""
    best = None
    for _ in range(repeat):
        probe = calibrate()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = (time.perf_counter() - t0) * CAL_REF_S / probe
        best = dt if best is None else min(best, dt)
    return out, best


def random_core(rng: random.Random, n: int, lo_var: int, hi_var: int, max_exp: int) -> Monomial:
    e = [0] * n
    for i in range(lo_var - 1, hi_var):
        e[i] = rng.randint(0, max_exp)
    return Monomial(n, tuple(e))


def tau_entry(u0: Monomial, n: int) -> dict:
    value, cost = timed(tau, u0, n)
    value = value.tau
    require(value == certified_tau(u0, n), f"tau of {u0} changed between calls")
    return {"n": n, "exps": list(u0.exps), "tau": hex(value), "cost_s": round(cost, 6)}


def pool_of_cores(rng, n, count, lo_var, hi_var, max_exp, accept=lambda u: True):
    seen, out = set(), []
    while len(out) < count:
        u0 = random_core(rng, n, lo_var, hi_var, max_exp)
        if u0.exps in seen or not any(u0.exps) or not accept(u0):
            continue
        seen.add(u0.exps)
        out.append(u0)
    return out


def gen_tau_deep(rng) -> dict:
    grid = []
    for n, d in ((12, 10), (13, 8), (13, 10), (14, 4)):
        u0 = Monomial(n, (0, d) + (0,) * (n - 2))
        grid.append(tau_entry(u0, n))
        print(f"tau_deep grid x2^{d} n={n}", flush=True)
    general = [tau_entry(u0, 13) for u0 in pool_of_cores(rng, 13, 42, 2, 6, 2,
                                                           accept=lambda u: sum(u.exps) >= 2)]
    print("tau_deep general pool done", flush=True)
    return {"grid": grid, "general": general}


def certify_x2_power(d: int) -> tuple[int, float]:
    u0 = Monomial(5, (0, d, 0, 0, 0))
    (rep, cost) = timed(tau, u0, 5)
    require(rep.tau == certified_tau(u0, 5), f"tau of x2^{d} changed between calls")
    return rep.tau, cost


def borel_size_x2sq_x4_x5(e: int) -> int:
    """|Borel closure of x2^2*x4*x5^e|, counted without the prefix-sum DP.

    Sequences j1 <= j2 <= j3 with j1, j2 <= 2 and j3 <= 4, followed by any
    nondecreasing run of length e inside [j3, 5].
    """
    total = 0
    for j1 in range(1, 3):
        for j2 in range(j1, 3):
            for j3 in range(j2, 5):
                total += binom(e + 5 - j3, 5 - j3)
    return total


def certify_xn_power(e: int) -> dict:
    """Reference answers for x2^2*x4*x5^e, e >= tau(x2^2*x4, 5).

    borel_size is checked against the run-length count above; that count is
    itself checked against enumeration on small e.  Above the threshold the
    monomial is Gotzmann, so the walk cost mc must equal the closed gap form
    mg_closed, which never walks.
    """
    u = Monomial(5, (0, 2, 0, 1, e))
    size, c1 = timed(borel_size, u)
    require(size == borel_size_x2sq_x4_x5(e), f"borel_size at e={e}")
    walk, c2 = timed(mc, u)
    require(walk == mg_closed(u), f"mc at e={e}")
    verdict, c3 = timed(is_gotzmann, u)
    require(verdict.is_gotzmann, f"is_gotzmann at e={e}")
    return {"e": e, "borel_size": hex(size), "mc": [hex(x) for x in walk.exps],
            "is_gotzmann": True, "cost_s": round(c1 + c2 + c3, 6)}


def gen_tau_bigexp(rng) -> dict:
    base = Monomial(5, (0, 2, 0, 1, 0))
    require(certified_tau(base, 5) == 6, "tau(x2^2*x4, 5) is not 6")
    for e in range(0, 9):
        u = Monomial(5, (0, 2, 0, 1, e))
        require(len(borel_enumerate(u)) == borel_size_x2sq_x4_x5(e), f"closure count at e={e}")
        require(is_gotzmann_oracle(u) == (e >= 6), f"oracle verdict at e={e}")
    x2_power = []
    for d in sorted(rng.sample(range(20000, 20401), 6)):
        small, c_small = certify_x2_power(d)
        large, c_large = certify_x2_power(4 * d)
        x2_power.append({"d": d, "tau_d": hex(small), "tau_4d": hex(large),
                         "cost_s": round(c_small + c_large, 6)})
        print(f"tau_bigexp x2^{d} and x2^{4 * d}", flush=True)
    # Size classes with a 1% jitter: the cost follows the degree, so a seed
    # that picks one entry per class gets the same op costs as any other.
    two_runs = []
    for total in (8000, 12000, 16000, 20000):
        for _ in range(4):
            size = rng.randint(total * 99 // 100, total * 101 // 100)
            b = rng.randint(size * 4 // 10, size * 6 // 10)
            two_runs.append(tau_entry(Monomial(4, (0, b, size - b, 0)), 4))
    print("tau_bigexp two-run pool done", flush=True)
    xn_power = [certify_xn_power(rng.randint(e * 99 // 100, e * 101 // 100))
                for e in (100000, 125000, 150000) for _ in range(3)]
    return {"x2_power": x2_power, "two_runs": two_runs, "xn_power": xn_power}


def gen_certify_mix(rng) -> dict:
    pools = {}
    for n in range(6, 13):
        entries = []
        for u0 in pool_of_cores(rng, n, 48 if n == 12 else 24, 1, n - 1, 4):
            entry = tau_entry(u0, n)
            value = int(entry["tau"], 16)
            if value == 0:
                continue  # the tau-1 op would not exist
            _, c1 = timed(is_gotzmann, shifted(u0, value))
            _, c2 = timed(is_gotzmann, shifted(u0, value - 1))
            entry["cost_s"] = round(entry["cost_s"] + c1 + c2, 6)
            entries.append(entry)
        pools[str(n)] = entries
        print(f"certify_mix n={n}: {len(entries)} cores", flush=True)
    return pools


def cli_stdout(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GOTZ_CACHE", None)
    proc = subprocess.run([sys.executable, "-m", "gotzmann", *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


def gen_cli_session(rng) -> dict:
    def not_x2_power(u: Monomial) -> bool:
        return any(x for i, x in enumerate(u.exps) if i != 1)

    queries = []
    for n in (7, 8):
        for u0 in pool_of_cores(rng, n, 8, 1, n - 2, 3, accept=not_x2_power):
            value = certified_tau(u0, n)
            text = mono_text(u0)
            out = cli_stdout(["tau", "--json", "--n", str(n), text])
            require(json.loads(out)["tau"] == str(value), f"CLI tau of {text}")
            queries.append({"n": n, "monomial": text, "stdout": out})
    print("cli_session tau pool done", flush=True)
    scans = []
    for lo in (2, 3, 4):
        hi = lo + 2
        out = cli_stdout(["conjecture", "--json", "--n", "7", "--d", f"{lo}..{hi}"])
        rows = json.loads(out)["rows"]
        for row in rows:
            d = row["d"]
            require(row["tau_n"] == str(certified_tau(Monomial(7, (0, d) + (0,) * 5), 7)),
                    f"scan row tau_7 at d={d}")
            require(row["tau_prev"] == str(certified_tau(Monomial(6, (0, d) + (0,) * 4), 6)),
                    f"scan row tau_6 at d={d}")
        probe = f"x2^{lo + 1}"
        scans.append({"d": f"{lo}..{hi}", "stdout": out, "probe": probe,
                      "probe_stdout": cli_stdout(["tau", "--json", "--n", "7", probe])})
    print("cli_session scans done", flush=True)
    return {"queries": queries, "scans": scans}


def main() -> int:
    ref = {"generation_seed": GEN_SEED, "python": sys.version.split()[0]}
    for name, gen in (("tau_deep", gen_tau_deep), ("tau_bigexp", gen_tau_bigexp),
                      ("certify_mix", gen_certify_mix), ("cli_session", gen_cli_session)):
        ref[name] = gen(random.Random(f"{GEN_SEED}:{name}"))
    OUT.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
