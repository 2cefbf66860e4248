"""End-to-end acceptance checklist.

Twelve criteria, one test each.  Every test finishes by printing a single
summary line, so a verbose run doubles as a checklist.  All comparisons are
exact; time budgets are asserted where a criterion carries one.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

from gotzmann.combinatorics import (
    binom,
    borel_enumerate,
    enumerate_monomials,
    lex_rank,
)
from gotzmann.maxgen import maxgen_of_set, mg_closed, mg_oracle, target_decompose
from gotzmann.monomial import (
    Monomial,
    deg,
    deg_in,
    embed,
    mul,
    parse,
    sigma,
    sigma_pow,
    truncate,
    variable_power,
)
from gotzmann.paths import advance, advance_oracle, cost_between, find_z
from gotzmann.threshold import (
    is_gotzmann,
    is_gotzmann_oracle,
    tau,
    tau_formula,
    tau_oracle,
)

SEED = 20260814


class stopwatch:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def report(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def cli(*args):
    exe = shutil.which("gotz")
    argv = ([exe] if exe else [sys.executable, "-m", "gotzmann"]) + list(args)
    return subprocess.run(argv, capture_output=True, text=True)


def random_core(rng, n, d_max=3):
    """Nonunit monomial over the first n-1 of n variables."""
    while True:
        e = [rng.randint(0, d_max) for _ in range(n - 1)]
        if any(e):
            return Monomial(n - 1, tuple(e))


def test_criterion_01_worked_example():
    with stopwatch() as sw:
        u0 = parse("x2^2*x4", 4)
        assert tau(embed(u0, 5), 5).tau == 6
        for t in range(1, 7):
            assert target_decompose(u0, 5, t).xn_exp == binom(t + 1, 2) + 2 * t + 5
            z, state = find_z(u0, 5, t)
            assert deg_in(state.cost, 5) == binom(t + 3, 2) - 3
            assert z.exps[4] == t - 1
    assert sw.elapsed < 1.0
    report(1, "tau(x2^2*x4, 5) = 6 and f, h, k match their closed forms at t = 1..6")


def test_criterion_02_three_variable_law():
    with stopwatch() as sw:
        for a in range(3):
            for b in range(13):
                assert tau(Monomial(3, (a, b, 0)), 3).tau == binom(b, 2)
    assert sw.elapsed < 1.0
    report(2, "tau(x1^a*x2^b, 3) = C(b, 2) for a <= 2, b <= 12")


def test_criterion_03_four_variable_law():
    with stopwatch() as sw:
        for b in range(7):
            for c in range(7):
                head = (b + 4) * binom(b, 2)
                assert head % 3 == 0
                want = (
                    binom(binom(b, 2), 2)
                    + head // 3
                    + (b + 1) * binom(c + 1, 2)
                    + binom(c + 1, 3)
                    - c
                )
                assert tau(Monomial(4, (0, b, c, 0)), 4).tau == want
                assert tau_formula("tau4", b=b, c=c) == want
    assert sw.elapsed < 10.0
    report(3, "tau(x2^b*x3^c, 4) matches its closed form for b, c <= 6")


def test_criterion_04_five_variable_law():
    with stopwatch() as sw:
        for d in range(2, 9):
            want = (
                binom(binom(binom(d, 2), 2) + binom(d + 1, 3) + binom(d, 2), 2)
                - binom(binom(d, 2), 3)
                + binom(d + 3, 4)
                - d
            )
            assert tau(Monomial(5, (0, d, 0, 0, 0)), 5).tau == want
            assert tau_formula("tau5_x2", d=d) == want
    assert sw.elapsed < 60.0
    report(4, "tau(x2^d, 5) matches its closed form for d = 2..8")


def test_criterion_05_threshold_oracle_equivalence():
    with stopwatch() as sw:
        checked = 0
        for n in (3, 4):
            for d in range(5):
                for u0 in enumerate_monomials(n - 1, d):
                    lifted = embed(u0, n)
                    assert tau(lifted, n).tau == tau_oracle(lifted, n)
                    checked += 1
        rng = random.Random(SEED)
        for u0 in rng.sample(list(enumerate_monomials(4, 3)), 10):
            lifted = embed(u0, 5)
            assert tau(lifted, 5).tau == tau_oracle(lifted, 5)
            checked += 1
    assert sw.elapsed < 600.0
    report(5, f"recursion agrees with the scanning oracle on {checked} thresholds")


def test_criterion_06_gotzmann_oracle_equivalence():
    with stopwatch() as sw:
        checked = 0
        for n in range(1, 5):
            for d in range(6):
                for u in enumerate_monomials(n, d):
                    assert is_gotzmann(u).is_gotzmann == is_gotzmann_oracle(u)
                    checked += 1
    assert sw.elapsed < 300.0
    report(6, f"witness test agrees with full enumeration on {checked} monomials")


def test_criterion_07_mg_oracle_equivalence():
    checked = 0
    for n in range(1, 5):
        for d in range(6):
            for u in enumerate_monomials(n, d):
                assert mg_closed(u) == mg_oracle(u)
                checked += 1
    report(7, f"closed gap form agrees with enumeration on {checked} monomials")


def test_criterion_08_walk_engines_agree():
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randint(2, 6)
        e = [rng.randint(0, 4) for _ in range(n)]
        if not any(e):
            e[-1] = rng.randint(1, 4)
        u = Monomial(n, tuple(e))
        budget = rng.randint(0, min(10_000, lex_rank(u) - 1))
        fast = advance(u, budget)
        slow = advance_oracle(u, budget)
        assert (fast.current, fast.cost, fast.steps) == (slow.current, slow.cost, slow.steps)
    report(8, "block and elementary walks agree on 200 random instances")


def test_criterion_09_structural_properties():
    instances = 50

    rng = random.Random(SEED)
    for _ in range(instances):
        n = rng.randint(2, 5)
        u = Monomial(n, tuple(rng.randint(0, 4) for _ in range(n)))
        v = Monomial(n, tuple(rng.randint(0, 4) for _ in range(n)))
        assert sigma(mul(u, v)) == mul(sigma(u), sigma(v))

    rng = random.Random(SEED + 1)
    for _ in range(instances):
        n = rng.randint(2, 5)
        d = rng.randint(1, 4)
        sl = list(enumerate_monomials(n, d))
        i, j = sorted(rng.sample(range(len(sl)), 2))
        above, below = sl[i], sl[j]
        lift = lambda w: mul(w, variable_power(n, 1, n))
        assert cost_between(lift(below), lift(above)) == sigma(cost_between(below, above))

    rng = random.Random(SEED + 2)
    for _ in range(instances):
        n = rng.randint(3, 6)
        u0 = random_core(rng, n)
        assert truncate(mg_closed(embed(u0, n)), n - 1) == mg_closed(u0)

    rng = random.Random(SEED + 3)
    chains = 0
    while chains < instances:
        n = rng.randint(3, 5)
        u0 = random_core(rng, n, d_max=2)
        t_lo = tau(u0, n - 1).tau
        prev_z = prev_k = None
        delta = None
        for t in range(t_lo, t_lo + 6):
            f = target_decompose(u0, n, t).xn_exp
            z, state = find_z(u0, n, t)
            h = deg_in(state.cost, n)
            k = z.exps[n - 1]
            if prev_z is not None:
                assert z == mul(prev_z, variable_power(n, 1, n))
                assert k == prev_k + 1
                assert f - h == delta
            prev_z, prev_k, delta = z, k, f - h
        chains += 1

    rng = random.Random(SEED + 4)
    for _ in range(instances):
        n = rng.randint(2, 4)
        d = rng.randint(1, 5)
        u = rng.choice(list(enumerate_monomials(n, d)))
        closure = borel_enumerate(u)
        assert deg(maxgen_of_set(closure)) == len(closure)

    report(9, f"six structural laws verified on {instances} random instances each")


def test_criterion_10_sigma_power_closed_form():
    rng = random.Random(SEED + 5)
    for _ in range(100):
        n = rng.randint(1, 6)
        u = Monomial(n, tuple(rng.randint(0, 5) for _ in range(n)))
        t = rng.randint(0, 6)
        v = u
        for _ in range(t):
            v = sigma(v)
        assert sigma_pow(u, t) == v
    report(10, "closed-form iterated prefix sums match literal iteration on 100 cases")


def test_criterion_11_boundary_certification_n6():
    with stopwatch() as sw:
        values = {}
        for d in (2, 3):
            u0 = variable_power(2, d, 6)
            threshold = tau(u0, 6).tau
            at = mul(u0, variable_power(6, threshold, 6))
            just_below = mul(u0, variable_power(6, threshold - 1, 6))
            assert is_gotzmann(at).is_gotzmann
            assert not is_gotzmann(just_below).is_gotzmann
            values[d] = threshold
    assert sw.elapsed < 300.0
    report(11, f"n = 6 boundaries certified: tau(x2^2) = {values[2]}, tau(x2^3) = {values[3]}")


def test_criterion_12_conjecture_probe():
    with stopwatch() as sw:
        plain = cli("conjecture", "--n", "6", "--d", "2..5")
        assert plain.returncode == 0 and plain.stdout

        docs = {}
        for n in (4, 5, 6):
            proc = cli("conjecture", "--n", str(n), "--d", "2..5", "--json")
            assert proc.returncode == 0
            docs[n] = json.loads(proc.stdout)

        def expected_ratio(n, d):
            if n == 4:
                num = tau_formula("tau4", b=d, c=0)
                den = binom(tau_formula("tau3", b=d), 2)
            else:
                num = tau_formula("tau5_x2", d=d)
                den = binom(tau_formula("tau4", b=d, c=0), 2)
            return Fraction(num, den) if den else None

        for n in (4, 5):
            for row in docs[n]["rows"]:
                want = expected_ratio(n, row["d"])
                if want is None:
                    assert row["ratio_num"] is None
                else:
                    assert Fraction(int(row["ratio_num"]), int(row["ratio_den"])) == want

        trend = []
        for row in docs[6]["rows"]:
            assert int(row["tau_prev"]) == tau_formula("tau5_x2", d=row["d"])
            if row["ratio_num"] is not None:
                trend.append(
                    (row["d"], Fraction(int(row["ratio_num"]), int(row["ratio_den"])))
                )
    assert sw.elapsed < 600.0
    shown = ", ".join(f"d={d}: {float(r):.6f}" for d, r in trend)
    report(12, f"scan ratios match closed forms at n = 4, 5; n = 6 trend ({shown}) "
               "reported, not asserted")
