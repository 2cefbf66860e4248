from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from gotzmann import combinatorics, maxgen
from gotzmann.combinatorics import (
    _run_walk,
    binom,
    borel_enumerate,
    borel_size,
    enumerate_monomials,
    lex_rank,
    prefix_borel_sizes,
)
from gotzmann.maxgen import (
    MgDecomposition,
    _mg_by_position,
    maxgen_of_set,
    mg_closed,
    mg_oracle,
    mg_shifted,
    target_decompose,
)
from gotzmann.monomial import (
    Monomial,
    deg,
    embed,
    max_index,
    mul,
    one,
    parse,
    sigma,
    sigma_pow,
    truncate,
    variable_power,
)


def slice_elements(n_lo=1, n_hi=4, d_lo=0, d_hi=5):
    out = []
    for n in range(n_lo, n_hi + 1):
        for d in range(d_lo, d_hi + 1):
            out.extend(enumerate_monomials(n, d))
    return out


def test_maxgen_known_value():
    assert str(maxgen_of_set(enumerate_monomials(3, 2))) == "x1*x2^2*x3^3"


def test_maxgen_of_empty_set_is_unit():
    from gotzmann.combinatorics import MonomialSet

    assert maxgen_of_set(MonomialSet(3, ())) == one(3)


def test_maxgen_degree_counts_elements():
    # one last-variable factor per element
    for u in enumerate_monomials(3, 3):
        closure = borel_enumerate(u)
        assert deg(maxgen_of_set(closure)) == len(closure)


class TestMgClosed:
    @pytest.mark.parametrize(
        "text,n,want",
        [
            ("x2^2*x4", 5, "x3*x4^2*x5^5"),
            ("x2^3", 5, "x3^3*x4^4*x5^5"),
            ("x2^2", 4, "x3*x4"),
            ("x2^2", 3, "x3"),
        ],
    )
    def test_known_values(self, text, n, want):
        assert str(mg_closed(parse(text, n))) == want

    def test_quadratic_family_in_three_variables(self):
        for b in range(7):
            got = mg_closed(variable_power(2, b, 3))
            assert got == variable_power(3, binom(b, 2), 3)

    def test_unit_and_pure_last_variable_power(self):
        assert mg_closed(one(4)) == one(4)
        assert mg_closed(parse("x4^7", 4)) == one(4)

    def test_matches_oracle_everywhere_small(self):
        for u in slice_elements():
            assert mg_closed(u) == mg_oracle(u), u

    def test_truncation_compatibility(self):
        # removing the last variable commutes with the gap form
        for n in (3, 4, 5):
            for d in range(5):
                for u0 in enumerate_monomials(n - 1, d):
                    lifted = mg_closed(embed(u0, n))
                    assert truncate(lifted, n - 1) == mg_closed(u0)


class TestMgShifted:
    def test_matches_direct_computation(self):
        for n in (3, 4):
            for d in range(4):
                for u in enumerate_monomials(n, d):
                    for t in range(4):
                        shifted = mul(u, variable_power(n, t, n)) if t else u
                        assert mg_shifted(u, t) == mg_closed(shifted)

    def test_zero_shift(self):
        u = parse("x2^2*x4", 5)
        assert mg_shifted(u, 0) == mg_closed(u)


class TestTargetDecompose:
    def test_parts_multiply_back(self):
        u0 = parse("x2^2*x4", 4)
        dec = target_decompose(u0, 5, 3)
        assert isinstance(dec, MgDecomposition)
        rebuilt = mul(dec.base, variable_power(5, dec.xn_exp, 5))
        assert rebuilt == mg_shifted(embed(u0, 5), 3)
        assert dec.base.exps[4] == 0

    def test_requires_one_smaller_ambient(self):
        with pytest.raises(ValueError):
            target_decompose(parse("x2", 3), 3, 1)

    @pytest.mark.parametrize("t", [0, 3], ids=["t0", "t3"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_gap_count_check_fires_on_any_entry_of_q(self, monkeypatch, delta, t):
        # the walk's gap form q off by one in any single entry breaks sum(q) = gap count,
        # which target_decompose checks before it shifts q: a loud inconsistency at any t,
        # not a new answer
        u0 = parse("x2^2*x4", 4)
        target_decompose(u0, 5, t)
        for entry in range(5):
            def off_by_one(exps, n=0):
                v, q = _run_walk(exps, n)
                q[entry] += delta
                return v, q

            monkeypatch.setattr(maxgen, "_run_walk", off_by_one)
            with pytest.raises(RuntimeError, match="internal inconsistency"):
                target_decompose(u0, 5, t)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_gap_count_check_fires_on_a_closure_off_by_one(self, monkeypatch, delta):
        # a closure vector v off by one moves the closure size sum(v) that the gap count
        # subtracts, while q stays right
        def off_by_one(exps, n=0):
            v, q = _run_walk(exps, n)
            v[0] += delta
            return v, q

        monkeypatch.setattr(maxgen, "_run_walk", off_by_one)
        with pytest.raises(RuntimeError, match="internal inconsistency"):
            target_decompose(parse("x2^2*x4", 4), 5, 3)


def _f(u0, n, t):
    # f(t), the x_n power of mg(u0 * x_n^t), as target_decompose reads it off sigma^t
    return target_decompose(u0, n, t).xn_exp


class TestFPoly:
    def test_worked_family(self):
        u0 = parse("x2^2*x4", 4)
        for t in range(13):
            assert _f(u0, 5, t) == binom(t + 1, 2) + 2 * t + 5

    def test_two_exponent_family(self):
        # f for x2^b*x3^c one ambient up, as an explicit binomial sum
        for b in range(5):
            for c in range(5):
                u0 = Monomial(3, (0, b, c))
                for t in range(8):
                    want = (
                        binom(b, 2) * t
                        + binom(b + 1, 3)
                        + c * binom(b, 2)
                        + (b + 1) * binom(c + 1, 2)
                        + binom(c + 1, 3)
                        - c
                    )
                    assert _f(u0, 4, t) == want

    def test_agrees_with_decomposition(self):
        # the paper's sum over the positions of u0 = x_{i_1} ... x_{i_r},
        # sum_k C(t + r - k - 2 + n - i_{k+1}, n - 1 - i_{k+1}) * (b_k - 1), against the
        # decomposition's x_n power
        for n in (4, 5):
            for d in range(5):
                for u0 in enumerate_monomials(n - 1, d):
                    head = [i for i, e in enumerate(u0.exps, start=1) for _ in range(e)]
                    sizes = prefix_borel_sizes(head)
                    for t in range(5):
                        want = sum(
                            binom(t + d - k - 2 + n - head[k], n - 1 - head[k]) * (sizes[k - 1] - 1)
                            for k in range(1, d)
                        )
                        assert _f(u0, n, t) == want, (u0, t)

    def test_short_monomials_contribute_nothing(self):
        assert _f(one(3), 4, 5) == 0
        assert _f(parse("x2", 3), 4, 5) == 0


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_mg_closed_matches_oracle_random(n, d, t, data):
    sl = list(enumerate_monomials(n, d))
    u = data.draw(st.sampled_from(sl))
    shifted = mul(u, variable_power(n, t, n)) if t else u
    assert mg_closed(shifted) == mg_oracle(shifted)


def _check_against_position_oracles(exps, t):
    n = len(exps)
    u = Monomial(n, tuple(exps))
    positions = [i for i, e in enumerate(exps, start=1) for _ in range(e)]
    assert borel_size(u) == (prefix_borel_sizes(positions)[-1] if positions else 1)
    assert mg_closed(u) == _mg_by_position(u)
    u0 = Monomial(n - 1, tuple(exps[:-1]))
    shifted = Monomial(n, tuple(exps[:-1]) + (t,))
    by_position = _mg_by_position(shifted)
    assert mg_closed(shifted) == by_position
    assert target_decompose(u0, n, t).xn_exp == by_position.exps[n - 1]


@pytest.mark.parametrize("t", [0, 7, 10**30])
@pytest.mark.parametrize("e", range(1, 9))
def test_run_evaluations_on_both_sides_of_the_switch(e, t):
    # a run (i, e) goes one position at a time while e <= 2i and in closed form beyond:
    # x2^e and x4^(e+4) go position by position for e <= 4 and in closed form for e >= 5,
    # and x3^(9-e) in closed form for e <= 2
    _check_against_position_oracles([2, e, 9 - e, e + 4, 0, 5], t)


_run_exponents = st.one_of(st.integers(0, 3), st.integers(4, 80))


@given(
    st.integers(2, 10).flatmap(lambda n: st.lists(_run_exponents, min_size=n, max_size=n)),
    st.integers(0, 10**40),
)
@settings(max_examples=150, deadline=None)
def test_run_walk_matches_position_oracles_random(exps, t):
    _check_against_position_oracles(exps, t)


@given(
    st.integers(2, 9).flatmap(lambda n: st.lists(_run_exponents, min_size=n, max_size=n)),
    st.integers(0, 10**1000),
)
@settings(max_examples=40, deadline=None)
def test_run_walk_matches_position_oracles_at_huge_shifts(exps, t):
    _check_against_position_oracles(exps, t)


@pytest.mark.parametrize("t", [0, 7, 10**1000], ids=["t0", "t7", "t1e1000"])
@pytest.mark.parametrize(
    "exps",
    [
        # x2 position by position, then x3 in closed form, whose sigma^e carries the
        # gap form q on, then single positions of x4 and x5
        [0, 2, 10, 1, 1, 0, 0, 0, 0, 0],
        # every run position by position, with the order of the x_n column falling by
        # one, then by two, from run to run
        [1, 3, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0],
        [2, 0, 1, 0, 3, 0, 1, 0, 0, 0, 0],
        # a long closed-form run between two runs taken position by position, then
        # single positions
        [0, 3, 40, 2, 0, 1, 1, 1, 0, 0, 0],
    ],
)
def test_run_walk_carries_its_row_across_runs(exps, t):
    _check_against_position_oracles(exps, t)


@given(
    st.integers(2, 10).flatmap(lambda n: st.lists(_run_exponents, min_size=n - 1, max_size=n - 1).map(lambda e: (n, e))),
    st.one_of(st.integers(0, 3), st.integers(0, 10**6), st.integers(0, 10**1000)),
)
@settings(max_examples=150, deadline=None)
def test_shifted_gap_form_meets_its_gap_count(shape, t):
    # sigma^t of the walk's q is mg(u * x_n^t) summed position by position, x_n power
    # included, and q has the degree target_decompose checks it against, the gap count
    # of u in ambient n, so the check never fires on a valid walk
    n, exps = shape
    v, q = _run_walk(exps, n)
    assert sigma_pow(Monomial(n, q), t) == _mg_by_position(Monomial(n, (*exps, t)))
    assert sum(q) == lex_rank(Monomial(n, (*exps, 0))) - sum(v)
    assert v == _run_walk(exps)[0]


@given(
    st.integers(2, 12).flatmap(
        lambda n: st.lists(st.one_of(_run_exponents, st.integers(0, 10**30)), min_size=n - 1, max_size=n - 1)
    )
)
@settings(max_examples=150, deadline=None)
def test_run_walk_levels_are_the_walks_of_the_prefixes(exps):
    # every update of q is prefix-local, so one walk in ambient n records after variable i what
    # the walk of the first i variables gives one ambient up: a tower level's closure size and mg
    n = len(exps) + 1
    levels = []
    assert _run_walk(exps, n, levels) == _run_walk(exps, n)
    assert len(levels) == n - 1
    for m in range(2, n + 1):
        v, q = _run_walk(exps[: m - 1], m)
        assert levels[m - 2] == (sum(v), q)


@pytest.mark.parametrize("n", range(1, 6))
def test_gap_form_recurrence(n):
    # mg(u * x_i) = sigma(mg(u) + (|Borel(u)| - 1) * x_{i+1}) for every i >= max_index(u),
    # with no x_{i+1} term at i = n: the recurrence the run walk takes position by position
    for d in range(7):
        for u in enumerate_monomials(n, d):
            mg, weight = mg_oracle(u), len(borel_enumerate(u)) - 1
            for i in range(max_index(u) if d else 1, n + 1):
                step = list(mg.exps)
                if i < n:
                    step[i] += weight
                assert mg_oracle(mul(u, variable_power(i, 1, n))) == sigma(Monomial(n, tuple(step))), (u, i)


class _PrefixSums:
    """Counts the prefix sums the run walk takes through accumulate: one per position for v
    and one more for q when its columns are asked.  Past its bound it fails at once instead
    of walking on."""

    def __init__(self, monkeypatch, bound):
        self.calls, self.bound = 0, bound
        monkeypatch.setattr(combinatorics, "accumulate", self)

    def __call__(self, values):
        self.calls += 1
        if self.calls > self.bound:
            pytest.fail(f"more than {self.bound} prefix sums")
        return accumulate(values)


@pytest.mark.parametrize(
    "exps",
    [
        (0, 10**12, 7, 1),  # x2 and x3 in closed form, x4 one position
        (10**12, 10**12, 10**6, 10**12),
        (0, 4, 10**40, 8),  # runs at the switch on either side of a huge one
        (3, 5, 7, 9),  # every run just past the switch
    ],
)
def test_cost_does_not_grow_with_exponents(monkeypatch, exps):
    # a count, not a timer: at most (n+1)^2 prefix sums, so at most as many per-position
    # steps, per evaluation however large the exponents; a long run that slipped into the
    # per-position branch fails here
    n, t = len(exps) + 1, 10**30
    u0 = Monomial(n - 1, exps)
    u = Monomial(n, (*exps, t))
    counter = _PrefixSums(monkeypatch, (n + 1) ** 2)
    for evaluate in (lambda: borel_size(u), lambda: mg_closed(u), lambda: target_decompose(u0, n, t)):
        counter.calls = 0
        evaluate()
