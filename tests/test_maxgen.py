import pytest
from hypothesis import given, settings, strategies as st

from gotzmann import maxgen
from gotzmann.combinatorics import (
    _run_walk,
    binom,
    borel_enumerate,
    borel_size,
    enumerate_monomials,
    prefix_borel_sizes,
)
from gotzmann.maxgen import (
    MgDecomposition,
    _mg_by_position,
    f_poly_eval,
    maxgen_of_set,
    mg_closed,
    mg_oracle,
    mg_shifted,
    target_decompose,
)
from gotzmann.monomial import Monomial, deg, embed, mul, one, parse, truncate, variable_power


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

    @pytest.mark.parametrize("ask, delta", [(0, 1), (0, -1), (1, 1), (1, -1)])
    def test_cross_check_fires_on_either_x_n_column(self, monkeypatch, ask, delta):
        # both x_n powers come from one run walk; an x_n column off by one in either ask,
        # mg's at deg(u0) or f's at deg(u0) + t, is a loud inconsistency, not a new answer
        def off_by_one(exps, *asks):
            v, shares = _run_walk(exps, *asks)
            shares[ask][-1] += delta
            return v, shares

        u0 = parse("x2^2*x4", 4)
        target_decompose(u0, 5, 3)
        monkeypatch.setattr(maxgen, "_run_walk", off_by_one)
        with pytest.raises(RuntimeError, match="internal inconsistency"):
            target_decompose(u0, 5, 3)


class TestFPoly:
    def test_worked_family(self):
        u0 = parse("x2^2*x4", 4)
        for t in range(13):
            assert f_poly_eval(u0, 5, t) == binom(t + 1, 2) + 2 * t + 5

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
                    assert f_poly_eval(u0, 4, t) == want

    def test_agrees_with_decomposition(self):
        for d in range(5):
            for u0 in enumerate_monomials(3, d):
                for t in range(5):
                    assert f_poly_eval(u0, 4, t) == target_decompose(u0, 4, t).xn_exp

    def test_short_monomials_contribute_nothing(self):
        assert f_poly_eval(one(3), 4, 5) == 0
        assert f_poly_eval(parse("x2", 3), 4, 5) == 0


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
    assert f_poly_eval(u0, n, t) == by_position.exps[n - 1]


@pytest.mark.parametrize("t", [0, 7, 10**30])
@pytest.mark.parametrize("e", range(1, 9))
def test_run_evaluations_on_both_sides_of_the_switch(e, t):
    # the x2 run feeds columns j = 3..6 (s = 0..3), which take the closed form
    # once e > s + 3: e <= 3 is all position sums, e = 8 all closed forms
    _check_against_position_oracles([2, e, 0, 1, 0, 5], t)


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
        # a row is built on x2, x3 takes the closed form in every column, and the
        # position sums of x4 build the row afresh, which x5 then steps on
        [0, 2, 10, 1, 1, 0, 0, 0, 0, 0],
        # position sums on every run with s_max falling by one, then by two
        [1, 3, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0],
        [2, 0, 1, 0, 3, 0, 1, 0, 0, 0, 0],
        # a long closed-form run between two position-sum runs, then single positions
        [0, 3, 40, 2, 0, 1, 1, 1, 0, 0, 0],
    ],
)
def test_run_walk_carries_its_row_across_runs(exps, t):
    _check_against_position_oracles(exps, t)


def _ascending_columns(n):
    return st.lists(st.integers(1, n + 1), unique=True, max_size=n + 1).map(sorted)


@given(
    st.integers(2, 10).flatmap(lambda n: st.lists(_run_exponents, min_size=n, max_size=n)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_two_asks_are_two_walks(exps, data):
    # one walk answers each ask as a walk of its own would: the closure sizes and the heads
    # are shared, and each ask carries its own row of position binomials across the runs
    shift = st.one_of(st.integers(0, 3), st.integers(0, 10**6), st.integers(0, 10**1000))
    asks = [(sum(exps) + data.draw(shift), data.draw(_ascending_columns(len(exps)))) for _ in range(2)]
    v, shares = _run_walk(exps, *asks)
    assert shares == [_run_walk(exps, ask)[1][0] for ask in asks]
    assert v == _run_walk(exps)[0]
