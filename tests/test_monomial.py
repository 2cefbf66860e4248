import math
import sys

import pytest
from hypothesis import given, strategies as st

from gotzmann.monomial import (
    Monomial,
    ParseError,
    _decimal,
    deg,
    deg_in,
    div,
    embed,
    format,
    lex_cmp,
    max_index,
    mul,
    one,
    parse,
    pred,
    sigma,
    sigma_pow,
    truncate,
    variable_power,
)


def exps(n, max_e=6):
    return st.tuples(*[st.integers(0, max_e) for _ in range(n)])


monomials = st.integers(1, 6).flatmap(
    lambda n: exps(n).map(lambda e: Monomial(n, e))
)


class TestParse:
    def test_unit(self):
        assert parse("1", 4) == one(4)

    def test_plain_term(self):
        assert parse("x3", 4) == variable_power(3, 1, 4)

    def test_power(self):
        assert parse("x2^5", 3) == variable_power(2, 5, 3)

    def test_product(self):
        assert parse("x1*x2^2*x4", 4) == Monomial(4, (1, 2, 0, 1))

    def test_whitespace_tolerated(self):
        assert parse("  x1 * x2^2 ", 3) == Monomial(3, (1, 2, 0))

    def test_repeated_variable_accumulates(self):
        assert parse("x2*x2^3", 3) == variable_power(2, 4, 3)

    def test_array_form(self):
        assert parse("[1, 0, 2]", 3) == Monomial(3, (1, 0, 2))

    def test_array_form_with_string_entries(self):
        # big exponents travel as decimal strings in JSON
        assert parse('[0, "12345678901234567890"]', 2).exps[1] == 12345678901234567890

    @pytest.mark.parametrize(
        "bad",
        ["", "x0", "x5", "x2^0", "x2^-1", "x2^^2", "y1", "x1+x2", "*x1", "x1*", "[1, 2]x"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse(bad, 4)

    def test_array_length_must_match_ambient(self):
        with pytest.raises(ParseError):
            parse("[1, 2, 3]", 2)

    @given(monomials)
    def test_round_trip(self, u):
        assert parse(format(u), u.n) == u


class TestFormat:
    def test_unit(self):
        assert format(one(3)) == "1"

    def test_ascending_and_exponent_one_suppressed(self):
        assert format(Monomial(4, (0, 1, 3, 1))) == "x2*x3^3*x4"

    def test_str_matches(self):
        u = Monomial(3, (2, 0, 1))
        assert str(u) == format(u) == "x1^2*x3"

    def test_exponent_beyond_the_digit_limit(self):
        default = sys.int_info.default_max_str_digits
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(default)
        try:
            assert str(Monomial(2, (1, 10**5000))) == "x1*x2^1" + "0" * 5000
            assert sys.get_int_max_str_digits() == default
        finally:
            sys.set_int_max_str_digits(old)

    @given(
        st.one_of(
            st.integers(0, 10**40),
            st.integers(0, 60_000).flatmap(lambda bits: st.integers(0, 2**bits)),
            st.tuples(st.integers(600, 20_000), st.integers(-1, 1)).map(lambda kd: 10 ** kd[0] + kd[1]),
        )
    )
    def test_decimal_is_str(self, x):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # so that str(x) can referee any size
        try:
            assert _decimal(x) == str(x)
        finally:
            sys.set_int_max_str_digits(old)


class TestValidation:
    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            Monomial(3, (0, -1, 0))

    @pytest.mark.parametrize("bad", [-1, -(10**40), True, False, 1.0, "1", None])
    def test_each_bad_exponent_is_named(self, bad):
        with pytest.raises(ValueError, match=f"nonnegative integers, got {bad!r}$"):
            Monomial(4, (3, 0, bad, 10**40))

    def test_int_subclasses_other_than_bool_pass(self):
        import enum

        class E(enum.IntEnum):
            TWO = 2

        assert Monomial(2, (E.TWO, 1)).exps == (2, 1)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            Monomial(3, (0, 1))

    def test_bad_ambient(self):
        with pytest.raises(ValueError):
            Monomial(0, ())


def test_mul_div_inverse():
    u = parse("x1*x3^2", 3)
    v = parse("x2^4*x3", 3)
    assert div(mul(u, v), v) == u
    assert u * v == mul(u, v)


def test_div_requires_divisibility():
    with pytest.raises(ValueError):
        div(parse("x1", 3), parse("x2", 3))


def test_degree_helpers():
    u = parse("x1^2*x3^4", 4)
    assert deg(u) == 6
    assert deg_in(u, 3) == 4
    assert deg_in(u, 2) == 0
    assert max_index(u) == 3


def test_max_index_rejects_unit():
    with pytest.raises(ValueError):
        max_index(one(2))


def test_lex_cmp_on_a_slice():
    # within one degree, x1^2 > x1*x2 > x1*x3 > x2^2 > x2*x3 > x3^2
    chain = ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]
    us = [parse(s, 3) for s in chain]
    for a, b in zip(us, us[1:]):
        assert lex_cmp(a, b) > 0
        assert lex_cmp(b, a) < 0
        assert lex_cmp(a, a) == 0


def test_lex_cmp_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        lex_cmp(parse("x1", 2), parse("x1^2", 2))


class TestPred:
    def test_drops_to_previous_block(self):
        assert pred(parse("x2^2*x4*x5", 5)) == parse("x2^2*x4^2", 5)

    def test_refills_with_last_variable(self):
        assert pred(parse("x2^2", 3)) == parse("x1*x3", 3)

    def test_pure_last_variable_power(self):
        assert pred(parse("x3^4", 3)) == parse("x2*x3^3", 3)

    def test_top_of_slice_has_no_predecessor(self):
        with pytest.raises(ValueError):
            pred(parse("x1^3", 3))
        with pytest.raises(ValueError):
            pred(one(3))

    @given(st.integers(2, 5), st.integers(1, 5), st.data())
    def test_pred_moves_up_one_rank(self, n, d, data):
        from gotzmann.combinatorics import enumerate_monomials

        sl = list(enumerate_monomials(n, d))
        i = data.draw(st.integers(1, len(sl) - 1))
        assert pred(sl[i]) == sl[i - 1]


def test_truncate_and_embed():
    u = parse("x1*x2^2*x4^3", 4)
    assert truncate(u, 2) == parse("x1*x2^2", 2)
    assert embed(parse("x1*x2^2", 2), 4) == parse("x1*x2^2", 4)
    assert truncate(embed(u, 6), 4) == u


def test_truncate_validates_range():
    with pytest.raises(ValueError):
        truncate(parse("x1", 3), 4)


class TestSigma:
    def test_known_images(self):
        assert sigma(parse("x2", 5)) == parse("x2*x3*x4*x5", 5)
        assert sigma(parse("x2^2*x3^5", 4)) == parse("x2^2*x3^7*x4^7", 4)

    def test_power_known_image(self):
        assert sigma_pow(parse("x2", 4), 2) == parse("x2*x3^2*x4^3", 4)

    def test_power_zero_is_identity(self):
        u = parse("x1*x3^2", 3)
        assert sigma_pow(u, 0) == u

    @given(monomials, st.integers(0, 6))
    def test_power_matches_iteration(self, u, t):
        v = u
        for _ in range(t):
            v = sigma(v)
        assert sigma_pow(u, t) == v

    @given(
        st.integers(1, 14).flatmap(lambda n: st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
        st.one_of(st.integers(0, 40), st.integers(0, 10**40)),
    )
    def test_power_matches_per_term_binomials(self, exps, t):
        u = Monomial(len(exps), tuple(exps))
        if t == 0:
            assert sigma_pow(u, t) == u
            return
        want = [sum(exps[j] * math.comb(t - 1 + i - j, t - 1) for j in range(i + 1)) for i in range(len(exps))]
        assert sigma_pow(u, t) == Monomial(len(exps), tuple(want))

    @given(monomials, monomials)
    def test_multiplicative(self, u, v):
        if u.n != v.n:
            v = Monomial(u.n, tuple(v.exps[: u.n]) + (0,) * max(0, u.n - v.n))
        assert sigma(mul(u, v)) == mul(sigma(u), sigma(v))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            sigma_pow(parse("x1", 2), -1)
