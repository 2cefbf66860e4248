from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gotzmann.combinatorics import binom, enumerate_monomials
from gotzmann.maxgen import mg_closed
from gotzmann.monomial import Monomial, embed, one, parse, variable_power
from gotzmann.paths import mc
from gotzmann.threshold import (
    ConjectureScan,
    GotzmannWitness,
    ThresholdReport,
    conjecture_scan,
    interpolate_points,
    is_gotzmann,
    is_gotzmann_oracle,
    report_from_dict,
    report_to_dict,
    tau,
    tau_formula,
    tau_oracle,
    witness_to_dict,
)


class TestIsGotzmann:
    def test_boundary_pair(self):
        assert is_gotzmann(parse("x2^2*x4*x5^6", 5)).is_gotzmann
        assert not is_gotzmann(parse("x2^2*x4*x5^5", 5)).is_gotzmann

    def test_two_variables_always_pass(self):
        for d in range(6):
            for u in enumerate_monomials(2, d):
                assert is_gotzmann(u).is_gotzmann

    def test_unit_passes(self):
        assert is_gotzmann(one(4)).is_gotzmann

    def test_witness_fields(self):
        w = is_gotzmann(parse("x2^2", 3))
        assert isinstance(w, GotzmannWitness)
        assert str(w.mg) == "x3"
        assert str(w.mc) == "x2"
        assert w.gap_count == 1
        assert not w.is_gotzmann

    def test_matches_enumeration_oracle(self):
        for n in range(1, 5):
            for d in range(5):
                for u in enumerate_monomials(n, d):
                    assert is_gotzmann(u).is_gotzmann == is_gotzmann_oracle(u), u


class TestTau:
    def test_worked_example(self):
        assert tau(parse("x2^2*x4", 5), 5).tau == 6

    def test_known_values(self):
        assert tau(parse("x2^2", 4), 4).tau == 2
        assert tau(parse("x3^2", 4), 4).tau == 2
        assert tau(parse("x4^3", 5), 5).tau == 12

    def test_last_variable_factor_lowers_the_answer(self):
        base = tau(parse("x2^2*x4", 5), 5).tau
        for t in range(base + 3):
            shifted = parse("x2^2*x4", 5) * variable_power(5, t, 5)
            assert tau(shifted, 5).tau == max(base - t, 0)

    def test_answer_is_least_passing_shift(self):
        # directly ties the recursion to the witness test it summarizes
        for d in range(4):
            for u0 in enumerate_monomials(3, d):
                lifted = embed(u0, 4)
                value = tau(lifted, 4).tau
                assert is_gotzmann(lifted * variable_power(4, value, 4)).is_gotzmann
                if value > 0:
                    assert not is_gotzmann(lifted * variable_power(4, value - 1, 4)).is_gotzmann

    def test_matches_scanning_oracle(self):
        for n in (3, 4):
            for d in range(4):
                for u0 in enumerate_monomials(n - 1, d):
                    lifted = embed(u0, n)
                    assert tau(lifted, n).tau == tau_oracle(lifted, n)

    def test_report_identity_holds_at_every_level(self):
        rep = tau(parse("x2^2*x4", 5), 5)
        level, stripped = rep, 0
        while level.n > 2:
            core_value = level.f_at_tstar - level.h_at_tstar - level.k_at_tstar + level.t_star
            assert level.delta == level.f_at_tstar - level.h_at_tstar >= 0
            assert level.tau == max(core_value - stripped, 0)
            # the next level answers for the truncation, which may carry
            # a power of its own last variable
            stripped = level.u0.exps[level.n - 2]
            level = level.sub_report
        assert level.tau == 0

    def test_target_evaluated_once_per_level(self, monkeypatch):
        from gotzmann import maxgen

        calls = []
        real = maxgen.mg_closed
        monkeypatch.setattr(maxgen, "mg_closed", lambda u: calls.append(u) or real(u))
        tau(parse("x2^3", 6), 6)
        assert len(calls) == 4

    def test_base_case(self):
        assert tau(parse("x1^3", 2), 2).tau == 0
        assert tau(one(2), 2).tau == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            tau(parse("x1", 2), 1)
        with pytest.raises(ValueError):
            tau(parse("x1", 2), 3)

    def test_oracle_requires_clean_core(self):
        with pytest.raises(ValueError):
            tau_oracle(parse("x3", 3), 3)


class TestExponentIndependence:
    # a closed form that expanded u into single positions would need a list
    # of 10^12 or more entries for each of these

    def test_five_variable_law_at_a_huge_power(self):
        d = 10**12
        assert tau(variable_power(2, d, 5), 5).tau == tau_formula("tau5_x2", d=d)

    def test_four_variable_law_at_a_huge_power(self):
        b = 10**15
        assert tau(Monomial(4, (0, b, 3, 0)), 4).tau == tau_formula("tau4", b=b, c=3)

    def test_walk_and_gap_form_agree_at_a_huge_last_power(self):
        u = Monomial(5, (0, 2, 0, 1, 10**30))
        assert mc(u) == mg_closed(u)
        assert is_gotzmann(u).is_gotzmann


class TestFormulas:
    def test_three_variable_law(self):
        for a in range(3):
            for b in range(10):
                want = tau_formula("tau3", b=b, a=a)
                assert want == binom(b, 2)
                assert tau(Monomial(3, (a, b, 0)), 3).tau == want

    def test_four_variable_law(self):
        for b in range(5):
            for c in range(5):
                got = tau(Monomial(4, (0, b, c, 0)), 4).tau
                assert got == tau_formula("tau4", b=b, c=c)

    def test_four_variable_known_point(self):
        assert tau_formula("tau4", b=3, c=0) == 10

    def test_five_variable_law(self):
        for d in range(2, 6):
            got = tau(Monomial(5, (0, d, 0, 0, 0)), 5).tau
            assert got == tau_formula("tau5_x2", d=d)

    def test_five_variable_known_points(self):
        assert tau_formula("tau5_x2", d=2) == 4
        assert tau_formula("tau5_x2", d=3) == 56

    def test_cubic_term_always_divides(self):
        # the (b+4)*C(b,2) piece of the four-variable law is a multiple of 3
        for b in range(60):
            assert (b + 4) * binom(b, 2) % 3 == 0

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            tau_formula("tau7", d=1)

    def test_bad_parameters(self):
        with pytest.raises(TypeError):
            tau_formula("tau3", q=2)
        with pytest.raises(ValueError):
            tau_formula("tau3", b=-1)


class TestInterpolation:
    def test_recovers_binomial(self):
        pts = [(Fraction(d), Fraction(binom(d, 2))) for d in range(2, 8)]
        coeffs = interpolate_points(pts)
        assert coeffs == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))

    def test_constant(self):
        pts = [(Fraction(d), Fraction(7)) for d in range(4)]
        assert interpolate_points(pts) == (Fraction(7),)

    def test_needs_distinct_abscissas(self):
        with pytest.raises(ValueError):
            interpolate_points([(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))])


class TestConjectureScan:
    def test_four_variables_certifies_its_degree(self):
        scan = conjecture_scan(4, range(2, 9))
        assert isinstance(scan, ConjectureScan)
        assert scan.conjectured_degree == 4
        assert len(scan.interp_coeffs) - 1 == 4
        assert scan.degree_match is True

    def test_three_variables_has_no_ratios(self):
        # tau is identically zero two variables down, so every ratio divides by zero
        scan = conjecture_scan(3, range(2, 7))
        assert all(r.ratio is None for r in scan.rows)
        assert scan.degree_match is True
        assert len(scan.interp_coeffs) - 1 == 2

    def test_five_variable_ratios_are_exact(self):
        scan = conjecture_scan(5, range(2, 6))
        by_d = {r.d: r for r in scan.rows}
        assert by_d[3].ratio == Fraction(56, binom(tau_formula("tau4", b=3, c=0), 2))
        assert by_d[5].ratio == Fraction(
            tau_formula("tau5_x2", d=5), binom(tau_formula("tau4", b=5, c=0), 2)
        )

    def test_too_few_points_leaves_match_open(self):
        scan = conjecture_scan(5, range(2, 6))
        assert scan.conjectured_degree == 8
        assert scan.degree_match is None

    def test_rejects_tiny_ambient(self):
        with pytest.raises(ValueError):
            conjecture_scan(2, range(2, 4))


class TestSerialization:
    def test_report_dict_uses_decimal_strings(self):
        rep = tau(parse("x2^2", 4), 4)
        d = report_to_dict(rep)
        assert d["tau"] == "2"
        assert d["n"] == 4
        assert d["u0"] == "x2^2"
        assert d["sub_report"]["n"] == 3
        assert isinstance(d["f"], str)

    def test_witness_dict(self):
        d = witness_to_dict(is_gotzmann(parse("x2^2", 3)))
        assert d["is_gotzmann"] is False
        assert d["mg"] == "x3"
        assert d["mc"] == "x2"
        assert d["gap_count"] == "1"
        assert "note" not in d


@given(st.integers(3, 4), st.integers(0, 3), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_tau_decomposition_law_random(n, d, t, data):
    u0 = data.draw(st.sampled_from(list(enumerate_monomials(n - 1, d))))
    lifted = embed(u0, n)
    core_value = tau(lifted, n).tau
    shifted = lifted * variable_power(n, t, n)
    assert tau(shifted, n).tau == max(core_value - t, 0)


@given(st.integers(2, 7).flatmap(lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_report_from_dict_inverts_report_to_dict(exps):
    n = len(exps)
    u = Monomial(n, tuple(exps))
    rep = tau(u, n)
    assert report_from_dict(report_to_dict(rep), u) == rep
