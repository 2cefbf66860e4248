import inspect
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gotzmann import threshold
from gotzmann.combinatorics import binom, enumerate_monomials, lex_rank
from gotzmann.maxgen import mg_closed, target_decompose
from gotzmann.monomial import Monomial, deg_in, embed, one, parse, truncate, variable_power
from gotzmann.paths import advance, find_z, mc
from gotzmann.threshold import (
    ConjectureScan,
    GotzmannWitness,
    ThresholdReport,
    conjecture_scan,
    is_gotzmann,
    is_gotzmann_oracle,
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

    def test_never_ranks_the_slice(self, monkeypatch):
        from gotzmann import combinatorics, paths, threshold

        calls = []
        spy = lambda u: calls.append(u) or lex_rank(u)
        for module in (combinatorics, paths, threshold):
            monkeypatch.setattr(module, "lex_rank", spy)
        assert is_gotzmann(parse("x2^2*x4*x5^6", 5)).is_gotzmann
        assert not is_gotzmann(parse("x2^2*x4*x5^5", 5)).is_gotzmann
        assert calls == []

    @pytest.mark.parametrize("n", range(10, 15))
    def test_x2_powers_certify_with_square_roots_only(self, n, monkeypatch):
        # mg guesses every partial block of the walk at tau; each guess is one isqrt
        from gotzmann import paths

        u0 = parse("x2^3", n)
        t = tau(u0, n).tau
        bounds, bases = [], []
        bound, least_base = paths._bound, paths._least_base
        monkeypatch.setattr(paths, "_bound", lambda *args: bounds.append(args) or bound(*args))
        monkeypatch.setattr(paths, "_least_base", lambda *args: bases.append(args) or least_base(*args))
        assert is_gotzmann(u0 * variable_power(n, t, n)).is_gotzmann
        assert bounds and bases == []
        assert not is_gotzmann(u0 * variable_power(n, t - 1, n)).is_gotzmann

    @pytest.mark.parametrize("n, d", [(14, 10), (16, 5)])
    def test_witness_pair_at_large_n(self, n, d, monkeypatch):
        # the budget walks at tau and tau - 1 shift their long lower rows (paths._row_down), and
        # build no fresh row: u = x2^d * x_n^t climbs its x_n run over the empty x3 .. x_{n-1}
        # with _row(t + 1, n - 3), entries 2 .. n - 2 of the column C(t-1+k, k) that shifts its
        # gap form, and every other row is shifted or grown
        from gotzmann import paths

        shifts, convolve = [], paths._convolve
        monkeypatch.setattr(paths, "_convolve", lambda *args: shifts.append(1) or convolve(*args))
        u0 = variable_power(2, d, n)
        t = tau(u0, n).tau
        rows, row = [], paths._row
        monkeypatch.setattr(paths, "_row", lambda a, count: rows.append((a, count)) or row(a, count))
        shifts.clear()
        assert is_gotzmann(u0 * variable_power(n, t, n)).is_gotzmann
        assert not is_gotzmann(u0 * variable_power(n, t - 1, n)).is_gotzmann
        assert shifts and rows == []

    def test_gap_count_beyond_the_slice_is_an_internal_error(self, monkeypatch, capsys):
        # only a broken gap form can ask for more steps than the slice holds; the fault is a
        # run walk of the core that hands back mg(x2^2) = x3^100 in ambient 3
        from gotzmann import cli, threshold

        monkeypatch.setattr(threshold, "_run_walk", lambda exps, n=0, levels=None: ([1, 0], [0, 0, 100]))
        for max_jumps in (10**6, 1):  # the walk leaves the slice, or the jump cap binds first
            with pytest.raises(RuntimeError, match="gap count of x2\\^2 exceeds the predecessors"):
                is_gotzmann(parse("x2^2", 3), max_jumps=max_jumps)
            argv = ["is-gotzmann", "--n", "3", "--max-jumps", str(max_jumps), "x2^2"]
            assert cli.main(argv) == cli.EXIT_INTERNAL
            assert capsys.readouterr().out == ""
        with pytest.raises(ValueError, match="exceeds the 3 predecessors"):
            advance(parse("x2^2", 3), 100)

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_witness_mg_is_the_closed_form(self, n, data):
        # the witness shifts its core's run-walk gap form by its own x_n run: mg_closed(u),
        # with that run at 0, small and of 10**30
        core = data.draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 10**30)), min_size=n - 1, max_size=n - 1))
        t = data.draw(st.one_of(st.just(0), st.integers(1, 40), st.just(10**30)))
        u = Monomial(n, (*core, t))
        assert is_gotzmann(u).mg == mg_closed(u)

    def test_matches_enumeration_oracle(self):
        for n in range(1, 5):
            for d in range(5):
                for u in enumerate_monomials(n, d):
                    assert is_gotzmann(u).is_gotzmann == is_gotzmann_oracle(u), u


class TestTau:
    def test_worked_example(self):
        assert tau(parse("x2^2*x4", 5), 5).tau == 6

    def test_traces_beyond_the_digit_limit(self):
        # steps and exponents in the records of tau(x2^6, 13) pass 4,300 digits
        def traced(limit):
            sys.set_int_max_str_digits(limit)
            records = []
            rep = tau(parse("x2^6", 13), 13, trace=records.append)
            u = parse("x2^6", 13) * variable_power(13, rep.tau, 13)
            assert is_gotzmann(u, trace=records.append).is_gotzmann
            assert sys.get_int_max_str_digits() == limit
            return records

        old = sys.get_int_max_str_digits()
        try:
            records = traced(sys.int_info.default_max_str_digits)
            assert max(len(r["steps_so_far"]) for r in records) > 4300
            assert records == traced(0)  # str with no limit referees every record
        finally:
            sys.set_int_max_str_digits(old)

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
        # one run walk per tower gives every level its closure size and mg(u0) at deg(u0), which
        # the level checks against its gap count and shifts by sigma^(t*); that shift is the one
        # route to f
        calls, real = [], threshold._run_walk
        monkeypatch.setattr(
            threshold, "_run_walk", lambda exps, n=0, levels=None: calls.append((n, tuple(exps))) or real(exps, n, levels)
        )
        assert tau(parse("x2^3", 6), 6).tau == 1438
        assert calls == [(6, (0, 3, 0, 0, 0))]

    def test_x_n_power_evaluated_once_per_level(self, monkeypatch):
        # tau reads f off the target that its walk also takes; nothing evaluates it again
        from gotzmann import combinatorics, maxgen

        calls, real = [], combinatorics._run_walk
        spy = lambda exps, n=0, levels=None: calls.append(n) or real(exps, n, levels)
        for module in (combinatorics, maxgen, threshold):
            monkeypatch.setattr(module, "_run_walk", spy)
        for name in ("mg_closed", "mg_shifted", "target_decompose"):
            monkeypatch.setattr(maxgen, name, lambda *args: pytest.fail("a closed form evaluated again"))
            monkeypatch.setattr(threshold, name, lambda *args: pytest.fail("a closed form evaluated again"), raising=False)
        tau(parse("x2^3", 6), 6)
        assert calls == [6]

    def test_every_level_matches_the_public_find_z(self):
        # each level's f, h and k are what target_decompose and then the public find_z give at
        # its core and t*, on seeded cores at n <= 9 and on x2^d up to n = 12
        rng = random.Random(27)
        cores = [variable_power(2, d, n) for n in range(3, 13) for d in (1, 2, 4, 6)]
        cores += [Monomial(n, tuple(rng.randint(0, 3) for _ in range(n - 1)) + (0,)) for n in range(3, 10) for _ in range(8)]
        checked = 0
        for u in cores:
            level = tau(u, u.n)
            while level.n > 2:
                n, u0, t = level.n, truncate(level.u0, level.n - 1), level.t_star
                z, state = find_z(u0, n, t)
                want = (target_decompose(u0, n, t).xn_exp, deg_in(state.cost, n), deg_in(z, n))
                assert (level.f_at_tstar, level.h_at_tstar, level.k_at_tstar) == want, (u, n)
                checked += 1
                level = level.sub_report
        assert checked == 444

    def test_public_find_z_climbs_with_the_levels_column(self, monkeypatch):
        # find_z is a level's own walk: its origin u0 * x_14^t climbs its x_n run over the empty
        # x3 .. x13 with _row(t + 1, 11), entries 2 .. 12 of the column that shifts its target,
        # so it builds no such row; it takes no precomputed target
        from gotzmann import paths

        u0 = variable_power(2, 10, 13)
        t = tau(u0, 13).tau
        rows, row = [], paths._row
        monkeypatch.setattr(paths, "_row", lambda a, count: rows.append((a, count)) or row(a, count))
        z, state = find_z(u0, 14, t)
        assert (t + 1, 11) not in rows
        assert deg_in(z, 14) == tau(embed(u0, 14), 14).k_at_tstar and state.current is z
        assert "decomp" not in inspect.signature(find_z).parameters

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

    def test_x2_law_is_the_small_ambient_laws(self):
        # at n = 3, 4 and 5 both sides are polynomials in d of degree at most 8, so
        # agreement on 20 points is an identity
        for d in range(20):
            want = [tau_formula("tau3", b=d), tau_formula("tau4", b=d, c=0), tau_formula("tau5_x2", d=d)]
            assert [tau_formula("tau_x2", n=n, d=d) for n in (3, 4, 5)] == want

    @pytest.mark.parametrize("n, d", [(16, 5), (18, 3)])
    def test_x2_law_at_large_n(self, n, d):
        # the measured law referees tau where its top levels walk runs of thousands of bits
        assert tau(variable_power(2, d, n), n).tau == tau_formula("tau_x2", n=n, d=d)

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
        for n, d in ((2, 3), (5, -1)):
            with pytest.raises(ValueError):
                tau_formula("tau_x2", n=n, d=d)


class TestInterpolation:
    def test_recovers_binomial(self):
        coeffs = threshold._forward_fit(2, [binom(d, 2) for d in range(2, 8)])
        assert coeffs == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))

    def test_constant(self):
        assert threshold._forward_fit(0, [7] * 4) == (Fraction(7),)

    def test_scan_needs_consecutive_ascending_d(self):
        for d_values in ([2, 3, 5], [4, 3, 2], [3, 3], range(8, 2, -1)):
            with pytest.raises(ValueError, match="consecutive ascending"):
                conjecture_scan(4, d_values)

    @pytest.mark.parametrize("n, lo, hi", [(4, 2, 8), (5, 0, 12), (6, 0, 19)])
    def test_agrees_with_sympy(self, n, lo, hi):
        scan = conjecture_scan(n, range(lo, hi + 1))
        x = sympy.Symbol("x")
        poly = sympy.Poly(sympy.interpolate([(r.d, r.tau_n) for r in scan.rows], x), x)
        assert scan.interp_coeffs == tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))

    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
        st.integers(0, 50),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovers_integer_polynomials(self, coeffs, d0, extra):
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        values = [sum(c * d**i for i, c in enumerate(coeffs)) for d in range(d0, d0 + len(coeffs) + extra)]
        assert threshold._forward_fit(d0, values) == tuple(Fraction(c) for c in coeffs)

    def test_five_variables_fit_is_the_tau5_law(self, monkeypatch):
        # _tau5_x2 expanded by sympy: its binomials become falling factorials of a symbol
        d = sympy.Symbol("d", nonnegative=True, integer=True)
        monkeypatch.setattr(threshold, "binom", lambda a, k: sympy.Mul(*[a - i for i in range(k)]) / sympy.factorial(k))
        law = sympy.Poly(sympy.expand(threshold._tau5_x2(d)), d)
        monkeypatch.undo()
        expected = tuple(Fraction(int(c.p), int(c.q)) for c in reversed(law.all_coeffs()))
        assert conjecture_scan(5, range(0, 12)).interp_coeffs == expected


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

    def test_dicts_beyond_the_digit_limit(self):
        # f of tau(x2^6, 13) and the witness's gap count at its tau pass 4,300 digits
        rep = tau(parse("x2^6", 13), 13)
        w = is_gotzmann(parse("x2^6", 13) * variable_power(13, rep.tau, 13))

        def rendered(limit):
            sys.set_int_max_str_digits(limit)
            return report_to_dict(rep), witness_to_dict(w)

        old = sys.get_int_max_str_digits()
        try:
            dicts = rendered(sys.int_info.default_max_str_digits)
            assert len(dicts[0]["f"]) > 4300 and len(dicts[1]["gap_count"]) > 4300
            assert dicts == rendered(0)  # str with no limit referees both
        finally:
            sys.set_int_max_str_digits(old)

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
