import math

import pytest
from hypothesis import given, settings, strategies as st

from gotzmann.combinatorics import (
    CapExceeded,
    MonomialSet,
    _lex_rank,
    binom,
    borel_enumerate,
    borel_size,
    enumerate_monomials,
    gap_count,
    lex_rank,
    lexinterval,
    lexsegment,
    prefix_borel_sizes,
)
from gotzmann.monomial import Monomial, parse


def test_binom_matches_stdlib():
    for a in range(12):
        for b in range(12):
            assert binom(a, b) == math.comb(a, b)


def test_binom_rejects_negative_arguments():
    # silent zero here would mask index bugs in the closed forms; a bug, not bad input
    with pytest.raises(RuntimeError):
        binom(-1, 0)
    with pytest.raises(RuntimeError):
        binom(3, -2)


class TestEnumeration:
    def test_known_slice(self):
        got = [str(u) for u in enumerate_monomials(3, 2)]
        assert got == ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]

    def test_slice_sizes(self):
        for n in range(1, 6):
            for d in range(6):
                assert len(enumerate_monomials(n, d)) == math.comb(n + d - 1, d)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_monomials(6, 30, cap=1000)

    @given(st.integers(1, 5), st.integers(0, 5))
    def test_strictly_descending(self, n, d):
        sl = list(enumerate_monomials(n, d))
        for a, b in zip(sl, sl[1:]):
            assert a.exps > b.exps


class TestLexRank:
    def test_known_value(self):
        assert lex_rank(parse("x2*x3", 3)) == 5

    def test_matches_enumeration_order(self):
        for n in range(1, 5):
            for d in range(5):
                for pos, u in enumerate(enumerate_monomials(n, d)):
                    assert lex_rank(u) == pos + 1

    def test_exponent_list_form(self):
        # _lex_rank(u.exps) is lex_rank(u); a core padded with a zero ranks one ambient up, as a
        # tower level ranks its core for the gap count
        for n in range(1, 5):
            for d in range(5):
                up = {v.exps: pos + 1 for pos, v in enumerate(enumerate_monomials(n + 1, d))}
                for u in enumerate_monomials(n, d):
                    assert _lex_rank(u.exps) == lex_rank(u)
                    assert _lex_rank((*u.exps, 0)) == up[(*u.exps, 0)]


class TestSegments:
    def test_segment_length_is_rank(self):
        u = parse("x2^2", 3)
        seg = lexsegment(u)
        assert len(seg) == lex_rank(u)
        assert seg.elements[0] == parse("x1^2", 3)
        assert seg.elements[-1] == u

    def test_interval_is_half_open(self):
        v = parse("x2^2*x3*x4", 5)
        u = parse("x2^2*x4*x5", 5)
        got = [str(z) for z in lexinterval(v, u)]
        assert got == ["x2^2*x3*x5", "x2^2*x4^2", "x2^2*x4*x5"]

    def test_interval_endpoints(self):
        u = parse("x2*x3", 3)
        assert len(lexinterval(u, u)) == 0
        iv = lexinterval(parse("x1^2", 3), u)
        assert len(iv) == lex_rank(u) - 1
        assert u in iv
        assert parse("x1^2", 3) not in iv

    def test_interval_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            lexinterval(parse("x3^2", 3), parse("x1^2", 3))

    def test_segment_cap(self):
        with pytest.raises(CapExceeded):
            lexsegment(parse("x4^9", 4), cap=50)


class TestBorel:
    def test_known_closure(self):
        got = [str(u) for u in borel_enumerate(parse("x2^2", 3))]
        assert got == ["x1^2", "x1*x2", "x2^2"]

    def test_closure_contains_generator_and_top(self):
        u = parse("x2*x4^2", 4)
        closure = borel_enumerate(u)
        assert u in closure
        assert parse("x1^3", 4) in closure

    @given(st.integers(1, 4), st.integers(0, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_size_matches_enumeration(self, n, d, data):
        sl = list(enumerate_monomials(n, d))
        u = data.draw(st.sampled_from(sl))
        assert borel_size(u) == len(borel_enumerate(u))

    @given(st.integers(2, 4), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_closed_under_exchange_moves(self, n, d, data):
        sl = list(enumerate_monomials(n, d))
        u = data.draw(st.sampled_from(sl))
        closure = borel_enumerate(u)
        members = set(closure.elements)
        for w in members:
            for j in range(1, n + 1):
                if w.exps[j - 1] == 0:
                    continue
                for i in range(1, j):
                    e = list(w.exps)
                    e[j - 1] -= 1
                    e[i - 1] += 1
                    assert Monomial(n, tuple(e)) in members

    def test_cap(self):
        with pytest.raises(CapExceeded):
            borel_enumerate(parse("x3^8", 3), cap=10)


def test_prefix_borel_sizes_growth():
    # indices x2, x2, x4 in ambient 4: closures of x2, x2^2, x2^2*x4
    assert prefix_borel_sizes([2, 2, 4]) == [2, 3, 10]
    assert prefix_borel_sizes([]) == []


def test_borel_size_cost_ignores_exponent_size():
    # x2^2*x4*x5^E: sequences j1 <= j2 <= 2 and j2 <= j3 <= 4, then a
    # nondecreasing run of length E inside [j3, 5]
    e = 10**30
    want = sum(
        binom(e + 5 - j3, 5 - j3)
        for j1 in range(1, 3)
        for j2 in range(j1, 3)
        for j3 in range(j2, 5)
    )
    assert borel_size(Monomial(5, (0, 2, 0, 1, e))) == want


def test_prefix_borel_sizes_validates():
    with pytest.raises(ValueError):
        prefix_borel_sizes([3, 2])
    with pytest.raises(ValueError):
        prefix_borel_sizes([0, 1])


def test_gap_count_from_sets():
    for n in (2, 3, 4):
        for d in range(5):
            for u in enumerate_monomials(n, d):
                seg = set(lexsegment(u).elements)
                closure = set(borel_enumerate(u).elements)
                assert closure <= seg
                assert gap_count(u) == len(seg - closure)


class TestMonomialSet:
    def test_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            MonomialSet(2, (parse("x1", 2), parse("x1^2", 2)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            MonomialSet(2, (parse("x2", 2), parse("x1", 2)))

    def test_rejects_ambient_mismatch(self):
        with pytest.raises(ValueError):
            MonomialSet(3, (parse("x1", 2),))

    def test_container_protocol(self):
        s = enumerate_monomials(3, 2)
        assert len(s) == 6
        assert parse("x2^2", 3) in s
        assert parse("x1", 3) not in s
        assert list(s)[0] == parse("x1^2", 3)
        assert s.degree == 2
