import copy
import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from gotzmann.combinatorics import CapExceeded, binom, enumerate_monomials, gap_count, lex_rank, lexinterval
from gotzmann.maxgen import maxgen_of_set, mg_closed, target_decompose
from gotzmann.monomial import Monomial, _column, deg, deg_in, max_index, mul, one, parse, pred, sigma
from gotzmann.paths import (
    DEFAULT_MAX_JUMPS,
    TargetOvershoot,
    WalkState,
    _block_exps,
    _Budget,
    _bound,
    _Deficit,
    _iroot,
    _least_base,
    _SHIFT_BITS,
    _row,
    _row_below,
    _row_down,
    _spend,
    _walk,
    advance,
    advance_oracle,
    cost_between,
    find_z,
    mc,
)
from gotzmann.threshold import is_gotzmann, tau


def random_slice_pair(data, n_lo=2, n_hi=5, d_lo=1, d_hi=4):
    n = data.draw(st.integers(n_lo, n_hi))
    d = data.draw(st.integers(d_lo, d_hi))
    sl = list(enumerate_monomials(n, d))
    i = data.draw(st.integers(0, len(sl) - 2))
    j = data.draw(st.integers(i + 1, len(sl) - 1))
    return sl[j], sl[i]  # (below, above)


def _any_guide(n):
    """A componentwise target for _Budget: any integers, so that guesses also miss."""
    return st.lists(st.one_of(st.integers(-2, 40), st.integers(0, 10**40)), min_size=n, max_size=n)


class TestAdvance:
    def test_zero_budget(self):
        u = parse("x2*x3", 3)
        st_ = advance(u, 0)
        assert st_ == WalkState(u, one(3), 0)

    def test_single_step_is_pred(self):
        u = parse("x2^2*x4*x5", 5)
        assert advance(u, 1).current == pred(u)

    def test_budget_checked_up_front(self):
        u = parse("x3^2", 3)
        with pytest.raises(ValueError):
            advance(u, lex_rank(u))

    def test_cost_degree_counts_steps(self):
        u = parse("x4^3", 4)
        st_ = advance(u, 7)
        assert deg(st_.cost) == 7
        assert st_.steps == 7

    def test_jump_cap(self):
        with pytest.raises(CapExceeded):
            advance(parse("x4^40", 4), 8000, max_jumps=3)

    def test_elementary_cap(self):
        with pytest.raises(CapExceeded):
            advance_oracle(parse("x4^40", 4), 8000, cap=10)

    def test_negative_jump_cap_is_rejected(self):
        with pytest.raises(ValueError):
            advance(parse("x2^2*x4*x5", 5), 3, max_jumps=-1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_engines_agree(self, data):
        below, above = random_slice_pair(data)
        budget = lex_rank(below) - lex_rank(above)
        fast = advance(below, budget)
        slow = advance_oracle(below, budget)
        assert fast == slow
        assert fast.current == above

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cost_is_maxgen_of_interval(self, data):
        below, above = random_slice_pair(data)
        budget = lex_rank(below) - lex_rank(above)
        st_ = advance(below, budget)
        walked = lexinterval(above, below)
        assert st_.cost == maxgen_of_set(walked)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_guide_changes_no_jump(self, data):
        # the guide only guesses partial blocks, and the budget rule confirms each guess
        n = data.draw(st.integers(2, 8))
        exps = data.draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 60)), min_size=n, max_size=n))
        u = Monomial(n, tuple(exps))
        mg = mg_closed(u)
        budget = deg(mg) if data.draw(st.booleans()) else data.draw(st.integers(0, lex_rank(u) - 1))
        kind = data.draw(st.sampled_from(["mg", "zeros", "any"]))
        if kind == "mg":
            guide = list(mg.exps)
        elif kind == "zeros":
            guide = [0] * n
        else:
            guide = data.draw(_any_guide(n))
        plain, guided = [], []
        state = _walk(u, _Budget(budget), DEFAULT_MAX_JUMPS, plain.append)
        assert _walk(u, _Budget(budget, guide), DEFAULT_MAX_JUMPS, guided.append) == state
        assert guided == plain

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_xn_power_steps_cost_xn_each(self, n, data):
        # with x_n^a in u, each of the first b <= a steps trades one x_n for x_{n-1}
        exps = [data.draw(st.integers(0, 3)) for _ in range(n - 1)]
        a = data.draw(st.integers(1, 12))
        b = data.draw(st.integers(0, a))
        u = Monomial(n, tuple(exps) + (a,))
        current = Monomial(n, tuple(exps[:-1]) + (exps[-1] + b, a - b))
        want = WalkState(current, Monomial(n, (0,) * (n - 1) + (b,)), b)
        assert advance(u, b) == want
        assert advance_oracle(u, b) == want


class TestBlockCost:
    def test_known_conversion(self):
        # x2^2*x4^2 -> x2^2*x3*x4 passes through x2^2*x3*x5, total cost x4*x5
        records = []
        advance(parse("x2^2*x4^2", 5), 2, trace=records.append)
        assert [(r["to"], r["block_cost"]) for r in records] == [("x2^2*x3*x4", "x4*x5")]

    def test_trace_records_jumps(self):
        records = []
        advance(parse("x2^2*x4*x5", 5), 3, trace=records.append)
        assert [r["to"] for r in records][-1] == "x2^2*x3*x4"
        assert all(set(r) == {"from", "to", "block_cost", "steps_so_far"} for r in records)


class TestCostBetween:
    def test_worked_example(self):
        got = cost_between(parse("x2^2*x4*x5", 5), parse("x2^2*x3*x4", 5))
        assert got == parse("x4*x5^2", 5)

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            cost_between(parse("x1*x2", 3), parse("x2^2", 3))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_shift_compatibility(self, data):
        below, above = random_slice_pair(data)
        n = below.n
        lift = lambda w: Monomial(n, w.exps[:-1] + (w.exps[-1] + 1,))
        assert cost_between(lift(below), lift(above)) == sigma(cost_between(below, above))


def test_u_tilde_spans_the_gap_count():
    u = parse("x2^2", 3)
    ut = is_gotzmann(u).u_tilde
    assert lex_rank(u) - lex_rank(ut) == gap_count(u)


def test_mc_known_value():
    assert mc(parse("x2^2", 3)) == parse("x2", 3)


def test_mc_and_cost_between_rank_the_slice_once_each(monkeypatch):
    # the gap count and a rank difference both fit in the slice, so neither walk is guarded
    from gotzmann import combinatorics, paths

    calls = []
    spy = lambda u: calls.append(u) or lex_rank(u)
    for module in (combinatorics, paths):
        monkeypatch.setattr(module, "lex_rank", spy)
    assert mc(parse("x2^2", 3)) == parse("x2", 3)
    assert len(calls) == 1
    calls.clear()
    assert cost_between(parse("x2^2*x4*x5", 5), parse("x2^2*x3*x4", 5)) == parse("x4*x5^2", 5)
    assert len(calls) == 2


def test_mc_equals_mg_exactly_when_gotzmann():
    from gotzmann.threshold import is_gotzmann_oracle

    for u in enumerate_monomials(3, 3):
        assert (mc(u) == mg_closed(u)) == is_gotzmann_oracle(u)


def _first_hit(origin, deficit):
    """Step-by-step reference for the first-hit walk.

    One predecessor at a time; each step leaving a monomial with largest
    variable x_m spends one x_m, and the hit is the first point whose
    accumulated below-x_n spend equals the deficit.  A step that the deficit
    cannot pay means no hit: costs only grow along the chain.
    """
    n = origin.n
    deficit = list(deficit)
    w = origin
    cost = [0] * n
    while any(deficit):
        m = max_index(w)
        if m == 1:
            raise TargetOvershoot("slice exhausted")
        if m < n:
            if deficit[m - 1] == 0:
                raise TargetOvershoot("component exhausted")
            deficit[m - 1] -= 1
        cost[m - 1] += 1
        w = pred(w)
    return WalkState(w, Monomial(n, tuple(cost)), sum(cost))


class TestFindZ:
    def test_worked_family(self):
        for t in range(1, 7):
            z, st_ = find_z(parse("x2^2*x4", 4), 5, t)
            assert z == Monomial(5, (0, 3, 1, 0, t - 1))
            assert deg_in(st_.cost, 5) == binom(t + 3, 2) - 3

    def test_second_family(self):
        for t in range(1, 7):
            z, st_ = find_z(parse("x2^2", 3), 4, t)
            assert z == Monomial(4, (0, 3, 0, t - 1))
            assert deg_in(st_.cost, 4) == t

    def test_no_hit_below_threshold(self):
        with pytest.raises(TargetOvershoot, match=r"^target component x2 is exhausted; "):
            find_z(parse("x2^2", 3), 4, 0)

    def test_successive_hits_differ_by_last_variable(self):
        from gotzmann.threshold import tau

        u0 = parse("x2*x3^2", 4)
        t_lo = tau(u0, 4).tau  # hits exist from here upward
        prev = None
        for t in range(t_lo, t_lo + 4):
            z, _ = find_z(u0, 5, t)
            if prev is not None:
                assert z == mul(prev, parse("x5", 5))
            prev = z

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_elementary_reference(self, data):
        n = data.draw(st.integers(3, 5))
        d = data.draw(st.integers(1, 3))
        u0 = data.draw(st.sampled_from(list(enumerate_monomials(n - 1, d))))
        t = data.draw(st.integers(0, 6))
        try:
            want = _first_hit(Monomial(n, u0.exps + (t,)), target_decompose(u0, n, t).base.exps[: n - 1])
        except TargetOvershoot:
            with pytest.raises(TargetOvershoot):
                find_z(u0, n, t)
            return
        assert find_z(u0, n, t) == (want.current, want)

    def test_jump_cap(self):
        with pytest.raises(CapExceeded):
            find_z(parse("x2^4", 4), 5, 31, max_jumps=2)


class TestFirstHitLemma:
    """Before the first hit z the deficit is the cost from the walk's state to z, so a block
    or climb that fits it at x_m and x_{m+1} (a climb: at its lowest variable) ends at or before
    z and fits everywhere: the deficit rule reads only those components."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_walk_finds_the_steppers_first_hit(self, data):
        # reachable deficits (the cost of k steps ahead) and arbitrary ones: the walk returns
        # the stepper's first hit, or raises exactly when the stepper finds none
        n = data.draw(st.integers(3, 9))
        at = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
        u = Monomial(n, tuple(at.count(i) for i in range(1, n + 1)))
        kind = data.draw(st.sampled_from(["ahead", "arbitrary"]))
        if kind == "ahead":
            k = data.draw(st.integers(0, lex_rank(u) - 1))
            deficit = list(advance(u, k).cost.exps[: n - 1])
        else:
            part = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 10**4))
            deficit = data.draw(st.lists(part, min_size=n - 1, max_size=n - 1))
        try:
            want = _first_hit(u, deficit)
        except TargetOvershoot:
            want = TargetOvershoot
        for trace in (None, [].append):
            try:
                got = _walk(u, _Deficit(list(deficit)), DEFAULT_MAX_JUMPS, trace)
            except TargetOvershoot:
                got = TargetOvershoot
            assert got == want
        if kind == "ahead":
            assert want is not TargetOvershoot

    def test_climb_of_the_x_n_block_alone(self, monkeypatch):
        # at j = n a climb is the one full block at x_n, which costs nothing below x_n, so only
        # the nonzero test reads the deficit
        assert _Deficit([1, 0, 0]).climbs(4, [3]) and _Deficit([0, 2, 0]).climbs(4, [10**30])
        assert not _Deficit([0, 0, 0]).climbs(4, [3])
        u = parse("x2*x4^3", 4)  # x4^3 over an empty x3: the origin climb at j = n
        taken, climbs = [], _Deficit.climbs

        def spy_climbs(rule, j, exps):
            taken.append((j, climbs(rule, j, exps)))
            return taken[-1][1]

        monkeypatch.setattr(_Deficit, "climbs", spy_climbs)
        for k in range(1, lex_rank(u)):
            deficit = advance(u, k).cost.exps[:3]
            call = lambda trace: _walk(u, _Deficit(list(deficit)), DEFAULT_MAX_JUMPS, trace)
            out = _outcome(call)
            assert out == _refused(call) and out[0] == _first_hit(u, deficit)
        assert (4, True) in taken


class _WholeBlockDeficit(_Deficit):
    """The deficit rule's referee: it shrinks by one every block whose cost below x_n would
    use up the deficit, at any x_m, full or partial, where the rule shrinks only the partial
    block at x_{n-1} that the first-hit lemma names."""

    def largest(self, m, a, tops):
        if not tops:
            return a
        d = self.deficit[m - 1:]
        l = _bound(a, tops, self.deficit, m - 1)
        if l and not any(self.deficit[: m - 1]):
            exps = [a] + tops if l == a else _block_exps(a, l, tops, _row(a - l, len(tops)))
            if d == exps[: len(tops)]:
                l -= 1
        if 0 < l < a:
            self.low = _row(a - l, len(tops))
        return l


class TestOneShrink:
    """A block at x_m < x_{n-1} ends with a step paid at x_m or x_{m+1}, and a full block at
    x_{n-1} with its own step there, so a block of either kind that uses up the deficit ends
    at the first hit: only a partial block at x_{n-1} is shrunk.  Against the referee that
    shrinks them all, the walk gives the same state or error in no more jumps."""

    @staticmethod
    def _both(walk):
        """walk(rule, trace)'s outcome and jump count under the deficit rule and under the
        referee.  find_z builds its own rule, so the referee stands in for it in paths too."""
        from gotzmann import paths

        got = []
        for rule in (_Deficit, _WholeBlockDeficit):
            with mock.patch.object(paths, "_Deficit", rule):
                out, records = _outcome(lambda trace: walk(rule, trace))
            got.append((out, len(records)))  # a traced walk takes no climb: a record per jump
        return got

    def test_same_answers_in_no_more_jumps(self):
        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def check(data):
            # find_z's targets, at and near the threshold one ambient down, and reachable
            # deficits: the cost below x_n of k steps ahead
            n = data.draw(st.integers(3, 10))
            part = st.one_of(st.integers(0, 4), st.integers(0, 10**30))
            head = tuple(data.draw(st.lists(part, min_size=n - 1, max_size=n - 1)))
            if data.draw(st.booleans()):
                u0 = Monomial(n - 1, head)
                t = data.draw(st.one_of(st.integers(0, 40), st.integers(-2, 3).map(lambda dt: max(0, tau(u0, n - 1).tau + dt))))
                walk = lambda rule, trace: find_z(u0, n, t, trace=trace)
            else:
                u = Monomial(n, head + (data.draw(part),))
                assume(deg(u))
                deficit = advance(u, data.draw(st.integers(0, lex_rank(u) - 1))).cost.exps[: n - 1]
                walk = lambda rule, trace: _walk(u, rule(list(deficit)), DEFAULT_MAX_JUMPS, trace)
            (out, jumps), (want, referee_jumps) = self._both(walk)
            assert out == want and jumps <= referee_jumps

        check()
        # strictly fewer, on a case that runs every time: x2^5's first hit at t = 75 in ambient 5
        walk = lambda rule, trace: find_z(parse("x2^5", 4), 5, 75, trace=trace)
        (out, jumps), (want, referee_jumps) = self._both(walk)
        assert out == want and (jumps, referee_jumps) == (3, 7)

    def test_only_a_partial_block_at_x_n_minus_1_is_shrunk(self, monkeypatch):
        # seeded towers: every block the rule admits below its _bound is a partial block at
        # x_{n-1} that the bound would fill to the deficit's x_{n-1} exponent, one unit longer,
        # and the rule builds its lower row once, shifted or fresh (_row_down), and no block cost
        from gotzmann import paths

        shrunk, inside, real = [], [], _Deficit.largest
        monkeypatch.setattr(paths, "_row_down", lambda *args: inside.append("row") or _row_down(*args))
        monkeypatch.setattr(paths, "_block_exps", lambda *args: inside.append("exps") or _block_exps(*args))

        def spy_largest(rule, m, a, tops):
            n = len(rule.deficit) + 1
            bound = _bound(a, tops, rule.deficit, m - 1) if tops else a
            inside.clear()
            l = real(rule, m, a, tops)
            assert inside == (["row"] if 0 < l < a else [])
            if l < bound:
                shrunk.append((m, a, l))
                assert m == n - 1 and l + 1 == bound == rule.deficit[m - 1] < a
            return l

        monkeypatch.setattr(_Deficit, "largest", spy_largest)
        rng = random.Random(20261020)
        for n in range(3, 11):
            for _ in range(16):
                tau(Monomial(n, tuple(rng.randint(0, 4) for _ in range(n - 1)) + (0,)), n)
        tau(parse("x2^10", 14), 14)
        assert len(shrunk) >= 10  # 15 on this grid


def _largest_l(a, fits):
    """Largest l in [0, a] passing a monotone predicate (doubling, then bisection)."""
    if a == 0 or not fits(1):
        return 0
    if fits(a):
        return a
    lo = 1
    hi = 2
    while hi < a and fits(hi):
        lo = hi
        hi = min(hi * 2, a)
    # fits(lo) holds, fits(hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _exps(a, l, tops):
    """_block_exps with its lower row built here, from _row(a - l, .)."""
    return _block_exps(a, l, tops, _row(a - l, len(tops)))


def _tops(m, a, n):
    return [binom(a + s - 1, s + 1) for s in range(1, n - m + 1)]


def _budget_fits(left, m, a, n):
    return lambda l: sum(_exps(a, l, _tops(m, a, n))) <= left


def _deficit_fits(deficit, m, a, n):
    return lambda l: all(e <= d for d, e in zip(deficit[m - 1:], _exps(a, l, _tops(m, a, n))))


_sizes = st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 10**30))


class TestLargestBlock:
    """The solved block size against the bisection over l that it replaced,
    with find_z's exact-hit shrink at x_{n-1} applied after it."""

    @given(st.integers(2, 20), st.data())
    @settings(max_examples=150, deadline=None)
    def test_budget_matches_bisection(self, n, data):
        m = data.draw(st.integers(2, n))
        a = data.draw(_sizes)
        kind = data.draw(st.sampled_from(["near", "unit", "any"]))
        if kind == "near":
            # near the cost of some block, where an off-by-one would show
            l0 = data.draw(st.integers(0, a))
            left = max(0, sum(_exps(a, l0, _tops(m, a, n))) + data.draw(st.integers(-2, 2)))
        elif kind == "unit":
            # beside C(a+S-1, S), the steps of a one-unit block, S = n - m
            left = max(0, binom(a + n - m - 1, n - m) + data.draw(st.integers(-1, 1))) if a else 0
        else:
            left = data.draw(st.integers(0, 10**60))
        want = _largest_l(a, _budget_fits(left, m, a, n))
        guide = data.draw(st.sampled_from([None, "near", "any"]))
        if guide == "near":  # the wanted block's cost, each component give or take one
            near = _exps(a, want, _tops(m, a, n))
            guide = [0] * (m - 1) + [e + data.draw(st.integers(-1, 1)) for e in near]
        elif guide == "any":
            guide = data.draw(_any_guide(n))
        rule = _Budget(left, guide)
        got = rule.largest(m, a, _tops(m, a, n))
        assert got == want
        if 0 < got < a:  # a partial block hands the walk its lower row
            assert rule.low == _row(a - got, n - m)

    @given(st.integers(2, 20), st.data())
    @settings(max_examples=150, deadline=None)
    def test_deficit_matches_bisection(self, n, data):
        # deficits that some state meets: the cost below x_n from the block's start state to
        # a state k steps ahead, near the steps of some block or anywhere in the slice
        m = data.draw(st.integers(2, n))
        a = data.draw(_sizes.filter(bool))
        head = data.draw(st.lists(st.integers(0, 3), min_size=m - 1, max_size=m - 1))
        u = Monomial(n, tuple(head) + (a,) + (0,) * (n - m))
        if data.draw(st.booleans()):
            steps = sum(_exps(a, data.draw(st.integers(0, a)), _tops(m, a, n))) + data.draw(st.integers(-2, 2))
        else:
            steps = data.draw(st.integers(0, 10**60))
        deficit = list(advance(u, min(max(0, steps), lex_rank(u) - 1)).cost.exps[: n - 1])
        assume(any(deficit))  # the walk stops once the deficit is met
        rule = _Deficit(list(deficit))
        got = rule.largest(m, a, _tops(m, a, n))
        want = _largest_l(a, _deficit_fits(deficit, m, a, n))
        if m == n - 1 and 0 < want < a and not any(deficit[: m - 1]):
            # a partial block at x_{n-1} that would use up the whole deficit is shrunk by one
            if deficit[m - 1:] == list(_exps(a, want, _tops(m, a, n)))[: n - m]:
                want -= 1
        assert got == want
        if 0 < got < a:  # a partial block hands the walk its lower row
            assert rule.low == _row(a - got, n - m)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bound_matches_bisection(self, count, data):
        # both rules' x_m and x_{m+1} bounds: the largest l whose block exponents there
        # stay within d[0] and d[1] (d[1] absent at m = n - 1 in find_z), read in place
        # from a longer list whose components below x_m may be anything
        a = data.draw(_sizes)
        tops = _row(a, count)
        near = _exps(a, data.draw(st.integers(0, a)), tops)
        d = [data.draw(st.one_of(st.just(0), st.integers(0, 10**60), st.integers(max(0, e - 2), e + 2))) for e in near]
        d = d[: data.draw(st.sampled_from([1, count, count + 1]))]
        want = _largest_l(a, lambda l: all(e <= x for e, x in zip(_exps(a, l, tops)[:2], d)))
        below = data.draw(st.lists(st.integers(0, 10**60), max_size=4))
        assert _bound(a, tops, below + d, len(below)) == want

    def test_spend_returns_the_first_negative_index(self):
        target = [5, 3, 2, 7]
        assert _spend(target, 2, [1, 2, 1]) is None and target == [5, 2, 0, 6]
        assert _spend(target, 3, [0, 7]) == 3 and target == [5, 2, 0, -1]
        assert _spend([1, 0, 4], 1, [1, 1, 9]) == 1  # x2 goes negative first; x3 is not reached
        assert _spend([4, 4], 2, [4, 9]) is None  # exponents beyond the target (x_n in find_z) are ignored

    @given(st.one_of(st.integers(1, 40), st.integers(1, 10**40)), st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_one_unit_is_the_full_block_less_the_last_column(self, a, s):
        # the budget rule's one-unit test: C(a+s-1, s) = C(a+s, s+1) - C(a+s-1, s+1)
        tops = _row(a, s)
        total = a + sum(tops)
        assert total == binom(a + s, s + 1)
        assert total - tops[-1] == binom(a + s - 1, s) == sum(_exps(a, 1, tops))

    @given(st.integers(1, 20), st.integers(0, 10**3000))
    @settings(max_examples=200, deadline=None)
    def test_iroot_brackets_the_root(self, r, x):
        y = _iroot(x, r)
        assert y**r <= x < (y + 1) ** r

    @given(st.sampled_from([2, 4, 8, 16]), st.data(), st.integers(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_iroot_even_r_beside_a_power(self, r, data, dx):
        y = data.draw(st.integers(2 ** (1000 // r + 1), 2 ** (3000 // r)))
        assert _iroot(y**r + dx, r) == (y - 1 if dx < 0 else y)

    @given(st.one_of(st.just(2), st.integers(2, 20)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_least_base_is_least(self, r, data):
        c = r - 1
        big = 10**3000 if r == 2 else 10**80  # r = 2 trusts its start without a check
        y = data.draw(st.integers(r, 10**40))
        near = st.integers(-1, 1).map(lambda dx: binom(y, r) + dx)  # beside an exact hit
        x = data.draw(st.one_of(st.integers(-3, 300), st.integers(0, big), near))
        got = _least_base(x, r)
        assert got >= 0 and binom(got + c, r) >= x
        assert got == 0 or binom(got - 1 + c, r) < x


class TestRows:
    @given(st.one_of(st.integers(0, 3), st.integers(0, 10**40)), st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_row_is_the_l_free_terms(self, a, count):
        assert _row(a, count) == [binom(a + s - 1, s + 1) for s in range(1, count + 1)]

    @given(st.one_of(st.integers(1, 3), st.integers(1, 10**40)), st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_pascal_step_is_the_row_one_unit_down(self, a, count):
        assert _row_below(a, _row(a, count)) == _row(a - 1, count)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_shifted_lower_row_is_the_fresh_row(self, data):
        # a on both sides of the size switch, and l short and long next to it
        a = data.draw(st.one_of(
            st.integers(2, 50), st.integers(2, 2 ** (_SHIFT_BITS - 1) - 1),
            st.integers(2 ** (_SHIFT_BITS - 1), 2 ** (_SHIFT_BITS + 1500)),
        ))
        count = data.draw(st.integers(0, 14))
        short = st.integers(1, max(1, a >> (a.bit_length() // 3)))  # about 2/3 of a's bits
        l = data.draw(st.one_of(st.integers(1, 20), short, st.integers(1, a - 1)).filter(lambda l: l < a))
        want = [binom(a - l + s - 1, s + 1) for s in range(1, count + 1)]
        assert _row_down(a, l, _row(a, count)) == _row(a - l, count) == want

    @pytest.mark.parametrize("bits, l_bits, count, shifts", [
        (699, 1, 13, False),  # a short: a fresh row
        (700, 1, 13, True),
        (700, 53, 13, True),  # bits(l) * count <= bits(a)
        (700, 54, 13, False),  # l long next to a: a fresh row
        (7000, 3500, 2, True),
        (7000, 3501, 2, False),
    ])
    def test_shift_switch_is_pinned(self, monkeypatch, bits, l_bits, count, shifts):
        from gotzmann import paths

        a, l = (1 << (bits - 1)) + 12345, (1 << (l_bits - 1)) + 1
        tops, fresh = _row(a, count), []
        monkeypatch.setattr(paths, "_row", lambda a, count: fresh.append(a) or _row(a, count))
        assert _row_down(a, l, tops) == _row(a - l, count)
        assert fresh == ([] if shifts else [a - l])

    @given(st.integers(0, 60), st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_negative_column_is_signed_binomials(self, l, count):
        # _column(-l, .) holds the coefficients of (1 - x)^l, zero past l
        assert _column(-l, count) == [(-1) ** j * binom(l, j) for j in range(count)]

    @pytest.mark.parametrize("t", [-3, 0, 1, 5, 10**30])
    def test_column_of_no_entries_is_empty(self, t):
        assert _column(t, 0) == []

    @given(st.one_of(st.integers(0, 3), st.integers(0, 10**40)), st.integers(2, 20), st.data())
    @settings(max_examples=200, deadline=None)
    def test_origin_climb_row_is_the_shift_column(self, t, n, data):
        # a tower level's origin u0 * x_n^t climbs with _row(t + 1, k), k < n - 1, which is a
        # slice of the column C(t-1+k, k) that sigma^t of its gap form is built from
        k = data.draw(st.integers(0, n - 2))
        assert _row(t + 1, k) == _column(t, n)[2 : k + 2]

    @pytest.mark.parametrize("rule", [_Deficit, _Budget])
    def test_climb_back_from_xn_builds_no_row(self, monkeypatch, rule):
        # an elementary step at x_m sends b = a - 1 units to an empty x_n; the walk climbs
        # back toward x_m by full blocks onto empty runs.  The climb to x_{m+1} is taken
        # in the step's own iteration from the step's own row, and each jump after it
        # (or each block of a climb the rule refused) takes the very columns of the
        # Pascal step, so no _row or _least_base call and no multiply made them.  A step
        # forced by a partial block asks no rule; its row is the block's lower row, which
        # the Pascal step records
        from gotzmann import paths, threshold
        from gotzmann.threshold import tau

        n, events = 14, []
        walk, largest, climbs, below = paths._walk_lists, rule.largest, rule.climbs, paths._row_below

        def spy_largest(self, m, a, tops):
            events.append(("enter", m, a, tops))
            l = largest(self, m, a, tops)
            events.append(("exit", m, a, l))
            return l

        def spy_climbs(self, j, exps):
            events.append(("climb", j, exps, climbs(self, j, exps)))
            return events[-1][3]

        u0 = parse("x2^10", n)
        t = tau(u0, n).tau
        for owner in (paths, threshold):  # the witness test's walks and the tower's
            monkeypatch.setattr(owner, "_walk_lists", lambda origin, *args: events.append(("walk", len(origin))) or walk(origin, *args))
        monkeypatch.setattr(paths, "_row", lambda a, count: events.append(("row",)) or _row(a, count))
        monkeypatch.setattr(paths, "_least_base", lambda *args: events.append(("solve",)) or _least_base(*args))
        monkeypatch.setattr(paths, "_row_below", lambda a, tops: events.append(("below", a, tops, below(a, tops))) or events[-1][3])
        monkeypatch.setattr(rule, "largest", spy_largest)
        monkeypatch.setattr(rule, "climbs", spy_climbs)
        if rule is _Deficit:
            assert tau(u0, n).tau == t
        else:
            assert not is_gotzmann(parse(f"x2^10*x14^{t - 1}", n)).is_gotzmann
        climbs, taken = [], 0
        for i, event in enumerate(events):
            if event[0] != "below" or event[1] < 2 or events[i - 1][0] == "walk" or events[i - 2][0] == "walk" and events[i - 1] == ("row",):
                continue  # not a step with units to carry, or a walk's origin climb (TestClimb), whose
                # row a tower level takes from its binomial column and any other walk builds
            ambient = next(e[1] for e in reversed(events[:i]) if e[0] == "walk")
            _, a, tops, row = event  # the elementary step at x_m, m = ambient - len(tops)
            m, k, b = ambient - len(tops), ambient, a - 1  # x_k: the next jump, from x_n down
            jumps, inside = 0, False
            for e in events[i + 1 :]:
                if e[0] == "walk":
                    break
                if e[0] == "climb":  # the blocks at x_n .. x_{m+2}, summed from x_{m+2} by the hockey stick
                    _, j, exps, ok = e
                    assert not inside and k == m + len(tops) and j == m + 2 and len(exps) == len(tops) - 1 and exps[0] == b
                    assert all(x is y for x, y in zip(exps[1:], tops))  # the step's own row
                    if ok:
                        jumps, k, taken = jumps + len(exps), m + 1, taken + 1
                elif e[0] == "enter":
                    assert e[1:3] == (k, b) and len(e[3]) == len(tops) - (k - m)
                    assert all(x is y for x, y in zip(e[3], row))
                    jumps, inside = jumps + 1, True
                elif e[0] == "exit":
                    if k == m or e[3] != b:  # back at x_m, or the rule cut the climb short
                        break
                    k, inside = k - 1, False
                else:
                    assert inside  # only a rule builds rows (lower rows of partial blocks)
            climbs.append(jumps)
        assert sum(climbs) > 50 and taken  # jumps checked; a walk may end right after its step

    @staticmethod
    def _tops_rows_after(monkeypatch, n, next_jump, trace=None):
        """Run tau(x2^10, n) and check that no jump named by next_jump(m, a, l) for the
        jump before it builds its own tops row; returns how many such jumps there were.
        Each jump ends in a charge: a take, or a step for an elementary step, also the step
        after a partial block, which asks no rule."""
        from gotzmann import paths
        from gotzmann.threshold import tau

        rows, seen = [], {"pending": None, "next": None, "checked": 0}  # rows built since the last charge
        row, largest, take, step = paths._row, _Deficit.largest, _Deficit.take, _Deficit.step

        def spy_largest(rule, m, a, tops):
            l = largest(rule, m, a, tops)
            seen["pending"] = (rule,) + next_jump(m, a, l)
            return l

        def spy_charge(real):
            def charge(rule, m, arg):
                named = seen["next"]
                if named and named[:2] == (rule, m):
                    seen["checked"] += 1
                    assert (named[2], n - m) not in rows
                seen["next"], seen["pending"] = seen["pending"], None
                rows.clear()
                real(rule, m, arg)
            return charge

        monkeypatch.setattr(paths, "_row", lambda a, count: rows.append((a, count)) or row(a, count))
        monkeypatch.setattr(_Deficit, "largest", spy_largest)
        monkeypatch.setattr(_Deficit, "take", spy_charge(take))
        monkeypatch.setattr(_Deficit, "step", spy_charge(step))
        tau(parse("x2^10", n), n, trace=trace)
        return seen["checked"]

    def test_no_tops_row_right_after_a_partial_block(self, monkeypatch):
        # the next jump, a forced elementary step, is at the same x_m with what the block left there
        next_jump = lambda m, a, l: (m, a - l) if 0 < l < a else ()
        assert sum(self._tops_rows_after(monkeypatch, n, next_jump) for n in (13, 14)) > 50

    def test_no_tops_row_right_after_a_full_block_onto_an_empty_run(self, monkeypatch):
        # a jump at x_{m-1} with the same a follows a full block exactly when x_{m-1} was empty.
        # Untraced, such blocks are the blocks of climbs; a traced walk takes them one by one
        assert self._tops_rows_after(monkeypatch, 14, lambda m, a, l: (m - 1, a) if 0 < l == a else (), lambda r: None) > 50

    def test_full_blocks_build_no_lower_row(self, monkeypatch):
        # a full block's lower row C(s-1, s+1) is zero, so no jump builds _row(0, .)
        from gotzmann import paths
        from gotzmann.threshold import tau

        rows, full, largest, climbs = [], [], _Deficit.largest, _Deficit.climbs

        def spy_largest(rule, m, a, tops):
            l = largest(rule, m, a, tops)
            full.append(l == a)
            return l

        def spy_climbs(rule, j, exps):  # a climb is len(exps) full blocks
            ok = climbs(rule, j, exps)
            full.extend([True] * len(exps) if ok else [])
            return ok

        monkeypatch.setattr(paths, "_row", lambda a, count: rows.append(a) or _row(a, count))
        monkeypatch.setattr(_Deficit, "largest", spy_largest)
        monkeypatch.setattr(_Deficit, "climbs", spy_climbs)
        tau(parse("x2^10", 14), 14)
        assert sum(full) > 200 and rows and 0 not in rows

    def test_row_builds_are_pinned(self, monkeypatch):
        # the rows that tau(x2^10, 14) and the witness pair of x2^3 at n = 16 build, the
        # columns that _row and _grow multiply out (an origin climb builds with _row the row
        # that its full blocks grew one column at a time), and no inverse binomial beyond
        # the isqrt of _bound
        from gotzmann import paths
        from gotzmann.threshold import tau

        rows, columns, solves, grow = [], [], [], paths._grow
        monkeypatch.setattr(paths, "_row", lambda a, count: rows.append(count) or _row(a, count))
        monkeypatch.setattr(paths, "_grow", lambda row, a, count: columns.append(count - len(row)) or grow(row, a, count))
        monkeypatch.setattr(paths, "_least_base", lambda *args: solves.append(args) or _least_base(*args))
        tau(parse("x2^10", 14), 14)
        assert len(rows) <= 66 and sum(columns) <= 341 and solves == []
        u0 = parse("x2^3", 16)
        t = tau(u0, 16).tau
        rows.clear()
        verdicts = [is_gotzmann(Monomial(16, u0.exps[:-1] + (s,))).is_gotzmann for s in (t, t - 1)]
        assert verdicts == [True, False] and len(rows) <= 28

    def test_long_lower_rows_are_shifted(self, monkeypatch):
        # the columns that _grow multiplies out on runs of at least _SHIFT_BITS bits: 163 on
        # tau(x2^10, 14) and 208 on the witness pair of x2^3 at n = 16 while every lower row
        # was built afresh.  What is left is rows of new runs, lower rows whose l is long next
        # to the run, and the pair's two origin climbs, a row of the run t each (13 columns)
        from gotzmann import paths
        from gotzmann.threshold import tau

        columns, grow = [], paths._grow
        monkeypatch.setattr(paths, "_grow", lambda row, a, count: (
            a.bit_length() >= _SHIFT_BITS and columns.append(count - len(row))) or grow(row, a, count))
        tau(parse("x2^10", 14), 14)
        assert sum(columns) <= 10  # 6
        u0 = parse("x2^3", 16)
        t = tau(u0, 16).tau
        columns.clear()
        verdicts = [is_gotzmann(Monomial(16, u0.exps[:-1] + (s,))).is_gotzmann for s in (t, t - 1)]
        assert verdicts == [True, False] and sum(columns) <= 26

    def test_no_solve_for_a_budget_jump_that_takes_one_step(self, monkeypatch):
        from gotzmann import paths
        from gotzmann.threshold import tau

        solves, zeros, largest = [], [], _Budget.largest

        def spy_largest(rule, m, a, tops):
            solves.clear()
            l = largest(rule, m, a, tops)
            if l == 0:
                zeros.append(m)
                assert not solves
            return l

        # the witness walks step only after partial blocks, without asking the rule, and so
        # does not count here; a budget under one unit's C(a+S-1, S) steps asks it at once
        u0 = parse("x2^2", 10)
        t = tau(u0, 10).tau
        monkeypatch.setattr(paths, "_least_base", lambda *args: solves.append(args) or _least_base(*args))
        monkeypatch.setattr(_Budget, "largest", spy_largest)
        assert not is_gotzmann(parse(f"x2^2*x10^{t - 1}", 10)).is_gotzmann
        for budget in range(1, 126, 25):  # from x3^6 at n = 7 one unit takes 126 steps
            advance(parse("x3^6", 7), budget)
        assert len(zeros) >= 7

    def test_full_budget_blocks_build_nothing_and_partial_ones_one_lower_row(self, monkeypatch):
        # a full block calls neither _least_base nor _row_down; a partial block builds its
        # lower row once, in the rule, and the walk takes it from there
        from gotzmann import paths
        from gotzmann.threshold import tau

        events, largest, climbs = [], _Budget.largest, _Budget.climbs

        def spy_largest(rule, m, a, tops):
            events.append(("enter",))
            l = largest(rule, m, a, tops)
            events.append(("exit", m, a, l))
            return l

        def spy_climbs(rule, j, exps):
            events.append(("climb", len(exps), climbs(rule, j, exps)))
            return events[-1][2]

        u0 = parse("x2^10", 8)
        t = tau(u0, 8).tau
        monkeypatch.setattr(paths, "_row_down", lambda a, l, tops: events.append(("row", a - l, len(tops))) or _row_down(a, l, tops))
        monkeypatch.setattr(paths, "_least_base", lambda *args: events.append(("solve",)) or _least_base(*args))
        monkeypatch.setattr(_Budget, "largest", spy_largest)
        monkeypatch.setattr(_Budget, "climbs", spy_climbs)
        assert not is_gotzmann(parse(f"x2^10*x8^{t - 1}", 8)).is_gotzmann
        starts = [i for i, e in enumerate(events) if e[0] == "enter"] + [len(events)]
        kinds = {"full": 0, "partial": 0}
        for i, j in zip(starts, starts[1:]):
            jump = events[i + 1 : j]
            exit_at = next(x for x, e in enumerate(jump) if e[0] == "exit")
            _, m, a, l = jump[exit_at]
            after = jump[exit_at + 1 :]
            if after:  # only an elementary step tries a climb, which builds nothing; after a
                # partial block the step is forced, asks no rule and so sits in the block's slice
                assert l < a and len(after) == 1 and after[0][0] == "climb"
                kinds["full"] += after[0][1] if after[0][2] else 0  # a climb is that many full blocks
            if m == 8 or l == 0:
                continue
            if l == a:
                kinds["full"] += 1
                assert jump[:exit_at] == []
            else:
                kinds["partial"] += 1
                assert jump.count(("row", a - l, 8 - m)) == 1
                assert ("solve",) not in jump
        assert kinds["full"] >= 5 and kinds["partial"] >= 5


def _outcome(call):
    """call(trace)'s result, or the CapExceeded or TargetOvershoot it raised, and its trace
    records; call(None), which may climb where the traced walk goes block by block, must
    give the same result or error."""

    def result(trace):
        try:
            return call(trace)
        except (CapExceeded, TargetOvershoot) as exc:
            return type(exc), str(exc)

    records = []
    out = result(records.append)
    assert result(None) == out
    return out, records


def _refused(call):
    """_outcome with every climb refused, so that the untraced walk too takes a climb's blocks one by one."""
    no = lambda rule, j, exps: False
    with mock.patch.object(_Budget, "climbs", no), mock.patch.object(_Deficit, "climbs", no):
        return _outcome(call)


class TestClimb:
    """An elementary step at x_m and the full blocks that carry its a - 1 units from x_n
    back to x_{m+1} are one jump of the kernel, and the same walk as block by block."""

    @given(st.integers(4, 20), st.data())
    @settings(max_examples=200, deadline=None)
    def test_climb_is_the_sum_of_its_blocks(self, n, data):
        m = data.draw(st.integers(2, n - 2))
        a = data.draw(st.one_of(st.integers(2, 40), st.integers(2, 10**30)))
        blocks = [0] * (n - m - 1)  # x_{m+2} .. x_n
        for j in range(m + 2, n + 1):  # the full block at x_j on a - 1 units
            for i, e in enumerate([a - 1] + _tops(j, a - 1, n)):
                blocks[j - m - 2 + i] += e
        assert blocks == [a - 1] + _row(a, n - m)[: n - m - 2]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_refused_climbs_change_nothing(self, data):
        # states, witnesses, errors and trace records, with caps and budgets that may end inside a climb
        n = data.draw(st.integers(3, 9))
        head = tuple(data.draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 30)), min_size=n - 1, max_size=n - 1)))
        t = data.draw(st.integers(0, 40))
        u = Monomial(n, head + (t,))
        assume(deg(u))
        cap = data.draw(st.one_of(st.just(DEFAULT_MAX_JUMPS), st.integers(0, 40)))
        kind = data.draw(st.sampled_from(["advance", "mc", "find_z", "is_gotzmann"]))
        if kind == "advance":
            budget = data.draw(st.integers(0, lex_rank(u) - 1))
            call = lambda trace: advance(u, budget, cap, trace)
        elif kind == "mc":
            call = lambda trace: mc(u, cap, trace)
        elif kind == "find_z":
            call = lambda trace: find_z(Monomial(n - 1, head), n, t, cap, trace)
        else:
            call = lambda trace: is_gotzmann(u, cap, trace)
        assert _outcome(call) == _refused(call)

    def test_walks_ending_inside_a_climb(self):
        # from x3^6 at n = 7 a budget under 126 steps, one unit's, cannot take one unit, so
        # the walk steps to x2*x7^5 and climbs to x2*x4^5 in 3 blocks of 5, 15 and 35 steps
        u = parse("x3^6", 7)
        out, records = _outcome(lambda trace: advance(u, 56, trace=trace))
        assert out == WalkState(parse("x2*x4^5", 7), parse("x3*x5^5*x6^15*x7^35", 7), 56)
        assert [r["to"] for r in records] == ["x2*x7^5", "x2*x6^5", "x2*x5^5", "x2*x4^5"]
        assert [r["block_cost"] for r in records] == ["x3", "x7^5", "x6^5*x7^10", "x5^5*x6^10*x7^20"]
        calls = [lambda trace, b=b: advance(u, b, trace=trace) for b in range(1, 58)]
        calls += [lambda trace, cap=cap: advance(u, 100, cap, trace) for cap in range(9)]  # it takes 8 jumps
        calls += [lambda trace, cap=cap: mc(u, cap, trace) for cap in range(6)]
        # a deficit that the step and its climb use up exactly: the climb's last block, at
        # x5, ends at the first hit x2*x4^5, so the walk takes it whole (its last unit ends
        # with a step paid at x6, below x_n) and stops there after 4 jumps
        calls += [lambda trace, d=d: _walk(u, _Deficit(list(d)), DEFAULT_MAX_JUMPS, trace) for d in
                  ([0, 0, 1, 0, 5, 15], [0, 0, 1, 0, 5, 16], [0, 0, 2, 0, 5, 15], [0, 0, 1, 0, 4, 15])]
        for call in calls:
            assert _outcome(call) == _refused(call)
        out, records = _outcome(calls[-4])
        assert out == WalkState(parse("x2*x4^5", 7), parse("x3*x5^5*x6^15*x7^35", 7), 56)
        assert [r["to"] for r in records] == ["x2*x7^5", "x2*x6^5", "x2*x5^5", "x2*x4^5"]

    def test_walks_from_an_origin_climb(self):
        # from x2*x7^5 the x7 run sits over empty x3 .. x6: the untraced walk carries it to x3
        # in one climb of 4 blocks, 125 steps, x4^5*x5^15*x6^35*x7^70 by the hockey stick
        u = parse("x2*x7^5", 7)
        out, records = _outcome(lambda trace: advance(u, 125, trace=trace))
        assert out == WalkState(parse("x2*x3^5", 7), parse("x4^5*x5^15*x6^35*x7^70", 7), 125)
        assert [r["to"] for r in records] == ["x2*x6^5", "x2*x5^5", "x2*x4^5", "x2*x3^5"]
        calls = [lambda trace, cap=cap: advance(u, 125, cap, trace) for cap in range(6)]
        calls += [lambda trace, b=b: advance(u, b, trace=trace) for b in (1, 5, 6, 124, 126, 200)]
        calls += [lambda trace, d=d: _walk(u, _Deficit(list(d)), DEFAULT_MAX_JUMPS, trace) for d in
                  ([1, 0, 5, 15, 35, 70], [0, 0, 5, 15, 35, 70], [1, 0, 5, 15, 34, 70], [1, 1, 6, 15, 35, 90])]
        for call in calls:
            assert _outcome(call) == _refused(call)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_origin_climb_at_every_cap(self, data):
        # origins whose x_n run sits over empty x_{j+1} .. x_{n-1}: every jump cap from 0 past the
        # walk's jump count gives the same state, or the same error text, untraced as traced
        n = data.draw(st.integers(3, 8))
        j = data.draw(st.integers(0, n - 2))
        head = tuple(data.draw(st.lists(st.integers(0, 4), min_size=j, max_size=j))) + (0,) * (n - 1 - j)
        u = Monomial(n, head + (data.draw(st.one_of(st.integers(1, 8), st.integers(1, 10**6))),))
        kind = data.draw(st.sampled_from(["advance", "mc", "find_z", "is_gotzmann", "deficit"]))
        if kind == "advance":
            budget = data.draw(st.integers(0, lex_rank(u) - 1))
            walk = lambda cap, trace: advance(u, budget, cap, trace)
        elif kind == "mc":
            walk = lambda cap, trace: mc(u, cap, trace)
        elif kind == "find_z":
            walk = lambda cap, trace: find_z(Monomial(n - 1, head), n, u.exps[-1], cap, trace)
        elif kind == "is_gotzmann":
            walk = lambda cap, trace: is_gotzmann(u, cap, trace)
        else:  # a deficit that some state meets: the cost below x_n of k steps ahead
            deficit = advance(u, data.draw(st.integers(0, lex_rank(u) - 1))).cost.exps[: n - 1]
            walk = lambda cap, trace: _walk(u, _Deficit(list(deficit)), cap, trace)
        jumps = len(_outcome(lambda trace: walk(DEFAULT_MAX_JUMPS, trace))[1])
        for cap in range(min(jumps, 200) + 2):
            _outcome(lambda trace: walk(cap, trace))

    def test_only_untraced_walks_climb(self, monkeypatch):
        from gotzmann.threshold import tau

        taken = []
        for rule in (_Budget, _Deficit):
            real = rule.climbs
            monkeypatch.setattr(rule, "climbs", lambda r, *a, real=real: taken.append(real(r, *a)) or taken[-1])
        u = parse("x2^10", 14)
        traced = tau(u, 14, trace=lambda record: None)
        assert taken == []
        assert tau(u, 14) == traced and any(taken)

    def test_deep_tau_climbs(self, monkeypatch):
        # tau(x2^10, 14) walks 377 jumps in 157 charges: 112 takes of blocks and climbs and 45
        # steps.  276 jumps are the blocks of 56 climbs: 45 after elementary steps and one from
        # each of 11 levels' origins, whose x_n run sits over empty x_3 .. x_{n-1}.  The 45
        # elementary steps follow partial blocks, each in its block's kernel iteration without
        # asking the rule, so the rule is asked 56 times, once per iteration
        from gotzmann.threshold import tau

        queries, takes, steps, blocks = [], [], [], []
        largest, take, step, climbs = _Deficit.largest, _Deficit.take, _Deficit.step, _Deficit.climbs

        def spy_climbs(rule, j, exps):
            ok = climbs(rule, j, exps)
            blocks.append(len(exps) if ok else 0)
            return ok

        monkeypatch.setattr(_Deficit, "largest", lambda rule, *args: queries.append(1) or largest(rule, *args))
        monkeypatch.setattr(_Deficit, "take", lambda rule, *args: takes.append(1) or take(rule, *args))
        monkeypatch.setattr(_Deficit, "step", lambda rule, *args: steps.append(1) or step(rule, *args))
        monkeypatch.setattr(_Deficit, "climbs", spy_climbs)
        tau(parse("x2^10", 14), 14)
        climbed = [x for x in blocks if x]
        assert len(queries) <= 56 and len(climbed) == 56 and sum(climbed) == 276
        assert (len(takes), len(steps)) == (112, 45)
        assert len(takes) + len(steps) - len(climbed) + sum(climbed) == 377


def test_find_z_below_the_threshold_is_the_same_traced_and_untraced():
    # on a target below the threshold one ambient down the deficit may have no first hit,
    # where the first-hit lemma says nothing and the untraced walk's climbs could name another
    # component than the traced walk's blocks; the public find_z must not show it.  A seeded
    # grid of random cores at n = 3..8, t at 0, tau/2, tau - 1 and one random value below tau,
    # every cap from 0 to 12 and the default: same result, or same exception type and text
    def outcome(u0, n, t, cap, trace):
        try:
            return find_z(u0, n, t, cap, trace)
        except Exception as exc:
            return type(exc), str(exc)

    rng, calls = random.Random(2024), 0
    for n in range(3, 9):
        for _ in range(20):
            exps = [0] * (n - 1)
            for _ in range(rng.randint(2, 5)):
                exps[rng.randint(1, n - 2)] += 1
            u0 = Monomial(n - 1, tuple(exps))
            below = tau(u0, n - 1).tau
            for t in {0, below // 2, max(below - 1, 0), rng.randrange(below) if below else 0}:
                for cap in (*range(13), DEFAULT_MAX_JUMPS):
                    calls += 1
                    assert outcome(u0, n, t, cap, lambda record: None) == outcome(u0, n, t, cap, None), (u0, n, t, cap)
    assert calls == 3864


def test_overshoot_components_on_a_deficit_no_state_meets_are_pinned():
    # x1*x2 is no cost of a walk from x5 at n = 5: the untraced walk's origin climb runs the
    # deficit out at x3, the traced walk's blocks one by one at x4.  The rule's ledger leaves
    # the component that _spend reports as it was
    def text(trace):
        with pytest.raises(TargetOvershoot) as exc:
            _walk(parse("x5", 5), _Deficit([1, 1, 0, 0]), DEFAULT_MAX_JUMPS, trace)
        return str(exc.value)

    assert text(None).startswith("target component x3 is exhausted; ")
    assert text(lambda record: None).startswith("target component x4 is exhausted; ")


def _trace_sum(records, n):
    """The componentwise sum of a trace's block costs."""
    total = [0] * n
    for r in records:
        total = [e + f for e, f in zip(total, parse(r["block_cost"], n).exps)]
    return Monomial(n, tuple(total))


def _check_ledger(u, rule):
    """The cost that rule() keeps for a walk from u, untraced and traced, against the sum of
    the traced walk's block costs and its steps_so_far; the untraced walk's state.  Records
    render under any int-to-text digit limit, and are read back here under none."""
    records = []
    state = _walk(u, rule(), DEFAULT_MAX_JUMPS, None)
    assert _walk(u, rule(), DEFAULT_MAX_JUMPS, records.append) == state
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _trace_sum(records, u.n) == state.cost
        steps = [deg(parse(r["block_cost"], u.n)) for r in records]
        assert [int(r["steps_so_far"]) for r in records] == [sum(steps[: i + 1]) for i in range(len(steps))]
    finally:
        sys.set_int_max_str_digits(limit)
    return state


def _check_budget_ledger(u, budget, guide):
    """_check_ledger for a budget walk, whose state is also the unguided walk's and, up to
    2000 steps, advance_oracle's."""
    state = _check_ledger(u, lambda: _Budget(budget, guide))
    assert state.steps == budget
    assert _walk(u, _Budget(budget), DEFAULT_MAX_JUMPS, None) == state
    if budget <= 2000:
        assert advance_oracle(u, budget) == state


def _budget_case(n, exps, pick, rng_int):
    """A budget walk from the monomial with these exponents and its rule: pick chooses the
    budget (mg's degree, a short one or any in the slice) and the guide (none, mg, zeros or
    arbitrary integers, which make guesses miss)."""
    u = Monomial(n, tuple(exps))
    mg = list(mg_closed(u).exps)
    budget = {"mg": sum(mg), "short": rng_int(0, min(lex_rank(u) - 1, 2000)), "any": rng_int(0, lex_rank(u) - 1)}[pick[0]]
    guide = {"none": None, "mg": mg, "zeros": [0] * n, "any": [rng_int(-2, 40) for _ in range(n)]}[pick[1]]
    return u, budget, guide


class TestLedger:
    """The rule keeps the walk's only ledger: the deficit rule its target less the deficit and
    one x_n scalar; the budget rule, while its guide lives, the guide less what is left of it,
    and once the guide drops, or without one, a list it adds each charge to."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_budget_ledger_is_the_trace_and_the_oracle(self, data):
        n = data.draw(st.integers(2, 9))
        exps = data.draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 10**30)), min_size=n, max_size=n))
        assume(any(exps))
        pick = (data.draw(st.sampled_from(["mg", "short", "any"])), data.draw(st.sampled_from(["none", "mg", "zeros", "any"])))
        _check_budget_ledger(*_budget_case(n, exps, pick, lambda lo, hi: data.draw(st.integers(lo, hi))))

    def test_seeded_budget_walks_drop_the_guide_both_ways(self, monkeypatch):
        # the guide drops both ways: on a guess that misses in largest, and on a component that
        # a charge, a take or a step, sends negative; the walk goes on without it, and the same
        # checks hold
        drops, largest, take, step = [], _Budget.largest, _Budget.take, _Budget.step

        def spy(name, real):
            def call(rule, *args):
                alive = rule.guide is not None
                out = real(rule, *args)
                if alive and rule.guide is None:
                    drops.append(name)
                return out
            return call

        monkeypatch.setattr(_Budget, "largest", spy("largest", largest))
        monkeypatch.setattr(_Budget, "take", spy("take", take))
        monkeypatch.setattr(_Budget, "step", spy("step", step))
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randint(2, 9)
            exps = [rng.choice([rng.randint(0, 4), rng.randint(0, 10**30)]) for _ in range(n)]
            if not any(exps):
                continue
            pick = (rng.choice(["mg", "short", "any"]), rng.choice(["mg", "zeros", "any"]))
            _check_budget_ledger(*_budget_case(n, exps, pick, rng.randint))
        assert drops.count("largest") >= 10 and drops.count("take") >= 10 and drops.count("step") >= 1

    def test_guide_dropped_partway_through_a_take(self):
        # from x3^4 at n = 5 the first jump is the full block x3^4*x4^6*x5^10.  The guide's x4
        # component, 5, runs out inside it: the cost so far is what the guide spent, x3^4*x4^6,
        # and the rest of the block, x5^10, and the walk's cost is still advance_oracle's
        rule = _Budget(30, [0, 1, 4, 5, 16])
        rule.take(3, [4, 6, 10])
        assert rule.guide is None and rule.cost(5) == [0, 0, 4, 6, 10] and rule.left == 10
        _check_budget_ledger(parse("x3^4", 5), 30, [0, 1, 4, 5, 16])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_find_z_cost_below_x_n_is_the_target(self, data):
        # at and above the threshold one ambient down the first hit exists, and its cost
        # below x_n, the target less a deficit of zeros, is the base of mg exactly
        n = data.draw(st.integers(3, 9))
        u0 = Monomial(n - 1, tuple(data.draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 10**30)), min_size=n - 1, max_size=n - 1))))
        t = tau(u0, n - 1).tau + data.draw(st.one_of(st.integers(0, 3), st.integers(0, 10**30)))
        decomp = target_decompose(u0, n, t)
        state = _check_ledger(Monomial(n, u0.exps + (t,)), lambda: _Deficit(list(decomp.base.exps[: n - 1])))
        assert state.cost.exps[: n - 1] == decomp.base.exps[: n - 1]
        assert find_z(u0, n, t) == (state.current, state)


def _forced_steps_refused(call):
    """Run call() and, after each partial block, ask a copy of its rule for the largest
    block at the state that block left.  Every copy must answer 0: the elementary step that
    the kernel takes there without asking.  Returns how many copies were asked."""
    asked, after = [], []
    real = {rule: (rule.largest, rule.take) for rule in (_Budget, _Deficit)}

    def spy_largest(rule, m, a, tops):
        l = real[type(rule)][0](rule, m, a, tops)
        after[:] = [(m, a - l, rule.low)] if 0 < l < a else []
        return l

    def spy_take(rule, m, exps):
        real[type(rule)][1](rule, m, exps)
        if after:  # the partial block's own take
            m, a, low = after.pop()
            assert real[type(rule)][0](copy.deepcopy(rule), m, a, low) == 0
            asked.append(m)

    with mock.patch.object(_Budget, "largest", spy_largest), mock.patch.object(_Deficit, "largest", spy_largest), \
            mock.patch.object(_Budget, "take", spy_take), mock.patch.object(_Deficit, "take", spy_take):
        try:
            call()
        except (CapExceeded, TargetOvershoot):
            pass
    return len(asked)


class TestForcedStep:
    """A partial block takes the most its rule admits, and costs add along the chain, so the
    next unit breaks the rule too: the kernel steps there without asking it."""

    def test_tau_and_witness_walks(self):
        from gotzmann.threshold import tau

        assert _forced_steps_refused(lambda: tau(parse("x2^10", 14), 14)) > 50
        t = tau(parse("x2^10", 8), 8).tau
        assert _forced_steps_refused(lambda: is_gotzmann(parse(f"x2^10*x8^{t - 1}", 8))) >= 5

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rule_refuses_the_unit_after_a_partial_block(self, data):
        # deficit walks (find_z's targets and random ones) and budget walks, unguided,
        # guided by any target, and guided by mg as the witness test is
        n = data.draw(st.integers(3, 9))
        head = tuple(data.draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 30)), min_size=n - 1, max_size=n - 1)))
        u = Monomial(n, head + (data.draw(st.integers(0, 40)),))
        assume(deg(u))
        kind = data.draw(st.sampled_from(["find_z", "deficit", "budget", "guided", "witness"]))
        if kind == "find_z":
            call = lambda: find_z(Monomial(n - 1, head), n, u.exps[-1])
        elif kind == "deficit":
            deficit = data.draw(st.lists(st.one_of(st.integers(0, 60), st.integers(0, 10**12)), min_size=n - 1, max_size=n - 1))
            call = lambda: _walk(u, _Deficit(deficit), DEFAULT_MAX_JUMPS, None)
        elif kind == "witness":
            call = lambda: is_gotzmann(u)
        else:
            budget = data.draw(st.integers(0, lex_rank(u) - 1))
            guide = data.draw(_any_guide(n)) if kind == "guided" else None
            call = lambda: _walk(u, _Budget(budget, guide), DEFAULT_MAX_JUMPS, None)
        _forced_steps_refused(call)


class TestStep:
    """step(m, n) charges one elementary step at x_m in O(1), and leaves the rule as
    take(m, [1] + [0] * (n - m)) does."""

    @staticmethod
    def _after(make, charge):
        rule = make()
        try:
            charge(rule)
        except TargetOvershoot as exc:
            return rule, str(exc)
        return rule, None

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_deficit_step_is_a_one_unit_take(self, data):
        n = data.draw(st.integers(2, 10))
        m = data.draw(st.integers(2, n))
        deficit = data.draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**30)), min_size=n - 1, max_size=n - 1))
        xn = data.draw(st.integers(0, 10**6))

        def make():
            rule = _Deficit(list(deficit))
            rule.xn = xn
            return rule

        (a, err_a), (b, err_b) = (self._after(make, charge) for charge in
                                  (lambda r: r.step(m, n), lambda r: r.take(m, [1] + [0] * (n - m))))
        assert (a.deficit, a.xn, err_a) == (b.deficit, b.xn, err_b)
        assert (err_a is not None) == (m < n and deficit[m - 1] == 0)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_budget_step_is_a_one_unit_take(self, data):
        # after any takes, which may drop the guide partway or leave it whole
        n = data.draw(st.integers(2, 10))
        m = data.draw(st.integers(2, n))
        comp = st.one_of(st.integers(0, 3), st.integers(0, 10**30))
        guide = data.draw(st.one_of(st.none(), st.lists(comp, min_size=n, max_size=n)))
        takes = data.draw(st.lists(st.integers(2, n).flatmap(
            lambda j: st.tuples(st.just(j), st.lists(comp, min_size=n - j + 1, max_size=n - j + 1))), max_size=3))
        left = sum(sum(exps) for _, exps in takes) + data.draw(st.integers(1, 10**6))

        def make():
            rule = _Budget(left, guide)
            for j, exps in takes:
                rule.take(j, exps)
            return rule

        (a, _), (b, _) = (self._after(make, charge) for charge in
                          (lambda r: r.step(m, n), lambda r: r.take(m, [1] + [0] * (n - m))))
        assert (a.left, a.guide is None, a.cost(n)) == (b.left, b.guide is None, b.cost(n))
        assert a.cost(n) == [sum(exps[i - j + 1] for j, exps in takes if i >= j - 1) + (i == m - 1) for i in range(n)]


def test_jump_cap_counts_one_jump_per_record():
    # a traced walk takes every jump as a record, climbs block by block and the forced step
    # after a partial block as its own: the untraced walk under a cap of that many jumps gives
    # the same answer, and under one jump fewer runs into the cap
    rng, walks = random.Random(31), 0
    for n in range(3, 11):
        for _ in range(48):
            exps = [0] * (n - 1)
            for _ in range(rng.randint(1, 5)):
                exps[rng.randint(1, n - 2)] += 1
            core = Monomial(n - 1, tuple(exps))
            t = tau(core, n - 1).tau + rng.choice([0, 0, 1, 3])
            u = Monomial(n, core.exps + (t,))
            budget = rng.randint(0, min(lex_rank(u) - 1, 10**6))
            for call in (lambda cap, trace: find_z(core, n, t, cap, trace), lambda cap, trace: advance(u, budget, cap, trace),
                         lambda cap, trace: mc(u, cap, trace), lambda cap, trace: is_gotzmann(u, cap, trace)):
                records = []
                answer = call(DEFAULT_MAX_JUMPS, records.append)
                assert call(len(records), None) == answer == call(DEFAULT_MAX_JUMPS, None)
                if records:
                    with pytest.raises(CapExceeded):
                        call(len(records) - 1, None)
                walks += 1
    assert walks == 1536


def _jump(frm, to, block_cost, steps_so_far):
    return {"from": frm, "to": to, "block_cost": block_cost, "steps_so_far": steps_so_far}


class TestTraceStream:
    def test_find_z_golden(self):
        # the last record is the one kind of shrink the deficit rule keeps: at x4 = x_{n-1} the
        # deficit's x4 exponent, 1, would be used up by a partial block of 1 of the 4 units,
        # and the first hit lies inside that unit, right after its step at x4
        records = []
        z, _ = find_z(parse("x2^2*x4", 4), 5, 4, trace=records.append)
        assert z == parse("x2^3*x3*x5^3", 5)
        assert records == [
            _jump("x2^2*x4*x5^4", "x2^2*x4^5", "x5^4", "4"),
            _jump("x2^2*x4^5", "x2^2*x3^5", "x4^5*x5^10", "19"),
            _jump("x2^2*x3^5", "x2^3*x5^4", "x3", "20"),
            _jump("x2^3*x5^4", "x2^3*x4^4", "x5^4", "24"),
            _jump("x2^3*x4^4", "x2^3*x3*x5^3", "x4", "25"),
        ]

    def test_advance_golden(self):
        records = []
        st_ = advance(parse("x4^6", 5), 40, trace=records.append)
        assert st_ == WalkState(parse("x2*x3^4*x5", 5), parse("x3*x4^10*x5^29", 5), 40)
        assert records == [
            _jump("x4^6", "x3^6", "x4^6*x5^15", "21"),
            _jump("x3^6", "x2*x5^5", "x3", "22"),
            _jump("x2*x5^5", "x2*x4^5", "x5^5", "27"),
            _jump("x2*x4^5", "x2*x3^3*x4^2", "x4^3*x5^9", "39"),
            _jump("x2*x3^3*x4^2", "x2*x3^4*x5", "x4", "40"),
        ]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_records_chain_up_to_the_returned_state(self, data):
        if data.draw(st.booleans()):
            below, above = random_slice_pair(data)
            walk = lambda trace: advance(below, lex_rank(below) - lex_rank(above), trace=trace)
            origin = below
        else:
            n = data.draw(st.integers(3, 5))
            u0 = data.draw(st.sampled_from(list(enumerate_monomials(n - 1, data.draw(st.integers(1, 3))))))
            t = data.draw(st.integers(0, 6))
            walk = lambda trace: find_z(u0, n, t, trace=trace)[1]
            origin = Monomial(n, u0.exps + (t,))
        records = []
        try:
            state = walk(records.append)
        except TargetOvershoot:
            return
        at, done = str(origin), 0
        for r in records:
            assert r["from"] == at
            done += deg(parse(r["block_cost"], origin.n))
            assert r["steps_so_far"] == str(done)
            at = r["to"]
        assert at == str(state.current)
        assert done == state.steps
