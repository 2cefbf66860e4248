"""The maximal-generator form of a set and the gap form mg of a monomial.

maxgen of a set multiplies the largest variable of every element, so its
degree equals the set size.  For a monomial u, mg(u) is maxgen of the gaps:
the members of the lexsegment above u that the Borel closure of u misses.
mg_oracle computes that by enumeration.  mg_closed evaluates a product formula
over the ascending positions of u: each position followed by an index below
the ambient contributes binomial columns weighted by the closure size of the
prefix before it, and positions followed by x_n contribute nothing.
_mg_by_position spells that sum out one position at a time and is the
referee for the fast path.

The fast path is combinatorics._run_walk.  It carries mg over the positions
of u by the recurrence mg(u * x_i) = sigma(mg(u) + (|Borel(u)| - 1) * x_{i+1})
for i >= max_index(u): one add and one prefix sum per position on a run
(i, e) with e <= 2i, and sigma^e plus a Vandermonde share per column on a
longer run.  A run costs O(n^2) big-integer operations however long it is.

Every shift by x_n^t is sigma^t, and _shift is the one route to the x_n
power of a shifted form: mg_closed shifts by u's own x_n run, mg_shifted by
that run plus a further t, _target by a tower level's t, and the witness
test (threshold.is_gotzmann) by its u's x_n run.  _target works on
exponent lists, from a walk that the caller made: a tau tower's one walk
over its core, or target_decompose's own, which wraps it for Monomials.  It
checks the walk's unshifted form against an identity that shares nothing
with the walk but the closure size, the degree of mg(u0) in ambient n is
its gap count, and shifts it by the column of binomials C(t-1+k, k)
(monomial._column) that the level also hands to its walk.
"""

from __future__ import annotations

from .combinatorics import (
    DEFAULT_CAP,
    MonomialSet,
    _lex_rank,
    _run_walk,
    binom,
    borel_enumerate,
    lexsegment,
    prefix_borel_sizes,
)
from .monomial import Monomial, _column, _convolve, _Record, deg, max_index


def maxgen_of_set(s: MonomialSet) -> Monomial:
    """Product of the largest variable of every element; 1 for the empty set.

    A unit element is an error: it has no largest variable.
    """
    exps = [0] * s.n
    for u in s.elements:
        exps[max_index(u) - 1] += 1
    return Monomial(s.n, tuple(exps))


def _segment_gaps(u: Monomial, cap: int | None) -> tuple[MonomialSet, tuple[Monomial, ...]]:
    """The lexsegment above u and, in its order, its members that the Borel closure
    of u misses, both by explicit enumeration (for the oracles)."""
    seg = lexsegment(u, cap)
    closure = {v.exps for v in borel_enumerate(u, cap)}
    return seg, tuple(z for z in seg.elements if z.exps not in closure)


def mg_oracle(u: Monomial, cap: int | None = DEFAULT_CAP) -> Monomial:
    """mg(u) by explicit enumeration of the lexsegment and the Borel closure."""
    return maxgen_of_set(MonomialSet(u.n, _segment_gaps(u, cap)[1]))


def mg_closed(u: Monomial) -> Monomial:
    """mg(u) in closed form.

    Write u = x_{i_1} ... x_{i_d} with ascending indices.  For each position
    k < d whose successor index i_{k+1} lies below the ambient n, the factor

        (prod_{j=i_{k+1}+1}^{n} x_j^{C(d-k-2+j-i_{k+1}, d-k-1)}) ^ (b_k - 1)

    contributes, where b_k is the Borel closure size of the length-k prefix.
    Positions followed by x_n contribute nothing: mg(u) is sigma^t of the gap
    form of u's runs below x_n, t the exponent of x_n, and that sigma^t
    (_shift, by the column of binomials C(t-1+k, k)) is the one route to
    every exponent of mg(u), x_n's included.
    combinatorics._run_walk gives the unshifted form in O(n^2) big-integer
    operations per long run, however large the exponents are.
    """
    n = u.n
    return Monomial(n, tuple(_shift(_run_walk(u.exps[: n - 1], n)[1], _column(u.exps[n - 1], n))))


def _mg_by_position(u: Monomial) -> Monomial:
    """mg_closed's product formula summed one position at a time (test referee)."""
    n = u.n
    d = deg(u)
    out = [0] * n
    head = [i for i, e in enumerate(u.exps[: n - 1], start=1) for _ in range(e)]
    sizes = prefix_borel_sizes(head)
    for k in range(1, len(head)):
        weight = sizes[k - 1] - 1
        if weight == 0:
            continue
        i_next = head[k]
        for j in range(i_next + 1, n + 1):
            out[j - 1] += weight * binom(d - k - 2 + j - i_next, d - k - 1)
    return Monomial(n, tuple(out))


def mg_shifted(u: Monomial, t: int) -> Monomial:
    """mg(u * x_n^t): mg_closed with u's x_n run raised by t, one _shift pass."""
    if t < 0:
        raise ValueError("shift must be nonnegative")
    n = u.n
    return mg_closed(Monomial(n, u.exps[: n - 1] + (u.exps[n - 1] + t,)))


class MgDecomposition(_Record):
    """mg(u0 * x_n^t) split as base * x_n^xn_exp, with base free of x_n."""

    base: Monomial
    xn_exp: int


def target_decompose(u0: Monomial, n: int, t: int) -> MgDecomposition:
    """Split mg(u0 * x_n^t) into its x_n-free base and its x_n power.

    One run walk gives q = mg(u0) one ambient up, at deg(u0), and the
    closure size of u0.  sigma^t(q) is mg(u0 * x_n^t) as mg_shifted computes
    it; its first n - 1 exponents are the base and its last is the x_n power
    f(t).  With u0 = x_{i_1} ... x_{i_r} (ascending) that power is

        f(t) = sum_{k=1}^{r-1} C(t + r - k - 2 + n - i_{k+1}, n - 1 - i_{k+1}) * (b_k - 1),

    b_k the closure size of the length-k prefix: a polynomial in t of degree
    at most n - 1 - i_2, zero when r <= 1.  Before shifting, q is checked
    against the gap count of u0 in ambient n (_target).
    """
    if u0.n != n - 1:
        raise ValueError(f"u0 must live in ambient {n - 1}, got {u0.n}")
    if t < 0:
        raise ValueError("shift must be nonnegative")
    v, q = _run_walk(u0.exps, n)
    mg = _target(u0.exps, sum(v), q, _column(t, n))
    return MgDecomposition(base=Monomial(n, (*mg[: n - 1], 0)), xn_exp=mg[n - 1])


def _target(exps: tuple[int, ...], closure: int, q: list[int], col: list[int]) -> list[int]:
    """The exponents of mg(u0 * x_n^t), u0 the x_n-free core with these exponents,
    from its closure size, q = mg(u0) in ambient n = len(q) (combinatorics._run_walk)
    and col = _column(t, n).

    q is first checked against an identity that shares nothing with the walk
    but the closure size: mg multiplies one variable per gap, so sum(q) is
    the lex_rank of u0 in ambient n less |Borel(u0)|.  That costs n
    binomials at deg(u0), nothing that grows with t, and a walk that breaks
    it is reported loudly instead of being masked.
    """
    gaps = _lex_rank((*exps, 0)) - closure
    if sum(q) != gaps:
        raise RuntimeError(
            f"internal inconsistency: mg({Monomial(len(exps), exps)}) in ambient {len(q)} has degree "
            f"{sum(q)}, not the gap count {gaps}"
        )
    return _shift(q, col)


def _shift(q: list[int], col: list[int]) -> list[int]:
    """sigma^t of the exponents q, col = monomial._column(t, len(q)): q convolved with
    the column, or q itself where sigma^t is the identity, at t = col[1] = C(t, 1) = 0
    or in one variable."""
    return _convolve(q, col) if len(col) > 1 and col[1] else q
