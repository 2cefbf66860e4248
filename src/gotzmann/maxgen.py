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

The fast path never visits single positions.  combinatorics._run_walk visits
each exponent run (i, e) of u once and adds the run's whole share to every
column, either as the e-term position sum or, for runs longer than the
column's binomial order s plus three, as a Vandermonde sum of s + 1 terms
and a hockey-stick correction.  Each evaluation is taken where it needs fewer
binomials of degree-sized arguments, which the run length and the column
decide: the closed form alone would slow down inputs made of short runs,
the position sum alone makes cost grow with the exponents.  Either way a run
costs O(n^2) big-integer operations.

Shifting u by x_n^t transforms mg by the t-fold prefix-sum map; f_poly_eval
gives the x_n-degree of the shifted form directly, as the x_n column of the
same walk at degree deg(u0) + t, and target_decompose splits the shifted form
into its x_n-free base times x_n^f, cross-checking the two computations
against each other.
"""

from __future__ import annotations

from .combinatorics import (
    DEFAULT_CAP,
    MonomialSet,
    _run_walk,
    binom,
    borel_enumerate,
    lexsegment,
    prefix_borel_sizes,
)
from .monomial import Monomial, _Record, deg, embed, max_index, mul, sigma_pow, variable_power


def maxgen_of_set(s: MonomialSet) -> Monomial:
    """Product of the largest variable of every element; 1 for the empty set.

    A unit element is an error: it has no largest variable.
    """
    exps = [0] * s.n
    for u in s.elements:
        exps[max_index(u) - 1] += 1
    return Monomial(s.n, tuple(exps))


def mg_oracle(u: Monomial, cap: int | None = DEFAULT_CAP) -> Monomial:
    """mg(u) by explicit enumeration of the lexsegment and the Borel closure."""
    seg = lexsegment(u, cap)
    closure = {v.exps for v in borel_enumerate(u, cap)}
    gaps = tuple(z for z in seg.elements if z.exps not in closure)
    return maxgen_of_set(MonomialSet(u.n, gaps))


def mg_closed(u: Monomial) -> Monomial:
    """mg(u) in closed form.

    Write u = x_{i_1} ... x_{i_d} with ascending indices.  For each position
    k < d whose successor index i_{k+1} lies below the ambient n, the factor

        (prod_{j=i_{k+1}+1}^{n} x_j^{C(d-k-2+j-i_{k+1}, d-k-1)}) ^ (b_k - 1)

    contributes, where b_k is the Borel closure size of the length-k prefix.
    Positions followed by x_n contribute nothing, so only the runs of u below
    x_n are walked.  combinatorics._run_walk sums the factors of a whole run
    at once, so the cost is O(n^2) big-integer operations per exponent run
    and does not grow with the exponents.
    """
    n = u.n
    shares = _run_walk(u.exps[: n - 1], deg(u), range(2, n + 1))[1]
    return Monomial(n, (0, *shares))


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
    """mg(u * x_n^t) computed as sigma^t applied to mg(u)."""
    if t < 0:
        raise ValueError("shift must be nonnegative")
    return sigma_pow(mg_closed(u), t)


def f_poly_eval(u0: Monomial, n: int, t: int) -> int:
    """x_n-degree of mg(u0 * x_n^t) for u0 in the ambient below n.

    With u0 = x_{i_1} ... x_{i_r} (ascending) this is

        sum_{k=1}^{r-1} C(t + r - k - 2 + n - i_{k+1}, n - 1 - i_{k+1}) * (b_k - 1),

    a polynomial in t of degree at most n - 1 - i_2.  Zero when r <= 1.  It is
    the x_n column of mg_closed(u0 * x_n^t), read off the same run walk.
    """
    if u0.n != n - 1:
        raise ValueError(f"u0 must live in ambient {n - 1}, got {u0.n}")
    if t < 0:
        raise ValueError("shift must be nonnegative")
    return _run_walk(u0.exps, deg(u0) + t, (n,))[1][0]


class MgDecomposition(_Record):
    """mg(u0 * x_n^t) split as base * x_n^xn_exp, with base free of x_n."""

    base: Monomial
    xn_exp: int
    n: int
    t: int


def target_decompose(u0: Monomial, n: int, t: int) -> MgDecomposition:
    """Split mg(u0 * x_n^t) into its x_n-free base and its x_n power.

    The x_n power is evaluated independently through f_poly_eval and checked
    against the shifted form; a mismatch means one of the two closed forms is
    wrong and is reported loudly instead of being masked.
    """
    if u0.n != n - 1:
        raise ValueError(f"u0 must live in ambient {n - 1}, got {u0.n}")
    mg = mg_shifted(embed(u0, n), t)
    f = f_poly_eval(u0, n, t)
    base = Monomial(n, mg.exps[: n - 1] + (0,))
    if mul(base, variable_power(n, f, n)) != mg:
        raise RuntimeError(
            f"internal inconsistency: mg({u0}*x{n}^{t}) = {mg} does not split "
            f"as {base} * x{n}^{f}"
        )
    return MgDecomposition(base=base, xn_exp=f, n=n, t=t)
