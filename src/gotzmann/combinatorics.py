"""Counting and enumeration over degree slices.

Two kinds of tools live here.  The enumerating operations (enumerate_monomials,
borel_enumerate, lexsegment, lexinterval) materialize every element and refuse
with CapExceeded once a configurable size cap is passed; they never truncate
silently.  The closed-form counters (binom, borel_size, lex_rank, gap_count)
stay exact at any size and are what the fast algorithms rely on.

borel_size uses the standard correspondence between the Borel closure of
x_{i_1}...x_{i_d} (indices ascending) and nondecreasing sequences j_1 <= ...
<= j_d with j_k <= i_k.  prefix_borel_sizes counts those one position at a
time with a prefix-sum dynamic program; it is the per-position oracle.  The
fast counters never expand u into positions: _run_walk visits each exponent
run (i, e) of u once and carries the truncated prefix-sum vector v (at most
max_index(u) entries) across it in closed form, e prefix sums at once.  The
same walk also sums the gap-form columns that maxgen reads off it, so the
cost grows with the ambient and the number of runs, not with the size of an
exponent.  The enumeration oracle certifies it on small grids in the tests.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate

from .monomial import Monomial, _Record, deg, lex_cmp, max_index

DEFAULT_CAP = 5_000_000


class CapExceeded(RuntimeError):
    """An enumeration or walk would exceed its configured size cap."""


def binom(a: int, b: int) -> int:
    """C(a, b), with C(a, b) = 0 for a < b.  Negative arguments are rejected.

    Identities that rely on negative upper arguments are kept out of the code
    on purpose; every formula used here is arranged so both arguments are
    nonnegative, and a negative argument therefore signals a bug: it raises
    RuntimeError, an internal error, not the ValueError of bad input.
    """
    if a < 0 or b < 0:
        raise RuntimeError(f"binom needs nonnegative arguments, got ({a}, {b})")
    if a < b:
        return 0
    return math.comb(a, b)


class MonomialSet(_Record):
    """Finitely many monomials of one degree in one ambient, strictly lex-descending."""

    n: int
    elements: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"bad ambient count {self.n!r}")
        d = None
        prev = None
        for u in self.elements:
            if not isinstance(u, Monomial) or u.n != self.n:
                raise ValueError("all elements must share the ambient count")
            du = deg(u)
            if d is None:
                d = du
            elif du != d:
                raise ValueError(f"mixed degrees {d} and {du} in one set")
            if prev is not None and prev.exps <= u.exps:
                raise ValueError("elements must be strictly lex-descending")
            prev = u

    @property
    def degree(self) -> int | None:
        """Common degree of the elements, or None for the empty set."""
        return deg(self.elements[0]) if self.elements else None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.elements)

    def __contains__(self, u: Monomial) -> bool:
        return any(u == v for v in self.elements)


def _check_cap(count: int, cap: int | None, what: str) -> None:
    if cap is not None and count > cap:
        raise CapExceeded(f"{what} holds {count} elements, over the cap of {cap}")


def _compositions_desc(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, slots - 1):
            yield (first,) + rest


def enumerate_monomials(n: int, d: int, cap: int | None = DEFAULT_CAP) -> MonomialSet:
    """All monomials of degree d in n variables, lex-descending (x_1^d first)."""
    if n < 1 or d < 0:
        raise ValueError(f"bad slice parameters n={n}, d={d}")
    _check_cap(binom(d + n - 1, n - 1), cap, f"the degree-{d} slice in {n} variables")
    els = tuple(Monomial(n, e) for e in _compositions_desc(d, n))
    return MonomialSet(n, els)


def _next_below(z: Monomial) -> Monomial | None:
    """Immediate lex successor downward, or None at the slice minimum x_n^d."""
    e = list(z.exps)
    n = z.n
    j = None
    for i in range(n - 2, -1, -1):
        if e[i] > 0:
            j = i
            break
    if j is None:
        return None
    tail = e[n - 1]
    e[j] -= 1
    e[n - 1] = 0
    e[j + 1] += tail + 1
    return Monomial(n, tuple(e))


def lex_rank(u: Monomial) -> int:
    """1-based position of u in the lex-descending enumeration of its slice.

    Equivalently the size of the lexsegment above u.  Closed form: 1 plus, for
    each position i < n, the count of completions whose prefix agrees with u
    up to i-1 and exceeds u at i; the inner sum telescopes to one binomial.
    """
    rank = 1
    rem = deg(u)
    n = u.n
    for i in range(1, n):
        ui = u.exps[i - 1]
        slack = rem - ui - 1
        if slack >= 0:
            rank += binom(slack + n - i, n - i)
        rem -= ui
    return rank


def lexsegment(u: Monomial, cap: int | None = DEFAULT_CAP) -> MonomialSet:
    """All monomials of the slice that are lex >= u, descending, ending at u."""
    _check_cap(lex_rank(u), cap, f"the lexsegment above {u}")
    top = Monomial(u.n, (deg(u),) + (0,) * (u.n - 1))
    return MonomialSet(u.n, (top,) + lexinterval(top, u, cap=None).elements)


def lexinterval(v: Monomial, u: Monomial, cap: int | None = DEFAULT_CAP) -> MonomialSet:
    """The half-open interval {z : v > z >= u}, descending.  Requires v >= u."""
    if lex_cmp(v, u) < 0:
        raise ValueError(f"interval needs v >= u, got v={v} below u={u}")
    count = lex_rank(u) - lex_rank(v)
    _check_cap(count, cap, f"the interval between {v} and {u}")
    els = []
    cur = v
    for _ in range(count):
        cur = _next_below(cur)
        if cur is None:
            raise RuntimeError(f"interval from {v} fell off the slice before reaching {u}")
        els.append(cur)
    if count and els[-1] != u:
        raise RuntimeError(f"interval from {v} ends at {els[-1]}, not {u}")
    return MonomialSet(u.n, tuple(els))


def borel_enumerate(u: Monomial, cap: int | None = DEFAULT_CAP) -> MonomialSet:
    """Closure of {u} under every exchange x_j -> x_i with i <= j, descending."""
    n = u.n
    seen = {u.exps}
    stack = [u.exps]
    while stack:
        e = stack.pop()
        for j in range(1, n):
            if e[j] > 0:
                for i in range(j):
                    e2 = list(e)
                    e2[j] -= 1
                    e2[i] += 1
                    t = tuple(e2)
                    if t not in seen:
                        if cap is not None and len(seen) >= cap:
                            raise CapExceeded(
                                f"the Borel closure of {u} exceeds the cap of {cap}"
                            )
                        seen.add(t)
                        stack.append(t)
    els = tuple(Monomial(n, e) for e in sorted(seen, reverse=True))
    return MonomialSet(n, els)


def prefix_borel_sizes(indices: Sequence[int]) -> list[int]:
    """Borel closure sizes of all prefixes of x_{i_1}...x_{i_d}, indices ascending.

    Entry k-1 is the closure size of the length-k prefix.  dp[c] counts the
    admissible nondecreasing sequences ending at index c+1; one position with
    bound i turns dp into its prefix sums, cut off above i.
    """
    sizes = []
    if not indices:
        return sizes
    width = max(indices)
    if min(indices) < 1:
        raise ValueError("variable indices must be >= 1")
    if any(indices[k] > indices[k + 1] for k in range(len(indices) - 1)):
        raise ValueError("indices must ascend")
    dp = [1] + [0] * (width - 1)
    for i in indices:
        acc = 0
        new = [0] * width
        for c in range(width):
            acc += dp[c]
            if c < i:
                new[c] = acc
        dp = new
        sizes.append(sum(dp))
    return sizes


def _run_walk(
    exps: Sequence[int], d: int = 0, columns: Sequence[int] = ()
) -> tuple[list[int], list[int]]:
    """Walk the exponent runs of u = x_1^exps[0] * x_2^exps[1] * ...

    Returns v, the prefix-sum vector of prefix_borel_sizes after the last
    run (sum(v) is the closure size of u), and for each column j the sum

        sum_k (b_k - 1) * C(d - k - 2 + j - i_{k+1}, j - i_{k+1} - 1)

    over the positions k + 1 of u with index i_{k+1} < j, where b_k is the
    closure size of the length-k prefix and d is at least deg(u).

    Inside a run (i, e) that starts after p positions, the closure size after
    j' more positions is B(j') = sum_c v[c] * C(i-1-c+j', j') (hockey stick),
    and the run adds sum_{j' < e} (B(j') - 1) * C(M - j', s) to column j,
    with s = j - i - 1 and M = d - p - 1 + s.  That share is evaluated in one
    of two ways, chosen per column from e and s alone:

    - position sum, for e <= s + 3: the e terms as written, with B(j') read
      off e single prefix sums of v.  The binomials C(M - j', s) = C(K + s, s)
      of one position form a row over s = 0..s_max (columns ascend, so s_max
      is the last column's s).  The next position, K - 1, steps the row by
      Pascal's rule C(K-1+s, s) = C(K+s, s) - C(K-1+s, s-1): s_max
      subtractions instead of a product of s factors of K's size.  The row is
      carried into the next run, whose s_max is smaller, and built by ratios
      only where none reaches: at the first position sum and after a run that
      took the closed form in every column;
    - closed form, for longer runs: sum_{m=1}^{s+1} C(M+1-e, s+1-m) * G[m]
      - (C(M+1, s+1) - C(M+1-e, s+1)), where G[m] = sum_c v[c] *
      C(i-1-c+e, e-m).  The first sum counts (A+s+1)-subsets of
      {0, ..., M+A}, A = i-1-c, whose (A+1)-th smallest element lies among
      the first A+e (Vandermonde); the bracket is the hockey stick for the -1.

    The closed form costs s + 3 binomials of d-sized arguments per column,
    the position sum e row steps, so each takes the runs it is cheaper on.
    Across the run, v advances by e single prefix sums when e <= i or when a
    position sum needs the sizes, and otherwise by v'[c] = sum_{c' <= c}
    C(c-c'+e-1, c-c') * v[c'] with i binomials.
    """
    v = [1]
    shares = [0] * len(columns)
    p = 0
    row, row_k = [], None  # row[s] = C(row_k + s, s), carried from position to position
    for i, e in enumerate(exps, start=1):
        if not e:
            continue
        v += [0] * (i - len(v))
        closed, position = [], []
        for col, j in enumerate(columns):
            if j > i:
                s = j - i - 1
                (closed if e > s + 3 else position).append((col, s))
        g = [0]
        for m in range(1, max((s for _, s in closed), default=-1) + 2):
            g.append(sum(vc * binom(i - 1 - c + e, i - 1 - c + m) for c, vc in enumerate(v) if vc))
        sizes = []
        if e <= i or position:
            for _ in range(e):
                sizes.append(sum(v))
                v = list(accumulate(v))
        else:
            w = [binom(k + e - 1, k) for k in range(i)]
            v = [sum(w[c - c2] * v[c2] for c2 in range(c + 1)) for c in range(i)]
        for col, s in closed:
            top = d - p + s  # M + 1
            low = top - e  # M + 1 - e
            share = sum(binom(low, s + 1 - m) * g[m] for m in range(1, s + 2))
            shares[col] += share - binom(top, s + 1) + binom(low, s + 1)
        s_max = position[-1][1] if position else 0  # columns ascend
        for jp, b in enumerate(sizes if position else ()):
            if b <= 1:
                continue
            k = d - p - 1 - jp  # C(M - j', s) = C(k + s, s)
            if row_k == k + 1 and len(row) > s_max:  # C(k+s, s) = C(k+1+s, s) - C(k+s, s-1)
                row = [x - y for x, y in zip(row[: s_max + 1], [0] + row)]
            else:
                row = [1]
                for s in range(1, s_max + 1):
                    row.append(row[-1] * (k + s) // s)
            row_k = k
            for col, s in position:
                shares[col] += (b - 1) * row[s]
        p += e
    return v, shares


def borel_size(u: Monomial) -> int:
    """Size of the Borel closure of u, without enumeration.

    One step of _run_walk per exponent run: O(n^2) big-integer operations per
    run, however large the exponents are.
    """
    return sum(_run_walk(u.exps)[0])


def gap_count(u: Monomial) -> int:
    """lex_rank(u) - borel_size(u): how much of the segment above u the closure misses."""
    g = lex_rank(u) - borel_size(u)
    if g < 0:
        raise RuntimeError(f"closure of {u} is larger than the segment above it")
    return g
