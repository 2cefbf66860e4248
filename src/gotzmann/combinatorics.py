"""Counting and enumeration over degree slices.

Two kinds of tools live here.  The enumerating operations (enumerate_monomials,
borel_enumerate, lexsegment, lexinterval) materialize every element and refuse
with CapExceeded once a configurable size cap is passed; they never truncate
silently.  The closed-form counters (binom, borel_size, lex_rank, gap_count)
stay exact at any size and are what the fast algorithms rely on.

One successor, _next_below, walks every slice: lexinterval steps it down from
its upper end, lexsegment is the interval below x_1^d with x_1^d in front, and
enumerate_monomials is the lexsegment of the slice minimum x_n^d.

borel_size uses the standard correspondence between the Borel closure of
x_{i_1}...x_{i_d} (indices ascending) and nondecreasing sequences j_1 <= ...
<= j_d with j_k <= i_k.  prefix_borel_sizes counts those one position at a
time with a prefix-sum dynamic program; it is the per-position oracle.
_run_walk visits each exponent run (i, e) of u once and carries the
truncated prefix-sum vector v (at most max_index(u) entries) across it: one
prefix sum per position on a run with e <= 2i, and all e at once in closed
form on a longer one.  The same walk carries the gap form mg(u) that maxgen
reads off it, by mg(u * x_i) = sigma(mg(u) + (|Borel(u)| - 1) * x_{i+1}).
So the cost grows with the ambient and the number of runs, not with the
size of an exponent.  Each update of the gap form is prefix-local, so one
walk over a core also records the closure size and gap form of every prefix,
one ambient up: the inputs of every level of a threshold tower.  The
enumeration oracle certifies it on small grids in the tests.  lex_rank
wraps _lex_rank, which ranks a bare exponent list for those levels.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate

from .monomial import Monomial, _Record, _sigma_pow, deg, lex_cmp

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


def enumerate_monomials(n: int, d: int, cap: int | None = DEFAULT_CAP) -> MonomialSet:
    """All monomials of degree d in n variables, lex-descending (x_1^d first)."""
    if n < 1 or d < 0:
        raise ValueError(f"bad slice parameters n={n}, d={d}")
    _check_cap(binom(d + n - 1, n - 1), cap, f"the degree-{d} slice in {n} variables")
    return lexsegment(Monomial(n, (0,) * (n - 1) + (d,)), cap=None)


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
    return _lex_rank(u.exps)


def _lex_rank(exps: Sequence[int]) -> int:
    """lex_rank of the monomial with these exponents, in ambient len(exps)."""
    rank = 1
    rem = sum(exps)
    n = len(exps)
    for i in range(1, n):
        ui = exps[i - 1]
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


def _run_walk(exps: Sequence[int], n: int = 0, levels: list | None = None) -> tuple[list[int], list[int]]:
    """Walk the exponent runs of u = x_1^exps[0] * x_2^exps[1] * ... once.

    Returns v, the prefix-sum vector of prefix_borel_sizes after the last
    run (sum(v) is the closure size of u), and q, the n exponents of mg(u)
    in ambient n for u below x_n (none for n = 0).

    q follows mg(u * x_i) = sigma(mg(u) + (b - 1) * x_{i+1}) for i >=
    max_index(u), b the closure size of u: the new position adds b - 1 to
    every column above x_i, and sigma raises the degree of each earlier
    position's binomials by one (hockey stick).  Take a run (i, e), with
    weights w_j = B_j - 1 (B_j the closure size after j of its positions)
    and heads g[m] = sum_{j < e} w_j * C(e-1-j, m).  The run takes one of
    two ways, set by e and i alone:

    - e <= 2i, one position at a time: q adds w_j at x_{i+1} and takes one
      prefix sum, and v takes one prefix sum;
    - e > 2i, in closed form: g[m] = sum_c v[c] * C(i-1-c+e, e-m-1) -
      C(e, m+1), v' is sigma^e(v), v'[c] = sum_{c' <= c} C(c-c'+e-1, c-c') *
      v[c'], and q is sigma^e(q) (both monomial._sigma_pow) plus the run's
      share, sum_m C(s, m) * g[m] in the column of order s (x_{i+1+s}), a
      binomial transform of g by one row of sums per column.

    A run costs O(n^2) big-integer operations however long it is, and a
    short run's positions O(n) each.  A run of x_1 comes first and leaves
    every closure size at 1, so it changes nothing but the degree.  The x_n
    power of mg(u * x_n^t) is the last entry of sigma^t(q).

    With a list levels, the walk appends (closure size, q[: i + 1]) after
    each variable i: the closure size of the prefix u_i = x_1^exps[0] ...
    x_i^exps[i-1] and mg(u_i) in ambient i + 1, what _run_walk(exps[: i],
    i + 1) gives, so one walk serves every level of a threshold tower.  That
    holds because every update of q is prefix-local: it writes entry c from
    entries <= c of q, and from v, e and i, which do not depend on n.  The
    add at x_{i+1} writes entry i from v; a prefix sum and sigma^e write
    entry c from entries c' <= c; a long run's share in column i + s reads
    g[m] for m <= s, and g reads v, e and i alone (n only sets how many
    heads there are, and so how many columns get a share); and the test
    any(q) before sigma^e only skips sigma^e of zeros, which are zeros.  So
    by induction over the updates, entries 0 .. i of q are the same in
    ambient n as in ambient i + 1 after each variable i < n.
    """
    v = [1]
    q = [0] * n
    for i, e in enumerate(exps, start=1):
        if i > 1 and e:
            v += [0] * (i - len(v))
            if e <= 2 * i:
                for _ in range(e):
                    if n:
                        q[i] += sum(v) - 1
                        q = list(accumulate(q))
                    v = list(accumulate(v))
            else:
                g = [
                    sum(vc * binom(i - 1 - c + e, i + m - c) for c, vc in enumerate(v) if vc) - binom(e, m + 1)
                    for m in range(n - i)
                ]
                v = _sigma_pow(v, e)
                if any(q):
                    q = _sigma_pow(q, e)
                for col in range(i, n):
                    q[col] += g[0]
                    g = [x + y for x, y in zip(g, g[1:])]
        if levels is not None:
            levels.append((sum(v), q[: i + 1]))
    return v, q


def borel_size(u: Monomial) -> int:
    """Size of the Borel closure of u, without enumeration.

    _run_walk with no gap form: O(n^2) big-integer operations per long run
    and O(n) per position of a short one, however large the exponents are.
    """
    return sum(_run_walk(u.exps)[0])


def gap_count(u: Monomial) -> int:
    """lex_rank(u) - borel_size(u): how much of the segment above u the closure misses."""
    g = lex_rank(u) - borel_size(u)
    if g < 0:
        raise RuntimeError(f"closure of {u} is larger than the segment above it")
    return g
