"""Upward walks along a degree slice and their exact costs.

The elementary step from u to pred(u) costs the largest variable of u, and
costs multiply along a walk, so the cost of climbing from u to some v above
it is a monomial whose degree counts the steps.  Walking step by step is the
oracle (advance_oracle); the block walk below jumps over whole runs in closed
form and is bit-identical to the stepper.

A block converts part of the top run: from v * x_m^k to v * x_{m-1}^l * x_m^{k-l}
at a cost of

    x_m^l * prod_{s=1}^{n-m} x_{m+s}^{C(k+s-1, s+1) - C(k-l+s-1, s+1)},

which for m = n degenerates to x_n^l (one cheap step per unit).  Every state
inside a block lies on the elementary chain, so jumping is exact, and the
cost exponents are monotone in l.

One kernel, _walk, runs every block walk.  At each jump it takes the largest
block its rule admits, or one elementary step when not even l = 1 is
admitted, and charges the rule for it.  There are two rules:

- budget (advance): the block's total steps stay within the steps left;
- deficit (find_z): the block's cost below x_n stays within what is left of
  a target w, component by component.

Neither rule searches over l.  The block's steps sum to C(k+S, S+1) -
C(k-l+S, S+1), S = n - m (hockey stick), so a bound on l is one inverse
binomial, the least N with C(N+c, r) >= X, read off the integer r-th root of
r! X, and only bounds that bind are solved.  The budget rule steps without a
solve when one unit, C(k+S-1, S) steps, is already too many.  The deficit rule
first tests the full block, l = k, whose lower row C(s-1, s+1) is zero: its
cost is x_m^k times the top row, and the kernel charges every full block so,
building no lower row.  Otherwise the deficit rule solves the bounds from
x_m and x_{m+1} (r = 2: one isqrt), checks the others on the lower row at that
l and solves just those that fail; each fits at every smaller l, so the least
bound is exact.  Rows of terms C(k+s-1, s+1), s = 1..n-m, go by C(k+s, s+2) =
C(k+s-1, s+1) * (k+s) / (s+2): one multiply and one small exact division a
column.  The next jump's row is carried: after a partial block (0 < l < k) it
is the lower row (same m, k' = k - l); after a full block onto an empty
x_{m-1}, it is this row and one more column (m - 1, same k).

find_z hunts for the first state whose cost, truncated below x_n, equals w.
A block whose visible cost would consume the deficit exactly is shrunk by
one: costs only grow along the chain, so a block strictly under the deficit
can hide no interior hit, while an exact-hit block might (the first hit can
sit mid-run, right after an elementary step).  An elementary step the
deficit cannot pay raises TargetOvershoot.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .combinatorics import CapExceeded, binom, gap_count, lex_rank
from .maxgen import MgDecomposition, target_decompose
from .monomial import Monomial, _Record, lex_cmp, max_index, pred

DEFAULT_MAX_JUMPS = 1_000_000
DEFAULT_MAX_ELEMENTARY = 10_000_000

TraceFn = Callable[[dict], None]


class TargetOvershoot(RuntimeError):
    """The walk can no longer reach its cost target exactly."""


class WalkState(_Record):
    """Position, accumulated cost and step count of a walk.

    deg(cost) == steps, and the cost never contains x_1: no elementary step
    is ever paid in the first variable.
    """

    current: Monomial
    cost: Monomial
    steps: int


def _row(a: int, count: int) -> list[int]:
    """[C(a+s-1, s+1) for s = 1..count]: C(a, 2), then each column from the
    last by C(a+s, s+2) = C(a+s-1, s+1) * (a+s) / (s+2)."""
    row = [a * (a - 1) // 2] if count else []
    for s in range(1, count):
        row.append(row[-1] * (a + s) // (s + 2))
    return row


def _block_exps(a: int, l: int, tops: list[int], low: list[int] | None = None) -> list[int]:
    """Exponents of the (m, a, l) block cost from x_m upward: l, then tops - low,
    where tops = _row(a, n-m) and low = _row(a-l, n-m) (built when not given)."""
    low = _row(a - l, len(tops)) if low is None else low
    return [l] + [top - lo for top, lo in zip(tops, low)]


def _iroot(x: int, r: int) -> int:
    """The y with y**r <= x < (y+1)**r: even r through math.isqrt, odd r by Newton's
    method from above, from a float root (up to 1000 bits) or the root of x's top half."""
    if r == 1 or x < 2:
        return x
    if r % 2 == 0:
        return _iroot(math.isqrt(x), r // 2)
    bits = x.bit_length()
    if bits <= 1000:
        y = int(float(x) ** (1.0 / r) * (1 + 2.0**-40)) + 2
    else:
        h = max(1, bits // (2 * r))
        y = (_iroot(x >> (h * r), r) + 1) << h
    while True:
        z = ((r - 1) * y + x // y ** (r - 1)) // r
        if z >= y:
            return y
        y = z


def _least_base(x: int, r: int, c: int) -> int:
    """Least N >= 0 with C(N+c, r) >= x, for c < r and r >= 2.

    C(y, r) < (y - (r-1)/2)^r / r! (AM-GM), so y = N + c starts above
    ((r! x)^(1/r) + (r-1)/2) and climbs at most r/2 + 1 steps.  For r = 2 the
    start is exact: C(y, 2) >= x iff 2y - 1 >= ceil(sqrt(8x + 1)) = isqrt(8x) + 1,
    so the least y is (isqrt(8x) + 3) // 2 and no binomial confirms it.
    """
    if x <= 0:
        return 0
    y = (_iroot(math.factorial(r) * x << r, r) + r + 1) // 2
    while r > 2 and binom(y, r) < x:
        y += 1
    return y - c


class _Budget:
    """advance's rule: a block's total steps stay within the steps left."""
    low = None  # builds no lower row

    def __init__(self, left: int) -> None:
        self.left = left

    def met(self) -> bool:
        return self.left == 0

    def largest(self, m: int, a: int, tops: list[int]) -> int:
        """Largest l whose block from x_m^a takes at most the steps left."""
        if not tops:  # m = n: each unit is one step
            return min(a, self.left)
        s, total = len(tops), a + sum(tops)  # total = C(a+s, s+1)
        if total * (s + 1) // (a + s) > self.left:  # one unit takes C(a+s-1, s) steps
            return 0
        return a - _least_base(total - self.left, s + 1, s)

    def take(self, m: int, exps: list[int]) -> None:
        self.left -= sum(exps)


class _Deficit:
    """find_z's rule: a block's cost below x_n stays within the deficit, componentwise."""

    def __init__(self, deficit: list[int]) -> None:
        self.deficit = deficit  # x_1 .. x_{n-1}; x_n costs nothing here

    def met(self) -> bool:
        return not any(self.deficit)

    def largest(self, m: int, a: int, tops: list[int]) -> int:
        """Largest l whose block cost below x_n fits the deficit, less one on an exact hit."""
        self.low = None  # the lower row of the admitted block, when one is admitted
        if not tops:  # m = n: the block costs nothing below x_n
            return a
        d = self.deficit[m - 1:]  # d[s] bounds the x_{m+s} exponent, s < n - m
        full = a <= d[0] and all(top <= e for top, e in zip(tops, d[1:]))
        if full:  # its lower row is zero, so its cost is x_m^a times tops
            l = a
        else:
            l = min(a, d[0])
            if l and len(d) > 1:
                l = min(l, a - _least_base(tops[0] - d[1], 2, 0))
            while l:  # at most twice: a component that fits at l fits at every smaller l
                self.low = _row(a - l, len(tops))
                over = [s for s in range(2, len(d)) if tops[s - 1] - self.low[s - 1] > d[s]]
                if not over:
                    break
                l = min(a - _least_base(tops[s - 1] - d[s], s + 1, s - 1) for s in over)
        if l and not any(self.deficit[: m - 1]):
            exps = [a] + tops if full else _block_exps(a, l, tops, self.low)
            if d == exps[: len(tops)]:  # a block that would consume the whole deficit may hide the first hit
                l, self.low = l - 1, None
        return l

    def take(self, m: int, exps: list[int]) -> None:
        for i, e in zip(range(m - 1, len(self.deficit)), exps):
            if e > self.deficit[i]:
                raise TargetOvershoot(
                    f"target component x{i + 1} is exhausted; no walk realizes "
                    f"the base of mg (t below the lower threshold?)"
                )
            self.deficit[i] -= e


def _walk(origin: Monomial, rule: _Budget | _Deficit, max_jumps: int, trace: TraceFn | None) -> WalkState:
    """Walk upward from origin, block by block, until the rule is met.  Position and
    cost are exponent lists; Monomials are built for the result and trace records."""
    if max_jumps < 0:
        raise ValueError(f"the jump cap must be nonnegative, got {max_jumps}")
    n = origin.n
    cur = list(origin.exps)
    cost = [0] * n
    jumps = 0
    carried = None  # the next jump's tops, when the last block left it known
    frm = origin
    while not rule.met():
        jumps += 1
        if jumps > max_jumps:
            raise CapExceeded(f"walk exceeded the jump cap of {max_jumps}")
        m = n  # max_index(cur); both rules hold at once on a degree-0 origin
        while not cur[m - 1]:
            m -= 1
        if m == 1:
            raise TargetOvershoot(f"slice exhausted above {origin} with target unmet")
        a = cur[m - 1]
        tops = _row(a, n - m) if carried is None else carried
        l = rule.largest(m, a, tops)
        if l == a:  # a full block: tops is the whole cost above x_m
            exps = [a] + tops
            cur[m - 2], cur[m - 1] = cur[m - 2] + a, 0
            carried = None
            if a == cur[m - 2]:  # onto an empty x_{m-1}: the next jump is there, with this row
                carried = tops + [tops[-1] * (a + n - m) // (n - m + 2) if tops else a * (a - 1) // 2]
        elif l:
            low = _row(a - l, n - m) if rule.low is None else rule.low
            exps = _block_exps(a, l, tops, low)
            cur[m - 2], cur[m - 1] = cur[m - 2] + l, a - l
            carried = low
        else:  # even a one-unit block breaks the rule; one elementary step
            exps = [1] + [0] * (n - m)
            cur[m - 2], cur[m - 1] = cur[m - 2] + 1, 0
            cur[n - 1] += a - 1
            carried = None
        rule.take(m, exps)
        for i, e in enumerate(exps, m - 1):
            cost[i] += e
        if trace is not None:
            to = Monomial(n, tuple(cur))
            _emit(trace, frm, to, Monomial(n, (0,) * (m - 1) + tuple(exps)), sum(cost))
            frm = to
    return WalkState(Monomial(n, tuple(cur)), Monomial(n, tuple(cost)), sum(cost))


def _emit(trace: TraceFn, frm: Monomial, to: Monomial, cost: Monomial, done: int) -> None:
    trace(
        {
            "from": str(frm),
            "to": str(to),
            "block_cost": str(cost),
            "steps_so_far": str(done),
        }
    )


class _BeyondSlice(ValueError):
    """A walk's budget exceeds the predecessors above its origin."""


def _check_budget(origin: Monomial, budget: int) -> None:
    """A walk of `budget` steps must fit in the predecessors above origin."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    avail = lex_rank(origin) - 1
    if budget > avail:
        raise _BeyondSlice(
            f"budget {budget} exceeds the {avail} predecessors above {origin}"
        )


def advance(
    origin: Monomial,
    budget: int,
    max_jumps: int = DEFAULT_MAX_JUMPS,
    trace: TraceFn | None = None,
) -> WalkState:
    """Walk exactly `budget` elementary steps upward from origin.

    Takes the largest run conversion fitting the remaining budget and falls
    back to a single step when even one unit is too expensive; the result
    equals advance_oracle's.  The budget must not exceed the predecessors
    available above the origin.
    """
    _check_budget(origin, budget)
    return _walk(origin, _Budget(budget), max_jumps, trace)


def advance_oracle(origin: Monomial, budget: int, cap: int = DEFAULT_MAX_ELEMENTARY) -> WalkState:
    """advance by explicit stepping: one predecessor at a time, each paid in
    the largest variable it leaves.  Refuses walks longer than cap steps."""
    _check_budget(origin, budget)
    if budget > cap:
        raise CapExceeded(f"elementary walk of {budget} steps exceeds the cap of {cap}")
    cur = origin
    cost = [0] * origin.n
    for _ in range(budget):
        cost[max_index(cur) - 1] += 1
        cur = pred(cur)
    return WalkState(cur, Monomial(origin.n, tuple(cost)), budget)


def cost_between(
    u: Monomial,
    v: Monomial,
    max_jumps: int = DEFAULT_MAX_JUMPS,
    trace: TraceFn | None = None,
) -> Monomial:
    """Cost of the walk from u up to v (v lex >= u, same degree and ambient)."""
    if lex_cmp(v, u) < 0:
        raise ValueError(f"no upward walk: {v} lies below {u}")
    budget = lex_rank(u) - lex_rank(v)
    st = advance(u, budget, max_jumps=max_jumps, trace=trace)
    if st.current != v:
        raise RuntimeError(f"walk of {budget} steps from {u} ended at {st.current}, not {v}")
    return st.cost


def mc(u: Monomial, max_jumps: int = DEFAULT_MAX_JUMPS, trace: TraceFn | None = None) -> Monomial:
    """Cost of the walk from u up to pred^g(u), g = gap_count(u)."""
    return advance(u, gap_count(u), max_jumps=max_jumps, trace=trace).cost


def find_z(
    u0: Monomial,
    n: int,
    t: int,
    max_jumps: int = DEFAULT_MAX_JUMPS,
    trace: TraceFn | None = None,
    decomp: MgDecomposition | None = None,
) -> tuple[Monomial, WalkState]:
    """First monomial z above u0 * x_n^t whose walk cost, truncated below x_n,
    equals the x_n-free base w of mg(u0 * x_n^t).

    u0 lives in the ambient below n.  Exists whenever t is at least the
    threshold of u0 one ambient down; otherwise some component of the target
    runs out mid-walk and TargetOvershoot is raised.  decomp, when given, must
    be target_decompose(u0, n, t); a caller that also needs the x_n power of
    mg passes it so that the target is evaluated once.
    """
    if decomp is None:
        decomp = target_decompose(u0, n, t)
    origin = Monomial(n, u0.exps + (t,))
    state = _walk(origin, _Deficit(list(decomp.base.exps[: n - 1])), max_jumps, trace)
    return state.current, state
