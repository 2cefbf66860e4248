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

One kernel, _walk_lists, runs every block walk, on exponent lists; _walk
wraps it for Monomials.  At each jump it takes the largest
block its rule admits, or one elementary step when not even l = 1 is
admitted, and charges the rule for it.  The rule keeps the walk's only
ledger, and callers read the cost from it: the deficit rule's cost is its
target less the deficit, with one scalar for x_n, and the budget rule adds
each block to a list.  After a partial block (0 < l < k) the step is forced,
and the kernel takes it as its own jump without asking the rule: the block of
l + 1 units broke the rule and costs add along the chain, so the next unit
breaks it too.  When find_z's shrink at x_{n-1} (below) made the block
partial, the next unit is the one that holds the first hit, which the rule
would shrink to 0 as well.  There are two rules:

- budget (advance, mc, cost_between and the witness test): the block's total
  steps stay within the steps left;
- deficit (find_z): the block's cost below x_n stays within what is left of
  a target w, component by component; by the first-hit lemma (below) only
  the x_m and x_{m+1} components can bind.

Neither rule searches over l.  The block's steps sum to C(k+S, S+1) -
C(k-l+S, S+1), S = n - m (hockey stick), so a bound on l is one inverse
binomial, the least N with C(N+r-1, r) >= X, read off the integer r-th root
of r! X (_least_base).  The full block, l = k, has a zero lower row
C(s-1, s+1): its cost is x_m^k times the top row, and the kernel charges
every full block so, building no lower row.  The budget rule admits it when
its C(k+S, S+1) steps fit what is left, before any other arithmetic.  Else it
steps without a solve when one unit, C(k+S-1, S) = C(k+S, S+1) - C(k+S-1,
S+1) steps (the full block less the top row's last column, by Pascal's
rule), is too many.  Else it solves for N = k - l, the least N with
C(N+S, S+1) >= X, X = C(k+S, S+1) less the steps left.  The deficit rule
takes the x_m and x_{m+1} bounds (_bound: r = 2, one isqrt) and nothing
else.  The witness test hands the budget rule mg(u) as a guide, which it
spends as the deficit rule spends its target (_spend); _bound on what is left
of it guesses N, kept when its row also has C(N+S-1, S+1) = _row(N, S)[-1] <
X, and a miss drops the guide.  A rule that admits a partial block hands the
kernel its lower row _row(N, S), built or shifted as below.

A fresh row of terms C(k+s-1, s+1), s = 1..n-m, goes by C(k+s, s+2) =
C(k+s-1, s+1) * (k+s) / (s+2): a multiply of the whole entry by k + s and one
small exact division a column.  A partial block's lower row, for k - l units,
follows instead from the top row of k that the walk holds, by Vandermonde
(_row_down): convolved with (-1)^j C(l, j), j <= min(l, n - m + 1), each column
is a few products of a short binomial of l by an entry of the top row.  On a run
of 700 bits or more and an l short next to it, as at the top levels of a tall
tower, that is the cheaper; elsewhere the row is built afresh.  A row
depends only on the run k, so the kernel holds one row, the longest it has
built for one run, and each jump on that run takes a prefix of it: after a
partial block (0 < l < k) the lower row, for k - l units at x_m; after a full
block onto an empty x_{m-1}, its own row, one column short.  An elementary
step at x_m sends k - 1 units to an empty x_n, and the walk climbs back from
there by full blocks onto empty runs, so the step holds _row(k - 1, n - m),
one Pascal step down from its row, C(k+s-2, s+1) = C(k+s-1, s+1) -
C(k+s-2, s): one subtraction a column.

The climb's first n - m - 1 blocks, at x_n .. x_{m+2}, carry the k - 1 units
back to x_{m+1}, and the step takes them in its own jump when its rule admits
them all (climbs).  By the hockey stick they cost k - 1 at x_{m+2} and the
step's own row above it, C(k+s-1, s+1) at x_{m+2+s}, so the climb needs no
new arithmetic.  The budget rule admits it when its steps fit what is left;
the deficit rule when its lowest component fits the deficit and some
component below it, which the climb leaves alone, is nonzero, so that no
block of it could be an exact hit.  A climb counts its blocks against the
jump cap and is taken only when they all fit under it and the walk is
untraced; else the walk takes the blocks one by one, a trace record each, so
every jump, record and error is the same either way (for the deficit rule,
on a deficit that some state meets: see the first-hit lemma below).

An origin whose x_n run c sits over empty x_{j+1} .. x_{n-1}, as a tower
level's u0 * x_n^t does when u0 is free of x_{n-1}, starts the same way: the
k = n - j - 1 full blocks at x_n .. x_{j+2} carry the run to x_{j+1}, and by
the same hockey stick they cost c at x_{j+2} and _row(c + 1, .) above it.
An untraced walk takes them in one climb before its first iteration, under
the same conditions, and holds _row(c, k) by one Pascal step down, whether
the rule admitted the climb or its blocks go one by one.  _climb is the one
place where a climb is offered to the rule and taken.  A tau level has the
row already: C(c+s, s+1) = C(c-1+(s+1), s+1) are entries 2 .. k+1 of the
column C(c-1+k, k), k < n, that shifts its target by sigma^c, and it hands
the walk that column.

find_z hunts for the first state z whose cost, truncated below x_n, equals
w.  The first-hit lemma: before z, a block or climb that fits the deficit at
the components named above ends at or before z, so it fits every component,
and the deficit rule reads no other.  Costs add along the chain, so before z
the deficit is exactly the cost from the walk's state to z, below x_n.  A
unit of a block at x_m is a step paid at x_m, which sends the run's other
units to x_n, and the steps that bring them back to x_m, the last of them
paid at x_{m+1}; the last unit of a full block is the step alone.  A climb
ends with its full block at its lowest variable x_j, so with a step paid at
x_j.  If z lay strictly inside a block or climb, the jump's cost would be
the deficit plus the cost from z to its end, which holds that last step;
paid below x_n, the step would overshoot the component it was checked
against.  Only a partial block at x_{n-1} ends with a step paid at x_n,
and z can then lie inside its last unit, after the unit's one step at
x_{n-1}, but only where the block's cost below x_n, its x_{n-1} exponent
l, equals the deficit.  A climb cannot end at z, which needs a step paid
below x_j: the nonzero component there waits for it.  So the deficit rule
shrinks by one the partial block at x_{n-1} with l equal to the deficit's
x_{n-1} component and nothing left below it, and no other block: any other
block whose cost uses up the deficit ends exactly at z, and one that does
not cannot hide a hit, as costs only grow along the chain.  An elementary
step the deficit cannot pay raises TargetOvershoot.  On a deficit that no
state meets the lemma says nothing, and the walk ends in TargetOvershoot or
at the jump cap by way of the blocks that those components admit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .combinatorics import CapExceeded, binom, gap_count, lex_rank
from .maxgen import MgDecomposition, target_decompose
from .monomial import Monomial, _column, _convolve, _decimal, _Record, lex_cmp, max_index, pred

DEFAULT_MAX_JUMPS = 1_000_000
DEFAULT_MAX_ELEMENTARY = 10_000_000
_SHIFT_BITS = 700  # shorter runs build their lower rows faster afresh (_row_down)

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
    """[C(a+s-1, s+1) for s = 1..count]."""
    return _grow([], a, count)


def _grow(row: list[int], a: int, count: int) -> list[int]:
    """Extend row, a prefix of _row(a, count), in place to all count columns: each from
    the one before by C(a+s, s+2) = C(a+s-1, s+1) * (a+s) / (s+2), from C(a-1, 1) = a - 1."""
    last = row[-1] if row else a - 1
    for s in range(len(row), count):
        last = last * (a + s) // (s + 2)
        row.append(last)
    return row


def _row_below(a: int, tops: list[int]) -> list[int]:
    """_row(a - 1, len(tops)) from tops = _row(a, len(tops)) by Pascal's rule,
    C(a+s-2, s+1) = C(a+s-1, s+1) - C(a+s-2, s): one subtraction a column."""
    return [top - prev for top, prev in zip(tops, [a - 1] + tops)]


def _row_down(a: int, l: int, tops: list[int]) -> list[int]:
    """_row(a - l, len(tops)), 0 <= l < a, from tops = _row(a, len(tops)).

    [1, a-1] + tops is _column(a - 1, .), and by Vandermonde its convolution with
    _column(-l, .) is _column(a - l - 1, .), whose entries 2 onward are the row.  The
    entries (-1)^j C(l, j) of _column(-l, .) vanish past j = l, so a column costs at most
    len(tops) + 2 products of a C(l, j) by a column entry, where _row multiplies a whole
    entry by a - l.  Those products are short by long once a has _SHIFT_BITS bits and
    bits(l) * len(tops) <= bits(a); elsewhere _row is the cheaper, and builds the row.
    """
    s, bits = len(tops), a.bit_length()
    if bits < _SHIFT_BITS or l.bit_length() * s > bits:
        return _row(a - l, s)
    return _convolve([1, a - 1] + tops, _column(-l, min(l + 1, s + 2)))[2:]


def _block_exps(a: int, l: int, tops: list[int], low: list[int]) -> list[int]:
    """Exponents of the (m, a, l) block cost from x_m upward: l, then tops - low,
    where tops = _row(a, n-m) and low = _row(a-l, n-m)."""
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


def _least_base(x: int, r: int) -> int:
    """Least N >= 0 with C(N+r-1, r) >= x, for r >= 2.

    C(y, r) < (y - (r-1)/2)^r / r! (AM-GM), so the least y with C(y, r) >= x
    lies above ((r! x)^(1/r) + (r-1)/2); the start is the least integer there,
    and a climb by binomials, at most r/2 + 1 steps, finds y for r > 2.  For
    r = 2 the start is exact: C(y, 2) >= x iff 2y - 1 >= ceil(sqrt(8x + 1)) =
    isqrt(8x) + 1, so the least y is (isqrt(8x) + 3) // 2.
    """
    if x <= 0:
        return 0
    y = (_iroot(math.factorial(r) * x << r, r) + r + 1) // 2
    while r > 2 and binom(y, r) < x:
        y += 1
    return y - r + 1


def _bound(a: int, tops: list[int], d: list[int], i: int) -> int:
    """Largest l <= a whose block from x_m^a, tops = _row(a, .), keeps its x_m and
    x_{m+1} exponents within d[i] and d[i + 1] (when d has it), read in place:
    l <= d[i], and the least N = a - l with C(N, 2) >= x = tops[0] - d[i + 1],
    which is (isqrt(8x) + 3) // 2."""
    l = min(a, d[i])
    if l and i + 1 < len(d) and tops[0] > d[i + 1]:
        l = min(l, a - (math.isqrt(8 * (tops[0] - d[i + 1])) + 3) // 2)
    return l


def _spend(target: list[int], m: int, exps: list[int]) -> int | None:
    """Take a block's exponents from x_m upward out of target; the index of the
    first component that goes negative (the rest are left as they were), or None."""
    for i in range(m - 1, len(target)):
        target[i] -= exps[i - m + 1]
        if target[i] < 0:
            return i
    return None


class _Budget:
    """The budget rule: a block's total steps stay within the steps left.

    guide, when given, is a componentwise target for the walk's cost (the
    witness test passes mg); what is left of it only guesses partial blocks.
    The walk's cost is self.spent, which take adds each block to.
    """

    def __init__(self, left: int, guide: list[int] | None = None) -> None:
        self.left = left
        self.guide = None if guide is None else list(guide)
        self.spent: list[int] = []  # the walk's cost, x_1 .. x_n, from its first block on

    def met(self) -> bool:
        return self.left == 0

    def cost(self, n: int) -> list[int]:
        return self.spent or [0] * n

    def largest(self, m: int, a: int, tops: list[int]) -> int:
        """Largest l whose block from x_m^a takes at most the steps left.

        The full block takes total = C(a+s, s+1) steps, one unit C(a+s-1, s) =
        total - tops[-1] (Pascal's rule).  A partial block leaves the least N =
        a - l with C(N+s, s+1) = N + sum(_row(N, s)) >= x = total - left, that
        is, with C(N+s-1, s+1) = _row(N, s)[-1] < x as well.  The guide guesses
        l as _bound on what is left of it, below a, and the guess's row confirms
        it by those two comparisons; a miss drops the guide.  Else N is one
        inverse binomial, _least_base(x, s+1).  Either way its row, shifted down
        from tops (_row_down), is the block's lower row, left in self.low for
        the walk.
        """
        if not tops:  # m = n: each unit is one step, and no row lies above x_n
            self.low = []
            return min(a, self.left)
        s, total = len(tops), a + sum(tops)
        if total <= self.left:
            return a
        if total - tops[-1] > self.left:  # one unit takes C(a+s-1, s) = total - C(a+s-1, s+1) steps
            return 0
        x = total - self.left  # 0 < x <= C(a-1+s, s+1), so 0 < N < a
        g = self.guide
        if g is not None:
            l = min(a - 1, _bound(a, tops, g, m - 1))
            low = _row_down(a, l, tops)
            if a - l + sum(low) >= x > low[-1]:
                self.low = low
                return l
            self.guide = None
        l = a - _least_base(x, s + 1)
        self.low = _row_down(a, l, tops)
        return l

    def climbs(self, j: int, exps: list[int]) -> bool:
        """Whether every block of a climb, exps from x_j upward, fits: their steps together do."""
        return sum(exps) <= self.left

    def take(self, m: int, exps: list[int]) -> None:
        self.left -= sum(exps)
        if self.guide is not None and _spend(self.guide, m, exps) is not None:
            self.guide = None  # the cost has left the target behind
        if not self.spent:
            self.spent = [0] * (m - 1 + len(exps))  # exps runs from x_m to x_n
        for i, e in enumerate(exps, start=m - 1):
            self.spent[i] += e


class _Deficit:
    """find_z's rule: a block's cost below x_n stays within the deficit, componentwise.
    The walk's cost is the target, the deficit it started from, less the deficit, and x_n."""

    def __init__(self, deficit: list[int]) -> None:
        self.deficit = deficit  # x_1 .. x_{n-1}; x_n costs nothing here
        self.target = list(deficit)
        self.xn = 0  # the walk's x_n cost

    def met(self) -> bool:
        return not any(self.deficit)

    def cost(self, n: int) -> list[int]:
        return [t - d for t, d in zip(self.target, self.deficit)] + [self.xn]

    def largest(self, m: int, a: int, tops: list[int]) -> int:
        """Largest l whose block fits the deficit at x_m and x_{m+1} (_bound); by the
        first-hit lemma it then fits every component.  A partial block at x_{n-1} that
        would use up the deficit is one unit shorter, since the first hit lies inside its
        last unit.  A partial block's lower row is left in self.low for the walk."""
        if not tops:  # m = n: the block costs nothing below x_n
            return a
        d = self.deficit  # d[m - 1 + s] bounds the x_{m+s} exponent, s < n - m
        l = _bound(a, tops, d, m - 1)
        if m == len(d) and 0 < l == d[m - 1] < a and not any(d[: m - 1]):
            l -= 1  # m = n - 1: the first hit lies inside the block's last unit
        if 0 < l < a:
            self.low = _row_down(a, l, tops)
        return l

    def climbs(self, j: int, exps: list[int]) -> bool:
        """Whether a climb, exps from x_j upward, is taken whole: a nonzero component below
        x_j rules out an exact hit, and its x_j exponent fits (x_n, at j = n, costs nothing
        here), so by the first-hit lemma it fits every component."""
        d = self.deficit
        return any(d[: j - 1]) and (j > len(d) or exps[0] <= d[j - 1])

    def take(self, m: int, exps: list[int]) -> None:
        i = _spend(self.deficit, m, exps)
        if i is not None:
            raise TargetOvershoot(
                f"target component x{i + 1} is exhausted; no walk realizes "
                f"the base of mg (t below the lower threshold?)"
            )
        self.xn += exps[-1]


def _climb(rule: _Budget | _Deficit, cur: list[int], j: int, exps: list[int]) -> bool:
    """Carry the x_n run to the empty x_{j-1} by the full blocks at x_n .. x_j, exps their
    summed cost from x_j upward, if the rule admits them all; whether it did."""
    if not rule.climbs(j, exps):
        return False
    rule.take(j, exps)
    cur[j - 2], cur[-1] = cur[-1], 0
    return True


def _check_cap(max_jumps: int) -> None:
    """A negative jump cap is a ValueError, whether or not a walk would run."""
    if max_jumps < 0:
        raise ValueError(f"the jump cap must be nonnegative, got {max_jumps}")


def _walk(origin: Monomial, rule: _Budget | _Deficit, max_jumps: int, trace: TraceFn | None) -> WalkState:
    """_walk_lists from origin, its position and the rule's cost as Monomials."""
    cur = _walk_lists(origin.exps, rule, max_jumps, trace)
    cost = rule.cost(origin.n)
    return WalkState(Monomial(origin.n, tuple(cur)), Monomial(origin.n, tuple(cost)), sum(cost))


def _walk_lists(
    origin: Sequence[int], rule: _Budget | _Deficit, max_jumps: int, trace: TraceFn | None,
    col: list[int] | None = None,
) -> list[int]:
    """Walk upward from the origin with these exponents, block by block, until the rule is
    met; the exponents of the state reached.  The walk's cost is in the rule's ledger.
    Monomials are built for trace records and error texts alone.  col, when given, is
    monomial._column(c, n) for the origin's x_n run c, whose entries C(c+s, s+1) are the
    origin climb's row _row(c + 1, .)."""
    _check_cap(max_jumps)
    n = len(origin)
    cur = list(origin)
    jumps = 0
    b, known = 0, []  # the longest row built for run size b; no run is empty
    frm = Monomial(n, tuple(cur)) if trace is not None else None
    c, j = cur[n - 1], n - 1  # the x_n run, over empty x_{j+1} .. x_{n-1}
    while j and not cur[j - 1]:
        j -= 1
    k = n - j - 1  # full blocks at x_n .. x_{j+2} carry it to x_{j+1}
    if c and k and trace is None and k <= max_jumps and not rule.met():  # traced: one by one
        # the climb costs c at x_{j+2} and row above it, by the hockey stick; col holds the row
        # unless the run climbs to x_1 (k = n - 1), one column past it
        row = col[2 : k + 2] if col is not None and k + 2 <= len(col) else _row(c + 1, k)
        b, known = c, _row_below(c + 1, row)
        if _climb(rule, cur, j + 2, [c] + row[: k - 1]):
            jumps = k
    forced = False  # the last jump was a partial block, so the next unit breaks the rule too
    while not rule.met():
        jumps += 1
        if jumps > max_jumps:
            raise CapExceeded(f"walk exceeded the jump cap of {max_jumps}")
        m = n  # max_index(cur); both rules hold at once on a degree-0 origin
        while not cur[m - 1]:
            m -= 1
        if m == 1:
            raise TargetOvershoot(f"slice exhausted above {Monomial(n, tuple(origin))} with target unmet")
        a = cur[m - 1]
        if a != b:
            b, known = a, _row(a, n - m)
        elif len(known) < n - m:  # only after a full block onto an empty run
            _grow(known, a, n - m)
        tops = known[: n - m]
        l = 0 if forced else rule.largest(m, a, tops)
        forced = 0 < l < a
        if l == a:  # a full block: tops is the whole cost above x_m
            exps = [a] + tops
            cur[m - 2], cur[m - 1] = cur[m - 2] + a, 0
        elif l:  # the rule hands the lower row, the next jump's row at x_m
            exps = _block_exps(a, l, tops, rule.low)
            cur[m - 2], cur[m - 1] = cur[m - 2] + l, a - l
            b, known = a - l, rule.low
        else:  # even a one-unit block breaks the rule; one elementary step
            exps = [1] + [0] * (n - m)
            cur[m - 2], cur[m - 1] = cur[m - 2] + 1, 0
            cur[n - 1] += a - 1
            b, known = a - 1, _row_below(a, tops)
        rule.take(m, exps)
        if trace is not None:
            to, block = Monomial(n, tuple(cur)), Monomial(n, (0,) * (m - 1) + tuple(exps))
            trace({"from": str(frm), "to": str(to), "block_cost": str(block), "steps_so_far": _decimal(sum(rule.cost(n)))})
            frm = to
        k = n - m - 1  # full blocks at x_n .. x_{m+2} carry a step's a - 1 units back to x_{m+1}
        if not l and a > 1 and k and trace is None and jumps + k <= max_jumps:  # traced: one by one
            if _climb(rule, cur, m + 2, [a - 1] + tops[: k - 1]):  # the hockey stick again
                jumps += k
    return cur


def _check_budget(origin: Monomial, budget: int) -> None:
    """A walk of `budget` steps must fit in the predecessors above origin."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    avail = lex_rank(origin) - 1
    if budget > avail:
        raise ValueError(f"budget {budget} exceeds the {avail} predecessors above {origin}")


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
    budget = lex_rank(u) - lex_rank(v)  # at most lex_rank(u) - 1, so advance's guard is moot
    st = _walk(u, _Budget(budget), max_jumps, trace)
    if st.current != v:
        raise RuntimeError(f"walk of {budget} steps from {u} ended at {st.current}, not {v}")
    return st.cost


def mc(u: Monomial, max_jumps: int = DEFAULT_MAX_JUMPS, trace: TraceFn | None = None) -> Monomial:
    """Cost of the walk from u up to pred^g(u), g = gap_count(u).

    g = lex_rank(u) - borel_size(u) fits in the slice, so the walk needs no guard."""
    return _walk(u, _Budget(gap_count(u)), max_jumps, trace).cost


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
