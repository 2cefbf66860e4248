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
block its rule admits (doubling, then bisection over l), or one elementary
step when not even l = 1 is admitted, and charges the rule for it.  There
are two rules:

- budget (advance): the block's total steps stay within the steps left;
- deficit (find_z): the block's cost below x_n stays within what is left of
  a target w, component by component.

A probe computes the cost exponents lazily from x_m upward and stops at the
first one that breaks the rule; the deficit rule never computes the x_n
exponent.  The l-free terms C(k+s-1, s+1) are computed once per jump.

find_z hunts for the first state whose cost, truncated below x_n, equals w.
A block whose visible cost would consume the deficit exactly is shrunk by
one: costs only grow along the chain, so a block strictly under the deficit
can hide no interior hit, while an exact-hit block might (the first hit can
sit mid-run, right after an elementary step).  An elementary step the
deficit cannot pay raises TargetOvershoot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .combinatorics import CapExceeded, binom, gap_count, lex_rank
from .maxgen import target_decompose
from .monomial import Monomial, lex_cmp, max_index, pred

DEFAULT_MAX_JUMPS = 1_000_000
DEFAULT_MAX_ELEMENTARY = 10_000_000

TraceFn = Callable[[dict], None]


class TargetOvershoot(RuntimeError):
    """The walk can no longer reach its cost target exactly."""


@dataclass(frozen=True)
class WalkState:
    """Position, accumulated cost and step count of a walk.

    deg(cost) == steps, and the cost never contains x_1: no elementary step
    is ever paid in the first variable.
    """

    current: Monomial
    cost: Monomial
    steps: int


def _block_exps(m: int, k: int, l: int, n: int, tops: list[int]) -> Iterator[int]:
    """Exponents of the (m, k, l) block cost from x_m upward, computed on demand.

    tops caches the l-free terms C(k+s-1, s+1); share it between the probes
    of one jump.
    """
    yield l
    for s in range(1, n - m + 1):
        if len(tops) < s:
            tops.append(binom(k + s - 1, s + 1))
        yield tops[s - 1] - binom(k - l + s - 1, s + 1)


def _largest_l(a: int, fits: Callable[[int], bool]) -> int:
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


class _Budget:
    """advance's rule: a block's total steps stay within the steps left."""

    def __init__(self, left: int) -> None:
        self.left = left

    def met(self) -> bool:
        return self.left == 0

    def fits(self, m: int, exps: Iterator[int]) -> bool:
        total = 0
        for e in exps:
            total += e
            if total > self.left:
                return False
        return True

    def exact_hit(self, m: int, exps: Iterator[int]) -> bool:
        return False

    def take(self, m: int, exps: list[int]) -> None:
        self.left -= sum(exps)


class _Deficit:
    """find_z's rule: a block's cost below x_n stays within the deficit, componentwise."""

    def __init__(self, deficit: list[int]) -> None:
        self.deficit = deficit  # x_1 .. x_{n-1}; x_n costs nothing here

    def met(self) -> bool:
        return not any(self.deficit)

    def fits(self, m: int, exps: Iterator[int]) -> bool:
        # the deficit comes first, so zip stops before computing the x_n exponent
        for d, e in zip(self.deficit[m - 1:], exps):
            if e > d:
                return False
        return True

    def exact_hit(self, m: int, exps: Iterator[int]) -> bool:
        """Would the block consume the whole deficit?  Then it may hide the first hit."""
        if any(self.deficit[: m - 1]):
            return False
        return all(e == d for d, e in zip(self.deficit[m - 1:], exps))

    def take(self, m: int, exps: list[int]) -> None:
        for i, e in zip(range(m - 1, len(self.deficit)), exps):
            if e > self.deficit[i]:
                raise TargetOvershoot(
                    f"target component x{i + 1} is exhausted; no walk realizes "
                    f"the base of mg (t below the lower threshold?)"
                )
            self.deficit[i] -= e


def _walk(origin: Monomial, rule: _Budget | _Deficit, max_jumps: int, trace: TraceFn | None) -> WalkState:
    """Walk upward from origin, block by block, until the rule is met."""
    if max_jumps < 0:
        raise ValueError(f"the jump cap must be nonnegative, got {max_jumps}")
    n = origin.n
    cur = origin
    cost = [0] * n
    done = 0
    jumps = 0
    while not rule.met():
        jumps += 1
        if jumps > max_jumps:
            raise CapExceeded(f"walk exceeded the jump cap of {max_jumps}")
        m = max_index(cur)
        if m == 1:
            raise TargetOvershoot(f"slice exhausted above {origin} with target unmet")
        a = cur.exps[m - 1]
        tops: list[int] = []
        l = _largest_l(a, lambda l: rule.fits(m, _block_exps(m, a, l, n, tops)))
        if l and rule.exact_hit(m, _block_exps(m, a, l, n, tops)):
            l -= 1
        if l:
            exps = list(_block_exps(m, a, l, n, tops))
            e = list(cur.exps)
            e[m - 2] += l
            e[m - 1] = a - l
            nxt = Monomial(n, tuple(e))
        else:
            # even a one-unit block breaks the rule; one elementary step
            exps = [1] + [0] * (n - m)
            nxt = pred(cur)
        rule.take(m, exps)
        block = (0,) * (m - 1) + tuple(exps)
        cost = [c + b for c, b in zip(cost, block)]
        done += sum(exps)
        if trace is not None:
            _emit(trace, cur, nxt, Monomial(n, block), done)
        cur = nxt
    return WalkState(cur, Monomial(n, tuple(cost)), done)


def _emit(trace: TraceFn, frm: Monomial, to: Monomial, cost: Monomial, done: int) -> None:
    trace(
        {
            "from": str(frm),
            "to": str(to),
            "block_cost": str(cost),
            "steps_so_far": str(done),
        }
    )


def _check_budget(origin: Monomial, budget: int) -> None:
    """A walk of `budget` steps must fit in the predecessors above origin."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    avail = lex_rank(origin) - 1
    if budget > avail:
        raise ValueError(
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
) -> tuple[Monomial, WalkState]:
    """First monomial z above u0 * x_n^t whose walk cost, truncated below x_n,
    equals the x_n-free base w of mg(u0 * x_n^t).

    u0 lives in the ambient below n.  Exists whenever t is at least the
    threshold of u0 one ambient down; otherwise some component of the target
    runs out mid-walk and TargetOvershoot is raised.
    """
    decomp = target_decompose(u0, n, t)
    origin = Monomial(n, u0.exps + (t,))
    state = _walk(origin, _Deficit(list(decomp.base.exps[: n - 1])), max_jumps, trace)
    return state.current, state
