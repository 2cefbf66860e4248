"""Gotzmann verdicts and thresholds for principal Borel-stable ideals.

A monomial u is Gotzmann exactly when the gap form mg(u) coincides with the
cogap form mc(u): maxgen of what the Borel closure misses above u against the
cost of climbing that many steps from u.  is_gotzmann tests this without any
enumeration; is_gotzmann_oracle re-derives both sides from explicit sets.

The threshold tau of an x_n-free monomial u0 is the least t making u0 * x_n^t
Gotzmann.  It satisfies

    tau = f(t) - h(t) - k(t) + t        for every t >= tau one ambient down,

where f(t) is the x_n-degree of mg(u0 * x_n^t), z(t) is the first-hit state
of find_z, h(t) its x_n cost and k(t) its x_n degree.  tau() evaluates the
right-hand side at t* = tau(u0, n-1), recursing down to the two-variable
base where every monomial is Gotzmann.  For a general u = u0 * x_n^t the
threshold drops by the shift: max(tau(u0) - t, 0).  One builder, _tower,
makes every tower bottom-up from the base and asks each level for its f, h
and k at t*: tau asks the level walks, the cache (cache.replay) its stored
rows.  One run walk over the core of the query gives every level its closure
size and mg(u0) (combinatorics._run_walk), and each level's target and walk
are paths._find_z, the walk behind the public find_z, on exponent lists
(_counts); Monomials are built for the reports, trace records and error
texts.

tau_oracle scans t upward with the witness test; tau_formula holds the known
closed laws for small ambients and a measured, unproved law for tau(x_2^d) in
every ambient; conjecture_scan probes how tau(x_2^d) grows
with the ambient, in exact arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable

from .combinatorics import (
    DEFAULT_CAP,
    CapExceeded,
    MonomialSet,
    _run_walk,
    binom,
    lex_rank,
)
from .maxgen import _segment_gaps, maxgen_of_set
from .monomial import Monomial, _column, _decimal, _Record, _shift, variable_power
from .paths import DEFAULT_MAX_JUMPS, TargetOvershoot, TraceFn, _Budget, _find_z, _walk_lists


class GotzmannWitness(_Record):
    """Both sides of the gap/cogap comparison for one monomial."""

    u: Monomial
    mg: Monomial
    u_tilde: Monomial
    mc: Monomial
    gap_count: int
    is_gotzmann: bool


class ThresholdReport(_Record):
    """One level of the threshold recursion.

    u0 is the x_n-free core of the query; t_star, f, h and k are evaluated at
    t* = tau(u0, n-1); delta = f - h and tau = delta - k + t_star.  When the
    query carried an x_n power t, the tau field is lowered to
    max(core threshold - t, 0) while the other fields keep describing the
    core.  sub_report is the level below, None at n = 2.
    """

    u0: Monomial
    n: int
    t_star: int
    f_at_tstar: int
    h_at_tstar: int
    k_at_tstar: int
    delta: int
    tau: int
    sub_report: ThresholdReport | None


def is_gotzmann(
    u: Monomial,
    max_jumps: int = DEFAULT_MAX_JUMPS,
    trace: TraceFn | None = None,
) -> GotzmannWitness:
    """Witness test without enumeration: walk deg(mg(u)) steps and compare costs.

    It takes a tau level's inputs, u's core and its x_n run t: one run walk of
    the core gives mg(core) in ambient n, and one column C(t-1+k, k) shifts it
    by sigma^t to mg(u) (monomial._shift, as a tau level's target is shifted) and
    serves the walk's origin climb.  mg guides the walk's partial blocks.  The
    slice is ranked only when the walk fails, to tell a broken gap form from a
    jump cap that binds."""
    n = u.n
    col = _column(u.exps[-1], n)
    mg = _shift(_run_walk(u.exps[: n - 1], n)[1], col)
    g = sum(mg)
    rule = _Budget(g, mg)
    try:
        cur = _walk_lists(u.exps, rule, max_jumps, trace, col)
    except (TargetOvershoot, CapExceeded) as exc:
        # the closure always reaches x_1^d, so only a broken gap form asks for more
        # steps than the slice holds; its walk runs off the slice or into the jump cap
        if g > lex_rank(u) - 1:
            raise RuntimeError(f"gap count of {u} exceeds the predecessors above it") from exc
        raise
    cost = rule.cost(n)
    return GotzmannWitness(
        u=u, mg=Monomial(n, tuple(mg)), u_tilde=Monomial(n, tuple(cur)), mc=Monomial(n, tuple(cost)),
        gap_count=g, is_gotzmann=(cost == mg),
    )


def is_gotzmann_oracle(u: Monomial, cap: int | None = DEFAULT_CAP) -> bool:
    """The same verdict from fully enumerated gap and cogap sets."""
    seg, gaps = _segment_gaps(u, cap)
    mg = maxgen_of_set(MonomialSet(u.n, gaps))
    g = len(gaps)
    cogaps = seg.elements[len(seg.elements) - g:] if g else ()
    mc = maxgen_of_set(MonomialSet(u.n, cogaps))
    return mg == mc


def tau(
    u: Monomial,
    n: int,
    max_jumps: int = DEFAULT_MAX_JUMPS,
    trace: TraceFn | None = None,
) -> ThresholdReport:
    """Least t such that u * x_n^t is Gotzmann, with the recursion tower.

    u must already live in ambient n (embed explicitly before calling).  One
    run walk over u's core gives every level its closure size and mg(u0)
    (combinatorics._run_walk's levels); _tower then builds the tower bottom-up,
    one recursive call per level, each level's counts from its walk (_counts).
    """
    if n < 2:
        raise ValueError("thresholds need an ambient of at least 2 variables")
    if u.n != n:
        raise ValueError(f"ambient mismatch: monomial lives in {u.n}, asked for {n}")
    return _tower(u.exps, _counts(u.exps, max_jumps, trace))


def _tower(exps: tuple[int, ...], counts: Callable[[int, int], tuple[int, int, int]]) -> ThresholdReport:
    # the tower of the monomial with these exponents, in ambient n = len(exps), built bottom-up
    # from the n = 2 base, one recursive call per level: counts(m, t*) gives level m's f, h and k
    n = len(exps)
    if n == 2:
        return _level(exps, 0, 0, 0, None)
    sub = _tower(exps[: n - 1], counts)
    return _level(exps, *counts(n, sub.tau), sub)


def _counts(exps: tuple[int, ...], max_jumps: int, trace: TraceFn | None) -> Callable[[int, int], tuple[int, int, int]]:
    # _tower's counts(m, t) from the level walks of the monomial with these exponents: f, h and k
    # at t of level m are the x_m power of mg(u0 * x_m^t), u0 the first m - 1 exponents, then the
    # x_m cost and x_m degree of the first hit of the level's walk (paths._find_z).  One run walk
    # over the core gives every level its closure size and mg(u0) in ambient m
    levels = []
    _run_walk(exps[:-1], len(exps), levels)

    def counts(m: int, t: int) -> tuple[int, int, int]:
        f, rule, z = _find_z(exps[: m - 1], m, t, *levels[m - 2], max_jumps, trace)
        return f, rule.xn, z[m - 1]

    return counts


def _level(exps: tuple[int, ...], f: int, h: int, k: int, sub: ThresholdReport | None) -> ThresholdReport:
    # the tower level of the monomial u with these exponents from f, h and k at t* = sub.tau
    # (0 at the base); the power t of x_n in u lowers the core threshold to max(tau - t, 0)
    n, t = len(exps), exps[-1]
    t_star = sub.tau if sub is not None else 0
    delta = f - h
    value = delta - k + t_star
    if min(f, h, k, delta, value) < 0:
        raise RuntimeError(
            f"threshold invariant violated at n={n}, u={Monomial(n, exps)}: "
            f"f={f}, h={h}, k={k}, t*={t_star}"
        )
    return ThresholdReport(
        u0=Monomial(n, (*exps[: n - 1], 0)), n=n, t_star=t_star, f_at_tstar=f, h_at_tstar=h,
        k_at_tstar=k, delta=delta, tau=max(value - t, 0), sub_report=sub,
    )


def tau_oracle(u0: Monomial, n: int, scan_cap: int = 10_000) -> int:
    """Smallest t with u0 * x_n^t Gotzmann, by upward scan of witness tests."""
    if u0.n != n:
        raise ValueError(f"ambient mismatch: monomial lives in {u0.n}, asked for {n}")
    if n >= 1 and u0.exps[n - 1] != 0:
        raise ValueError(f"u0 = {u0} must be free of x{n}")
    for t in range(scan_cap + 1):
        shifted = Monomial(n, u0.exps[: n - 1] + (t,))
        if is_gotzmann(shifted).is_gotzmann:
            return t
    raise CapExceeded(f"no threshold found for {u0} up to t = {scan_cap}")


def _tau3(b: int, a: int = 0) -> int:
    # threshold of x1^a * x2^b in three variables; a plays no role
    if b < 0 or a < 0:
        raise ValueError("exponents must be nonnegative")
    return binom(b, 2)


def _tau4(b: int, c: int) -> int:
    # threshold of x2^b * x3^c in four variables
    if b < 0 or c < 0:
        raise ValueError("exponents must be nonnegative")
    third = (b + 4) * binom(b, 2)
    if third % 3:
        raise RuntimeError(f"tau4 law broken: (b + 4) * C(b, 2) = {third} is not divisible by 3")
    return binom(binom(b, 2), 2) + third // 3 + (b + 1) * binom(c + 1, 2) + binom(c + 1, 3) - c


def _tau5_x2(d: int) -> int:
    # threshold of x2^d in five variables
    if d < 0:
        raise ValueError("exponent must be nonnegative")
    cb = binom(d, 2)
    return (
        binom(binom(cb, 2) + binom(d + 1, 3) + cb, 2)
        - binom(cb, 3)
        + binom(d + 3, 4)
        - d
    )


def _tau_x2(n: int, d: int) -> int:
    # threshold of x2^d in n >= 3 variables by a law that is measured, not proved:
    #   t_m = C(d+m-2, m-1) - d + sum_{j=1}^{m-3} (-1)^(j+1) C(t_{m-j}, j+1),  t_m = tau_m(x2^d)
    # it agrees with _tau3, _tau4(d, 0) and _tau5_x2, and with tau wherever it was checked;
    # tau never serves it in place of the walk
    if n < 3 or d < 0:
        raise ValueError("the law needs n >= 3 and a nonnegative exponent")
    t = [0, 0, 0]  # t[m] for m >= 3
    for m in range(3, n + 1):
        t.append(binom(d + m - 2, m - 1) - d + sum((-1) ** (j + 1) * binom(t[m - j], j + 1) for j in range(1, m - 2)))
    return t[n]


_FORMULAS = {"tau3": _tau3, "tau4": _tau4, "tau5_x2": _tau5_x2, "tau_x2": _tau_x2}


def tau_formula(name: str, **params: int) -> int:
    """Closed laws: tau3(b[, a]), tau4(b, c), tau5_x2(d), and tau_x2(n, d), which is measured."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown formula {name!r}; have {sorted(_FORMULAS)}")
    return _FORMULAS[name](**params)


class ScanRow(_Record):
    d: int
    tau_n: int
    tau_prev: int
    ratio: Fraction | None


class ConjectureScan(_Record):
    """Exact data for the growth of tau(x_2^d) with the ambient.

    ratio compares tau at level n against C(tau at level n-1, 2); the
    conjectured degree of d -> tau is 2^(n-2).  The rows run over consecutive
    d, so the fit through every computed point is read off integer forward
    differences; interp_coeffs are its exact monomial coefficients, low
    degree first.  Its degree can only certify the conjecture once the point
    count exceeds the conjectured degree by two, otherwise degree_match stays
    None.
    """

    n: int
    rows: tuple[ScanRow, ...]
    conjectured_degree: int
    interp_coeffs: tuple[Fraction, ...] | None
    degree_match: bool | None


def _forward_fit(d0: int, values: list[int]) -> tuple[Fraction, ...]:
    # the polynomial through (d0 + i, values[i]), as monomial coefficients, low
    # degree first; the heads of the forward-difference table are its integer
    # coefficients in the basis C(d - d0, k) (Polya), the last nonzero one sets
    # the degree K, and Horner over the falling factorials gives K! times the
    # monomial coefficients in integers, divided by K! once per coefficient
    from fractions import Fraction  # imported here, not at the top, so that only scans pay for it

    heads, row = [], values
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    top = max((k for k, c in enumerate(heads) if c), default=0)
    poly, scale = [heads[top]], 1
    for k in range(top - 1, -1, -1):
        scale *= k + 1  # K!/k!
        poly = [up - (d0 + k) * c for up, c in zip([0] + poly, poly + [0])]
        poly[0] += heads[k] * scale
    return tuple(Fraction(c, scale) for c in poly)


def _scan(n: int, d_values, towers: Callable[[list[Monomial]], list[ThresholdReport]]) -> ConjectureScan:
    # checks n and the d, then builds the scan from towers(cores), the tower
    # of each core x_2^d in order of d, however the caller obtains them
    from fractions import Fraction  # imported here, not at the top, so that only scans pay for it

    if n < 3:
        raise ValueError("the scan needs an ambient of at least 3 variables")
    d_values = list(d_values)
    if any(b != a + 1 for a, b in zip(d_values, d_values[1:])):
        raise ValueError("the scan needs consecutive ascending values of d")
    if d_values and d_values[0] < 0:
        raise ValueError("exponents must be nonnegative")
    rows = []
    for d, rep in zip(d_values, towers([variable_power(2, d, n) for d in d_values])):
        denom = binom(rep.t_star, 2)
        ratio = Fraction(rep.tau, denom) if denom else None
        rows.append(ScanRow(d=d, tau_n=rep.tau, tau_prev=rep.t_star, ratio=ratio))
    conj_deg = 2 ** (n - 2)
    coeffs = None
    match = None
    if len(rows) >= 2:
        coeffs = _forward_fit(rows[0].d, [r.tau_n for r in rows])
        if len(rows) >= conj_deg + 2:
            match = (len(coeffs) - 1 == conj_deg)
    return ConjectureScan(
        n=n, rows=tuple(rows), conjectured_degree=conj_deg,
        interp_coeffs=coeffs, degree_match=match,
    )


def conjecture_scan(n: int, d_values, max_jumps: int = DEFAULT_MAX_JUMPS) -> ConjectureScan:
    """tau(x_2^d) for consecutive ascending d, with exact growth ratios against the level below."""
    return _scan(n, d_values, lambda cores: [tau(u, n, max_jumps=max_jumps) for u in cores])


def report_to_dict(rep: ThresholdReport) -> dict:
    """JSON-ready form of a report tower; big integers become decimal strings."""
    return {
        "u0": str(rep.u0),
        "n": rep.n,
        "t_star": _decimal(rep.t_star),
        "f": _decimal(rep.f_at_tstar),
        "h": _decimal(rep.h_at_tstar),
        "k": _decimal(rep.k_at_tstar),
        "delta": _decimal(rep.delta),
        "tau": _decimal(rep.tau),
        "sub_report": report_to_dict(rep.sub_report) if rep.sub_report else None,
    }


def witness_to_dict(w: GotzmannWitness) -> dict:
    return {
        "u": str(w.u),
        "mg": str(w.mg),
        "u_tilde": str(w.u_tilde),
        "mc": str(w.mc),
        "gap_count": _decimal(w.gap_count),
        "is_gotzmann": w.is_gotzmann,
    }
