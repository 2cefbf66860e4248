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
threshold drops by the shift: max(tau(u0) - t, 0).

tau_oracle scans t upward with the witness test; tau_formula holds the known
closed laws for small ambients; conjecture_scan probes how tau(x_2^d) grows
with the ambient, in exact arithmetic.  report_from_dict rebuilds a tower
from the f, h and k that report_to_dict wrote, through the same level rules.
"""

from __future__ import annotations

from collections.abc import Callable

from .combinatorics import (
    DEFAULT_CAP,
    CapExceeded,
    MonomialSet,
    binom,
    borel_enumerate,
    lexsegment,
)
from .maxgen import maxgen_of_set, mg_closed, target_decompose
from .monomial import Monomial, _Record, deg, deg_in, div, truncate, variable_power
from .paths import DEFAULT_MAX_JUMPS, TraceFn, _BeyondSlice, advance, find_z


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
    """Witness test without enumeration: walk deg(mg(u)) steps and compare costs."""
    mg = mg_closed(u)
    g = deg(mg)
    try:
        st = advance(u, g, max_jumps=max_jumps, trace=trace)
    except _BeyondSlice as exc:
        # the closure always reaches x_1^d, so only a broken mg_closed gets here
        raise RuntimeError(f"gap count of {u} exceeds the predecessors above it") from exc
    return GotzmannWitness(
        u=u, mg=mg, u_tilde=st.current, mc=st.cost, gap_count=g,
        is_gotzmann=(st.cost == mg),
    )


def is_gotzmann_oracle(u: Monomial, cap: int | None = DEFAULT_CAP) -> bool:
    """The same verdict from fully enumerated gap and cogap sets."""
    seg = lexsegment(u, cap)
    closure = {v.exps for v in borel_enumerate(u, cap)}
    gaps = tuple(z for z in seg.elements if z.exps not in closure)
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

    u must already live in ambient n (embed explicitly before calling).
    """
    if n < 2:
        raise ValueError("thresholds need an ambient of at least 2 variables")
    if u.n != n:
        raise ValueError(f"ambient mismatch: monomial lives in {u.n}, asked for {n}")
    if n == 2:
        return _level(u, 0, 0, 0, None)
    u0_prev = truncate(u, n - 1)
    sub = tau(u0_prev, n - 1, max_jumps=max_jumps, trace=trace)
    decomp = target_decompose(u0_prev, n, sub.tau)
    z, state = find_z(u0_prev, n, sub.tau, max_jumps=max_jumps, trace=trace, decomp=decomp)
    return _level(u, decomp.xn_exp, deg_in(state.cost, n), deg_in(z, n), sub)


def report_from_dict(d: dict, u: Monomial) -> ThresholdReport:
    """Inverse of report_to_dict: the tower of u rebuilt from its f, h and k.

    Every other field is derived by the level rules of tau(), so
    report_to_dict(report_from_dict(d, u)) == d exactly when d could be the
    tower of u, up to the h and k of a level below the top whose threshold
    is lowered to 0 by the split-off power of x_n: those reach no level
    above, so only that level's walk (find_z at its t*) can confirm them.  A
    malformed d raises LookupError, TypeError or ValueError; counts that
    break a level invariant raise RuntimeError, as they would in tau().
    """
    if u.n == 2:
        return _level(u, 0, 0, 0, None)
    sub = report_from_dict(d["sub_report"], truncate(u, u.n - 1))
    return _level(u, int(d["f"]), int(d["h"]), int(d["k"]), sub)


def _level(u: Monomial, f: int, h: int, k: int, sub: ThresholdReport | None) -> ThresholdReport:
    # the tower level of u from f, h and k at t* = sub.tau (0 at the base);
    # the power t of x_n in u lowers the core threshold to max(tau - t, 0)
    n, t = u.n, u.exps[u.n - 1]
    t_star = sub.tau if sub is not None else 0
    delta = f - h
    value = delta - k + t_star
    if min(f, h, k, delta, value) < 0:
        raise RuntimeError(
            f"threshold invariant violated at n={n}, u={u}: "
            f"f={f}, h={h}, k={k}, t*={t_star}"
        )
    return ThresholdReport(
        u0=div(u, variable_power(n, t, n)), n=n, t_star=t_star, f_at_tstar=f, h_at_tstar=h,
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


_FORMULAS = {"tau3": _tau3, "tau4": _tau4, "tau5_x2": _tau5_x2}


def tau_formula(name: str, **params: int) -> int:
    """Closed laws: tau3(b[, a]), tau4(b, c), tau5_x2(d)."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown formula {name!r}; have {sorted(_FORMULAS)}")
    return _FORMULAS[name](**params)


class ScanRow(_Record):
    d: int
    tau_n: int
    tau_prev: int
    ratio: Fraction | None
    report: ThresholdReport


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
        rows.append(ScanRow(d=d, tau_n=rep.tau, tau_prev=rep.t_star, ratio=ratio, report=rep))
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
        "t_star": str(rep.t_star),
        "f": str(rep.f_at_tstar),
        "h": str(rep.h_at_tstar),
        "k": str(rep.k_at_tstar),
        "delta": str(rep.delta),
        "tau": str(rep.tau),
        "sub_report": report_to_dict(rep.sub_report) if rep.sub_report else None,
    }


def witness_to_dict(w: GotzmannWitness) -> dict:
    return {
        "u": str(w.u),
        "mg": str(w.mg),
        "u_tilde": str(w.u_tilde),
        "mc": str(w.mc),
        "gap_count": str(w.gap_count),
        "is_gotzmann": w.is_gotzmann,
    }
