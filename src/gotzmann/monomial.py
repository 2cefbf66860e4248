"""Exact monomial arithmetic over a fixed ambient set of variables.

A monomial in k[x_1, ..., x_n] is represented by the ambient count n together
with its exponent vector.  Exponents are plain Python integers and may grow
without bound; nothing here ever rounds or truncates.

The ambient count participates in every operation.  Mixing two ambients, or
comparing monomials of different degrees, is an error rather than a silent
coercion: the predecessor map and the prefix-sum map both change meaning when
n changes, and the order used throughout this package only compares within a
single degree slice.  Re-embedding into a larger ambient is always explicit
(see embed).
"""

from __future__ import annotations

import json
import re


class _Record:
    """Base of the package's immutable value records, in place of @dataclass(frozen=True).

    A subclass lists its fields as annotations of its own.  It gets an
    __init__ taking them by position or keyword, which calls __post_init__
    when the class defines one; equality by value within one type; hash and
    repr in field order; and no assignment.  The three methods are compiled
    once per class, as dataclasses does, and cost what its methods cost; the
    import of dataclasses alone took longer than a small gotz query computes.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        mine, theirs = (f"({''.join(f'{who}.{f}, ' for f in cls._fields)})" for who in ("self", "other"))
        lines = [f"def __init__(self, {', '.join(cls._fields)}):"]
        lines += [f"    setattr(self, {f!r}, {f})" for f in cls._fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        lines += [
            "def __eq__(self, other):",
            f"    return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented",
            "def __hash__(self):",
            f"    return hash({mine})",
        ]
        scope = {"setattr": object.__setattr__}  # keeps the instance's attribute fast path
        exec("\n".join(lines), scope)
        for name in ("__init__", "__eq__", "__hash__"):
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ParseError(ValueError):
    """Monomial text does not conform to the input grammar."""


_TERM_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


class Monomial(_Record):
    """A monomial x_1^{e_1} * ... * x_n^{e_n}; the all-zero vector is the unit."""

    n: int
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"ambient variable count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "exps", tuple(self.exps))
        if len(self.exps) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(self.exps)}")
        if set(map(type, self.exps)) <= {int} and min(self.exps) >= 0:
            return
        for e in self.exps:  # a bool, another type or a negative; the loop names it
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"exponents must be nonnegative integers, got {e!r}")

    def __str__(self) -> str:
        return format(self)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return mul(self, other)


def one(n: int) -> Monomial:
    """The unit monomial in n variables."""
    return Monomial(n, (0,) * n)


def variable(i: int, n: int) -> Monomial:
    """The monomial x_i in n variables."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    exps = [0] * n
    exps[i - 1] = 1
    return Monomial(n, tuple(exps))


def variable_power(i: int, a: int, n: int) -> Monomial:
    """The monomial x_i^a in n variables (a may be 0)."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    if a < 0:
        raise ValueError("exponent must be nonnegative")
    exps = [0] * n
    exps[i - 1] = a
    return Monomial(n, tuple(exps))


def parse(text: str, n: int) -> Monomial:
    """Parse monomial text in n variables.

    Grammar: `monomial := "1" | term ("*" term)*` with `term := "x" INDEX
    ("^" EXP)?`, INDEX and EXP decimal, INDEX >= 1, EXP >= 1.  Whitespace
    around the `*` separators is tolerated.  Repeated variables multiply,
    so "x2*x2^2" parses the same as "x2^3".  An explicit `^0` is rejected.

    A JSON array of n exponents (integers or decimal strings) is accepted
    as an alternative input form.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"ambient variable count must be a positive integer, got {n!r}")
    s = text.strip()
    if not s:
        raise ParseError("empty monomial text")
    if s.startswith("["):
        return _parse_exponent_array(s, n)
    if s == "1":
        return one(n)
    exps = [0] * n
    for piece in s.split("*"):
        term = piece.strip()
        m = _TERM_RE.fullmatch(term)
        if m is None:
            raise ParseError(f"bad term {term!r} in monomial text {text!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= n:
            raise ParseError(f"variable index {idx} out of range for n={n}")
        if m.group(2) is None:
            e = 1
        else:
            e = int(m.group(2))
            if e == 0:
                raise ParseError(f"explicit zero exponent in term {term!r}")
        exps[idx - 1] += e
    return Monomial(n, tuple(exps))


def _parse_exponent_array(s: str, n: int) -> Monomial:
    try:
        data = json.loads(s)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad exponent array: {exc}") from None
    if not isinstance(data, list) or len(data) != n:
        raise ParseError(f"exponent array must hold exactly {n} entries")
    exps = []
    for v in data:
        if isinstance(v, bool):
            raise ParseError(f"bad exponent {v!r}")
        if isinstance(v, int):
            e = v
        elif isinstance(v, str) and re.fullmatch(r"\d+", v):
            e = int(v)
        else:
            raise ParseError(f"bad exponent {v!r}")
        if e < 0:
            raise ParseError(f"negative exponent {e}")
        exps.append(e)
    return Monomial(n, tuple(exps))


def format(u: Monomial) -> str:
    """Canonical text form: ascending indices, `^e` only for e >= 2, "1" for the unit."""
    parts = []
    for i, e in enumerate(u.exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e >= 2:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def deg(u: Monomial) -> int:
    """Total degree."""
    return sum(u.exps)


def deg_in(u: Monomial, i: int) -> int:
    """Degree in the single variable x_i."""
    if not 1 <= i <= u.n:
        raise ValueError(f"variable index {i} out of range for n={u.n}")
    return u.exps[i - 1]


def max_index(u: Monomial) -> int:
    """Largest index with a positive exponent; undefined on the unit."""
    for i in range(u.n, 0, -1):
        if u.exps[i - 1] > 0:
            return i
    raise ValueError("the unit monomial has no largest variable")


def _require_same_ambient(u: Monomial, v: Monomial) -> None:
    if u.n != v.n:
        raise ValueError(f"ambient mismatch: {u.n} vs {v.n}; embed explicitly")


def mul(u: Monomial, v: Monomial) -> Monomial:
    """Componentwise sum of exponents."""
    _require_same_ambient(u, v)
    return Monomial(u.n, tuple(a + b for a, b in zip(u.exps, v.exps)))


def div(u: Monomial, v: Monomial) -> Monomial:
    """Componentwise difference; v must divide u."""
    _require_same_ambient(u, v)
    out = []
    for i, (a, b) in enumerate(zip(u.exps, v.exps), start=1):
        if b > a:
            raise ValueError(f"{format(v)} does not divide {format(u)} (at x{i})")
        out.append(a - b)
    return Monomial(u.n, tuple(out))


def lex_cmp(u: Monomial, v: Monomial) -> int:
    """Lexicographic comparison within one degree slice: -1, 0 or +1.

    Only monomials of equal degree are comparable; a degree or ambient
    mismatch is an error, not a graded extension of the order.
    """
    _require_same_ambient(u, v)
    if deg(u) != deg(v):
        raise ValueError(f"lex order compares equal degrees only ({deg(u)} vs {deg(v)})")
    return (u.exps > v.exps) - (u.exps < v.exps)


def pred(u: Monomial) -> Monomial:
    """The immediate lex predecessor upward: the smallest monomial above u.

    Writing u = u0 * x_m^a with m = max_index(u) and a = deg_in(u, m), the
    predecessor is u0 * x_{m-1} * x_n^{a-1}.  The unit and x_1^d have none.
    """
    if deg(u) == 0:
        raise ValueError("the unit monomial has no predecessor")
    m = max_index(u)
    if m == 1:
        raise ValueError("x1^d is the largest monomial of its degree; no predecessor")
    a = u.exps[m - 1]
    e = list(u.exps)
    e[m - 1] = 0
    e[m - 2] += 1
    e[u.n - 1] += a - 1
    return Monomial(u.n, tuple(e))


def truncate(u: Monomial, i: int) -> Monomial:
    """Drop all variables above x_i; the result lives in ambient i."""
    if not 1 <= i <= u.n:
        raise ValueError(f"truncation index {i} out of range for n={u.n}")
    return Monomial(i, u.exps[:i])


def embed(u: Monomial, n: int) -> Monomial:
    """Re-embed into a larger ambient by padding zero exponents."""
    if n < u.n:
        raise ValueError(f"cannot embed an ambient-{u.n} monomial into n={n}")
    return Monomial(n, u.exps + (0,) * (n - u.n))


def sigma(u: Monomial) -> Monomial:
    """Prefix-sum map on exponents: x_i picks up every exponent below it.

    sigma(x_1^{a_1} ... x_n^{a_n}) = x_1^{a_1} x_2^{a_1+a_2} ... x_n^{a_1+...+a_n}.
    Multiplicative: sigma(u*v) = sigma(u)*sigma(v).
    """
    out = []
    acc = 0
    for a in u.exps:
        acc += a
        out.append(acc)
    return Monomial(u.n, tuple(out))


def sigma_pow(u: Monomial, t: int) -> Monomial:
    """t-fold iterate of sigma in closed form.

    The exponent of x_i in sigma^t(u) is sum_j a_j * C(t-1+i-j, t-1) over
    j <= i; t = 0 is the identity and t = 1 agrees with sigma.  Only the n
    values C(t-1+k, k), k < n, occur, so they are built once as a column.
    """
    if t < 0:
        raise ValueError("iteration count must be nonnegative")
    if t == 0:
        return u
    col = [1]  # col[k] = C(t-1+k, k), each from the last by one ratio
    for k in range(1, u.n):
        col.append(col[-1] * (t - 1 + k) // k)
    out = [sum(a * col[i - j] for j, a in enumerate(u.exps[: i + 1]) if a) for i in range(u.n)]
    return Monomial(u.n, tuple(out))
