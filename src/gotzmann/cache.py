"""The append-only JSONL cache of threshold towers; the only code that reads or writes it.

A line holds the tower of one x_n-free core, one row [t*, f, h, k, delta, tau]
per level, top level first, every count in lowercase hex:

    {"key": ["0.1.0", 5, "x2^2*x4"], "rows": [["1", "8", "3", "0", "5", "6"], ...]}

The key (package version, ambient, core) opens the line, so only lines that
open with a requested key are parsed.  A line is replayed only if building
its tower from each row's f, h and k, by tau's own builder (threshold._tower),
gives back every row exactly, which also rejects non-canonical hex, and if each
level below the top whose threshold is 0 gets back its f, h and k from its own
walk; any other line is a miss, so the tower is computed again and appended.  This
catches a malformed or singly edited line, not a forged one: the top level's h,
k and tau are re-derived from each other, not walked, so a line whose top level
has h + 1, delta - 1 and tau - 1 (or k + 1 and tau - 1) replays its wrong tau.
Only trusted files belong in the cache.
"""

from __future__ import annotations

import json

from . import __version__
from .monomial import Monomial
from .paths import DEFAULT_MAX_JUMPS, _check_cap
from .threshold import ThresholdReport, _counts, _tower

_KEY_END = '], "rows": '


def _line(n: int, key: str, stored: list) -> str:
    return json.dumps({"key": [__version__, n, key], "rows": stored})


def rows(rep: ThresholdReport) -> list[list[str]]:
    """The hex rows [t*, f, h, k, delta, tau] of a tower, top level first."""
    counts = (rep.t_star, rep.f_at_tstar, rep.h_at_tstar, rep.k_at_tstar, rep.delta, rep.tau)
    return [[format(x, "x") for x in counts]] + (rows(rep.sub_report) if rep.sub_report else [])


def replay(stored, core: Monomial, max_jumps: int = DEFAULT_MAX_JUMPS) -> ThresholdReport | None:
    """The tower of core that stored rows describe, or None if they describe none.

    threshold._tower builds it from each row's f, h and k, and it must give back
    every row.  Below the top, a level whose threshold is 0 may be clamped there
    by the split-off power of x_n, which hides its f, h and k from the levels
    above, so _tower builds the tower once more with those levels' counts from
    their walks, tau's own (threshold._counts, fed by one run walk of the core),
    and must give back every row again.
    """
    n = core.n
    if n < 2:  # no tower: a threshold needs two variables
        return None

    def counts(m: int, t: int) -> tuple[int, int, int]:
        _, f, h, k, _, _ = stored[n - m]
        return int(f, 16), int(h, 16), int(k, 16)

    try:
        tower = _tower(core.exps, counts)
        clamped = {m for m in range(3, n) if stored[n - m][5] == "0"}  # tau 0 below the top
        if clamped and rows(tower) == stored:  # their walks must build the same tower
            walks = _counts(core.exps, max_jumps, None)
            tower = _tower(core.exps, lambda m, t: walks(m, t) if m in clamped else counts(m, t))
        if rows(tower) != stored:
            return None
    except (LookupError, TypeError, ValueError, ArithmeticError, RuntimeError):
        # not a tower: too few rows or columns, wrong types, bad digits, a broken
        # invariant or a walk that cannot run (CapExceeded and TargetOvershoot
        # are RuntimeErrors)
        return None
    return tower


def load(path: str, n: int, cores: dict[str, Monomial], max_jumps: int = DEFAULT_MAX_JUMPS) -> dict:
    """The towers of the given cores (keyed by their text) whose lines replay; later lines win."""
    heads = {_line(n, key, [])[:-3]: key for key in cores}  # each line up to its rows
    towers = {}
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")  # a line that is not UTF-8 is a miss
    except FileNotFoundError:
        return towers
    except OSError as exc:
        raise _unusable(path, exc) from None
    with fh:
        for line in fh:
            key = heads.get(line[: line.find(_KEY_END) + len(_KEY_END)])
            if key is None:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            tower = replay(entry["rows"], cores[key], max_jumps)
            if tower is not None:
                towers[key] = tower
    return towers


def reports(path: str | None, n: int, cores, compute, max_jumps: int = DEFAULT_MAX_JUMPS) -> list[ThresholdReport]:
    """The tower of each x_n-free core, in the order of cores.

    With a cache path, a core whose line replays is served from the cache;
    every other core gets compute(core), whose line is appended to the cache.
    A path that cannot be read, or appended to when some core misses, is a
    ValueError, raised before anything is computed, and so is a negative
    jump cap, raised before the cache is read, also when no walk would run.
    Below two variables there is no tower to store, and the file is not
    touched: compute(core) raises the caller's own error.
    """
    _check_cap(max_jumps)
    by_key = {str(core): core for core in cores}
    if not path or n < 2:
        return [compute(core) for core in by_key.values()]
    towers = load(path, n, by_key, max_jumps)
    missed = [key for key in by_key if key not in towers]
    if missed:
        try:
            fh = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise _unusable(path, exc) from None
        with fh:
            for key in missed:
                towers[key] = compute(by_key[key])
                fh.write(_line(n, key, rows(towers[key])) + "\n")
                fh.flush()
    return [towers[key] for key in by_key]


def _unusable(path: str, exc: OSError) -> ValueError:
    # a usage error (exit 2 in gotz): a directory, or a file in a missing directory
    return ValueError(f"cannot use cache file {path}: {exc.strerror or exc}")
