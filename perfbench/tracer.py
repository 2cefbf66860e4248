"""Span tracing of the gotzmann layers, installed from outside the package.

install() wraps every public function of the six modules in a span and
rebinds the wrapper wherever a module holds the function under its own name
(threshold.find_z, paths.binom, cli.tau, the package namespace, ...), so that
calls between modules and recursive calls inside one module are all seen.
uninstall() puts the originals back.

A span knows its name, start, end and parent when it closes.  It is folded
into per-name aggregates at that moment instead of being stored: binom alone
opens over a million spans per tau call on tau_bigexp.  Self time is the
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

from gotzmann import cli, combinatorics, maxgen, monomial, paths, threshold
import gotzmann

MODULES = {
    "monomial": monomial,
    "combinatorics": combinatorics,
    "maxgen": maxgen,
    "paths": paths,
    "threshold": threshold,
    "cli": cli,
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()  # named event counts, e.g. walk jumps
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                self.edges[(parent, name)] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def jump(self, record: dict) -> None:
        """Trace callback for the library's walks; charges the innermost open span."""
        self.counts[self.stack[-1][0] + ".jumps"] += 1

    def install(self) -> None:
        wrappers = {}
        for short, mod in MODULES.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                hook = None
                if name == "combinatorics.prefix_borel_sizes":
                    def hook(sizes, key=name + ".positions"):
                        self.counts[key] += len(sizes)
                wrappers[fn] = self.span(name, fn, hook)
        for mod in (gotzmann, *MODULES.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        init = monomial.Monomial.__post_init__

        def counted_init(obj):
            self.counts["monomial.Monomial.constructions"] += 1
            init(obj)

        monomial.Monomial.__post_init__ = counted_init
        self._saved.append((monomial.Monomial, "__post_init__", init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
