"""Benchmark runner for the gotzmann package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One sequential closed-loop client (concurrency
1) repeats the workload's fixed op list, built from --seed, for S seconds and
checks every answer against perfbench/reference.json.  In-process workloads
call the public functions directly; cli_session runs `python -m gotzmann`
with PYTHONPATH=src.

--trace 0 prints the end-to-end metrics, with every time normalised to the
host's current speed by calibrate(); --trace 1 prints the per-layer metrics
of a separate traced run (see tracer.py).  Human-readable lines come first;
the last line of stdout is one JSON object.  NOTES.md defines every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
CAL_REF_S = 0.010  # calibrate() on an unloaded 2-core x86-64 host under CPython 3.11
PROBE_EVERY_S = 0.5  # calibrate() runs between ops once this much time has passed
MIN_PASSES = 3  # fixes the tail percentile per workload: 10 samples beyond it at 3 passes
GRACE_S = 60  # ops still running this long after the measured window are timed out
MODULE_NAMES = ("monomial", "combinatorics", "maxgen", "paths", "threshold", "cli")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "combinatorics.prefix_borel_sizes.calls": "count",
    "combinatorics.prefix_borel_sizes.self_s": "s",
    "combinatorics.prefix_borel_sizes.positions": "count",
    "combinatorics.borel_size.self_s": "s",
    "combinatorics.binom.calls": "count",
    "combinatorics.binom.self_s": "s",
    "maxgen.mg_closed.self_s": "s",
    "maxgen.f_poly_eval.self_s": "s",
    "maxgen.target_decompose.self_s": "s",
    "paths.find_z.calls": "count",
    "paths.find_z.self_s": "s",
    "paths.find_z.jumps": "count",
    "paths.find_z.jumps_per_call": "ratio",
    "paths.find_z.binom_calls": "count",
    "paths.find_z.binom_per_jump": "ratio",
    "paths.advance.calls": "count",
    "paths.advance.self_s": "s",
    "paths.advance.jumps": "count",
    "paths.advance.binom_calls": "count",
    "threshold.tau.levels": "count",
    "threshold.tau.self_s": "s",
    "threshold.tau.exp_scaling": "ratio",
    "threshold.is_gotzmann.self_s": "s",
    "threshold.report_to_dict.self_s": "s",
    "cli.main.self_s": "s",
    "cli.cache.bytes": "bytes",
    "cli.cache.entries": "count",
    "monomial.format.calls": "count",
    "monomial.format.self_s": "s",
    "monomial.parse.self_s": "s",
    "monomial.Monomial.constructions": "count",
    **{f"{m}.self_s": "s" for m in MODULE_NAMES},
    **{f"{m}.loc": "lines" for m in MODULE_NAMES},
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


class OpTimeout(Exception):
    pass


class CliExit(Exception):
    """A gotz invocation ended with a nonzero exit code."""

    def __init__(self, code, stderr: str) -> None:
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")


def _raise_timeout(signum, frame):
    raise OpTimeout("op did not finish before the run's hard deadline")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a cache or digit-limit setting inherited from the caller would change what is measured
    env.pop("GOTZ_CACHE", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def gotz_subprocess(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "gotzmann", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, encoding="utf-8")
    if proc.returncode:
        raise CliExit(proc.returncode, proc.stderr)
    return proc.stdout


def gotz_in_process(argv: list[str]) -> str:
    import gotzmann.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = gotzmann.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code:
        raise CliExit(code, err.getvalue())
    return out.getvalue()


def calibrate() -> float:
    """Host speed probe: median of 3 timings of fixed interpreter and big-int work.

    The program's code is not involved, so a change to the program cannot
    move it; a neighbour slowing the shared host moves it with the program.
    """
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for a in range(400, 800):
            for b in range(2, 18):
                acc += math.comb(a * 53, b) % 1000003
        seen = {}
        for i in range(20000):
            key = (i % 97, i // 97, i & 7)
            seen[key] = seen.get(key, 0) + len(key)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    The client is sequential, so nothing runs in parallel anyway.  On a
    shared 2-CPU VM, unpinned process start-up was bimodal (65 ms or 115 ms
    for `python -c pass`); pinned, it was not.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and host-normalised wall times of fresh interpreters that import
    gotzmann and build the parser.  Each is scaled by CAL_REF_S over the
    mean of the calibrate() probes just before and just after it.
    """
    raw, cal = [], [calibrate()]
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gotzmann", "--version"], cwd=ROOT,
                              env=child_env(), capture_output=True, encoding="utf-8", timeout=60)
        raw.append(perf_counter() - t0)
        if proc.returncode or not proc.stdout.startswith("gotz "):
            raise SystemExit(f"set-up failed: `python -m gotzmann --version` exited {proc.returncode}")
        cal.append(calibrate())
    return raw, [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(raw, cal, cal[1:])]


class Runner:
    """Runs passes over a workload and keeps every op's latency and outcome."""

    def __init__(self, workload, ctx, hard_deadline: float, normalise: bool = False) -> None:
        self.workload = workload
        self.ctx = ctx
        self.hard_deadline = hard_deadline
        self.normalise = normalise
        # With normalise, ops run in segments with a calibrate() probe between
        # any two: before every pass, inside a pass once PROBE_EVERY_S has
        # passed, and after the last pass.
        self.cal: list[float] = []
        self.segments: list[tuple[float, int]] = []  # (wall time, ops) per segment
        self.walls: list[float] = []  # raw pass times, probes excluded
        self.latencies: list[list[float]] = []  # raw op latencies per pass
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, str] = {}

    def run_op(self, op) -> float:
        left = self.hard_deadline - perf_counter()
        start = perf_counter()
        got, error = None, None
        if left <= 0:
            error = OpTimeout("hard deadline passed before the op started")
        else:
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                got = op.call(self.ctx)
            except Exception as exc:
                error = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        self.attempted += 1
        if error is None and got == op.expect:
            return elapsed
        self.failed += 1
        if error is None:
            self.correct = False
            self.failures[op.label] = "wrong answer"
        else:
            if not op.known_failure:
                self.correct = False
            known = "known failure, " if op.known_failure else ""
            self.failures[op.label] = f"{known}{type(error).__name__}: {error}"
        return elapsed

    def run_pass(self) -> None:
        self.workload.before_pass(self.ctx)
        lat, wall, ops = [], 0.0, 0
        t0 = perf_counter()
        for op in self.workload.ops:
            if self.normalise and ops and perf_counter() - t0 >= PROBE_EVERY_S:
                self.segments.append((perf_counter() - t0, ops))
                wall += self.segments[-1][0]
                self.cal.append(calibrate())
                ops, t0 = 0, perf_counter()
            lat.append(self.run_op(op))
            ops += 1
        self.segments.append((perf_counter() - t0, ops))
        self.walls.append(wall + self.segments[-1][0])
        self.latencies.append(lat)

    def run_until(self, end: float, min_passes: int = 1) -> None:
        """Whole passes while time is left, and at least min_passes."""
        while len(self.walls) < min_passes or perf_counter() < end:
            if self.normalise:
                self.cal.append(calibrate())
            self.run_pass()
        if self.normalise:
            self.cal.append(calibrate())

    def normalised(self) -> tuple[list[float], list[list[float]], list[float]]:
        """Pass times, op latencies and segment factors, host-normalised.

        Each segment is scaled by CAL_REF_S over the mean of the two probes
        around it.
        """
        factors = [2 * CAL_REF_S / (a + b) for a, b in zip(self.cal, self.cal[1:])]
        segs = iter(zip(self.segments, factors))
        walls, latencies = [], []
        for lat in self.latencies:
            wall, out = 0.0, []
            while len(out) < len(lat):
                (seg_wall, ops), f = next(segs)
                wall += seg_wall * f
                out += [x * f for x in lat[len(out):len(out) + ops]]
            walls.append(wall)
            latencies.append(out)
        return walls, latencies, factors

    def op_medians(self) -> list[float]:
        return [statistics.median(col) for col in zip(*self.latencies)]


def tail_fraction(ops_per_pass: int) -> float:
    """The highest quantile with at least 10 samples beyond it after MIN_PASSES passes.

    Fixed per workload, so that runs with more passes report the same
    percentile.  It is taken over per-op medians, so a slow moment of the
    host moves it less than it would move a pooled sample.
    """
    return 1.0 - 10.0 / (MIN_PASSES * ops_per_pass)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib(spawns: bool) -> float:
    who = resource.RUSAGE_CHILDREN if spawns else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def module_loc(name: str) -> int:
    lines = (SRC / "gotzmann" / f"{name}.py").read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))


def end_to_end(wl, runner: Runner, setup_raw: list[float], setup: list[float]) -> dict:
    walls, latencies, factors = runner.normalised()
    per_op = [statistics.median(col) for col in zip(*latencies)]
    q = tail_fraction(len(wl.ops))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "op_tail_ms": 1000.0 * quantile(per_op, q),
        "peak_rss_mib": peak_rss_mib(wl.spawns),
    }
    passes, per_pass = len(runner.walls), len(wl.ops)
    print(f"  times are host-normalised (NOTES.md); segment factors {min(factors):.3f}..{max(factors):.3f}, "
          f"raw wall_s {statistics.median(runner.walls):.4f} s, raw setup_s {statistics.median(setup_raw):.4f} s")
    notes = {
        "setup_s": f"median of {len(setup)} fresh `python -m gotzmann --version`",
        "wall_s": f"median of {passes} passes of {per_pass} ops",
        "op_p50_ms": f"median of {per_pass} per-op medians over {passes} passes ({runner.attempted} samples)",
        "op_tail_ms": f"p{100 * q:.1f} of the same: 10 samples beyond it at {MIN_PASSES} passes",
        "peak_rss_mib": "children (gotz processes)" if wl.spawns else "benchmark process",
    }
    for name, value in values.items():
        print(f"  {name:<13} {value:12.4f} {END_TO_END[name]:<4} {notes[name]}")
    frac = runner.failed / runner.attempted
    print(f"  {'fail_frac':<13} {frac:12.4f} {'':<4} {runner.failed} of {runner.attempted} ops failed")
    return values


def per_layer(wl, untraced: Runner, traced: Runner, tr) -> dict:
    passes = len(traced.walls)

    def per_pass(x):
        return x / passes

    values = {}
    for name in PER_LAYER:
        func, _, field = name.rpartition(".")
        if field == "self_s" and func in MODULE_NAMES:
            values[name] = per_pass(sum(v for k, v in tr.self_s.items() if k.startswith(func + ".")))
        elif field == "self_s":
            values[name] = per_pass(tr.self_s[func])
        elif field == "calls":
            values[name] = per_pass(tr.calls[func])
        elif field == "binom_calls":
            values[name] = per_pass(tr.edges[(func, "combinatorics.binom")])
        elif field in ("jumps", "positions", "constructions"):
            values[name] = per_pass(tr.counts[name])
        elif field == "loc":
            values[name] = module_loc(func)
    values["threshold.tau.levels"] = per_pass(tr.calls["threshold.tau"])
    jumps, calls = tr.counts["paths.find_z.jumps"], tr.calls["paths.find_z"]
    values["paths.find_z.jumps_per_call"] = jumps / calls if calls else 0.0
    binoms = tr.edges[("paths.find_z", "combinatorics.binom")]
    values["paths.find_z.binom_per_jump"] = binoms / jumps if jumps else 0.0
    by_tag = dict(zip((op.tag for op in wl.ops), untraced.op_medians()))
    values["threshold.tau.exp_scaling"] = by_tag["4D"] / by_tag["D"] if "D" in by_tag else 0.0
    cache = traced.ctx.work_dir / "cache.jsonl"
    data = cache.read_bytes() if cache.exists() else b""
    values["cli.cache.bytes"] = len(data)
    values["cli.cache.entries"] = data.count(b"\n")
    values["trace.overhead"] = statistics.median(traced.walls) / statistics.median(untraced.walls)
    values["trace.spans"] = per_pass(sum(tr.calls.values()))

    total_self = sum(tr.self_s.values()) or 1.0
    print(f"  traced passes {passes}, untraced passes {len(untraced.walls)}, "
          f"overhead x{values['trace.overhead']:.2f}; per pass:")
    for name in sorted(tr.self_s, key=tr.self_s.get, reverse=True)[:8]:
        print(f"  {name:<40} self {per_pass(tr.self_s[name]):9.4f} s  "
              f"{100 * tr.self_s[name] / total_self:5.1f}%  calls {per_pass(tr.calls[name]):.0f}")
    for m in MODULE_NAMES:
        print(f"  module {m:<14} self {values[m + '.self_s']:9.4f} s  "
              f"{100 * values[m + '.self_s'] * passes / total_self:5.1f}%  loc {values[m + '.loc']}")
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "gotzmann" / "__init__.py").is_file():
        print(f"error: no gotzmann package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, workloads.load_reference())
    pin_to_one_cpu()
    work_dir = ROOT / "perfbench" / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        print(f"workload {wl.name}, seed {args.seed}, {len(wl.ops)} ops per pass")
        if args.trace:
            runner, metrics = trace_run(args, wl, work_dir)
            units = PER_LAYER
        else:
            setup_raw, setup = measure_setup()
            ctx = workloads.Context(trace=None, cli=gotz_subprocess, work_dir=work_dir)
            start = perf_counter()
            runner = Runner(wl, ctx, start + args.seconds + GRACE_S, normalise=True)
            runner.run_until(start + args.seconds, MIN_PASSES)
            metrics, units = end_to_end(wl, runner, setup_raw, setup), END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still holds its own directory there
    for label, why in runner.failures.items():
        print(f"  failed: {label}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def trace_run(args, wl, work_dir):
    """Untraced passes for a third of the time, then traced passes for the rest.

    Both phases run in this process, the CLI included, so their ratio is the
    tracing overhead.  The integer-to-text limit is lifted here only: the
    walks' trace events render block costs with thousands of digits.
    """
    import workloads
    from tracer import Tracer

    sys.set_int_max_str_digits(0)
    start = perf_counter()
    hard = start + args.seconds + GRACE_S
    ctx = workloads.Context(trace=None, cli=gotz_in_process, work_dir=work_dir)
    untraced = Runner(wl, ctx, hard)
    untraced.run_until(start + args.seconds / 3)
    tr = Tracer()
    traced = Runner(wl, workloads.Context(trace=tr.jump, cli=gotz_in_process, work_dir=work_dir), hard)
    tr.install()
    try:
        traced.run_until(start + args.seconds)
    finally:
        tr.uninstall()
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.correct = traced.correct and untraced.correct
    traced.failures.update(untraced.failures)
    return traced, per_layer(wl, untraced, traced, tr)


if __name__ == "__main__":
    raise SystemExit(main())
