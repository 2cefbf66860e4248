"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py reports, then
runs one pass of certify_mix and of cli_session with their true reference
answers and one pass with a single answer corrupted.  The corrupted pass must
count one more failed op and report correct = false; otherwise the harness
would let a wrong answer through.  Exits 0 on success.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
from dataclasses import replace
from time import perf_counter

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END, f"end_to_end differs: {declared} vs {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == run.PER_LAYER, "per_layer in BENCHMARK.json differs from run.PER_LAYER")
    check({w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS), "workload names differ")


def one_pass(wl, ctx) -> run.Runner:
    runner = run.Runner(wl, ctx, perf_counter() + 120)
    runner.run_pass()
    return runner


def check_corruption(name: str, victim: int) -> None:
    wl = workloads.build(name, 0, workloads.load_reference())
    work_dir = run.ROOT / "perfbench" / ".work" / f"selftest-{name}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(trace=None, cli=run.gotz_subprocess, work_dir=work_dir)
        clean = one_pass(wl, ctx)
        op = wl.ops[victim]
        bad = op.expect + 1 if isinstance(op.expect, int) else op.expect + " "
        wl.ops[victim] = replace(op, expect=bad)
        corrupted = one_pass(wl, ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    check(clean.correct, f"{name}: clean pass failed: {clean.failures}")
    check(corrupted.failed == clean.failed + 1, f"{name}: corruption of {op.label} not counted")
    check(not corrupted.correct, f"{name}: corruption of {op.label} left correct = true")
    print(f"{name}: fail_frac {clean.failed}/{clean.attempted} -> "
          f"{corrupted.failed}/{corrupted.attempted} after corrupting '{op.label}'")


def main() -> int:
    signal.signal(signal.SIGALRM, run._raise_timeout)
    check_manifest()
    check_corruption("certify_mix", victim=0)
    check_corruption("cli_session", victim=7)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
