"""One workload in one fresh process.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N
        --seconds S --mode {setup,run,trace} --workdir DIR [--spans FILE]

Imports ``tilecount.cli`` from ``ROOT/src``, generates the workload's
inputs, and prints ``READY {json}`` with the two set-up times.  In ``setup``
mode it stops there.  In ``run`` mode it runs whole passes of the workload,
a closed loop with one client, until the timed operations have taken
``S`` seconds, checking every result after its timer stops, and prints
``RESULT {json}``.  ``trace`` mode then replays the first passes with the
tracer installed and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import calibrate

MIN_PASSES = 2  # every run measures at least this many whole passes
WALL_LIMIT_S = 110.0  # no new pass starts after this much wall time


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import tilecount.cli  # noqa: F401  (the import being timed)

    if not Path(tilecount.cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"tilecount was imported from {tilecount.cli.__file__}, not {root}/src")


def run_pass(ops, tracer=None) -> list[tuple]:
    """Run one pass: [(op, value, seconds, calibration scale)] per operation.

    The calibration sampler runs throughout the pass; its handler's time is
    taken out of each operation's seconds.  An operation that a slice fell
    inside is scaled by its own slices, a shorter one by the whole pass's.
    """
    timed = []
    with calibrate.Sampler() as sampler:
        for op in ops:
            first, spent = len(sampler.slices), sampler.spent
            if tracer is not None:
                tracer.op += 1
                tracer.active = True
            t0 = time.perf_counter()
            try:
                value = op.run()
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            timed.append((op, value, dt - (sampler.spent - spent), sampler.slices[first:]))
    slices = sampler.slices or [calibrate.slice_s() for _ in range(3)]
    whole = calibrate.scale(slices)
    return [(op, value, dt, calibrate.scale(own) if own else whole)
            for op, value, dt, own in timed]


def main() -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    t0 = time.perf_counter()
    _import_package(args.root)
    import_ms = (time.perf_counter() - t0) * 1e3

    import workloads

    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ops = workload.make_pass(0)
    inputs_ms = (time.perf_counter() - t0) * 1e3
    print("READY " + json.dumps({"import_ms": import_ms, "inputs_ms": inputs_ms}), flush=True)
    if args.mode == "setup":
        return 0

    wrong: list[str] = []

    def account(results) -> tuple[int, int]:
        """Check results: (operations they stand for, how many failed).
        Wrong answers are collected in ``wrong``."""
        cases = failed = 0
        for op, value, _, _ in results:
            try:
                outcome = op.check(value)
            except Exception as exc:  # e.g. a reference route raising
                outcome = workloads.Outcome(wrong=f"check raised {exc!r}")
            cases += outcome.cases
            failed += outcome.failed
            if outcome.wrong:
                wrong.append(f"{op.label}: {outcome.wrong}")
        return cases, failed

    # per pass: raw op seconds, their calibration scales, cases, failures
    op_s, scales, cases, failed = [], [], [], []
    keep = workload.replay_passes if args.mode == "trace" else 0
    held = []  # the first passes, kept for the traced replay; others are dropped
    while True:
        results = run_pass(ops)
        op_s.append([dt for _, _, dt, _ in results])
        scales.append([k for _, _, _, k in results])
        c, f = account(results)
        cases.append(c)
        failed.append(f)
        if len(held) < keep:
            held.append(ops)
        if sum(map(sum, op_s)) >= args.seconds and len(op_s) >= MIN_PASSES:
            break
        if time.perf_counter() - t_start > WALL_LIMIT_S:
            break
        ops = workload.make_pass(len(op_s))

    result = {"op_s": op_s, "scales": scales, "cases": cases, "failed": failed}

    if args.mode == "trace":
        import rows
        import tracer as tracing

        replay_cases = sum(cases[: len(held)])
        untraced = sum(dt * k for p, q in zip(op_s[: len(held)], scales) for dt, k in zip(p, q))
        tr = tracing.Tracer()
        tr.install()
        traced = 0.0
        try:
            for ops in held:
                results = run_pass(ops, tr)
                traced += sum(dt * k for _, _, dt, k in results)
                account(results)
        finally:
            tr.uninstall()
        if args.spans:
            tr.write(args.spans)
        layer = tracing.layer_metrics(tr.spans)
        layer["trace.replayed_passes"] = len(held)
        layer["trace.ops_per_s"] = replay_cases / traced
        layer["trace.untraced_ops_per_s"] = replay_cases / untraced
        layer["trace.overhead"] = traced / untraced
        layer.update(rows.measure(wrong))
        result["layer"] = layer

    result["wrong"] = wrong[:20]
    result["wrong_count"] = len(wrong)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
