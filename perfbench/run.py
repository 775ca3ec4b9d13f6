"""tilecount benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload {count,verify,oracle} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Every workload runs in a fresh worker process (``worker.py``) as a closed
loop with one client.  Before it, ten more fresh processes only set up
(import ``tilecount.cli`` and generate the inputs), so that ``setup_s`` is
the median of eleven start-ups.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` also replays the first passes with spans recorded around the
package's public functions and reports the per-layer metrics.  End-to-end
times are scaled to a nominal machine speed by calibration slices, and
start-up times by a bare interpreter start (``calibrate.py``); the table
prints the raw values beside them.  Per-layer times are raw.  A table of
every metric goes to stdout, then one JSON line as the last line.  The exit status is 1 if any answer was wrong, 2 if the
run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SETUP_PROBES = 10
DEADLINE_S = 170.0
FRESH_CLI_RUNS = 5
FRESH_CLI = "import sys; from tilecount.cli import main; sys.exit(main(['count', 'zigzag', '4']))"


class RunError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, mode: str, workdir: Path, spans: Path | None = None) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    workdir.mkdir(parents=True)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def _start(args, mode, workdir, spans=None):
    """Start a worker and wait for it to be ready.

    Returns the process, its raw and calibrated start-up seconds, and the
    set-up times it reported."""
    scale = calibrate.start_scale()
    t0 = time.perf_counter()
    proc = _worker(args, mode, workdir, spans)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RunError(f"worker did not start: {line.strip()!r}")
    return proc, (elapsed, elapsed * scale), json.loads(line[6:])


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    return out


def _fresh_cli_ms() -> tuple[float, bool]:
    """Median wall time of ``tilecount count zigzag 4`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, ok = [], True
    for _ in range(FRESH_CLI_RUNS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", FRESH_CLI], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        plain = done.stdout.strip().partition(" = ")[2]
        ok &= done.returncode == 0 and plain == str(ref.zigzag_value(4, False))
    return statistics.median(times) * 1e3, ok


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "tilecount" / "cli.py").is_file():
        raise RunError(f"no tilecount package under {ROOT / 'src'}")
    work_root = ROOT / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        tmp = Path(tmp)
        setups, setup_parts = [], []
        for i in range(SETUP_PROBES):
            proc, elapsed, parts = _start(args, "setup", tmp / f"probe{i}")
            _finish(proc, deadline)
            setups.append(elapsed)
            setup_parts.append(parts)
        mode = "trace" if args.trace else "run"
        spans = work_root / f"spans-{args.workload}.jsonl" if args.trace else None
        proc, elapsed, parts = _start(args, mode, tmp / "run", spans)
        setups.append(elapsed)
        setup_parts.append(parts)
        out = _finish(proc, deadline)
    result_line = out.strip().splitlines()[-1] if out.strip() else ""
    if not result_line.startswith("RESULT "):
        raise RunError("worker printed no result")
    res = json.loads(result_line[7:])
    res["setup_s_raw"] = statistics.median(raw for raw, _ in setups)
    res["setup_s"] = statistics.median(scaled for _, scaled in setups)
    res["setup_samples"] = len(setups)
    for key in ("import_ms", "inputs_ms"):
        res[f"setup.{key}"] = statistics.median(p[key] for p in setup_parts)
    if args.trace:
        res["layer"]["row.cli_fresh_ms"], ok = _fresh_cli_ms()
        if not ok:
            res["wrong"].append("fresh-process count zigzag 4: wrong output")
            res["wrong_count"] += 1
    return res


def end_to_end(workload: str, res: dict) -> tuple[dict, dict]:
    """The end-to-end metrics (calibrated), and notes for the table."""
    attempted, failed = sum(res["cases"]), sum(res["failed"])
    raw = [t for ops in res["op_s"] for t in ops]
    scales = [k for ops in res["scales"] for k in ops]
    per_op = [[t * k * 1e3 for t, k in zip(p, q)] for p, q in zip(res["op_s"], res["scales"])]
    busy = sum(map(sum, per_op)) / 1e3
    if workload == "verify":  # one latency sample per `verify all` pass
        samples = [sum(ops) for ops in per_op]
    else:
        samples = [t for ops in per_op for t in ops]
    metrics = {
        "setup_s": res["setup_s"],
        "ops_per_s": (attempted - failed) / busy,
        "latency_p50_ms": statistics.median(samples),
        "latency_p90_ms": _percentile(samples, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "latency samples": len(samples),
        "samples beyond p90": sum(1 for s in samples if s > metrics["latency_p90_ms"]),
        "setup samples": res["setup_samples"],
        "passes": len(res["op_s"]),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "raw timed seconds": round(sum(raw), 3),
        "raw ops_per_s": round((attempted - failed) / sum(raw), 4),
        "raw setup_s": round(res["setup_s_raw"], 4),
        "calibration scale (median)": round(statistics.median(scales), 4),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise RunError(f"unknown workload {args.workload!r}")
        res = measure(args)
    except (RunError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    e2e, notes = end_to_end(args.workload, res)
    values = {**e2e, **res.get("layer", {}),
              "setup.import_ms": res["setup.import_ms"],
              "setup.inputs_ms": res["setup.inputs_ms"]}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    shown = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    for m in shown:
        print(f"  {m['name']:36s} {values[m['name']]:>16.6g} {m['unit']}")
    for key, value in notes.items():
        print(f"  {key:36s} {value:>16}")
    for line in res["wrong"]:
        print(f"  WRONG {line}")
    correct = res["wrong_count"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
