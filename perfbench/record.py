"""Record the benchmark's numbers for the current commit.

    python3 perfbench/record.py

For every workload in ``BENCHMARK.json``: ten end-to-end runs, each on its
own seed (1 to 10), then one traced run on seed 1.  Prints each end-to-end
metric's median and quartile spread (q3 - q1) / median against its bound,
and writes all of it, with the environment, to ``perfbench/baseline.json``.
Exits 1 if a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
OUT = HERE / "baseline.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values


def _environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from tilecount import oracle_backend

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "oracle_backend": oracle_backend(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"environment": _environment(), "run_seconds": seconds, "runs": RUNS,
              "end_to_end": {}, "per_layer": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                  "values": values}
            flag = "" if spread <= m["bound"] / 3 else "  (over a third of the bound)"
            if spread > m["bound"]:
                ok, flag = False, "  OVER THE BOUND"
            print(f"{name:8s} {m['name']:16s} median {median:12.6g} {m['unit']:5s} "
                  f"spread {spread:.4f} bound {m['bound']}{flag}", flush=True)
        record["end_to_end"][name] = summary
        record["per_layer"][name] = _run(name, 1, seconds, 1)
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
