"""Self-tests of the benchmark: seeded inputs, span arithmetic, output gate."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import tilecount.cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations(name, tmp_path):
    def labels(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        w = workloads.WORKLOADS[name](seed, workdir)
        return [[op.label.replace(str(workdir), "") for op in w.make_pass(i)] for i in range(2)]

    first = labels(7, "a")
    assert first == labels(7, "b")
    assert first != labels(8, "c")
    assert first[0] != first[1]  # passes differ within a run too


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("formulas.zigzag_count", 1.0, 4.0, 0),
        _span("aztec.evaluate", 2.0, 3.0, 1),
        _span("formulas.q_count", 5.0, 7.0, 0),
        _span("x.overlap", 6.0, 8.0, 3),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 2.0])


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 0.010, -1),
        _span("formulas.zigzag_count", 0.001, 0.008, 0),
        _span("aztec.evaluate", 0.002, 0.007, 1),
        _span("aztec.reduce_step", 0.003, 0.004, 2, {"cells": 16, "bits": 9}),
        _span("aztec.reduce_step", 0.004, 0.006, 2, {"cells": 9, "bits": 12}),
        _span("formulas.q_count", 0.008, 0.009, 0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["formulas.route_checks_ran"] == 1
    assert m["formulas.route_checks_skipped"] == 1
    assert m["aztec.evaluate_calls"] == 1
    assert m["aztec.reduce_steps"] == 2
    assert m["aztec.cells"] == 25
    assert m["aztec.max_operand_bits"] == 12
    assert m["aztec.evaluate_ms"] == pytest.approx(5.0)
    assert m["aztec.step_self_ms"] == pytest.approx(3.0)
    assert m["formulas.self_ms"] == pytest.approx(2.0 + 1.0)
    assert m["cli.self_ms"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_sees_calls_between_layers_and_uninstalls():
    original = tilecount.cli.zigzag_count
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.active = True
        result = workloads.run_cli(["count", "zigzag", "4"])
        tr.active = False
    finally:
        tr.uninstall()
    assert tilecount.cli.zigzag_count is original
    assert result.rc == 0
    names = [s[tracing.NAME] for s in tr.spans]
    assert names[:3] == ["cli.main", "formulas.zigzag_count", "aztec.evaluate"]
    assert names.count("aztec.reduce_step") == 3
    assert tracing.layer_metrics(tr.spans)["formulas.route_checks_ran"] == 1


def test_reference_matches_the_package_on_small_orders():
    from tilecount import formulas

    for n in range(1, 9):
        assert ref.zigzag_value(n, True) == formulas.zigzag_count(n, "bar", check=False).value()
        assert ref.family_value("q", [n], False) == formulas.q_count(n, check=False).value()
        assert ref.fortress_value([1, n], True) == \
            formulas.fortress_count([1, n], "bar", check=False).value()


def test_wrong_answers_are_caught():
    out = workloads.run_cli(["count", "zigzag", "7"]).out
    assert workloads.check_count_line(out, lambda: ref.zigzag_value(7, False)) is None
    assert workloads.check_count_line(out, lambda: ref.zigzag_value(7, False) + 1)
    assert workloads.check_count_line("2 * 3^16 = 86093441\n", lambda: Fraction(86093442))
    rows = ref.NAMED_PATTERNS["zig"]
    trace = workloads.run_cli(["trace", "-", "3"])  # unreadable file: refused, no output
    assert trace.rc == 2 and trace.out == ""
    good = "".join(
        f"step {i} order {4 - i} factor {f}\n" for i, f in enumerate(ref.step_factors(rows, 3), 1)
    ) + f"value {ref.diamond_value(rows, 3)}\n"
    assert workloads.check_trace(good, rows, 3) is None
    assert workloads.check_trace(good.replace("step 2", "step 3"), rows, 3)
    assert workloads.check_trace(good, ref.NAMED_PATTERNS["q"], 3)


def test_refused_or_silent_requests_are_wrong():
    accept = lambda out: None  # noqa: E731
    assert workloads.check_cli(workloads.CliResult(0, "1 = 1\n"), accept).wrong is None
    for res in (workloads.CliResult(3, ""), workloads.CliResult(0, ""),
                workloads.CliResult("RuntimeError", "")):
        outcome = workloads.check_cli(res, accept)
        assert outcome.failed == 1 and outcome.wrong


def test_verify_pass_must_run_every_case():
    records = [f"{suite} c{i} 1 1 1" for suite, k in workloads.SUITE_CASES.items()
               for i in range(k)]
    check = workloads.VerifyWorkload._check
    full = check(workloads.CliResult(0, "\n".join(records)))
    assert full.wrong is None and full.failed == 0
    assert full.cases == sum(workloads.SUITE_CASES.values())
    blum = [r for r in records if r.startswith("blum ")]
    dropped = check(workloads.CliResult(0, "\n".join(r for r in records if r not in blum)))
    assert dropped.wrong and dropped.failed == len(blum)
    silent = check(workloads.CliResult(0, ""))
    assert silent.wrong and silent.failed == full.cases
    unequal = check(workloads.CliResult(3, "\n".join(records[:-1] + ["lemmas x 1 2 0"])))
    assert unequal.wrong and unequal.failed == 1


def test_sampler_time_is_taken_out_of_the_operation():
    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    op = workloads.Op("busy", busy, lambda value: workloads.Outcome())
    [(_, value, seconds, scale)] = worker.run_pass([op])
    assert value == "done"
    assert signal.getsignal(signal.SIGALRM) is handler
    assert 0.3 < seconds < 0.35  # three slices fired inside, and were subtracted
    assert scale > 0
    assert calibrate.scale([calibrate.NOMINAL_S / 2] * 3) == pytest.approx(2.0)


def _bench_copy(tmp_path: Path) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def _run(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("path, old, new", [
    # the benchmark's reference gives a wrong zigzag count
    ("perfbench/reference.py",
     "return F(2) ** _zig_gamma(n, bar) * diamond_value(pattern, n)",
     "return F(2) ** _zig_gamma(n, bar) * diamond_value(pattern, n) + 1"),
    # every route check in the program raises, so checked requests exit 3
    ("src/tilecount/formulas.py", "    if closed != routed:\n", "    if True:\n"),
], ids=["corrupted-reference", "route-check-raises"])
def test_a_wrong_or_refused_answer_fails_the_run(tmp_path, path, old, new):
    root = _bench_copy(tmp_path)
    shutil.copytree(ROOT / "src" / "tilecount", root / "src" / "tilecount",
                    ignore=shutil.ignore_patterns("__pycache__", "*.c", "*.so"))
    path = root / path
    text = path.read_text()
    corrupted = text.replace(old, new)
    assert corrupted != text
    path.write_text(corrupted)
    done = _run(root, "count")
    assert done.returncode == 1, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert "WRONG" in done.stdout


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    done = _run(_bench_copy(tmp_path), "count")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
