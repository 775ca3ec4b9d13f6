"""Command-line contract: output strings and exit statuses.

0 on success, 2 on usage or input errors, 3 on mathematical mismatch
(failing verify case or vanishing cell factor while tracing).  A value too
long to print in full is a success: it prints factored, with an
``(N digits)`` note for the plain value.  A count too large to build at
all is refused with 2 before its value is built.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tilecount
from tilecount import (
    FactoredValue,
    PowerProduct,
    evaluate,
    q_count,
    s_region_count,
    zigzag_count,
)
from tilecount.aztec import parse_pattern
from tilecount.cli import MAX_VALUE_BITS, _bit_bound, main
from tilecount.verify import parse_record

ONES = "2 2\n1 1\n1 1\n"
DEGENERATE = "2 2\n1 1\n-1 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_fortress(capsys):
    code, out, _ = run(capsys, "count", "fortress", "1", "1", "1")
    assert code == 0
    assert out.strip() == "2^1 * 5^2 = 50"


def test_count_fortress_bar(capsys):
    code, out, _ = run(capsys, "count", "fortress", "1", "1", "1", "--bar")
    assert code == 0
    assert out.strip() == "5^2 = 25"


def test_count_zigzag(capsys):
    code, out, _ = run(capsys, "count", "zigzag", "4")
    assert code == 0
    assert out.strip() == "2 * 3^5 = 486"


def test_count_zigzag_bar(capsys):
    code, out, _ = run(capsys, "count", "zigzag", "7", "--bar")
    assert code == 0
    assert out.strip() == "2 * 3^16 = 86093442"


def test_count_brick(capsys):
    code, out, _ = run(capsys, "count", "blum", "8")
    assert code == 0
    assert out.strip() == "2 * 3^5 = 486"


def test_count_triangle(capsys):
    code, out, _ = run(capsys, "count", "tri", "1")
    assert code == 0
    assert out.strip() == "3^2 * 2^4 = 144"


def test_count_pattern_file(capsys, tmp_path):
    path = tmp_path / "ones.pat"
    path.write_text(ONES)
    code, out, _ = run(capsys, "count", "aztec", str(path), "5")
    assert code == 0
    assert out.strip() == "2^15 = 32768"


def test_count_pattern_file_reports_vanishing_cell(capsys, tmp_path):
    path = tmp_path / "bad.pat"
    path.write_text(DEGENERATE)
    code, out, err = run(capsys, "count", "aztec", str(path), "3")
    assert code == 3
    assert out == ""
    assert err == run(capsys, "trace", str(path), "3")[2]
    assert err.count("\n") == 1


def test_count_too_long_to_print_in_full(capsys, tmp_path, digit_limit_640):
    code, out, err = run(capsys, "count", "q", "40")
    assert (code, out, err) == (0, f"{q_count(40)} = (776 digits)\n", "")
    # 11^650 stays in the unit, so the factored form carries a note too
    path = tmp_path / "elevens.pat"
    path.write_text("2 2\n11 11\n11 11\n")
    code, out, err = run(capsys, "count", "aztec", str(path), "25")
    assert (code, out, err) == (0, "(677 digits) * 2^325 = (775 digits)\n", "")


def test_count_pattern_file_without_tilings(capsys, tmp_path):
    # the one cell has xz + yw = 1*0 + 0*1 = 0: no tilings, nothing to factor
    path = tmp_path / "none.pat"
    path.write_text("2 2\n1 0\n1 0\n")
    assert run(capsys, "count", "aztec", str(path), "1") == (0, "0 = 0\n", "")


def test_count_refuses_values_over_the_size_bound(capsys, monkeypatch):
    code, out, err = run(capsys, "count", "zigzag", "2000")
    assert (code, out, err) == (0, "3^1333333 = (636162 digits)\n", "")

    def unbuilt(self):
        raise AssertionError("the value was built")

    monkeypatch.setattr(FactoredValue, "value", unbuilt)
    code, out, err = run(capsys, "count", "zigzag", "100000")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"{MAX_VALUE_BITS} bits" in err


def test_count_pattern_file_at_a_high_order(capsys, tmp_path):
    path = tmp_path / "ones.pat"
    path.write_text(ONES)
    code, out, err = run(capsys, "count", "aztec", str(path), "5000")
    assert (code, out, err) == (0, "2^12502500 = (3763628 digits)\n", "")


def test_count_pattern_file_refuses_values_over_the_size_bound(capsys, tmp_path, monkeypatch):
    path = tmp_path / "ones.pat"
    path.write_text(ONES)

    def unbuilt(self):
        raise AssertionError("the value was built")

    monkeypatch.setattr(FactoredValue, "value", unbuilt)
    monkeypatch.setattr(PowerProduct, "value", unbuilt)
    # 2^18003000 has 18003001 bits, and its denominator 1 has one
    code, out, err = run(capsys, "count", "aztec", str(path), "6000")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert "up to 18003002 bits" in err and f"{MAX_VALUE_BITS} bits" in err


def test_size_bound_covers_the_value():
    for v in (
        q_count(40),
        zigzag_count(7, "bar"),
        s_region_count(2, 9),
        FactoredValue(Fraction(7, 12), [(2, -5), (3, 4), (31, 2)]),
    ):
        x = v.value()
        assert x.numerator.bit_length() + x.denominator.bit_length() <= _bit_bound(v)


def test_count_rejects_bar_elsewhere(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "q", "3", "--bar"])
    assert exc.value.code == 2


def test_count_rejects_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "zigzag", "four"])
    assert exc.value.code == 2


def test_count_rejects_wrong_arity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "zigzag", "4", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "fortress"])
    assert exc.value.code == 2


def test_count_rejects_unknown_region(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "hexagon", "3"])
    assert exc.value.code == 2


def test_count_rejects_bad_order(capsys):
    # blum_value raises ValueError for order 0; surfaced as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["count", "blum", "0"])
    assert exc.value.code == 2


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "stanley", "--cases", "4", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("cases, 0 failed")
    assert all(line.startswith("ok") for line in lines[:-1])


def test_verify_records(capsys):
    code, out, _ = run(
        capsys, "verify", "powers", "--cases", "2", "--format", "records"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        assert parse_record(line).equal


@pytest.mark.parametrize("option", ["--n", "--cases"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_rejects_sizes_below_one(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "stanley", option, value])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_verify_oracle_reaches_order_six(capsys):
    code, out, _ = run(capsys, "verify", "oracle-vs-reduce", "--n", "6")
    assert code == 0
    orders = [int(n) for n in re.findall(r"\[n=(\d+)\]", out)]
    assert len(orders) == 12
    assert max(orders) == 6


def test_verify_oracle_refuses_orders_above_its_ceiling(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "oracle-vs-reduce", "--n", "7"])
    assert exc.value.code == 2
    assert "n must be <= 6" in capsys.readouterr().err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_trace(capsys, tmp_path):
    path = tmp_path / "ones.pat"
    path.write_text(ONES)
    code, out, _ = run(capsys, "trace", str(path), "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].split() == ["step", "1", "order", "2", "factor", "16"]
    assert lines[1].split() == ["step", "2", "order", "1", "factor", "1/2"]
    assert lines[-1] == "value 8"


def test_trace_too_long_to_print_in_full(capsys, tmp_path, digit_limit_640):
    # at order 12 the first step's factor is (2 * 10^6)^144, 908 digits,
    # and the second's denominator has 763; the value fits
    text = "2 2\n1000 1000\n1000 1000\n"
    path = tmp_path / "thousands.pat"
    path.write_text(text)
    code, out, err = run(capsys, "trace", str(path), "12")
    lines = out.strip().splitlines()
    assert (code, err) == (0, "")
    assert len(lines) == 13
    assert lines[0].split() == ["step", "1", "order", "12", "factor", "(908", "digits)"]
    assert lines[1].split() == ["step", "2", "order", "11", "factor", "(1/763", "digits)"]
    assert lines[-1] == f"value {evaluate(parse_pattern(text), 12)}"


def test_trace_reports_vanishing_cell(capsys, tmp_path):
    path = tmp_path / "bad.pat"
    path.write_text(DEGENERATE)
    code, out, err = run(capsys, "trace", str(path), "3")
    assert code == 3
    assert "vanishing factor" in err
    assert "order 3" in err and "step 1" in err


def test_trace_rejects_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "/no/such/file.pat", "2"])
    assert exc.value.code == 2


def test_console_entry_point():
    """The ``[project.scripts]`` target runs as the installed wrapper runs it.

    The ``tilecount`` target is read from the repository's ``pyproject.toml``
    and called as ``sys.exit(func())`` in a fresh interpreter, which is what
    the console script that an install generates does.  The child imports
    the same ``tilecount`` package as this test, so no install is needed.
    """
    tomllib = pytest.importorskip("tomllib")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tilecount"]
    module, _, attr = target.partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'tilecount'\n"
        f"sys.exit({attr}())\n"
    )
    package_root = str(Path(tilecount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )

    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "count", "zigzag", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2 * 3^5 = 486", proc.stderr


def test_size_bound_covers_power_products():
    for powers in (
        {2: 100},
        {Fraction(-3, 4): 7, Fraction(5, 6): -3},
        {Fraction(1, 1024): 9, 11: 2},
    ):
        x = PowerProduct.of(powers).value()
        assert x.numerator.bit_length() + x.denominator.bit_length() \
            <= _bit_bound(PowerProduct.of(powers))
    assert _bit_bound(PowerProduct.of({2: 100})) == 102  # exact for powers of 2
