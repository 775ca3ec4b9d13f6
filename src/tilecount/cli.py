"""Command-line access to the counting engine.

Three subcommands:

  * ``count``  — closed-form counts for the named region families, or the
    diamond value of a weight pattern read from a file;
  * ``verify`` — run one of the randomized cross-checking suites;
  * ``trace``  — reduce a pattern file step by step, printing each step's
    cell-factor product.

Counts are printed factored over the primes that actually occur in the
theorems (2, 3, 5, 7, 29, 31, 37), with whatever they do not absorb left
as a leading unit, followed by the plain value.  A plain value (or trace
factor) longer than the interpreter's int-to-text digit limit is shown as
an ``(N digits)`` note instead; the factored form is always printed.

Exit status: 0 on success, 2 on usage or input errors, 3 on a
mathematical mismatch — a failing verify case, a closed form disagreeing
with its reduction route, or a vanishing cell factor while tracing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .aztec import ZeroCellFactor, evaluate, evaluate_trace, read_pattern
from .formulas import (
    RouteMismatchError,
    blum_value,
    fortress_count,
    q_count,
    s_region_count,
    tri_count,
    zigzag_count,
)
from .rational import factorize, plain_str
from .verify import SUITE_NAMES, format_report, report_record, run_suite

DISPLAY_PRIMES = (2, 3, 5, 7, 29, 31, 37)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilecount",
        description="exact tiling counts via perfect-matching reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count",
        help="closed-form count of a region, or diamond value of a pattern file",
        description=(
            "count fortress D1 D2 ... | zigzag N | s1..s4 N | q N | tri N "
            "| blum N | aztec FILE N"
        ),
    )
    count.add_argument("region", choices=tuple(_COUNTS))
    count.add_argument("params", nargs="*", metavar="PARAM")
    count.add_argument(
        "--bar",
        action="store_true",
        help="complementary variant (fortress and zigzag only)",
    )
    count.set_defaults(handler=_cmd_count)

    verify = sub.add_parser(
        "verify",
        help="run a randomized cross-checking suite",
        description="exit status 3 if any case fails",
    )
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("--n", type=int, default=None, help="order cap (suite default)")
    verify.add_argument(
        "--cases", type=int, default=None, help="random cases per sub-family"
    )
    verify.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    verify.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="records: one machine-readable line per case",
    )
    verify.set_defaults(handler=_cmd_verify)

    trace = sub.add_parser(
        "trace",
        help="reduce a pattern file step by step",
        description="prints each reduction step's cell-factor product",
    )
    trace.add_argument("file", help="pattern file: 'k l' header then k rows")
    trace.add_argument("n", type=int, help="diamond order")
    trace.set_defaults(handler=_cmd_trace)

    return parser


def _int_arg(parser: argparse.ArgumentParser, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        parser.error(f"expected an integer, got {token!r}")


def _read_pattern_arg(parser: argparse.ArgumentParser, path: str):
    try:
        return read_pattern(path)
    except OSError as exc:
        parser.error(f"cannot read {path}: {exc}")
    except ValueError as exc:
        parser.error(f"bad pattern file {path}: {exc}")


def _vanishing(exc: ZeroCellFactor, n: int) -> int:
    step = n - exc.order + 1
    print(f"step {step} (order {exc.order}): cell {exc.cell} has vanishing factor xz + yw",
          file=sys.stderr)
    return 3


# Region -> count from (order, variant), band widths for fortress and
# (pattern, order) for aztec.  The lambdas look each function up by name
# when called, so a rebound module attribute takes effect.
_COUNTS = {
    "fortress": lambda parts, variant: fortress_count(parts, variant),
    "zigzag": lambda n, variant: zigzag_count(n, variant),
    **{f"s{f}": (lambda n, _, f=f: s_region_count(f, n)) for f in (1, 2, 3, 4)},
    "q": lambda n, _: q_count(n),
    "tri": lambda n, _: tri_count(n),
    "blum": lambda n, _: blum_value(n),
    "aztec": lambda pn, _: factorize(evaluate(*pn), DISPLAY_PRIMES),
}


def _cmd_count(args, parser: argparse.ArgumentParser) -> int:
    region, params = args.region, args.params
    if args.bar and region not in ("fortress", "zigzag"):
        parser.error("--bar applies to fortress and zigzag only")
    if region == "fortress":
        if not params:
            parser.error("fortress needs band widths, e.g. count fortress 1 2 1")
        arg = [_int_arg(parser, tok) for tok in params]
    elif region == "aztec":
        if len(params) != 2:
            parser.error("aztec needs a pattern file and an order")
        arg = (_read_pattern_arg(parser, params[0]), _int_arg(parser, params[1]))
    else:
        if len(params) != 1:
            parser.error(f"{region} takes exactly one order")
        arg = _int_arg(parser, params[0])
    try:
        value = _COUNTS[region](arg, "bar" if args.bar else "plain")
    except ZeroCellFactor as exc:  # only an aztec pattern can have one
        return _vanishing(exc, arg[1])
    print(f"{value} = {plain_str(value.value())}")
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    reports = run_suite(args.suite, n=args.n, cases=args.cases, seed=args.seed)
    failed = 0
    for r in reports:
        print(report_record(r) if args.format == "records" else format_report(r))
        failed += 0 if r.equal else 1
    if args.format == "text":
        print(f"{len(reports)} cases, {failed} failed")
    return 3 if failed else 0


def _cmd_trace(args, parser: argparse.ArgumentParser) -> int:
    pattern = _read_pattern_arg(parser, args.file)
    if args.n < 0:
        parser.error("order must be nonnegative")
    try:
        trace = evaluate_trace(pattern, args.n)
    except ZeroCellFactor as exc:
        return _vanishing(exc, args.n)
    for i, (matrix, factor) in enumerate(trace.steps, start=1):
        print(f"step {i:3d} order {matrix.order:3d} factor {plain_str(factor)}")
    print(f"value {plain_str(trace.value)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except RouteMismatchError as exc:
        print(f"mathematical mismatch: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    sys.exit(main())
