"""Command-line driver.

Every subcommand writes one JSON report (keys sorted, rationals in lowest
terms) to stdout.  Exit codes: 0 success, 1 domain error (reported as
structured JSON), 2 malformed input or usage error (diagnostics on
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from math import comb

from .errors import InvalidQuery, TropcylError, brief
from .extension import (
    MAX_STEPS,
    MAX_STEPS_CAP,
    del_pezzo_base,
    extend,
    family_spine,
    spine_legs,
    tropical_trace,
)
from .lattice import build_base, fan_closure, intersection_matrix, is_positive, monodromy
from .serialize import (
    SchemaError,
    extend_report,
    frac_to_str,
    pair_from_json,
    parse_frac,
    point_to_json,
    spine_from_json,
)
from .wallcross import CountQuery, backward_count, count, count_spine
from . import wallcross
from .spines import validate_spine


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True))


def _load_json(path: str):
    """The JSON value of the file at `path`.  Raises SchemaError when the
    file is not UTF-8 JSON, nests deeper than the recursion limit, or holds
    an integer literal longer than the interpreter converts."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(str(exc)) from None


# The most bits `tropcyl base` takes in a pair: the sum over its entries d
# of the bit length of |d| + 1.  Each wall factor [[-d, 1], [-1, 0]] has
# row-sum norm |d| + 1, so every report integer (a monodromy entry, a
# closure ray, a matrix entry) is at most the product of the |d| + 1 in
# absolute value, and the trace at most twice it: under 2^(BASE_BITS + 1),
# which has at most 4215 digits, within the 4300 that `str` of an int
# writes.  The check reads each entry once, before any lattice work.
BASE_BITS = 14_000


def cmd_base(args) -> int:
    pair = pair_from_json(_load_json(args.pair_file))
    if len(pair) > wallcross.L_MAX:
        raise InvalidQuery(f"base is capped at l = {wallcross.L_MAX}, got {len(pair)}")
    bits = sum((abs(d) + 1).bit_length() for d in pair.self_intersections)
    if bits > BASE_BITS:
        raise InvalidQuery(
            f"base is capped at {BASE_BITS} bits of |d| + 1 over the entries d, got {bits}")
    base = build_base(pair)
    mono = monodromy(pair)
    (a, _), (_, d) = mono
    closure = fan_closure(pair)
    report = {
        "pair": list(pair.self_intersections),
        "cones": base.l,
        "walls": base.l,
        "monodromy": [list(r) for r in mono],
        "monodromy_is_identity": mono == ((1, 0), (0, 1)),
        "monodromy_trace": a + d,
        "fan_closure": None if closure is None else [list(v) for v in closure],
        "intersection_matrix": intersection_matrix(pair),
        "positive": is_positive(pair),
    }
    _emit(report)
    return 0


def cmd_validate(args) -> int:
    pair = pair_from_json(_load_json(args.pair_file))
    base = build_base(pair)
    spine = spine_from_json(base, _load_json(args.spine_file))
    violations = validate_spine(base, spine)
    report = {
        "valid": not violations,
        "violations": [
            {"code": v.code, "where": v.where, "message": v.message}
            for v in violations
        ],
    }
    _emit(report)
    return 0 if not violations else 1


def cmd_extend(args) -> int:
    pair = pair_from_json(_load_json(args.pair_file))
    base = build_base(pair)
    spine = spine_from_json(base, _load_json(args.spine_file))
    result = extend(base, spine, max_steps=args.max_steps)
    legs = spine_legs(base, spine, result.extended)
    try:
        report = extend_report(result, legs)
    except ValueError:
        # a report integer past the digits that `%d` writes; the package
        # built every input of the writer, so no other ValueError is hidden
        raise InvalidQuery(f"the extend report has an integer of more than "
                           f"{sys.get_int_max_str_digits()} digits") from None
    print(report)
    return 0


def cmd_count(args) -> int:
    q = CountQuery(args.l, args.m, args.n)
    b = None if args.b is None else parse_frac(args.b)
    if b is not None:
        spine = family_spine(args.l, args.m, args.n, b)
        value = count_spine(del_pezzo_base(), spine)
    else:
        value = count(q)
    oracle = ((comb(args.l, args.n) if args.n >= 0 else 0)
              if args.l <= wallcross.ORACLE_L_MAX else None)
    report = {
        "l": args.l,
        "m": args.m,
        "n": args.n,
        "count": value,
        "oracle": oracle,
        "match": (value == oracle) if oracle is not None else None,
        "symmetry": value == backward_count(q),
    }
    if b is not None:
        report["b"] = frac_to_str(b)
    _emit(report)
    return 0


def cmd_symmetry(args) -> int:
    q = CountQuery(args.l, args.m, args.n)
    forward = count(q)
    symmetric = forward == backward_count(q)
    report = {
        "l": args.l,
        "m": args.m,
        "n": args.n,
        "forward": forward,
        "backward": forward if symmetric else None,
        "symmetric": symmetric,
    }
    _emit(report)
    return 0 if symmetric else 1


# The most digits `tropcyl trace` takes in l, m, n and in the numerator and
# denominator of --b and of each --t value.  With every input at the cap,
# the report's integers have at most 3001 digits, within the 4300 that
# `str` of an int writes.
TRACE_DIGITS = 1000


def cmd_trace(args) -> int:
    b = parse_frac(args.b)
    ts = [parse_frac(x) for x in args.t.split(",") if x]
    cap = 10 ** TRACE_DIGITS
    if any(abs(x) >= cap for x in (args.l, args.m, args.n, b.numerator, b.denominator,
                                   *(y for t in ts for y in (t.numerator, t.denominator)))):
        raise InvalidQuery(f"trace takes l, m, n and the numerators and denominators "
                           f"of --b and --t of at most {TRACE_DIGITS} digits")
    points = [point_to_json({"t": frac_to_str(t)},
                            tropical_trace(args.l, args.m, args.n, b, t))
              for t in ts]
    report = {"l": args.l, "m": args.m, "n": args.n, "b": frac_to_str(b),
              "points": points}
    _emit(report)
    return 0


def cmd_table(args) -> int:
    if args.m_min > args.m_max:
        raise InvalidQuery(
            f"table needs --m-min <= --m-max, got {brief(args.m_min)} > {brief(args.m_max)}")
    report = wallcross.count_table(args.l_max, range(args.m_min, args.m_max + 1))
    text = json.dumps(report, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `run`."""
    parser = argparse.ArgumentParser(
        prog="tropcyl",
        description="Tropical bases, spines, extensions and wall-crossing counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("base", help="analyze a pair: monodromy, fan closure, positivity")
    p.add_argument("pair_file",
                   help=f"pair of at most {wallcross.L_MAX} boundary components")
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("validate", help="check the spine conditions")
    p.add_argument("pair_file")
    p.add_argument("spine_file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extend", help="extend a spine and build its cylinder")
    p.add_argument("pair_file")
    p.add_argument("spine_file")
    p.add_argument("--max-steps", type=int, default=MAX_STEPS,
                   help=f"step budget, 1 to {MAX_STEPS_CAP} (default {MAX_STEPS})")
    p.set_defaults(func=cmd_extend)

    l_help = f"boundary winding, 1 <= l <= {wallcross.L_MAX}"
    p = sub.add_parser("count", help="cylinder count of the family L(l, m, n)")
    p.add_argument("--l", type=int, required=True, help=l_help)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None,
                   help="optional height p/q: count through the spine matcher")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("symmetry", help="orientation symmetry of a count")
    p.add_argument("--l", type=int, required=True, help=l_help)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("trace", help="points of the explicit family trace")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    digits = f"p and q of at most {TRACE_DIGITS} digits"
    p.add_argument("--b", required=True, help=f"height p/q of the central vertex, {digits}")
    p.add_argument("--t", required=True,
                   help=f"comma-separated parameter values p/q, {digits}; use the "
                        "--t=-1,0,1/2 form for a leading negative value")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("table", help="binomial count table with oracle cross-check")
    p.add_argument("--l-max", type=int, required=True)
    m_help = ("m-range bound; --m-min <= --m-max, at most "
              f"{wallcross.TABLE_M_VALUES} values")
    p.add_argument("--m-min", type=int, default=0, help=m_help)
    p.add_argument("--m-max", type=int, default=0, help=m_help)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"tropcyl: {exc}", file=sys.stderr)
        return 2
    except TropcylError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
