"""Test-only reference for the command line's argument parsing: one
top-level parser whose subcommands are argparse subparsers, so that each
argv runs through two parse passes, as `tropcyl.cli` parsed before each
subcommand got a parser of its own.  `run` parses with it and runs the
command through the same `cli._call`, so a difference between the two
`run`s is a difference in parsing."""

import argparse
from functools import cache

from tropcyl import wallcross
from tropcyl.cli import (
    TRACE_DIGITS,
    _call,
    cmd_base,
    cmd_count,
    cmd_extend,
    cmd_symmetry,
    cmd_table,
    cmd_trace,
    cmd_validate,
)
from tropcyl.extension import MAX_STEPS, MAX_STEPS_CAP


@cache
def _build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_table)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _call(args.func, args)
