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

from .errors import InvalidQuery, TropcylError
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
    l = len(pair.self_intersections)
    if l > wallcross.L_MAX:
        raise InvalidQuery(f"base is capped at l = {wallcross.L_MAX}, got {l}")
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
    backward = backward_count(q)
    symmetric = forward == backward
    report = {
        "l": args.l,
        "m": args.m,
        "n": args.n,
        "forward": forward,
        "backward": backward,
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
    _emit(wallcross.count_table(args.l_max, args.m_min, args.m_max))
    return 0


def _base_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("pair_file",
                   help=f"pair of at most {wallcross.L_MAX} boundary components")


def _spine_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("pair_file")
    p.add_argument("spine_file")


def _extend_arguments(p: argparse.ArgumentParser) -> None:
    _spine_arguments(p)
    p.add_argument("--max-steps", type=int, default=MAX_STEPS,
                   help=f"step budget, 1 to {MAX_STEPS_CAP} (default {MAX_STEPS})")


def _family_arguments(p: argparse.ArgumentParser,
                      l_help: str | None = f"boundary winding, 1 <= l <= {wallcross.L_MAX}",
                      ) -> None:
    p.add_argument("--l", type=int, required=True, help=l_help)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)


def _count_arguments(p: argparse.ArgumentParser) -> None:
    _family_arguments(p)
    p.add_argument("--b", default=None,
                   help="optional height p/q: count through the spine matcher")


def _trace_arguments(p: argparse.ArgumentParser) -> None:
    _family_arguments(p, l_help=None)
    digits = f"p and q of at most {TRACE_DIGITS} digits"
    p.add_argument("--b", required=True, help=f"height p/q of the central vertex, {digits}")
    p.add_argument("--t", required=True,
                   help=f"comma-separated parameter values p/q, {digits}; use the "
                        "--t=-1,0,1/2 form for a leading negative value")


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l-max", type=int, required=True)
    m_help = ("m-range bound; --m-min <= --m-max, at most "
              f"{wallcross.TABLE_M_VALUES} values")
    p.add_argument("--m-min", type=int, default=0, help=m_help)
    p.add_argument("--m-max", type=int, default=0, help=m_help)


# name -> (help, argument builder, command): the one list of subcommands,
# in the order of the top-level help.
COMMANDS = {
    "base": ("analyze a pair: monodromy, fan closure, positivity", _base_arguments, cmd_base),
    "validate": ("check the spine conditions", _spine_arguments, cmd_validate),
    "extend": ("extend a spine and build its cylinder", _extend_arguments, cmd_extend),
    "count": ("cylinder count of the family L(l, m, n)", _count_arguments, cmd_count),
    "symmetry": ("orientation symmetry of a count", _family_arguments, cmd_symmetry),
    "trace": ("points of the explicit family trace", _trace_arguments, cmd_trace),
    "table": ("binomial count table with oracle cross-check", _table_arguments, cmd_table),
}


@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the subcommand `name`, built on first use and shared
    by every later `run`.  It is built as the subparser that `_top_parser`
    adds for `name`, so its usage, help and error text are the same."""
    parser = argparse.ArgumentParser(prog=f"tropcyl {name}")
    COMMANDS[name][1](parser)
    return parser


@cache
def _top_parser() -> argparse.ArgumentParser:
    """The top-level parser, with a subparser for each command, built on
    first use: for the top-level help, for an argv that does not start
    with a command, and for the error on arguments left over."""
    parser = argparse.ArgumentParser(
        prog="tropcyl",
        description="Tropical bases, spines, extensions and wall-crossing counts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_))
    return parser


def _parse(argv: list[str]):
    """(command, arguments) of `argv`; exits through argparse on a usage
    error or help.  An argv that starts with a command name is parsed by
    that command's parser alone, in one pass, which reports any arguments
    left over as the top-level parser does.  The top-level parser takes
    the rest: -h exits 0, and [], "--" or an unknown name exit 2; it
    returns only where argparse drops a leading "--" before a command."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        args, extras = _command_parser(name).parse_known_args(argv[1:])
        if extras:
            _top_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = _top_parser().parse_args(argv)
        name = args.command
    return COMMANDS[name][2], args


def _call(command, args) -> int:
    """Exit code of `command` on the parsed `args`: its own, 1 with a JSON
    report of a domain error, or 2 with one `tropcyl:` line on stderr for
    an unreadable or malformed input file."""
    try:
        return command(args)
    except (SchemaError, OSError) as exc:
        print(f"tropcyl: {exc}", file=sys.stderr)
        return 2
    except TropcylError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1


def run(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    return _call(command, args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
