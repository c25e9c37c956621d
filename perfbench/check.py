"""Output checks for every operation, independent of the timed path.

`check(op, outcome, files)` returns None when the output is right and a one-line
reason otherwise.  `outcome` is (exit code, stdout, stderr) from the
worker's first pass; an exit code of None means the call raised.

The checks recompute what they compare against from first principles
(binomials with `math.comb`, the monodromy product and fan recurrence
written out here, sweep counts by brute force), or take it from how the
input was built (`op["expect"]`).  The structural checks of extension
reports re-parse the report and run the package's validators on the
result, which the timed path never calls.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product


def _monodromy(ds):
    """Product of the wall transports [[-d, 1], [-1, 0]], walls 1..l-1, 0."""
    m = ((1, 0), (0, 1))
    l = len(ds)
    for k in range(1, l + 1):
        d = ds[k % l]
        t = ((-d, 1), (-1, 0))
        m = tuple(tuple(sum(t[i][r] * m[r][j] for r in range(2))
                        for j in range(2)) for i in range(2))
    return [list(row) for row in m]


def _closes(ds, vectors) -> bool:
    """Whether `vectors` is the closed fan of `ds`: v_0=(1,0), v_1=(0,1),
    v_{i-1} + v_{i+1} = -d_i v_i cyclically."""
    l = len(ds)
    if len(vectors) != l or vectors[0] != [1, 0] or vectors[1 % l] != [0, 1]:
        return False
    for i in range(l):
        a, b, c = vectors[i - 1], vectors[i], vectors[(i + 1) % l]
        if [a[0] + c[0], a[1] + c[1]] != [-ds[i] * b[0], -ds[i] * b[1]]:
            return False
    return True


def _matrix(ds):
    l = len(ds)
    m = [[0] * l for _ in range(l)]
    for i in range(l):
        m[i][i] = ds[i]
        m[i][(i + 1) % l] = m[(i + 1) % l][i] = 1
    return m


@lru_cache(maxsize=None)
def _sweep(l: int, lo: int, hi: int):
    identity = [[1, 0], [0, 1]]
    pairs = closures = 0
    for ds in product(range(lo, hi + 1), repeat=l):
        pairs += 1
        closures += _monodromy(ds) == identity
    return pairs, closures


def _check_base(op, report):
    exp = op["expect"]
    ds = exp["pair"]
    if report["pair"] != ds or report["cones"] != len(ds):
        return "pair echo"
    mono = _monodromy(ds)
    if report["monodromy"] != mono:
        return "monodromy"
    identity = mono == [[1, 0], [0, 1]]
    if report["monodromy_is_identity"] != identity:
        return "monodromy_is_identity"
    closure = report["fan_closure"]
    if (closure is not None) != identity:
        return "fan closure disagrees with monodromy"
    if closure is not None and not _closes(ds, closure):
        return "fan closure vectors"
    if exp["kind"] == "toric" and closure is None:
        return "toric pair did not close"
    if report["intersection_matrix"] != _matrix(ds):
        return "intersection matrix"
    if report["positive"] != exp["positive"]:
        return "positivity"
    return None


def _extension_checks(op, report, files):
    """Structural checks of an extend report, done by re-parsing it."""
    from tropcyl import (CylinderInB, LooijengaPair, build_base,
                         canonical_image, trace_path_image,
                         validate_cylinder_b, validate_extended_spine)
    from tropcyl.serialize import spine_from_json

    ds = json.loads(files[op["argv"][1]])["self_intersections"]
    base = build_base(LooijengaPair(tuple(ds)))
    ext = spine_from_json(base, report["extended_spine"])
    if validate_extended_spine(base, ext):
        return "extended spine violates the spine conditions"
    cyl = CylinderInB(spine_from_json(base, report["cylinder"]),
                      tuple(tuple(leg) for leg in report["cylinder"]["legs"]))
    if validate_cylinder_b(base, cyl):
        return "cylinder violates the cylinder conditions"
    fam = op["expect"].get("family")
    if fam is not None:
        l, m, n, b = fam
        if canonical_image(cyl.path_part()) != \
                trace_path_image(l, m, n, Fraction(b)):
            return "extension image differs from the trace image"
    return None


_NOT_EXTENDABLE = re.compile(r"after (\d+) steps")


def _check_extend_cli(op, code, report, files):
    exp = op["expect"]
    if op["argv"][0] == "validate":
        if code != 0 or report != {"valid": True, "violations": []}:
            return "valid spine reported invalid"
        return None
    if exp["exit"] == 1:
        match = _NOT_EXTENDABLE.search(report.get("detail", ""))
        if code != 1 or report.get("error") != "NotExtendable" or not match:
            return "spiral did not end NotExtendable"
        if int(match.group(1)) != exp["steps"]:
            return "spiral stopped at the wrong step count"
        return None
    if code != 0 or report.get("extendable") is not True:
        return f"extend exit {code}"
    if "steps" in exp and report["steps"] != exp["steps"]:
        return f"steps {report['steps']} != {exp['steps']}"
    return _extension_checks(op, report, files)


def _check_count_cli(op, code, report):
    exp = op["expect"]
    cmd = op["argv"][0]
    if code != 0:
        return f"exit {code}"
    if cmd == "table":
        m_values = exp["m_values"]
        rows = [{"l": l, "m": m, "counts": [math.comb(l, n)
                                            for n in range(l + 1)]}
                for m in m_values for l in range(exp["l_max"] + 1)]
        if report != {"l_max": exp["l_max"], "m_values": m_values,
                      "rows": rows, "verified": True}:
            return "table rows"
        return None
    l, m, n = exp["l"], exp["m"], exp["n"]
    want = math.comb(l, n) if 0 <= n <= l else 0
    if (report["l"], report["m"], report["n"]) != (l, m, n):
        return "query echo"
    if cmd == "symmetry":
        if (report["forward"], report["backward"], report["symmetric"]) != \
                (want, want, True):
            return "symmetry"
        return None
    if report["count"] != want or report["symmetry"] is not True:
        return "count"
    oracle = want if l <= 20 else None
    if report["oracle"] != oracle or \
            report["match"] != (True if l <= 20 else None):
        return "oracle"
    if "b" in exp:
        b = Fraction(exp["b"])
        if report["b"] != f"{b.numerator}/{b.denominator}":
            return "height echo"
    return None


def _check_lib(op, out):
    result = json.loads(out)
    if op["call"] == "toric_sweep":
        a = op["args"]
        pairs, closures = _sweep(a["l"], a["lo"], a["hi"])
        if result != [pairs, closures, 0]:
            return f"sweep {result} != {[pairs, closures, 0]}"
        return None
    if result.get("equal") is not True:
        return "cylinder image differs from the trace image"
    return None


def check(op, outcome, files):
    """None if `outcome` is the right answer to `op`, else the reason.

    `files` maps the names of the generated input files to their text.
    """
    code, out, err = outcome
    if code is None:
        return "raised: " + (err.strip().splitlines() or ["?"])[-1]
    if err:
        return "wrote to stderr: " + err.strip().splitlines()[0]
    if op["kind"] == "lib":
        return _check_lib(op, out)
    lines = out.splitlines()
    if len(lines) != 1:
        return f"expected one report line, got {len(lines)}"
    report = json.loads(lines[0])
    cmd = op["argv"][0]
    if cmd == "base":
        return f"exit {code}" if code != 0 else _check_base(op, report)
    if cmd in ("extend", "validate"):
        return _check_extend_cli(op, code, report, files)
    return _check_count_cli(op, code, report)
