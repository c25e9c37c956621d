"""Laurent polynomials over Z in two variables and the focus-focus
wall-crossing count engine.

The shear x -> x(1+y), y -> y maps x^a y^b to x^a y^b (1+y)^a, a
polynomial in plain ints: the running binomials fill half of each row and
the mirror C(a, k) = C(a, a-k) the rest; a negative power of (1+y) has no
polynomial image.  The count of the del Pezzo family L(l, m, n) is the
coefficient C(l, n) of x^l y^{m+n} in the image of x^l y^m; so is the
reversed reading off the inverse image of x^{-l} y^{-(m+n)}, since x^{-l}
maps to x^{-l}(1+y)^l.  Each count reads its one coefficient, with the
running product stopped at min(n, l - n), and builds no image.  Reports
check counts against `math.comb`, which shares no code with the running
binomials.
"""

from __future__ import annotations

from math import comb

from .errors import InvalidArgument, InvalidQuery, NotInFamily, UnsupportedBase, brief
from .extension import DEL_PEZZO_PAIR
from .lattice import L_MAX, _set, is_int, value_class
from .spines import TropicalTree, _check_objects, _erasable, _outgoing, validate_spine


@value_class("terms")
class SparseLaurentSeries:
    """Laurent polynomial in x, y over the integers.

    Stored as `num`, a dict from (power of x, power of y) to a nonzero
    int.  A series is read through `terms` and `num`: `terms` gives the
    sorted ((i, j), int) pairs, so `dict(s.terms)` is `num`, and `==`
    compares `num`.  The constructor sums a tuple or list of such pairs,
    and raises InvalidArgument on anything else, a `Fraction` coefficient
    included, so the series of a dict `d` is
    `SparseLaurentSeries(tuple(d.items()))`; `monomial` builds x^i y^j.
    """

    __slots__ = ("num",)

    def __init__(self, terms: tuple[tuple[tuple[int, int], int], ...] = ()):
        if not (isinstance(terms, (tuple, list)) and all(
                type(t) is tuple and len(t) == 2 and type(t[0]) is tuple
                and len(t[0]) == 2 and is_int(t[0][0]) and is_int(t[0][1])
                and is_int(t[1]) for t in terms)):
            raise InvalidArgument(
                f"series needs ((int, int), int) terms, got {brief(terms)}")
        acc: dict[tuple[int, int], int] = {}
        for k, c in terms:
            acc[k] = acc.get(k, 0) + c
        _fill(self, acc)

    @classmethod
    def monomial(cls, i: int, j: int) -> "SparseLaurentSeries":
        """x^i y^j; InvalidArgument unless i, j are ints."""
        return cls((((i, j), 1),))

    def __eq__(self, other):
        if other.__class__ is SparseLaurentSeries:
            return self.num == other.num
        return NotImplemented

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple(sorted(self.num.items()))


_new_series = SparseLaurentSeries.__new__


def _fill(s: SparseLaurentSeries, acc: dict) -> SparseLaurentSeries:
    """`s` holding the int coefficients `acc` without the zeros."""
    _set(s, "num", {k: v for k, v in acc.items() if v})
    return s


def _binomials(v: int, e: int, stop: int) -> list[int]:
    """[v*C(e, 0), ..., v*C(e, stop)] by the running product, for
    stop <= e; [v] for stop < 0.  This is the package's one binomial
    loop.  Raises InvalidQuery unless e lies in [0, L_MAX]."""
    if not 0 <= e <= L_MAX:
        raise InvalidQuery(f"shear needs powers of (1+y) in [0, {L_MAX}], got {brief(e)}")
    row = [v]
    # C(e, k+1) = C(e, k)(e-k)/(k+1) exactly
    for k in range(stop):
        v = v * (e - k) // (k + 1)
        row.append(v)
    return row


def focus_focus_apply(s: SparseLaurentSeries) -> SparseLaurentSeries:
    """The focus-focus wall-crossing substitution x -> x(1+y), y -> y, on a
    series whose x-powers lie in [0, L_MAX], monomial by monomial.

    Each term v x^a y^b maps to the row v*C(a, k) x^a y^(b+k), k = 0..a.
    `_binomials` gives the row up to k = a//2 and the mirror
    C(a, k) = C(a, a-k) the rest.  The first row is the image; later rows
    are summed into it key by key, and only then are zero coefficients
    dropped, since a single row has none.  Raises InvalidArgument unless
    `s` is a series, and InvalidQuery unless each x-power lies in
    [0, L_MAX]."""
    if type(s) is not SparseLaurentSeries:
        raise InvalidArgument(f"shear needs a SparseLaurentSeries, got {brief(s)}")
    acc: dict[tuple[int, int], int] = {}
    for (a, b), v in s.num.items():
        row = _binomials(v, a, a // 2)
        row += row[a % 2 - 2::-1]
        if acc:
            for j, c in enumerate(row, b):
                key = (a, j)
                acc[key] = acc.get(key, 0) + c
        else:
            acc = {(a, j): c for j, c in enumerate(row, b)}
    image = _new_series(SparseLaurentSeries)
    if len(s.num) > 1:
        return _fill(image, acc)
    # one row: v != 0 and every C(a, k) > 0
    _set(image, "num", acc)
    return image


def _shear_coefficient(a: int, b: int, sign: int, j: int) -> int:
    """The coefficient of x^a y^j in the image of x^a y^b under
    x -> x(1+y)^sign, y -> y: C(e, k) with e = sign*a and k = j - b, 0
    unless 0 <= k <= e, read off the running product stopped at
    min(k, e - k).  Raises InvalidQuery unless e lies in [0, L_MAX]."""
    e, k = sign * a, j - b
    c = _binomials(1, e, min(k, e - k))[-1]
    return c if 0 <= k <= e else 0


ORACLE_L_MAX = 20
TABLE_M_VALUES = 100


@value_class("l", "m", "n")
class CountQuery:
    """Parameters of the one-wall family, all ints: winding 1 <= l <= L_MAX,
    y-offset m, and bend n.  n outside [0, l] simply yields a zero count.
    The image of x^l y^m is an exact polynomial; the cap bounds its size."""

    __slots__ = ("l", "m", "n")

    def __init__(self, l: int, m: int, n: int):
        if not (is_int(l) and is_int(m) and is_int(n)):
            raise InvalidQuery(
                f"count needs int l, m, n, got {brief(l)}, {brief(m)}, {brief(n)}")
        if not 1 <= l <= L_MAX:
            raise InvalidQuery(f"count needs 1 <= l <= {L_MAX}, got {brief(l)}")
        _set(self, "l", l)
        _set(self, "m", m)
        _set(self, "n", n)


def _check_query(q) -> None:
    if type(q) is not CountQuery:
        raise InvalidArgument(f"count needs a CountQuery, got {brief(q)}")


def count(q: CountQuery) -> int:
    """Cylinder count of the family: the coefficient of x^l y^{m+n} in the
    focus-focus image of x^l y^m, read without building the image.  Equals
    C(l, n) for 0 <= n <= l, else 0.  Raises InvalidArgument unless `q` is
    a CountQuery."""
    _check_query(q)
    return _shear_coefficient(q.l, q.m, 1, q.m + q.n)


def backward_count(q: CountQuery) -> int:
    """The reversed reading of the count, an int: the coefficient of
    x^{-l} y^{-m} in the inverse substitution x -> x(1+y)^{-1}, y -> y,
    applied to x^{-l} y^{-(m+n)}, read without building the image.  Raises
    InvalidArgument unless `q` is a CountQuery."""
    _check_query(q)
    return _shear_coefficient(-q.l, -(q.m + q.n), -1, -q.m)


def count_table(l_max: int, m_min: int, m_max: int) -> dict:
    """Count table rows for l = 0..l_max and m = m_min..m_max, at most
    TABLE_M_VALUES values of m, each row read off one image and checked
    against the row of `math.comb(l, n)` (which does not depend on m).
    Raises InvalidArgument unless `l_max`, `m_min` and `m_max` are ints
    (see `is_int`)."""
    if not (is_int(l_max) and is_int(m_min) and is_int(m_max)):
        raise InvalidArgument(
            f"table needs int l_max, m_min and m_max, got "
            f"{brief(l_max)}, {brief(m_min)}, {brief(m_max)}")
    if m_min > m_max:
        raise InvalidQuery(
            f"table needs --m-min <= --m-max, got {brief(m_min)} > {brief(m_max)}")
    if l_max < 1:
        raise InvalidQuery(f"table needs l_max >= 1, got {brief(l_max)}")
    if l_max > ORACLE_L_MAX:
        raise InvalidQuery(
            f"table is capped at l_max = {ORACLE_L_MAX}, got {brief(l_max)}")
    if m_max - m_min >= TABLE_M_VALUES:
        raise InvalidQuery(f"table needs 1 to {TABLE_M_VALUES} m values, "
                           f"got {brief(m_max - m_min + 1)}")
    expected = [[comb(l, n) for n in range(l + 1)] for l in range(l_max + 1)]
    m_values = range(m_min, m_max + 1)
    rows = []
    for m in m_values:
        for l in range(0, l_max + 1):
            num = focus_focus_apply(SparseLaurentSeries.monomial(l, m)).num
            counts = [num.get((l, m + n), 0) for n in range(l + 1)]
            if counts != expected[l]:
                raise InvalidQuery(
                    f"engine/oracle mismatch at l={l}, m={m}: "
                    f"{counts} vs {expected[l]}")
            rows.append({"l": l, "m": m, "counts": counts})
    return {"l_max": l_max, "m_values": list(m_values), "rows": rows,
            "verified": True}


def count_spine(base, spine: TropicalTree) -> int:
    """Count for a spine in the three-vertex one-wall normal form.

    The count is read off the broken-line bend at the central vertex, which
    must sit on the positive wall-1 ray.  In the chart of cone 1, where the
    wall ray is (1, 0), the two arms point away from the centre as
    (u0, v0) and (u1, v1).  The spine is in the family iff the arms have
    opposite wedges v0 = -v1 with the wall ray, whose size l = |v0| >= 1
    is the exponent of the wall function (1 + z)^l, and the bend
    u0 + u1 = n is the multiple of the wall ray picked up at the centre.
    The count is the coefficient C(l, n) of z^n, which does not depend on
    the height of the central vertex.  Raises InvalidArgument unless `base`
    is a TropicalBase and `spine` a TropicalTree.

    `validate_spine` settles the rest of the normal form.  Its two leaves
    are the boundary, so the spine is a path of bounded vertices off the
    origin.  The inner vertices that `canonical_image` erases are set aside
    first (a straight run keeps one), so a subdivision counts as the spine
    it subdivides; the one vertex left is the 2-valent centre.  At a
    wall-1 point (A, 0) an arm is radial exactly when v = 0, so non-radial
    arms have v0, v1 != 0, and a zero or radial defect has v0 + v1 = 0.
    """
    _check_objects(base, spine, "count_spine")
    if base.pair.self_intersections != DEL_PEZZO_PAIR:
        raise UnsupportedBase(
            f"counts are implemented for the base {DEL_PEZZO_PAIR}, got "
            f"{base.pair.self_intersections}")
    violations = validate_spine(base, spine)
    if violations:
        raise NotInFamily(
            "not a valid spine: " + "; ".join(v.message for v in violations))
    inner = [v for v in spine.vertices if v.id not in spine.boundary]
    if len(inner) > 1:
        inner = [v for v in inner if not _erasable(spine, v.id)] or inner[:1]
    if len(inner) != 1:
        raise NotInFamily("normal form has exactly three vertices")
    (center,) = inner
    pos = center.position
    if not (pos.cone == 1 and pos.B == 0):
        raise NotInFamily("central vertex must sit on the positive wall-1 ray")
    (_, u0, v0), (_, u1, v1) = _outgoing(base, spine, center.id, pos)
    return count(CountQuery(abs(v0), 0, u0 + u1))


def virtual_dim(g: int, dim_v: int, alpha_dot_k: int, n: int) -> int:
    """Expected dimension (1 - g)(dim_v - 3) - alpha_dot_k + n.  Raises
    InvalidArgument unless every argument is an int (see `is_int`)."""
    if not (is_int(g) and is_int(dim_v) and is_int(alpha_dot_k) and is_int(n)):
        raise InvalidArgument(
            f"virtual dimension needs int arguments, got {brief(g)}, {brief(dim_v)}, "
            f"{brief(alpha_dot_k)}, {brief(n)}")
    return (1 - g) * (dim_v - 3) - alpha_dot_k + n
