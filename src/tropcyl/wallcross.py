"""Exact Laurent polynomials in two variables and the focus-focus
wall-crossing count engine.

The shear x -> x(1+y), y -> y maps x^a y^b to x^a y^b (1+y)^a, a
polynomial summed in plain ints with running binomials; a negative power
of (1+y) has no polynomial image.  The count of the del Pezzo family
L(l, m, n) is the coefficient C(l, n) of x^l y^{m+n} in the image of
x^l y^m; so is the reversed reading off the inverse image of
x^{-l} y^{-(m+n)}, since x^{-l} maps to x^{-l}(1+y)^l.  Reports check
counts against `math.comb`, which shares no code with the running binomials.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import InvalidArgument, InvalidQuery, NotInFamily, UnsupportedBase, brief
from .extension import DEL_PEZZO_PAIR
from .lattice import L_MAX, _set, is_int, is_rational, value_class
from .spines import TropicalTree, _check_objects, _outgoing, validate_spine


@value_class("terms")
class SparseLaurentSeries:
    """Laurent polynomial in x, y over the rationals.

    Stored as integer numerators `num`, a dict from (power of x, power of y)
    to a nonzero int, over one positive `den`, with gcd(den, *num) = 1.
    A series is read through `terms`, `num` and `den`: `terms` gives the
    sorted ((i, j), Fraction) pairs, so `dict(s.terms)` maps each power to
    its coefficient, and `==` compares the integers.  The constructor sums
    a tuple or list of such pairs (int or Fraction coefficients), and
    raises InvalidArgument on anything else, so the series of a dict `d`
    is `SparseLaurentSeries(tuple(d.items()))`; `monomial` builds x^i y^j.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: tuple[tuple[tuple[int, int], Fraction], ...] = ()):
        if not (isinstance(terms, (tuple, list)) and all(
                type(t) is tuple and len(t) == 2 and type(t[0]) is tuple
                and len(t[0]) == 2 and is_int(t[0][0]) and is_int(t[0][1])
                and is_rational(t[1]) for t in terms)):
            raise InvalidArgument(
                f"series needs ((int, int), int or Fraction) terms, got {brief(terms)}")
        den = lcm(*(c.denominator for _, c in terms))
        acc: dict[tuple[int, int], int] = {}
        for k, c in terms:
            acc[k] = acc.get(k, 0) + c.numerator * (den // c.denominator)
        _fill(self, acc, den)

    @classmethod
    def monomial(cls, i: int, j: int) -> "SparseLaurentSeries":
        """x^i y^j; InvalidArgument unless i, j are ints."""
        return cls((((i, j), 1),))

    def __eq__(self, other):
        if other.__class__ is SparseLaurentSeries:
            return self.den == other.den and self.num == other.num
        return NotImplemented

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        den = self.den
        return tuple((k, Fraction(v, den)) for k, v in sorted(self.num.items()))


_new_series = SparseLaurentSeries.__new__


def _fill(s: SparseLaurentSeries, acc: dict, den: int) -> SparseLaurentSeries:
    """`s` holding the int numerators `acc` over `den` > 0, without the
    zeros and reduced by their common factor with `den`."""
    num = {k: v for k, v in acc.items() if v}
    if den != 1:
        g = gcd(den, *num.values())
        num = {k: v // g for k, v in num.items()}
        den //= g
    _set(s, "num", num)
    _set(s, "den", den)
    return s


def _apply_shear(s: SparseLaurentSeries, power_sign: int) -> SparseLaurentSeries:
    """Substitute x -> x(1+y)^power_sign, y -> y, monomial by monomial.
    Raises InvalidArgument unless `s` is a series, and InvalidQuery unless
    each power of (1+y) lies in [0, L_MAX]."""
    if type(s) is not SparseLaurentSeries:
        raise InvalidArgument(f"shear needs a SparseLaurentSeries, got {brief(s)}")
    acc: dict[tuple[int, int], int] = {}
    for (a, b), v in s.num.items():
        e = power_sign * a
        if not 0 <= e <= L_MAX:
            raise InvalidQuery(f"shear needs powers of (1+y) in [0, {L_MAX}], got {brief(e)}")
        # v*C(e, k); C(e, k+1) = C(e, k)(e-k)/(k+1) exactly
        for k in range(e + 1):
            key = (a, b + k)
            acc[key] = acc.get(key, 0) + v
            v = v * (e - k) // (k + 1)
    return _fill(_new_series(SparseLaurentSeries), acc, s.den)


def focus_focus_apply(s: SparseLaurentSeries) -> SparseLaurentSeries:
    """The focus-focus wall-crossing substitution x -> x(1+y), y -> y, on a
    series whose x-powers lie in [0, L_MAX]."""
    return _apply_shear(s, 1)


def focus_focus_inverse(s: SparseLaurentSeries) -> SparseLaurentSeries:
    """The inverse substitution x -> x(1+y)^{-1}, y -> y, on a series whose
    x-powers lie in [-L_MAX, 0]."""
    return _apply_shear(s, -1)


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
    focus-focus image of x^l y^m.  Equals C(l, n) for 0 <= n <= l, else 0.
    Raises InvalidArgument unless `q` is a CountQuery."""
    _check_query(q)
    image = focus_focus_apply(SparseLaurentSeries.monomial(q.l, q.m))
    assert image.den == 1
    return image.num.get((q.l, q.m + q.n), 0)


def backward_count(q: CountQuery) -> int:
    """The reversed reading of the count, an int: the coefficient of
    x^{-l} y^{-m} in the inverse substitution applied to x^{-l} y^{-(m+n)}.
    Raises InvalidArgument unless `q` is a CountQuery."""
    _check_query(q)
    image = focus_focus_inverse(SparseLaurentSeries.monomial(-q.l, -(q.m + q.n)))
    assert image.den == 1
    return image.num.get((-q.l, -q.m), 0)


def count_table(l_max: int, m_values) -> dict:
    """Count table rows for l = 0..l_max and each of at most TABLE_M_VALUES
    values of m, each row read off one image and checked against the row
    of `math.comb(l, n)` (which does not depend on m).  Raises
    InvalidArgument unless `l_max` is an int and `m_values` a list, tuple
    or range of ints (see `is_int`)."""
    if not (is_int(l_max) and isinstance(m_values, (list, tuple, range))):
        raise InvalidArgument(
            f"table needs an int l_max and a list, tuple or range of m values, got "
            f"{brief(l_max)}, {brief(m_values)}")
    if l_max < 1:
        raise InvalidQuery(f"table needs l_max >= 1, got {brief(l_max)}")
    if l_max > ORACLE_L_MAX:
        raise InvalidQuery(
            f"table is capped at l_max = {ORACLE_L_MAX}, got {brief(l_max)}")
    if not m_values or m_values[TABLE_M_VALUES:]:
        # sized by slices: len() of a range past sys.maxsize raises OverflowError
        size = f"more than {sys.maxsize}" if m_values[sys.maxsize:] else len(m_values)
        raise InvalidQuery(f"table needs 1 to {TABLE_M_VALUES} m values, got {size}")
    if not all(map(is_int, m_values)):
        raise InvalidArgument(f"table needs int m values, got {brief(m_values)}")
    expected = [[comb(l, n) for n in range(l + 1)] for l in range(l_max + 1)]
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
    are the boundary, so the third vertex is the 2-valent centre, and it is
    bounded and off the origin.  At a wall-1 point (A, 0) an arm is radial
    exactly when v = 0, so non-radial arms have v0, v1 != 0, and a zero or
    radial defect has v0 + v1 = 0.
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
    if len(spine.vertices) != 3:
        raise NotInFamily("normal form has exactly three vertices")
    (center,) = [v for v in spine.vertices if v.id not in spine.boundary]
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
