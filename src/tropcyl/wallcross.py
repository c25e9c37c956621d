"""Exact truncated Laurent series in two variables and the focus-focus
wall-crossing count engine.

The shear substitution x -> x(1+y), y -> y acts on monomials by
x^a y^b -> x^a y^b (1+y)^a: a polynomial for a >= 0; truncation in y
applies only to the binomial series of a negative a.  The image is summed
in integer numerators over the lcm of the input's denominators, and each
coefficient becomes a `Fraction` once, at the end.  The count of the del
Pezzo family L(l, m, n) is the coefficient of x^l y^{m+n} in the exact
polynomial image of x^l y^m, the binomial coefficient C(l, n); so is the
reversed reading off the inverse image of x^{-l} y^{-(m+n)}.  Reports check
counts against `math.comb`, which shares no code with the running binomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .errors import InvalidArgument, InvalidQuery, NotInFamily, UnsupportedBase
from .extension import DEL_PEZZO_PAIR
from .lattice import _set, is_int, is_rational, value_class
from .spines import TropicalTree, _outgoing, validate_spine


@value_class("terms", "trunc")
class SparseLaurentSeries:
    """Laurent polynomial / truncated series over the rationals.

    `terms` maps integer exponent pairs (power of x, power of y) to nonzero
    coefficients, stored sorted.  `trunc` is the y-order beyond which terms
    have been dropped (None = exact).  Arithmetic propagates the tighter
    truncation of its operands.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: tuple[tuple[tuple[int, int], Fraction], ...] = (),
                 trunc: int | None = None):
        _set(self, "terms", terms)
        _set(self, "trunc", trunc)

    @classmethod
    def from_dict(cls, d, trunc: int | None = None) -> "SparseLaurentSeries":
        if not (isinstance(d, dict) and (trunc is None or is_int(trunc)) and all(
                isinstance(k, tuple) and len(k) == 2 and all(map(is_int, k))
                and is_rational(c) for k, c in d.items())):
            raise InvalidArgument("series needs (int, int): int or Fraction terms and an "
                                  f"int or None trunc, got {d!r:.60}, {trunc!r}")
        return cls._of({k: Fraction(c) for k, c in d.items()}, trunc)

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1,
                 trunc: int | None = None) -> "SparseLaurentSeries":
        return cls.from_dict({(i, j): coeff}, trunc)

    @classmethod
    def _of(cls, acc: dict, trunc: int | None) -> "SparseLaurentSeries":
        """`from_dict` of the arithmetic's own (int, int) -> Fraction dicts."""
        return cls(tuple(sorted((k, c) for k, c in acc.items()
                                if c and (trunc is None or k[1] <= trunc))), trunc)

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        for (k, c) in self.terms:
            if k == (i, j):
                return c
        return Fraction(0)

    def __add__(self, other: "SparseLaurentSeries") -> "SparseLaurentSeries":
        """Exact coefficientwise sum; the tighter truncation wins."""
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return SparseLaurentSeries._of(acc, _combine_trunc(self.trunc, other.trunc))

    def __mul__(self, other: "SparseLaurentSeries") -> "SparseLaurentSeries":
        """Exact product; terms beyond the combined truncation are dropped."""
        trunc = _combine_trunc(self.trunc, other.trunc)
        acc: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                j = j1 + j2
                if trunc is not None and j > trunc:
                    continue
                k = (i1 + i2, j)
                acc[k] = acc.get(k, Fraction(0)) + c1 * c2
        return SparseLaurentSeries._of(acc, trunc)


def _combine_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _apply_shear(s: SparseLaurentSeries, power_sign: int,
                 trunc: int | None) -> SparseLaurentSeries:
    """Substitute x -> x(1+y)^power_sign, y -> y, monomial by monomial.

    With D the lcm of the coefficients' denominators, the integer
    numerators c*D*C(e, k) are summed in plain ints and each output
    coefficient becomes a `Fraction` once, at the end."""
    eff = _combine_trunc(s.trunc, trunc)
    den = lcm(*(c.denominator for _, c in s.terms))
    acc: dict[tuple[int, int], int] = {}
    for (a, b), c in s.terms:
        e = power_sign * a
        if e >= 0:
            kmax = e
            if eff is not None:
                kmax = min(kmax, eff - b)
        else:
            if eff is None:
                raise InvalidQuery(
                    "negative substitution powers need a finite truncation")
            kmax = eff - b
        # v = c*D*C(e, k); C(e, k+1) = C(e, k)(e-k)/(k+1) exactly, any e
        v = c.numerator * (den // c.denominator)
        for k in range(0, kmax + 1):
            key = (a, b + k)
            acc[key] = acc.get(key, 0) + v
            v = v * (e - k) // (k + 1)
    if den == 1:
        return SparseLaurentSeries._of({k: Fraction(v) for k, v in acc.items()}, eff)
    return SparseLaurentSeries._of({k: Fraction(v, den) for k, v in acc.items()}, eff)


def focus_focus_apply(s: SparseLaurentSeries,
                      trunc: int | None = None) -> SparseLaurentSeries:
    """The focus-focus wall-crossing substitution x -> x(1+y), y -> y.

    Nonnegative x-powers expand exactly; negative x-powers use the
    geometric/binomial series in y up to the truncation order.
    """
    return _apply_shear(s, 1, trunc)


def focus_focus_inverse(s: SparseLaurentSeries,
                        trunc: int | None = None) -> SparseLaurentSeries:
    """The inverse substitution x -> x(1+y)^{-1}, y -> y."""
    return _apply_shear(s, -1, trunc)


L_MAX = 1000
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
            raise InvalidQuery(f"count needs int l, m, n, got {l!r}, {m!r}, {n!r}")
        if not 1 <= l <= L_MAX:
            raise InvalidQuery(f"count needs 1 <= l <= {L_MAX}, got {l}")
        _set(self, "l", l)
        _set(self, "m", m)
        _set(self, "n", n)


def count(q: CountQuery) -> int:
    """Cylinder count of the family: the coefficient of x^l y^{m+n} in the
    focus-focus image of x^l y^m.  Equals C(l, n) for 0 <= n <= l, else 0."""
    image = focus_focus_apply(SparseLaurentSeries.monomial(q.l, q.m))
    c = image.coefficient(q.l, q.m + q.n)
    assert c.denominator == 1
    return int(c)


def backward_count(q: CountQuery) -> Fraction:
    """The reversed reading of the count: the coefficient of x^{-l} y^{-m}
    in the inverse substitution applied to x^{-l} y^{-(m+n)}."""
    image = focus_focus_inverse(SparseLaurentSeries.monomial(-q.l, -(q.m + q.n)))
    return image.coefficient(-q.l, -q.m)


def symmetry_check(q: CountQuery) -> bool:
    """Orientation symmetry of the count: both readings equal C(l, n)."""
    return count(q) == backward_count(q)


def count_table(l_max: int, m_values) -> dict:
    """Count table rows for l = 0..l_max and each of at most TABLE_M_VALUES
    values of m, each row read off one image and checked against the row
    of `math.comb(l, n)` (which does not depend on m).  Raises
    InvalidArgument unless `l_max` is an int and `m_values` a list, tuple
    or range of ints (see `is_int`)."""
    if not (is_int(l_max) and isinstance(m_values, (list, tuple, range))):
        raise InvalidArgument(
            f"table needs an int l_max and a list, tuple or range of m values, got "
            f"{l_max!r:.60}, {m_values!r:.60}")
    if l_max < 1:
        raise InvalidQuery(f"table needs l_max >= 1, got {l_max}")
    if l_max > ORACLE_L_MAX:
        raise InvalidQuery(f"table is capped at l_max = {ORACLE_L_MAX}, got {l_max}")
    if not 1 <= len(m_values) <= TABLE_M_VALUES:
        raise InvalidQuery(
            f"table needs 1 to {TABLE_M_VALUES} m values, got {len(m_values)}")
    if not all(map(is_int, m_values)):
        raise InvalidArgument(f"table needs int m values, got {m_values!r:.60}")
    expected = [[comb(l, n) for n in range(l + 1)] for l in range(l_max + 1)]
    rows = []
    for m in m_values:
        for l in range(0, l_max + 1):
            coeffs = focus_focus_apply(SparseLaurentSeries.monomial(l, m)).as_dict()
            counts = [int(coeffs.get((l, m + n), 0)) for n in range(l + 1)]
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
    the height of the central vertex.
    """
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
    centers = [v for v in spine.vertices if spine.valency(v.id) == 2]
    if len(centers) != 1:
        raise NotInFamily("normal form has exactly one 2-valent vertex")
    center = centers[0]
    pos = center.position
    if pos is None or pos.is_origin or not (pos.cone == 1 and pos.B == 0):
        raise NotInFamily("central vertex must sit on the positive wall-1 ray")
    (_, u0, v0), (_, u1, v1) = _outgoing(base, spine, center.id, pos)
    l = abs(v0)
    # the family's definition; on a valid spine the radial and
    # outward-defect conditions at the centre already imply it
    if l < 1 or v0 + v1 != 0:
        raise NotInFamily(
            f"arm directions ({u0}, {v0}) and ({u1}, {v1}) in cone 1 are not "
            f"in the family")
    return count(CountQuery(l, 0, u0 + u1))


def virtual_dim(g: int, dim_v: int, alpha_dot_k: int, n: int) -> int:
    """Expected dimension (1 - g)(dim_v - 3) - alpha_dot_k + n."""
    return (1 - g) * (dim_v - 3) - alpha_dot_k + n
