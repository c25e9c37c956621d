"""Test-only reference for the focus-focus shear: the substitution
x -> x(1+y)^power_sign, y -> y summed term by term in `Fraction`s with
`math.comb` over each whole row, where the engine fills half a row with
running binomials in ints and mirrors the rest; and the series sum and
product, on the int coefficients `num`, with which the shear is checked
to be a substitution."""

from fractions import Fraction
from math import comb

from tropcyl import InvalidQuery, SparseLaurentSeries


def fraction_shear(s: SparseLaurentSeries, power_sign: int) -> SparseLaurentSeries:
    """The polynomial image of `s`; InvalidQuery on a negative power of
    (1+y)."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in s.terms:
        e = power_sign * a
        if e < 0:
            raise InvalidQuery("a negative substitution power has no polynomial image")
        for k in range(0, e + 1):
            key = (a, b + k)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(c) * comb(e, k)
    assert all(v.denominator == 1 for v in acc.values())
    return SparseLaurentSeries(tuple((k, v.numerator) for k, v in acc.items()))


def series_sum(f: SparseLaurentSeries, g: SparseLaurentSeries) -> SparseLaurentSeries:
    """f + g, coefficientwise."""
    acc = dict(f.num)
    for k, v in g.num.items():
        acc[k] = acc.get(k, 0) + v
    return SparseLaurentSeries(tuple(acc.items()))


def series_product(f: SparseLaurentSeries, g: SparseLaurentSeries) -> SparseLaurentSeries:
    """f * g, term by term."""
    acc: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in f.num.items():
        for (i2, j2), c2 in g.num.items():
            k = (i1 + i2, j1 + j2)
            acc[k] = acc.get(k, 0) + c1 * c2
    return SparseLaurentSeries(tuple(acc.items()))
