"""Test-only reference for the focus-focus shear: the substitution
x -> x(1+y)^power_sign, y -> y summed term by term in `Fraction`s, as the
engine did before it moved to integer numerators over a common
denominator; and the series sum and product, on the integer numerators
`num` over `den`, with which the shear is checked to be a substitution."""

from fractions import Fraction
from math import lcm

from tropcyl import InvalidQuery, SparseLaurentSeries


def fraction_shear(s: SparseLaurentSeries, power_sign: int) -> SparseLaurentSeries:
    """The polynomial image of `s`; InvalidQuery on a negative power of
    (1+y)."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in s.terms:
        e = power_sign * a
        if e < 0:
            raise InvalidQuery("a negative substitution power has no polynomial image")
        binom = 1  # C(e, k); C(e, k+1) = C(e, k)(e-k)/(k+1) exactly
        for k in range(0, e + 1):
            key = (a, b + k)
            acc[key] = acc.get(key, Fraction(0)) + c * binom
            binom = binom * (e - k) // (k + 1)
    return SparseLaurentSeries(tuple(acc.items()))


def _over(acc: dict, den: int) -> SparseLaurentSeries:
    """The series of the int numerators `acc` over `den` > 0."""
    return SparseLaurentSeries(tuple((k, Fraction(v, den)) for k, v in acc.items()))


def series_sum(f: SparseLaurentSeries, g: SparseLaurentSeries) -> SparseLaurentSeries:
    """f + g, coefficientwise over lcm(f.den, g.den)."""
    den = lcm(f.den, g.den)
    acc = {k: v * (den // f.den) for k, v in f.num.items()}
    for k, v in g.num.items():
        acc[k] = acc.get(k, 0) + v * (den // g.den)
    return _over(acc, den)


def series_product(f: SparseLaurentSeries, g: SparseLaurentSeries) -> SparseLaurentSeries:
    """f * g, term by term over f.den * g.den."""
    acc: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in f.num.items():
        for (i2, j2), c2 in g.num.items():
            k = (i1 + i2, j1 + j2)
            acc[k] = acc.get(k, 0) + c1 * c2
    return _over(acc, f.den * g.den)
