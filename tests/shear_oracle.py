"""Test-only reference for the focus-focus shear: the substitution
x -> x(1+y)^power_sign, y -> y summed term by term in `Fraction`s, as the
engine did before it moved to integer numerators over a common
denominator."""

from fractions import Fraction

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
    return SparseLaurentSeries.from_dict(acc)
