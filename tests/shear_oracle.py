"""Test-only reference for the focus-focus shear: the substitution
x -> x(1+y)^power_sign, y -> y summed term by term in `Fraction`s, as the
engine did before it moved to integer numerators over a common
denominator."""

from fractions import Fraction

from tropcyl import InvalidQuery, SparseLaurentSeries


def fraction_shear(s: SparseLaurentSeries, power_sign: int,
                   trunc: int | None) -> SparseLaurentSeries:
    """The image of `s`, truncated at the tighter of `s.trunc` and `trunc`."""
    eff = trunc if s.trunc is None else s.trunc if trunc is None else min(s.trunc, trunc)
    acc: dict[tuple[int, int], Fraction] = {}
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
        binom = 1  # C(e, k); C(e, k+1) = C(e, k)(e-k)/(k+1) exactly, any e
        for k in range(0, kmax + 1):
            key = (a, b + k)
            acc[key] = acc.get(key, Fraction(0)) + c * binom
            binom = binom * (e - k) // (k + 1)
    return SparseLaurentSeries.from_dict(acc, eff)
