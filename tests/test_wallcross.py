from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl import (
    CountQuery,
    InvalidArgument,
    InvalidQuery,
    NotInFamily,
    SparseLaurentSeries,
    UnsupportedBase,
    backward_count,
    count,
    count_spine,
    focus_focus_apply,
    focus_focus_inverse,
    series_add,
    series_mul,
    symmetry_check,
    virtual_dim,
)
from shear_oracle import fraction_shear
from subset_oracle import subset_count

F = Fraction
S = SparseLaurentSeries


def _binomial(n: int, k: int) -> int:
    """C(n, k) for integer n (possibly negative), k >= 0, as a product
    quotient; a test-only oracle for the running binomials of the shear."""
    num = 1
    den = 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


class TestSeries:
    def test_monomial_product(self):
        x = S.monomial(1, 0)
        y = S.monomial(0, 1)
        assert series_mul(x, y) == S.monomial(1, 1)

    def test_difference_of_squares(self):
        one_plus = S.from_dict({(0, 0): 1, (0, 1): 1})
        one_minus = S.from_dict({(0, 0): 1, (0, 1): -1})
        assert series_mul(one_plus, one_minus) == S.from_dict({(0, 0): 1, (0, 2): -1})

    def test_truncation_drops_high_orders(self):
        one_plus = S.from_dict({(0, 0): 1, (0, 1): 1}, trunc=1)
        sq = series_mul(one_plus, one_plus)
        assert sq.as_dict() == {(0, 0): 1, (0, 1): 2}
        assert sq.trunc == 1

    def test_truncation_propagates_min(self):
        a = S.monomial(0, 0, trunc=5)
        b = S.monomial(0, 0, trunc=3)
        assert series_add(a, b).trunc == 3
        assert series_mul(a, S.monomial(0, 0)).trunc == 5

    def test_zero_coefficients_dropped(self):
        a = S.from_dict({(1, 1): F(2, 3)})
        b = S.from_dict({(1, 1): F(-2, 3)})
        assert series_add(a, b) == S.from_dict({})

    def test_exact_rationals(self):
        a = S.from_dict({(0, 0): F(1, 3)})
        assert series_mul(a, a).coefficient(0, 0) == F(1, 9)


class TestFocusFocus:
    def test_x_squared(self):
        got = focus_focus_apply(S.monomial(2, 0))
        assert got == S.from_dict({(2, 0): 1, (2, 1): 2, (2, 2): 1})

    def test_y_fixed(self):
        assert focus_focus_apply(S.monomial(0, 1)) == S.monomial(0, 1)

    def test_negative_power_geometric(self):
        got = focus_focus_apply(S.monomial(-1, 0), 2)
        assert got == S.from_dict({(-1, 0): 1, (-1, 1): -1, (-1, 2): 1}, trunc=2)

    def test_negative_power_needs_truncation(self):
        with pytest.raises(InvalidQuery):
            focus_focus_apply(S.monomial(-1, 0))

    def test_inverse_composition_on_monomials(self):
        trunc = 12
        for a in range(-6, 7):
            for b in range(-6, 7):
                mono = S.monomial(a, b)
                roundtrip = focus_focus_inverse(focus_focus_apply(mono, trunc), trunc)
                for (i, j), c in roundtrip.terms:
                    if (i, j) == (a, b):
                        assert c == 1
                    else:
                        assert c == 0, ((a, b), (i, j), c)

    @pytest.mark.parametrize("sign", [1, -1], ids=["apply", "inverse"])
    def test_monomial_images_match_binomial_oracle(self, sign):
        # x^a y^b -> sum_k C(sign*a, k) x^a y^(b+k), up to y-order trunc;
        # a < 0 (for apply) is the series branch that count never takes
        trunc = 30
        shear = focus_focus_apply if sign == 1 else focus_focus_inverse
        for a in range(-25, 26):
            e = sign * a
            for b in (-3, 0, 2):
                kmax = trunc - b if e < 0 else min(e, trunc - b)
                expected = {(a, b + k): _binomial(e, k) for k in range(kmax + 1)}
                got = shear(S.monomial(a, b), trunc)
                assert got == S.from_dict(expected, trunc), (sign, a, b)

    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            st.fractions(min_value=-5, max_value=5),
            min_size=1, max_size=4),
        terms2=st.dictionaries(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            st.fractions(min_value=-5, max_value=5),
            min_size=1, max_size=4),
    )
    @settings(max_examples=40)
    def test_ring_morphism(self, terms, terms2):
        # negative y-exponents shift the reliable order down, so compare the
        # two routes only up to the order both compute exactly
        trunc = 16
        safe = trunc - 8  # exponents are bounded below by -4 on each side
        f = S.from_dict(terms, trunc)
        g = S.from_dict(terms2, trunc)
        lhs = focus_focus_apply(series_mul(f, g), trunc)
        rhs = series_mul(focus_focus_apply(f, trunc), focus_focus_apply(g, trunc))
        assert S.from_dict(lhs.as_dict(), safe) == S.from_dict(rhs.as_dict(), safe)


def _shear_both_ways(s, sign, trunc):
    """The engine's image of `s` and the `Fraction` reference's, or the
    exception type each raised; every engine coefficient is a `Fraction`."""
    shear = focus_focus_apply if sign == 1 else focus_focus_inverse
    out = []
    for f in (lambda: shear(s, trunc), lambda: fraction_shear(s, sign, trunc)):
        try:
            out.append(f())
        except InvalidQuery:
            out.append(InvalidQuery)
    if out[0] is not InvalidQuery:
        assert all(type(c) is F for _, c in out[0].terms)
    return out


class TestIntegerShear:
    """The shear sums integer numerators over the lcm of the denominators;
    the reference sums `Fraction`s term by term."""

    def test_monomial_grid_matches_fraction_reference(self):
        for a in range(-6, 7):
            for b in range(-3, 4):
                for q in range(1, 7):
                    for coeff_sign in (1, -1):
                        # numerator 2q - 1 is prime to q, and not 1 once q > 1
                        s = S.monomial(a, b, F(coeff_sign * (2 * q - 1), q))
                        for trunc in (None, *range(9)):
                            for sign in (1, -1):
                                got, want = _shear_both_ways(s, sign, trunc)
                                assert got == want, (a, b, q, coeff_sign, trunc, sign)

    def test_two_denominators_share_outputs(self):
        # the two images overlap in y-degrees, so coefficients over
        # different denominators meet, and some cancel to zero
        for a in range(-3, 4):
            for q1 in range(1, 7):
                for q2 in range(1, 7):
                    s = S.from_dict({(a, 0): F(1, q1), (a, 1): F(-1, q2)})
                    for trunc in (None, 4):
                        for sign in (1, -1):
                            got, want = _shear_both_ways(s, sign, trunc)
                            assert got == want, (a, q1, q2, trunc, sign)

    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(-12, 12), st.integers(-6, 6)),
            st.fractions(min_value=-20, max_value=20, max_denominator=30),
            max_size=6),
        own_trunc=st.none() | st.integers(-4, 14),
        trunc=st.none() | st.integers(-4, 14),
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, terms, own_trunc, trunc, sign):
        s = S.from_dict(terms, own_trunc)
        got, want = _shear_both_ways(s, sign, trunc)
        assert got == want


class TestSeriesInput:
    def test_int_and_fraction_coefficients(self):
        s = S.from_dict({(1, 0): 2, (0, -1): F(1, 2), (3, 3): 0})
        assert s.terms == (((0, -1), F(1, 2)), ((1, 0), F(2)))
        assert all(type(c) is F for _, c in s.terms)
        assert S.monomial(2, -1, 3, trunc=4) == S.from_dict({(2, -1): 3}, 4)

    @pytest.mark.parametrize("build", [
        lambda: S.from_dict({(0.5, 1): 1}),
        lambda: S.monomial(1.5, 0),
        lambda: S.from_dict({("0", 1): 1}),
        lambda: S.from_dict({(True, 1): 1}),
        lambda: S.from_dict({(0, 1, 2): 1}),
        lambda: S.from_dict({0: 1}),
        lambda: S.from_dict({(0, 1): float("nan")}),
        lambda: S.from_dict({(0, 1): 0.5}),
        lambda: S.from_dict({(0, 1): "1"}),
        lambda: S.monomial(0, 0, None),
        lambda: S.monomial(0, 0, True),
        lambda: S.from_dict({(0, 1): 1}, trunc=2.0),
        lambda: S.monomial(0, 0, trunc="3"),
        lambda: S.from_dict([((0, 1), 1)]),
    ], ids=["exp-float", "monomial-float", "exp-str", "exp-bool", "key-triple",
            "key-int", "coeff-nan", "coeff-float", "coeff-str", "coeff-none",
            "coeff-bool", "trunc-float", "trunc-str", "not-a-dict"])
    def test_non_exact_input_rejected(self, build):
        # float exponents used to be floored; strings and NaN raised ValueError
        with pytest.raises(InvalidArgument):
            build()


class TestCounts:
    def test_values(self):
        assert count(CountQuery(1, 0, 0)) == 1
        assert count(CountQuery(5, 3, 2)) == 10
        assert count(CountQuery(4, 0, 5)) == 0
        assert count(CountQuery(3, -4, -1)) == 0

    def test_l_must_be_positive(self):
        with pytest.raises(InvalidQuery):
            count(CountQuery(0, 0, 0))

    @pytest.mark.parametrize("fields", [
        (5, 1.5, 2), ("5", 1, 2), (True, 1, 2), (5, 1, None), (5, 1, False),
        (F(5), 1, 2)])
    def test_fields_must_be_ints(self, fields):
        # (5, 1.5, 2) used to count 0; ("5", 1, 2) raised a bare TypeError
        with pytest.raises(InvalidQuery):
            CountQuery(*fields)

    def test_oracle_caps(self):
        # the oracle-checked table stops at ORACLE_L_MAX = 20, as before
        from tropcyl.wallcross import ORACLE_L_MAX, count_table
        assert ORACLE_L_MAX == 20
        assert count_table(20, [0])["verified"]
        with pytest.raises(InvalidQuery):
            count_table(21, [1])
        with pytest.raises(InvalidQuery):
            count_table(0, [0])

    def test_oracle_values(self):
        assert subset_count(2, 1) == 2
        assert subset_count(7, 0) == 1
        assert subset_count(6, 3) == 20
        assert subset_count(5, 9) == 0
        assert subset_count(5, -1) == 0

    def test_engine_matches_oracle_sample(self):
        for l in range(1, 9):
            for m in (-3, 0, 2):
                for n in range(0, l + 1):
                    assert count(CountQuery(l, m, n)) == subset_count(l, n)

    def test_pascal_recurrence(self):
        for l in range(2, 9):
            for n in range(1, l):
                assert count(CountQuery(l, 1, n)) == \
                    count(CountQuery(l - 1, 1, n)) + count(CountQuery(l - 1, 1, n - 1))

    def test_row_sums(self):
        for l in range(1, 9):
            assert sum(count(CountQuery(l, -2, n)) for n in range(l + 1)) == 2 ** l


class TestSymmetry:
    def test_examples(self):
        assert symmetry_check(CountQuery(1, 0, 1))
        assert symmetry_check(CountQuery(5, 3, 2))
        assert symmetry_check(CountQuery(3, -2, 0))

    def test_small_grid(self):
        for l in range(1, 7):
            for m in (-2, 0, 3):
                for n in range(0, l + 1):
                    assert symmetry_check(CountQuery(l, m, n))

    def test_backward_count_is_the_binomial(self):
        for l in range(1, 9):
            for m in (-2, 0, 3):
                for n in range(-1, l + 2):
                    assert backward_count(CountQuery(l, m, n)) == \
                        subset_count(l, n), (l, m, n)


class TestCountSpine:
    def test_family_counts(self, del_pezzo):
        assert count_spine(del_pezzo, tc.family_spine(2, 0, 1, 1)) == 2
        assert count_spine(del_pezzo, tc.family_spine(2, 0, 1, F(7, 3))) == 2
        assert count_spine(del_pezzo, tc.family_spine(4, -1, 2, F(1, 2))) == 6

    def test_wrong_base(self, square):
        with pytest.raises(UnsupportedBase):
            count_spine(square, tc.family_spine(2, 0, 1, 1))

    def test_four_vertex_spine_rejected(self, del_pezzo):
        s = tc.family_spine(2, 0, 1, 1)
        s4 = tc.subdivide_edge(del_pezzo, s, ("v0", "v2"), F(1, 2))
        with pytest.raises(NotInFamily):
            count_spine(del_pezzo, s4)

    def test_off_wall_center_rejected(self, del_pezzo):
        spine = tc.make_tree(
            [tc.Vertex("a", del_pezzo.point(0, 1, 2)),
             tc.Vertex("c", del_pezzo.point(0, 2, 2)),
             tc.Vertex("b", del_pezzo.point(0, 2, 3))],
            [tc.make_edge("c", "a", 0, (-1, 0), 1),
             tc.make_edge("c", "b", 0, (0, 1), 1)],
            ("a", "b"),
        )
        with pytest.raises(NotInFamily):
            count_spine(del_pezzo, spine)


class TestVirtualDim:
    def test_values(self):
        assert virtual_dim(0, 3, -2, 3) == 5
        assert virtual_dim(1, 3, 0, 0) == 0
        assert virtual_dim(0, 2, -3, 0) == 2

    def test_affine_in_n(self):
        for n in range(11):
            assert virtual_dim(0, 3, -2, n) == n + 2
