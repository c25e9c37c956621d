import sys
from fractions import Fraction
from math import gcd

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
    virtual_dim,
)
from tropcyl.wallcross import focus_focus_inverse
from shear_oracle import fraction_shear, series_product, series_sum
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
    """The constructor, and the sum and product of `shear_oracle` that
    `test_ring_morphism` checks the shear against."""

    def test_monomial_product(self):
        x = S.monomial(1, 0)
        y = S.monomial(0, 1)
        assert series_product(x, y) == S.monomial(1, 1)

    def test_difference_of_squares(self):
        one_plus = S((((0, 0), 1), ((0, 1), 1)))
        one_minus = S((((0, 0), 1), ((0, 1), -1)))
        assert series_product(one_plus, one_minus) == S((((0, 0), 1), ((0, 2), -1)))

    def test_zero_coefficients_dropped(self):
        a = S((((1, 1), F(2, 3)),))
        b = S((((1, 1), F(-2, 3)),))
        assert series_sum(a, b) == S()

    def test_exact_rationals(self):
        a = S((((0, 0), F(1, 3)),))
        assert dict(series_product(a, a).terms) == {(0, 0): F(1, 9)}

    def test_integer_storage(self):
        # numerators over one denominator, reduced, without zeros
        s = S((((0, 0), F(1, 2)), ((1, -1), F(-2, 3)), ((2, 2), 0)))
        assert (s.num, s.den) == ({(0, 0): 3, (1, -1): -4}, 6)
        half = S((((0, 0), F(1, 2)),))
        twice = series_sum(half, half)
        assert (twice.num, twice.den) == ({(0, 0): 1}, 1)
        assert S((((0, 0), F(1, 2)), ((0, 0), F(1, 2)))) == S.monomial(0, 0)
        assert (S().num, S().den) == ({}, 1)
        assert dict(s.terms) == {(0, 0): F(1, 2), (1, -1): F(-2, 3)}

    @given(st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              st.fractions(-5, 5, max_denominator=12)), max_size=6))
    @settings(max_examples=60)
    def test_terms_are_the_sum_in_fractions(self, pairs):
        want: dict = {}
        for k, c in pairs:
            want[k] = want.get(k, F(0)) + c
        s = S(tuple(pairs))
        assert s.terms == tuple(sorted((k, c) for k, c in want.items() if c))
        assert s.den > 0 and gcd(s.den, *s.num.values()) == 1 and all(s.num.values())


class TestFocusFocus:
    def test_x_squared(self):
        got = focus_focus_apply(S.monomial(2, 0))
        assert got == S((((2, 0), 1), ((2, 1), 2), ((2, 2), 1)))

    def test_y_fixed(self):
        assert focus_focus_apply(S.monomial(0, 1)) == S.monomial(0, 1)

    def test_negative_power_needs_truncation(self):
        # a negative power of (1+y) has no polynomial image, either way
        with pytest.raises(InvalidQuery):
            focus_focus_apply(S.monomial(-1, 0))
        with pytest.raises(InvalidQuery):
            focus_focus_inverse(S.monomial(1, 0))

    @pytest.mark.parametrize("sign", [1, -1], ids=["apply", "inverse"])
    def test_monomial_images_match_binomial_oracle(self, sign):
        # x^a y^b -> sum_k C(sign*a, k) x^a y^(b+k), exactly for sign*a >= 0
        shear = focus_focus_apply if sign == 1 else focus_focus_inverse
        for a in range(-25, 26):
            e = sign * a
            for b in (-3, 0, 2):
                if e < 0:
                    with pytest.raises(InvalidQuery):
                        shear(S.monomial(a, b))
                    continue
                expected = {(a, b + k): _binomial(e, k) for k in range(e + 1)}
                assert shear(S.monomial(a, b)) == S(tuple(expected.items())), (sign, a, b)

    def test_power_cap(self):
        from tropcyl.wallcross import L_MAX
        assert len(focus_focus_apply(S.monomial(L_MAX, 0)).terms) == L_MAX + 1
        assert len(focus_focus_inverse(S.monomial(-L_MAX, 0)).terms) == L_MAX + 1
        for a in (L_MAX + 1, 10 ** 5000):
            with pytest.raises(InvalidQuery):
                focus_focus_apply(S.monomial(a, 0))
            with pytest.raises(InvalidQuery):
                focus_focus_inverse(S.monomial(-a, 0))

    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(-4, 4)),
            st.fractions(min_value=-5, max_value=5),
            min_size=1, max_size=4),
        terms2=st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(-4, 4)),
            st.fractions(min_value=-5, max_value=5),
            min_size=1, max_size=4),
    )
    @settings(max_examples=40)
    def test_ring_morphism(self, terms, terms2):
        # the shear is a substitution: it respects sums and products exactly
        f = S(tuple(terms.items()))
        g = S(tuple(terms2.items()))
        assert focus_focus_apply(series_product(f, g)) == \
            series_product(focus_focus_apply(f), focus_focus_apply(g))
        assert focus_focus_apply(series_sum(f, g)) == \
            series_sum(focus_focus_apply(f), focus_focus_apply(g))


def _shear_both_ways(s, sign):
    """The engine's image of `s` and the `Fraction` reference's, or the
    exception type each raised; every engine coefficient is a `Fraction`."""
    shear = focus_focus_apply if sign == 1 else focus_focus_inverse
    out = []
    for f in (lambda: shear(s), lambda: fraction_shear(s, sign)):
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
                        s = S((((a, b), F(coeff_sign * (2 * q - 1), q)),))
                        for sign in (1, -1):
                            got, want = _shear_both_ways(s, sign)
                            assert got == want, (a, b, q, coeff_sign, sign)

    def test_two_denominators_share_outputs(self):
        # the two images overlap in y-degrees, so coefficients over
        # different denominators meet, and some cancel to zero
        for a in range(-3, 4):
            for q1 in range(1, 7):
                for q2 in range(1, 7):
                    s = S((((a, 0), F(1, q1)), ((a, 1), F(-1, q2))))
                    for sign in (1, -1):
                        got, want = _shear_both_ways(s, sign)
                        assert got == want, (a, q1, q2, sign)

    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(-12, 12), st.integers(-6, 6)),
            st.fractions(min_value=-20, max_value=20, max_denominator=30),
            max_size=6),
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, terms, sign):
        got, want = _shear_both_ways(S(tuple(terms.items())), sign)
        assert got == want


class TestSeriesInput:
    def test_int_and_fraction_coefficients(self):
        s = S((((1, 0), 2), ((0, -1), F(1, 2)), ((3, 3), 0)))
        assert s.terms == (((0, -1), F(1, 2)), ((1, 0), F(2)))
        assert all(type(c) is F for _, c in s.terms)
        assert S.monomial(2, -1) == S((((2, -1), 1),))

    @pytest.mark.parametrize("build", [
        lambda: S((((0.5, 1), 1),)),
        lambda: S.monomial(1.5, 0),
        lambda: S(((("0", 1), 1),)),
        lambda: S((((True, 1), 1),)),
        lambda: S((((0, 1, 2), 1),)),
        lambda: S(((0, 1),)),
        lambda: S((((0, 1), float("nan")),)),
        lambda: S((((0, 1), 0.5),)),
        lambda: S((((0, 1), "1"),)),
        lambda: S((((0, 0), None),)),
        lambda: S((((0, 0), True),)),
        lambda: S(None),
        lambda: S({(0, 1): 1}),
        lambda: S((((0, 1), 0.5),)),
        lambda: S(([(0, 1), 1],)),
        lambda: S((((0, 1), 1, 2),)),
    ], ids=["exp-float", "monomial-float", "exp-str", "exp-bool", "key-triple",
            "key-int", "coeff-nan", "coeff-float", "coeff-str", "coeff-none",
            "coeff-bool", "terms-none", "terms-dict", "terms-float",
            "term-list", "term-triple"])
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

    @pytest.mark.parametrize("m_values, got", [
        (range(-10**22, 10**22), f"more than {sys.maxsize}"),
        (range(0, -10**30, -1), f"more than {sys.maxsize}"),
        (range(101), "101"), ([0] * 101, "101"), ((), "0"), (range(5, 5), "0")])
    def test_m_values_cap(self, m_values, got):
        # len() of a range past sys.maxsize raised a bare OverflowError
        from tropcyl.wallcross import count_table
        with pytest.raises(InvalidQuery, match=f"needs 1 to 100 m values, got {got}$"):
            count_table(3, m_values)

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
        for q in (CountQuery(1, 0, 1), CountQuery(5, 3, 2), CountQuery(3, -2, 0)):
            assert count(q) == backward_count(q), q

    def test_small_grid(self):
        for l in range(1, 7):
            for m in (-2, 0, 3):
                for n in range(0, l + 1):
                    q = CountQuery(l, m, n)
                    assert count(q) == backward_count(q), q

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

    def test_bend_reads_the_binomial_on_the_family_grid(self, del_pezzo):
        # (l, n) read off the bend at the centre, whatever m and the height
        for l in range(1, 6):
            for m in (-3, 0, 2):
                for n in range(0, l + 1):
                    for b in (F(1, 3), 2):
                        assert count_spine(del_pezzo, tc.family_spine(l, m, n, b)) \
                            == subset_count(l, n), (l, m, n, b)

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

    def test_valid_spine_off_the_wall(self, del_pezzo):
        # a straight segment through (1, 1) in cone 0 is a valid spine whose
        # centre is off the wall-1 ray
        spine = tc.make_tree(
            [tc.Vertex("a", del_pezzo.point(0, F(1, 2), 1)),
             tc.Vertex("c", del_pezzo.point(0, 1, 1)),
             tc.Vertex("b", del_pezzo.point(0, F(3, 2), 1))],
            [tc.make_edge("c", "a", 0, (-1, 0), F(1, 2)),
             tc.make_edge("c", "b", 0, (1, 0), F(1, 2))],
            ("a", "b"),
        )
        assert tc.validate_spine(del_pezzo, spine) == []
        with pytest.raises(NotInFamily,
                           match="^central vertex must sit on the positive wall-1 ray$"):
            count_spine(del_pezzo, spine)


@pytest.mark.parametrize("call", [
    lambda: focus_focus_apply(None),
    lambda: focus_focus_apply({(1, 0): 1}),
    lambda: focus_focus_inverse(None),
    lambda: count(None),
    lambda: count((5, 0, 2)),
    lambda: backward_count(None),
    lambda: count_spine(None, tc.family_spine(2, 0, 1, 1)),
    lambda: count_spine(tc.del_pezzo_base().pair, tc.family_spine(2, 0, 1, 1)),
    lambda: count_spine(tc.del_pezzo_base(), None),
    lambda: count_spine(tc.del_pezzo_base(), tc.canonical_image(tc.family_spine(2, 0, 1, 1))),
], ids=["apply-None", "apply-dict", "inverse-None", "count-None", "count-tuple",
        "backward-None", "count_spine-None-base", "count_spine-pair",
        "count_spine-None-spine", "count_spine-image"])
def test_object_of_the_wrong_class_is_invalid_argument(call):
    # each used to end in a bare AttributeError
    with pytest.raises(InvalidArgument):
        call()


class TestVirtualDim:
    def test_values(self):
        assert virtual_dim(0, 3, -2, 3) == 5
        assert virtual_dim(1, 3, 0, 0) == 0
        assert virtual_dim(0, 2, -3, 0) == 2

    def test_affine_in_n(self):
        for n in range(11):
            assert virtual_dim(0, 3, -2, n) == n + 2
