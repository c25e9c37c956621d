from fractions import Fraction
from math import comb

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
    relabel,
    subdivide_edge,
    validate_spine,
    virtual_dim,
    wallcross,
)
from tropcyl.wallcross import L_MAX
from shear_oracle import fraction_count, fraction_shear, series_product, series_sum
from subset_oracle import subset_count
from test_pipeline import _subdivided

F = Fraction
S = SparseLaurentSeries
DEL_PEZZO = tc.del_pezzo_base()


def _binomial(n: int, k: int) -> int:
    """C(n, k) for integer n (possibly negative), k >= 0, as a product
    quotient; a test-only oracle for the running binomials of the shear."""
    num = 1
    den = 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


def _backward_image(s):
    """The inverse shear x -> x(1+y)^{-1}, y -> y of `s`, summed term by
    term from `backward_count` readings, each read on its own: the term
    c x^{-l} y^b gives c * backward_count(CountQuery(l, -(b + k), k)) at
    x^{-l} y^{b+k}, for k = -2..l+2.  x^0 y^b is fixed and has no count; a
    positive x-power or one past L_MAX is refused by CountQuery with
    InvalidQuery, as the shear refuses it."""
    acc: dict = {}
    for (a, b), c in s.num.items():
        row = {b: 1} if a == 0 else {
            b + k: backward_count(CountQuery(-a, -(b + k), k))
            for k in range(-2, max(-a, 0) + 3)}
        for j, r in row.items():
            acc[(a, j)] = acc.get((a, j), 0) + c * r
    return S(tuple(acc.items()))


def _shear(sign):
    """The engine's shear for `sign`: the series image forwards, the
    `backward_count` readings backwards."""
    return focus_focus_apply if sign == 1 else _backward_image


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
        a = S((((1, 1), 2),))
        b = S((((1, 1), -2),))
        assert series_sum(a, b) == S()

    def test_integer_storage(self):
        # int coefficients summed per power, without zeros
        s = S((((0, 0), 3), ((1, -1), -4), ((2, 2), 0), ((0, 0), 2)))
        assert s.num == {(0, 0): 5, (1, -1): -4}
        assert s.terms == (((0, 0), 5), ((1, -1), -4))
        assert S((((0, 0), 1), ((0, 0), -1))) == S()
        assert S().num == {}
        assert type(s).__slots__ == ("num",)

    @given(st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              st.integers(-5, 5)), max_size=6))
    @settings(max_examples=60)
    def test_terms_are_the_sum_in_fractions(self, pairs):
        want: dict = {}
        for k, c in pairs:
            want[k] = want.get(k, F(0)) + c
        s = S(tuple(pairs))
        assert s.terms == tuple(sorted((k, c) for k, c in want.items() if c))
        assert all(type(c) is int and c for _, c in s.terms)


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
        # the one-coefficient reader keeps the shear's power check
        for a, sign in ((1, -1), (-1, 1), (L_MAX + 1, 1), (-L_MAX - 1, -1)):
            with pytest.raises(InvalidQuery, match=r"^shear needs powers of \(1\+y\) in "):
                wallcross._shear_coefficient(a, 0, sign, 0)

    @pytest.mark.parametrize("sign", [1, -1], ids=["apply", "inverse"])
    def test_monomial_images_match_binomial_oracle(self, sign):
        # x^a y^b -> sum_k C(sign*a, k) x^a y^(b+k), exactly for sign*a >= 0
        shear = _shear(sign)
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
        assert len(focus_focus_apply(S.monomial(L_MAX, 0)).terms) == L_MAX + 1
        assert len(_backward_image(S.monomial(-L_MAX, 0)).terms) == L_MAX + 1
        for a in (L_MAX + 1, 10 ** 5000):
            with pytest.raises(InvalidQuery):
                focus_focus_apply(S.monomial(a, 0))
            with pytest.raises(InvalidQuery):
                _backward_image(S.monomial(-a, 0))

    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(-4, 4)),
            st.integers(-5, 5),
            min_size=1, max_size=4),
        terms2=st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(-4, 4)),
            st.integers(-5, 5),
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
    exception type each raised; every engine coefficient is an int.
    Backwards the engine's image is `_backward_image`."""
    shear = _shear(sign)
    out = []
    for f in (lambda: shear(s), lambda: fraction_shear(s, sign)):
        try:
            out.append(f())
        except InvalidQuery:
            out.append(InvalidQuery)
    if out[0] is not InvalidQuery:
        assert all(type(c) is int for _, c in out[0].terms)
    return out


class TestIntegerShear:
    """The shear fills half of each row with running binomials in ints and
    mirrors the rest, and `backward_count` reads one coefficient of the
    inverse; the reference sums `Fraction`s with `math.comb` over the
    whole row, term by term."""

    def test_monomial_grid_matches_fraction_reference(self):
        for a in range(-6, 7):
            for b in range(-3, 4):
                for c in (1, -1, 3, -5, 11, -2 ** 70):
                    s = S((((a, b), c),))
                    for sign in (1, -1):
                        got, want = _shear_both_ways(s, sign)
                        assert got == want, (a, b, c, sign)

    def test_two_terms_share_outputs(self):
        # the two images overlap in y-degrees, so their coefficients meet,
        # and some cancel to zero
        for a in range(-3, 4):
            for c1 in range(1, 7):
                for c2 in range(1, 7):
                    s = S((((a, 0), c1), ((a, 1), -c2)))
                    for sign in (1, -1):
                        got, want = _shear_both_ways(s, sign)
                        assert got == want, (a, c1, c2, sign)

    @pytest.mark.parametrize("sign", [1, -1], ids=["apply", "inverse"])
    def test_cancelling_series_match_fraction_reference(self, sign):
        # rows of one x-power summed so that the coefficient of y^(b+k)
        # cancels, on both parities of e: k C(e, k) = (e-k+1) C(e, k-1), and
        # the three-term series cancels by construction; the zero is dropped
        b = -3
        for e in (1, 2, 7, 8, 25, 38, 39, 40):
            a = sign * e
            for k in sorted({1, 2, e // 2, (e + 1) // 2, e - 1, e} & set(range(1, e + 1))):
                ck, ck1, ck2 = comb(e, k), comb(e, k - 1), comb(e, k - 2) if k > 1 else 0
                two = S((((a, b), k), ((a, b + 1), -(e - k + 1))))
                three = S((((a, b), -(ck1 + ck2)), ((a, b + 1), ck), ((a, b + 2), ck)))
                for s in (two, three):
                    got, want = _shear_both_ways(s, sign)
                    assert got == want, (e, k, sign, s.terms)
                    assert (a, b + k) not in got.num, (e, k, sign, s.terms)

    @pytest.mark.parametrize("e", [0, 1, L_MAX - 1, L_MAX])
    @pytest.mark.parametrize("sign", [1, -1], ids=["apply", "inverse"])
    def test_row_ends_match_comb(self, e, sign):
        shear = _shear(sign)
        a = sign * e
        got = shear(S((((a, 5), -3),)))
        assert got.num == {(a, 5 + k): -3 * comb(e, k) for k in range(e + 1)}
        assert all(type(c) is int for c in got.num.values())

    @pytest.mark.parametrize("sign", [1, -1], ids=["apply", "inverse"])
    def test_monomial_row_is_its_mirror(self, sign):
        # coefficient(k) == coefficient(e - k), on both parities of e
        shear = _shear(sign)
        for e in (*range(0, 42), 99, 100, L_MAX - 1, L_MAX):
            a = sign * e
            num = shear(S((((a, -2), 7),))).num
            assert len(num) == e + 1, e
            for k in range(e + 1):
                assert num[(a, -2 + k)] == num[(a, -2 + e - k)], (e, k)

    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(-40, 40), st.integers(-6, 6)),
            st.integers(-20, 20),
            max_size=6),
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, terms, sign):
        got, want = _shear_both_ways(S(tuple(terms.items())), sign)
        assert got == want


class TestSeriesInput:
    def test_int_and_fraction_coefficients(self):
        s = S((((1, 0), 2), ((0, -1), -1), ((3, 3), 0)))
        assert s.terms == (((0, -1), -1), ((1, 0), 2))
        assert all(type(c) is int for _, c in s.terms)
        assert S.monomial(2, -1) == S((((2, -1), 1),))
        # the series is over the integers: a Fraction is refused, even 1/1
        for c in (F(1, 2), F(1)):
            with pytest.raises(InvalidArgument,
                               match=r"^series needs \(\(int, int\), int\) terms, got "):
                S((((0, 0), c),))

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
        lambda: S(0.5),
        lambda: S(([(0, 1), 1],)),
        lambda: S((((0, 1), 1, 2),)),
        lambda: S((((0, 1), F(1, 2)),)),
    ], ids=["exp-float", "monomial-float", "exp-str", "exp-bool", "key-triple",
            "key-int", "coeff-nan", "coeff-float", "coeff-str", "coeff-none",
            "coeff-bool", "terms-none", "terms-dict", "terms-float",
            "term-list", "term-triple", "coeff-fraction"])
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
        assert count_table(20, 0, 0)["verified"]
        with pytest.raises(InvalidQuery):
            count_table(21, 1, 1)
        with pytest.raises(InvalidQuery):
            count_table(0, 0, 0)

    @pytest.mark.parametrize("m_min, m_max, message", [
        (-10**22, 10**22, "needs 1 to 100 m values, got 20000000000000000000001"),
        (0, -10**30, "needs --m-min <= --m-max, got 0 > -1" + "0" * 30),
        (0, 100, "needs 1 to 100 m values, got 101"),
        (-50, 50, "needs 1 to 100 m values, got 101"),
        (1, 0, "needs --m-min <= --m-max, got 1 > 0"),
        (5, 4, "needs --m-min <= --m-max, got 5 > 4")],
        ids=["wide", "reversed-wide", "0..100", "-50..50", "1..0", "5..4"])
    def test_m_values_cap(self, m_min, m_max, message):
        from tropcyl.wallcross import count_table
        with pytest.raises(InvalidQuery, match=f"^table {message}$"):
            count_table(3, m_min, m_max)

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


class TestOneCoefficient:
    """`count` and `backward_count` each read one coefficient off the
    running product, stopped at min(n, l - n), against the whole rows of
    `fraction_shear`, the subset enumeration and `math.comb`."""

    def test_grid_matches_fraction_shear_and_subsets(self):
        for l in range(1, 21):
            for m in range(-3, 4):
                for n in range(-2, l + 3):
                    q = CountQuery(l, m, n)
                    want = subset_count(l, n)
                    assert count(q) == fraction_count(l, m, n, 1) == want, q
                    assert backward_count(q) == fraction_count(l, m, n, -1) == want, q

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, L_MAX // 2 - 1, L_MAX // 2,
                                   L_MAX // 2 + 1, *range(L_MAX - 3, L_MAX + 2)])
    def test_at_the_power_cap(self, n):
        q = CountQuery(L_MAX, 7, n)
        want = comb(L_MAX, n) if 0 <= n <= L_MAX else 0
        assert count(q) == want
        assert backward_count(q) == want

    @given(l=st.integers(1, L_MAX), m=st.integers(-10 ** 6, 10 ** 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_comb(self, l, m, data):
        n = data.draw(st.integers(-2, l + 2))
        want = comb(l, n) if 0 <= n <= l else 0
        q = CountQuery(l, m, n)
        assert count(q) == want
        assert backward_count(q) == want


class TestCountedWork:
    """Steps of the one running binomial, `wallcross._binomials`, counted
    through a spy, not timed: a count takes min(n, l - n) steps and builds
    no series, and each row of the shear takes e // 2."""

    @pytest.fixture
    def steps(self, monkeypatch):
        taken = []
        binomials = wallcross._binomials

        def counted(v, e, stop):
            row = binomials(v, e, stop)
            taken.append((e, len(row) - 1))
            return row

        monkeypatch.setattr(wallcross, "_binomials", counted)
        return taken

    @pytest.mark.parametrize("l", [250, 500, 1000])
    def test_a_count_stops_at_the_nearer_end(self, steps, l):
        for n in (-2, 0, 1, 3, l // 2 - 1, l // 2, l - 3, l, l + 1):
            for read in (count, backward_count):
                steps.clear()
                read(CountQuery(l, -1, n))
                assert steps == [(l, max(0, min(n, l - n)))], (read.__name__, l, n)

    def test_each_shear_row_takes_half_its_power(self, steps):
        focus_focus_apply(S((((7, 0), 1), ((8, 1), -2), ((0, 3), 5), ((L_MAX, -1), 3))))
        assert sorted(steps) == [(0, 0), (7, 3), (8, 4), (L_MAX, L_MAX // 2)]

    def test_a_count_builds_no_series(self, monkeypatch):
        built = []
        init = S.__init__

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(S, "__init__", counted_init)
        monkeypatch.setattr(wallcross, "_new_series",
                            lambda cls: built.append(cls) or object.__new__(cls))
        for q in (CountQuery(5, 3, 2), CountQuery(L_MAX, 0, L_MAX // 2), CountQuery(4, 0, 9)):
            count(q)
            backward_count(q)
        assert built == []
        # the spies see the series a shear builds: its argument and its image
        focus_focus_apply(S.monomial(3, 0))
        assert len(built) == 2


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
        # two bends in cone 0: neither inner vertex can be erased
        h = 14
        spine = tc.make_tree(
            [tc.Vertex("e1", del_pezzo.point(0, 2 + F(1, h), 2 + F(3, h))),
             tc.Vertex("c1", del_pezzo.point(0, 2, 2)),
             tc.Vertex("c2", del_pezzo.point(0, 3, 1)),
             tc.Vertex("e2", del_pezzo.point(0, 3 + F(7, h), 1 + F(1, h)))],
            [tc.make_edge("c1", "e1", 0, (1, 3), F(1, h)),
             tc.make_edge("c1", "c2", 0, (1, -1), 1),
             tc.make_edge("c2", "e2", 0, (7, 1), F(1, h))],
            ("e1", "e2"),
        )
        assert validate_spine(del_pezzo, spine) == []
        with pytest.raises(NotInFamily, match="^normal form has exactly three vertices$"):
            count_spine(del_pezzo, spine)

    def test_subdivided_family_spine_counts(self, del_pezzo):
        # a subdivision has the family spine's image, and so its count; both
        # used to raise NotInFamily: normal form has exactly three vertices
        s = tc.family_spine(2, 0, 1, 1)
        assert count_spine(del_pezzo, subdivide_edge(del_pezzo, s, ("v0", "v2"), F(1, 2))) == 2
        s = tc.family_spine(4, -1, 2, 1)
        s5 = subdivide_edge(del_pezzo, s, ("v0", "v1"), F(1, 2))
        assert validate_spine(del_pezzo, s5) == []
        assert tc.canonical_image(s5) == tc.canonical_image(s)
        assert count_spine(del_pezzo, s5) == count_spine(del_pezzo, s) == 6

    @given(l=st.integers(1, 6), m=st.integers(-4, 4), data=st.data(),
           b=st.fractions(F(1, 9), 3, max_denominator=9).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_count_does_not_depend_on_the_subdivision(self, l, m, b, data):
        n = data.draw(st.integers(0, l))
        spine = tc.family_spine(l, m, n, b)
        for _ in range(data.draw(st.integers(1, 3))):
            spine = _subdivided(data.draw, DEL_PEZZO, spine)
        ids = [v.id for v in spine.vertices]
        spine = relabel(spine, dict(zip(ids, data.draw(st.permutations(ids)))))
        assert count_spine(DEL_PEZZO, spine) == count(CountQuery(l, m, n))

    @pytest.mark.parametrize("arms", [((-1, 0), (1, 0)), ((1, 0), (0, 1))],
                             ids=["straight", "bent"])
    def test_subdivided_off_wall_spine_keeps_its_message(self, del_pezzo, arms):
        # a centre at (1, 1) in cone 0, off the wall-1 ray, with or without a
        # bend; a subdivision is refused as the spine it subdivides
        vertices = [tc.Vertex("c", del_pezzo.point(0, 1, 1))]
        edges = []
        for name, (u, v) in zip("ab", arms):
            vertices.append(tc.Vertex(name, del_pezzo.point(0, 1 + F(u, 2), 1 + F(v, 2))))
            edges.append(tc.make_edge("c", name, 0, (u, v), F(1, 2)))
        spine = tc.make_tree(vertices, edges, ("a", "b"))
        e = spine.edges[0]
        sub = subdivide_edge(del_pezzo, spine, (e.tail, e.head), F(1, 3))
        for tree in (spine, sub):
            assert validate_spine(del_pezzo, tree) == []
            with pytest.raises(NotInFamily,
                               match="^central vertex must sit on the positive wall-1 ray$"):
                count_spine(del_pezzo, tree)

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
    lambda: backward_count((5, 0, 2)),
    lambda: count(None),
    lambda: count((5, 0, 2)),
    lambda: backward_count(None),
    lambda: count_spine(None, tc.family_spine(2, 0, 1, 1)),
    lambda: count_spine(tc.del_pezzo_base().pair, tc.family_spine(2, 0, 1, 1)),
    lambda: count_spine(tc.del_pezzo_base(), None),
    lambda: count_spine(tc.del_pezzo_base(), tc.canonical_image(tc.family_spine(2, 0, 1, 1))),
], ids=["apply-None", "apply-dict", "backward-tuple", "count-None", "count-tuple",
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
