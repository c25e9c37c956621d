from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl import (
    CurveClass,
    InvalidArgument,
    InvalidPair,
    InvalidQuery,
    LooijengaPair,
    ZeroVector,
    build_base,
    fan_closure,
    intersection_matrix,
    is_positive,
    make_edge,
    monodromy,
    verify_toric_criterion,
)
from tropcyl.lattice import L_MAX, ORIGIN, SWEEP_PAIRS_MAX, develop, primitive_part

from spine_oracle import mat_det, mat_mul, matrix_transport, wall_matrix


class TestPair:
    def test_cyclic_indexing(self):
        # the pair is read cyclically where a wall is crossed: walls 5 and
        # -3 are wall 1, whose self-intersection is -1
        p = LooijengaPair((0, -1, 0, 0))
        assert len(p.self_intersections) == 4
        assert p.self_intersections[1] == -1
        base = build_base(p)
        for wall in (1, 5, -3):
            assert base._cross(wall, 0, 1, 0) == (1, 1, -1)

    def test_build_base_counts(self):
        assert build_base(LooijengaPair((0, -1, 0, 0))).l == 4
        assert build_base(LooijengaPair((1, 1, 1))).l == 3

    def test_too_short_rejected(self):
        with pytest.raises(InvalidPair):
            LooijengaPair((0, 0))
        with pytest.raises(InvalidPair):
            LooijengaPair((5,))

    def test_list_accepted(self):
        assert LooijengaPair([0, -1, 0, 0]).self_intersections == (0, -1, 0, 0)

    @pytest.mark.parametrize("entries", [
        (1.5, 0, 0), (True, 0, 0), ("0", 0, 0), (0, None, 0), "000", None, 3,
        iter((0, 0, 0))])
    def test_non_int_entries_rejected(self, entries):
        # used to floor 1.5 to 1, accept True as 1, or raise a bare TypeError
        with pytest.raises(InvalidArgument):
            LooijengaPair(entries)


class TestPoints:
    def test_wall_point_canonical_cone(self, del_pezzo):
        # a point on wall i is stored in cone i with coordinates (a, 0)
        p = del_pezzo.point(0, 0, Fraction(3, 2))
        assert (p.cone, p.a, p.b) == (1, Fraction(3, 2), 0)
        q = del_pezzo.point(1, Fraction(3, 2), 0)
        assert p == q

    def test_wrap_around_wall(self, del_pezzo):
        p = del_pezzo.point(3, 0, 5)
        assert (p.cone, p.a, p.b) == (0, 5, 0)

    def test_origin_unique(self, del_pezzo):
        assert del_pezzo.point(0, 0, 0).cone is None
        assert del_pezzo.point(2, 0, 0) == ORIGIN

    def test_negative_coordinates_rejected(self, del_pezzo):
        with pytest.raises(InvalidArgument) as info:
            del_pezzo.point(0, -1, 2)
        assert isinstance(info.value, ValueError)
        # the sign is read off each numerator, whatever its size
        for a, b in ((2, -1), (0, Fraction(-1, 7)), (Fraction(-3, 2), 0), (1, -5)):
            with pytest.raises(InvalidArgument):
                del_pezzo.point(0, a, b)

    @pytest.mark.parametrize("args", [
        ("x", 1, 1), (None, 1, 1), (True, 1, 1), (1.0, 1, 1), (Fraction(1), 1, 1),
        (0, float("nan"), 1), (0, 0.5, 1), (0, 1, float("inf")), (0, True, 1),
        (0, 1, "1/2"), (0, None, 0), (0, Fraction(1, 2), 0.25),
    ])
    def test_non_exact_arguments_rejected(self, del_pezzo, args):
        # used to raise a bare TypeError or ValueError, or store a float
        with pytest.raises(InvalidArgument):
            del_pezzo.point(*args)

    def test_exact_arguments_become_fractions(self, del_pezzo):
        for cone, a, b in ((0, 1, 2), (-3, Fraction(1, 2), 3), (5, 2, Fraction(0))):
            p = del_pezzo.point(cone, a, b)
            assert type(p.a) is Fraction and type(p.b) is Fraction
            assert p == del_pezzo.point(cone % 4, Fraction(a), Fraction(b))

    def test_length_read_once(self, del_pezzo):
        assert del_pezzo.l == 4
        assert repr(del_pezzo) == (
            "TropicalBase(pair=LooijengaPair(self_intersections=(0, -1, 0, 0)))")
        assert del_pezzo == build_base(LooijengaPair((0, -1, 0, 0)))

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(InvalidArgument):
            CurveClass(((0, -1),))

    def test_curve_class_constructor_stores_the_canonical_form(self):
        # the constructor used to store its pairs as given
        assert CurveClass(((1, 1), (0, 1))) == CurveClass(tuple({0: 1, 1: 1}.items()))
        assert CurveClass(((2, 1), (0, 3), (2, 2), (1, 0))).coeffs == ((0, 3), (2, 3))
        assert CurveClass(((0, 2), (0, -2))) == CurveClass()
        a, b = CurveClass(((0, 1),)), CurveClass(((0, 2),))
        assert CurveClass(a.coeffs + b.coeffs) == CurveClass(((0, 3),))

    @pytest.mark.parametrize("coeffs", [
        None, ((0, -3),), ((0, 1), (0, -2)), ((0, 1.5),), (("a", 1),), ((True, 1),),
        ((0, 1, 2),), ([0, 1],), 5,
    ])
    def test_curve_class_constructor_rejects(self, coeffs):
        with pytest.raises(InvalidArgument):
            CurveClass(coeffs)

    def test_coords_in_cone(self, del_pezzo):
        # a point is read in a cone through its stored integers (A, B, Q)
        p = del_pezzo.point(1, 4, 0)  # on wall 1
        assert del_pezzo._coords(p, 1) == (4, 0, 1)
        assert del_pezzo._coords(p, 0) == (0, 4, 1)
        assert del_pezzo._coords(p, 2) is None
        interior = del_pezzo.point(2, Fraction(1, 2), 1)
        assert del_pezzo._coords(interior, 2) == (1, 2, 2)
        assert del_pezzo._coords(interior, 1) is None


class TestTransport:
    """`TropicalBase._cross`, the one wall map, on ints, against the wall
    matrices of `spine_oracle`, from the two cones of the wall, the only
    cones its callers cross from."""

    def test_wall_direction_fixed(self, del_pezzo):
        # e_i is a basis vector on both sides of wall i
        for i in range(4):
            assert del_pezzo._cross(i, (i - 1) % 4, 0, 1) == (i, 1, 0)

    def test_spec_values(self):
        d_minus_one = build_base(LooijengaPair((-1, -1, -1)))
        assert d_minus_one._cross(1, 0, 1, 0) == (1, 1, -1)
        d_zero = build_base(LooijengaPair((0, 0, 0)))
        assert d_zero._cross(1, 0, 1, 0) == (1, 0, -1)

    def test_determinant_one(self, del_pezzo):
        # the images of the basis vectors of cone i-1 across wall i are the
        # columns of the wall matrix, of determinant 1
        for i in range(4):
            (_, a, c), (_, b, d) = (del_pezzo._cross(i, i - 1, u, v)
                                    for u, v in ((1, 0), (0, 1)))
            assert (a, b, c, d) == wall_matrix(del_pezzo.pair.self_intersections[i])
            assert mat_det((a, b, c, d)) == 1

    @pytest.mark.parametrize("args", [(0, 0.5, 1), (0, 1, 1.0), (0.0, 1, 1), (0, True, 1),
                                      (False, 1, 1), (0, Fraction(1), 1), (0, "1", 1),
                                      (None, 1, 1)])
    def test_vector_needs_int_entries(self, args):
        # a float entry would make a wall crossing return a float vector;
        # the directions `_cross` carries come from edges, and an edge
        # refuses any (cone, u, v) that is not three ints
        cone, u, v = args
        with pytest.raises(InvalidArgument):
            make_edge("a", "b", cone, (u, v), 1)

    def test_transport_of_int_vectors_stays_int(self, del_pezzo):
        assert all(type(x) is int for x in del_pezzo._cross(1, 0, 3, -2))

    def test_home_cone_counts_modulo_l(self, del_pezzo):
        # edge cones count modulo l (`_coords`, `_outgoing`), and so does a
        # vector's home cone: cone c + l crosses like cone c on every wall
        for wall, side in product(range(4), (-1, 0)):
            cone = (wall + side) % 4
            got = del_pezzo._cross(wall, cone, 2, -1)
            assert got[0] == (wall - 1 - side) % 4
            for shift in (4, 8, -4):
                assert del_pezzo._cross(wall, cone + shift, 2, -1) == got

    def test_roundtrip_exhaustive_small(self):
        # across a wall and back is the identity on all small vectors
        base = build_base(LooijengaPair((2, -3, 1, 0, -1)))
        for wall in range(base.l):
            for u in range(-10, 11):
                for v in range(-10, 11):
                    there = base._cross(wall, wall - 1, u, v)
                    assert base._cross(wall, *there) == ((wall - 1) % base.l, u, v)

    @pytest.mark.parametrize("ds", [(0, -1, 0, 0), (-2, -2, -2, -2), (-1, -2, -3)])
    def test_inline_matches_matrix_form(self, ds):
        # on every wall, from both of its cones, walls and cones also read
        # modulo l
        base = build_base(LooijengaPair(ds))
        for wall, side, shift in product(range(-1, base.l + 1), (-1, 0), (-1, 0, 1)):
            cone = wall + side + shift * base.l
            for u, v in product(range(-4, 5), repeat=2):
                assert base._cross(wall, cone, u, v) == matrix_transport(
                    base, wall, cone, u, v), (wall, cone, u, v)

    @given(ds=st.lists(st.integers(-10 ** 60, 10 ** 60), min_size=3, max_size=6),
           wall=st.integers(-10 ** 50, 10 ** 50), cone=st.integers(-10 ** 50, 10 ** 50),
           u=st.integers(-10 ** 80, 10 ** 80), v=st.integers(-10 ** 80, 10 ** 80))
    @settings(max_examples=100, deadline=None)
    def test_long_ints_match_matrix_form(self, ds, wall, cone, u, v):
        # long entries, vectors and indices; the drawn cone is moved to one
        # of the wall's two cones, shifted by a long multiple of l
        base = build_base(LooijengaPair(ds))
        cone = wall - 1 + (cone % 2) + base.l * (cone // 2)
        assert base._cross(wall, cone, u, v) == matrix_transport(base, wall, cone, u, v)

    @given(
        d=st.integers(min_value=-6, max_value=6),
        u1=st.integers(min_value=-50, max_value=50),
        v1=st.integers(min_value=-50, max_value=50),
        u2=st.integers(min_value=-50, max_value=50),
        v2=st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=80)
    def test_wedge_invariant_under_transport(self, d, u1, v1, u2, v2):
        base = build_base(LooijengaPair((d, d, d)))
        before = u1 * v2 - v1 * u2
        _, ua, va = base._cross(1, 0, u1, v1)
        _, ub, vb = base._cross(1, 0, u2, v2)
        assert ua * vb - va * ub == before


class TestWedgeAndNorm:
    def test_zero_vector_rejected(self):
        # the zero vector has no primitive part
        with pytest.raises(ZeroVector):
            primitive_part(0, 0)


IDENTITY = ((1, 0), (0, 1))


class TestMonodromy:
    def test_square_is_identity(self, square):
        assert monodromy(square.pair) == IDENTITY

    def test_projective_plane_is_identity(self, projective_plane):
        assert monodromy(projective_plane.pair) == IDENTITY

    def test_del_pezzo_focus_focus(self, del_pezzo):
        m = monodromy(del_pezzo.pair)
        (a, b), (c, d) = m
        assert m != IDENTITY
        assert a + d == 2
        assert mat_det((a, b, c, d)) == 1
        assert m == ((1, 0), (1, 1))

    def test_huge_entries_exact(self):
        # Python ints never overflow: compare with the hand recurrence
        big = 2**40
        m = monodromy(LooijengaPair((big, 0, 0)))
        (a, b), (c, d) = m
        assert (a, b, c, d) == _oracle_monodromy((big, 0, 0))
        assert m == ((big, -1), (1, 0))

    def test_takes_a_pair_or_a_sequence(self, del_pezzo):
        expected = monodromy(del_pezzo.pair)
        assert monodromy((0, -1, 0, 0)) == expected
        assert monodromy([0, -1, 0, 0]) == expected
        assert all(type(x) is int for row in expected for x in row)

    @pytest.mark.parametrize("arg", [None, 3, "0,-1,0,0", (0, 0.5, 0), {0: 1}])
    def test_other_arguments_rejected(self, arg):
        with pytest.raises(InvalidArgument):
            monodromy(arg)

    def test_matches_explicit_product(self, del_pezzo):
        # independent recomputation: multiply the four factors directly
        mats = [wall_matrix(d) for d in del_pezzo.pair.self_intersections]
        a, b, c, d = mat_mul(mat_mul(mats[0], mats[3]), mat_mul(mats[2], mats[1]))
        assert monodromy(del_pezzo.pair) == ((a, b), (c, d))


def _winding_number(vectors) -> int:
    """How many times a cyclic ray sequence turns counterclockwise, for
    consecutive rays with det = 1, as `fan_closure` returns them: each
    step turns by less than a half turn, so count the steps that reach
    or pass the direction (1, 0)."""
    vs = list(vectors)
    turns = 0
    for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
        if (by == 0 and bx > 0) or (ay < 0 and by > 0):
            turns += 1
    return turns


class TestFanClosure:
    def test_square(self):
        assert fan_closure((0, 0, 0, 0)) == [(1, 0), (0, 1), (-1, 0), (0, -1)]

    def test_projective_plane(self):
        assert fan_closure((1, 1, 1)) == [(1, 0), (0, 1), (-1, -1)]

    def test_del_pezzo_open(self):
        assert fan_closure((0, -1, 0, 0)) is None

    def test_hirzebruch(self):
        vs = fan_closure((0, 1, 0, -1))
        assert vs is not None
        assert _winding_number(vs) == 1

    def test_windings(self):
        assert _winding_number(fan_closure((0, 0, 0, 0))) == 1
        # a frame that closes after two turns is still reported as closed,
        # matching trivial monodromy
        doubled = fan_closure((1, 1, 1, 1, 1, 1))
        assert doubled is not None
        assert _winding_number(doubled) == 2
        assert monodromy(LooijengaPair((1, 1, 1, 1, 1, 1))) == IDENTITY

    def test_matches_monodromy_on_sample(self):
        for ds in product(range(-2, 3), repeat=4):
            closed = fan_closure(ds) is not None
            trivial = monodromy(LooijengaPair(ds)) == IDENTITY
            assert closed == trivial, ds


class TestDevelop:
    def test_del_pezzo_walls(self):
        # the wedges of the four-cone base, cones 3, 0, 1, 2
        assert develop((0, -1, 0, 0), -1, 3) == [
            (0, -1), (1, 0), (0, 1), (-1, 1), (0, -1)]

    def test_toric_walls_repeat(self):
        # trivial monodromy: the walls repeat with period l both ways
        assert develop((1, 1, 1), -3, 4) == [
            (1, 0), (0, 1), (-1, -1), (1, 0), (0, 1), (-1, -1), (1, 0), (0, 1)]

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_frame_and_recurrence_on_grid(self, l):
        # walls -l-1..l+1: 2l+2 consecutive pairs, 2l+1 inner walls k = -l..l
        ones, zeros = [1] * (2 * l + 2), [(0, 0)] * (2 * l + 1)
        for ds in product(range(-3, 2), repeat=l):
            walls = develop(ds, -l - 1, l + 1)
            assert walls[l + 1:l + 3] == [(1, 0), (0, 1)], ds
            assert [x0 * y1 - y0 * x1 for (x0, y0), (x1, y1)
                    in zip(walls, walls[1:])] == ones, ds
            # v_{k-1} + d_k v_k + v_{k+1} = 0 on both sides of walls 0, 1;
            # d_k = ds[k % l] is (ds * 3)[k + l]
            assert [(x0 + d * x1 + x2, y0 + d * y1 + y2)
                    for d, (x0, y0), (x1, y1), (x2, y2)
                    in zip(ds * 3, walls, walls[1:], walls[2:])] == zeros, ds

    def test_sub_windows_agree(self):
        ds = (-2, -1, -3, -4, -4)
        walls = develop(ds, -9, 9)
        for lo in range(-9, 10):
            for hi in range(lo, 10):
                assert develop(ds, lo, hi) == walls[lo + 9:hi + 10]
        with pytest.raises(InvalidArgument):
            develop(ds, 1, -1)


def _oracle_monodromy(ds):
    """Wall transports multiplied one pair at a time, in crossing order."""
    l = len(ds)
    a, b, c, d = 1, 0, 0, 1
    for k in range(1, l + 1):
        dk = ds[k % l]
        a, b, c, d = -dk * a + c, -dk * b + d, -a, -b
    return a, b, c, d


def _oracle_closes(ds):
    """Whether the frame recurrence returns to ((1,0), (0,1)) after l steps."""
    l = len(ds)
    vs = [(1, 0), (0, 1)]
    for i in range(1, l + 1):
        (x0, y0), (x1, y1) = vs[i - 1], vs[i]
        di = ds[i % l]
        vs.append((-x0 - di * x1, -y0 - di * y1))
    return vs[l] == (1, 0) and vs[l + 1] == (0, 1)


def _oracle_sweep(l, lo, hi):
    """Every sequence rebuilt from scratch: the sweep with no shared prefixes."""
    pairs = closures = mismatches = 0
    for ds in product(range(lo, hi + 1), repeat=l):
        pairs += 1
        trivial = _oracle_monodromy(ds) == (1, 0, 0, 1)
        closed = _oracle_closes(ds)
        closures += closed
        mismatches += trivial != closed
    return pairs, closures, mismatches


class TestToricSweep:
    @pytest.mark.parametrize("lo, hi", [(-3, 3), (-4, 2), (-1, 3), (-2, 1), (0, 0)])
    @pytest.mark.parametrize("l", [3, 4, 5])
    def test_matches_oracle(self, l, lo, hi):
        assert verify_toric_criterion(l, lo, hi) == _oracle_sweep(l, lo, hi)

    @pytest.mark.parametrize("l, closures", [(3, 1), (4, 13), (5, 30), (6, 122)])
    def test_closure_counts(self, l, closures):
        assert verify_toric_criterion(l, -3, 3) == (7 ** l, closures, 0)

    # every window [lo, hi] of these ranges with at most 20,000 pairs
    @pytest.mark.parametrize("l, first, last", [(3, -6, 5), (4, -5, 4), (5, -3, 3), (6, -3, 2)])
    def test_matches_oracle_on_windows(self, l, first, last):
        for lo in range(first, last + 1):
            for hi in range(lo, last + 1):
                if (hi - lo + 1) ** l <= 20_000:
                    assert verify_toric_criterion(l, lo, hi) == _oracle_sweep(l, lo, hi), (lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_oracle_beyond_windows(self, data):
        l = data.draw(st.integers(3, 9))
        width = data.draw(st.integers(1, int(4000 ** (1 / l))))
        lo = data.draw(st.integers(-12, 12))
        hi = lo + width - 1
        assert verify_toric_criterion(l, lo, hi) == _oracle_sweep(l, lo, hi)

    def test_short_sequences_rejected(self):
        with pytest.raises(InvalidPair):
            verify_toric_criterion(2, -3, 3)

    def test_long_walk_is_iterative(self):
        # (0)^l is the quarter turn l times: closed when 4 divides l
        assert verify_toric_criterion(1000, 0, 0) == (1, 1, 0)
        assert verify_toric_criterion(999, 0, 0) == (1, 0, 0)

    def test_pair_cap_is_inclusive(self):
        assert verify_toric_criterion(7, 0, 9)[0] == SWEEP_PAIRS_MAX
        with pytest.raises(InvalidQuery):
            verify_toric_criterion(7, 0, 10)

    @pytest.mark.parametrize("l, lo, hi", [
        (L_MAX + 1, 0, 0), (2000, 0, 0), (30, -1, 1), (3, 1, 0), (L_MAX, 0, 10**100),
        # past the int-to-str limit: the messages must not print these
        pytest.param(10**5000, 0, 0, id="huge-l"), pytest.param(3, 0, 10**5000, id="huge-hi"),
        pytest.param(3, 10**5000, 0, id="huge-lo")])
    def test_caps(self, l, lo, hi):
        with pytest.raises(InvalidQuery):
            verify_toric_criterion(l, lo, hi)


class TestIntersectionMatrix:
    def test_del_pezzo(self):
        assert intersection_matrix((0, -1, 0, 0)) == [
            [0, 1, 0, 1],
            [1, -1, 1, 0],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ]

    def test_all_minus_two(self):
        m = intersection_matrix((-2, -2, -2, -2))
        for i in range(4):
            assert m[i][i] == -2
            assert m[i][(i + 1) % 4] == 1

    def test_triangle(self):
        assert intersection_matrix((1, 1, 1)) == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]

    def test_capped_at_l_max(self):
        # the matrix has l^2 entries, so l is capped as `tropcyl base` caps it
        m = intersection_matrix((-2,) * L_MAX)
        assert len(m) == L_MAX and all(len(row) == L_MAX for row in m)
        with pytest.raises(InvalidQuery, match=f"capped at l = {L_MAX}, got {L_MAX + 1}"):
            intersection_matrix((-2,) * (L_MAX + 1))


def _int_det(rows) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _oracle_is_positive(ds):
    """M is negative semi-definite iff every principal minor of -M is >= 0:
    the 2^l enumeration that the elimination replaces."""
    l = len(ds)
    neg = [[0] * l for _ in range(l)]
    for i, d in enumerate(ds):
        neg[i][i] = -d
        neg[i][(i + 1) % l] = neg[(i + 1) % l][i] = -1
    for size in range(1, l + 1):
        for subset in combinations(range(l), size):
            if _int_det([[neg[i][j] for j in subset] for i in subset]) < 0:
                return True
    return False


@st.composite
def _mixed_pairs(draw):
    """Pairs of length 7..10 with entries in [-4, 1].  Entries <= -2 make
    -M diagonally dominant, hence non-positive; up to three entries are
    then redrawn from the whole range, so both answers come up often."""
    l = draw(st.integers(7, 10))
    ds = draw(st.lists(st.integers(-4, -2), min_size=l, max_size=l))
    for i in draw(st.lists(st.integers(0, l - 1), max_size=3)):
        ds[i] = draw(st.integers(-4, 1))
    return tuple(ds)


class TestPositivity:
    def test_examples(self):
        assert is_positive((0, -1, 0, 0)) is True
        assert is_positive((-2, -2, -2, -2)) is False
        assert is_positive((1, 1, 1)) is True

    def test_quadratic_form_witnesses(self):
        # randomized witness search agrees with the exact decision
        import random

        rng = random.Random(7)
        for _ in range(40):
            l = rng.randint(3, 5)
            ds = tuple(rng.randint(-4, 2) for _ in range(l))
            m = intersection_matrix(ds)
            found = False
            for _ in range(300):
                vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(l)]
                val = sum(m[i][j] * vec[i] * vec[j] for i in range(l) for j in range(l))
                if val > 0:
                    found = True
                    break
            if found:
                assert is_positive(ds) is True

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_matches_minor_oracle_on_grid(self, l):
        for ds in product(range(-3, 3), repeat=l):
            assert is_positive(ds) is _oracle_is_positive(ds), ds

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_monodromy_trace_is_det_plus_two_on_grid(self, l):
        # det(-M) = tr(monodromy) - 2: the last pivot of the elimination
        for ds in product(range(-3, 3), repeat=l):
            neg = [[-x for x in row] for row in intersection_matrix(ds)]
            (a, _), (_, d) = monodromy(ds)
            assert _int_det(neg) == a + d - 2, ds

    @settings(max_examples=60, deadline=None)
    @given(_mixed_pairs())
    def test_matches_minor_oracle_beyond_grid(self, ds):
        assert is_positive(ds) is _oracle_is_positive(ds)

    def test_scales_to_l_1000(self):
        # (-2)^l has kernel (1, ..., 1): its last pivot is exactly zero
        assert is_positive((-2,) * 1000) is False
        assert is_positive((-2,) * 999 + (-1,)) is True
