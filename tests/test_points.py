"""Points in integers: a `BasePoint` stores its cone and (A, B, Q) with
Q > 0 and gcd(A, B, Q) = 1, and `TropicalBase.point`, its integer twin
`_point` and `coords_in_cone` give exactly what their `Fraction` forms in
`point_oracle` give: the same point (same repr) or the same error."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl import BasePoint, InvalidArgument, LooijengaPair, build_base
from tropcyl.lattice import ORIGIN

from point_oracle import fraction_coords_in_cone, fraction_point
from ray_oracle import outcome

F = Fraction

BASES = [build_base(LooijengaPair(ds)) for ds in ((0, -1, 0, 0), (-2, -3, 1))]
# ints and Fractions, negatives and zero included
COORDS = (0, 1, 3, -1, F(0), F(1, 2), F(2, 3), F(7, 4), F(-1, 3), F(6, 4))
CONES = (-1, 0, 1, 2, 3, 4, 7)


def _stored_form(p):
    return p.Q > 0 and gcd(p.A, p.B, p.Q) == 1


class TestIntegerForm:
    def test_fields_read_back(self):
        for cone, a, b in product((None, 0, 2, -5), COORDS, COORDS):
            p = BasePoint(cone, a, b)
            assert _stored_form(p), p
            assert (p.cone, p.A * F(1), p.B * F(1)) == (cone, a * p.Q, b * p.Q)
            assert type(p.a) is F and type(p.b) is F
            assert (p.a, p.b) == (a, b)
            assert hash(p) == hash((cone, F(a), F(b)))

    def test_origin(self):
        assert (ORIGIN.cone, ORIGIN.A, ORIGIN.B, ORIGIN.Q) == (None, 0, 0, 1)
        assert BasePoint(None) == ORIGIN
        assert BasePoint(None, F(1, 2)) != ORIGIN

    def test_equality_is_on_the_integers(self):
        values = (0, F(0), 1, F(2, 2), F(1, 2), F(6, 4), -1)
        points = [BasePoint(c, a, b) for c, a, b in product((None, 0), values, values)]
        for p, q in product(points, repeat=2):
            same = (p.cone, p.a, p.b) == (q.cone, q.a, q.b)
            assert (p == q) is same and (p != q) is (not same)
            assert not same or hash(p) == hash(q)

    @pytest.mark.parametrize("args", [
        (0, 0.5, 1), (0, 2.0, 1), (0, 1, float("nan")), (0, True, 1), (0, 1, False),
        (0, "1/2", 1), (0, None, 1), (0.0, 1, 1), (True, 1, 1), ("0", 1, 1),
        ((0,), 1, 1),
    ])
    def test_inexact_values_rejected(self, args):
        with pytest.raises(InvalidArgument):
            BasePoint(*args)


class TestPointMatchesFractionReference:
    def test_grid(self):
        kinds = set()
        for base in BASES:
            for cone, a, b in product(CONES, COORDS, COORDS):
                got = outcome(base.point, cone, a, b)
                assert got == outcome(fraction_point, base, cone, a, b), (cone, a, b)
                kinds.add(got[0])
                if got[0] == "value":
                    p = got[1]
                    assert _stored_form(p)
                    # the twin on an unreduced integer form of the same point
                    q = 6 * F(a).denominator * F(b).denominator
                    assert base._point(cone, int(a * q), int(b * q), q) == p
        assert kinds == {"value", "raise"}

    @pytest.mark.parametrize("args", [
        (0, 0.5, 1), (1.0, 1, 1), (True, 1, 1), (0, 1, True), (0, "1", 1), (None, 1, 1),
    ])
    def test_bad_arguments(self, args):
        base = BASES[0]
        assert outcome(base.point, *args) == outcome(fraction_point, base, *args)

    def test_twin_messages(self):
        base = BASES[0]
        for A, B, Q in ((-1, 2, 4), (3, -6, 9), (-2, -2, 1)):
            got = outcome(base._point, 0, A, B, Q)
            assert got == outcome(fraction_point, base, 0, F(A, Q), F(B, Q))
            assert got[1] is InvalidArgument

    @given(ds=st.lists(st.integers(-3, 1), min_size=3, max_size=6),
           cone=st.integers(-8, 8),
           a=st.fractions(-2, 10, max_denominator=30),
           b=st.fractions(-2, 10, max_denominator=30))
    @settings(max_examples=25, deadline=None)
    def test_matches_fraction_reference(self, ds, cone, a, b):
        base = build_base(LooijengaPair(ds))
        assert outcome(base.point, cone, a, b) == outcome(fraction_point, base, cone, a, b)


def _points(base):
    """Canonical points of every cone, and non-canonical ones built with
    the public constructor: a wall point left in the lower cone, a cone
    index out of range, and the origin with nonzero coordinates."""
    out = [ORIGIN, BasePoint(None, F(1, 2), 1)]
    for cone, a, b in product(range(base.l), COORDS[:8], COORDS[:8]):
        if a >= 0 and b >= 0:
            out.append(base.point(cone, a, b))
    out += [BasePoint(0, 0, 2), BasePoint(base.l + 1, F(1, 3), 0), BasePoint(-1, 2, 0)]
    return out


class TestCoordsInCone:
    def test_grid_matches_fraction_reference(self):
        for base in BASES:
            for p, cone in product(_points(base), CONES):
                got = base.coords_in_cone(p, cone)
                assert got == fraction_coords_in_cone(base, p, cone), (p, cone)
                ints = base._coords(p, cone)
                if got is None:
                    assert ints is None
                else:
                    assert all(type(x) is F for x in got)
                    assert ints[2] > 0 and (F(ints[0], ints[2]), F(ints[1], ints[2])) == got
