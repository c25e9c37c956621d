import io
import json
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import cycle, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl import (
    CurveClass,
    DegenerateRay,
    ExtensionResult,
    HitOrigin,
    InvalidArgument,
    InvalidQuery,
    LooijengaPair,
    NotExtendable,
    Vertex,
    build_base,
    cylinder_in_b,
    extend,
    extend_step,
    family_spine,
    lift_to_tilde,
    make_edge,
    make_tree,
    trace_path_image,
    tropical_trace,
)
from tropcyl.cli import run
from tropcyl.extension import DEL_PEZZO_PAIR, MAX_STEPS, _trace, spine_legs
from tropcyl.lattice import ORIGIN, _curve_class, _endless_rays, monodromy
from tropcyl.serialize import extend_report, spine_from_json, spine_text, spine_to_json
from tropcyl.spines import check_structure

from cylinder_oracle import fraction_cylinder_to_json, full_cylinder_in_b
from report_oracle import oracle_report
from point_oracle import lattice_length
from ray_oracle import (
    eager_extend,
    fraction_family_spine,
    fraction_trace,
    fraction_tropical_trace,
    outcome,
)

F = Fraction

# the bases, start coordinates and directions of the reference grid
GRID_PAIRS = ((0, -1, 0, 0), (-2, -2, -2, -2), (-1, -2, -3))
GRID_COORDS = (F(0), F(1, 3), F(1, 2), F(1), F(2), F(7, 5))
GRID_STEPS = range(-3, 4)


def _ratio_trace(base, start, cone, u, v):
    """`fraction_trace` with its `Fraction` length as the (N, D) of
    `Edge.ratio`."""
    *head, length = fraction_trace(base, start, cone, u, v)
    return (*head, None if length is None else (length.numerator, length.denominator))


def _trace_both_ways(base, start, cone, u, v):
    got = outcome(_trace, base, start, cone, u, v)
    assert got == outcome(_ratio_trace, base, start, cone, u, v), (
        base.pair, start, cone, u, v)
    return got


class TestIntegerRayTrace:
    """The cast compares cross-multiplied integer numerators; the reference
    compares `Fraction` parameters.  Every pair of calls gives an equal
    result tuple (equal repr, so equal types too) or the same error; the
    cast's length (N, D) is the reference's `Fraction` in lowest terms.
    Starts are off the origin and in the direction's cone, 0..l-1, and a
    start seen from the cone below its wall casts with u < 0, as `_cast`
    gives them."""

    def test_grid_matches_fraction_reference(self):
        kinds = set()
        for ds in GRID_PAIRS:
            base = build_base(LooijengaPair(ds))
            for cone, a, b in product(range(base.l), GRID_COORDS, GRID_COORDS):
                if a == b == 0:
                    continue
                start = base.point(cone, a, b)
                # a direction homed in the start's cone, and for a start on
                # wall cone+1 also one homed in the next cone
                homes = (cone, (cone + 1) % base.l) if a == 0 else (cone,)
                for home, u, v in product(homes, GRID_STEPS, GRID_STEPS):
                    if home == cone and a == 0 and u >= 0:
                        continue
                    got = _trace_both_ways(base, start, home, u, v)
                    kinds.add(got[1][0] if got[0] == "value" else got[1].__name__)
        assert kinds == {"wall", "unbounded", "origin", "DegenerateRay"}

    @given(ds=st.lists(st.integers(-3, 1), min_size=3, max_size=6),
           cone=st.integers(0, 5),
           a=st.fractions(0, 10, max_denominator=30),
           b=st.fractions(0, 10, max_denominator=30),
           u=st.integers(-12, 12), v=st.integers(-12, 12))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, ds, cone, a, b, u, v):
        assume((a or b) and (a or u < 0))
        base = build_base(LooijengaPair(ds))
        cone %= base.l
        _trace_both_ways(base, base.point(cone, a, b), cone, u, v)


class TestRayTrace:
    def test_parallel_interior_unbounded(self, del_pezzo):
        kind, *_ = _trace(del_pezzo, del_pezzo.point(0, 0, 1), 0, 1, 0)
        assert kind == "unbounded"

    def test_unit_drop(self, del_pezzo):
        kind, _, _, _, wall, point, length = _trace(
            del_pezzo, del_pezzo.point(0, 1, 1), 0, 0, -1)
        assert kind == "wall"
        assert wall == 0
        assert point == del_pezzo.point(0, 1, 0)
        assert length == (1, 1)

    def test_diagonal_to_wall(self, del_pezzo):
        kind, _, _, _, wall, point, length = _trace(
            del_pezzo, del_pezzo.point(0, 2, 1), 0, -1, -1)
        assert (kind, wall, length) == ("wall", 0, (1, 1))
        assert point == del_pezzo.point(0, 1, 0)

    def test_second_wall_exit(self, del_pezzo):
        kind, _, _, _, wall, point, length = _trace(
            del_pezzo, del_pezzo.point(0, 1, 3), 0, -1, 0)
        assert (kind, wall) == ("wall", 1)
        assert point == del_pezzo.point(1, 3, 0)
        assert length == (1, 1)

    def test_origin_hit(self, del_pezzo):
        kind, *_ = _trace(del_pezzo, del_pezzo.point(0, 2, 2), 0, -1, -1)
        assert kind == "origin"

    def test_wall_start_crosses_first(self, del_pezzo):
        # from a wall-1 point, pointing across the wall into cone 0:
        # (1,-2) in cone 1 re-expresses as (2,-1) in cone 0 (d_1 = -1)
        start = del_pezzo.point(1, 2, 0)
        kind, cone, u, v, wall, point, length = _trace(
            del_pezzo, start, 1, 1, -2)
        assert cone == 0
        assert (u, v) == (2, -1)
        assert (kind, wall) == ("wall", 0)
        assert point == del_pezzo.point(0, 4, 0)
        assert length == (2, 1)

    def test_along_wall_degenerate(self, del_pezzo):
        start = del_pezzo.point(1, 2, 0)
        with pytest.raises(DegenerateRay):
            _trace(del_pezzo, start, 1, 1, 0)


class TestExtendStep:
    def test_unbounded_end(self, del_pezzo):
        s = family_spine(1, 0, 1, 1)
        out, inc, finished = extend_step(del_pezzo, s, "v2")
        assert finished and inc == CurveClass()
        ray = [e for e in out.edges if e.ratio is None][0]
        assert (ray.cone, ray.direction) == (0, (1, 0))

    def test_v1_end_parallel_wall(self, del_pezzo):
        # the cone-1 arm of L(1,0,1) runs parallel to wall 2 forever
        s = family_spine(1, 0, 1, 1)
        out, inc, finished = extend_step(del_pezzo, s, "v1")
        assert finished and inc == CurveClass()
        ray = [e for e in out.edges if e.ratio is None][0]
        assert (ray.cone, ray.direction) == (1, (0, 1))

    def test_wall_hit_increment(self, del_pezzo):
        # edge arriving at wall 0 from (1,1) going straight down
        spine = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 2)),
             Vertex("b", del_pezzo.point(0, 1, 1))],
            [make_edge("a", "b", 0, (0, -1), 1)],
            ("a", "b"),
        )
        out, inc, finished = extend_step(del_pezzo, spine, "b")
        assert not finished
        assert dict(inc.coeffs) == {0: 1}
        new_vertex = [v for v in out.vertices if v.id == "x1"][0]
        assert new_vertex.position == del_pezzo.point(0, 1, 0)

    def test_end_outside_its_edge_cone_is_structural(self, del_pezzo):
        # the ray is read in the end's cone, 0, where edge cone 2 does not
        # reach; `extend` refuses this tree in its structure check
        spine = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 1)), Vertex("b", del_pezzo.point(0, 2, 1))],
            [make_edge("a", "b", 2, (1, 0), 1)],
            ("a", "b"),
        )
        with pytest.raises(tc.StructuralError,
                           match="edge cone 2 is not adjacent to the vertex in cone 0"):
            extend_step(del_pezzo, spine, "b")
        with pytest.raises(tc.StructuralError):
            extend(del_pezzo, spine)

    def test_inner_vertex_is_not_an_end(self, del_pezzo):
        with pytest.raises(tc.StructuralError, match="^vertex 'v0' is not a 1-valent end$"):
            extend_step(del_pezzo, family_spine(2, 0, 1, 1), "v0")

    def test_old_end_becomes_balanced(self, del_pezzo):
        s = family_spine(2, -1, 1, 1)
        out, _, _ = extend_step(del_pezzo, s, "v2")
        assert tc.is_balanced(del_pezzo, out, "v2")

    @pytest.mark.parametrize("case, error, message", [
        ("unbounded", tc.StructuralError, "cannot extend at unbounded vertex 'x2'"),
        ("origin", DegenerateRay, "ray starts at the origin"),
        ("zero-direction", DegenerateRay, "ray direction is zero"),
        ("along-wall", DegenerateRay, "direction runs along wall 1"),
        ("cone-5", tc.StructuralError, "vertex 'b' lies outside cone 5 of its edge"),
    ], ids=["unbounded", "origin", "zero-direction", "along-wall", "cone-5"])
    def test_refused_end(self, del_pezzo, case, error, message):
        # `extend` validates the spine first; `extend_step` meets these ends
        # itself, and refuses each before its ray is cast
        point = del_pezzo.point
        if case == "unbounded":
            tree, end = extend(del_pezzo, family_spine(2, 0, 1, 1)).extended, "x2"
        else:
            a, b, cone, direction = {
                "origin": (point(0, 1, 1), ORIGIN, 0, (-1, -1)),
                "zero-direction": (point(0, 1, 1), point(0, 2, 1), 0, (0, 0)),
                "along-wall": (point(1, 1, 0), point(1, 2, 0), 1, (1, 0)),
                # a hand-built point may name a cone that no cone of the base is
                "cone-5": (tc.BasePoint(5, 1, 1), tc.BasePoint(5, 2, 1), 5, (1, 0)),
            }[case]
            tree, end = make_tree([Vertex("a", a), Vertex("b", b)],
                                  [make_edge("a", "b", cone, direction, 1)], ("a", "b")), "b"
        with pytest.raises(error) as err:
            extend_step(del_pezzo, tree, end)
        assert type(err.value) is error and str(err.value) == message


class TestExtend:
    def test_both_unbounded_immediately(self, del_pezzo):
        res = extend(del_pezzo, family_spine(1, 0, 1, 1))
        assert res.steps == 2
        assert res.curve_class == CurveClass()
        unbounded = [v for v in res.extended.vertices if v.position is None]
        assert {v.id for v in unbounded} == set(res.extended.boundary)

    def test_regression_l201(self, del_pezzo):
        res = extend(del_pezzo, family_spine(2, 0, 1, 1))
        assert res.steps == 3
        assert dict(res.curve_class.coeffs) == {2: 1}

    def test_negative_m_hits_wall_zero(self, del_pezzo):
        res = extend(del_pezzo, family_spine(3, -2, 1, 1))
        # m < 0: the cone-0 arm picks up |m| copies of divisor 0;
        # m + l - n > 0: the other arm picks up m + l - n copies of divisor 2
        assert dict(res.curve_class.coeffs) == {0: 2, 2: 0} or \
            dict(res.curve_class.coeffs) == {0: 2}
        # recompute expected increments independently
        expected = {}
        m, l, n = -2, 3, 1
        if m < 0:
            expected[0] = -m
        if m + l - n > 0:
            expected[2] = m + l - n
        assert dict(res.curve_class.coeffs) == expected

    def test_order_independence(self, del_pezzo):
        s = family_spine(3, -2, 2, F(3, 2))
        res = extend(del_pezzo, s)
        flipped = make_tree(s.vertices, s.edges, (s.boundary[1], s.boundary[0]))
        res2 = extend(del_pezzo, flipped)
        assert res.curve_class == res2.curve_class
        assert res.steps == res2.steps
        assert tc.canonical_image(res.extended) == tc.canonical_image(res2.extended)

    def test_two_stage_additivity(self, del_pezzo):
        # stepping manually accumulates the same total class
        s = family_spine(4, -2, 1, 1)
        res = extend(del_pezzo, s)
        total = CurveClass()
        current = s
        for side in (0, 1):
            finished = False
            while not finished:
                current, inc, finished = extend_step(del_pezzo, current,
                                                     current.boundary[side])
                total = CurveClass(total.coeffs + inc.coeffs)
        assert total == res.curve_class

    def test_spiral_not_extendable(self, all_minus_two):
        spine = make_tree(
            [Vertex("a", all_minus_two.point(0, 2, 1)),
             Vertex("b", all_minus_two.point(0, 1, 1))],
            [make_edge("a", "b", 0, (-1, 0), 1)],
            ("a", "b"),
        )
        assert tc.validate_spine(all_minus_two, spine) == []
        with pytest.raises(NotExtendable) as err:
            extend(all_minus_two, spine, max_steps=80)
        assert err.value.steps == 80

    def test_hit_origin_is_error(self, del_pezzo):
        # a radial arm aiming at the origin is already an invalid spine, so
        # extend() refuses it; stepping directly reports the origin hit
        spine = make_tree(
            [Vertex("a", del_pezzo.point(0, 3, 3)),
             Vertex("b", del_pezzo.point(0, 2, 2))],
            [make_edge("a", "b", 0, (-1, -1), 1)],
            ("a", "b"),
        )
        with pytest.raises(HitOrigin):
            extend_step(del_pezzo, spine, "b")
        with pytest.raises(tc.StructuralError):
            extend(del_pezzo, spine)

    def test_invalid_spine_rejected(self, del_pezzo):
        s = family_spine(2, 0, -1, 1)  # inward defect at the center
        with pytest.raises(tc.StructuralError):
            extend(del_pezzo, s)


def _extend_by_steps(base, spine):
    """extend() as alternating extend_step calls, each on the whole tree."""
    current, total, steps = spine, CurveClass(), 0
    finished = [False, False]
    side = 0
    while not all(finished):
        if not finished[side]:
            current, inc, finished[side] = extend_step(
                base, current, current.boundary[side])
            total = CurveClass(total.coeffs + inc.coeffs)
            steps += 1
        side = 1 - side
    return ExtensionResult(current, total, steps)


class TestExtendMatchesSteps:
    def test_family_grid(self, del_pezzo):
        # also: the one-pass canonical image of each cylinder path equals
        # the exact trace clipping
        for l in range(1, 9):
            for m in range(-4, 5):
                for n in range(l + 1):
                    spine = family_spine(l, m, n, F(3, 2))
                    res = extend(del_pezzo, spine)
                    assert res == _extend_by_steps(del_pezzo, spine), (l, m, n)
                    cyl = cylinder_in_b(del_pezzo, res.extended)
                    assert tc.canonical_image(cyl.path_part()) == \
                        trace_path_image(l, m, n, F(3, 2)), (l, m, n)

    def test_one_turn_spines(self):
        # a rotation of (-2)^(k-1), (-1): the ray winds once round the
        # origin and leaves after k + 2 steps
        for k in range(3, 17):
            base = build_base(LooijengaPair((-2,) * (k - 1) + (-1,)))
            spine = make_tree(
                [Vertex("a", base.point(0, 2, 1)), Vertex("b", base.point(0, 1, 1))],
                [make_edge("a", "b", 0, (-1, 0), 1)],
                ("a", "b"),
            )
            res = extend(base, spine)
            assert res.steps == k + 2
            assert res == _extend_by_steps(base, spine), k

    def test_curve_class_is_sum_of_increments(self, del_pezzo):
        # extend sums the increments in one dict, _extend_by_steps one
        # CurveClass at a time: the criterion-5 spines (b = 1 is not in the
        # family grid) and one-turn spines longer than those above
        for l in range(1, 5):
            for n in range(0, l + 1):
                for m in range(-2, 3):
                    for b in (F(1), F(3, 2)):
                        spine = family_spine(l, m, n, b)
                        assert extend(del_pezzo, spine).curve_class == \
                            _extend_by_steps(del_pezzo, spine).curve_class
        for k in (24, 40):
            base = build_base(LooijengaPair((-2,) * (k - 1) + (-1,)))
            spine = make_tree(
                [Vertex("a", base.point(0, 2, 1)), Vertex("b", base.point(0, 1, 1))],
                [make_edge("a", "b", 0, (-1, 0), 1)],
                ("a", "b"),
            )
            got = extend(base, spine).curve_class
            assert got == _extend_by_steps(base, spine).curve_class, k
            assert set(dict(got.coeffs)) == set(range(k)), k  # every wall crossed
        # wall 2 is crossed twice, once from each end
        base = build_base(LooijengaPair((-3, -3, 0)))
        spine = make_tree(
            [Vertex("a", base.point(0, 2, 1)), Vertex("b", base.point(0, F(7, 4), F(5, 4)))],
            [make_edge("a", "b", 0, (-1, 1), F(1, 4))],
            ("a", "b"),
        )
        got = extend(base, spine).curve_class
        assert got == _extend_by_steps(base, spine).curve_class
        assert got == CurveClass(((0, 1), (1, 1), (2, 4)))


def _one_turn_spine(k):
    """Start spine on (-2)^(k-1), (-1): it leaves after k + 2 steps."""
    base = build_base(LooijengaPair((-2,) * (k - 1) + (-1,)))
    spine = make_tree(
        [Vertex("a", base.point(0, 2, 1)), Vertex("b", base.point(0, 1, 1))],
        [make_edge("a", "b", 0, (-1, 0), 1)],
        ("a", "b"),
    )
    return base, spine


class TestExtendBuildsOnce:
    """`extend` keeps its steps as tuples and builds the new vertices and
    edges once both ends finish: the result equals the step-by-step
    `Fraction` reference, and a run that raises builds none of them."""

    def test_criterion_5_spines_match_the_eager_reference(self, del_pezzo):
        for l in range(1, 5):
            for n, m, b in product(range(l + 1), range(-2, 3), (F(1), F(3, 2))):
                spine = family_spine(l, m, n, b)
                assert extend(del_pezzo, spine) == eager_extend(del_pezzo, spine, 10_000)

    def test_one_turn_spines_match_the_eager_reference(self):
        for k in range(3, 65):
            base, spine = _one_turn_spine(k)
            res = extend(base, spine)
            assert res.steps == k + 2
            assert res == eager_extend(base, spine, 10_000), k

    def test_spiral_matches_the_eager_reference(self, all_minus_two):
        _, spine = _one_turn_spine(4)
        for budget in (1, 2, 57):
            assert outcome(extend, all_minus_two, spine, budget) == outcome(
                eager_extend, all_minus_two, spine, budget)

    def test_vertices_and_edges_built_only_for_a_finished_run(self, monkeypatch,
                                                             all_minus_two):
        built = []
        # the vertex and edge builders of `_step_parts`
        for name in ("Vertex", "_edge"):
            make = getattr(tc.extension, name)
            monkeypatch.setattr(tc.extension, name,
                                lambda *args, make=make: built.append(make) or make(*args))
        _, spine = _one_turn_spine(4)
        with pytest.raises(NotExtendable):
            extend(all_minus_two, spine, 300)
        assert built == []
        base, spine = _one_turn_spine(9)
        res = extend(base, spine)
        assert len(built) == 2 * res.steps


def _two_vertex_spine(base, cone, du, dv):
    """Spine (3, 3) -> (3 + du, 3 + dv) in `cone`, valid for du != dv: its
    ends cast the rays (-du, -dv) and (du, dv)."""
    return make_tree(
        [Vertex("a", base.point(cone, 3, 3)), Vertex("b", base.point(cone, 3 + du, 3 + dv))],
        [make_edge("a", "b", cone, (du, dv), 1)],
        ("a", "b"))


def _casts_to_infinity(base, start, cone, u, v, budget):
    """Casts of `_trace` until the ray from `start` runs off to infinity,
    None if it is still crossing walls after `budget` casts, or "origin"."""
    for casts in range(1, budget + 1):
        kind, cone, u, v, _, start, _ = _trace(base, start, cone, u, v)
        if kind != "wall":
            return "origin" if kind == "origin" else casts
    return None


# every pair with l = 3..4 and entries in [-3, 1]
ENDLESS_GRID = [ds for l in (3, 4) for ds in product(range(-3, 2), repeat=l)]


class TestEndlessRays:
    """`lattice._endless_rays` against the budgeted cast of `_trace`: a ray
    it finds endless is still crossing walls after the budget, and every
    other ray runs off to infinity within it.  Rays into the origin (the
    inward radial ones, which no valid spine casts) are skipped."""

    def _check(self, ds, cone, starts, directions, budget):
        base = build_base(LooijengaPair(ds))
        endless = _endless_rays(ds)
        verdicts = set()
        for (a, b), (u, v) in product(starts, directions):
            if (u, v) == (0, 0) or (b == 0 and v == 0):
                continue  # no ray, or one along its start wall
            casts = _casts_to_infinity(base, base.point(cone, a, b), cone, u, v, budget)
            if casts == "origin":
                continue
            verdict = endless is not None and endless(cone, u, v)
            assert verdict == (casts is None), (ds, cone, a, b, u, v, casts)
            verdicts.add(verdict)
        return verdicts

    def test_grid_matches_the_budgeted_cast(self):
        # interior and wall starts, directions in [-2, 2]^2; the grid holds
        # every rotation of a pair, so cone 0 stands for every cone
        directions = tuple(product(range(-2, 3), repeat=2))
        verdicts = set()
        for ds in ENDLESS_GRID:
            verdicts |= self._check(ds, 0, ((2, 1), (1, 0)), directions, 60)
        assert verdicts == {False, True}

    @given(ds=st.lists(st.integers(-6, 2), min_size=3, max_size=8),
           cone=st.integers(0, 7), a=st.integers(1, 4), b=st.integers(0, 4),
           u=st.integers(-3, 3), v=st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_budgeted_cast(self, ds, cone, a, b, u, v):
        self._check(tuple(ds), cone % len(ds), ((a, b),), ((u, v),), 100)

    @pytest.mark.parametrize("ds", [(0, -1, 0, 0), (-1, 0, 0, 0)])
    def test_trace_two_and_no_sector_decides_nothing(self, ds):
        # tr M >= 2 and M != I, yet the walls turn without bound: walls 4,
        # 8 and 12 of (-1, 0, 0, 0) are all (1, 0)
        (a, b), (c, d) = monodromy(ds)
        assert a + d >= 2 and (a, b, c, d) != (1, 0, 0, 1)
        assert _endless_rays(ds) is None


class TestExtendStopsEndlessEnds:
    """An end that `_endless_rays` finds endless is cast no more: the
    outcome, step count and winning error stay those of the full cast."""

    def test_start_spines_match_the_eager_reference(self):
        # as above, cone 0 stands for every cone; the two edge directions
        # take turns over the grid
        for ds, (du, dv) in zip(ENDLESS_GRID, cycle(((-1, 0), (1, -2)))):
            base = build_base(LooijengaPair(ds))
            spine = _two_vertex_spine(base, 0, du, dv)
            for budget in (1, 2, 3, 9, 57):
                assert outcome(extend, base, spine, budget) == outcome(
                    eager_extend, base, spine, budget), (ds, du, dv, budget)

    def test_no_sector_finishes_as_the_eager_reference(self):
        # tr M = 7, yet no sector holds the first l walls, so `_endless_rays`
        # decides nothing; the end that casts l rays goes on and finishes
        ds = (1, 1, -3, -3)
        (a, _), (_, d) = monodromy(ds)
        assert a + d == 7 and _endless_rays(ds) is None
        base = build_base(LooijengaPair(ds))
        spine = make_tree(
            [Vertex("a", base.point(0, 5, 1)), Vertex("b", base.point(0, F(45, 8), F(5, 4)))],
            [make_edge("a", "b", 0, (5, 2), F(1, 8))], ("a", "b"))
        res = extend(base, spine)
        assert res.steps == 6
        assert res == eager_extend(base, spine, MAX_STEPS)

    def test_spiral_casts_at_most_one_turn_and_one_ray(self, monkeypatch, all_minus_two):
        casts = []
        monkeypatch.setattr(tc.extension, "_trace",
                            lambda *args: casts.append(args) or _trace(*args))
        _, spine = _one_turn_spine(4)
        with pytest.raises(NotExtendable) as err:
            extend(all_minus_two, spine, 100_000)
        assert err.value.steps == 100_000
        assert len(casts) <= all_minus_two.l + 1


class TestUncheckedCurveClass:
    """`_curve_class`, which `extend` builds its class with, is the checked
    `CurveClass` of the same pairs."""

    def test_one_turn_crossings(self, monkeypatch):
        seen = []
        monkeypatch.setattr(tc.extension, "_curve_class",
                            lambda pairs: seen.append(list(pairs)) or _curve_class(pairs))
        for k in range(3, 65):
            extend(*_one_turn_spine(k))
        assert len(seen) == 62
        for pairs in seen:
            assert _curve_class(pairs) == CurveClass(pairs)

    @given(st.lists(st.tuples(st.integers(-3, 40), st.integers(0, 10 ** 30))))
    @settings(max_examples=100, deadline=None)
    def test_drawn_pairs(self, pairs):
        got = _curve_class(pairs)
        assert got == CurveClass(pairs)
        totals = Counter()
        for wall, multiple in pairs:
            totals[wall] += multiple
        assert got.coeffs == tuple(sorted((k, v) for k, v in totals.items() if v))


class TestDirectConstruction:
    """`_trace` builds each hit point as a `BasePoint` and `_step_parts`
    each edge as an `Edge` directly, skipping `TropicalBase.point` and
    `make_edge`: both must be exactly the values those constructors give."""

    def _extended(self, del_pezzo):
        for l in range(1, 5):  # the criterion-5 grid
            for n, m, b in product(range(l + 1), range(-2, 3), (F(1), F(3, 2))):
                yield del_pezzo, extend(del_pezzo, family_spine(l, m, n, b)).extended
        for k in (24, 40):
            base = build_base(LooijengaPair((-2,) * (k - 1) + (-1,)))
            spine = make_tree(
                [Vertex("a", base.point(0, 2, 1)), Vertex("b", base.point(0, 1, 1))],
                [make_edge("a", "b", 0, (-1, 0), 1)],
                ("a", "b"),
            )
            yield base, extend(base, spine).extended

    def test_points_and_edges_are_canonical(self, del_pezzo):
        for base, ext in self._extended(del_pezzo):
            for v in ext.vertices:
                p = v.position
                if p is not None:
                    assert type(p.a) is F and type(p.b) is F, (v, p)
                    assert base.point(p.cone, p.a, p.b) == p, (v, p)
            assert tc.relabel(ext, {}) == ext

    def test_del_pezzo_base_built_once(self, del_pezzo):
        assert tc.del_pezzo_base() is tc.del_pezzo_base()
        assert tc.del_pezzo_base() == build_base(LooijengaPair(DEL_PEZZO_PAIR))
        assert tc.del_pezzo_base() == del_pezzo


class TestCylinder:
    def test_leg_data(self, del_pezzo):
        res = extend(del_pezzo, family_spine(3, 1, 2, F(5, 2)))
        cyl = cylinder_in_b(del_pezzo, res.extended)
        assert len(cyl.legs) == 1
        leg = [e for e in cyl.tree.edges
               if (e.tail, e.head) in set(cyl.legs)][0]
        # multiplicity n = 2, radial length b = 5/2, parameter length b/n
        assert leg.length == F(5, 4)
        assert tc.validate_cylinder_b(del_pezzo, cyl) == []

    def test_no_leg_when_balanced(self, del_pezzo):
        res = extend(del_pezzo, family_spine(2, 1, 0, 1))
        cyl = cylinder_in_b(del_pezzo, res.extended)
        assert cyl.legs == ()

    def test_leg_length_three_halves(self, del_pezzo):
        # defect (0, 2) at height 3 gives a leg of parameter length 3/2
        res = extend(del_pezzo, family_spine(2, 0, 2, 3))
        cyl = cylinder_in_b(del_pezzo, res.extended)
        leg = [e for e in cyl.tree.edges if (e.tail, e.head) in set(cyl.legs)][0]
        assert leg.length == F(3, 2)

    def test_nonradial_defect_rejected(self, del_pezzo):
        # hand-built extended spine whose 2-valent defect is not radial:
        # the upstream spine invariant is violated, reported when completing
        c = del_pezzo.point(0, 2, 0)
        tree = make_tree(
            [Vertex("c", c), Vertex("p", None), Vertex("q", None)],
            [tc.Edge("c", "p", 0, (0, 1), None),
             tc.Edge("c", "q", 3, (2, 0), None)],
            ("p", "q"),
        )
        with pytest.raises(tc.UnbalancedNonRadial):
            cylinder_in_b(del_pezzo, tree)

    def test_bounded_boundary_rejected(self, del_pezzo):
        s = family_spine(2, 0, 1, 1)
        with pytest.raises(tc.StructuralError):
            cylinder_in_b(del_pezzo, s)

    def test_violations(self, del_pezzo):
        # one edit of the cylinder of L(2, 0, 1) per violation code; its one
        # leg runs from o1 at the origin to v0 = (1, 0) on wall 1
        ext = extend(del_pezzo, family_spine(2, 0, 1, 1)).extended
        cyl = cylinder_in_b(del_pezzo, ext)
        assert cyl.legs == (("o1", "v0"),)
        assert tc.validate_cylinder_b(del_pezzo, cyl) == []
        assert tc.validate_extended_spine(del_pezzo, ext) == []
        tree = cyl.tree
        keep = [e for e in tree.edges if (e.tail, e.head) != ("o1", "v0")]
        others = [v for v in tree.vertices if v.id != "o1"]

        def check(vertices, edges):
            return tc.validate_cylinder_b(
                del_pezzo, tc.CylinderInB(make_tree(vertices, edges, tree.boundary),
                                          cyl.legs))

        # the leg's end moved halfway up the leg
        half = [*others, Vertex("o1", del_pezzo.point(1, F(1, 2), 0))]
        assert check(half, [*keep, make_edge("o1", "v0", 1, (1, 0), F(1, 2))]) == [
            tc.Violation("leaf-off-origin", "o1",
                         "non-boundary leaf 'o1' does not map to the origin")]
        # a second edge hung on the origin vertex ends in a second stray leaf
        hung = [*tree.vertices, Vertex("y", del_pezzo.point(1, 1, 1))]
        assert check(hung, [*tree.edges, make_edge("o1", "y", 1, (1, 1), 1)]) == [
            tc.Violation("origin-branch", "o1", "origin vertex 'o1' must be 1-valent"),
            tc.Violation("leaf-off-origin", "y",
                         "non-boundary leaf 'y' does not map to the origin")]
        # the leg dropped
        assert check(others, keep) == [
            tc.Violation("unbalanced", "v0", "vertex 'v0' is not balanced")]
        # the boundary vertex x2 bounded: its ray becomes an edge of length 1
        x2 = Vertex("x2", del_pezzo.point(0, F(5, 2), 1))
        bounded = make_tree([v for v in ext.vertices if v.id != "x2"] + [x2],
                            [e for e in ext.edges if e.head != "x2"]
                            + [make_edge("v2", "x2", 0, (2, 0), 1)],
                            ext.boundary)
        assert tc.validate_extended_spine(del_pezzo, bounded) == [
            tc.Violation("unbounded-boundary", "x3",
                         "the unbounded vertices must be exactly the boundary pair")]

    def test_all_branch_vertices_balanced(self, del_pezzo):
        for (l, m, n) in [(1, 0, 1), (2, -1, 2), (3, 2, 0), (4, -2, 3)]:
            res = extend(del_pezzo, family_spine(l, m, n, 1))
            cyl = cylinder_in_b(del_pezzo, res.extended)
            for v in cyl.tree.vertices:
                if v.position is not None and len(cyl.tree.incident(v.id)) > 1:
                    assert tc.is_balanced(del_pezzo, cyl.tree, v.id)


def _complete_both_ways(base, spine):
    """The command line's completion of `extend(base, spine)` against the
    full one: the same cylinder report, byte for byte, and the legs of the
    public `cylinder_in_b`, as edges of its tree.  Returns the legs."""
    result = extend(base, spine)
    ext = result.extended
    legs = spine_legs(base, spine, ext)
    got = json.loads(extend_report(result, legs))["cylinder"]
    expected = fraction_cylinder_to_json(ext, full_cylinder_in_b(base, ext))
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    cyl = cylinder_in_b(base, ext)
    assert tuple(sorted((leg.tail, leg.head) for _, leg in legs)) == cyl.legs
    assert [cyl.tree.edge(leg.tail, leg.head) for _, leg in legs] == [leg for _, leg in legs]
    return legs


class TestCylinderFromTheCast:
    """The command line hangs legs only at the input spine's vertices and
    skips the second structure check (`spine_legs`); the full completion
    of `cylinder_oracle` checks the tree and takes a sum at every vertex.
    Both give the same cylinder report."""

    def test_criterion_5_spines(self, del_pezzo):
        with_legs = 0
        for l in range(1, 5):
            for n, m, b in product(range(l + 1), range(-2, 3), (F(1), F(3, 2))):
                with_legs += bool(_complete_both_ways(del_pezzo, family_spine(l, m, n, b)))
        assert with_legs > 20

    def test_one_turn_spines(self):
        for k in range(3, 65):
            _complete_both_ways(*_one_turn_spine(k))

    @given(l=st.integers(1, 8), m=st.integers(-4, 4), n=st.integers(0, 8),
           b=st.fractions(F(1, 20), 10, max_denominator=20))
    @settings(max_examples=60, deadline=None)
    def test_family_spines(self, l, m, n, b):
        _complete_both_ways(tc.del_pezzo_base(), family_spine(l, m, min(n, l), b))

    @given(ds=st.lists(st.integers(-3, 1), min_size=3, max_size=6),
           cone=st.integers(0, 5),
           x=st.fractions(F(1, 9), 4, max_denominator=9),
           y=st.fractions(F(1, 9), 4, max_denominator=9),
           d=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
           s=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_bent_spines(self, ds, cone, x, y, d, s):
        # a center inside a cone, with arms d and s*r - d for the primitive
        # r of the center's ray: the defect s*r points outward, so the
        # completion hangs a leg there unless s = 0
        base = build_base(LooijengaPair(ds))
        _, r = lattice_length(x, y)
        arms = (d, (s * r[0] - d[0], s * r[1] - d[1]))
        if (0, 0) in arms:
            return
        eps = min(x, y) / (2 * (1 + max(map(abs, arms[0] + arms[1]))))
        spine = make_tree(
            [Vertex("c", base.point(cone, x, y))]
            + [Vertex(vid, base.point(cone, x + eps * u, y + eps * v))
               for vid, (u, v) in zip("pq", arms)],
            [make_edge("c", vid, cone % base.l, arm, eps) for vid, arm in zip("pq", arms)],
            ("p", "q"))
        if tc.validate_spine(base, spine):
            return
        try:
            extend(base, spine, 300)
        except (NotExtendable, HitOrigin):
            return
        assert len(_complete_both_ways(base, spine)) == (s > 0)


def _cli_stdout(tmp_path, command, base, spine):
    """The exit code and stdout of `tropcyl <command>` on the spine file of
    `spine`, as `spine_text` writes it."""
    pair_path, spine_path = tmp_path / "pair.json", tmp_path / "spine.json"
    pair_path.write_text(json.dumps({"self_intersections": list(base.pair.self_intersections)}))
    spine_path.write_text(spine_text(spine))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run([command, str(pair_path), str(spine_path)])
    return code, out.getvalue()


def _with_edge_cone(spine, i, cone):
    """`spine` with the cone of its i-th edge replaced by `cone`."""
    edges = list(spine.edges)
    e = edges[i]
    edges[i] = make_edge(e.tail, e.head, cone, e.direction, e.length)
    return make_tree(spine.vertices, edges, spine.boundary)


class TestOneStoredForm:
    """A tree holds each edge cone, wall point and leg in one form: edge
    and vertex cones in 0..l-1, a wall point on its own wall, as
    `TropicalBase.point` and the spine parse store them, and the legs as
    its tree has them.  `check_structure` refuses any other form, so no
    geometry it accepts has two canonical images."""

    def test_edge_cones_past_l_are_refused(self, del_pezzo, tmp_path):
        spine = family_spine(2, 0, 1, 1)
        shifted = spine
        for i, e in enumerate(spine.edges):
            shifted = _with_edge_cone(shifted, i, e.cone + 4)
        for call in (tc.validate_spine, extend):
            with pytest.raises(tc.StructuralError, match="^vertex 'v0' lies outside cone 5 "):
                call(del_pezzo, shifted)
        # a spine file's edge cones are read modulo l, as its vertex cones are
        for command in ("validate", "extend"):
            assert _cli_stdout(tmp_path, command, del_pezzo, shifted) == _cli_stdout(
                tmp_path, command, del_pezzo, spine)

    def test_wall_point_off_its_wall_is_refused(self, del_pezzo):
        # b = a + (-1, 1) = (0, 2) in cone 0 lies on wall 1, where `point`
        # stores it as (2, 0) in cone 1; a hand-built point may keep it in
        # cone 0, or name cone 1 as 5
        def spine(b):
            return make_tree([Vertex("a", del_pezzo.point(0, 1, 1)), Vertex("b", b)],
                             [make_edge("a", "b", 0, (-1, 1), 1)], ("a", "b"))

        for b in (tc.BasePoint(0, 0, 2), tc.BasePoint(5, 2, 0)):
            for call in (tc.validate_spine, extend,
                         lambda base, tree: extend_step(base, tree, "b")):
                with pytest.raises(tc.StructuralError, match="^vertex 'b' lies outside "):
                    call(del_pezzo, spine(b))
        assert extend(del_pezzo, spine(del_pezzo.point(0, 0, 2))).steps == 3

    def test_path_part_reads_the_legs_off_the_tree(self, del_pezzo):
        cyl = cylinder_in_b(del_pezzo, extend(del_pezzo, family_spine(2, 0, 1, 1)).extended)
        assert cyl.legs == (("o1", "v0"),)
        image = tc.canonical_image(cyl.path_part())
        assert "o1" not in {v.id for v in cyl.path_part().vertices}
        for legs in ((), (("zz", "yy"),)):
            assert tc.canonical_image(tc.CylinderInB(cyl.tree, legs).path_part()) == image

    @given(ds=st.lists(st.integers(-3, 2), min_size=3, max_size=8), cone=st.integers(0, 7),
           d=st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
           family=st.tuples(st.integers(1, 4), st.integers(-2, 2), st.integers(0, 4)),
           which=st.integers(0, 2), k=st.integers(-3, 3).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_shifted_edge_cone_is_refused_and_parses_back(self, ds, cone, d, family,
                                                          which, k):
        # a two-vertex spine on a drawn base, or a family spine's edge
        # `which` on the four-cone base, with its cone moved by k*l
        if which == 2:
            base = build_base(LooijengaPair(ds))
            spine = _two_vertex_spine(base, cone % base.l, *d)
            i = 0
        else:
            l, m, n = family
            base, spine, i = tc.del_pezzo_base(), family_spine(l, m, min(n, l), 1), which
        shifted = _with_edge_cone(spine, i, spine.edges[i].cone + k * base.l)
        with pytest.raises(tc.StructuralError):
            check_structure(base, shifted)
        assert spine_from_json(base, spine_to_json(shifted)) == spine


def _extend_stdout(tmp_path, base, spine):
    """The stdout of `tropcyl extend` on `spine`, and the oracle report's
    `json.dumps(..., sort_keys=True)` line."""
    code, out = _cli_stdout(tmp_path, "extend", base, spine)
    assert code == 0
    expected = json.dumps(oracle_report(base, spine, extend(base, spine)), sort_keys=True)
    return out, expected + "\n"


# ids that `json.dumps` escapes: quotes, backslashes, control, non-ASCII
# and astral characters, and the fresh-id letters and digits, so that a
# drawn id can take the name of a fresh vertex
ESCAPED = st.text(alphabet='"\\\x00\x1f\n\t\x7f\u00e9\u2028\u20ac\ud800'
                           '\U0001f600\U0001d538xo1', min_size=1, max_size=4)


def _two_bend_spine(ids):
    """A spine a - c1 - c2 - b in cone 0 of the degree-7 del Pezzo base,
    bent at c1 and at c2 with outward radial defects: its cylinder has a
    leg at each of c1 and c2."""
    a, c1, c2, b = ids
    eps = F(1, 4)
    point = tc.del_pezzo_base().point
    return make_tree(
        [Vertex(a, point(0, 2 + eps, 1 - eps)), Vertex(c1, point(0, 2, 1)),
         Vertex(c2, point(0, 3, 3)), Vertex(b, point(0, 3 + 2 * eps, 3 + 3 * eps))],
        [make_edge(c1, a, 0, (1, -1), eps), make_edge(c1, c2, 0, (1, 2), 1),
         make_edge(c2, b, 0, (2, 3), eps)],
        (a, b))


class TestExtendReportWriter:
    """`tropcyl extend` writes its report as text, each spine entry
    formatted once for the spine and the cylinder; its stdout is the
    `json.dumps(..., sort_keys=True)` line of the dict report the command
    line built before (`report_oracle`)."""

    def test_criterion_5_spines(self, tmp_path, del_pezzo):
        for l in range(1, 5):
            for n, m, b in product(range(l + 1), range(-2, 3), (F(1), F(3, 2))):
                got, expected = _extend_stdout(tmp_path, del_pezzo,
                                               family_spine(l, m, n, b))
                assert got == expected, (l, m, n, b)

    def test_one_turn_spines(self, tmp_path):
        for k in range(3, 65):
            got, expected = _extend_stdout(tmp_path, *_one_turn_spine(k))
            assert got == expected, k

    # ids between o1 and o2, or below o1, so that the origin vertices and
    # the legs go to different places among the spine's entries
    @pytest.mark.parametrize("ids", [("a", "c1", "c2", "b"), ("a", "o1a", "o1b", "z"),
                                     ("o1b", "o1a", "a", "z"), ("p", "o", "o11", "o1")])
    def test_two_legs(self, tmp_path, ids):
        spine = _two_bend_spine(ids)
        assert len(spine_legs(tc.del_pezzo_base(), spine,
                              extend(tc.del_pezzo_base(), spine).extended)) == 2
        got, expected = _extend_stdout(tmp_path, tc.del_pezzo_base(), spine)
        assert got == expected

    @given(ids=st.lists(ESCAPED, min_size=4, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_escaped_ids(self, tmp_path_factory, ids):
        got, expected = _extend_stdout(tmp_path_factory.mktemp("ids"), tc.del_pezzo_base(),
                                       _two_bend_spine(ids))
        assert got == expected


class TestExtendCompletesOnce:
    """One `tropcyl extend` run checks the structure once, of the input
    spine, and takes direction sums only at the input spine's vertices."""

    @pytest.mark.parametrize("case", ["family", "one-turn"])
    def test_one_structure_check_and_sums_at_spine_vertices(self, monkeypatch, tmp_path,
                                                           capsys, case):
        if case == "family":
            base, spine = tc.del_pezzo_base(), family_spine(2, 0, 2, 1)
        else:
            base, spine = _one_turn_spine(9)
        pair_path, spine_path = tmp_path / "pair.json", tmp_path / "spine.json"
        pair_path.write_text(json.dumps({"self_intersections": list(base.pair.self_intersections)}))
        spine_path.write_text(json.dumps(spine_to_json(spine)))
        checked, summed = [], []
        for module in (tc.spines, tc.extension):
            check, total = module.check_structure, module.direction_sum
            monkeypatch.setattr(module, "check_structure", lambda base, tree, f=check, **kw:
                                checked.append(tree) or f(base, tree, **kw))
            monkeypatch.setattr(module, "direction_sum", lambda base, tree, vid, f=total:
                                summed.append(vid) or f(base, tree, vid))
        assert run(["extend", str(pair_path), str(spine_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert checked == [spine]
        assert summed and set(summed) <= {v.id for v in spine.vertices}
        assert len(summed) == len(spine.vertices)
        assert report["cylinder"]["legs"] == [list(leg) for leg in cylinder_in_b(
            base, extend(base, spine).extended).legs]


class TestLift:
    def test_anchor_and_monotonicity(self, del_pezzo):
        res = extend(del_pezzo, family_spine(1, 0, 1, 1))
        height = dict(lift_to_tilde(del_pezzo, res.extended).heights)
        # the first bounded vertex from the boundary[0] side is the gauge zero
        assert height["v1"] == 0
        assert height["v0"] == F(1, 2)
        assert height["v1"] < height["v0"] < height["v2"]

    def test_two_bounded_vertices_at_distance(self, del_pezzo):
        # with height 10/3 the wall-ward arm spans 5/2 between bounded
        # vertices, so the heights along the path are 0 and 5/2
        res = extend(del_pezzo, family_spine(2, 0, 1, F(10, 3)))
        height = dict(lift_to_tilde(del_pezzo, res.extended).heights)
        assert height["x1"] == 0
        assert height["v1"] == F(5, 2)

    def test_heights_follow_arclength(self, del_pezzo):
        res = extend(del_pezzo, family_spine(2, 0, 1, 1))
        z = lift_to_tilde(del_pezzo, res.extended)
        # telescoping: consecutive path heights differ by the edge length
        tree = z.cylinder.tree
        slope, height = dict(z.slopes), dict(z.heights)
        for e in tree.edges:
            if e.ratio is None or (e.tail, e.head) in set(z.cylinder.legs):
                continue
            dh = height[e.head] - height[e.tail]
            assert dh == slope[(e.tail, e.head)] * e.length

    def test_pi1_balanced_everywhere(self, del_pezzo):
        # the line-coordinate slopes at each bounded vertex sum to zero
        res = extend(del_pezzo, family_spine(3, -1, 2, F(3, 2)))
        z = lift_to_tilde(del_pezzo, res.extended)
        tree = z.cylinder.tree
        slope = dict(z.slopes)
        for v in tree.vertices:
            if v.position is not None:
                assert sum(slope[(e.tail, e.head)] * (1 if v.id == e.tail else -1)
                           for e in tree.incident(v.id)) == 0, v.id

    def test_legs_have_zero_slope(self, del_pezzo):
        res = extend(del_pezzo, family_spine(2, 0, 2, 1))
        z = lift_to_tilde(del_pezzo, res.extended)
        slope = dict(z.slopes)
        for key in z.cylinder.legs:
            assert slope[key] == 0

    def test_ids_before_o1(self, del_pezzo):
        # with v0 renamed c0, the leg runs from its path vertex to o1, and
        # o1 takes the height of c0 as it took that of v0
        ext = extend(del_pezzo, family_spine(2, 0, 1, 1)).extended
        names = {"v0": "c0", "v1": "c1", "v2": "c2"}
        z = lift_to_tilde(del_pezzo, tc.relabel(ext, names))
        assert z.cylinder.legs == (("c0", "o1"),)
        expected = lift_to_tilde(del_pezzo, ext)
        assert dict(z.heights) == {names.get(k, k): h for k, h in expected.heights}
        assert dict(z.slopes) == {tuple(sorted(names.get(x, x) for x in key)): s
                                  for key, s in expected.slopes}

    def test_branched_tree_is_structural(self, del_pezzo):
        # a balanced star: the rays to p and q and an edge to r, whose leg
        # makes a valid cylinder body that is not a path
        tree = make_tree(
            [Vertex("c", del_pezzo.point(0, 2, 2)), Vertex("r", del_pezzo.point(0, 1, 1)),
             Vertex("p", None), Vertex("q", None)],
            [tc.Edge("c", "p", 0, (1, 0), None), tc.Edge("c", "q", 0, (0, 1), None),
             make_edge("c", "r", 0, (-1, -1), 1)],
            ("p", "q"))
        assert len(cylinder_in_b(del_pezzo, tree).legs) == 1
        with pytest.raises(tc.StructuralError,
                           match="^tree is not a path between its boundary$"):
            lift_to_tilde(del_pezzo, tree)


class TestIntegerTrace:
    """The trace scales P to a common integer denominator before the cone
    determinants; the reference computes them in `Fraction`s."""

    def test_grid_matches_fraction_reference(self):
        ts = [F(k, 4) for k in range(-6, 7)] + [F(-7, 3), F(5, 11)]
        for l, m, b, t in product(range(1, 4), range(-3, 4),
                                  (F(3, 2), F(1, 7), F(-2)), ts):
            for n in range(-1, l + 2):
                got = outcome(tropical_trace, l, m, n, b, t)
                assert got == outcome(fraction_tropical_trace, l, m, n, b, t), (
                    l, m, n, b, t)

    @given(l=st.integers(1, 40), m=st.integers(-40, 40), n=st.integers(-5, 45),
           b=st.fractions(-9, 9, max_denominator=50),
           t=st.fractions(-9, 9, max_denominator=50))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, l, m, n, b, t):
        assert outcome(tropical_trace, l, m, n, b, t) == outcome(
            fraction_tropical_trace, l, m, n, b, t)


# the heights of the benchmark's family spines (`HEIGHTS` in perfbench/gen.py)
BENCH_HEIGHTS = (F(1, 2), F(1), F(3, 2), F(7, 3), F(5, 2), F(3), F(11, 4), F(5))


def _family_text(f, *args):
    """`spine_text` of the family spine that `f` builds."""
    return spine_text(f(*args))


class TestIntegerFamilySpine:
    """`family_spine` builds its points and arm lengths as integers over
    qk for b = p/q; the reference computes them in `Fraction`s through the
    checked constructors."""

    def test_grid_matches_fraction_reference(self):
        for l in range(1, 9):
            for m, b in product(range(-4, 5), BENCH_HEIGHTS):
                for n in range(-1, l + 2):
                    got = outcome(_family_text, family_spine, l, m, n, b)
                    assert got[0] == "value"
                    assert got == outcome(_family_text, fraction_family_spine, l, m, n, b), (
                        l, m, n, b)
                    assert family_spine(l, m, n, b) == fraction_family_spine(l, m, n, b)

    @given(l=st.integers(-1, 10 ** 6), m=st.integers(-10 ** 6, 10 ** 6),
           n=st.integers(-10 ** 6, 10 ** 6),
           b=st.integers(-2, 10 ** 60 // 7)
           | st.fractions(F(-1, 7), F(10 ** 60, 7), max_denominator=10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_reference(self, l, m, n, b):
        assert outcome(_family_text, family_spine, l, m, n, b) == outcome(
            _family_text, fraction_family_spine, l, m, n, b)

    @pytest.mark.parametrize("args, error, message", [
        ((2, 0, 1, 0), InvalidArgument, "family needs b > 0, got 0"),
        ((2, 0, 1, F(-7, 3)), InvalidArgument, "family needs b > 0, got -7/3"),
        ((0, 0, 1, 1), InvalidQuery, "family needs l >= 1, got 0"),
        ((True, 0, 1, 1), InvalidArgument,
         "family needs int l, m, n and a rational b, got True, 0, 1, 1"),
        ((2, 0, 1, 0.5), InvalidArgument,
         "family needs int l, m, n and a rational b, got 2, 0, 1, 0.5"),
    ], ids=["b-zero", "b-negative", "l-zero", "l-bool", "b-float"])
    def test_errors_match_fraction_reference(self, args, error, message):
        assert outcome(family_spine, *args) == ("raise", error, message)
        assert outcome(fraction_family_spine, *args) == ("raise", error, message)


class TestTrace:
    def test_center(self, del_pezzo):
        p = tropical_trace(2, 0, 1, 1, 0)
        assert p == del_pezzo.point(1, 1, 0)

    def test_positive_side(self, del_pezzo):
        p = tropical_trace(2, 0, 1, 1, 1)
        assert p == del_pezzo.point(0, 2, 1)

    def test_negative_side_wall_two(self, del_pezzo):
        p = tropical_trace(2, 0, 1, 1, -1)
        assert p == del_pezzo.point(2, 2, 0)

    def test_matches_family_direction_data(self, del_pezzo):
        # small-parameter trace points reproduce the family's arm directions
        l, m, n, b = 3, -1, 2, F(1)
        eps = F(1, 100)
        plus = tropical_trace(l, m, n, b, eps)
        c0 = del_pezzo.coords_in_cone(plus, 0)
        assert c0 == (l * eps, b + m * eps)
        minus = tropical_trace(l, m, n, b, -eps)
        c1 = del_pezzo.coords_in_cone(minus, 1)
        assert c1 == (b + (n - m - l) * eps, l * eps)

    def test_agreement_with_extension(self, del_pezzo):
        for (l, m, n, b) in [(1, 0, 0, F(1)), (2, 2, 1, F(3, 2)),
                             (3, -2, 3, F(1)), (4, 1, 4, F(1, 2))]:
            res = extend(del_pezzo, family_spine(l, m, n, b))
            cyl = cylinder_in_b(del_pezzo, res.extended)
            assert tc.canonical_image(cyl.path_part()) == \
                trace_path_image(l, m, n, b)

    @pytest.mark.parametrize("call", [
        lambda: tropical_trace(2, 0, 1, 1, "x"),
        lambda: tropical_trace(2, 0, 1, 1, 0.5),
        lambda: tropical_trace(2, 0, 1, float("nan"), 0),
        lambda: tropical_trace(2, 0, 1, 1, "1/2"),
        lambda: tropical_trace(2.0, 0, 1, 1, 0),
        lambda: tropical_trace(True, 0, 1, 1, 0),
        lambda: tropical_trace(2, None, 1, 1, 0),
        lambda: family_spine(2, 0, 1, float("inf")),
        lambda: family_spine(2, 0, "1", 1),
        lambda: trace_path_image(2, 0, 1, True),
    ], ids=["t-string", "t-float", "b-nan", "t-str",
            "l-float", "l-bool", "m-none", "b-inf", "n-str", "b-bool"])
    def test_non_exact_arguments_rejected(self, call):
        with pytest.raises(InvalidArgument):
            call()
