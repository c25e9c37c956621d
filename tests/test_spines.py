from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl import (
    InvalidArgument,
    LooijengaPair,
    OriginVertex,
    StructuralError,
    TangentVector,
    Vertex,
    build_base,
    canonical_image,
    del_pezzo_base,
    images_equal,
    is_balanced,
    make_edge,
    make_tree,
    relabel,
    subdivide_edge,
    validate_spine,
)
from tropcyl.lattice import ORIGIN
from tropcyl.spines import (
    _ends_match,
    _spine_conditions,
    check_structure,
    direction_sum,
    is_outward_radial,
)

from ray_oracle import (
    fraction_ends_match,
    fraction_is_outward_radial,
    fraction_is_radial,
    outcome,
)
from point_oracle import as_ints, lattice_length, split_ends_match
from spine_oracle import (
    _is_radial,
    two_pass_spine_conditions,
    vector_direction_sum,
)

F = Fraction


def two_vertex_spine(base, p_tail, p_head, cone, direction, length):
    return make_tree(
        [Vertex("a", p_tail), Vertex("b", p_head)],
        [make_edge("a", "b", cone, direction, length)],
        ("a", "b"),
    )


def _realize(base, image):
    """Rebuild a mapped tree whose edges are exactly the canonical pieces."""
    points = {}
    vertices = []
    edges = []
    boundary = []

    def point_of(key):
        cone, a, b = key
        return ORIGIN if cone == -1 else base.point(cone, a, b)

    def vid_for(key):
        if key not in points:
            vid = f"p{len(points)}"
            points[key] = vid
            vertices.append(Vertex(vid, point_of(key)))
        return points[key]

    ray_count = 0
    for piece in image.pieces:
        if piece[0] == "seg":
            _, cone, k1, k2 = piece
            t, h = vid_for(k1), vid_for(k2)
            c1 = base.coords_in_cone(point_of(k1), cone)
            c2 = base.coords_in_cone(point_of(k2), cone)
            delta = (c2[0] - c1[0], c2[1] - c1[1])
            length, prim = lattice_length(*delta)
            edges.append(make_edge(t, h, cone, prim, length))
        else:
            _, cone, k, prim = piece
            t = vid_for(k)
            hid = f"inf{ray_count}"
            ray_count += 1
            vertices.append(Vertex(hid, None))
            edges.append(tc.Edge(t, hid, cone, prim, None))
            boundary.append(hid)
    return make_tree(vertices, edges, (boundary[0], boundary[1]))


class TestMakeEdge:
    def test_canonical_tail_and_exact_values(self):
        e = make_edge("b", "a", 1, (1, -2), 3)
        assert e == tc.Edge("a", "b", 1, (-1, 2), F(3))
        assert type(e.length) is Fraction
        # rays keep their bounded tail, whatever the order of the ids
        assert make_edge("b", "a", 1, (1, -2), None) == tc.Edge("b", "a", 1, (1, -2), None)

    @pytest.mark.parametrize("cone, direction, length", [
        (0, (1.5, -2.7), 1), (0, (1, 0.0), 1), (0, (True, 0), 1), (0, (1, False), 1),
        (0, (F(1), 0), 1), (0, ("1", 0), 1), (0, (1, None), 1),
        (0, (1, 0), 0.1), (0, (1, 0), 1.0), (0, (1, 0), True), (0, (1, 0), "1/2"),
        (0, (1, 0), float("nan")), (0.0, (1, 0), 1), (True, (1, 0), 1), (None, (1, 0), 1),
        (0, (1, 0, 0), 1), (0, (1,), 1), (0, None, 1), (0, 7, 1), (0, "10", 1),
    ])
    def test_inexact_values_rejected(self, cone, direction, length):
        with pytest.raises(InvalidArgument):
            make_edge("a", "b", cone, direction, length)

    @pytest.mark.parametrize("direction, length", [((0, 0), 1), ((1, 0), 0), ((1, 0), -1)])
    def test_degenerate_values_left_to_check_structure(self, del_pezzo, direction, length):
        # built as given; the structure check reports them
        e = make_edge("a", "b", 0, direction, length)
        assert (e.direction, e.length) == (direction, length)
        tree = two_vertex_spine(del_pezzo, del_pezzo.point(0, 1, 1),
                                del_pezzo.point(0, 2, 1), 0, direction, length)
        with pytest.raises(StructuralError):
            check_structure(del_pezzo, tree)


class TestOneConstructorPerValue:
    """`TropicalTree`, `Edge` and their old factory names build one
    canonical value, whatever the order or container of the parts."""

    def test_factories_are_the_classes(self):
        assert make_tree is tc.TropicalTree and make_edge is tc.Edge

    def test_edge_from_either_end_is_one_edge(self):
        # the class constructor used to keep the tail as given
        assert tc.Edge("v2", "v0", 0, (-2, 0), 1) == make_edge("v2", "v0", 0, (-2, 0), 1)
        assert tc.Edge("v2", "v0", 0, (-2, 0), 1) == tc.Edge("v0", "v2", 0, (2, 0), 1)

    def test_tree_from_lists_is_canonical_and_keeps_no_list(self, del_pezzo):
        s = tc.family_spine(2, 0, 1, 1)
        vertices, edges = list(s.vertices[::-1]), list(s.edges[::-1])
        tree = tc.TropicalTree(vertices, edges, list(s.boundary))
        # it used to store the lists, so hashing raised a bare TypeError
        assert tree == s and hash(tree) == hash(s)
        assert type(tree.vertices) is type(tree.edges) is type(tree.boundary) is tuple
        # and its id index went stale when the caller changed a list
        vertices.append(Vertex("zz", del_pezzo.point(0, 1, 1)))
        edges.clear()
        assert tree == s and validate_spine(del_pezzo, tree) == []

    def test_edge_lookup_finds_a_ray_from_either_end(self, del_pezzo):
        ext = tc.extend(del_pezzo, tc.family_spine(2, 0, 1, 1)).extended
        rays = [e for e in ext.edges if e.is_ray]
        assert len(rays) == 2
        for ray in rays:
            assert ext.edge(ray.tail, ray.head) is ray and ext.edge(ray.head, ray.tail) is ray


class TestTreeBuilderRejections:
    """`Vertex`, `make_edge` and `make_tree` raise InvalidArgument on
    ill-typed ids, positions and containers, where they used to store them
    or end in a bare TypeError or IndexError."""

    @pytest.mark.parametrize("vid, position", [
        (3, None), (None, None), (("a",), None), (b"a", None),
        ("a", (1, 2)), ("a", 0), ("a", "origin"), ("a", [1, 2]),
    ])
    def test_vertex(self, vid, position):
        with pytest.raises(InvalidArgument):
            Vertex(vid, position)

    def test_vertex_accepts_str_ids_and_points(self):
        for position in (None, ORIGIN, tc.BasePoint(1, F(1, 2))):
            assert Vertex("a", position).position is position

    def test_float_coordinates_never_reach_validation(self, del_pezzo):
        # a float coordinate used to end in a bare AttributeError there
        with pytest.raises(InvalidArgument):
            Vertex("a", tc.BasePoint(0, 2.0, 1))

    @pytest.mark.parametrize("tail, head", [(1, "a"), ("a", 1), (None, "b"), ("a", ("b",))])
    def test_make_edge_ids(self, tail, head):
        with pytest.raises(InvalidArgument):
            make_edge(tail, head, 0, (1, 0), 1)

    @pytest.mark.parametrize("vertices, edges, boundary", [
        (None, [], ("a", "b")), ([], None, ("a", "b")), ("ab", [], ("a", "b")),
        ([1], [], ("a", "b")), ([], [Vertex("a", None)], ("a", "b")),
        ([], [], "a"), ([], [], "ab"), ([], [], ("a",)), ([], [], ("a", "b", "c")),
        ([], [], (1, 2)), ([], [], None), ([], [], {"a": 1, "b": 2}),
    ])
    def test_make_tree(self, vertices, edges, boundary):
        with pytest.raises(InvalidArgument):
            make_tree(vertices, edges, boundary)

    def test_boundary_naming_no_vertex_left_to_check_structure(self, del_pezzo):
        tree = make_tree([], [], ["a", "b"])
        assert tree.boundary == ("a", "b")
        with pytest.raises(StructuralError):
            check_structure(del_pezzo, tree)


class TestStructure:
    def test_endpoint_mismatch(self, del_pezzo):
        bad = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 1)),
             Vertex("b", del_pezzo.point(0, 3, 1))],
            [make_edge("a", "b", 0, (1, 0), 1)],  # length should be 2
            ("a", "b"),
        )
        with pytest.raises(StructuralError):
            validate_spine(del_pezzo, bad)

    def test_zero_length_rejected(self, del_pezzo):
        bad = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 1)),
             Vertex("b", del_pezzo.point(0, 1, 1))],
            [make_edge("a", "b", 0, (1, 0), 0)],
            ("a", "b"),
        )
        with pytest.raises(StructuralError):
            validate_spine(del_pezzo, bad)

    def test_ray_must_stay_in_cone(self, del_pezzo):
        bad = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 1)), Vertex("b", None)],
            [tc.Edge("a", "b", 0, (-1, 2), None)],
            ("a", "b"),
        )
        with pytest.raises(StructuralError):
            check_structure(del_pezzo, bad)

    def test_disconnected_rejected(self, del_pezzo):
        bad = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 1)),
             Vertex("b", del_pezzo.point(0, 2, 1)),
             Vertex("c", del_pezzo.point(0, 3, 1)),
             Vertex("d", del_pezzo.point(0, 4, 1))],
            [make_edge("a", "b", 0, (1, 0), 1), make_edge("c", "d", 0, (1, 0), 1)],
            ("a", "d"),
        )
        with pytest.raises(StructuralError):
            check_structure(del_pezzo, bad)

    @pytest.mark.parametrize("a, b", [(-1, 1), (1, -1), (F(-1, 2), 0)])
    def test_vertex_outside_its_cone_rejected(self, del_pezzo, a, b):
        # BasePoint takes any signs; the edge from it matches its ends
        outside = tc.BasePoint(0, a, b)
        bad = make_tree(
            [Vertex("a", outside), Vertex("b", del_pezzo.point(0, a + 2, b + 2))],
            [make_edge("a", "b", 0, (1, 1), 2)],
            ("a", "b"),
        )
        with pytest.raises(StructuralError, match="outside its cone 0"):
            check_structure(del_pezzo, bad)
        with pytest.raises(StructuralError, match="outside its cone 0"):
            validate_spine(del_pezzo, bad)


def _malformed(base, case):
    a, b = Vertex("a", base.point(0, 1, 1)), Vertex("b", base.point(0, 2, 1))
    ab = make_edge("a", "b", 0, (1, 0), 1)
    if case == "duplicate":
        return make_tree([a, b, Vertex("b", base.point(0, 3, 1))], [ab], ("a", "b"))
    if case == "parallel":
        return make_tree([a, b], [ab, ab], ("a", "b"))
    if case == "antiparallel":
        # `Edge` stores an edge from its canonical tail, so this is the
        # "parallel" tree with its second edge written from the other end
        return make_tree([a, b], [ab, tc.Edge("b", "a", 0, (-1, 0), F(1))], ("a", "b"))
    if case == "missing":
        return make_tree([a, b], [make_edge("a", "c", 0, (1, 0), 1)], ("a", "b"))
    if case == "infinite-2-valent":
        return make_tree([a, b, Vertex("c", base.point(0, 3, 1)), Vertex("x", None)],
                         [tc.Edge("a", "x", 0, (0, 1), None),
                          tc.Edge("b", "x", 0, (0, 1), None)],
                         ("a", "c"))
    # a triangle and a lone vertex: n - 1 edges, but not connected
    return make_tree([a, b, Vertex("c", base.point(0, 2, 2)),
                      Vertex("d", base.point(0, 3, 3))],
                     [ab, make_edge("b", "c", 0, (0, 1), 1),
                      make_edge("a", "c", 0, (1, 1), 1)],
                     ("a", "d"))


class TestIndexedStructure:
    @pytest.mark.parametrize("case, message", [
        ("duplicate", "duplicate vertex ids"),
        ("parallel", "parallel edges"),
        ("antiparallel", "parallel edges"),
        ("missing", "references missing vertex"),
        ("infinite-2-valent", "must be 1-valent"),
        ("cycle", "not connected"),
    ])
    def test_rejected_with_reason(self, del_pezzo, case, message):
        with pytest.raises(StructuralError, match=message):
            check_structure(del_pezzo, _malformed(del_pezzo, case))

    def test_lookups(self, del_pezzo):
        s = tc.family_spine(2, 0, 1, 1)
        assert s.edge("v2", "v0") is s.edge("v0", "v2")
        assert "v1" in s and "x1" not in s
        assert [e.head for e in s.incident("v0")] == ["v1", "v2"]
        with pytest.raises(StructuralError):
            s.edge("v1", "v2")
        with pytest.raises(StructuralError):
            s.vertex("x1")
        # the index takes no part in equality or hashing
        copy = make_tree(s.vertices, s.edges, s.boundary)
        assert copy == s and hash(copy) == hash(s)


class TestValidation:
    def test_family_spine_valid(self, del_pezzo):
        s = tc.family_spine(2, 0, 1, 1)
        assert validate_spine(del_pezzo, s) == []
        # the 2-valent defect points outward along the wall
        sigma = direction_sum(del_pezzo, s, "v0")
        assert (sigma.cone, sigma.u, sigma.v) == (1, 1, 0)

    def test_origin_vertex_violates(self, del_pezzo):
        s = two_vertex_spine(del_pezzo, ORIGIN, del_pezzo.point(0, 1, 1),
                             0, (1, 1), 1)
        codes = {v.code for v in validate_spine(del_pezzo, s)}
        assert "origin-image" in codes

    def test_origin_vertex_is_structurally_sound(self, del_pezzo):
        # the structure check accepts it; the spine conditions report it
        s = two_vertex_spine(del_pezzo, del_pezzo.point(0, 1, 2), ORIGIN,
                             0, (-1, -2), 1)
        check_structure(del_pezzo, s)
        assert [(v.code, v.where) for v in validate_spine(del_pezzo, s)
                if v.code == "origin-image"] == [("origin-image", "b")]

    def test_radial_direction_violates(self, del_pezzo):
        s = two_vertex_spine(del_pezzo, del_pezzo.point(0, 1, 1),
                             del_pezzo.point(0, 2, 2), 0, (1, 1), 1)
        codes = {v.code for v in validate_spine(del_pezzo, s)}
        assert "radial-direction" in codes

    def test_inward_defect_violates(self, del_pezzo):
        # n = -1 family data: the 2-valent sum points into the origin
        s = tc.family_spine(2, 0, -1, 1)
        codes = {v.code for v in validate_spine(del_pezzo, s)}
        assert "defect-not-outward" in codes

    def test_extra_leaf_violates(self, del_pezzo):
        s = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 2)),
             Vertex("b", del_pezzo.point(0, 2, 2)),
             Vertex("c", del_pezzo.point(0, 2, 4))],
            [make_edge("a", "b", 0, (1, 0), 1),
             make_edge("b", "c", 0, (0, 1), 2)],
            ("a", "b"),
        )
        codes = {v.code for v in validate_spine(del_pezzo, s)}
        assert "leaf-set" in codes


class TestBalancing:
    def test_opposite_pair(self, del_pezzo):
        s = two_vertex_spine(del_pezzo, del_pezzo.point(0, 1, 2),
                             del_pezzo.point(0, 2, 4), 0, (1, 2), 1)
        mid = subdivide_edge(del_pezzo, s, ("a", "b"), F(1, 2), "m")
        assert is_balanced(del_pezzo, mid, "m")

    def test_three_way(self, del_pezzo):
        center = del_pezzo.point(0, 2, 2)
        tree = make_tree(
            [Vertex("c", center),
             Vertex("p", del_pezzo.point(0, 3, 2)),
             Vertex("q", del_pezzo.point(0, 2, 3)),
             Vertex("r", del_pezzo.point(0, 1, 1))],
            [make_edge("c", "p", 0, (1, 0), 1),
             make_edge("c", "q", 0, (0, 1), 1),
             make_edge("c", "r", 0, (-1, -1), 1)],
            ("p", "q"),
        )
        assert is_balanced(del_pezzo, tree, "c")

    def test_unbalanced(self, del_pezzo):
        s = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 2)),
             Vertex("b", del_pezzo.point(0, 2, 2)),
             Vertex("c", del_pezzo.point(0, 2, 3))],
            [make_edge("a", "b", 0, (1, 0), 1),
             make_edge("b", "c", 0, (0, 1), 1)],
            ("a", "c"),
        )
        assert not is_balanced(del_pezzo, s, "b")

    def test_wall_vertex_balancing_uses_transport(self, del_pezzo):
        # straight crossing of wall 0: incident edges live in cones 0 and 3,
        # and the sum vanishes only after transport to the canonical cone
        w = del_pezzo.point(0, 2, 0)
        tree = make_tree(
            [Vertex("b", del_pezzo.point(0, 1, F(1, 2))),
             Vertex("w", w),
             Vertex("a", del_pezzo.point(3, 1, 4))],
            [make_edge("b", "w", 0, (2, -1), F(1, 2)),
             make_edge("w", "a", 3, (1, 2), 1)],
            ("b", "a"),
        )
        assert is_balanced(del_pezzo, tree, "w")

    def test_edge_cones_count_modulo_l(self, del_pezzo):
        # cones 4 and 7 are cones 0 and 3 of the four-cone base, as in
        # coords_in_cone and the ray cast
        tree = make_tree(
            [Vertex("b", del_pezzo.point(0, 1, F(1, 2))),
             Vertex("w", del_pezzo.point(0, 2, 0)),
             Vertex("a", del_pezzo.point(3, 1, 4))],
            [make_edge("b", "w", 4, (2, -1), F(1, 2)),
             make_edge("w", "a", 7, (1, 2), 1)],
            ("b", "a"),
        )
        assert is_balanced(del_pezzo, tree, "w")
        assert direction_sum(del_pezzo, tree, "b") == TangentVector(0, 2, -1)
        assert validate_spine(del_pezzo, tree) == []

    def test_wall_vertex_unbalanced(self, del_pezzo):
        w = del_pezzo.point(0, 2, 0)
        tree = make_tree(
            [Vertex("b", del_pezzo.point(0, 1, F(1, 2))),
             Vertex("w", w),
             Vertex("a", del_pezzo.point(3, 1, 3))],
            [make_edge("b", "w", 0, (2, -1), F(1, 2)),
             make_edge("w", "a", 3, (1, 1), 1)],
            ("b", "a"),
        )
        assert not is_balanced(del_pezzo, tree, "w")

    def test_origin_rejected(self, del_pezzo):
        tree = make_tree(
            [Vertex("o", ORIGIN), Vertex("b", del_pezzo.point(0, 1, 1))],
            [make_edge("o", "b", 0, (1, 1), 1)],
            ("o", "b"),
        )
        with pytest.raises(OriginVertex):
            is_balanced(del_pezzo, tree, "o")


class TestCanonicalImage:
    def test_subdivision_invariant(self, del_pezzo):
        s = tc.family_spine(3, 1, 2, 1)
        sub = subdivide_edge(del_pezzo, s, ("v0", "v2"), F(1, 3))
        assert images_equal(s, sub)
        assert canonical_image(s) == canonical_image(sub)

    def test_relabel_invariant(self, del_pezzo):
        s = tc.family_spine(2, -1, 1, F(3, 2))
        r = relabel(s, {"v0": "zz_center", "v1": "aa", "v2": "mm"})
        assert images_equal(s, r)

    def test_orientation_swap_invariant(self, del_pezzo):
        s = tc.family_spine(2, 0, 1, 1)
        swapped = make_tree(s.vertices, s.edges, (s.boundary[1], s.boundary[0]))
        assert images_equal(s, swapped)

    def test_perturbation_changes_image(self, del_pezzo):
        s = tc.family_spine(2, 0, 1, 1)
        t = tc.family_spine(2, 0, 1, F(8, 7))
        assert not images_equal(s, t)

    def test_distinct_parameters_differ(self, del_pezzo):
        assert not images_equal(tc.family_spine(2, 0, 1, 1),
                                tc.family_spine(2, 0, 2, 1))

    def test_ray_into_a_bounded_vertex_is_structural(self, del_pezzo):
        # the ray (c, b) ends at the bounded 2-valent vertex b, so it has no
        # direction there: the orientation rule of `_outgoing` refuses it
        tree = make_tree(
            [Vertex("a", del_pezzo.point(0, 1, 1)), Vertex("b", del_pezzo.point(0, 2, 1)),
             Vertex("c", del_pezzo.point(0, 3, 1))],
            [make_edge("a", "b", 0, (1, 0), 1), make_edge("c", "b", 0, (-1, 0), None)],
            ("a", "c"),
        )
        with pytest.raises(StructuralError, match="infinite end"):
            canonical_image(tree)

    def test_idempotent_on_realization(self, del_pezzo):
        # realize the canonical pieces as a fresh tree, canonicalize again
        for (l, m, n) in [(2, -1, 1), (1, 0, 1), (3, 2, 0), (4, -2, 3)]:
            res = tc.extend(del_pezzo, tc.family_spine(l, m, n, 1))
            cyl = tc.cylinder_in_b(del_pezzo, res.extended)
            img = canonical_image(cyl.path_part())
            assert canonical_image(_realize(del_pezzo, img)) == img


class TestCanonicalImageOnePass:
    @settings(max_examples=25, deadline=1000)
    @given(l=st.integers(1, 6), m=st.integers(-3, 3), data=st.data())
    def test_invariant_under_subdivision_chains(self, l, m, data):
        base = del_pezzo_base()
        n = data.draw(st.integers(0, l))
        res = tc.extend(base, tc.family_spine(l, m, n, 1))
        tree = tc.cylinder_in_b(base, res.extended).tree
        image = canonical_image(tree)
        for _ in range(data.draw(st.integers(1, 5))):
            e = data.draw(st.sampled_from([e for e in tree.edges if not e.is_ray]))
            t = F(data.draw(st.integers(1, 8)), 9)
            tree = subdivide_edge(base, tree, (e.tail, e.head), t)
        assert canonical_image(tree) == image


class TestValidateInvariance:
    def test_relabel_and_subdivision_preserve_verdict(self, del_pezzo):
        valid = tc.family_spine(3, -1, 2, 1)
        assert validate_spine(del_pezzo, valid) == []
        sub = subdivide_edge(del_pezzo, valid, ("v0", "v2"), F(2, 5))
        assert validate_spine(del_pezzo, sub) == []
        rel = relabel(sub, {"v0": "center", "v2": "arm"})
        assert validate_spine(del_pezzo, rel) == []

        invalid = tc.family_spine(2, 0, -1, 1)  # inward defect at v0
        codes = {v.code for v in validate_spine(del_pezzo, invalid)}
        rel_bad = relabel(invalid, {"v0": "w", "v1": "p", "v2": "q"})
        assert {v.code for v in validate_spine(del_pezzo, rel_bad)} == codes


COORDS = (F(0), F(1, 3), F(1, 2), F(1), F(2), F(7, 5))
STEPS = range(-3, 4)


def _ratio(length):
    """The (N, D) of `Edge.ratio` for a `Fraction` length."""
    return (length.numerator, length.denominator)


class TestIntegerChecks:
    """The endpoint test and the two radial tests compare integer
    numerators; each agrees with its `Fraction` form in `ray_oracle`
    (`_is_radial` is the edge-cone test of the two-pass reference in
    `spine_oracle`)."""

    def test_endpoint_grid_matches_fraction_reference(self):
        verdicts = set()
        lengths = (F(1, 3), F(1, 2), F(1), F(7, 5), F(3))
        for ta, tb, length in product(COORDS, COORDS, lengths):
            tail = (ta, tb)
            for d in product(STEPS, STEPS):
                end = (ta + length * d[0], tb + length * d[1])
                # the true endpoint, nudges of each coordinate, and the tail
                for head in (end, (end[0] + F(1, 6), end[1]),
                             (end[0], end[1] - F(1, 3)), tail):
                    got = _ends_match(as_ints(tail), as_ints(head), _ratio(length), d)
                    assert got == fraction_ends_match(tail, head, length, d), (
                        tail, head, length, d)
                    assert got == split_ends_match(tail, head, length, d)
                    verdicts.add(got)
        assert verdicts == {True, False}

    @given(t=st.tuples(st.fractions(-5, 5, max_denominator=40),
                       st.fractions(-5, 5, max_denominator=40)),
           h=st.tuples(st.fractions(-5, 5, max_denominator=40),
                       st.fractions(-5, 5, max_denominator=40)),
           length=st.fractions(0, 6, max_denominator=40).filter(bool),
           d=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
           exact=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_endpoint_matches_fraction_reference(self, t, h, length, d, exact):
        if exact:  # half the draws put the head where the edge ends
            h = (t[0] + length * d[0], t[1] + length * d[1])
        got = _ends_match(as_ints(t), as_ints(h), _ratio(length), d)
        assert got == fraction_ends_match(t, h, length, d)
        assert got == split_ends_match(t, h, length, d)

    @pytest.mark.parametrize("ds", [(0, -1, 0, 0), (-2, -2, -2, -2), (-1, -2, -3)])
    def test_radial_grid_matches_fraction_reference(self, ds):
        base = build_base(LooijengaPair(ds))
        verdicts = set()
        for cone, a, b in product(range(base.l), COORDS, COORDS):
            pos = base.point(cone, a, b)
            # vectors homed in the point's cone and the one before it,
            # which sees only wall points (other starts raise alike)
            for home, u, v in product((cone - 1, cone), STEPS, STEPS):
                vec = TangentVector(home, u, v)
                for engine, reference in ((_is_radial, fraction_is_radial),
                                          (is_outward_radial,
                                           fraction_is_outward_radial)):
                    got = outcome(engine, base, pos, vec)
                    assert got == outcome(reference, base, pos, vec), (pos, vec)
                    verdicts.add(got[1])
        assert {True, False, TypeError} <= verdicts

    @given(ds=st.lists(st.integers(-3, 1), min_size=3, max_size=6),
           cone=st.integers(0, 5),
           a=st.fractions(0, 10, max_denominator=30),
           b=st.fractions(0, 10, max_denominator=30),
           u=st.integers(-12, 12), v=st.integers(-12, 12), radial=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_radial_matches_fraction_reference(self, ds, cone, a, b, u, v, radial):
        base = build_base(LooijengaPair(ds))
        pos = base.point(cone, a, b)
        if radial and not pos.is_origin:
            # a multiple of the point's own coordinates, to hit the equality
            pa, pb = base.coords_in_cone(pos, cone)
            g = pa.denominator * pb.denominator
            u, v = int(pa * g) * u, int(pb * g) * u
        vec = TangentVector(cone, u, v)
        assert outcome(_is_radial, base, pos, vec) == outcome(
            fraction_is_radial, base, pos, vec)
        assert outcome(is_outward_radial, base, pos, vec) == outcome(
            fraction_is_outward_radial, base, pos, vec)


# ---------------------------------------------------------------------------
# the one-pass integer spine checks against the two-pass reference

ORACLE_PAIRS = ((0, -1, 0, 0), (-2, -2, -2, -2), (-1, -2, -3))
ARM = F(1, 4)


def _agree(base, tree):
    """Codes of the spine violations of the structurally sound `tree`,
    after checking that the one-pass conditions and every direction sum
    match the two-pass reference: equal values in the same order, or the
    same error."""
    check_structure(base, tree)
    got = outcome(_spine_conditions, base, tree)
    assert got == outcome(two_pass_spine_conditions, base, tree), tree
    for v in tree.vertices:
        assert outcome(direction_sum, base, tree, v.id) == outcome(
            vector_direction_sum, base, tree, v.id), (tree, v.id)
    return [x.code for x in got[1]]


def _prefixes(base, spine, steps):
    """`spine` and the bounded spines met extending it one step at a time,
    at an end that does not finish, for up to `steps` steps."""
    out = [spine]
    for _ in range(steps):
        for end in spine.boundary:
            longer, _, finished = tc.extend_step(base, spine, end)
            if not finished:
                spine = longer
                out.append(spine)
                break
        else:
            break
    return out


def _one_turn(k):
    base = build_base(LooijengaPair((-2,) * (k - 1) + (-1,)))
    return base, two_vertex_spine(base, base.point(0, 2, 1), base.point(0, 1, 1),
                                  0, (-1, 0), 1)


def _star(base, cone, a, b, arms):
    """Spine with centre (a, b) of `cone` and an arm of length 1/4 per
    (below, u, v): direction (u, v) in the centre's canonical cone, or in
    the cone below it when `below` and the centre is on a wall.  The first
    two arm ends are the boundary; None if an arm leaves its cone."""
    centre = base.point(cone, a, b)
    vertices, edges = [Vertex("c", centre)], []
    for i, (below, u, v) in enumerate(arms):
        home = centre.cone - 1 if below and centre.on_wall else centre.cone
        pa, pb = base.coords_in_cone(centre, home)
        qa, qb = pa + ARM * u, pb + ARM * v
        if qa < 0 or qb < 0 or (u, v) == (0, 0):
            return None
        vertices.append(Vertex(f"p{i}", base.point(home, qa, qb)))
        edges.append(make_edge("c", f"p{i}", home % base.l, (u, v), ARM))
    return make_tree(vertices, edges, ("p0", "p1"))


STAR_CENTRES = ((1, F(1), F(0)), (0, F(1), F(1)), (0, F(2), F(1)), (2, F(3, 2), F(0)))
STAR_DIRECTIONS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (2, 1),
                   (1, -2), (-1, 2), (-2, -1))


class TestOnePassSpineChecks:
    """`_spine_conditions` reads each vertex's outgoing directions once, as
    ints in its canonical cone; `direction_sum` adds the same ints.  Both
    agree with the two-pass, one-`TangentVector`-per-edge reference."""

    def test_family_spines(self, del_pezzo):
        codes = set()
        for l, m, b in product(range(1, 7), range(-3, 4), (F(1), F(3, 2))):
            for n in range(-2, l + 3):  # n outside 0..l: inward defects
                spine = tc.family_spine(l, m, n, b)
                found = _agree(del_pezzo, spine)
                codes.update(found)
                if not found:
                    _agree(del_pezzo, tc.extend(del_pezzo, spine).extended)
        assert codes == {"defect-not-outward"}

    def test_one_turn_spines(self):
        for k in range(3, 17):
            base, spine = _one_turn(k)
            for tree in _prefixes(base, spine, k + 2):
                assert _agree(base, tree) == [], k
            assert _agree(base, tc.extend(base, spine).extended) == [], k

    def test_spiral_prefixes(self, all_minus_two):
        for cone in range(4):
            spine = two_vertex_spine(all_minus_two, all_minus_two.point(cone, 2, 1),
                                     all_minus_two.point(cone, 1, 1), cone, (-1, 0), 1)
            prefixes = _prefixes(all_minus_two, spine, 40)
            assert len(prefixes) == 41
            for tree in prefixes:
                assert _agree(all_minus_two, tree) == []

    @pytest.mark.parametrize("ds", ORACLE_PAIRS)
    def test_star_grid(self, ds):
        # every pair of arm directions at wall and interior centres, some
        # with a third arm: radial arms, inward and sideways defects
        base = build_base(LooijengaPair(ds))
        codes = set()
        arms = [(below, *d) for below in (False, True) for d in STAR_DIRECTIONS]
        for (cone, a, b), first, second in product(STAR_CENTRES, arms, arms):
            if b and (first[0] or second[0]):
                continue  # off a wall, "below" is the centre's own cone
            for extra in ((), (arms[0],)):
                tree = _star(base, cone, a, b, (first, second, *extra))
                if tree is not None:
                    codes.update(_agree(base, tree))
        assert {"radial-direction", "defect-not-outward", "leaf-set"} <= codes

    @given(ds=st.sampled_from(ORACLE_PAIRS), cone=st.integers(0, 5),
           a=st.fractions(F(1, 2), 4, max_denominator=6),
           on_wall=st.booleans(),
           b=st.fractions(F(1, 2), 4, max_denominator=6),
           arms=st.lists(st.tuples(st.booleans(), st.integers(-3, 3),
                                   st.integers(-3, 3)), min_size=2, max_size=3),
           radial=st.integers(-2, 2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_nudged_and_subdivided(self, ds, cone, a, on_wall, b, arms, radial,
                                   data):
        base = build_base(LooijengaPair(ds))
        b = F(0) if on_wall else b
        if radial:  # the first arm along the origin ray through the centre
            arms[0] = (False, radial * a.numerator * b.denominator,
                       radial * b.numerator * a.denominator)
        tree = _star(base, cone, a, b, arms)
        if tree is None:
            return
        for _ in range(data.draw(st.integers(0, 3))):
            e = data.draw(st.sampled_from(tree.edges))
            t = F(data.draw(st.integers(1, 4)), 5)
            tree = subdivide_edge(base, tree, (e.tail, e.head), t)
        _agree(base, tree)
