"""The paper's pipeline as one property over random pairs and random valid
spines: validate, extend, complete to a cylinder, lift, and take the
canonical image.

A spine is drawn on a pair of l = 3..6 entries in [-4, 1]: a centre c at
an integer point inside a random cone, and two primitive arms f1, f2 whose
sum is a positive multiple of c, so that the centre's defect points away
from the origin.  The ends sit at c + f_i / H with H = 2 max |f_i|, inside
the same cone, and `subdivide_edge` adds more vertices.  Draws that
`validate_spine` refuses (an arm along the origin ray) are skipped."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl import (
    LooijengaPair,
    NotExtendable,
    Vertex,
    build_base,
    canonical_image,
    cylinder_in_b,
    extend,
    lift_to_tilde,
    make_edge,
    make_tree,
    relabel,
    subdivide_edge,
    validate_cylinder_b,
    validate_extended_spine,
    validate_spine,
)

from point_oracle import fraction_coords_in_cone, fraction_point, image_atoms
from ray_oracle import eager_extend, outcome

F = Fraction
# large enough that most finite ends finish, small enough that an eager
# cast of an endless end stays cheap
BUDGET = 60
# a primitive integer direction
ARM = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda f: gcd(*f) == 1)


@st.composite
def spines(draw):
    """(base, spine): the centre spine of the module docstring, with up to
    three subdivisions; the spine may be invalid."""
    ds = draw(st.lists(st.integers(-4, 1), min_size=3, max_size=6))
    base = build_base(LooijengaPair(tuple(ds)))
    cone = draw(st.integers(0, base.l - 1))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p, q = draw(ARM)
    # the first multiple k c, from a random k, that leaves a primitive f2
    k = next((k for k in range(draw(st.integers(1, 3)), 9)
              if gcd(k * a - p, k * b - q) == 1), None)
    if k is None:
        return base, None
    arms = ((p, q), (k * a - p, k * b - q))
    h = 2 * max(abs(x) for arm in arms for x in arm)
    vertices = [Vertex("c", base.point(cone, a, b))]
    edges = []
    for i, (u, v) in enumerate(arms, 1):
        vertices.append(Vertex(f"e{i}", base.point(cone, a + F(u, h), b + F(v, h))))
        edges.append(make_edge("c", f"e{i}", cone, (u, v), F(1, h)))
    spine = make_tree(vertices, edges, ("e1", "e2"))
    for _ in range(draw(st.integers(0, 3))):
        spine = _subdivided(draw, base, spine)
    return base, spine


def _subdivided(draw, base, tree):
    """`tree` with one bounded edge split at a random parameter, after
    checking the new vertex against the `Fraction` placement."""
    e = draw(st.sampled_from([e for e in tree.edges if e.ratio is not None]))
    t = F(draw(st.integers(1, 6)), 7)
    out = subdivide_edge(base, tree, (e.tail, e.head), t)
    (fresh,) = {v.id for v in out.vertices} - {v.id for v in tree.vertices}
    ta, tb = fraction_coords_in_cone(base, tree.vertex(e.tail).position, e.cone)
    (du, dv), step = e.direction, t * e.length
    assert out.vertex(fresh).position == fraction_point(
        base, e.cone, ta + step * du, tb + step * dv), (tree, e, t)
    return out


def _lift_is_balanced(lifted) -> bool:
    """Whether the line-coordinate slopes at each bounded vertex sum to 0."""
    tree = lifted.cylinder.tree
    slope = dict(lifted.slopes)
    return all(sum(slope[(e.tail, e.head)] * (1 if v.id == e.tail else -1)
                   for e in tree.incident(v.id)) == 0
               for v in tree.vertices if v.position is not None)


class TestPipeline:
    @settings(max_examples=200, deadline=None)
    @given(drawn=spines(), data=st.data())
    def test_valid_spines_extend_to_valid_cylinders(self, drawn, data):
        base, spine = drawn
        if spine is None or validate_spine(base, spine):
            return
        got = outcome(extend, base, spine, BUDGET)
        # the curve class and the extended tree of the reference cast
        assert got == outcome(eager_extend, base, spine, BUDGET), spine
        if got[0] == "raise":
            assert got[1] is NotExtendable, got
            return
        ext = got[1].extended
        assert validate_extended_spine(base, ext) == []
        cyl = cylinder_in_b(base, ext)
        assert validate_cylinder_b(base, cyl) == []
        assert _lift_is_balanced(lift_to_tilde(base, ext))
        for tree in (cyl.tree, cyl.path_part()):
            image = canonical_image(tree)
            assert set(map(type, image_atoms(image))) <= {int, str}, image
            other = relabel(_subdivided(data.draw, base, tree),
                            {v.id: f"r{i}" for i, v in enumerate(tree.vertices)})
            assert canonical_image(other) == image
