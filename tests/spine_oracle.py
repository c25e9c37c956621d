"""Test-only references for the integer spine path: wall crossing as
2x2 integer matrix algebra on plain int 4-tuples (the wall matrix, its
product, inverse and action), the crossing through it
(`matrix_transport`), the orientation of an edge at a vertex as one
(cone, u, v) triple (`direction_at`), the direction sum through it, and
the two-pass spine conditions, as the engine computed them before the
outgoing directions were read once per vertex, as plain ints.  The
matrices share no code with `TropicalBase._cross`, the one wall map of the
engine, and the outward test is the `Fraction` one of `point_oracle`."""

from tropcyl import OriginVertex, StructuralError
from tropcyl.spines import Violation

from point_oracle import fraction_coords_in_cone, fraction_is_outward_radial


def direction_at(base, edge, vid):
    """(cone, u, v): the integer direction of `edge` pointing away from
    vertex `vid`, in the edge's cone read modulo l, the rule
    `spines._outgoing` applies before it crosses a wall."""
    u, v = edge.direction
    if vid == edge.tail:
        return edge.cone % base.l, u, v
    if vid == edge.head:
        if edge.ratio is None:
            raise StructuralError("rays have no direction at their infinite end")
        return edge.cone % base.l, -u, -v
    raise StructuralError(f"vertex {vid!r} is not an endpoint of the edge")


def wall_matrix(d):
    """Row-major (a, b, c, d) of the crossing from cone i-1 into cone i of
    a wall of self-intersection d: [[-d, 1], [-1, 0]]."""
    return (-d, 1, -1, 0)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(m):
    a, b, c, d = m
    return a * d - b * c


def mat_inverse(m):
    """The inverse of a determinant-1 integer matrix."""
    a, b, c, d = m
    assert mat_det(m) == 1
    return (d, -b, -c, a)


def mat_apply(m, u, v):
    a, b, c, d = m
    return (a * u + b * v, c * u + d * v)


def matrix_transport(base, wall, cone, u, v):
    """`TropicalBase._cross(wall, cone, u, v)` through the wall matrix from
    cone wall-1, and through its inverse from cone wall; both cones are
    read modulo l, and `cone` must be one of the two."""
    l = base.l
    wall %= l
    m = wall_matrix(base.pair.self_intersections[wall])
    if cone % l == (wall - 1) % l:
        return (wall, *mat_apply(m, u, v))
    assert cone % l == wall, (wall, cone)
    return ((wall - 1) % l, *mat_apply(mat_inverse(m), u, v))


def vector_direction_sum(base, tree, vid):
    """`direction_sum`: each edge's `direction_at` carried into the
    vertex's canonical cone by `matrix_transport`, then added."""
    pos = tree.vertex(vid).position
    if pos is None:
        raise StructuralError(f"vertex {vid!r} is unbounded")
    if pos.cone is None:
        raise OriginVertex("direction sums are undefined at the origin")
    target = pos.cone
    total_u = total_v = 0
    for e in tree.incident(vid):
        cone, u, v = direction_at(base, e, vid)
        if cone != target:
            if not (pos.B == 0 and (cone + 1) % base.l == target):
                raise StructuralError(
                    f"edge cone {e.cone} is not adjacent to the vertex in cone {target}")
            _, u, v = matrix_transport(base, target, cone, u, v)
        total_u += u
        total_v += v
    return total_u, total_v


def _is_radial(base, pos, cone, u, v) -> bool:
    """Whether +-(u, v), a vector of cone `cone`, points along the ray from
    the origin through `pos`: u*bn*ad == v*an*bd for the cone coordinates
    (an/ad, bn/bd) of `pos` in that cone."""
    pa, pb = fraction_coords_in_cone(base, pos, cone)
    an, ad, bn, bd = pa.numerator, pa.denominator, pb.numerator, pb.denominator
    return u * bn * ad == v * an * bd


def two_pass_spine_conditions(base, tree):
    """`_spine_conditions` as two passes: the radial test of every edge in
    its own cone, then the defect test of every 2-valent vertex."""
    out = []
    for v in tree.vertices:
        if v.position is not None and v.position.cone is None:
            out.append(Violation("origin-image", v.id,
                                 f"vertex {v.id!r} maps to the origin"))
    leaves = {v.id for v in tree.vertices if len(tree.incident(v.id)) == 1}
    if leaves != set(tree.boundary):
        out.append(Violation(
            "leaf-set", ",".join(sorted(leaves)),
            "the 1-valent vertices must be exactly the boundary pair"))
    for v in tree.vertices:
        if v.position is None or v.position.cone is None:
            continue
        for e in tree.incident(v.id):
            if _is_radial(base, v.position, *direction_at(base, e, v.id)):
                out.append(Violation(
                    "radial-direction", v.id,
                    f"edge ({e.tail!r}, {e.head!r}) points along the origin "
                    f"ray at vertex {v.id!r}"))
    for v in tree.vertices:
        if v.position is None or v.position.cone is None:
            continue
        if len(tree.incident(v.id)) != 2:
            continue
        su, sv = vector_direction_sum(base, tree, v.id)
        if (su, sv) == (0, 0):
            continue
        if not fraction_is_outward_radial(base, v.position, v.position.cone, su, sv):
            out.append(Violation(
                "defect-not-outward", v.id,
                f"2-valent vertex {v.id!r} has direction sum ({su}, "
                f"{sv}) whose negative does not point to the origin"))
    return out
