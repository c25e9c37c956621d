"""Test-only references for the integer spine path: the transport through
`forward_matrix`, the orientation of an edge at a vertex as one
`TangentVector` (`direction_at`), the direction sum through it, and the
two-pass spine conditions, as the engine computed them before the
outgoing directions were read once per vertex, as plain ints."""

from tropcyl import OriginVertex, StructuralError, TangentVector, WrongHomeCone
from tropcyl.spines import Violation, is_outward_radial


def direction_at(edge, vid):
    """Integer direction of `edge` pointing away from vertex `vid`, in the
    edge's cone: the rule `spines._outgoing` applies before its transport."""
    if vid == edge.tail:
        return TangentVector(edge.cone, edge.direction[0], edge.direction[1])
    if vid == edge.head:
        if edge.is_ray:
            raise StructuralError("rays have no direction at their infinite end")
        return TangentVector(edge.cone, -edge.direction[0], -edge.direction[1])
    raise StructuralError(f"vertex {vid!r} is not an endpoint of the edge")


def matrix_transport(base, vec, wall):
    """`TropicalBase.transport` through `forward_matrix(wall).apply` from
    cone wall-1, and `.inverse()` from cone wall."""
    wall %= base.l
    m = base.forward_matrix(wall)
    if vec.cone == (wall - 1) % base.l:
        return TangentVector(wall, *m.apply(vec.u, vec.v))
    if vec.cone == wall:
        return TangentVector((wall - 1) % base.l, *m.inverse().apply(vec.u, vec.v))
    raise WrongHomeCone(
        f"transport across wall {wall} needs home cone {(wall - 1) % base.l} "
        f"or {wall}, got {vec.cone}")


def _to_canonical_cone(base, pos, vec):
    target = pos.cone
    if vec.cone == target:
        return vec
    if pos.on_wall and (vec.cone + 1) % base.l == target:
        return matrix_transport(base, vec, target)
    raise StructuralError(
        f"edge cone {vec.cone} is not adjacent to the vertex in cone {target}")


def vector_direction_sum(base, tree, vid):
    """`direction_sum`, one `TangentVector` per edge through `direction_at`."""
    pos = tree.position(vid)
    if pos is None:
        raise StructuralError(f"vertex {vid!r} is unbounded")
    if pos.is_origin:
        raise OriginVertex("direction sums are undefined at the origin")
    total_u = total_v = 0
    for e in tree.incident(vid):
        w = _to_canonical_cone(base, pos, direction_at(e, vid))
        total_u += w.u
        total_v += w.v
    return TangentVector(pos.cone, total_u, total_v)


def _is_radial(base, pos, vec) -> bool:
    """Whether +-vec points along the ray from the origin through `pos`:
    u*bn*ad == v*an*bd for the cone coordinates (an/ad, bn/bd) of `pos`
    in the home cone of `vec`."""
    pa, pb = base.coords_in_cone(pos, vec.cone)
    an, ad, bn, bd = pa.numerator, pa.denominator, pb.numerator, pb.denominator
    return vec.u * bn * ad == vec.v * an * bd


def two_pass_spine_conditions(base, tree):
    """`_spine_conditions` as two passes: the radial test of every edge in
    its own cone, then the defect test of every 2-valent vertex."""
    out = []
    for v in tree.vertices:
        if v.position is not None and v.position.is_origin:
            out.append(Violation("origin-image", v.id,
                                 f"vertex {v.id!r} maps to the origin"))
    leaves = {v.id for v in tree.vertices if tree.valency(v.id) == 1}
    if leaves != set(tree.boundary):
        out.append(Violation(
            "leaf-set", ",".join(sorted(leaves)),
            "the 1-valent vertices must be exactly the boundary pair"))
    for v in tree.vertices:
        if v.position is None or v.position.is_origin:
            continue
        for e in tree.incident(v.id):
            if _is_radial(base, v.position, direction_at(e, v.id)):
                out.append(Violation(
                    "radial-direction", v.id,
                    f"edge ({e.tail!r}, {e.head!r}) points along the origin "
                    f"ray at vertex {v.id!r}"))
    for v in tree.vertices:
        if v.position is None or v.position.is_origin:
            continue
        if tree.valency(v.id) != 2:
            continue
        sigma = vector_direction_sum(base, tree, v.id)
        if sigma.is_zero:
            continue
        if not is_outward_radial(base, v.position, sigma):
            out.append(Violation(
                "defect-not-outward", v.id,
                f"2-valent vertex {v.id!r} has direction sum ({sigma.u}, "
                f"{sigma.v}) whose negative does not point to the origin"))
    return out
