"""Spine extension: ray casting in the base, curve-class bookkeeping,
cylinder completion, and the explicit degree-7 del Pezzo trace family.

Extension shoots a ray out of each spine end, opposite to the boundary
edge.  A ray that stays inside a cone forever finishes that end with an
unbounded edge; a ray that reaches a wall adds a new bounded vertex there,
records a boundary-divisor multiple (the wedge of the crossing direction
with the wall ray), and continues on the other side.

Cylinder completion hangs a leg down to the origin from every vertex whose
direction sum is nonzero; the sum must be a positive radial multiple
(`_legs` is the one leg rule).  `cylinder_in_b` is the checked completion
of an arbitrary tree: it runs `check_structure` and takes a direction sum
at every vertex.  After `extend`, legs hang only from the input spine's
vertices, because every vertex a cast adds is 2-valent and balanced (the
contract of `extend_step`); `spine_legs` completes there, without a second
structure check, and is what the command line uses.  New vertices take the
first free ids x1, x2, ... and leg ends o1, o2, ..., by the one naming rule
`spines._unused_ids`.

The trace family has two independent readings: `tropical_trace` gives the
point of the trace at one parameter value, and `trace_path_image` clips
the whole path into canonical pieces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

from .errors import (
    DegenerateRay,
    HitOrigin,
    InvalidArgument,
    InvalidQuery,
    NotExtendable,
    StructuralError,
    UnbalancedNonRadial,
    brief,
    brief_rational,
)
from .lattice import (
    ORIGIN,
    ZERO,
    BasePoint,
    CurveClass,
    LooijengaPair,
    TropicalBase,
    _base_point,
    _curve_class,
    _endless_rays,
    _over_lcm,
    _set,
    build_base,
    develop,
    is_int,
    is_rational,
    primitive_part,
    value_class,
)
from .spines import (
    CylinderInB,
    CylinderInBTilde,
    Edge,
    TropicalTree,
    Vertex,
    check_structure,
    direction_sum,
    is_outward_radial,
    validate_spine,
    _check_id,
    _check_objects,
    _edge,
    _outgoing,
    _point_key,
    _unused_ids,
    _vertex,
)

DEL_PEZZO_PAIR = (0, -1, 0, 0)


@cache
def del_pezzo_base() -> TropicalBase:
    """The four-cone base used by the explicit count family, built once
    (a `TropicalBase` is frozen, so every caller may share it)."""
    return build_base(LooijengaPair(DEL_PEZZO_PAIR))


# ---------------------------------------------------------------------------
# ray tracing


def _trace(base: TropicalBase, start: BasePoint, cone: int, u: int, v: int):
    """Cast one straight ray inside the base, on plain values.

    Follows the ray from `start` with direction (u, v) in cone `cone` and
    returns (kind, cone, u, v, wall, point, length).  The kind is "wall"
    for the first wall hit strictly after the start, "unbounded" if the
    ray stays inside the open cone, or "origin" if it runs exactly into the
    origin.  Then come the cone the ray actually runs through and its
    direction there, then the wall hit, the hit point and the parameter
    length as the coprime integers (N, D) of `Edge.ratio`, all three None
    unless kind is "wall".  A wall start is first carried across the wall
    the ray enters, by `TropicalBase._cross`.

    The start's cone coordinates are read as integers (a/q, b/q), so the
    wall parameters ta = a/(q*-u) and tb = b/(q*-v) are compared by the
    cross-multiplied b*u - a*v.  The hit lies strictly inside its wall, at
    N/D for integers N, D, so it is built directly, with one gcd, as the
    canonical `BasePoint` (wall, N/g, 0, D/g) that `TropicalBase.point`
    would return; the length is reduced with one more gcd.

    Precondition: `start` is off the origin, in the closed cone `cone`,
    0 <= cone < l, and a = 0 only if u < 0.  `_cast`, the one caller,
    starts from `_end_state`, whose end has a > 0 in its own cone, or from
    the last hit, on a wall of the cone the ray ran through (a = 0 only on
    its second wall, which the ray left with u < 0).
    """
    if u == 0 and v == 0:
        raise DegenerateRay("ray direction is zero")
    l = base.l
    a, b, q = base._coords(start, cone)

    if b == 0 and v == 0:
        raise DegenerateRay(f"direction runs along wall {brief(cone)}")

    if b == 0 and v < 0:
        # start on the cone's first wall, pointing across it: backward
        cone, u, v = base._cross(cone, cone, u, v)
        a, b = 0, a
    elif a == 0 and u < 0:
        # start on the cone's second wall, pointing across it: forward
        cone, u, v = base._cross(cone + 1, cone, u, v)
        a, b = b, 0

    if u >= 0 and v >= 0:
        return "unbounded", cone, u, v, None, None, None
    if u < 0 and v < 0:
        # ta - tb, scaled by the positive q*(-u)*(-v)
        cross = b * u - a * v
        if cross == 0:
            return "origin", cone, u, v, None, None, None
        ta_first = cross < 0
    else:
        ta_first = u < 0
    if ta_first:
        # out through the second wall, at b/q + ta*v, stored on that wall
        den = q * -u
        num = b * -u + a * v
        g = gcd(num, den)
        h = gcd(a, den)
        wall = (cone + 1) % l
        return ("wall", cone, u, v, wall, _base_point(wall, num // g, 0, den // g),
                (a // h, den // h))
    # out through the first wall, at a/q + tb*u
    den = q * -v
    num = a * -v + b * u
    g = gcd(num, den)
    h = gcd(b, den)
    return ("wall", cone, u, v, cone, _base_point(cone, num // g, 0, den // g),
            (b // h, den // h))


# ---------------------------------------------------------------------------
# extension


@value_class("extended", "curve_class", "steps")
class ExtensionResult:
    """Extended spine plus the total boundary class picked up on the way.

    Raises InvalidArgument unless `extended` is a `TropicalTree`,
    `curve_class` a `CurveClass` and `steps` an int (see `is_int`).
    """

    __slots__ = ("extended", "curve_class", "steps")

    def __init__(self, extended: TropicalTree, curve_class: CurveClass, steps: int):
        if not (isinstance(extended, TropicalTree) and isinstance(curve_class, CurveClass)
                and is_int(steps)):
            raise InvalidArgument(
                f"extension result needs a TropicalTree, a CurveClass and an int, got "
                f"{brief(extended)}, {brief(curve_class)}, {brief(steps)}")
        _set(self, "extended", extended)
        _set(self, "curve_class", curve_class)
        _set(self, "steps", steps)


def _end_state(base: TropicalBase, tree: TropicalTree, end: str):
    """(id, position, cone, u, v) of the bounded 1-valent end `end`: its
    outgoing ray is (u, v), the negated edge direction of `_outgoing`, in
    the end's canonical cone `cone`.

    A `BasePoint` built by hand may name a cone outside 0..l-1 or keep a
    wall point in its lower cone (A = 0); that end is refused as
    `check_structure` refuses it, so every cast starts in its cone, A > 0."""
    pos = tree.position(end)
    if pos is None:
        raise StructuralError(f"cannot extend at unbounded vertex {brief(end)}")
    if tree.valency(end) != 1:
        raise StructuralError(f"vertex {brief(end)} is not a 1-valent end")
    if pos.is_origin:
        raise DegenerateRay("ray starts at the origin")
    ((edge, u, v),) = _outgoing(base, tree, end, pos)
    if not 0 <= pos.cone < base.l or pos.A <= 0 or pos.B < 0:
        raise StructuralError(
            f"vertex {brief(end)} lies outside cone {brief(edge.cone)} of its edge")
    return end, pos, pos.cone, -u, -v


def _cast(base: TropicalBase, end, fresh: str):
    """One extension move from `end` = (id, position, cone, u, v).

    Returns (step, the crossing (wall, multiple) or None, the new end or
    None); both are None once the end runs off to infinity.  The step is
    the plain tuple (id, fresh, point, cone, u, v, ratio) of the new
    vertex `fresh` at `point` and the edge from the old end to it, with
    `ratio` the (N, D) length of `_trace`, which `_step_parts` builds.
    """
    vid, position, cone, u, v = end
    kind, cone, u, v, wall, point, ratio = _trace(base, position, cone, u, v)
    if kind == "origin":
        raise HitOrigin(f"extension ray from {brief(vid)} runs into the origin")
    step = (vid, fresh, point, cone, u, v, ratio)
    if wall is None:
        return step, None, None
    # multiple of the wall ray picked up by the transversal crossing
    mu = -v if wall == cone else -u
    return step, (wall, mu), (fresh, point, cone, u, v)


def _step_parts(step):
    """(new vertex, new edge) of a `_cast` step."""
    vid, fresh, point, cone, u, v, ratio = step
    return _vertex(fresh, point), _edge(vid, fresh, cone, u, v, ratio)


def extend_step(base: TropicalBase, tree: TropicalTree, end: str):
    """One extension move at the boundary vertex `end`.

    Casts the ray opposite to the boundary edge.  Returns
    (new tree, curve class increment, finished) where finished means the
    end was closed off with an unbounded edge.  The old boundary vertex
    becomes 2-valent and exactly balanced either way.  Raises
    InvalidArgument unless `base` is a `TropicalBase`, `tree` a
    `TropicalTree` and `end` a str.
    """
    _check_objects(base, tree, "extend_step")
    _check_id(end, "extend_step")
    step, crossing, new_end = _cast(
        base, _end_state(base, tree, end), next(_unused_ids(tree, "x")))
    vertex, edge = _step_parts(step)
    boundary = tuple(vertex.id if x == end else x for x in tree.boundary)
    new_tree = TropicalTree([*tree.vertices, vertex], [*tree.edges, edge], boundary)
    return new_tree, CurveClass((crossing,) if crossing else ()), new_end is None


MAX_STEPS = 10_000
MAX_STEPS_CAP = 100_000


def extend(base: TropicalBase, spine: TropicalTree,
           max_steps: int = MAX_STEPS) -> ExtensionResult:
    """Iterate extension at both ends until both run off to infinity.

    Ends are served alternately; the two sides never interact, so the
    result does not depend on the order.  Raises NotExtendable when the
    step budget runs out, InvalidArgument unless max_steps is an int (see
    `is_int`), and InvalidQuery unless 1 <= max_steps <= MAX_STEPS_CAP.

    On a non-positive pair an end can cross walls forever.  An end that
    has cast l rays without finishing is decided once by `_endless_rays`,
    and if it is endless, NotExtendable(max_steps) is raised at once: the
    report the full cast gives when its budget runs out.  Nothing else can
    end that cast first: both ends have cast their first ray, the only one
    that can meet a degenerate start, and the end of a valid spine is not
    radial, so its ray never runs into the origin.  So `max_steps` bounds
    only the casts of ends that finish.

    Each end keeps its id, position and outgoing ray, and each step is
    kept as the plain tuple of `_cast`; the new vertices and edges, the
    tree and the curve class are built once, after both ends finish, so a
    run that raises builds none of them.
    """
    if not is_int(max_steps):
        raise InvalidArgument(f"extend needs an int max_steps, got {brief(max_steps)}")
    if not 1 <= max_steps <= MAX_STEPS_CAP:
        raise InvalidQuery(
            f"extend needs 1 <= max_steps <= {MAX_STEPS_CAP}, got {brief(max_steps)}")
    violations = validate_spine(base, spine)
    if violations:
        raise StructuralError(
            "cannot extend an invalid spine: "
            + "; ".join(x.message for x in violations))
    fresh = _unused_ids(spine, "x")
    ends = [_end_state(base, spine, end) for end in spine.boundary]
    boundary = list(spine.boundary)
    taken = []
    crossings = []
    casts = [0, 0]
    endless_ray = False  # the test of `_endless_rays`, built on first need
    side = 0
    while True:
        if ends[side] is None:
            # once one end has finished, the other is served on every step
            side = 1 - side
            if ends[side] is None:
                break
        if len(taken) >= max_steps:
            raise NotExtendable(len(taken))
        step, crossing, ends[side] = _cast(base, ends[side], next(fresh))
        taken.append(step)
        boundary[side] = step[1]
        if crossing is not None:
            crossings.append(crossing)
        casts[side] += 1
        if casts[side] == base.l and ends[side] is not None:
            if endless_ray is False:
                endless_ray = _endless_rays(base.pair)
            if endless_ray is not None and endless_ray(*ends[side][2:]):
                raise NotExtendable(max_steps)
        side = 1 - side
    vertices = list(spine.vertices)
    edges = list(spine.edges)
    for step in taken:
        vertex, edge = _step_parts(step)
        vertices.append(vertex)
        edges.append(edge)
    return ExtensionResult(TropicalTree(vertices, edges, boundary),
                           _curve_class(crossings), len(taken))


# ---------------------------------------------------------------------------
# cylinders


def _legs(base: TropicalBase, tree: TropicalTree, vertices) -> list[tuple[str, Edge]]:
    """The leg rule: (origin id, leg) for each of `vertices` (vertices of
    `tree`, in id order) off the origin whose direction sum in `tree` is
    nonzero.

    The leg direction is the negated sum, and its parameter length divides
    the radial lattice length by the sum's divisibility, which balances
    the vertex exactly.  The origin ids are o1, o2, ... skipping the ids
    of `tree`, in the order of `vertices`.  Raises UnbalancedNonRadial
    unless each nonzero sum is an outward radial vector.
    """
    legs = []
    fresh = _unused_ids(tree, "o")
    for v in vertices:
        pos = v.position
        if pos is None or pos.cone is None:
            continue
        su, sv = direction_sum(base, tree, v.id)
        if not (su or sv):
            continue
        if not is_outward_radial(pos, su, sv):
            raise UnbalancedNonRadial(
                f"vertex {brief(v.id)} has direction sum ({brief(su)}, {brief(sv)}) "
                f"that is not an outward radial vector")
        # the sum lives in the cone of pos; the lattice length of pos there
        # is gcd(A, B)/Q, and the leg's parameter length divides it by the
        # divisibility of the sum
        num, den = gcd(pos.A, pos.B), pos.Q * gcd(su, sv)
        g = gcd(num, den)
        oid = next(fresh)
        legs.append((oid, _edge(v.id, oid, pos.cone, -su, -sv, (num // g, den // g))))
    return legs


def cylinder_in_b(base: TropicalBase, ext: TropicalTree) -> CylinderInB:
    """Complete an extended spine to a cylinder body in the base.

    The checked completion for an arbitrary tree: `check_structure` runs
    first, both boundary vertices must be unbounded, and every bounded
    vertex with a nonzero direction sum gets a leg to the origin by the
    leg rule of `_legs`.
    """
    check_structure(base, ext)
    for b in ext.boundary:
        if not ext.vertex(b).is_unbounded:
            raise StructuralError(
                f"extended spine boundary {brief(b)} must run to infinity")
    legs = _legs(base, ext, ext.vertices)
    tree = TropicalTree([*ext.vertices, *(Vertex(oid, ORIGIN) for oid, _ in legs)],
                        [*ext.edges, *(leg for _, leg in legs)], ext.boundary)
    return CylinderInB(tree, tuple(sorted((leg.tail, leg.head) for _, leg in legs)))


def spine_legs(base: TropicalBase, spine: TropicalTree,
               ext: TropicalTree) -> list[tuple[str, Edge]]:
    """The legs of the cylinder of `ext`, the extended tree of
    `extend(base, spine)`, as (origin id, leg) pairs: the legs that
    `cylinder_in_b(base, ext)` adds, with the same ids.

    `extend` has validated `spine` and built `ext` from it, and every
    vertex its cast adds is 2-valent and balanced, so the leg rule runs
    only at the vertices of `spine`, in id order, and the structure check
    is not repeated.
    """
    return _legs(base, ext, spine.vertices)


def _path_order(tree: TropicalTree) -> list[str]:
    """Vertex ids from boundary[0] to boundary[1] along the path."""
    order = [tree.boundary[0]]
    prev = None
    while order[-1] != tree.boundary[1]:
        x = order[-1]
        nxt = [y for e in tree.incident(x) for y in (e.tail, e.head) if y not in (x, prev)]
        if len(nxt) != 1:
            raise StructuralError("tree is not a path between its boundary")
        prev = x
        order.append(nxt[0])
    return order


def lift_to_tilde(base: TropicalBase, ext: TropicalTree) -> CylinderInBTilde:
    """Cylinder in the line-augmented base attached to an extended spine.

    The extra coordinate is the arclength along the end-to-end path (the
    first bounded vertex is the zero gauge), with slope +-1 on path edges
    by travel direction and slope 0 on the legs.
    """
    cyl = cylinder_in_b(base, ext)
    order = _path_order(ext)
    heights: dict[str, Fraction] = {}
    slopes: dict[tuple[str, str], int] = {}

    coord = ZERO
    heights[order[1]] = coord
    for i in range(len(order) - 1):
        x, y = order[i], order[i + 1]
        e = ext.edge(x, y)
        if e.is_ray:
            # travel toward infinity at either end of the path
            slopes[(e.tail, e.head)] = -1 if i == 0 else 1
            continue
        slopes[(e.tail, e.head)] = 1 if e.tail == x else -1
        coord = coord + e.length
        heights[y] = coord

    # origin endpoints inherit the height of their path vertex (slope 0)
    for (t, h) in cyl.legs:
        slopes[(t, h)] = 0
        if t in heights:
            heights[h] = heights[t]
        else:
            heights[t] = heights[h]

    return CylinderInBTilde(
        cyl,
        tuple(sorted(slopes.items())),
        tuple(sorted(heights.items())),
    )


# ---------------------------------------------------------------------------
# the explicit del Pezzo family and its trace


def _det(p, q):
    return p[0] * q[1] - p[1] * q[0]


@cache
def _del_pezzo_cones():
    """(cone, w, w') for cones 3, 0, 1, 2 of the four-cone base, with the
    developed walls w, w' of each cone from `develop`; computed once."""
    walls = develop(DEL_PEZZO_PAIR, -1, 3)
    return tuple(zip((3, 0, 1, 2), walls, walls[1:]))


def _family_height(l, m, n, b) -> Fraction:
    """`b` as a `Fraction`, once l, m, n are ints with l >= 1 and b rational."""
    if not (is_int(l) and is_int(m) and is_int(n) and is_rational(b)):
        raise InvalidArgument("family needs int l, m, n and a rational b, "
                              f"got {brief(l)}, {brief(m)}, {brief(n)}, {brief(b)}")
    if l < 1:
        raise InvalidQuery(f"family needs l >= 1, got {brief(l)}")
    return Fraction(b)


def tropical_trace(l: int, m: int, n: int, b, t) -> BasePoint:
    """Point of the explicit del Pezzo family trace at parameter `t`.

    In the developed picture the trace is (l*t, b + m*t - n*min(0, t));
    the result is converted to canonical cone coordinates in a cone that
    holds it.  This is a verification oracle on the developed walls of the
    four-cone base from `develop`, and the one sampler of the trace: the
    command line calls it once for each parameter value.  Raises
    InvalidArgument unless l, m, n are ints and b, t rational (see
    `is_int`, `is_rational`), and InvalidQuery unless l >= 1.
    """
    b = _family_height(l, m, n, b)
    if not is_rational(t):
        raise InvalidArgument(f"trace needs a rational t, got {brief(t)}")
    # the point is P/den for the integer vector P and den = lcm of the
    # denominators of b and t, so the cone search compares integers
    bn, tn, den = _over_lcm(b.numerator, b.denominator, t.numerator, t.denominator)
    p = (l * tn, bn + (m - n if tn < 0 else m) * tn)
    # the four developed cones cover the plane
    for cone, w0, w1 in _del_pezzo_cones():
        x, y = _det(p, w1), _det(w0, p)
        if x >= 0 and y >= 0:
            return del_pezzo_base()._point(cone, x, y, den)


def family_spine(l: int, m: int, n: int, b) -> TropicalTree:
    """The three-vertex spine with central vertex (0, b) on wall 1.

    Edge directions are (l, m) into cone 0 and, in cone-1 coordinates,
    (n - m - l, l) into cone 1; the short arms keep both endpoints
    strictly inside their cones.
    """
    b = _family_height(l, m, n, b)
    if b <= 0:
        raise InvalidArgument(f"family needs b > 0, got {brief_rational(b)}")
    # the arms have length eps = b/k = p/(qk); every coordinate is an
    # integer over qk, and the length p/(qk) is reduced by gcd(p, k), as
    # p and q are coprime
    p, q = b.numerator, b.denominator
    k = 2 * (1 + max(abs(m), abs(n - m - l)))
    g = gcd(p, k)
    eps = (p // g, q * k // g)
    base = del_pezzo_base()
    return TropicalTree(
        [Vertex("v0", base._point(1, p, 0, q)),
         Vertex("v1", base._point(1, p * k + p * (n - m - l), p * l, q * k)),
         Vertex("v2", base._point(0, p * l, p * k + p * m, q * k))],
        [_edge("v0", "v1", 1, n - m - l, l, eps),
         _edge("v0", "v2", 0, l, m, eps)],
        ("v1", "v2"),
    )


def trace_path_image(l: int, m: int, n: int, b):
    """Canonical image of the whole trace path, computed by exact clipping:
    the sorted tuple of pieces that `canonical_image` gives.

    Clips the two developed rays of the trace, from (0, b) in directions
    (l, m) and (-l, n - m), against each cone between the developed walls
    of the four-cone base from `develop`.  Independent of the extension
    engine, so the two can be compared piece by piece.
    """
    b = _family_height(l, m, n, b)
    base = del_pezzo_base()
    pieces = []
    for cone, w0, w1 in _del_pezzo_cones():
        # the ray s -> (0, b) + s*d, s >= 0, has cone coordinates p + s*dp
        p = (_det((0, b), w1), _det(w0, (0, b)))
        for d in ((l, m), (-l, n - m)):
            dp = (_det(d, w1), _det(w0, d))
            if any(dq == 0 and q < 0 for q, dq in zip(p, dp)):
                continue  # parallel to a wall, on its far side
            lo, hi = ZERO, None  # None = unbounded
            for q, dq in zip(p, dp):
                if dq > 0:
                    lo = max(lo, -q / dq)
                elif dq < 0:
                    hi = -q / dq if hi is None else min(hi, -q / dq)
            if hi is not None and hi <= lo:
                continue
            start = base.point(cone, p[0] + lo * dp[0], p[1] + lo * dp[1])
            if hi is None:
                pieces.append(("ray", cone, _point_key(start), primitive_part(*dp)))
            else:
                end = base.point(cone, p[0] + hi * dp[0], p[1] + hi * dp[1])
                pieces.append(("seg", cone, *sorted((_point_key(start),
                                                     _point_key(end)))))
    return tuple(sorted(pieces))
