"""Test-only references for the ray cast, the spine checks, the extension
loop, the family trace's cone search and the family spine: the same
decisions made with `Fraction` arithmetic, as the engine did before it
moved to integer numerators, and the extension building its tree step by
step.  The cast
crosses walls through the wall matrices of `spine_oracle`, so it shares no
code with the engine's wall map."""

from fractions import Fraction

from itertools import count

from tropcyl import (
    CurveClass,
    DegenerateRay,
    ExtensionResult,
    HitOrigin,
    NotExtendable,
    Vertex,
    del_pezzo_base,
    make_edge,
    make_tree,
)
from tropcyl.errors import InvalidArgument, brief_rational
from tropcyl.extension import DEL_PEZZO_PAIR, _family_height
from tropcyl.lattice import develop
from point_oracle import fraction_coords_in_cone
from spine_oracle import direction_at, matrix_transport


def fraction_trace(base, start, cone, u, v):
    """`extension._trace`, comparing ta = a/-u with tb = b/-v as `Fraction`s.

    Returns the same (kind, cone, u, v, wall, point, length) tuple, under
    the same precondition: `start` is off the origin and in cone `cone`."""
    if u == 0 and v == 0:
        raise DegenerateRay("ray direction is zero")
    cone %= base.l
    a, b = fraction_coords_in_cone(base, start, cone)

    if b == 0 and v == 0:
        raise DegenerateRay(f"direction runs along wall {cone}")
    if a == 0 and u == 0:
        raise DegenerateRay(f"direction runs along wall {(cone + 1) % base.l}")

    if b == 0 and v < 0:
        cone, u, v = matrix_transport(base, cone, cone, u, v)
        a, b = Fraction(0), a
    elif a == 0 and u < 0:
        cone, u, v = matrix_transport(base, cone + 1, cone, u, v)
        a, b = b, Fraction(0)

    ta = a / -u if u < 0 else None
    tb = b / -v if v < 0 else None
    if ta is None and tb is None:
        return "unbounded", cone, u, v, None, None, None
    if ta is not None and tb is not None and ta == tb:
        return "origin", cone, u, v, None, None, None
    if tb is None or (ta is not None and ta < tb):
        hit = base.point(cone, Fraction(0), b + ta * v)
        return "wall", cone, u, v, (cone + 1) % base.l, hit, ta
    hit = base.point(cone, a + tb * u, Fraction(0))
    return "wall", cone, u, v, cone, hit, tb


def eager_extend(base, spine, max_steps):
    """`extend` on a valid spine as it was before its steps were kept as
    tuples: every step casts with `fraction_trace` and builds its `Vertex`
    and its edge (through `make_edge`) at once."""
    ids = {v.id for v in spine.vertices}
    fresh = (f"x{k}" for k in count(1) if f"x{k}" not in ids)
    ends = []
    for end in spine.boundary:
        (edge,) = spine.incident(end)
        cone, u, v = direction_at(base, edge, end)
        ends.append((end, spine.vertex(end).position, cone, -u, -v))
    vertices, edges, boundary = list(spine.vertices), list(spine.edges), list(spine.boundary)
    total = {}
    steps = side = 0
    while any(ends):
        if ends[side] is not None:
            if steps >= max_steps:
                raise NotExtendable(steps)
            vid, position, cone, u, v = ends[side]
            kind, cone, u, v, wall, point, length = fraction_trace(base, position, cone, u, v)
            if kind == "origin":
                raise HitOrigin(f"extension ray from {vid!r} runs into the origin")
            x = next(fresh)
            vertices.append(Vertex(x, point))
            edges.append(make_edge(vid, x, cone, (u, v), length))
            boundary[side] = x
            ends[side] = None
            if wall is not None:
                total[wall] = total.get(wall, 0) + (-v if wall == cone else -u)
                ends[side] = (x, point, cone, u, v)
            steps += 1
        side = 1 - side
    return ExtensionResult(make_tree(vertices, edges, boundary),
                           CurveClass(tuple(total.items())), steps)


def fraction_ends_match(tc, hc, length, direction) -> bool:
    """The endpoint test of `check_structure`: hc == tc + length * direction."""
    du, dv = direction
    return (tc[0] + length * du, tc[1] + length * dv) == tuple(hc)


# walls -1..3 of the four-cone base, bounding its cones 3, 0, 1, 2
DEL_PEZZO_WALLS = develop(DEL_PEZZO_PAIR, -1, 3)


def fraction_tropical_trace(l, m, n, b, t):
    """`tropical_trace` for int l, m, n and `Fraction` b, t: the cone
    coordinates (det(P, w'), det(w, P)) of P as `Fraction`s."""
    p = (l * t, b + m * t - n * min(Fraction(0), t))
    for cone, w0, w1 in zip((3, 0, 1, 2), DEL_PEZZO_WALLS, DEL_PEZZO_WALLS[1:]):
        x = p[0] * w1[1] - p[1] * w1[0]
        y = w0[0] * p[1] - w0[1] * p[0]
        if x >= 0 and y >= 0:
            return del_pezzo_base().point(cone, x, y)


def fraction_family_spine(l, m, n, b):
    """`family_spine` with its arm length eps = b/k and the three points
    computed as `Fraction`s, through the checked point, vertex and edge
    constructors."""
    b = _family_height(l, m, n, b)
    if b <= 0:
        raise InvalidArgument(f"family needs b > 0, got {brief_rational(b)}")
    base = del_pezzo_base()
    eps = b / (2 * (1 + max(abs(m), abs(n - m - l))))
    v0 = base.point(1, b, 0)
    v1 = base.point(1, b + eps * (n - m - l), eps * l)
    v2 = base.point(0, eps * l, b + eps * m)
    return make_tree(
        [Vertex("v0", v0), Vertex("v1", v1), Vertex("v2", v2)],
        [make_edge("v0", "v1", 1, (n - m - l, l), eps),
         make_edge("v0", "v2", 0, (l, m), eps)],
        ("v1", "v2"),
    )


def outcome(f, *args):
    """("value", result, its repr) or ("raise", exception type, message):
    equal outcomes mean equal values of the same types, or the same error."""
    try:
        result = f(*args)
    except Exception as exc:  # compared, not swallowed: the pair must agree
        return ("raise", type(exc), str(exc))
    return ("value", result, repr(result))
