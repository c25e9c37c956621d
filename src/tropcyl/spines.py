"""Trees mapped into the tropical base: spines, cylinders, and their checks.

A tree is a finite set of vertices (positioned, at the origin, or at
infinity) and edges.  Every edge lives inside a single closed cone and is
straight there; wall crossings happen only at vertices.  An edge stores an
integer direction vector as seen from its tail and a positive rational
parameter length, as the coprime integers (N, D), so that head = tail +
(N/D) * direction; rays to infinity have no length.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from operator import attrgetter

from .errors import (
    InvalidArgument,
    OriginVertex,
    StructuralError,
    brief,
)
from .lattice import (
    ORIGIN,
    BasePoint,
    TropicalBase,
    _set,
    is_int,
    is_rational,
    primitive_part,
    value_class,
)


@value_class("id", "position")
class Vertex:
    """Tree vertex; position is None for vertices at infinity.

    Raises InvalidArgument unless `id` is a str and `position` is None or
    a `BasePoint`.
    """

    __slots__ = ("id", "position")

    def __init__(self, id: str, position: BasePoint | None):
        if not (isinstance(id, str) and (position is None or isinstance(position, BasePoint))):
            raise InvalidArgument(
                f"vertex needs a str id and a BasePoint or None position, "
                f"got {brief(id)}, {brief(position)}")
        _set(self, "id", id)
        _set(self, "position", position)


def _is_key(x) -> bool:
    """Whether `x` is an edge key: a tuple of two str ids."""
    return (isinstance(x, tuple) and len(x) == 2
            and isinstance(x[0], str) and isinstance(x[1], str))


@value_class("tail", "head", "cone", "direction", "length")
class Edge:
    """Straight edge inside cone `cone`, parametrized from `tail`.

    For bounded edges pos(head) = pos(tail) + length * direction; a length
    of None marks a ray whose head sits at infinity.  An edge has no
    preferred orientation, so it is stored from its canonical tail: a
    bounded edge runs from the smaller id, its direction negated if
    flipped, and a ray keeps its bounded endpoint as tail.  The length is
    stored as `ratio`, the coprime integers (N, D) with D > 0, or None for
    a ray; `length` reads it out as a `Fraction`, as `BasePoint.a` does.

    Raises InvalidArgument unless `tail` and `head` are strs, `cone` and
    both direction entries are ints (see `is_int`) and `length` is None or
    rational (see `is_rational`), so nothing is stored inexactly.  A zero
    direction or a nonpositive length is left to `check_structure`.
    """

    __slots__ = ("tail", "head", "cone", "direction", "ratio")

    def __init__(self, tail: str, head: str, cone: int, direction: tuple[int, int],
                 length: Fraction | None):
        if not (isinstance(tail, str) and isinstance(head, str)):
            raise InvalidArgument(
                f"edge endpoints must be vertex id strs, got {brief(tail)}, {brief(head)}")
        try:
            u, v = direction
        except (TypeError, ValueError):
            raise InvalidArgument(
                f"edge direction must be an int pair, got {brief(direction)}") from None
        if not (is_int(cone) and is_int(u) and is_int(v)):
            raise InvalidArgument(
                f"edge needs int cone and direction, got {brief(cone)}, {brief(direction)}")
        if not (length is None or is_rational(length)):
            raise InvalidArgument(f"edge length must be None or rational, got {brief(length)}")
        self._build(tail, head, cone, u, v,
                    None if length is None else (length.numerator, length.denominator))

    def _build(self, tail, head, cone, u, v, ratio) -> "Edge":
        """Fill the slots from checked fields, from the canonical tail."""
        if ratio is not None and head < tail:
            tail, head, u, v = head, tail, -u, -v
        _set(self, "tail", tail)
        _set(self, "head", head)
        _set(self, "cone", cone)
        _set(self, "direction", (u, v))
        _set(self, "ratio", ratio)
        return self

    @property
    def length(self) -> Fraction | None:
        ratio = self.ratio
        return None if ratio is None else Fraction(*ratio)


_new_edge = Edge.__new__


def _edge(tail: str, head: str, cone: int, u: int, v: int,
          ratio: tuple[int, int] | None) -> Edge:
    """`Edge` built unchecked from its stored form: `ratio` is (N, D) in
    lowest terms with D > 0, or None.  Kept for the package's own edges,
    whose fields are ints by construction: the checked `Edge(...)` needs a
    `Fraction` length, 1.4 us an edge against 0.77 us here (CPython 3.11)."""
    return _new_edge(Edge)._build(tail, head, cone, u, v, ratio)


make_edge = Edge


@value_class("vertices", "edges", "boundary")
class TropicalTree:
    """Tree with a marked ordered boundary pair.

    The same structure serves bounded spines (all vertices positioned,
    boundary = the two leaves), extended spines (boundary at infinity) and
    cylinder bodies (extra legs ending at the origin).

    The constructor is the one way to build a tree, in the package as
    outside it.  It stores the canonical form, as tuples: vertices sorted
    by id, edges by (tail, head).  Raises InvalidArgument unless `vertices`
    and `edges` are lists or tuples of `Vertex` and `Edge` values and
    `boundary` is a list or tuple of two str ids; a boundary that names no
    vertex is left to `check_structure`.  A tree indexes, once, the first
    vertex of each id and the edges at each id, in edge order; an edge
    lookup scans the edges at one end.  Trees are immutable, so the index
    never goes stale; it takes no part in equality, hashing or repr.
    """

    __slots__ = ("vertices", "edges", "boundary", "_vertex_of", "_incident")

    def __init__(self, vertices: tuple[Vertex, ...], edges: tuple[Edge, ...],
                 boundary: tuple[str, str]):
        if not (isinstance(vertices, (list, tuple)) and isinstance(edges, (list, tuple))
                and all(isinstance(v, Vertex) for v in vertices)
                and all(isinstance(e, Edge) for e in edges)):
            raise InvalidArgument(
                f"tree needs lists of vertices and edges, got {brief(vertices)}, {brief(edges)}")
        if not (isinstance(boundary, (list, tuple)) and _is_key(tuple(boundary))):
            raise InvalidArgument(f"tree boundary must be two str ids, got {brief(boundary)}")
        vertices = tuple(sorted(vertices, key=_vertex_id))
        edges = tuple(sorted(edges, key=_edge_key))
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "boundary", (boundary[0], boundary[1]))
        incident: dict[str, list[Edge]] = {}
        for e in edges:
            incident.setdefault(e.tail, []).append(e)
            if e.head != e.tail:
                incident.setdefault(e.head, []).append(e)
        # built from the back, so the first vertex of an id wins
        _set(self, "_vertex_of", {v.id: v for v in reversed(vertices)})
        _set(self, "_incident", {vid: tuple(es) for vid, es in incident.items()})

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._vertex_of[vid]
        except KeyError:
            raise StructuralError(f"no vertex {brief(vid)}") from None
        except TypeError:
            raise _bad_id(vid, "vertex lookup") from None

    def incident(self, vid: str) -> tuple[Edge, ...]:
        try:
            return self._incident.get(vid, ())
        except TypeError:
            raise _bad_id(vid, "edge lookup") from None

    def edge(self, a: str, b: str) -> Edge:
        """The first edge at `a` whose other end is `b`; either may be its tail."""
        for e in self.incident(a):
            if b == (e.head if e.tail == a else e.tail):
                return e
        raise StructuralError(f"no edge between {brief(a)} and {brief(b)}")


_vertex_id = attrgetter("id")
_edge_key = attrgetter("tail", "head")

make_tree = TropicalTree


def _unused_ids(tree: TropicalTree, prefix: str):
    """prefix1, prefix2, ... skipping the ids of `tree`, in order: the one
    rule that names every fresh vertex (s for a subdivision, x for an
    extension step, o for a leg's origin end)."""
    taken = tree._vertex_of
    for k in count(1):
        vid = f"{prefix}{k}"
        if vid not in taken:
            yield vid


@value_class("tree", "legs")
class CylinderInB:
    """Cylinder body in the base: an extended spine plus legs to the origin.

    Raises InvalidArgument unless `tree` is a `TropicalTree` and `legs` a
    tuple of edge keys, each a tuple of two str ids.
    """

    __slots__ = ("tree", "legs")

    def __init__(self, tree: TropicalTree, legs: tuple[tuple[str, str], ...]):
        if not (isinstance(tree, TropicalTree) and isinstance(legs, tuple)
                and all(map(_is_key, legs))):
            raise InvalidArgument(
                f"cylinder needs a TropicalTree and a tuple of (str, str) legs, got "
                f"{brief(tree)}, {brief(legs)}")
        _set(self, "tree", tree)
        _set(self, "legs", legs)

    def path_part(self) -> TropicalTree:
        """The tree without its origin vertices and the legs to them, read
        off the tree, whatever `legs` lists."""
        tree = self.tree
        drop = {v.id for v in tree.vertices if v.position is not None and v.position.cone is None}
        return TropicalTree([v for v in tree.vertices if v.id not in drop],
                            [e for e in tree.edges if e.tail not in drop and e.head not in drop],
                            tree.boundary)


@value_class("cylinder", "slopes", "heights")
class CylinderInBTilde:
    """Cylinder in the line-augmented base.

    Adds an integer slope per edge (relative to the edge tail) and a
    rational height per vertex for the extra affine coordinate; slopes
    vanish exactly on the legs.  `dict(z.slopes)` maps each edge key to
    its slope and `dict(z.heights)` each vertex id to its height.  Raises
    InvalidArgument unless `cylinder` is a `CylinderInB`, `slopes` a tuple
    of (edge key, int) pairs and `heights` a tuple of (str id, rational)
    pairs.
    """

    __slots__ = ("cylinder", "slopes", "heights")

    def __init__(self, cylinder: CylinderInB,
                 slopes: tuple[tuple[tuple[str, str], int], ...],
                 heights: tuple[tuple[str, Fraction], ...]):
        if not (isinstance(cylinder, CylinderInB)
                and isinstance(slopes, tuple) and isinstance(heights, tuple)
                and all(isinstance(x, tuple) and len(x) == 2 and _is_key(x[0])
                        and is_int(x[1]) for x in slopes)
                and all(isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], str)
                        and is_rational(x[1]) for x in heights)):
            raise InvalidArgument(
                f"lifted cylinder needs a CylinderInB, (edge key, int) slopes and "
                f"(str, rational) heights, got {brief(cylinder)}, {brief(slopes)}, "
                f"{brief(heights)}")
        _set(self, "cylinder", cylinder)
        _set(self, "slopes", slopes)
        _set(self, "heights", heights)


# ---------------------------------------------------------------------------
# structural checks


def _ends_match(tc, hc, ratio, direction) -> bool:
    """Whether hc == tc + length * direction, coordinate by coordinate.

    The ends are integer coordinates (A, B, Q) from `TropicalBase._coords`,
    and the length is the integer pair `ratio` = (p, q) of `Edge.ratio`.
    With tail (At/Qt, Bt/Qt) and head (Ah/Qh, Bh/Qh) this is
    q*(Ah*Qt - At*Qh) == p*u*Qt*Qh, and the same for B with v.
    """
    p, q = ratio
    at, bt, qt = tc
    ah, bh, qh = hc
    u, v = direction
    scale = p * qt * qh
    return q * (ah * qt - at * qh) == scale * u and q * (bh * qt - bt * qh) == scale * v


def _bad_id(vid, what: str) -> InvalidArgument:
    return InvalidArgument(f"{what} needs a str vertex id, got {brief(vid)}")


def _check_id(vid, what: str) -> None:
    """Raise InvalidArgument unless `vid` is a str vertex id."""
    if not isinstance(vid, str):
        raise _bad_id(vid, what)


def _check_objects(base, tree, what: str) -> None:
    """Raise InvalidArgument unless `base` is a `TropicalBase` and `tree` a
    `TropicalTree`."""
    if type(base) is not TropicalBase or type(tree) is not TropicalTree:
        raise InvalidArgument(f"{what} needs a TropicalBase and a TropicalTree, got "
                              f"{brief(base)}, {brief(tree)}")


def check_structure(base: TropicalBase, tree: TropicalTree) -> None:
    """Raise StructuralError unless `tree` is a consistent mapped tree.

    Vertices at `ORIGIN` are allowed here; `validate_spine` reports them
    as `origin-image` violations, and cylinders end their legs there.
    Vertices at infinity end rays; `validate_spine` refuses them first.
    Any other point and every edge cone must be in the one form that
    `TropicalBase.point` and the spine parse store: a cone in 0..l-1, and
    A > 0, B >= 0, so a wall point lies on its own wall.  Raises
    InvalidArgument unless `base` is a `TropicalBase` and `tree` a
    `TropicalTree`; this is the check of every validator, of
    `cylinder_in_b` and of `extend`.
    """
    _check_objects(base, tree, "tree check")
    if len(tree._vertex_of) != len(tree.vertices):
        raise StructuralError("duplicate vertex ids")
    if tree.boundary[0] == tree.boundary[1]:
        raise StructuralError("boundary must be two distinct vertices")
    for b in tree.boundary:
        if b not in tree._vertex_of:
            raise StructuralError(f"boundary vertex {brief(b)} missing")

    for v in tree.vertices:
        p = v.position
        if p is not None and (p != ORIGIN if p.cone is None
                              else p.A <= 0 or p.B < 0 or not 0 <= p.cone < base.l):
            raise StructuralError(f"vertex {brief(v.id)} lies outside its cone {brief(p.cone)}")

    seen = set()
    vertex_of = tree._vertex_of
    for e in tree.edges:
        if e.tail == e.head:
            raise StructuralError("loop edge")
        tail = vertex_of.get(e.tail)
        head = vertex_of.get(e.head)
        if tail is None or head is None:
            raise StructuralError(
                f"edge ({brief(e.tail)}, {brief(e.head)}) references missing vertex")
        key = (e.tail, e.head)
        if key in seen:
            raise StructuralError(f"parallel edges between {brief(e.tail)} and {brief(e.head)}")
        seen.add(key)
        if e.direction == (0, 0):
            raise StructuralError(f"edge ({brief(e.tail)}, {brief(e.head)}) has zero direction")
        if tail.position is None:
            raise StructuralError(f"edge tail {brief(e.tail)} is unbounded")
        tc = base._coords(tail.position, e.cone)
        if tc is None:
            raise StructuralError(
                f"vertex {brief(e.tail)} lies outside cone {brief(e.cone)} of its edge")
        ratio = e.ratio
        if ratio is None:
            if head.position is not None:
                raise StructuralError(
                    f"ray ({brief(e.tail)}, {brief(e.head)}) must end at infinity")
            if e.direction[0] < 0 or e.direction[1] < 0:
                raise StructuralError(
                    f"ray ({brief(e.tail)}, {brief(e.head)}) leaves cone {brief(e.cone)}")
        else:
            if head.position is None:
                raise StructuralError(
                    f"bounded edge ({brief(e.tail)}, {brief(e.head)}) ends at infinity")
            if ratio[0] <= 0:
                raise StructuralError(
                    f"edge ({brief(e.tail)}, {brief(e.head)}) has nonpositive length")
            hc = base._coords(head.position, e.cone)
            if hc is None:
                raise StructuralError(
                    f"vertex {brief(e.head)} lies outside cone {brief(e.cone)} of its edge")
            if not _ends_match(tc, hc, ratio, e.direction):
                raise StructuralError(
                    f"edge ({brief(e.tail)}, {brief(e.head)}) endpoints do not match "
                    f"its direction and length")

    for v in tree.vertices:
        if v.position is None and len(tree.incident(v.id)) != 1:
            raise StructuralError(f"unbounded vertex {brief(v.id)} must be 1-valent")

    if len(tree.edges) != len(tree.vertices) - 1:
        raise StructuralError("edge count does not match a tree")
    # connectivity
    if tree.vertices:
        stack = [tree.vertices[0].id]
        reached = set()
        while stack:
            x = stack.pop()
            if x in reached:
                continue
            reached.add(x)
            stack.extend(e.head if e.tail == x else e.tail
                         for e in tree.incident(x))
        if len(reached) != len(tree.vertices):
            raise StructuralError("graph is not connected")


# ---------------------------------------------------------------------------
# directions and balancing


def _outgoing(base: TropicalBase, tree: TropicalTree, vid: str, pos: BasePoint):
    """(edge, u, v) for each edge at `vid`, in incident order: the edge's
    direction pointing away from `vid`, as ints in the canonical cone of
    `pos` (wall points live in the higher-indexed neighbour, so an edge
    from the lower cone is carried across the wall by `TropicalBase._cross`).

    This is the one rule that orients an edge at a vertex: the stored
    direction at the tail, negated at the head, none at a ray's infinite
    end (StructuralError); `_erasable` applies it without a base.  Edge
    cones are read as stored, 0..l-1 (`check_structure`).
    """
    target = pos.cone
    out = []
    for e in tree.incident(vid):
        u, v = e.direction
        if vid != e.tail:
            if e.ratio is None:
                raise StructuralError("rays have no direction at their infinite end")
            u, v = -u, -v
        if e.cone != target:
            if pos.B == 0 and e.cone == (target - 1) % base.l:
                _, u, v = base._cross(target, e.cone, u, v)
            else:
                raise StructuralError(
                    f"edge cone {brief(e.cone)} is not adjacent to the vertex in cone "
                    f"{brief(target)}")
        out.append((e, u, v))
    return out


def direction_sum(base: TropicalBase, tree: TropicalTree, vid: str) -> tuple[int, int]:
    """The sum (u, v) of the outgoing edge directions at `vid`, as ints in
    the canonical cone of its position, added from `_outgoing`: the one
    quantity balancing, the outward defect and the leg rule read."""
    pos = tree.vertex(vid).position
    if pos is None:
        raise StructuralError(f"vertex {brief(vid)} is unbounded")
    if pos.cone is None:
        raise OriginVertex("direction sums are undefined at the origin")
    total_u = 0
    total_v = 0
    for _, u, v in _outgoing(base, tree, vid, pos):
        total_u += u
        total_v += v
    return total_u, total_v


def is_balanced(base: TropicalBase, tree: TropicalTree, vid: str) -> bool:
    """Whether the outgoing directions at `vid` sum to zero exactly.
    Raises InvalidArgument unless `base` is a `TropicalBase`, `tree` a
    `TropicalTree` and `vid` a str."""
    _check_objects(base, tree, "is_balanced")
    _check_id(vid, "is_balanced")
    return direction_sum(base, tree, vid) == (0, 0)


# ---------------------------------------------------------------------------
# spine validation


@value_class("code", "where", "message")
class Violation:
    """One failed spine condition, tagged with a stable code.

    Raises InvalidArgument unless all three fields are strs.
    """

    __slots__ = ("code", "where", "message")

    def __init__(self, code: str, where: str, message: str):
        if not (isinstance(code, str) and isinstance(where, str) and isinstance(message, str)):
            raise InvalidArgument(f"violation needs three strs, got "
                                  f"{brief(code)}, {brief(where)}, {brief(message)}")
        _set(self, "code", code)
        _set(self, "where", where)
        _set(self, "message", message)


def is_outward_radial(pos: BasePoint, u: int, v: int) -> bool:
    """Whether the int vector (u, v) of the canonical cone of `pos`, a
    point off the origin, is a positive multiple of the ray from the origin
    through `pos`.

    With the cone coordinates (A/Q, B/Q) of `pos`, both tests are scaled
    by the positive Q, so they compare integers.
    """
    A, B = pos.A, pos.B
    return u * B == v * A and u * A + v * B > 0


def _spine_conditions(base: TropicalBase, tree: TropicalTree) -> list[Violation]:
    """Shared body of the spine validators (conditions on the mapped tree).

    One pass over the bounded vertices off the origin reads each vertex's
    outgoing directions once, from `_outgoing`, in its canonical cone.
    With cone coordinates (A/Q, B/Q) of the vertex, an edge (u, v) points
    along the origin ray when u*B == v*A, and a 2-valent vertex's nonzero
    direction sum must pass `is_outward_radial`: wall crossings are linear
    and fix the wall ray, so these are the radial tests in the edge's own
    cone.  Defects are held back, so every `radial-direction` violation
    comes before any `defect-not-outward` one.
    """
    out: list[Violation] = []
    for v in tree.vertices:
        if v.position is not None and v.position.cone is None:
            out.append(Violation("origin-image", v.id,
                                 f"vertex {v.id!r} maps to the origin"))
    leaves = {v.id for v in tree.vertices if len(tree.incident(v.id)) == 1}
    if leaves != set(tree.boundary):
        out.append(Violation(
            "leaf-set", ",".join(sorted(leaves)),
            "the 1-valent vertices must be exactly the boundary pair"))
    defects: list[Violation] = []
    for v in tree.vertices:
        pos = v.position
        if pos is None or pos.cone is None:
            continue
        A, B = pos.A, pos.B
        outgoing = _outgoing(base, tree, v.id, pos)
        for e, du, dv in outgoing:
            if du * B == dv * A:
                out.append(Violation(
                    "radial-direction", v.id,
                    f"edge ({e.tail!r}, {e.head!r}) points along the origin "
                    f"ray at vertex {v.id!r}"))
        if len(outgoing) != 2:
            continue
        su = outgoing[0][1] + outgoing[1][1]
        sv = outgoing[0][2] + outgoing[1][2]
        if (su or sv) and not is_outward_radial(pos, su, sv):
            defects.append(Violation(
                "defect-not-outward", v.id,
                f"2-valent vertex {v.id!r} has direction sum ({brief(su)}, "
                f"{brief(sv)}) whose negative does not point to the origin"))
    out.extend(defects)
    return out


def validate_spine(base: TropicalBase, tree: TropicalTree) -> list[Violation]:
    """All violated spine conditions for a bounded spine (empty = valid).
    A vertex at infinity raises StructuralError before `check_structure`
    runs."""
    _check_objects(base, tree, "tree check")
    for v in tree.vertices:
        if v.position is None:
            raise StructuralError(f"unbounded vertex {brief(v.id)} not allowed here")
    check_structure(base, tree)
    return _spine_conditions(base, tree)


def validate_extended_spine(base: TropicalBase, tree: TropicalTree) -> list[Violation]:
    """Spine conditions for a spine whose two ends run to infinity."""
    check_structure(base, tree)
    out = _spine_conditions(base, tree)
    unbounded = {v.id for v in tree.vertices if v.position is None}
    if unbounded != set(tree.boundary):
        out.append(Violation(
            "unbounded-boundary", ",".join(sorted(unbounded)),
            "the unbounded vertices must be exactly the boundary pair"))
    return out


def validate_cylinder_b(base: TropicalBase, cyl: CylinderInB) -> list[Violation]:
    """Cylinder conditions: stray leaves at the origin, the rest balanced.
    Raises InvalidArgument unless `cyl` is a `CylinderInB`."""
    if type(cyl) is not CylinderInB:
        raise InvalidArgument(f"cylinder check needs a CylinderInB, got {brief(cyl)}")
    tree = cyl.tree
    check_structure(base, tree)
    out: list[Violation] = []
    for v in tree.vertices:
        if v.id in tree.boundary:
            continue
        if len(tree.incident(v.id)) == 1:
            if v.position is None or v.position.cone is not None:
                out.append(Violation(
                    "leaf-off-origin", v.id,
                    f"non-boundary leaf {v.id!r} does not map to the origin"))
        else:
            if v.position is not None and v.position.cone is None:
                out.append(Violation(
                    "origin-branch", v.id,
                    f"origin vertex {v.id!r} must be 1-valent"))
            elif direction_sum(base, tree, v.id) != (0, 0):
                out.append(Violation(
                    "unbalanced", v.id, f"vertex {v.id!r} is not balanced"))
    return out


# ---------------------------------------------------------------------------
# canonical images


def _point_key(p: BasePoint):
    """The stored integers (cone, A, B, Q) of a point, the origin as
    (-1, 0, 0, 1): unique per point of a checked tree, as the stored form is."""
    return (-1, 0, 0, 1) if p.cone is None else (p.cone, p.A, p.B, p.Q)


def _erasable(tree: TropicalTree, vid: str) -> bool:
    """Whether `vid` is a balanced 2-valent inner vertex whose two edges
    run straight on inside one cone, so erasing it keeps the image; the
    edges are oriented by the rule of `_outgoing`, with no wall crossing."""
    inc = tree.incident(vid)
    if len(inc) != 2 or vid in tree.boundary:
        return False
    pos = tree.vertex(vid).position
    if pos is None or pos.cone is None or inc[0].cone != inc[1].cone:
        return False
    su = sv = 0
    for e in inc:
        u, v = e.direction
        if vid != e.tail:
            if e.ratio is None:
                raise StructuralError("rays have no direction at their infinite end")
            u, v = -u, -v
        su, sv = su + u, sv + v
    return su == sv == 0


def canonical_image(tree: TropicalTree) -> tuple:
    """The image of a tree that `check_structure` accepts (InvalidArgument
    on a non-tree), as the sorted tuple of its pieces; compare with `==`.

    A piece is ("seg", cone, point key, point key) with the endpoint keys
    ordered, or ("ray", cone, base point key, primitive direction); a
    point key is the point's stored integers (see `_point_key`), so a
    piece holds only ints and strs.
    Collinear balanced 2-valent vertices inside one cone are erased first,
    so subdivisions of the same image coincide.  A cylinder's image is that
    of `cyl.tree`, and its path's that of `cyl.path_part()`."""
    if type(tree) is not TropicalTree:
        raise InvalidArgument(f"canonical image needs a TropicalTree, got {brief(tree)}")
    # Erasing a vertex leaves the cone and the exact direction of the edge
    # at each neighbour as they were, so the erasable vertices can be read
    # off the tree once; each maximal run through them becomes one piece.
    # Runs are walked from their bounded ends, so a ray can only end one.
    erasable = {v.id for v in tree.vertices if _erasable(tree, v.id)}
    walked = set()
    pieces = []
    for v in tree.vertices:
        if v.id in erasable or v.position is None:
            continue
        for first in tree.incident(v.id):
            if id(first) in walked:
                continue
            last, end = first, v.id
            while True:
                walked.add(id(last))
                end = last.head if last.tail == end else last.tail
                if end not in erasable:
                    break
                e1, e2 = tree.incident(end)
                last = e2 if e1 is last else e1
            if last.ratio is None:
                pieces.append(("ray", last.cone, _point_key(v.position),
                               primitive_part(*last.direction)))
            else:
                k1, k2 = sorted((_point_key(v.position),
                                 _point_key(tree.vertex(end).position)))
                pieces.append(("seg", last.cone, k1, k2))
    return tuple(sorted(pieces))


# ---------------------------------------------------------------------------
# tree surgery helpers (used by tests and the round-trip checks)


def subdivide_edge(base: TropicalBase, tree: TropicalTree, key: tuple[str, str],
                   t: Fraction) -> TropicalTree:
    """Split a bounded edge at parameter fraction t in (0, 1).

    The new vertex is balanced and collinear, so the image is unchanged.
    It takes the first id of s1, s2, ... that `tree` does not use
    (`_unused_ids`); `relabel` renames it.  Raises InvalidArgument unless
    `base` is a `TropicalBase`, `tree` a `TropicalTree`, `key` a tuple of
    two str ids and `t` rational (see `is_rational`), and StructuralError
    unless `key` is a bounded edge whose cone, in 0..l-1, holds its tail.
    """
    _check_objects(base, tree, "subdivide_edge")
    if not _is_key(key):
        raise InvalidArgument(f"edge key must be a tuple of two str ids, got {brief(key)}")
    if not is_rational(t):
        raise InvalidArgument(f"subdivision parameter must be rational, got {brief(t)}")
    if not 0 < t < 1:
        raise InvalidArgument("subdivision parameter must be strictly inside (0, 1)")
    target = next((e for e in tree.incident(key[0]) if (e.tail, e.head) == key), None)
    if target is None or target.ratio is None:
        raise StructuralError(f"no bounded edge {brief(key)}")
    fresh = next(_unused_ids(tree, "s"))
    tail = tree.vertex(target.tail).position
    tc = (base._coords(tail, target.cone)
          if tail is not None and 0 <= target.cone < base.l else None)
    if tc is None:
        raise StructuralError(
            f"vertex {brief(target.tail)} does not lie in cone {brief(target.cone)} of its "
            f"edge")
    # tail + t * (N/D) * direction, over the one denominator Q * w
    A, B, Q = tc
    N, D = target.ratio
    w, s = t.denominator * D, t.numerator * N * Q
    du, dv = target.direction
    mid = base._point(target.cone, A * w + s * du, B * w + s * dv, Q * w)
    vertices = list(tree.vertices) + [Vertex(fresh, mid)]
    edges = [e for e in tree.edges if e is not target]
    edges.append(Edge(target.tail, fresh, target.cone,
                      target.direction, t * target.length))
    edges.append(Edge(fresh, target.head, target.cone,
                      target.direction, (1 - t) * target.length))
    return TropicalTree(vertices, edges, tree.boundary)


def relabel(tree: TropicalTree, mapping: dict[str, str]) -> TropicalTree:
    """Rename vertices; edge tails are re-normalized to the new order.
    Raises InvalidArgument unless `tree` is a `TropicalTree` and `mapping`
    a dict."""
    if type(tree) is not TropicalTree or not isinstance(mapping, dict):
        raise InvalidArgument(f"relabel needs a TropicalTree and a dict, got "
                              f"{brief(tree)}, {brief(mapping)}")

    def m(x: str) -> str:
        return mapping.get(x, x)

    vertices = [Vertex(m(v.id), v.position) for v in tree.vertices]
    edges = [Edge(m(e.tail), m(e.head), e.cone, e.direction, e.length)
             for e in tree.edges]
    return TropicalTree(vertices, edges, (m(tree.boundary[0]), m(tree.boundary[1])))
