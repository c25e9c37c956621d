"""Test-only references for the cylinder completion and for edge lengths:
the forms the engine used before the command line completed the cylinder
from the cast and before an edge stored its length as integers (N, D).

`FractionEdge` and `fraction_make_edge` are `spines.Edge` and `make_edge`
as they were: the length is stored as a `Fraction`.  `full_cylinder_in_b`
is `extension.cylinder_in_b` as the command line ran it: the structure
check, then a leg from every bounded vertex off the origin whose direction
sum is nonzero, each leg a `FractionEdge`; the sum is the wall-matrix one
of `spine_oracle` and the radial test the `Fraction` one of
`point_oracle`, so the reference shares neither input of the leg rule with
the engine.  `fraction_cylinder_to_json`
writes that cylinder as the report did, the whole tree in the spine format
plus the legs, each length from its `Fraction`."""

from fractions import Fraction
from math import gcd

from tropcyl import InvalidArgument, StructuralError, UnbalancedNonRadial
from tropcyl.lattice import is_int, is_rational
from tropcyl.spines import check_structure

from point_oracle import fraction_is_outward_radial
from spine_oracle import vector_direction_sum


class FractionEdge:
    """`spines.Edge` with its length stored as a `Fraction`, or None."""

    __slots__ = ("tail", "head", "cone", "direction", "length")

    def __init__(self, tail, head, cone, direction, length):
        self.tail, self.head, self.cone = tail, head, cone
        self.direction, self.length = direction, length

    def key(self):
        return (self.tail, self.head, self.cone, self.direction, self.length)

    def __eq__(self, other):
        return type(other) is FractionEdge and self.key() == other.key()

    def __repr__(self):
        return f"FractionEdge{self.key()!r}"


def fraction_make_edge(tail, head, cone, direction, length) -> FractionEdge:
    """`make_edge` storing a `Fraction`: the canonical tail choice, with
    the bounded edge running from the smaller id."""
    if not (isinstance(tail, str) and isinstance(head, str)):
        raise InvalidArgument(f"edge endpoints must be vertex id strs, got {tail!r}, {head!r}")
    u, v = direction
    if not (is_int(cone) and is_int(u) and is_int(v)):
        raise InvalidArgument(f"edge needs int cone and direction, got {cone!r}, {direction!r}")
    if length is not None:
        if not is_rational(length):
            raise InvalidArgument(f"edge length must be None or rational, got {length!r}")
        length = Fraction(length)
        if head < tail:
            return FractionEdge(head, tail, cone, (-u, -v), length)
    return FractionEdge(tail, head, cone, (u, v), length)


def as_fraction_edge(e) -> FractionEdge:
    """The `FractionEdge` of an `Edge`, read from its integers (N, D)."""
    length = None if e.ratio is None else Fraction(e.ratio[0], e.ratio[1])
    return FractionEdge(e.tail, e.head, e.cone, e.direction, length)


def full_cylinder_in_b(base, ext):
    """(vertices, edges, boundary, legs) of the cylinder of the extended
    tree `ext`: vertices as (id, position) sorted by id, with the origin
    vertices added; edges as `FractionEdge`s sorted by (tail, head), the
    legs added; legs as sorted (tail, head) keys."""
    check_structure(base, ext)
    for b in ext.boundary:
        if ext.vertex(b).position is not None:
            raise StructuralError(f"extended spine boundary {b!r} must run to infinity")
    vertices = [(v.id, v.position) for v in ext.vertices]
    ids = {v.id for v in ext.vertices}
    edges = [as_fraction_edge(e) for e in ext.edges]
    legs = []
    k = 0
    for v in ext.vertices:
        pos = v.position
        if pos is None or pos.cone is None:
            continue
        su, sv = vector_direction_sum(base, ext, v.id)
        if (su, sv) == (0, 0):
            continue
        if not fraction_is_outward_radial(base, pos, pos.cone, su, sv):
            raise UnbalancedNonRadial(f"vertex {v.id!r} is not balanced radially")
        length = Fraction(gcd(pos.A, pos.B), pos.Q * gcd(su, sv))
        k += 1
        while f"o{k}" in ids:
            k += 1
        vertices.append((f"o{k}", None))
        leg = fraction_make_edge(v.id, f"o{k}", pos.cone, (-su, -sv), length)
        edges.append(leg)
        legs.append((leg.tail, leg.head))
    return (sorted(vertices, key=lambda x: x[0]),
            sorted(edges, key=lambda e: (e.tail, e.head)),
            ext.boundary, sorted(legs))


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def fraction_cylinder_to_json(ext, cylinder) -> dict:
    """The cylinder report of `full_cylinder_in_b(base, ext)`; origin
    vertices are the ones `ext` does not have."""
    vertices, edges, boundary, legs = cylinder
    ids = {v.id for v in ext.vertices}
    out = []
    for vid, pos in vertices:
        if vid not in ids:
            out.append({"id": vid, "origin": True})
        elif pos is None:
            continue
        elif pos.cone is None:
            out.append({"id": vid, "origin": True})
        else:
            out.append({"id": vid, "cone": pos.cone, "coords": [_frac(pos.a), _frac(pos.b)]})
    return {
        "vertices": out,
        "edges": [{"tail": e.tail, "head": e.head, "cone": e.cone,
                   "direction": list(e.direction),
                   "length": "unbounded" if e.length is None else _frac(e.length)}
                  for e in edges],
        "boundary": list(boundary),
        "legs": [list(leg) for leg in legs],
    }
