"""Test-only references for points and the spine parse: the `Fraction`
forms the engine used before it stored a point as integers (A, B, Q) and
read spine files straight into that form.  `fraction_point` and
`split_ends_match` are `TropicalBase.point` and `spines._ends_match` as
they were.  `fraction_coords_in_cone` is the `Fraction` reader of a
point's cone coordinates that the engine had before it read points only
through their stored integers; every oracle reads coordinates through it,
so none shares the engine's reader.  `fraction_parse_frac`,
`fraction_spine_from_json` and `fraction_spine_to_json` are the parse and
the writer of `serialize` as they were, built through the public
constructors.  `fraction_is_radial` and `fraction_is_outward_radial` are
the radial tests of the spine checks and the leg rule on those
coordinates, for the spine, ray and cylinder oracles alike.
`lattice_length` splits a segment into its lattice length and primitive
direction, for tests that build edges between points, and `image_atoms`
lists what a canonical image is made of."""

from fractions import Fraction
from math import gcd, lcm

from tropcyl import BasePoint, InvalidArgument, SchemaError, Vertex, make_edge, make_tree
from tropcyl.errors import brief
from tropcyl.lattice import ORIGIN, ZERO, is_int, is_rational


def as_ints(coords):
    """(A, B, Q) of a pair of rationals: Q the lcm of their denominators."""
    a, b = Fraction(coords[0]), Fraction(coords[1])
    q = lcm(a.denominator, b.denominator)
    return (a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q)


def lattice_length(a, b):
    """(length, primitive direction) of the nonzero vector (a, b), with
    (a, b) = length * direction: gcd(A, B)/Q over the integers of
    `as_ints`."""
    A, B, Q = as_ints((a, b))
    g = gcd(A, B)
    return Fraction(g, Q), (A // g, B // g)


def image_atoms(x):
    """The leaves of the nested tuples of a canonical image."""
    if type(x) is tuple:
        for y in x:
            yield from image_atoms(y)
    else:
        yield x


def fraction_point(base, cone, a, b):
    """`TropicalBase.point` on `Fraction`s."""
    if not is_int(cone):
        raise InvalidArgument(f"point needs an int cone, got {cone!r:.60}")
    if not (is_rational(a) and is_rational(b)):
        raise InvalidArgument(
            f"point needs rational coordinates, got ({a!r:.60}, {b!r:.60})")
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0:
        raise InvalidArgument(f"cone coordinates must be nonnegative, got ({a}, {b})")
    cone %= base.l
    if b == 0:
        return BasePoint(cone, a, b) if a else ORIGIN
    if a == 0:
        return BasePoint((cone + 1) % base.l, b, ZERO)
    return BasePoint(cone, a, b)


def fraction_coords_in_cone(base, p, cone):
    """Coordinates of `p` in the closed cone `cone`, read modulo l, as
    `Fraction`s, or None: `TropicalBase._coords` on the `Fraction`
    coordinates of `p`."""
    cone %= base.l
    if p.cone is None:
        return (ZERO, ZERO)
    if p.cone == cone:
        return (p.a, p.b)
    if p.b == 0 and (p.cone - 1) % base.l == cone:
        return (ZERO, p.a)
    return None


def fraction_is_radial(base, pos, cone, u, v) -> bool:
    """Whether +-(u, v), a vector of cone `cone`, points along the ray from
    the origin through `pos`, on `Fraction` coordinates."""
    pa, pb = fraction_coords_in_cone(base, pos, cone)
    return u * pb == v * pa


def fraction_is_outward_radial(base, pos, cone, u, v) -> bool:
    """`spines.is_outward_radial` for a vector (u, v) of cone `cone`, on
    `Fraction` coordinates: a positive multiple of the ray through `pos`."""
    pa, pb = fraction_coords_in_cone(base, pos, cone)
    return u * pb == v * pa and u * pa + v * pb > 0


def split_ends_match(tc, hc, length, direction) -> bool:
    """The endpoint test on `Fraction` ends, split into numerators and
    denominators: q*(hn*td - tn*hd) == p*d*hd*td per coordinate."""
    p, q = length.numerator, length.denominator
    for t, h, d in zip(tc, hc, direction):
        tn, td, hn, hd = t.numerator, t.denominator, h.numerator, h.denominator
        if q * (hn * td - tn * hd) != p * d * hd * td:
            return False
    return True


_NONZERO_DIGITS = frozenset("123456789")


def fraction_parse_frac(s) -> Fraction:
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if (slash and digits.isascii() and digits.isdigit()
                    and den[:1] in _NONZERO_DIGITS and den.isascii() and den.isdigit()):
                return Fraction(int(num), int(den))
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {brief(s)}") from exc
    if is_int(s):
        return Fraction(s)
    raise SchemaError(f"expected a rational string, got {s!r}")


def _int_field(x, what):
    if not is_int(x):
        raise SchemaError(f"{what} must be an integer, got {x!r}")
    return x


def fraction_spine_from_json(base, data):
    """`serialize.spine_from_json` through `fraction_point` and `make_edge`;
    an edge cone is read modulo l, as `fraction_point` reads a vertex cone."""
    if not isinstance(data, dict):
        raise SchemaError("spine file must be a JSON object")
    for key in ("vertices", "edges", "boundary"):
        if key not in data:
            raise SchemaError(f'spine file needs a "{key}" entry')
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise SchemaError('"vertices" and "edges" must be lists')
    vertices = []
    ids = set()
    for item in data["vertices"]:
        if not isinstance(item, dict) or "id" not in item:
            raise SchemaError(f"bad vertex entry {brief(item)}")
        vid = item["id"]
        if not isinstance(vid, str):
            raise SchemaError("vertex ids must be strings")
        if vid in ids:
            raise SchemaError(f"duplicate vertex id {vid!r}")
        ids.add(vid)
        origin = item.get("origin", False)
        if not isinstance(origin, bool):
            raise SchemaError(f'vertex {vid!r} "origin" must be true or false')
        if origin:
            vertices.append(Vertex(vid, fraction_point(base, 0, 0, 0)))
            continue
        if "cone" not in item or "coords" not in item:
            raise SchemaError(f"vertex {vid!r} needs cone and coords")
        coords = item["coords"]
        if not isinstance(coords, list) or len(coords) != 2:
            raise SchemaError(f"vertex {vid!r} coords must be a pair")
        cone = _int_field(item["cone"], f"vertex {vid!r} cone")
        try:
            pos = fraction_point(base, cone, fraction_parse_frac(coords[0]),
                                 fraction_parse_frac(coords[1]))
        except ValueError as exc:
            raise SchemaError(f"vertex {vid!r}: {exc}") from exc
        vertices.append(Vertex(vid, pos))

    edges = []
    for item in data["edges"]:
        if not isinstance(item, dict):
            raise SchemaError(f"bad edge entry {brief(item)}")
        for key in ("tail", "head", "cone", "direction", "length"):
            if key not in item:
                raise SchemaError(f'edge entry needs "{key}"')
        direction = item["direction"]
        if (not isinstance(direction, list) or len(direction) != 2
                or not all(is_int(x) for x in direction)):
            raise SchemaError("edge direction must be an integer pair")
        tail, head = item["tail"], item["head"]
        if not isinstance(tail, str) or not isinstance(head, str):
            raise SchemaError("edge endpoints must be vertex id strings")
        cone = _int_field(item["cone"], "edge cone") % base.l
        if item["length"] == "unbounded":
            if head not in ids:
                vertices.append(Vertex(head, None))
                ids.add(head)
            edges.append(make_edge(tail, head, cone, tuple(direction), None))
        else:
            edges.append(make_edge(tail, head, cone, tuple(direction),
                                   fraction_parse_frac(item["length"])))

    boundary = data["boundary"]
    if (not isinstance(boundary, list) or len(boundary) != 2
            or not all(isinstance(b, str) for b in boundary)):
        raise SchemaError('"boundary" must be a pair of vertex ids')
    return make_tree(vertices, edges, (boundary[0], boundary[1]))


def _frac_to_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def fraction_spine_to_json(tree) -> dict:
    """`serialize.spine_to_json` on the `Fraction` coordinates."""
    vertices = []
    for v in tree.vertices:
        if v.position is None:
            continue
        if v.position.cone is None:
            vertices.append({"id": v.id, "origin": True})
        else:
            vertices.append({
                "id": v.id,
                "cone": v.position.cone,
                "coords": [_frac_to_str(v.position.a), _frac_to_str(v.position.b)],
            })
    edges = []
    for e in tree.edges:
        edges.append({
            "tail": e.tail,
            "head": e.head,
            "cone": e.cone,
            "direction": [e.direction[0], e.direction[1]],
            "length": "unbounded" if e.ratio is None else _frac_to_str(e.length),
        })
    return {"vertices": vertices, "edges": edges,
            "boundary": [tree.boundary[0], tree.boundary[1]]}
