"""JSON input/output: pair files, spine files, and report fragments.

Rationals travel as strings "p/q" with q > 0 and gcd(p, q) = 1.  Vertices
at infinity are implicit: they appear only as heads of edges of length
"unbounded" and are omitted from the vertex list.

A spine file is read in one pass: each coordinate string becomes an
integer pair (n, d), each vertex's two pairs become the integers (A, B, Q)
of its `BasePoint` with one lcm, and the vertices and edges are built
directly, since the parse has checked every type.  The writer formats
each coordinate from those integers with one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import brief
from .lattice import ORIGIN, BasePoint, LooijengaPair, TropicalBase, is_int
from .spines import CylinderInB, Edge, TropicalTree, Vertex, _tree


class SchemaError(ValueError):
    """Input JSON does not match the documented file schema."""


def frac_to_str(x) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _int_field(x, what: str) -> int:
    if not is_int(x):
        raise SchemaError(f"{what} must be an integer, got {brief(x)}")
    return x


def _parse_ratio(s) -> tuple[int, int]:
    """(n, d) with d > 0 and n/d the rational of a string or int, not
    necessarily in lowest terms; SchemaError for anything else.

    A canonical "p/q" (ASCII digits, at most one leading "-", q without a
    leading zero) is read with `int`; every other string goes to
    `Fraction`, which settles what is accepted.
    """
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        try:
            if (slash and s.isascii() and den.isdigit() and den[0] != "0"
                    and (num.isdigit() or num[:1] == "-" and num[1:].isdigit())):
                return int(num), int(den)
            x = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {s!r}") from exc
        return x.numerator, x.denominator
    if is_int(s):
        return int(s), 1
    raise SchemaError(f"expected a rational string, got {brief(s)}")


def parse_frac(s) -> Fraction:
    """The rational of a string or int (see `_parse_ratio`)."""
    return Fraction(*_parse_ratio(s))


def pair_from_json(data) -> LooijengaPair:
    if not isinstance(data, dict) or "self_intersections" not in data:
        raise SchemaError('pair file needs a "self_intersections" list')
    seq = data["self_intersections"]
    if not isinstance(seq, list) or not all(is_int(x) for x in seq):
        raise SchemaError('"self_intersections" must be a list of integers')
    return LooijengaPair(tuple(seq))


def spine_from_json(base: TropicalBase, data) -> TropicalTree:
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
            raise SchemaError(f"bad vertex entry {item!r}")
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
            vertices.append(Vertex(vid, ORIGIN))
            continue
        if "cone" not in item or "coords" not in item:
            raise SchemaError(f"vertex {vid!r} needs cone and coords")
        coords = item["coords"]
        if not isinstance(coords, list) or len(coords) != 2:
            raise SchemaError(f"vertex {vid!r} coords must be a pair")
        cone = item["cone"]
        if type(cone) is not int:
            _int_field(cone, f"vertex {vid!r} cone")
        try:
            an, ad = _parse_ratio(coords[0])
            bn, bd = _parse_ratio(coords[1])
            q = ad if ad == bd else ad * bd // gcd(ad, bd)
            pos = base._point(cone, an * (q // ad), bn * (q // bd), q)
        except ValueError as exc:
            raise SchemaError(f"vertex {vid!r}: {exc}") from exc
        vertices.append(Vertex(vid, pos))

    edges = []
    for item in data["edges"]:
        if not isinstance(item, dict):
            raise SchemaError(f"bad edge entry {item!r}")
        for key in ("tail", "head", "cone", "direction", "length"):
            if key not in item:
                raise SchemaError(f'edge entry needs "{key}"')
        direction = item["direction"]
        if not isinstance(direction, list) or len(direction) != 2:
            raise SchemaError("edge direction must be an integer pair")
        u, v = direction
        if (type(u) is not int or type(v) is not int) and not (is_int(u) and is_int(v)):
            raise SchemaError("edge direction must be an integer pair")
        tail, head = item["tail"], item["head"]
        if not isinstance(tail, str) or not isinstance(head, str):
            raise SchemaError("edge endpoints must be vertex id strings")
        cone = item["cone"]
        if type(cone) is not int:
            _int_field(cone, "edge cone")
        if item["length"] == "unbounded":
            if head not in ids:
                vertices.append(Vertex(head, None))
                ids.add(head)
            edges.append(Edge(tail, head, cone, (u, v), None))
            continue
        length = parse_frac(item["length"])
        # `make_edge`'s tail choice
        if head < tail:
            edges.append(Edge(head, tail, cone, (-u, -v), length))
        else:
            edges.append(Edge(tail, head, cone, (u, v), length))

    boundary = data["boundary"]
    if (not isinstance(boundary, list) or len(boundary) != 2
            or not all(isinstance(b, str) for b in boundary)):
        raise SchemaError('"boundary" must be a pair of vertex ids')
    return _tree(vertices, edges, boundary)


def _ratio_to_str(n: int, d: int) -> str:
    """n/d in lowest terms, as "p/q"."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def coords_to_json(p: BasePoint) -> list[str]:
    """The two cone coordinates of a point off the origin, as "p/q"."""
    return [_ratio_to_str(p.A, p.Q), _ratio_to_str(p.B, p.Q)]


def spine_to_json(tree: TropicalTree) -> dict:
    vertices = []
    for v in tree.vertices:
        p = v.position
        if p is None:
            continue
        if p.cone is None:
            vertices.append({"id": v.id, "origin": True})
        else:
            vertices.append({
                "id": v.id,
                "cone": p.cone,
                "coords": coords_to_json(p),
            })
    edges = []
    for e in tree.edges:
        edges.append({
            "tail": e.tail,
            "head": e.head,
            "cone": e.cone,
            "direction": [e.direction[0], e.direction[1]],
            "length": "unbounded" if e.length is None else frac_to_str(e.length),
        })
    return {"vertices": vertices, "edges": edges,
            "boundary": [tree.boundary[0], tree.boundary[1]]}


def cylinder_to_json(cyl: CylinderInB) -> dict:
    out = spine_to_json(cyl.tree)
    out["legs"] = [[t, h] for (t, h) in cyl.legs]
    return out


def curve_class_to_json(cc) -> dict:
    return {f"D_{i}": m for (i, m) in cc.coeffs}
