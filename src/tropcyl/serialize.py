"""JSON input/output: pair files, spine files, and report fragments.

Rationals travel as strings "p/q" with q > 0 and gcd(p, q) = 1.  Vertices
at infinity are implicit: they appear only as heads of edges of length
"unbounded" and are omitted from the vertex list.

A spine file is read in one pass: each coordinate string becomes an
integer pair (n, d), each vertex's two pairs become the integers (A, B, Q)
of its `BasePoint` over their lcm (`lattice._over_lcm`), and each edge
length becomes the coprime pair (N, D) of `Edge.ratio`, with one gcd.
The parse has checked every type, so the edges are built unchecked by
`spines._edge`, with its tail choice; the tree goes through the one
`TropicalTree` constructor, as every tree does.  `point_to_json`
writes a point's report fields, each coordinate from (A, B, Q) with one
gcd; an edge length is written from (N, D) as it is stored.

The cylinder report of `tropcyl extend` repeats the extended spine's
vertices and edges: `cylinder_to_json` shares their entries with the
extended spine's report and merges in the legs' entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter

from .errors import brief
from .lattice import ORIGIN, BasePoint, LooijengaPair, TropicalBase, _over_lcm, is_int
from .spines import Edge, TropicalTree, Vertex, _edge


class SchemaError(ValueError):
    """Input JSON does not match the documented file schema."""


def frac_to_str(x) -> str:
    """An int or `Fraction` as "p/q"."""
    return f"{x.numerator}/{x.denominator}"


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
        if not is_int(cone):
            raise SchemaError(f"vertex {vid!r} cone must be an integer, got {brief(cone)}")
        try:
            pos = base._point(cone, *_over_lcm(*_parse_ratio(coords[0]),
                                               *_parse_ratio(coords[1])))
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
        if not (is_int(u) and is_int(v)):
            raise SchemaError("edge direction must be an integer pair")
        tail, head = item["tail"], item["head"]
        if not isinstance(tail, str) or not isinstance(head, str):
            raise SchemaError("edge endpoints must be vertex id strings")
        cone = item["cone"]
        if not is_int(cone):
            raise SchemaError(f"edge cone must be an integer, got {brief(cone)}")
        if item["length"] == "unbounded":
            ratio = None
            if head not in ids:
                vertices.append(Vertex(head, None))
                ids.add(head)
        else:
            n, d = _parse_ratio(item["length"])
            g = gcd(n, d)
            ratio = (n // g, d // g)
        edges.append(_edge(tail, head, cone, u, v, ratio))

    boundary = data["boundary"]
    if (not isinstance(boundary, list) or len(boundary) != 2
            or not all(isinstance(b, str) for b in boundary)):
        raise SchemaError('"boundary" must be a pair of vertex ids')
    return TropicalTree(vertices, edges, boundary)


def _ratio_to_str(n: int, d: int) -> str:
    """n/d in lowest terms, as "p/q"."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def point_to_json(entry: dict, p: BasePoint) -> dict:
    """`entry` with the report fields of the point `p` added: "origin":
    true, or its cone and its two cone coordinates as "p/q"."""
    if p.is_origin:
        entry["origin"] = True
    else:
        entry["cone"] = p.cone
        entry["coords"] = [_ratio_to_str(p.A, p.Q), _ratio_to_str(p.B, p.Q)]
    return entry


def _edge_to_json(e: Edge) -> dict:
    ratio = e.ratio
    return {
        "tail": e.tail,
        "head": e.head,
        "cone": e.cone,
        "direction": [e.direction[0], e.direction[1]],
        "length": "unbounded" if ratio is None else f"{ratio[0]}/{ratio[1]}",
    }


def spine_to_json(tree: TropicalTree) -> dict:
    vertices = [point_to_json({"id": v.id}, v.position)
                for v in tree.vertices if v.position is not None]
    return {"vertices": vertices, "edges": [_edge_to_json(e) for e in tree.edges],
            "boundary": [tree.boundary[0], tree.boundary[1]]}


_entry_id = itemgetter("id")
_entry_key = itemgetter("tail", "head")


def cylinder_to_json(extended: dict, legs) -> dict:
    """The report of the cylinder that completes an extended spine.

    `extended` is the extended spine's report from `spine_to_json`, and
    `legs` the cylinder's legs as (origin id, leg edge) pairs, as
    `extension.spine_legs` gives them.  The cylinder repeats the spine's
    vertex and edge entries, which are shared with `extended`, not copied;
    the origin vertices and the legs are merged in by id and by
    (tail, head), the orders a tree keeps, and "legs" lists the leg keys
    in order.
    """
    vertices = extended["vertices"] + [{"id": oid, "origin": True} for oid, _ in legs]
    edges = extended["edges"] + [_edge_to_json(leg) for _, leg in legs]
    vertices.sort(key=_entry_id)
    edges.sort(key=_entry_key)
    return {"vertices": vertices, "edges": edges, "boundary": extended["boundary"],
            "legs": sorted([leg.tail, leg.head] for _, leg in legs)}


def curve_class_to_json(cc) -> dict:
    return {f"D_{i}": m for (i, m) in cc.coeffs}
