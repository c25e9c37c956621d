"""JSON input/output: pair files, spine files, and the `tropcyl extend`
report.

Rationals travel as strings "p/q" with q > 0 and gcd(p, q) = 1.  Vertices
at infinity are implicit: they appear only as heads of edges of length
"unbounded" and are omitted from the vertex list.

A spine file is read in one pass: each coordinate string becomes an
integer pair (n, d), each vertex's two pairs become the integers (A, B, Q)
of its `BasePoint` over their lcm, each cone is reduced modulo l, and
each edge length becomes the coprime pair (N, D) of `Edge.ratio`, with
one gcd.  The vertices are built by `Vertex(...)`; the parse has checked
every type, so the edges are built unchecked by `spines._edge`, with its
tail choice.  The tree goes through the one `TropicalTree` constructor.

The writer formats each vertex and edge entry once, straight from the
tree, as the text `json.dumps(entry, sort_keys=True)` gives: keys in
sorted order, ids through `json.encoder.encode_basestring_ascii`, ints
through `%d` (the digits `int.__repr__` writes), each coordinate from
(A, B, Q) with one gcd (`_ratio_to_str`, which `point_to_json` also uses)
and an edge length from (N, D) as it is stored.  `spine_text` joins a
tree's entries into its spine file; `extend_report` reuses the extended
spine's entries in the cylinder's arrays and merges in the legs' entries.
`spine_to_json` is the dict view of the writer.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii
from math import gcd

from .errors import InvalidArgument, brief
from .extension import ExtensionResult
from .lattice import ORIGIN, BasePoint, LooijengaPair, TropicalBase, _over_lcm, is_int
from .spines import Edge, TropicalTree, Vertex, _edge, _edge_key, _vertex_id


class SchemaError(ValueError):
    """Input JSON does not match the documented file schema."""


def frac_to_str(x) -> str:
    """An int or `Fraction` as "p/q"."""
    return f"{x.numerator}/{x.denominator}"


# The largest exponent, in absolute value, of a rational string: 10**4299
# has the 4300 digits that `int` reads from a string at most, and a larger
# exponent would have `Fraction` build a power of 10 in unbounded time.
EXPONENT_MAX = 4299


def _parse_ratio(s) -> tuple[int, int]:
    """(n, d) with d > 0 and n/d the rational of a string or int, not
    necessarily in lowest terms; SchemaError for anything else.

    A canonical "p/q" (ASCII digits, at most one leading "-", q without a
    leading zero) is read with `int`; every other string goes to
    `Fraction`, which settles what is accepted, once its exponent, the
    integer after its last "e" or "E", is known to be at most
    EXPONENT_MAX in absolute value (an "e" can only start an exponent).
    """
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        try:
            if (slash and s.isascii() and den.isdigit() and den[0] != "0"
                    and (num.isdigit() or num[:1] == "-" and num[1:].isdigit())):
                return int(num), int(den)
            e = max(s.rfind("e"), s.rfind("E"))
            if e >= 0 and abs(int(s[e + 1:])) > EXPONENT_MAX:
                raise SchemaError(f"bad rational {brief(s)}: exponent beyond {EXPONENT_MAX}")
            x = Fraction(s)
        except SchemaError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {brief(s)}") from exc
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


# the keys of an edge entry, in the order a missing one is reported
_EDGE_KEYS = ("tail", "head", "cone", "direction", "length")


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
            raise SchemaError(f"bad vertex entry {brief(item)}")
        vid = item["id"]
        if not isinstance(vid, str):
            raise SchemaError("vertex ids must be strings")
        if vid in ids:
            raise SchemaError(f"duplicate vertex id {brief(vid)}")
        ids.add(vid)
        origin = item.get("origin", False)
        if not isinstance(origin, bool):
            raise SchemaError(f'vertex {brief(vid)} "origin" must be true or false')
        if origin:
            vertices.append(Vertex(vid, ORIGIN))
            continue
        if "cone" not in item or "coords" not in item:
            raise SchemaError(f"vertex {brief(vid)} needs cone and coords")
        coords = item["coords"]
        if not isinstance(coords, list) or len(coords) != 2:
            raise SchemaError(f"vertex {brief(vid)} coords must be a pair")
        cone = item["cone"]
        if not (cone.__class__ is int or is_int(cone)):
            raise SchemaError(f"vertex {brief(vid)} cone must be an integer, got {brief(cone)}")
        try:
            an, ad = _parse_ratio(coords[0])
            bn, bd = _parse_ratio(coords[1])
            pos = base._point(cone, *_over_lcm(an, ad, bn, bd))
        except ValueError as exc:
            raise SchemaError(f"vertex {brief(vid)}: {exc}") from exc
        vertices.append(Vertex(vid, pos))

    edges = []
    for item in data["edges"]:
        if not isinstance(item, dict):
            raise SchemaError(f"bad edge entry {brief(item)}")
        try:
            tail, head, cone, direction, length = (
                item["tail"], item["head"], item["cone"], item["direction"], item["length"])
        except KeyError:
            missing = next(key for key in _EDGE_KEYS if key not in item)
            raise SchemaError(f'edge entry needs "{missing}"') from None
        if not isinstance(direction, list) or len(direction) != 2:
            raise SchemaError("edge direction must be an integer pair")
        u, v = direction
        if not ((u.__class__ is int or is_int(u)) and (v.__class__ is int or is_int(v))):
            raise SchemaError("edge direction must be an integer pair")
        if not isinstance(tail, str) or not isinstance(head, str):
            raise SchemaError("edge endpoints must be vertex id strings")
        if not (cone.__class__ is int or is_int(cone)):
            raise SchemaError(f"edge cone must be an integer, got {brief(cone)}")
        if length == "unbounded":
            ratio = None
            if head not in ids:
                vertices.append(Vertex(head, None))
                ids.add(head)
        else:
            n, d = _parse_ratio(length)
            g = gcd(n, d)
            ratio = (n // g, d // g)
        edges.append(_edge(tail, head, cone % base.l, u, v, ratio))

    boundary = data["boundary"]
    if (not isinstance(boundary, list) or len(boundary) != 2
            or not all(isinstance(b, str) for b in boundary)):
        raise SchemaError('"boundary" must be a pair of vertex ids')
    return TropicalTree(vertices, edges, boundary)


def _ratio_to_str(n: int, d: int) -> str:
    """n/d in lowest terms, as "p/q": the one writer of a coordinate."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def point_to_json(entry: dict, p: BasePoint) -> dict:
    """`entry` with the report fields of the point `p` added: "origin":
    true, or its cone and its two cone coordinates as "p/q"."""
    if p.cone is None:
        entry["origin"] = True
    else:
        entry["cone"] = p.cone
        entry["coords"] = [_ratio_to_str(p.A, p.Q), _ratio_to_str(p.B, p.Q)]
    return entry


def _vertex_entry(vid: str, p: BasePoint | None) -> str | None:
    """The text of a vertex entry, None for a vertex at infinity."""
    if p is None:
        return None
    if p.cone is None:
        return '{"id": %s, "origin": true}' % _ascii(vid)
    Q = p.Q
    return '{"cone": %d, "coords": ["%s", "%s"], "id": %s}' % (
        p.cone, _ratio_to_str(p.A, Q), _ratio_to_str(p.B, Q), _ascii(vid))


def _edge_entry(e: Edge) -> str:
    """The text of an edge entry; a length is written from (N, D) as it
    is stored."""
    u, v = e.direction
    ratio = e.ratio
    return '{"cone": %d, "direction": [%d, %d], "head": %s, "length": %s, "tail": %s}' % (
        e.cone, u, v, _ascii(e.head),
        '"unbounded"' if ratio is None else '"%d/%d"' % ratio, _ascii(e.tail))


def _entries(tree: TropicalTree) -> tuple[list, list[str]]:
    """The vertex entries of `tree` in its vertex order, None for each
    vertex at infinity, and its edge entries in its edge order."""
    return ([_vertex_entry(v.id, v.position) for v in tree.vertices],
            list(map(_edge_entry, tree.edges)))


def _boundary(tree: TropicalTree) -> str:
    return "[%s, %s]" % (_ascii(tree.boundary[0]), _ascii(tree.boundary[1]))


def _spine(boundary: str, vertices: list, edges: list[str]) -> str:
    return '{"boundary": %s, "edges": [%s], "vertices": [%s]}' % (
        boundary, ", ".join(edges), ", ".join(filter(None, vertices)))


def spine_text(tree: TropicalTree) -> str:
    """The spine file of `tree`, as `json.dumps(..., sort_keys=True)`
    writes its dict: vertices at infinity are left out."""
    return _spine(_boundary(tree), *_entries(tree))


def spine_to_json(tree: TropicalTree) -> dict:
    """The spine file of `tree` as a dict: the view
    `json.loads(spine_text(tree))` of the writer.  Raises InvalidArgument
    unless `tree` is a `TropicalTree`."""
    if not isinstance(tree, TropicalTree):
        raise InvalidArgument(f"spine_to_json needs a TropicalTree, got {brief(tree)}")
    return json.loads(spine_text(tree))


def extend_report(result: ExtensionResult, legs) -> str:
    """The `tropcyl extend` report of `result`, as
    `json.dumps(report, sort_keys=True)` writes it.

    `legs` are the cylinder's legs as (origin id, leg edge) pairs, as
    `extension.spine_legs` gives them.  The cylinder repeats the extended
    spine's vertex and edge entries, formatted once for both; the origin
    vertices and the legs are inserted by id and by (tail, head), the
    orders a tree keeps, and "legs" lists the leg keys in order.
    """
    ext = result.extended
    vertices, edges = _entries(ext)
    boundary = _boundary(ext)
    spine = _spine(boundary, vertices, edges)
    # the spine's text is written, so its lists take the cylinder's
    # entries; from the last key down, so that each insertion leaves the
    # earlier positions, found in the extended tree, in place
    for oid in sorted((oid for oid, _ in legs), reverse=True):
        vertices.insert(bisect_right(ext.vertices, oid, key=_vertex_id),
                        _vertex_entry(oid, ORIGIN))
    legs = sorted((leg for _, leg in legs), key=_edge_key)
    for leg in reversed(legs):
        edges.insert(bisect_right(ext.edges, _edge_key(leg), key=_edge_key), _edge_entry(leg))
    cylinder = '{"boundary": %s, "edges": [%s], "legs": [%s], "vertices": [%s]}' % (
        boundary, ", ".join(edges),
        ", ".join("[%s, %s]" % (_ascii(leg.tail), _ascii(leg.head)) for leg in legs),
        ", ".join(filter(None, vertices)))
    return ('{"curve_class": %s, "cylinder": %s, "extendable": true, '
            '"extended_spine": %s, "steps": %d}' % (
                json.dumps(curve_class_to_json(result.curve_class), sort_keys=True),
                cylinder, spine, result.steps))


def curve_class_to_json(cc) -> dict:
    return {f"D_{i}": m for (i, m) in cc.coeffs}
