"""Test-only reference for the `tropcyl extend` report: the dict writer the
command line used before it wrote the report as text.  `dict_spine_to_json`
builds a tree's spine file as a dict, entry by entry; `dict_cylinder_to_json`
shares the extended spine's entries with the cylinder and merges in the
legs' entries by sorting; `oracle_report` is the whole report, which
`json.dumps(..., sort_keys=True)` writes as the command line printed it."""

from math import gcd
from operator import itemgetter

from tropcyl.extension import spine_legs


def _ratio_to_str(n, d):
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def _point_to_json(entry, p):
    if p.is_origin:
        entry["origin"] = True
    else:
        entry["cone"] = p.cone
        entry["coords"] = [_ratio_to_str(p.A, p.Q), _ratio_to_str(p.B, p.Q)]
    return entry


def _edge_to_json(e):
    ratio = e.ratio
    return {
        "tail": e.tail,
        "head": e.head,
        "cone": e.cone,
        "direction": [e.direction[0], e.direction[1]],
        "length": "unbounded" if ratio is None else f"{ratio[0]}/{ratio[1]}",
    }


def dict_spine_to_json(tree) -> dict:
    vertices = [_point_to_json({"id": v.id}, v.position)
                for v in tree.vertices if v.position is not None]
    return {"vertices": vertices, "edges": [_edge_to_json(e) for e in tree.edges],
            "boundary": [tree.boundary[0], tree.boundary[1]]}


_entry_id = itemgetter("id")
_entry_key = itemgetter("tail", "head")


def dict_cylinder_to_json(extended: dict, legs) -> dict:
    """The cylinder report from `extended`, the extended spine's report of
    `dict_spine_to_json`, and the (origin id, leg edge) pairs of
    `extension.spine_legs`."""
    vertices = extended["vertices"] + [{"id": oid, "origin": True} for oid, _ in legs]
    edges = extended["edges"] + [_edge_to_json(leg) for _, leg in legs]
    vertices.sort(key=_entry_id)
    edges.sort(key=_entry_key)
    return {"vertices": vertices, "edges": edges, "boundary": extended["boundary"],
            "legs": sorted([leg.tail, leg.head] for _, leg in legs)}


def oracle_report(base, spine, result) -> dict:
    """The report of `tropcyl extend` on `spine`, whose extension is
    `result`."""
    extended = dict_spine_to_json(result.extended)
    return {
        "extendable": True,
        "steps": result.steps,
        "curve_class": {f"D_{i}": m for (i, m) in result.curve_class.coeffs},
        "extended_spine": extended,
        "cylinder": dict_cylinder_to_json(
            extended, spine_legs(base, spine, result.extended)),
    }
