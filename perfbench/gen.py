"""Seeded generation of the three workloads.

`generate(workload, seed)` returns the operation list of one pass and the
input files it reads.  Every operation is a plain JSON-able dict:

    {"kind": "cli", "argv": [...], "tag": str | None, "expect": {...}}
    {"kind": "lib", "call": name, "args": {...}, "tag": None, "expect": {...}}

`argv` names input files relative to the work directory the worker runs
in.  `expect` holds what the checks in `check.py` compare against; it is
known from how the input was built, never from running the timed path.

The seed picks the concrete inputs (entries, blow-up sequences, family
parameters, heights, rotations, order).  The sizes that drive cost are
a fixed schedule, so every seed gives the same cost profile: that keeps
the latency quantiles and throughput steady across seeds, and the tagged
anchor sizes feed the per-layer scaling curves.

Library calls used here (family spines, spiral prefixes, extended spines
for the library-call operations) run before any timing starts.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("base", "extend", "count")

# Heights of the central vertex of family spines.
HEIGHTS = ("1/2", "1", "3/2", "7/3", "5/2", "3", "11/4", "5")


def _pair_json(ds) -> str:
    return json.dumps({"self_intersections": list(ds)})


def _toric_pair(rng: random.Random, l: int) -> list[int]:
    """A toric pair of length l: blow-ups of P^2 or a Hirzebruch surface.

    A toric blow-up at the corner between components i and i+1 inserts a
    (-1)-curve there and lowers both neighbours by one; the fan still
    closes, so the monodromy stays trivial.
    """
    if rng.random() < 0.3:
        ds = [1, 1, 1]
    else:
        a = rng.randint(0, 3)
        ds = [a, 0, -a, 0]
    while len(ds) < l:
        i = rng.randrange(len(ds))
        j = (i + 1) % len(ds)
        ds[i] -= 1
        ds[j] -= 1
        ds.insert(i + 1, -1)
    shift = rng.randrange(l)
    return ds[shift:] + ds[:shift]


def _gen_base(rng: random.Random):
    ops, files = [], {}

    def base_op(ds, kind, tag=None):
        name = f"pair{len(files):03d}.json"
        files[name] = _pair_json(ds)
        ops.append({"kind": "cli", "argv": ["base", name], "tag": tag,
                    "expect": {"pair": list(ds), "kind": kind,
                               "positive": kind != "nonpositive"}})

    # Positive pairs: some d_i >= 1, so a 1x1 minor of -M is negative and
    # the minor enumeration stops early.  These set the median.
    for i in range(39):
        l = 4 + i % 11
        ds = [rng.randint(-3, 0) for _ in range(l)]
        for _ in range(rng.randint(1, 2)):
            ds[rng.randrange(l)] = rng.randint(1, 2)
        base_op(ds, "positive")
    # Toric pairs: the fan closes.
    for i in range(30):
        base_op(_toric_pair(rng, 4 + i % 11), "toric")
    # Non-positive pairs: -M is diagonally dominant, so all 2^l principal
    # minors are enumerated.  These set the tail: eight pairs at l = 10 are
    # where the 90th percentile falls, with five slower operations above
    # them.  (-2)^l at the anchor sizes feeds the lattice.is_positive
    # scaling curve.
    for l in range(4, 15):
        if l in (8, 10, 12, 14):
            base_op((-2,) * l, "nonpositive", tag=f"l{l:02d}")
        else:
            base_op([rng.randint(-4, -2) for _ in range(l)], "nonpositive")
    for _ in range(7):
        base_op([rng.randint(-4, -2) for _ in range(10)], "nonpositive")
    for l in (3, 4, 5):
        ops.append({"kind": "lib", "call": "toric_sweep",
                    "args": {"l": l, "lo": -3, "hi": 3}, "tag": None,
                    "expect": {"l": l, "lo": -3, "hi": 3}})
    return ops, files


def _start_spine(base, cone: int):
    """Two-vertex spine (2, 1) -> (1, 1) in `cone`: it spirals forever on
    (-2)^4 and takes k + 2 steps on a rotation of (-2)^(k-1), (-1).

    Rotating the base together with the cone gives the seed a choice of
    inputs that all cost the same, so long trees keep a fixed cost.
    """
    from tropcyl import Vertex, make_edge, make_tree

    return make_tree(
        [Vertex("a", base.point(cone, 2, 1)), Vertex("b", base.point(cone, 1, 1))],
        [make_edge("a", "b", cone, (-1, 0), 1)],
        ("a", "b"))


def _spiral_prefixes(base, spine, sizes):
    """Bounded spines of the given vertex counts along the spiral.

    Extends only the end that keeps spiralling; every prefix is a valid
    bounded spine (each old end becomes a balanced 2-valent vertex).
    """
    from tropcyl import extend_step

    side = None
    for s in (0, 1):
        _, _, finished = extend_step(base, spine, spine.boundary[s])
        if not finished:
            side = s
    if side is None:
        raise RuntimeError("start spine does not spiral")
    out = {}
    current = spine
    while len(current.vertices) < max(sizes):
        current, _, finished = extend_step(base, current,
                                           current.boundary[side])
        if finished:
            raise RuntimeError("spiral end finished")
        if len(current.vertices) in sizes:
            out[len(current.vertices)] = current
    return out


def _gen_extend(rng: random.Random):
    from tropcyl import (LooijengaPair, build_base, del_pezzo_base, extend,
                         family_spine)
    from tropcyl.serialize import parse_frac, spine_to_json

    ops, files = [], {}
    dp = del_pezzo_base()
    files["dp.json"] = _pair_json(dp.pair.self_intersections)
    files["m2x4.json"] = _pair_json((-2,) * 4)

    def spine_file(tree, stem):
        name = f"{stem}{len(files):03d}.json"
        files[name] = json.dumps(spine_to_json(tree))
        return name

    def family(i):
        # (l, n) follow a fixed schedule so that every seed has the same
        # mix of tree shapes; the seed picks m and the height.
        l = 1 + i % 8
        return (l, rng.randint(-4, 4), (i // 8) % (l + 1), rng.choice(HEIGHTS))

    # Small trees, a few extension steps each: these set the median.
    for i in range(55):
        l, m, n, b = family(i)
        name = spine_file(family_spine(l, m, n, parse_frac(b)), "fam")
        ops.append({"kind": "cli", "argv": ["extend", "dp.json", name],
                    "tag": None,
                    "expect": {"exit": 0, "family": [l, m, n, b]}})
    for i in range(33):
        l, m, n, b = family(i)
        name = spine_file(family_spine(l, m, n, parse_frac(b)), "fam")
        ops.append({"kind": "cli", "argv": ["validate", "dp.json", name],
                    "tag": "v0003", "expect": {"exit": 0}})
    # Library calls on extended family spines: cylinder, lift, and the
    # engine image against the exact trace clipping.
    for i in range(8):
        l, m, n, b = family(i)
        ext = extend(dp, family_spine(l, m, n, parse_frac(b))).extended
        name = spine_file(ext, "ext")
        ops.append({"kind": "lib", "call": "cylinder_chain",
                    "args": {"spine": name, "family": [l, m, n, b]},
                    "tag": None, "expect": {"equal": True}})
    # One-turn spines on a rotation of (-2)^(k-1), (-1): k + 2 steps and
    # long reports.  Three k = 128 trees and the 200-step spiral sit at the
    # 90th percentile, so it is a long-tree latency.
    for k in (64, 128, 128, 128, 256, 512):
        r = rng.randrange(k)
        ds = (-2,) * (k - 1) + (-1,)
        base = build_base(LooijengaPair(ds[-r:] + ds[:-r] if r else ds))
        pair_name = f"turn{len(files):03d}.json"
        files[pair_name] = _pair_json(base.pair.self_intersections)
        name = spine_file(_start_spine(base, r), "turn")
        tag = f"k{k + 2:04d}" if k != 128 else None
        ops.append({"kind": "cli", "argv": ["extend", pair_name, name],
                    "tag": tag, "expect": {"exit": 0, "steps": k + 2}})
    # The (-2)^4 spiral never finishes: exit 1 at the step budget.
    m2x4 = build_base(LooijengaPair((-2,) * 4))
    for budget in (200, 400, 800, 1600):
        name = spine_file(_start_spine(m2x4, rng.randrange(4)), "spiral")
        tag = f"spiral{budget:04d}" if budget != 400 else None
        ops.append({"kind": "cli",
                    "argv": ["extend", "m2x4.json", name,
                             "--max-steps", str(budget)],
                    "tag": tag, "expect": {"exit": 1, "steps": budget}})
    # Bounded spiral prefixes: long trees for validation.
    sizes = (200, 400, 800, 1600)
    start = _start_spine(m2x4, rng.randrange(4))
    for v, tree in sorted(_spiral_prefixes(m2x4, start, sizes).items()):
        name = spine_file(tree, "prefix")
        tag = f"v{v:04d}" if v != 400 else None
        ops.append({"kind": "cli", "argv": ["validate", "m2x4.json", name],
                    "tag": tag, "expect": {"exit": 0}})
    return ops, files


def _gen_count(rng: random.Random):
    ops = []
    # Counts through the spine matcher on 3-vertex family spines: these
    # set the median.
    for i in range(59):
        l = 1 + i % 8
        m, n, b = rng.randint(-4, 4), rng.randint(0, l), rng.choice(HEIGHTS)
        ops.append({"kind": "cli",
                    "argv": ["count", "--l", str(l), "--m", str(m),
                             "--n", str(n), "--b", b],
                    "tag": "v0003", "expect": {"l": l, "m": m, "n": n, "b": b}})
    # The series engine at large l; every l > 20 count also runs the
    # symmetry check.  The 90th percentile falls among count and symmetry
    # at l = 200 and the oracle count at l = 20, which cost about the same.
    for l in (50, 75, 100, 150, 200, 300, 400):
        tag = f"l{l:03d}" if l in (50, 100, 200, 400) else None
        for cmd in ("count", "symmetry"):
            m, n = rng.randint(-5, 5), rng.randint(0, l)
            ops.append({"kind": "cli",
                        "argv": [cmd, "--l", str(l), "--m", str(m),
                                 "--n", str(n)],
                        "tag": tag, "expect": {"l": l, "m": m, "n": n}})
    # l <= 20 runs the subset-enumeration oracle too.  C(l, j) = C(l, l-j),
    # so the seed may pick either side without changing the cost.
    for l in range(12, 21):
        j = l // 2 - 1
        n = j if rng.random() < 0.5 else l - j
        m = rng.randint(-5, 5)
        ops.append({"kind": "cli",
                    "argv": ["count", "--l", str(l), "--m", str(m),
                             "--n", str(n)],
                    "tag": None, "expect": {"l": l, "m": m, "n": n}})
    for l_max in (16, 18, 20):
        m = rng.randint(-3, 3)
        ops.append({"kind": "cli",
                    "argv": ["table", "--l-max", str(l_max), "--m-min", str(m),
                             "--m-max", str(m)],
                    "tag": None, "expect": {"l_max": l_max, "m_values": [m]}})
    return ops, {}


def generate(workload: str, seed: int):
    """(ops, files) of one pass of `workload`, determined by `seed`."""
    gen = {"base": _gen_base, "extend": _gen_extend, "count": _gen_count}
    rng = random.Random(f"{workload}:{seed}")
    ops, files = gen[workload](rng)
    rng.shuffle(ops)
    return ops, files
