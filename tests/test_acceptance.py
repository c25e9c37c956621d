"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact (integer and rational comparisons, no tolerances); the
two sweep criteria also assert their stated wall-clock budgets.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import tropcyl as tc
from tropcyl import (
    CountQuery,
    IntMatrix2,
    LooijengaPair,
    SparseLaurentSeries,
    build_base,
    canonical_image,
    count,
    cylinder_in_b,
    extend,
    family_spine,
    focus_focus_apply,
    images_equal,
    is_balanced,
    monodromy,
    relabel,
    subdivide_edge,
    symmetry_check,
    trace_path_image,
    validate_spine,
    verify_toric_criterion,
    virtual_dim,
)
from subset_oracle import subset_count

F = Fraction


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_binomial_count_reproduction():
    with criterion(1, "binomial count reproduction"):
        t0 = time.perf_counter()
        for l in range(1, 13):
            for m in range(-5, 6):
                for n in range(0, l + 1):
                    assert count(CountQuery(l, m, n)) == subset_count(l, n), \
                        (l, m, n)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"count grid took {elapsed:.2f}s"


def test_criterion_2_wall_crossing_identity():
    with criterion(2, "wall-crossing identity"):
        for l in range(1, 13):
            for m in range(-5, 6):
                image = focus_focus_apply(SparseLaurentSeries.monomial(l, m))
                expected = SparseLaurentSeries.from_dict({
                    (l, m + n): subset_count(l, n) for n in range(l + 1)
                })
                assert image == expected, (l, m)


def test_criterion_3_symmetry_at_example_scale():
    with criterion(3, "orientation symmetry"):
        for l in range(1, 13):
            for m in range(-5, 6):
                for n in range(0, l + 1):
                    assert symmetry_check(CountQuery(l, m, n)), (l, m, n)


def test_criterion_4_monodromy_toric_criterion():
    with criterion(4, "monodromy/toric criterion"):
        t0 = time.perf_counter()
        total_pairs = 0
        total_closures = 0
        for l in range(3, 7):
            pairs, closures, mismatches = verify_toric_criterion(l, -3, 3)
            assert mismatches == 0, f"l={l}: {mismatches} mismatches"
            total_pairs += pairs
            total_closures += closures
        assert total_pairs == sum(7 ** l for l in range(3, 7))
        assert total_closures > 0
        dp = monodromy(build_base(LooijengaPair((0, -1, 0, 0))))
        assert not dp.is_identity
        assert dp.trace() == 2
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"toric sweep took {elapsed:.2f}s"


def _criterion5_grid():
    for l in range(1, 5):
        for n in range(0, l + 1):
            for m in range(-2, 3):
                for b in (F(1), F(3, 2)):
                    yield l, m, n, b


def test_criterion_5_trace_extension_agreement(del_pezzo):
    with criterion(5, "trace/extension agreement"):
        for l, m, n, b in _criterion5_grid():
            res = extend(del_pezzo, family_spine(l, m, n, b))
            cyl = cylinder_in_b(del_pezzo, res.extended)
            engine = canonical_image(cyl.path_part())
            oracle = trace_path_image(l, m, n, b)
            assert engine == oracle, (l, m, n, b)


def test_criterion_6_balancing_conservation(del_pezzo):
    with criterion(6, "balancing conservation"):
        failures = 0
        for l, m, n, b in _criterion5_grid():
            res = extend(del_pezzo, family_spine(l, m, n, b))
            cyl = cylinder_in_b(del_pezzo, res.extended)
            for v in cyl.tree.vertices:
                if v.is_unbounded or cyl.tree.valency(v.id) <= 1:
                    continue
                if not is_balanced(del_pezzo, cyl.tree, v.id):
                    failures += 1
        assert failures == 0


def test_criterion_7_deformation_invariance(del_pezzo):
    with criterion(7, "deformation invariance"):
        heights = (F(1, 2), F(1), F(3, 2), F(7, 3))
        for l in range(1, 5):
            for n in range(0, l + 1):
                for m in range(-2, 3):
                    counts = set()
                    classes = set()
                    for b in heights:
                        spine = family_spine(l, m, n, b)
                        counts.add(tc.count_spine(del_pezzo, spine))
                        classes.add(extend(del_pezzo, spine).curve_class)
                    assert len(counts) == 1, (l, m, n)
                    assert len(classes) == 1, (l, m, n)


def _random_family_spine(rng):
    l = rng.randint(1, 4)
    n = rng.randint(0, l)
    m = rng.randint(-2, 2)
    b = F(rng.randint(1, 12), rng.randint(1, 7))
    return family_spine(l, m, n, b)


def test_criterion_8_rigidity_lite(del_pezzo):
    with criterion(8, "image rigidity at combinatorial level"):
        rng = random.Random(20260811)

        # invariance under subdivision and relabeling: 100 cases
        for _ in range(100):
            spine = _random_family_spine(rng)
            key = rng.choice([(e.tail, e.head) for e in spine.edges])
            t = F(rng.randint(1, 9), 10)
            sub = subdivide_edge(del_pezzo, spine, key, t)
            perm = {"v0": "q_mid", "v1": "a_end", "v2": "z_end"}
            rel = relabel(sub, perm)
            assert images_equal(spine, sub)
            assert images_equal(spine, rel)

        # inequality under rational perturbation of a vertex: 100 cases
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 2000
            spine = _random_family_spine(rng)
            mode = rng.choice(("leaf", "height"))
            if mode == "height":
                # move the central vertex along its wall
                delta = F(rng.randint(1, 5), rng.randint(6, 11))
                b0 = spine.position("v0").a
                other = family_spine(*_family_parameters(spine), b0 + delta)
                if validate_spine(del_pezzo, other):
                    continue
                assert not images_equal(spine, other)
            else:
                other = _perturb_leaf(del_pezzo, spine, rng)
                if other is None or validate_spine(del_pezzo, other):
                    continue
                assert not images_equal(spine, other)
            done += 1


def _family_parameters(spine):
    by_cone = {e.cone: e for e in spine.edges}
    l, m = by_cone[0].direction
    n = by_cone[1].direction[0] + m + l
    return l, m, n


def _perturb_leaf(base, spine, rng):
    from tropcyl import Vertex, make_edge, make_tree
    from tropcyl.lattice import lattice_length_of_point

    leaf = rng.choice(("v1", "v2"))
    edge = [e for e in spine.edges if leaf in (e.tail, e.head)][0]
    pos = spine.position(leaf)
    da = F(rng.randint(-3, 3), rng.randint(17, 23))
    db = F(rng.randint(-3, 3), rng.randint(17, 23))
    if da == 0 and db == 0:
        return None
    a, b = pos.a + da, pos.b + db
    if a <= 0 or b <= 0:
        return None
    new_pos = base.point(pos.cone, a, b)
    anchor = spine.position("v0")
    tc0 = base.coords_in_cone(anchor, edge.cone)
    delta = (a - tc0[0], b - tc0[1])
    if delta == (0, 0):
        return None
    length, prim = lattice_length_of_point(*delta)
    vertices = [Vertex("v0", anchor) if v.id == "v0" else
                (Vertex(leaf, new_pos) if v.id == leaf else v)
                for v in spine.vertices]
    edges = [e for e in spine.edges if e is not edge]
    edges.append(make_edge("v0", leaf, edge.cone, prim, length))
    return make_tree(vertices, edges, spine.boundary)


def test_criterion_9_virtual_dimension():
    with criterion(9, "virtual dimension"):
        for n in range(0, 11):
            assert virtual_dim(0, 3, -2, n) == n + 2
