"""Hypothesis fuzzer of the library entry points that check the values
entering them: on any argument each call returns a value or raises a
`TropcylError`, never a bare `ValueError`/`TypeError`, and an accepted
value is exact (no float is floored or stored)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl import SparseLaurentSeries as S
from tropcyl.extension import tropical_trace

# A fixed alphabet: plain st.text() first builds a Unicode table, which
# takes seconds in a checkout without a .hypothesis cache.
NOT_INT = (st.booleans() | st.floats() | st.fractions()
           | st.text(alphabet="1/0-x .e", max_size=4) | st.none())
ANY = st.integers() | NOT_INT


def _or_any(accepted, other=ANY):
    """`accepted` on half the draws and `other` on the others, so that both
    the value and the error paths are hit (`|` would weight each branch of
    `other` like `accepted`)."""
    return st.booleans().flatmap(lambda ok: accepted if ok else other)


INT = _or_any(st.integers(-3, 12))
RATIONAL = _or_any(st.integers(-3, 12) | st.fractions(-5, 5, max_denominator=9))
SEQUENCE = _or_any(st.lists(INT, max_size=5) | st.lists(INT, max_size=5).map(tuple))
ID = _or_any(st.sampled_from("ab"))
POINT = _or_any(st.none() | st.builds(tc.BasePoint, st.integers(0, 3),
                                      st.fractions(0, 3, max_denominator=5)))
VERTICES = _or_any(st.lists(st.builds(tc.Vertex, st.sampled_from("ab"), POINT.filter(
    lambda p: p is None or type(p) is tc.BasePoint)) | ANY, max_size=2))
EDGES = _or_any(st.lists(st.builds(tc.Edge, st.sampled_from("ab"), st.sampled_from("ab"),
                                   st.integers(0, 3), st.just((1, 0)), st.none())
                         | ANY, max_size=2))
BOUNDARY = _or_any(st.tuples(ID, ID) | st.lists(ID, max_size=3))


def _exact(x) -> bool:
    return type(x) is int or type(x) is Fraction


def _count(l, m, n):
    q = tc.CountQuery(l, m, n)
    value = tc.count(q)
    assert type(value) is int
    assert tc.symmetry_check(q)


def _series(build, *args):
    s = build(*args)
    assert all(type(i) is int and type(j) is int and type(c) is Fraction
               for (i, j), c in s.terms)


def _pair(entries):
    assert all(type(d) is int for d in tc.LooijengaPair(entries).self_intersections)


def _trace(l, m, n, b, ts):
    assert all(_exact(s.t) and _exact(s.point.a) and _exact(s.point.b)
               for s in tc.trace_points(l, m, n, b, ts))


def _vector(cone, u, v):
    vec = tc.TangentVector(cone, u, v)
    assert all(type(x) is int for x in (vec.cone, vec.u, vec.v))


def _edge(tail, head, cone, direction, length):
    e = tc.make_edge(tail, head, cone, direction, length)
    assert type(tail) is str and type(head) is str
    assert type(cone) is int and all(type(x) is int for x in direction)
    assert length is None or _exact(length)
    assert e.length is None or type(e.length) is Fraction


def _base_point(cone, a, b):
    p = tc.BasePoint(cone, a, b)
    assert (cone is None or type(cone) is int) and _exact(a) and _exact(b)
    assert type(p.a) is Fraction and type(p.b) is Fraction


def _vertex(vid, position):
    v = tc.Vertex(vid, position)
    assert type(v.id) is str and (position is None or type(position) is tc.BasePoint)


def _tree(vertices, edges, boundary):
    t = tc.make_tree(vertices, edges, boundary)
    assert all(type(x) is str for x in t.boundary) and len(t.boundary) == 2


def _point(cone, a, b):
    p = tc.del_pezzo_base().point(cone, a, b)
    assert type(cone) is int and _exact(a) and _exact(b)
    assert type(p.a) is Fraction and type(p.b) is Fraction


def _curve_class(mapping):
    cc = tc.CurveClass.of(mapping)
    assert all(type(k) is int and type(v) is int for k, v in mapping.items())
    assert all(type(k) is int and type(v) is int for k, v in cc.coeffs)


def _extend(max_steps):
    tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), max_steps)
    assert type(max_steps) is int


def _table(l_max, m_values):
    table = tc.count_table(l_max, m_values)
    assert type(l_max) is int and all(type(m) is int for m in table["m_values"])


def _monodromy(base):
    m = tc.monodromy(base)
    assert all(type(x) is int for x in (m.a, m.b, m.c, m.d))


def _matrix(a, b, c, d):
    m = tc.IntMatrix2(a, b, c, d)
    assert all(type(x) is int for x in (m.a, m.b, m.c, m.d))


def _virtual_dim(g, dim_v, alpha_dot_k, n):
    assert type(tc.virtual_dim(g, dim_v, alpha_dot_k, n)) is int


def _sweep(l, lo, hi):
    assert all(type(x) is int for x in tc.verify_toric_criterion(l, lo, hi))
    assert type(l) is int and type(lo) is int and type(hi) is int


ENTRY_POINTS = {
    "CountQuery": (_count, st.tuples(INT, INT, INT)),
    "from_dict": (
        lambda d, trunc: _series(S.from_dict, d, trunc),
        st.tuples(_or_any(st.dictionaries(_or_any(st.tuples(INT, INT)), RATIONAL,
                                          max_size=3)), st.none() | INT)),
    "monomial": (lambda *args: _series(S.monomial, *args),
                 st.tuples(INT, INT, RATIONAL, st.none() | INT)),
    "LooijengaPair": (_pair, st.tuples(SEQUENCE)),
    "build_base": (tc.build_base, st.tuples(SEQUENCE)),
    "TropicalBase": (tc.TropicalBase, st.tuples(SEQUENCE)),
    "TropicalBase.point": (_point, st.tuples(INT, RATIONAL, RATIONAL)),
    "TangentVector": (_vector, st.tuples(INT, INT, INT)),
    "BasePoint": (_base_point, st.tuples(st.none() | INT, RATIONAL, RATIONAL)),
    "Vertex": (_vertex, st.tuples(ID, POINT | st.tuples(INT, INT))),
    "make_tree": (_tree, st.tuples(VERTICES, EDGES, BOUNDARY)),
    "make_edge": (_edge, st.tuples(
        ID, ID, INT,
        _or_any(st.tuples(INT, INT) | st.lists(INT, max_size=3)), st.none() | RATIONAL)),
    "fan_closure": (tc.fan_closure, st.tuples(SEQUENCE)),
    "intersection_matrix": (tc.intersection_matrix, st.tuples(SEQUENCE)),
    "is_positive": (tc.is_positive, st.tuples(SEQUENCE)),
    "tropical_trace": (tropical_trace,
                       st.tuples(INT, INT, INT, RATIONAL, RATIONAL)),
    "trace_points": (_trace, st.tuples(
        INT, INT, INT, RATIONAL, _or_any(st.lists(RATIONAL, max_size=3)))),
    "family_spine": (tc.family_spine, st.tuples(INT, INT, INT, RATIONAL)),
    "trace_path_image": (tc.trace_path_image, st.tuples(INT, INT, INT, RATIONAL)),
    "CurveClass.of": (_curve_class, st.tuples(
        _or_any(st.dictionaries(INT, INT, max_size=3)))),
    "extend": (_extend, st.tuples(INT)),
    "count_table": (_table, st.tuples(INT, SEQUENCE)),
    "monodromy": (_monodromy, st.tuples(_or_any(
        st.builds(tc.build_base, st.lists(st.integers(-3, 3), min_size=3, max_size=5))
        | st.builds(tc.LooijengaPair, st.lists(st.integers(-3, 3), min_size=3, max_size=5)),
        SEQUENCE))),
    "IntMatrix2": (_matrix, st.tuples(INT, INT, INT, INT)),
    "virtual_dim": (_virtual_dim, st.tuples(INT, INT, INT, INT)),
    # l and the pair count are capped, so any ints end in bounded time
    "verify_toric_criterion": (_sweep, st.tuples(
        _or_any(st.integers(), NOT_INT), _or_any(st.integers(), NOT_INT),
        _or_any(st.integers(), NOT_INT))),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_returns_or_raises_a_domain_error(name):
    call, arguments = ENTRY_POINTS[name]

    @settings(max_examples=15, deadline=None)
    @given(args=arguments)
    def check(args):
        try:
            call(*args)
        except tc.TropcylError:
            pass

    check()


@pytest.mark.parametrize("call", [
    lambda: tc.CurveClass.of({0: 1.5}),
    lambda: tc.CurveClass.of({"a": 1}),
    lambda: tc.CurveClass.of([(0, 1)]),
    lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), 5.0),
    lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), True),
    lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), "5"),
    lambda: tc.count_table(5.5, [0]),
    lambda: tc.count_table(5, 3),
    lambda: tc.count_table(5, [0.0]),
    lambda: tc.verify_toric_criterion("a", 0, 1),
    lambda: tc.verify_toric_criterion(3, 0.5, 1),
    lambda: tc.monodromy(None),
    lambda: tc.TropicalBase(None),
    lambda: tc.IntMatrix2(0.5, 0, 0, 1),
    lambda: tc.IntMatrix2(1, 0, 0, True),
    lambda: tc.virtual_dim(0.5, 2, 1, 1),
    lambda: tc.virtual_dim(0, 2, 1, "1"),
])
def test_ill_typed_input_is_invalid_argument(call):
    with pytest.raises(tc.InvalidArgument):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: tc.CurveClass.of({0: -1}), tc.InvalidArgument),
    (lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), 0), tc.InvalidQuery),
    (lambda: tc.count_table(21, [0]), tc.InvalidQuery),
    (lambda: tc.count_table(5, []), tc.InvalidQuery),
    (lambda: tc.verify_toric_criterion(2, 0, 1), tc.InvalidPair),
    pytest.param(lambda: tc.monodromy((0, -1)), tc.InvalidPair, id="monodromy-InvalidPair"),
])
def test_out_of_range_input_keeps_its_error(call, error):
    with pytest.raises(error):
        call()
