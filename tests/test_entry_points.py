"""Hypothesis fuzzer of the library entry points that check the values
entering them: on any argument, ints of 5,000 digits and objects of the
wrong class among them, each call returns a value or raises a
`TropcylError`, never a bare `ValueError`/`TypeError`/`AttributeError`,
and an accepted value is exact (no float is floored or stored)."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl import SparseLaurentSeries as S
from tropcyl.errors import brief
from tropcyl.extension import tropical_trace
from tropcyl.wallcross import focus_focus_inverse
from shear_oracle import fraction_shear

# A fixed alphabet: plain st.text() first builds a Unicode table, which
# takes seconds in a checkout without a .hypothesis cache.
NOT_INT = (st.booleans() | st.floats() | st.fractions()
           | st.text(alphabet="1/0-x .e", max_size=4) | st.none())
# An int of 5,000 digits: past the 4,300 that `str` and `repr` accept.
HUGE = st.integers(-9, 9).filter(bool).map(lambda d: d * 10 ** 4999)
ANY = st.integers() | HUGE | NOT_INT
DEL_PEZZO = tc.del_pezzo_base()
# A value of each of several package classes, for the object slots.
OBJECT = ANY | st.sampled_from((
    tc.LooijengaPair((1, 1, 1)), tc.build_base((1, 1, 1)), DEL_PEZZO, tc.BasePoint(0, 1),
    tc.TangentVector(0, 1, 0), tc.CountQuery(2, 0, 1), S.monomial(1, 0),
    tc.family_spine(2, 0, 1, 1), tc.canonical_image(tc.family_spine(2, 0, 1, 1))))


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
                                      st.fractions(0, 3, max_denominator=5)), OBJECT)
VERTICES = _or_any(st.lists(st.builds(tc.Vertex, st.sampled_from("ab"), POINT.filter(
    lambda p: p is None or type(p) is tc.BasePoint)) | OBJECT, max_size=2))
EDGES = _or_any(st.lists(st.builds(tc.Edge, st.sampled_from("ab"), st.sampled_from("ab"),
                                   st.integers(0, 3), st.just((1, 0)), st.none())
                         | OBJECT, max_size=2))
SERIES = _or_any(st.dictionaries(
    st.tuples(st.integers(-3, 12) | HUGE, st.integers(-3, 3) | HUGE),
    st.integers(-3, 3) | st.fractions(-5, 5, max_denominator=9), max_size=3).map(S.from_dict),
    OBJECT)
QUERY = _or_any(st.builds(tc.CountQuery, st.integers(1, 12), st.integers(-3, 3) | HUGE,
                          st.integers(-2, 14)), OBJECT)
SPINE = _or_any(st.builds(tc.family_spine, st.integers(1, 5), st.integers(-3, 3),
                          st.integers(-1, 6), st.sampled_from((Fraction(1, 2), 1, 2))),
                OBJECT)
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


def _shear(s):
    image = tc.focus_focus_apply(s)
    assert type(s) is S and image == fraction_shear(s, 1)
    mirror = S.from_dict({(-i, j): c for (i, j), c in s.terms})
    assert focus_focus_inverse(mirror) == fraction_shear(mirror, -1)


def _backward_count(q):
    value = tc.backward_count(q)
    assert type(q) is tc.CountQuery and value == (comb(q.l, q.n) if q.n >= 0 else 0)


def _count_spine(base, spine):
    assert type(tc.count_spine(base, spine)) is int
    assert type(base) is tc.TropicalBase and type(spine) is tc.TropicalTree


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
        lambda d: _series(S.from_dict, d),
        st.tuples(_or_any(st.dictionaries(_or_any(st.tuples(INT, INT)), RATIONAL,
                                          max_size=3)))),
    "monomial": (lambda *args: _series(S.monomial, *args),
                 st.tuples(INT, INT, RATIONAL)),
    "focus_focus_apply": (_shear, st.tuples(SERIES)),
    "backward_count": (_backward_count, st.tuples(QUERY)),
    "count_spine": (_count_spine, st.tuples(_or_any(st.just(DEL_PEZZO), OBJECT), SPINE)),
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
        SEQUENCE | OBJECT))),
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


E5000 = 10 ** 5000


@pytest.mark.parametrize("call", [
    lambda: tc.CountQuery(E5000, 0, 0),
    lambda: S.from_dict({(0, 0): E5000, (1, 1): 0.5}),
    lambda: tc.count_table(E5000, [0]),
    lambda: tc.virtual_dim(E5000, 0.5, 0, 0),
    lambda: tc.LooijengaPair([E5000, 0.5, 1]),
    lambda: tc.TangentVector(0, E5000, 0.5),
    lambda: tc.verify_toric_criterion(-E5000, 0, 1),
    lambda: tc.family_spine(-E5000, 0, 0, 1),
    lambda: tc.family_spine(1, 0, 0, -E5000),
    lambda: tc.extend(DEL_PEZZO, tc.family_spine(2, 0, 1, 1), E5000),
    lambda: tc.focus_focus_apply(S.monomial(E5000, 0)),
], ids=["CountQuery", "from_dict", "count_table", "virtual_dim", "LooijengaPair",
        "TangentVector", "verify_toric_criterion", "family_spine-l", "family_spine-b",
        "extend", "focus_focus_apply"])
def test_long_int_is_shown_by_its_digit_count(call):
    # each used to end in a bare ValueError from str() of the int
    with pytest.raises(tc.TropcylError, match="int of 5001 digits"):
        call()


def test_brief_is_repr_up_to_long_ints():
    for x in (0, -7, 10 ** 40 - 1, "ab", None, 0.5, True, (1,), (), [1, (2, 3)],
              {(0, 1): Fraction(1, 2)}, Fraction(-3, 4), range(3)):
        assert brief(x) == repr(x)[:60]
    for k in (40, 41, 100, 4299, 4300, 5000):
        assert brief(10 ** k - 1) == f"<int of {k} digits>" if k > 40 else repr(10 ** k - 1)
        assert brief(10 ** k) == f"<int of {k + 1} digits>"
        assert brief(-10 ** k) == f"<negative int of {k + 1} digits>"
    assert brief([Fraction(E5000, 3)]) == "[Fraction(<int of 5001 digits>, 3)]"
    loop = []
    loop.append(loop)
    assert brief(loop) == "<list>"
    assert len(brief(list(range(100)))) == 60
