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
ANY = (st.integers() | st.booleans() | st.floats() | st.fractions()
       | st.text(alphabet="1/0-x .e", max_size=4) | st.none())


def _or_any(accepted):
    """`accepted` on half the draws and `ANY` on the others, so that both
    the value and the error paths are hit (`|` would weight each branch of
    `ANY` like `accepted`)."""
    return st.booleans().flatmap(lambda ok: accepted if ok else ANY)


INT = _or_any(st.integers(-3, 12))
RATIONAL = _or_any(st.integers(-3, 12) | st.fractions(-5, 5, max_denominator=9))
SEQUENCE = _or_any(st.lists(INT, max_size=5) | st.lists(INT, max_size=5).map(tuple))


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
    assert type(cone) is int and all(type(x) is int for x in direction)
    assert length is None or _exact(length)
    assert e.length is None or type(e.length) is Fraction


def _point(cone, a, b):
    p = tc.del_pezzo_base().point(cone, a, b)
    assert type(cone) is int and _exact(a) and _exact(b)
    assert type(p.a) is Fraction and type(p.b) is Fraction


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
    "TropicalBase.point": (_point, st.tuples(INT, RATIONAL, RATIONAL)),
    "TangentVector": (_vector, st.tuples(INT, INT, INT)),
    "make_edge": (_edge, st.tuples(
        st.sampled_from("ab"), st.sampled_from("ab"), INT,
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
