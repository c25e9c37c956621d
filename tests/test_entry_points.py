"""Hypothesis fuzzer of the library entry points that check the values
entering them: on any argument, ints of 5,000 digits and objects of the
wrong class among them, each call returns a value or raises a
`TropcylError`, never a bare `ValueError`/`TypeError`/`AttributeError`,
and an accepted value is exact (no float is floored or stored)."""

import inspect
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl import SparseLaurentSeries as S
from tropcyl.errors import brief
from tropcyl.serialize import spine_from_json
from shear_oracle import fraction_count, fraction_shear

# A fixed alphabet: plain st.text() first builds a Unicode table, which
# takes seconds in a checkout without a .hypothesis cache.
NOT_INT = (st.booleans() | st.floats() | st.fractions()
           | st.text(alphabet="1/0-x .e", max_size=4) | st.none())
# An int of 5,000 digits: past the 4,300 that `str` and `repr` accept.
HUGE = st.integers(-9, 9).filter(bool).map(lambda d: d * 10 ** 4999)
ANY = st.integers() | HUGE | NOT_INT
DEL_PEZZO = tc.del_pezzo_base()
EXTENDED = tc.extend(DEL_PEZZO, tc.family_spine(2, 0, 1, 1)).extended
CYLINDER = tc.cylinder_in_b(DEL_PEZZO, EXTENDED)
# A value of each of several package classes, for the object slots.
OBJECT = ANY | st.sampled_from((
    tc.LooijengaPair((1, 1, 1)), tc.build_base((1, 1, 1)), DEL_PEZZO, tc.BasePoint(0, 1),
    tc.CountQuery(2, 0, 1), S.monomial(1, 0),
    tc.family_spine(2, 0, 1, 1), tc.canonical_image(tc.family_spine(2, 0, 1, 1)),
    EXTENDED, CYLINDER, tc.CurveClass(((0, 1),))))


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
    st.integers(-3, 3), max_size=3).map(
        lambda d: S(tuple(d.items()))),
    OBJECT)
QUERY = _or_any(st.builds(tc.CountQuery, st.integers(1, 12), st.integers(-3, 3) | HUGE,
                          st.integers(-2, 14)), OBJECT)
SPINE = _or_any(st.builds(tc.family_spine, st.integers(1, 5), st.integers(-3, 3),
                          st.integers(-1, 6), st.sampled_from((Fraction(1, 2), 1, 2))),
                OBJECT)
BOUNDARY = _or_any(st.tuples(ID, ID) | st.lists(ID, max_size=3))
BASE = _or_any(st.just(DEL_PEZZO), OBJECT)
# extended spines and cylinders of the family, and of the wrong class
VALID_SPINE = st.integers(1, 4).flatmap(lambda l: st.builds(
    tc.family_spine, st.just(l), st.integers(-2, 2), st.integers(0, l),
    st.sampled_from((Fraction(1, 2), 1))))
EXTENDED_SPINE = VALID_SPINE.map(lambda s: tc.extend(DEL_PEZZO, s).extended)
PATH = _or_any(EXTENDED_SPINE, OBJECT)
CYLINDERS = _or_any(EXTENDED_SPINE.map(lambda e: tc.cylinder_in_b(DEL_PEZZO, e)), OBJECT)
VID = _or_any(st.sampled_from(("v0", "v1", "v2")))
# ids and edge keys that cannot be hashed, beside the other wrong values
UNHASHABLE = st.lists(st.sampled_from(("v0", "v2")), max_size=2) | st.builds(dict) | st.builds(set)
ANY_VID = _or_any(st.sampled_from(("v0", "v1", "v2")), UNHASHABLE | ANY)
KEY = _or_any(st.tuples(st.sampled_from(("v0", "v1", "v2")), st.sampled_from(("v0", "v1", "v2")))
              | st.just(("v0", "v2")), UNHASHABLE | ANY | st.tuples(ANY_VID, ANY_VID))
LEGS = _or_any(st.lists(st.tuples(ID, ID), max_size=2).map(tuple) | st.just(CYLINDER.legs),
               OBJECT | st.lists(st.tuples(ID, ID), max_size=2) | st.tuples(KEY))


def _exact(x) -> bool:
    return type(x) is int or type(x) is Fraction


def _count(l, m, n):
    q = tc.CountQuery(l, m, n)
    value = tc.count(q)
    assert type(value) is int
    assert value == tc.backward_count(q)


def _series(build, *args):
    s = build(*args)
    assert all(type(i) is int and type(j) is int and type(c) is int
               for (i, j), c in s.terms)


def _shear(s):
    image = tc.focus_focus_apply(s)
    assert type(s) is S and image == fraction_shear(s, 1)


def _backward_count(q):
    value = tc.backward_count(q)
    assert type(q) is tc.CountQuery and type(value) is int
    assert value == (comb(q.l, q.n) if q.n >= 0 else 0)
    assert value == fraction_count(q.l, q.m, q.n, -1)


def _count_spine(base, spine):
    assert type(tc.count_spine(base, spine)) is int
    assert type(base) is tc.TropicalBase and type(spine) is tc.TropicalTree


def _pair(entries):
    assert all(type(d) is int for d in tc.LooijengaPair(entries).self_intersections)


def _trace(l, m, n, b, t):
    p = tc.tropical_trace(l, m, n, b, t)
    assert _exact(b) and _exact(t) and type(p.a) is Fraction and type(p.b) is Fraction


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


def _curve_class_pairs(coeffs):
    cc = tc.CurveClass(coeffs)
    assert all(type(k) is int and type(v) is int and v > 0 for k, v in cc.coeffs)
    assert list(cc.coeffs) == sorted(cc.coeffs)
    assert cc == tc.CurveClass(coeffs[::-1])


def _extend(base, spine, max_steps):
    tc.extend(base, spine, max_steps)
    assert type(base) is tc.TropicalBase and type(spine) is tc.TropicalTree
    assert type(max_steps) is int


def _objects(call, *types):
    """`call` as a fuzzer row that checks each argument's class once the
    call returns."""
    def row(*args):
        call(*args)
        assert all(t is None or type(x) is t for x, t in zip(args, types))
    return row


def _subdivide(base, tree, key, t):
    out = tc.subdivide_edge(base, tree, key, t)
    assert type(base) is tc.TropicalBase and type(tree) is tc.TropicalTree
    assert _exact(t) and type(key) is tuple and all(type(x) is str for x in key)
    if base == DEL_PEZZO:
        assert tc.canonical_image(tree) == tc.canonical_image(out)


def _cylinder(tree, legs):
    cyl = tc.CylinderInB(tree, legs)
    tc.canonical_image(cyl.tree)
    cyl.path_part()
    assert type(tree) is tc.TropicalTree and type(legs) is tuple


def _lifted(cylinder, slopes, heights):
    z = tc.CylinderInBTilde(cylinder, slopes, heights)
    assert hash(z) == hash(tc.CylinderInBTilde(cylinder, slopes, heights))
    assert all(type(slope) is int for _, slope in z.slopes)
    assert all(_exact(height) for _, height in z.heights)


def _table(l_max, m_min, m_max):
    table = tc.count_table(l_max, m_min, m_max)
    assert type(l_max) is int and type(m_min) is int and type(m_max) is int
    assert table["m_values"] == list(range(m_min, m_max + 1))


def _monodromy(pair):
    (a, b), (c, d) = tc.monodromy(pair)
    assert all(type(x) is int for x in (a, b, c, d))


def _virtual_dim(g, dim_v, alpha_dot_k, n):
    assert type(tc.virtual_dim(g, dim_v, alpha_dot_k, n)) is int


def _spine_to_json(tree):
    data = tc.spine_to_json(tree)
    assert type(tree) is tc.TropicalTree
    assert spine_from_json(DEL_PEZZO, data) == tree


def _sweep(l, lo, hi):
    assert all(type(x) is int for x in tc.verify_toric_criterion(l, lo, hi))
    assert type(l) is int and type(lo) is int and type(hi) is int


ENTRY_POINTS = {
    "CountQuery": (_count, st.tuples(INT, INT, INT)),
    "monomial": (lambda *args: _series(S.monomial, *args), st.tuples(INT, INT)),
    "focus_focus_apply": (_shear, st.tuples(SERIES)),
    "backward_count": (_backward_count, st.tuples(QUERY)),
    "count_spine": (_count_spine, st.tuples(_or_any(st.just(DEL_PEZZO), OBJECT), SPINE)),
    "LooijengaPair": (_pair, st.tuples(SEQUENCE)),
    "build_base": (tc.build_base, st.tuples(SEQUENCE)),
    "TropicalBase": (tc.TropicalBase, st.tuples(SEQUENCE)),
    "TropicalBase.point": (_point, st.tuples(INT, RATIONAL, RATIONAL)),
    "BasePoint": (_base_point, st.tuples(st.none() | INT, RATIONAL, RATIONAL)),
    "Vertex": (_vertex, st.tuples(ID, POINT | st.tuples(INT, INT))),
    "make_tree": (_tree, st.tuples(VERTICES, EDGES, BOUNDARY)),
    "Edge": (_objects(tc.Edge, str, str, int), st.tuples(
        ID, ID, INT,
        _or_any(st.tuples(INT, INT) | st.lists(INT, max_size=3)), st.none() | RATIONAL)),
    "make_edge": (_edge, st.tuples(
        ID, ID, INT,
        _or_any(st.tuples(INT, INT) | st.lists(INT, max_size=3)), st.none() | RATIONAL)),
    "fan_closure": (tc.fan_closure, st.tuples(SEQUENCE)),
    "intersection_matrix": (tc.intersection_matrix, st.tuples(SEQUENCE)),
    "is_positive": (tc.is_positive, st.tuples(SEQUENCE)),
    "tropical_trace": (_trace, st.tuples(INT, INT, INT, RATIONAL, RATIONAL)),
    "family_spine": (tc.family_spine, st.tuples(INT, INT, INT, RATIONAL)),
    "trace_path_image": (tc.trace_path_image, st.tuples(INT, INT, INT, RATIONAL)),
    "CurveClass": (_curve_class_pairs, st.tuples(_or_any(
        st.lists(st.tuples(INT, INT), max_size=3).map(tuple)
        | st.lists(st.tuples(INT, INT), max_size=3),
        OBJECT | st.lists(INT, max_size=3)))),
    "extend": (_extend, st.tuples(BASE, SPINE, INT)),
    "extend_step": (_objects(tc.extend_step, tc.TropicalBase, tc.TropicalTree),
                    st.tuples(BASE, SPINE, VID)),
    "validate_spine": (_objects(tc.validate_spine, tc.TropicalBase, tc.TropicalTree),
                       st.tuples(BASE, SPINE)),
    "validate_extended_spine": (
        _objects(tc.validate_extended_spine, tc.TropicalBase, tc.TropicalTree),
        st.tuples(BASE, PATH)),
    "validate_cylinder_b": (_objects(tc.validate_cylinder_b, tc.TropicalBase, tc.CylinderInB),
                            st.tuples(BASE, CYLINDERS)),
    "cylinder_in_b": (_objects(tc.cylinder_in_b, tc.TropicalBase, tc.TropicalTree),
                      st.tuples(BASE, PATH)),
    "lift_to_tilde": (_objects(tc.lift_to_tilde, tc.TropicalBase, tc.TropicalTree),
                      st.tuples(BASE, PATH)),
    "is_balanced": (_objects(tc.is_balanced, tc.TropicalBase, tc.TropicalTree),
                    st.tuples(BASE, SPINE | PATH, VID)),
    "is_balanced.vid": (_objects(tc.is_balanced, tc.TropicalBase, tc.TropicalTree, str),
                        st.tuples(BASE, SPINE | PATH, ANY_VID)),
    "extend_step.end": (_objects(tc.extend_step, tc.TropicalBase, tc.TropicalTree, str),
                        st.tuples(BASE, SPINE, ANY_VID)),
    "subdivide_edge": (_subdivide, st.tuples(BASE, SPINE | PATH, KEY, RATIONAL)),
    "CylinderInB": (_cylinder, st.tuples(PATH, LEGS)),
    "CylinderInBTilde": (_lifted, st.tuples(
        CYLINDERS,
        _or_any(st.lists(st.tuples(st.tuples(ID, ID), INT), max_size=2).map(tuple),
                OBJECT | st.tuples(st.tuples(KEY, INT))),
        _or_any(st.lists(st.tuples(ID, RATIONAL), max_size=2).map(tuple),
                OBJECT | st.tuples(st.tuples(ANY_VID, RATIONAL))))),
    "Violation": (_objects(tc.Violation, str, str, str), st.tuples(ID, ID, ID)),
    "ExtensionResult": (_objects(tc.ExtensionResult, tc.TropicalTree, tc.CurveClass, int),
                        st.tuples(PATH, _or_any(st.just(tc.CurveClass(((0, 1),))), OBJECT),
                                  INT)),
    "canonical_image": (tc.canonical_image, st.tuples(SPINE | PATH)),
    "relabel": (_objects(tc.relabel, tc.TropicalTree, dict), st.tuples(
        SPINE, _or_any(st.dictionaries(VID, ID, max_size=2), OBJECT))),
    "TropicalTree": (tc.TropicalTree, st.tuples(VERTICES, EDGES, BOUNDARY)),
    "spine_to_json": (_spine_to_json, st.tuples(SPINE | PATH)),
    "count_table": (_table, st.tuples(INT, INT, INT)),
    "monodromy": (_monodromy, st.tuples(_or_any(
        st.builds(tc.LooijengaPair, st.lists(st.integers(-3, 3), min_size=3, max_size=5)),
        SEQUENCE | OBJECT))),
    "TropicalTree.vertex": (EXTENDED.vertex, st.tuples(ANY_VID)),
    "TropicalTree.incident": (EXTENDED.incident, st.tuples(ANY_VID)),
    "TropicalTree.edge": (EXTENDED.edge, st.tuples(ANY_VID, ANY_VID)),
    "SparseLaurentSeries": (lambda terms: _series(S, terms), st.tuples(_or_any(
        st.lists(st.tuples(st.tuples(INT, INT), INT), max_size=3).map(tuple), OBJECT))),
    "count": (_objects(tc.count, tc.CountQuery), st.tuples(QUERY)),
    "virtual_dim": (_virtual_dim, st.tuples(INT, INT, INT, INT)),
    # l and the pair count are capped, so any ints end in bounded time
    "verify_toric_criterion": (_sweep, st.tuples(
        _or_any(st.integers(), NOT_INT), _or_any(st.integers(), NOT_INT),
        _or_any(st.integers(), NOT_INT))),
}


# Public names whose row is keyed by another name.
ALIASES = {"SparseLaurentSeries.monomial": "monomial"}
# Methods every value class has: `==` answers NotImplemented for another
# class, and assignment and deletion raise AttributeError by design.
VALUE_PROTOCOL = {"__init__", "__eq__", "__hash__", "__repr__", "__reduce__",
                  "__setattr__", "__delattr__"}


def _public_entry_points() -> set[str]:
    """Each function in `tropcyl.__all__`, each constructor of a value class
    there, under its `__all__` name, and each public method or operator of
    such a class, as `Class.method`: those that take an argument besides
    `self` or `cls`.  Error classes are raised, not called with input."""
    names = set()
    for name in tc.__all__:
        obj = getattr(tc, name)
        if not isinstance(obj, type):
            if inspect.signature(obj).parameters:
                names.add(name)
            continue
        if issubclass(obj, BaseException):
            continue
        if len(inspect.signature(obj.__init__).parameters) > 1:
            names.add(name)
        for attr, member in vars(obj).items():
            operator = attr.startswith("__") and attr.endswith("__")
            if attr in VALUE_PROTOCOL or (attr.startswith("_") and not operator):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                call, bound = member.__func__, isinstance(member, classmethod)
            elif inspect.isfunction(member):
                call, bound = member, True
            else:
                continue
            if len(inspect.signature(call).parameters) > bound:
                names.add(f"{obj.__name__}.{attr}")
    return names


def test_every_public_entry_point_has_a_fuzzer_row():
    names = _public_entry_points()
    assert set(ALIASES) <= names
    assert not {ALIASES.get(n, n) for n in names} - set(ENTRY_POINTS)


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
    lambda: tc.CurveClass(((0, 1.5),)),
    lambda: tc.CurveClass((("a", 1),)),
    lambda: tc.CurveClass({0: 1}),
    lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), 5.0),
    lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), True),
    lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), "5"),
    lambda: tc.count_table(5.5, 0, 0),
    lambda: tc.count_table(5, [0], 0),
    lambda: tc.count_table(5, 0, 0.0),
    lambda: tc.verify_toric_criterion("a", 0, 1),
    lambda: tc.verify_toric_criterion(3, 0.5, 1),
    lambda: tc.monodromy(None),
    lambda: tc.TropicalBase(None),
    lambda: tc.monodromy(DEL_PEZZO),
    lambda: tc.is_positive(DEL_PEZZO),
    lambda: tc.virtual_dim(0.5, 2, 1, 1),
    lambda: tc.virtual_dim(0, 2, 1, "1"),
    lambda: tc.spine_to_json(CYLINDER),
    lambda: S((((0, 0), Fraction(1, 2)),)),
])
def test_ill_typed_input_is_invalid_argument(call):
    with pytest.raises(tc.InvalidArgument):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: tc.CurveClass(((0, -1),)), tc.InvalidArgument),
    (lambda: tc.extend(tc.del_pezzo_base(), tc.family_spine(2, 0, 1, 1), 0), tc.InvalidQuery),
    (lambda: tc.count_table(21, 0, 0), tc.InvalidQuery),
    (lambda: tc.count_table(5, 1, 0), tc.InvalidQuery),
    (lambda: tc.verify_toric_criterion(2, 0, 1), tc.InvalidPair),
    pytest.param(lambda: tc.monodromy((0, -1)), tc.InvalidPair, id="monodromy-InvalidPair"),
    (lambda: tc.count_table(3, 0, 100), tc.InvalidQuery),
])
def test_out_of_range_input_keeps_its_error(call, error):
    with pytest.raises(error):
        call()


E5000 = 10 ** 5000


def _raise(error):
    raise error


# Each used to end in a bare ValueError from str() of the int.  An error
# class is built by the package with the values it reports, so each one
# that formats its own message has a case here (see the test after).
LONG_INT_CASES = {
    "CountQuery": lambda: tc.CountQuery(E5000, 0, 0),
    "SparseLaurentSeries": lambda: S((((0, 0), E5000), ((1, 1), 0.5))),
    "count_table": lambda: tc.count_table(E5000, 0, 0),
    "virtual_dim": lambda: tc.virtual_dim(E5000, 0.5, 0, 0),
    "LooijengaPair": lambda: tc.LooijengaPair([E5000, 0.5, 1]),
    "verify_toric_criterion": lambda: tc.verify_toric_criterion(-E5000, 0, 1),
    "family_spine-l": lambda: tc.family_spine(-E5000, 0, 0, 1),
    "family_spine-b": lambda: tc.family_spine(1, 0, 0, -E5000),
    "extend": lambda: tc.extend(DEL_PEZZO, tc.family_spine(2, 0, 1, 1), E5000),
    "focus_focus_apply": lambda: tc.focus_focus_apply(S.monomial(E5000, 0)),
    "NotExtendable": lambda: _raise(tc.NotExtendable(E5000)),
}


@pytest.mark.parametrize("call", LONG_INT_CASES.values(), ids=LONG_INT_CASES)
def test_long_int_is_shown_by_its_digit_count(call):
    with pytest.raises(tc.TropcylError, match="int of 5001 digits"):
        call()


def test_every_error_class_with_its_own_init_has_a_long_int_case():
    # `_public_entry_points` leaves error classes out, so they are listed here
    public = [getattr(tc, name) for name in tc.__all__]
    own_init = {x.__name__ for x in public if isinstance(x, type)
                and issubclass(x, BaseException) and "__init__" in vars(x)}
    assert "NotExtendable" in own_init
    assert own_init <= set(LONG_INT_CASES)


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


SPINE_2_0_1 = tc.family_spine(2, 0, 1, 1)


@pytest.mark.parametrize("call", [
    lambda: tc.validate_spine(None, SPINE_2_0_1),
    lambda: tc.validate_spine(DEL_PEZZO, None),
    lambda: tc.extend(None, SPINE_2_0_1),
    lambda: tc.extend(DEL_PEZZO, None),
    lambda: tc.extend_step(None, SPINE_2_0_1, "v1"),
    lambda: tc.cylinder_in_b(DEL_PEZZO, None),
    lambda: tc.lift_to_tilde(DEL_PEZZO, 5),
    lambda: tc.validate_extended_spine(DEL_PEZZO, 5),
    lambda: tc.validate_cylinder_b(DEL_PEZZO, None),
    lambda: tc.is_balanced(None, SPINE_2_0_1, "v0"),
    lambda: tc.canonical_image(5),
    lambda: tc.canonical_image(CYLINDER),
    lambda: tc.relabel(SPINE_2_0_1, None),
    lambda: tc.TropicalTree(None, None, None),
    lambda: tc.subdivide_edge(DEL_PEZZO, SPINE_2_0_1, ("v0", "v2"), 0.1),
    lambda: tc.subdivide_edge(DEL_PEZZO, SPINE_2_0_1, ("v0", "v2"), "1/2"),
], ids=["validate_spine-base", "validate_spine-tree", "extend-base", "extend-spine",
        "extend_step-base", "cylinder_in_b", "lift_to_tilde", "validate_extended_spine",
        "validate_cylinder_b", "is_balanced", "canonical_image", "canonical_image-cylinder",
        "relabel", "TropicalTree", "subdivide-float",
        "subdivide-str"])
def test_wrong_class_or_inexact_argument_is_invalid_argument(call):
    # each used to end in a bare AttributeError/TypeError, or (subdivide)
    # to store an inexact length
    with pytest.raises(tc.InvalidArgument):
        call()


@pytest.mark.parametrize("call", [
    lambda: tc.is_balanced(DEL_PEZZO, SPINE_2_0_1, []),
    lambda: tc.extend_step(DEL_PEZZO, SPINE_2_0_1, []),
    lambda: tc.subdivide_edge(DEL_PEZZO, SPINE_2_0_1, ["v0", "v2"], Fraction(1, 2)),
    lambda: tc.subdivide_edge(None, SPINE_2_0_1, ("v0", "v2"), Fraction(1, 2)),
    lambda: tc.canonical_image(tc.CylinderInB(None, None)),
    lambda: tc.CylinderInB(EXTENDED, [("v0", "o1")]),
    lambda: tc.CylinderInBTilde(CYLINDER, ((["v0", "o1"], 0),), ()),
    lambda: tc.CylinderInBTilde(CYLINDER, (), (("v0", 0.5),)),
    lambda: tc.Violation("unbalanced", None, "message"),
    lambda: tc.ExtensionResult(EXTENDED, {0: 1}, 3),
    lambda: tc.ExtensionResult(EXTENDED, tc.CurveClass(((0, 1),)), 3.0),
    lambda: tc.Edge("a", "b", 0, (1, 0), 0.5),
    lambda: tc.Edge(None, "b", 0, (1, 0), 1),
    lambda: tc.Edge("a", "b", "0", (1, 0), 1),
    lambda: tc.Edge("a", "b", 0, None, 1),
    lambda: EXTENDED.vertex([]),
    lambda: EXTENDED.incident([]),
    lambda: EXTENDED.edge([], "v0"),
    lambda: tc.CurveClass(None),
    lambda: tc.CurveClass(((0, -3),)),
], ids=["is_balanced-list-id", "extend_step-list-id", "subdivide-list-key",
        "subdivide-base", "CylinderInB-none", "CylinderInB-list",
        "CylinderInBTilde-slope-key", "CylinderInBTilde-height",
        "Violation-where", "ExtensionResult-dict", "ExtensionResult-float",
        "Edge-float-length", "Edge-tail",
        "Edge-cone", "Edge-direction", "tree-vertex", "tree-incident", "tree-edge",
        "CurveClass-none",
        "CurveClass-negative"])
def test_unhashable_id_or_field_of_the_wrong_class_is_invalid_argument(call):
    # each used to end in a bare TypeError or AttributeError, or to store
    # the value as given
    with pytest.raises(tc.InvalidArgument):
        call()


def _spine_data(vertex_cone=0, u=1, edge_cone=0):
    return {"vertices": [{"id": "a", "cone": vertex_cone, "coords": ["1/1", "1/1"]},
                         {"id": "b", "cone": 0, "coords": ["2/1", "1/1"]}],
            "edges": [{"tail": "b", "head": "a", "cone": edge_cone, "direction": [u, 0],
                       "length": "1/1"}],
            "boundary": ["a", "b"]}


class Int(int):
    """An int subclass: accepted wherever an int is."""


class Str(str):
    """A str subclass: accepted as a vertex id."""


# Each argument slot whose type is checked once, by `is_int`,
# `is_rational` or `isinstance`: the call with x in the slot, and the
# message of a rejected x, with {} for its repr.
POINT_MESSAGE = "base point needs an int or None cone and rational coordinates, got "
VERTEX = "vertex needs a str id and a BasePoint or None position, got "
EDGE = "edge needs int cone and direction, got "
DIM = "virtual dimension needs int arguments, got "
SLOTS = {
    "BasePoint.cone": (lambda x: tc.BasePoint(x, 1, 2), POINT_MESSAGE + "{}, 1, 2"),
    "BasePoint.a": (lambda x: tc.BasePoint(0, x, 2), POINT_MESSAGE + "0, {}, 2"),
    "BasePoint.b": (lambda x: tc.BasePoint(0, 1, x), POINT_MESSAGE + "0, 1, {}"),
    "point.cone": (lambda x: DEL_PEZZO.point(x, 1, 2), "point needs an int cone, got {}"),
    "point.a": (lambda x: DEL_PEZZO.point(0, x, 2),
                "point needs rational coordinates, got ({}, 2)"),
    "point.b": (lambda x: DEL_PEZZO.point(0, 1, x),
                "point needs rational coordinates, got (1, {})"),
    "Vertex.id": (lambda x: tc.Vertex(x, None), VERTEX + "{}, None"),
    "Vertex.position": (lambda x: tc.Vertex("a", x), VERTEX + "'a', {}"),
    "make_edge.cone": (lambda x: tc.make_edge("b", "a", x, (1, 2), 1), EDGE + "{}, (1, 2)"),
    "make_edge.u": (lambda x: tc.make_edge("b", "a", 0, (x, 2), 1), EDGE + "0, ({}, 2)"),
    "make_edge.v": (lambda x: tc.make_edge("b", "a", 0, (1, x), 1), EDGE + "0, (1, {})"),
    "make_edge.length": (lambda x: tc.make_edge("b", "a", 0, (1, 2), x),
                         "edge length must be None or rational, got {}"),
    "spine_from_json.vertex_cone": (
        lambda x: spine_from_json(DEL_PEZZO, _spine_data(vertex_cone=x)),
        "vertex 'a' cone must be an integer, got {}"),
    "spine_from_json.direction": (lambda x: spine_from_json(DEL_PEZZO, _spine_data(u=x)),
                                  "edge direction must be an integer pair"),
    "spine_from_json.edge_cone": (
        lambda x: spine_from_json(DEL_PEZZO, _spine_data(edge_cone=x)),
        "edge cone must be an integer, got {}"),
    "virtual_dim.g": (lambda x: tc.virtual_dim(x, 2, 1, 1), DIM + "{}, 2, 1, 1"),
    "virtual_dim.dim_v": (lambda x: tc.virtual_dim(0, x, 1, 1), DIM + "0, {}, 1, 1"),
    "virtual_dim.alpha_dot_k": (lambda x: tc.virtual_dim(0, 2, x, 1), DIM + "0, 2, {}, 1"),
    "virtual_dim.n": (lambda x: tc.virtual_dim(0, 2, 1, x), DIM + "0, 2, 1, {}"),
}


@pytest.mark.parametrize("name", sorted(set(SLOTS) - {"Vertex.position"}))
def test_subclass_is_accepted_like_its_base(name):
    call, _ = SLOTS[name]
    sub, plain = (Str("1"), "1") if name == "Vertex.id" else (Int(1), 1)
    assert call(sub) == call(plain)


@pytest.mark.parametrize("bad", [True, 0.5, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name", sorted(SLOTS))
def test_inexact_value_keeps_its_message(name, bad):
    call, message = SLOTS[name]
    if name == "Vertex.id" and bad == "1":
        assert call(bad) == tc.Vertex("1", None)
        return
    with pytest.raises((tc.InvalidArgument, tc.SchemaError)) as info:
        call(bad)
    assert str(info.value) == message.format(repr(bad))
