"""The value classes keep the behaviour of the frozen dataclasses they
replaced (`value_oracle.py`): constructor, equality, hashing, repr and
immutability; they survive pickling and copying; and importing the command
line loads neither `dataclasses` nor `inspect`."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl.lattice import ORIGIN

from value_oracle import REFERENCES, init_fields, reference

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def _dp():
    return tc.del_pezzo_base()


def _spine(b):
    return tc.family_spine(2, 0, 1, b)


def _extended(b):
    return tc.extend(_dp(), _spine(b)).extended


# Per class, builders of example values; each call builds a fresh value,
# so building twice gives equal values that are distinct objects.
EXAMPLES = {
    "LooijengaPair": (lambda: tc.LooijengaPair((0, -1, 0, 0)),
                      lambda: tc.LooijengaPair([1, 1, 1])),
    "BasePoint": (lambda: tc.BasePoint(None), lambda: tc.BasePoint(1, F(1, 2)),
                  lambda: tc.BasePoint(2, F(1), F(3, 4))),
    "CurveClass": (tc.CurveClass, lambda: tc.CurveClass(((3, 1), (1, 2)))),
    "TropicalBase": (_dp, lambda: tc.build_base((1, 1, 1))),
    "Vertex": (lambda: tc.Vertex("a", None), lambda: tc.Vertex("a", ORIGIN),
               lambda: tc.Vertex("b", tc.BasePoint(1, F(1, 2)))),
    "Edge": (lambda: tc.make_edge("b", "a", 1, (1, -2), F(1, 4)),
             lambda: tc.Edge("a", "b", 1, (-1, 2), None)),
    "TropicalTree": (lambda: _spine(F(1)), lambda: _spine(F(3, 2)),
                     lambda: _extended(F(1))),
    "CylinderInB": (lambda: tc.cylinder_in_b(_dp(), _extended(F(1))),
                    lambda: tc.cylinder_in_b(_dp(), _extended(F(3, 2)))),
    "CylinderInBTilde": (lambda: tc.lift_to_tilde(_dp(), _extended(F(1))),
                         lambda: tc.lift_to_tilde(_dp(), _extended(F(3, 2)))),
    "Violation": (lambda: tc.Violation("unbalanced", "v1", "sum (1, 0)"),
                  lambda: tc.Violation("unbalanced", "v2", "sum (1, 0)")),
    "ExtensionResult": (lambda: tc.extend(_dp(), _spine(F(1))),
                        lambda: tc.extend(_dp(), _spine(F(3, 2)))),
    "SparseLaurentSeries": (
        tc.SparseLaurentSeries,
        lambda: tc.SparseLaurentSeries((((2, 1), 3),)),
        lambda: tc.SparseLaurentSeries((((0, -1), F(1, 2)), ((2, 0), F(-2, 3)))),
        lambda: tc.focus_focus_apply(tc.SparseLaurentSeries.monomial(3, 0))),
    "CountQuery": (lambda: tc.CountQuery(5, 0, 2), lambda: tc.CountQuery(5, 0, 3)),
}

DERIVED = {
    "TropicalBase": ("l",),
    "TropicalTree": ("_vertex_of", "_incident"),
}


def _values(name):
    """Each example of `name` twice, as distinct objects."""
    return [build() for build in EXAMPLES[name] * 2]


def _agree(values):
    """`values` and their reference forms agree on equality, hashing, repr
    and immutability."""
    refs = [reference(x) for x in values]
    for x, r in zip(values, refs):
        assert type(x).__name__ == type(r).__name__ and type(x) is not type(r)
        assert repr(x) == repr(r)
        key = tuple(getattr(x, n) for n in init_fields(type(r)))
        assert hash(x) == hash(r) == hash(key)
        # no equality across classes, not even with the reference form
        assert x.__eq__(r) is NotImplemented and r.__eq__(x) is NotImplemented
        assert (x == r) is False and (x != r) is True
        assert (x == 0) is (r == 0) is False
        assert (x == key) is (r == key) is False
        for obj, name in product((x, r), (*init_fields(type(r)), "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    for (x, r), (y, s) in product(zip(values, refs), repeat=2):
        assert (x == y) is (r == s)
        assert (x != y) is (r != s)


def test_every_value_class_has_examples_and_a_reference():
    assert set(EXAMPLES) == set(REFERENCES)
    for name in REFERENCES:
        cls = getattr(tc, name)
        for x in _values(name):
            assert type(x) is cls and not hasattr(x, "__dict__")


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_constructor_matches_the_reference(name):
    def params(cls):
        return [(p.name, p.kind, repr(p.default))
                for p in inspect.signature(cls).parameters.values()]

    assert params(getattr(tc, name)) == params(REFERENCES[name])


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_examples_agree_with_the_reference(name):
    _agree(_values(name))


FRACS = st.sampled_from((F(0), F(1, 2), F(1), F(3, 2)))
ARGUMENTS = {
    "BasePoint": st.tuples(st.none() | st.integers(0, 2), FRACS, FRACS),
    "Edge": st.tuples(st.sampled_from("ab"), st.sampled_from("bc"), st.integers(0, 1),
                      st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                      st.none() | FRACS),
    "CurveClass": st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)), max_size=2).map(tuple)),
    "SparseLaurentSeries": st.tuples(
        st.lists(st.tuples(st.tuples(st.integers(-1, 1), st.integers(0, 1)), FRACS),
                 max_size=2).map(tuple)),
}


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_generated_values_agree_with_the_reference(name):
    cls = getattr(tc, name)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ARGUMENTS[name], min_size=1, max_size=3))
    def check(arguments):
        _agree([cls(*args) for args in arguments * 2])

    check()


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_fields_take_no_part_in_equality_hash_or_repr(name):
    for build in EXAMPLES[name]:
        x = build()
        for obj in (x, reference(x)):
            poked = copy.copy(obj)
            for slot in DERIVED[name]:
                object.__setattr__(poked, slot, None)
                assert f"{slot}=" not in repr(obj)
            assert poked == obj and hash(poked) == hash(obj) and repr(poked) == repr(obj)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_pickle_and_copy_round_trip(name):
    for build in EXAMPLES[name]:
        x = build()
        copies = [pickle.loads(pickle.dumps(x, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies + [copy.copy(x), copy.deepcopy(x)]:
            assert type(y) is type(x) and y is not x
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            # derived slots are rebuilt, not left empty
            for slot in type(x).__slots__:
                assert getattr(y, slot) == getattr(x, slot)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys; before = set(sys.modules); import tropcyl.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    added = set(out.stdout.split())
    assert "tropcyl.cli" in added
    assert not added & {"dataclasses", "inspect"}
