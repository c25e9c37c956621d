"""The supported surface: `tropcyl.__all__` is exactly what the package
exports, it covers every name the benchmark and the acceptance suite
import from the package, its only aliases are the two the benchmark
imports, every public method of its value classes has a supported caller
and their only operators are `len` and `in`, the README library example
runs as stated, no error message writes a value at full length with
`!r`, every error class of `__all__` is raised by some public call, and
every violation code that `src/` spells is produced by some validator."""

import ast
import builtins
import re
from fractions import Fraction
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import tropcyl
from tropcyl import (
    BasePoint,
    CountQuery,
    CylinderInB,
    Edge,
    LooijengaPair,
    TropicalTree,
    Vertex,
    build_base,
    canonical_image,
    count_spine,
    cylinder_in_b,
    del_pezzo_base,
    extend,
    extend_step,
    family_spine,
    is_balanced,
    validate_cylinder_b,
    validate_extended_spine,
    validate_spine,
)
from tropcyl.serialize import pair_from_json

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_unique_and_resolves():
    names = tropcyl.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(tropcyl, name)] == []


def test_star_import_and_public_attributes_are_all():
    namespace = {}
    exec("from tropcyl import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(tropcyl.__all__)
    public = {name for name, value in vars(tropcyl).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(tropcyl.__all__)


def test_the_only_aliases_are_the_two_the_benchmark_imports():
    # two names of __all__ bound to one object are two ways to one value;
    # `make_edge` and `make_tree` stay only because perfbench/gen.py
    # imports them, and both go in the benchmark change that edits gen.py
    names_of = {}
    for name in tropcyl.__all__:
        names_of.setdefault(id(getattr(tropcyl, name)), []).append(name)
    aliases = {name: getattr(tropcyl, name).__name__
               for names in names_of.values() if len(names) > 1 for name in names
               if name != getattr(tropcyl, name).__name__}
    assert aliases == {"make_edge": "Edge", "make_tree": "TropicalTree"}
    assert set(aliases) <= _package_names(ROOT / "perfbench" / "gen.py")


def _package_names(path: Path) -> set[str]:
    """Names taken from the package itself in `path`: each name of a
    `from tropcyl import ...`, and each attribute read off an
    `import tropcyl as <alias>`, unless it is a submodule."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tropcyl" and not node.level:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name == "tropcyl" and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return {name for name in names
            if not isinstance(getattr(tropcyl, name, None), ModuleType)}


def test_benchmark_and_acceptance_imports_are_in_all():
    paths = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    missing = {}
    for path in paths:
        outside = _package_names(path) - set(tropcyl.__all__)
        if outside:
            missing[path.name] = sorted(outside)
    assert missing == {}
    # the walk found the imports it is meant to check
    assert {"extend_step", "validate_cylinder_b"} <= _package_names(ROOT / "perfbench" / "gen.py") \
        | _package_names(ROOT / "perfbench" / "check.py")
    assert "count_spine" in _package_names(ROOT / "tests" / "test_acceptance.py")


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_as_stated():
    # run the block statement by statement, keeping the value of each bare
    # expression: the count and the image comparison, in that order
    namespace, values = {}, []
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [2, True]
    assert type(values[1]) is bool


def _module_level_names(tree: ast.Module) -> set[str]:
    """Functions, classes and constants that a module defines at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_exported_or_used():
    # a definition that is neither in __all__ nor named elsewhere in src/
    # is dead code: delete it, or move it to tests/ as a reference
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "tropcyl").glob("*.py"))}
    used = set(tropcyl.__all__)
    for tree in modules.values():
        used |= _referenced_names(tree)
    unused = {name: sorted(_module_level_names(tree) - used)
              for name, tree in modules.items()}
    assert {name: names for name, names in unused.items() if names} == {}


def _attributes(source: str) -> tuple[set[str], set[str]]:
    """(every name that `source` looks up as an attribute, every name that
    it calls as one, `x.name(...)`)."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    return read, called


def _public_methods() -> dict[str, bool]:
    """`Class.name` for each public method, property and classmethod that a
    class of `tropcyl.__all__`, other than an error class, defines itself,
    mapped to whether it is a property (used where it is read; the others
    are used only where they are called).  Dunder operators are left out:
    their use is not spelled by name."""
    classes = {value for value in map(vars(tropcyl).get, tropcyl.__all__)
               if isinstance(value, type) and not issubclass(value, Exception)}
    return {f"{cls.__name__}.{name}": isinstance(value, property) for cls in classes
            for name, value in vars(cls).items()
            if not name.startswith("_")
            and isinstance(value, (FunctionType, property, classmethod, staticmethod))}


def test_the_only_operators_are_those_src_uses():
    # `_public_methods` leaves dunder methods out, so an operator that only
    # tests use, such as a series `+` or `*`, is pinned here instead; none
    # is left: `src/` spells `len(pair.self_intersections)` and
    # `b not in tree._vertex_of`
    from test_entry_points import VALUE_PROTOCOL

    classes = {value for value in map(vars(tropcyl).get, tropcyl.__all__)
               if isinstance(value, type) and not issubclass(value, Exception)}
    operators = {f"{cls.__name__}.{name}" for cls in classes
                 for name, value in vars(cls).items()
                 if name.startswith("__") and name.endswith("__") and callable(value)
                 and name not in VALUE_PROTOCOL}
    assert operators == set()


def test_public_method_names_are_unique():
    # the caller guard matches by name, so a second class defining the same
    # name would pass on the strength of the first one's callers
    names = sorted(m.split(".")[1] for m in _public_methods())
    assert sorted({name for name in names if names.count(name) > 1}) == []


def test_every_public_method_has_a_supported_caller():
    # a public method that only its own tests call is a second way to a
    # value: delete it, or move it to tests/ as a reference
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "tropcyl").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"]]
    uses = list(map(_attributes, sources + [_library_example()]))
    read = set().union(*(r for r, _ in uses))
    called = set().union(*(c for _, c in uses))
    methods = _public_methods()
    assert {"TropicalTree.edge", "SparseLaurentSeries.terms"} <= set(methods)
    assert sorted(m for m, is_property in methods.items()
                  if m.split(".")[1] not in (read if is_property else called)) == []


def _exception_names() -> set[str]:
    """The names of the builtin exception classes and of those the package
    defines."""
    spaces = [vars(builtins)] + [vars(module) for module in vars(tropcyl).values()
                                 if isinstance(module, ModuleType)]
    return {name for space in spaces for name, value in space.items()
            if isinstance(value, type) and issubclass(value, BaseException)}


def _repr_in_error_messages(tree: ast.Module, errors: set[str]) -> list[int]:
    """Lines where an exception class is called with an f-string that
    formats a value with `!r` (a `{x!r}` field)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in errors:
            continue
        for arg in [*node.args, *(k.value for k in node.keywords)]:
            lines.extend(part.lineno for part in ast.walk(arg)
                         if isinstance(part, ast.FormattedValue) and part.conversion == ord("r"))
    return lines


def test_error_messages_format_values_with_brief():
    # `repr` writes a value at full length, so a 200,000-character id gave
    # a 200,000-character message; `errors.brief` cuts it to 60 characters
    errors = _exception_names()
    assert {"ValueError", "AttributeError", "StructuralError", "SchemaError"} <= errors
    found = {path.name: lines for path in sorted((ROOT / "src" / "tropcyl").glob("*.py"))
             if (lines := _repr_in_error_messages(
                 ast.parse(path.read_text(encoding="utf-8")), errors))}
    assert found == {}
    # the walk finds a field in a raised error, in a returned one and in a
    # message built from parts, but not in a value that is no error
    sample = ast.parse('def f(x):\n'
                       '    raise KeyError(f"{x!r}")\n'
                       '    return ValueError("a " + f"b {x!r}")\n'
                       '    y = Violation("c", x, f"{x!r}")\n'
                       '    raise KeyError(f"{brief(x)}")\n')
    assert _repr_in_error_messages(sample, errors) == [2, 3]


def _tree(edges, boundary, **positions):
    """The tree of `edges` on the vertices `positions` (id to a
    (cone, a, b) triple of the degree-7 del Pezzo base, None for the
    origin, or "inf" for infinity)."""
    point = del_pezzo_base().point
    vertices = [Vertex(vid, None if p == "inf" else BasePoint(None) if p is None
                       else point(*p)) for vid, p in positions.items()]
    return TropicalTree(vertices, [Edge(*e) for e in edges], boundary)


def _two_vertex(a, b, cone, direction, length=1):
    return _tree([("a", "b", cone, direction, length)], ("a", "b"), a=a, b=b)


DEL_PEZZO = del_pezzo_base()
MINUS_TWO = build_base(LooijengaPair((-2, -2, -2, -2)))
# one public call for each error class of `__all__` but the base class,
# which raises exactly that class
RAISED_BY = {
    tropcyl.DegenerateRay: lambda: extend_step(
        DEL_PEZZO, _two_vertex((0, 1, 1), None, 0, (-1, -1)), "b"),
    tropcyl.HitOrigin: lambda: extend_step(
        DEL_PEZZO, _two_vertex((0, 3, 3), (0, 2, 2), 0, (-1, -1)), "b"),
    tropcyl.InvalidArgument: lambda: LooijengaPair((1.5, 0, 0)),
    tropcyl.InvalidPair: lambda: LooijengaPair((0, 0)),
    tropcyl.InvalidQuery: lambda: CountQuery(0, 0, 0),
    tropcyl.NotExtendable: lambda: extend(
        MINUS_TWO, _two_vertex((0, 2, 1), (0, 1, 1), 0, (-1, 0)), max_steps=20),
    tropcyl.NotInFamily: lambda: count_spine(DEL_PEZZO, _tree(
        [("a", "c", 0, (-1, 0), Fraction(1, 2)), ("b", "c", 0, (0, -1), Fraction(1, 2))],
        ("a", "b"), a=(0, Fraction(3, 2), 1), b=(0, 1, Fraction(3, 2)), c=(0, 1, 1))),
    tropcyl.OriginVertex: lambda: is_balanced(
        DEL_PEZZO, _two_vertex(None, (0, 1, 1), 0, (1, 1)), "a"),
    tropcyl.SchemaError: lambda: pair_from_json({}),
    tropcyl.StructuralError: lambda: validate_spine(
        DEL_PEZZO, _two_vertex((0, 1, 1), "inf", 0, (1, 0), None)),
    tropcyl.UnbalancedNonRadial: lambda: cylinder_in_b(DEL_PEZZO, _tree(
        [("c", "p", 0, (0, 1), None), ("c", "q", 3, (2, 0), None)], ("p", "q"),
        c=(0, 2, 0), p="inf", q="inf")),
    tropcyl.UnsupportedBase: lambda: count_spine(MINUS_TWO, family_spine(2, 0, 1, 1)),
    tropcyl.ZeroVector: lambda: canonical_image(
        _two_vertex((0, 1, 1), "inf", 0, (0, 0), None)),
}


def test_every_error_class_has_a_public_call():
    # a class that no public call raises is dead: delete it
    classes = {value for value in map(vars(tropcyl).get, tropcyl.__all__)
               if isinstance(value, type) and issubclass(value, BaseException)}
    assert tropcyl.TropcylError in classes
    assert set(RAISED_BY) == classes - {tropcyl.TropcylError}


@pytest.mark.parametrize("error", list(RAISED_BY), ids=lambda error: error.__name__)
def test_public_call_raises_exactly_its_class(error):
    with pytest.raises(error) as raised:
        RAISED_BY[error]()
    assert type(raised.value) is error


def _violation_codes(tree: ast.Module) -> set:
    """The first argument of each `Violation(...)` call, or None where it
    is not a str literal."""
    codes = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Violation"):
            first = node.args[0] if node.args else None
            codes.add(first.value if isinstance(first, ast.Constant)
                      and isinstance(first.value, str) else None)
    return codes


# validator calls that together produce every violation code
VIOLATING = [
    # an origin vertex, a leaf off the boundary, a radial edge and a
    # defect that does not point outward
    lambda: validate_spine(DEL_PEZZO, _tree(
        [("o", "b", 0, (1, 1), 1), ("b", "c", 0, (1, 0), 1)], ("b", "c"),
        o=None, b=(0, 1, 1), c=(0, 2, 1))),
    # an inward defect at the centre
    lambda: validate_spine(DEL_PEZZO, family_spine(2, 0, -1, 1)),
    # a bounded boundary
    lambda: validate_extended_spine(DEL_PEZZO, family_spine(2, 0, 1, 1)),
    # the spine as a cylinder body without its leg: an unbalanced centre
    lambda: validate_cylinder_b(DEL_PEZZO, CylinderInB(family_spine(2, 0, 1, 1), ())),
    # three edges at the origin vertex, one to a stray leaf
    lambda: validate_cylinder_b(DEL_PEZZO, CylinderInB(_tree(
        [("o", "a", 0, (1, 1), 1), ("o", "b", 0, (1, 2), 1), ("o", "c", 0, (1, 0), 1)],
        ("a", "b"), o=None, a=(0, 1, 1), b=(0, 1, 2), c=(0, 1, 0)), ())),
]


def test_every_violation_code_is_produced():
    # a code that `src/` spells but no validator call produces is dead
    spelled = set().union(*(_violation_codes(ast.parse(path.read_text(encoding="utf-8")))
                            for path in sorted((ROOT / "src" / "tropcyl").glob("*.py"))))
    produced = {v.code for call in VIOLATING for v in call()}
    assert "unbounded-boundary" in spelled
    assert spelled == produced
