"""The supported surface: `tropcyl.__all__` is exactly what the package
exports, it covers every name the benchmark and the acceptance suite
import from the package, every public method of its value classes has a
supported caller, and the README library example runs as stated."""

import ast
import re
from pathlib import Path
from types import FunctionType, ModuleType

import tropcyl

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


# Public methods kept only because tests compare against them: each is
# named by a reference in tests/*oracle*.py.
REFERENCES = {"TropicalBase.transport", "TropicalBase.forward_matrix",
              "IntMatrix2.apply", "IntMatrix2.inverse"}


def _attributes(source: str) -> set[str]:
    """Every name that `source` looks up as an attribute."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def _public_methods() -> set[str]:
    """`Class.name` for each public method, property and classmethod that a
    class of `tropcyl.__all__`, other than an error class, defines itself.
    Dunder operators are left out: their use is not spelled by name."""
    classes = {value for value in map(vars(tropcyl).get, tropcyl.__all__)
               if isinstance(value, type) and not issubclass(value, Exception)}
    return {f"{cls.__name__}.{name}" for cls in classes
            for name, value in vars(cls).items()
            if not name.startswith("_")
            and isinstance(value, (FunctionType, property, classmethod, staticmethod))}


def test_every_public_method_has_a_supported_caller():
    # a public method that only its own tests call is a second way to a
    # value: delete it, or keep it as a reference that an oracle names
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "tropcyl").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"]]
    used = set().union(*map(_attributes, sources + [_library_example()]))
    methods = _public_methods()
    assert {"TropicalTree.edge", "SparseLaurentSeries.terms"} <= methods
    assert sorted(m for m in methods - REFERENCES if m.split(".")[1] not in used) == []
    oracles = set().union(*(_attributes(path.read_text(encoding="utf-8"))
                            for path in (ROOT / "tests").glob("*oracle*.py")))
    assert sorted(m for m in REFERENCES if m.split(".")[1] not in oracles) == []
    assert REFERENCES <= methods
