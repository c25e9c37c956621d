"""Test-only references for the value classes: the `@dataclass(frozen=True)`
forms the package used before it wrote them as slotted classes with
`tropcyl.lattice.value_class`.  Each keeps its fields, defaults and the
checks and derived fields of its `__post_init__`; methods are left out.
`reference` rebuilds a package value in these forms, so the two can be
compared on equality, hashing and repr."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

from tropcyl import InvalidArgument, InvalidPair, InvalidQuery
from tropcyl.lattice import is_int
from tropcyl.wallcross import L_MAX

ZERO = Fraction(0)


@dataclass(frozen=True)
class LooijengaPair:
    self_intersections: tuple[int, ...]

    def __post_init__(self):
        si = self.self_intersections
        if not isinstance(si, (tuple, list)) or not all(map(is_int, si)):
            raise InvalidArgument(
                f"self-intersections must be a tuple or list of ints, got {si!r:.60}")
        if len(si) < 3:
            raise InvalidPair(f"need at least 3 boundary components, got {len(si)}")
        object.__setattr__(self, "self_intersections", tuple(si))


@dataclass(frozen=True)
class BasePoint:
    cone: int | None
    a: Fraction = ZERO
    b: Fraction = ZERO


@dataclass(frozen=True)
class CurveClass:
    coeffs: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class TropicalBase:
    pair: LooijengaPair
    l: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "l", len(self.pair.self_intersections))


@dataclass(frozen=True)
class Vertex:
    id: str
    position: BasePoint | None


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str
    cone: int
    direction: tuple[int, int]
    length: Fraction | None


@dataclass(frozen=True)
class TropicalTree:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    boundary: tuple[str, str]
    _vertex_of: dict = field(init=False, repr=False, compare=False)
    _incident: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        incident: dict[str, list[Edge]] = {}
        for e in self.edges:
            for vid in {e.tail, e.head}:
                incident.setdefault(vid, []).append(e)
        object.__setattr__(self, "_vertex_of",
                           {v.id: v for v in reversed(self.vertices)})
        object.__setattr__(self, "_incident",
                           {vid: tuple(es) for vid, es in incident.items()})


@dataclass(frozen=True)
class CylinderInB:
    tree: TropicalTree
    legs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class CylinderInBTilde:
    cylinder: CylinderInB
    slopes: tuple[tuple[tuple[str, str], int], ...]
    heights: tuple[tuple[str, Fraction], ...]
    _slope_of: dict = field(init=False, repr=False, compare=False)
    _height_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_slope_of", dict(self.slopes))
        object.__setattr__(self, "_height_of", dict(self.heights))


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str


@dataclass(frozen=True)
class ExtensionResult:
    extended: TropicalTree
    curve_class: CurveClass
    steps: int


@dataclass(frozen=True)
class SparseLaurentSeries:
    terms: tuple[tuple[tuple[int, int], Fraction], ...] = ()


@dataclass(frozen=True)
class CountQuery:
    l: int
    m: int
    n: int

    def __post_init__(self):
        if not (is_int(self.l) and is_int(self.m) and is_int(self.n)):
            raise InvalidQuery(
                f"count needs int l, m, n, got {self.l!r}, {self.m!r}, {self.n!r}")
        if not 1 <= self.l <= L_MAX:
            raise InvalidQuery(f"count needs 1 <= l <= {L_MAX}, got {self.l}")


REFERENCES = {cls.__name__: cls for cls in (
    LooijengaPair, BasePoint, CurveClass, TropicalBase,
    Vertex, Edge, TropicalTree, CylinderInB, CylinderInBTilde, Violation,
    ExtensionResult, SparseLaurentSeries, CountQuery)}


def init_fields(ref) -> tuple[str, ...]:
    """The constructor fields of a reference class, in order."""
    return tuple(f.name for f in fields(ref) if f.init)


def reference(x):
    """`x` rebuilt in the reference forms: package values by class name,
    tuples item by item, everything else as it is."""
    ref = REFERENCES.get(type(x).__name__)
    if ref is not None and type(x).__module__.startswith("tropcyl."):
        return ref(*(reference(getattr(x, name)) for name in init_fields(ref)))
    if type(x) is tuple:
        return tuple(map(reference, x))
    return x
