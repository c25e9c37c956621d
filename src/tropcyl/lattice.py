"""Exact lattice geometry of the tropical base of a Looijenga pair.

The base is a fan of `l` two-dimensional cones glued cyclically along rays
(walls), with an integral affine structure away from the origin.  Crossing
wall i transports tangent vectors by a determinant-1 integer matrix that
depends on the self-intersection number of the i-th boundary component.
All coordinates are exact and integral: a tangent vector is an integer
pair, and a point of a cone is an integer pair over one common positive
denominator, so every test on points compares integers.  `Fraction`
appears only where a coordinate is read out as a rational.  No floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import InvalidArgument, InvalidPair, WrongHomeCone, ZeroVector

# The one zero of every default and wall coordinate; a Fraction is
# immutable, so sharing it is safe.
ZERO = Fraction(0)


def is_int(x) -> bool:
    """An exact integer: `bool` is an `int` subclass but not an integer here."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_rational(x) -> bool:
    """An exact rational: an integer (see `is_int`) or a `Fraction`."""
    return is_int(x) or isinstance(x, Fraction)


# How each value class's own `__init__` fills a slot, since its
# `__setattr__` refuses.
_set = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def value_class(*fields):
    """Class decorator: an immutable value over the slots `fields`.

    The class declares `__slots__` and writes its own `__init__`, which
    fills every slot with `object.__setattr__`, checks its arguments and
    computes any derived slot (a slot not in `fields`).  The decorator adds
    the rest of a frozen dataclass: `==` only between instances of the same
    class, comparing the field tuples; `hash` of the field tuple; the
    `Name(field=value, ...)` repr; and assignment and deletion raising
    AttributeError.  Derived slots take no part in any of these.  Pickling
    and copying rebuild through `__init__`, so derived slots are recomputed.
    A class that defines its own `__eq__` keeps it; it must agree with the
    field tuples.
    """
    get = attrgetter(*fields)
    key = get if len(fields) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(fields, key(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return (self.__class__, key(self))

    def decorate(cls):
        if "__eq__" not in cls.__dict__:
            cls.__eq__ = __eq__
        cls.__hash__, cls.__repr__ = __hash__, __repr__
        cls.__reduce__ = __reduce__
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
        return cls

    return decorate


@value_class("self_intersections")
class LooijengaPair:
    """Cyclic sequence of boundary self-intersection numbers, length >= 3."""

    __slots__ = ("self_intersections",)

    def __init__(self, self_intersections: tuple[int, ...]):
        si = self_intersections
        if not isinstance(si, (tuple, list)) or not all(map(is_int, si)):
            raise InvalidArgument(
                f"self-intersections must be a tuple or list of ints, got {si!r:.60}")
        if len(si) < 3:
            raise InvalidPair(f"need at least 3 boundary components, got {len(si)}")
        _set(self, "self_intersections", tuple(si))

    def __len__(self) -> int:
        return len(self.self_intersections)

    def __getitem__(self, i: int) -> int:
        return self.self_intersections[i % len(self.self_intersections)]


@value_class("cone", "a", "b")
class BasePoint:
    """Point of the base in canonical cone coordinates.

    `cone is None` encodes the origin.  A point on wall i (the shared ray
    of cones i-1 and i) is always stored in cone i with coordinates (a, 0);
    this makes structural equality geometric equality.

    The coordinates are stored as integers (A, B, Q) with Q > 0 and
    gcd(A, B, Q) = 1, so (a, b) = (A/Q, B/Q); the origin is (0, 0, 1).
    `a` and `b` read them out as `Fraction`s, and `==` compares the
    integers.  Raises InvalidArgument unless `cone` is None or an int (see
    `is_int`) and `a`, `b` are rational (see `is_rational`).
    """

    __slots__ = ("cone", "A", "B", "Q")

    def __init__(self, cone: int | None, a: Fraction = ZERO, b: Fraction = ZERO):
        ta, tb = type(a), type(b)
        if ((type(cone) is not int and cone is not None)
                or (ta is not Fraction and ta is not int)
                or (tb is not Fraction and tb is not int)) and not (
                (cone is None or is_int(cone)) and is_rational(a) and is_rational(b)):
            raise InvalidArgument(
                f"base point needs an int or None cone and rational coordinates, "
                f"got {cone!r:.60}, {a!r:.60}, {b!r:.60}")
        ad, bd = a.denominator, b.denominator
        q = ad if ad == bd else ad * bd // gcd(ad, bd)
        _set(self, "cone", cone)
        _set(self, "A", a.numerator * (q // ad))
        _set(self, "B", b.numerator * (q // bd))
        _set(self, "Q", q)

    def __eq__(self, other):
        if other.__class__ is BasePoint:
            return (self.cone == other.cone and self.A == other.A
                    and self.B == other.B and self.Q == other.Q)
        return NotImplemented

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.Q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.Q)

    @property
    def is_origin(self) -> bool:
        return self.cone is None

    @property
    def on_wall(self) -> bool:
        return self.cone is not None and self.B == 0


_new_point = BasePoint.__new__


def _base_point(cone: int | None, A: int, B: int, Q: int) -> BasePoint:
    """The `BasePoint` (cone, A/Q, B/Q), built unchecked from integers that
    are already in its stored form: Q > 0 and gcd(A, B, Q) = 1."""
    p = _new_point(BasePoint)
    _set(p, "cone", cone)
    _set(p, "A", A)
    _set(p, "B", B)
    _set(p, "Q", Q)
    return p


ORIGIN = BasePoint(None)


@value_class("cone", "u", "v")
class TangentVector:
    """Integer tangent vector in the basis (e_i, e_{i+1}) of its home cone.

    Raises InvalidArgument unless `cone`, `u` and `v` are ints (see
    `is_int`), so no float reaches a transport.
    """

    __slots__ = ("cone", "u", "v")

    def __init__(self, cone: int, u: int, v: int):
        if (type(cone) is not int or type(u) is not int or type(v) is not int) and not (
                is_int(cone) and is_int(u) and is_int(v)):
            raise InvalidArgument(
                f"tangent vector needs int cone, u, v, got {cone!r:.60}, {u!r:.60}, {v!r:.60}")
        _set(self, "cone", cone)
        _set(self, "u", u)
        _set(self, "v", v)

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0


@value_class("a", "b", "c", "d")
class IntMatrix2:
    """Row-major 2x2 integer matrix."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    @classmethod
    def identity(cls) -> "IntMatrix2":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, u, v):
        return (self.a * u + self.b * v, self.c * u + self.d * v)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def inverse(self) -> "IntMatrix2":
        det = self.det()
        if det == 1:
            return IntMatrix2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMatrix2(-self.d, self.b, self.c, -self.a)
        raise ZeroVector(f"matrix with determinant {det} is not invertible over Z")

    @property
    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]


@value_class("coeffs")
class CurveClass:
    """Nonnegative integer combination of boundary divisor classes.

    Stored as sorted (divisor index, multiplicity) items with all
    multiplicities positive; an absent index means zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[int, int], ...] = ()):
        _set(self, "coeffs", coeffs)

    @classmethod
    def zero(cls) -> "CurveClass":
        return cls(())

    @classmethod
    def of(cls, mapping) -> "CurveClass":
        items = []
        for k, v in sorted(dict(mapping).items()):
            if v < 0:
                raise InvalidArgument("curve class multiplicities must be >= 0")
            if v:
                items.append((int(k), int(v)))
        return cls(tuple(items))

    def __add__(self, other: "CurveClass") -> "CurveClass":
        acc = dict(self.coeffs)
        for k, v in other.coeffs:
            acc[k] = acc.get(k, 0) + v
        return CurveClass.of(acc)

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


@value_class("pair")
class TropicalBase:
    """The fan of cones attached to a pair, with its wall-crossing rules.

    `l`, the number of cones, is read once from the pair; it takes no part
    in equality, hashing or repr.
    """

    __slots__ = ("pair", "l")

    def __init__(self, pair: LooijengaPair):
        _set(self, "pair", pair)
        _set(self, "l", len(pair))

    # -- points ----------------------------------------------------------

    def point(self, cone: int, a, b) -> BasePoint:
        """Canonical point of cone `cone` with coordinates (a, b) >= 0.

        Raises InvalidArgument unless `cone` is an int (see `is_int`) and
        `a`, `b` are exact rationals (see `is_rational`).
        """
        if type(cone) is not int and not is_int(cone):
            raise InvalidArgument(f"point needs an int cone, got {cone!r:.60}")
        if type(a) is not Fraction or type(b) is not Fraction:
            if not (is_rational(a) and is_rational(b)):
                raise InvalidArgument(
                    f"point needs rational coordinates, got ({a!r:.60}, {b!r:.60})")
            a, b = Fraction(a), Fraction(b)
        ad, bd = a.denominator, b.denominator
        q = ad if ad == bd else ad * bd // gcd(ad, bd)
        return self._point(cone, a.numerator * (q // ad), b.numerator * (q // bd), q)

    def _point(self, cone: int, A: int, B: int, Q: int) -> BasePoint:
        """`point` of the int cone `cone` at (A/Q, B/Q), for ints A, B and
        Q > 0: the same checks, messages and canonical wall storage, on
        integers.  The triple need not be in lowest terms."""
        if A < 0 or B < 0:
            raise InvalidArgument(
                f"cone coordinates must be nonnegative, got "
                f"({Fraction(A, Q)}, {Fraction(B, Q)})")
        g = gcd(A, B, Q)
        if g != 1:
            A, B, Q = A // g, B // g, Q // g
        cone %= self.l
        if B == 0:
            return _base_point(cone, A, 0, Q) if A else ORIGIN
        if A == 0:
            # lies on wall cone+1; store it there
            return _base_point((cone + 1) % self.l, B, 0, Q)
        return _base_point(cone, A, B, Q)

    def _coords(self, p: BasePoint, cone: int):
        """Coordinates of `p` in the closed cone `cone` as integers
        (A, B, Q), meaning (A/Q, B/Q), or None."""
        cone %= self.l
        pc = p.cone
        if pc is None:
            return (0, 0, 1)
        if pc == cone:
            return (p.A, p.B, p.Q)
        if p.B == 0 and (pc - 1) % self.l == cone:
            # wall point seen from the lower-indexed neighbour
            return (0, p.A, p.Q)
        return None

    def coords_in_cone(self, p: BasePoint, cone: int):
        """Coordinates of `p` in the closed cone `cone`, as `Fraction`s, or
        None: the rational view of `_coords`."""
        c = self._coords(p, cone)
        if c is None:
            return None
        A, B, Q = c
        return (Fraction(A, Q), Fraction(B, Q))

    # -- transports ------------------------------------------------------

    def forward_matrix(self, wall: int) -> IntMatrix2:
        """Transport matrix across wall i, from cone i-1 into cone i."""
        d = self.pair[wall]
        return IntMatrix2(-d, 1, -1, 0)

    def transport(self, vec: TangentVector, wall: int, forward: bool = True) -> TangentVector:
        """Re-express `vec` across wall `wall`.

        Forward moves from cone wall-1 into cone wall by
        (u, v) -> (v - d*u, -u), the map of `forward_matrix`, with d the
        self-intersection of wall `wall`; backward is its inverse
        (u, v) -> (-v, u - d*v).  Both are applied in integers, with no
        matrix built.  Raises WrongHomeCone if `vec` lives on the wrong side.
        """
        l = self.l
        wall %= l
        d = self.pair.self_intersections[wall]
        u, v = vec.u, vec.v
        if forward:
            if vec.cone != (wall - 1) % l:
                raise WrongHomeCone(
                    f"forward transport across wall {wall} needs home cone "
                    f"{(wall - 1) % l}, got {vec.cone}"
                )
            return TangentVector(wall, v - d * u, -u)
        if vec.cone != wall:
            raise WrongHomeCone(
                f"backward transport across wall {wall} needs home cone "
                f"{wall}, got {vec.cone}"
            )
        return TangentVector((wall - 1) % l, -v, u - d * v)


def _as_pair(pair) -> LooijengaPair:
    """`pair` itself, or the pair of a tuple or list (else InvalidArgument)."""
    return pair if isinstance(pair, LooijengaPair) else LooijengaPair(pair)


def build_base(pair: LooijengaPair) -> TropicalBase:
    """Tropical base of `pair`: l cones and l walls, cyclically indexed."""
    return TropicalBase(_as_pair(pair))


def monodromy(base: TropicalBase) -> IntMatrix2:
    """Product of the l forward transports around the origin, from cone 0.

    The identity exactly when the fan closure exists; the pair is toric in
    that case.  Walls are crossed counterclockwise in the order
    1, 2, ..., l-1, 0, each by its matrix [[-d, 1], [-1, 0]].
    """
    ds = base.pair.self_intersections
    l = len(ds)
    a, b, c, d = 1, 0, 0, 1
    for k in range(1, l + 1):
        dk = ds[k % l]
        # left-multiply by [[-dk, 1], [-1, 0]]
        a, b, c, d = -dk * a + c, -dk * b + d, -a, -b
    return IntMatrix2(a, b, c, d)


def develop(pair: LooijengaPair, lo: int, hi: int) -> list[tuple[int, int]]:
    """Developed rays of walls lo..hi, in the chart of cone 0.

    Wall 0 develops to (1, 0) and wall 1 to (0, 1).  The recurrence
    v_{k+1} = -v_{k-1} - d_k v_k places the walls past wall 1, and the
    same recurrence solved for v_{k-1} places those before wall 0.
    Consecutive rays have determinant 1, so a point or vector P of the
    plane has coordinates (det(P, w'), det(w, P)) in the cone with walls
    (w, w').
    """
    if lo > hi:
        raise InvalidArgument(f"develop needs lo <= hi, got {lo} > {hi}")
    ds = _as_pair(pair).self_intersections
    l = len(ds)
    # forward from the frame (v_0, v_1), backward from (v_1, v_0)
    up, down = [(1, 0), (0, 1)], [(0, 1), (1, 0)]
    for frame, ks in ((up, range(1, hi)), (down, range(0, lo, -1))):
        for k in ks:
            (x0, y0), (x1, y1) = frame[-2], frame[-1]
            d = ds[k % l]
            frame.append((-x0 - d * x1, -y0 - d * y1))
    first = min(lo, 0)
    return (down[:0:-1] + up[1:])[lo - first:hi - first + 1]


def fan_closure(pair: LooijengaPair):
    """Ray vectors (1,0), (0,1), ... of the closed fan, or None.

    Develops walls 0..l+1 and accepts exactly when the frame of walls l
    and l+1 is again ((1,0), (0,1)), which is equivalent to trivial
    monodromy.  (Degenerate multi-winding closures are returned too; they
    never occur for geometrically realizable pairs.)
    """
    pair = _as_pair(pair)
    l = len(pair)
    vs = develop(pair, 0, l + 1)
    if vs[l:] == [(1, 0), (0, 1)]:
        return vs[:l]
    return None


def intersection_matrix(pair: LooijengaPair):
    """Symmetric l x l matrix: d_i on the diagonal, 1 for cyclic neighbours."""
    pair = _as_pair(pair)
    l = len(pair)
    m = [[0] * l for _ in range(l)]
    for i in range(l):
        m[i][i] = pair[i]
        m[i][(i + 1) % l] = 1
        m[(i + 1) % l][i] = 1
    return m


def is_positive(pair: LooijengaPair) -> bool:
    """Whether the intersection matrix M is NOT negative semi-definite.

    Decided exactly by symmetric (LDL^T) elimination of -M over the
    rationals, without pivoting: -M is positive semi-definite iff every
    pivot is >= 0 and every zero pivot has the rest of its row zero.  So a
    negative pivot, or a zero pivot with a nonzero entry after it, makes
    the pair positive.  A positive d_i (a positive 1x1 minor of M)
    answers at once.

    -M is stored as sparse upper rows: -d_i on the diagonal and -1 for
    each cyclic neighbour.  M is cyclic tridiagonal, so fill-in stays in
    the last row and column, and the elimination takes O(l) steps.
    """
    ds = _as_pair(pair).self_intersections
    if any(d > 0 for d in ds):
        return True
    l = len(ds)
    # row k of the upper triangle of -M, as {column: entry}
    rows = [{k: Fraction(-d)} for k, d in enumerate(ds)]
    for k in range(l - 1):
        rows[k][k + 1] = Fraction(-1)
    rows[0][l - 1] = Fraction(-1)
    for k, row in enumerate(rows):
        pivot = row.pop(k)
        if pivot < 0:
            return True
        if pivot == 0:
            if any(row.values()):
                return True
            continue
        for i, a in row.items():
            target = rows[i]
            for j, b in row.items():
                if j >= i:
                    target[j] = target.get(j, 0) - a * b / pivot
    return False


def primitive_part(u: int, v: int):
    """(primitive vector, multiplicity) with (u, v) = m * primitive."""
    if u == 0 and v == 0:
        raise ZeroVector("the zero vector has no primitive part")
    g = gcd(abs(u), abs(v))
    return (u // g, v // g), g


def lattice_length_of_point(a: Fraction, b: Fraction):
    """Length of the segment from the origin to (a, b) against the lattice.

    Returns (length, primitive direction): (a, b) = length * primitive.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 and b == 0:
        raise ZeroVector("zero point has no direction")
    den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    ia = int(a * den)
    ib = int(b * den)
    g = gcd(abs(ia), abs(ib))
    return Fraction(g, den), (ia // g, ib // g)


def verify_toric_criterion(l: int, lo: int, hi: int):
    """Sweep all pairs of length l with entries in [lo, hi].

    Returns (pairs_checked, closures_found, mismatches) where a mismatch is
    a pair on which trivial monodromy and fan closure disagree.

    A depth-first walk over d_1, ..., d_{l-1} carries two separate
    quantities down each shared prefix: the product of the wall crossings
    so far, as in `monodromy`, and the frame (v_{k-1}, v_k) of the
    recurrence in `develop`.  Both cross wall 0 last, so each leaf of
    the walk finishes every choice of d_0.
    """
    if l < 3:
        raise InvalidPair(f"need at least 3 boundary components, got {l}")
    values = range(lo, hi + 1)
    counts = [0, 0, 0]  # pairs, closures, mismatches

    def walk(k, a, b, c, d, v0, v1):
        (x0, y0), (x1, y1) = v0, v1
        if k == l:
            for d0 in values:
                trivial = (-d0 * a + c, -d0 * b + d, -a, -b) == (1, 0, 0, 1)
                closed = (x1, y1) == (1, 0) and (-x0 - d0 * x1, -y0 - d0 * y1) == (0, 1)
                counts[1] += closed
                counts[2] += trivial != closed
            counts[0] += len(values)
            return
        for dk in values:
            walk(k + 1, -dk * a + c, -dk * b + d, -a, -b,
                 v1, (-x0 - dk * x1, -y0 - dk * y1))

    walk(1, 1, 0, 0, 1, (1, 0), (0, 1))
    return tuple(counts)
