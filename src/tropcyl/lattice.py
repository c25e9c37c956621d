"""Exact lattice geometry of the tropical base of a Looijenga pair.

The base is a fan of `l` two-dimensional cones glued cyclically along rays
(walls), with an integral affine structure away from the origin.  Crossing
wall i carries tangent vectors by a determinant-1 integral linear map that
depends on the self-intersection number of the i-th boundary component;
`TropicalBase._cross` is that map, in integers, and the spine checks and
the ray cast both cross walls through it.  All coordinates are exact and
integral: a tangent vector is a plain int pair (u, v) in the basis of a
cone, and a point of a cone is an integer pair over one common positive
denominator, so every test on points compares integers.  `Fraction`
appears only where a coordinate is read out as a rational.  No floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import (InvalidArgument, InvalidPair, InvalidQuery, WrongHomeCone, ZeroVector,
                     brief, brief_rational)

# The one zero of every default and wall coordinate; a Fraction is
# immutable, so sharing it is safe.
ZERO = Fraction(0)

# The largest l that `tropcyl base`, a count query and the toric sweep
# take, and the most pairs one sweep checks.
L_MAX = 1000
SWEEP_PAIRS_MAX = 10**7


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
    raise AttributeError(f"cannot assign to field {brief(name)}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {brief(name)}")


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
                f"self-intersections must be a tuple or list of ints, got {brief(si)}")
        if len(si) < 3:
            raise InvalidPair(f"need at least 3 boundary components, got {len(si)}")
        _set(self, "self_intersections", tuple(si))

    def __len__(self) -> int:
        return len(self.self_intersections)

    def __getitem__(self, i: int) -> int:
        """Self-intersection i, read cyclically; InvalidArgument unless i is an int."""
        if not is_int(i):
            raise InvalidArgument(f"pair index must be an int, got {brief(i)}")
        return self.self_intersections[i % len(self.self_intersections)]


def _over_lcm(an: int, ad: int, bn: int, bd: int) -> tuple[int, int, int]:
    """(A, B, Q) with A/Q = an/ad and B/Q = bn/bd over Q = lcm(ad, bd),
    for ad, bd > 0.  With both fractions in lowest terms, so is (A, B, Q)."""
    q = ad if ad == bd else ad * bd // gcd(ad, bd)
    return an * (q // ad), bn * (q // bd), q


@value_class("cone", "a", "b")
class BasePoint:
    """Point of the base: cone `cone` at cone coordinates (a, b).

    `cone is None` encodes the origin.  The constructor stores what it is
    given, so `BasePoint(0, 0, 1)` stays in cone 0.  `TropicalBase.point`
    is the canonical constructor: it reduces the cone modulo l and stores
    a point of wall i (the shared ray of cones i-1 and i) in cone i with
    coordinates (a, 0), so that equality of its points is geometric
    equality.

    The coordinates are stored as integers (A, B, Q) with Q > 0 and
    gcd(A, B, Q) = 1, so (a, b) = (A/Q, B/Q); the origin is (0, 0, 1).
    `a` and `b` read them out as `Fraction`s, and `==` compares the
    integers.  Raises InvalidArgument unless `cone` is None or an int (see
    `is_int`) and `a`, `b` are rational (see `is_rational`).
    """

    __slots__ = ("cone", "A", "B", "Q")

    def __init__(self, cone: int | None, a: Fraction = ZERO, b: Fraction = ZERO):
        if not ((cone is None or is_int(cone)) and is_rational(a) and is_rational(b)):
            raise InvalidArgument(
                f"base point needs an int or None cone and rational coordinates, "
                f"got {brief(cone)}, {brief(a)}, {brief(b)}")
        A, B, Q = _over_lcm(a.numerator, a.denominator, b.numerator, b.denominator)
        _set(self, "cone", cone)
        _set(self, "A", A)
        _set(self, "B", B)
        _set(self, "Q", Q)

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


@value_class("a", "b", "c", "d")
class IntMatrix2:
    """Row-major 2x2 integer matrix: the value of `monodromy`, read through
    `trace`, `is_identity` and `rows`.  Raises InvalidArgument unless every
    entry is an int (see `is_int`)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not (is_int(a) and is_int(b) and is_int(c) and is_int(d)):
            raise InvalidArgument(f"matrix needs int entries, got "
                                  f"{brief(a)}, {brief(b)}, {brief(c)}, {brief(d)}")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def trace(self) -> int:
        return self.a + self.d

    @property
    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]


@value_class("coeffs")
class CurveClass:
    """Nonnegative integer combination of boundary divisor classes.

    The constructor takes (divisor index, multiplicity) pairs of ints (see
    `is_int`) in any order and stores the canonical form: sorted by index,
    a repeated index summed, zero totals dropped (an absent index means
    zero; `CurveClass()` is the zero class).  Raises InvalidArgument on
    anything else or a negative total.  The constructor is the one way in
    and `coeffs` the one way out: the class of a mapping `d` is
    `CurveClass(tuple(d.items()))`, its mapping `dict(cc.coeffs)`, a sum
    `CurveClass(a.coeffs + b.coeffs)`, and the zero class has no `coeffs`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[int, int], ...] = ()):
        if not (isinstance(coeffs, (tuple, list)) and all(
                type(x) is tuple and len(x) == 2 and is_int(x[0]) and is_int(x[1])
                for x in coeffs)):
            raise InvalidArgument(f"curve class needs (int, int) pairs, got {brief(coeffs)}")
        coeffs = _summed(coeffs)
        if any(v < 0 for _, v in coeffs):
            raise InvalidArgument("curve class multiplicities must be >= 0")
        _set(self, "coeffs", coeffs)


def _summed(pairs) -> tuple[tuple[int, int], ...]:
    """The canonical form of (index, multiple) pairs: summed per index,
    zero totals dropped, sorted by index."""
    acc: dict[int, int] = {}
    for k, v in pairs:
        acc[k] = acc.get(k, 0) + v
    return tuple(sorted((k, v) for k, v in acc.items() if v))


_new_class = CurveClass.__new__


def _curve_class(pairs) -> CurveClass:
    """`CurveClass(pairs)` built unchecked, for the package's own
    (wall, multiple >= 0) int pairs."""
    c = _new_class(CurveClass)
    _set(c, "coeffs", _summed(pairs))
    return c


@value_class("pair")
class TropicalBase:
    """The fan of cones attached to a pair, with its wall-crossing rules.

    `l`, the number of cones, is read once from the pair; it takes no part
    in equality, hashing or repr.  `pair` is a `LooijengaPair` or a tuple
    or list it is built from (else InvalidArgument).
    """

    __slots__ = ("pair", "l")

    def __init__(self, pair: LooijengaPair):
        pair = _as_pair(pair)
        _set(self, "pair", pair)
        _set(self, "l", len(pair))

    # -- points ----------------------------------------------------------

    def point(self, cone: int, a, b) -> BasePoint:
        """Canonical point of cone `cone` with coordinates (a, b) >= 0.

        Raises InvalidArgument unless `cone` is an int (see `is_int`) and
        `a`, `b` are exact rationals (see `is_rational`).
        """
        if not is_int(cone):
            raise InvalidArgument(f"point needs an int cone, got {brief(cone)}")
        if not (is_rational(a) and is_rational(b)):
            raise InvalidArgument(
                f"point needs rational coordinates, got ({brief(a)}, {brief(b)})")
        return self._point(
            cone, *_over_lcm(a.numerator, a.denominator, b.numerator, b.denominator))

    def _point(self, cone: int, A: int, B: int, Q: int) -> BasePoint:
        """`point` of the int cone `cone` at (A/Q, B/Q), for ints A, B and
        Q > 0: the same checks, messages and canonical wall storage, on
        integers.  The triple need not be in lowest terms."""
        if A < 0 or B < 0:
            raise InvalidArgument(
                f"cone coordinates must be nonnegative, got "
                f"({brief_rational(Fraction(A, Q))}, {brief_rational(Fraction(B, Q))})")
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
        None: the rational view of `_coords`.  Raises InvalidArgument
        unless `p` is a `BasePoint` and `cone` an int (see `is_int`)."""
        if type(p) is not BasePoint or not is_int(cone):
            raise InvalidArgument(f"cone coordinates need a BasePoint and an int cone, got "
                                  f"{brief(p)}, {brief(cone)}")
        c = self._coords(p, cone)
        if c is None:
            return None
        A, B, Q = c
        return (Fraction(A, Q), Fraction(B, Q))

    # -- wall crossing ---------------------------------------------------

    def _cross(self, wall: int, cone: int, u: int, v: int) -> tuple[int, int, int]:
        """(cone', u', v'): the int vector (u, v) of cone `cone` carried
        across wall `wall` into the other cone of the wall, unchecked.

        With d the self-intersection of the wall, the map from cone wall-1
        (l >= 3, so it is not cone wall) is (u, v) -> (v - d*u, -u), of
        determinant 1, and from cone wall its inverse (u, v) -> (-v, u - d*v).
        `wall` and `cone` are both read modulo l, as edge cones are.
        Raises WrongHomeCone if `cone` is neither cone of the wall.
        """
        l = self.l
        wall %= l
        d = self.pair.self_intersections[wall]
        home = cone % l
        if home == (wall - 1) % l:
            return wall, v - d * u, -u
        if home == wall:
            return (wall - 1) % l, -v, u - d * v
        raise WrongHomeCone(
            f"transport across wall {wall} needs home cone {(wall - 1) % l} "
            f"or {wall}, got {brief(cone)}")


def _as_pair(pair) -> LooijengaPair:
    """`pair` itself, or the pair of a tuple or list (else InvalidArgument)."""
    return pair if isinstance(pair, LooijengaPair) else LooijengaPair(pair)


def build_base(pair: LooijengaPair) -> TropicalBase:
    """Tropical base of `pair`: l cones and l walls, cyclically indexed."""
    return TropicalBase(pair)


def monodromy(base) -> IntMatrix2:
    """Product of the l forward transports around the origin, from cone 0.

    The identity exactly when the fan closure exists; the pair is toric in
    that case.  Walls are crossed counterclockwise in the order
    1, 2, ..., l-1, 0, each by its matrix [[-d, 1], [-1, 0]].  `base` is a
    `TropicalBase`, or a pair as `fan_closure` takes it.
    """
    pair = base.pair if isinstance(base, TropicalBase) else _as_pair(base)
    ds = pair.self_intersections
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
        raise InvalidArgument(f"develop needs lo <= hi, got {brief(lo)} > {brief(hi)}")
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


def _sign(a: int, b: int, delta: int) -> int:
    """Sign of a + b*sqrt(delta), by integer tests: delta >= 0, and b = 0
    unless delta is not a square, so the two terms never cancel."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > b * b * delta else sb


def _endless_rays(pair):
    """The test `endless(cone, u, v)` of whether the straight ray of int
    direction (u, v) in cone `cone`, 0 <= cone < l, crosses infinitely
    many walls; None when no ray is decided.

    With walls = develop(pair, 0, l + 1), cone c has the frame (walls[c],
    walls[c+1]), so the ray develops to the constant direction
    w = u*walls[c] + v*walls[c+1], and one turn is the map
    P = [walls[l] | walls[l+1]] (the inverse of `monodromy`), of trace t.
    When t >= 2 and P != I, P has eigenvalues
    lambda+- = (t +- sqrt(delta))/2 > 0 with delta = t^2 - 4 (not a square
    for t > 2), and walls[k + l] = P walls[k].  If the l walls of one turn
    all lie in both open half-planes det(x, D+) > 0 and det(D-, x) > 0,
    for eigenvectors D+- of lambda+- (for t = 2, D+ = -D- spans the image
    of P - I), then so does every wall, since det(P x, D) = det(x, D) /
    lambda, and the walls turn monotonically up to D+ and back down to D-:
    the developed cones fill the convex open sector between them.  A ray
    stays in that sector and crosses finitely many walls exactly when w is
    strictly inside it; otherwise it leaves through D+ or D- (or runs into
    the origin, which the inward radial direction does).  Crossing a wall
    keeps w, and leaving a turn multiplies det(w, D) by the positive
    lambda, so the verdict holds at every step of the ray.  Otherwise (t <
    2, P = I, or no such sector) the walls turn without bound, and a
    straight ray, which sweeps less than pi, crosses finitely many walls.

    D+- have entries in Z[sqrt(delta)], only the second one irrational:
    (2b, d - a +- sqrt(delta)) for P = [[a, b], [c, d]], where b != 0
    since t > 2.  Each is stored oriented as a normal (x0, x1, y1), meaning
    (x0, x1 + y1*sqrt(delta)), with det(x, normal) > 0 on the sector side
    of it, and every test is one `_sign`.
    """
    l = len(_as_pair(pair))
    walls = develop(pair, 0, l + 1)
    (a, c), (b, d) = walls[l], walls[l + 1]
    t = a + d
    if t < 2:
        return None
    delta = t * t - 4
    if t > 2:
        candidates = ((2 * b, d - a, 1), (2 * b, d - a, -1))
    else:
        # P - I has square zero, so a nonzero column spans its image,
        # unless P = I
        n = (a - 1, c) if (a - 1, c) != (0, 0) else (b, d - 1)
        if n == (0, 0):
            return None
        candidates = ((*n, 0),)
    normals = []
    for x0, x1, y1 in candidates:
        sides = {_sign(x * x1 - y * x0, x * y1, delta) for x, y in walls[:l]}
        if sides == {1}:
            normals.append((x0, x1, y1))
        elif sides == {-1}:
            normals.append((-x0, -x1, -y1))
        else:
            return None

    def endless(cone: int, u: int, v: int) -> bool:
        (p, q), (r, s) = walls[cone], walls[cone + 1]
        x, y = u * p + v * r, u * q + v * s
        return not all(_sign(x * x1 - y * x0, x * y1, delta) > 0 for x0, x1, y1 in normals)

    return endless


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
    """Symmetric l x l matrix: d_i on the diagonal, 1 for cyclic neighbours.
    Raises InvalidQuery if l > L_MAX, since the matrix has l^2 entries."""
    pair = _as_pair(pair)
    l = len(pair)
    if l > L_MAX:
        raise InvalidQuery(f"intersection matrix is capped at l = {L_MAX}, got {l}")
    m = [[0] * l for _ in range(l)]
    for i in range(l):
        m[i][i] = pair[i]
        m[i][(i + 1) % l] = 1
        m[(i + 1) % l][i] = 1
    return m


def is_positive(pair: LooijengaPair) -> bool:
    """Whether the intersection matrix M is NOT negative semi-definite.

    A positive d_i (a positive 1x1 minor of M) answers at once.  Otherwise
    the leading principal minors of -M up to size l-1 are the continuants
    P_{-1} = 1, P_0 = -d_0, P_k = -d_k P_{k-1} - P_{k-2}, and the answer is
    that of symmetric (LDL^T) elimination of -M without pivoting, which
    finds -M positive semi-definite iff every pivot is >= 0 and every zero
    pivot has the rest of its row zero:

    - pivot k is P_k / P_{k-1}, so the first P_k <= 0 is the first pivot
      that is negative or zero;
    - a zero pivot in rows 0..l-3 has its neighbour's -1 after it, so the
      pair is positive;
    - a zero pivot in row l-2 has the fill-in -1 - 1/P_{l-3} != 0 after
      it, so the pair is positive;
    - the last pivot is det(-M) / P_{l-2}, and det(-M) = tr(monodromy) - 2,
      so with P_0..P_{l-2} > 0 the pair is positive iff the trace is < 2.

    O(l) integer steps, all in the continuant and `monodromy`.
    """
    pair = _as_pair(pair)
    ds = pair.self_intersections
    if any(d > 0 for d in ds):
        return True
    prev, cur = 1, -ds[0]
    for d in ds[1:-1]:
        if cur <= 0:
            return True
        prev, cur = cur, -d * cur - prev
    return cur <= 0 or monodromy(pair).trace() < 2


def primitive_part(u: int, v: int):
    """(primitive vector, multiplicity) with (u, v) = m * primitive."""
    if u == 0 and v == 0:
        raise ZeroVector("the zero vector has no primitive part")
    g = gcd(abs(u), abs(v))
    return (u // g, v // g), g


def verify_toric_criterion(l: int, lo: int, hi: int):
    """Sweep all pairs of length l with entries in [lo, hi].

    Returns (pairs_checked, closures_found, mismatches) where a mismatch is
    a pair on which trivial monodromy and fan closure disagree.

    A depth-first walk over d_1, ..., d_{l-2}, on an explicit stack,
    carries two separate quantities down each shared prefix: the product
    P = [[a, b], [c, d]] of the crossings of walls 1..l-2, as in
    `monodromy`, and the frame (v_{l-2}, v_{l-1}) of the recurrence in
    `develop`.  Both still cross wall l-1 and then wall 0, by d_{l-1} = e
    and d_0 = f, and each criterion allows at most one (e, f):

    - the monodromy [[-f, 1], [-1, 0]] [[-e, 1], [-1, 0]] P is the identity
      iff P is the inverse of the first two factors, that is
      P = [[-1, f], [-e, e f - 1]]: iff a = -1, e = -c and f = b, since
      det P = 1 then gives d = e f - 1;
    - the frame closes, (v_l, v_{l+1}) = ((1, 0), (0, 1)), iff the
      recurrence run back from it gives v_{l-1} = (-f, -1) and
      v_{l-2} = (e f - 1, e): iff y_{l-1} = -1, e = y_{l-2} and
      f = -x_{l-1}, since det(v_{l-2}, v_{l-1}) = 1 then gives
      x_{l-2} = e f - 1.

    So each prefix counts a closure if the frame's (e, f) lies in
    [lo, hi]^2, and as mismatches the (e, f) in [lo, hi]^2 at which exactly
    one criterion holds: O(1) work per prefix, O((hi - lo + 1)^(l-2))
    steps in all.  Wall l-2 is crossed inline, so no prefix of full length
    is pushed.

    Raises InvalidArgument unless l, lo and hi are ints (see `is_int`),
    InvalidPair if l < 3, and InvalidQuery if l > L_MAX, lo > hi, or the
    sweep has more than SWEEP_PAIRS_MAX pairs.  The slowest sweep under
    the caps, hi - lo = 1 at l = 23, walks 2^21 prefixes in about 1 s
    (Python 3.11, one core of a shared 2-core host).
    """
    if not (is_int(l) and is_int(lo) and is_int(hi)):
        raise InvalidArgument(
            f"toric sweep needs int l, lo, hi, got {brief(l)}, {brief(lo)}, {brief(hi)}")
    if l < 3:
        raise InvalidPair(f"need at least 3 boundary components, got {brief(l)}")
    if l > L_MAX:
        raise InvalidQuery(f"toric sweep is capped at l = {L_MAX}")
    if lo > hi:
        raise InvalidQuery("toric sweep needs lo <= hi")
    pairs = 1
    for _ in range(l):
        pairs *= hi - lo + 1
        if pairs > SWEEP_PAIRS_MAX:
            raise InvalidQuery(
                f"toric sweep is capped at {SWEEP_PAIRS_MAX} pairs, got more at l = {l}")
    values = range(lo, hi + 1)
    closures = mismatches = 0
    # (next wall k, P, v_{k-1}, v_k): walls 1..k-1 crossed
    stack = [(1, 1, 0, 0, 1, 1, 0, 0, 1)]
    while stack:
        k, a, b, c, d, x0, y0, x1, y1 = stack.pop()
        if k < l - 2:
            for dk in values:
                stack.append((k + 1, c - dk * a, d - dk * b, -a, -b,
                              x1, y1, -x0 - dk * x1, -y0 - dk * y1))
            continue
        for dk in values:
            # cross wall l-2: P becomes [[a2, b2], [-a, -b]] and the frame
            # ((x1, y1), (x2, y2)); then solve for (e, f) as above
            a2, b2 = c - dk * a, d - dk * b
            x2, y2 = -x0 - dk * x1, -y0 - dk * y1
            trivial = a2 == -1 and lo <= a <= hi and lo <= b2 <= hi
            closed = y2 == -1 and lo <= y1 <= hi and lo <= -x2 <= hi
            if trivial or closed:
                closures += closed
                mismatches += trivial + closed - 2 * (
                    trivial and closed and a == y1 and b2 == -x2)
    return pairs, closures, mismatches
