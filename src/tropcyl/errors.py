"""Exception types shared across the package, and the formatter their
messages print arguments with."""

from fractions import Fraction
from math import log10

# An int at least this large is shown by its digit count: `repr` raises
# ValueError past 4,300 digits, and a message cuts far shorter anyway.
_LONG = 10 ** 40
_LOG2 = log10(2)
_WIDTH = 60


def brief(x) -> str:
    """`repr(x)` cut to `_WIDTH` characters, for an error message.  An int of
    more than 40 digits, also inside a tuple, list, dict or `Fraction`,
    shows as `<int of N digits>`, so no argument makes the message raise."""
    try:
        return _brief(x)[:_WIDTH]
    except RecursionError:  # a container that holds itself
        return f"<{type(x).__name__}>"


def brief_rational(x) -> str:
    """`str(x)` of an int or `Fraction`, with the long ints of `brief`."""
    n = _brief(x.numerator)
    return n if x.denominator == 1 else f"{n}/{_brief(x.denominator)}"


def _brief(x) -> str:
    t = type(x)
    if t is int:
        if -_LONG < x < _LONG:
            return repr(x)
        # 10^(d-1) <= 2^(bits-1) <= |x|, so |x| has d or d + 1 digits
        a = abs(x)
        d = int((a.bit_length() - 1) * _LOG2) + 1
        return f"<{'negative ' if x < 0 else ''}int of {d + (a >= 10 ** d)} digits>"
    if t is tuple:
        inner = ", ".join(map(_brief, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if t is list:
        return f"[{', '.join(map(_brief, x))}]"
    if t is dict:
        return "{" + ", ".join(f"{_brief(k)}: {_brief(v)}" for k, v in x.items()) + "}"
    if t is Fraction:
        return f"Fraction({_brief(x.numerator)}, {_brief(x.denominator)})"
    try:
        return repr(x)
    except ValueError:
        return f"<{t.__name__}>"


class TropcylError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgument(TropcylError, ValueError):
    """An argument value lies outside the domain of the function.

    Also a `ValueError`: `spine_from_json` reports one raised while placing
    a vertex as malformed input.
    """


class InvalidPair(TropcylError):
    """The boundary self-intersection sequence does not define a valid pair."""


class ZeroVector(TropcylError):
    """A nonzero tangent vector was required."""


class StructuralError(TropcylError):
    """Graph data is internally inconsistent (positions, lengths, tree shape)."""


class OriginVertex(TropcylError):
    """Balancing is undefined at the singular origin."""


class DegenerateRay(TropcylError):
    """Ray tracing was started with degenerate data (zero or wall-parallel
    direction at a wall point, or an origin start)."""


class HitOrigin(TropcylError):
    """An extension ray ran exactly into the singular origin."""


class NotExtendable(TropcylError):
    """Spine extension did not terminate within the step budget."""

    def __init__(self, steps: int):
        super().__init__(f"extension not finished after {brief(steps)} steps")
        self.steps = steps


class UnbalancedNonRadial(TropcylError):
    """A vertex defect is neither zero nor directed away from the origin."""


class UnsupportedBase(TropcylError):
    """The operation is implemented only for the degree-7 del Pezzo base."""


class NotInFamily(TropcylError):
    """The spine does not match the three-vertex one-wall normal form."""


class InvalidQuery(TropcylError):
    """A count query violates its preconditions."""
