"""Exception types shared across the package."""


class TropcylError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgument(TropcylError, ValueError):
    """An argument value lies outside the domain of the function.

    Also a `ValueError`: `spine_from_json` reports one raised while placing
    a vertex as malformed input.
    """


class InvalidPair(TropcylError):
    """The boundary self-intersection sequence does not define a valid pair."""


class WrongHomeCone(TropcylError):
    """A tangent vector's home cone does not match the requested transport."""


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
        super().__init__(f"extension not finished after {steps} steps")
        self.steps = steps


class UnbalancedNonRadial(TropcylError):
    """A vertex defect is neither zero nor directed away from the origin."""


class UnsupportedBase(TropcylError):
    """The operation is implemented only for the degree-7 del Pezzo base."""


class NotInFamily(TropcylError):
    """The spine does not match the three-vertex one-wall normal form."""


class InvalidQuery(TropcylError):
    """A count query violates its preconditions."""
