"""Exception types shared across the toolkit.

All controller and plant failures derive from JugglingError so that episode
runners can treat them as data (a typed termination reason) rather than
letting them escape.
"""


class JugglingError(Exception):
    """Base class for all domain errors."""


class SingularOrientation(JugglingError):
    """Constraint map evaluated too close to a tangent singularity."""


class Degenerate(JugglingError):
    """A denominator or rate is too close to zero to be meaningful."""


class Infeasible(JugglingError):
    """Commanded inputs produce a nonpositive time of flight."""


class WrongRotationSign(JugglingError):
    """Angular velocity sign is incompatible with the impulse schedule."""


class OffSchedule(JugglingError):
    """State orientation does not match the scheduled odd/even orientation."""


class NoPositiveRoot(JugglingError):
    """The time-of-flight quadratic has no positive real root."""


class NonFinite(JugglingError):
    """A commanded input or a plant state is not a finite number."""


class RodExceeded(JugglingError):
    """Impulse application point falls outside the stick."""


class NotOnSection(JugglingError):
    """State does not lie on the return-map section."""


class AsymmetricSpec(JugglingError):
    """Operation requires orientations symmetric about the vertical."""


class WrongSign(JugglingError):
    """A signed quantity (e.g. the target angular rate) has the wrong sign."""


class FDInconsistent(JugglingError):
    """Finite-difference Jacobian failed the step-halving consistency check."""


class RiccatiDiverged(JugglingError):
    """Riccati fixed-point iteration did not converge within the cap."""


class NotStabilizing(JugglingError):
    """Synthesized gain does not place the closed loop inside the unit disk."""


class ScenarioError(JugglingError):
    """Scenario file could not be parsed or validated."""
