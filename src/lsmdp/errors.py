"""Exception taxonomy shared across the package.

Every error derives from exactly one of two classes: ConfigError for
problems with what the caller supplied (bad shapes, non-stochastic columns,
invalid domain specs, operations the current state does not allow) and
NumericalError for failures of the computation itself (singular systems,
degenerate bases).  The CLI maps the two to distinct exit codes.
"""


class LmdpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LmdpError):
    """The input or the requested operation is invalid; nothing was computed."""


class NumericalError(LmdpError):
    """A valid problem failed numerically."""


# -- construction / configuration -------------------------------------------

class DimensionMismatch(ConfigError):
    pass


class NotStochastic(ConfigError):
    pass


class NoAbsorption(ConfigError):
    """Some interior state cannot reach the boundary under the passive dynamics."""


class RewardOverflow(ConfigError):
    """exp(r / lambda) is not finite for some reward entry."""


class InvalidSpec(ConfigError):
    pass


class BlockedCell(ConfigError):
    pass


class EmptyTarget(ConfigError):
    pass


class CannotTerminateBase(ConfigError):
    pass


class AlreadyTerminated(ConfigError):
    pass


class NoTaskSet(ConfigError):
    """Episode requested before the stack was given a task to pursue."""


# -- numerical ----------------------------------------------------------------

class SingularSystem(NumericalError):
    pass


class SingularFundamentalMatrix(NumericalError):
    pass


class ZeroNormalizer(NumericalError):
    """A policy column has zero total desirability mass under the passive support."""


class NonPositiveDesirability(NumericalError):
    pass


class DegenerateBasis(NumericalError):
    """Task basis contains an all-zero column."""


class NonPositiveComposite(NumericalError):
    """Blended desirability has a non-positive entry."""


class AllZeroColumn(NumericalError):
    """A stacked passive column has no mass at all."""


# -- warnings -----------------------------------------------------------------

class UnreachableSubtasks(UserWarning):
    """Subtask states carry zero transition mass and can never be entered."""
