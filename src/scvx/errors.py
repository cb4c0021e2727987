"""Exception taxonomy shared across the package.

Every structured failure raised by the library derives from ScvxError so
callers (and the CLI) can map failures to outcomes without string matching.
"""


class ScvxError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionError(ScvxError):
    """An input's shape or length does not match the problem dimensions."""


class GradientSingularityError(ScvxError):
    """A norm term was differentiated at (or too close to) its center.

    A constraint spec re-raises it with the constraint's identity in the
    message.
    """


class DegenerateGradientError(ScvxError):
    """A constraint gradient vanished at a projection point.

    This is the LICQ guard: a supporting halfspace cannot be built from a
    zero normal.
    """


class InfeasibleAnchorError(ScvxError):
    """A point handed to the linearizer or driver is not feasible."""


class ProjectionError(ScvxError):
    """A generic conic projection failed to converge.

    When its cone solve failed, the message names the constraint and the
    solve's status, iteration count, gap and residuals.
    """


class UnsupportedModelError(ScvxError):
    """A requested encoding falls outside the cone-representable catalog."""


class SubsolverError(ScvxError):
    """The conic subsolver failed while the driver needed an optimal point.

    The message names the cone solve's status, iteration count, gap and
    residuals.
    """


class InfeasibleScenarioError(ScvxError):
    """No feasible trajectory exists (or could be found) for a scenario."""


class BadScenarioError(ScvxError):
    """A scenario description is malformed or violates its invariants."""
