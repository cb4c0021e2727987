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

    Carries the offending constraint identity so the caller can report it.
    """

    def __init__(self, message, kind=None, step=None, component=None):
        super().__init__(message)
        self.kind = kind
        self.step = step
        self.component = component


class DegenerateGradientError(ScvxError):
    """A constraint gradient vanished at a projection point.

    This is the LICQ guard: a supporting halfspace cannot be built from a
    zero normal.
    """


class InfeasibleAnchorError(ScvxError):
    """A point handed to the linearizer or driver is not feasible."""


class ProjectionError(ScvxError):
    """A generic conic projection failed to converge."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class UnsupportedModelError(ScvxError):
    """A requested encoding falls outside the cone-representable catalog."""


class SubsolverError(ScvxError):
    """The conic subsolver failed while the driver needed an optimal point."""

    def __init__(self, message, status=None, diagnostics=None):
        super().__init__(message)
        self.status = status
        self.diagnostics = diagnostics or {}


class InfeasibleScenarioError(ScvxError):
    """No feasible trajectory exists (or could be found) for a scenario."""


class BadScenarioError(ScvxError):
    """A scenario description is malformed or violates its invariants."""
