"""Exception taxonomy shared across the package.

Every structured failure raised by the library derives from ScvxError so
callers (and the CLI) can map failures to outcomes without string matching.
A plain ScvxError marks a library defect, such as a keep-out projection
that loses containment or lies at its keep-out's center.
"""


class ScvxError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionError(ScvxError):
    """An input's shape or length does not match the problem dimensions."""


class InfeasibleAnchorError(ScvxError):
    """A point handed to the linearizer or driver is not feasible."""


class UnsupportedModelError(ScvxError):
    """A model part has no encoding here.

    Raised for a state constraint that is neither a halfspace nor a ball or
    cylinder keep-out (the shapes with a closed-form projection), a keep-out
    of radius at most NORM_SINGULARITY_RADIUS, and a base-set member of an
    unknown type.
    """


class SubsolverError(ScvxError):
    """The conic subsolver failed while the driver needed an optimal point.

    The message names the cone solve's status, iteration count, gap and
    residuals.
    """


class InfeasibleScenarioError(ScvxError):
    """No feasible trajectory exists (or could be found) for a scenario."""


class BadScenarioError(ScvxError):
    """A scenario description is malformed or violates its invariants."""
