"""Supporting-halfspace construction of the convexified region F_z.

For each keep-out row q_j(y) >= 0 (a ball or cylinder NormFn), the current
iterate z is projected onto the keep-out set {q_j <= 0} and q_j is
linearized at the projection point, producing the supporting halfspace

    l_j(y, z) = grad q_j(zbar_j) . (y - zbar_j) >= 0.

F_z is the base set Y, the affine rows and these halfspaces.  It contains
z and is contained in the true feasible set, which is what makes the outer
loop recursively feasible.  An affine row (a dynamics defect or a halfspace
state constraint) is its own supporting halfspace, so it is not linearized
here: the subproblem builds it once per run as a fixed row, and a region
holds the keep-out halfspaces only.

The keep-outs are worked one KeepoutGroup at a time: projection,
gradients, offsets and the containment check are each one array pass, and
a region's rows are one Halfspaces of index, coefficient and offset
arrays.  A row is the sparse row of its constraint: the spec's own
coordinates and the gradient over them.  Its offset is summed in index
order, as linearize_direct sums the offset of its one Halfspace, so that
the same inputs always round to the same offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGradientError,
    GradientSingularityError,
    InfeasibleAnchorError,
    ScvxError,
)
from .problem import (
    BaseSet,
    ConstraintSpec,
    KeepoutGroup,
    OptimalControlProblem,
    _dots,
    _freeze,
    eval_g,
)
from .projection import project

# anchors are accepted as feasible down to this constraint slack; iterates
# come from a tolerance-limited conic solver
ANCHOR_FEASIBILITY_TOL = 1e-8
GRADIENT_NORM_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class Halfspace:
    """coeffs . y[indices] >= offset: one row linearized at a point (the init's)."""

    indices: np.ndarray
    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "indices", _freeze(self.indices, dtype=int))
        object.__setattr__(self, "coeffs", _freeze(self.coeffs))
        object.__setattr__(self, "offset", float(self.offset))


def _dot_in_order(indices, coeffs, y) -> float:
    """coeffs . y[indices], summed term by term in index order."""
    return sum(g * y[int(i)] for i, g in zip(indices, coeffs))


@dataclass(frozen=True, eq=False)
class Halfspaces:
    """Rows coeffs . y[indices] >= offset as arrays, one row per keep-out.

    Entry e puts coeffs[e] on coordinate indices[e] of row rows[e]; the
    entries run row by row, each row's in its spec's index order.
    """

    rows: np.ndarray
    indices: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size


def _stack(blocks) -> Halfspaces:
    """The rows of (indices, coeffs, offsets) blocks of shapes (k, d), (k, d), (k,), in order."""
    blocks = [(np.zeros((0, 0), dtype=int), np.zeros((0, 0)), np.zeros(0))] + list(blocks)
    widths = np.concatenate([np.full(len(offsets), idx.shape[1]) for idx, _, offsets in blocks])
    indices, coeffs, offsets = (np.concatenate([b[i].ravel() for b in blocks]) for i in range(3))
    return Halfspaces(np.repeat(np.arange(offsets.size), widths), indices, coeffs, offsets)


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    base: BaseSet
    halfspaces: Halfspaces  # or a sequence of blocks _stack takes: () for none
    anchor: np.ndarray

    def __post_init__(self):
        if not isinstance(self.halfspaces, Halfspaces):
            object.__setattr__(self, "halfspaces", _stack(self.halfspaces))
        anchor = np.asarray(self.anchor, dtype=float)
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)


def _anchor_groups(problem: OptimalControlProblem, mode: str) -> tuple:
    """The row groups q >= 0 an anchor must meet, which the feasibility init
    slacks: the affine ones, then the keep-outs.  Equality mode holds the
    dynamics defects as equalities; penalty mode relaxes them to g_j >= 0.
    """
    if mode not in ("equality", "penalty"):
        raise ScvxError(f"unknown linearization mode {mode!r}")
    hard = "dynamics-defect" if mode == "equality" else None
    return tuple(g for g in problem.affine_rows if g.specs[0].kind != hard) + problem.keepouts


def _anchor_rows(problem: OptimalControlProblem, mode: str) -> list:
    """The specs of _anchor_groups, in order."""
    return [spec for group in _anchor_groups(problem, mode) for spec in group.specs]


def _anchor_values(problem: OptimalControlProblem, z, mode: str) -> np.ndarray:
    """q_j(z) of every row _anchor_rows lists, one array pass per group."""
    return np.concatenate([[]] + [group.values(z) for group in _anchor_groups(problem, mode)])


def check_anchor(problem: OptimalControlProblem, z, mode: str):
    """Raise InfeasibleAnchorError unless z is feasible for the mode."""
    z = np.asarray(z, dtype=float)
    if not problem.base_set.contains(z, tol=ANCHOR_FEASIBILITY_TOL):
        worst = float(np.min(problem.base_set.margins(z)))
        raise InfeasibleAnchorError(
            f"anchor violates the base set by {-worst:.3e}; "
            "run find_feasible_start first"
        )
    if mode == "equality":
        # defects are enforced as equalities; tolerate solver-level drift
        g = eval_g(problem, z)
        defect = float(np.max(np.abs(g))) if g.size else 0.0
        if defect > 1e-7:
            raise InfeasibleAnchorError(
                f"anchor dynamics defect {defect:.3e} exceeds 1e-7; "
                "run find_feasible_start first"
            )
    values = _anchor_values(problem, z, mode)
    if values.size and values.min() < -ANCHOR_FEASIBILITY_TOL:
        k = int(np.argmin(values))
        spec = _anchor_rows(problem, mode)[k]
        raise InfeasibleAnchorError(
            f"anchor violates q >= 0 on {spec.label}: q = {values[k]:.3e}; "
            "run find_feasible_start first"
        )
    return z


def _supporting_rows(group: KeepoutGroup, z):
    """The group's supporting halfspaces at the projections of z: (indices, coeffs, offsets)."""
    points = project(group, z).points
    coeffs = group.grads(points)
    norms = np.sqrt(_dots(coeffs, coeffs))
    if np.any(norms < GRADIENT_NORM_FLOOR):
        k = int(np.argmax(norms < GRADIENT_NORM_FLOOR))
        raise DegenerateGradientError(
            f"{group.specs[k].label} has gradient norm {norms[k]:.3e} at its "
            "projection point; supporting halfspace undefined"
        )
    offsets = np.zeros(len(points))
    for terms in (coeffs * points).T:  # in index order, as _dot_in_order sums
        offsets += terms
    slack = _dots(coeffs, z[group.indices]) - offsets
    if np.any(slack < -1e-9):
        k = int(np.argmax(slack < -1e-9))
        raise ScvxError(
            f"anchor lost containment on {group.specs[k].label} (slack "
            f"{slack[k]:.3e}); this indicates a projector defect"
        )
    return group.indices, coeffs, offsets


def build_feasible_region(problem: OptimalControlProblem, z, mode: str) -> FeasibleRegion:
    """Project z onto every keep-out set and emit the supporting halfspaces."""
    z = check_anchor(problem, z, mode)
    rows = _stack(_supporting_rows(group, z) for group in problem.keepouts)
    return FeasibleRegion(problem.base_set, rows, z)


def linearize_direct(constraint: ConstraintSpec, z) -> Halfspace:
    """Linearize q_j at z itself (no projection): a.y >= a.z - q_j(z).

    Because q_j is convex this is a global under-estimator: any y
    satisfying the row satisfies q_j(y) >= 0.  Anchoring at z instead of at
    the projection point generally yields a smaller region than F_z; the
    feasibility initializer uses this form, with slack variables, for every
    row it slacks.  At the center of a norm term, where the gradient is
    undefined, the subgradient along the first image direction is used.
    """
    z = np.asarray(z, dtype=float)
    try:
        grad = constraint.grad_local(z)
    except GradientSingularityError:  # only a NormFn raises it
        fn = constraint.fn
        v = np.zeros(fn.p.size)
        v[0] = 1.0
        grad = fn.H.T @ v + fn.a
    offset = _dot_in_order(constraint.indices, grad, z) - constraint.value(z)
    return Halfspace(constraint.indices, grad, offset)
