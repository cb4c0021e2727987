"""Supporting-halfspace construction of the convexified region F_z.

For each constraint component q_j(y) >= 0 that must be convexified, the
current iterate z is projected onto the keep-out set {q_j <= 0} and q_j is
linearized at the projection point, producing the supporting halfspace

    l_j(y, z) = grad q_j(zbar_j) . (y - zbar_j) >= 0.

F_z is the base set Y intersected with these halfspaces.  It contains z
and is contained in the true feasible set, which is what makes the outer
loop recursively feasible.  Affine dynamics handled as hard equalities are
not linearized here; they enter the subproblem as zero-cone rows.

A halfspace is stored as the sparse row of its constraint: the spec's own
coordinates `indices` and the gradient over them, `coeffs`.  Its offset is
summed in index order, one formula for both constructions, so that the
same inputs always round to the same offset.
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
from .problem import BaseSet, ConstraintSpec, NormFn, OptimalControlProblem, eval_g
from .projection import project

# anchors are accepted as feasible down to this constraint slack; iterates
# come from a tolerance-limited conic solver
ANCHOR_FEASIBILITY_TOL = 1e-8
GRADIENT_NORM_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class Halfspace:
    """coeffs . y[indices] >= offset: a linearized row of constraint_index."""

    indices: np.ndarray
    coeffs: np.ndarray
    offset: float
    constraint_index: int

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=int)
        coeffs = np.asarray(self.coeffs, dtype=float)
        indices.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", float(self.offset))

    def slack(self, y) -> float:
        return float(self.coeffs @ y[self.indices] - self.offset)


def _dot_in_order(indices, coeffs, y) -> float:
    """coeffs . y[indices], summed term by term in index order."""
    return sum(g * y[int(i)] for i, g in zip(indices, coeffs))


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    base: BaseSet
    halfspaces: tuple
    anchor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        anchor = np.asarray(self.anchor, dtype=float)
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)


def _rows_to_linearize(problem: OptimalControlProblem, mode: str):
    """Constraint rows that go through project-and-linearize.

    equality mode: state constraints only (affine defects become zero-cone
    rows downstream); penalty mode: relaxed dynamics rows too.
    """
    if mode not in ("equality", "penalty"):
        raise ScvxError(f"unknown linearization mode {mode!r}")
    rows = []
    for j, spec in enumerate(problem.constraints):
        if spec.kind == "dynamics-defect" and mode == "equality":
            continue
        rows.append((j, spec))
    return rows


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
    rows = _rows_to_linearize(problem, mode)
    values = [spec.value(z) for _, spec in rows]
    if values and min(values) < -ANCHOR_FEASIBILITY_TOL:
        k = int(np.argmin(values))
        spec = rows[k][1]
        raise InfeasibleAnchorError(
            f"anchor violates q >= 0 on constraint ({spec.kind}, step {spec.step}, "
            f"component {spec.component}): q = {values[k]:.3e}; "
            "run find_feasible_start first"
        )
    return z


def build_feasible_region(problem: OptimalControlProblem, z, mode: str) -> FeasibleRegion:
    """Project z onto every keep-out set and emit the supporting halfspaces."""
    z = check_anchor(problem, z, mode)
    halfspaces = []
    for j, spec in _rows_to_linearize(problem, mode):
        zbar = project(spec, z).point
        grad = spec.grad_local(zbar)
        norm = float(np.linalg.norm(grad))
        if norm < GRADIENT_NORM_FLOOR:
            raise DegenerateGradientError(
                f"constraint ({spec.kind}, step {spec.step}, component "
                f"{spec.component}) has gradient norm {norm:.3e} at its "
                "projection point; supporting halfspace undefined"
            )
        hs = Halfspace(spec.indices, grad, _dot_in_order(spec.indices, grad, zbar), j)
        if hs.slack(z) < -1e-9:
            raise ScvxError(
                f"anchor lost containment on constraint index {j} "
                f"(slack {hs.slack(z):.3e}); this indicates a projector defect"
            )
        halfspaces.append(hs)
    return FeasibleRegion(problem.base_set, tuple(halfspaces), z)


def linearize_direct(constraint: ConstraintSpec, z, index: int) -> Halfspace:
    """Linearize q_j at z itself (no projection): a.y >= a.z - q_j(z).

    Because q_j is convex this is a global under-estimator: any y
    satisfying the row satisfies q_j(y) >= 0.  Anchoring at z instead of at
    the projection point generally yields a smaller region than F_z; the
    feasibility initializer uses this form with slack variables, and the
    relaxation floor uses it for affine rows, where it is exactly q_j >= 0.
    At the center of a norm term, where the gradient is undefined, the
    subgradient along the first image direction is used.
    """
    z = np.asarray(z, dtype=float)
    try:
        grad = constraint.grad_local(z)
    except GradientSingularityError:
        fn = constraint.fn
        if not isinstance(fn, NormFn):
            raise
        v = np.zeros(fn.p.size)
        v[0] = 1.0
        grad = fn.H.T @ v + fn.a
    offset = _dot_in_order(constraint.indices, grad, z) - constraint.value(z)
    return Halfspace(constraint.indices, grad, offset, index)
