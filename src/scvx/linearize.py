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
    """coeffs . y[indices] >= offset: a linearized constraint row."""

    indices: np.ndarray
    coeffs: np.ndarray
    offset: float

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


def _anchor_rows(problem: OptimalControlProblem, mode: str):
    """The rows q_j >= 0 an anchor must meet, which the feasibility init slacks.

    equality mode: the state constraints (the defects are equalities);
    penalty mode: the relaxed dynamics rows g_j >= 0 too.
    """
    if mode not in ("equality", "penalty"):
        raise ScvxError(f"unknown linearization mode {mode!r}")
    return [
        spec
        for spec in problem.constraints
        if mode == "penalty" or spec.kind != "dynamics-defect"
    ]


def _keepout_rows(problem: OptimalControlProblem):
    """The rows a region linearizes: every ball or cylinder keep-out."""
    return [spec for spec in problem.constraints if isinstance(spec.fn, NormFn)]


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
    rows = _anchor_rows(problem, mode)
    values = [spec.value(z) for spec in rows]
    if values and min(values) < -ANCHOR_FEASIBILITY_TOL:
        k = int(np.argmin(values))
        spec = rows[k]
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
    for spec in _keepout_rows(problem):
        zbar = project(spec, z).point
        grad = spec.grad_local(zbar)
        norm = float(np.linalg.norm(grad))
        if norm < GRADIENT_NORM_FLOOR:
            raise DegenerateGradientError(
                f"constraint ({spec.kind}, step {spec.step}, component "
                f"{spec.component}) has gradient norm {norm:.3e} at its "
                "projection point; supporting halfspace undefined"
            )
        hs = Halfspace(spec.indices, grad, _dot_in_order(spec.indices, grad, zbar))
        if hs.slack(z) < -1e-9:
            raise ScvxError(
                f"anchor lost containment on constraint ({spec.kind}, step "
                f"{spec.step}, component {spec.component}) (slack "
                f"{hs.slack(z):.3e}); this indicates a projector defect"
            )
        halfspaces.append(hs)
    return FeasibleRegion(problem.base_set, tuple(halfspaces), z)


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
