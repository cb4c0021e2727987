"""Euclidean projection onto the convex sublevel set {q_j(y) <= 0}.

Each keep-out row q_j >= 0 keeps the iterate out of a convex set; the
projection of the current iterate onto that set is where the supporting
halfspace gets anchored.  The linearization projects keep-out rows only
(an affine row is its own supporting halfspace), and each is a Euclidean
ball or infinite cylinder (a ball in a row-orthonormal linear image) with
a closed form.  Any other function raises UnsupportedModelError.
Projections move only the coordinates the constraint reads, which is
exactly the gradient sparsity pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedModelError
from .problem import ConstraintSpec, NormFn


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    point: np.ndarray
    method: str  # "analytic": every library route is a closed form
    warning: Optional[str] = None


def project(constraint: ConstraintSpec, z: np.ndarray) -> ProjectionResult:
    """Unique Euclidean projection of z onto {q_j <= 0}.

    q_j must be a pure norm ||H w - p|| - r with H H^T = I, which has the
    ball formula.
    """
    z = np.asarray(z, dtype=float)
    if constraint.value(z) <= 0.0:
        return ProjectionResult(point=z.copy(), method="analytic")
    fn = constraint.fn
    if isinstance(fn, NormFn) and fn.is_ball:
        return _project_norm_ball(constraint, z)
    raise UnsupportedModelError(
        f"no projection formula for {type(fn).__name__} on constraint "
        f"({constraint.kind}, step {constraint.step}, component {constraint.component})"
    )


def _project_norm_ball(constraint, z):
    # {||H w - p|| <= r} with H row-orthonormal: pull the image point onto
    # the sphere, moving z only within the row space of H
    fn = constraint.fn
    r = -fn.beta
    w = z[constraint.indices]
    v = fn.H @ w - fn.p
    nv = float(np.linalg.norm(v))
    warning = None
    if nv <= 1e-12:
        # z sits on the cylinder axis (possible only for deeply infeasible
        # input); fall back to the first image direction so the projection
        # stays total and deterministic
        v = np.zeros(fn.p.size)
        v[0] = 1.0
        nv = 1.0
        warning = (
            f"degenerate projection input at the axis of constraint "
            f"({constraint.kind}, step {constraint.step}, component "
            f"{constraint.component}); used fallback direction"
        )
    point = z.copy()
    point[constraint.indices] = w - fn.H.T @ (v * (1.0 - r / nv))
    return ProjectionResult(point=point, method="analytic", warning=warning)
