"""Euclidean projection onto the keep-out sets {q_k(y) <= 0}, a group at a time.

Each keep-out row q_k >= 0 keeps the iterate out of a convex set; the
projection of the current iterate onto that set is where the supporting
halfspace gets anchored.  The linearization projects keep-out rows only
(an affine row is its own supporting halfspace), and each is a Euclidean
ball or infinite cylinder (a ball in a row-orthonormal linear image) with
a closed form, so a KeepoutGroup of rows of one shape is projected in one
array pass.  Projections move only the coordinates a row reads, which is
exactly its gradient sparsity pattern, so the result holds each row's own
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import KeepoutGroup, _matvecs


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    points: np.ndarray  # (k, d): row k's coordinates y[indices[k]], projected
    method: str  # "analytic": every library route is a closed form


def project(group: KeepoutGroup, z) -> ProjectionResult:
    """Unique Euclidean projection of each row's coordinates onto its keep-out set.

    Row k's set is the ball ||H w - p|| <= r in the image of a
    row-orthonormal H: a point outside it moves onto the sphere within the
    row space of H, and a member is its own projection.  StateConstraint
    admits no radius at or below NORM_SINGULARITY_RADIUS, so a point
    outside has a residual norm above its radius and above 0, and the
    closed form holds on every row.
    """
    w = np.asarray(z, dtype=float)[group.indices]
    v, nv = group.residuals(w)
    out = np.flatnonzero(nv - group.radii > 0.0)
    points = w.copy()
    step = v[out] * (1.0 - group.radii[out] / nv[out])[:, None]
    points[out] = w[out] - _matvecs(np.swapaxes(group.H[out], 1, 2), step)
    return ProjectionResult(points=points, method="analytic")
