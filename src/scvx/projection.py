"""Euclidean projection onto the convex sublevel set {q_j(y) <= 0}.

Each constraint component q_j >= 0 keeps the iterate out of a convex set;
the projection of the current iterate onto that set is where the
supporting halfspace gets anchored.  Closed forms cover halfspaces,
Euclidean balls, and infinite cylinders (a ball in a row-orthonormal
linear image); everything else goes through a small cone program on the
touched coordinates.  Projections move only the coordinates the
constraint reads, which is exactly the gradient sparsity pattern.

add_epigraph is the one cone encoding of the convex function catalog: the
cone projection's sublevel set and the subproblem's objective and penalty
epigraphs all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import conic
from .errors import ProjectionError, UnsupportedModelError
from .problem import AffineFn, ConstraintSpec, NormFn, QuadFn

# |q_j| this small counts as on the boundary for the gradient-step fallback
BOUNDARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    point: np.ndarray
    distance: float
    method: str  # "analytic" | "conic"
    warning: Optional[str] = None


def project(constraint: ConstraintSpec, z: np.ndarray) -> ProjectionResult:
    """Unique Euclidean projection of z onto {q_j <= 0}.

    The function picks the route: an affine q_j has the halfspace formula,
    a pure norm ||H w - p|| - r with H H^T = I the ball formula, and
    everything else goes through project_generic's cone solve.
    """
    z = np.asarray(z, dtype=float)
    val = constraint.value(z)
    if val <= 0.0:
        return ProjectionResult(
            point=z.copy(),
            distance=0.0,
            method="analytic",
        )
    fn = constraint.fn
    if isinstance(fn, AffineFn):
        return _project_halfspace(constraint, z, val)
    if isinstance(fn, NormFn) and fn.is_ball:
        return _project_norm_ball(constraint, z)
    return project_generic(constraint, z)


def _project_halfspace(constraint, z, val):
    # {a.w + beta <= 0}: step along -a by the violation over ||a||^2
    fn = constraint.fn
    point = z.copy()
    w = z[constraint.indices]
    point[constraint.indices] = w - fn.a * (val / (fn.a @ fn.a))
    return ProjectionResult(
        point=point,
        distance=float(np.linalg.norm(point - z)),
        method="analytic",
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
    return ProjectionResult(
        point=point,
        distance=float(np.linalg.norm(point - z)),
        method="analytic",
        warning=warning,
    )


def add_epigraph(builder: conic.ProgramBuilder, fn, t_col, w_cols):
    """Emit the cone rows of t >= fn(w) over the given builder columns.

    t_col=None encodes the sublevel set fn(w) <= 0 instead.  Affine
    functions give one nonnegative row, norms one second-order cone, and
    quadratics a rotated cone through (r+1)^2 >= (r-1)^2 + 2||L w||^2 with
    r = t - a.w - beta.
    """
    w_cols = np.asarray(w_cols, dtype=int)
    lin = [] if t_col is None else [(int(t_col), 1.0)]
    lin += conic.coord_pairs(w_cols, -fn.a)  # t - a.w
    if isinstance(fn, AffineFn):
        builder.add_ge(lin, fn.beta)
    elif isinstance(fn, NormFn):
        tail = [(conic.coord_pairs(w_cols, h), -p) for h, p in zip(fn.H, fn.p)]
        builder.add_soc([(lin, -fn.beta)] + tail)
    elif isinstance(fn, QuadFn):
        root2 = np.sqrt(2.0)
        tail = [(conic.coord_pairs(w_cols, root2 * row), 0.0) for row in fn.L]
        builder.add_soc([(lin, 1.0 - fn.beta), (lin, -1.0 - fn.beta)] + tail)
    else:
        raise UnsupportedModelError(
            f"no cone-representable epigraph for {type(fn).__name__}"
        )


# violations this small are handled by a Newton step along the gradient
# when the cone solve degenerates (projection distance at the soc apex)
NEAR_BOUNDARY_FALLBACK = 1e-6


def _newton_to_boundary(fn, w):
    """Drive fn(w) to 0 along its gradient; error O(val^2) for small val."""
    w = w.copy()
    for _ in range(3):
        val = fn.value(w)
        if abs(val) <= 1e-12:
            break
        grad = fn.grad(w)
        nr2 = float(grad @ grad)
        if nr2 <= 1e-20:
            raise ProjectionError("vanishing gradient in boundary fallback")
        w = w - (val / nr2) * grad
    return w


def project_generic(constraint: ConstraintSpec, z: np.ndarray) -> ProjectionResult:
    """Projection via a small cone program over the touched coordinates.

    minimize t subject to t >= ||w - z[idx]||, fn(w) <= 0.
    """
    z = np.asarray(z, dtype=float)
    val0 = constraint.value(z)
    if val0 <= 0.0:
        return ProjectionResult(
            point=z.copy(),
            distance=0.0,
            method="conic",
        )
    idx = constraint.indices
    k = idx.size
    w0 = z[idx]
    builder = conic.ProgramBuilder()
    w_cols = builder.add_cols(k) + np.arange(k)
    t = builder.add_cols(1)
    builder.add_cost(t, 1.0)
    add_epigraph(builder, NormFn(np.eye(k), w0, np.zeros(k), 0.0), t, w_cols)
    add_epigraph(builder, constraint.fn, None, w_cols)
    sol = conic.solve(builder.build())
    if sol.status != "optimal":
        if val0 <= NEAR_BOUNDARY_FALLBACK:
            w = _newton_to_boundary(constraint.fn, w0)
            if abs(constraint.fn.value(w)) <= BOUNDARY_TOL:
                point = z.copy()
                point[idx] = w
                return ProjectionResult(
                    point=point,
                    distance=float(np.linalg.norm(point - z)),
                    method="conic",
                    warning="cone solve degenerated near the boundary; "
                    "gradient-step fallback used",
                )
        raise ProjectionError(
            f"conic projection failed with {sol.outcome()} for constraint "
            f"({constraint.kind}, step {constraint.step}, component {constraint.component})"
        )
    w = sol.x[:k]
    if isinstance(constraint.fn, QuadFn):
        w = _polish_quad_projection(constraint.fn, w0, w)
    point = z.copy()
    point[idx] = w
    return ProjectionResult(
        point=point,
        distance=float(np.linalg.norm(point - z)),
        method="conic",
    )


def _polish_quad_projection(fn: QuadFn, z, w):
    """Newton steps from the cone solution w on the projection's KKT system.

    w - z + mu grad f(w) = 0 and f(w) = 0, with Hessian L^T L.  The
    rotated-cone encoding pins the point only to about 1e-5 (the distance
    is flat along the boundary) while a few steps reach rounding level.
    An iterate is kept only while the KKT residual goes down.
    """
    def kkt(w, mu):
        return np.append(w - z + mu * fn.grad(w), fn.value(w))

    g = fn.grad(w)
    mu = float((z - w) @ g / (g @ g))
    hess = fn.L.T @ fn.L
    r = kkt(w, mu)
    best, best_res = w, float(np.linalg.norm(r))
    for _ in range(3):
        g = fn.grad(w)
        jac = np.block([[np.eye(w.size) + mu * hess, g[:, None]], [g, 0.0]])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        w, mu = w + step[:-1], mu + step[-1]
        r = kkt(w, mu)
        res = float(np.linalg.norm(r))
        if not res < best_res:
            break
        best, best_res = w, res
    return best
