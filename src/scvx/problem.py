"""Discrete optimal control problem: decision layout, constraints, gradients.

The decision vector y stacks the T states followed by the T-1 controls:

    y = (x_1, ..., x_T, u_1, ..., u_{T-1})

Dynamics are the affine one-step map x_{i+1} = A x_i + B u_i + d; the
defect at step i is

    g_i(y) = A x_i + B u_i + d - x_{i+1}

which is zero exactly when the discrete dynamics hold.  State constraints
h(x_i) >= 0 are convex functions of the state (halfspaces, and keep-out
balls and cylinders), so the combined constraint vector q(y) = (g(y), h(y))
has convex components while the feasible set {q >= 0} is generally
non-convex.

Constraint row ordering is fixed and documented: dynamics defects first
(step-major, component-minor), then state constraints (step-major,
component-minor).  All evaluation functions are pure; problem objects are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DimensionError, GradientSingularityError, UnsupportedModelError

# Norm terms are treated as non-differentiable within this radius of their
# center; feasible iterates stay outside keep-out zones so this guard is
# defensive only.
NORM_SINGULARITY_RADIUS = 1e-12


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# dimensions and layout


@dataclass(frozen=True)
class ProblemDims:
    """Sizes of one problem instance.

    n: state dimension per step, m: control dimension per step, T: number of
    temporal points, s: state-constraint components per step.
    """

    n: int
    m: int
    T: int
    s: int

    def __post_init__(self):
        if self.T < 2 or self.n < 1 or self.m < 1 or self.s < 0:
            raise DimensionError(
                "need T >= 2, n >= 1, m >= 1, s >= 0; got "
                f"T={self.T}, n={self.n}, m={self.m}, s={self.s}"
            )

    @property
    def n_y(self) -> int:
        """Total decision dimension m(T-1) + nT."""
        return self.m * (self.T - 1) + self.n * self.T

    def state_slice(self, i: int) -> slice:
        """Coordinates of state x_i (0-based step index)."""
        if not 0 <= i < self.T:
            raise DimensionError(f"state index {i} out of range [0, {self.T})")
        return slice(i * self.n, (i + 1) * self.n)

    def control_slice(self, i: int) -> slice:
        """Coordinates of control u_i (0-based step index)."""
        if not 0 <= i < self.T - 1:
            raise DimensionError(f"control index {i} out of range [0, {self.T - 1})")
        off = self.n * self.T
        return slice(off + i * self.m, off + (i + 1) * self.m)


def stack(dims: ProblemDims, states, controls) -> np.ndarray:
    """Pack per-step states and controls into the flat decision vector."""
    if len(states) != dims.T:
        raise DimensionError(f"expected {dims.T} states, got {len(states)}")
    if len(controls) != dims.T - 1:
        raise DimensionError(f"expected {dims.T - 1} controls, got {len(controls)}")
    y = np.empty(dims.n_y)
    for i, x in enumerate(states):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != dims.n:
            raise DimensionError(f"state {i} has dimension {x.size}, expected {dims.n}")
        y[dims.state_slice(i)] = x
    for i, u in enumerate(controls):
        u = np.asarray(u, dtype=float).ravel()
        if u.size != dims.m:
            raise DimensionError(f"control {i} has dimension {u.size}, expected {dims.m}")
        y[dims.control_slice(i)] = u
    return y


def _decision(dims: ProblemDims, y) -> np.ndarray:
    """y as a flat float vector, checked against the decision dimension."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != dims.n_y:
        raise DimensionError(f"decision vector has length {y.size}, expected {dims.n_y}")
    return y


def unstack(dims: ProblemDims, y: np.ndarray):
    """Split a decision vector into (states, controls) arrays.

    Returns arrays of shape (T, n) and (T-1, m); the inverse of stack.
    """
    y = _decision(dims, y)
    split = dims.n * dims.T
    states = y[:split].reshape(dims.T, dims.n)
    controls = y[split:].reshape(dims.T - 1, dims.m)
    return states, controls


# ---------------------------------------------------------------------------
# convex scalar functions over a local coordinate block
#
# Every constraint component is one of these two shapes over the few
# coordinates it touches: affine (a dynamics defect or a halfspace), or a
# keep-out ball or cylinder (a norm with a row-orthonormal H).  The
# objective's thrust terms are norms too.


@dataclass(frozen=True, eq=False)
class AffineFn:
    """w -> a.w + beta"""

    a: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(self.a))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def dim(self):
        return self.a.size

    def value(self, w):
        return float(self.a @ w + self.beta)

    def grad(self, w):
        return self.a.copy()


@dataclass(frozen=True, eq=False)
class NormFn:
    """w -> ||H w - p|| + a.w + beta  (convex; H need not be square)"""

    H: np.ndarray
    p: np.ndarray
    a: np.ndarray
    beta: float

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        object.__setattr__(self, "H", _freeze(H))
        object.__setattr__(self, "p", _freeze(self.p))
        object.__setattr__(self, "a", _freeze(self.a))
        object.__setattr__(self, "beta", float(self.beta))
        if self.H.shape != (self.p.size, self.a.size):
            raise DimensionError("NormFn: H, p, a disagree on dimensions")

    @property
    def dim(self):
        return self.a.size

    @cached_property
    def is_ball(self) -> bool:
        """No linear term and row-orthonormal H: {f <= 0} is a ball in H's image."""
        eye = np.eye(self.p.size)
        return not np.any(self.a) and np.allclose(self.H @ self.H.T, eye, rtol=0.0, atol=1e-12)

    def value(self, w):
        return float(np.linalg.norm(self.H @ w - self.p) + self.a @ w + self.beta)

    def grad(self, w):
        r = self.H @ w - self.p
        nr = np.linalg.norm(r)
        if nr <= NORM_SINGULARITY_RADIUS:
            raise GradientSingularityError(
                "norm term differentiated at its center (residual norm "
                f"{nr:.3e} <= {NORM_SINGULARITY_RADIUS:.0e})"
            )
        return self.H.T @ (r / nr) + self.a


ConvexFn = Union[AffineFn, NormFn]


# ---------------------------------------------------------------------------
# constraint specification


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """One scalar constraint component q_j(y) >= 0.

    The function reads only y[indices]; gradients are therefore sparse rows.
    """

    kind: str  # "dynamics-defect" | "state-constraint"
    step: int
    component: int
    indices: np.ndarray  # global y coordinates, ascending
    fn: ConvexFn

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        if self.kind not in ("dynamics-defect", "state-constraint"):
            raise DimensionError(f"unknown constraint kind {self.kind!r}")
        if self.fn.dim != idx.size:
            raise DimensionError(
                f"constraint ({self.kind}, step {self.step}, component "
                f"{self.component}): function dimension {self.fn.dim} != "
                f"{idx.size} touched coordinates"
            )

    def value(self, y) -> float:
        return self.fn.value(y[self.indices])

    def grad_local(self, y) -> np.ndarray:
        try:
            return self.fn.grad(y[self.indices])
        except GradientSingularityError as exc:
            raise GradientSingularityError(
                f"constraint ({self.kind}, step {self.step}, component "
                f"{self.component}): {exc}"
            ) from None


# ---------------------------------------------------------------------------
# base set Y: cone-representable per-step sets


@dataclass(frozen=True, eq=False)
class Box:
    """Elementwise bounds lower <= y[indices] <= upper."""

    indices: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "lower", _freeze(self.lower))
        object.__setattr__(self, "upper", _freeze(self.upper))
        if not (self.lower.size == self.upper.size == idx.size):
            raise DimensionError("Box: index/bound sizes disagree")
        if np.any(self.lower > self.upper):
            raise DimensionError("Box: lower bound exceeds upper bound")

    def margin(self, y) -> float:
        w = y[self.indices]
        return float(min(np.min(w - self.lower), np.min(self.upper - w)))


@dataclass(frozen=True, eq=False)
class Ball:
    """||y[indices] - center|| <= radius."""

    indices: np.ndarray
    center: np.ndarray
    radius: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "center", _freeze(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.center.size != idx.size:
            raise DimensionError("Ball: index/center sizes disagree")
        if self.radius <= 0:
            raise DimensionError("Ball: radius must be positive")

    def margin(self, y) -> float:
        return float(self.radius - np.linalg.norm(y[self.indices] - self.center))


@dataclass(frozen=True, eq=False)
class Cone:
    """axis . y[indices] >= cos_angle * ||y[indices]||  (second-order cone)."""

    indices: np.ndarray
    axis: np.ndarray
    cos_angle: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "axis", _freeze(self.axis))
        object.__setattr__(self, "cos_angle", float(self.cos_angle))
        if self.axis.size != idx.size:
            raise DimensionError("Cone: index/axis sizes disagree")
        if not 0 < self.cos_angle <= 1:
            raise DimensionError("Cone: need 0 < cos_angle <= 1")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise DimensionError("Cone: axis must be a unit vector")

    def margin(self, y) -> float:
        w = y[self.indices]
        return float(self.axis @ w - self.cos_angle * np.linalg.norm(w))


@dataclass(frozen=True, eq=False)
class Pin:
    """Fixed values y[indices] = values (boundary conditions)."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.size != idx.size:
            raise DimensionError("Pin: index/value sizes disagree")

    def margin(self, y) -> float:
        return float(-np.max(np.abs(y[self.indices] - self.values)))


BaseMember = Union[Box, Ball, Cone, Pin]


@dataclass(frozen=True, eq=False)
class BaseSet:
    """The convex, compact set Y as an intersection of simple members."""

    n_y: int
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for mem in self.members:
            if np.any(mem.indices < 0) or np.any(mem.indices >= self.n_y):
                raise DimensionError("base-set member touches out-of-range coordinates")

    def margins(self, y) -> np.ndarray:
        """Worst slack of each member at y (pins report -|error|)."""
        return np.array([mem.margin(y) for mem in self.members])

    def contains(self, y, tol: float = 1e-8) -> bool:
        return bool(np.all(self.margins(y) >= -tol))

    def coordinate_bounds(self):
        """Finite per-coordinate bounds implied by the member descriptions.

        Raises if any coordinate is unbounded: Y must be compact.
        """
        lo = np.full(self.n_y, -np.inf)
        hi = np.full(self.n_y, np.inf)
        for mem in self.members:
            if isinstance(mem, Box):
                lo[mem.indices] = np.maximum(lo[mem.indices], mem.lower)
                hi[mem.indices] = np.minimum(hi[mem.indices], mem.upper)
            elif isinstance(mem, Ball):
                lo[mem.indices] = np.maximum(lo[mem.indices], mem.center - mem.radius)
                hi[mem.indices] = np.minimum(hi[mem.indices], mem.center + mem.radius)
            elif isinstance(mem, Pin):
                lo[mem.indices] = np.maximum(lo[mem.indices], mem.values)
                hi[mem.indices] = np.minimum(hi[mem.indices], mem.values)
            # a Cone alone bounds nothing; it must be paired with a Ball/Box
        bad = np.nonzero(~(np.isfinite(lo) & np.isfinite(hi)))[0]
        if bad.size:
            raise DimensionError(
                f"base set is not compact: coordinate(s) {bad[:5].tolist()} unbounded"
            )
        return lo, hi


# ---------------------------------------------------------------------------
# dynamics models


@dataclass(frozen=True, eq=False)
class AffineDynamics:
    """One-step map x_{i+1} = A x_i + B u_i + d."""

    A: np.ndarray
    B: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A))
        object.__setattr__(self, "B", _freeze(self.B))
        object.__setattr__(self, "d", _freeze(self.d))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n or self.d.size != n:
            raise DimensionError("AffineDynamics: A, B, d shapes disagree")


# ---------------------------------------------------------------------------
# state constraints (per-step templates)


@dataclass(frozen=True, eq=False)
class StateConstraint:
    """A convex component h_j(x_i) >= 0 applied at every step.

    fn reads x_i[state_coords].  It is a halfspace (AffineFn) or a ball or
    cylinder keep-out (a NormFn with is_ball), the shapes project has a
    closed form for.
    """

    fn: ConvexFn
    state_coords: tuple

    def __post_init__(self):
        fn = self.fn
        if not (isinstance(fn, AffineFn) or (isinstance(fn, NormFn) and fn.is_ball)):
            raise UnsupportedModelError(
                f"StateConstraint: {type(fn).__name__} is neither an AffineFn nor a "
                "ball NormFn (no linear term, row-orthonormal H)"
            )
        object.__setattr__(self, "state_coords", tuple(int(c) for c in self.state_coords))
        if self.fn.dim != len(self.state_coords):
            raise DimensionError("StateConstraint: fn dimension != touched coords")


# ---------------------------------------------------------------------------
# objective: the thrust-norm sum, convex and cone-representable


@dataclass(frozen=True, eq=False)
class ControlNormSum:
    """J(y) = weight * (sum_i ||u_i|| + sum_k ||fixed_terms[k]||).

    fixed_terms are constant control vectors outside the decision horizon
    (for example a terminal trim control); they shift the objective by a
    constant but keep reported costs comparable across formulations.  The
    cone program carries no column for them: their sum is `constant`.
    """

    weight: float = 1.0
    fixed_terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "fixed_terms", tuple(_freeze(v) for v in self.fixed_terms))
        if self.weight <= 0:
            raise DimensionError("ControlNormSum: weight must be positive")

    def value(self, dims: ProblemDims, y) -> float:
        _, controls = unstack(dims, y)
        return self.weight * float(np.sum(np.linalg.norm(controls, axis=1))) + self.constant

    def terms(self, dims: ProblemDims) -> list:
        """weight * ||u_i|| for every control, as (weight, indices, fn)."""
        norm = NormFn(np.eye(dims.m), np.zeros(dims.m), np.zeros(dims.m), 0.0)
        controls = np.arange(dims.n * dims.T, dims.n_y).reshape(dims.T - 1, dims.m)
        return [(self.weight, idx, norm) for idx in controls]

    @property
    def constant(self) -> float:
        """The fixed terms' share of J, which no decision variable moves."""
        return self.weight * sum(float(np.linalg.norm(v)) for v in self.fixed_terms)


# ---------------------------------------------------------------------------
# the problem object


@dataclass(frozen=True, eq=False)
class OptimalControlProblem:
    dims: ProblemDims
    dynamics: AffineDynamics
    state_constraints: tuple
    base_set: BaseSet
    objective: ControlNormSum

    def __post_init__(self):
        object.__setattr__(self, "state_constraints", tuple(self.state_constraints))
        if len(self.state_constraints) != self.dims.s:
            raise DimensionError(
                f"got {len(self.state_constraints)} state constraints, dims say s={self.dims.s}"
            )
        if self.base_set.n_y != self.dims.n_y:
            raise DimensionError("base set dimensioned for a different decision vector")
        self.base_set.coordinate_bounds()  # compactness check
        object.__setattr__(self, "_constraints", _build_constraints(self))

    @property
    def constraints(self) -> tuple:
        """All M ConstraintSpec rows in the documented order."""
        return self._constraints

    def objective_value(self, y) -> float:
        return self.objective.value(self.dims, np.asarray(y, dtype=float))


def _dynamics_row_fn(problem, i, j):
    """ConstraintSpec data for defect component g_{i,j}."""
    dims = problem.dims
    xs = dims.state_slice(i)
    us = dims.control_slice(i)
    nxt = dims.state_slice(i + 1).start + j
    indices = np.concatenate(
        [np.arange(xs.start, xs.stop), np.arange(us.start, us.stop), [nxt]]
    )
    dyn = problem.dynamics
    a = np.concatenate([dyn.A[j], dyn.B[j], [-1.0]])
    return indices, AffineFn(a, dyn.d[j])


def _build_constraints(problem) -> tuple:
    dims = problem.dims
    rows = []
    for i in range(dims.T - 1):
        for j in range(dims.n):
            indices, fn = _dynamics_row_fn(problem, i, j)
            rows.append(ConstraintSpec("dynamics-defect", i, j, indices, fn))
    for i in range(dims.T):
        base = dims.state_slice(i).start
        for j, sc in enumerate(problem.state_constraints):
            indices = np.asarray([base + c for c in sc.state_coords])
            rows.append(ConstraintSpec("state-constraint", i, j, indices, sc.fn))
    return tuple(rows)


# ---------------------------------------------------------------------------
# evaluation


def eval_g(problem: OptimalControlProblem, y) -> np.ndarray:
    """Dynamics defect vector, length n(T-1), step-major component-minor."""
    dyn = problem.dynamics
    # vectorized: the exact penalty evaluates this on every candidate
    states, controls = unstack(problem.dims, y)
    pred = states[:-1] @ dyn.A.T + controls @ dyn.B.T + dyn.d
    return (pred - states[1:]).ravel()


def eval_h(problem: OptimalControlProblem, y) -> np.ndarray:
    """State-constraint vector, length sT, step-major component-minor."""
    dims = problem.dims
    y = _decision(dims, y)
    specs = problem.constraints[dims.n * (dims.T - 1) :]
    return np.array([spec.value(y) for spec in specs], dtype=float)
