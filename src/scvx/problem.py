"""Discrete optimal control problem: decision layout, constraint row groups.

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

The problem holds its constraint rows only as array groups, built from
the dynamics and the state constraints when the problem is: the affine
rows (AffineGroup), the dynamics defects first and then the affine state
constraints by width, and the keep-outs by H shape (KeepoutGroup).  Each
group's rows are step-major; g and h are step-major, component-minor, and
eval_h scatters the groups' values into that order.  A group evaluates
all its rows in one array pass that rounds every row as that row alone
would round.  All evaluation functions are pure; problem objects are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DimensionError, UnsupportedModelError

# Norm terms are treated as non-differentiable within this radius of their
# center: a keep-out row linearized there takes a subgradient (the init) or
# raises (a region, whose projections keep their distance to the center).
NORM_SINGULARITY_RADIUS = 1e-12


def _freeze(a, dtype=float):
    # C order whatever the input's: a row's BLAS products round by layout,
    # and a KeepoutGroup stacks its rows' H in C order
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# dimensions and layout


@dataclass(frozen=True)
class ProblemDims:
    """Sizes of one problem instance.

    n: state dimension per step, m: control dimension per step, T: number of
    temporal points.  The state-constraint count per step is the problem's
    len(state_constraints), not a size given here.
    """

    n: int
    m: int
    T: int

    def __post_init__(self):
        if self.T < 2 or self.n < 1 or self.m < 1:
            raise DimensionError(
                f"need T >= 2, n >= 1, m >= 1; got T={self.T}, n={self.n}, m={self.m}"
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


def _decision(dims: ProblemDims, y) -> np.ndarray:
    """y as a flat float vector, checked against the decision dimension."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != dims.n_y:
        raise DimensionError(f"decision vector has length {y.size}, expected {dims.n_y}")
    return y


def unstack(dims: ProblemDims, y: np.ndarray):
    """Split a decision vector into (states, controls) arrays.

    Returns arrays of shape (T, n) and (T-1, m); y is their ravels
    concatenated.
    """
    y = _decision(dims, y)
    split = dims.n * dims.T
    states = y[:split].reshape(dims.T, dims.n)
    controls = y[split:].reshape(dims.T - 1, dims.m)
    return states, controls


# ---------------------------------------------------------------------------
# convex scalar functions over a local coordinate block
#
# A state constraint is one of these two shapes over the few coordinates it
# touches: affine (a halfspace), or a keep-out ball or cylinder (a norm with
# a row-orthonormal H).  They describe its rows; the problem's row groups
# evaluate them.


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


ConvexFn = Union[AffineFn, NormFn]


# ---------------------------------------------------------------------------
# constraint rows as array groups


def _matvecs(M, x):
    """M[k] @ x[k] for every k.

    A stacked matmul hands each block to BLAS as M[k] @ x[k] alone does, so
    every row rounds as its one-row product (fused multiply-adds included),
    which a row-wise sum of products would not.
    """
    return (M @ x[:, :, None])[:, :, 0]


def _dots(u, v):
    """u[k] . v[k] for every k, rounded as u[k].dot(v[k]) rounds."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class RowGroup:
    """Rows q_k(y) >= 0 of one kind: row k is component components[k] at step steps[k]."""

    kind: str  # "dynamics-defect" | "state-constraint"
    steps: np.ndarray  # (k,)
    components: np.ndarray  # (k,)

    def __len__(self) -> int:
        return self.steps.size

    def label(self, k) -> str:
        """How errors and warnings name row k."""
        return f"constraint ({self.kind}, step {self.steps[k]}, component {self.components[k]})"


@dataclass(frozen=True, eq=False)
class KeepoutGroup(RowGroup):
    """Ball and cylinder keep-outs of one shape.

    Row k reads w_k = y[indices[k]] (d coordinates) and keeps it out of the
    ball ||H[k] w_k - centers[k]|| <= radii[k], H[k] being p row-orthonormal
    rows: q_k(y) = ||H[k] w_k - centers[k]|| - radii[k] >= 0.  Every array
    operation on the group rounds each row as that row alone would round.
    """

    indices: np.ndarray  # (k, d)
    H: np.ndarray  # (k, p, d)
    centers: np.ndarray  # (k, p)
    radii: np.ndarray  # (k,)

    def residuals(self, w):
        """H[k] w[k] - centers[k] and its norm, for local coordinates w of shape (k, d)."""
        v = _matvecs(self.H, w) - self.centers
        return v, np.sqrt(_dots(v, v))

    def values(self, y) -> np.ndarray:
        """q_k(y) of every row."""
        return self.residuals(y[self.indices])[1] - self.radii


@dataclass(frozen=True, eq=False)
class AffineGroup(RowGroup):
    """Affine rows q_k(y) = a[k] . y[indices[k]] + beta[k] of one kind and width."""

    indices: np.ndarray  # (k, d)
    a: np.ndarray  # (k, d)
    beta: np.ndarray  # (k,)

    def values(self, y) -> np.ndarray:
        """q_k(y) of every row."""
        return _dots(self.a, y[self.indices]) + self.beta


# ---------------------------------------------------------------------------
# base set Y: cone-representable per-step sets


@dataclass(frozen=True, eq=False)
class Box:
    """Elementwise bounds lower <= y[indices] <= upper."""

    indices: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", _freeze(self.indices, dtype=int))
        object.__setattr__(self, "lower", _freeze(self.lower))
        object.__setattr__(self, "upper", _freeze(self.upper))
        if not (self.lower.size == self.upper.size == self.indices.size):
            raise DimensionError("Box: index/bound sizes disagree")
        if np.any(self.lower > self.upper):
            raise DimensionError("Box: lower bound exceeds upper bound")

    @staticmethod
    def margins(w, lower, upper) -> np.ndarray:
        """Worst bound slack of each of n stacked boxes at their coordinates w (n, k)."""
        below, above = (w - lower).min(axis=1), (upper - w).min(axis=1)
        return np.where(above < below, above, below)  # min(below, above), signed zeros included


@dataclass(frozen=True, eq=False)
class Ball:
    """||y[indices] - center|| <= radius."""

    indices: np.ndarray
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "indices", _freeze(self.indices, dtype=int))
        object.__setattr__(self, "center", _freeze(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.center.size != self.indices.size:
            raise DimensionError("Ball: index/center sizes disagree")
        if self.radius <= 0:
            raise DimensionError("Ball: radius must be positive")

    @staticmethod
    def margins(w, center, radius) -> np.ndarray:
        """radius - ||w - center|| of each of n stacked balls at their coordinates w (n, k)."""
        r = w - center
        return radius - np.sqrt(_dots(r, r))


@dataclass(frozen=True, eq=False)
class Cone:
    """axis . y[indices] >= cos_angle * ||y[indices]||  (second-order cone)."""

    indices: np.ndarray
    axis: np.ndarray
    cos_angle: float

    def __post_init__(self):
        object.__setattr__(self, "indices", _freeze(self.indices, dtype=int))
        object.__setattr__(self, "axis", _freeze(self.axis))
        object.__setattr__(self, "cos_angle", float(self.cos_angle))
        if self.axis.size != self.indices.size:
            raise DimensionError("Cone: index/axis sizes disagree")
        if not 0 < self.cos_angle <= 1:
            raise DimensionError("Cone: need 0 < cos_angle <= 1")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise DimensionError("Cone: axis must be a unit vector")

    @staticmethod
    def margins(w, axis, cos_angle) -> np.ndarray:
        """axis . w - cos_angle ||w|| of each of n stacked cones at their coordinates w (n, k)."""
        return _dots(axis, w) - cos_angle * np.sqrt(_dots(w, w))


@dataclass(frozen=True, eq=False)
class Pin:
    """Fixed values y[indices] = values (boundary conditions)."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", _freeze(self.indices, dtype=int))
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.size != self.indices.size:
            raise DimensionError("Pin: index/value sizes disagree")

    @staticmethod
    def margins(w, values) -> np.ndarray:
        """-max |w - values| of each of n stacked pins at their coordinates w (n, k)."""
        return -np.abs(w - values).max(axis=1)


BaseMember = Union[Box, Ball, Cone, Pin]

# the fields each member type stacks into a group's params, in the order
# its margins takes them
_PARAMS = {
    Pin: ("values",),
    Box: ("lower", "upper"),
    Ball: ("center", "radius"),
    Cone: ("axis", "cos_angle"),
}


@dataclass(frozen=True, eq=False)
class BaseSet:
    """The convex, compact set Y as an intersection of simple members.

    groups stacks the members by type and width, in order of first
    appearance, for the array passes over them.  A group is a tuple (kind,
    positions, indices, params): its row j is member positions[j], of type
    kind, reading y[indices[j]], and params stacks the fields _PARAMS[kind]
    of its members the same way.  A cone program's base-set rows follow
    groups, one block per group, in member order within it.
    """

    n_y: int
    members: tuple
    groups: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        positions = {}
        for j, mem in enumerate(self.members):
            if type(mem) not in _PARAMS:
                raise UnsupportedModelError(f"unknown base-set member {type(mem).__name__}")
            if np.any(mem.indices < 0) or np.any(mem.indices >= self.n_y):
                raise DimensionError("base-set member touches out-of-range coordinates")
            positions.setdefault((type(mem), mem.indices.size), []).append(j)
        groups = []
        for (kind, _), js in positions.items():
            stacked = [self.members[j] for j in js]
            params = tuple(np.array([getattr(m, f) for m in stacked]) for f in _PARAMS[kind])
            indices = np.array([m.indices for m in stacked], dtype=int)
            groups.append((kind, np.array(js), indices, params))
        object.__setattr__(self, "groups", tuple(groups))

    def margins(self, y) -> np.ndarray:
        """Worst slack of each member at y (pins report -|error|), one array
        pass per group; each member rounds as it alone would round."""
        out = np.empty(len(self.members))
        for kind, positions, indices, params in self.groups:
            out[positions] = kind.margins(y[indices], *params)
        return out

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
    closed form for.  A keep-out's radius -beta must exceed
    NORM_SINGULARITY_RADIUS: a smaller one projects a point outside to
    within that distance of the norm's center, where the row has no
    gradient to linearize along, and a negative one keeps out nothing.
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
        if isinstance(fn, NormFn) and not -fn.beta > NORM_SINGULARITY_RADIUS:
            raise UnsupportedModelError(
                f"StateConstraint: keep-out radius {-fn.beta!r} is not above "
                f"{NORM_SINGULARITY_RADIUS:.0e}, so its projections would sit at the "
                "norm's center, where no supporting halfspace is defined"
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

    @property
    def constant(self) -> float:
        """The fixed terms' share of J, which no decision variable moves."""
        return self.weight * sum(float(np.linalg.norm(v)) for v in self.fixed_terms)


# ---------------------------------------------------------------------------
# the problem object


@dataclass(frozen=True, eq=False)
class OptimalControlProblem:
    """The problem, with its constraint rows q >= 0 as array groups.

    affine_rows holds the dynamics defects first, then the affine state
    constraints, one group per width; keepouts holds the ball and cylinder
    keep-outs, one group per H shape.  State-constraint groups follow
    their first member constraint, and every group's rows are step-major.
    """

    dims: ProblemDims
    dynamics: AffineDynamics
    state_constraints: tuple
    base_set: BaseSet
    objective: ControlNormSum
    affine_rows: tuple = field(init=False, repr=False)
    keepouts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "state_constraints", tuple(self.state_constraints))
        n, m = self.dims.n, self.dims.m
        if self.dynamics.B.shape != (n, m):
            raise DimensionError(
                f"dynamics B has shape {self.dynamics.B.shape}, dims say (n, m) = ({n}, {m})"
            )
        if self.base_set.n_y != self.dims.n_y:
            raise DimensionError("base set dimensioned for a different decision vector")
        self.base_set.coordinate_bounds()  # compactness check
        dynamics = _dynamics_group(self.dims, self.dynamics)
        affine, keepouts = _state_groups(self.dims, self.state_constraints)
        object.__setattr__(self, "affine_rows", (dynamics,) + affine)
        object.__setattr__(self, "keepouts", keepouts)

    def objective_value(self, y) -> float:
        return self.objective.value(self.dims, np.asarray(y, dtype=float))


def _dynamics_group(dims: ProblemDims, dyn: AffineDynamics) -> AffineGroup:
    """The defects g_{i,j}: row (i, j) reads x_i, u_i and x_{i+1,j} with a = (A_j, B_j, -1)."""
    n, m, T = dims.n, dims.m, dims.T
    steps = np.repeat(np.arange(T - 1), n)
    components = np.tile(np.arange(n), T - 1)
    indices = np.column_stack(
        [
            steps[:, None] * n + np.arange(n),
            n * T + steps[:, None] * m + np.arange(m),
            (steps + 1) * n + components,
        ]
    )
    a = np.tile(np.column_stack([dyn.A, dyn.B, -np.ones(n)]), (T - 1, 1))
    return AffineGroup(
        kind="dynamics-defect",
        steps=_freeze(steps, dtype=int),
        components=_freeze(components, dtype=int),
        indices=_freeze(indices, dtype=int),
        a=_freeze(a),
        beta=_freeze(np.tile(dyn.d, T - 1)),
    )


def _state_groups(dims: ProblemDims, constraints) -> tuple:
    """(affine groups by width, keep-out groups by H shape) of the state constraints."""
    members = {}
    for j, sc in enumerate(constraints):
        affine = isinstance(sc.fn, AffineFn)
        members.setdefault((affine, sc.fn.dim if affine else sc.fn.H.shape), []).append(j)
    affine, keepouts = [], []
    for (is_affine, _), js in members.items():
        # row r is constraint js[member[r]] at step steps[r]
        member = np.tile(np.arange(len(js)), dims.T)
        steps = np.repeat(np.arange(dims.T), len(js))
        fns = [constraints[j].fn for j in js]

        def per_row(values, dtype=float):
            return _freeze(np.array(values, dtype=dtype)[member], dtype=dtype)

        coords = per_row([constraints[j].state_coords for j in js], int)
        rows = dict(
            kind="state-constraint",
            steps=_freeze(steps, dtype=int),
            components=per_row(js, int),
            indices=_freeze(steps[:, None] * dims.n + coords, dtype=int),
        )
        if is_affine:
            a, beta = per_row([fn.a for fn in fns]), per_row([fn.beta for fn in fns])
            affine.append(AffineGroup(**rows, a=a, beta=beta))
        else:
            H, centers = per_row([fn.H for fn in fns]), per_row([fn.p for fn in fns])
            radii = per_row([-fn.beta for fn in fns])
            keepouts.append(KeepoutGroup(**rows, H=H, centers=centers, radii=radii))
    return tuple(affine), tuple(keepouts)


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
    """State-constraint vector, length sT (s = len(problem.state_constraints)),
    step-major component-minor."""
    dims = problem.dims
    y = _decision(dims, y)
    s = len(problem.state_constraints)
    h = np.empty(s * dims.T)
    for group in problem.affine_rows[1:] + problem.keepouts:  # the state-constraint groups
        h[group.steps * s + group.components] = group.values(y)
    return h
