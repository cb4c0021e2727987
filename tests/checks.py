"""Sampled and empirical checks of the library's guarantees.

None of these is on the solve path: they sample the base set, check
midpoint convexity, probe how the supporting halfspaces move with the
anchor, read back a solver's own objective value, and recompute a cone
solution's residuals from the raw program, so that tests can confirm the
claims the solve path relies on.  Ten references keep earlier forms of
the solve path: the constraint rows one ConstraintSpec at a time, with
their values, gradients and grouping, which the problem's row groups
replace; each base-set member's margin, which the member groups' array
passes replace; the pair-list program builder, which array blocks replace, and
a subproblem program built in one pass of it, also with the penalty
epigraphs the linear penalty cost replaces; the dense Cholesky polish;
the d-general cone algebra; the KKT ordering read from a full factor;
the one-spec-at-a-time projection and linearization that the keep-out
groups replace; the one-spec-at-a-time linearization at a point that the
feasibility init's row groups replace; and a projection through a cone
solve, against which the closed-form projections are checked.  Seeded
random cone programs, feasible and bounded by construction, serve the
solver's tests and its program sweep (tests/program_sweep.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from scvx import conic
from scvx.errors import DimensionError, GradientSingularityError, ScvxError
from scvx.linearize import FeasibleRegion, build_feasible_region
from scvx.problem import (
    NORM_SINGULARITY_RADIUS,
    AffineFn,
    Ball,
    BaseSet,
    Box,
    Cone,
    KeepoutGroup,
    NormFn,
    OptimalControlProblem,
    Pin,
    eval_g,
    eval_h,
)
from scvx.projection import project
from scvx.subproblem import SubproblemArtifacts


# ---------------------------------------------------------------------------
# the per-spec form of the constraint rows
#
# The rows one ConstraintSpec at a time, as the problem held them before it
# held them only as array groups: the row build, each row's value and
# gradient, and the grouping into KeepoutGroups and AffineGroups.  The
# problem's groups must give the same arrays, labels and values, bit for
# bit.


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """One scalar constraint component q_j(y) = fn(y[indices]) >= 0."""

    kind: str  # "dynamics-defect" | "state-constraint"
    step: int
    component: int
    indices: np.ndarray  # global y coordinates
    fn: object  # AffineFn | NormFn

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

    @property
    def label(self) -> str:
        return f"constraint ({self.kind}, step {self.step}, component {self.component})"

    def value(self, y) -> float:
        """fn(y[indices]): a.w + beta, or ||H w - p|| + a.w + beta for a NormFn."""
        fn, w = self.fn, y[self.indices]
        if isinstance(fn, AffineFn):
            return float(fn.a @ w + fn.beta)
        r = fn.H @ w - fn.p
        return float(np.sqrt(r.dot(r)) + fn.a @ w + fn.beta)

    def grad(self, w) -> np.ndarray:
        """The gradient over the spec's own coordinates w = y[indices];
        GradientSingularityError at a norm's center."""
        fn = self.fn
        if isinstance(fn, AffineFn):
            return fn.a.copy()
        r = fn.H @ w - fn.p
        nr = np.sqrt(r.dot(r))
        if nr <= NORM_SINGULARITY_RADIUS:
            raise GradientSingularityError(
                "norm term differentiated at its center (residual norm "
                f"{nr:.3e} <= {NORM_SINGULARITY_RADIUS:.0e})"
            )
        return fn.H.T @ (r / nr) + fn.a


def problem_specs(problem: OptimalControlProblem) -> list:
    """All M rows as specs: the dynamics defects, then the state constraints,
    each step-major, component-minor."""
    dims, dyn = problem.dims, problem.dynamics
    specs = []
    for i in range(dims.T - 1):
        xs, us = dims.state_slice(i), dims.control_slice(i)
        for j in range(dims.n):
            nxt = dims.state_slice(i + 1).start + j
            indices = np.concatenate([np.arange(xs.start, xs.stop), np.arange(us.start, us.stop), [nxt]])
            fn = AffineFn(np.concatenate([dyn.A[j], dyn.B[j], [-1.0]]), dyn.d[j])
            specs.append(ConstraintSpec("dynamics-defect", i, j, indices, fn))
    for i in range(dims.T):
        base = dims.state_slice(i).start
        for j, sc in enumerate(problem.state_constraints):
            indices = np.asarray([base + c for c in sc.state_coords])
            specs.append(ConstraintSpec("state-constraint", i, j, indices, sc.fn))
    return specs


def _split_by(specs, key) -> list:
    """specs split by key(spec), in order of first appearance, each in the order given."""
    groups = {}
    for spec in specs:
        groups.setdefault(key(spec), []).append(spec)
    return list(groups.values())


def affine_spec_groups(problem: OptimalControlProblem) -> list:
    """The affine specs split by kind and width: the specs of problem.affine_rows."""
    specs = [spec for spec in problem_specs(problem) if isinstance(spec.fn, AffineFn)]
    return _split_by(specs, lambda spec: (spec.kind, spec.indices.size))


def keepout_spec_groups(problem: OptimalControlProblem) -> list:
    """The keep-out specs split by H shape: the specs of problem.keepouts."""
    specs = [spec for spec in problem_specs(problem) if isinstance(spec.fn, NormFn)]
    return _split_by(specs, lambda spec: spec.fn.H.shape)


def keepout_group(specs) -> KeepoutGroup:
    """Keep-out specs of one H shape as a KeepoutGroup, in the order given."""
    return KeepoutGroup(
        kind="state-constraint",
        steps=np.array([spec.step for spec in specs]),
        components=np.array([spec.component for spec in specs]),
        indices=np.array([spec.indices for spec in specs], dtype=int),
        H=np.array([spec.fn.H for spec in specs]),
        centers=np.array([spec.fn.p for spec in specs]),
        radii=np.array([-spec.fn.beta for spec in specs]),
    )


class ConvexityError(ScvxError):
    """A sampled midpoint check found a constraint that is not convex."""


def value_batch(spec: ConstraintSpec, Y) -> np.ndarray:
    """spec's constraint value at each row of Y, a (batch, n_y) array."""
    fn, W = spec.fn, Y[:, spec.indices]
    if isinstance(fn, AffineFn):
        return W @ fn.a + fn.beta
    if isinstance(fn, NormFn):
        R = W @ fn.H.T - fn.p
        return np.linalg.norm(R, axis=1) + W @ fn.a + fn.beta
    raise TypeError(f"no batch evaluator for {type(fn).__name__}")


def project_point(constraint: ConstraintSpec, z) -> np.ndarray:
    """z with the constraint's coordinates moved by the library's projection.

    The constraint is projected as a KeepoutGroup of one row.
    """
    group = keepout_group([constraint])
    point = np.array(z, dtype=float)
    point[constraint.indices] = project(group, point).points[0]
    return point


def project_reference(constraint: ConstraintSpec, z):
    """The projection one keep-out spec at a time.

    The closed form before keep-outs were grouped: pull the image point
    H w - p onto the sphere of radius r, moving z only within the row space
    of H.
    """
    z = np.asarray(z, dtype=float)
    if constraint.value(z) <= 0.0:
        return z.copy()
    fn = constraint.fn
    r = -fn.beta
    w = z[constraint.indices]
    v = fn.H @ w - fn.p
    nv = float(np.linalg.norm(v))
    point = z.copy()
    point[constraint.indices] = w - fn.H.T @ (v * (1.0 - r / nv))
    return point


def _dot_in_order(indices, coeffs, y) -> float:
    """coeffs . y[indices], summed term by term in index order."""
    return sum(g * y[int(i)] for i, g in zip(indices, coeffs))


def linearize_reference(constraint: ConstraintSpec, z):
    """The supporting halfspace of one keep-out spec at z: (coeffs, offset).

    The gradient at the reference projection and its in-order offset, as
    build_feasible_region formed each row before keep-outs were grouped.
    """
    zbar = project_reference(constraint, z)
    grad = constraint.grad(zbar[constraint.indices])
    return grad, _dot_in_order(constraint.indices, grad, zbar)


def linearize_direct(constraint: ConstraintSpec, z):
    """q_j linearized at z itself, one spec at a time: (coeffs, offset) of
    coeffs . y >= offset = coeffs . z - q_j(z).

    The feasibility init's row before its rows were grouped: the gradient
    at z, or at the center of a norm term the subgradient along the first
    image direction, and the in-order offset.
    """
    z = np.asarray(z, dtype=float)
    fn = constraint.fn
    try:
        grad = constraint.grad(z[constraint.indices])
    except GradientSingularityError:  # only a NormFn raises it
        v = np.zeros(fn.p.size)
        v[0] = 1.0
        grad = fn.H.T @ v + fn.a
    return grad, _dot_in_order(constraint.indices, grad, z) - constraint.value(z)


def halfspace_rows(halfspaces):
    """The rows of a Halfspaces as (indices, coeffs, offset) triples, in order."""
    return [
        (halfspaces.indices[halfspaces.rows == k], halfspaces.coeffs[halfspaces.rows == k], offset)
        for k, offset in enumerate(halfspaces.offsets)
    ]


def slacks(halfspaces, y) -> np.ndarray:
    """coeffs . y[indices] - offset of every row."""
    return np.array([coeffs @ y[idx] - offset for idx, coeffs, offset in halfspace_rows(halfspaces)])


def keepout_specs(problem: OptimalControlProblem) -> list:
    """The keep-out specs in region row order: group by group."""
    return [spec for group in keepout_spec_groups(problem) for spec in group]


def anchor_specs(problem: OptimalControlProblem, mode: str) -> list:
    """The specs the feasibility init slacks, in its row order: group by group,
    the affine ones (without the dynamics in equality mode), then the keep-outs."""
    hard = "dynamics-defect" if mode == "equality" else None
    groups = [g for g in affine_spec_groups(problem) if g[0].kind != hard] + keepout_spec_groups(problem)
    return [spec for group in groups for spec in group]


def project_generic(constraint: ConstraintSpec, z) -> np.ndarray:
    """Projection of z onto {q_j <= 0} through a small cone program.

    minimize t subject to t >= ||w - z[idx]|| and q_j(w) <= 0 over the
    touched coordinates w: one second-order cone (-a.w - beta, H w - p)
    for the keep-out norm.
    """
    z = np.asarray(z, dtype=float)
    if constraint.value(z) <= 0.0:
        return z.copy()
    idx, fn = constraint.indices, constraint.fn
    k = idx.size
    builder = ReferenceBuilder()
    w_cols = builder.add_cols(k) + np.arange(k)
    t = builder.add_cols(1)
    builder.add_cost(t, 1.0)
    add_epigraph(builder, NormFn(np.eye(k), z[idx], np.zeros(k), 0.0), t, w_cols)
    tail = [(coord_pairs(w_cols, h), -p) for h, p in zip(fn.H, fn.p)]
    builder.add_soc([(coord_pairs(w_cols, -fn.a), -fn.beta)] + tail)
    sol = conic.solve(builder.build())
    if sol.status != "optimal":
        raise ScvxError(f"conic projection failed with {sol.outcome()} for {constraint.label}")
    point = z.copy()
    point[idx] = sol.x[:k]
    return point


def member_margin(mem, y) -> float:
    """The worst slack of one base-set member at y, member by member, as
    BaseSet.margins computed it before it worked a group at a time."""
    if isinstance(mem, Box):
        w = y[mem.indices]
        return float(min((w - mem.lower).min(), (mem.upper - w).min()))
    if isinstance(mem, Ball):
        r = y[mem.indices] - mem.center
        return float(mem.radius - np.sqrt(r.dot(r)))
    if isinstance(mem, Cone):
        w = y[mem.indices]
        return float(mem.axis @ w - mem.cos_angle * np.sqrt(w.dot(w)))
    return float(-np.abs(y[mem.indices] - mem.values).max())


def sample_base_set(base: BaseSet, rng, count: int, halfspaces=()) -> np.ndarray:
    """Draw `count` points of Y (optionally filtered by extra halfspaces).

    halfspaces is a sequence of (indices, coeffs, offset) rows meaning
    coeffs . y[indices] >= offset.  Sampling is blockwise rejection: members
    and halfspaces are grouped by the coordinates they share, each group is
    sampled within its coordinate box and filtered, and independent groups
    are drawn independently.  Pinned coordinates take their fixed values.
    """
    lo, hi = base.coordinate_bounds()
    pinned = np.zeros(base.n_y, dtype=bool)
    values = np.zeros(base.n_y)
    for mem in base.members:
        if isinstance(mem, Pin):
            pinned[mem.indices] = True
            values[mem.indices] = mem.values

    # union-find over coordinates shared by non-box members / halfspaces
    parent = np.arange(base.n_y)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    predicates = {}  # root coordinate -> list of batch tests

    def add_predicate(indices, test):
        """test maps a (batch, len(indices)) block of y[indices] to booleans."""
        indices = np.asarray(indices, dtype=int)
        free_mask = ~pinned[indices]
        if not free_mask.any():
            return  # touches only pinned coordinates; holds at the anchor
        free_idx = indices[free_mask]
        for a, b in zip(free_idx[:-1], free_idx[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        fixed_vals = values[indices[~free_mask]]

        def run(cand, coords):
            W = np.empty((cand.shape[0], indices.size))
            W[:, free_mask] = cand[:, np.searchsorted(coords, free_idx)]
            if fixed_vals.size:
                W[:, ~free_mask] = fixed_vals
            return test(W)

        predicates.setdefault(find(free_idx[0]), []).append((free_idx, run))

    for mem in base.members:
        if isinstance(mem, Ball):
            c, r = mem.center, mem.radius
            add_predicate(
                mem.indices,
                lambda W, c=c, r=r: np.linalg.norm(W - c, axis=1) <= r,
            )
        elif isinstance(mem, Cone):
            ax, ca = mem.axis, mem.cos_angle
            add_predicate(
                mem.indices,
                lambda W, ax=ax, ca=ca: W @ ax >= ca * np.linalg.norm(W, axis=1),
            )
    for indices, coeffs, offset in halfspaces:
        coeffs = np.asarray(coeffs, dtype=float)
        add_predicate(
            indices,
            lambda W, a=coeffs, off=float(offset): W @ a >= off,
        )

    out = np.empty((count, base.n_y))
    out[:, pinned] = values[pinned]

    # re-anchor predicate lists on final roots, then group free coordinates
    merged = {}
    for root, tests in predicates.items():
        merged.setdefault(find(root), []).extend(tests)
    groups = {}
    for i in range(base.n_y):
        if pinned[i]:
            continue
        groups.setdefault(find(i), []).append(i)

    for root, coords in groups.items():
        coords = np.asarray(coords)
        tests = merged.get(root, [])
        width = hi[coords] - lo[coords]
        filled = 0
        batch = max(4 * count, 1024)
        while filled < count:
            cand = lo[coords] + width * rng.random((batch, coords.size))
            ok = np.ones(batch, dtype=bool)
            for _, run in tests:
                ok &= run(cand, coords)
            cand = cand[ok]
            take = min(count - filled, cand.shape[0])
            out[filled : filled + take][:, coords] = cand[:take]
            filled += take
            if take == 0:
                batch = min(batch * 2, 1_000_000)
    return out


def n_constraints(problem: OptimalControlProblem) -> int:
    """Total constraint count M = sT + n(T-1), s = len(problem.state_constraints)."""
    dims = problem.dims
    return len(problem.state_constraints) * dims.T + dims.n * (dims.T - 1)


def eval_q(problem: OptimalControlProblem, y) -> np.ndarray:
    """Combined constraint vector q(y) = (g(y), h(y)), length M."""
    return np.concatenate([eval_g(problem, y), eval_h(problem, y)])


def jacobian_q(problem: OptimalControlProblem, y) -> np.ndarray:
    """Dense M x N_y Jacobian of q; row j is the gradient of q_j."""
    y = np.asarray(y, dtype=float)
    dims = problem.dims
    J = np.zeros((n_constraints(problem), dims.n_y))
    for r, spec in enumerate(problem_specs(problem)):
        J[r, spec.indices] = spec.grad(y[spec.indices])
    return J


def validate_convexity(problem: OptimalControlProblem, n_pairs: int = 1000, seed: int = 0):
    """Sampled midpoint convexity check over all constraint components.

    Draws point pairs in Y and verifies q_j(mid) <= (q_j(a)+q_j(b))/2 + 1e-9
    for every component.  Raises ConvexityError naming the first offender.
    """
    rng = np.random.default_rng(seed)
    A = sample_base_set(problem.base_set, rng, n_pairs)
    B = sample_base_set(problem.base_set, rng, n_pairs)
    Mid = 0.5 * (A + B)
    for spec in problem_specs(problem):
        gap = value_batch(spec, Mid) - 0.5 * (value_batch(spec, A) + value_batch(spec, B))
        worst = float(np.max(gap))
        if worst > 1e-9:
            raise ConvexityError(
                f"constraint ({spec.kind}, step {spec.step}, component "
                f"{spec.component}) failed the midpoint convexity check by {worst:.3e}"
            )


@dataclass(frozen=True)
class InvarianceReport:
    samples: int
    violations: int
    worst_margin: float
    anchor_slack: float
    checked_rows: int


def verify_invariance(
    problem: OptimalControlProblem,
    region: FeasibleRegion,
    n_samples: int,
    seed: int = 0,
) -> InvarianceReport:
    """Sampled check of anchor membership and F_z containment.

    Samples points of F_z (base set filtered by the halfspaces) and
    evaluates the linearized keep-out rows at each: every sample must
    satisfy q_j >= -1e-8.  The region holds one halfspace per keep-out
    spec, group by group, each group in constraint order.  Affine rows are fixed rows of the
    subproblem, not part of the halfspace description, and are excluded
    (the subproblem enforces them exactly, not this containment argument).
    Failures are reported, not raised.
    """
    rows = halfspace_rows(region.halfspaces)
    anchor_slack = float(np.min(slacks(region.halfspaces, region.anchor))) if rows else 0.0
    rng = np.random.default_rng(seed)
    Y = sample_base_set(region.base, rng, n_samples, halfspaces=rows)
    worst = np.inf
    violations = 0
    checked = 0
    keepouts = keepout_specs(problem)
    assert len(keepouts) == len(rows)
    for spec in keepouts:
        vals = value_batch(spec, Y)
        worst = min(worst, float(np.min(vals))) if vals.size else worst
        violations += int(np.sum(vals < -1e-8))
        checked += 1
    if not rows:
        worst = 0.0
    return InvarianceReport(
        samples=n_samples,
        violations=violations,
        worst_margin=float(worst),
        anchor_slack=float(anchor_slack),
        checked_rows=checked,
    )


def lipschitz_probe(problem: OptimalControlProblem, z1, z2, y) -> float:
    """Empirical ratio ||l(y, z1) - l(y, z2)|| / ||z1 - z2|| (equality mode).

    Property tests probe this for boundedness; no Lipschitz constant is
    stored or asserted by the library itself.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    dz = float(np.linalg.norm(z1 - z2))
    if dz <= 0.0:
        raise ScvxError("lipschitz_probe needs two distinct anchor points")
    r1 = build_feasible_region(problem, z1, "equality")
    r2 = build_feasible_region(problem, z2, "equality")
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(slacks(r1.halfspaces, y) - slacks(r2.halfspaces, y)) / dz)


def solver_objective(artifacts: SubproblemArtifacts, solution: conic.ConicSolution) -> float:
    """The solver's own objective value including constant offsets."""
    return float(artifacts.program.c @ solution.x) + artifacts.problem.objective.constant


def residuals(program: conic.ConicProgram, solution: conic.ConicSolution):
    """Normalized (primal, dual, gap) residuals recomputed from raw data."""
    x, s, z = solution.x, solution.s, solution.z_dual
    c, A, b = program.c, program.A, program.b
    pres = np.linalg.norm(A @ x + s - b) / (1.0 + np.linalg.norm(b))
    dres = np.linalg.norm(A.T @ z + c) / (1.0 + np.linalg.norm(c))
    pobj = float(c @ x)
    gap = abs(pobj + float(b @ z)) / (1.0 + abs(pobj))
    return float(pres), float(dres), float(gap)


# ---------------------------------------------------------------------------
# the pair-list program builder
#
# ProgramBuilder as it took rows one at a time, as expressions (pairs,
# const) with pairs = [(column, coefficient)...], and the row emitters
# that walked the rows one at a time.  conic.ProgramBuilder's array blocks
# and the subproblem's fixed rows must give the same programs, bit for bit.


class ReferenceBuilder:
    """The slack of an emitted cone row equals const + sum(coeff * x[col]).

    add_cols returns the first new column, add_eq, add_ge and add_soc the
    program row of their first row.  Adjacent equality rows share one zero
    cone and adjacent inequality rows one nonnegative cone.
    """

    def __init__(self):
        self.n_cols = 0
        self._cost = []  # (col, coeff)
        self._rows, self._cols, self._vals = [], [], []  # entries of A
        self._b = []
        self._cones = []  # [kind, dim], in row order

    def add_cols(self, count) -> int:
        start = self.n_cols
        self.n_cols += count
        return start

    def add_cost(self, col, coeff):
        self._cost.append((int(col), float(coeff)))

    def add_eq(self, pairs, rhs) -> int:
        """sum coeff*x = rhs: A x = b."""
        return self._emit("zero", [(pairs, float(rhs))], 1.0)

    def add_ge(self, pairs, rhs) -> int:
        """sum coeff*x >= rhs: s = sum coeff*x - rhs."""
        return self._emit("nonneg", [(pairs, -float(rhs))], -1.0)

    def add_soc(self, exprs) -> int:
        """One second-order cone over the expressions, head first."""
        return self._emit("soc", [(p, float(k)) for p, k in exprs], -1.0)

    def _emit(self, kind, exprs, sign):
        start = len(self._b)
        for pairs, const in exprs:
            for col, coeff in pairs:
                if coeff != 0.0:
                    self._rows.append(len(self._b))
                    self._cols.append(int(col))
                    self._vals.append(sign * float(coeff))
            self._b.append(const)
        if kind != "soc" and self._cones and self._cones[-1][0] == kind:
            self._cones[-1][1] += len(exprs)
        else:
            self._cones.append([kind, len(exprs)])
        return start

    def build(self) -> conic.ConicProgram:
        c = np.zeros(self.n_cols)
        for col, coeff in self._cost:
            c[col] += coeff
        A = sp.coo_matrix(
            (self._vals, (self._rows, self._cols)), shape=(len(self._b), self.n_cols)
        ).tocsc()
        cones = tuple(conic.Cone(kind, dim) for kind, dim in self._cones)
        return conic.ConicProgram(c, A, np.asarray(self._b, dtype=float), cones)


def coord_pairs(cols, coeffs):
    """Expression pairs [(column, coefficient)...] for ReferenceBuilder rows."""
    return [(int(i), float(a)) for i, a in zip(cols, coeffs)]


def add_epigraph(builder: ReferenceBuilder, fn, t_col, w_cols):
    """The cone rows of t >= fn(w): a nonnegative row t - a.w >= beta for an
    AffineFn, the second-order cone (t - a.w - beta, H w - p) for a NormFn."""
    w_cols = np.asarray(w_cols, dtype=int)
    lin = [(int(t_col), 1.0)] + coord_pairs(w_cols, -fn.a)  # t - a.w
    if isinstance(fn, AffineFn):
        builder.add_ge(lin, fn.beta)
    else:
        tail = [(coord_pairs(w_cols, h), -p) for h, p in zip(fn.H, fn.p)]
        builder.add_soc([(lin, -fn.beta)] + tail)


def add_base_set_rows(builder: ReferenceBuilder, base) -> list:
    """The base set's cone rows, one row or cone at a time; returns the pin rows.

    The members go group by group, a group being the members of one type
    and width in order of first appearance, and in member order within it.
    """
    groups = {}
    for mem in base.members:
        groups.setdefault((type(mem), mem.indices.size), []).append(mem)
    pins = []
    for mem in (mem for group in groups.values() for mem in group):
        if isinstance(mem, Pin):
            for i, v in zip(mem.indices, mem.values):
                pins.append(builder.add_eq([(int(i), 1.0)], float(v)))
        elif isinstance(mem, Box):
            for i, lo, hi in zip(mem.indices, mem.lower, mem.upper):
                if np.isfinite(lo):
                    builder.add_ge([(int(i), 1.0)], float(lo))
                if np.isfinite(hi):
                    builder.add_ge([(int(i), -1.0)], float(-hi))
        elif isinstance(mem, Ball):
            exprs = [([], float(mem.radius))]
            for i, cc in zip(mem.indices, mem.center):
                exprs.append(([(int(i), 1.0)], float(-cc)))
            builder.add_soc(exprs)
        elif isinstance(mem, Cone):
            head = coord_pairs(mem.indices, mem.axis / mem.cos_angle)
            exprs = [(head, 0.0)]
            for i in mem.indices:
                exprs.append(([(int(i), 1.0)], 0.0))
            builder.add_soc(exprs)
    return pins


def builder_program(
    problem: OptimalControlProblem, penalty_config, halfspaces, epigraphs: bool = False
) -> conic.ConicProgram:
    """min P over the base set, the affine rows and the halfspaces, in one
    ReferenceBuilder pass over the specs, the affine state rows by width.

    At lambda > 0 the fixed row g_j >= 0 makes lambda * |g_j| linear, and
    each defect's term is the cost lambda * a_j on y.  With epigraphs it is
    the form the subproblem had before: a cost column t_j and the row
    t_j >= g_j, after the control norms' columns and cones, so that the
    dynamics rows start len(dynamics) rows later.
    """
    builder = ReferenceBuilder()
    dims = problem.dims
    builder.add_cols(dims.n_y)
    controls = np.arange(dims.n * dims.T, dims.n_y).reshape(dims.T - 1, dims.m)
    norm = NormFn(np.eye(dims.m), np.zeros(dims.m), np.zeros(dims.m), 0.0)
    terms = [(problem.objective.weight, idx, norm) for idx in controls]
    groups = affine_spec_groups(problem)  # the dynamics, then the affine state rows
    if penalty_config.lam > 0.0 and epigraphs:
        terms += [(penalty_config.lam, spec.indices, spec.fn) for spec in groups[0]]
    elif penalty_config.lam > 0.0:
        for spec in groups[0]:
            for col, a in zip(spec.indices, spec.fn.a):
                builder.add_cost(col, penalty_config.lam * a)
    for weight, indices, fn in terms:
        t = builder.add_cols(1)
        builder.add_cost(t, weight)
        add_epigraph(builder, fn, t, indices)
    for spec in (spec for group in groups for spec in group):
        hard = penalty_config.mode == "equality" and spec.kind == "dynamics-defect"
        add = builder.add_eq if hard else builder.add_ge
        add(coord_pairs(spec.indices, spec.fn.a), -spec.fn.beta)
    add_base_set_rows(builder, problem.base_set)
    for indices, coeffs, offset in halfspace_rows(halfspaces):
        builder.add_ge(coord_pairs(indices, coeffs), offset)
    return builder.build()


def dense_polish(program: conic.ConicProgram, rows, n_y: int, y) -> np.ndarray:
    """The polish onto the equality rows on a dense E: a Cholesky solve of
    E E^T, or least squares when the factorization fails."""
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        return y
    E = program.A[rows.tolist(), :n_y].toarray()
    d = program.b[rows]
    r = d - E @ y
    try:
        cho = scipy.linalg.cho_factor(E @ E.T)
        return y + E.T @ scipy.linalg.cho_solve(cho, r)
    except scipy.linalg.LinAlgError:
        return y + E.T @ np.linalg.lstsq(E @ E.T, r, rcond=None)[0]


# ---------------------------------------------------------------------------
# the d-general cone algebra
#
# The cone operations as they ran before the d = 1 group got its closed
# forms: every group, d = 1 included, goes through the second-order
# formulas, on empty (k, 0) tails for d = 1.  conic._Blocks,
# conic._Interior and conic._Scaling must give the same bits.


def _split(x):
    """Heads (k,) and tails (k, d-1) of stacked blocks."""
    return x[:, 0], x[:, 1:]


def _dot(u, v):
    return np.sum(u * v, axis=1)


def _jnorm(x):
    """sqrt(x0^2 - ||x1||^2) per block: the cone's own scale."""
    x0, x1 = _split(x)
    return np.sqrt(x0 * x0 - _dot(x1, x1))


def _jdiag(d):
    """The diagonal of J = diag(1, -1, ..., -1)."""
    j = -np.ones(d)
    j[0] = 1.0
    return j


def _reflect(u, x):
    """(2uu^T - J) x per stacked block."""
    return (2.0 * _dot(u, x))[:, None] * u - _jdiag(x.shape[1]) * x


class ReferenceBlocks:
    """conic._Blocks in its d-general form: program rows of the nonnegative
    and second-order cones, grouped by dimension into (k, d) index arrays;
    zero-cone rows are in no group."""

    def __init__(self, cones):
        starts = {}  # dim -> first program row of each block
        pos = 0
        for k in cones:
            if k.kind == "nonneg":
                starts.setdefault(1, []).extend(range(pos, pos + k.dim))
            elif k.kind == "soc":
                starts.setdefault(k.dim, []).append(pos)
            pos += k.dim
        self.groups = [
            np.asarray(starts[d], dtype=int)[:, None] + np.arange(d) for d in sorted(starts)
        ]
        self.dim = pos
        self.degree = sum(idx.shape[0] for idx in self.groups)

    def restrict(self, v):
        """v on the block rows, 0 on the zero-cone rows."""
        out = np.zeros(self.dim)
        for idx in self.groups:
            out[idx] = v[idx]
        return out

    def identity(self):
        e = np.zeros(self.dim)
        for idx in self.groups:
            e[idx[:, 0]] = 1.0
        return e

    def square_entries(self):
        """(rows, cols) of the W^2 values, in w_squared's order: (k, d, d) per group."""
        shapes = [idx.shape + idx.shape[1:] for idx in self.groups]
        rows = [np.broadcast_to(idx[:, :, None], f).ravel() for idx, f in zip(self.groups, shapes)]
        cols = [np.broadcast_to(idx[:, None, :], f).ravel() for idx, f in zip(self.groups, shapes)]
        empty = [np.zeros(0, dtype=int)]
        return np.concatenate(empty + rows), np.concatenate(empty + cols)

    def identity_squared(self):
        """W^2 values at W = I, in w_squared's order."""
        rows, cols = self.square_entries()
        return (rows == cols).astype(float)

    def min_eig(self, v):
        """Smallest cone eigenvalue v0 - ||v1|| over all blocks (inf if none)."""
        vals = []
        for idx in self.groups:
            v0, v1 = _split(v[idx])
            vals.append(np.min(v0 - np.sqrt(_dot(v1, v1))))
        return min(vals, default=np.inf)

    def product(self, u, v):
        """Jordan product u o v blockwise."""
        out = np.zeros(self.dim)
        for idx in self.groups:
            (u0, u1), (v0, v1) = _split(u[idx]), _split(v[idx])
            out[idx[:, 0]] = u0 * v0 + _dot(u1, v1)
            out[idx[:, 1:]] = u0[:, None] * v1 + v0[:, None] * u1
        return out

    def divide(self, lam, d):
        """Solve lam o w = d for w."""
        out = np.zeros(self.dim)
        for idx in self.groups:
            (l0, l1), (d0, d1) = _split(lam[idx]), _split(d[idx])
            w0 = (d0 - _dot(l1, d1) / l0) / (l0 - _dot(l1, l1) / l0)
            out[idx[:, 0]] = w0
            out[idx[:, 1:]] = (d1 - w0[:, None] * l1) / l0[:, None]
        return out

    def interior(self, s, z):
        """s and z one at a time, or None unless both are strictly inside:
        the smallest cone eigenvalue of each is positive."""
        if not (self.min_eig(s) > 0.0 and self.min_eig(z) > 0.0):
            return None
        return ReferenceInterior(self, s, z)


class ReferenceInterior:
    """conic._Interior in its d-general form, with s and z gathered apart:
    per group, each block's J-norm ||v||_J and normalized point v / ||v||_J
    of s and of z."""

    def __init__(self, blocks: ReferenceBlocks, s, z):
        self.blocks = blocks
        self.groups = []  # ((norms, points) of s, (norms, points) of z) per group
        for idx in blocks.groups:
            pair = []
            for v in (s, z):
                norms = _jnorm(v[idx])
                pair.append((norms, v[idx] / norms[:, None]))
            self.groups.append(tuple(pair))

    def max_step(self, ds, dz):
        """Largest alpha with s + alpha*ds and z + alpha*dz in the cone.

        In the frame where v / ||v||_J is the identity, dv / ||v||_J maps to
        rho, and the step is 1 / max(0, -(rho0 - ||rho1||)).  rho is kept
        scaled by ||v||_J, which makes d = 1 exactly -v/dv.
        """
        alpha = np.inf
        for idx, pair in zip(self.blocks.groups, self.groups):
            for (vn, points), dv in zip(pair, (ds, dz)):
                (b0, b1), (d0, d1) = _split(points), _split(dv[idx])
                r0 = b0 * d0 - _dot(b1, d1)
                r1 = d1 - ((r0 + d0) / (b0 + 1.0))[:, None] * b1
                shrink = np.sqrt(_dot(r1, r1)) - r0
                hit = shrink > 0
                if np.any(hit):
                    alpha = min(alpha, float(np.min(vn[hit] / shrink[hit])))
        return alpha


class ReferenceScaling:
    """conic._Scaling in its d-general form: Nesterov-Todd scaling W with
    lam = W z = W^{-1} s, per block group.

    For a block the det-normalized scaling point is v = (sbar + J zbar) /
    (2 gamma), which satisfies (2vv^T - J) zbar = sbar, i.e. W^2 = eta^2
    (2vv^T - J).  W itself acts through the Jordan square root u = (v + e) /
    sqrt(2(v0 + 1)): W = eta (2uu^T - J).  On d = 1, v = u = 1, W = sqrt(s/z)
    and lam = sqrt(sz).
    """

    def __init__(self, point: ReferenceInterior):
        blocks = self.blocks = point.blocks
        self.lam = np.zeros(blocks.dim)
        self.groups = []  # (eta, v, u) per group: (k,), (k, d), (k, d)
        for idx, ((a, sbar), (bb, zbar)) in zip(blocks.groups, point.groups):
            gamma = np.sqrt(0.5 * (1.0 + _dot(sbar, zbar)))
            v = (sbar + _jdiag(idx.shape[1]) * zbar) / (2.0 * gamma)[:, None]
            u = v.copy()
            u[:, 0] += 1.0
            u /= np.sqrt(2.0 * (v[:, 0] + 1.0))[:, None]
            self.groups.append((np.sqrt(a / bb), v, u))
            scale = np.sqrt(a * bb)
            (s0, s1), (z0, z1) = _split(sbar), _split(zbar)
            denom = s0 + z0 + 2.0 * gamma
            lam1 = ((gamma + z0)[:, None] * s1 + (gamma + s0)[:, None] * z1) / denom[:, None]
            self.lam[idx[:, 0]] = gamma * scale
            self.lam[idx[:, 1:]] = scale[:, None] * lam1

    def apply(self, x):
        """W x"""
        out = np.zeros(self.blocks.dim)
        for idx, (eta, _, u) in zip(self.blocks.groups, self.groups):
            out[idx] = eta[:, None] * _reflect(u, x[idx])
        return out

    def apply_inv(self, x):
        """W^{-1} x = (2 Ju (Ju)^T - J) x / eta"""
        out = np.zeros(self.blocks.dim)
        for idx, (eta, _, u) in zip(self.blocks.groups, self.groups):
            out[idx] = _reflect(_jdiag(idx.shape[1]) * u, x[idx]) / eta[:, None]
        return out

    def w_squared(self):
        """W^2 values, one dense (d, d) block per cone, in _KKT's slot order."""
        vals = [np.zeros(0)]  # keeps a program without cone blocks well formed
        for idx, (eta, v, _) in zip(self.blocks.groups, self.groups):
            J = np.diag(_jdiag(idx.shape[1]))
            M = (eta * eta)[:, None, None] * (2.0 * v[:, :, None] * v[:, None, :] - J)
            vals.append(M.ravel())
        return np.concatenate(vals)


def symmetric_order_reference(rows, cols, dim):
    """conic._symmetric_order as it read perm_c from a full factor of the
    stand-in, in the same one-column panels."""
    stand_in = sp.csc_matrix(
        (np.where(rows == cols, float(dim), 1.0), (rows, cols)), shape=(dim, dim)
    )
    lu = spla.splu(
        stand_in, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        panel_size=conic._PANEL_SIZE, options=dict(SymmetricMode=True),
    )
    return lu.perm_c


# ---------------------------------------------------------------------------
# random cone programs


def interior_point(rng, cones):
    """A strictly interior point, tails scaled over a few decades; arbitrary
    values on the zero-cone rows."""
    v = np.empty(sum(k.dim for k in cones))
    pos = 0
    for k in cones:
        if k.kind == "zero":
            v[pos : pos + k.dim] = rng.standard_normal(k.dim)
        elif k.kind == "nonneg":
            v[pos : pos + k.dim] = rng.uniform(0.05, 3.0, k.dim)
        else:
            tail = rng.standard_normal(k.dim - 1) * 10.0 ** rng.uniform(-2, 1)
            v[pos] = np.linalg.norm(tail) + rng.uniform(0.05, 3.0)
            v[pos + 1 : pos + k.dim] = tail
        pos += k.dim
    return v


def sparse_feasible_program(rng, dependent) -> conic.ConicProgram:
    """A sparse program, feasible and bounded by construction.

    With dependent set, equality row 1 (and its dual value) repeats row 0,
    and the last column is empty: the KKT matrix stays quasi-definite only
    through its regularization.
    """
    n = int(rng.integers(5, 60))
    p_eq = int(rng.integers(2, max(2, n // 3) + 1) if dependent else rng.integers(0, n // 3 + 1))
    cones = [conic.Cone("zero", p_eq)] if p_eq else []
    for _ in range(int(rng.integers(1, n // 2 + 1))):
        cones.append(conic.Cone(str(rng.choice(["nonneg", "soc"])), int(rng.integers(1, 6))))
    m = sum(k.dim for k in cones)
    A = rng.standard_normal((m, n)) * (rng.uniform(size=(m, n)) < 0.3)
    s, z = np.zeros(m), rng.standard_normal(m)
    s[p_eq:] = interior_point(rng, cones[1:] if p_eq else cones)
    z[p_eq:] = interior_point(rng, cones[1:] if p_eq else cones)
    if dependent:
        A[1], z[1] = A[0], z[0]
        A[:, -1] = 0.0
    b = A @ rng.standard_normal(n) + s
    c = -(A.T @ z)
    return conic.ConicProgram(c, sp.csc_matrix(A), b, tuple(cones))


def loosened(rng, program) -> conic.ConicProgram:
    """program with b moved up by up to 0.5 on every nonnegative row: still
    feasible and bounded, with the same structure."""
    b = program.b.copy()
    pos = 0
    for k in program.cones:
        if k.kind == "nonneg":
            b[pos : pos + k.dim] += rng.uniform(0.0, 0.5, k.dim)
        pos += k.dim
    return conic.ConicProgram(program.c, program.A, b, program.cones)
