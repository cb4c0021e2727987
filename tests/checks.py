"""Sampled and empirical checks of the library's guarantees.

None of these is on the solve path: they sample the base set, check
midpoint convexity, probe how the supporting halfspaces move with the
anchor, read back a solver's own objective value, and recompute a cone
solution's residuals from the raw program, so that tests can confirm the
claims the solve path relies on.  Four references keep earlier forms of
the solve path: a subproblem program built in one ProgramBuilder pass, the
dense Cholesky polish, the d-general cone algebra, and a projection through
a cone solve, against which the closed-form projections are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from scvx import conic
from scvx.errors import ScvxError
from scvx.linearize import FeasibleRegion, build_feasible_region
from scvx.problem import (
    AffineFn,
    Ball,
    BaseSet,
    Cone,
    ConstraintSpec,
    NormFn,
    OptimalControlProblem,
    Pin,
    ProblemDims,
    eval_g,
    eval_h,
)
from scvx.projection import ProjectionResult
from scvx.subproblem import (
    SubproblemArtifacts,
    add_base_set_rows,
    add_epigraph,
    add_equality_dynamics_rows,
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


def project_generic(constraint: ConstraintSpec, z) -> ProjectionResult:
    """Projection of z onto {q_j <= 0} through a small cone program.

    minimize t subject to t >= ||w - z[idx]|| and q_j(w) <= 0 over the
    touched coordinates w: one nonnegative row -a.w >= beta for an affine
    q_j, one second-order cone (-a.w - beta, H w - p) for a norm.
    """
    z = np.asarray(z, dtype=float)
    if constraint.value(z) <= 0.0:
        return ProjectionResult(point=z.copy(), method="conic")
    idx, fn = constraint.indices, constraint.fn
    k = idx.size
    builder = conic.ProgramBuilder()
    w_cols = builder.add_cols(k) + np.arange(k)
    t = builder.add_cols(1)
    builder.add_cost(t, 1.0)
    add_epigraph(builder, NormFn(np.eye(k), z[idx], np.zeros(k), 0.0), t, w_cols)
    head = conic.coord_pairs(w_cols, -fn.a)
    if isinstance(fn, AffineFn):
        builder.add_ge(head, fn.beta)
    else:
        tail = [(conic.coord_pairs(w_cols, h), -p) for h, p in zip(fn.H, fn.p)]
        builder.add_soc([(head, -fn.beta)] + tail)
    sol = conic.solve(builder.build())
    if sol.status != "optimal":
        raise ScvxError(
            f"conic projection failed with {sol.outcome()} for constraint "
            f"({constraint.kind}, step {constraint.step}, component {constraint.component})"
        )
    point = z.copy()
    point[idx] = sol.x[:k]
    return ProjectionResult(point=point, method="conic")


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


def n_constraints(dims: ProblemDims) -> int:
    """Total constraint count M = sT + n(T-1)."""
    return dims.s * dims.T + dims.n * (dims.T - 1)


def eval_q(problem: OptimalControlProblem, y) -> np.ndarray:
    """Combined constraint vector q(y) = (g(y), h(y)), length M."""
    return np.concatenate([eval_g(problem, y), eval_h(problem, y)])


def jacobian_q(problem: OptimalControlProblem, y) -> np.ndarray:
    """Dense M x N_y Jacobian of q; row j is the gradient of q_j."""
    y = np.asarray(y, dtype=float)
    dims = problem.dims
    J = np.zeros((n_constraints(dims), dims.n_y))
    for r, spec in enumerate(problem.constraints):
        J[r, spec.indices] = spec.grad_local(y)
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
    for spec in problem.constraints:
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
    evaluates the linearized constraint rows at each: every sample must
    satisfy q_j >= -1e-8.  Rows handled as hard equalities are not part of
    the halfspace description and are excluded (their feasibility is
    enforced exactly by the subproblem, not by this containment argument).
    Failures are reported, not raised.
    """
    anchor_slack = (
        min(hs.slack(region.anchor) for hs in region.halfspaces)
        if region.halfspaces
        else 0.0
    )
    rng = np.random.default_rng(seed)
    triples = [(hs.indices, hs.coeffs, hs.offset) for hs in region.halfspaces]
    Y = sample_base_set(region.base, rng, n_samples, halfspaces=triples)
    worst = np.inf
    violations = 0
    checked = 0
    for hs in region.halfspaces:
        spec = problem.constraints[hs.constraint_index]
        vals = value_batch(spec, Y)
        worst = min(worst, float(np.min(vals))) if vals.size else worst
        violations += int(np.sum(vals < -1e-8))
        checked += 1
    if not region.halfspaces:
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
    l1 = np.array([hs.slack(y) for hs in r1.halfspaces])
    l2 = np.array([hs.slack(y) for hs in r2.halfspaces])
    return float(np.linalg.norm(l1 - l2) / dz)


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


def builder_program(problem: OptimalControlProblem, penalty_config, halfspaces) -> conic.ConicProgram:
    """min P over the base set and the halfspaces, built in one ProgramBuilder pass."""
    builder = conic.ProgramBuilder()
    builder.add_cols(problem.dims.n_y)
    terms = list(problem.objective.terms(problem.dims))
    if penalty_config.lam > 0.0:
        terms += [
            (penalty_config.lam, spec.indices, spec.fn)
            for spec in problem.constraints
            if spec.kind == "dynamics-defect"
        ]
    for weight, indices, fn in terms:
        t = builder.add_cols(1)
        builder.add_cost(t, weight)
        add_epigraph(builder, fn, t, indices)
    if penalty_config.mode == "equality":
        add_equality_dynamics_rows(builder, problem)
    add_base_set_rows(builder, problem.base_set)
    for hs in halfspaces:
        builder.add_ge(conic.coord_pairs(hs.indices, hs.coeffs), hs.offset)
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
# formulas, on empty (k, 0) tails for d = 1.  conic._Blocks and
# conic._Scaling must give the same bits.


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

    def max_step(self, v, dv):
        """Largest alpha with v + alpha*dv in the cone (v strictly inside).

        In the frame where v / ||v||_J is the identity, dv / ||v||_J maps to
        rho, and the step is 1 / max(0, -(rho0 - ||rho1||)).  rho is kept
        scaled by ||v||_J, which makes d = 1 exactly -v/dv.
        """
        alpha = np.inf
        for idx in self.groups:
            V, D = v[idx], dv[idx]
            vn = _jnorm(V)
            (b0, b1), (d0, d1) = _split(V / vn[:, None]), _split(D)
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

    def __init__(self, blocks: ReferenceBlocks, s, z):
        self.blocks = blocks
        self.lam = np.zeros(blocks.dim)
        self.groups = []  # (eta, v, u) per group: (k,), (k, d), (k, d)
        for idx in blocks.groups:
            S, Z = s[idx], z[idx]
            a, bb = _jnorm(S), _jnorm(Z)
            sbar = S / a[:, None]
            zbar = Z / bb[:, None]
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
