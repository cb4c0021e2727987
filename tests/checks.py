"""Sampled and empirical checks of the library's guarantees.

None of these is on the solve path: they sample the base set, check
midpoint convexity, probe how the supporting halfspaces move with the
anchor, read back a solver's own objective value, and recompute a cone
solution's residuals from the raw program, so that tests can confirm the
claims the solve path relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    QuadFn,
)
from scvx.subproblem import SubproblemArtifacts


class ConvexityError(ScvxError):
    """A sampled midpoint check found a constraint that is not convex."""


def value_batch(spec: ConstraintSpec, Y) -> np.ndarray:
    """spec's constraint value at each row of Y, a (batch, n_y) array."""
    fn, W = spec.fn, Y[:, spec.indices]
    if isinstance(fn, AffineFn):
        return W @ fn.a + fn.beta
    if isinstance(fn, QuadFn):
        LW = W @ fn.L.T
        return 0.5 * np.einsum("ij,ij->i", LW, LW) + W @ fn.a + fn.beta
    if isinstance(fn, NormFn):
        R = W @ fn.H.T - fn.p
        return np.linalg.norm(R, axis=1) + W @ fn.a + fn.beta
    raise TypeError(f"no batch evaluator for {type(fn).__name__}")


def sample_base_set(base: BaseSet, rng, count: int, halfspaces=()) -> np.ndarray:
    """Draw `count` points of Y (optionally filtered by extra halfspaces).

    halfspaces is a sequence of (indices, normal, offset) rows meaning
    normal . y[indices] >= offset.  Sampling is blockwise rejection: members
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
    for indices, normal, offset in halfspaces:
        normal = np.asarray(normal, dtype=float)
        add_predicate(
            indices,
            lambda W, a=normal, off=float(offset): W @ a >= off,
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


def jacobian_q(problem: OptimalControlProblem, y) -> np.ndarray:
    """Dense M x N_y Jacobian of q; row j is the gradient of q_j."""
    y = np.asarray(y, dtype=float)
    dims = problem.dims
    J = np.zeros((dims.n_constraints, dims.n_y))
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
    triples = [
        (np.nonzero(hs.normal)[0], hs.normal[np.nonzero(hs.normal)[0]], hs.offset)
        for hs in region.halfspaces
    ]
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
    return float(artifacts.program.c @ solution.x) + artifacts.constant_offset


def residuals(program: conic.ConicProgram, solution: conic.ConicSolution):
    """Normalized (primal, dual, gap) residuals recomputed from raw data."""
    x, s, z = solution.x, solution.s, solution.z_dual
    c, A, b = program.c, program.A, program.b
    pres = np.linalg.norm(A @ x + s - b) / (1.0 + np.linalg.norm(b))
    dres = np.linalg.norm(A.T @ z + c) / (1.0 + np.linalg.norm(c))
    pobj = float(c @ x)
    gap = abs(pobj + float(b @ z)) / (1.0 + abs(pobj))
    return float(pres), float(dres), float(gap)
