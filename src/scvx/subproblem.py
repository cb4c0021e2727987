"""Transcription of the convex subproblem min P(y) over F_z to a cone program.

Column layout: the decision vector y first, then one epigraph auxiliary
per control norm.  The penalty term lambda * g_j of each dynamics defect
(lambda > 0) is a cost on y, as the fixed row g_j >= 0 makes it linear.
Rows land in the order assemble adds them: each control norm's
second-order cone, one row per dynamics defect (g_j = 0 in equality mode,
g_j >= 0 in penalty mode), one nonnegative row per affine state-constraint
row, group by group, the base set group by group (BaseSet.groups: its
members stacked by type and width, in order of first appearance; member
order within a group), then one nonnegative row per keep-out halfspace.
The row helpers return the indices extract needs, so nothing is looked up
after the build.

Only the halfspace rows depend on the region.  fixed_rows builds the rest,
every affine row included, once per run, as the artifacts of the empty
region: the relaxation floor's program with the polish onto its pins and
dynamics rows.  add_halfspace_rows appends a region's halfspaces through
ProgramBuilder, so the program is the one a single build would give, and
assemble is that call on the run's fixed rows; a feasibility-init round
appends its rows to the driver's slack program the same way.  Every row
emitter hands the builder array blocks: the objective cones from the
control index array, the penalty cost from the dynamics group, the affine
rows group by group, the base set one block per BaseSet group.  Assembly
is deterministic: identical inputs produce identical programs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import conic
from .conic import ProgramBuilder
from .errors import SubsolverError
from .linearize import FeasibleRegion
from .penalty import PenaltyConfig, penalty_value
from .problem import Ball, Box, OptimalControlProblem, Pin


def _affine_block(group):
    """(rows, cols, coeffs, rhs) of the rows a_k . y[indices_k] >= -beta_k of an AffineGroup."""
    k, d = group.indices.shape
    return np.repeat(np.arange(k), d), group.indices.ravel(), group.a.ravel(), -group.beta


def add_base_set_rows(builder: ProgramBuilder, base) -> np.ndarray:
    """The base set's cone rows, one block per BaseSet group; returns the pin rows.

    Shared with the initializer.  A group's rows follow its members' order:
    a pin is one equality row per coordinate, a box one row per finite
    bound (lower, then upper, per coordinate), a ball the cone (r, w - c)
    and a thrust cone the cone (axis.w / cos_angle, w), w = y[indices].
    """
    pins = [np.zeros(0, dtype=int)]
    for kind, _, idx, params in base.groups:
        n, k = idx.shape
        cols, coeffs = idx.ravel(), np.ones(idx.size)
        if kind is Pin:
            rows = np.arange(idx.size)
            pins.append(builder.add_eq(rows, cols, coeffs, params[0].ravel()) + rows)
        elif kind is Box:
            lower, upper = params
            # x_i >= lower_i and -x_i >= -upper_i
            rhs = np.stack([lower, -upper], axis=2).ravel()
            live = np.isfinite(rhs)
            coeffs = np.tile([1.0, -1.0], idx.size)
            builder.add_ge(np.arange(live.sum()), np.repeat(cols, 2)[live], coeffs[live], rhs[live])
        else:
            # member j's cone is rows j(k+1) .. j(k+1)+k, head first
            heads = np.arange(n) * (k + 1)
            tails = (heads[:, None] + 1 + np.arange(k)).ravel()
            if kind is Ball:
                center, radius = params
                rows, rhs = tails, np.column_stack([-radius, center])
            else:  # a thrust cone
                axis, cos_angle = params
                rows = np.concatenate([np.repeat(heads, k), tails])
                cols = np.concatenate([cols, cols])
                coeffs = np.concatenate([(axis / cos_angle[:, None]).ravel(), coeffs])
                # rhs -0.0 stores b = +0.0, the cone's zero offset
                rhs = np.full((n, k + 1), -0.0)
            builder.add_soc(rows, cols, coeffs, rhs.ravel(), k + 1)
    return np.concatenate(pins)


def add_dynamics_rows(builder: ProgramBuilder, problem, mode: str) -> np.ndarray:
    """One row per dynamics defect, in order; returns the rows.

    equality mode: the zero-cone row g_{i,j}(y) = 0; penalty mode: the
    nonnegative row g_{i,j}(y) >= 0.  Both carry the defect's exact beta.
    """
    add = builder.add_eq if mode == "equality" else builder.add_ge
    dynamics = problem.affine_rows[0]
    return add(*_affine_block(dynamics)) + np.arange(len(dynamics))


class Polish:
    """Minimum-norm correction of y onto equality rows of A x = b.

    With E the rows' entries over y, the correction is E^T (E E^T)^-1 r,
    r = b - E y.  E and E E^T are formed sparse once, when the polish is
    built, over every row it may use, and so is E^T (building it costs more
    than a product with it).  A call that skips some rows slices nothing:
    it zeroes their rows and columns of E E^T's data, puts 1 on their
    diagonal and 0 in their r, so the skipped rows decouple with a zero
    multiplier, and the rest solve the kept rows' own system.  Slicing E
    and E E^T to the kept rows took twice as long (36 rows, 8 skipped:
    250-340 against 120-130 us a call).  Every call factors its E E^T with
    SuperLU (0.13-0.35 ms a call at N = 25 and 50): a factor held through
    a run's cone solves raised the built-in run's peak memory by 0.11-0.16
    MiB.  Linearly dependent rows make E E^T exactly singular; their
    correction is the least-squares solution instead.
    """

    def __init__(self, program: conic.ConicProgram, rows, n_y: int):
        self.rows = np.asarray(rows, dtype=int)
        self.E = program.A[self.rows, :n_y]
        self.Et = self.E.T
        self.EEt = (self.E @ self.Et).tocsc()
        self.d = program.b[self.rows]
        # the column of each stored entry of E E^T; EEt.indices holds its row
        self._entry_cols = np.repeat(np.arange(self.rows.size), np.diff(self.EEt.indptr))

    def __call__(self, y: np.ndarray, skip=()) -> np.ndarray:
        """y corrected onto every row of the polish but the program rows in skip."""
        keep = ~np.isin(self.rows, skip) if len(skip) else np.ones(self.rows.size, dtype=bool)
        if not keep.any():
            return y
        EEt, r = self.EEt, self.d - self.E @ y
        if not keep.all():
            rows, cols = EEt.indices, self._entry_cols
            data = np.where(keep[rows] & keep[cols], EEt.data, 0.0)
            data[(rows == cols) & ~keep[cols]] = 1.0
            # eliminate_zeros rewrites its index arrays in place: never EEt's
            EEt = sp.csc_matrix((data, rows.copy(), EEt.indptr.copy()), shape=EEt.shape)
            EEt.eliminate_zeros()
            r[~keep] = 0.0
        try:
            lu = spla.splu(EEt)
        except RuntimeError:  # exactly singular
            E, r = self.E.toarray()[keep], r[keep]
            return y + E.T @ np.linalg.lstsq(E @ E.T, r, rcond=None)[0]
        return y + self.Et @ lu.solve(r)


@dataclass(frozen=True, eq=False)
class SubproblemArtifacts:
    """A region's cone program with what extract reads back from its solve."""

    program: conic.ConicProgram
    polish: Polish  # onto the pins and the dynamics rows extract holds as equalities
    dynamics_rows: np.ndarray  # rows whose duals give the dynamics multipliers
    problem: OptimalControlProblem
    penalty: PenaltyConfig


def fixed_rows(
    problem: OptimalControlProblem, penalty_config: PenaltyConfig
) -> SubproblemArtifacts:
    """min P over the empty region: columns, costs and every fixed row.

    P minus its constant is weight * ||u_i|| for every control, a cost
    column t with the cone t >= ||u_i||, plus, when lambda > 0, lambda * g_j
    for every dynamics defect.  The fixed row g_j >= 0 makes |g_j| equal
    g_j = a_j . y + beta_j, which is linear: lambda * a_j goes on the cost
    of y, and lambda * beta_j joins the constant, which no reported value
    reads (extract recomputes P from y).  Every affine row is a fixed row:
    each dynamics defect (g_j = 0 at lambda = 0, g_j >= 0 at lambda > 0)
    and each affine state constraint q_j >= 0, group by group.  The polish
    is over the pins, then the dynamics rows; extract uses all of them in
    equality mode and, in penalty mode, the pins and the defect rows the
    solve left active.  This is the relaxation floor's program, and every
    region's is it plus the region's halfspaces (add_halfspace_rows).
    """
    dims = problem.dims
    builder = ProgramBuilder()
    builder.add_cols(dims.n_y)  # y is columns 0..n_y-1

    controls = np.arange(dims.n * dims.T, dims.n_y).reshape(dims.T - 1, dims.m)
    t = builder.add_cols(dims.T - 1) + np.arange(dims.T - 1)
    builder.add_cost(t, np.full(t.size, problem.objective.weight))
    cols = np.column_stack([t, controls]).ravel()  # cone i is (t_i, u_i)
    ones = np.ones(cols.size)
    builder.add_soc(np.arange(cols.size), cols, ones, np.zeros(cols.size), dims.m + 1)
    if penalty_config.lam > 0.0:
        dynamics = problem.affine_rows[0]
        builder.add_cost(dynamics.indices.ravel(), penalty_config.lam * dynamics.a.ravel())

    rows = add_dynamics_rows(builder, problem, penalty_config.mode)
    for group in problem.affine_rows[1:]:  # the affine state constraints
        builder.add_ge(*_affine_block(group))
    pins = add_base_set_rows(builder, problem.base_set)
    program = builder.build()
    polish = Polish(program, np.concatenate([pins, rows]), dims.n_y)
    return SubproblemArtifacts(program, polish, rows, problem, penalty_config)


def add_halfspace_rows(artifacts: SubproblemArtifacts, halfspaces) -> SubproblemArtifacts:
    """artifacts with one nonnegative row coeffs . y[indices] >= offset per
    halfspace appended to its program; the polish and dynamics rows stay."""
    builder = ProgramBuilder(artifacts.program)
    builder.add_ge(halfspaces.rows, halfspaces.indices, halfspaces.coeffs, halfspaces.offsets)
    return replace(artifacts, program=builder.build())


def assemble(
    problem: OptimalControlProblem,
    penalty_config: PenaltyConfig,
    region: FeasibleRegion,
    fixed: SubproblemArtifacts | None = None,
) -> SubproblemArtifacts:
    """Build the cone program encoding min P(y) over the given region.

    fixed is fixed_rows(problem, penalty_config), which a run builds once
    and passes to every assembly; without it the rows are built here.
    """
    if fixed is None:
        fixed = fixed_rows(problem, penalty_config)
    return add_halfspace_rows(fixed, region.halfspaces)


def extract(artifacts: SubproblemArtifacts, solution: conic.ConicSolution):
    """Pull (z_next, dynamics multipliers, true objective value) out of a solve.

    Every cone solve of a run is read back here: the floor's, each
    succession's and each feasibility-init round's.  One least-squares
    correction (the polish) removes the interior-point method's drift from
    the rows that hold with equality, without moving anything else by
    more: the pins and, in equality mode, every dynamics row.  In penalty
    mode it takes the rows g_j >= 0 the solve left active, those whose
    slack is below their dual, so that an accepted iterate meets them to
    rounding, not only to the solver's tolerance.  The objective is
    recomputed from the polished decision vector rather than read from the
    solver's cost.  Raises SubsolverError unless the solve is optimal.
    """
    if solution.status != "optimal":
        raise SubsolverError(f"subproblem solve returned {solution.outcome()}")
    n_y = artifacts.problem.dims.n_y
    rows = artifacts.dynamics_rows
    multipliers = solution.z_dual[rows]
    skip = ()
    if artifacts.penalty.mode == "penalty":
        skip = rows[solution.s[rows] >= multipliers]
        # stationarity in y weighs each a_j by lambda, from the cost, minus
        # the dual of the row g_j >= 0: that difference is g_j's multiplier
        multipliers = artifacts.penalty.lam - multipliers
    y = artifacts.polish(solution.x[:n_y].copy(), skip)
    value = penalty_value(artifacts.problem, artifacts.penalty, y)
    return y, multipliers, value
