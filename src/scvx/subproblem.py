"""Transcription of the convex subproblem min P(y) over F_z to a cone program.

Column layout: the decision vector y first, then one epigraph auxiliary
per cost term (the objective's, then, when lambda > 0, one per dynamics
defect).  Rows land in the order assemble adds them: each cost term's
epigraph (a nonnegative row or a second-order cone), one row per dynamics
defect (g_j = 0 in equality mode, g_j >= 0 in penalty mode), one
nonnegative row per affine state-constraint row, group by group, the base
set group by group (BaseSet.groups: its members stacked by type and
width, in order of first appearance; member order within a group), then
one nonnegative row per keep-out halfspace.  The row helpers return the indices extract needs, so nothing
is looked up after the build.

Only the halfspace rows depend on the region.  fixed_rows builds the rest,
every affine row included, once per run, as the artifacts of the empty
region: the relaxation floor's program with the polish onto its pins and
hard dynamics.  add_halfspace_rows appends a region's halfspaces through
ProgramBuilder, so the program is the one a single build would give, and
assemble is that call on the run's fixed rows; a feasibility-init round
appends its rows to the driver's slack program the same way.  Every row
emitter hands the builder array blocks: the objective cones and penalty
epigraphs from the control index array and the dynamics group, the affine
rows group by group, the base set one block per BaseSet group.  Assembly
is deterministic: identical inputs produce identical programs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
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
    built, and every call factors E E^T with SuperLU (0.13-0.35 ms a call
    at N = 25 and 50): a factor held through a run's cone solves raised
    the built-in run's peak memory by 0.11-0.16 MiB.  Linearly dependent
    rows make E E^T exactly singular; their correction is the
    least-squares solution instead.
    """

    def __init__(self, program: conic.ConicProgram, rows, n_y: int):
        self.rows = np.asarray(rows, dtype=int)
        self.E = program.A[self.rows, :n_y]
        self.EEt = (self.E @ self.E.T).tocsc()
        self.d = program.b[self.rows]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        if self.rows.size == 0:
            return y
        r = self.d - self.E @ y
        try:
            lu = spla.splu(self.EEt)
        except RuntimeError:  # exactly singular
            E = self.E.toarray()
            return y + E.T @ np.linalg.lstsq(E @ E.T, r, rcond=None)[0]
        return y + self.E.T @ lu.solve(r)


@dataclass(frozen=True, eq=False)
class SubproblemArtifacts:
    """A region's cone program with what extract reads back from its solve."""

    program: conic.ConicProgram
    polish: Polish  # onto the program's equality rows
    dynamics_rows: np.ndarray  # rows whose duals give the dynamics multipliers
    problem: OptimalControlProblem
    penalty: PenaltyConfig


def fixed_rows(
    problem: OptimalControlProblem, penalty_config: PenaltyConfig
) -> SubproblemArtifacts:
    """min P over the empty region: columns, costs and every fixed row.

    P minus its constant is a sum of weighted terms, each a cost column t
    with its epigraph rows: weight * ||u_i|| for every control (the cone
    t >= ||u_i||), then, when lambda > 0, lambda * g_j for every dynamics
    defect (the row t >= g_j; the fixed row g_j >= 0 makes g_j equal
    |g_j|).  Every affine row is a fixed row: each dynamics defect (g_j = 0
    at lambda = 0, g_j >= 0 at lambda > 0) and each affine state
    constraint q_j >= 0, group by group.  The polish projects onto the pins
    and, in equality mode only, then the dynamics rows.  This is the
    relaxation floor's program, and every region's is it plus the region's
    halfspaces (add_halfspace_rows).
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
    dynamics = problem.affine_rows[0]
    if penalty_config.lam > 0.0:
        k, d = dynamics.indices.shape
        t = builder.add_cols(k) + np.arange(k)
        builder.add_cost(t, np.full(k, penalty_config.lam))
        # t_j - a_j . y >= beta_j
        cols = np.column_stack([t, dynamics.indices]).ravel()
        coeffs = np.column_stack([np.ones(k), -dynamics.a]).ravel()
        builder.add_ge(np.repeat(np.arange(k), d + 1), cols, coeffs, dynamics.beta)

    mode = penalty_config.mode
    rows = add_dynamics_rows(builder, problem, mode)
    for group in problem.affine_rows[1:]:  # the affine state constraints
        builder.add_ge(*_affine_block(group))
    pins = add_base_set_rows(builder, problem.base_set)
    program = builder.build()
    hard = rows if mode == "equality" else np.zeros(0, dtype=int)
    polish = Polish(program, np.concatenate([pins, hard]), dims.n_y)
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
    succession's and each feasibility-init round's.  The objective is
    recomputed from the raw decision vector rather than trusting the
    solver's epigraph auxiliaries.  Raises SubsolverError unless the solve
    is optimal.
    """
    if solution.status != "optimal":
        raise SubsolverError(f"subproblem solve returned {solution.outcome()}")
    n_y = artifacts.problem.dims.n_y
    # one least-squares correction onto the equality rows removes the
    # interior-point method's drift without moving anything else by more
    y = artifacts.polish(solution.x[:n_y].copy())
    multipliers = solution.z_dual[artifacts.dynamics_rows]
    if artifacts.penalty.mode == "penalty":
        # stationarity in each epigraph auxiliary pins the dual of t_j >= g_j
        # at lambda, so the multiplier of g_j is lambda minus the dual of its
        # row g_j >= 0
        multipliers = artifacts.penalty.lam - multipliers
    value = penalty_value(artifacts.problem, artifacts.penalty, y)
    return y, multipliers, value
