"""Transcription of the convex subproblem min P(y) over F_z to a cone program.

Column layout: the decision vector y first, then one epigraph auxiliary
per cost term (the objective's, then, when lambda > 0, one per dynamics
defect).  Rows land in the order assemble adds them: each cost term's
epigraph (a nonnegative row or a second-order cone), one row per dynamics
defect (g_j = 0 in equality mode, g_j >= 0 in penalty mode), one
nonnegative row per affine state-constraint row, group by group, the base
set in member order (pins, box bounds, balls, thrust cones), then one
nonnegative row per keep-out halfspace.  The row helpers return the indices extract needs, so
nothing is looked up after the build.

Only the halfspace rows depend on the region.  fixed_rows builds the rest,
every affine row included, once per run, as the artifacts of the empty
region: the relaxation floor's program with the polish onto its pins and
hard dynamics.  add_halfspace_rows appends a region's halfspaces through
ProgramBuilder, so the program is the one a single build would give, and
assemble is that call on the run's fixed rows; a feasibility-init round
appends its rows to the driver's slack program the same way.  Every row
emitter hands the builder array blocks: the objective cones and penalty
epigraphs from the control index array and the dynamics group, the affine
rows group by group, the base set one block per run of members with the
same cone.  Assembly is deterministic: identical inputs produce identical
programs.
"""

from __future__ import annotations

import itertools
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


def _member_rows(kind, idx, params):
    """A BaseSet group's cone rows: (cone, dim, rows, cols, coeffs, rhs, live).

    cone is the rows' cone kind and dim its dimension.  Member j's entry e puts coeffs[j, e] on column cols[j, e] of its own
    row rows[j, e], and rhs[j] has one value per row; live marks the rows
    the member has.  A pin is one equality row per coordinate, a box one
    row per finite bound (lower, then upper, per coordinate), a ball the
    cone (r, w - c) and a thrust cone the cone (axis.w / cos_angle, w).
    """
    n, k = idx.shape
    ones = np.ones((n, k))
    own = np.broadcast_to(np.arange(k), (n, k))
    if kind is Pin:
        (values,) = params
        return "zero", 1, own, idx, ones, values, np.ones((n, k), dtype=bool)
    if kind is Box:
        lower, upper = params
        # x_i >= lower_i and -x_i >= -upper_i
        rhs = np.stack([lower, -upper], axis=2).reshape(n, 2 * k)
        rows = np.broadcast_to(np.arange(2 * k), (n, 2 * k))
        coeffs = np.tile([1.0, -1.0], (n, k))
        return "nonneg", 1, rows, np.repeat(idx, 2, axis=1), coeffs, rhs, np.isfinite(rhs)
    live = np.ones((n, k + 1), dtype=bool)
    if kind is Ball:
        center, radius = params
        return "soc", k + 1, 1 + own, idx, ones, np.column_stack([-radius, center]), live
    axis, cos_angle = params  # a thrust cone
    rows = np.concatenate([np.zeros((n, k), dtype=int), 1 + own], axis=1)
    coeffs = np.concatenate([axis / cos_angle[:, None], ones], axis=1)
    cols = np.concatenate([idx, idx], axis=1)
    # rhs -0.0 stores b = +0.0, the cone's zero offset
    return "soc", k + 1, rows, cols, coeffs, np.full((n, k + 1), -0.0), live


def add_base_set_rows(builder: ProgramBuilder, base) -> np.ndarray:
    """The base set's cone rows in member order; returns the pin rows.

    Shared with the initializer.  The rows are built a BaseSet group at a
    time (_member_rows) and handed to the builder as one block per run of
    consecutive members with the same cone, so the program is the one a
    block per member would give.
    """
    blocks = [_member_rows(kind, indices, params) for kind, _, indices, params in base.groups]
    positions = [group[1] for group in base.groups]
    counts = np.zeros(len(base.members), dtype=int)
    cone = [None] * len(base.members)  # each member's (cone kind, dim)
    for members, (kind, dim, *_, live) in zip(positions, blocks):
        counts[members] = live.sum(axis=1)
        for j in members.tolist():
            cone[j] = (kind, dim)
    firsts = np.cumsum(counts) - counts  # each member's first row

    pins = [np.zeros(0, dtype=int)]
    for (kind, dim), run in itertools.groupby(range(len(cone)), key=cone.__getitem__):
        run = list(run)
        first, end = run[0], run[-1] + 1
        b = np.empty(counts[first:end].sum())
        entries = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]
        for members, (_, _, rows, cols, coeffs, rhs, live) in zip(positions, blocks):
            inside = (members >= first) & (members < end)
            if not inside.any():
                continue
            rows, cols, coeffs, rhs, live = (a[inside] for a in (rows, cols, coeffs, rhs, live))
            # each row's row in the block
            at = (firsts[members[inside]] - firsts[first])[:, None] + live.cumsum(axis=1) - 1
            b[at[live]] = rhs[live]
            member = np.arange(live.shape[0])[:, None]
            keep = live[member, rows]
            entries.append((at[member, rows][keep], cols[keep], coeffs[keep]))
        block = [np.concatenate(arrays) for arrays in zip(*entries)] + [b]
        if kind == "zero":
            pins.append(builder.add_eq(*block) + np.arange(b.size))
        elif kind == "nonneg":
            builder.add_ge(*block)
        else:
            builder.add_soc(*block, dim)
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
