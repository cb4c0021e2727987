"""Transcription of the convex subproblem min P(y) over F_z to a cone program.

Column layout: the decision vector y first, then one epigraph auxiliary
per cost term (the objective's, then, when lambda > 0, one per dynamics
defect).  Rows land in the order assemble adds them: each cost term's
epigraph (a nonnegative row or a second-order cone), one row per dynamics
defect (g_j = 0 in equality mode, g_j >= 0 in penalty mode), one
nonnegative row per affine state constraint, the base set member by member
(pins, box bounds, balls, thrust cones), then one nonnegative row per
keep-out halfspace.  The row helpers return the indices extract needs, so
nothing is looked up after the build.

Only the halfspace rows depend on the region.  fixed_rows builds the rest,
every affine row included, once per run with ProgramBuilder, together with
the polish onto its pins and hard dynamics, and assemble appends each
region's halfspaces to it as one sparse block, stored as ProgramBuilder
stores rows, so the program is the one a single build would give.
Assembly is deterministic: identical inputs produce identical programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import conic
from .conic import ProgramBuilder, coord_pairs
from .errors import SubsolverError, UnsupportedModelError
from .linearize import FeasibleRegion
from .penalty import PenaltyConfig, penalty_value
from .problem import AffineFn, Ball, Box, Cone, OptimalControlProblem, Pin


def add_epigraph(builder: ProgramBuilder, fn, t_col, w_cols):
    """Emit the cone rows of t >= fn(w) over the given builder columns.

    An affine function (a dynamics defect) gives one nonnegative row
    t - a.w >= beta, a NormFn (a thrust norm) one second-order cone
    (t - a.w - beta, H w - p).
    """
    w_cols = np.asarray(w_cols, dtype=int)
    lin = [(int(t_col), 1.0)] + coord_pairs(w_cols, -fn.a)  # t - a.w
    if isinstance(fn, AffineFn):
        builder.add_ge(lin, fn.beta)
    else:
        tail = [(coord_pairs(w_cols, h), -p) for h, p in zip(fn.H, fn.p)]
        builder.add_soc([(lin, -fn.beta)] + tail)


def add_base_set_rows(builder: ProgramBuilder, base) -> np.ndarray:
    """Cone rows for every base-set member, shared with the initializer; returns the pin rows."""
    pins = []
    for mem in base.members:
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
        else:
            raise UnsupportedModelError(f"unknown base-set member {type(mem).__name__}")
    return np.asarray(pins, dtype=int)


def add_halfspace_rows(program: conic.ConicProgram, halfspaces):
    """program plus one nonnegative row coeffs.y[indices] >= offset per halfspace.

    The rows are stored as ProgramBuilder.add_ge stores them: -coeffs over
    indices without the exact zeros, -offset in b, and one nonnegative
    cone, merged with a trailing nonnegative one.
    """
    k = len(halfspaces)
    if k == 0:
        return program
    keep = halfspaces.coeffs != 0.0  # -0.0 too
    block = sp.coo_matrix(
        (-halfspaces.coeffs[keep], (halfspaces.rows[keep], halfspaces.indices[keep])),
        shape=(k, program.n_cols),
    )
    cones = list(program.cones)
    dim = k
    if cones and cones[-1].kind == "nonneg":
        dim += cones.pop().dim
    return conic.ConicProgram(
        program.c,
        sp.vstack([program.A, block], format="csc"),
        np.concatenate([program.b, -halfspaces.offsets]),
        cones + [conic.Cone("nonneg", dim)],
    )


def add_dynamics_rows(builder: ProgramBuilder, problem, mode: str) -> np.ndarray:
    """One row per dynamics defect, in order; returns the rows.

    equality mode: the zero-cone row g_{i,j}(y) = 0; penalty mode: the
    nonnegative row g_{i,j}(y) >= 0.  Both carry the defect's exact beta.
    """
    add = builder.add_eq if mode == "equality" else builder.add_ge
    rows = [
        add(coord_pairs(spec.indices, spec.fn.a), -spec.fn.beta)
        for spec in problem.constraints
        if spec.kind == "dynamics-defect"
    ]
    return np.asarray(rows, dtype=int)


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
    program: conic.ConicProgram
    polish: Polish  # onto the pins, then the hard dynamics
    dynamics_rows: np.ndarray  # rows whose duals give the dynamics multipliers
    problem: OptimalControlProblem
    penalty: PenaltyConfig


@dataclass(frozen=True, eq=False)
class FixedRows:
    """The part of min P that no region changes, built once per run."""

    program: conic.ConicProgram  # cost columns, epigraphs, affine rows, base set
    polish: Polish  # onto the pins, then the hard dynamics
    dynamics_rows: np.ndarray  # g_j = 0 in equality mode, g_j >= 0 in penalty mode


def fixed_rows(problem: OptimalControlProblem, penalty_config: PenaltyConfig) -> FixedRows:
    """Everything of min P but the keep-out halfspaces: columns, costs, fixed rows.

    P minus its constant is a list of weighted terms (weight, indices,
    fn): the objective's norms, then lambda * g_j for every dynamics
    defect when lambda > 0 (its fixed row g_j >= 0 makes g_j equal |g_j|).
    Each term is one cost column t with weight `weight` and the epigraph
    rows t >= fn(y[indices]).  Every affine row is a fixed row: each
    dynamics defect (g_j = 0 at lambda = 0, g_j >= 0 at lambda > 0) and
    each affine state constraint q_j >= 0.  The polish projects onto the
    pins and, in equality mode only, the dynamics rows.
    """
    builder = ProgramBuilder()
    builder.add_cols(problem.dims.n_y)  # y is columns 0..n_y-1

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

    mode = penalty_config.mode
    dynamics = add_dynamics_rows(builder, problem, mode)
    for spec in problem.constraints:
        if spec.kind == "state-constraint" and isinstance(spec.fn, AffineFn):
            builder.add_ge(coord_pairs(spec.indices, spec.fn.a), -spec.fn.beta)
    pins = add_base_set_rows(builder, problem.base_set)
    program = builder.build()
    hard = dynamics if mode == "equality" else np.zeros(0, dtype=int)
    polish = Polish(program, np.concatenate([pins, hard]), problem.dims.n_y)
    return FixedRows(program, polish, dynamics)


def assemble(
    problem: OptimalControlProblem,
    penalty_config: PenaltyConfig,
    region: FeasibleRegion,
    fixed: FixedRows | None = None,
) -> SubproblemArtifacts:
    """Build the cone program encoding min P(y) over the given region.

    fixed is fixed_rows(problem, penalty_config), which a run builds once
    and passes to every assembly; without it the rows are built here.
    """
    if fixed is None:
        fixed = fixed_rows(problem, penalty_config)
    return SubproblemArtifacts(
        program=add_halfspace_rows(fixed.program, region.halfspaces),
        polish=fixed.polish,
        dynamics_rows=fixed.dynamics_rows,
        problem=problem,
        penalty=penalty_config,
    )


def extract(artifacts: SubproblemArtifacts, solution: conic.ConicSolution):
    """Pull (z_next, dynamics multipliers, true objective value) out of a solve.

    The objective is recomputed from the raw decision vector rather than
    trusting the solver's epigraph auxiliaries.  Raises SubsolverError
    unless the solve is optimal.
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
