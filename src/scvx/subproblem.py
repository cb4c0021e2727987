"""Transcription of the convex subproblem min P(y) over F_z to a cone program.

Column layout: the decision vector y first, then one epigraph auxiliary
per cost term (the objective's, then, when lambda > 0, one per dynamics
defect).  Rows land in the order assemble adds them: each cost term's
epigraph (a nonnegative row or a second-order cone), the dynamics
equalities in equality mode, the base set member by member (pins, box
bounds, balls, thrust cones), then one nonnegative row per supporting
halfspace.  The row helpers return the indices extract needs, so nothing
is looked up after the build.

Only the halfspace rows depend on the region.  fixed_rows builds the rest
once per run with ProgramBuilder, and assemble appends each region's
halfspaces to it as one sparse block, stored as ProgramBuilder stores
rows, so the program is the one a single build would give.  Assembly is
deterministic: identical inputs produce identical programs.
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
from .projection import add_epigraph
from .problem import Ball, Box, Cone, OptimalControlProblem, Pin


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

    Returns (program, rows).  The rows are stored as ProgramBuilder.add_ge
    stores them: -coeffs over indices without the exact zeros, -offset in
    b, and one nonnegative cone, merged with a trailing nonnegative one.
    """
    k, first = len(halfspaces), program.n_rows
    if k == 0:
        return program, np.zeros(0, dtype=int)
    rows = np.repeat(np.arange(k), [hs.indices.size for hs in halfspaces])
    cols = np.concatenate([hs.indices for hs in halfspaces])
    coeffs = np.concatenate([hs.coeffs for hs in halfspaces])
    keep = coeffs != 0.0  # -0.0 too
    block = sp.coo_matrix(
        (-coeffs[keep], (rows[keep], cols[keep])), shape=(k, program.n_cols)
    )
    cones = list(program.cones)
    dim = k
    if cones and cones[-1].kind == "nonneg":
        dim += cones.pop().dim
    program = conic.ConicProgram(
        program.c,
        sp.vstack([program.A, block], format="csc"),
        np.concatenate([program.b, [-hs.offset for hs in halfspaces]]),
        cones + [conic.Cone("nonneg", dim)],
    )
    return program, np.arange(first, first + k)


def add_equality_dynamics_rows(builder: ProgramBuilder, problem) -> np.ndarray:
    """Zero-cone rows g_{i,j}(y) = 0 for every (affine) dynamics defect; returns the rows."""
    rows = [
        builder.add_eq(coord_pairs(spec.indices, spec.fn.a), -spec.fn.beta)
        for spec in problem.constraints
        if spec.kind == "dynamics-defect"
    ]
    return np.asarray(rows, dtype=int)


@dataclass(frozen=True, eq=False)
class SubproblemArtifacts:
    program: conic.ConicProgram
    equality_rows: np.ndarray  # pins, then hard dynamics: what extract polishes onto
    dynamics_rows: np.ndarray  # rows whose duals give the dynamics multipliers
    problem: OptimalControlProblem
    penalty: PenaltyConfig


@dataclass(frozen=True, eq=False)
class FixedRows:
    """The part of min P that no region changes, built once per run."""

    program: conic.ConicProgram  # cost columns, epigraphs, hard dynamics, base set
    equality_rows: np.ndarray  # pins, then hard dynamics
    hard_rows: np.ndarray  # the hard dynamics rows; none in penalty mode


def fixed_rows(problem: OptimalControlProblem, penalty_config: PenaltyConfig) -> FixedRows:
    """Everything of min P but the halfspace rows: columns, costs and fixed rows.

    P minus its constant is a list of weighted catalog terms (weight,
    indices, fn): the objective's, then lambda * g_j for every dynamics
    defect when lambda > 0 (the region holds the linearized g_j >= 0, so
    g_j is |g_j| there).  Each term is one cost column t with weight
    `weight` and the epigraph rows t >= fn(y[indices]).
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

    hard = np.zeros(0, dtype=int)
    if penalty_config.dynamics_mode(problem) == "equality":
        hard = add_equality_dynamics_rows(builder, problem)
    pins = add_base_set_rows(builder, problem.base_set)
    return FixedRows(builder.build(), np.concatenate([pins, hard]), hard)


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
    program, halfspace_rows = add_halfspace_rows(fixed.program, region.halfspaces)
    if penalty_config.dynamics_mode(problem) == "equality":
        dynamics_rows = fixed.hard_rows
    else:
        is_dynamics = [
            problem.constraints[hs.constraint_index].kind == "dynamics-defect"
            for hs in region.halfspaces
        ]
        dynamics_rows = halfspace_rows[np.asarray(is_dynamics, dtype=bool)]

    return SubproblemArtifacts(
        program=program,
        equality_rows=fixed.equality_rows,
        dynamics_rows=dynamics_rows,
        problem=problem,
        penalty=penalty_config,
    )


def polish_rows(program: conic.ConicProgram, rows: np.ndarray, n_y: int, y: np.ndarray):
    """Minimum-norm correction of y onto the given equality rows of A x = b.

    With E the rows' entries over y, the correction is E^T (E E^T)^-1 r,
    r = b - E y, with E E^T formed and factored sparse.  Linearly dependent
    rows make E E^T exactly singular; their correction is the least-squares
    solution instead.
    """
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        return y
    E = program.A[rows, :n_y]
    r = program.b[rows] - E @ y
    try:
        lu = spla.splu((E @ E.T).tocsc())
    except RuntimeError:  # exactly singular
        E = E.toarray()
        return y + E.T @ np.linalg.lstsq(E @ E.T, r, rcond=None)[0]
    return y + E.T @ lu.solve(r)


def extract(artifacts: SubproblemArtifacts, solution: conic.ConicSolution):
    """Pull (z_next, dynamics multipliers, true objective value) out of a solve.

    The objective is recomputed from the raw decision vector rather than
    trusting the solver's epigraph auxiliaries.  Raises SubsolverError
    unless the solve is optimal.
    """
    if solution.status != "optimal":
        raise SubsolverError(f"subproblem solve returned {solution.outcome()}")
    program, n_y = artifacts.program, artifacts.problem.dims.n_y
    # one least-squares correction onto the equality rows removes the
    # interior-point method's drift without moving anything else by more
    y = polish_rows(program, artifacts.equality_rows, n_y, solution.x[:n_y].copy())
    multipliers = solution.z_dual[artifacts.dynamics_rows]
    if artifacts.penalty.dynamics_mode(artifacts.problem) == "penalty":
        # stationarity in each epigraph auxiliary pins the dual of t_j >= g_j
        # at lambda, so the multiplier of g_j is lambda minus the dual of its
        # linearized row g_j >= 0
        multipliers = artifacts.penalty.lam - multipliers
    value = penalty_value(artifacts.problem, artifacts.penalty, y)
    return y, multipliers, value
