"""Transcription of the convex subproblem min P(y) over F_z to a cone program.

Column layout: the decision vector y first, then one epigraph auxiliary
per cost term (the objective's, then, when lambda > 0, one per dynamics
defect).  Rows land in the order assemble adds them: each cost term's
epigraph (a nonnegative row or a second-order cone), the dynamics
equalities in equality mode, the base set member by member (pins, box
bounds, balls, thrust cones), then one nonnegative row per supporting
halfspace.  The row helpers return the indices extract needs, so nothing
is looked up after the build.  Assembly is deterministic: identical inputs
produce identical programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def add_halfspace_rows(builder: ProgramBuilder, halfspaces) -> np.ndarray:
    """One nonnegative row coeffs.y[indices] >= offset per halfspace; returns the rows."""
    rows = [builder.add_ge(coord_pairs(hs.indices, hs.coeffs), hs.offset) for hs in halfspaces]
    return np.asarray(rows, dtype=int)


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


def assemble(
    problem: OptimalControlProblem,
    penalty_config: PenaltyConfig,
    region: FeasibleRegion,
) -> SubproblemArtifacts:
    """Build the cone program encoding min P(y) over the given region.

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

    # feasible region: hard dynamics (equality mode), base set, halfspaces
    mode = penalty_config.dynamics_mode(problem)
    hard = np.zeros(0, dtype=int)
    if mode == "equality":
        hard = add_equality_dynamics_rows(builder, problem)
    pins = add_base_set_rows(builder, problem.base_set)
    halfspace_rows = add_halfspace_rows(builder, region.halfspaces)
    if mode == "equality":
        dynamics_rows = hard
    else:
        is_dynamics = [
            problem.constraints[hs.constraint_index].kind == "dynamics-defect"
            for hs in region.halfspaces
        ]
        dynamics_rows = halfspace_rows[np.asarray(is_dynamics, dtype=bool)]

    return SubproblemArtifacts(
        program=builder.build(),
        equality_rows=np.concatenate([pins, hard]),
        dynamics_rows=dynamics_rows,
        problem=problem,
        penalty=penalty_config,
    )


def polish_rows(program: conic.ConicProgram, rows: np.ndarray, n_y: int, y: np.ndarray):
    """Minimum-norm correction of y onto the given equality rows of A x = b."""
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
