"""Transcription of the convex subproblem min P(y) over F_z to a cone program.

Column layout: the decision vector y first, then one epigraph auxiliary
per cost term (the objective's, then, when lambda > 0, one per dynamics
defect).  Row layout: zero-cone rows (pins, equality-mode dynamics), then
nonnegative rows (supporting halfspaces, box bounds, affine epigraphs),
then second-order cone blocks (balls, thrust cones, norm epigraphs).
Assembly is deterministic: identical inputs produce identical programs.
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


def add_base_set_rows(builder: ProgramBuilder, base, y0: int = 0):
    """Emit cone rows for every base-set member (shared with the initializer)."""
    for k, mem in enumerate(base.members):
        if isinstance(mem, Pin):
            for i, v in zip(mem.indices, mem.values):
                builder.add_eq(("pin", k, int(i)), [(y0 + int(i), 1.0)], float(v))
        elif isinstance(mem, Box):
            for i, lo, hi in zip(mem.indices, mem.lower, mem.upper):
                if np.isfinite(lo):
                    builder.add_ge(("box-lo", k, int(i)), [(y0 + int(i), 1.0)], float(lo))
                if np.isfinite(hi):
                    builder.add_ge(("box-hi", k, int(i)), [(y0 + int(i), -1.0)], float(-hi))
        elif isinstance(mem, Ball):
            exprs = [([], float(mem.radius))]
            for i, cc in zip(mem.indices, mem.center):
                exprs.append(([(y0 + int(i), 1.0)], float(-cc)))
            builder.add_soc(("ball", k), exprs)
        elif isinstance(mem, Cone):
            head = coord_pairs(y0 + mem.indices, mem.axis / mem.cos_angle)
            exprs = [(head, 0.0)]
            for i in mem.indices:
                exprs.append(([(y0 + int(i), 1.0)], 0.0))
            builder.add_soc(("cone", k), exprs)
        else:
            raise UnsupportedModelError(f"unknown base-set member {type(mem).__name__}")


def add_halfspace_rows(builder: ProgramBuilder, halfspaces, y0: int = 0):
    for hs in halfspaces:
        nz = np.nonzero(hs.normal)[0]
        builder.add_ge(
            ("halfspace", int(hs.constraint_index)),
            coord_pairs(y0 + nz, hs.normal[nz]),
            float(hs.offset),
        )


def add_equality_dynamics_rows(builder: ProgramBuilder, problem, y0: int = 0):
    """Zero-cone rows g_{i,j}(y) = 0 for every (affine) dynamics defect."""
    for spec in problem.constraints:
        if spec.kind == "dynamics-defect":
            builder.add_eq(
                ("dyn-eq", spec.step, spec.component),
                coord_pairs(y0 + spec.indices, spec.fn.a),
                -spec.fn.beta,
            )


@dataclass(frozen=True, eq=False)
class SubproblemArtifacts:
    program: conic.ConicProgram
    variable_map: tuple  # Spans over columns
    row_map: tuple  # Spans over rows
    constant_offset: float  # objective constant not visible to the solver
    problem: OptimalControlProblem
    penalty: PenaltyConfig

    def rows(self, *prefix):
        """All program row indices whose label starts with the prefix."""
        out = []
        for span in self.row_map:
            if span.label[: len(prefix)] == prefix:
                out.extend(span.range())
        return np.asarray(out, dtype=int)

    def columns(self, *prefix):
        out = []
        for span in self.variable_map:
            if span.label[: len(prefix)] == prefix:
                out.extend(span.range())
        return np.asarray(out, dtype=int)


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
    dims = problem.dims
    builder = ProgramBuilder()
    y0 = builder.add_cols(("y",), dims.n_y)

    terms = list(problem.objective.terms(dims))
    if penalty_config.lam > 0.0:
        terms += [
            (penalty_config.lam, spec.indices, spec.fn)
            for spec in problem.constraints
            if spec.kind == "dynamics-defect"
        ]
    for k, (weight, indices, fn) in enumerate(terms):
        t = builder.add_cols(("cost", k), 1)
        builder.add_cost(t, weight)
        add_epigraph(builder, ("cost", k), fn, t, y0 + indices)

    # feasible region: hard dynamics (equality mode), base set, halfspaces
    if penalty_config.dynamics_mode(problem) == "equality":
        add_equality_dynamics_rows(builder, problem, y0)
    add_base_set_rows(builder, problem.base_set, y0)
    add_halfspace_rows(builder, region.halfspaces, y0)

    program, row_map, col_map = builder.build()
    return SubproblemArtifacts(
        program=program,
        variable_map=col_map,
        row_map=row_map,
        constant_offset=problem.objective.constant,
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


def polish_equalities(artifacts: SubproblemArtifacts, y: np.ndarray) -> np.ndarray:
    """Project y exactly onto the zero-cone rows (pins and dynamics).

    One least-squares correction removes the interior-point method's
    equality drift without touching anything else by more than that drift.
    """
    rows = np.concatenate([artifacts.rows("pin"), artifacts.rows("dyn-eq")])
    return polish_rows(artifacts.program, rows, artifacts.problem.dims.n_y, y)


def extract(artifacts: SubproblemArtifacts, solution: conic.ConicSolution):
    """Pull (z_next, dynamics multipliers, true objective value) out of a solve.

    The objective is recomputed from the raw decision vector rather than
    trusting the solver's epigraph auxiliaries.  Raises SubsolverError
    unless the solve is optimal.
    """
    if solution.status != "optimal":
        raise SubsolverError(
            f"subproblem solve returned status {solution.status!r}",
            status=solution.status,
            diagnostics={
                "gap": solution.gap,
                "primal_res": solution.primal_res,
                "dual_res": solution.dual_res,
                "iterations": solution.iterations,
            },
        )
    n_y = artifacts.problem.dims.n_y
    y = polish_equalities(artifacts, solution.x[:n_y].copy())
    if artifacts.penalty.dynamics_mode(artifacts.problem) == "equality":
        multipliers = solution.z_dual[artifacts.rows("dyn-eq")]
    else:
        # the dynamics defects are the first n(T-1) constraint rows
        dims = artifacts.problem.dims
        dyn_rows = [
            span.start
            for span in artifacts.row_map
            if span.label[0] == "halfspace" and span.label[1] < dims.n * (dims.T - 1)
        ]
        # stationarity in each epigraph auxiliary pins the dual of t_j >= g_j
        # at lambda, so the multiplier of g_j is lambda minus the dual of its
        # linearized row g_j >= 0
        multipliers = artifacts.penalty.lam - solution.z_dual[dyn_rows]
    value = penalty_value(artifacts.problem, artifacts.penalty, y)
    return y, multipliers, value
