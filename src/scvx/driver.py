"""Outer successions loop: project, linearize, solve, repeat.

Each succession projects the current iterate onto every keep-out set,
replaces the sets by their supporting halfspaces, and minimizes the exact
penalty objective over the resulting convex region.  Iterates are accepted
only when they improve the penalty value, so the reported sequence is
monotone.  A succession that improves by less than epsilon stops the loop
and certifies its own anchor, which is the result.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import conic
from .conic import ProgramBuilder, coord_pairs
from .errors import (
    DimensionError,
    InfeasibleAnchorError,
    InfeasibleScenarioError,
    SubsolverError,
)
from .linearize import (
    FeasibleRegion,
    _rows_to_linearize,
    build_feasible_region,
    check_anchor,
    linearize_direct,
)
from .penalty import PenaltyCheck, PenaltyConfig, penalty_value, validate_penalty_weight
from .problem import AffineFn, OptimalControlProblem, eval_g
from .subproblem import (
    Polish,
    add_base_set_rows,
    add_equality_dynamics_rows,
    assemble,
    extract,
    fixed_rows,
)

# rounds of the feasibility search before it gives up, and rounds without
# improvement before it calls the scenario infeasible
FEASIBILITY_MAX_ROUNDS = 200
FEASIBILITY_STALL_LIMIT = 20


@dataclass(frozen=True)
class ScvxConfig:
    epsilon: float = 1e-6
    max_successions: int = 50
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    dump_dir: str | None = None

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise DimensionError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        count = self.max_successions
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise DimensionError(f"max_successions must be an integer of at least 1, got {count!r}")


@dataclass(frozen=True)
class SuccessionRecord:
    index: int
    penalty_before: float
    penalty_after: float
    improvement: float
    accepted: bool
    halfspaces: int
    subsolver_status: str
    subsolver_iterations: int
    subsolver_gap: float
    subsolver_start: str  # warm | cold: the start point of the solve's result


@dataclass
class SolveReport:
    status: str  # "converged" or "max-successions"
    z: np.ndarray
    successions: int
    iterates: list
    penalty_values: list
    objective_values: list
    records: list
    multipliers: np.ndarray | None = None
    penalty_check: PenaltyCheck | None = None
    relaxation_floor: float | None = None
    fixed_point_residual: float | None = None
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _solve_region(problem, config, region, fixed, dump_path=None, start=None):
    """Assemble min P over the region and solve it; returns (artifacts, solution).

    fixed holds the run's fixed rows.  dump_path, when given, receives the
    program before it is solved.  start, the solution of an earlier
    succession, warm-starts the solve: every succession program has the
    same columns and cone list, and when it also has the same sparsity the
    solve reuses the start's KKT structure.
    """
    artifacts = assemble(problem, config.penalty, region, fixed)
    if dump_path:
        conic.dump_program(artifacts.program, dump_path)
    sol = conic.solve(artifacts.program, start=start)
    return artifacts, sol


def _relaxation_floor(problem, config, z, fixed):
    """min P over the base set and the affine linearized rows.

    Every affine row linearizes to exactly q_j >= 0, so this region
    contains every succession's region and its minimum bounds the cost from
    below.  The rows it drops are keep-outs: every dynamics defect is
    affine, so in penalty mode each g_j >= 0 stays and its one-sided
    epigraph t_j >= g_j still measures |g_j|.
    """
    halfspaces = [
        linearize_direct(spec, z, j)
        for j, spec in _rows_to_linearize(problem, config.penalty.mode)
        if isinstance(spec.fn, AffineFn)
    ]
    region = FeasibleRegion(problem.base_set, tuple(halfspaces), z.copy())
    artifacts, sol = _solve_region(problem, config, region, fixed)
    return extract(artifacts, sol)[2]


def scvx(problem: OptimalControlProblem, z0, config: ScvxConfig | None = None) -> SolveReport:
    """Run successions from a feasible anchor z0 until convergence.

    Raises InfeasibleAnchorError if z0 is not a valid anchor (use
    find_feasible_start), SubsolverError if a subproblem solve fails.
    """
    config = config or ScvxConfig()
    mode = config.penalty.mode
    t0 = time.perf_counter()
    z = np.array(z0, dtype=float).ravel()
    if z.size != problem.dims.n_y:
        raise DimensionError(
            f"anchor has {z.size} coordinates, expected {problem.dims.n_y}"
        )
    check_anchor(problem, z, mode)
    P_z = penalty_value(problem, config.penalty, z)

    iterates = [z.copy()]
    penalties = [P_z]
    objectives = [problem.objective_value(z)]
    records = []
    multipliers = None

    convex_only = not _rows_to_linearize(problem, mode)
    fixed = fixed_rows(problem, config.penalty)

    relaxation_floor = None
    if not convex_only:
        relaxation_floor = _relaxation_floor(problem, config, z, fixed)

    if config.dump_dir:
        os.makedirs(config.dump_dir, exist_ok=True)

    status = "max-successions"
    successions = 0
    sol = None  # the last succession's solution warm-starts the next
    for k in range(1, config.max_successions + 1):
        successions = k
        region = build_feasible_region(problem, z, mode)
        dump_path = (
            os.path.join(config.dump_dir, f"subproblem_{k:03d}.txt") if config.dump_dir else None
        )
        artifacts, sol = _solve_region(
            problem, config, region, fixed, dump_path=dump_path, start=sol
        )
        y, multipliers, P_y = extract(artifacts, sol)
        improvement = P_z - P_y
        # below epsilon this solve is the fixed-point test of its anchor z,
        # which stays the result; a convex-only region does not depend on
        # the anchor, so its one solve certifies y
        converged = convex_only or improvement < config.epsilon
        accepted = P_y < P_z and (convex_only or not converged)
        records.append(
            SuccessionRecord(
                index=k,
                penalty_before=P_z,
                penalty_after=P_y,
                improvement=improvement,
                accepted=accepted,
                halfspaces=len(region.halfspaces),
                subsolver_status=sol.status,
                subsolver_iterations=sol.iterations,
                subsolver_gap=sol.gap,
                subsolver_start=sol.start,
            )
        )
        if accepted:
            z = y
            P_z = P_y
            iterates.append(z.copy())
            penalties.append(P_z)
            objectives.append(problem.objective_value(z))
        if converged:
            status = "converged"
            break

    report = SolveReport(
        status=status,
        z=z,
        successions=successions,
        iterates=iterates,
        penalty_values=penalties,
        objective_values=objectives,
        records=records,
        multipliers=multipliers,
        relaxation_floor=relaxation_floor,
    )
    if multipliers is not None:
        report.penalty_check = validate_penalty_weight(
            problem, config.penalty, multipliers, z
        )
    if status == "converged":
        report.fixed_point_residual = fixed_point_residual(P_z, P_y)
    report.wall_time = time.perf_counter() - t0
    return report


# a named function, not inline in scvx, because benchmarks/tracing.py wraps it
def fixed_point_residual(p_anchor: float, phi: float) -> float:
    """P(z) minus phi, the minimum of P over the region anchored at z.

    z is a member of its own region, so phi exceeds P(z) only by subsolver
    noise, which the min keeps out of the residual.
    """
    return p_anchor - min(p_anchor, phi)


def feasibility_summary(problem: OptimalControlProblem, y) -> dict:
    """Feasibility metrics of a candidate trajectory, for reports and gates."""
    from .problem import Pin, eval_h

    y = np.asarray(y, dtype=float)
    defect = eval_g(problem, y)
    pin_error = 0.0
    base_min = np.inf
    for mem in problem.base_set.members:
        margin = mem.margin(y)
        if isinstance(mem, Pin):
            pin_error = max(pin_error, -margin)
        else:
            base_min = min(base_min, margin)
    h = eval_h(problem, y)
    return {
        "defect_max": float(np.max(np.abs(defect))) if defect.size else 0.0,
        "pin_error": float(pin_error),
        "base_margin_min": float(base_min) if np.isfinite(base_min) else None,
        "state_margin_min": float(np.min(h)) if h.size else None,
    }


def _violation(problem, rows, w, mode):
    """Total constraint violation at w: keep-out rows, base set, hard defects."""
    v = sum(max(0.0, -spec.value(w)) for _, spec in rows)
    v += float(np.sum(np.maximum(0.0, -problem.base_set.margins(w))))
    if mode == "equality":
        v += float(np.sum(np.abs(eval_g(problem, w))))
    return float(v)


def find_feasible_start(
    problem: OptimalControlProblem,
    guess=None,
    config: ScvxConfig | None = None,
):
    """Search for a valid anchor by slack minimization (majorize-minimize).

    Each round linearizes every keep-out row q_k at the incumbent w
    (linearize_direct) and minimizes the total slack the linearized rows
    l_k(y) + sigma_k >= 0 need, subject to the base set and, in equality
    mode, the hard dynamics.  q_k is convex, so q_k >= l_k everywhere and
    q_k(w) = l_k(w): the slack sum majorizes the true violation and equals
    it at w.  The rounds are therefore a majorize-minimize scheme, the
    violation does not go up, and zero slack implies true feasibility.  The
    base set is compact, so each round is bounded without a trust region.

    A primal-infeasible round means the hard set itself (pins, dynamics,
    base set) is empty; FEASIBILITY_STALL_LIMIT rounds without improvement
    mean no feasible point was found.  Both raise InfeasibleScenarioError.
    """
    config = config or ScvxConfig()
    mode = config.penalty.mode
    dims = problem.dims
    if guess is None:
        lo, hi = problem.base_set.coordinate_bounds()
        w = 0.5 * (lo + hi)
    else:
        w = np.array(guess, dtype=float).ravel()
        if w.size != dims.n_y:
            raise DimensionError(
                f"guess has {w.size} coordinates, expected {dims.n_y}"
            )

    rows = _rows_to_linearize(problem, mode)
    best = _violation(problem, rows, w, mode)
    stall = 0
    for _ in range(FEASIBILITY_MAX_ROUNDS):
        try:
            return check_anchor(problem, w, mode)
        except InfeasibleAnchorError:
            pass

        builder = ProgramBuilder()
        builder.add_cols(dims.n_y)  # y is columns 0..n_y-1
        s0 = builder.add_cols(len(rows))
        for k in range(len(rows)):
            builder.add_cost(s0 + k, 1.0)
            builder.add_ge([(s0 + k, 1.0)], 0.0)
        eq_rows = np.zeros(0, dtype=int)
        if mode == "equality":
            eq_rows = add_equality_dynamics_rows(builder, problem)
        eq_rows = np.concatenate([eq_rows, add_base_set_rows(builder, problem.base_set)])
        for k, (j, spec) in enumerate(rows):
            hs = linearize_direct(spec, w, j)
            builder.add_ge(coord_pairs(hs.indices, hs.coeffs) + [(s0 + k, 1.0)], hs.offset)

        program = builder.build()
        sol = conic.solve(program)
        if sol.status == "primal-infeasible":
            raise InfeasibleScenarioError(
                "the hard constraint set is empty (inconsistent pins, "
                "dynamics, or bounds)"
            )
        if sol.status != "optimal":
            raise SubsolverError(f"feasibility subproblem returned {sol.outcome()}")
        w_new = Polish(program, eq_rows, dims.n_y)(sol.x[:dims.n_y].copy())
        v_new = _violation(problem, rows, w_new, mode)
        if v_new < best - 1e-12:
            w = w_new
            best = v_new
            stall = 0
        else:
            if v_new <= best:
                w = w_new
            stall += 1
        if stall >= FEASIBILITY_STALL_LIMIT:
            raise InfeasibleScenarioError(
                f"feasibility search stalled with residual violation {best:.3e}; "
                "the scenario looks infeasible"
            )
    raise InfeasibleScenarioError(
        f"feasibility search exhausted {FEASIBILITY_MAX_ROUNDS} rounds "
        f"(residual violation {best:.3e})"
    )
