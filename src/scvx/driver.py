"""Outer successions loop: project, linearize, solve, repeat.

Each succession projects the current iterate onto every keep-out set,
replaces the sets by their supporting halfspaces, and minimizes the exact
penalty objective over the resulting convex region.  Iterates are accepted
only when they improve the penalty value, so the reported sequence is
monotone.  A succession that improves by less than epsilon stops the loop
and certifies its own anchor, which is the result.

Every solve is one region program: assembled, solved and read back
through extract.  The relaxation floor, the program of fixed_rows, is
solved first; each region's program is it with the region's halfspaces
appended last, so the floor's solution, extended over those rows,
warm-starts the first succession, and each succession's solution the
next.  A feasibility-init round appends its rows to a slack program built
once per search.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import conic
from .conic import ProgramBuilder
from .errors import DimensionError, InfeasibleAnchorError, InfeasibleScenarioError
from .linearize import (
    _anchor_groups,
    _anchor_values,
    build_feasible_region,
    check_anchor,
    direct_rows,
)
from .penalty import PenaltyCheck, PenaltyConfig, penalty_value, validate_penalty_weight
from .problem import OptimalControlProblem, eval_g
from .subproblem import (
    Polish,
    SubproblemArtifacts,
    add_base_set_rows,
    add_dynamics_rows,
    add_halfspace_rows,
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


def _floor_start(floor, program):
    """The floor's solution extended over the halfspace rows program appends.

    Every appended row is a nonnegative row, so its s is the slack b - A x
    at the floor's x clipped at 0, the cone projection, and its z is 0.
    """
    rows = slice(floor.s.size, program.n_rows)
    slack = (program.b - program.A @ floor.x)[rows]
    return replace(
        floor,
        s=np.concatenate([floor.s, np.maximum(slack, 0.0)]),
        z_dual=np.concatenate([floor.z_dual, np.zeros(slack.size)]),
    )


def _relaxation_floor(fixed):
    """min P over the fixed rows alone, the base set and every affine row:
    (its value, its solution).  fixed is the run's fixed_rows, whose
    program is this one.

    This drops only the keep-outs, so it contains every succession's
    region and its minimum bounds the cost from below.  In penalty mode
    each g_j >= 0 is a fixed row, so its one-sided epigraph t_j >= g_j
    still measures |g_j|.  The solution warm-starts the first succession
    (_floor_start).  It carries no KKT structure, which no succession
    program shares, and the first succession drops it once the extended
    start exists, so a run holds one start at a time.
    """
    sol = conic.solve(fixed.program)
    return extract(fixed, sol)[2], replace(sol, kkt=None)


def _point(values, n_y: int, name: str) -> np.ndarray:
    """values as a flat float vector; DimensionError unless it has n_y finite coordinates."""
    w = np.array(values, dtype=float).ravel()
    if w.size != n_y:
        raise DimensionError(f"{name} has {w.size} coordinates, expected {n_y}")
    if not np.isfinite(w).all():
        raise DimensionError(
            f"{name} has a non-finite coordinate at index {int(np.argmin(np.isfinite(w)))}"
        )
    return w


def scvx(problem: OptimalControlProblem, z0, config: ScvxConfig | None = None) -> SolveReport:
    """Run successions from a feasible anchor z0 until convergence.

    Raises DimensionError if z0 has the wrong size or a non-finite
    coordinate, InfeasibleAnchorError if it is not a valid anchor (use
    find_feasible_start), SubsolverError if a subproblem solve fails.
    """
    config = config or ScvxConfig()
    mode = config.penalty.mode
    t0 = time.perf_counter()
    z = _point(z0, problem.dims.n_y, "anchor")
    check_anchor(problem, z, mode)
    P_z = penalty_value(problem, config.penalty, z)

    iterates = [z.copy()]
    penalties = [P_z]
    objectives = [problem.objective_value(z)]
    records = []
    multipliers = None

    convex_only = not problem.keepouts
    fixed = fixed_rows(problem, config.penalty)

    relaxation_floor = None
    sol = None  # the floor's solution starts the first succession, each solution the next
    if not convex_only:
        relaxation_floor, sol = _relaxation_floor(fixed)

    if config.dump_dir:
        os.makedirs(config.dump_dir, exist_ok=True)

    status = "max-successions"
    successions = 0
    for k in range(1, config.max_successions + 1):
        successions = k
        region = build_feasible_region(problem, z, mode)
        artifacts = assemble(problem, config.penalty, region, fixed)
        if config.dump_dir:
            conic.dump_program(
                artifacts.program, os.path.join(config.dump_dir, f"subproblem_{k:03d}.txt")
            )
        if k == 1 and sol is not None:
            sol = _floor_start(sol, artifacts.program)  # and the floor's own is dropped
        # every succession program has the same columns and cone list, and
        # when it also has the start's sparsity the solve reuses the start's
        # KKT structure
        sol = conic.solve(artifacts.program, start=sol)
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
    base = problem.base_set
    margins = base.margins(y)
    pin = np.array([isinstance(mem, Pin) for mem in base.members], dtype=bool)
    pin_error = max([0.0] + (-margins[pin]).tolist())
    base_min = min([np.inf] + margins[~pin].tolist())
    h = eval_h(problem, y)
    return {
        "defect_max": float(np.max(np.abs(defect))) if defect.size else 0.0,
        "pin_error": float(pin_error),
        "base_margin_min": float(base_min) if np.isfinite(base_min) else None,
        "state_margin_min": float(np.min(h)) if h.size else None,
    }


def _violation(problem, w, mode):
    """Total constraint violation at w: the anchor rows, base set, hard defects."""
    v = sum(max(0.0, -q) for q in _anchor_values(problem, w, mode).tolist())
    v += float(np.sum(np.maximum(0.0, -problem.base_set.margins(w))))
    if mode == "equality":
        v += float(np.sum(np.abs(eval_g(problem, w))))
    return float(v)


def _slack_rows(problem: OptimalControlProblem, penalty_config: PenaltyConfig):
    """The search's rows that no round changes: (first slack column, artifacts).

    A slack sigma_k >= 0 of cost 1 per row of _anchor_groups, the hard
    dynamics in equality mode and the base set; the polish is onto the hard
    dynamics, then the pins.
    """
    mode = penalty_config.mode
    count = sum(len(group) for group in _anchor_groups(problem, mode))
    builder = ProgramBuilder()
    builder.add_cols(problem.dims.n_y)  # y is columns 0..n_y-1
    slack = builder.add_cols(count)
    sigma = slack + np.arange(count)
    builder.add_cost(sigma, np.ones(count))
    builder.add_ge(np.arange(count), sigma, np.ones(count), np.zeros(count))
    hard = np.zeros(0, dtype=int)
    if mode == "equality":
        hard = add_dynamics_rows(builder, problem, mode)
    pins = add_base_set_rows(builder, problem.base_set)
    program = builder.build()
    polish = Polish(program, np.concatenate([hard, pins]), problem.dims.n_y)
    return slack, SubproblemArtifacts(program, polish, hard, problem, penalty_config)


def find_feasible_start(
    problem: OptimalControlProblem,
    guess=None,
    config: ScvxConfig | None = None,
):
    """Search for a valid anchor by slack minimization (majorize-minimize).

    Each round linearizes every anchor row q_k (_anchor_groups) at the
    incumbent w (direct_rows) and minimizes the total slack the linearized
    rows l_k(y) + sigma_k >= 0 need, subject to the base set and, in
    equality mode, the hard dynamics.  q_k is convex, so q_k >= l_k
    everywhere and q_k(w) = l_k(w): the slack sum majorizes the true
    violation and equals it at w.  The rounds are therefore a
    majorize-minimize scheme, the violation does not go up, and zero slack
    implies true feasibility.  The base set is compact, so each round is
    bounded without a trust region; the rows no round changes are built
    once (_slack_rows), and each round appends its rows to them, solves and
    reads the solve back through extract, as a succession does.

    A primal-infeasible round means the hard set itself (pins, dynamics,
    base set) is empty; FEASIBILITY_STALL_LIMIT rounds without improvement
    mean no feasible point was found.  Both raise InfeasibleScenarioError.
    Any other non-optimal round raises SubsolverError (extract).  A guess
    of the wrong size or with a non-finite coordinate raises
    DimensionError.
    """
    config = config or ScvxConfig()
    mode = config.penalty.mode
    if guess is None:
        lo, hi = problem.base_set.coordinate_bounds()
        w = 0.5 * (lo + hi)
    else:
        w = _point(guess, problem.dims.n_y, "guess")

    best = _violation(problem, w, mode)
    stall = 0
    for k in range(FEASIBILITY_MAX_ROUNDS):
        try:
            return check_anchor(problem, w, mode)
        except InfeasibleAnchorError:
            pass
        if k == 0:  # a guess that is already an anchor needs none of this
            slack, fixed = _slack_rows(problem, config.penalty)

        artifacts = add_halfspace_rows(fixed, direct_rows(problem, w, mode, slack))
        sol = conic.solve(artifacts.program)
        if sol.status == "primal-infeasible":
            raise InfeasibleScenarioError(
                "the hard constraint set is empty (inconsistent pins, "
                "dynamics, or bounds)"
            )
        w_new = extract(artifacts, sol)[0]
        v_new = _violation(problem, w_new, mode)
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
