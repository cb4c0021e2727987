"""Exact penalty objective and the lambda exactness condition."""

import dataclasses

import numpy as np
import pytest

from scvx import conic
from scvx.bench import (
    BenchmarkRun,
    build_quadrotor_problem,
    initial_guess,
    report_dict,
    solve_quadrotor,
    trajectory_record,
)
from scvx.driver import ScvxConfig, find_feasible_start, scvx
from scvx.errors import DimensionError
from scvx.linearize import build_feasible_region
from scvx.penalty import PenaltyConfig, penalty_value, validate_penalty_weight
from scvx.problem import (
    AffineDynamics,
    AffineGroup,
    BaseSet,
    Box,
    ControlNormSum,
    OptimalControlProblem,
    ProblemDims,
    eval_g,
)
from scvx.subproblem import assemble, extract
from tests.checks import builder_program


def test_config_validation():
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DimensionError):
            PenaltyConfig(lam=lam)
    assert PenaltyConfig().lam == 0.0


def test_equality_mode_requires_affine_dynamics(quad_problem):
    # equality mode writes each defect as a zero-cone row a.y = -beta; every
    # dynamics row is affine, so the mode follows from lambda alone: 0 keeps
    # the defects as equalities, any positive weight relaxes and penalizes them
    dynamics = quad_problem.affine_rows[0]
    assert isinstance(dynamics, AffineGroup) and dynamics.kind == "dynamics-defect"
    assert len(dynamics) == 24 * 6
    assert PenaltyConfig().mode == "equality"
    assert PenaltyConfig(lam=5.0).mode == "penalty"
    assert PenaltyConfig(lam=100.0).mode == "penalty"


def test_zero_weight_is_plain_objective(quad_problem, rng):
    cfg = PenaltyConfig(lam=0.0)
    for _ in range(10):
        y = rng.standard_normal(quad_problem.dims.n_y)
        assert penalty_value(quad_problem, cfg, y) == quad_problem.objective_value(y)


def test_penalty_value_counts_absolute_defects():
    # J == 0 at zero thrust, two defect components (1, -1), weight 2 -> P = 4
    dims = ProblemDims(n=1, m=1, T=3)
    prob = OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A=np.eye(1), B=np.zeros((1, 1)), d=np.zeros(1)),
        state_constraints=(),
        base_set=BaseSet(
            n_y=dims.n_y,
            members=(
                Box(
                    indices=np.arange(dims.n_y),
                    lower=-3.0 * np.ones(dims.n_y),
                    upper=3.0 * np.ones(dims.n_y),
                ),
            ),
        ),
        objective=ControlNormSum(),
    )
    y = np.concatenate([[0.0, -1.0, 0.0], [0.0, 0.0]])  # zero thrust
    np.testing.assert_array_equal(eval_g(prob, y), [1.0, -1.0])
    assert penalty_value(prob, PenaltyConfig(lam=2.0), y) == pytest.approx(4.0)


def test_weight_validation_cases(quad_problem, quad_start):
    # quad_start meets the dynamics, so the multipliers alone decide
    config = PenaltyConfig(lam=1.0)
    assert validate_penalty_weight(quad_problem, config, [0.5, -1.0], quad_start).status == "valid"
    check = validate_penalty_weight(quad_problem, config, [0.5, -2.0], quad_start)
    assert check.status == "invalid"
    assert check.required_lambda == pytest.approx(2.0)
    y = np.zeros(quad_problem.dims.n_y)
    assert validate_penalty_weight(quad_problem, PenaltyConfig(lam=1.0), [0.5, -2.0], y).status == "invalid"
    assert validate_penalty_weight(quad_problem, PenaltyConfig(), [9.0], y).status == "not-applicable"


def test_weight_check_requires_the_dynamics_to_hold(quad_scenario):
    # pf is out of reach at V_max = 0.2: the relaxed run converges with the
    # defect still positive while every multiplier reads at most lambda
    scenario = dataclasses.replace(quad_scenario, N=5, V_max=0.2, penalty_lambda=100.0)
    run = solve_quadrotor(scenario, include_obstacles=False)
    assert run.report.converged
    assert np.max(np.abs(eval_g(run.problem, run.report.z))) > 1.0
    assert np.max(np.abs(run.report.multipliers)) <= 100.0
    assert run.report.penalty_check.status == "invalid"
    assert run.report.penalty_check.required_lambda is None


def test_penalty_convex_along_segments(quad_problem, rng):
    # P restricted to the base set is convex; check midpoints on random pairs
    from tests.checks import sample_base_set

    cfg = PenaltyConfig(lam=3.0)
    Y = sample_base_set(quad_problem.base_set, rng, 200)
    for a, b in zip(Y[:100], Y[100:]):
        pa = penalty_value(quad_problem, cfg, a)
        pb = penalty_value(quad_problem, cfg, b)
        pm = penalty_value(quad_problem, cfg, 0.5 * (a + b))
        assert pm <= 0.5 * (pa + pb) + 1e-9


@pytest.fixture(scope="module")
def small_runs(quad_scenario):
    """The built-in geometry at N=8, in penalty mode and in equality mode."""
    small = dataclasses.replace(quad_scenario, N=8)
    penalty = solve_quadrotor(dataclasses.replace(small, penalty_lambda=100.0))
    equality = solve_quadrotor(small)
    return penalty, equality


def test_penalty_multipliers_match_the_equality_duals(small_runs):
    penalty, equality = small_runs
    assert penalty.report.converged and equality.report.converged
    assert penalty.record.cost == pytest.approx(equality.record.cost, abs=1e-6)
    np.testing.assert_allclose(
        penalty.report.multipliers, equality.report.multipliers, atol=1e-3
    )
    assert penalty.report.penalty_check.status == "valid"


def test_linear_penalty_cost_matches_the_epigraph_form(small_runs):
    # the fixed row g_j >= 0 makes lambda * |g_j| linear, so the cost
    # lambda * a_j on y stands in for an epigraph column t_j and its row
    # t_j >= g_j: over the final anchor's region both programs reach the
    # same P, and the same multipliers lambda - z_j, z_j the dual of g_j >= 0
    penalty, _ = small_runs
    problem, config = penalty.problem, penalty.config.penalty
    region = build_feasible_region(problem, penalty.report.z, config.mode)
    artifacts = assemble(problem, config, region)
    reference = builder_program(problem, config, region.halfspaces, epigraphs=True)
    dynamics = artifacts.dynamics_rows
    assert reference.n_cols == artifacts.program.n_cols + dynamics.size
    sol, ref = conic.solve(artifacts.program, tol=1e-10), conic.solve(reference, tol=1e-10)
    assert sol.status == ref.status == "optimal"
    _, multipliers, value = extract(artifacts, sol)
    n_y = problem.dims.n_y
    ref_value = penalty_value(problem, config, ref.x[:n_y])
    assert abs(value - ref_value) <= 1e-7 * abs(ref_value)
    # the epigraph rows t_j >= g_j sit just before the dynamics rows
    ref_multipliers = config.lam - ref.z_dual[dynamics + dynamics.size]
    np.testing.assert_allclose(multipliers, ref_multipliers, rtol=0.0, atol=1e-6)


def test_positive_weight_alone_runs_penalty_mode(quad_scenario):
    # PenaltyConfig(lam) is the whole penalty setting: a positive weight on
    # the affine built-in dynamics relaxes and penalizes them
    scenario = dataclasses.replace(quad_scenario, N=8)
    problem = build_quadrotor_problem(scenario)
    config = ScvxConfig(penalty=PenaltyConfig(lam=100.0))
    start = find_feasible_start(problem, initial_guess(scenario), config)
    report = scvx(problem, start, config)
    record = trajectory_record(scenario, problem, report.z)
    out = report_dict(BenchmarkRun(scenario, problem, config, report, record))
    assert report.converged
    assert out["mode"] == "penalty"
    assert out["penalty_check"]["status"] == "valid"


def test_penalty_relaxation_floor_bounds_the_cost(small_runs):
    penalty, _ = small_runs
    floor = penalty.report.relaxation_floor
    assert floor is not None
    assert floor <= penalty.record.cost + 1e-9


def test_obstacle_free_penalty_run_is_one_solve(monkeypatch, quad_scenario, convex_run):
    # every affine row is a fixed row, so without keep-outs the region is
    # empty at every anchor: as at lambda = 0, the one succession is the
    # optimum and certifies itself, and no floor solve runs
    scenario = dataclasses.replace(quad_scenario, penalty_lambda=100.0)
    problem = build_quadrotor_problem(scenario, include_obstacles=False)
    config = ScvxConfig(epsilon=scenario.epsilon, penalty=PenaltyConfig(lam=100.0))
    start = find_feasible_start(problem, initial_guess(scenario), config)
    solve, calls = conic.solve, []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(conic, "solve", counting)
    report = scvx(problem, start, config)
    assert len(calls) == 1
    assert report.converged and report.successions == 1
    assert report.relaxation_floor is None
    assert report.penalty_check.status == "valid"
    assert report.penalty_values[-1] == pytest.approx(convex_run.record.cost, abs=1e-6)


def test_benchmark_penalty_equals_control_norm_sum(benchmark_run):
    # lambda = 0: the reported penalty is exactly the thrust-norm objective
    rep = benchmark_run.report
    prob = benchmark_run.problem
    assert rep.penalty_values[-1] == pytest.approx(prob.objective_value(rep.z), abs=0.0)
