"""Succession loop: monotone descent, feasibility, certificates, initializer."""

import dataclasses
import logging

import numpy as np
import pytest

from scvx import conic, driver
from scvx.bench import Obstacle, initial_guess, solve_quadrotor
from scvx.driver import (
    ScvxConfig,
    feasibility_summary,
    find_feasible_start,
    scvx,
)
from scvx.errors import (
    DimensionError,
    InfeasibleAnchorError,
    InfeasibleScenarioError,
    SubsolverError,
)
from scvx.linearize import check_anchor
from scvx.penalty import PenaltyConfig
from scvx.problem import BaseSet, NormFn, Pin, eval_g, eval_h
from scvx.subproblem import Polish
from tests.checks import eval_q
from tests.test_conic import _recorded_orderings
from tests.test_linearize import hold_anchor, two_step_problem, unit_disk_problem


def tiny_config(**kw):
    kw.setdefault("penalty", PenaltyConfig())
    return ScvxConfig(**kw)


def start_at_midpoint(problem, config):
    """find_feasible_start from the middle of the base set's coordinate bounds."""
    lo, hi = problem.base_set.coordinate_bounds()
    return find_feasible_start(problem, 0.5 * (lo + hi), config)


# ---------------------------------------------------------------------------
# benchmark run


def test_benchmark_converges_quickly(benchmark_run):
    report = benchmark_run.report
    assert report.status == "converged"
    assert report.converged
    assert report.successions <= 10
    assert 242.9 <= report.objective_values[-1] <= 247.8
    assert report.wall_time > 0.0


def test_penalty_trace_is_strictly_decreasing(benchmark_run):
    p = np.asarray(benchmark_run.report.penalty_values)
    assert np.all(np.diff(p) < 0.0)
    # equality mode with lam = 0: the penalty is the objective itself
    np.testing.assert_allclose(p, benchmark_run.report.objective_values, atol=0.0)


def test_every_iterate_is_feasible(quad_problem, benchmark_run):
    for z in benchmark_run.report.iterates:
        summary = feasibility_summary(quad_problem, z)
        assert summary["defect_max"] <= 1e-7
        assert summary["pin_error"] <= 1e-7
        assert summary["base_margin_min"] >= -1e-7
        assert summary["state_margin_min"] >= -1e-7
        assert float(eval_q(quad_problem, z)[24 * 6 :].min()) >= -1e-7


def test_succession_records_are_complete(benchmark_run):
    records = benchmark_run.report.records
    assert [r.index for r in records] == list(range(1, len(records) + 1))
    for r in records:
        assert r.halfspaces == 50
        assert r.subsolver_status == "optimal"
        assert r.improvement == pytest.approx(r.penalty_before - r.penalty_after)
    assert records[-1].improvement < 1e-6


def test_report_z_is_writeable(benchmark_run):
    # the result is the last region's anchor, which the region froze a copy of
    report = benchmark_run.report
    assert report.z.tobytes() == report.iterates[-1].tobytes()
    assert report.z.flags.writeable


def test_fixed_point_certificate_at_convergence(benchmark_run):
    res = benchmark_run.report.fixed_point_residual
    assert res is not None
    assert -1e-9 <= res < 1e-6


def test_relaxation_floor_bounds_the_cost(benchmark_run):
    floor = benchmark_run.report.relaxation_floor
    assert floor is not None
    assert floor <= benchmark_run.report.objective_values[-1] + 1e-9


def test_restart_from_solution_terminates_immediately(quad_problem, quad_config, benchmark_run):
    rerun = scvx(quad_problem, benchmark_run.report.z, quad_config)
    assert rerun.successions == 1
    assert rerun.converged
    assert rerun.records[0].improvement < quad_config.epsilon


def test_initial_anchor_is_far_from_fixed_point(benchmark_run):
    # the first region is anchored at the start, so its improvement is the
    # start's fixed-point residual
    res = benchmark_run.report.records[0].improvement
    assert res > 1e-2  # orders of magnitude above the convergence threshold


def test_last_succession_certifies_its_anchor(benchmark_run):
    report = benchmark_run.report
    last = report.records[-1]
    assert report.converged
    assert last.accepted is False
    assert report.fixed_point_residual == max(0.0, last.improvement)
    assert report.z.tobytes() == report.iterates[-1].tobytes()
    assert len(report.iterates) == report.successions


def test_certificate_takes_no_extra_solve(monkeypatch, quad_problem, quad_config, quad_start):
    programs = _record_programs(monkeypatch)
    report = scvx(quad_problem, quad_start, quad_config)
    assert report.successions == 9
    assert len(programs) == 1 + report.successions  # the floor, then one per succession


def test_one_kkt_ordering_per_program_structure(
    monkeypatch, quad_scenario, quad_problem, quad_config
):
    # every init round and the floor solve a program of their own; the
    # successions share succession 1's structure through the warm start
    orderings = _recorded_orderings(monkeypatch)
    programs = _record_programs(monkeypatch)
    start = find_feasible_start(quad_problem, initial_guess(quad_scenario), quad_config)
    rounds = len(programs)
    assert len(orderings) == rounds >= 1
    report = scvx(quad_problem, start, quad_config)
    assert report.successions == 9
    assert len(orderings) == rounds + 2


def test_one_polish_per_run(monkeypatch, quad_scenario, quad_problem, quad_config):
    # every init round of a search reuses the E and E E^T built with the
    # search's slack rows, and the floor and every succession of a run those
    # built with the run's fixed rows
    built, init = [0], Polish.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Polish, "__init__", counting)
    monkeypatch.setattr(driver, "FEASIBILITY_STALL_LIMIT", 5)
    programs = _record_programs(monkeypatch)
    with pytest.raises(InfeasibleScenarioError):
        start_at_midpoint(covered_box_problem(), tiny_config())
    assert len(programs) >= 5 and built[0] == 1
    programs.clear()
    start = find_feasible_start(quad_problem, initial_guess(quad_scenario), quad_config)
    rounds = len(programs)
    assert rounds >= 1 and built[0] == 2
    report = scvx(quad_problem, start, quad_config)
    assert report.successions == 9 and len(programs) == rounds + 10
    assert built[0] == 3


def test_successions_start_warm(benchmark_run):
    # the first succession starts from the floor's solution, every later
    # one from the previous solution
    records = benchmark_run.report.records
    assert [r.subsolver_start for r in records] == ["warm"] * len(records)
    # 93 iterations with a cold first succession, 129 with every one cold
    assert sum(r.subsolver_iterations for r in records) <= 89


# six non-overlapping cylinders between the endpoints: (center, radius),
# the benchmark's penalty workload at seed 1 on layout seed 1
SIX_CYLINDERS = (
    ((-16.387629070651187, 18.432036158560628), 1.2873971570789526),
    ((-14.93917169112694, 15.968045609643587), 1.0045419583098643),
    ((-10.180884327326844, 18.021063457948593), 0.6844736280968113),
    ((-8.852639010504696, 12.514742373457775), 1.0008484746493211),
    ((-12.484758411147197, 14.528471302133399), 0.6193407347393179),
    ((-7.949064292049126, 16.395180258567034), 1.178064926639201),
)
# the cylinders of layout seeds 1-6, the same way
PENALTY_LAYOUTS = {
    1: SIX_CYLINDERS,
    2: (
        ((-6.527588737329008, 19.134792409415446), 0.6508962309541277),
        ((-16.981536058092942, 18.348492146906146), 1.262372990161671),
        ((-9.96323518271735, 14.65695520312401), 1.1453497491106162),
        ((-12.831964316504777, 15.2547227414376), 1.2507108731137193),
        ((-17.67066171491017, 15.754257034681185), 0.8866186150683097),
        ((-13.43982093719146, 18.74252620479801), 1.0731774922314254),
    ),
    3: (
        ((-15.144424474897303, 16.309604577071664), 0.9329596498932713),
        ((-10.752959536845665, 16.88004212875638), 0.6589759733158318),
        ((-17.84198410134151, 18.36228357467522), 0.8334186128952068),
        ((-15.188028467439644, 19.46951384857324), 1.0232371567702032),
        ((-7.962462584707335, 15.834472460895345), 1.1751613264897456),
        ((-14.384788085811453, 12.717082260288251), 1.378974513281051),
    ),
    4: (
        ((-15.167422923150786, 13.22216223961501), 0.9564524183496129),
        ((-6.984539482947373, 18.10316646047066), 1.2886463422548946),
        ((-15.336861891716188, 16.256760057223694), 0.8490143790973051),
        ((-8.394625937484406, 13.85404932613468), 0.878864961569582),
        ((-10.476292771042438, 17.623262962151024), 1.3691835221922126),
        ((-14.338660842807132, 18.188146230442346), 0.6389146221650236),
    ),
    5: (
        ((-10.525179661323577, 17.692508924825106), 1.315674209009127),
        ((-6.690596594675396, 17.679290023179515), 1.4300924969988753),
        ((-17.651937260596625, 15.759358580646737), 1.4490210452984824),
        ((-12.371171426614035, 14.226009828338812), 1.0893847733123374),
        ((-14.646211607866675, 18.914417602659864), 1.2891529064662275),
        ((-7.543143063308616, 13.966194677465825), 0.793933052302259),
    ),
    6: (
        ((-8.479918994860045, 18.253678296238085), 1.0365311651378508),
        ((-14.860542204664105, 12.503162004195497), 1.1965367065953907),
        ((-12.35694891522666, 17.818114445685254), 0.9358443348664574),
        ((-8.758321968744118, 14.408886599703795), 1.3217239348463434),
        ((-16.882384893702813, 18.10197903863798), 1.3243033619630187),
        ((-11.696841788370122, 13.317770751248737), 1.1964670541964186),
    ),
}


def assert_penalty_margins(scenario):
    """A penalty run of scenario converges, and every accepted iterate has
    min eval_h >= 0 and min g >= -1e-12.

    Each succession takes the last accepted iterate as its anchor, and
    check_anchor raises InfeasibleAnchorError on a row below
    -ANCHOR_FEASIBILITY_TOL (1e-8).  extract polishes the g >= 0 rows a
    solve leaves active as equalities, so they hold to rounding, far inside
    that; the keep-outs are met to the solver's tolerance.
    """
    run = solve_quadrotor(scenario)
    assert run.report.converged
    iterates = run.report.iterates
    assert min(float(eval_h(run.problem, z).min()) for z in iterates) >= 0.0
    assert min(float(eval_g(run.problem, z).min()) for z in iterates) >= -1e-12


@pytest.mark.parametrize("layout", sorted(PENALTY_LAYOUTS))
def test_six_cylinder_penalty_run_keeps_its_margins(quad_scenario, layout):
    assert_penalty_margins(
        dataclasses.replace(
            quad_scenario,
            p0=(-20.0, 15.0, 0.0),
            pf=(-4.0, 17.0, 0.5),
            obstacles=tuple(Obstacle(center, radius) for center, radius in PENALTY_LAYOUTS[layout]),
            penalty_lambda=100.0,
        )
    )


def test_builtin_penalty_run_keeps_its_margins(quad_scenario):
    assert_penalty_margins(dataclasses.replace(quad_scenario, penalty_lambda=100.0))


def test_first_succession_starts_from_the_floor(monkeypatch, quad_problem, quad_config, quad_start):
    # the floor's x, s and z on the fixed rows; on the appended region rows
    # the slack b - A x clipped at 0 and a zero dual; no KKT structure
    calls = []
    solve = conic.solve

    def recording(program, *args, start=None, **kwargs):
        sol = solve(program, *args, start=start, **kwargs)
        calls.append((program, start, sol))
        return sol

    monkeypatch.setattr(conic, "solve", recording)
    scvx(quad_problem, quad_start, quad_config)
    (floor_program, floor_start, floor), (program, start, _) = calls[:2]
    assert floor_start is None
    m = floor_program.n_rows
    assert program.n_rows > m
    assert start is not None and start.kkt is None
    assert start.x.tobytes() == floor.x.tobytes()
    assert start.s[:m].tobytes() == floor.s.tobytes()
    assert start.z_dual[:m].tobytes() == floor.z_dual.tobytes()
    slack = (program.b - program.A @ floor.x)[m:]
    assert start.s[m:].tobytes() == np.maximum(slack, 0.0).tobytes()
    assert not start.z_dual[m:].any()


def test_init_fallback_is_logged(caplog, quad_scenario):
    # one cylinder at (0, 0): point 12 of the straight-line guess sits on
    # its axis, so the init takes its subgradient fallback on that one row
    scenario = dataclasses.replace(
        quad_scenario, obstacles=(Obstacle(center=(0.0, 0.0), radius=2.0),)
    )
    with caplog.at_level(logging.WARNING, logger="scvx"):
        run = solve_quadrotor(scenario)
    assert run.report.converged
    records = [r for r in caplog.records if r.name == "scvx"]
    assert [r.levelno for r in records] == [logging.WARNING]
    message = records[0].getMessage()
    assert message.startswith("feasibility init: ")
    assert "(state-constraint, step 12, component 0)" in message
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("scvx").handlers)


def test_convex_problem_converges_in_one_succession(convex_run):
    assert convex_run.report.successions == 1
    assert convex_run.report.converged
    # the region does not depend on the anchor: the one solve certifies itself
    assert convex_run.report.records[0].accepted
    assert convex_run.report.fixed_point_residual == 0.0


# ---------------------------------------------------------------------------
# small-problem behavior


def test_disk_problem_descends_to_the_tangent():
    problem = unit_disk_problem()
    z0 = hold_anchor(problem, [3.0, 0.0])
    report = scvx(problem, z0, tiny_config())
    assert report.converged
    # cost is the control norm; holding position needs no control
    assert report.objective_values[-1] == pytest.approx(0.0, abs=1e-9)
    assert float(eval_h(problem, report.z).min()) >= -1e-7


def test_anchor_validation_errors():
    problem = unit_disk_problem()
    with pytest.raises(DimensionError, match="coordinates"):
        scvx(problem, np.zeros(3), tiny_config())
    with pytest.raises(InfeasibleAnchorError):
        scvx(problem, hold_anchor(problem, [0.1, 0.0]), tiny_config())


def test_non_finite_anchor_is_named_before_any_solve(monkeypatch):
    # a NaN or infinite coordinate is a malformed anchor, not an infeasible
    # one: scvx names the coordinate, as find_feasible_start does for a guess
    problem = unit_disk_problem()
    programs = _record_programs(monkeypatch)
    for lam in (0.0, 1.0):
        for bad in (np.nan, np.inf, -np.inf):
            z0 = hold_anchor(problem, [2.0, 1.0])
            z0[3] = bad
            with pytest.raises(DimensionError, match="anchor has a non-finite coordinate at index 3"):
                scvx(problem, z0, tiny_config(penalty=PenaltyConfig(lam=lam)))
    assert programs == []


def test_config_validation():
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(DimensionError, match="epsilon"):
            ScvxConfig(epsilon=epsilon)
    for count in (0, 2.5, float("inf"), True):
        with pytest.raises(DimensionError, match="successions"):
            ScvxConfig(max_successions=count)


# ---------------------------------------------------------------------------
# feasibility initializer


def test_feasible_start_escapes_the_keepout():
    problem = unit_disk_problem()
    guess = hold_anchor(problem, [0.0, 0.0])  # dead center of the keep-out
    config = tiny_config()
    z = find_feasible_start(problem, guess, config)
    check_anchor(problem, z, "equality")
    assert float(eval_h(problem, z).min()) >= -1e-8


def test_feasible_start_from_the_base_set_midpoint():
    problem = unit_disk_problem()
    z = start_at_midpoint(problem, tiny_config())
    check_anchor(problem, z, "equality")


def test_feasible_start_returns_valid_guess_unchanged():
    problem = unit_disk_problem()
    guess = hold_anchor(problem, [2.0, 1.0])
    z = find_feasible_start(problem, guess, tiny_config())
    np.testing.assert_array_equal(z, guess)


def test_feasible_start_rejects_wrong_size(monkeypatch):
    problem = unit_disk_problem()
    with pytest.raises(DimensionError, match="coordinates"):
        find_feasible_start(problem, np.zeros(2), tiny_config())
    # a non-finite coordinate is rejected before any cone solve
    programs = _record_programs(monkeypatch)
    for bad in (np.nan, np.inf, -np.inf):
        guess = hold_anchor(problem, [2.0, 1.0])
        guess[3] = bad
        with pytest.raises(DimensionError, match="non-finite coordinate at index 3"):
            find_feasible_start(problem, guess, tiny_config())
    assert programs == []


def _record_violations(monkeypatch):
    """Every violation find_feasible_start measures, in order."""
    seen = []
    violation = driver._violation

    def recording(*args):
        seen.append(violation(*args))
        return seen[-1]

    monkeypatch.setattr(driver, "_violation", recording)
    return seen


def _record_programs(monkeypatch):
    """Every cone program solved, in order."""
    programs = []
    solve = conic.solve

    def recording(program, *args, **kwargs):
        programs.append(program)
        return solve(program, *args, **kwargs)

    monkeypatch.setattr(conic, "solve", recording)
    return programs


def _largest_cone(programs):
    return max((k.dim for p in programs for k in p.cones if k.kind == "soc"), default=0)


def covered_box_problem():
    # keep-out radius swallows the whole base box: no feasible point exists
    fn = NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-10.0)
    return two_step_problem(fn, box=6.0)


@pytest.mark.parametrize("covered", [False, True], ids=["escape", "covered-box"])
def test_feasibility_rounds_never_raise_the_violation(monkeypatch, covered):
    # each round's slack sum majorizes the violation and equals it at the
    # incumbent, so the violation can only go down, up to solver tolerance
    seen = _record_violations(monkeypatch)
    monkeypatch.setattr(driver, "FEASIBILITY_STALL_LIMIT", 5)
    if covered:
        with pytest.raises(InfeasibleScenarioError):
            start_at_midpoint(covered_box_problem(), tiny_config())
    else:
        problem = unit_disk_problem()
        find_feasible_start(problem, hold_anchor(problem, [0.0, 0.0]), tiny_config())
    assert len(seen) >= 2
    assert np.all(np.diff(seen) <= 1e-9)


def test_init_programs_carry_no_cone_beyond_the_base_set(
    monkeypatch, quad_scenario, quad_problem, quad_config
):
    programs = _record_programs(monkeypatch)
    problem = unit_disk_problem()
    find_feasible_start(problem, hold_anchor(problem, [0.0, 0.0]), tiny_config())
    assert programs and _largest_cone(programs) == 0  # a box base set: no SOC
    programs.clear()
    find_feasible_start(quad_problem, initial_guess(quad_scenario), quad_config)
    assert programs and _largest_cone(programs) == 4  # the thrust ball and cone


def test_covered_base_set_is_reported_infeasible(monkeypatch):
    monkeypatch.setattr(driver, "FEASIBILITY_STALL_LIMIT", 5)
    with pytest.raises(InfeasibleScenarioError, match="violation"):
        start_at_midpoint(covered_box_problem(), tiny_config())


def test_nonoptimal_init_round_raises_through_extract(monkeypatch):
    # an init round that ends max-iter is read back by extract, which raises
    # SubsolverError naming the solve's outcome
    solve, extract = conic.solve, driver.extract
    extracted = []

    def stopped(program, *args, **kwargs):
        return dataclasses.replace(solve(program, *args, **kwargs), status="max-iter")

    def recording(artifacts, sol):
        extracted.append(sol.status)
        return extract(artifacts, sol)

    monkeypatch.setattr(conic, "solve", stopped)
    monkeypatch.setattr(driver, "extract", recording)
    problem = unit_disk_problem()
    with pytest.raises(SubsolverError, match=r"subproblem solve returned status 'max-iter'"):
        find_feasible_start(problem, hold_anchor(problem, [0.0, 0.0]), tiny_config())
    assert extracted == ["max-iter"]


def test_inconsistent_pins_are_reported_infeasible(monkeypatch):
    problem = unit_disk_problem()
    n_y = problem.dims.n_y
    base = BaseSet(
        n_y=n_y,
        members=problem.base_set.members
        + (
            Pin(indices=np.array([0]), values=np.array([2.0])),
            Pin(indices=np.array([0]), values=np.array([3.0])),
        ),
    )
    import dataclasses

    clash = dataclasses.replace(problem, base_set=base)
    programs = _record_programs(monkeypatch)
    with pytest.raises(InfeasibleScenarioError, match="empty"):
        start_at_midpoint(clash, tiny_config())
    assert len(programs) == 1  # an empty hard set is final, not retried


def test_feasibility_summary_fields(quad_problem, quad_start):
    summary = feasibility_summary(quad_problem, quad_start)
    assert set(summary) == {
        "defect_max",
        "pin_error",
        "base_margin_min",
        "state_margin_min",
    }
    assert summary["defect_max"] <= 1e-7
    assert summary["state_margin_min"] >= -1e-8
