"""Cone-program assembly of the convex subproblem and solution extraction."""

import dataclasses

import numpy as np
import pytest

from scvx import conic
from scvx.driver import ScvxConfig, find_feasible_start, scvx
from scvx.errors import SubsolverError
from scvx.linearize import build_feasible_region
from scvx.penalty import PenaltyConfig, penalty_value
from scvx.problem import AffineFn, ConvexDynamics, eval_g, eval_q
from tests.checks import solver_objective
from scvx.subproblem import (
    assemble,
    extract,
    polish_equalities,
)
from tests.test_linearize import hold_anchor, unit_disk_problem


def disk_artifacts(x=(2.0, 0.0)):
    problem = unit_disk_problem()
    z = hold_anchor(problem, list(x))
    config = PenaltyConfig()
    region = build_feasible_region(problem, z, "equality")
    return problem, config, z, assemble(problem, config, region)


@pytest.fixture(scope="module")
def quad_artifacts(quad_problem, quad_config, quad_start):
    region = build_feasible_region(quad_problem, quad_start, "equality")
    return assemble(quad_problem, quad_config.penalty, region)


@pytest.fixture(scope="module")
def quad_solution(quad_artifacts):
    return conic.solve(quad_artifacts.program, tol=1e-9, max_iter=100)


# ---------------------------------------------------------------------------
# layout maps


def test_row_and_column_maps_partition_the_program(quad_artifacts):
    prog = quad_artifacts.program
    rows = np.concatenate([np.array(list(s.range())) for s in quad_artifacts.row_map])
    assert rows.size == prog.b.size
    assert np.array_equal(np.sort(rows), np.arange(prog.b.size))
    cols = np.concatenate(
        [np.array(list(s.range())) for s in quad_artifacts.variable_map]
    )
    assert cols.size == prog.c.size
    assert np.array_equal(np.sort(cols), np.arange(prog.c.size))


def test_benchmark_program_dimensions(quad_artifacts):
    # 222 stacked decision coordinates plus 24 control-norm epigraph
    # auxiliaries; the trim thrust is the objective constant, not a column
    assert quad_artifacts.columns("y").size == 222
    assert quad_artifacts.columns("cost").size == 24
    assert quad_artifacts.program.c.size == 246
    assert quad_artifacts.constant_offset == pytest.approx(9.81, abs=1e-12)
    assert quad_artifacts.rows("halfspace").size == 50


def test_positive_weight_turns_dynamics_rows_into_penalty_terms(quad_problem, quad_start):
    # lambda > 0: one weighted epigraph column per dynamics defect after the
    # 24 control norms, and no zero-cone dynamics rows
    region = build_feasible_region(quad_problem, quad_start, "penalty")
    artifacts = assemble(quad_problem, PenaltyConfig(lam=100.0), region)
    cols = artifacts.columns("cost")
    assert cols.size == 24 + 24 * 6
    np.testing.assert_array_equal(artifacts.program.c[cols[24:]], 100.0)
    assert artifacts.rows("dyn-eq").size == 0
    assert artifacts.rows("halfspace").size == 50 + 24 * 6


def test_halfspace_becomes_one_nonneg_row_with_negated_normal():
    problem, config, z, artifacts = disk_artifacts()
    rows = artifacts.rows("halfspace")
    assert rows.size == 2  # one per temporal point
    A = artifacts.program.A.toarray()
    r = rows[0]
    # slack s = b - A y must equal normal . y - offset, with normal = e0,
    # offset = 1 for the unit disk linearized from (2, 0)
    np.testing.assert_allclose(A[r, 0], -1.0, atol=1e-12)
    assert np.count_nonzero(A[r]) == 1
    assert artifacts.program.b[r] == pytest.approx(-1.0, abs=1e-12)


def test_control_norm_objective_emits_one_epigraph_per_step():
    problem, config, z, artifacts = disk_artifacts()
    # T=2: a single decision control, one soc of dimension 1 + m
    tcols = artifacts.columns("cost")
    assert tcols.size == 1
    np.testing.assert_array_equal(artifacts.program.c[tcols], [1.0])
    socs = [c for c in artifacts.program.cones if c.kind == "soc"]
    assert [c.dim for c in socs] == [2]


def test_assembly_is_deterministic(quad_problem, quad_config, quad_start):
    region = build_feasible_region(quad_problem, quad_start, "equality")
    a1 = assemble(quad_problem, quad_config.penalty, region)
    a2 = assemble(quad_problem, quad_config.penalty, region)
    np.testing.assert_array_equal(a1.program.c, a2.program.c)
    np.testing.assert_array_equal(a1.program.b, a2.program.b)
    assert (a1.program.A != a2.program.A).nnz == 0
    assert [(c.kind, c.dim) for c in a1.program.cones] == [
        (c.kind, c.dim) for c in a2.program.cones
    ]
    assert a1.row_map == a2.row_map
    assert a1.variable_map == a2.variable_map


# ---------------------------------------------------------------------------
# extraction


def test_extract_satisfies_pins_and_dynamics(quad_problem, quad_artifacts, quad_solution):
    assert quad_solution.status == "optimal"
    y, multipliers, value = extract(quad_artifacts, quad_solution)
    pins = quad_artifacts.rows("pin")
    A = quad_artifacts.program.A
    pin_err = np.abs(A[pins.tolist(), :222] @ y - quad_artifacts.program.b[pins])
    assert float(pin_err.max()) <= 1e-8
    assert float(np.abs(eval_g(quad_problem, y)).max()) <= 1e-7
    assert multipliers.size == 24 * 6


def test_extract_recomputes_objective_from_decision_vector(
    quad_problem, quad_config, quad_artifacts, quad_solution
):
    y, _, value = extract(quad_artifacts, quad_solution)
    assert value == pytest.approx(
        penalty_value(quad_problem, quad_config.penalty, y), abs=1e-12
    )
    assert abs(value - solver_objective(quad_artifacts, quad_solution)) <= 1e-6


def test_subproblem_step_never_increases_penalty(
    quad_problem, quad_config, quad_start, quad_artifacts, quad_solution
):
    y, _, value = extract(quad_artifacts, quad_solution)
    anchor_value = penalty_value(quad_problem, quad_config.penalty, quad_start)
    assert value <= anchor_value + 1e-9
    # the step keeps every keep-out margin nonnegative to solver tolerance
    assert float(eval_q(quad_problem, y)[24 * 6 :].min()) >= -1e-7


def test_polish_tightens_equality_rows(quad_problem, quad_artifacts, quad_solution):
    raw = quad_solution.x[:222].copy()
    polished = polish_equalities(quad_artifacts, raw)
    d_raw = float(np.abs(eval_g(quad_problem, raw)).max())
    d_pol = float(np.abs(eval_g(quad_problem, polished)).max())
    assert d_pol <= d_raw
    assert d_pol <= 1e-9
    assert float(np.abs(polished - raw).max()) <= 10.0 * max(d_raw, 1e-12)


def test_equality_rows_are_the_same_for_affine_and_convex_dynamics():
    # ConvexDynamics with all-affine components is the same model as
    # AffineDynamics, and equality mode must treat it the same way
    problem = unit_disk_problem()
    dyn = problem.dynamics
    convex = dataclasses.replace(
        problem,
        dynamics=ConvexDynamics(
            tuple(AffineFn(np.concatenate([dyn.A[j], dyn.B[j]]), dyn.d[j]) for j in range(2))
        ),
    )
    config = ScvxConfig(penalty=PenaltyConfig())
    guess = hold_anchor(problem, [0.0, 0.5])
    runs = [scvx(p, find_feasible_start(p, guess, config), config) for p in (problem, convex)]
    assert runs[0].converged and runs[1].converged
    np.testing.assert_array_equal(runs[0].z, runs[1].z)
    np.testing.assert_array_equal(runs[0].multipliers, runs[1].multipliers)


def test_extract_rejects_bad_status_by_default(quad_artifacts, quad_solution):
    bad = dataclasses.replace(quad_solution, status="numerical-error")
    with pytest.raises(SubsolverError):
        extract(quad_artifacts, bad)


def test_disk_subproblem_minimizer_reaches_the_tangent_line():
    # min |u| subject to staying right of y_0 >= 1 from the anchor (2, 0):
    # zero control is feasible, so the optimum is exactly zero cost
    problem, config, z, artifacts = disk_artifacts()
    sol = conic.solve(artifacts.program, tol=1e-9)
    assert sol.status == "optimal"
    y, _, value = extract(artifacts, sol)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert y[0] >= 1.0 - 1e-9 and y[2] >= 1.0 - 1e-9
