"""Cone-program assembly of the convex subproblem and solution extraction."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from scvx import conic
from scvx.errors import SubsolverError
from scvx.linearize import FeasibleRegion, Halfspaces, build_feasible_region
from scvx.penalty import PenaltyConfig, penalty_value
from scvx.problem import Ball, BaseSet, Box, Cone, Pin, eval_g
from tests.checks import (
    builder_program,
    dense_polish,
    eval_q,
    halfspace_rows,
    keepout_specs,
    linearize_reference,
    problem_specs,
    solver_objective,
)
from scvx.subproblem import (
    Polish,
    add_halfspace_rows,
    assemble,
    extract,
    fixed_rows,
)
from tests.test_linearize import hold_anchor, unit_disk_problem


def disk_artifacts(x=(2.0, 0.0)):
    problem = unit_disk_problem()
    z = hold_anchor(problem, list(x))
    config = PenaltyConfig()
    region = build_feasible_region(problem, z, "equality")
    return problem, config, z, assemble(problem, config, region)


@pytest.fixture(scope="module")
def quad_region(quad_problem, quad_start):
    return build_feasible_region(quad_problem, quad_start, "equality")


@pytest.fixture(scope="module")
def quad_artifacts(quad_problem, quad_config, quad_region):
    return assemble(quad_problem, quad_config.penalty, quad_region)


@pytest.fixture(scope="module")
def quad_solution(quad_artifacts):
    return conic.solve(quad_artifacts.program, tol=1e-9)


def row_kinds(program):
    """The cone kind of every program row."""
    return np.repeat([k.kind for k in program.cones], [k.dim for k in program.cones])


def assert_exact_dynamics_rows(problem, program, rows, mode):
    """rows hold every defect g_j, in order, as the builders store it.

    equality mode: g_j = 0, a zero-cone row a over the spec's indices with
    -beta in b; penalty mode: g_j >= 0, a nonnegative row -a with beta in b,
    so that its slack b - A y is g_j.  The exact zeros of a are dropped,
    and b is bit for bit the defect's own beta.
    """
    specs = [spec for spec in problem_specs(problem) if spec.kind == "dynamics-defect"]
    assert len(rows) == len(specs)
    kind, sign = ("zero", 1.0) if mode == "equality" else ("nonneg", -1.0)
    assert np.all(row_kinds(program)[rows] == kind)
    A = program.A.tocsr()
    for r, spec in zip(rows, specs):
        assert A.indptr[r + 1] - A.indptr[r] == np.count_nonzero(spec.fn.a)
        expect = np.zeros(program.n_cols)
        expect[spec.indices] = sign * spec.fn.a
        np.testing.assert_array_equal(A[r].toarray().ravel(), expect)
    beta = np.array([-sign * spec.fn.beta for spec in specs])
    np.testing.assert_array_equal(program.b[rows].view(np.uint64), beta.view(np.uint64))


def assert_halfspaces_close_the_program(artifacts, halfspaces):
    """assemble adds the halfspaces last: one nonneg row each, slack coeffs.y[indices] - offset.

    A row stores -coeffs on the halfspace's own indices, without the exact
    zeros, and b holds -offset.
    """
    prog = artifacts.program
    rows = np.arange(prog.n_rows - len(halfspaces), prog.n_rows)
    assert np.all(row_kinds(prog)[rows] == "nonneg")
    A = prog.A.tocsr()
    for r, (indices, coeffs, _) in zip(rows, halfspace_rows(halfspaces)):
        assert A.indptr[r + 1] - A.indptr[r] == np.count_nonzero(coeffs)
        expect = np.zeros(prog.n_cols)
        expect[indices] = -coeffs
        np.testing.assert_array_equal(A[r].toarray().ravel(), expect)
    np.testing.assert_array_equal(prog.b[rows], -halfspaces.offsets)
    return rows


# ---------------------------------------------------------------------------
# layout


def test_benchmark_program_dimensions(quad_problem, quad_artifacts, quad_region):
    # 222 stacked decision coordinates plus 24 control-norm epigraph
    # auxiliaries; the trim thrust is the objective constant, not a column
    prog = quad_artifacts.program
    assert quad_problem.dims.n_y == 222
    assert prog.c.size == 246
    np.testing.assert_array_equal(prog.c[:222], 0.0)
    np.testing.assert_array_equal(prog.c[222:], 1.0)
    assert quad_problem.objective.constant == pytest.approx(9.81, abs=1e-12)
    assert len(quad_region.halfspaces) == 50
    assert_halfspaces_close_the_program(quad_artifacts, quad_region.halfspaces)
    # pins, then the hard dynamics: every zero-cone row, and the dynamics'
    # rows carry their multipliers
    eq = quad_artifacts.polish.rows
    np.testing.assert_array_equal(np.sort(eq), np.flatnonzero(row_kinds(prog) == "zero"))
    np.testing.assert_array_equal(eq[-24 * 6 :], quad_artifacts.dynamics_rows)
    assert eq.size > quad_artifacts.dynamics_rows.size == 24 * 6


def test_positive_weight_turns_dynamics_rows_into_penalty_terms(quad_problem, quad_start):
    # lambda > 0: one weighted epigraph column per dynamics defect after the
    # 24 control norms, and each defect a fixed row g_j >= 0 in place of its
    # zero-cone row; the region holds the 50 keep-out rows, as at lambda = 0
    config = PenaltyConfig(lam=100.0)
    region = build_feasible_region(quad_problem, quad_start, config.mode)
    fixed = fixed_rows(quad_problem, config)
    artifacts = assemble(quad_problem, config, region, fixed)
    c = artifacts.program.c[222:]
    assert c.size == 24 + 24 * 6
    np.testing.assert_array_equal(c[24:], 100.0)
    assert len(region.halfspaces) == 50
    assert_halfspaces_close_the_program(artifacts, region.halfspaces)
    # the multipliers come from the fixed rows g_j >= 0, which directly
    # follow the epigraphs (24 four-row thrust cones, then 144 penalty
    # rows), and the only equality rows are the pins
    np.testing.assert_array_equal(artifacts.dynamics_rows, fixed.dynamics_rows)
    np.testing.assert_array_equal(fixed.dynamics_rows, 24 * 4 + 24 * 6 + np.arange(24 * 6))
    assert_exact_dynamics_rows(quad_problem, fixed.program, fixed.dynamics_rows, "penalty")
    assert_exact_dynamics_rows(quad_problem, artifacts.program, artifacts.dynamics_rows, "penalty")
    pins = np.flatnonzero(row_kinds(artifacts.program) == "zero")
    np.testing.assert_array_equal(artifacts.polish.rows, pins)
    assert pins.size == sum(
        mem.indices.size for mem in quad_problem.base_set.members if isinstance(mem, Pin)
    )


@pytest.mark.parametrize("lam", [0.0, 100.0])
def test_halfspaces_are_the_sparse_rows_of_their_specs(quad_problem, quad_start, lam):
    # each halfspace keeps its keep-out spec's coordinates and the gradient
    # at the projection point over them; its offset is the in-order sum, bit
    # for bit; the region holds one per keep-out spec, in order, in both modes
    config = PenaltyConfig(lam=lam)
    region = build_feasible_region(quad_problem, quad_start, config.mode)
    keepouts = keepout_specs(quad_problem)
    assert len(region.halfspaces) == len(keepouts) == 50
    for (indices, coeffs, offset), spec in zip(halfspace_rows(region.halfspaces), keepouts):
        np.testing.assert_array_equal(indices, spec.indices)
        ref_coeffs, ref_offset = linearize_reference(spec, quad_start)
        np.testing.assert_array_equal(coeffs, ref_coeffs)
        assert offset == ref_offset
    artifacts = assemble(quad_problem, config, region)
    assert_halfspaces_close_the_program(artifacts, region.halfspaces)
    # the dynamics rows are fixed rows in both modes; their program rows drop
    # the exact zeros their coefficients carry
    assert_exact_dynamics_rows(quad_problem, artifacts.program, artifacts.dynamics_rows, config.mode)
    assert any(np.any(spec.fn.a == 0.0) for spec in problem_specs(quad_problem)[: 24 * 6])


def test_halfspace_becomes_one_nonneg_row_with_negated_normal():
    problem, config, z, artifacts = disk_artifacts()
    region = build_feasible_region(problem, z, "equality")
    assert len(region.halfspaces) == 2  # one per temporal point
    r = assert_halfspaces_close_the_program(artifacts, region.halfspaces)[0]
    A = artifacts.program.A.toarray()
    # slack s = b - A y must equal coeffs . y[indices] - offset, with
    # coeffs = (1, 0) on the first state and offset = 1 for the unit disk
    # linearized from (2, 0)
    np.testing.assert_allclose(A[r, 0], -1.0, atol=1e-12)
    assert np.count_nonzero(A[r]) == 1
    assert artifacts.program.b[r] == pytest.approx(-1.0, abs=1e-12)
    # add_halfspace_rows returns the consecutive rows it added, in order,
    # and merges them into a trailing nonnegative cone
    builder = conic.ProgramBuilder()
    builder.add_cols(z.size)
    builder.add_ge([0], [0], [1.0], [0.0])
    program = add_halfspace_rows(
        dataclasses.replace(artifacts, program=builder.build()), region.halfspaces
    ).program
    assert program.n_rows == 3
    np.testing.assert_array_equal(program.b[1:], -region.halfspaces.offsets)
    assert [(k.kind, k.dim) for k in program.cones] == [("nonneg", 3)]


def assert_same_program(got, ref):
    """got and ref are the same program, bit for bit."""
    np.testing.assert_array_equal(got.A.indptr, ref.A.indptr)
    np.testing.assert_array_equal(got.A.indices, ref.A.indices)
    for u, v in ((got.A.data, ref.A.data), (got.b, ref.b), (got.c, ref.c)):
        assert u.dtype == v.dtype == np.float64
        np.testing.assert_array_equal(u.view(np.uint64), v.view(np.uint64))
    assert [(k.kind, k.dim) for k in got.cones] == [(k.kind, k.dim) for k in ref.cones]


@pytest.mark.parametrize("lam", [0.0, 100.0])
def test_empty_region_program_is_the_fixed_rows(quad_problem, lam):
    # the relaxation floor solves the fixed rows as built: the empty
    # region's assembly, from the run's fixed rows or without them, is that
    # program bit for bit, with its polish and dynamics rows
    config = PenaltyConfig(lam=lam)
    fixed = fixed_rows(quad_problem, config)
    base = quad_problem.base_set
    region = FeasibleRegion(base, (), base.coordinate_bounds()[0])
    for artifacts in (
        assemble(quad_problem, config, region, fixed),
        assemble(quad_problem, config, region),
    ):
        assert_same_program(artifacts.program, fixed.program)
        np.testing.assert_array_equal(artifacts.polish.rows, fixed.polish.rows)
        np.testing.assert_array_equal(artifacts.dynamics_rows, fixed.dynamics_rows)
        assert artifacts.problem is quad_problem and artifacts.penalty is config


@pytest.mark.parametrize("lam", [0.0, 100.0])
def test_per_run_program_equals_the_builders(quad_problem, quad_start, lam):
    # the run's fixed rows plus one region's halfspace block are, bit for
    # bit, the program one pair-list builder pass gives; a 0.0 and a -0.0
    # coefficient are dropped as the builder drops them
    config = PenaltyConfig(lam=lam)
    region = build_feasible_region(quad_problem, quad_start, config.mode)
    hs = region.halfspaces
    assert len(hs) == 50
    first = hs.rows == 0
    coeffs = hs.coeffs[first].copy()
    coeffs[np.flatnonzero(coeffs)[:2]] = [0.0, -0.0]
    halfspaces = Halfspaces(  # the first row again, with its zeros signed, then the region
        np.concatenate([hs.rows[first], hs.rows + 1]),
        np.concatenate([hs.indices[first], hs.indices]),
        np.concatenate([coeffs, hs.coeffs]),
        np.concatenate([hs.offsets[:1], hs.offsets]),
    )
    artifacts = assemble(
        quad_problem,
        config,
        dataclasses.replace(region, halfspaces=halfspaces),
        fixed_rows(quad_problem, config),
    )
    got, ref = artifacts.program, builder_program(quad_problem, config, halfspaces)
    assert_same_program(got, ref)
    r = artifacts.program.n_rows - len(halfspaces)
    assert got.A.tocsr()[r].nnz == np.count_nonzero(hs.coeffs[first]) - 2
    # the one-pass build emits each exact defect row where the fixed rows do,
    # ahead of the region's block
    assert artifacts.dynamics_rows.max() < r
    assert_exact_dynamics_rows(quad_problem, ref, artifacts.dynamics_rows, config.mode)


@pytest.mark.parametrize("lam", [0.0, 100.0])
def test_base_set_rows_in_any_member_order_equal_the_builders(quad_problem, quad_start, lam):
    # members shuffled across types and widths, with infinite box bounds and
    # a box of none: one block per group gives, bit for bit, the program one
    # pair-list builder pass gives, and the pin rows in group order
    config = PenaltyConfig(lam=lam)
    region = build_feasible_region(quad_problem, quad_start, config.mode)
    members = list(quad_problem.base_set.members)
    n_y = quad_problem.dims.n_y
    members += [
        Box(np.arange(3), np.array([-np.inf, -50.0, -np.inf]), np.array([50.0, np.inf, np.inf])),
        Box(np.array([3]), np.array([-np.inf]), np.array([np.inf])),
        Ball(np.array([4, 5]), np.zeros(2), 100.0),
        Cone(np.array([n_y - 2, n_y - 1]), np.array([0.0, -1.0]), 0.5),
        Pin(members[0].indices[:2], members[0].values[:2]),
    ]
    order = np.random.default_rng(7).permutation(len(members))
    problem = dataclasses.replace(
        quad_problem, base_set=BaseSet(n_y, tuple(members[j] for j in order))
    )
    fixed = fixed_rows(problem, config)
    got = assemble(problem, config, region, fixed).program
    assert_same_program(got, builder_program(problem, config, region.halfspaces))
    base = problem.base_set
    pinned = [base.members[j] for kind, positions, *_ in base.groups if kind is Pin for j in positions]
    pins = fixed.polish.rows[: sum(m.indices.size for m in pinned)]
    np.testing.assert_array_equal(got.b[pins], np.concatenate([m.values for m in pinned]))
    np.testing.assert_array_equal(got.A.tocsr()[pins].indices, np.concatenate([m.indices for m in pinned]))


def test_control_norm_objective_emits_one_epigraph_per_step():
    problem, config, z, artifacts = disk_artifacts()
    # T=2: a single decision control, one soc of dimension 1 + m
    np.testing.assert_array_equal(artifacts.program.c[problem.dims.n_y :], [1.0])
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
    np.testing.assert_array_equal(a1.polish.rows, a2.polish.rows)
    np.testing.assert_array_equal(a1.dynamics_rows, a2.dynamics_rows)


# ---------------------------------------------------------------------------
# extraction


def test_extract_satisfies_pins_and_dynamics(quad_problem, quad_artifacts, quad_solution):
    assert quad_solution.status == "optimal"
    y, multipliers, value = extract(quad_artifacts, quad_solution)
    # every equality row (pins and dynamics) holds at the polished point
    eq = quad_artifacts.polish.rows
    A = quad_artifacts.program.A
    eq_err = np.abs(A[eq.tolist(), :222] @ y - quad_artifacts.program.b[eq])
    assert float(eq_err.max()) <= 1e-8
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
    # the solution carries a measurable defect: a seeded 1e-6 perturbation
    # (the solve's own defect is at rounding level, where a correction
    # can only trade one rounding error for another)
    rng = np.random.default_rng(0)
    raw = quad_solution.x[:222] + 1e-6 * rng.standard_normal(222)
    polished = quad_artifacts.polish(raw)
    d_raw = float(np.abs(eval_g(quad_problem, raw)).max())
    d_pol = float(np.abs(eval_g(quad_problem, polished)).max())
    assert d_pol <= d_raw
    assert d_pol <= 1e-9
    assert float(np.abs(polished - raw).max()) <= 10.0 * max(d_raw, 1e-12)


def _relative_gap(u, v):
    return float(np.max(np.abs(u - v)) / np.max(np.abs(v)))


def test_sparse_polish_matches_the_dense_one(quad_artifacts, quad_solution):
    # the quad fixture's pins and dynamics rows
    program, rows = quad_artifacts.program, quad_artifacts.polish.rows
    y = quad_solution.x[:222].copy()
    assert _relative_gap(Polish(program, rows, 222)(y), dense_polish(program, rows, 222, y)) <= 1e-12
    # random full-row-rank E: a random sparse block beside a unit diagonal
    rng = np.random.default_rng(5)
    for _ in range(20):
        k, n_y = int(rng.integers(1, 30)), int(rng.integers(30, 80))
        dense = rng.standard_normal((k, n_y)) * (rng.uniform(size=(k, n_y)) < 0.2)
        dense[:, :k] += np.diag(rng.uniform(0.5, 2.0, k))
        extra = rng.standard_normal((k, 3))  # columns beyond y are not polished
        A = sp.csc_matrix(np.hstack([dense, extra]))
        program = conic.ConicProgram(np.zeros(n_y + 3), A, rng.standard_normal(k), [conic.Cone("zero", k)])
        rows, y = rng.permutation(k), rng.standard_normal(n_y)
        got = Polish(program, rows, n_y)(y)
        assert _relative_gap(got, dense_polish(program, rows, n_y, y)) <= 1e-12
        np.testing.assert_allclose(dense[rows] @ got, program.b[rows], atol=1e-10)


def test_dependent_polish_rows_take_the_least_squares_path(monkeypatch, quad_artifacts, quad_solution):
    # a repeated pin row makes E E^T exactly singular: the dense Cholesky
    # factor fails on it, and both polishes answer by least squares
    program, rows = quad_artifacts.program, quad_artifacts.polish.rows
    rows = np.concatenate([rows, rows[:1]])
    E = program.A[rows.tolist(), :222].toarray()
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cho_factor(E @ E.T)
    lstsq, calls = np.linalg.lstsq, []

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    y = quad_solution.x[:222].copy()
    got = Polish(program, rows, 222)(y)
    assert len(calls) == 1
    assert _relative_gap(got, dense_polish(program, rows, 222, y)) <= 1e-12


def test_extract_rejects_bad_status_by_default(quad_artifacts, quad_solution):
    bad = dataclasses.replace(quad_solution, status="numerical-error")
    with pytest.raises(SubsolverError):
        extract(quad_artifacts, bad)


def test_extract_error_names_the_status_and_iteration_count(quad_artifacts, quad_solution):
    # the CLI prints only the message, so the solve's outcome has to be in it
    bad = dataclasses.replace(quad_solution, status="max-iter", iterations=37)
    with pytest.raises(SubsolverError, match=r"status 'max-iter' after 37 iterations") as info:
        extract(quad_artifacts, bad)
    assert "gap" in str(info.value) and "primal residual" in str(info.value)


def test_disk_subproblem_minimizer_reaches_the_tangent_line():
    # min |u| subject to staying right of y_0 >= 1 from the anchor (2, 0):
    # zero control is feasible, so the optimum is exactly zero cost
    problem, config, z, artifacts = disk_artifacts()
    sol = conic.solve(artifacts.program, tol=1e-9)
    assert sol.status == "optimal"
    y, _, value = extract(artifacts, sol)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert y[0] >= 1.0 - 1e-9 and y[2] >= 1.0 - 1e-9
