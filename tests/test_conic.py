"""Interior-point cone solver: hand-worked programs, random suites, certificates."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scvx import conic
from scvx.bench import builtin_quadrotor, solve_quadrotor
from scvx.conic import (
    _KKT,
    _REG,
    _KKTStructure,
    Cone,
    ConicProgram,
    ProgramBuilder,
    _Blocks,
    _Scaling,
    _solve,
    dump_program,
    solve,
)
from scvx.errors import DimensionError
from tests.checks import (
    ReferenceBlocks,
    ReferenceBuilder,
    ReferenceScaling,
    interior_point,
    loosened,
    residuals,
    sparse_feasible_program,
    symmetric_order_reference,
)


def make_program(c, A, b, cones):
    return ConicProgram(
        c=np.asarray(c, dtype=float),
        A=sp.csc_matrix(np.atleast_2d(np.asarray(A, dtype=float))),
        b=np.asarray(b, dtype=float),
        cones=tuple(cones),
    )


def random_feasible_program(rng):
    """Feasible and bounded by construction: interior primal and dual points."""
    n = int(rng.integers(2, 12))
    cones = []
    n_eq = int(rng.integers(0, min(3, n)))
    if n_eq:
        cones.append(Cone("zero", n_eq))
    cones.append(Cone("nonneg", int(rng.integers(1, 8))))
    for _ in range(int(rng.integers(0, 3))):
        cones.append(Cone("soc", int(rng.integers(2, 6))))
    return feasible_program(rng, n, cones)


def feasible_program(rng, n, cones):
    """A dense program over n columns and the cones in the given order,
    feasible and bounded by construction: interior primal and dual points."""
    m = sum(k.dim for k in cones)
    A = rng.standard_normal((m, n))

    def interior(allow_free):
        v = np.empty(m)
        pos = 0
        for k in cones:
            if k.kind == "zero":
                v[pos : pos + k.dim] = rng.standard_normal(k.dim) if allow_free else 0.0
            elif k.kind == "nonneg":
                v[pos : pos + k.dim] = rng.uniform(0.1, 2.0, k.dim)
            else:
                tail = rng.standard_normal(k.dim - 1)
                v[pos] = np.linalg.norm(tail) + rng.uniform(0.1, 2.0)
                v[pos + 1 : pos + k.dim] = tail
            pos += k.dim
        return v

    b = A @ rng.standard_normal(n) + interior(allow_free=False)
    c = -(A.T @ interior(allow_free=True))
    return make_program(c, A, b, cones)


# ---------------------------------------------------------------------------
# hand-worked programs


def test_active_bound():
    # minimize x subject to x >= 1
    prog = make_program([1.0], [[-1.0]], [-1.0], [Cone("nonneg", 1)])
    sol = solve(prog, tol=1e-9)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)


def test_norm_epigraph():
    # minimize t subject to (t, 3, 4) in soc3; optimum t = 5
    prog = make_program([1.0], [[-1.0], [0.0], [0.0]], [0.0, 3.0, 4.0], [Cone("soc", 3)])
    sol = solve(prog, tol=1e-9)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(5.0, abs=1e-8)


def test_equality_with_orthant_duals():
    # minimize x1+x2 subject to x1+x2 = 1, x >= 0; value 1, equality dual -1
    prog = make_program(
        [1.0, 1.0],
        [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 0.0, 0.0],
        [Cone("zero", 1), Cone("nonneg", 2)],
    )
    sol = solve(prog, tol=1e-9)
    assert sol.status == "optimal"
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.all(sol.x >= -1e-9)
    assert sol.z_dual[0] == pytest.approx(-1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# residual recomputation


def test_residuals_small_at_optimum():
    prog = make_program([1.0], [[-1.0], [0.0], [0.0]], [0.0, 3.0, 4.0], [Cone("soc", 3)])
    sol = solve(prog, tol=1e-9)
    pres, dres, gap = residuals(prog, sol)
    assert max(pres, dres, gap) <= 1e-9


def test_residuals_grow_under_perturbation():
    prog = make_program([1.0], [[-1.0], [0.0], [0.0]], [0.0, 3.0, 4.0], [Cone("soc", 3)])
    sol = solve(prog, tol=1e-9)
    pres0, _, _ = residuals(prog, sol)
    import dataclasses

    bumped = dataclasses.replace(sol, x=sol.x + 1e-2)
    pres1, _, _ = residuals(prog, bumped)
    assert pres1 > pres0 + 1e-3


# ---------------------------------------------------------------------------
# random feasible suite


def test_duality_sandwich(rng):
    for _ in range(25):
        prog = random_feasible_program(rng)
        sol = solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        pobj = float(prog.c @ sol.x)
        assert pobj >= -float(prog.b @ sol.z_dual) - 2e-9 * (1.0 + abs(pobj))


def test_cost_scaling_leaves_argmin():
    # distance-to-halfspace programs have a unique minimizer, so the argmin
    # must be invariant under positive cost scaling
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        z0 = rng.standard_normal(k)
        a = rng.standard_normal(k)
        bval = float(a @ z0) + rng.uniform(0.5, 2.0)  # a.w >= bval, violated at z0
        # columns (w, t): minimize t s.t. (t, w - z0) in soc, a.w - bval >= 0
        A = np.zeros((k + 2, k + 1))
        b = np.zeros(k + 2)
        A[0, k] = -1.0
        A[1 : k + 1, :k] = -np.eye(k)
        b[1 : k + 1] = -z0
        A[k + 1, :k] = -a
        b[k + 1] = -bval
        prog = make_program(
            np.eye(k + 1)[k], A, b, [Cone("soc", k + 1), Cone("nonneg", 1)]
        )
        sol1 = solve(prog, tol=1e-9)
        scaled = ConicProgram(c=4.0 * prog.c, A=prog.A, b=prog.b, cones=prog.cones)
        sol2 = solve(scaled, tol=1e-9)
        assert sol1.status == sol2.status == "optimal"
        expect = z0 + a * (bval - a @ z0) / (a @ a)
        np.testing.assert_allclose(sol1.x[:k], expect, atol=1e-7)
        np.testing.assert_allclose(sol1.x[:k], sol2.x[:k], atol=1e-7)


def test_dependent_equality_rows_fall_back_to_partial_pivoting():
    # diagonal pivots get no dynamic regularization, so a repeated equality
    # row can cancel one to exactly zero (SuperLU raises on the W = I start)
    # or to garbage; the solve must still end optimal, through the retry
    rng = np.random.default_rng(11)
    singular_starts, retries = 0, 0
    for k in range(60):
        dependent = k % 2 == 1
        prog = sparse_feasible_program(rng, dependent)
        sol = solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        assert max(residuals(prog, sol)) <= 1e-8
        retries += dependent and sol.pivoting == "partial"
        if dependent:
            structure = _KKTStructure(prog.A, prog.cones)
            kkt = _KKT(structure, prog.A, "diagonal")
            try:
                kkt.factor(structure.blocks.identity_squared())
            except RuntimeError as err:
                assert "exactly singular" in str(err)
                assert sol.pivoting == "partial"
                singular_starts += 1
    assert retries >= 1 and singular_starts >= 1
    plain = solve(random_feasible_program(np.random.default_rng(3)), tol=1e-9)
    assert plain.status == "optimal" and plain.pivoting == "diagonal"


def test_warm_attempt_keeps_the_start_pivoting():
    # a solution that needed partial pivoting hands it to a solve started
    # from it: on diagonal pivots the warm attempt would fail again on the
    # repeated equality row and fall back cold
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 3:
        prog = sparse_feasible_program(rng, True)
        cold = solve(prog, tol=1e-9)
        if cold.pivoting != "partial":
            continue
        warm = solve(prog, tol=1e-9, start=cold)
        attempt = _solve(prog, cold.kkt, 1e-9, "partial", cold)
        assert (warm.status, warm.start, warm.pivoting) == ("optimal", "warm", "partial")
        assert warm.iterations == attempt.iterations
        checked += 1


def test_certificate_from_diagonal_pivots_is_rechecked():
    # two equal equality rows and a nonneg row over 46 columns: on diagonal
    # pivots the dual drifts along the rows' null space (|y| ~ 1e16) until
    # its rounding passes the residual test of the infeasibility
    # certificate; the certificate's re-evaluated b.y rejects it
    rng = np.random.default_rng(11)
    prog = [sparse_feasible_program(rng, k % 2 == 1) for k in range(228)][-1]
    kkt = _KKTStructure(prog.A, prog.cones)
    assert _solve(prog, kkt, 1e-9, "diagonal").status != "primal-infeasible"
    sol = solve(prog, tol=1e-9)
    assert sol.status == "optimal" and sol.pivoting == "partial"
    assert max(residuals(prog, sol)) <= 1e-8


def test_zero_cone_in_any_position():
    # a zero-cone row belongs to no cone block wherever it sits: moving the
    # zero cones to the front only permutes the rows, and the slack stays
    # exactly 0 on them
    rng = np.random.default_rng(21)
    for _ in range(20):
        cones = [Cone("nonneg", int(rng.integers(1, 5))), Cone("zero", int(rng.integers(1, 3)))]
        cones += [Cone("soc", int(rng.integers(2, 6))) for _ in range(int(rng.integers(1, 3)))]
        cones.append(Cone("zero", 1))
        prog = feasible_program(rng, int(rng.integers(6, 12)), cones)
        zero = np.concatenate([np.full(k.dim, k.kind == "zero") for k in cones])
        order = np.concatenate([np.flatnonzero(zero), np.flatnonzero(~zero)])
        front = ConicProgram(
            prog.c, prog.A[order], prog.b[order],
            [Cone("zero", int(zero.sum()))] + [k for k in cones if k.kind != "zero"],
        )
        anywhere, first = solve(prog, tol=1e-9), solve(front, tol=1e-9)
        assert anywhere.status == first.status == "optimal"
        objective = float(prog.c @ first.x)
        assert abs(float(prog.c @ anywhere.x) - objective) <= 1e-8 * (1.0 + abs(objective))
        assert np.all(anywhere.s[zero] == 0.0)
        assert np.all(first.s[: zero.sum()] == 0.0)
        assert max(residuals(prog, anywhere)) <= 1e-8


def test_bitwise_deterministic_resolve():
    rng = np.random.default_rng(3)
    prog = random_feasible_program(rng)
    sol1 = solve(prog, tol=1e-9)
    sol2 = solve(prog, tol=1e-9)
    assert sol1.iterations == sol2.iterations
    assert np.array_equal(sol1.x, sol2.x)
    assert np.array_equal(sol1.s, sol2.s)
    assert np.array_equal(sol1.z_dual, sol2.z_dual)


def test_warm_start_from_a_neighbouring_solution():
    # loosening nonnegative rows keeps the program feasible and bounded;
    # the warm solve starts from the solution before the change
    rng = np.random.default_rng(17)
    for _ in range(20):
        prog = random_feasible_program(rng)
        base = solve(prog, tol=1e-9)
        assert base.status == "optimal"
        b = prog.b.copy()
        pos = 0
        for k in prog.cones:
            if k.kind == "nonneg":
                rows = pos + np.flatnonzero(rng.random(k.dim) < 0.5)
                b[rows] += rng.uniform(0.0, 0.5, rows.size)
            pos += k.dim
        moved = ConicProgram(prog.c, prog.A, b, prog.cones)
        cold, warm = solve(moved, tol=1e-9), solve(moved, tol=1e-9, start=base)
        assert cold.status == warm.status == "optimal"
        assert cold.start == "cold" and warm.start == "warm"
        objective = float(moved.c @ cold.x)
        assert abs(float(moved.c @ warm.x) - objective) <= 1e-8 * (1.0 + abs(objective))
        assert max(residuals(moved, warm)) <= 1e-8
        again = solve(moved, tol=1e-9, start=base)
        assert again.iterations == warm.iterations
        for u, v in ((warm.x, again.x), (warm.s, again.s), (warm.z_dual, again.z_dual)):
            assert np.array_equal(u, v)

    # a start outside the cone fails the warm attempt; the cold one answers
    outside = replace(base, s=-_Blocks(prog.cones).identity())
    sol = solve(moved, tol=1e-9, start=outside)
    assert sol.status == "optimal" and sol.start == "cold"
    assert sol.iterations > cold.iterations  # the failed warm attempt counts
    with pytest.raises(DimensionError, match="start"):
        solve(moved, tol=1e-9, start=replace(base, x=base.x[1:]))


def test_warm_start_shifts_the_previous_point_into_the_cone(monkeypatch):
    # the warm attempt starts at x = x*, s = restrict(s*) + (1 - w) e and
    # z = z* + (1 - w) e, bit for bit, with tau = 1: its first interior()
    # call sees that s and z, and its first primal residual is A x* + s - b.
    # Re-solving a program from its own solution, that residual is the
    # shift (1 - w) e alone, up to the solve's tolerance; a start scaled
    # toward x = 0 would leave -(1 - w) b besides.
    seen, interior = [], _Blocks.interior
    norms, norm = [], conic._norm

    def spying(self, s, z):
        seen.append((s.copy(), z.copy()))
        return interior(self, s, z)

    def recording(r):
        norms.append(r.copy())
        return norm(r)

    shift = 1.0 - conic._WARM_WEIGHT
    rng = np.random.default_rng(29)
    cones = [Cone("zero", 2), Cone("nonneg", 4), Cone("soc", 3), Cone("zero", 1), Cone("soc", 4)]
    for _ in range(5):
        prog = feasible_program(rng, 9, cones)
        base = solve(prog, tol=1e-9)
        assert base.status == "optimal"
        blocks = _Blocks(prog.cones)
        e = blocks.identity()
        for target in (prog, loosened(rng, prog)):
            seen.clear()
            norms.clear()
            with monkeypatch.context() as m:
                m.setattr(_Blocks, "interior", spying)
                m.setattr(conic, "_norm", recording)
                warm = solve(target, tol=1e-9, start=base)
            assert (warm.status, warm.start) == ("optimal", "warm")
            s0, z0 = seen[0]
            assert np.array_equal(_bits(s0), _bits(blocks.restrict(base.s) + shift * e))
            assert np.array_equal(_bits(z0), _bits(base.z_dual + shift * e))
            # _norm measures |b| and |c| first, then the first iteration's
            # primal residual A x + s - b tau
            residual = norms[2]
            assert np.array_equal(_bits(residual), _bits((target.A @ base.x + s0) - target.b * 1.0))
            if target is prog:
                drift = np.linalg.norm(residual - shift * e)
                assert drift <= 1e-8 * (1.0 + np.linalg.norm(prog.b))


def test_warm_attempt_factors_once_per_iteration(monkeypatch):
    # a cold attempt factors at W = I for its start point and then once per
    # iteration but the last, which only measures; a warm attempt starts
    # without a factor
    factors, factor = [0], _KKT.factor

    def counting(self, w2):
        factors[0] += 1
        return factor(self, w2)

    monkeypatch.setattr(_KKT, "factor", counting)
    rng = np.random.default_rng(17)
    for _ in range(10):
        prog = random_feasible_program(rng)
        factors[0] = 0
        base = solve(prog, tol=1e-9)
        assert (base.status, base.start, base.pivoting) == ("optimal", "cold", "diagonal")
        assert factors[0] == base.iterations
        factors[0] = 0
        warm = solve(loosened(rng, prog), tol=1e-9, start=base)
        assert (warm.status, warm.start) == ("optimal", "warm")
        assert factors[0] == warm.iterations - 1


def _recorded_kkt_solves(monkeypatch):
    """A list that collects (kkt, bound, triangular solves, relative residual)
    of every refined KKT solve.

    The residual is the one the refinement measured last, recomputed from
    the returned solution: in the stored order, against the unregularized
    matrix, relative to max(1, |rhs|).
    """
    calls, refined = [], _KKT.solve

    def recording(self, rhs, bound):
        before = self.triangular
        x = refined(self, rhs, bound)
        stored = rhs[self.structure.q]
        r = stored - self.K @ x[self.structure.q]
        relative = np.abs(r).max() / max(1.0, np.abs(stored).max())
        calls.append((self, bound, self.triangular - before, relative))
        return x

    monkeypatch.setattr(_KKT, "solve", recording)
    return calls


def test_cold_start_refines_to_the_strict_bound(monkeypatch):
    # the cold start's two least-squares solves come before any mu and
    # refine to 1e-13; an iteration's solves refine to a bound set by its
    # mu, within [1e-13, 1e-6], looser than 1e-13 while mu is large
    calls = _recorded_kkt_solves(monkeypatch)
    rng = np.random.default_rng(17)
    for _ in range(10):
        prog = random_feasible_program(rng)
        calls.clear()
        sol = solve(prog, tol=1e-9)
        assert (sol.status, sol.start, sol.pivoting) == ("optimal", "cold", "diagonal")
        bounds = [bound for _, bound, _, _ in calls]
        assert bounds[:2] == [1e-13, 1e-13]
        assert all(1e-13 <= bound <= 1e-6 for bound in bounds[2:])
        assert bounds[2] > 1e-13  # the first iteration's mu is about 1
        calls.clear()
        warm = solve(loosened(rng, prog), tol=1e-9, start=sol)
        assert warm.start == "warm"
        assert calls[0][1] > 1e-13  # a warm attempt makes no least-squares solve


def test_every_kkt_solve_ends_at_its_bound_or_after_the_last_step(monkeypatch):
    # refinement stops at the first residual at or below its bound, or
    # after _REFINE_STEPS steps; the solution counts every refined solve
    # and every triangular solve, summed over its attempts
    calls = _recorded_kkt_solves(monkeypatch)
    attempts = []

    def checked(prog, start=None):
        calls.clear()
        sol = solve(prog, tol=1e-9, start=start)
        assert sol.status == "optimal"
        attempts.append(len({id(kkt) for kkt, _, _, _ in calls}))
        for _, bound, triangular, relative in calls:
            assert 1 <= triangular <= 1 + conic._REFINE_STEPS
            assert relative <= bound or triangular == 1 + conic._REFINE_STEPS
        assert sol.kkt_solves == len(calls)
        assert sol.triangular_solves == sum(t for _, _, t, _ in calls)
        return sol

    rng = np.random.default_rng(11)
    for k in range(40):
        prog = sparse_feasible_program(rng, k % 2 == 1)
        checked(loosened(rng, prog), start=checked(prog))
    assert max(attempts) > 1  # some solves were retried


def test_builtin_run_halves_the_triangular_solves(monkeypatch):
    # a KKT solve refines only to its iteration's bound: a built-in run
    # made 915 triangular solves while every solve refined to 1e-13, and
    # its 116 IPM iterations stay as they were
    solutions, cone_solve = [], conic.solve

    def recording(*args, **kwargs):
        solutions.append(cone_solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(conic, "solve", recording)
    solve_quadrotor(builtin_quadrotor())
    assert sum(sol.iterations for sol in solutions) <= 116
    assert sum(sol.triangular_solves for sol in solutions) <= 550
    assert all(sol.kkt_solves <= sol.triangular_solves for sol in solutions)


def _recorded_orderings(monkeypatch):
    """A list that collects the (rows, cols, dim) of every KKT ordering."""
    patterns, order = [], conic._symmetric_order

    def recording(*args):
        patterns.append(args)
        return order(*args)

    monkeypatch.setattr(conic, "_symmetric_order", recording)
    return patterns


def test_kkt_structure_is_reused_only_when_it_matches(monkeypatch):
    rng = np.random.default_rng(29)
    prog = sparse_feasible_program(rng, dependent=False)
    base = solve(prog, tol=1e-9)
    assert base.status == "optimal" and base.kkt is not None
    # loosened nonnegative rows, on a copy of A: equal patterns, not the same arrays
    nonneg = np.repeat([k.kind == "nonneg" for k in prog.cones], [k.dim for k in prog.cones])
    b = prog.b + rng.uniform(0.0, 0.1, prog.n_rows) * nonneg
    moved = ConicProgram(prog.c, prog.A.copy(), b, prog.cones)
    orderings = _recorded_orderings(monkeypatch)

    # the same structure: no new ordering, and the same bits as a solve on
    # a structure built afresh
    warm = solve(moved, tol=1e-9, start=base)
    assert len(orderings) == 0 and warm.kkt is base.kkt
    fresh = solve(moved, tol=1e-9, start=replace(base, kkt=None))
    assert len(orderings) == 1 and fresh.kkt is not base.kkt
    assert warm.status == fresh.status == "optimal" and warm.start == fresh.start == "warm"
    assert warm.iterations == fresh.iterations
    for u, v in ((warm.x, fresh.x), (warm.s, fresh.s), (warm.z_dual, fresh.z_dual)):
        assert np.array_equal(u, v)

    # one more stored entry: the program builds its own structure.  b and c
    # move with the entry, so the base solution stays primal and dual
    # feasible and the grown program has an optimum
    dense = prog.A.toarray()
    i, j = np.argwhere(dense == 0.0)[0]
    dense[i, j] = 0.5
    b, c = prog.b.copy(), prog.c.copy()
    b[i] += 0.5 * base.x[j]
    c[j] -= 0.5 * base.z_dual[i]
    grown = ConicProgram(c, sp.csc_matrix(dense), b, prog.cones)
    assert grown.A.nnz == prog.A.nnz + 1
    sol = solve(grown, tol=1e-9, start=base)
    assert len(orderings) == 2 and sol.kkt is not base.kkt
    assert sol.status == "optimal"
    assert max(residuals(grown, sol)) <= 1e-8
    objective = float(grown.c @ base.x)
    assert abs(float(grown.c @ sol.x) - objective) <= 1e-7 * (1.0 + abs(objective))


def _workloads():
    """benchmarks/workloads.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ordering_matches_a_full_factor_on_the_benchmark_programs(monkeypatch):
    # every ordering of a run (each init round, the floor, the first
    # succession) comes before its second succession
    base = builtin_quadrotor()
    scenarios = [
        base, replace(base, N=50), replace(base, N=100),
        _workloads().scenario("penalty", 1),
    ]
    patterns = _recorded_orderings(monkeypatch)
    for scenario in scenarios:
        solve_quadrotor(scenario, max_successions=1)
    monkeypatch.undo()
    assert len(patterns) >= 3 * len(scenarios)
    for rows, cols, dim in patterns:
        np.testing.assert_array_equal(
            conic._symmetric_order(rows, cols, dim), symmetric_order_reference(rows, cols, dim)
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
@example(1, 0.0, 0)  # one row
@example(40, 0.0, 1)  # diagonal only
def test_ordering_matches_a_full_factor_on_symmetric_patterns(dim, density, seed):
    # a symmetric pattern with its full diagonal, as every KKT pattern has
    rng = np.random.default_rng(seed)
    off = np.argwhere(np.triu(rng.random((dim, dim)) < density, 1))
    rows = np.concatenate([off[:, 0], off[:, 1], np.arange(dim)])
    cols = np.concatenate([off[:, 1], off[:, 0], np.arange(dim)])
    np.testing.assert_array_equal(
        conic._symmetric_order(rows, cols, dim), symmetric_order_reference(rows, cols, dim)
    )


# ---------------------------------------------------------------------------
# certificates and edge cases


def test_primal_infeasible_certificate():
    # x >= 1 and -x >= 0 cannot hold together
    prog = make_program([0.0], [[-1.0], [1.0]], [-1.0, 0.0], [Cone("nonneg", 2)])
    sol = solve(prog, tol=1e-9)
    assert sol.status == "primal-infeasible"


def test_dual_infeasible_certificate():
    # minimize -x subject to x >= 0 is unbounded below
    prog = make_program([-1.0], [[-1.0]], [0.0], [Cone("nonneg", 1)])
    sol = solve(prog, tol=1e-9)
    assert sol.status == "dual-infeasible"


def test_program_validation():
    with pytest.raises(DimensionError):
        make_program([1.0], [[-1.0]], [0.0], [Cone("nonneg", 2)])
    with pytest.raises(DimensionError):
        make_program([1.0], [[-1.0]], [0.0], [Cone("bogus", 1)])
    with pytest.raises(DimensionError):
        make_program([1.0, 2.0], [[-1.0]], [0.0], [Cone("nonneg", 1)])


def test_tiny_dimensions():
    # soc of dimension 1 degenerates to the nonneg orthant
    prog = make_program([1.0], [[-1.0]], [-2.0], [Cone("soc", 1)])
    sol = solve(prog, tol=1e-9)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-8)
    # without columns the solve decides whether b itself lies in the cone
    cones = (Cone("soc", 3), Cone("nonneg", 1))
    for b, status in (([3.0, 2.0, 1.0, 0.5], "optimal"), ([1.0, 2.0, 1.0, 0.5], "primal-infeasible")):
        no_columns = ConicProgram(np.zeros(0), sp.csc_matrix((4, 0)), b, cones)
        assert solve(no_columns, tol=1e-9).status == status


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_builder_rows_land_in_add_order(data):
    # random blocks of every kind give the program the pair-list builder
    # gives for the same rows added one at a time, bit for bit: exact zeros
    # (-0.0 too) are not stored, -0.0 right-hand sides keep their sign,
    # adjacent zero or nonneg rows share a cone, SOCs of mixed sizes stay
    # apart, an empty block adds no cone, each add returns its first row,
    # and a builder started from a built program appends to it
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-100.0, 100.0))
    builder, ref = ProgramBuilder(), ReferenceBuilder()
    assert builder.add_cols(2) == ref.add_cols(2) == 0
    steps = st.sampled_from(["cols", "cost", "eq", "ge", "soc", "append"])
    for step in data.draw(st.lists(steps, max_size=14)):
        if step == "cols":
            count = data.draw(st.integers(1, 3))
            assert builder.add_cols(count) == ref.add_cols(count)
        elif step == "cost":
            cols = data.draw(st.lists(st.integers(0, ref.n_cols - 1), max_size=4))
            coeffs = [data.draw(value) for _ in cols]
            builder.add_cost(cols, coeffs)
            for col, coeff in zip(cols, coeffs):
                ref.add_cost(col, coeff)
        elif step == "append":
            builder = ProgramBuilder(builder.build())
        else:
            dim = data.draw(st.integers(1, 4)) if step == "soc" else 1
            count = dim * data.draw(st.integers(0, 3))
            rows, cols, coeffs, pairs = [], [], [], []
            for r in range(count):
                row_cols = data.draw(st.lists(st.integers(0, ref.n_cols - 1), max_size=3, unique=True))
                pairs.append([(col, data.draw(value)) for col in row_cols])
                rows += [r] * len(row_cols)
                cols += row_cols
                coeffs += [coeff for _, coeff in pairs[-1]]
            rhs = [data.draw(value) for _ in range(count)]
            start = len(ref._b)
            if step == "soc":
                assert builder.add_soc(rows, cols, coeffs, rhs, dim) == start
                for first in range(0, count, dim):
                    ref.add_soc([(pairs[r], -rhs[r]) for r in range(first, first + dim)])
            else:
                assert getattr(builder, "add_" + step)(rows, cols, coeffs, rhs) == start
                for r in range(count):
                    getattr(ref, "add_" + step)(pairs[r], rhs[r])
    got, expect = builder.build(), ref.build()
    assert got.A.shape == expect.A.shape
    for u, v in (
        (got.A.indptr, expect.A.indptr),
        (got.A.indices, expect.A.indices),
        (got.A.data, expect.A.data),
        (got.b, expect.b),
        (got.c, expect.c),
    ):
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes()
    assert [(k.kind, k.dim) for k in got.cones] == [(k.kind, k.dim) for k in expect.cones]


def test_dump_program_text(tmp_path):
    prog = make_program(
        [1.0, 1.0],
        [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 0.0, 0.0],
        [Cone("zero", 1), Cone("nonneg", 2)],
    )
    path = tmp_path / "prog.txt"
    dump_program(prog, path)
    text = path.read_text()
    assert "zero 1" in text
    assert "nonneg 2" in text
    # every structural nonzero appears as a triplet line
    coo = prog.A.tocoo()
    for r, cc, v in zip(coo.row, coo.col, coo.data):
        assert f"{r} {cc}" in text

    # the text holds the program exactly: parsed back, c, b and A match bitwise
    for program in (prog, random_feasible_program(np.random.default_rng(5))):
        dump_program(program, path)
        lines = [line.split() for line in path.read_text().splitlines()]
        assert [rec[1:] for rec in lines if rec[0] in ("cols", "rows", "cone")] == (
            [[str(program.n_cols)], [str(program.n_rows)]]
            + [[k.kind, str(k.dim)] for k in program.cones]
        )
        c, b = np.zeros(program.n_cols), np.zeros(program.n_rows)
        A = np.zeros(program.A.shape)
        for rec in lines:
            if rec[0] == "c":
                c[int(rec[1])] = float(rec[2])
            elif rec[0] == "b":
                b[int(rec[1])] = float(rec[2])
            elif rec[0] == "A":
                A[int(rec[1]), int(rec[2])] = float(rec[3])
        np.testing.assert_array_equal(_bits(c), _bits(program.c))
        np.testing.assert_array_equal(_bits(b), _bits(program.b))
        np.testing.assert_array_equal(_bits(A), _bits(program.A.toarray()))


# ---------------------------------------------------------------------------
# cone algebra against the per-block formulas
#
# The reference below is the earlier per-block implementation: orthant rows
# in closed form, one Python loop step per second-order block.  It counts a
# 1-dim SOC as an orthant row: its quadratic step equation (t + alpha dt)^2
# = 0 has a double root, and a discriminant that rounds below zero made the
# per-block max_step miss that crossing.


def _reference_blocks(cones):
    nonneg, socs, pos = [], [], 0
    for k in cones:
        if k.kind == "nonneg" or k.dim == 1:
            nonneg.extend(range(pos, pos + k.dim))
        else:
            socs.append((pos, k.dim))
        pos += k.dim
    return np.asarray(nonneg, dtype=int), socs


def _smallest_positive_root(A, B, C):
    if abs(A) < 1e-300:
        return -C / B if B < 0 else np.inf
    disc = B * B - 4.0 * A * C
    if disc < 0:
        return np.inf
    sq = np.sqrt(disc)
    q = -0.5 * (B + np.copysign(sq, B)) if B != 0 else -0.5 * sq
    roots = ([q / A] if abs(A) > 0 else []) + ([C / q] if abs(q) > 0 else [])
    return min([r for r in roots if r > 0], default=np.inf)


def _reference_max_step(cones, v, dv):
    nonneg, socs = _reference_blocks(cones)
    alpha = np.inf
    neg = dv[nonneg] < 0
    if np.any(neg):
        alpha = float(np.min(-v[nonneg][neg] / dv[nonneg][neg]))
    for start, dim in socs:
        u0, u1 = v[start], v[start + 1 : start + dim]
        d0, d1 = dv[start], dv[start + 1 : start + dim]
        A = d0 * d0 - d1 @ d1
        B = 2.0 * (u0 * d0 - u1 @ d1)
        C = u0 * u0 - u1 @ u1
        alpha = min(alpha, _smallest_positive_root(A, B, C))
    return alpha


def _reference_scaling(cones, s, z):
    """(lam, dense W) of the per-block Nesterov-Todd scaling."""
    nonneg, socs = _reference_blocks(cones)
    m = s.size
    lam, W = np.empty(m), np.zeros((m, m))
    lam[nonneg] = np.sqrt(s[nonneg] * z[nonneg])
    W[nonneg, nonneg] = np.sqrt(s[nonneg] / z[nonneg])
    for start, dim in socs:
        sb, zb = s[start : start + dim], z[start : start + dim]
        a = np.sqrt(sb[0] ** 2 - sb[1:] @ sb[1:])
        bb = np.sqrt(zb[0] ** 2 - zb[1:] @ zb[1:])
        sbar, zbar = sb / a, zb / bb
        gamma = np.sqrt(0.5 * (1.0 + sbar @ zbar))
        v = sbar.copy()
        v[0] += zbar[0]
        v[1:] -= zbar[1:]
        v /= 2.0 * gamma
        u = v.copy()
        u[0] += 1.0
        u /= np.sqrt(2.0 * (v[0] + 1.0))
        J = -np.eye(dim)
        J[0, 0] = 1.0
        W[start : start + dim, start : start + dim] = np.sqrt(a / bb) * (2.0 * np.outer(u, u) - J)
        denom = sbar[0] + zbar[0] + 2.0 * gamma
        lam1 = ((gamma + zbar[0]) * sbar[1:] + (gamma + sbar[0]) * zbar[1:]) / denom
        lam[start] = gamma * np.sqrt(a * bb)
        lam[start + 1 : start + dim] = np.sqrt(a * bb) * lam1
    return lam, W


def _reference_product(cones, u, v):
    nonneg, socs = _reference_blocks(cones)
    out = np.empty(u.size)
    out[nonneg] = u[nonneg] * v[nonneg]
    for start, dim in socs:
        u0, u1 = u[start], u[start + 1 : start + dim]
        v0, v1 = v[start], v[start + 1 : start + dim]
        out[start] = u0 * v0 + u1 @ v1
        out[start + 1 : start + dim] = u0 * v1 + v0 * u1
    return out


def _w_squared_matrix(blocks, values):
    """W^2 as a sparse matrix from w_squared()'s values and the blocks' index arrays."""
    full = [idx.shape + idx.shape[1:] for idx in blocks.groups]
    rows = [np.broadcast_to(idx[:, :, None], f).ravel() for idx, f in zip(blocks.groups, full)]
    cols = [np.broadcast_to(idx[:, None, :], f).ravel() for idx, f in zip(blocks.groups, full)]
    empty = [np.zeros(0, dtype=int)]
    return sp.coo_matrix(
        (values, (np.concatenate(empty + rows), np.concatenate(empty + cols))),
        shape=(blocks.dim, blocks.dim),
    ).tocsc()


mixed_cones = st.lists(
    st.tuples(st.sampled_from(["nonneg", "soc"]), st.integers(1, 6)), min_size=1, max_size=8
)


@settings(max_examples=30, deadline=None)
@given(mixed_cones, st.integers(100, 130), st.integers(0, 2**32 - 1))
def test_batched_cone_algebra_matches_the_per_block_formulas(small, big, seed):
    rng = np.random.default_rng(seed)
    cones = [Cone(kind, dim) for kind, dim in small] + [Cone("soc", big)]
    blocks = _Blocks(cones)
    s, z = interior_point(rng, cones), interior_point(rng, cones)
    point = blocks.interior(s, z)
    scal = _Scaling(point)
    lam_ref, W_ref = _reference_scaling(cones, s, z)

    # W z = lam = W^{-1} s, and lam is the reference scaled point
    np.testing.assert_allclose(scal.apply(z), scal.lam, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(scal.apply_inv(s), scal.lam, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(scal.lam, lam_ref, rtol=1e-10, atol=1e-12)

    # W^2 is W applied twice, and W is the reference block matrix
    x = rng.standard_normal(blocks.dim)
    np.testing.assert_allclose(scal.apply(x), W_ref @ x, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(
        _w_squared_matrix(blocks, scal.w_squared()) @ x, scal.apply(scal.apply(x)),
        rtol=1e-9, atol=1e-9,
    )

    # divide inverts product; product is the reference Jordan product
    w = rng.standard_normal(blocks.dim)
    np.testing.assert_allclose(
        blocks.product(scal.lam, w), _reference_product(cones, scal.lam, w), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        blocks.divide(scal.lam, blocks.product(scal.lam, w)), w, rtol=1e-8, atol=1e-8
    )

    # the full step of s and z together lands on the boundary of the cone
    # it meets first and agrees with the quadratic-root reference
    ds, dz = 5.0 * rng.standard_normal(blocks.dim), 5.0 * rng.standard_normal(blocks.dim)
    alpha = point.max_step(ds, dz)
    assert np.isfinite(alpha)
    expect = min(_reference_max_step(cones, s, ds), _reference_max_step(cones, z, dz))
    assert alpha == pytest.approx(expect, rel=1e-7)
    scale = 1.0 + np.linalg.norm([s, z]) + alpha * np.linalg.norm([ds, dz])
    assert abs(min(blocks.min_eig(s + alpha * ds), blocks.min_eig(z + alpha * dz))) <= 1e-10 * scale
    assert blocks.interior(s + 0.99 * alpha * ds, z + 0.99 * alpha * dz) is not None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([("nonneg", 1), ("nonneg", 3), ("soc", 1)]), min_size=1,
                max_size=6), st.integers(0, 2**32 - 1))
def test_one_dimensional_group_is_the_orthant(small, seed):
    # orthant rows and 1-dim SOCs form the d = 1 group, where the SOC
    # formulas reduce exactly to the orthant closed forms
    rng = np.random.default_rng(seed)
    cones = [Cone(kind, dim) for kind, dim in small]
    blocks = _Blocks(cones)
    assert [idx.shape[1] for idx in blocks.groups] == [1]
    s, z = rng.uniform(0.05, 3.0, blocks.dim), rng.uniform(0.05, 3.0, blocks.dim)
    point = blocks.interior(s, z)
    scal = _Scaling(point)
    x = rng.standard_normal(blocks.dim)
    np.testing.assert_array_equal(scal.lam, np.sqrt(s * z))
    np.testing.assert_array_equal(scal.apply(x), np.sqrt(s / z) * x)
    np.testing.assert_array_equal(scal.apply_inv(x), x / np.sqrt(s / z))
    np.testing.assert_array_equal(blocks.divide(scal.lam, x), x / scal.lam)
    ds, dz = rng.standard_normal(blocks.dim), rng.standard_normal(blocks.dim)
    v, dv = np.concatenate([s, z]), np.concatenate([ds, dz])
    neg = dv < 0
    expect = float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf
    assert point.max_step(ds, dz) == expect


# ---------------------------------------------------------------------------
# cone algebra against the d-general formulas, bit for bit


def _spread(rng, n):
    """Normal-range values over six decades, with some 0.0 and -0.0."""
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    v[rng.random(n) < 0.1] = 0.0
    v[rng.random(n) < 0.1] = -0.0
    return v


def _outside(rng, blocks, v):
    """v with one cone block moved outside its cone: the head of a
    second-order block to half its tail's norm, an orthant row to -v."""
    out = v.copy()
    idx = blocks.groups[rng.integers(len(blocks.groups))]
    row = idx[rng.integers(idx.shape[0])]
    out[row[0]] = 0.5 * np.linalg.norm(v[row[1:]]) if row.size > 1 else -v[row[0]]
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["zero", "nonneg", "soc"]), st.integers(1, 6)),
             min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
)
@example([("nonneg", 3), ("zero", 2), ("soc", 4), ("soc", 1), ("zero", 1), ("nonneg", 2)], 0)
@example([("soc", 3), ("zero", 1), ("soc", 5)], 1)  # no d = 1 group
@example([("zero", 2)], 2)  # no cone block
@example([("soc", 40), ("nonneg", 2), ("soc", 3)], 3)  # one wide block, two when stacked
def test_cone_algebra_matches_the_d_general_formulas_bit_for_bit(spec, seed):
    # the d = 1 group's closed forms, the constants built once and the one
    # gather of s and z per iterate change no bit of any operation, on
    # every group and around zero-cone rows
    rng = np.random.default_rng(seed)
    cones = [Cone(kind, dim) for kind, dim in spec]
    blocks, ref = _Blocks(cones), ReferenceBlocks(cones)
    s, z = interior_point(rng, cones), interior_point(rng, cones)
    point, ref_point = blocks.interior(s, z), ref.interior(s, z)
    scal, ref_scal = _Scaling(point), ReferenceScaling(ref_point)
    x, y = _spread(rng, blocks.dim), _spread(rng, blocks.dim)
    pairs = {
        "lam": (scal.lam, ref_scal.lam),
        "apply": (scal.apply(x), ref_scal.apply(x)),
        "apply_inv": (scal.apply_inv(x), ref_scal.apply_inv(x)),
        "w_squared": (scal.w_squared(), ref_scal.w_squared()),
        "product": (blocks.product(x, y), ref.product(x, y)),
        "product lam": (blocks.product(scal.lam, scal.lam), ref.product(ref_scal.lam, ref_scal.lam)),
        "divide": (blocks.divide(scal.lam, x), ref.divide(ref_scal.lam, x)),
        "max_step": (point.max_step(x, y), ref_point.max_step(x, y)),
        "max_step swapped": (point.max_step(y, x), ref_point.max_step(y, x)),
        "max_step s only": (point.max_step(x, 0.0 * y), ref_point.max_step(x, 0.0 * y)),
        "min_eig": (blocks.min_eig(x), ref.min_eig(x)),
        "min_eig s": (blocks.min_eig(s), ref.min_eig(s)),
    }
    for name, (got, want) in pairs.items():
        assert np.array_equal(_bits(got), _bits(want)), name

    # the interiority test comes before any J-norm: a block outside its cone
    # (RuntimeWarning is an error here, so no sqrt of a negative may run)
    # fails it, on either side, as it fails the reference's
    assert (blocks.interior(x, y) is None) == (ref.interior(x, y) is None)
    if blocks.groups:
        for bad in ((_outside(rng, blocks, s), z), (s, _outside(rng, blocks, z))):
            assert blocks.interior(*bad) is None and ref.interior(*bad) is None


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_solves_match_the_d_general_algebra_bit_for_bit(monkeypatch, seed):
    # whole solves, cold and warm, take the very iterates of the d-general
    # algebra: no change to an iterate hides between the operations
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(3):
        prog = random_feasible_program(rng)
        pairs.append((prog, loosened(rng, prog)))

    def solves():
        out = []
        for prog, moved in pairs:
            cold = solve(prog, tol=1e-9)
            out += [cold, solve(moved, tol=1e-9, start=cold)]
        return out

    got = solves()
    monkeypatch.setattr(conic, "_Blocks", ReferenceBlocks)
    monkeypatch.setattr(conic, "_Scaling", ReferenceScaling)
    want = solves()
    assert [sol.start for sol in got] == ["cold", "warm"] * len(pairs)
    for g, w in zip(got, want):
        assert (g.status, g.iterations, g.start) == (w.status, w.iterations, w.start)
        for u, v in ((g.x, w.x), (g.s, w.s), (g.z_dual, w.z_dual)):
            np.testing.assert_array_equal(u.view(np.uint64), v.view(np.uint64))


# ---------------------------------------------------------------------------
# the fixed KKT pattern against the block assembly it replaces


def _bits(a):
    # + 0.0 turns -0.0 into 0.0: an explicit zero may carry either sign
    return (np.asarray(a, dtype=float) + 0.0).view(np.uint64)


def _reference_kkt(A_eq, G, W2):
    """(K, K + diag(reg)) assembled block by block, as the solver once did."""
    K = sp.bmat([[None, A_eq.T, G.T], [A_eq, None, None], [G, None, -W2]], format="csc")
    reg = np.concatenate(
        [np.full(A_eq.shape[1], _REG), np.full(A_eq.shape[0] + G.shape[0], -_REG)]
    )
    return K, K + sp.diags(reg).tocsc()


def _sparse(rng, rows, cols):
    dense = rng.standard_normal((rows, cols))
    dense[rng.uniform(size=(rows, cols)) < 0.5] = 0.0
    return sp.csc_matrix(dense)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["nonneg", "soc"]), st.integers(1, 5)), max_size=5),
    st.integers(0, 6),
    st.integers(0, 3),
    st.sampled_from(["scaling", "identity", "zero-entry"]),
    st.integers(0, 2**32 - 1),
)
@example([], 3, 2, "scaling", 0)  # no inequality rows
@example([("soc", 3), ("nonneg", 2)], 4, 0, "scaling", 1)  # no equality rows
@example([("soc", 3), ("nonneg", 2)], 0, 1, "scaling", 2)  # no columns
@example([("soc", 4), ("nonneg", 1), ("soc", 2)], 3, 1, "identity", 3)  # the W = I start
@example([("soc", 4), ("nonneg", 2)], 3, 1, "zero-entry", 4)  # an exact-zero W^2 entry
def test_fixed_kkt_pattern_matches_the_block_assembly(cone_spec, n, p_eq, values, seed):
    # the zero cone comes first here, so its rows are the reference's A_eq
    # and the remaining rows its G
    cones = [Cone(kind, dim) for kind, dim in cone_spec]
    p_in = sum(k.dim for k in cones)
    assume(p_eq + p_in > 0)  # a program without rows never builds a KKT
    blocks_cones = ([Cone("zero", p_eq)] if p_eq else []) + cones
    blocks = _Blocks(blocks_cones)
    rng = np.random.default_rng(seed)
    A_eq, G = _sparse(rng, p_eq, n), _sparse(rng, p_in, n)
    if values == "identity":
        w2 = blocks.identity_squared()
    else:
        # the zero-cone rows carry no cone point: their values are never read
        s, z = (np.concatenate([np.full(p_eq, np.nan), interior_point(rng, cones)]) for _ in range(2))
        w2 = _Scaling(blocks.interior(s, z)).w_squared()
        if values == "zero-entry" and w2.size:
            w2[rng.integers(w2.size)] = 0.0
    ref_W2 = sp.identity(p_in, format="csc") if values == "identity" else (
        _w_squared_matrix(blocks, w2)[p_eq:, p_eq:]
    )
    A = sp.vstack([A_eq, G], format="csc")
    structure = _KKTStructure(A, blocks_cones)
    kkt = _KKT(structure, A, "diagonal")
    K, K_reg = kkt.matrices(w2)
    np.testing.assert_array_equal(np.sort(structure.perm_c), np.arange(K.shape[0]))
    _assert_block_assembly(structure, K, K_reg, A_eq, G, ref_W2, rng)


def _assert_block_assembly(structure, K, K_reg, A_eq, G, ref_W2, rng):
    """K and the factored K_reg are the block assembly's, bit for bit."""
    # the stored order is a symmetric permutation: original row r sits at
    # perm_c[r], so the reference is permuted by q = argsort(perm_c)
    q = np.argsort(structure.perm_c)
    K_ref, K_reg_ref = (M[q][:, q].tocsc() for M in _reference_kkt(A_eq, G, ref_W2))
    K_reg_ref.sort_indices()

    # the factored matrix is the very one the block assembly gave
    np.testing.assert_array_equal(K_reg.indptr, K_reg_ref.indptr)
    np.testing.assert_array_equal(K_reg.indices, K_reg_ref.indices)
    np.testing.assert_array_equal(K_reg.data.view(np.uint64), K_reg_ref.data.view(np.uint64))
    # the refinement matrix holds explicit zeros where the assembly had
    # none, which changes no entry and no product
    np.testing.assert_array_equal(_bits(K.toarray()), _bits(K_ref.toarray()))
    x = rng.standard_normal(K.shape[1])
    np.testing.assert_array_equal(_bits(K @ x), _bits(K_ref @ x))


def test_kkt_factored_in_sequence_keeps_the_block_assembly(monkeypatch):
    # one _KKT factored at the W = I start, at an NT scaling, at a W^2 with
    # an exact-zero entry and at a scaling again: its matrices are rewritten
    # in place, yet every factor reads the block assembly's matrix, and the
    # zero-dropping copy leaves the pattern's index arrays as they were
    factored, splu = [], conic.spla.splu

    def recording(M, **options):
        factored.append(sp.csc_matrix((M.data.copy(), M.indices.copy(), M.indptr.copy()), M.shape))
        return splu(M, **options)

    monkeypatch.setattr(conic.spla, "splu", recording)
    rng = np.random.default_rng(5)
    cones = [Cone("soc", 4), Cone("nonneg", 2), Cone("soc", 3)]
    p_eq, p_in, n = 2, 9, 6
    blocks_cones = [Cone("zero", p_eq)] + cones
    blocks = _Blocks(blocks_cones)
    A_eq, G = _sparse(rng, p_eq, n), _sparse(rng, p_in, n)
    A = sp.vstack([A_eq, G], format="csc")
    structure = _KKTStructure(A, blocks_cones)
    indices, indptr = structure.indices.copy(), structure.indptr.copy()
    kkt = _KKT(structure, A, "diagonal")

    def scaling():
        nan = np.full(p_eq, np.nan)  # the zero-cone rows carry no cone point
        s, z = (np.concatenate([nan, interior_point(rng, cones)]) for _ in range(2))
        return _Scaling(blocks.interior(s, z)).w_squared()

    zero_entry = scaling()
    rows, cols = blocks.square_entries()
    zero_entry[np.flatnonzero(rows != cols)[0]] = 0.0  # off a block's diagonal
    scalings = (scaling(), zero_entry, scaling())
    steps = [(blocks.identity_squared(), sp.identity(p_in, format="csc"))] + [
        (w2, _w_squared_matrix(blocks, w2)[p_eq:, p_eq:]) for w2 in scalings
    ]
    for w2, ref_W2 in steps:
        count = len(factored)
        kkt.factor(w2)
        assert len(factored) == count + 1
        _assert_block_assembly(structure, kkt.K, factored[-1], A_eq, G, ref_W2, rng)
    np.testing.assert_array_equal(structure.indices, indices)
    np.testing.assert_array_equal(structure.indptr, indptr)
