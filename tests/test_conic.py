"""Interior-point cone solver: hand-worked programs, random suites, certificates."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scvx import conic
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
from tests.checks import residuals


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


def sparse_feasible_program(rng, dependent):
    """A sparse program, feasible and bounded by construction.

    With dependent set, equality row 1 (and its dual value) repeats row 0,
    and the last column is empty: the KKT matrix stays quasi-definite only
    through its regularization.
    """
    n = int(rng.integers(5, 60))
    p_eq = int(rng.integers(2, max(2, n // 3) + 1) if dependent else rng.integers(0, n // 3 + 1))
    cones = [Cone("zero", p_eq)] if p_eq else []
    for _ in range(int(rng.integers(1, n // 2 + 1))):
        cones.append(Cone(str(rng.choice(["nonneg", "soc"])), int(rng.integers(1, 6))))
    m = sum(k.dim for k in cones)
    A = rng.standard_normal((m, n)) * (rng.uniform(size=(m, n)) < 0.3)
    s, z = np.zeros(m), rng.standard_normal(m)
    s[p_eq:] = _interior(rng, cones[1:] if p_eq else cones)
    z[p_eq:] = _interior(rng, cones[1:] if p_eq else cones)
    if dependent:
        A[1], z[1] = A[0], z[0]
        A[:, -1] = 0.0
    b = A @ rng.standard_normal(n) + s
    c = -(A.T @ z)
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


def _count_orderings(monkeypatch):
    """A one-element list counting calls to conic._symmetric_order."""
    count, order = [0], conic._symmetric_order

    def counting(*args):
        count[0] += 1
        return order(*args)

    monkeypatch.setattr(conic, "_symmetric_order", counting)
    return count


def test_kkt_structure_is_reused_only_when_it_matches(monkeypatch):
    rng = np.random.default_rng(29)
    prog = sparse_feasible_program(rng, dependent=False)
    base = solve(prog, tol=1e-9)
    assert base.status == "optimal" and base.kkt is not None
    # loosened nonnegative rows, on a copy of A: equal patterns, not the same arrays
    nonneg = np.repeat([k.kind == "nonneg" for k in prog.cones], [k.dim for k in prog.cones])
    b = prog.b + rng.uniform(0.0, 0.1, prog.n_rows) * nonneg
    moved = ConicProgram(prog.c, prog.A.copy(), b, prog.cones)
    orderings = _count_orderings(monkeypatch)

    # the same structure: no new ordering, and the same bits as a solve on
    # a structure built afresh
    warm = solve(moved, tol=1e-9, start=base)
    assert orderings[0] == 0 and warm.kkt is base.kkt
    fresh = solve(moved, tol=1e-9, start=replace(base, kkt=None))
    assert orderings[0] == 1 and fresh.kkt is not base.kkt
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
    assert orderings[0] == 2 and sol.kkt is not base.kkt
    assert sol.status == "optimal"
    assert max(residuals(grown, sol)) <= 1e-8
    objective = float(grown.c @ base.x)
    assert abs(float(grown.c @ sol.x) - objective) <= 1e-7 * (1.0 + abs(objective))


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


def test_builder_rows_land_in_add_order():
    builder = ProgramBuilder()
    x0 = builder.add_cols(2)
    t = builder.add_cols(1)
    assert (x0, t) == (0, 2)
    builder.add_cost(t, 1.0)
    builder.add_cost(t, 0.5)  # repeated cost entries add up
    rows = [
        builder.add_ge([(x0, 1.0)], 1.0),  # x0 >= 1
        builder.add_ge([(x0 + 1, 2.0), (t, 0.0)], -3.0),  # 2 x1 >= -3; the zero is not stored
        builder.add_eq([(x0, 1.0), (x0 + 1, 1.0)], 4.0),  # x0 + x1 = 4
        builder.add_soc([([(t, 1.0)], 0.0), ([(x0, 1.0)], -1.0), ([(x0 + 1, 1.0)], 0.0)]),
        builder.add_eq([(x0 + 1, 1.0)], 2.5),
        builder.add_eq([(x0, -1.0)], -1.5),
        builder.add_soc([([(t, 1.0)], 2.0), ([(x0, 3.0)], 0.0)]),
    ]
    # each add returns its first program row, and rows follow in add order
    assert rows == [0, 1, 2, 3, 6, 7, 8]
    program = builder.build()
    assert isinstance(program, ConicProgram)
    # adjacent zero or nonneg rows share a cone; every SOC stays its own cone
    assert [(k.kind, k.dim) for k in program.cones] == [
        ("nonneg", 2), ("zero", 1), ("soc", 3), ("zero", 2), ("soc", 2)
    ]
    kinds = np.repeat([k.kind for k in program.cones], [k.dim for k in program.cones])
    assert kinds[rows].tolist() == ["nonneg", "nonneg", "zero", "soc", "zero", "zero", "soc"]
    np.testing.assert_array_equal(program.c, [0.0, 0.0, 1.5])
    np.testing.assert_array_equal(program.b, [-1.0, 3.0, 4.0, 0.0, -1.0, 0.0, 2.5, -1.5, 2.0, 0.0])
    np.testing.assert_array_equal(
        program.A.toarray(),
        [
            [-1.0, 0.0, 0.0],
            [0.0, -2.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, -1.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0],
            [-3.0, 0.0, 0.0],
        ],
    )
    assert program.A.nnz == 11  # the zero coefficient on t in row 1 is not stored
    # x = (1.5, 2.5), t = 3: within every cone (slack s = b - A x)
    s = program.b - program.A @ np.array([1.5, 2.5, 3.0])
    np.testing.assert_array_equal(s[[2, 6, 7]], 0.0)
    assert np.all(s[:2] >= 0.0) and s[3] >= np.hypot(s[4], s[5]) and s[8] >= abs(s[9])


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


def _interior(rng, cones):
    """A strictly interior point, tails scaled over a few decades."""
    v = np.empty(sum(k.dim for k in cones))
    pos = 0
    for k in cones:
        if k.kind == "nonneg":
            v[pos : pos + k.dim] = rng.uniform(0.05, 3.0, k.dim)
        else:
            tail = rng.standard_normal(k.dim - 1) * 10.0 ** rng.uniform(-2, 1)
            v[pos] = np.linalg.norm(tail) + rng.uniform(0.05, 3.0)
            v[pos + 1 : pos + k.dim] = tail
        pos += k.dim
    return v


mixed_cones = st.lists(
    st.tuples(st.sampled_from(["nonneg", "soc"]), st.integers(1, 6)), min_size=1, max_size=8
)


@settings(max_examples=30, deadline=None)
@given(mixed_cones, st.integers(100, 130), st.integers(0, 2**32 - 1))
def test_batched_cone_algebra_matches_the_per_block_formulas(small, big, seed):
    rng = np.random.default_rng(seed)
    cones = [Cone(kind, dim) for kind, dim in small] + [Cone("soc", big)]
    blocks = _Blocks(cones)
    s, z = _interior(rng, cones), _interior(rng, cones)
    scal = _Scaling(blocks, s, z)
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

    # the full step lands on the cone boundary and agrees with the
    # quadratic-root reference
    dv = 5.0 * rng.standard_normal(blocks.dim)
    alpha = blocks.max_step(s, dv)
    assert np.isfinite(alpha)
    assert alpha == pytest.approx(_reference_max_step(cones, s, dv), rel=1e-7)
    scale = 1.0 + np.linalg.norm(s) + alpha * np.linalg.norm(dv)
    assert abs(blocks.min_eig(s + alpha * dv)) <= 1e-10 * scale
    assert blocks.min_eig(s + 0.99 * alpha * dv) > 0.0


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
    scal = _Scaling(blocks, s, z)
    x = rng.standard_normal(blocks.dim)
    np.testing.assert_array_equal(scal.lam, np.sqrt(s * z))
    np.testing.assert_array_equal(scal.apply(x), np.sqrt(s / z) * x)
    np.testing.assert_array_equal(scal.apply_inv(x), x / np.sqrt(s / z))
    np.testing.assert_array_equal(blocks.divide(scal.lam, x), x / scal.lam)
    dv = rng.standard_normal(blocks.dim)
    neg = dv < 0
    expect = float(np.min(-s[neg] / dv[neg])) if np.any(neg) else np.inf
    assert blocks.max_step(s, dv) == expect


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
        s, z = (np.concatenate([np.full(p_eq, np.nan), _interior(rng, cones)]) for _ in range(2))
        w2 = _Scaling(blocks, s, z).w_squared()
        if values == "zero-entry" and w2.size:
            w2[rng.integers(w2.size)] = 0.0
    ref_W2 = sp.identity(p_in, format="csc") if values == "identity" else (
        _w_squared_matrix(blocks, w2)[p_eq:, p_eq:]
    )
    A = sp.vstack([A_eq, G], format="csc")
    structure = _KKTStructure(A, blocks_cones)
    kkt = _KKT(structure, A, "diagonal")
    K, K_reg = kkt.matrices(w2)

    # the stored order is a symmetric permutation: original row r sits at
    # perm_c[r], so the reference is permuted by q = argsort(perm_c)
    dim = K.shape[0]
    np.testing.assert_array_equal(np.sort(structure.perm_c), np.arange(dim))
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
