"""Acceptance gate: every headline claim of the library, one pass line each.

Each test covers one acceptance criterion end to end and prints a single
ACCEPTANCE PASS line when it holds; run with -v (or -s) to see the lines.
"""

import json
import os
import time

import numpy as np

from scvx import conic
from scvx.bench import build_quadrotor_problem
from scvx.cli import main as cli_main
from scvx.driver import feasibility_summary, scvx
from tests.checks import eval_q, project_generic, project_point, residuals, verify_invariance
from scvx.linearize import FeasibleRegion, build_feasible_region
from scvx.problem import KeepoutGroup
from scvx.subproblem import assemble, extract
from tests.test_conic import make_program, random_feasible_program
from tests.test_projection import _unit, disk_constraint, grid_oracle, tilted_cylinder


def ok(name, detail=""):
    print(f"ACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


def test_benchmark_reproduction(tmp_path, capsys):
    out = str(tmp_path / "out")
    t0 = time.perf_counter()
    code = cli_main(["run", "--builtin", "quadrotor", "--out", out])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == 0
    assert elapsed < 10.0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["converged"] is True
    assert 242.9 <= report["cost"] <= 247.8
    assert report["successions"] <= 10
    assert report["feasibility"]["defect_max"] <= 1e-7
    assert report["feasibility"]["pin_error"] <= 1e-7
    rows = open(os.path.join(out, "trajectory.csv")).read().splitlines()
    header = rows[0].split(",")
    cols = [i for i, h in enumerate(header) if h.startswith("margin_")]
    margins = np.array(
        [[float(r.split(",")[i]) for i in cols] for r in rows[1:]]
    )
    assert margins.shape == (25, 2)
    assert float(margins.min()) >= -1e-7
    with capsys.disabled():
        ok(
            "benchmark reproduction",
            f"cost {report['cost']:.5f}, {report['successions']} successions, "
            f"{elapsed:.2f} s, min margin {margins.min():.2e}",
        )


def test_monotone_decrease(benchmark_run):
    p = np.asarray(benchmark_run.report.penalty_values)
    worst = float(np.max(np.diff(p)))
    assert worst <= 1e-9
    ok("monotone decrease", f"worst increment {worst:.3e} over {p.size - 1} steps")


def test_recursive_feasibility(quad_problem, quad_start, benchmark_run):
    for z in benchmark_run.report.iterates:
        assert float(eval_q(quad_problem, z).min()) >= -1e-7
        s = feasibility_summary(quad_problem, z)
        assert s["defect_max"] <= 1e-7
        assert s["pin_error"] <= 1e-7
        assert s["base_margin_min"] >= -1e-7
    region = build_feasible_region(quad_problem, quad_start, "equality")
    rep = verify_invariance(quad_problem, region, n_samples=10000, seed=7)
    assert rep.samples == 10000
    assert rep.violations == 0
    assert rep.worst_margin >= -1e-8
    ok(
        "recursive feasibility",
        f"{len(benchmark_run.report.iterates)} iterates feasible, "
        f"10000 region samples, worst margin {rep.worst_margin:.2e}",
    )


def test_fixed_point_certificate(quad_problem, quad_config, benchmark_run):
    res = benchmark_run.report.fixed_point_residual
    assert res is not None
    assert -1e-9 <= res < 1e-6
    rerun = scvx(quad_problem, benchmark_run.report.z, quad_config)
    assert rerun.successions == 1
    assert rerun.converged
    ok(
        "fixed-point certificate",
        f"residual {res:.3e}, restart stopped after 1 succession",
    )


def test_projection_correctness(rng):
    # analytic vs generic-conic agreement on 100 instances
    worst_agree = 0.0
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            center = rng.uniform(-2.0, 2.0, size=2)
            radius = float(rng.uniform(0.3, 2.0))
            c = disk_constraint(center, radius)
            z = center + rng.uniform(1.1, 3.0) * radius * _unit(rng)
        elif kind == 1:
            center = rng.uniform(-2.0, 2.0, size=2)
            radius = float(rng.uniform(0.3, 2.0))
            c = disk_constraint(center, radius, indices=(1, 2))
            z = np.zeros(4)
            z[[1, 2]] = center + rng.uniform(1.1, 3.0) * radius * _unit(rng)
            z[[0, 3]] = rng.standard_normal(2)
        else:
            c, z = tilted_cylinder(rng)
        gap = float(np.linalg.norm(project_point(c, z) - project_generic(c, z)))
        worst_agree = max(worst_agree, gap)
        assert gap <= 1e-6

    # grid-search oracle on 20 two-dimensional instances
    worst_grid = 0.0
    cases = [(np.array([-1.0, 0.0]), 3.0, np.array([-8.0, -1.0]))]
    for _ in range(19):
        center = rng.uniform(-1.0, 1.0, size=2)
        radius = float(rng.uniform(0.2, 0.5))
        cases.append((center, radius, center + rng.uniform(1.5, 3.0) * _unit(rng)))
    for center, radius, z in cases:
        distance = np.linalg.norm(project_point(disk_constraint(center, radius), z) - z)
        gap = grid_oracle(center, radius, z) - distance
        worst_grid = max(worst_grid, abs(gap))
        assert 0.0 <= gap <= 2e-3

    # non-expansiveness on 1000 random pairs
    specs = [
        disk_constraint([0.0, 0.0], 1.0),
        disk_constraint([1.0, -1.0], 2.0),
        disk_constraint([0.5], 0.5, H=[[0.6, 0.8]]),  # a slab keep-out
    ]
    for i in range(1000):
        c = specs[i % len(specs)]
        a = rng.uniform(-5.0, 5.0, size=2)
        b = rng.uniform(-5.0, 5.0, size=2)
        pa = project_point(c, a)
        pb = project_point(c, b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9
    ok(
        "projection correctness",
        f"100 conic agreements <= {worst_agree:.1e}, 20 grid checks <= "
        f"{worst_grid:.1e}, 1000 non-expansive pairs",
    )


def test_conic_solver():
    rng = np.random.default_rng(42)
    worst = 0.0
    kept = None
    for k in range(200):
        prog = random_feasible_program(rng)
        sol = conic.solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        pres, dres, gap = residuals(prog, sol)
        worst = max(worst, pres, dres, gap)
        if k == 137:
            kept = (prog, sol)
    assert worst <= 1e-8

    # hand-worked programs
    s1 = conic.solve(
        make_program([1.0], [[-1.0]], [-1.0], [conic.Cone("nonneg", 1)]), tol=1e-9
    )
    assert s1.status == "optimal" and abs(s1.x[0] - 1.0) <= 1e-8
    s2 = conic.solve(
        make_program(
            [1.0], [[-1.0], [0.0], [0.0]], [0.0, 3.0, 4.0], [conic.Cone("soc", 3)]
        ),
        tol=1e-9,
    )
    assert s2.status == "optimal" and abs(s2.x[0] - 5.0) <= 1e-8
    s3 = conic.solve(
        make_program(
            [1.0, 1.0],
            [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            [1.0, 0.0, 0.0],
            [conic.Cone("zero", 1), conic.Cone("nonneg", 2)],
        ),
        tol=1e-9,
    )
    assert s3.status == "optimal" and abs(s3.x.sum() - 1.0) <= 1e-8
    assert abs(s3.z_dual[0] + 1.0) <= 1e-8

    # bitwise-identical resolve
    prog, first = kept
    again = conic.solve(prog, tol=1e-9)
    assert again.iterations == first.iterations
    assert np.array_equal(again.x, first.x)
    assert np.array_equal(again.s, first.s)
    assert np.array_equal(again.z_dual, first.z_dual)
    ok(
        "conic solver",
        f"200 random SOCPs worst residual {worst:.2e}, "
        "3 exact KKT examples, bitwise resolve",
    )


def test_convex_degeneration(quad_scenario, convex_run):
    report = convex_run.report
    assert report.successions == 1
    assert report.converged
    problem = build_quadrotor_problem(quad_scenario, include_obstacles=False)
    region = FeasibleRegion(problem.base_set, (), report.iterates[0])
    artifacts = assemble(problem, convex_run.config.penalty, region)
    sol = conic.solve(artifacts.program, tol=1e-9)
    assert sol.status == "optimal"
    _, _, direct = extract(artifacts, sol)
    gap = abs(report.objective_values[-1] - direct)
    assert gap <= 1e-7
    ok(
        "convex degeneration",
        f"1 succession, cost matches direct solve within {gap:.2e}",
    )


def test_gradient_suite(quad_problem, rng):
    # the gradients the library linearizes with, a group's rows at a time:
    # a keep-out's H^T v / |v| and an affine row's own a, against central
    # differences of the row values in each row's own coordinates
    def values(group, w):
        if isinstance(group, KeepoutGroup):
            return group.residuals(w)[1] - group.radii
        return np.sum(group.a * w, axis=1) + group.beta

    lo, hi = quad_problem.base_set.coordinate_bounds()
    width = np.where(np.isfinite(hi - lo), hi - lo, 2.0)
    center = np.where(np.isfinite(lo), lo, -1.0) + 0.5 * width
    groups = quad_problem.affine_rows + quad_problem.keepouts
    worst = 0.0
    for _ in range(100):
        y = center + rng.uniform(-0.75, 0.75, size=quad_problem.dims.n_y) * width
        for group in groups:
            w = y[group.indices]
            g = group.grads(w) if isinstance(group, KeepoutGroup) else group.a
            fd = np.empty_like(g)
            for k in range(w.shape[1]):
                h = 1e-6 * np.maximum(1.0, np.abs(w[:, k]))
                wp = w.copy()
                wm = w.copy()
                wp[:, k] += h
                wm[:, k] -= h
                fd[:, k] = (values(group, wp) - values(group, wm)) / (2.0 * h)
            rel = np.linalg.norm(fd - g, axis=1) / (1.0 + np.linalg.norm(g, axis=1))
            worst = max(worst, float(rel.max()))
            assert rel.max() <= 1e-5
    ok(
        "gradient suite",
        f"{sum(len(group) for group in groups)} rows x 100 points, worst relative "
        f"difference {worst:.2e}",
    )
