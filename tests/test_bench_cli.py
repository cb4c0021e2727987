"""Benchmark scenario handling, discretization oracle, writers, CLI contract."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scvx.bench import (
    builtin_quadrotor,
    build_quadrotor_problem,
    initial_guess,
    report_dict,
    scenario_from_dict,
    scenario_from_file,
    solve_quadrotor,
    write_outputs,
    zoh_blocks,
    _trim_control,
)
from scvx import cli
from scvx.cli import _sweep_workers, _unique_dirs, main
from scvx.errors import BadScenarioError, InfeasibleScenarioError
from scvx.problem import unstack


def builtin_dict(**overrides):
    d = builtin_quadrotor().to_dict()
    d.update(overrides)
    return d


def write_scenario(tmp_path, name="scenario.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(builtin_dict(**overrides)))
    return str(path)


# ---------------------------------------------------------------------------
# scenario parsing and validation


def test_builtin_scenario_values():
    s = builtin_quadrotor()
    assert s.N == 25 and s.t_f == 15.0
    assert s.dt == pytest.approx(0.625)
    assert s.V_max == 2.0 and s.u_max == 13.33
    assert s.g_vec == (0.0, 0.0, -9.81)
    assert s.theta_cone == 30.0 and s.n_hat == (0.0, 0.0, 1.0)
    assert s.p0 == (-8.0, -1.0, 0.0) and s.pf == (8.0, 1.0, 0.5)
    assert s.v0 == (0.0, 0.0, 0.0) and s.vf == (0.0, 0.0, 0.0)
    assert [(ob.center, ob.radius) for ob in s.obstacles] == [
        ((-1.0, 0.0), 3.0),
        ((4.0, -1.0), 1.5),
    ]
    assert s.penalty_lambda == 0.0 and s.epsilon == 1e-6
    assert s.mode == "equality"


def test_scenario_dict_round_trip():
    s = builtin_quadrotor()
    assert scenario_from_dict(s.to_dict()).to_dict() == s.to_dict()


@pytest.mark.parametrize(
    "overrides",
    [
        {"N": 1},
        {"N": 25.0},
        {"N": True},
        {"t_f": -1.0},
        {"t_f": "soon"},
        {"V_max": 0.0},
        {"u_max": float("nan")},
        {"theta_cone": 0.0},
        {"theta_cone": 120.0},
        {"n_hat": (1.0, 1.0, 0.0)},
        {"g_vec": (0.0, 0.0)},
        {"obstacles": [{"center": [0, 0], "radius": 1, "height": 2}]},
        {"obstacles": [{"center": [0, 0]}]},
        {"obstacles": [[0, 0, 1]]},
        {"lambda": -1.0},
        {"epsilon": 0.0},
        {"theta_cone": 90.0},
    ],
)
def test_bad_scenario_values_rejected(overrides):
    with pytest.raises(BadScenarioError):
        scenario_from_dict(builtin_dict(**overrides))


def test_tilt_just_below_90_degrees_solves():
    # 90 degrees is rejected above: the thrust cone's rows would carry
    # axis / cos(theta), about 1.6e16, and the built-in run's cone solve
    # failed there; just below it the run is the built-in one
    run = solve_quadrotor(scenario_from_dict(builtin_dict(theta_cone=89.99)))
    assert run.report.converged and run.report.successions == 9
    assert run.record.cost == pytest.approx(245.4575, abs=1e-4)


def test_unknown_and_missing_fields_rejected():
    with pytest.raises(BadScenarioError, match="unknown"):
        scenario_from_dict(builtin_dict(warp_drive=1))
    d = builtin_dict()
    del d["p0"]
    with pytest.raises(BadScenarioError, match="missing"):
        scenario_from_dict(d)
    with pytest.raises(BadScenarioError, match="object"):
        scenario_from_dict([1, 2, 3])


def test_scenario_file_errors(tmp_path):
    with pytest.raises(BadScenarioError, match="cannot read"):
        scenario_from_file(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BadScenarioError, match="valid JSON"):
        scenario_from_file(str(bad))


# ---------------------------------------------------------------------------
# discretization and problem construction


def test_zoh_blocks_match_matrix_exponential():
    dt = 0.625
    Ac = np.zeros((6, 6))
    Ac[:3, 3:] = np.eye(3)
    Bc = np.vstack([np.zeros((3, 3)), np.eye(3)])
    M = np.zeros((9, 9))
    M[:6, :6] = Ac
    M[:6, 6:] = Bc
    E = scipy.linalg.expm(M * dt)
    A, B, d = zoh_blocks(dt, (0.0, 0.0, -9.81))
    np.testing.assert_allclose(A, E[:6, :6], atol=1e-12)
    np.testing.assert_allclose(B, E[:6, 6:], atol=1e-12)
    np.testing.assert_allclose(d, B @ np.array([0.0, 0.0, -9.81]), atol=1e-15)


def test_trim_control_is_hover():
    u = _trim_control(builtin_quadrotor())
    np.testing.assert_allclose(u, [0.0, 0.0, 9.81], atol=1e-15)


def test_trim_control_infeasible_scenarios():
    weak = scenario_from_dict(builtin_dict(u_max=5.0))
    with pytest.raises(InfeasibleScenarioError, match="thrust"):
        _trim_control(weak)
    tilted = scenario_from_dict(builtin_dict(n_hat=(1.0, 0.0, 0.0)))
    with pytest.raises(InfeasibleScenarioError, match="cone"):
        _trim_control(tilted)


def test_initial_guess_structure():
    s = builtin_quadrotor()
    problem = build_quadrotor_problem(s)
    y = initial_guess(s)
    assert y.size == problem.dims.n_y
    states, controls = unstack(problem.dims, y)
    np.testing.assert_allclose(states[0, :3], s.p0, atol=1e-15)
    np.testing.assert_allclose(states[-1, :3], s.pf, atol=1e-15)
    np.testing.assert_allclose(states[0, 3:], s.v0, atol=1e-15)
    np.testing.assert_allclose(states[-1, 3:], s.vf, atol=1e-15)
    # straight-line ground track, hover controls everywhere
    mid = 0.5 * (np.asarray(s.p0) + np.asarray(s.pf))
    np.testing.assert_allclose(states[12, :3], mid, atol=1e-12)
    np.testing.assert_allclose(controls, np.tile([0.0, 0.0, 9.81], (24, 1)), atol=1e-15)


def test_problem_dimensions():
    problem = build_quadrotor_problem(builtin_quadrotor())
    assert (problem.dims.n, problem.dims.m, problem.dims.T, len(problem.state_constraints)) == (6, 3, 25, 2)
    assert problem.dims.n_y == 222
    rows = [(g.kind, len(g), g.indices.shape[1]) for g in problem.affine_rows + problem.keepouts]
    assert rows == [("dynamics-defect", 24 * 6, 6 + 3 + 1), ("state-constraint", 25 * 2, 2)]


def test_endpoint_inside_obstacle_is_infeasible():
    s = scenario_from_dict(builtin_dict(pf=[4.0, -1.0, 0.5]))
    with pytest.raises(InfeasibleScenarioError, match="inside obstacle"):
        build_quadrotor_problem(s)
    # dropping the obstacles makes the same endpoints valid
    build_quadrotor_problem(s, include_obstacles=False)


def test_boundary_speed_above_vmax_is_infeasible():
    s = scenario_from_dict(builtin_dict(v0=[3.0, 0.0, 0.0]))
    with pytest.raises(InfeasibleScenarioError, match="V_max"):
        build_quadrotor_problem(s)


# ---------------------------------------------------------------------------
# trajectory record and writers


def test_trajectory_record_contents(quad_scenario, benchmark_run):
    rec = benchmark_run.record
    np.testing.assert_allclose(rec.times, np.arange(25) * 0.625, atol=1e-15)
    assert rec.positions.shape == (25, 3)
    assert rec.velocities.shape == (25, 3)
    assert rec.controls.shape == (25, 3)
    assert rec.margins.shape == (25, 2)
    np.testing.assert_allclose(rec.controls[-1], [0.0, 0.0, 9.81], atol=1e-15)
    assert rec.cost == pytest.approx(
        float(np.linalg.norm(rec.controls, axis=1).sum()), abs=1e-12
    )
    # margins are recomputed ground-track clearances
    d0 = np.hypot(rec.positions[0, 0] + 1.0, rec.positions[0, 1]) - 3.0
    assert rec.margins[0, 0] == pytest.approx(d0, abs=1e-12)
    assert float(rec.margins.min()) >= -1e-7


def test_convex_record_has_no_margin_columns(convex_run):
    assert convex_run.record.margins.shape == (25, 0)
    assert convex_run.report.relaxation_floor is None


def test_report_dict_contents(benchmark_run):
    out = report_dict(benchmark_run)
    assert out["converged"] is True
    assert out["mode"] == "equality"
    assert out["cost"] == pytest.approx(benchmark_run.record.cost)
    assert out["penalty"] == out["objective_values"][-1]
    assert len(out["records"]) == out["successions"]
    for field in ("subsolver_start", "subsolver_pivoting", "subsolver_tol", "subsolver_resolved"):
        assert [r[field] for r in out["records"]] == [
            getattr(r, field) for r in benchmark_run.report.records
        ]
    # the first successions run loose, the stopping one at full tolerance
    assert out["records"][0]["subsolver_tol"] == 1e-6
    assert out["records"][-1]["subsolver_tol"] == 1e-9
    assert out["feasibility"]["defect_max"] <= 1e-7
    assert out["scenario"]["N"] == 25
    assert "wall_time" not in out and "time" not in out


def test_written_outputs_parse_and_agree(tmp_path, benchmark_run):
    paths = write_outputs(str(tmp_path / "out"), benchmark_run)
    assert sorted(os.path.basename(p) for p in paths.values()) == [
        "cost_curve.csv",
        "ground_track.csv",
        "path3d.csv",
        "report.json",
        "trajectory.csv",
    ]
    parsed = json.loads(open(paths["report.json"]).read())
    assert parsed["cost"] == pytest.approx(benchmark_run.record.cost, abs=1e-12)
    lines = open(paths["trajectory.csv"]).read().splitlines()
    assert len(lines) == 26
    header = lines[0].split(",")
    assert header[:12] == [
        "step", "t", "px", "py", "pz", "vx", "vy", "vz", "ux", "uy", "uz", "u_norm",
    ]
    assert header[12:] == ["margin_1", "margin_2"]
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(-8.0, abs=1e-9)
    curve = open(paths["cost_curve.csv"]).read().splitlines()
    assert len(curve) == 1 + len(benchmark_run.report.penalty_values)


def test_rerun_writes_identical_bytes(tmp_path, quad_scenario, benchmark_run):
    first = write_outputs(str(tmp_path / "a"), benchmark_run)
    rerun = solve_quadrotor(quad_scenario)
    second = write_outputs(str(tmp_path / "b"), rerun)
    for name in first:
        a = open(first[name], "rb").read()
        b = open(second[name], "rb").read()
        assert a == b, f"{os.path.basename(name)} differs between reruns"


# ---------------------------------------------------------------------------
# CLI contract


def run_cli(*argv):
    return main(list(argv))


def test_cli_builtin_run(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli("run", "--builtin", "quadrotor", "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "status: converged" in stdout
    assert "fixed-point residual" in stdout
    table = stdout.splitlines()
    assert table[0].split() == [
        "k", "penalty", "improvement", "accepted", "halfspaces", "start", "pivoting", "tol",
        "ipm-iters",
    ]
    # the first succession warm-starts from the relaxation floor's solution
    assert table[2].split()[5] == "warm" and table[3].split()[5] == "warm"
    for name in ("report.json", "trajectory.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_cli_rejects_bad_usage(tmp_path, capsys):
    assert run_cli("run") == 4  # no scenario
    assert run_cli("run", "--builtin", "quadrotor", "x.json") == 4  # both
    assert run_cli("run", "a.json", "b.json") == 4  # several without --sweep
    assert run_cli("run", str(tmp_path / "absent.json")) == 4
    assert run_cli("frobnicate") == 4  # argparse usage error remapped
    assert run_cli("run", "--builtin", "quadrotor", "--jobs", "3") == 4  # --jobs without --sweep
    assert "--jobs needs --sweep" in capsys.readouterr().err


def test_cli_rejects_bad_override_values(capsys):
    # parseable but semantically invalid flag values are input errors, not
    # solver failures
    assert run_cli("run", "--builtin", "quadrotor", "--epsilon", "-1") == 4
    assert run_cli("run", "--builtin", "quadrotor", "--epsilon", "nan") == 4
    assert run_cli("run", "--builtin", "quadrotor", "--epsilon", "inf") == 4
    assert run_cli("run", "--builtin", "quadrotor", "--max-iter", "0") == 4
    assert run_cli("run", "--builtin", "quadrotor", "--sweep", "--jobs", "-1") == 4
    err = capsys.readouterr().err
    assert "--epsilon must be positive" in err
    assert "--max-iter must be at least 1" in err
    assert "--jobs must be non-negative" in err


def test_sweep_worker_count_is_clamped():
    # only the count is computed: a huge --jobs must never reach the pool
    cpus = os.cpu_count() or 1
    assert _sweep_workers(10**9, 3) == min(3, cpus)
    assert _sweep_workers(None, 5) == min(5, cpus)
    assert _sweep_workers(0, 5) == min(5, cpus)
    assert _sweep_workers(1, 5) == 1


def test_sweep_directories_are_distinct():
    # x/a.json, y/a.json and z/a_2.json: the second "a" must not take the
    # name the third scenario already owns
    dirs = _unique_dirs("out", ["a", "a", "a_2"])
    assert dirs == [os.path.join("out", name) for name in ("a", "a_2", "a_2_2")]
    assert _unique_dirs("out", ["a_2", "a", "a"])[2] == os.path.join("out", "a_3")


def test_cli_out_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch):
    # the output directory is made before the solve, so a bad --out is a
    # usage error that costs no solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite an unusable --out")

    monkeypatch.setattr(cli, "solve_quadrotor", no_solve)
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_scenario(tmp_path)
    assert run_cli("run", "--builtin", "quadrotor", "--out", str(taken)) == 4
    assert run_cli("run", path, "--out", str(taken)) == 4
    assert run_cli("run", "--builtin", "quadrotor", "--sweep", "--out", str(taken)) == 4
    assert run_cli("run", path, path, "--sweep", "--out", str(taken)) == 4
    err = capsys.readouterr().err
    assert err.count(f"cannot create output directory {taken}") == 4
    assert "internal failure" not in err


def test_cli_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", str(bad)) == 4
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(builtin_dict(warp_drive=1)))
    assert run_cli("run", str(unknown)) == 4
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obstacle, message",
    [
        ({"center": [float("nan"), 0.0], "radius": 2.0}, "center must be finite"),
        ({"center": [float("inf"), 0.0], "radius": 2.0}, "center must be finite"),
        ({"center": [0.0, 0.0], "radius": float("inf")}, "radius must be finite"),
    ],
    ids=["nan-center", "infinite-center", "infinite-radius"],
)
def test_cli_rejects_non_finite_obstacles(tmp_path, capsys, obstacle, message):
    # a malformed scenario (exit 4) before any solve, not a solver failure
    # (exit 3) or an infeasible one (exit 2); it writes no report
    path = write_scenario(tmp_path, obstacles=[obstacle])
    out = tmp_path / "out"
    assert run_cli("run", path, "--out", str(out)) == 4
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"theta_cone": "x"},
        {"theta_cone": None},
        {"lambda": "x"},
        {"epsilon": "x"},
        {"obstacles": [{"center": [0.0, 0.0], "radius": "abc"}]},
        {"obstacles": [{"center": [0.0, 0.0], "radius": [1]}]},
        {"obstacles": [{"center": [0.0, 0.0], "radius": None}]},
        {"obstacles": [{"center": "xy", "radius": 1.0}]},
        {"obstacles": [{"center": 5, "radius": 1.0}]},
        {"obstacles": 5},
        {"p0": "123"},
        {"V_max": True},
        {"lambda": False},
        {"theta_cone": "30"},
        {"obstacles": [{"center": [0.0, 0.0], "radius": "3"}]},
        {"obstacles": [{"center": [True, "0"], "radius": 3.0}]},
        {"p0": [-8.0, "-1", True]},
    ],
    ids=[
        "theta-string", "theta-null", "lambda-string", "epsilon-string",
        "radius-string", "radius-list", "radius-null", "center-string",
        "center-number", "obstacles-number", "p0-string", "vmax-true",
        "lambda-false", "theta-numeric-string", "radius-numeric-string",
        "center-bool-and-string", "p0-bool-and-string",
    ],
)
def test_cli_rejects_wrong_typed_values(tmp_path, capsys, overrides):
    # a value of the wrong JSON type is malformed input (exit 4), not an
    # internal failure (exit 3); a string is no list of numbers either, and
    # true, false and a numeric string such as "30" are no numbers
    path = write_scenario(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run_cli("run", path, "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert "error" in err and "internal failure" not in err
    assert not (out / "report.json").exists()


def test_cli_reports_infeasible_scenario(tmp_path, capsys):
    path = write_scenario(
        tmp_path, obstacles=[{"center": [0.0, 0.0], "radius": 20.0}]
    )
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 2
    assert "inside obstacle" in capsys.readouterr().err


def test_cli_exit_3_when_not_converged(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli("run", "--builtin", "quadrotor", "--out", out, "--max-iter", "1")
    assert code == 3
    assert "did not converge" in capsys.readouterr().err


def test_cli_no_obstacles_flag(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli("run", "--builtin", "quadrotor", "--out", out, "--no-obstacles") == 0
    capsys.readouterr()
    parsed = json.loads(open(os.path.join(out, "report.json")).read())
    assert parsed["include_obstacles"] is False
    assert parsed["successions"] == 1
    header = open(os.path.join(out, "trajectory.csv")).readline().strip().split(",")
    assert all(not h.startswith("margin") for h in header)


def test_cli_epsilon_and_max_iter_passthrough(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = write_scenario(tmp_path)
    assert run_cli("run", path, "--out", out, "--epsilon", "1e-2", "--max-iter", "30") == 0
    capsys.readouterr()
    parsed = json.loads(open(os.path.join(out, "report.json")).read())
    assert parsed["epsilon"] == pytest.approx(1e-2)
    assert parsed["max_successions"] == 30
    assert parsed["successions"] <= 9


def test_cli_sweep_over_two_scenarios(tmp_path, capsys):
    a = write_scenario(tmp_path, "east.json", epsilon=1e-2)
    b = write_scenario(tmp_path, "west.json", epsilon=1e-2, pf=[8.0, -2.0, 0.5])
    out = str(tmp_path / "sweep")
    assert run_cli("run", a, b, "--sweep", "--out", out, "--jobs", "2") == 0
    stdout = capsys.readouterr().out
    assert stdout.count("exit 0") == 2
    for stem in ("east", "west"):
        assert os.path.exists(os.path.join(out, stem, "report.json"))


def test_cli_sweep_propagates_worst_exit_code(tmp_path, capsys):
    good = write_scenario(tmp_path, "good.json", epsilon=1e-2)
    bad = write_scenario(
        tmp_path, "bad.json", obstacles=[{"center": [0.0, 0.0], "radius": 20.0}]
    )
    out = str(tmp_path / "sweep")
    assert run_cli("run", good, bad, "--sweep", "--out", out, "--jobs", "2") == 2
    capsys.readouterr()


def test_cli_dump_subproblems(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = write_scenario(tmp_path, epsilon=1e-2)
    assert run_cli("run", path, "--out", out, "--dump-subproblems") == 0
    capsys.readouterr()
    dumps = sorted(os.listdir(os.path.join(out, "subproblems")))
    assert dumps and dumps[0] == "subproblem_001.txt"
    text = open(os.path.join(out, "subproblems", dumps[0])).read()
    assert "zero" in text and "soc" in text


# ---------------------------------------------------------------------------
# fuzzed scenarios through the CLI

_cylinders = st.fixed_dictionaries({
    # anywhere around the corridor, or centred on an endpoint
    "center": st.sampled_from([[-8.0, -1.0], [8.0, 1.0]])
    | st.tuples(st.floats(-9.0, 9.0), st.floats(-4.0, 4.0)).map(list),
    "radius": st.floats(0.3, 4.0),
})
_scenarios = st.fixed_dictionaries({
    "N": st.integers(3, 8),
    "obstacles": st.lists(_cylinders, max_size=3),
    "theta_cone": st.floats(5.0, 90.0),
    "V_max": st.floats(0.2, 4.0),
    # the hover thrust is 9.81
    "u_max": st.sampled_from([13.33, 9.81]) | st.floats(9.5, 16.0),
    "lambda": st.sampled_from([0.0, 100.0]),
})
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# JSON values that float() reads as numbers but are none: true, false and
# numeric strings
_number_like = st.booleans() | st.sampled_from(["30", "0", "1.5"])
# JSON values of the wrong type: a string that reads as no number, null, a
# list (of one or three numbers: neither a number nor a center), an object
# or a number-like value
_wrong_typed = (
    st.text(alphabet="abcxyz", max_size=3)
    | st.none()
    | st.sampled_from([1, 3]).flatmap(lambda k: st.lists(st.floats(0.3, 4.0), min_size=k, max_size=k))
    | st.fixed_dictionaries({"value": st.floats(0.3, 4.0)})
    | _number_like
)


@st.composite
def _invalid_scenarios(draw):
    """A drawn scenario with one value scenario validation must reject: a
    tilt of 90 degrees or more, a non-finite number, an obstacle radius of
    at most 1e-12, or a value of the wrong type, in a center's coordinate
    too."""
    overrides = draw(_scenarios)
    field = draw(st.sampled_from(["theta_cone", "V_max", "u_max", "lambda", "epsilon", "center", "radius"]))
    if field in ("center", "radius"):
        center, radius = [0.0, 0.0], 1.0
        if field == "center":
            if draw(st.booleans()):
                center[draw(st.integers(0, 1))] = draw(_non_finite | _number_like)
            else:
                center = draw(_wrong_typed)
        else:
            radius = draw(_non_finite | st.sampled_from([1e-12, 0.0, -1.0]) | _wrong_typed)
        return {**overrides, "obstacles": overrides["obstacles"] + [{"center": center, "radius": radius}]}
    if field == "theta_cone":
        return {**overrides, field: draw(st.floats(90.0, 720.0) | _non_finite | _wrong_typed)}
    return {**overrides, field: draw(_non_finite | _wrong_typed)}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _must_reject(overrides) -> bool:
    """Whether scenario validation must reject the overrides (exit 4)."""
    values = [v for key, v in overrides.items() if key != "obstacles"]
    for obstacle in overrides["obstacles"]:
        center = obstacle["center"]
        if not (isinstance(center, list) and len(center) == 2):
            return True
        values += [*center, obstacle["radius"]]
    return (
        not all(_is_number(v) for v in values)
        or not 0.0 < overrides["theta_cone"] < 90.0
        or any(obstacle["radius"] <= 1e-12 for obstacle in overrides["obstacles"])
    )


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(_scenarios | _invalid_scenarios())
# lambda = 100 with a speed bound too small to reach pf: the relaxed
# dynamics converged to a defect of 2.06 and the CLI exited 0
@example({"N": 5, "obstacles": [], "theta_cone": 5.0, "V_max": 0.2,
          "u_max": 10.031820484126394, "lambda": 100.0})
# overlapping cylinders across the corridor, in both modes
@example({"N": 8, "obstacles": [{"center": [-1.0, 0.0], "radius": 2.0},
                                {"center": [0.5, 0.5], "radius": 1.5}],
          "theta_cone": 30.0, "V_max": 2.0, "u_max": 13.33, "lambda": 0.0})
@example({"N": 8, "obstacles": [{"center": [-1.0, 0.0], "radius": 2.0},
                                {"center": [0.5, 0.5], "radius": 1.5}],
          "theta_cone": 30.0, "V_max": 2.0, "u_max": 13.33, "lambda": 100.0})
# a NaN obstacle center and a radius at the keep-out floor: exit 4
@example({"N": 5, "obstacles": [{"center": [math.nan, 0.0], "radius": 2.0}],
          "theta_cone": 30.0, "V_max": 2.0, "u_max": 13.33, "lambda": 0.0})
@example({"N": 5, "obstacles": [{"center": [0.0, 0.0], "radius": 1e-12}],
          "theta_cone": 30.0, "V_max": 2.0, "u_max": 13.33, "lambda": 0.0})
# a null tilt, a true speed bound and a numeric-string tilt: values of the
# wrong type, exit 4
@example({"N": 5, "obstacles": [], "theta_cone": None, "V_max": 2.0,
          "u_max": 13.33, "lambda": 0.0})
@example({"N": 5, "obstacles": [], "theta_cone": 30.0, "V_max": True,
          "u_max": 13.33, "lambda": 0.0})
@example({"N": 5, "obstacles": [], "theta_cone": "30", "V_max": 2.0,
          "u_max": 13.33, "lambda": 0.0})
def test_fuzzed_scenarios_exit_with_documented_codes(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(builtin_dict(**overrides), fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", path, "--out", out])
        assert code in ((4,) if _must_reject(overrides) else (0, 2, 3))
        assert "internal failure" not in err.getvalue()
        if code == 0:
            with open(os.path.join(out, "report.json")) as fh:
                feas = json.load(fh)["feasibility"]
            assert feas["defect_max"] <= 1e-7 and feas["pin_error"] <= 1e-7
            for key in ("base_margin_min", "state_margin_min"):
                assert feas[key] is None or feas[key] >= -1e-7
