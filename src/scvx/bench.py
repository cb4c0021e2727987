"""Multi-rotor obstacle-avoidance benchmark: scenarios, problem build, outputs.

A scenario is a flat JSON object naming the horizon, bounds, boundary
states, cylindrical keep-out zones, penalty weight, and convergence
threshold.  The vehicle is a 3-D double integrator under gravity with
thrust bounded in magnitude and tilt; the objective is total thrust
Sum_i ||u_i||.  The terminal node carries a fixed trim control -g_vec
(hover), so N temporal points contribute N thrust terms while only N-1
controls are decision variables.

All emitted files are byte-deterministic: floats are printed with 17
significant digits and no timing information is written.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .driver import ScvxConfig, SolveReport, feasibility_summary, find_feasible_start, scvx
from .errors import BadScenarioError, InfeasibleScenarioError
from .penalty import PenaltyConfig
from .problem import (
    NORM_SINGULARITY_RADIUS,
    AffineDynamics,
    Ball,
    BaseSet,
    Box,
    Cone,
    ControlNormSum,
    NormFn,
    OptimalControlProblem,
    Pin,
    ProblemDims,
    StateConstraint,
    unstack,
)


def _is_number(v) -> bool:
    """An int, a float or a numpy integer or float.  float() also reads
    true, false and a numeric string such as "30"; none of them is one."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _number(name, v) -> float:
    """v as a float; BadScenarioError if it is no number (null, a list, true, "30", ...)."""
    if not _is_number(v):
        raise BadScenarioError(f"{name} must be a number, got {v!r}")
    return float(v)


def _vector(name, v, size) -> tuple:
    """v as a tuple of size finite floats; BadScenarioError otherwise."""
    if not isinstance(v, (list, tuple, np.ndarray)) or not all(_is_number(c) for c in v):
        raise BadScenarioError(f"{name} must be a list of {size} numbers")
    out = tuple(float(c) for c in v)
    if len(out) != size:
        raise BadScenarioError(f"{name} must have {size} coordinates, got {len(out)}")
    if not all(math.isfinite(c) for c in out):
        raise BadScenarioError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class Obstacle:
    """A cylindrical keep-out zone: ground-plane center and radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = _vector("obstacle center", self.center, 2)
        radius = _number("obstacle radius", self.radius)
        if not math.isfinite(radius):
            raise BadScenarioError("obstacle radius must be finite")
        if not radius > NORM_SINGULARITY_RADIUS:
            # StateConstraint admits no smaller keep-out
            raise BadScenarioError(f"obstacle radius must exceed {NORM_SINGULARITY_RADIUS:.0e}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


@dataclass(frozen=True)
class QuadrotorScenario:
    """Benchmark parameters; JSON field names match the attribute names.

    The JSON key for penalty_lambda is "lambda" (a reserved word here).
    theta_cone is the thrust tilt half-angle in degrees around n_hat, in
    (0, 90).
    """

    N: int
    t_f: float
    V_max: float
    u_max: float
    g_vec: tuple
    theta_cone: float
    n_hat: tuple
    p0: tuple
    v0: tuple
    pf: tuple
    vf: tuple
    obstacles: tuple = ()
    penalty_lambda: float = 0.0
    epsilon: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 2:
            raise BadScenarioError(f"N must be an integer >= 2, got {self.N!r}")
        for name in ("t_f", "V_max", "u_max"):
            v = _number(name, getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise BadScenarioError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)
        theta = _number("theta_cone", self.theta_cone)
        # at 90 degrees cos(theta) is 6e-17 and the thrust cone's rows carry
        # axis / cos(theta), about 1.6e16: no cone solve survives that
        if not (0.0 < theta < 90.0):
            raise BadScenarioError(f"theta_cone must be in (0, 90) degrees, got {theta!r}")
        object.__setattr__(self, "theta_cone", theta)
        for name in ("g_vec", "n_hat", "p0", "v0", "pf", "vf"):
            object.__setattr__(self, name, _vector(name, getattr(self, name), 3))
        nn = math.sqrt(sum(c * c for c in self.n_hat))
        if abs(nn - 1.0) > 1e-6:
            raise BadScenarioError(f"n_hat must be a unit vector, got norm {nn!r}")
        object.__setattr__(self, "n_hat", tuple(c / nn for c in self.n_hat))
        if not isinstance(self.obstacles, (list, tuple)):
            raise BadScenarioError("obstacles must be a list of objects with center and radius")
        obstacles = []
        for ob in self.obstacles:
            if isinstance(ob, Obstacle):
                obstacles.append(ob)
            elif isinstance(ob, dict):
                extra = set(ob) - {"center", "radius"}
                if extra:
                    raise BadScenarioError(f"unknown obstacle fields {sorted(extra)}")
                if "center" not in ob or "radius" not in ob:
                    raise BadScenarioError("each obstacle needs center and radius")
                obstacles.append(Obstacle(ob["center"], ob["radius"]))
            else:
                raise BadScenarioError("obstacles must be objects with center and radius")
        object.__setattr__(self, "obstacles", tuple(obstacles))
        lam = _number("lambda", self.penalty_lambda)
        if not (math.isfinite(lam) and lam >= 0.0):
            raise BadScenarioError(f"lambda must be a nonnegative number, got {lam!r}")
        object.__setattr__(self, "penalty_lambda", lam)
        eps = _number("epsilon", self.epsilon)
        if not (math.isfinite(eps) and eps > 0.0):
            raise BadScenarioError(f"epsilon must be positive, got {eps!r}")
        object.__setattr__(self, "epsilon", eps)

    @property
    def dt(self) -> float:
        return self.t_f / (self.N - 1)

    @property
    def mode(self) -> str:
        """Penalty weight zero keeps the affine dynamics as hard equalities."""
        return "penalty" if self.penalty_lambda > 0.0 else "equality"

    def to_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("penalty_lambda")
        return out


_REQUIRED_KEYS = (
    "N", "t_f", "V_max", "u_max", "g_vec", "theta_cone", "n_hat",
    "p0", "v0", "pf", "vf",
)
_OPTIONAL_KEYS = ("obstacles", "lambda", "epsilon")


def scenario_from_dict(data: dict) -> QuadrotorScenario:
    if not isinstance(data, dict):
        raise BadScenarioError("scenario must be a JSON object")
    unknown = set(data) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise BadScenarioError(f"unknown scenario fields {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise BadScenarioError(f"missing scenario fields {missing}")
    kwargs = {k: data[k] for k in _REQUIRED_KEYS}
    kwargs["obstacles"] = data.get("obstacles", ())
    kwargs["penalty_lambda"] = data.get("lambda", 0.0)
    kwargs["epsilon"] = data.get("epsilon", 1e-6)
    return QuadrotorScenario(**kwargs)


def scenario_from_file(path) -> QuadrotorScenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def builtin_quadrotor() -> QuadrotorScenario:
    """The built-in multi-rotor obstacle-avoidance benchmark scenario."""
    return QuadrotorScenario(
        N=25,
        t_f=15.0,
        V_max=2.0,
        u_max=13.33,
        g_vec=(0.0, 0.0, -9.81),
        theta_cone=30.0,
        n_hat=(0.0, 0.0, 1.0),
        p0=(-8.0, -1.0, 0.0),
        v0=(0.0, 0.0, 0.0),
        pf=(8.0, 1.0, 0.5),
        vf=(0.0, 0.0, 0.0),
        obstacles=(
            Obstacle((-1.0, 0.0), 3.0),
            Obstacle((4.0, -1.0), 1.5),
        ),
        penalty_lambda=0.0,
        epsilon=1e-6,
    )


def zoh_blocks(dt: float, g_vec) -> tuple:
    """Exact zero-order-hold blocks of the 3-D double integrator.

    x = (p, v), commanded acceleration u plus constant gravity g:
    x_{i+1} = A x_i + B (u_i + g).
    """
    I3 = np.eye(3)
    A = np.block([[I3, dt * I3], [np.zeros((3, 3)), I3]])
    B = np.vstack([0.5 * dt * dt * I3, dt * I3])
    d = B @ np.asarray(g_vec, dtype=float)
    return A, B, d


def _trim_control(scenario: QuadrotorScenario) -> np.ndarray:
    """The fixed terminal hover control -g_vec; must lie in the control set."""
    u = -np.asarray(scenario.g_vec, dtype=float)
    nu = float(np.linalg.norm(u))
    if nu > scenario.u_max + 1e-9:
        raise InfeasibleScenarioError(
            f"terminal hover needs thrust {nu:.4g} > u_max {scenario.u_max:.4g}"
        )
    cos_t = math.cos(math.radians(scenario.theta_cone))
    if float(np.dot(scenario.n_hat, u)) < cos_t * nu - 1e-9:
        raise InfeasibleScenarioError("terminal hover control lies outside the tilt cone")
    return u


def _check_boundary_states(scenario: QuadrotorScenario, include_obstacles: bool):
    for name, v in (("v0", scenario.v0), ("vf", scenario.vf)):
        if np.linalg.norm(v) > scenario.V_max + 1e-9:
            raise InfeasibleScenarioError(
                f"pinned {name} exceeds the speed bound V_max={scenario.V_max:.4g}"
            )
    if not include_obstacles:
        return
    for name, p in (("p0", scenario.p0), ("pf", scenario.pf)):
        for k, ob in enumerate(scenario.obstacles):
            dist = math.hypot(p[0] - ob.center[0], p[1] - ob.center[1])
            if dist <= ob.radius:
                raise InfeasibleScenarioError(
                    f"pinned {name} lies inside obstacle {k} "
                    f"(distance {dist:.4g} <= radius {ob.radius:.4g})"
                )


def _position_bounds(scenario: QuadrotorScenario) -> tuple:
    """A compact position box: hull of endpoints and obstacles, padded.

    The base set must be compact; velocity and control balls bound their
    coordinates but positions need an explicit box.  The pad grows with
    the geometry so the box never binds for sane scenarios.
    """
    xs = [scenario.p0[0], scenario.pf[0]]
    ys = [scenario.p0[1], scenario.pf[1]]
    zs = [scenario.p0[2], scenario.pf[2]]
    for ob in scenario.obstacles:
        xs += [ob.center[0] - ob.radius, ob.center[0] + ob.radius]
        ys += [ob.center[1] - ob.radius, ob.center[1] + ob.radius]
    lo = np.array([min(xs), min(ys), min(zs)])
    hi = np.array([max(xs), max(ys), max(zs)])
    pad = 2.0 + 0.1 * float(np.linalg.norm(hi - lo))
    return lo - pad, hi + pad


def build_quadrotor_problem(
    scenario: QuadrotorScenario, include_obstacles: bool = True
) -> OptimalControlProblem:
    """Assemble the benchmark as a generic optimal-control problem."""
    _trim_control(scenario)
    _check_boundary_states(scenario, include_obstacles)
    N = scenario.N
    obstacles = scenario.obstacles if include_obstacles else ()
    dims = ProblemDims(n=6, m=3, T=N)
    A, B, d = zoh_blocks(scenario.dt, scenario.g_vec)

    members = []
    x0 = np.concatenate([scenario.p0, scenario.v0])
    xf = np.concatenate([scenario.pf, scenario.vf])
    s0 = dims.state_slice(0)
    sf = dims.state_slice(N - 1)
    members.append(Pin(np.arange(s0.start, s0.stop), x0))
    members.append(Pin(np.arange(sf.start, sf.stop), xf))
    lo, hi = _position_bounds(scenario)
    for i in range(1, N - 1):
        ss = dims.state_slice(i)
        members.append(Box(np.arange(ss.start, ss.start + 3), lo, hi))
    for i in range(N):
        ss = dims.state_slice(i)
        members.append(Ball(np.arange(ss.start + 3, ss.stop), np.zeros(3), scenario.V_max))
    cos_t = math.cos(math.radians(scenario.theta_cone))
    for i in range(N - 1):
        us = dims.control_slice(i)
        idx = np.arange(us.start, us.stop)
        members.append(Ball(idx, np.zeros(3), scenario.u_max))
        members.append(Cone(idx, np.asarray(scenario.n_hat), cos_t))
    base = BaseSet(dims.n_y, tuple(members))

    state_constraints = tuple(
        # ground-track clearance: ||p_xy - center|| - r >= 0
        StateConstraint(
            NormFn(np.eye(2), np.asarray(ob.center), np.zeros(2), -ob.radius),
            (0, 1),
        )
        for ob in obstacles
    )

    objective = ControlNormSum(1.0, fixed_terms=(_trim_control(scenario),))
    return OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A, B, d),
        state_constraints=state_constraints,
        base_set=base,
        objective=objective,
    )


def initial_guess(scenario: QuadrotorScenario) -> np.ndarray:
    """Straight-line positions, boundary-consistent velocities, hover controls."""
    N = scenario.N
    p0 = np.asarray(scenario.p0)
    pf = np.asarray(scenario.pf)
    states = np.zeros((N, 6))
    for i in range(N):
        a = i / (N - 1)
        states[i, :3] = (1.0 - a) * p0 + a * pf
    states[0, 3:] = scenario.v0
    states[-1, 3:] = scenario.vf
    controls = np.tile(-np.asarray(scenario.g_vec, dtype=float), (N - 1, 1))
    return np.concatenate([states.ravel(), controls.ravel()])


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-step benchmark trajectory with obstacle margins and total cost.

    controls has one row per temporal point: the N-1 decision controls
    followed by the fixed terminal trim.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    controls: np.ndarray
    margins: np.ndarray  # (N, n_obstacles)
    cost: float


def trajectory_record(
    scenario: QuadrotorScenario,
    problem: OptimalControlProblem,
    y: np.ndarray,
    include_obstacles: bool = True,
) -> TrajectoryRecord:
    states, controls = unstack(problem.dims, y)
    N = scenario.N
    times = np.arange(N) * scenario.dt
    obstacles = scenario.obstacles if include_obstacles else ()
    margins = np.zeros((N, len(obstacles)))
    for j, ob in enumerate(obstacles):
        margins[:, j] = (
            np.linalg.norm(states[:, :2] - np.asarray(ob.center), axis=1) - ob.radius
        )
    controls_full = np.vstack([controls, _trim_control(scenario)])
    cost = float(np.sum(np.linalg.norm(controls_full, axis=1)))
    return TrajectoryRecord(
        times=times,
        positions=states[:, :3].copy(),
        velocities=states[:, 3:].copy(),
        controls=controls_full,
        margins=margins,
        cost=cost,
    )


@dataclass
class BenchmarkRun:
    scenario: QuadrotorScenario
    problem: OptimalControlProblem
    config: ScvxConfig
    report: SolveReport
    record: TrajectoryRecord
    include_obstacles: bool = True


def solve_quadrotor(
    scenario: QuadrotorScenario,
    include_obstacles: bool = True,
    epsilon: float | None = None,
    max_successions: int | None = None,
    dump_dir: str | None = None,
) -> BenchmarkRun:
    """Build, initialize, and run the benchmark end to end."""
    problem = build_quadrotor_problem(scenario, include_obstacles)
    config = ScvxConfig(
        epsilon=scenario.epsilon if epsilon is None else epsilon,
        max_successions=ScvxConfig.max_successions if max_successions is None else max_successions,
        penalty=PenaltyConfig(lam=scenario.penalty_lambda),
        dump_dir=dump_dir,
    )
    z0 = find_feasible_start(problem, initial_guess(scenario), config)
    report = scvx(problem, z0, config)
    record = trajectory_record(scenario, problem, report.z, include_obstacles)
    return BenchmarkRun(
        scenario=scenario,
        problem=problem,
        config=config,
        report=report,
        record=record,
        include_obstacles=include_obstacles,
    )


# ---------------------------------------------------------------------------
# deterministic writers: 17 significant digits, sorted keys, no timings


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _json_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(k))}: {_json_text(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_dict(run: BenchmarkRun) -> dict:
    report = run.report
    return {
        "scenario": run.scenario.to_dict(),
        "include_obstacles": run.include_obstacles,
        "epsilon": run.config.epsilon,
        "max_successions": run.config.max_successions,
        "mode": run.config.penalty.mode,
        "status": report.status,
        "converged": report.converged,
        "successions": report.successions,
        "cost": run.record.cost,
        "penalty": report.penalty_values[-1],
        "penalty_values": list(report.penalty_values),
        "objective_values": list(report.objective_values),
        "relaxation_floor": report.relaxation_floor,
        "fixed_point_residual": report.fixed_point_residual,
        "feasibility": feasibility_summary(run.problem, report.z),
        "records": [asdict(r) for r in report.records],
        "penalty_check": None if report.penalty_check is None else asdict(report.penalty_check),
    }


def _trajectory_columns(rec: TrajectoryRecord) -> dict:
    """trajectory.csv's columns: header -> formatted values, one per step."""
    columns = {"step": [str(i) for i in range(rec.times.size)], "t": [_fmt(v) for v in rec.times]}
    for prefix, block in (("p", rec.positions), ("v", rec.velocities), ("u", rec.controls)):
        for k, axis in enumerate("xyz"):
            columns[prefix + axis] = [_fmt(v) for v in block[:, k]]
    columns["u_norm"] = [_fmt(np.linalg.norm(u)) for u in rec.controls]
    for j in range(rec.margins.shape[1]):
        columns[f"margin_{j + 1}"] = [_fmt(v) for v in rec.margins[:, j]]
    return columns


def _cost_curve_columns(report: SolveReport) -> dict:
    """cost_curve.csv's columns: one row per iterate, no drop before the first."""
    p = report.penalty_values
    return {
        "iterate": [str(k) for k in range(len(p))],
        "penalty": [_fmt(v) for v in p],
        "objective": [_fmt(v) for v in report.objective_values],
        "improvement": [""] + [_fmt(before - after) for before, after in zip(p, p[1:])],
    }


def _write_csv(path, columns: dict):
    """One CSV: columns maps each header to its formatted values, in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(row) + "\n")


OUTPUT_FILES = (
    "report.json",
    "trajectory.csv",
    "ground_track.csv",
    "path3d.csv",
    "cost_curve.csv",
)


def write_outputs(out_dir, run: BenchmarkRun) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in OUTPUT_FILES}
    with open(paths["report.json"], "w", encoding="utf-8") as fh:
        fh.write(_json_text(report_dict(run)) + "\n")
    trajectory = _trajectory_columns(run.record)
    _write_csv(paths["trajectory.csv"], trajectory)
    _write_csv(paths["ground_track.csv"], {k: trajectory[k] for k in ("step", "t", "px", "py")})
    _write_csv(paths["path3d.csv"], {k: trajectory[k] for k in ("step", "t", "px", "py", "pz")})
    _write_csv(paths["cost_curve.csv"], _cost_curve_columns(run.report))
    return paths
