"""scvx benchmark: time to a certified trajectory, end to end and per layer.

One operation is ``bench.solve_quadrotor(scenario)`` followed by
``bench.write_outputs(tmpdir, run)``: what ``scvx run`` does, minus argument
parsing and printing.  The load is a closed loop: one client in this
process starts the next operation only after the previous one returned,
and not when it would, at the last operation's pace, end after --seconds.
BLAS is pinned to one thread, so a run uses one CPU.

    python3 benchmarks/run.py --workload builtin --seed 1 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics (medians over the run's
operations; peak RSS as of the end of the first one); --trace 1 alternates
untraced and traced operations and prints the per-layer metrics of the
traced ones, the tracing overhead, and the untraced operations' wall and
CPU seconds (solve_s, solve_cpu_s; both include the pace sampler's own
time, under 1%).

Other times (solve_ref_s, setup_s and the per-layer seconds) are in
reference seconds (see pace.py): the wall time of the work, scaled by the
speed the host showed while it ran, as sampled by a fixed reference
kernel.  Shared hosts drift by 2x within minutes, which would swamp any
change to the program; the raw wall times are in the detail line.

Every operation is checked (see check_operation); a failed check counts as
a failed operation.  The last line of stdout is the result object; the line
before it holds the environment, sample counts and per-operation values.
"""

from __future__ import annotations

import ctypes
import os

# before anything imports numpy: one BLAS thread, so CPU time is wall time
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

# glibc's malloc moves its mmap and trim thresholds up as large blocks are
# freed, so whether a large array lands in the heap (and stays resident
# after it is freed) depends on the order of earlier frees: peak RSS at
# N=50 ranged over 129-206 MiB between identical processes.  Setting them
# fixes them at their defaults (M_TRIM_THRESHOLD -1, M_MMAP_THRESHOLD -3).
MALLOC_THRESHOLDS = {-1: 128 * 1024, -3: 128 * 1024}
MALLOC_FIXED = all(ctypes.CDLL(None).mallopt(param, value) == 1
                   for param, value in MALLOC_THRESHOLDS.items())

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pace
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

# set-up is timed once in this process and once in each of these fresh
# interpreters, so that its median is not one cold import
SETUP_PROBES = 8
# set-up takes a fraction of a second: sample the host's pace more often
SETUP_TICK_S = 0.005

MARGIN_TOL = 1e-7
EQUALITY_TOL = 1e-7
FLOOR_TOL = 1e-7
BUILTIN_COST = (242.9, 247.8)
BUILTIN_MAX_SUCCESSIONS = 10

END_TO_END_UNITS = {
    "solve_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cost": "m/s2",
}


def per_layer_unit(name: str) -> str:
    if name == "conic.s_per_iter":
        return "s/iter"
    if name.endswith("_s"):
        return "s"
    return {"conic.kkt_dim": "rows", "conic.soc_max_dim": "rows",
            "subproblem.program_nnz": "nnz"}.get(name, "count")


def set_up(workload: str, seed: int, layout_seed: int):
    """Import scvx, make the scenario and build its problem.

    numpy is already imported (pace.py needs it); scipy is not.  Returns
    ({"wall_s", "ref_s"}, scenario).
    """
    with pace.Pace(SETUP_TICK_S) as p:
        import scvx
        from scvx import bench

        scenario = workloads.scenario(workload, seed, layout_seed)
        bench.build_quadrotor_problem(scenario)
    if not Path(scvx.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"scvx was imported from {scvx.__file__}, not from {SRC}")
    return {"wall_s": p.wall_s, "ref_s": p.ref_s}, scenario


def probe_set_up(args) -> dict:
    """Time set_up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--layout-seed", str(args.layout_seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def unobstructed_floor(scenario) -> float:
    """Minimum thrust cost with hard dynamics and no keep-outs.

    A lower bound for any dynamically feasible trajectory of the scenario.
    Penalty mode needs it: there the library's floor solve drops the
    linearized dynamics rows and reports the exact penalty at a point with
    large defects, which is no lower bound (about 26615 against a cost near
    245 on the default layout; counted as driver.floor_above_cost).
    """
    from dataclasses import replace

    from scvx import conic
    from scvx.bench import build_quadrotor_problem
    from scvx.linearize import FeasibleRegion
    from scvx.penalty import PenaltyConfig
    from scvx.subproblem import assemble, extract

    problem = build_quadrotor_problem(replace(scenario, penalty_lambda=0.0), False)
    region = FeasibleRegion(problem.base_set, (), problem.base_set.coordinate_bounds()[0])
    artifacts = assemble(problem, PenaltyConfig(), region)
    sol = conic.solve(artifacts.program, tol=1e-9)
    return extract(artifacts, sol)[2]


def check_operation(workload, run, floor) -> list:
    """Why the operation's result is wrong; empty when it passes."""
    from scvx.driver import feasibility_summary

    report = run.report
    causes = []
    if not report.converged:
        causes.append(f"status {report.status}")
    feas = feasibility_summary(run.problem, report.z)
    for key in ("base_margin_min", "state_margin_min"):
        if feas[key] is not None and not feas[key] >= -MARGIN_TOL:
            causes.append(f"{key} {feas[key]:.3e} < -{MARGIN_TOL:g}")
    for key in ("defect_max", "pin_error"):
        if not feas[key] <= EQUALITY_TOL:
            causes.append(f"{key} {feas[key]:.3e} > {EQUALITY_TOL:g}")
    cost = run.record.cost
    if not cost >= floor - FLOOR_TOL:
        causes.append(f"cost {cost:.9g} below the relaxation floor {floor:.9g}")
    if workload == "builtin":
        if not BUILTIN_COST[0] <= cost <= BUILTIN_COST[1]:
            causes.append(f"cost {cost:.9g} outside {list(BUILTIN_COST)}")
        if report.successions > BUILTIN_MAX_SUCCESSIONS:
            causes.append(f"{report.successions} successions > {BUILTIN_MAX_SUCCESSIONS}")
    return causes


def digest(paths) -> str:
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode())
        h.update(Path(paths[name]).read_bytes())
    return h.hexdigest()


def operation(workload, scenario, floor_reference, traced):
    """One timed operation, then its checks; keeps no reference to the run."""
    from scvx import bench

    tracer = tracing.Tracer() if traced else None
    out_dir = tempfile.mkdtemp(dir=TMP)
    op = {"traced": traced, "causes": []}
    p = pace.Pace()
    try:
        c0 = time.process_time()
        try:
            with tracing.installed(tracer) if traced else contextlib.nullcontext(), p:
                run = bench.solve_quadrotor(scenario)
                paths = bench.write_outputs(out_dir, run)
        finally:
            op["solve_s"], op["solve_ref_s"] = p.wall_s, p.ref_s
            op["solve_cpu_s"] = time.process_time() - c0
        op["digest"] = digest(paths)
        op["cost"] = run.record.cost
        report = run.report
        floor = report.relaxation_floor if floor_reference is None else floor_reference
        op["causes"] += check_operation(workload, run, floor)
        if traced:
            missing = tracing.missing_spans(tracer.spans)
            if missing:
                op["causes"].append(f"no spans recorded for {', '.join(missing)}")
            # span times to reference seconds, at the operation's pace
            scale = op["solve_ref_s"] / op["solve_s"]
            op["layers"] = {
                **{name: value * scale if per_layer_unit(name) in ("s", "s/iter") else value
                   for name, value in tracing.layer_metrics(tracer.spans).items()},
                "driver.successions": report.successions,
                "driver.floor_above_cost": int(report.relaxation_floor > run.record.cost),
                "penalty.check_invalid": int(report.penalty_check.status == "invalid"),
            }
    except tracing.TracingError:
        raise
    except Exception as exc:  # a failed operation is counted, not fatal
        op["causes"].append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return op


def environment() -> dict:
    import numpy
    import scipy

    def openblas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return None

    return {
        **{k: os.environ.get(k) for k in PINNED_ENV},
        "malloc_thresholds_fixed": MALLOC_FIXED,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": openblas(numpy),
        "openblas_scipy": openblas(scipy),
    }


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layout-seed", type=int, default=workloads.LAYOUT_SEED,
                        help="penalty cylinder layout; re-check claims with "
                        f"{workloads.HELD_OUT_LAYOUT_SEED}")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "scvx" / "__init__.py").is_file():
        print(f"error: no scvx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        print(json.dumps(set_up(args.workload, args.seed, args.layout_seed)[0]))
        return 0

    setup, scenario = set_up(args.workload, args.seed, args.layout_seed)
    setup_samples = [setup] + [probe_set_up(args) for _ in range(SETUP_PROBES)]
    floor_reference = unobstructed_floor(scenario) if scenario.mode == "penalty" else None

    TMP.mkdir(exist_ok=True)
    ops = []
    try:
        start = time.perf_counter()
        while True:
            traced = bool(args.trace and len(ops) % 2)
            op = operation(args.workload, scenario, floor_reference, traced)
            ops.append(op)
            if len(ops) == 1:
                # later operations repeat the same work; their peaks would
                # only make the figure grow with the number a run fits
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"op {len(ops)}{' traced' if traced else ''}: {op['solve_s']:.3f} s, "
                  f"{op['solve_ref_s']:.3f} ref s"
                  + (f"; FAILED: {'; '.join(op['causes'])}" if op["causes"] else ""),
                  file=sys.stderr)
            # no operation is started that would, at the last one's pace, overrun
            elapsed = time.perf_counter() - start
            if len(ops) >= 1 + args.trace and elapsed + op["solve_s"] > args.seconds:
                break
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    digests = [op["digest"] for op in ops if "digest" in op]
    for op in ops:
        if "digest" in op and op["digest"] != digests[0]:
            op["causes"].append("output files differ from the run's first operation")
    failed = sum(bool(op["causes"]) for op in ops)

    plain = [op for op in ops if not op["traced"]]
    if args.trace:
        layered = [op for op in ops if "layers" in op]
        metrics = {
            name: median_or_zero([op["layers"][name] for op in layered])
            for name in (layered[0]["layers"] if layered else {})
        }
        metrics["trace.overhead_s"] = (
            median_or_zero([op["solve_ref_s"] for op in ops if op["traced"]])
            - median_or_zero([op["solve_ref_s"] for op in plain]))
        # wall and CPU seconds as measured, untraced: they follow the host
        metrics["solve_s"] = statistics.median(op["solve_s"] for op in plain)
        metrics["solve_cpu_s"] = statistics.median(op["solve_cpu_s"] for op in plain)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "solve_ref_s": statistics.median(op["solve_ref_s"] for op in plain),
            "setup_s": statistics.median(s["ref_s"] for s in setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "cost": median_or_zero([op["cost"] for op in ops if "cost" in op]),
        }
        units = END_TO_END_UNITS

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "layout_seed": args.layout_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": {"operations": len(ops), "untraced": len(plain),
                    "traced": len(ops) - len(plain), "setup": len(setup_samples)},
        "setup_wall_s": [s["wall_s"] for s in setup_samples],
        "setup_s": [s["ref_s"] for s in setup_samples],
        "solve_s": [op["solve_s"] for op in ops],
        "solve_ref_s": [op["solve_ref_s"] for op in ops],
        "solve_cpu_s": [op["solve_cpu_s"] for op in ops],
        "traced": [op["traced"] for op in ops],
        "failures": [op["causes"] for op in ops if op["causes"]],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
