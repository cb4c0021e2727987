"""Command-line front end: scvx run <scenario.json> [flags].

Exit codes: 0 converged, 2 infeasible scenario, 3 solver failure,
4 bad input, an --out that cannot be a directory included: output
directories are made before any solve.  A penalty-mode run that converges
with its weight check "invalid" (no trajectory meets the dynamics, or
lambda is too small to be exact) writes its outputs and exits 2.  All
diagnostics go to standard error; the iteration table and summary go to
standard out.  --sweep runs several scenario files concurrently in
separate processes, each with an isolated output directory, so reports
never interleave.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .bench import (
    builtin_quadrotor,
    scenario_from_file,
    solve_quadrotor,
    write_outputs,
)
from .driver import FULL_TOL
from .errors import (
    BadScenarioError,
    InfeasibleScenarioError,
    ScvxError,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3
EXIT_BAD_INPUT = 4


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this CLI reserves 2 for
    infeasible scenarios, so usage errors become exit 4 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scvx", description="Successive convexification runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run",
        help="solve one scenario (or several with --sweep)",
        description="Solve scenario file(s) and write report/trajectory outputs.",
    )
    run.add_argument("scenario", nargs="*", help="scenario JSON file(s)")
    run.add_argument("--builtin", choices=("quadrotor",), help="use a built-in scenario")
    run.add_argument("--out", default="scvx_out", help="output directory (default scvx_out)")
    run.add_argument("--no-obstacles", action="store_true", help="drop all keep-out zones")
    run.add_argument("--epsilon", type=float, default=None, help="override convergence threshold")
    run.add_argument("--max-iter", type=int, default=None, help="override succession limit")
    run.add_argument(
        "--dump-subproblems",
        action="store_true",
        help="write every succession's cone program under <out>/subproblems",
    )
    run.add_argument("--sweep", action="store_true", help="run all scenarios concurrently")
    run.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker count (capped at the scenario and CPU counts)",
    )
    return parser


def _err(message):
    print(f"scvx: error: {message}", file=sys.stderr)


def _iteration_table(report) -> str:
    """One row per succession; tol reads 1e-06/1e-09 for a loose solve solved again."""
    lines = [
        "   k  penalty            improvement   accepted  halfspaces  start  pivoting  "
        "tol          ipm-iters"
    ]
    lines.append(
        f"   0  {report.penalty_values[0]:<17.6f}  {'-':<12}  {'-':<8}  {'-':<10}  {'-':<5}  "
        f"{'-':<8}  {'-':<11}  -"
    )
    for r in report.records:
        tol = f"{r.subsolver_tol:.0e}" + (f"/{FULL_TOL:.0e}" if r.subsolver_resolved else "")
        lines.append(
            f"  {r.index:>2}  {r.penalty_after:<17.6f}  {r.improvement:<12.3e}  "
            f"{('yes' if r.accepted else 'no'):<8}  {r.halfspaces:<10d}  "
            f"{r.subsolver_start:<5}  {r.subsolver_pivoting:<8}  {tol:<11}  "
            f"{r.subsolver_iterations}"
        )
    return "\n".join(lines)


def _solve_and_write(scenario, args, out_dir, quiet=False) -> int:
    dump_dir = os.path.join(out_dir, "subproblems") if args.dump_subproblems else None
    run = solve_quadrotor(
        scenario,
        include_obstacles=not args.no_obstacles,
        epsilon=args.epsilon,
        max_successions=args.max_iter,
        dump_dir=dump_dir,
    )
    paths = write_outputs(out_dir, run)
    if not quiet:
        print(_iteration_table(run.report))
        print(f"status: {run.report.status} ({run.report.successions} successions)")
        print(f"cost: {run.record.cost:.6f}")
        if run.report.relaxation_floor is not None:
            print(f"relaxation floor: {run.report.relaxation_floor:.6f}")
        if run.report.fixed_point_residual is not None:
            print(f"fixed-point residual: {run.report.fixed_point_residual:.3e}")
        print("outputs: " + ", ".join(paths[name] for name in sorted(paths)))
    if not run.report.converged:
        _err(f"did not converge within {run.config.max_successions} successions")
        return EXIT_SOLVER
    check = run.report.penalty_check
    if check is not None and check.status == "invalid":
        _err(f"the penalty weight check is invalid: no trajectory meets the dynamics, or "
             f"lambda = {run.config.penalty.lam:g} is too small to be exact")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _classify(exc) -> int:
    if isinstance(exc, BadScenarioError):
        return EXIT_BAD_INPUT
    if isinstance(exc, InfeasibleScenarioError):
        return EXIT_INFEASIBLE
    return EXIT_SOLVER


def _sweep_worker(job) -> tuple:
    path, out_dir, flags = job
    ns = argparse.Namespace(**flags)
    try:
        scenario = builtin_quadrotor() if path is None else scenario_from_file(path)
        code = _solve_and_write(scenario, ns, out_dir, quiet=True)
        return (out_dir, code, "converged" if code == EXIT_OK else "not converged")
    except Exception as exc:  # worker processes report, never crash the sweep
        return (out_dir, _classify(exc), f"{type(exc).__name__}: {exc}")


def _unique_dirs(base, names):
    """One directory under base per name, each distinct: a name already
    taken gets the first free _2, _3, ... suffix."""
    taken = set()
    out = []
    for name in names:
        candidate, k = name, 2
        while candidate in taken:
            candidate, k = f"{name}_{k}", k + 1
        taken.add(candidate)
        out.append(os.path.join(base, candidate))
    return out


def _make_dirs(paths) -> bool:
    """Create each output directory before any solve; False (with a message)
    if one cannot be a directory."""
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            _err(f"cannot create output directory {path}: {exc.strerror or exc}")
            return False
    return True


def _sweep_workers(jobs, n_scenarios) -> int:
    """Pool size of a sweep: --jobs (unset or 0 means automatic), at most
    one worker per scenario and per CPU, since the pool may start every
    worker up front."""
    return min(jobs or n_scenarios, n_scenarios, os.cpu_count() or 1)


def _cmd_run(args) -> int:
    if args.builtin and args.scenario:
        _err("give either scenario files or --builtin, not both")
        return EXIT_BAD_INPUT
    if not args.builtin and not args.scenario:
        _err("no scenario given (pass a JSON file or --builtin quadrotor)")
        return EXIT_BAD_INPUT
    if args.epsilon is not None and not (math.isfinite(args.epsilon) and args.epsilon > 0.0):
        _err(f"--epsilon must be positive and finite, got {args.epsilon!r}")
        return EXIT_BAD_INPUT
    if args.max_iter is not None and args.max_iter < 1:
        _err(f"--max-iter must be at least 1, got {args.max_iter}")
        return EXIT_BAD_INPUT
    if args.jobs is not None and args.jobs < 0:
        _err(f"--jobs must be non-negative, got {args.jobs}")
        return EXIT_BAD_INPUT
    if args.jobs is not None and not args.sweep:
        _err("--jobs needs --sweep")
        return EXIT_BAD_INPUT
    if args.sweep:
        if args.builtin:
            jobs = [(None, os.path.join(args.out, "quadrotor"))]
        else:
            stems = [os.path.splitext(os.path.basename(p))[0] for p in args.scenario]
            jobs = list(zip(args.scenario, _unique_dirs(args.out, stems)))
        if not _make_dirs(out_dir for _, out_dir in jobs):
            return EXIT_BAD_INPUT
        flags = {
            "no_obstacles": args.no_obstacles,
            "epsilon": args.epsilon,
            "max_iter": args.max_iter,
            "dump_subproblems": args.dump_subproblems,
        }
        payload = [(path, out_dir, flags) for path, out_dir in jobs]
        with ProcessPoolExecutor(max_workers=_sweep_workers(args.jobs, len(payload))) as pool:
            results = list(pool.map(_sweep_worker, payload))
        worst = EXIT_OK
        for out_dir, code, message in results:
            print(f"{out_dir}: exit {code} ({message})")
            worst = max(worst, code)
        return worst
    if len(args.scenario) > 1:
        _err("multiple scenarios need --sweep")
        return EXIT_BAD_INPUT
    scenario = builtin_quadrotor() if args.builtin else scenario_from_file(args.scenario[0])
    if not _make_dirs([args.out]):
        return EXIT_BAD_INPUT
    return _solve_and_write(scenario, args, args.out)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _cmd_run(args)  # the parser's one subcommand
    except Exception as exc:  # every failure maps to a documented exit code
        known = isinstance(exc, ScvxError)
        _err(exc if known else f"internal failure: {type(exc).__name__}: {exc}")
        return _classify(exc)


if __name__ == "__main__":
    sys.exit(main())
