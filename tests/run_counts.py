"""Per-scenario counts of full runs: the solver work, the cost and the margins.

    PYTHONPATH=src python -m tests.run_counts

Runs solve_quadrotor on the built-in scenario, on it at N = 50, N = 100
and lambda = 100, and on the benchmark's penalty workload (seed 1) over
layout seeds 1-6, read from benchmarks/workloads.py.  Prints one line per
run: the successions, the cone solves, their IPM iterations and
triangular solves, the cost to 17 digits, and the worst eval_h and min g
over the accepted iterates.  The solver counts come from a wrapper on
conic.solve, so every cone solve of the run counts: the init's, the
floor's and each succession's.  Exits 1 when any run raises.  pytest does
not collect this file; it states what a change costs each scenario.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import traceback

from scvx import conic
from scvx.bench import builtin_quadrotor, solve_quadrotor
from scvx.problem import eval_g, eval_h

LAYOUTS = range(1, 7)


def scenarios() -> list:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    base = builtin_quadrotor()
    return [
        ("builtin", base),
        ("N=50", dataclasses.replace(base, N=50)),
        ("N=100", dataclasses.replace(base, N=100)),
        ("lambda=100", dataclasses.replace(base, penalty_lambda=100.0)),
    ] + [(f"penalty-{k}", workloads.scenario("penalty", 1, k)) for k in LAYOUTS]


def counted_run(scenario) -> dict:
    """solve_quadrotor(scenario) with every cone solve's work summed."""
    tally = dict(solves=0, iterations=0, triangular=0)
    solve = conic.solve

    def counting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        tally["solves"] += 1
        tally["iterations"] += sol.iterations
        tally["triangular"] += sol.triangular_solves
        return sol

    conic.solve = counting
    try:
        run = solve_quadrotor(scenario)
    finally:
        conic.solve = solve
    iterates = run.report.iterates
    return dict(
        tally,
        successions=run.report.successions,
        cost=run.record.cost,
        min_h=min(float(eval_h(run.problem, z).min()) for z in iterates),
        min_g=min(float(eval_g(run.problem, z).min()) for z in iterates),
    )


def main() -> int:
    failed = 0
    for name, scenario in scenarios():
        try:
            c = counted_run(scenario)
        except Exception:
            failed += 1
            print(f"{name}: raised")
            traceback.print_exc()
            continue
        print(f"{name}: {c['successions']} successions, {c['solves']} cone solves, "
              f"{c['iterations']} iterations, {c['triangular']} triangular solves, "
              f"cost {c['cost']:.17g}, min h {c['min_h']:.3g}, min g {c['min_g']:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
