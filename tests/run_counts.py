"""Per-scenario counts of full runs: the solver work, the cost and the margins.

    PYTHONPATH=src python -m tests.run_counts

Runs solve_quadrotor on the built-in scenario, on it at N = 50, N = 100
and lambda = 100, and on the benchmark's penalty workload (seed 1) over
layout seeds 1-6, read from benchmarks/workloads.py.  Prints two lines per
run.  The first holds the successions, the cone solves, their IPM
iterations and triangular solves, the cost to 17 digits, and the worst
eval_h and min g over the accepted iterates.  The second holds the IPM
iterations of each cone solve, in run order: the feasibility init's
rounds, the relaxation floor (a run without keep-outs has none) and each
succession.  A succession solved loose (driver.LOOSE_TOL) reads 10L, and
a loose solve that was solved again at full tolerance reads 10L +3R, the
re-solve's iterations after the plus.  The solver counts come from a
wrapper on conic.solve, so every cone solve of the run counts.  Exits 1
when any run raises.  pytest does not collect this file; it states what a
change costs each scenario, solve by solve.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import traceback

from scvx import conic
from scvx.bench import builtin_quadrotor, solve_quadrotor
from scvx.driver import FULL_TOL
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
    """solve_quadrotor(scenario) with every cone solve's work, summed and per solve."""
    iterations, triangular = [], []  # per cone solve, in run order
    solve = conic.solve

    def counting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        iterations.append(sol.iterations)
        triangular.append(sol.triangular_solves)
        return sol

    conic.solve = counting
    try:
        run = solve_quadrotor(scenario)
    finally:
        conic.solve = solve
    report = run.report
    # the successions' solves come last, one more for each re-solved one, and
    # the floor's (when the run has one) before them
    first = len(iterations) - report.successions - sum(r.subsolver_resolved for r in report.records)
    floor = first - (report.relaxation_floor is not None)
    per_succession, solves = [], iter(iterations[first:])
    for r in report.records:
        loose = r.subsolver_tol != FULL_TOL
        per_succession.append(f"{next(solves)}L" if loose else str(next(solves)))
        if r.subsolver_resolved:
            per_succession[-1] += f" +{next(solves)}R"
    return dict(
        solves=len(iterations),
        iterations=sum(iterations),
        triangular=sum(triangular),
        init=iterations[:floor],
        floor=iterations[floor:first],
        per_succession=per_succession,
        successions=report.successions,
        cost=run.record.cost,
        min_h=min(float(eval_h(run.problem, z).min()) for z in report.iterates),
        min_g=min(float(eval_g(run.problem, z).min()) for z in report.iterates),
    )


def _listed(counts) -> str:
    return " ".join(map(str, counts)) or "none"


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
        print(f"  iterations per solve: init {_listed(c['init'])}, floor {_listed(c['floor'])}, "
              f"successions {_listed(c['per_succession'])}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
