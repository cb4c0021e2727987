"""Sweep the cone solver over seeded random programs, cold and warm.

    PYTHONPATH=src python -m tests.program_sweep

Program k of the 600 drawn from default_rng(11) is
sparse_feasible_program(rng, dependent=k odd): feasible and bounded by
construction, and on odd k with a repeated equality row, which can cancel
a diagonal pivot.  Each program
is solved cold; then b moves up on its nonnegative rows, which keeps the
program feasible and bounded, and the moved program is solved warm from
the cold solution, as a succession is solved from the one before.

Prints the optimal count, the partial-pivot retries, the cold fallbacks
of the warm solves and the iterations of each pass, and exits 1 when any
solve ends other than "optimal".  pytest does not collect this file; it
is the kill criterion for changes to the solver's iteration.
"""

from __future__ import annotations

import sys

import numpy as np

from scvx.conic import solve
from tests.checks import loosened, sparse_feasible_program

COUNT = 600


def sweep() -> dict:
    rng = np.random.default_rng(11)
    tally = dict(cold_optimal=0, retries=0, cold_iterations=0,
                 warm_optimal=0, fallbacks=0, warm_iterations=0)
    for k in range(COUNT):
        prog = sparse_feasible_program(rng, k % 2 == 1)
        cold = solve(prog, tol=1e-9)
        tally["cold_optimal"] += cold.status == "optimal"
        tally["retries"] += cold.pivoting == "partial"
        tally["cold_iterations"] += cold.iterations
        warm = solve(loosened(rng, prog), tol=1e-9, start=cold)
        tally["warm_optimal"] += warm.status == "optimal"
        tally["fallbacks"] += warm.start == "cold"
        tally["warm_iterations"] += warm.iterations
    return tally


def main() -> int:
    t = sweep()
    print(f"cold: {t['cold_optimal']}/{COUNT} optimal, {t['retries']} partial-pivot "
          f"retries, {t['cold_iterations']} iterations")
    print(f"warm: {t['warm_optimal']}/{COUNT} optimal, {t['fallbacks']} cold fallbacks, "
          f"{t['warm_iterations']} iterations")
    return 0 if t["cold_optimal"] == t["warm_optimal"] == COUNT else 1


if __name__ == "__main__":
    sys.exit(main())
