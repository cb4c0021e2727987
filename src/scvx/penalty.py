"""Exact penalty objective P(y) = J(y) + lambda * ||g(y)||_1.

lambda is the only setting, and the mode follows from it alone.  At
lambda = 0 the affine defects stay hard equality constraints ("equality"
mode), and the penalty term vanishes at every feasible point.  At
lambda > 0 ("penalty" mode) the defects are relaxed to g(y) >= 0 and the
weighted 1-norm enters the objective.  On those rows ||g||_1 = sum_j g_j,
which is linear in y, so the subproblem carries it as a cost on y with
no epigraph variable (subproblem.fixed_rows).  The penalty is exact once
lambda dominates the infinity norm of the dynamics multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .problem import OptimalControlProblem, eval_g


@dataclass(frozen=True)
class PenaltyConfig:
    lam: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise DimensionError(f"penalty weight must be nonnegative and finite, got {self.lam!r}")

    @property
    def mode(self) -> str:
        """"equality" when lambda = 0, else "penalty"."""
        return "equality" if self.lam == 0.0 else "penalty"


@dataclass(frozen=True)
class PenaltyCheck:
    """Outcome of the a-posteriori penalty-weight validation."""

    status: str  # "valid" | "invalid" | "not-applicable"
    required_lambda: float | None = None  # set when a multiplier exceeds lambda


# largest dynamics defect of a penalty-mode solution the check accepts, and
# of an equality-mode anchor (linearize.check_anchor)
DEFECT_TOL = 1e-7


def penalty_value(problem: OptimalControlProblem, config: PenaltyConfig, y) -> float:
    """P(y) = J(y) + lambda * sum_j |g_j(y)|."""
    value = problem.objective_value(y)
    if config.lam > 0.0:
        value += config.lam * float(np.sum(np.abs(eval_g(problem, y))))
    return value


def validate_penalty_weight(
    problem: OptimalControlProblem, config: PenaltyConfig, multipliers, y
) -> PenaltyCheck:
    """Check that the penalty is exact at the solution y.

    That takes lambda >= max_j |mu_j| for the relaxed dynamics multipliers
    and a solution that meets the dynamics: a row g_j >= 0 left inactive
    has dual 0, so its multiplier reads exactly lambda even where the
    defect stays positive.  Only meaningful in penalty mode; equality mode
    has no relaxation to validate and reports not-applicable.
    """
    if config.mode == "equality":
        return PenaltyCheck("not-applicable")
    multipliers = np.asarray(multipliers, dtype=float)
    required = float(np.max(np.abs(multipliers))) if multipliers.size else 0.0
    if config.lam < required:
        return PenaltyCheck("invalid", required_lambda=required)
    defect = eval_g(problem, np.asarray(y, dtype=float))
    if defect.size and float(np.max(np.abs(defect))) > DEFECT_TOL:
        return PenaltyCheck("invalid")
    return PenaltyCheck("valid")
