"""Successive convexification for discrete optimal control.

The outer loop convexifies keep-out constraints by projecting the current
iterate onto each zone and replacing the zone with the supporting
halfspace at the projection point, then solves the resulting
second-order-cone program with a built-in interior-point method.

The library logs the fallbacks it takes at WARNING level to the "scvx"
logger, which carries a NullHandler: they show only where the caller
configures logging.
"""

import logging

from .errors import (
    BadScenarioError,
    DimensionError,
    InfeasibleAnchorError,
    InfeasibleScenarioError,
    ScvxError,
    SubsolverError,
    UnsupportedModelError,
)
from .problem import (
    AffineDynamics,
    AffineFn,
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
    eval_g,
    eval_h,
    unstack,
)
from .conic import ConicProgram, ConicSolution
from .penalty import PenaltyCheck, PenaltyConfig, penalty_value, validate_penalty_weight
from .projection import ProjectionResult, project
from .linearize import FeasibleRegion, Halfspaces, build_feasible_region, check_anchor
from .subproblem import SubproblemArtifacts, assemble, extract
from .driver import (
    ScvxConfig,
    SolveReport,
    SuccessionRecord,
    feasibility_summary,
    find_feasible_start,
    scvx,
)
from .bench import (
    BenchmarkRun,
    Obstacle,
    QuadrotorScenario,
    TrajectoryRecord,
    build_quadrotor_problem,
    builtin_quadrotor,
    initial_guess,
    scenario_from_dict,
    scenario_from_file,
    solve_quadrotor,
    trajectory_record,
    write_outputs,
)

__version__ = "0.1.0"

logging.getLogger("scvx").addHandler(logging.NullHandler())
