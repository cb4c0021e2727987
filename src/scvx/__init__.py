"""Successive convexification for discrete optimal control.

The outer loop convexifies keep-out constraints by projecting the current
iterate onto each zone and replacing the zone with the supporting
halfspace at the projection point, then solves the resulting
second-order-cone program with a built-in interior-point method.
"""

from .errors import (
    BadScenarioError,
    DegenerateGradientError,
    DimensionError,
    GradientSingularityError,
    InfeasibleAnchorError,
    InfeasibleScenarioError,
    ProjectionError,
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
    ConvexDynamics,
    NormFn,
    OptimalControlProblem,
    Pin,
    ProblemDims,
    QuadFn,
    QuadraticObjective,
    StateConstraint,
    eval_g,
    eval_h,
    eval_q,
    stack,
    unstack,
)
from .conic import ConicProgram, ConicSolution, solve as solve_conic
from .conic import Cone as ConicCone
from .penalty import PenaltyCheck, PenaltyConfig, penalty_value, validate_penalty_weight
from .projection import ProjectionResult, project, project_generic
from .linearize import (
    FeasibleRegion,
    Halfspace,
    build_feasible_region,
    check_anchor,
    linearize_direct,
)
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
