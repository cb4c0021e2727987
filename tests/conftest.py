"""Shared fixtures: the benchmark is solved once per session and reused."""

import numpy as np
import pytest

from scvx.bench import builtin_quadrotor, build_quadrotor_problem, initial_guess, solve_quadrotor
from scvx.driver import ScvxConfig, find_feasible_start
from scvx.penalty import PenaltyConfig


@pytest.fixture(scope="session")
def quad_scenario():
    return builtin_quadrotor()


@pytest.fixture(scope="session")
def quad_problem(quad_scenario):
    return build_quadrotor_problem(quad_scenario)


@pytest.fixture(scope="session")
def quad_config(quad_scenario):
    return ScvxConfig(
        epsilon=quad_scenario.epsilon,
        penalty=PenaltyConfig(lam=quad_scenario.penalty_lambda),
    )


@pytest.fixture(scope="session")
def quad_start(quad_scenario, quad_problem, quad_config):
    return find_feasible_start(
        quad_problem, guess=initial_guess(quad_scenario), config=quad_config
    )


@pytest.fixture(scope="session")
def benchmark_run(quad_scenario):
    """The full benchmark pipeline: initializer, successions, certificate."""
    return solve_quadrotor(quad_scenario)


@pytest.fixture(scope="session")
def convex_run(quad_scenario):
    """The same scenario with the keep-out zones removed (pure convex)."""
    return solve_quadrotor(quad_scenario, include_obstacles=False)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
