"""Supporting-halfspace construction: anchoring, containment, degeneracies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvx.errors import (
    BadScenarioError,
    InfeasibleAnchorError,
    ScvxError,
    UnsupportedModelError,
)
from tests.checks import (
    anchor_specs,
    halfspace_rows,
    keepout_specs,
    linearize_direct,
    linearize_reference,
    lipschitz_probe,
    slacks,
    verify_invariance,
)
from scvx.bench import Obstacle, initial_guess, solve_quadrotor
from scvx.linearize import build_feasible_region, direct_rows
from scvx.penalty import PenaltyConfig
from scvx.problem import (
    NORM_SINGULARITY_RADIUS,
    AffineDynamics,
    AffineFn,
    BaseSet,
    Box,
    ControlNormSum,
    NormFn,
    OptimalControlProblem,
    ProblemDims,
    StateConstraint,
)
from scvx.subproblem import fixed_rows


def held_problem(state_constraints, n=2, box=6.0):
    """T=2 hold-state dynamics over n states with the given state constraints."""
    dims = ProblemDims(n=n, m=1, T=2)
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    base = BaseSet(
        n_y=dims.n_y,
        members=(
            Box(
                indices=np.arange(dims.n_y),
                lower=-box * np.ones(dims.n_y),
                upper=box * np.ones(dims.n_y),
            ),
        ),
    )
    return OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A=np.eye(n), B=B, d=np.zeros(n)),
        state_constraints=tuple(state_constraints),
        base_set=base,
        objective=ControlNormSum(weight=1.0),
    )


def two_step_problem(fn, box=6.0):
    """T=2 hold-state dynamics with one keep-out constraint on the state."""
    return held_problem([StateConstraint(fn=fn, state_coords=(0, 1))], box=box)


def unit_disk_problem():
    fn = NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    return two_step_problem(fn)


def hold_anchor(problem, x):
    """Stacked point with both states at x and zero control (zero defect)."""
    return np.concatenate([x, x, [0.0]])


# ---------------------------------------------------------------------------
# halfspace values


def test_keepout_radius_must_exceed_the_singularity_radius():
    # a radius of at most NORM_SINGULARITY_RADIUS (a negative one included)
    # is rejected when the constraint is made: the projection of a point
    # outside it would sit within that distance of the norm's center,
    # where no supporting halfspace is defined
    for beta in (0.0, -NORM_SINGULARITY_RADIUS, 0.5):
        fn = NormFn(H=np.eye(2), p=np.array([1.0, 2.0]), a=np.zeros(2), beta=beta)
        with pytest.raises(UnsupportedModelError, match="keep-out radius"):
            StateConstraint(fn=fn, state_coords=(0, 1))
    with pytest.raises(BadScenarioError, match="obstacle radius"):
        Obstacle(center=(1.0, 2.0), radius=1e-13)
    # just above it, the closed form projects a point a hair off the axis
    # onto the sphere, and the region keeps the anchor
    fn = NormFn(H=np.eye(2), p=np.array([1.0, 2.0]), a=np.zeros(2), beta=-2e-12)
    problem = two_step_problem(fn)
    z = hold_anchor(problem, [1.0 + 1e-11, 2.0])
    region = build_feasible_region(problem, z, "equality")
    rows = list(halfspace_rows(region.halfspaces))
    assert len(rows) == 2
    for indices, coeffs, offset in rows:
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-6)
        assert coeffs @ z[indices] - offset == pytest.approx(8e-12, abs=1e-14)


def test_disk_linearization_gives_tangent_halfspaces():
    problem = unit_disk_problem()
    z = hold_anchor(problem, [2.0, 0.0])
    region = build_feasible_region(problem, z, "equality")
    assert len(region.halfspaces) == 2  # one keep-out row per temporal point
    for (indices, coeffs, offset), coords in zip(halfspace_rows(region.halfspaces), [(0, 1), (2, 3)]):
        # projection of (2,0) onto the unit disk is (1,0): row y_first >= 1
        np.testing.assert_array_equal(indices, coords)
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-12)
        assert offset == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(slacks(region.halfspaces, z), [1.0, 1.0], atol=1e-12)
    np.testing.assert_array_equal(region.anchor, z)
    # the region freezes a copy of its anchor and leaves the caller's writeable
    assert z.flags.writeable and not region.anchor.flags.writeable
    assert not np.shares_memory(region.anchor, z)


def affine_state_rows(problem, lam):
    """The fixed program and its affine state-constraint rows, which follow the dynamics rows."""
    fixed = fixed_rows(problem, PenaltyConfig(lam=lam))
    first = int(fixed.dynamics_rows[-1]) + 1
    return fixed.program, first + np.arange(problem.dims.T)


def test_affine_state_constraint_is_a_fixed_row():
    # q(x) = x_0 - 1 >= 0 is its own supporting halfspace: in both modes
    # the fixed program holds it exactly, one nonnegative row -a with beta
    # in b per step (slack x_0 - 1), and no region carries it at any anchor
    fn = AffineFn(a=np.array([1.0, 0.0]), beta=-1.0)
    problem = two_step_problem(fn)
    for lam in (0.0, 1.0):
        program, rows = affine_state_rows(problem, lam)
        kinds = np.repeat([k.kind for k in program.cones], [k.dim for k in program.cones])
        assert np.all(kinds[rows] == "nonneg")
        A = program.A.tocsr()
        for r, coords in zip(rows, [(0, 1), (2, 3)]):
            expect = np.zeros(program.n_cols)
            expect[coords[0]] = -1.0  # the exact zero of a is dropped
            assert A.indptr[r + 1] - A.indptr[r] == 1
            np.testing.assert_array_equal(A[r].toarray().ravel(), expect)
        np.testing.assert_array_equal(program.b[rows], [-1.0, -1.0])
        mode = PenaltyConfig(lam=lam).mode
        for x in ([2.0, 0.5], [1.5, -3.0]):
            assert len(build_feasible_region(problem, hold_anchor(problem, x), mode).halfspaces) == 0


def test_anchor_is_contained_for_random_feasible_points(rng):
    problem = unit_disk_problem()
    for _ in range(50):
        r = rng.uniform(1.05, 4.0)
        th = rng.uniform(0, 2 * np.pi)
        z = hold_anchor(problem, [r * np.cos(th), r * np.sin(th)])
        region = build_feasible_region(problem, z, "equality")
        assert min(slacks(region.halfspaces, z)) >= -1e-9


def test_region_contained_in_true_feasible_set():
    problem = unit_disk_problem()
    z = hold_anchor(problem, [2.0, 1.0])
    region = build_feasible_region(problem, z, "equality")
    report = verify_invariance(problem, region, n_samples=10000, seed=7)
    assert report.violations == 0
    assert report.worst_margin >= -1e-8
    assert report.checked_rows == 2
    assert report.anchor_slack >= -1e-9


def direct_keepout_rows(problem, z):
    """(spec, indices, coeffs, offset) of each keep-out row of direct_rows at z,
    without its slack entry: equality mode slacks the keep-outs alone."""
    rows = halfspace_rows(direct_rows(problem, z, "equality"))
    specs = keepout_specs(problem)
    assert len(rows) == len(specs)
    return [(spec, idx[:-1], coeffs[:-1], offset) for spec, (idx, coeffs, offset) in zip(specs, rows)]


def test_direct_linearization_is_global_underestimator(rng):
    # unit-disk keep-out q(w) = ||w|| - 1, linearized at the point itself
    problem = unit_disk_problem()
    z = hold_anchor(problem, [1.7, -0.4])
    for spec, idx, coeffs, offset in direct_keepout_rows(problem, z):
        np.testing.assert_array_equal(idx, spec.indices)
        assert coeffs @ z[idx] - offset == pytest.approx(spec.value(z), abs=1e-12)
        for _ in range(200):
            y = rng.uniform(-3.0, 3.0, size=z.size)
            assert spec.value(y) >= coeffs @ y[idx] - offset - 1e-12


def test_scaled_norm_keepout_is_projected_by_its_own_geometry():
    # ||2 w|| >= 1 keeps out the disk of radius 0.5; H = 2I is not
    # row-orthonormal, so the ball formula (which would land at (0.2, 0),
    # inside the keep-out) does not apply, and the problem is not built
    fn = NormFn(H=2.0 * np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    with pytest.raises(UnsupportedModelError, match="NormFn"):
        two_step_problem(fn)


def test_zero_affine_row_is_an_empty_fixed_row():
    # q = 0.w + 0 is an affine row: a fixed row 0 >= 0 with no entries, which
    # no region linearizes, so its zero gradient raises nothing
    problem = two_step_problem(AffineFn(a=np.zeros(2), beta=0.0))
    z = hold_anchor(problem, [0.0, 0.0])
    assert len(build_feasible_region(problem, z, "equality").halfspaces) == 0
    program, rows = affine_state_rows(problem, 0.0)
    A = program.A.tocsr()
    assert all(A.indptr[r + 1] == A.indptr[r] for r in rows)
    np.testing.assert_array_equal(program.b[rows], 0.0)


# ---------------------------------------------------------------------------
# anchor validation


def test_anchor_inside_keepout_rejected():
    problem = unit_disk_problem()
    z = hold_anchor(problem, [0.2, 0.0])
    with pytest.raises(InfeasibleAnchorError, match="q >= 0"):
        build_feasible_region(problem, z, "equality")


def test_anchor_rejection_names_the_worst_row():
    problem = unit_disk_problem()
    # both steps inside the disk, the second one deeper: q = -0.5, then -0.8
    z = np.concatenate([[0.5, 0.0], [0.2, 0.0], [-0.3]])
    with pytest.raises(
        InfeasibleAnchorError,
        match=r"\(state-constraint, step 1, component 0\): q = -8\.000e-01",
    ):
        build_feasible_region(problem, z, "equality")
    # penalty mode checks the relaxed dynamics rows g >= 0 too
    z = np.concatenate([[2.0, 0.0], [2.5, 0.0], [0.0]])
    with pytest.raises(
        InfeasibleAnchorError,
        match=r"\(dynamics-defect, step 0, component 0\): q = -5\.000e-01",
    ):
        build_feasible_region(problem, z, "penalty")


def test_anchor_outside_base_rejected():
    problem = unit_disk_problem()
    z = hold_anchor(problem, [7.5, 0.0])
    with pytest.raises(InfeasibleAnchorError, match="base set"):
        build_feasible_region(problem, z, "equality")


def test_anchor_with_defect_rejected_in_equality_mode():
    problem = unit_disk_problem()
    z = np.concatenate([[2.0, 0.0], [2.5, 0.0], [0.0]])  # defect 0.5
    with pytest.raises(InfeasibleAnchorError, match="defect"):
        build_feasible_region(problem, z, "equality")


def test_unknown_mode_rejected():
    problem = unit_disk_problem()
    with pytest.raises(ScvxError, match="mode"):
        build_feasible_region(problem, hold_anchor(problem, [2.0, 0.0]), "trust-region")


# ---------------------------------------------------------------------------
# benchmark-scale region


def test_benchmark_region_has_one_row_per_obstacle_and_step(quad_problem, quad_start):
    region = build_feasible_region(quad_problem, quad_start, "equality")
    assert len(region.halfspaces) == 50  # 25 temporal points x 2 obstacles
    assert min(slacks(region.halfspaces, quad_start)) >= -1e-9


def test_benchmark_region_sampled_containment(quad_problem, quad_start):
    region = build_feasible_region(quad_problem, quad_start, "equality")
    report = verify_invariance(quad_problem, region, n_samples=2000, seed=3)
    assert report.violations == 0
    assert report.worst_margin >= -1e-8


# ---------------------------------------------------------------------------
# the grouped region against the one-spec-at-a-time reference


def assert_same_bits(x, ref):
    np.testing.assert_array_equal(
        np.asarray(x, dtype=float).view(np.uint64), np.asarray(ref, dtype=float).view(np.uint64)
    )


def assert_region_matches_the_reference(problem, z, mode):
    """Every row of the region equals linearize_reference of its spec, bit for bit."""
    region = build_feasible_region(problem, z, mode)
    specs = keepout_specs(problem)
    rows = halfspace_rows(region.halfspaces)
    assert len(rows) == len(specs)
    for (indices, coeffs, offset), spec in zip(rows, specs):
        ref_coeffs, ref_offset = linearize_reference(spec, z)
        np.testing.assert_array_equal(indices, spec.indices)
        assert_same_bits(coeffs, ref_coeffs)
        assert_same_bits(offset, ref_offset)


def assert_direct_rows_match_the_reference(problem, w, mode):
    """Every row of direct_rows equals linearize_direct of its spec, bit for
    bit, with the slack column of its row as one more entry of 1.0."""
    slack = problem.dims.n_y
    specs = anchor_specs(problem, mode)
    rows = halfspace_rows(direct_rows(problem, w, mode))
    assert len(rows) == len(specs)
    for j, ((indices, coeffs, offset), spec) in enumerate(zip(rows, specs)):
        ref_coeffs, ref_offset = linearize_direct(spec, w)
        np.testing.assert_array_equal(indices, np.append(spec.indices, slack + j))
        assert_same_bits(coeffs, np.append(ref_coeffs, 1.0))
        assert_same_bits(offset, ref_offset)


@st.composite
def keepout_scenes(draw):
    """A held state x and keep-outs it sits outside of, on the boundary of,
    just inside, or on the axis of; and whether x is a valid anchor.

    Each keep-out is a unit-H disk over (x_0, x_1) or a cylinder over all
    three coordinates with a tilted 2x3 row-orthonormal H; "inside" lies
    within the anchor tolerance, 1e-10 of the radius deep.  "axis" centers
    the keep-out on H x: there the gradient is undefined, and x lies deep
    inside, so it is no anchor.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-4.0, 4.0, size=3)
    constraints = []
    anchor = True
    for kind in draw(st.lists(st.sampled_from(["disk", "tilted"]), min_size=1, max_size=4)):
        coords = (0, 1) if kind == "disk" else (0, 1, 2)
        H = np.eye(2) if kind == "disk" else np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        center = rng.uniform(-3.0, 3.0, size=2)
        dist = np.linalg.norm(H @ x[list(coords)] - center)
        scale = {"outside": rng.uniform(0.1, 0.9), "boundary": 1.0, "inside": 1.0 + 1e-10}
        placement = draw(st.sampled_from(sorted(scale) + ["axis"]))
        if placement == "axis":
            center, radius, anchor = H @ x[list(coords)], rng.uniform(0.1, 3.0), False
        else:
            radius = dist * scale[placement]
        fn = NormFn(H=H, p=center, a=np.zeros(len(coords)), beta=-radius)
        constraints.append(StateConstraint(fn=fn, state_coords=coords))
    problem = held_problem(constraints, n=3, box=50.0)
    return problem, np.concatenate([x, x, [0.0]]), anchor


@settings(max_examples=60, deadline=None)
@given(keepout_scenes())
def test_grouped_region_matches_the_per_spec_reference(scene):
    # unit-H and tilted keep-outs group apart; each group's rows, computed
    # in one array pass, round exactly as the spec-by-spec construction, in
    # the region and in the feasibility init's rows, whose penalty mode also
    # slacks the dynamics rows with their exact zeros
    problem, z, anchor = scene
    if anchor:
        assert_region_matches_the_reference(problem, z, "equality")
    else:
        with pytest.raises(InfeasibleAnchorError):
            build_feasible_region(problem, z, "equality")
    for mode in ("equality", "penalty"):
        assert_direct_rows_match_the_reference(problem, z, mode)


def test_region_matches_the_reference_at_the_benchmark_anchors(
    quad_scenario, quad_start, benchmark_run
):
    # the feasibility init's rows too, at the same anchors and at the guess
    # the init linearizes first
    guess = initial_guess(quad_scenario)
    anchors = [quad_start] + benchmark_run.report.iterates
    for z in anchors:
        assert_region_matches_the_reference(benchmark_run.problem, z, "equality")
    for z in [guess] + anchors:
        assert_direct_rows_match_the_reference(benchmark_run.problem, z, "equality")
    penalty = solve_quadrotor(dataclasses.replace(quad_scenario, penalty_lambda=100.0))
    for z in penalty.report.iterates:  # the first is the init's anchor
        assert_region_matches_the_reference(penalty.problem, z, "penalty")
    for z in [guess] + penalty.report.iterates:
        assert_direct_rows_match_the_reference(penalty.problem, z, "penalty")


# ---------------------------------------------------------------------------
# linearization continuity probe


def test_lipschitz_probe_bounded_for_disk(rng):
    problem = unit_disk_problem()
    worst = 0.0
    for _ in range(25):
        r1, r2 = rng.uniform(1.2, 4.0, size=2)
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        z1 = hold_anchor(problem, [r1 * np.cos(t1), r1 * np.sin(t1)])
        z2 = hold_anchor(problem, [r2 * np.cos(t2), r2 * np.sin(t2)])
        y = rng.uniform(-5.0, 5.0, size=z1.size)
        worst = max(worst, lipschitz_probe(problem, z1, z2, y))
    assert np.isfinite(worst) and worst < 100.0


def test_lipschitz_probe_rejects_equal_anchors():
    problem = unit_disk_problem()
    z = hold_anchor(problem, [2.0, 0.0])
    with pytest.raises(ScvxError, match="distinct"):
        lipschitz_probe(problem, z, z, z)
