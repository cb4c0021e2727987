"""Supporting-halfspace construction: anchoring, containment, degeneracies."""

import numpy as np
import pytest

from scvx.errors import (
    DegenerateGradientError,
    InfeasibleAnchorError,
    ScvxError,
    UnsupportedModelError,
)
from tests.checks import lipschitz_probe, verify_invariance
from scvx.linearize import (
    FeasibleRegion,
    Halfspace,
    build_feasible_region,
    linearize_direct,
)
from scvx.problem import (
    AffineDynamics,
    AffineFn,
    BaseSet,
    Box,
    ConstraintSpec,
    ControlNormSum,
    NormFn,
    OptimalControlProblem,
    ProblemDims,
    StateConstraint,
    stack,
)


def two_step_problem(fn, box=6.0):
    """T=2 hold-state dynamics with one keep-out constraint on the state."""
    dims = ProblemDims(n=2, m=1, T=2, s=1)
    B = np.zeros((2, 1))
    B[0, 0] = 1.0
    sc = StateConstraint(fn=fn, state_coords=(0, 1))
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
        dynamics=AffineDynamics(A=np.eye(2), B=B, d=np.zeros(2)),
        state_constraints=(sc,),
        base_set=base,
        objective=ControlNormSum(weight=1.0),
    )


def unit_disk_problem():
    fn = NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    return two_step_problem(fn)


def hold_anchor(problem, x):
    """Stacked point with both states at x and zero control (zero defect)."""
    return stack(problem.dims, [x, x], [[0.0]])


# ---------------------------------------------------------------------------
# halfspace values


def test_disk_linearization_gives_tangent_halfspaces():
    problem = unit_disk_problem()
    z = hold_anchor(problem, [2.0, 0.0])
    region = build_feasible_region(problem, z, "equality")
    assert len(region.halfspaces) == 2  # one keep-out row per temporal point
    for hs, coords in zip(region.halfspaces, [(0, 1), (2, 3)]):
        # projection of (2,0) onto the unit disk is (1,0): row y_first >= 1
        np.testing.assert_array_equal(hs.indices, coords)
        np.testing.assert_allclose(hs.coeffs, [1.0, 0.0], atol=1e-12)
        assert hs.offset == pytest.approx(1.0, abs=1e-12)
        assert hs.slack(z) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(region.anchor, z)


def test_affine_constraint_linearizes_to_itself():
    # q(x) = x_0 - 1 >= 0: the supporting halfspace is the constraint itself,
    # independent of the anchor
    fn = AffineFn(a=np.array([1.0, 0.0]), beta=-1.0)
    problem = two_step_problem(fn)
    for x in ([2.0, 0.5], [1.5, -3.0]):
        region = build_feasible_region(problem, hold_anchor(problem, x), "equality")
        for hs, coords in zip(region.halfspaces, [(0, 1), (2, 3)]):
            np.testing.assert_array_equal(hs.indices, coords)
            np.testing.assert_allclose(hs.coeffs, [1.0, 0.0], atol=1e-12)
            assert hs.offset == pytest.approx(1.0, abs=1e-12)


def test_anchor_is_contained_for_random_feasible_points(rng):
    problem = unit_disk_problem()
    for _ in range(50):
        r = rng.uniform(1.05, 4.0)
        th = rng.uniform(0, 2 * np.pi)
        z = hold_anchor(problem, [r * np.cos(th), r * np.sin(th)])
        region = build_feasible_region(problem, z, "equality")
        assert min(hs.slack(z) for hs in region.halfspaces) >= -1e-9


def test_region_contained_in_true_feasible_set():
    problem = unit_disk_problem()
    z = hold_anchor(problem, [2.0, 1.0])
    region = build_feasible_region(problem, z, "equality")
    report = verify_invariance(problem, region, n_samples=10000, seed=7)
    assert report.violations == 0
    assert report.worst_margin >= -1e-8
    assert report.checked_rows == 2
    assert report.anchor_slack >= -1e-9


def test_direct_linearization_is_global_underestimator(rng):
    # unit-disk keep-out q(w) = ||w|| - 1, linearized at the point itself
    fn = NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    spec = ConstraintSpec(
        kind="state-constraint",
        step=0,
        component=0,
        indices=np.array([0, 1]),
        fn=fn,
    )
    z = np.array([1.7, -0.4])
    hs = linearize_direct(spec, z, 0)
    assert hs.slack(z) == pytest.approx(spec.value(z), abs=1e-12)
    for _ in range(200):
        y = rng.uniform(-3.0, 3.0, size=2)
        assert spec.value(y) >= hs.slack(y) - 1e-12


def test_scaled_norm_keepout_is_projected_by_its_own_geometry():
    # ||2 w|| >= 1 keeps out the disk of radius 0.5; H = 2I is not
    # row-orthonormal, so the ball formula (which would land at (0.2, 0),
    # inside the keep-out) does not apply, and the problem is not built
    fn = NormFn(H=2.0 * np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    with pytest.raises(UnsupportedModelError, match="NormFn"):
        two_step_problem(fn)


def test_degenerate_gradient_raises():
    # q = 0.w + 0: {q <= 0} is the whole plane, so the anchor is its own
    # projection point, where the gradient vanishes
    fn = AffineFn(a=np.zeros(2), beta=0.0)
    problem = two_step_problem(fn)
    z = hold_anchor(problem, [0.0, 0.0])
    with pytest.raises(DegenerateGradientError):
        build_feasible_region(problem, z, "equality")


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
    z = stack(problem.dims, [[0.5, 0.0], [0.2, 0.0]], [[-0.3]])
    with pytest.raises(
        InfeasibleAnchorError,
        match=r"\(state-constraint, step 1, component 0\): q = -8\.000e-01",
    ):
        build_feasible_region(problem, z, "equality")
    # penalty mode checks the relaxed dynamics rows g >= 0 too
    z = stack(problem.dims, [[2.0, 0.0], [2.5, 0.0]], [[0.0]])
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
    z = stack(problem.dims, [[2.0, 0.0], [2.5, 0.0]], [[0.0]])  # defect 0.5
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
    assert min(hs.slack(quad_start) for hs in region.halfspaces) >= -1e-9


def test_benchmark_region_sampled_containment(quad_problem, quad_start):
    region = build_feasible_region(quad_problem, quad_start, "equality")
    report = verify_invariance(quad_problem, region, n_samples=2000, seed=3)
    assert report.violations == 0
    assert report.worst_margin >= -1e-8


# ---------------------------------------------------------------------------
# linearization continuity probe


def test_lipschitz_probe_zero_for_affine(rng):
    fn = AffineFn(a=np.array([1.0, 0.0]), beta=-1.0)
    problem = two_step_problem(fn)
    z1 = hold_anchor(problem, [2.0, 0.5])
    z2 = hold_anchor(problem, [3.0, -1.0])
    y = rng.uniform(-5.0, 5.0, size=z1.size)
    assert lipschitz_probe(problem, z1, z2, y) == pytest.approx(0.0, abs=1e-12)


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
