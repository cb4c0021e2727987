"""Euclidean projections: analytic formulas, the conic reference, metric properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvx.errors import UnsupportedModelError
from scvx.problem import NORM_SINGULARITY_RADIUS, AffineFn, NormFn, StateConstraint
from scvx.projection import project
from tests.checks import ConstraintSpec, keepout_group, project_generic, project_point, project_reference
from tests.test_linearize import hold_anchor, two_step_problem


def disk_constraint(center, radius, indices=(0, 1), H=None):
    """Keep-out ||H y[idx] - center|| >= radius (H = I unless given), projected onto its complement."""
    center = np.asarray(center, dtype=float)
    H = np.eye(center.size) if H is None else np.asarray(H, dtype=float)
    return ConstraintSpec(
        kind="state-constraint",
        step=0,
        component=0,
        indices=np.asarray(indices, dtype=int),
        fn=NormFn(H=H, p=center, a=np.zeros(H.shape[1]), beta=-float(radius)),
    )


def tilted_cylinder(rng):
    """A cylinder keep-out over 3 coordinates in a rotated frame, and a point outside it.

    H is 2 orthonormal rows; the point sits 1.1-3 radii from the axis in
    H's image and anywhere along the axis.
    """
    H = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    center = rng.uniform(-2.0, 2.0, size=2)
    radius = float(rng.uniform(0.3, 2.0))
    along = rng.standard_normal(3)
    along -= H.T @ (H @ along)
    z = H.T @ (center + rng.uniform(1.1, 3.0) * radius * _unit(rng)) + along
    return disk_constraint(center, radius, indices=(0, 1, 2), H=H), z


def grid_oracle(center, radius, z, step=1e-3):
    """Brute-force distance from z to the disk {||y - c|| <= r} on a grid.

    The grid minimum never undercuts the true distance, and some grid point
    sits within a cell diagonal of the true projection, so the returned
    value is within about 2 steps of the exact distance.  The argmin point
    itself is not a usable oracle: the distance is tangentially flat along
    the boundary circle, so the grid argmin wanders much further than the
    distance error.
    """
    cx, cy = center
    xs = np.arange(cx - radius, cx + radius + step, step)
    ys = np.arange(cy - radius, cy + radius + step, step)
    dy2 = (ys - cy) ** 2
    best_d2 = np.inf
    for x in xs:
        mask = (x - cx) ** 2 + dy2 <= radius**2
        if not mask.any():
            continue
        d2 = (x - z[0]) ** 2 + (ys[mask] - z[1]) ** 2
        best_d2 = min(best_d2, float(d2.min()))
    return np.sqrt(best_d2)


# ---------------------------------------------------------------------------
# analytic formulas


def test_ball_projection_radial():
    c = disk_constraint([0.0, 0.0], 1.0)
    z = np.array([2.0, 0.0])
    res = project(keepout_group([c]), z)
    np.testing.assert_allclose(res.points, [[1.0, 0.0]], atol=1e-12)
    assert np.linalg.norm(res.points[0] - z) == pytest.approx(1.0, abs=1e-12)
    assert abs(c.value(res.points[0])) <= 1e-8
    assert res.method == "analytic"


def test_route_is_decided_once_per_function(monkeypatch):
    ball = NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    stretched = NormFn(H=2.0 * np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    StateConstraint(fn=ball, state_coords=(0, 1))
    # H = 2I is not row-orthonormal: no closed form, so no keep-out
    with pytest.raises(UnsupportedModelError, match="NormFn"):
        StateConstraint(fn=stretched, state_coords=(0, 1))
    # later problems read the cached route instead of testing H H^T again
    def no_retest(*args, **kwargs):
        raise AssertionError("the ball test ran again")

    monkeypatch.setattr(np, "allclose", no_retest)
    problem = two_step_problem(ball)
    (group,) = problem.keepouts
    assert project(group, hold_anchor(problem, [2.0, 0.0])).method == "analytic"
    with pytest.raises(UnsupportedModelError):
        StateConstraint(fn=stretched, state_coords=(0, 1))
    # an affine row is its own supporting halfspace and is never projected
    problem = two_step_problem(AffineFn(np.array([1.0, 0.0]), -1.0))
    assert problem.keepouts == () and [g.kind for g in problem.affine_rows] == ["dynamics-defect", "state-constraint"]


def test_member_point_projects_to_itself():
    c = disk_constraint([0.0, 0.0], 1.0)
    z = np.array([0.3, -0.2])
    point = project_point(c, z)
    np.testing.assert_array_equal(point, z)
    assert np.linalg.norm(point - z) == 0.0


def test_cylinder_projection_touches_only_its_coordinates():
    # ground-plane keep-out in a larger stacked vector
    c = disk_constraint([-1.0, 0.0], 3.0, indices=(2, 3))
    z = np.array([9.0, 9.0, -8.0, -1.0, 9.0])
    point = project_point(c, z)
    d = np.array([-7.0, -1.0]) / np.sqrt(50.0)
    np.testing.assert_allclose(point[[2, 3]], np.array([-1.0, 0.0]) + 3.0 * d, atol=1e-12)
    np.testing.assert_array_equal(point[[0, 1, 4]], [9.0, 9.0, 9.0])
    assert abs(c.value(point)) <= 1e-12


def test_gradient_fallback_at_norm_center(rng):
    from scvx.errors import ScvxError
    from scvx.linearize import _supporting_rows
    from tests.test_linearize import direct_keepout_rows

    c = disk_constraint([1.0, 2.0], 0.5)
    problem = two_step_problem(c.fn)
    (group,) = problem.keepouts
    y = hold_anchor(problem, [1.0, 2.0])  # exactly at the center: gradient undefined
    # a region row there is a projector defect; the init's row takes the
    # first image direction
    with pytest.raises(ScvxError, match="keep-out center"):
        _supporting_rows(group, y)
    for spec, idx, coeffs, offset in direct_keepout_rows(problem, y):
        np.testing.assert_array_equal(idx, spec.indices)
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-15)
        assert coeffs @ y[idx] - offset == pytest.approx(spec.value(y), abs=1e-15)
        # a subgradient row: still a global under-estimator of q
        for w in rng.uniform(-2.0, 4.0, size=(500, 2)):
            assert c.value(w) >= coeffs @ w - offset - 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["disk", "tilted"]),
    st.lists(st.sampled_from(["outside", "inside", "small"]), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_grouped_projection_matches_the_per_spec_reference(shape, kinds, seed):
    # one group of rows over disjoint coordinates, each row's point outside
    # its keep-out, inside it, or outside one whose radius is near the
    # smallest StateConstraint admits: every row's projection is that of
    # the spec-by-spec closed form, bit for bit
    rng = np.random.default_rng(seed)
    d = 2 if shape == "disk" else 3
    specs, z = [], np.zeros(d * len(kinds))
    for k, kind in enumerate(kinds):
        H = np.eye(2) if shape == "disk" else np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        center = rng.uniform(-2.0, 2.0, size=2)
        radius = float(rng.uniform(0.3, 2.0))
        if kind == "small":
            radius = float(rng.uniform(2.0, 1000.0)) * NORM_SINGULARITY_RADIUS
        reach = {"outside": rng.uniform(1.1, 3.0) * radius, "inside": rng.uniform(0.0, 0.9) * radius,
                 "small": rng.uniform(1.1, 3.0) * radius}
        along = rng.standard_normal(d)
        along -= H.T @ (H @ along)
        indices = np.arange(d) + d * k
        z[indices] = H.T @ (center + reach[kind] * _unit(rng)) + along
        specs.append(disk_constraint(center, radius, indices=indices, H=H))
    group = keepout_group(specs)
    res = project(group, z)
    for point, spec in zip(res.points, specs):
        ref = project_reference(spec, z)
        np.testing.assert_array_equal(point.view(np.uint64), ref[spec.indices].view(np.uint64))


# ---------------------------------------------------------------------------
# grid-search oracle


def test_benchmark_cylinder_against_grid():
    center = np.array([-1.0, 0.0])
    z = np.array([-8.0, -1.0])
    c = disk_constraint(center, 3.0)
    distance = np.linalg.norm(project_point(c, z) - z)
    d_grid = grid_oracle(center, 3.0, z)
    assert distance == pytest.approx(np.sqrt(50.0) - 3.0, abs=1e-12)
    assert 0.0 <= d_grid - distance <= 2e-3


def test_twenty_random_instances_against_grid(rng):
    for _ in range(19):
        center = rng.uniform(-1.0, 1.0, size=2)
        radius = float(rng.uniform(0.2, 0.5))
        z = center + rng.uniform(1.5, 3.0) * _unit(rng)
        c = disk_constraint(center, radius)
        distance = np.linalg.norm(project_point(c, z) - z)
        d_grid = grid_oracle(center, radius, z)
        assert 0.0 <= d_grid - distance <= 2e-3


def _unit(rng):
    v = rng.standard_normal(2)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# analytic vs conic agreement


def test_analytic_conic_agreement_100_instances(rng):
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            center = rng.uniform(-2.0, 2.0, size=2)
            radius = float(rng.uniform(0.3, 2.0))
            c = disk_constraint(center, radius)
            z = center + rng.uniform(1.1, 3.0) * radius * _unit(rng)
            # the distances agree as well as the points
            analytic = np.linalg.norm(project_point(c, z) - z)
            conic = np.linalg.norm(project_generic(c, z) - z)
            assert abs(conic - analytic) <= 1e-7
        elif kind == 1:
            center = rng.uniform(-2.0, 2.0, size=2)
            radius = float(rng.uniform(0.3, 2.0))
            c = disk_constraint(center, radius, indices=(1, 2))
            z = np.zeros(4)
            z[[1, 2]] = center + rng.uniform(1.1, 3.0) * radius * _unit(rng)
            z[[0, 3]] = rng.standard_normal(2)
        else:
            c, z = tilted_cylinder(rng)
        analytic = project_point(c, z)
        conic = project_generic(c, z)
        assert np.linalg.norm(analytic - conic) <= 1e-6


# ---------------------------------------------------------------------------
# metric properties


def test_idempotence(rng):
    c = disk_constraint([0.5, -0.25], 1.25)
    for _ in range(50):
        z = rng.uniform(-4.0, 4.0, size=2)
        p1 = project_point(c, z)
        p2 = project_point(c, p1)
        assert np.linalg.norm(p2 - p1) <= 1e-9


def test_non_expansiveness_1000_pairs(rng):
    specs = [
        disk_constraint([0.0, 0.0], 1.0),
        disk_constraint([1.0, -1.0], 2.0),
        disk_constraint([0.5], 0.5, H=[[0.6, 0.8]]),  # the slab |0.6 y0 + 0.8 y1 - 0.5| <= 0.5
    ]
    for i in range(1000):
        c = specs[i % len(specs)]
        a = rng.uniform(-5.0, 5.0, size=2)
        b = rng.uniform(-5.0, 5.0, size=2)
        pa = project_point(c, a)
        pb = project_point(c, b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


def test_obtuse_angle_characterization(rng):
    c = disk_constraint([0.0, 0.0], 1.0)
    for _ in range(100):
        z = rng.uniform(1.1, 4.0) * _unit(rng)
        point = project_point(c, z)
        # random members of the disk
        y = rng.uniform(0.0, 1.0) * _unit(rng)
        assert (z - point) @ (y - point) <= 1e-8


@pytest.mark.parametrize("constraint", [disk_constraint([0.5, -0.25], 1.0)], ids=["norm"])
@pytest.mark.parametrize(
    "projector",
    [pytest.param(project_point, id="project"), pytest.param(project_generic, id="project_generic")],
)
def test_projection_lands_on_boundary(rng, constraint, projector):
    # an outside point lands on the boundary; a member point is its own
    # projection at distance 0
    for _ in range(5):
        z = np.array([0.5, -0.25]) + rng.uniform(1.2, 4.0) * _unit(rng)
        out = projector(constraint, z)
        assert abs(constraint.value(out)) <= 1e-8
        inside = np.array([0.5, -0.25]) + rng.uniform(0.0, 0.9) * _unit(rng)
        member = projector(constraint, inside)
        np.testing.assert_array_equal(member, inside)
        assert np.linalg.norm(member - inside) == 0.0


def test_generic_projection_of_member_point_is_identity():
    c = disk_constraint([0.0, 0.0], 1.0)
    z = np.array([0.4, 0.1])
    point = project_generic(c, z)
    np.testing.assert_array_equal(point, z)
    assert np.linalg.norm(point - z) == 0.0
