"""Euclidean projections: analytic formulas, the conic reference, metric properties."""

import numpy as np
import pytest

from scvx.errors import UnsupportedModelError
from scvx.problem import AffineFn, ConstraintSpec, NormFn, StateConstraint
from scvx.projection import project
from tests.checks import project_generic


def disk_constraint(center, radius, indices=(0, 1)):
    """Keep-out disk ||y[idx] - center|| >= radius, projected onto its complement."""
    center = np.asarray(center, dtype=float)
    k = center.size
    return ConstraintSpec(
        kind="state-constraint",
        step=0,
        component=0,
        indices=np.asarray(indices, dtype=int),
        fn=NormFn(H=np.eye(k), p=center, a=np.zeros(k), beta=-float(radius)),
    )


def halfspace_constraint(a, b, indices):
    # a.y - b >= 0, complement {a.y <= b}
    return ConstraintSpec(
        kind="state-constraint",
        step=0,
        component=0,
        indices=np.asarray(indices, dtype=int),
        fn=AffineFn(a=np.asarray(a, dtype=float), beta=-float(b)),
    )


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
    res = project(c, z)
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(res.point - z) == pytest.approx(1.0, abs=1e-12)
    assert abs(c.fn.value(res.point)) <= 1e-8
    assert res.method == "analytic"


def test_route_is_decided_once_per_function(monkeypatch):
    ball = disk_constraint([0.0, 0.0], 1.0)
    stretched = NormFn(H=2.0 * np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    z = np.array([2.0, 0.0])
    assert project(ball, z).method == "analytic"
    # H = 2I is not row-orthonormal: no closed form, so no keep-out
    with pytest.raises(UnsupportedModelError, match="NormFn"):
        StateConstraint(fn=stretched, state_coords=(0, 1))
    spec = ConstraintSpec("state-constraint", 0, 0, np.arange(2), stretched)
    with pytest.raises(UnsupportedModelError, match="NormFn"):
        project(spec, z)
    # later projections read the cached route instead of testing H H^T again
    def no_retest(*args, **kwargs):
        raise AssertionError("the ball test ran again")

    monkeypatch.setattr(np, "allclose", no_retest)
    assert project(ball, z).method == "analytic"
    with pytest.raises(UnsupportedModelError):
        project(spec, z)


def test_member_point_projects_to_itself():
    c = disk_constraint([0.0, 0.0], 1.0)
    z = np.array([0.3, -0.2])
    res = project(c, z)
    np.testing.assert_array_equal(res.point, z)
    assert np.linalg.norm(res.point - z) == 0.0


def test_cylinder_projection_touches_only_its_coordinates():
    # ground-plane keep-out in a larger stacked vector
    c = disk_constraint([-1.0, 0.0], 3.0, indices=(2, 3))
    z = np.array([9.0, 9.0, -8.0, -1.0, 9.0])
    res = project(c, z)
    d = np.array([-7.0, -1.0]) / np.sqrt(50.0)
    np.testing.assert_allclose(res.point[[2, 3]], np.array([-1.0, 0.0]) + 3.0 * d, atol=1e-12)
    np.testing.assert_array_equal(res.point[[0, 1, 4]], [9.0, 9.0, 9.0])
    assert abs(c.fn.value(res.point[[2, 3]])) <= 1e-12


def test_halfspace_projection_formula():
    a = np.array([3.0, 4.0])
    c = halfspace_constraint(a, 5.0, indices=(0, 1))
    z = np.array([3.0, 4.0])  # a.z = 25 > 5: outside the complement set
    res = project(c, z)
    expect = z - a * (a @ z - 5.0) / (a @ a)
    np.testing.assert_allclose(res.point, expect, atol=1e-12)
    np.testing.assert_allclose(res.point, [0.6, 0.8], atol=1e-12)
    assert abs(c.fn.value(res.point)) <= 1e-9


def test_gradient_fallback_at_norm_center(rng):
    from scvx.errors import GradientSingularityError
    from scvx.linearize import linearize_direct

    c = disk_constraint([1.0, 2.0], 0.5)
    y = np.array([1.0, 2.0])  # exactly at the center: gradient undefined
    with pytest.raises(GradientSingularityError):
        c.grad_local(y)
    hs = linearize_direct(c, y, 0)
    np.testing.assert_array_equal(hs.indices, c.indices)
    np.testing.assert_allclose(hs.coeffs, [1.0, 0.0], atol=1e-15)
    assert hs.slack(y) == pytest.approx(c.value(y), abs=1e-15)
    # a subgradient row: still a global under-estimator of q
    for w in rng.uniform(-2.0, 4.0, size=(500, 2)):
        assert c.value(w) >= hs.slack(w) - 1e-12


# ---------------------------------------------------------------------------
# grid-search oracle


def test_benchmark_cylinder_against_grid():
    center = np.array([-1.0, 0.0])
    z = np.array([-8.0, -1.0])
    c = disk_constraint(center, 3.0)
    distance = np.linalg.norm(project(c, z).point - z)
    d_grid = grid_oracle(center, 3.0, z)
    assert distance == pytest.approx(np.sqrt(50.0) - 3.0, abs=1e-12)
    assert 0.0 <= d_grid - distance <= 2e-3


def test_twenty_random_instances_against_grid(rng):
    for _ in range(19):
        center = rng.uniform(-1.0, 1.0, size=2)
        radius = float(rng.uniform(0.2, 0.5))
        z = center + rng.uniform(1.5, 3.0) * _unit(rng)
        c = disk_constraint(center, radius)
        distance = np.linalg.norm(project(c, z).point - z)
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
            analytic = np.linalg.norm(project(c, z).point - z)
            conic = np.linalg.norm(project_generic(c, z).point - z)
            assert abs(conic - analytic) <= 1e-7
        elif kind == 1:
            center = rng.uniform(-2.0, 2.0, size=2)
            radius = float(rng.uniform(0.3, 2.0))
            c = disk_constraint(center, radius, indices=(1, 2))
            z = np.zeros(4)
            z[[1, 2]] = center + rng.uniform(1.1, 3.0) * radius * _unit(rng)
            z[[0, 3]] = rng.standard_normal(2)
        else:
            a = rng.standard_normal(3)
            b = float(rng.uniform(-1.0, 1.0))
            c = halfspace_constraint(a, b, indices=(0, 1, 2))
            w = rng.standard_normal(3)
            # boundary point plus an outward step, so the projection is proper
            zb = w - a * (a @ w - b) / (a @ a)
            z = zb + a / np.linalg.norm(a) * rng.uniform(0.1, 2.0)
        analytic = project(c, z)
        conic = project_generic(c, z)
        assert np.linalg.norm(analytic.point - conic.point) <= 1e-6


# ---------------------------------------------------------------------------
# metric properties


def test_idempotence(rng):
    c = disk_constraint([0.5, -0.25], 1.25)
    for _ in range(50):
        z = rng.uniform(-4.0, 4.0, size=2)
        p1 = project(c, z).point
        p2 = project(c, p1).point
        assert np.linalg.norm(p2 - p1) <= 1e-9


def test_non_expansiveness_1000_pairs(rng):
    specs = [
        disk_constraint([0.0, 0.0], 1.0),
        disk_constraint([1.0, -1.0], 2.0),
        halfspace_constraint([1.0, 2.0], 0.5, indices=(0, 1)),
    ]
    for i in range(1000):
        c = specs[i % len(specs)]
        a = rng.uniform(-5.0, 5.0, size=2)
        b = rng.uniform(-5.0, 5.0, size=2)
        pa = project(c, a).point
        pb = project(c, b).point
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


def test_obtuse_angle_characterization(rng):
    c = disk_constraint([0.0, 0.0], 1.0)
    for _ in range(100):
        z = rng.uniform(1.1, 4.0) * _unit(rng)
        res = project(c, z)
        # random members of the disk
        y = rng.uniform(0.0, 1.0) * _unit(rng)
        assert (z - res.point) @ (y - res.point) <= 1e-8


@pytest.mark.parametrize("constraint", [disk_constraint([0.5, -0.25], 1.0)], ids=["norm"])
@pytest.mark.parametrize("projector", [project, project_generic])
def test_projection_lands_on_boundary(rng, constraint, projector):
    # an outside point lands on the boundary; a member point is its own
    # projection at distance 0
    for _ in range(5):
        z = np.array([0.5, -0.25]) + rng.uniform(1.2, 4.0) * _unit(rng)
        out = projector(constraint, z)
        assert abs(constraint.fn.value(out.point)) <= 1e-8
        inside = np.array([0.5, -0.25]) + rng.uniform(0.0, 0.9) * _unit(rng)
        member = projector(constraint, inside)
        np.testing.assert_array_equal(member.point, inside)
        assert np.linalg.norm(member.point - inside) == 0.0


def test_generic_projection_of_member_point_is_identity():
    c = disk_constraint([0.0, 0.0], 1.0)
    z = np.array([0.4, 0.1])
    res = project_generic(c, z)
    np.testing.assert_array_equal(res.point, z)
    assert np.linalg.norm(res.point - z) == 0.0
