"""Problem container: layout, defects, constraint rows, gradients, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvx.errors import DimensionError, GradientSingularityError
from scvx.problem import (
    AffineDynamics,
    AffineFn,
    Ball,
    BaseSet,
    Box,
    Cone,
    ConstraintSpec,
    ControlNormSum,
    ConvexDynamics,
    NormFn,
    OptimalControlProblem,
    Pin,
    ProblemDims,
    QuadFn,
    eval_g,
    eval_h,
    stack,
    unstack,
)
from tests.checks import (
    eval_q,
    jacobian_q,
    n_constraints,
    sample_base_set,
    validate_convexity,
)


def tiny_problem(n=2, m=1, T=3):
    """Double-integrator-style affine problem with one keep-out disk."""
    dims = ProblemDims(n=n, m=m, T=T, s=1)
    A = np.eye(n)
    B = np.zeros((n, m))
    B[0, 0] = 1.0
    d = np.zeros(n)
    obstacle = NormFn(
        H=np.eye(1), p=np.array([0.5]), a=np.zeros(1), beta=-0.25
    )  # |x_0 - 0.5| >= 0.25
    from scvx.problem import StateConstraint

    sc = StateConstraint(fn=obstacle, state_coords=(0,))
    base = BaseSet(
        n_y=dims.n_y,
        members=(
            Box(
                indices=np.arange(dims.n_y),
                lower=-5.0 * np.ones(dims.n_y),
                upper=5.0 * np.ones(dims.n_y),
            ),
        ),
    )
    return OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A=A, B=B, d=d),
        state_constraints=(sc,),
        base_set=base,
        objective=ControlNormSum(weight=1.0),
    )


# ---------------------------------------------------------------------------
# layout


def test_stack_layout_scalar():
    dims = ProblemDims(n=1, m=1, T=2, s=0)
    y = stack(dims, [[1.0], [2.0]], [[3.0]])
    np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])


def test_stack_layout_vector_state():
    dims = ProblemDims(n=2, m=1, T=2, s=0)
    y = stack(dims, [[1.0, 2.0], [3.0, 4.0]], [[5.0]])
    np.testing.assert_array_equal(y, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_quadrotor_decision_dimension():
    dims = ProblemDims(n=6, m=3, T=25, s=2)
    assert dims.n_y == 222
    assert n_constraints(dims) == 6 * 24 + 2 * 25


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    T=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_stack_unstack_roundtrip(n, m, T, seed):
    dims = ProblemDims(n=n, m=m, T=T, s=0)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((T, n))
    controls = rng.standard_normal((T - 1, m))
    y = stack(dims, states, controls)
    s2, c2 = unstack(dims, y)
    np.testing.assert_array_equal(s2, states)
    np.testing.assert_array_equal(c2, controls)


def test_stack_rejects_wrong_shapes():
    dims = ProblemDims(n=2, m=1, T=3, s=0)
    with pytest.raises(DimensionError):
        stack(dims, np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        unstack(dims, np.zeros(dims.n_y + 1))


def test_slices_cover_decision_vector():
    dims = ProblemDims(n=3, m=2, T=4, s=0)
    touched = np.zeros(dims.n_y, dtype=int)
    for i in range(dims.T):
        touched[dims.state_slice(i)] += 1
    for i in range(dims.T - 1):
        touched[dims.control_slice(i)] += 1
    assert np.all(touched == 1)
    with pytest.raises(DimensionError):
        dims.state_slice(4)
    with pytest.raises(DimensionError):
        dims.control_slice(3)


# ---------------------------------------------------------------------------
# defects


def test_defect_zero_for_constant_state():
    dims = ProblemDims(n=2, m=1, T=4, s=0)
    prob = OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A=np.eye(2), B=np.zeros((2, 1)), d=np.zeros(2)),
        state_constraints=(),
        base_set=BaseSet(
            n_y=dims.n_y,
            members=(
                Box(
                    indices=np.arange(dims.n_y),
                    lower=-np.ones(dims.n_y),
                    upper=np.ones(dims.n_y),
                ),
            ),
        ),
        objective=ControlNormSum(),
    )
    y = stack(dims, np.tile([0.3, -0.2], (4, 1)), np.zeros((3, 1)))
    np.testing.assert_allclose(eval_g(prob, y), 0.0, atol=0.0)


def test_defect_single_integrator_exact_step():
    # x_{i+1} = x_i + u_i with dt = 1
    dims = ProblemDims(n=1, m=1, T=2, s=0)
    prob = OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A=np.eye(1), B=np.eye(1), d=np.zeros(1)),
        state_constraints=(),
        base_set=BaseSet(
            n_y=dims.n_y,
            members=(
                Box(
                    indices=np.arange(dims.n_y),
                    lower=-2.0 * np.ones(dims.n_y),
                    upper=2.0 * np.ones(dims.n_y),
                ),
            ),
        ),
        objective=ControlNormSum(),
    )
    y = stack(dims, [[0.0], [1.0]], [[1.0]])
    np.testing.assert_array_equal(eval_g(prob, y), [0.0])


def test_quadrotor_defect_matches_dense_oracle(quad_problem, rng):
    dims = quad_problem.dims
    dyn = quad_problem.dynamics
    y = rng.standard_normal(dims.n_y)
    states, controls = unstack(dims, y)
    expect = np.empty((dims.T - 1, dims.n))
    for i in range(dims.T - 1):
        expect[i] = dyn.A @ states[i] + dyn.B @ controls[i] + dyn.d - states[i + 1]
    np.testing.assert_allclose(eval_g(quad_problem, y), expect.ravel(), atol=1e-12)


def test_convex_dynamics_defect_is_the_spec_values(rng):
    # one affine, one quadratic and one norm component of (x_i, u_i)
    dims = ProblemDims(n=3, m=2, T=4, s=0)
    components = (
        AffineFn(a=rng.standard_normal(5), beta=0.2),
        QuadFn(L=rng.standard_normal((2, 5)), a=rng.standard_normal(5), beta=-0.4),
        NormFn(
            H=rng.standard_normal((2, 5)),
            p=rng.standard_normal(2),
            a=rng.standard_normal(5),
            beta=0.1,
        ),
    )
    prob = OptimalControlProblem(
        dims=dims,
        dynamics=ConvexDynamics(components=components),
        state_constraints=(),
        base_set=BaseSet(
            n_y=dims.n_y,
            members=(
                Box(
                    indices=np.arange(dims.n_y),
                    lower=-np.ones(dims.n_y),
                    upper=np.ones(dims.n_y),
                ),
            ),
        ),
        objective=ControlNormSum(),
    )
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0, dims.n_y)
        g = eval_g(prob, y)
        np.testing.assert_array_equal(g, [spec.value(y) for spec in prob.constraints])
        # and they are the one-step defects map(x_i, u_i) - x_{i+1}
        states, controls = unstack(dims, y)
        for i in range(dims.T - 1):
            w = np.concatenate([states[i], controls[i]])
            expect = [f.value(w) - states[i + 1, j] for j, f in enumerate(components)]
            np.testing.assert_allclose(g[3 * i : 3 * i + 3], expect, atol=1e-12)


def test_state_constraint_vector_is_the_spec_values(quad_problem, rng):
    y = rng.standard_normal(quad_problem.dims.n_y)
    specs = [c for c in quad_problem.constraints if c.kind == "state-constraint"]
    assert len(specs) == 2 * 25
    np.testing.assert_array_equal(eval_h(quad_problem, y), [c.value(y) for c in specs])
    with pytest.raises(DimensionError):
        eval_h(quad_problem, y[:-1])


# ---------------------------------------------------------------------------
# constraint rows


def test_eval_q_without_state_constraints_is_defect():
    dims = ProblemDims(n=1, m=1, T=3, s=0)
    prob = OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A=np.eye(1), B=np.eye(1), d=np.zeros(1)),
        state_constraints=(),
        base_set=BaseSet(
            n_y=dims.n_y,
            members=(
                Box(
                    indices=np.arange(dims.n_y),
                    lower=-2.0 * np.ones(dims.n_y),
                    upper=2.0 * np.ones(dims.n_y),
                ),
            ),
        ),
        objective=ControlNormSum(),
    )
    y = np.array([0.0, 0.5, 1.5, 0.5, 1.0])
    np.testing.assert_array_equal(eval_q(prob, y), eval_g(prob, y))
    assert eval_h(prob, y).size == 0


def test_boundary_point_has_zero_margin():
    prob = tiny_problem()
    # x_0 = 0.25 sits on the keep-out boundary |x_0 - 0.5| = 0.25
    y = np.zeros(prob.dims.n_y)
    y[prob.dims.state_slice(0)] = [0.25, 0.0]
    h = eval_h(prob, y)
    assert abs(h[0]) <= 1e-12


def test_constraint_ordering_dynamics_first_step_major():
    prob = tiny_problem(n=2, m=1, T=3)
    kinds = [(c.kind, c.step, c.component) for c in prob.constraints]
    expect = [("dynamics-defect", i, j) for i in range(2) for j in range(2)]
    expect += [("state-constraint", i, 0) for i in range(3)]
    assert kinds == expect


def test_constraints_touch_only_their_indices(rng):
    prob = tiny_problem()
    y = rng.standard_normal(prob.dims.n_y)
    for c in prob.constraints:
        other = y.copy()
        untouched = np.setdiff1d(np.arange(prob.dims.n_y), c.indices)
        other[untouched] += rng.standard_normal(untouched.size)
        assert c.value(y) == pytest.approx(c.value(other), abs=0.0)


def test_feasible_start_satisfies_all_rows(quad_problem, quad_start):
    assert np.min(eval_q(quad_problem, quad_start)) >= -1e-9
    assert quad_problem.base_set.contains(quad_start)


# ---------------------------------------------------------------------------
# gradients


def test_affine_jacobian_exact():
    fn = AffineFn(a=np.array([2.0, -3.0]), beta=1.0)
    np.testing.assert_array_equal(fn.grad(np.array([7.0, 9.0])), [2.0, -3.0])


def test_norm_gradient_unit_vector():
    fn = NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    np.testing.assert_allclose(fn.grad(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)


def test_norm_gradient_singularity_guard():
    fn = NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    with pytest.raises(GradientSingularityError):
        fn.grad(np.zeros(2))


def test_quad_gradient_matches_central_difference(rng):
    fn = QuadFn(L=rng.standard_normal((2, 3)), a=rng.standard_normal(3), beta=0.4)
    w = rng.standard_normal(3)
    grad = fn.grad(w)
    step = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        fd = (fn.value(w + e) - fn.value(w - e)) / (2.0 * step)
        assert fd == pytest.approx(grad[k], rel=1e-6, abs=1e-9)


def test_jacobian_rows_are_sparse_gradients(quad_problem, rng):
    y = rng.standard_normal(quad_problem.dims.n_y) * 2.0
    J = jacobian_q(quad_problem, y)
    assert J.shape == (len(quad_problem.constraints), quad_problem.dims.n_y)
    for j, c in enumerate(quad_problem.constraints):
        outside = np.setdiff1d(np.arange(quad_problem.dims.n_y), c.indices)
        assert not np.any(J[j, outside])


def test_sampled_convexity_of_constraint_rows(quad_problem):
    validate_convexity(quad_problem, n_pairs=1000, seed=0)


# ---------------------------------------------------------------------------
# base set


def test_base_member_margins():
    box = Box(indices=np.array([0, 1]), lower=np.zeros(2), upper=np.ones(2))
    assert box.margin(np.array([0.25, 0.5])) == pytest.approx(0.25)
    ball = Ball(indices=np.array([0, 1]), center=np.zeros(2), radius=2.0)
    assert ball.margin(np.array([0.0, 1.0])) == pytest.approx(1.0)
    cone = Cone(indices=np.array([0, 1]), axis=np.array([1.0, 0.0]), cos_angle=0.5)
    assert cone.margin(np.array([1.0, 0.0])) == pytest.approx(0.5)
    pin = Pin(indices=np.array([0]), values=np.array([3.0]))
    assert pin.margin(np.array([3.5, 0.0])) == pytest.approx(-0.5)


def test_member_validation_errors():
    with pytest.raises(DimensionError):
        Ball(indices=np.array([0, 1]), center=np.zeros(2), radius=0.0)
    with pytest.raises(DimensionError):
        Cone(indices=np.array([0, 1]), axis=np.array([2.0, 0.0]), cos_angle=0.5)
    with pytest.raises(DimensionError):
        Cone(indices=np.array([0, 1]), axis=np.array([1.0, 0.0]), cos_angle=1.5)
    with pytest.raises(DimensionError):
        Box(indices=np.array([0]), lower=np.array([1.0]), upper=np.array([0.0]))


def test_non_compact_base_set_rejected():
    dims = ProblemDims(n=1, m=1, T=2, s=0)
    base = BaseSet(
        n_y=dims.n_y,
        members=(Box(indices=np.array([0]), lower=np.array([-1.0]), upper=np.array([1.0])),),
    )
    with pytest.raises(DimensionError):
        OptimalControlProblem(
            dims=dims,
            dynamics=AffineDynamics(A=np.eye(1), B=np.eye(1), d=np.zeros(1)),
            state_constraints=(),
            base_set=base,
            objective=ControlNormSum(),
        )


def test_sample_base_set_members(quad_problem, rng):
    Y = sample_base_set(quad_problem.base_set, rng, 500)
    assert Y.shape == (500, quad_problem.dims.n_y)
    for y in Y:
        assert quad_problem.base_set.contains(y, tol=1e-9)


def test_sample_base_set_respects_halfspaces(rng):
    base = BaseSet(
        n_y=2,
        members=(Box(indices=np.array([0, 1]), lower=-np.ones(2), upper=np.ones(2)),),
    )
    triples = [(np.array([0]), np.array([1.0]), 0.5)]  # y_0 >= 0.5
    Y = sample_base_set(base, rng, 300, halfspaces=triples)
    assert np.all(Y[:, 0] >= 0.5 - 1e-12)


def test_constraint_spec_validation():
    with pytest.raises(DimensionError):
        ConstraintSpec(
            kind="bogus",
            step=0,
            component=0,
            indices=np.array([0]),
            fn=AffineFn(a=np.ones(1), beta=0.0),
        )
    with pytest.raises(DimensionError):
        ConstraintSpec(
            kind="state-constraint",
            step=0,
            component=0,
            indices=np.array([0, 1]),
            fn=AffineFn(a=np.ones(1), beta=0.0),
        )
