"""Problem container: layout, defects, constraint rows, gradients, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvx.errors import DimensionError, GradientSingularityError, UnsupportedModelError
from scvx.problem import (
    AffineDynamics,
    AffineFn,
    AffineGroup,
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
from tests.checks import (
    affine_spec_groups,
    eval_q,
    jacobian_q,
    keepout_spec_groups,
    member_margin,
    n_constraints,
    problem_specs,
    sample_base_set,
    validate_convexity,
)

# |x_0 - 0.5| >= 0.25
SLAB = StateConstraint(NormFn(H=np.eye(1), p=np.array([0.5]), a=np.zeros(1), beta=-0.25), (0,))


def tiny_problem(n=2, m=1, T=3, constraints=(SLAB,), box=5.0):
    """Double-integrator-style affine problem, by default with one keep-out slab."""
    dims = ProblemDims(n=n, m=m, T=T)
    A = np.eye(n)
    B = np.zeros((n, m))
    B[0, 0] = 1.0
    d = np.zeros(n)
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
        dynamics=AffineDynamics(A=A, B=B, d=d),
        state_constraints=constraints,
        base_set=base,
        objective=ControlNormSum(weight=1.0),
    )


# ---------------------------------------------------------------------------
# layout


def stack_by_slices(dims, states, controls):
    """The decision vector with each state and control written into its dims slice."""
    y = np.full(dims.n_y, np.nan)
    for i, x in enumerate(states):
        y[dims.state_slice(i)] = x
    for i, u in enumerate(controls):
        y[dims.control_slice(i)] = u
    return y


def test_stack_layout_scalar():
    dims = ProblemDims(n=1, m=1, T=2)
    y = stack_by_slices(dims, [[1.0], [2.0]], [[3.0]])
    np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])


def test_stack_layout_vector_state():
    dims = ProblemDims(n=2, m=1, T=2)
    y = stack_by_slices(dims, [[1.0, 2.0], [3.0, 4.0]], [[5.0]])
    np.testing.assert_array_equal(y, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_quadrotor_decision_dimension(quad_problem):
    dims = quad_problem.dims
    assert dims.n_y == 222
    assert n_constraints(quad_problem) == 6 * 24 + 2 * 25


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    T=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_stack_unstack_roundtrip(n, m, T, seed):
    dims = ProblemDims(n=n, m=m, T=T)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((T, n))
    controls = rng.standard_normal((T - 1, m))
    y = np.concatenate([states.ravel(), controls.ravel()])
    s2, c2 = unstack(dims, y)
    np.testing.assert_array_equal(s2, states)
    np.testing.assert_array_equal(c2, controls)


def test_stack_rejects_wrong_shapes():
    dims = ProblemDims(n=2, m=1, T=3)
    with pytest.raises(DimensionError):  # a state short
        unstack(dims, np.concatenate([np.zeros((2, 2)).ravel(), np.zeros((2, 1)).ravel()]))
    with pytest.raises(DimensionError):
        unstack(dims, np.zeros(dims.n_y + 1))


def test_slices_cover_decision_vector():
    dims = ProblemDims(n=3, m=2, T=4)
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
    dims = ProblemDims(n=2, m=1, T=4)
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
    y = np.concatenate([np.tile([0.3, -0.2], 4), np.zeros(3)])
    np.testing.assert_allclose(eval_g(prob, y), 0.0, atol=0.0)


def test_defect_single_integrator_exact_step():
    # x_{i+1} = x_i + u_i with dt = 1
    dims = ProblemDims(n=1, m=1, T=2)
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
    y = np.concatenate([[0.0, 1.0], [1.0]])
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


def test_state_constraint_vector_is_the_spec_values(quad_problem, rng):
    y = rng.standard_normal(quad_problem.dims.n_y)
    specs = [c for c in problem_specs(quad_problem) if c.kind == "state-constraint"]
    assert len(specs) == 2 * 25
    np.testing.assert_array_equal(eval_h(quad_problem, y), [c.value(y) for c in specs])
    with pytest.raises(DimensionError):
        eval_h(quad_problem, y[:-1])


# ---------------------------------------------------------------------------
# constraint rows


def test_eval_q_without_state_constraints_is_defect():
    dims = ProblemDims(n=1, m=1, T=3)
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
    groups = prob.affine_rows + prob.keepouts
    kinds = [(g.kind, s, c) for g in groups for s, c in zip(g.steps.tolist(), g.components.tolist())]
    expect = [("dynamics-defect", i, j) for i in range(2) for j in range(2)]
    expect += [("state-constraint", i, 0) for i in range(3)]
    assert kinds == expect


def test_constraints_touch_only_their_indices(rng):
    prob = tiny_problem()
    y = rng.standard_normal(prob.dims.n_y)
    for group in prob.affine_rows + prob.keepouts:
        for k, indices in enumerate(group.indices):
            other = y.copy()
            untouched = np.setdiff1d(np.arange(prob.dims.n_y), indices)
            other[untouched] += rng.standard_normal(untouched.size)
            assert group.values(y)[k] == group.values(other)[k]


def test_feasible_start_satisfies_all_rows(quad_problem, quad_start):
    assert np.min(eval_q(quad_problem, quad_start)) >= -1e-9
    assert quad_problem.base_set.contains(quad_start)


# ---------------------------------------------------------------------------
# gradients


def unit_disk(coords=(0, 1)):
    return StateConstraint(NormFn(H=np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0), coords)


def test_affine_jacobian_exact(rng):
    # an affine state row's gradient is its own a: every step's row holds
    # (2, -3) over that step's coordinates, and moves by exactly a.dy
    prob = tiny_problem(constraints=(StateConstraint(AffineFn(a=np.array([2.0, -3.0]), beta=1.0), (0, 1)),))
    (group,) = prob.affine_rows[1:]
    np.testing.assert_array_equal(group.a, np.tile([2.0, -3.0], (3, 1)))
    np.testing.assert_array_equal(group.indices, [[0, 1], [2, 3], [4, 5]])
    y = np.zeros(prob.dims.n_y)
    y[group.indices[1]] = [7.0, 9.0]
    np.testing.assert_array_equal(group.values(y), [1.0, 2.0 * 7.0 - 3.0 * 9.0 + 1.0, 1.0])


def test_norm_gradient_unit_vector():
    (group,) = tiny_problem(constraints=(unit_disk(),)).keepouts
    np.testing.assert_allclose(group.grads(np.tile([3.0, 4.0], (3, 1))), [[0.6, 0.8]] * 3, atol=1e-15)


def test_norm_gradient_singularity_guard():
    (group,) = tiny_problem(constraints=(unit_disk(),)).keepouts
    w = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GradientSingularityError, match=r"\(state-constraint, step 1, component 0\)"):
        group.grads(w)


def test_jacobian_rows_are_sparse_gradients(quad_problem, rng):
    y = rng.standard_normal(quad_problem.dims.n_y) * 2.0
    J = jacobian_q(quad_problem, y)
    specs = problem_specs(quad_problem)
    assert J.shape == (len(specs), quad_problem.dims.n_y) == (24 * 6 + 25 * 2, 222)
    for j, c in enumerate(specs):
        outside = np.setdiff1d(np.arange(quad_problem.dims.n_y), c.indices)
        assert not np.any(J[j, outside])


def test_sampled_convexity_of_constraint_rows(quad_problem):
    validate_convexity(quad_problem, n_pairs=1000, seed=0)


# ---------------------------------------------------------------------------
# base set


def test_base_member_margins():
    box = Box(indices=np.array([0, 1]), lower=np.zeros(2), upper=np.ones(2))
    ball = Ball(indices=np.array([0, 1]), center=np.zeros(2), radius=2.0)
    cone = Cone(indices=np.array([0, 1]), axis=np.array([1.0, 0.0]), cos_angle=0.5)
    pin = Pin(indices=np.array([0]), values=np.array([3.0]))
    base = BaseSet(n_y=2, members=(box, ball, cone, pin))
    ys = [np.array([0.25, 0.5]), np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([3.5, 0.0])]
    expected = [0.25, 1.0, 0.5, -0.5]
    for j, (y, margin) in enumerate(zip(ys, expected)):
        assert base.margins(y)[j] == pytest.approx(margin)
        assert member_margin(base.members[j], y) == pytest.approx(margin)


_EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300])
_VALUES = st.one_of(_EDGE_VALUES, st.floats(-4.0, 4.0, allow_subnormal=True))


@st.composite
def base_sets(draw, n_y=6):
    """A BaseSet of 1-12 members in any order, with a point y: widths 1-3,
    signed zeros, infinite box bounds."""
    members = []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(1, 3))
        idx = np.array(draw(st.lists(st.integers(0, n_y - 1), min_size=k, max_size=k)))
        vec = np.array(draw(st.lists(_VALUES, min_size=k, max_size=k)))
        kind = draw(st.sampled_from(["pin", "box", "ball", "cone"]))
        if kind == "pin":
            members.append(Pin(idx, vec))
        elif kind == "box":
            other = np.array(draw(st.lists(_VALUES, min_size=k, max_size=k)))
            lower, upper = np.minimum(vec, other), np.maximum(vec, other)
            lower[np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))] = -np.inf
            upper[np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))] = np.inf
            members.append(Box(idx, lower, upper))
        elif kind == "ball":
            members.append(Ball(idx, vec, draw(st.floats(1e-3, 4.0))))
        else:
            axis = np.zeros(k)
            axis[draw(st.integers(0, k - 1))] = draw(st.sampled_from([1.0, -1.0]))
            members.append(Cone(idx, axis, draw(st.floats(1e-3, 1.0))))
    y = np.array(draw(st.lists(_VALUES, min_size=n_y, max_size=n_y)))
    return BaseSet(n_y, tuple(members)), y


@settings(max_examples=150, deadline=None)
@given(base_sets())
def test_grouped_margins_match_the_per_member_reference(scene):
    # one array pass per member group gives each member's margin bit for
    # bit, the sign of a zero included
    base, y = scene
    ref = np.array([member_margin(mem, y) for mem in base.members])
    assert base.margins(y).tobytes() == ref.tobytes()


def test_member_validation_errors():
    with pytest.raises(DimensionError):
        Ball(indices=np.array([0, 1]), center=np.zeros(2), radius=0.0)
    with pytest.raises(DimensionError):
        Cone(indices=np.array([0, 1]), axis=np.array([2.0, 0.0]), cos_angle=0.5)
    with pytest.raises(DimensionError):
        Cone(indices=np.array([0, 1]), axis=np.array([1.0, 0.0]), cos_angle=1.5)
    with pytest.raises(DimensionError):
        Box(indices=np.array([0]), lower=np.array([1.0]), upper=np.array([0.0]))


@pytest.mark.parametrize(
    "make",
    [
        lambda idx: Box(idx, np.zeros(3), np.ones(3)),
        lambda idx: Ball(idx, np.zeros(3), 1.0),
        lambda idx: Cone(idx, np.array([0.0, 0.0, 1.0]), 0.5),
        lambda idx: Pin(idx, np.zeros(3)),
    ],
    ids=["box", "ball", "cone", "pin"],
)
def test_member_freezes_a_copy_of_its_indices(make):
    # the member's indices are its own read-only copy: the caller's array
    # stays writeable
    idx = np.arange(3)
    member = make(idx)
    assert idx.flags.writeable
    assert not member.indices.flags.writeable
    assert not np.shares_memory(idx, member.indices)


def test_non_compact_base_set_rejected():
    dims = ProblemDims(n=1, m=1, T=2)
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


def test_state_constraint_validation():
    # a state constraint reads as many coordinates as its function takes,
    # and a keep-out must be a ball in a row-orthonormal image
    with pytest.raises(DimensionError, match="touched coords"):
        StateConstraint(AffineFn(a=np.ones(1), beta=0.0), (0, 1))
    stretched = NormFn(H=2.0 * np.eye(2), p=np.zeros(2), a=np.zeros(2), beta=-1.0)
    with pytest.raises(UnsupportedModelError, match="NormFn"):
        StateConstraint(stretched, (0, 1))
    prob = tiny_problem()
    with pytest.raises(DimensionError, match="dims say"):
        OptimalControlProblem(ProblemDims(n=2, m=2, T=3), prob.dynamics, (SLAB,), prob.base_set, prob.objective)


@pytest.mark.parametrize(
    "A, B",
    [(np.eye(2), np.eye(2)), (np.eye(3), np.zeros((3, 1)))],
    ids=["B-2x2-for-m-1", "A-3x3-for-n-2"],
)
def test_dynamics_shapes_must_match_dims(A, B):
    # dims and the dynamics both give n and m: a problem whose two disagree
    # is rejected when it is made, not by numpy at its first evaluation
    prob = tiny_problem()  # n = 2, m = 1
    dynamics = AffineDynamics(A=A, B=B, d=np.zeros(A.shape[0]))
    with pytest.raises(DimensionError, match="dims say"):
        OptimalControlProblem(prob.dims, dynamics, (SLAB,), prob.base_set, prob.objective)


# ---------------------------------------------------------------------------
# the row groups against the one-spec-at-a-time reference


def _random_constraint(rng, kind):
    if kind.startswith("affine"):
        width = int(kind[-1])
        coords = tuple(rng.choice(3, width, replace=False).tolist())
        a = rng.standard_normal(width) * (rng.uniform(size=width) < 0.8)  # exact zeros too
        return StateConstraint(AffineFn(a=a, beta=float(rng.standard_normal())), coords)
    if kind == "disk":
        H, coords = np.eye(2), tuple(rng.choice(3, 2, replace=False).tolist())
    elif kind == "tilted":
        H, coords = np.linalg.qr(rng.standard_normal((3, 2)))[0].T, (0, 1, 2)
    else:  # a 1x3 slab
        row = rng.standard_normal(3)
        H, coords = (row / np.linalg.norm(row))[None, :], (0, 1, 2)
    fn = NormFn(H=H, p=rng.uniform(-3.0, 3.0, H.shape[0]), a=np.zeros(H.shape[1]), beta=-rng.uniform(0.1, 2.0))
    return StateConstraint(fn, coords)


@st.composite
def mixed_problems(draw):
    """A problem over 3 states whose constraints mix keep-out shapes (H = I2,
    a tilted 2x3, a 1x3) and affine widths 1 and 2, and a point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["disk", "tilted", "slab", "affine1", "affine2"]), max_size=6))
    m, T = draw(st.integers(1, 2)), draw(st.integers(2, 5))
    dims = ProblemDims(n=3, m=m, T=T)
    sparse = lambda *shape: rng.standard_normal(shape) * (rng.uniform(size=shape) < 0.6)
    box = Box(indices=np.arange(dims.n_y), lower=-10.0 * np.ones(dims.n_y), upper=10.0 * np.ones(dims.n_y))
    problem = OptimalControlProblem(
        dims=dims,
        dynamics=AffineDynamics(A=sparse(3, 3), B=sparse(3, m), d=sparse(3)),
        state_constraints=tuple(_random_constraint(rng, kind) for kind in kinds),
        base_set=BaseSet(n_y=dims.n_y, members=(box,)),
        objective=ControlNormSum(),
    )
    return problem, rng.uniform(-5.0, 5.0, dims.n_y)


def assert_same_array(got, ref):
    """Same dtype, shape and bits, and C order."""
    ref = np.array(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape and got.flags.c_contiguous
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(mixed_problems())
def test_row_groups_match_the_per_spec_reference(scene):
    # each group holds the rows of its specs, in order: the same arrays,
    # labels and values, bit for bit, and eval_h scatters them back into
    # step-major order exactly as the specs evaluate
    problem, y = scene
    affine, keepouts = affine_spec_groups(problem), keepout_spec_groups(problem)
    assert [len(g) for g in problem.affine_rows] == [len(specs) for specs in affine]
    assert [len(g) for g in problem.keepouts] == [len(specs) for specs in keepouts]
    for group, specs in zip(problem.affine_rows + problem.keepouts, affine + keepouts):
        assert_same_array(group.indices, [spec.indices for spec in specs])
        if isinstance(group, AffineGroup):
            assert_same_array(group.a, [spec.fn.a for spec in specs])
            assert_same_array(group.beta, [spec.fn.beta for spec in specs])
        else:
            assert_same_array(group.H, [spec.fn.H for spec in specs])
            assert_same_array(group.centers, [spec.fn.p for spec in specs])
            assert_same_array(group.radii, [-spec.fn.beta for spec in specs])
        assert [group.label(k) for k in range(len(group))] == [spec.label for spec in specs]
        assert_same_array(group.values(y), [spec.value(y) for spec in specs])
    state = [spec for spec in problem_specs(problem) if spec.kind == "state-constraint"]
    assert_same_array(eval_h(problem, y), np.array([spec.value(y) for spec in state], dtype=float))
