"""Supporting-halfspace construction of the convexified region F_z.

For each keep-out row q_j(y) >= 0 (a ball or cylinder), the current
iterate z is projected onto the keep-out set {q_j <= 0} and q_j is
linearized at the projection point, producing the supporting halfspace

    l_j(y, z) = grad q_j(zbar_j) . (y - zbar_j) >= 0.

F_z is the base set Y, the affine rows and these halfspaces.  It contains
z and is contained in the true feasible set, which is what makes the outer
loop recursively feasible.  An affine row (a dynamics defect or a halfspace
state constraint) is its own supporting halfspace, so it is not linearized
here: the subproblem builds it once per run as a fixed row, and a region
holds the keep-out halfspaces only.

The feasibility init instead linearizes every row it slacks at the
incumbent itself (direct_rows).  Both expand a row q to first order,
q(p) + grad q(p) . (y - p), with one routine (_tangent_rows), and work one
of the problem's row groups at a time: projection, gradients, offsets and
the containment check are each one array pass, and the rows are one
Halfspaces of index, coefficient and offset arrays, which
add_halfspace_rows appends to a program through ProgramBuilder.  A row is
the sparse row of its constraint: the row's own coordinates
(group.indices[k]) and the gradient over them.  Its offset is summed term
by term in index order, so the same inputs always round to the same offset.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAnchorError, ScvxError
from .penalty import DEFECT_TOL
from .problem import (
    NORM_SINGULARITY_RADIUS,
    BaseSet,
    KeepoutGroup,
    OptimalControlProblem,
    _dots,
    _matvecs,
    eval_g,
)
from .projection import project

# anchors are accepted as feasible down to this constraint slack; iterates
# come from a tolerance-limited conic solver
ANCHOR_FEASIBILITY_TOL = 1e-8

# the feasibility init's subgradient fallback logs here
log = logging.getLogger("scvx")


@dataclass(frozen=True, eq=False)
class Halfspaces:
    """Rows coeffs . y[indices] >= offset as arrays.

    Entry e puts coeffs[e] on coordinate indices[e] of row rows[e]; the
    entries run row by row, each in its row's index order, a slack last.
    """

    rows: np.ndarray
    indices: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size


def _stack(blocks) -> Halfspaces:
    """The rows of (indices, coeffs, offsets) blocks of shapes (k, d), (k, d), (k,), in order."""
    blocks = [(np.zeros((0, 0), dtype=int), np.zeros((0, 0)), np.zeros(0))] + list(blocks)
    widths = np.concatenate([np.full(len(offsets), idx.shape[1]) for idx, _, offsets in blocks])
    indices, coeffs, offsets = (np.concatenate([b[i].ravel() for b in blocks]) for i in range(3))
    return Halfspaces(np.repeat(np.arange(offsets.size), widths), indices, coeffs, offsets)


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    base: BaseSet
    halfspaces: Halfspaces  # or a sequence of blocks _stack takes: () for none
    anchor: np.ndarray

    def __post_init__(self):
        if not isinstance(self.halfspaces, Halfspaces):
            object.__setattr__(self, "halfspaces", _stack(self.halfspaces))
        anchor = np.array(self.anchor, dtype=float)  # a frozen copy; the caller's stays writeable
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)


def _anchor_groups(problem: OptimalControlProblem, mode: str) -> tuple:
    """The row groups q >= 0 an anchor must meet, which the feasibility init
    slacks: the affine ones, then the keep-outs.  Equality mode holds the
    dynamics defects as equalities; penalty mode relaxes them to g_j >= 0.
    """
    if mode not in ("equality", "penalty"):
        raise ScvxError(f"unknown linearization mode {mode!r}")
    hard = "dynamics-defect" if mode == "equality" else None
    return tuple(g for g in problem.affine_rows if g.kind != hard) + problem.keepouts


def _anchor_values(problem: OptimalControlProblem, z, mode: str) -> np.ndarray:
    """q_j(z) of every row of _anchor_groups, in order, one array pass per group."""
    return np.concatenate([[]] + [group.values(z) for group in _anchor_groups(problem, mode)])


def check_anchor(problem: OptimalControlProblem, z, mode: str):
    """Raise InfeasibleAnchorError unless z is feasible for the mode."""
    z = np.asarray(z, dtype=float)
    if not problem.base_set.contains(z, tol=ANCHOR_FEASIBILITY_TOL):
        worst = float(np.min(problem.base_set.margins(z)))
        raise InfeasibleAnchorError(
            f"anchor violates the base set by {-worst:.3e}; "
            "run find_feasible_start first"
        )
    if mode == "equality":
        # defects are enforced as equalities; tolerate solver-level drift
        g = eval_g(problem, z)
        defect = float(np.max(np.abs(g))) if g.size else 0.0
        if defect > DEFECT_TOL:
            raise InfeasibleAnchorError(
                f"anchor dynamics defect {defect:.3e} exceeds {DEFECT_TOL:.0e}; "
                "run find_feasible_start first"
            )
    values = _anchor_values(problem, z, mode)
    if values.size and values.min() < -ANCHOR_FEASIBILITY_TOL:
        k = int(np.argmin(values))
        q = values[k]
        for group in _anchor_groups(problem, mode):  # row k of the whole list
            if k < len(group):
                break
            k -= len(group)
        raise InfeasibleAnchorError(
            f"anchor violates q >= 0 on {group.label(k)}: q = {q:.3e}; "
            "run find_feasible_start first"
        )
    return z


def _sums_in_order(coeffs, points) -> np.ndarray:
    """coeffs[k] . points[k] for every k, summed term by term in index order."""
    sums = np.zeros(len(points))
    for terms in (coeffs * points).T:
        sums += terms
    return sums


def _tangent_rows(group, points, q):
    """A group's rows expanded at points (k, d) where they read q: (coeffs, offsets, centers).

    Row k is coeffs[k] . w >= offsets[k] = coeffs[k] . points[k] - q[k].  An
    affine row's coeffs are its a; a keep-out's its unit gradient H^T v / |v|
    (H is row-orthonormal) or, at a center (indexed by centers), where it
    has none, the subgradient along the first image direction.
    """
    if isinstance(group, KeepoutGroup):
        v, nv = group.residuals(points)
        center = nv <= NORM_SINGULARITY_RADIUS
        unit = v / np.where(center, 1.0, nv)[:, None]
        unit[center] = np.eye(v.shape[1])[0]
        # + 0.0 is the ball's zero linear term: it turns -0.0 into 0.0
        coeffs = _matvecs(np.swapaxes(group.H, 1, 2), unit) + 0.0
        return coeffs, _sums_in_order(coeffs, points) - q, np.flatnonzero(center)
    return group.a, _sums_in_order(group.a, points) - q, ()


def _supporting_rows(group: KeepoutGroup, z):
    """The group's supporting halfspaces at the projections of z: (indices, coeffs, offsets).

    A projection is on its keep-out's boundary, q = 0, a radius (above
    NORM_SINGULARITY_RADIUS) from its center: a row at a center, like one
    that loses containment, is a projector defect.
    """
    points = project(group, z).points
    coeffs, offsets, centers = _tangent_rows(group, points, 0.0)
    if len(centers):
        k = centers[0]
        raise ScvxError(f"{group.label(k)} projected to its keep-out center: a projector defect")
    slack = _dots(coeffs, z[group.indices]) - offsets
    if np.any(slack < -1e-9):
        k = int(np.argmax(slack < -1e-9))
        raise ScvxError(
            f"anchor lost containment on {group.label(k)} (slack "
            f"{slack[k]:.3e}); this indicates a projector defect"
        )
    return group.indices, coeffs, offsets


def build_feasible_region(problem: OptimalControlProblem, z, mode: str) -> FeasibleRegion:
    """Project z onto every keep-out set and emit the supporting halfspaces."""
    z = check_anchor(problem, z, mode)
    rows = _stack(_supporting_rows(group, z) for group in problem.keepouts)
    return FeasibleRegion(problem.base_set, rows, z)


def direct_rows(problem: OptimalControlProblem, w, mode: str) -> Halfspaces:
    """Every row q_j >= 0 of _anchor_groups linearized at w itself, with a slack.

    Row j is a_j . y + sigma_j >= a_j . w - q_j(w), a_j the gradient of q_j
    at w and sigma_j the column n_y + j, the first after y's.  q_j is
    convex, so a_j . (y - w) + q_j(w) under-estimates q_j everywhere and is
    tight at w.  An affine row's gradient is its own a.  At the center of a
    keep-out, where the gradient is undefined, the row takes the subgradient
    along the first image direction and logs a warning naming the row.
    """
    blocks = []
    first = problem.dims.n_y
    for group in _anchor_groups(problem, mode):
        coeffs, offsets, centers = _tangent_rows(group, w[group.indices], group.values(w))
        for k in centers:
            log.warning(
                f"feasibility init: {group.label(k)} linearized at its keep-out "
                "center; used the subgradient along the first image direction"
            )
        k = len(offsets)
        cols, ones = first + np.arange(k), np.ones(k)
        blocks.append((np.column_stack([group.indices, cols]), np.column_stack([coeffs, ones]), offsets))
        first += k
    return _stack(blocks)
