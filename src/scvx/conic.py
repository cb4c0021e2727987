"""Self-contained primal-dual interior-point solver for cone programs.

Standard form:

    minimize    c.x
    subject to  A x + s = b,   s in K

where K is a product of zero cones (equality rows, s = 0), nonnegative
orthant rows, and second-order cones {(t, u) : t >= ||u||}.  The dual reads
A^T z + c = 0 with z in the dual cone, and optimality closes the gap
c.x + b.z = 0.  The solver works on this one form, rows in program order:
a zero-cone row, wherever it sits, belongs to no cone block, so its slack
stays exactly 0 and its dual is free.

The algorithm is a homogeneous self-dual embedding with Nesterov-Todd
scaling and Mehrotra predictor-corrector steps.  Each iteration factors one
quasi-definite KKT matrix (static regularization + iterative refinement)
and reuses the factorization for the predictor, the corrector, and the
embedding's tau column; it gathers the iterate's s and z once per cone
group, for the interiority test, the scaling and both step lengths.  Every
symmetric permutation of a quasi-definite matrix has an LDL^T
factorization (Vanderbei 1995), so the matrix is laid out in a
minimum-degree symmetric order, read from an incomplete factor of a
stand-in with the same pattern, and factored with diagonal pivots only,
as ECOS does.  The order and the pattern depend only on the
program's structure (the sparsity of A and the cone list), so a warm start
hands its solution's structure to the next solve of a program with the
same one.  Linearly dependent equality rows can still cancel a diagonal
pivot; a solve that then ends other than "optimal" is run again with
threshold partial pivoting, and the solution reports which factorization
it used.

A solve can be warm-started from the solution of a program with the same
cone list: the embedding then starts from a convex combination of that
solution and the cold point x = 0, s = z = e (Skajaa, Andersen & Ye, Math.
Prog. Comp. 2013), with no factor before its first iteration; a cold start
factors at W = I for its least-squares point.  A warm attempt that ends
other than "optimal" is run again cold, and the solution reports which
start it came from.  Solves are deterministic: identical inputs, start
included, produce bitwise-identical iterates.

ProgramBuilder is the one way programs are put together: rows land in
the program in the order they are added, each add returns the index of
its first row or column, and build() returns the standard-form program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionError

KINDS = ("zero", "nonneg", "soc")

# static regularization of the KKT matrix; refinement iterates against the
# unregularized matrix so accuracy is not limited by this value
_REG = 1e-8
_REFINE_STEPS = 3
_MIN_STEP = 1e-9  # treat smaller line-search steps as numerical stagnation
_STEP_FRACTION = 0.99
# SuperLU's panel width for the diagonal-pivot factors.  Wide panels pay
# off on factors with much fill; a KKT factor adds little, and one-column
# panels halve its time.
_PANEL_SIZE = 1
_MAX_ITER = 100  # interior-point iterations per factorization attempt
# weight of the previous solution in a warm start (Skajaa, Andersen & Ye 2013)
_WARM_WEIGHT = 0.9


@dataclass(frozen=True, eq=False)
class Cone:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DimensionError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise DimensionError("cone dimension must be >= 1")


@dataclass(frozen=True, eq=False)
class ConicProgram:
    """minimize c.x subject to A x + s = b, s in the listed product cone."""

    c: np.ndarray
    A: sp.csc_matrix
    b: np.ndarray
    cones: tuple

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        b = np.asarray(self.b, dtype=float).ravel()
        A = sp.csc_matrix(self.A, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "cones", tuple(self.cones))
        rows = sum(k.dim for k in self.cones)
        if A.shape != (rows, c.size) or b.size != rows:
            raise DimensionError(
                f"program shapes disagree: A {A.shape}, c {c.size}, b {b.size}, "
                f"cones sum to {rows}"
            )

    @property
    def n_rows(self):
        return self.A.shape[0]

    @property
    def n_cols(self):
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class ConicSolution:
    x: np.ndarray
    s: np.ndarray
    z_dual: np.ndarray
    status: str  # optimal | primal-infeasible | dual-infeasible | max-iter | numerical-error
    gap: float
    iterations: int
    primal_res: float = np.nan
    dual_res: float = np.nan
    pivoting: str = "diagonal"  # diagonal | partial: the factorization the result came from
    start: str = "cold"  # warm | cold: the start point the result came from
    # the KKT structure of the solve, which a solve started from this
    # solution reuses when its program has the same structure
    kkt: _KKTStructure | None = field(default=None, repr=False)

    def outcome(self) -> str:
        """Status, iteration count, gap and residuals, for error messages."""
        return (
            f"status {self.status!r} after {self.iterations} iterations (gap {self.gap:.3e}, "
            f"primal residual {self.primal_res:.3e}, dual residual {self.dual_res:.3e})"
        )


class ProgramBuilder:
    """Incremental cone-program builder; rows land in the order they are added.

    Expressions are (pairs, const) with pairs = [(column, coefficient)...];
    the slack of an emitted cone row equals const + sum(coeff * x[col]).
    add_cols returns the first new column, add_eq, add_ge and add_soc the
    program row of their first row.  Adjacent equality rows share one zero
    cone and adjacent inequality rows one nonnegative cone.
    """

    def __init__(self):
        self.n_cols = 0
        self._cost = []  # (col, coeff)
        self._rows, self._cols, self._vals = [], [], []  # entries of A
        self._b = []
        self._cones = []  # [kind, dim], in row order

    def add_cols(self, count) -> int:
        start = self.n_cols
        self.n_cols += count
        return start

    def add_cost(self, col, coeff):
        self._cost.append((int(col), float(coeff)))

    def add_eq(self, pairs, rhs) -> int:
        """sum coeff*x = rhs: A x = b."""
        return self._emit("zero", [(pairs, float(rhs))], 1.0)

    def add_ge(self, pairs, rhs) -> int:
        """sum coeff*x >= rhs: s = sum coeff*x - rhs."""
        return self._emit("nonneg", [(pairs, -float(rhs))], -1.0)

    def add_soc(self, exprs) -> int:
        """One second-order cone over the expressions, head first."""
        return self._emit("soc", [(p, float(k)) for p, k in exprs], -1.0)

    def _emit(self, kind, exprs, sign):
        start = len(self._b)
        for pairs, const in exprs:
            for col, coeff in pairs:
                if coeff != 0.0:
                    self._rows.append(len(self._b))
                    self._cols.append(int(col))
                    self._vals.append(sign * float(coeff))
            self._b.append(const)
        if kind != "soc" and self._cones and self._cones[-1][0] == kind:
            self._cones[-1][1] += len(exprs)
        else:
            self._cones.append([kind, len(exprs)])
        return start

    def build(self) -> ConicProgram:
        c = np.zeros(self.n_cols)
        for col, coeff in self._cost:
            c[col] += coeff
        A = sp.coo_matrix(
            (self._vals, (self._rows, self._cols)), shape=(len(self._b), self.n_cols)
        ).tocsc()
        cones = tuple(Cone(kind, dim) for kind, dim in self._cones)
        return ConicProgram(c, A, np.asarray(self._b, dtype=float), cones)


def coord_pairs(cols, coeffs):
    """Expression pairs [(column, coefficient)...] for ProgramBuilder rows."""
    return [(int(i), float(a)) for i, a in zip(cols, coeffs)]


def dump_program(program: ConicProgram, path):
    """Write a program as text triplets for offline debugging.

    Format: one record per line.
        cols <n>
        rows <p>
        cone <kind> <dim>        (in row order)
        c <j> <value>            (nonzeros only)
        b <i> <value>            (nonzeros only)
        A <i> <j> <value>        (nonzeros, row-major)
    """
    coo = program.A.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as f:
        f.write(f"cols {program.n_cols}\n")
        f.write(f"rows {program.n_rows}\n")
        for k in program.cones:
            f.write(f"cone {k.kind} {k.dim}\n")
        for j in np.nonzero(program.c)[0]:
            f.write(f"c {j} {program.c[j]:.17g}\n")
        for i in np.nonzero(program.b)[0]:
            f.write(f"b {i} {program.b[i]:.17g}\n")
        for k in order:
            f.write(f"A {coo.row[k]} {coo.col[k]} {coo.data[k]:.17g}\n")


# ---------------------------------------------------------------------------
# cone block utilities
#
# A nonnegative row is the 1-dim second-order cone t >= ||()||, so every cone
# but the zero cone is a second-order block.  Blocks of equal dimension d are
# stacked into one (k, d) index array of program rows, column 0 holding each
# head t, and every operation runs once per dimension on the gathered (k, d)
# values.  The d = 1 group holds every nonnegative row, most rows of a run,
# and runs in the orthant closed forms: W = sqrt(s/z), lam = sqrt(sz),
# u o v = uv, the step min(-v/dv) over dv < 0.  The second-order formulas
# reduce to these bit for bit on d = 1 (sqrt(x*x) is |x| wherever x*x
# neither underflows nor overflows), so the group only skips their work.
# Each group's index arrays and J are built once, with the blocks.  A
# zero-cone row belongs to no block: its slack is 0 and its dual is free, so
# every operation returns 0 there.


def _split(x):
    """Heads (k,) and tails (k, d-1) of stacked blocks."""
    return x[:, 0], x[:, 1:]


def _dot(u, v):
    return (u * v).sum(axis=1)


def _halves(x):
    """The s and z halves of an array stacked s first."""
    k = len(x) // 2
    return x[:k], x[k:]


def _jdiag(d):
    """The diagonal of J = diag(1, -1, ..., -1)."""
    j = -np.ones(d)
    j[0] = 1.0
    return j


def _reflect(u, x, jdiag):
    """(2uu^T - J) x per stacked block."""
    return (2.0 * _dot(u, x))[:, None] * u - jdiag * x


class _Group:
    """One group of second-order blocks of a dimension d > 1."""

    def __init__(self, idx, dim):
        self.idx = idx  # (k, d) program rows
        self.heads, self.tails = idx[:, 0].copy(), idx[:, 1:].copy()
        self.pair = np.concatenate([idx, idx + dim])  # (2k, d) rows of [s; z]
        self.jdiag = _jdiag(idx.shape[1])
        self.J = np.diag(self.jdiag)


class _Blocks:
    """Program rows of the nonnegative and second-order cones, grouped by
    dimension into (k, d) index arrays; zero-cone rows are in no group.

    orthant holds the d = 1 group's rows (possibly none) and socs the
    groups of d > 1, in increasing d; orthant_pair and each group's pair
    index the same rows of s and z stacked as one vector [s; z].
    """

    def __init__(self, cones):
        starts = {}  # dim -> first program row of each block
        pos = 0
        for k in cones:
            if k.kind == "nonneg":
                starts.setdefault(1, []).extend(range(pos, pos + k.dim))
            elif k.kind == "soc":
                starts.setdefault(k.dim, []).append(pos)
            pos += k.dim
        self.groups = [
            np.asarray(starts[d], dtype=int)[:, None] + np.arange(d) for d in sorted(starts)
        ]
        self.dim = pos
        self.degree = sum(idx.shape[0] for idx in self.groups)
        self.orthant = np.asarray(starts.get(1, []), dtype=int)
        self.orthant_pair = np.concatenate([self.orthant, self.orthant + pos])
        self.socs = [_Group(idx, pos) for idx in self.groups if idx.shape[1] > 1]

    def restrict(self, v):
        """v on the block rows, 0 on the zero-cone rows."""
        out = np.zeros(self.dim)
        for idx in self.groups:
            out[idx] = v[idx]
        return out

    def identity(self):
        e = np.zeros(self.dim)
        for idx in self.groups:
            e[idx[:, 0]] = 1.0
        return e

    def square_entries(self):
        """(rows, cols) of the W^2 values, in w_squared's order: (k, d, d) per group."""
        shapes = [idx.shape + idx.shape[1:] for idx in self.groups]
        rows = [np.broadcast_to(idx[:, :, None], f).ravel() for idx, f in zip(self.groups, shapes)]
        cols = [np.broadcast_to(idx[:, None, :], f).ravel() for idx, f in zip(self.groups, shapes)]
        empty = [np.zeros(0, dtype=int)]
        return np.concatenate(empty + rows), np.concatenate(empty + cols)

    def identity_squared(self):
        """W^2 values at W = I, in w_squared's order."""
        rows, cols = self.square_entries()
        return (rows == cols).astype(float)

    def min_eig(self, v):
        """Smallest cone eigenvalue v0 - ||v1|| over all blocks (inf if none)."""
        vals = [v[self.orthant].min()] if self.orthant.size else []
        for g in self.socs:
            v0, v1 = _split(v[g.idx])
            vals.append((v0 - np.sqrt(_dot(v1, v1))).min())
        return min(vals, default=np.inf)

    def product(self, u, v):
        """Jordan product u o v blockwise."""
        out = np.zeros(self.dim)
        r = self.orthant
        out[r] = u[r] * v[r]
        for g in self.socs:
            (u0, u1), (v0, v1) = _split(u[g.idx]), _split(v[g.idx])
            out[g.heads] = u0 * v0 + _dot(u1, v1)
            out[g.tails] = u0[:, None] * v1 + v0[:, None] * u1
        return out

    def divide(self, lam, d):
        """Solve lam o w = d for w."""
        out = np.zeros(self.dim)
        r = self.orthant
        out[r] = d[r] / lam[r]
        for g in self.socs:
            (l0, l1), (d0, d1) = _split(lam[g.idx]), _split(d[g.idx])
            w0 = (d0 - _dot(l1, d1) / l0) / (l0 - _dot(l1, l1) / l0)
            out[g.heads] = w0
            out[g.tails] = (d1 - w0[:, None] * l1) / l0[:, None]
        return out

    def interior(self, s, z):
        """s and z gathered once per group, or None unless both are strictly
        inside: every cone eigenvalue v0 - ||v1|| of each is positive."""
        sz = np.concatenate([s, z])
        orthant = sz[self.orthant_pair]
        socs = [sz[g.pair] for g in self.socs]
        tails = []  # ||v1||^2 per stacked block
        eigs = [orthant.min()] if orthant.size else []
        for V in socs:
            v0, v1 = _split(V)
            tails.append(_dot(v1, v1))
            eigs.append((v0 - np.sqrt(tails[-1])).min())
        if not min(eigs, default=np.inf) > 0.0:
            return None
        return _Interior(self, orthant, socs, tails)


class _Interior:
    """s and z of a strictly interior iterate, gathered once per cone group.

    Each group stacks s first: the orthant rows as one (2k,) array, each
    second-order group as one (2k, d) array with every block's J-norm
    ||v||_J and normalized point v / ||v||_J.  The scaling and both step
    lengths of the iteration read them from here.
    """

    def __init__(self, blocks: _Blocks, orthant, socs, tails):
        self.blocks = blocks
        self.orthant = orthant
        self.socs = []  # (norms (2k,), points (2k, d)) per second-order group
        for V, tail in zip(socs, tails):
            v0 = V[:, 0]
            norms = np.sqrt(v0 * v0 - tail)
            self.socs.append((norms, V / norms[:, None]))

    def max_step(self, ds, dz):
        """Largest alpha with s + alpha*ds and z + alpha*dz in the cone.

        In the frame where v / ||v||_J is the identity, dv / ||v||_J maps to
        rho, and the step is 1 / max(0, -(rho0 - ||rho1||)).  rho is kept
        scaled by ||v||_J, which makes d = 1 exactly -v/dv.
        """
        blocks = self.blocks
        dsz = np.concatenate([ds, dz])
        alpha = np.inf
        d = dsz[blocks.orthant_pair]
        hit = d < 0
        if hit.any():
            alpha = min(alpha, float((self.orthant[hit] / -d[hit]).min()))
        for g, (vn, points) in zip(blocks.socs, self.socs):
            (b0, b1), (d0, d1) = _split(points), _split(dsz[g.pair])
            r0 = b0 * d0 - _dot(b1, d1)
            r1 = d1 - ((r0 + d0) / (b0 + 1.0))[:, None] * b1
            shrink = np.sqrt(_dot(r1, r1)) - r0
            hit = shrink > 0
            if hit.any():
                alpha = min(alpha, float((vn[hit] / shrink[hit]).min()))
        return alpha


class _Scaling:
    """Nesterov-Todd scaling W with lam = W z = W^{-1} s, per block group.

    For a block the det-normalized scaling point is v = (sbar + J zbar) /
    (2 gamma), which satisfies (2vv^T - J) zbar = sbar, i.e. W^2 = eta^2
    (2vv^T - J).  W itself acts through the Jordan square root u = (v + e) /
    sqrt(2(v0 + 1)): W = eta (2uu^T - J), and W^{-1} = (2 Ju (Ju)^T - J) /
    eta.  On d = 1, v = u = 1: the orthant group keeps only eta = sqrt(s/z),
    and lam = sqrt(sz).
    """

    def __init__(self, point: _Interior):
        blocks = self.blocks = point.blocks
        self.lam = np.zeros(blocks.dim)
        S, Z = _halves(point.orthant)
        self.eta = np.sqrt(S / Z)
        self.lam[blocks.orthant] = np.sqrt(S * Z)
        self.socs = []  # (eta, v, u, Ju) per second-order group: (k,), (k, d) x 3
        for g, (norms, points) in zip(blocks.socs, point.socs):
            a, bb = _halves(norms)
            sbar, zbar = _halves(points)
            gamma = np.sqrt(0.5 * (1.0 + _dot(sbar, zbar)))
            v = (sbar + g.jdiag * zbar) / (2.0 * gamma)[:, None]
            u = v.copy()
            u[:, 0] += 1.0
            u /= np.sqrt(2.0 * (v[:, 0] + 1.0))[:, None]
            self.socs.append((np.sqrt(a / bb), v, u, g.jdiag * u))
            scale = np.sqrt(a * bb)
            (s0, s1), (z0, z1) = _split(sbar), _split(zbar)
            denom = s0 + z0 + 2.0 * gamma
            lam1 = ((gamma + z0)[:, None] * s1 + (gamma + s0)[:, None] * z1) / denom[:, None]
            self.lam[g.heads] = gamma * scale
            self.lam[g.tails] = scale[:, None] * lam1

    def apply(self, x):
        """W x"""
        out = np.zeros(self.blocks.dim)
        r = self.blocks.orthant
        out[r] = self.eta * x[r]
        for g, (eta, _, u, _) in zip(self.blocks.socs, self.socs):
            out[g.idx] = eta[:, None] * _reflect(u, x[g.idx], g.jdiag)
        return out

    def apply_inv(self, x):
        """W^{-1} x"""
        out = np.zeros(self.blocks.dim)
        r = self.blocks.orthant
        out[r] = x[r] / self.eta
        for g, (eta, _, _, ju) in zip(self.blocks.socs, self.socs):
            out[g.idx] = _reflect(ju, x[g.idx], g.jdiag) / eta[:, None]
        return out

    def w_squared(self):
        """W^2 values, one dense (d, d) block per cone, in _KKT's slot order."""
        vals = [self.eta * self.eta]
        for g, (eta, v, _, _) in zip(self.blocks.socs, self.socs):
            M = (eta * eta)[:, None, None] * (2.0 * v[:, :, None] * v[:, None, :] - g.J)
            vals.append(M.ravel())
        return np.concatenate(vals)


# ---------------------------------------------------------------------------
# KKT factorization with static regularization + iterative refinement


class _KKTStructure:
    """The KKT pattern of one program structure, shared by every solve of it.

    [[0, A^T], [A, -W^2]] holds every entry of A, every dense (d, d) W^2
    slot of the cone blocks and the full diagonal, laid out in one
    minimum-degree symmetric order: original row r sits at perm_c[r], so
    the stored matrix is K[q][:, q] with q = argsort(perm_c).  The slot
    maps say where A's entries (in A's storage order, then again for A^T),
    the W^2 values and the diagonal land.  None of it depends on the values
    of A, so a program with the same A.indptr, A.indices and cone list
    reuses it (fits), as ECOS keeps one ordering per problem structure.
    """

    def __init__(self, A, cones):
        m, n = A.shape
        dim = n + m
        self.blocks = _Blocks(cones)
        # what the structure was built from, for fits()
        self.cone_dims = tuple((k.kind, k.dim) for k in cones)
        self.A_indptr, self.A_indices = A.indptr, A.indices
        M = A.tocoo()  # in A's storage order
        w_rows, w_cols = self.blocks.square_entries()
        diag = np.arange(dim)
        # the lower-left block A, its transpose, the W^2 slots, the diagonal
        rows = np.concatenate([n + M.row, M.col, n + w_rows, diag])
        cols = np.concatenate([M.col, n + M.row, n + w_cols, diag])
        self.shape = (dim, dim)
        self.perm_c = _symmetric_order(rows, cols, dim)
        self.q = np.argsort(self.perm_c)
        rows, cols = self.perm_c[rows], self.perm_c[cols]
        keys, slot = np.unique(cols.astype(np.int64) * dim + rows, return_inverse=True)
        n_a, n_w = 2 * M.nnz, w_rows.size
        self.indices = (keys % dim).astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // dim, minlength=dim))]
        ).astype(np.int32)
        self.a_slots = slot[:n_a]
        self.w2_slots = slot[n_a : n_a + n_w]
        self.diag_slots = slot[n_a + n_w :]  # indexed by original row, like reg
        self.reg = np.concatenate([np.full(n, _REG), np.full(m, -_REG)])

    def fits(self, program) -> bool:
        """Whether the program has the structure this was built from."""
        A = program.A
        return (
            tuple((k.kind, k.dim) for k in program.cones) == self.cone_dims
            and np.array_equal(A.indptr, self.A_indptr)
            and np.array_equal(A.indices, self.A_indices)
        )


class _KKT:
    """[[0, A^T], [A, -W^2]] of one program on its structure's fixed pattern.

    factor() writes -W^2 into a copy of the program's fixed data, adds the
    +-reg diagonal and drops exact zeros.  Pivoting "diagonal" factors that
    matrix in place with diagonal pivots, which a quasi-definite matrix
    admits in every symmetric order, in _PANEL_SIZE-column panels;
    "partial" lets SuperLU reorder columns and pivot rows, with its
    default panels.  Refinement iterates against the unregularized data on
    the full pattern.
    """

    def __init__(self, structure: _KKTStructure, A, pivoting):
        self.structure = structure
        self.pivoting = pivoting
        self.base = np.zeros(structure.indices.size)
        np.add.at(self.base, structure.a_slots, np.concatenate([A.data, A.data]))

    def matrices(self, w2):
        """K and K + diag(reg) in the stored order, exact zeros dropped, at w2 = w_squared()."""
        st = self.structure
        data = self.base.copy()
        data[st.w2_slots] = -w2
        K = sp.csc_matrix((data, st.indices, st.indptr), shape=st.shape)
        data = data.copy()
        data[st.diag_slots] += st.reg
        # eliminate_zeros rewrites its index arrays in place: never the pattern's
        K_reg = sp.csc_matrix((data, st.indices.copy(), st.indptr.copy()), shape=st.shape)
        K_reg.eliminate_zeros()
        return K, K_reg

    def factor(self, w2):
        # the previous matrix and factor go first: held while the next ones
        # are built, they would add to the solve's peak memory
        self.K = self.lu = None
        self.K, K_reg = self.matrices(w2)
        if self.pivoting == "diagonal":
            self.lu = spla.splu(
                K_reg, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                panel_size=_PANEL_SIZE, options=dict(SymmetricMode=True),
            )
        else:
            self.lu = spla.splu(K_reg)

    def solve(self, rhs):
        rhs = rhs[self.structure.q]
        bound = 1e-13 * max(1.0, np.abs(rhs).max())
        x = self.lu.solve(rhs)
        for _ in range(_REFINE_STEPS):
            r = rhs - self.K @ x
            if np.abs(r).max() <= bound:
                break
            x = x + self.lu.solve(r)
        return x[self.structure.perm_c]


def _symmetric_order(rows, cols, dim):
    """Minimum-degree order of the symmetric pattern (rows, cols): perm_c.

    Only the structure matters, so SuperLU orders a stand-in with the same
    pattern, 1 off the diagonal and dim on it: diagonally dominant, it
    factors with diagonal pivots without breaking down.  SuperLU computes
    the order before it factors, so an incomplete factor that drops every
    entry it may (drop_tol = fill_factor = 1) yields the order a full
    factor would, at a fraction of its work and memory.
    """
    stand_in = sp.csc_matrix(
        (np.where(rows == cols, float(dim), 1.0), (rows, cols)), shape=(dim, dim)
    )
    lu = spla.spilu(
        stand_in, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        drop_tol=1.0, fill_factor=1.0, panel_size=_PANEL_SIZE,
        options=dict(SymmetricMode=True),
    )
    return lu.perm_c


# ---------------------------------------------------------------------------
# solver


def _norm(r):
    """The 2-norm of a 1-D array, computed as np.linalg.norm computes it."""
    return np.sqrt(r.dot(r))


def solve(
    program: ConicProgram, tol: float = 1e-9, start: ConicSolution | None = None
) -> ConicSolution:
    """Solve a cone program; never raises on numerical trouble.

    On status "optimal" the normalized primal/dual residuals and the
    relative gap are all <= tol.  Infeasibility is certified through the
    homogeneous embedding (tau -> 0 with a valid certificate; a primal one
    is normalized to b.z = -1 and must re-evaluate to it).

    start, a solution of a program with the same cone list, warm-starts the
    first attempt from the convex combination of that solution and the
    point x = 0, s = z = e (the cone identity), weighted _WARM_WEIGHT to the
    solution; a warm attempt makes no factor at W = I.  A start whose x, s
    or z_dual size does not match the program raises DimensionError.  When
    the program also has the start's A.indptr, A.indices and cone list, the
    solve reuses the start's KKT structure (its ordering and pattern)
    instead of building its own; the result carries the structure it used.

    Attempts run in order until one ends "optimal": the warm start (when
    given), the cold start on diagonal pivots, and the cold start with
    partial pivoting, since a cancelled pivot can also drive the iterates
    along the null space of dependent equality rows until they stall.  Each
    attempt runs at most _MAX_ITER iterations.  The result reports its
    attempt in `start` and `pivoting`, and `iterations` counts every
    attempt.
    """
    attempts = [("diagonal", None), ("partial", None)]
    if start is not None:
        sizes = (start.x.size, start.s.size, start.z_dual.size)
        if sizes != (program.n_cols, program.n_rows, program.n_rows):
            raise DimensionError(
                f"start has (x, s, z) sizes {sizes}, the program needs "
                f"{(program.n_cols, program.n_rows, program.n_rows)}"
            )
        attempts.insert(0, ("diagonal", start))
    kkt = None if start is None else start.kkt
    if kkt is None or not kkt.fits(program):
        kkt = _KKTStructure(program.A, program.cones)
    used = 0
    for pivoting, warm in attempts:
        sol = _solve(program, kkt, tol, pivoting, warm)
        used += sol.iterations
        if sol.status == "optimal":
            break
    return replace(sol, iterations=used, kkt=kkt)


def _solve(program, kkt: _KKTStructure, tol, pivoting, start=None):
    c, A, b = program.c, program.A, program.b
    m, n = A.shape
    AT = A.T
    blocks = kkt.blocks
    e = blocks.identity()

    def result(status, iters, x, s, z, gap, pres, dres):
        return ConicSolution(
            x=x,
            s=s,
            z_dual=z,
            status=status,
            gap=float(gap),
            iterations=iters,
            primal_res=float(pres),
            dual_res=float(dres),
            pivoting=pivoting,
            start="cold" if start is None else "warm",
        )

    if m == 0:
        # degenerate corner: no rows, so any x is feasible
        status = "optimal" if _norm(c) == 0 else "dual-infeasible"
        return result(status, 0, np.zeros(n), np.zeros(0), np.zeros(0), 0.0, 0.0, 0.0)

    norm_b = _norm(b)
    norm_c = _norm(c)

    def split(sol):
        return sol[:n], sol[n:]

    def gap_terms(x_, z_):
        """c.x + b.z, the homogeneous gap without kappa."""
        return float(c @ x_ + b @ z_)

    K = _KKT(kkt, A, pivoting)
    if start is None:
        # cold: least-squares-like systems at W = I
        try:
            K.factor(blocks.identity_squared())
        except RuntimeError:  # a diagonal pivot cancelled to exactly zero
            return result(
                "numerical-error", 0, np.zeros(n), np.zeros(m), np.zeros(m), np.inf, np.inf, np.inf
            )
        x, zp = split(K.solve(np.concatenate([np.zeros(n), b])))
        s = blocks.restrict(-zp)  # equals b - A x on the cone rows at the least-squares point
        _, z = split(K.solve(np.concatenate([-c, np.zeros(m)])))
        shift = -blocks.min_eig(s)
        if shift >= -1e-8:
            s = s + (1.0 + shift) * e
        shift = -blocks.min_eig(z)
        if shift >= -1e-8:
            z = z + (1.0 + shift) * e
    else:
        # warm: the combination with the cold point of Skajaa, Andersen &
        # Ye, whose x is 0 and whose s and z are e.  e is 0 on the zero-cone
        # rows: their slack stays 0, their dual keeps the weighted previous
        # value.  The first factor is the first iteration's.
        w = _WARM_WEIGHT
        x = w * start.x
        s = w * blocks.restrict(start.s) + (1.0 - w) * e
        z = w * start.z_dual + (1.0 - w) * e
    tau, kappa = 1.0, 1.0

    best = None  # (metric, x, s, z, gap, pres, dres) of the best iterate

    for iters in range(1, _MAX_ITER + 1):
        # residuals of the homogeneous system
        f_x = AT @ z + c * tau
        f_z = A @ x + s - b * tau
        f_tau = gap_terms(x, z) + kappa

        # de-homogenized convergence metrics
        xh, sh, zh = x / tau, s / tau, z / tau
        pres = _norm(f_z) / tau / (1.0 + norm_b)
        dres = _norm(f_x) / tau / (1.0 + norm_c)
        pobj = float(c @ xh)
        gap_rel = abs(pobj + float(b @ zh)) / (1.0 + abs(pobj))

        metric = max(pres, dres, gap_rel)
        if best is None or metric < best[0]:
            best = (metric, xh, sh, zh, gap_rel, pres, dres)

        if pres <= tol and dres <= tol and gap_rel <= tol:
            return result("optimal", iters, xh, sh, zh, gap_rel, pres, dres)

        # infeasibility certificates
        cert = float(b @ z)
        if cert < 0:
            z_c = z / -cert
            res = _norm(AT @ z_c)
            # a dual of size ~1e16 passes the residual test on rounding
            # alone; its normalized b.z must also re-evaluate to -1
            if res <= tol and abs(float(b @ z_c) + 1.0) <= 1e-6:
                return result("primal-infeasible", iters, xh, sh, z_c, gap_rel, pres, dres)
        ctx = float(c @ x)
        if ctx < 0:
            scale = -ctx
            if _norm(A @ (x / scale) + s / scale) <= tol:
                return result(
                    "dual-infeasible", iters, x / scale, s / scale, zh, gap_rel, pres, dres
                )

        # NT scaling and KKT factorization; stop at loss of strict
        # interiority (rounding can push an iterate onto the boundary,
        # where the scaling degenerates) and fall back to the best point
        if tau <= 0.0 or kappa <= 0.0 or not np.isfinite(tau) or not np.isfinite(kappa):
            break
        point = blocks.interior(s, z)
        if point is None:
            break
        mu = (float(s @ z) + tau * kappa) / (blocks.degree + 1)
        try:
            scal = _Scaling(point)
            K.factor(scal.w_squared())
        except (RuntimeError, FloatingPointError, ValueError):
            break
        lam = scal.lam
        if not np.isfinite(lam).all():
            break

        x1, z1 = split(K.solve(np.concatenate([-c, b])))
        denom = gap_terms(x1, z1) - kappa / tau
        if not np.isfinite(denom) or denom == 0.0:
            break

        def direction(d_x, d_z, d_tau, d_s, d_kappa):
            x2, z2 = split(K.solve(np.concatenate([d_x, d_z - scal.apply(d_s)])))
            dtau = (d_tau - d_kappa / tau - gap_terms(x2, z2)) / denom
            dx = x2 + dtau * x1
            dz = z2 + dtau * z1
            ds = scal.apply(d_s - scal.apply(dz))
            dkappa = (d_kappa - kappa * dtau) / tau
            return dx, dz, dtau, ds, dkappa

        def max_alpha(ds, dz, dtau, dkappa):
            alpha = point.max_step(ds, dz)
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        # predictor (affine scaling direction)
        dxa, dza, dta, dsa, dka = direction(-f_x, -f_z, -f_tau, -lam, -tau * kappa)
        alpha_aff = min(1.0, max_alpha(dsa, dza, dta, dka))
        sigma = min(1.0, max(0.0, 1.0 - alpha_aff)) ** 3

        # corrector (combined direction)
        u = scal.apply_inv(dsa)
        v = scal.apply(dza)
        d_lam = sigma * mu * e - blocks.product(lam, lam) - blocks.product(u, v)
        d_s = blocks.divide(lam, d_lam)
        d_kappa = sigma * mu - tau * kappa - dta * dka
        one_m_sigma = 1.0 - sigma
        dx, dz, dtau, ds, dkappa = direction(
            -one_m_sigma * f_x,
            -one_m_sigma * f_z,
            -one_m_sigma * f_tau,
            d_s,
            d_kappa,
        )
        alpha = _STEP_FRACTION * max_alpha(ds, dz, dtau, dkappa)
        alpha = min(1.0, alpha)
        if not np.isfinite(alpha) or alpha < _MIN_STEP:
            break

        x = x + alpha * dx
        z = z + alpha * dz
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa
        if tau <= 0 or kappa < 0 or not np.isfinite(tau):
            break
        # renormalize: the embedding is scale invariant, and fixing
        # tau + kappa = 2 keeps magnitudes well conditioned while
        # preserving optima (tau stays away from 0) and infeasibility
        # certificates (kappa stays away from 0)
        scale = 0.5 * (tau + kappa)
        if np.isfinite(scale) and scale > 0.0:
            x = x / scale
            z = z / scale
            s = s / scale
            tau /= scale
            kappa /= scale
    else:
        # loop exhausted without convergence
        return result("max-iter", iters, *best[1:])

    # numerical stagnation: return the best point seen (every break follows
    # the measurement of at least one iterate)
    return result("numerical-error", iters, *best[1:])
