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
embedding's tau column.  Every symmetric permutation of a quasi-definite
matrix has an LDL^T factorization (Vanderbei 1995), so the matrix is laid
out once per solve in a minimum-degree symmetric order and factored with
diagonal pivots only, as ECOS does.  Linearly dependent equality rows can
still cancel a diagonal pivot; a solve that then ends other than "optimal"
is run again with threshold partial pivoting, and the solution reports
which factorization it used.  Solves are deterministic: identical
inputs produce bitwise-identical iterates.

ProgramBuilder is the one way programs are put together: callers add
labeled columns and rows, and build() returns the standard-form program
together with maps of where each labeled block landed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class Span:
    """A labeled, contiguous block of program rows or columns."""

    label: tuple
    start: int
    length: int

    @property
    def stop(self):
        return self.start + self.length

    def range(self):
        return range(self.start, self.stop)


class ProgramBuilder:
    """Incremental cone-program builder with labeled rows and columns.

    Expressions are (pairs, const) with pairs = [(column, coefficient)...];
    the slack of an emitted cone row equals const + sum(coeff * x[col]).
    Rows are grouped zero -> nonneg -> soc on build, and the returned maps
    record where every labeled block landed.
    """

    def __init__(self):
        self.n_cols = 0
        self.cols = []  # Span
        self._cost = []  # (col, coeff)
        self._zero = []  # (label, pairs, rhs): sum coeff*x = rhs
        self._nonneg = []  # (label, pairs, rhs): sum coeff*x >= rhs
        self._soc = []  # (label, [exprs])

    def add_cols(self, label, count) -> int:
        start = self.n_cols
        self.cols.append(Span(tuple(label), start, count))
        self.n_cols += count
        return start

    def add_cost(self, col, coeff):
        self._cost.append((int(col), float(coeff)))

    def add_eq(self, label, pairs, rhs):
        self._zero.append((tuple(label), list(pairs), float(rhs)))

    def add_ge(self, label, pairs, rhs):
        self._nonneg.append((tuple(label), list(pairs), float(rhs)))

    def add_soc(self, label, exprs):
        self._soc.append((tuple(label), [(list(p), float(k)) for p, k in exprs]))

    def build(self):
        rows_i, cols_j, vals = [], [], []
        bvals = []
        row_spans = []
        cones = []

        def emit(pairs, const, negate):
            r = len(bvals)
            sign = -1.0 if negate else 1.0
            for col, coeff in pairs:
                if coeff != 0.0:
                    rows_i.append(r)
                    cols_j.append(int(col))
                    vals.append(sign * float(coeff))
            bvals.append(const)

        for label, pairs, rhs in self._zero:
            row_spans.append(Span(label, len(bvals), 1))
            emit(pairs, rhs, negate=False)  # A x = b
        n_zero = len(bvals)
        for label, pairs, rhs in self._nonneg:
            row_spans.append(Span(label, len(bvals), 1))
            emit(pairs, -rhs, negate=True)  # s = sum coeff*x - rhs >= 0
        n_nonneg = len(bvals) - n_zero
        for label, exprs in self._soc:
            row_spans.append(Span(label, len(bvals), len(exprs)))
            for pairs, const in exprs:
                emit(pairs, const, negate=True)  # s_i = const + sum coeff*x
            cones.append(Cone("soc", len(exprs)))

        cone_list = []
        if n_zero:
            cone_list.append(Cone("zero", n_zero))
        if n_nonneg:
            cone_list.append(Cone("nonneg", n_nonneg))
        cone_list.extend(cones)

        c = np.zeros(self.n_cols)
        for col, coeff in self._cost:
            c[col] += coeff
        A = sp.coo_matrix(
            (vals, (rows_i, cols_j)), shape=(len(bvals), self.n_cols)
        ).tocsc()
        program = ConicProgram(c, A, np.asarray(bvals), tuple(cone_list))
        return program, tuple(row_spans), tuple(self.cols)


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
# values.  On d = 1 the formulas reduce to the orthant closed forms.  A
# zero-cone row belongs to no block: its slack is 0 and its dual is free, so
# every operation returns 0 there.


def _split(x):
    """Heads (k,) and tails (k, d-1) of stacked blocks."""
    return x[:, 0], x[:, 1:]


def _dot(u, v):
    return np.sum(u * v, axis=1)


def _jnorm(x):
    """sqrt(x0^2 - ||x1||^2) per block: the cone's own scale."""
    x0, x1 = _split(x)
    return np.sqrt(x0 * x0 - _dot(x1, x1))


def _jdiag(d):
    """The diagonal of J = diag(1, -1, ..., -1)."""
    j = -np.ones(d)
    j[0] = 1.0
    return j


def _reflect(u, x):
    """(2uu^T - J) x per stacked block."""
    return (2.0 * _dot(u, x))[:, None] * u - _jdiag(x.shape[1]) * x


class _Blocks:
    """Program rows of the nonnegative and second-order cones, grouped by
    dimension into (k, d) index arrays; zero-cone rows are in no group."""

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
        vals = []
        for idx in self.groups:
            v0, v1 = _split(v[idx])
            vals.append(np.min(v0 - np.sqrt(_dot(v1, v1))))
        return min(vals, default=np.inf)

    def product(self, u, v):
        """Jordan product u o v blockwise."""
        out = np.zeros(self.dim)
        for idx in self.groups:
            (u0, u1), (v0, v1) = _split(u[idx]), _split(v[idx])
            out[idx[:, 0]] = u0 * v0 + _dot(u1, v1)
            out[idx[:, 1:]] = u0[:, None] * v1 + v0[:, None] * u1
        return out

    def divide(self, lam, d):
        """Solve lam o w = d for w."""
        out = np.zeros(self.dim)
        for idx in self.groups:
            (l0, l1), (d0, d1) = _split(lam[idx]), _split(d[idx])
            w0 = (d0 - _dot(l1, d1) / l0) / (l0 - _dot(l1, l1) / l0)
            out[idx[:, 0]] = w0
            out[idx[:, 1:]] = (d1 - w0[:, None] * l1) / l0[:, None]
        return out

    def max_step(self, v, dv):
        """Largest alpha with v + alpha*dv in the cone (v strictly inside).

        In the frame where v / ||v||_J is the identity, dv / ||v||_J maps to
        rho, and the step is 1 / max(0, -(rho0 - ||rho1||)).  rho is kept
        scaled by ||v||_J, which makes d = 1 exactly -v/dv.
        """
        alpha = np.inf
        for idx in self.groups:
            V, D = v[idx], dv[idx]
            vn = _jnorm(V)
            (b0, b1), (d0, d1) = _split(V / vn[:, None]), _split(D)
            r0 = b0 * d0 - _dot(b1, d1)
            r1 = d1 - ((r0 + d0) / (b0 + 1.0))[:, None] * b1
            shrink = np.sqrt(_dot(r1, r1)) - r0
            hit = shrink > 0
            if np.any(hit):
                alpha = min(alpha, float(np.min(vn[hit] / shrink[hit])))
        return alpha


class _Scaling:
    """Nesterov-Todd scaling W with lam = W z = W^{-1} s, per block group.

    For a block the det-normalized scaling point is v = (sbar + J zbar) /
    (2 gamma), which satisfies (2vv^T - J) zbar = sbar, i.e. W^2 = eta^2
    (2vv^T - J).  W itself acts through the Jordan square root u = (v + e) /
    sqrt(2(v0 + 1)): W = eta (2uu^T - J).  On d = 1, v = u = 1, W = sqrt(s/z)
    and lam = sqrt(sz).
    """

    def __init__(self, blocks: _Blocks, s, z):
        self.blocks = blocks
        self.lam = np.zeros(blocks.dim)
        self.groups = []  # (eta, v, u) per group: (k,), (k, d), (k, d)
        for idx in blocks.groups:
            S, Z = s[idx], z[idx]
            a, bb = _jnorm(S), _jnorm(Z)
            sbar = S / a[:, None]
            zbar = Z / bb[:, None]
            gamma = np.sqrt(0.5 * (1.0 + _dot(sbar, zbar)))
            v = (sbar + _jdiag(idx.shape[1]) * zbar) / (2.0 * gamma)[:, None]
            u = v.copy()
            u[:, 0] += 1.0
            u /= np.sqrt(2.0 * (v[:, 0] + 1.0))[:, None]
            self.groups.append((np.sqrt(a / bb), v, u))
            scale = np.sqrt(a * bb)
            (s0, s1), (z0, z1) = _split(sbar), _split(zbar)
            denom = s0 + z0 + 2.0 * gamma
            lam1 = ((gamma + z0)[:, None] * s1 + (gamma + s0)[:, None] * z1) / denom[:, None]
            self.lam[idx[:, 0]] = gamma * scale
            self.lam[idx[:, 1:]] = scale[:, None] * lam1

    def apply(self, x):
        """W x"""
        out = np.zeros(self.blocks.dim)
        for idx, (eta, _, u) in zip(self.blocks.groups, self.groups):
            out[idx] = eta[:, None] * _reflect(u, x[idx])
        return out

    def apply_inv(self, x):
        """W^{-1} x = (2 Ju (Ju)^T - J) x / eta"""
        out = np.zeros(self.blocks.dim)
        for idx, (eta, _, u) in zip(self.blocks.groups, self.groups):
            out[idx] = _reflect(_jdiag(idx.shape[1]) * u, x[idx]) / eta[:, None]
        return out

    def w_squared(self):
        """W^2 values, one dense (d, d) block per cone, in _KKT's slot order."""
        vals = [np.zeros(0)]  # keeps a program without cone blocks well formed
        for idx, (eta, v, _) in zip(self.blocks.groups, self.groups):
            J = np.diag(_jdiag(idx.shape[1]))
            M = (eta * eta)[:, None, None] * (2.0 * v[:, :, None] * v[:, None, :] - J)
            vals.append(M.ravel())
        return np.concatenate(vals)


# ---------------------------------------------------------------------------
# KKT factorization with static regularization + iterative refinement


class _KKT:
    """[[0, A^T], [A, -W^2]] on one CSC pattern per solve, W^2 = 0 on zero-cone rows.

    The pattern holds every entry of A, every dense (d, d) W^2 slot of the
    cone blocks and the full diagonal, laid out in one minimum-degree
    symmetric order: original row r sits at perm_c[r], so the stored matrix
    is K[q][:, q] with q = argsort(perm_c).  factor() writes -W^2 into a
    copy of the fixed data, adds the +-reg diagonal and drops exact zeros.
    Pivoting "diagonal" factors that matrix in place with diagonal pivots,
    which a quasi-definite matrix admits in every symmetric order; "partial"
    lets SuperLU reorder columns and pivot rows.  Refinement iterates
    against the unregularized data on the full pattern.
    """

    def __init__(self, A, blocks: _Blocks, pivoting):
        m, n = A.shape
        dim = n + m
        M = A.tocoo()
        w_rows, w_cols = blocks.square_entries()
        diag = np.arange(dim)
        # the lower-left block A, its transpose, the W^2 slots, the diagonal
        rows = np.concatenate([n + M.row, M.col, n + w_rows, diag])
        cols = np.concatenate([M.col, n + M.row, n + w_cols, diag])
        self.shape = (dim, dim)
        self.pivoting = pivoting
        self.perm_c = _symmetric_order(rows, cols, dim)
        self.q = np.argsort(self.perm_c)
        rows, cols = self.perm_c[rows], self.perm_c[cols]
        keys, slot = np.unique(cols.astype(np.int64) * dim + rows, return_inverse=True)
        n_a, n_w = 2 * M.nnz, w_rows.size
        self.indices = (keys % dim).astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // dim, minlength=dim))]
        ).astype(np.int32)
        self.base = np.zeros(keys.size)
        np.add.at(self.base, slot[:n_a], np.concatenate([M.data, M.data]))
        self.w2_slots = slot[n_a : n_a + n_w]
        self.diag_slots = slot[n_a + n_w :]  # indexed by original row, like reg
        self.reg = np.concatenate([np.full(n, _REG), np.full(m, -_REG)])

    def matrices(self, w2):
        """K and K + diag(reg) in the stored order, exact zeros dropped, at w2 = w_squared()."""
        data = self.base.copy()
        data[self.w2_slots] = -w2
        K = sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)
        data = data.copy()
        data[self.diag_slots] += self.reg
        # eliminate_zeros rewrites its index arrays in place: never the pattern's
        K_reg = sp.csc_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=self.shape
        )
        K_reg.eliminate_zeros()
        return K, K_reg

    def factor(self, w2):
        self.K, K_reg = self.matrices(w2)
        if self.pivoting == "diagonal":
            self.lu = spla.splu(
                K_reg, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        else:
            self.lu = spla.splu(K_reg)

    def solve(self, rhs):
        rhs = rhs[self.q]
        bound = 1e-13 * max(1.0, np.linalg.norm(rhs, np.inf))
        x = self.lu.solve(rhs)
        for _ in range(_REFINE_STEPS):
            r = rhs - self.K @ x
            if np.linalg.norm(r, np.inf) <= bound:
                break
            x = x + self.lu.solve(r)
        return x[self.perm_c]


def _symmetric_order(rows, cols, dim):
    """Minimum-degree order of the symmetric pattern (rows, cols): perm_c.

    Only the structure matters, so SuperLU orders a stand-in with the same
    pattern, 1 off the diagonal and dim on it: diagonally dominant, it
    factors with diagonal pivots without breaking down.
    """
    stand_in = sp.csc_matrix(
        (np.where(rows == cols, float(dim), 1.0), (rows, cols)), shape=(dim, dim)
    )
    lu = spla.splu(
        stand_in, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return lu.perm_c


# ---------------------------------------------------------------------------
# solver


def solve(program: ConicProgram, tol: float = 1e-9, max_iter: int = 100) -> ConicSolution:
    """Solve a cone program; never raises on numerical trouble.

    On status "optimal" the normalized primal/dual residuals and the
    relative gap are all <= tol.  Infeasibility is certified through the
    homogeneous embedding (tau -> 0 with a valid certificate; a primal one
    is normalized to b.z = -1 and must re-evaluate to it).  A solve that
    ends other than "optimal" on diagonal pivots is run again with partial
    pivoting: a cancelled pivot can also drive the iterates along the null
    space of dependent equality rows until they stall.  The result reports
    the factorization in `pivoting`, and `iterations` counts both attempts.
    """
    first = _solve(program, tol, max_iter, "diagonal")
    if first.status == "optimal":
        return first
    retry = _solve(program, tol, max_iter, "partial")
    return replace(retry, iterations=first.iterations + retry.iterations)


def _solve(program, tol, max_iter, pivoting):
    c, A, b = program.c, program.A, program.b
    m, n = A.shape
    AT = A.T
    blocks = _Blocks(program.cones)
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
        )

    if m == 0:
        # degenerate corner: no rows, so any x is feasible
        status = "optimal" if np.linalg.norm(c) == 0 else "dual-infeasible"
        return result(status, 0, np.zeros(n), np.zeros(0), np.zeros(0), 0.0, 0.0, 0.0)

    norm_b = np.linalg.norm(b)
    norm_c = np.linalg.norm(c)

    def split(sol):
        return sol[:n], sol[n:]

    def gap_terms(x_, z_):
        """c.x + b.z, the homogeneous gap without kappa."""
        return float(c @ x_ + b @ z_)

    # --- initialization: solve two least-squares-like systems at W = I
    K = _KKT(A, blocks, pivoting)
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
    tau, kappa = 1.0, 1.0

    best = None  # (metric, x, s, z, gap, pres, dres) of the best iterate
    iters = 0

    for iters in range(1, max_iter + 1):
        # residuals of the homogeneous system
        f_x = AT @ z + c * tau
        f_z = A @ x + s - b * tau
        f_tau = gap_terms(x, z) + kappa

        # de-homogenized convergence metrics
        xh, sh, zh = x / tau, s / tau, z / tau
        pres = np.linalg.norm(A @ xh + sh - b) / (1.0 + norm_b)
        dres = np.linalg.norm(AT @ zh + c) / (1.0 + norm_c)
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
            res = np.linalg.norm(AT @ z_c)
            # a dual of size ~1e16 passes the residual test on rounding
            # alone; its normalized b.z must also re-evaluate to -1
            if res <= tol and abs(float(b @ z_c) + 1.0) <= 1e-6:
                return result("primal-infeasible", iters, xh, sh, z_c, gap_rel, pres, dres)
        ctx = float(c @ x)
        if ctx < 0:
            scale = -ctx
            if np.linalg.norm(A @ (x / scale) + s / scale) <= tol:
                return result(
                    "dual-infeasible", iters, x / scale, s / scale, zh, gap_rel, pres, dres
                )

        # NT scaling and KKT factorization; stop at loss of strict
        # interiority (rounding can push an iterate onto the boundary,
        # where the scaling degenerates) and fall back to the best point
        if tau <= 0.0 or kappa <= 0.0 or not np.isfinite(tau) or not np.isfinite(kappa):
            break
        if blocks.min_eig(s) <= 0.0 or blocks.min_eig(z) <= 0.0:
            break
        mu = (float(s @ z) + tau * kappa) / (blocks.degree + 1)
        try:
            scal = _Scaling(blocks, s, z)
            K.factor(scal.w_squared())
        except (RuntimeError, FloatingPointError, ValueError):
            break
        lam = scal.lam
        if not np.all(np.isfinite(lam)):
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
            alpha = min(blocks.max_step(s, ds), blocks.max_step(z, dz))
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
        if best is None:  # max_iter = 0 measures nothing
            return result("max-iter", iters, x, s, z, np.inf, np.inf, np.inf)
        return result("max-iter", iters, *best[1:])

    # numerical stagnation: return the best point seen (every break follows
    # the measurement of at least one iterate)
    return result("numerical-error", iters, *best[1:])
