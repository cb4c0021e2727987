"""Self-contained primal-dual interior-point solver for cone programs.

Standard form:

    minimize    c.x
    subject to  A x + s = b,   s in K

where K is a product of zero cones (equality rows, s = 0), nonnegative
orthant rows, and second-order cones {(t, u) : t >= ||u||}.  The dual reads
A^T z + c = 0 with z in the dual cone, and optimality closes the gap
c.x + b.z = 0.

The algorithm is a homogeneous self-dual embedding with Nesterov-Todd
scaling and Mehrotra predictor-corrector steps.  Each iteration factors one
quasi-definite KKT matrix (static regularization + iterative refinement)
and reuses the factorization for the predictor, the corrector, and the
embedding's tau column.  Solves are deterministic: identical inputs produce
bitwise-identical iterates.

ProgramBuilder is the one way programs are put together: callers add
labeled columns and rows, and build() returns the standard-form program
together with maps of where each labeled block landed.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def residuals(program: ConicProgram, solution: ConicSolution):
    """Normalized (primal, dual, gap) residuals recomputed from raw data."""
    x, s, z = solution.x, solution.s, solution.z_dual
    c, A, b = program.c, program.A, program.b
    pres = np.linalg.norm(A @ x + s - b) / (1.0 + np.linalg.norm(b))
    dres = np.linalg.norm(A.T @ z + c) / (1.0 + np.linalg.norm(c))
    pobj = float(c @ x)
    gap = abs(pobj + float(b @ z)) / (1.0 + abs(pobj))
    return float(pres), float(dres), float(gap)


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


def load_program(path) -> ConicProgram:
    """Read back a program written by dump_program."""
    cones = []
    trip_r, trip_c, trip_v = [], [], []
    c_entries, b_entries = [], []
    n_cols = n_rows = 0
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "cols":
                n_cols = int(parts[1])
            elif tag == "rows":
                n_rows = int(parts[1])
            elif tag == "cone":
                cones.append(Cone(parts[1], int(parts[2])))
            elif tag == "c":
                c_entries.append((int(parts[1]), float(parts[2])))
            elif tag == "b":
                b_entries.append((int(parts[1]), float(parts[2])))
            elif tag == "A":
                trip_r.append(int(parts[1]))
                trip_c.append(int(parts[2]))
                trip_v.append(float(parts[3]))
    c = np.zeros(n_cols)
    for j, v in c_entries:
        c[j] = v
    b = np.zeros(n_rows)
    for i, v in b_entries:
        b[i] = v
    A = sp.coo_matrix((trip_v, (trip_r, trip_c)), shape=(n_rows, n_cols)).tocsc()
    return ConicProgram(c, A, b, tuple(cones))


# ---------------------------------------------------------------------------
# cone block utilities (inequality rows only: nonneg rows pooled, soc blocks)


class _Blocks:
    """Row layout of the inequality cone: orthant slice + soc slices."""

    def __init__(self, cones):
        self.nonneg = []  # local row indices
        self.socs = []  # (start, dim) local slices
        pos = 0
        for k in cones:
            if k.kind == "nonneg":
                self.nonneg.extend(range(pos, pos + k.dim))
                pos += k.dim
            elif k.kind == "soc":
                self.socs.append((pos, k.dim))
                pos += k.dim
        self.nonneg = np.asarray(self.nonneg, dtype=int)
        self.dim = pos
        self.degree = self.nonneg.size + len(self.socs)

    def identity(self):
        e = np.zeros(self.dim)
        e[self.nonneg] = 1.0
        for start, _ in self.socs:
            e[start] = 1.0
        return e

    def min_eig(self, v):
        """Smallest cone eigenvalue: entries on the orthant, v0 - ||v1|| per soc."""
        vals = []
        if self.nonneg.size:
            vals.append(np.min(v[self.nonneg]))
        for start, dim in self.socs:
            vals.append(v[start] - np.linalg.norm(v[start + 1 : start + dim]))
        return min(vals) if vals else np.inf

    def product(self, u, v):
        """Jordan product u o v blockwise."""
        out = np.empty(self.dim)
        out[self.nonneg] = u[self.nonneg] * v[self.nonneg]
        for start, dim in self.socs:
            u0, u1 = u[start], u[start + 1 : start + dim]
            v0, v1 = v[start], v[start + 1 : start + dim]
            out[start] = u0 * v0 + u1 @ v1
            out[start + 1 : start + dim] = u0 * v1 + v0 * u1
        return out

    def divide(self, lam, d):
        """Solve lam o w = d for w."""
        out = np.empty(self.dim)
        out[self.nonneg] = d[self.nonneg] / lam[self.nonneg]
        for start, dim in self.socs:
            l0, l1 = lam[start], lam[start + 1 : start + dim]
            d0, d1 = d[start], d[start + 1 : start + dim]
            det = l0 * l0 - l1 @ l1
            w0 = (l0 * d0 - l1 @ d1) / det
            out[start] = w0
            out[start + 1 : start + dim] = (d1 - w0 * l1) / l0
        return out

    def max_step(self, v, dv):
        """Largest alpha with v + alpha*dv in the cone (v strictly inside)."""
        alpha = np.inf
        neg = dv[self.nonneg] < 0
        if np.any(neg):
            alpha = float(np.min(-v[self.nonneg][neg] / dv[self.nonneg][neg]))
        for start, dim in self.socs:
            u0, u1 = v[start], v[start + 1 : start + dim]
            d0, d1 = dv[start], dv[start + 1 : start + dim]
            A = d0 * d0 - d1 @ d1
            B = 2.0 * (u0 * d0 - u1 @ d1)
            C = u0 * u0 - u1 @ u1
            r = _smallest_positive_root(A, B, C)
            if r < alpha:
                alpha = r
        return alpha


def _smallest_positive_root(A, B, C):
    """Smallest positive root of A t^2 + B t + C = 0 with C > 0, or inf."""
    if abs(A) < 1e-300:
        if B < 0:
            return -C / B
        return np.inf
    disc = B * B - 4.0 * A * C
    if disc < 0:
        return np.inf  # only possible for A > 0: f stays positive
    sq = np.sqrt(disc)
    q = -0.5 * (B + np.copysign(sq, B)) if B != 0 else -0.5 * sq
    roots = []
    if abs(A) > 0:
        roots.append(q / A)
    if abs(q) > 0:
        roots.append(C / q)
    pos = [r for r in roots if r > 0]
    return min(pos) if pos else np.inf


class _Scaling:
    """Nesterov-Todd scaling W with lam = W z = W^{-1} s.

    For a second-order block the det-normalized scaling point is
    v = (sbar + J zbar) / (2 gamma), which satisfies (2vv^T - J) zbar =
    sbar, i.e. W^2 = eta^2 (2vv^T - J).  W itself acts through the Jordan
    square root u = (v + e) / sqrt(2(v0 + 1)): W = eta (2uu^T - J).
    """

    def __init__(self, blocks: _Blocks, s, z):
        self.blocks = blocks
        self.w_nn = np.sqrt(s[blocks.nonneg] / z[blocks.nonneg]) if blocks.nonneg.size else np.empty(0)
        self.lam = np.empty(blocks.dim)
        self.lam[blocks.nonneg] = np.sqrt(s[blocks.nonneg] * z[blocks.nonneg])
        self.soc = []  # (eta, v, u) per block
        for start, dim in blocks.socs:
            sb = s[start : start + dim]
            zb = z[start : start + dim]
            a = np.sqrt(sb[0] ** 2 - sb[1:] @ sb[1:])
            bb = np.sqrt(zb[0] ** 2 - zb[1:] @ zb[1:])
            sbar = sb / a
            zbar = zb / bb
            gamma = np.sqrt(0.5 * (1.0 + sbar @ zbar))
            v = sbar.copy()
            v[0] += zbar[0]
            v[1:] -= zbar[1:]
            v /= 2.0 * gamma
            u = v.copy()
            u[0] += 1.0
            u /= np.sqrt(2.0 * (v[0] + 1.0))
            eta = np.sqrt(a / bb)
            self.soc.append((eta, v, u))
            scale = np.sqrt(a * bb)
            lam0 = gamma * scale
            denom = sbar[0] + zbar[0] + 2.0 * gamma
            lam1 = ((gamma + zbar[0]) * sbar[1:] + (gamma + sbar[0]) * zbar[1:]) / denom
            self.lam[start] = lam0
            self.lam[start + 1 : start + dim] = scale * lam1

    def apply(self, x):
        """W x"""
        out = np.empty(self.blocks.dim)
        out[self.blocks.nonneg] = self.w_nn * x[self.blocks.nonneg]
        for (start, dim), (eta, _, u) in zip(self.blocks.socs, self.soc):
            xb = x[start : start + dim]
            ux = u @ xb
            r = 2.0 * ux * u
            r[0] -= xb[0]
            r[1:] += xb[1:]
            out[start : start + dim] = eta * r
        return out

    def apply_inv(self, x):
        """W^{-1} x"""
        out = np.empty(self.blocks.dim)
        out[self.blocks.nonneg] = x[self.blocks.nonneg] / self.w_nn
        for (start, dim), (eta, _, u) in zip(self.blocks.socs, self.soc):
            xb = x[start : start + dim]
            ju = u.copy()
            ju[1:] = -ju[1:]
            ux = ju @ xb
            r = 2.0 * ux * ju
            r[0] -= xb[0]
            r[1:] += xb[1:]
            out[start : start + dim] = r / eta
        return out

    def w_squared(self):
        """W^2 as a sparse matrix (diagonal orthant part, dense soc blocks)."""
        diag = np.zeros(self.blocks.dim)
        diag[self.blocks.nonneg] = self.w_nn**2
        rows, cols, vals = [], [], []
        nn = self.blocks.nonneg
        rows.extend(nn.tolist())
        cols.extend(nn.tolist())
        vals.extend(diag[nn].tolist())
        for (start, dim), (eta, v, _) in zip(self.blocks.socs, self.soc):
            J = -np.eye(dim)
            J[0, 0] = 1.0
            M = (eta * eta) * (2.0 * np.outer(v, v) - J)
            for i in range(dim):
                for j in range(dim):
                    rows.append(start + i)
                    cols.append(start + j)
                    vals.append(M[i, j])
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.blocks.dim, self.blocks.dim)).tocsc()


# ---------------------------------------------------------------------------
# KKT factorization with static regularization + iterative refinement


class _KKT:
    def __init__(self, A_eq, G, W2):
        n = A_eq.shape[1]
        p_eq = A_eq.shape[0]
        p_in = G.shape[0]
        blocks = [
            [None, A_eq.T if p_eq else None, G.T if p_in else None],
            [A_eq if p_eq else None, None, None],
            [G if p_in else None, None, -W2 if p_in else None],
        ]
        # drop empty block rows/cols
        keep = [True, p_eq > 0, p_in > 0]
        blocks = [
            [blocks[i][j] for j in range(3) if keep[j]] for i in range(3) if keep[i]
        ]
        K = sp.bmat(blocks, format="csc")
        reg = np.concatenate(
            [np.full(n, _REG), np.full(p_eq, -_REG), np.full(p_in, -_REG)]
        )
        self.K = K
        self.n, self.p_eq, self.p_in = n, p_eq, p_in
        self.lu = spla.splu(K + sp.diags(reg).tocsc())

    def solve(self, rhs):
        x = self.lu.solve(rhs)
        for _ in range(_REFINE_STEPS):
            r = rhs - self.K @ x
            if np.linalg.norm(r, np.inf) <= 1e-13 * max(1.0, np.linalg.norm(rhs, np.inf)):
                break
            x = x + self.lu.solve(r)
        return x


# ---------------------------------------------------------------------------
# solver


def solve(program: ConicProgram, tol: float = 1e-8, max_iter: int = 100) -> ConicSolution:
    """Solve a cone program; never raises on numerical trouble.

    On status "optimal" the normalized primal/dual residuals and the
    relative gap are all <= tol.  Infeasibility is certified through the
    homogeneous embedding (tau -> 0 with a valid certificate).
    """
    c, b = program.c, program.b
    n = program.n_cols

    # partition rows into equalities and cone inequalities, preserving order
    eq_rows, in_rows, in_cones = [], [], []
    pos = 0
    for k in program.cones:
        rows = list(range(pos, pos + k.dim))
        if k.kind == "zero":
            eq_rows.extend(rows)
        else:
            in_rows.extend(rows)
            in_cones.append(k)
        pos += k.dim
    eq_rows = np.asarray(eq_rows, dtype=int)
    in_rows = np.asarray(in_rows, dtype=int)
    A_csr = program.A.tocsr()
    A_eq = A_csr[eq_rows].tocsc() if eq_rows.size else sp.csc_matrix((0, n))
    G = A_csr[in_rows].tocsc() if in_rows.size else sp.csc_matrix((0, n))
    b_eq = b[eq_rows]
    h = b[in_rows]
    blocks = _Blocks(in_cones)
    p_eq, p_in = b_eq.size, h.size
    e = blocks.identity()

    def pack(solution_x, solution_s_in, solution_z_in, y_eq, status, gap, iters, pres, dres):
        s_full = np.zeros(program.n_rows)
        z_full = np.zeros(program.n_rows)
        if p_in:
            s_full[in_rows] = solution_s_in
            z_full[in_rows] = solution_z_in
        if p_eq:
            z_full[eq_rows] = y_eq
        return ConicSolution(
            x=solution_x,
            s=s_full,
            z_dual=z_full,
            status=status,
            gap=float(gap),
            iterations=iters,
            primal_res=float(pres),
            dual_res=float(dres),
        )

    if n == 0 or (p_eq == 0 and p_in == 0):
        # degenerate corner: no rows or no variables
        x = np.zeros(n)
        status = "optimal" if np.linalg.norm(c) == 0 else "dual-infeasible"
        return pack(x, np.zeros(0), np.zeros(0), np.zeros(0), status, 0.0, 0, 0.0, 0.0)

    norm_b_all = np.linalg.norm(b)
    norm_c = np.linalg.norm(c)

    def kkt(W2):
        return _KKT(A_eq, G, W2)

    def split(sol):
        x = sol[:n]
        y = sol[n : n + p_eq]
        z = sol[n + p_eq :]
        return x, y, z

    # --- initialization: solve two least-squares-like systems at W = I
    K0 = kkt(sp.identity(p_in, format="csc") if p_in else sp.csc_matrix((0, 0)))
    rhs_p = np.concatenate([np.zeros(n), b_eq, h])
    xp, _, zp = split(K0.solve(rhs_p))
    s_in = -zp  # equals h - G x at the least-squares point
    rhs_d = np.concatenate([-c, np.zeros(p_eq), np.zeros(p_in)])
    _, y, z_in = split(K0.solve(rhs_d))
    x = xp
    if p_in:
        shift = -blocks.min_eig(s_in)
        if shift >= -1e-8:
            s_in = s_in + (1.0 + shift) * e
        shift = -blocks.min_eig(z_in)
        if shift >= -1e-8:
            z_in = z_in + (1.0 + shift) * e
    tau, kappa = 1.0, 1.0

    best = None
    status = "max-iter"
    iters = 0
    pres = dres = gap_rel = np.inf

    for iters in range(1, max_iter + 1):
        # residuals of the homogeneous system
        f_x = (A_eq.T @ y if p_eq else 0.0) + (G.T @ z_in if p_in else 0.0) + c * tau
        f_y = A_eq @ x - b_eq * tau if p_eq else np.zeros(0)
        f_z = G @ x + s_in - h * tau if p_in else np.zeros(0)
        f_tau = float(c @ x + (b_eq @ y if p_eq else 0.0) + (h @ z_in if p_in else 0.0) + kappa)

        # de-homogenized convergence metrics (unified-form residuals)
        xh = x / tau
        sh = s_in / tau if p_in else s_in
        zh = z_in / tau if p_in else z_in
        yh = y / tau if p_eq else y
        pres_num = 0.0
        if p_eq:
            pres_num += np.linalg.norm(A_eq @ xh - b_eq) ** 2
        if p_in:
            pres_num += np.linalg.norm(G @ xh + sh - h) ** 2
        pres = np.sqrt(pres_num) / (1.0 + norm_b_all)
        dres = np.linalg.norm(
            (A_eq.T @ yh if p_eq else 0.0) + (G.T @ zh if p_in else 0.0) + c
        ) / (1.0 + norm_c)
        pobj = float(c @ xh)
        dobj_term = float((b_eq @ yh if p_eq else 0.0) + (h @ zh if p_in else 0.0))
        gap_rel = abs(pobj + dobj_term) / (1.0 + abs(pobj))

        metric = max(pres, dres, gap_rel)
        if best is None or metric < best[0]:
            best = (metric, xh.copy(), sh.copy(), zh.copy(), yh.copy(), gap_rel, pres, dres)

        if pres <= tol and dres <= tol and gap_rel <= tol:
            return pack(xh, sh, zh, yh, "optimal", gap_rel, iters, pres, dres)

        # infeasibility certificates
        cert = float((b_eq @ y if p_eq else 0.0) + (h @ z_in if p_in else 0.0))
        if cert < 0:
            res = np.linalg.norm(
                (A_eq.T @ (y / -cert) if p_eq else 0.0)
                + (G.T @ (z_in / -cert) if p_in else 0.0)
            )
            if res <= tol:
                return pack(
                    x / tau, sh, z_in / -cert, y / -cert,
                    "primal-infeasible", gap_rel, iters, pres, dres,
                )
        ctx = float(c @ x)
        if ctx < 0:
            scale = -ctx
            num = 0.0
            if p_eq:
                num += np.linalg.norm(A_eq @ (x / scale)) ** 2
            if p_in:
                num += np.linalg.norm(G @ (x / scale) + s_in / scale) ** 2
            if np.sqrt(num) <= tol:
                return pack(
                    x / scale, s_in / scale, zh, yh,
                    "dual-infeasible", gap_rel, iters, pres, dres,
                )

        # NT scaling and KKT factorization; stop at loss of strict
        # interiority (rounding can push an iterate onto the boundary,
        # where the scaling degenerates) and fall back to the best point
        if tau <= 0.0 or kappa <= 0.0 or not np.isfinite(tau) or not np.isfinite(kappa):
            break
        if p_in and (blocks.min_eig(s_in) <= 0.0 or blocks.min_eig(z_in) <= 0.0):
            break
        mu = (float(s_in @ z_in) + tau * kappa) / (blocks.degree + 1)
        try:
            scal = _Scaling(blocks, s_in, z_in) if p_in else None
            K = kkt(scal.w_squared() if p_in else sp.csc_matrix((0, 0)))
        except (RuntimeError, FloatingPointError, ValueError):
            break
        if p_in and not np.all(np.isfinite(scal.lam)):
            break

        sol1 = K.solve(np.concatenate([-c, b_eq, h]))
        x1, y1, z1 = split(sol1)
        denom = float(
            c @ x1 + (b_eq @ y1 if p_eq else 0.0) + (h @ z1 if p_in else 0.0) - kappa / tau
        )
        if not np.isfinite(denom) or denom == 0.0:
            break

        lam = scal.lam if p_in else np.zeros(0)

        def direction(d_x, d_y, d_z, d_tau, d_s, d_kappa):
            rhs = np.concatenate(
                [d_x, d_y, d_z - (scal.apply(d_s) if p_in else np.zeros(0))]
            )
            x2, y2, z2 = split(K.solve(rhs))
            num = d_tau - d_kappa / tau - float(
                c @ x2 + (b_eq @ y2 if p_eq else 0.0) + (h @ z2 if p_in else 0.0)
            )
            dtau = num / denom
            dx = x2 + dtau * x1
            dy = y2 + dtau * y1
            dz = z2 + dtau * z1
            if p_in:
                ds = scal.apply(d_s - scal.apply(dz))
            else:
                ds = np.zeros(0)
            dkappa = (d_kappa - kappa * dtau) / tau
            return dx, dy, dz, dtau, ds, dkappa

        def max_alpha(ds, dz, dtau, dkappa):
            alpha = np.inf
            if p_in:
                alpha = min(alpha, blocks.max_step(s_in, ds), blocks.max_step(z_in, dz))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        # predictor (affine scaling direction)
        d_s_aff = -lam
        dxa, dya, dza, dta, dsa, dka = direction(
            -f_x, -f_y, -f_z, -f_tau, d_s_aff, -tau * kappa
        )
        alpha_aff = min(1.0, max_alpha(dsa, dza, dta, dka))
        sigma = min(1.0, max(0.0, 1.0 - alpha_aff)) ** 3

        # corrector (combined direction)
        if p_in:
            u = scal.apply_inv(dsa)
            v = scal.apply(dza)
            d_lam = sigma * mu * e - blocks.product(lam, lam) - blocks.product(u, v)
            d_s = blocks.divide(lam, d_lam)
        else:
            d_s = np.zeros(0)
        d_kappa = sigma * mu - tau * kappa - dta * dka
        one_m_sigma = 1.0 - sigma
        dx, dy, dz, dtau, ds, dkappa = direction(
            -one_m_sigma * f_x,
            -one_m_sigma * f_y,
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
        if p_eq:
            y = y + alpha * dy
        if p_in:
            z_in = z_in + alpha * dz
            s_in = s_in + alpha * ds
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
            if p_eq:
                y = y / scale
            if p_in:
                z_in = z_in / scale
                s_in = s_in / scale
            tau /= scale
            kappa /= scale
    else:
        # loop exhausted without convergence
        if best is None:
            return pack(
                x, s_in, z_in, y, "max-iter", np.inf, iters, np.inf, np.inf
            )
        _, xb, sb, zb, yb, gapb, presb, dresb = best
        return pack(xb, sb, zb, yb, "max-iter", gapb, iters, presb, dresb)

    # numerical stagnation: return the best point seen
    if best is not None:
        _, xb, sb, zb, yb, gapb, presb, dresb = best
        return pack(xb, sb, zb, yb, "numerical-error", gapb, iters, presb, dresb)
    return pack(
        np.zeros(n), np.zeros(p_in), np.zeros(p_in), np.zeros(p_eq),
        "numerical-error", np.inf, iters, np.inf, np.inf,
    )
