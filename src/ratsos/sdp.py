"""Block-SDP standard form, a dense primal-dual interior-point solver,
and SDPA sparse-format import/export.

The hosted problem is the linear-matrix-inequality orientation natural for
moment relaxations:

    minimize    c'y
    subject to  E y = d
                S_b(y) = C_b + sum_l y_l F_{b,l}  PSD   for every block b

A block of size 1 (a scalar inequality) is an ordinary PSD block here; only
the SDPA writer packs such blocks into its diagonal block.

The solver is a path-following method with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step, run from an infeasible start.  It returns
both the moment-side value (primal) and the certifying SOS-side value (dual)
of one solve.  Linear algebra is dense per block; the method is intended for
desk-scale instances, larger ones go through the SDPA exporter.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ProblemTooLargeError, SolveError

DEFAULT_PSD_CAP = 3000


def _scipy_extension(name):
    """scipy's compiled module `scipy.<name>`, loaded from its own file.

    No `__init__` of a scipy package runs: those of `scipy.linalg` and
    `scipy.sparse` cost more start-up than the whole solve of a small
    problem.  A module already in sys.modules is reused.  A loaded one is
    not left there: a later `import scipy.linalg` then imports it itself and
    binds it as the package's attribute, and that module holds the same
    functions, since CPython initializes a single-phase extension once.  A
    missing file raises ImportError naming the path looked for.
    """
    full = "scipy." + name
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    base = os.path.join(os.path.dirname(spec.origin), *name.split("."))
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((base + s for s in suffixes if os.path.isfile(base + s)), None)
    if path is None:
        raise ImportError(f"no compiled module {full} at {base}{suffixes[0]}")
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full, None)
    return module


_flapack = _scipy_extension("linalg._flapack")
_fblas = _scipy_extension("linalg._fblas")
_sparsetools = _scipy_extension("sparse._sparsetools")
_potrf, _potrs, _trtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
_syr2k = _fblas.dsyr2k
_csr_matvec, _csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs


@dataclass
class PsdBlockData:
    """One PSD block of the LMI map, entries stored for i <= j only."""

    label: str
    size: int
    rows: np.ndarray
    cols: np.ndarray
    varids: np.ndarray
    coefs: np.ndarray
    const_rows: np.ndarray
    const_cols: np.ndarray
    const_vals: np.ndarray


def psd_block(label, size, rows, cols, vids, coefs,
              const_rows=(), const_cols=(), const_vals=()):
    """PsdBlockData from entry lists, the constant term C empty by default."""
    return PsdBlockData(
        label=label,
        size=size,
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        varids=np.asarray(vids, dtype=np.int64),
        coefs=np.asarray(coefs, dtype=float),
        const_rows=np.asarray(const_rows, dtype=np.int64),
        const_cols=np.asarray(const_cols, dtype=np.int64),
        const_vals=np.asarray(const_vals, dtype=float),
    )


@dataclass
class SdpStandardForm:
    """min c'y s.t. E y = d and every block's LMI PSD, in solver form.

    E is always the solver's `_Csr` and d an array: a scipy sparse matrix
    passed as E is converted through its `tocsr()`, and a form with no
    equality rows has an E of 0 rows and d = zeros(0), which
    `__post_init__` fills in when they are left out.
    """

    num_vars: int
    objective: np.ndarray
    blocks: list
    eq_mat: _Csr = None
    eq_rhs: np.ndarray = None

    def __post_init__(self):
        if self.eq_mat is None:
            self.eq_mat = _coo_to_csr((), (), (), (0, self.num_vars))
            self.eq_rhs = np.zeros(0)
        elif not isinstance(self.eq_mat, _Csr):
            A = self.eq_mat.tocsr()
            self.eq_mat = _Csr(A.indptr, A.indices, A.data, A.shape[1])

    @property
    def num_eq(self):
        return self.eq_mat.shape[0]

    def total_psd_dim(self):
        return sum(b.size for b in self.blocks)

    def block_sizes(self):
        return tuple(b.size for b in self.blocks)


@dataclass
class SolveReport:
    status: str
    primal: float
    dual: float
    gap: float
    iterations: int
    pinf: float = float("nan")
    dinf: float = float("nan")
    y: np.ndarray | None = None
    # orders of the separately factored blocks of the Schur matrix
    schur_blocks: tuple = ()
    # applications of the Schur operator by the refinement (`_Scaling.apply`)
    krylov_applies: int = 0

    def ok(self):
        return self.status in ("optimal", "near_optimal")


def to_standard_form(rsdp):
    """Repack a relaxation into solver form.

    The blocks are kept as built, 1x1 blocks included; the equality rows
    are packed into one sparse matrix, each scaled to a unit max-abs
    coefficient.  Dependent rows stay: the solver gives them a zero
    multiplier.
    """
    data, ri, ci, rb = [], [], [], []
    for r, (cols, vals, b) in enumerate(rsdp.eq_rows):
        scale = max(abs(v) for v in vals)
        ri += [r] * len(cols)
        ci += cols
        data += [v / scale for v in vals]
        rb.append(b / scale)
    return SdpStandardForm(
        num_vars=rsdp.num_decision,
        objective=np.asarray(rsdp.objective, dtype=float).copy(),
        blocks=list(rsdp.blocks),
        eq_mat=_coo_to_csr(data, ri, ci, (len(rsdp.eq_rows), rsdp.num_decision)),
        eq_rhs=np.asarray(rb, dtype=float),
    )


# ---------------------------------------------------------------------------
# interior-point solver


def _entries(blocks, fields):
    """(block index, field arrays...) of all blocks' entries, concatenated."""
    counts = [len(getattr(blk, fields[0])) for blk in blocks]
    return (np.repeat(np.arange(len(blocks)), counts),
            *(np.concatenate([getattr(blk, f) for blk in blocks]) for f in fields))


def _mirrored(r, c, *fields):
    """Entries (r, c, fields...) and the mirror (c, r) of every off-diagonal one."""
    off = r != c
    return (np.concatenate((r, c[off])), np.concatenate((c, r[off])),
            *(np.concatenate((f, f[off])) for f in fields))


class _Csr:
    """A CSR matrix as bare arrays, multiplied by the kernels scipy's `@` runs.

    `A @ x` calls `csr_matvec` (x a vector or one column) or `csr_matvecs`
    on the same arrays, operands and zeroed output as scipy's own `@`, so
    its bits are the same; what it skips is scipy's per-call dispatch and
    checks.  Repeated entries stay apart and add up in products.  `indptr`
    need not start at 0: the blocks of one size group are `_Csr`s over
    slices of one group-level indptr, sharing its indices and data.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, ncols):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (len(indptr) - 1, ncols)

    def toarray(self):
        """The dense matrix, repeated entries summed, as scipy's `toarray()`."""
        out = np.zeros(self.shape, self.data.dtype)
        _sparsetools.csr_todense(*self.shape, self.indptr, self.indices, self.data,
                                 out)
        return out

    def transposed(self):
        """The transpose, for an indptr starting at 0: the arrays of scipy's
        `A.T.tocsr()`, each row's entries in the order of their rows here."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return _Csr(*_csr_arrays(self.indices, rows, self.data, self.shape[1]),
                    self.shape[0])

    def __matmul__(self, x):
        rows, cols = self.shape
        dtype = np.promote_types(self.data.dtype, x.dtype)
        out = np.zeros((rows, *x.shape[1:]), dtype)
        if x.ndim == 1 or x.shape[1] == 1:
            _csr_matvec(rows, cols, self.indptr, self.indices, self.data,
                        x.ravel(), out.ravel())
        else:
            _csr_matvecs(rows, cols, x.shape[1], self.indptr, self.indices,
                         self.data, x.ravel(), out.ravel())
        return out


def _coo_to_csr(data, rows, cols, shape):
    """scipy's `csr_matrix((data, (rows, cols)), shape)` as a `_Csr`.

    The kernels `coo_matrix.tocsr()` runs, on the arrays it passes them:
    `coo_tocsr` groups the entries by row in their given order, and unless
    the result is canonical (each row's columns strictly increasing) the
    rows are sorted and their repeated entries summed.  The indices are
    int32 where that holds them, as scipy stores them.
    """
    nrows, ncols = shape
    data = np.asarray(data)
    nnz = len(data)
    index = np.int32 if max(nrows, ncols, nnz) < 2 ** 31 else np.int64
    rows, cols = np.asarray(rows, dtype=index), np.asarray(cols, dtype=index)
    indptr, indices = np.empty(nrows + 1, index), np.empty(nnz, index)
    vals = np.empty_like(data)
    _sparsetools.coo_tocsr(nrows, ncols, nnz, rows, cols, data, indptr, indices, vals)
    if not _sparsetools.csr_has_canonical_format(nrows, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(nrows, indptr, indices):
            _sparsetools.csr_sort_indices(nrows, indptr, indices, vals)
        _sparsetools.csr_sum_duplicates(nrows, ncols, indptr, indices, vals)
        nnz = indptr[-1]
        indices, vals = indices[:nnz], vals[:nnz]
    return _Csr(indptr, indices, vals, ncols)


def _csr_arrays(rows, cols, vals, nrows):
    """(indptr, indices, data) of the CSR matrix with the given entries,
    indexed by int32 where that holds them, as scipy stores them."""
    index = np.int32 if len(rows) < 2 ** 31 else np.int64
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=nrows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index)
    return indptr, cols[order].astype(index), vals[order]


class _SizeGroup:
    """All PSD blocks of one size, stacked for batched linear algebra.

    G is the vectorized LMI map: entry (b*s*s + i*s + j, l) is F_{b,l}[i, j].
    Residuals, scalings and step lengths run on (B, s, s) stacks, so many
    small blocks cost barely more than one large one.

    The Schur assembly keeps F sparse.  Number the variables of block b
    (`vars_list[b]`) l = 0..n-1.  FW[b] has entry (i*n + l, k) equal to
    F_l[i, k], so that FW[b] @ W stacks every F_l W.  The triangle gather
    Fh[b] has entry (l, e) equal to F_l at the block's e-th stored
    position tri[b] (i <= j), doubled off the diagonal, so that
    Fh[b] @ T[i_e, :, j_e] is <F_l', T_l> for symmetric T_l.  Each of FW
    and Fh is one set of CSR arrays for the whole group, over local column
    numbers; FW[b] and Fh[b] are `_Csr`s over slices of its row pointer.
    """

    def __init__(self, size, blocks, m):
        s = self.s = size
        B = self.B = len(blocks)
        ss = s * s
        bc, rc, cc, ac = _entries(blocks, ("const_rows", "const_cols", "const_vals"))
        rc, cc, bc, ac = _mirrored(rc, cc, bc, ac)
        self.C = np.bincount((bc * s + rc) * s + cc, ac, B * ss).reshape(B, s, s)

        b, r, c, v, a = _entries(blocks, ("rows", "cols", "varids", "coefs"))
        # the variables of each block, and each entry's local number l
        uniq, local = np.unique(b * m + v, return_inverse=True)
        n = np.bincount(uniq // m, minlength=B)
        n_off = np.concatenate(([0], np.cumsum(n)))
        self.vars_list = np.split(uniq % m, n_off[1:-1])
        local -= n_off[b]
        fi, fk, fb, fv, fl, fa = _mirrored(r, c, b, v, local, a)
        self.G = _coo_to_csr(fa, fb * ss + fi * s + fk, fv, (B * ss, m))
        self.GT = self.G.transposed()
        ptr, idx, val = _csr_arrays(s * n_off[fb] + fi * n[fb] + fl, fk, fa,
                                    s * n_off[-1])
        self.FW = [_Csr(ptr[s * n0:s * n1 + 1], idx, val, s)
                   for n0, n1 in zip(n_off, n_off[1:])]
        pos, col = np.unique((b * s + r) * s + c, return_inverse=True)
        p_off = np.searchsorted(pos // ss, np.arange(B + 1))
        ptr, idx, val = _csr_arrays(n_off[b] + local, col - p_off[b],
                                    np.where(r == c, 1.0, 2.0) * a, n_off[-1])
        self.Fh = [_Csr(ptr[n0:n1 + 1], idx, val, p1 - p0)
                   for n0, n1, p0, p1 in zip(n_off, n_off[1:], p_off, p_off[1:])]
        self.tri = [(pos[p0:p1] // s % s, pos[p0:p1] % s)
                    for p0, p1 in zip(p_off, p_off[1:])]
        # each block's T, as (s, n_b*s) and as (s, n_b, s): views of one
        # buffer for the largest block, reused by every block and iteration
        work = np.empty(s * s * n.max())
        self.T = [(work[:s * s * nb].reshape(s, -1), work[:s * s * nb].reshape(s, nb, s))
                  for nb in n]

    def lmi_step(self, dy):
        return (self.G @ dy).reshape(self.B, self.s, self.s)

    def lmi(self, y):
        return self.lmi_step(y) + self.C

    def adjoint(self, Tstack):
        """Accumulated <F_l, T_b> over all blocks, as a length-m vector."""
        return self.GT @ Tstack.ravel()

    def add_schur(self, W, M, place):
        """Add each block's <F_i, W F_j W> into its component's matrix.

        Per block, FW @ W_b forms every F_l W_b in nnz*s flops, one GEMM
        with W_b turns them into T[k, l, j] = (W_b F_l W_b)[k, j], and Fh
        gathers the inner products from T's stored positions.  `place[b]`
        is the block's component k and the index of its variable pairs in
        `M[k]` (`_BlockAngular.place`).
        """
        s = self.s
        for Wb, FW, Fh, (T, T3), (i, j), kb in zip(W, self.FW, self.Fh, self.T,
                                                   self.tri, place):
            if kb is None:
                continue
            np.matmul(Wb, (FW @ Wb).reshape(s, -1), out=T)
            k, idx = kb
            M[k][idx] += Fh @ T3[i, :, j]


class _BlockAngular:
    """The block-angular structure of the Newton system, fixed for a solve.

    Two decision variables meet in the Schur matrix M only when they share
    a PSD block (1x1 blocks included), so M is block-diagonal over the
    connected components of that relation: one per measure in the
    multi-measure relaxations.  An equality row inside one component is an
    intra row, a row spanning components a linking row.

    Intra rows are eliminated per component: a pivoted QR of E_k' gives
    E_k'[:, piv] = Q_k [R_k R_k'']; Q_I and R_I hold the Q_k and R_k of all
    components (block-diagonal) and P_I = I - Q_I Q_I' projects onto
    null(E_intra).  For the linking rows U is an orthonormal basis of
    P_I E_L' from a second pivoted QR, so null(E) is null(E_intra)
    orthogonal to U, P = P_I - U U' projects onto it, and [Q_I U] spans
    the row space of E; `_BlockAngularFactor` removes U by a projection in
    the Cholesky-scaled space.  Dependent rows get a zero multiplier.
    """

    def __init__(self, m, groups, E):
        """E: the equality rows as a `_Csr`, 0 rows when there are none."""
        self.m = m
        self.nf = E.shape[0]
        # each variable's label is the smallest variable of its component:
        # every block lowers its variables' labels to the least among them,
        # and each label to its own label, until nothing changes
        vars_lists = [vs for g in groups for vs in g.vars_list]
        var = np.concatenate(vars_lists)
        block = np.repeat(np.arange(len(vars_lists)), [len(vs) for vs in vars_lists])
        lab = np.arange(m)
        while True:
            low = np.full(len(vars_lists), m)
            np.minimum.at(low, block, lab[var])
            new = lab.copy()
            np.minimum.at(new, var, low[block])
            new = new[new]
            if np.array_equal(new, lab):
                break
            lab = new
        entry_row = np.repeat(np.arange(self.nf), np.diff(E.indptr))
        lo = np.full(self.nf, m)
        hi = np.full(self.nf, -1)
        np.minimum.at(lo, entry_row, lab[E.indices])
        np.maximum.at(hi, entry_row, lab[E.indices])
        home, linking = np.minimum(lo, m - 1), lo != hi
        labels = np.unique(lab)
        order = np.argsort(lab, kind="stable")
        counts = np.bincount(np.searchsorted(labels, lab), minlength=len(labels))
        by_label = np.split(order, np.cumsum(counts)[:-1])
        # components in ascending size, the order `schur_blocks` reports
        by_size = np.argsort(counts, kind="stable")
        self.vars = [by_label[i] for i in by_size]
        self.sizes = counts[by_size]
        comp_of = np.empty(m, dtype=np.int64)
        self.local = np.empty(m, dtype=np.int64)
        for k, vs in enumerate(self.vars):
            comp_of[vs] = k
            self.local[vs] = np.arange(len(vs))
        # per size group and block, (k, idx): the block's variable pairs
        # are M[k][idx] of the component matrices M, the whole matrix when
        # the block's variables are its component's in local order, an open
        # mesh of their local numbers otherwise
        self.place = [
            [self._place(comp_of, vs) if len(vs) else None for vs in g.vars_list]
            for g in groups
        ]

        # intra rows, per component; E' dense in Fortran order, as scipy's
        # `E.T.toarray()` lays it out
        Et = E.toarray().T
        home_comp = comp_of[home]
        # Q_k in the Fortran order of the QR factor, None without intra rows
        self.Q = Q = []
        intra, piv = [], []
        for k, vs in enumerate(self.vars):
            rows = np.flatnonzero(~linking & (home_comp == k))
            Qk, Rk, pk = (
                _pivoted_qr(Et[np.ix_(vs, rows)]) if len(rows) else (None,) * 3
            )
            Q.append(Qk)
            if Qk is not None:
                intra.append((vs, Qk, Rk))
                piv.append(rows[pk])
        self.r_I = sum(len(p) for p in piv)
        # Q_I in Fortran order like the QR factor itself, so that one
        # component takes the same BLAS paths as a dense elimination; R_I
        # block-diagonal in C order
        self.Q_I = np.zeros((m, self.r_I), order="F")
        self.R_I = np.zeros((self.r_I, self.r_I))
        col = 0
        for vs, Qk, Rk in intra:
            end = col + len(Rk)
            self.Q_I[vs, col:end] = Qk
            self.R_I[col:end, col:end] = Rk
            col = end
        if self.r_I:
            self.piv_I = np.concatenate(piv)

        # linking rows, one correction for all components
        self.r_L = 0
        link = np.flatnonzero(linking)
        if len(link):
            ELt = Et[:, link]
            U, self.R_L, pk = _pivoted_qr(ELt - self.Q_I @ (self.Q_I.T @ ELt))
            if U is not None:
                self.U = U
                self.r_L = U.shape[1]
                self.piv_L = link[pk]
                self.E_L = Et[:, self.piv_L].T

    def _place(self, comp_of, vs):
        k = int(comp_of[vs[0]])
        loc = self.local[vs]
        if np.array_equal(loc, np.arange(self.sizes[k])):
            return k, slice(None)
        return k, np.ix_(loc, loc)

    def project(self, v):
        """Component of v in null(E)."""
        if self.r_I:
            v = v - self.Q_I @ (self.Q_I.T @ v)
        if self.r_L:
            v = v - self.U @ (self.U.T @ v)
        return v

    def particular(self, r_e):
        """A dy in the row space of E with E dy = r_e."""
        dy = np.zeros(self.m)
        if self.r_I:
            dy = self.Q_I @ _solve_upper(self.R_I, r_e[self.piv_I], trans=1)
        if self.r_L:
            # E_L[piv_L] U = R_L' since U lies in null(E_intra)
            dy += self.U @ _solve_upper(
                self.R_L, r_e[self.piv_L] - self.E_L @ dy, trans=1
            )
        return dy

    def multipliers(self, v):
        """dnu with E' dnu = (Q_I Q_I' + U U') v; dependent rows get zero."""
        dnu = np.zeros(self.nf)
        if self.r_L:
            dnu[self.piv_L] = _solve_upper(self.R_L, self.U.T @ v)
            v = v - self.E_L.T @ dnu[self.piv_L]
        if self.r_I:
            dnu[self.piv_I] = _solve_upper(self.R_I, self.Q_I.T @ v)
        return dnu


def _check_finite(b):
    """scipy's finiteness check on a right-hand side."""
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")


def _solve_upper(R, b, trans=0):
    """x with R x = b (trans=0) or R' x = b (trans=1), R upper triangular.

    scipy's `solve_triangular` by its own rule, with only its finiteness
    check on b kept: LAPACK reads R in Fortran order, so a C-ordered R
    goes in as the lower triangular R' with the transpose flag flipped.
    That rule, and not only the system solved, fixes the bits of x.
    """
    _check_finite(b)
    return _trtrs_upper(R, b, trans)


def _trtrs_upper(R, b, trans):
    """`_solve_upper` for a b already checked."""
    if R.flags.f_contiguous:
        x, info = _trtrs(R, b, lower=0, trans=trans)
    else:
        x, info = _trtrs(R.T, b, lower=1, trans=1 - trans)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: info {info}")
    return x


def _lapack(f, *args, **kwargs):
    """scipy's `safecall`: f's workspace query (lwork=-1), then f with the
    optimal workspace; the outputs without work and info."""
    kwargs["lwork"] = -1
    kwargs["lwork"] = f(*args, **kwargs)[-2][0].real.astype(np.int_)
    ret = f(*args, **kwargs)
    if ret[-1] < 0:
        raise ValueError(f"illegal value in argument {-ret[-1]} of {f.__name__}")
    return ret[:-2]


def _pivoted_qr(At):
    """(Q1, R11, piv) of At[:, piv] = Q1 [R11 R12], rank-revealing.

    scipy's `qr(At, mode="economic", pivoting=True)` step by step, so its
    bits: the finiteness check, `dgeqp3` with 0-based pivots, then
    `dorgqr` on the factor's leading min(M, N) columns.
    """
    a = np.asarray_chkfinite(At)
    M, N = a.shape
    if not a.size:
        return None, None, None
    qr, piv, tau = _lapack(_flapack.dgeqp3, a, overwrite_a=False)
    piv -= 1
    R = np.triu(qr if M < N else qr[:N])
    Q, = _lapack(_flapack.dorgqr, qr[:, :M] if M < N else qr, tau, overwrite_a=1)
    diag = np.abs(np.diag(R))
    r = int((diag > 1e-12 * diag[0]).sum())
    if not r:
        return None, None, None
    return Q[:, :r], R[:r, :r], piv[:r]


def _cholesky(A, scale):
    """(upper Cholesky factor, rho) of A + rho D, climbing the ladder.

    D is diag(|A_ii|), with `scale` standing in for a zero entry, so that
    each rung shifts every diagonal entry by the same relative amount.
    rho is zero unless rounding makes A numerically indefinite (late
    iterations, where M spans more than 1/eps); it is then the smallest
    rung that lets Cholesky through, and the factor is only a
    preconditioner for the Krylov solve in `_Scaling.solve`.
    """
    weights = np.abs(np.diag(A))
    weights[weights == 0.0] = scale
    rho = 0.0
    while True:
        shifted = A
        if rho:
            # one Fortran copy, shifted and factored in place
            shifted = np.array(A, order="F")
            shifted[np.diag_indices_from(shifted)] += rho * weights
        with np.errstate(all="ignore"):
            cho, info = _potrf(shifted, lower=0, clean=0, overwrite_a=bool(rho))
        if info == 0 and np.isfinite(np.diag(cho)).all():
            return cho, rho
        # drop the failed factor before the next rung is allocated
        cho = shifted = None
        rho = 1e-14 if not rho else 100.0 * rho
        if rho > 1e-4:
            raise np.linalg.LinAlgError("Schur matrix not positive definite")


class _BlockAngularFactor:
    """Double-precision factorization of the Schur matrix on null(E).

    Each component matrix is restricted to the null space of its intra
    rows, P_k M_k P_k + g_k Q_k Q_k', which is positive definite whenever
    M_k is on that space, and Cholesky-factored; call M~ = R'R the
    block-diagonal result.  The linking rows are removed by an orthogonal
    projection in the Cholesky-scaled space: with Qh an orthonormal basis
    of R^-T U (Householder QR), the inverse of P M P on null(E) is
    w -> R^-1 (I - Qh Qh') R^-T w.  Unlike a correction through the Gram
    matrix U' M~^-1 U, this does not square the conditioning of R^-T U.
    With one component and no linking rows this is one dense
    factorization of the whole matrix.

    `M` holds the component matrices, one square matrix per component of
    `ba`.  Each component is restricted, factored and applied on its own,
    one loop over the components.
    """

    def __init__(self, ba, M):
        self.ba = ba
        self.M = M
        Mt = []
        for Mk, Qk in zip(self.M, ba.Q):
            # the restricted matrix in Fortran order, the layout LAPACK reads
            Mtk = np.array(Mk, order="F")
            if Qk is not None:
                # P M P + g Q Q' = M + Q B' + B Q' with B = Q K / 2 - M Q,
                # K = Q' M Q + g I and g the mean of diag(M); Cholesky reads
                # the upper triangle only
                MQ = Mk @ Qk
                K = Qk.T @ MQ
                K[np.diag_indices_from(K)] += Mk.trace() / len(Mk)
                B = 0.5 * (Qk @ K) - MQ
                Mtk = _syr2k(1.0, Qk, B, beta=1.0, c=Mtk, overwrite_c=True)
            Mt.append(Mtk)
        # a variable in no block is a component with a zero matrix; the
        # ladder still needs a scale for it
        scales = np.array([np.abs(np.diag(Mk)).max() for Mk in Mt])
        scales[scales == 0.0] = 1.0
        self.diag_max = float(scales.max())
        self.cho, shifts = zip(*map(_cholesky, Mt, scales))
        self.shift = max(shifts)
        if ba.r_L:
            self.Qh = np.linalg.qr(self._block_solve(ba.U, trans=1))[0]
        self.project = ba.project
        self.multipliers = ba.multipliers

    def _block_solve(self, w, trans=None):
        """M~^-1 w, R^-T w (trans=1) or R^-1 w (trans=0), per component."""
        if trans is not None:
            _check_finite(w)
        x = np.empty_like(w)
        with np.errstate(all="ignore"):
            for vs, cho in zip(self.ba.vars, self.cho):
                x[vs] = (_potrs(cho, w[vs], lower=0)[0] if trans is None
                         else _trtrs_upper(cho, w[vs], trans))
        return x

    def matvec(self, v):
        out = np.empty(len(v))
        for vs, Mk in zip(self.ba.vars, self.M):
            out[vs] = Mk @ v[vs]
        return out

    def precond(self, w):
        """Inverse of P M P on null(E) applied to w in null(E)."""
        if not self.ba.r_L:
            return self.project(self._block_solve(w))
        z = self._block_solve(w, trans=1)
        z -= self.Qh @ (self.Qh.T @ z)
        return self.project(self._block_solve(z, trans=0))

    def solve(self, rhs1, r_e):
        """(dy, dnu, res): M dy - E' dnu = rhs1 and E dy = r_e, approximately.

        res is the size of the residual left on null(E), P (M dy - rhs1),
        as computed in double precision.
        """
        dy = self.ba.particular(r_e)
        dy += self.precond(self.project(rhs1 - self.matvec(dy)))
        v = self.matvec(dy) - rhs1
        # Cholesky on null(E_intra) is backward stable, so the rounding
        # bound of `_Scaling.solve` covers it; with linking rows the
        # triangular solves around the projection can leave a residual far
        # above that bound late in a solve, so it is measured
        res = float(np.linalg.norm(self.project(v))) if self.ba.r_L else 0.0
        return dy, self.multipliers(v), res


def _nt_factor_stack(X, S):
    """Batched NT scaling: R R' = W with W S W = X, lam the scaled spectrum."""
    Lx = np.linalg.cholesky(X)
    Ls = np.linalg.cholesky(S)
    _, lam, Vt = np.linalg.svd(Ls.transpose(0, 2, 1) @ Lx)
    R = (Lx @ Vt.transpose(0, 2, 1)) / np.sqrt(lam)[:, None, :]
    W = R @ R.transpose(0, 2, 1)
    return R, lam, W


def _min_steps(lam, Ds, Dx):
    """Largest alphas keeping diag(lam_b) + alpha * D_b PSD for all b, for
    D = Ds and D = Dx, from one eigvalsh over both stacks."""
    root = np.sqrt(np.concatenate((lam, lam)))
    scaled = np.concatenate((Ds, Dx)) / root[:, :, None] / root[:, None, :]
    emin = np.linalg.eigvalsh(_sym(scaled))[:, 0].reshape(2, -1)
    steps = np.divide(-1.0, emin, out=np.full_like(emin, np.inf), where=emin < 0)
    ap, ad = steps.min(axis=1)
    return float(ap), float(ad)


def _sym(Z):
    return 0.5 * (Z + Z.transpose(0, 2, 1))


class _Form:
    """What the loop needs of one SdpStandardForm, set up once per solve.

    The size groups in ascending size order (the 1x1 group, if any, first;
    every sum over groups follows it), the objective c at unit scale (duals
    scale linearly, so the values are multiplied back by c_gamma), E, E'
    and d, the scales of the residuals and the block-angular structure of
    the Newton system.
    """

    def __init__(self, sf):
        self.m = m = sf.num_vars
        self.dim = sf.total_psd_dim()
        self.c_gamma = max(1.0, float(np.abs(sf.objective).max()))
        self.c = sf.objective / self.c_gamma
        by_size = {}
        for blk in sf.blocks:
            by_size.setdefault(blk.size, []).append(blk)
        self.groups = [_SizeGroup(size, by_size[size], m) for size in sorted(by_size)]
        self.E = sf.eq_mat
        self.ET = self.E.transposed()
        self.d = sf.eq_rhs
        self.data_scale = 1.0 + max(
            [float(np.abs(g.C).max()) for g in self.groups]
            + [float(np.abs(self.d).max(initial=0.0))]
        )
        self.obj_scale = 1.0 + float(np.abs(self.c).max())
        self.ba = _BlockAngular(m, self.groups, self.E)
        # Schur operator applications by the refinement, over the solve
        self.applies = 0

    def start(self):
        """The infeasible start: identity-like X and S that dominate the data."""
        X, S = [], []
        for g in self.groups:
            eta = np.maximum(10.0, 1.5 * np.sqrt((g.C ** 2).sum(axis=(1, 2))))
            eye = np.eye(g.s)
            S.append(eta[:, None, None] * eye)
            X.append(max(10.0, self.obj_scale) * np.tile(eye, (g.B, 1, 1)))
        return _Iterate(self, np.zeros(self.m), np.zeros(len(self.d)), X, S)


class _Iterate:
    """One point (y, nu, X, S) of the loop, with its residuals and values.

    X and S hold one (B, s, s) stack per size group.  Rlmi = S(y) - S,
    r_e = d - E y and r_d = c - A*X - E'nu are the residuals; pobj = c'y,
    and dobj is the Lagrangian d'nu - <X, C> + r_d'y, which charges the
    dual residual at y, so that a residual no step removes shows in the gap
    instead of hiding.  err, the largest of the scaled relgap, pinf and
    dinf, ranks the iterates.
    """

    def __init__(self, form, y, nu, X, S):
        self.form, self.y, self.nu, self.X, self.S = form, y, nu, X, S
        groups = form.groups
        self.Rlmi = [g.lmi(y) - Sg for g, Sg in zip(groups, S)]
        self.r_e = form.d - form.E @ y
        Ax = np.zeros(form.m)
        for g, Xg in zip(groups, X):
            Ax += g.adjoint(Xg)
        self.r_d = form.c - Ax - form.ET @ nu
        self.mu = sum(
            float(np.einsum("bij,bij->", Xg, Sg)) for Xg, Sg in zip(X, S)
        ) / form.dim
        self.pobj = form.c_gamma * float(form.c @ y)
        self.dobj = form.c_gamma * float(
            nu @ form.d
            - sum(float(np.einsum("bij,bij->", Xg, g.C)) for g, Xg in zip(groups, X))
            + float(self.r_d @ y)
        )
        self.relgap = abs(self.pobj - self.dobj) / (
            1.0 + abs(self.pobj) + abs(self.dobj)
        )
        self.pinf = max(
            [float(np.abs(self.r_e).max(initial=0.0))]
            + [float(np.abs(R).max()) for R in self.Rlmi]
        ) / form.data_scale
        self.dinf = float(np.abs(self.r_d).max()) / form.obj_scale
        self.err = max(self.relgap, self.pinf, self.dinf)

    def step(self, ap, ad, direction):
        """The iterate reached by a primal step ap and a dual step ad."""
        dy, dnu, dS, dX = direction[:4]
        return _Iterate(
            self.form, self.y + ap * dy, self.nu + ad * dnu,
            [X + ad * dXg for X, dXg in zip(self.X, dX)],
            [S + ap * dSg for S, dSg in zip(self.S, dS)],
        )


class _Scaling:
    """The NT scaling at one iterate, and the Newton system it defines.

    Per size group R R' = W with W S W = X, and lam is the scaled spectrum
    (`_nt_factor_stack`).  The Schur matrix, M v = A*(W A(v) W), is
    assembled and factored in double precision once per iteration
    (`_BlockAngularFactor`); Mehrotra's predictor and corrector are two
    solves with it.  The loop keeps no scaling from one iteration to the
    next, so the last Schur matrix and factor are freed before the next
    are built.

    Near the optimum M spans far more than 1/eps, and the dual residual of
    a direction is the residual of the Newton equations, of size
    eps |M| |dy| when M is assembled and factored.  Without strict
    complementarity |dy| shrinks only like sqrt(mu), so that error grows
    as mu falls and caps the reachable gap.  Taking the residual with the
    operator itself, A*(W A(v) W) on BLAS, and reducing it by a Krylov
    method preconditioned with the factorization removes most of it
    (`solve`): GMRES-based iterative refinement, all in double precision
    (Carson & Higham, SIAM J. Sci. Comput. 2017).
    """

    MAX_KRYLOV = 25

    def __init__(self, it):
        self.it = it
        form = it.form
        self.groups = form.groups
        self.R, self.lam, self.W = zip(*map(_nt_factor_stack, it.X, it.S))
        M = [np.zeros((n, n)) for n in form.ba.sizes]
        for g, W, place in zip(self.groups, self.W, form.ba.place):
            g.add_schur(W, M, place)
        self.factor = _BlockAngularFactor(form.ba, M)
        self.Rt = [R.transpose(0, 2, 1) for R in self.R]
        # residual of the LMI in the NT-scaled space, shared by both solves
        self.Rl_sc = [Rt @ Rl @ R for R, Rt, Rl in zip(self.R, self.Rt, it.Rlmi)]
        # accuracy the Schur solve must reach: the residual it leaves is the
        # next dual residual, which moves the dual objective by r_d'y; a
        # hundredth of the current gap (or of r_d itself) is plenty
        self.target = 1e-2 * max(
            float(np.linalg.norm(it.r_d)),
            abs(it.pobj - it.dobj)
            / (form.c_gamma * max(1.0, float(np.linalg.norm(it.y)))),
        )
        # where the dual residual does not shrink, GMRES stalls at its size
        # (on null(E)); a residual within twice that is as far as it gets
        self.floor = 2.0 * float(np.linalg.norm(form.ba.project(it.r_d)))

    def predictor_corrector(self):
        """(ap, ad, direction) of Mehrotra's predictor-corrector step.

        The affine predictor aims at zero complementarity; the gap it would
        reach sets the centering sigma = (mu_aff / mu)^3 (Mehrotra 1992),
        capped at 0.999, and the corrector adds its second-order term, all
        in the NT-scaled space.
        """
        it, form = self.it, self.it.form
        G_aff = []
        for lam, Rl in zip(self.lam, self.Rl_sc):
            G = np.zeros_like(Rl)
            ar = np.arange(lam.shape[1])
            G[:, ar, ar] = -lam ** 2 / lam
            G_aff.append(G)
        aff = self.direction(G_aff)
        ap_a, ad_a = self.step_lengths(aff)
        _, _, dS_a, dX_a, Ds_a, Dx_a = aff
        gap_aff = sum(
            float(np.einsum("bij,bij->", X + ad_a * dX, S + ap_a * dS))
            for X, S, dX, dS in zip(it.X, it.S, dX_a, dS_a)
        )
        mu_aff = max(gap_aff / form.dim, 0.0)
        sigma = min(0.999, (mu_aff / it.mu) ** 3)

        # corrector with second-order term in the scaled space
        G_corr = []
        for lam, Dx, Ds in zip(self.lam, Dx_a, Ds_a):
            T = -0.5 * (Dx @ Ds + Ds @ Dx)
            ar = np.arange(lam.shape[1])
            T[:, ar, ar] += sigma * it.mu - lam ** 2
            G_corr.append(2.0 * T / (lam[:, :, None] + lam[:, None, :]))
        corr = self.direction(G_corr)
        return (*self.step_lengths(corr), corr)

    def direction(self, Gt):
        """Newton direction (dy, dnu, dS, dX, Ds, Dx) for scaled targets Gt.

        In the NT-scaled space the linearized complementarity reads
        Dx + Ds = Gt with Ds = R' dS R and Dx = R^-1 dX R^-T.
        """
        rhs1 = -self.it.r_d
        for g, R, Rt, G, Rl in zip(self.groups, self.R, self.Rt, Gt, self.Rl_sc):
            rhs1 += g.adjoint(R @ (G - Rl) @ Rt)
        dy, dnu = self.solve(rhs1)
        dS, dX, Ds, Dx = [], [], [], []
        for g, R, Rt, G, Rl in zip(self.groups, self.R, self.Rt, Gt, self.it.Rlmi):
            dS.append(g.lmi_step(dy) + Rl)
            Ds.append(_sym(Rt @ dS[-1] @ R))
            Dx.append(G - Ds[-1])
            dX.append(_sym(R @ Dx[-1] @ Rt))
        return dy, dnu, dS, dX, Ds, Dx

    def step_lengths(self, direction):
        """(ap, ad): fractions of the longest steps that keep S and X PSD."""
        aps, ads = zip(*map(_min_steps, self.lam, *direction[4:]))
        ap, ad = min(aps), min(ads)
        # step fraction approaches 1 as full steps become possible
        gamma = 0.9 + 0.09 * min(1.0, ap, ad)
        return min(1.0, gamma * ap), min(1.0, gamma * ad)

    def apply(self, v):
        """M v from G and W, without the assembled matrix."""
        self.it.form.applies += 1
        out = np.zeros(len(v))
        for g, W in zip(self.groups, self.W):
            out += g.adjoint(W @ g.lmi_step(v) @ W)
        return out

    def solve(self, rhs1):
        """(dy, dnu): M dy - E' dnu = rhs1 and E dy = r_e, to the target.

        The factored solve is kept when its rounding error bound
        eps |M| |dy|_1 already meets the target (every early iteration).
        Otherwise its residual is taken with `apply` and reduced by
        right-preconditioned GMRES on null(E): GMRES minimizes the
        residual, which is what the step needs, and the double factor
        leaves only the few directions blurred by its shift for the Krylov
        space to resolve.  GMRES also stops once the residual is down to
        `floor`: the dual residual can hold a part that no direction
        removes, and GMRES stalls at about its size, however far below
        that the target lies.
        """
        factor, target = self.factor, self.target
        dy, dnu, res = factor.solve(rhs1, self.it.r_e)
        bound = 4.0 * np.finfo(float).eps * factor.diag_max * float(
            np.abs(dy).sum()
        )
        if factor.shift == 0.0 and max(bound, res) <= target:
            return dy, dnu
        project = factor.project
        Mdy = self.apply(dy)
        res = project(rhs1 - Mdy)
        beta = float(np.sqrt(res @ res))
        V, Z, MZ = [res / beta] if beta > 0.0 else [], [], []
        H = np.zeros((self.MAX_KRYLOV + 1, self.MAX_KRYLOV))
        coef = np.zeros(0)
        for j in range(self.MAX_KRYLOV if beta > target else 0):
            Z.append(factor.precond(V[j]))
            MZ.append(self.apply(Z[j]))
            w = project(MZ[j])
            for _ in range(2):
                for i in range(j + 1):
                    h = float(w @ V[i])
                    H[i, j] += h
                    w -= h * V[i]
            H[j + 1, j] = float(np.sqrt(w @ w))
            e1 = np.zeros(j + 2)
            e1[0] = beta
            coef = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)[0]
            size = float(np.linalg.norm(e1 - H[: j + 2, : j + 1] @ coef))
            if size <= max(target, self.floor) or H[j + 1, j] <= 1e-30 * beta:
                break
            V.append(w / H[j + 1, j])
        for cf, zv, mzv in zip(coef, Z, MZ):
            dy += cf * zv
            Mdy += cf * mzv

        return dy, factor.multipliers(Mdy - rhs1)


# The OpenBLAS builds numpy and scipy each carry, with a thread pool each:
# a loaded module linked against the library (numpy's core, and the `_fblas`
# loaded above), and the suffix of its symbols.
_OPENBLAS = {
    "numpy": (np._core._multiarray_umath, "64_"),
    "scipy": (_fblas, ""),
}


@functools.cache
def _blas_pools():
    """{name: (get, set)} thread-count functions of each OpenBLAS found.

    The symbols are looked up through the handle of a module that links
    the library, so only libraries this process has loaded are touched.
    A library or symbol that is missing (another BLAS, another platform)
    is left out.
    """
    pools = {}
    for name, (module, suffix) in _OPENBLAS.items():
        try:
            lib = ctypes.CDLL(module.__file__)
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        pools[name] = (get, put)
    return pools


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS pool at one thread inside, the old counts restored after.

    The solve makes many small BLAS and LAPACK calls, which lose to thread
    start-up and to the hand-over between numpy's pool and scipy's (the
    one `_flapack` and `_fblas` link, found without scipy's packages); one
    thread also makes the rounding independent of the core count.  The
    counts are process-wide and unlocked: ratsos never solves concurrently.
    """
    pools = list(_blas_pools().values())
    counts = [get() for get, _ in pools]
    try:
        for _, put in pools:
            put(1)
        yield
    finally:
        for (_, put), n in zip(pools, counts):
            put(n)


@_one_blas_thread()
def solve_internal(sf, tol=1e-8, max_iter=200):
    """Solve the block SDP with the built-in interior-point method.

    Nesterov-Todd scaled path following with a Mehrotra predictor-corrector
    step from an infeasible start.  `_Form` sets the problem up once,
    `_Iterate` holds a point with its residuals, and `_Scaling` assembles,
    factors and solves the Newton system of one iteration: per connected
    component of the variables, with the equality rows eliminated exactly
    (`_BlockAngular`), and refined by GMRES near the optimum.
    Deterministic: fixed initialization and iteration rule, no randomness,
    and BLAS at one thread (`_one_blas_thread`).  Raises
    ProblemTooLargeError above the size cap (RATSOS_PSD_CAP overrides the
    default of 3000), and SolveError on a form with no decision variables
    or no PSD block.
    """
    if not sf.num_vars:
        raise SolveError(
            "the form has no decision variables: its LMI holds constants only"
        )
    total_dim = sf.total_psd_dim()
    if not total_dim:
        raise SolveError(
            "the form has no PSD block: there is no cone for the method to follow"
        )
    psd_cap = int(os.environ.get("RATSOS_PSD_CAP", DEFAULT_PSD_CAP))
    if total_dim > psd_cap:
        raise ProblemTooLargeError(
            f"total PSD dimension {total_dim} exceeds cap {psd_cap}; "
            "export the instance with the SDPA writer instead"
        )

    form = _Form(sf)
    it = form.start()
    best = None
    slow = 0
    status = "max_iter"
    for iterations in range(1, max_iter + 1):
        if best is None or it.err < best.err:
            best, slow = it, 0
        else:
            slow += 1
        if it.err <= tol:
            status = "optimal"
        elif slow >= 12:
            status = "stalled"
        elif not np.isfinite(it.err) or not np.isfinite(it.mu):
            status = "numerical_issue"
        # divergence heuristics for infeasible/unbounded instances
        elif it.dobj > 1e13 * form.data_scale and it.dinf < 1e-6:
            status = "infeasible"
        elif it.pobj < -1e13 * form.obj_scale and it.pinf < 1e-6:
            status = "unbounded"
        else:
            try:
                ap, ad, direction = _Scaling(it).predictor_corrector()
            except (ValueError, np.linalg.LinAlgError):
                status = "numerical_issue"
                break
            it = it.step(ap, ad, direction)
            continue
        break

    # best.err > tol: an iterate within tol ends the loop as optimal
    if status in ("max_iter", "stalled", "numerical_issue"):
        if best.err <= max(1e-5, 1e3 * tol):
            status = "near_optimal"
        elif status == "stalled":
            status = "numerical_issue"

    return SolveReport(
        status=status,
        primal=best.pobj,
        dual=best.dobj,
        gap=best.relgap,
        iterations=iterations,
        pinf=best.pinf,
        dinf=best.dinf,
        y=best.y,
        schur_blocks=tuple(int(n) for n in form.ba.sizes),
        krylov_applies=form.applies,
    )


# ---------------------------------------------------------------------------
# SDPA sparse format


def _fmt(value):
    return f"{value:.17g}"


def export_sdpa(sf, path):
    """Write the instance in SDPA sparse format (.dat-s).

    Equality rows are encoded as paired entries of a trailing diagonal block
    (negative block size); the 1x1 blocks land in the same diagonal block,
    ahead of the pairs.  Quintuples are emitted in (matno, blkno, i, j)
    lexicographic order with one-based indices, i <= j, 17 significant
    digits and LF line endings.
    """
    nf = sf.num_eq
    mat_blocks = [b for b in sf.blocks if b.size > 1]
    ones = [b for b in sf.blocks if b.size == 1]
    diag_size = len(ones) + 2 * nf
    sizes = [b.size for b in mat_blocks]
    nblock = len(sizes) + (1 if diag_size else 0)
    dbi = len(sizes) + 1

    entries = []  # (matno, blkno, i, j, value)
    # block number in the file, and offset within it, of every block
    places = [(bi, 0) for bi in range(1, dbi)]
    places += [(dbi, p) for p in range(len(ones))]
    for blk, (bno, off) in zip(mat_blocks + ones, places):
        for r, c, v in zip(blk.const_rows, blk.const_cols, blk.const_vals):
            if v != 0.0:
                entries.append((0, bno, int(r) + off + 1, int(c) + off + 1, -v))
        agg = {}
        for r, c, vid, a in zip(blk.rows, blk.cols, blk.varids, blk.coefs):
            key = (int(vid) + 1, bno, int(r) + off + 1, int(c) + off + 1)
            agg[key] = agg.get(key, 0.0) + a
        entries += [(*key, v) for key, v in agg.items() if v != 0.0]

    offset = len(ones)
    E = sf.eq_mat
    rows = np.repeat(np.arange(E.shape[0]), np.diff(E.indptr))
    for r, ccol, v in zip(rows, E.indices, E.data):
        if v == 0.0:
            continue
        p_plus = offset + 2 * int(r) + 1
        p_minus = p_plus + 1
        entries.append((int(ccol) + 1, dbi, p_plus, p_plus, v))
        entries.append((int(ccol) + 1, dbi, p_minus, p_minus, -v))
    for r, b in enumerate(sf.eq_rhs):
        if b != 0.0:
            p_plus = offset + 2 * r + 1
            entries.append((0, dbi, p_plus, p_plus, b))
            entries.append((0, dbi, p_plus + 1, p_plus + 1, -b))

    entries.sort(key=lambda e: e[:4])
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{sf.num_vars}\n")
        fh.write(f"{nblock}\n")
        size_strs = [str(s) for s in sizes]
        if diag_size:
            size_strs.append(str(-diag_size))
        fh.write(" ".join(size_strs) + "\n")
        fh.write(" ".join(_fmt(v) for v in sf.objective) + "\n")
        for mno, bno, i, j, v in entries:
            fh.write(f"{mno} {bno} {i} {j} {_fmt(v)}\n")
    return path


def read_sdpa(path):
    """Parse a .dat-s file back into an SdpStandardForm.

    The file encodes min c'x s.t. sum x_l F_l - F0 PSD, which maps to
    C = -F0 here.  Diagonal blocks and blocks of size 1 form one run of
    diagonal entries: opposed consecutive entries (the writer's encoding of
    an equality row) become equality rows, every other entry a 1x1 block.
    A malformed header or entry line, or an entry outside the declared
    matrices, blocks or block sizes, raises SolveError.
    """
    with open(path) as fh:
        lines = [
            ln for ln in fh.read().splitlines()
            if ln.strip() and not ln.lstrip().startswith(("*", '"'))
        ]
    try:
        mdim = int(lines[0].split()[0])
        nblock = int(lines[1].split()[0])
        clean = [
            ln.replace("{", " ").replace("}", " ").replace(",", " ").split()
            for ln in lines[2:4]
        ]
        sizes = [int(tok) for tok in clean[0]][:nblock]
        cvec = np.array([float(t) for t in clean[1]])
    except (IndexError, ValueError) as exc:
        raise SolveError(f"malformed SDPA header: {exc}") from None
    if len(sizes) != nblock:
        raise SolveError(f"{len(sizes)} block sizes for {nblock} blocks")
    if len(cvec) != mdim:
        raise SolveError(f"objective length {len(cvec)} != mDIM {mdim}")

    per = {
        i: {"rows": [], "cols": [], "vids": [], "coefs": [],
            "crows": [], "ccols": [], "cvals": []}
        for i, s in enumerate(sizes) if s > 1
    }
    # first slot of each diagonal or size-1 block in the run of diagonal
    # entries, and a label per slot
    slot0, labels = {}, []
    for i, s in enumerate(sizes):
        if s < 0 or s == 1:
            slot0[i] = len(labels)
            labels += [f"b{i + 1}:{j + 1}" for j in range(abs(s))]
    slots = [{} for _ in labels]  # variable -> coefficient, per slot
    dconst = np.zeros(len(labels))

    for ln in lines[4:]:
        toks = ln.split()
        if len(toks) != 5:
            raise SolveError(f"malformed entry line: {ln!r}")
        try:
            mno, bno, i, j = (int(t) for t in toks[:4])
            v = float(toks[4])
        except ValueError:
            raise SolveError(f"malformed entry line: {ln!r}") from None
        if not 0 <= mno <= mdim:
            raise SolveError(f"matrix number outside 0..{mdim}: {ln!r}")
        if not 1 <= bno <= nblock:
            raise SolveError(f"block number outside 1..{nblock}: {ln!r}")
        n = abs(sizes[bno - 1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise SolveError(f"entry outside its block of size {n}: {ln!r}")
        bno, i, j = bno - 1, i - 1, j - 1
        if bno in per:
            tgt = per[bno]
            r, c = min(i, j), max(i, j)
            if mno == 0:
                tgt["crows"].append(r)
                tgt["ccols"].append(c)
                tgt["cvals"].append(-v)
            else:
                tgt["rows"].append(r)
                tgt["cols"].append(c)
                tgt["vids"].append(mno - 1)
                tgt["coefs"].append(v)
        else:
            if i != j:
                raise SolveError("off-diagonal entry in a diagonal block")
            p = slot0[bno] + i
            if mno == 0:
                dconst[p] += -v
            else:
                slots[p][mno - 1] = slots[p].get(mno - 1, 0.0) + v

    blocks = [
        psd_block(f"b{i + 1}", sizes[i], t["rows"], t["cols"], t["vids"],
                  t["coefs"], t["crows"], t["ccols"], t["cvals"])
        for i, t in per.items()
    ]
    # opposed consecutive diagonal entries encode equality rows (our
    # writer's convention); rebuilding them keeps the solve
    # well-conditioned and is an equivalent problem either way
    paired = set()
    eq_rows = []
    for p in range(len(slots) - 1):
        row, mate = slots[p], slots[p + 1]
        if p in paired or not row or set(row) != set(mate):
            continue
        if all(row[v] + mate[v] == 0.0 for v in row) and (
            dconst[p] == -dconst[p + 1]
        ):
            eq_rows.append((row, -dconst[p]))
            paired.update((p, p + 1))
    for p, (label, row) in enumerate(zip(labels, slots)):
        if p not in paired:
            blocks.append(psd_block(label, 1, [0] * len(row), [0] * len(row),
                                    list(row), list(row.values()),
                                    [0], [0], [dconst[p]]))
    data, ri, ci, rb = [], [], [], []
    for r, (row, b) in enumerate(eq_rows):
        for v, a in sorted(row.items()):
            ri.append(r)
            ci.append(v)
            data.append(a)
        rb.append(b)
    return SdpStandardForm(
        num_vars=mdim,
        objective=cvec,
        blocks=blocks,
        eq_mat=_coo_to_csr(data, ri, ci, (len(eq_rows), mdim)),
        eq_rhs=np.asarray(rb, dtype=float),
    )
