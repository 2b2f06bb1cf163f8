import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dsyr2k

import ratsos
from ratsos import sdp
from ratsos.cli import main
from ratsos.errors import ProblemTooLargeError, SolveError
from ratsos.families import (
    gen_motzkin_chain,
    gen_overlap_chain,
    gen_rand_srfo,
    gen_reznick_chain,
    gen_reznick_sparse_chain,
    gen_rosenbrock_ratio,
    gen_unit_ball_mix,
)
from ratsos.problem import parse, serialize
from ratsos.relax import build, reported_bound, solve_relaxation
from ratsos.sdp import (
    PsdBlockData,
    SdpStandardForm,
    export_sdpa,
    psd_block,
    read_sdpa,
    solve_internal,
    to_standard_form,
)
from util import scipy_csr, seeded_rng


def trivial_sdp():
    """min x s.t. [[x, 1], [1, x]] PSD; analytic optimum 1."""
    blk = PsdBlockData(
        label="t",
        size=2,
        rows=np.array([0, 1]),
        cols=np.array([0, 1]),
        varids=np.array([0, 0]),
        coefs=np.array([1.0, 1.0]),
        const_rows=np.array([0]),
        const_cols=np.array([1]),
        const_vals=np.array([1.0]),
    )
    return SdpStandardForm(num_vars=1, objective=np.array([1.0]), blocks=[blk])


def constructed_sdp(seed, m=6, s=4, nf=2, rank=2):
    """Random instance with a planted strictly complementary optimal pair.

    Returns (form, optimal_value): C is chosen so a sampled (y*, S*) is
    primal feasible and c so a complementary (X*, nu*) is dual feasible,
    which pins the optimum at c'y*.
    """
    rng = seeded_rng(seed)
    Fs = []
    for _ in range(m):
        A = rng.normal(size=(s, s))
        Fs.append(0.5 * (A + A.T))
    y_star = rng.normal(size=m)
    Q, _ = np.linalg.qr(rng.normal(size=(s, s)))
    spos = rng.uniform(0.5, 2.0, size=rank)
    xpos = rng.uniform(0.5, 2.0, size=s - rank)
    S_star = Q @ np.diag(np.concatenate([spos, np.zeros(s - rank)])) @ Q.T
    X_star = Q @ np.diag(np.concatenate([np.zeros(rank), xpos])) @ Q.T
    C = S_star - sum(y_star[i] * Fs[i] for i in range(m))
    E = rng.normal(size=(nf, m)) if nf else None
    nu_star = rng.normal(size=nf) if nf else np.zeros(0)
    c = np.array([float(np.tensordot(Fs[i], X_star)) for i in range(m)])
    if nf:
        c = c + E.T @ nu_star
    rows, cols, vids, coefs = [], [], [], []
    for i, F in enumerate(Fs):
        for r in range(s):
            for cc in range(r, s):
                if F[r, cc] != 0.0:
                    rows.append(r)
                    cols.append(cc)
                    vids.append(i)
                    coefs.append(F[r, cc])
    crows, ccols, cvals = [], [], []
    for r in range(s):
        for cc in range(r, s):
            if C[r, cc] != 0.0:
                crows.append(r)
                ccols.append(cc)
                cvals.append(C[r, cc])
    blk = PsdBlockData(
        label="r",
        size=s,
        rows=np.array(rows),
        cols=np.array(cols),
        varids=np.array(vids),
        coefs=np.array(coefs),
        const_rows=np.array(crows),
        const_cols=np.array(ccols),
        const_vals=np.array(cvals),
    )
    sf = SdpStandardForm(
        num_vars=m,
        objective=c,
        blocks=[blk],
        eq_mat=sp.csr_matrix(E) if nf else None,
        eq_rhs=E @ y_star if nf else None,
    )
    return sf, float(c @ y_star)


class TestInternalSolver:
    def test_trivial_analytic(self):
        rep = solve_internal(trivial_sdp(), tol=1e-9)
        assert rep.status == "optimal"
        assert rep.primal == pytest.approx(1.0, abs=1e-7)
        assert rep.dual == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_constructed_optimum_recovered(self, seed):
        sf, opt = constructed_sdp(seed)
        rep = solve_internal(sf, tol=1e-9)
        assert rep.ok()
        scale = max(1.0, abs(opt))
        assert abs(rep.primal - opt) <= 1e-6 * scale
        assert abs(rep.dual - opt) <= 1e-6 * scale

    def test_no_equalities(self):
        sf, opt = constructed_sdp(11, nf=0)
        rep = solve_internal(sf, tol=1e-9)
        assert rep.ok()
        assert abs(rep.primal - opt) <= 1e-6 * max(1.0, abs(opt))

    def test_weak_duality_each_solve(self):
        for seed in range(6, 10):
            sf, _ = constructed_sdp(seed, m=5, s=3, nf=1)
            rep = solve_internal(sf, tol=1e-8)
            # moment form is a minimization: primal >= dual - 10*tol
            scale = 1.0 + abs(rep.primal) + abs(rep.dual)
            assert rep.primal >= rep.dual - 10 * 1e-8 * scale

    def test_kkt_residuals_at_return(self):
        sf, _ = constructed_sdp(21)
        rep = solve_internal(sf, tol=1e-8)
        assert rep.status == "optimal"
        assert rep.pinf <= 1e-8
        assert rep.dinf <= 1e-8

    def test_deterministic_bit_for_bit(self):
        sf1, _ = constructed_sdp(31)
        sf2, _ = constructed_sdp(31)
        r1 = solve_internal(sf1, tol=1e-9)
        r2 = solve_internal(sf2, tol=1e-9)
        assert r1.primal == r2.primal
        assert r1.dual == r2.dual
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.y, r2.y)

    def test_size_cap(self, monkeypatch):
        sf, _ = constructed_sdp(41)
        monkeypatch.setenv("RATSOS_PSD_CAP", "2")
        with pytest.raises(ProblemTooLargeError, match="export"):
            solve_internal(sf)

    def test_no_decision_variables_is_a_solve_error(self, tmp_path):
        # C = I as a form, and C = -I read from SDPA (F0 = I there)
        sf = SdpStandardForm(
            num_vars=0,
            objective=np.zeros(0),
            blocks=[psd_block("C", 2, [], [], [], [], [0, 1], [0, 1], [1.0, 1.0])],
        )
        path = tmp_path / "const.dat-s"
        path.write_text("0\n1\n2\n{}\n0 1 1 1 1\n0 1 2 2 1\n")
        for form in (sf, read_sdpa(str(path))):
            with pytest.raises(SolveError, match="no decision variables"):
                solve_internal(form)

    def test_no_psd_block_is_a_solve_error(self):
        # one variable, c = 1, the rows y = 1 and y = 2, and no block: mu
        # would divide by a PSD dimension of 0
        sf = SdpStandardForm(
            num_vars=1,
            objective=np.array([1.0]),
            blocks=[],
            eq_mat=sp.csr_matrix(np.c_[[1.0, 1.0]]),
            eq_rhs=np.array([1.0, 2.0]),
        )
        with pytest.raises(SolveError, match="no PSD block"):
            solve_internal(sf)

    def test_diag_block_solve(self):
        # min y1 + y2 s.t. y1 >= 1, y2 >= 2 as two 1x1 PSD blocks
        blocks = [
            PsdBlockData(
                label=f"d{v}",
                size=1,
                rows=np.array([0]),
                cols=np.array([0]),
                varids=np.array([v]),
                coefs=np.array([1.0]),
                const_rows=np.array([0]),
                const_cols=np.array([0]),
                const_vals=np.array([-1.0 - v]),
            )
            for v in range(2)
        ]
        sf = SdpStandardForm(
            num_vars=2, objective=np.array([1.0, 1.0]), blocks=blocks
        )
        rep = solve_internal(sf, tol=1e-9)
        assert rep.status == "optimal"
        assert rep.primal == pytest.approx(3.0, abs=1e-7)

    @pytest.mark.parametrize("max_iter", [6, 9, 13])
    def test_capped_solve(self, max_iter):
        # equality rows and 1x1 blocks; capped, the loop ends short of
        # tol (15 iterations reach it) and reports its best iterate
        sf = to_standard_form(build(gen_unit_ball_mix(), "signsym", 2))
        assert 1 in sf.block_sizes() and sf.num_eq
        rep = solve_internal(sf, max_iter=max_iter)
        assert rep.iterations == max_iter
        values = [rep.primal, rep.dual, rep.gap, rep.pinf, rep.dinf]
        assert np.isfinite(values).all() and np.isfinite(rep.y).all()
        err = max(rep.gap, rep.pinf, rep.dinf)
        assert err > 1e-8
        want = "near_optimal" if err <= 1e-5 else "max_iter"
        assert rep.status == want, (err, rep.status)

    @pytest.mark.parametrize("blocks, objective, eq, status, iterations", [
        # min -y s.t. y >= 0
        ([(1.0, None)], -1.0, None, "unbounded", 6),
        # y >= 0 and -1 - y >= 0
        ([(1.0, None), (-1.0, -1.0)], 1.0, None, "infeasible", 6),
        # y >= 0, y = 1 and y = 2: infeasible, though no heuristic says so
        ([(1.0, None)], 1.0, ([1.0, 1.0], [1.0, 2.0]), None, None),
    ], ids=["unbounded", "infeasible", "inconsistent-equalities"])
    def test_one_variable_statuses(self, blocks, objective, eq, status, iterations):
        # the statuses of the divergence heuristics and of a failed solve
        sf = SdpStandardForm(
            num_vars=1,
            objective=np.array([objective]),
            blocks=[
                psd_block(f"b{i}", 1, [0], [0], [0], [coef],
                          *(() if const is None else ([0], [0], [const])))
                for i, (coef, const) in enumerate(blocks)
            ],
            eq_mat=None if eq is None else sp.csr_matrix(np.c_[eq[0]]),
            eq_rhs=None if eq is None else np.array(eq[1]),
        )
        rep = solve_internal(sf)
        if status is None:
            assert not rep.ok(), rep.status
        else:
            assert (rep.status, rep.iterations) == (status, iterations)

    def test_empty_set_stops_on_the_stall_exit(self):
        # min x1 over the empty set -1 - x1^2 - x2^2 >= 0: no divergence
        # heuristic fires, and without the 12-iteration stall exit the
        # loop runs 60 iterations
        prob = parse("vars x1 x2\nratio: (x1)/(1)\n"
                     "constraint: -1 - x1^2 - x2^2 >= 0\n")
        rep = solve_relaxation(prob, "dense", 1).report
        assert not rep.ok() and rep.iterations <= 20, (rep.status, rep.iterations)

    @pytest.mark.parametrize("family, method, k", [
        (lambda: gen_motzkin_chain(2), "cs-signsym", 5),
        (gen_unit_ball_mix, "signsym", 3),
    ], ids=["motzkin-chain-N2-cs-signsym", "unit-ball-mix-signsym"])
    def test_status_does_not_hang_on_group_order(self, monkeypatch, family,
                                                 method, k):
        # every sum over size groups runs in their order; the same form
        # with the groups descending instead of ascending must end the same
        sf = to_standard_form(build(family(), method, k))
        ascending = solve_internal(sf)
        monkeypatch.setattr(sdp, "sorted",
                            lambda sizes: sorted(sizes, reverse=True),
                            raising=False)
        sizes = [g.s for g in sdp._Form(sf).groups]
        assert 1 in sizes and len(sizes) > 2
        assert sizes == sorted(sizes, reverse=True)
        descending = solve_internal(sf)
        assert ascending.status == "optimal"
        assert ((descending.status, descending.iterations)
                == (ascending.status, ascending.iterations))
        assert reported_bound(descending, False) == pytest.approx(
            reported_bound(ascending, False), abs=1e-4)

    def test_previous_factor_freed(self, monkeypatch):
        # one Schur matrix and factor alive at a time: none of an earlier
        # iteration when the next is built
        live, seen = weakref.WeakSet(), []

        class Probe(sdp._BlockAngularFactor):
            def __init__(self, ba, M):
                seen.append(len(live))
                super().__init__(ba, M)
                live.add(self)

        monkeypatch.setattr(sdp, "_BlockAngularFactor", Probe)
        sf = to_standard_form(build(gen_reznick_sparse_chain(2, 1), "cs", 3))
        rep = solve_internal(sf)
        assert rep.status == "optimal"
        assert seen == [0] * (rep.iterations - 1)

    def test_masked_sparse_chain_reaches_tolerance(self):
        # five decoupled Reznick quotients on spheres: the optimum is not
        # strictly complementary and the objective is badly scaled (max |c|
        # about 1e4 against an optimum of 5); in double precision alone the
        # solve stops short of tol
        rsdp = build(gen_reznick_sparse_chain(5, 2), "cs-signsym", 6)
        rep = solve_internal(to_standard_form(rsdp), tol=1e-8)
        facts = (rep.status, rep.gap, rep.pinf, rep.dinf, rep.iterations)
        assert rep.status == "optimal", facts
        assert max(rep.gap, rep.pinf, rep.dinf) <= 1e-8, facts
        assert abs(reported_bound(rep) - 5.0) <= 1e-6, (reported_bound(rep), facts)


def schur_structure(sf):
    """Size groups and block-angular structure, as `solve_internal` sets them up."""
    form = sdp._Form(sf)
    return form.groups, form.ba


def first_iterate_schur(sf):
    """Component Schur matrices and a dense reference at the starting point.

    The solver starts from X_b = 10 I and S_b = eta_b I, so the NT scaling
    is W_b = sqrt(10 / eta_b) I and M = sum_b (10 / eta_b) G_b' G_b, with
    G_b the vectorized LMI map of block b.
    """
    groups, ba = schur_structure(sf)
    M = [np.zeros((n, n)) for n in ba.sizes]
    dense = np.zeros((sf.num_vars, sf.num_vars))
    for g, place in zip(groups, ba.place):
        eta = np.maximum(10.0, 1.5 * np.sqrt((g.C ** 2).sum(axis=(1, 2))))
        g.add_schur(np.sqrt(10.0 / eta)[:, None, None] * np.eye(g.s), M, place)
        ss = g.s * g.s
        G = scipy_csr(g.G)
        for b in range(g.B):
            Gb = G[b * ss:(b + 1) * ss]
            dense += (10.0 / eta[b]) * (Gb.T @ Gb).toarray()
    return ba, M, dense


def random_scaling(rng, g):
    """A random symmetric positive definite W_b per block of group g."""
    A = rng.normal(size=(g.B, g.s, g.s))
    return A @ np.transpose(A, (0, 2, 1)) + np.eye(g.s)


def assembled_schur(g, W, ba, place):
    """Group g's part of the Schur matrix from `add_schur`, as one m x m matrix."""
    M = [np.zeros((n, n)) for n in ba.sizes]
    g.add_schur(W, M, place)
    got = np.zeros((ba.m, ba.m))
    for vs, Mk in zip(ba.vars, M):
        got[np.ix_(vs, vs)] = Mk
    return got


def schur_reference(g, W):
    """sum_b G_b' (W_b kron W_b) G_b over the blocks of group g, dense.

    G_b is restricted to the columns it has entries in, which changes
    nothing but the cost.
    """
    ss = g.s * g.s
    G = scipy_csr(g.G)
    ref = np.zeros((G.shape[1],) * 2)
    for b in range(g.B):
        Gb = G[b * ss:(b + 1) * ss]
        cols = np.unique(Gb.indices)
        Gb = Gb[:, cols].toarray()
        ref[np.ix_(cols, cols)] += Gb.T @ np.kron(W[b], W[b]) @ Gb
    return ref


def dense_reference_factor(E):
    """The dense Schur factorization the block-angular one replaced.

    One matrix for all variables: pivoted QR of E', Cholesky of
    P M P + g Q1 Q1' with the same shift ladder.  It takes the place of
    `sdp._BlockAngularFactor` for a problem with one component.
    """
    Q, R, piv = sla.qr(scipy_csr(E).T.toarray(), mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    r = int((diag > 1e-12 * diag[0]).sum())
    Q1, R11 = Q[:, :r], R[:r, :r]

    class Factor:
        def __init__(self, ba, Ms):
            (M,) = Ms  # one component
            self.M = M
            MQ = M @ Q1
            K = Q1.T @ MQ + float(np.mean(np.diag(M))) * np.eye(r)
            B = 0.5 * (Q1 @ K) - MQ
            Mt = dsyr2k(1.0, Q1, B, beta=1.0, c=np.array(M, order="F"),
                        overwrite_c=True)
            scale = self.diag_max = float(np.abs(np.diag(Mt)).max())
            self.shift = 0.0
            while True:
                try:
                    with np.errstate(all="ignore"):
                        shifted = Mt + self.shift * np.eye(len(Mt)) if self.shift else Mt
                        self.cho = sla.cho_factor(shifted, check_finite=False)
                    if not np.isfinite(np.diag(self.cho[0])).all():
                        raise np.linalg.LinAlgError("non-finite Schur factor")
                    break
                except np.linalg.LinAlgError:
                    self.shift = 1e-14 * scale if not self.shift else 100.0 * self.shift
                    if self.shift > 1e-4 * scale:
                        raise

        def project(self, v):
            return v - Q1 @ (Q1.T @ v)

        def multipliers(self, v):
            dnu = np.zeros(E.shape[0])
            dnu[piv[:r]] = sla.solve_triangular(
                R11, np.asarray(Q1.T @ v, dtype=float)
            )
            return dnu

        def precond(self, w):
            with np.errstate(all="ignore"):
                x = sla.cho_solve(self.cho, w, check_finite=False)
            return self.project(x)

        def solve(self, rhs1, r_e):
            dy = Q1 @ sla.solve_triangular(R11, r_e[piv[:r]], trans="T")
            dy += self.precond(self.project(rhs1 - self.M @ dy))
            return dy, self.multipliers(self.M @ dy - rhs1), 0.0

    return Factor


class TestBlockAngularNewton:
    @pytest.mark.parametrize("prob, method, k, sizes, linking", [
        # six measures linked only at a = 0 (2k - deg q = 0), which their
        # normalization rows state: nothing is left linking them
        (gen_rand_srfo(6, 4, 3, 0.2, 1), "dense", 3, [210] * 6, False),
        (gen_reznick_sparse_chain(5, 2), "cs", 6, [169] * 5, False),
        # one measure per extended clique, linked on the shared variables
        (gen_overlap_chain(8, 1), "epigraph", 3, [44] * 8, True),
        # without cliques: one measure, so one component
        (gen_unit_ball_mix(), "epigraph", 2, [210], False),
        # 78 linking rows across 3 measures, each measure its own component
        (gen_unit_ball_mix(), "signsym", 4, [55, 95, 165], True),
    ], ids=["rand-srfo-dense", "reznick-sparse-cs", "overlap-epigraph",
            "unit-ball-mix-epigraph", "unit-ball-mix-signsym"])
    def test_components_and_merge(self, prob, method, k, sizes, linking):
        sf = to_standard_form(build(prob, method, k))
        _, ba = schur_structure(sf)
        assert list(ba.sizes) == sizes
        assert sorted(np.concatenate(ba.vars)) == list(range(sf.num_vars))
        assert bool(ba.r_L) == linking
        if method in ("cs", "dense"):
            # one normalization row per measure, nothing linking them
            assert ba.r_I == sf.num_eq == len(sizes)

    @pytest.mark.parametrize("m, rows, rhs, c, value", [
        # min z s.t. z - x = 0, [[x, 1], [1, x]] PSD
        (2, [[-1.0, 1.0]], [0.0], [0.0, 1.0], 1.0),
        # min z1 + z2 s.t. z1 + z2 = 2x, z1 = z2 and the same block
        (3, [[-2.0, 1.0, 1.0], [0.0, 1.0, -1.0]], [0.0, 0.0], [0.0, 1.0, 1.0], 2.0),
    ], ids=["one-free", "two-free"])
    def test_variable_in_no_block_is_a_zero_component(self, m, rows, rhs, c, value):
        # each z lies in no PSD block: its component is a 1x1 zero matrix,
        # which the shift ladder scales by 1 in place of its zero diagonal
        blk = psd_block("X", 2, [0, 1], [0, 1], [0, 0], [1.0, 1.0], [0], [1], [1.0])
        sf = SdpStandardForm(num_vars=m, objective=np.array(c), blocks=[blk],
                             eq_mat=sp.csr_matrix(rows), eq_rhs=np.array(rhs))
        _, ba = schur_structure(sf)
        assert ba.r_L > 0
        rep = solve_internal(sf, tol=1e-8)
        assert rep.status == "optimal"
        # tol bounds the gap relative to 1 + |primal| + |dual|
        slack = 1e-8 * (1.0 + 2.0 * value)
        assert rep.primal == pytest.approx(value, abs=slack)
        assert rep.dual == pytest.approx(value, abs=slack)
        assert rep.schur_blocks == (1,) * m

    @pytest.mark.parametrize("prob, method, k, linking", [
        # one normalization row in each of 5 and 6 components, and no
        # linking rows
        (gen_reznick_chain(6, 2), "signsym", 6, False),
        (gen_rand_srfo(6, 4, 3, 0.2, 1), "dense", 3, False),
        # 78 linking rows over 3 components
        (gen_unit_ball_mix(), "signsym", 4, True),
        # 28 linking rows over 8 components
        (gen_overlap_chain(8, 1), "cs", 3, True),
    ], ids=["reznick-chain-signsym", "rand-srfo-dense", "unit-ball-mix-signsym",
            "overlap-chain-cs"])
    def test_direction_matches_bordered_solve(self, prob, method, k, linking):
        sf = to_standard_form(build(prob, method, k))
        ba, Ms, M = first_iterate_schur(sf)
        assert len(ba.sizes) > 1 and ba.r_I > 0 and (ba.r_L > 0) == linking
        E = sf.eq_mat.toarray()
        m, nf = E.shape[1], E.shape[0]
        rhs1 = seeded_rng(5).normal(size=m)
        r_e = sf.eq_rhs
        kkt = np.block([[M, -E.T], [E, np.zeros((nf, nf))]])
        ref = np.linalg.solve(kkt, np.concatenate([rhs1, r_e]))
        dy, dnu, _ = sdp._BlockAngularFactor(ba, Ms).solve(rhs1, r_e)
        assert np.linalg.norm(dy - ref[:m]) <= 1e-9 * np.linalg.norm(ref[:m])
        assert np.linalg.norm(dnu - ref[m:]) <= 1e-9 * np.linalg.norm(ref[m:])

    def test_linking_rows_solve_reaches_tolerance(self):
        # three measures tied by 18 linking rows: the rounding bound of a
        # Cholesky solve does not cover the triangular solves around the
        # linking-row projection, and without checking their residual the
        # solve stalls near_optimal with a growing dual residual
        sf = to_standard_form(build(gen_unit_ball_mix(), "dense", 2))
        _, ba = schur_structure(sf)
        assert ba.r_L > 0
        rep = solve_internal(sf, tol=1e-8)
        facts = (rep.status, rep.gap, rep.pinf, rep.dinf, rep.iterations)
        assert rep.schur_blocks == (35, 35, 35)
        assert rep.status == "optimal", facts
        # the relaxation's value, below the optimum -0.3465101 it reaches at k=3
        assert abs(reported_bound(rep) + 0.3563465188) <= 1e-8, facts

    def test_schur_assembly_matches_gathered_products(self):
        # each group's component matrices against sum_b G_b' (W_b kron W_b) G_b
        # from the LMI map G alone, which checks the sparse F maps that the
        # assembly derives from the same entries
        cases = [
            (gen_reznick_chain(6, 2), "signsym", 6),
            # localizing blocks with multi-term entries
            (gen_rand_srfo(6, 4, 3, 0.2, 1), "dense", 3),
            # 1x1 blocks and nine size groups
            (gen_unit_ball_mix(), "signsym", 3),
            # blocks of 49
            (gen_reznick_sparse_chain(3, 2), "cs", 6),
        ]
        rng = seeded_rng(9)
        for prob, method, k in cases:
            sf = to_standard_form(build(prob, method, k))
            groups, ba = schur_structure(sf)
            for g, place in zip(groups, ba.place):
                W = random_scaling(rng, g)
                got = assembled_schur(g, W, ba, place)
                ref = schur_reference(g, W)
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert err <= 1e-12, (prob.name, method, k, g.s, err)

    @pytest.mark.parametrize("prob, method, k, kinds", [
        (gen_reznick_sparse_chain(5, 2), "cs", 6, {"whole"}),
        (gen_rand_srfo(6, 4, 3, 0.2, 1), "dense", 3, {"whole"}),
        # three components of 30, 50 and 84, each covered by its moment
        # blocks and in part by its localizing blocks
        (gen_unit_ball_mix(), "signsym", 3, {"whole", "mesh"}),
    ], ids=["reznick-sparse-cs", "rand-srfo-dense", "unit-ball-mix-signsym"])
    def test_block_places(self, prob, method, k, kinds):
        # a block covering its component adds into the whole view, any
        # other through an open mesh of 2 n_b local numbers: nothing of
        # order n_b^2 is kept per block
        groups, ba = schur_structure(to_standard_form(build(prob, method, k)))
        seen = set()
        for g, place in zip(groups, ba.place):
            for vs, (kb, idx) in zip(g.vars_list, place):
                assert set(vs) <= set(ba.vars[kb])
                if idx == slice(None):
                    seen.add("whole")
                    assert np.array_equal(ba.vars[kb], vs)
                    continue
                seen.add("mesh")
                rows, cols = idx
                assert rows.shape == (len(vs), 1) and cols.shape == (1, len(vs))
                assert np.array_equal(ba.vars[kb][rows.ravel()], vs)
                assert rows.size + cols.size <= 2 * len(vs)
        assert seen == kinds

    def test_linking_rows_keep_components_apart(self):
        # 34 equality rows, 28 of them linking, over six measures: each
        # measure is still factored on its own
        sf = to_standard_form(build(gen_rand_srfo(6, 4, 3, 0.2, 7003), "dense", 3))
        rep = solve_internal(sf)
        assert rep.schur_blocks == (210,) * 6
        assert rep.status == "optimal", (rep.gap, rep.pinf, rep.dinf)

    def test_krylov_applies_counted(self, monkeypatch):
        calls = []
        apply = sdp._Scaling.apply

        def spy(self, v):
            calls.append(len(v))
            return apply(self, v)

        monkeypatch.setattr(sdp._Scaling, "apply", spy)
        rep = solve_internal(to_standard_form(build(gen_unit_ball_mix(), "dense", 2)))
        assert rep.krylov_applies == len(calls) > 0

    def test_cholesky_shift_is_relative_per_entry(self, monkeypatch):
        # a numerically indefinite matrix whose diagonal spans 12 decades,
        # plus a zero row: each rung adds rho |A_ii| to every diagonal entry
        # (rho scale to the zero one), so one shift sized to the largest
        # entry does not swamp the small ones
        rng = seeded_rng(4)
        Z = rng.normal(size=(30, 29))
        C = Z @ Z.T
        C /= np.sqrt(np.outer(np.diag(C), np.diag(C)))
        C -= 1e-9 * np.eye(30)
        D = np.logspace(-6, 6, 30)
        A = np.zeros((31, 31), order="F")
        A[:30, :30] = D[:, None] * C * D[None, :]
        weights = np.r_[np.abs(np.diag(A))[:30], 7.0]
        calls = []

        def spy(a, **kwargs):
            calls.append(np.diag(a).copy())
            return potrf(a, **kwargs)

        potrf = sdp._potrf
        monkeypatch.setattr(sdp, "_potrf", spy)
        cho, rho = sdp._cholesky(A, 7.0)
        assert rho == pytest.approx(1e-8)
        assert np.array_equal(calls[0], np.diag(A))
        for j, diag in enumerate(calls[1:]):
            # the first rungs sit at 1e-14 relative, near the rounding of A_ii
            assert np.allclose((diag - np.diag(A)) / weights, 1e-14 * 100.0 ** j,
                               rtol=2e-2, atol=0.0)
        assert len(calls) == 5
        shifted = A + rho * np.diag(weights)
        R = np.triu(cho)
        assert np.linalg.norm(R.T @ R - shifted) <= 1e-12 * np.linalg.norm(shifted)

    def test_schur_assembly_benchmark(self, benchmark):
        # times add_schur on one group of three 49x49 blocks
        # (`pytest --benchmark-only -k schur`); asserts nothing about time
        sf = to_standard_form(build(gen_reznick_sparse_chain(3, 2), "cs", 6))
        (g,), ba = schur_structure(sf)
        W = random_scaling(seeded_rng(9), g)
        got = benchmark.pedantic(
            assembled_schur, args=(g, W, ba, ba.place[0]), rounds=3
        )
        ref = schur_reference(g, W)
        assert g.s == 49
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_solve_upper_matches_scipy(self, order, trans):
        # the direct trtrs call keeps solve_triangular's bits, which depend
        # on R's memory order as well as on the system
        rng = seeded_rng(3)
        R = np.array(np.triu(rng.normal(size=(40, 40))) + 8 * np.eye(40), order=order)
        b = rng.normal(size=40)
        got = sdp._solve_upper(R, b, trans=trans)
        assert np.array_equal(got, sla.solve_triangular(R, b, trans=trans))
        with pytest.raises(ValueError):
            sdp._solve_upper(R, np.full(40, np.nan), trans=trans)

    def test_one_component_gives_dense_iterates(self, monkeypatch):
        sf = to_standard_form(build(gen_reznick_chain(2, 1), "dense", 3))
        split = solve_internal(sf)
        monkeypatch.setattr(
            sdp, "_BlockAngularFactor", dense_reference_factor(sf.eq_mat)
        )
        dense = solve_internal(sf)
        assert split.schur_blocks == (49,)
        assert split.status == dense.status == "optimal"
        assert split.iterations == dense.iterations
        assert (split.primal, split.dual) == (dense.primal, dense.dual)
        assert np.array_equal(split.y, dense.y)


def repeated_entries(blk):
    """The block with every entry split into two repeated entries, a quarter
    and three quarters of it."""
    return psd_block(blk.label, blk.size, np.tile(blk.rows, 2), np.tile(blk.cols, 2),
                     np.tile(blk.varids, 2),
                     np.concatenate((0.25 * blk.coefs, 0.75 * blk.coefs)),
                     blk.const_rows, blk.const_cols, blk.const_vals)


def duplicates(A):
    """Number of entries of a `_Csr` at a (row, column) seen before."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    cols = A.indices[A.indptr[0]:A.indptr[-1]]
    return len(rows) - len(np.unique(rows * A.shape[1] + cols))


class TestDirectKernels:
    """The solver's CSR products run scipy's kernels on scipy's operands, so
    they must equal scipy's own `@` bit for bit."""

    @pytest.fixture(scope="class")
    def form(self):
        # unit-ball-mix dense k=2: three 10x10 moment blocks and three 4x4
        # localizing blocks, the latter given repeated entries, and
        # equality rows, 18 of them linking
        rsdp = build(gen_unit_ball_mix(), "dense", 2)
        blocks = [repeated_entries(b) if ":loc[" in b.label else b
                  for b in rsdp.blocks]
        sf = to_standard_form(rsdp)
        sf = SdpStandardForm(sf.num_vars, sf.objective, blocks, sf.eq_mat, sf.eq_rhs)
        return sf, sdp._Form(sf)

    @pytest.fixture(scope="class")
    def groups(self, form):
        groups = {g.s: g for g in form[1].groups}
        return {"moment": groups[10], "localizing": groups[4]}

    def test_repeated_entries_stay_apart(self, groups):
        g = groups["localizing"]
        assert sum(duplicates(FW) for FW in g.FW) > 0
        assert sum(duplicates(Fh) for Fh in g.Fh) > 0
        assert sum(duplicates(FW) for FW in groups["moment"].FW) == 0

    @pytest.mark.parametrize("kind", ["moment", "localizing"])
    def test_fw_w(self, groups, kind):
        g = groups[kind]
        rng = seeded_rng(61)
        for FW, Wb in zip(g.FW, random_scaling(rng, g)):
            for X in (Wb, Wb[:, :1]):  # csr_matvecs, and csr_matvec
                got = FW @ X
                assert got.shape == (FW.shape[0], X.shape[1])
                assert np.array_equal(got, scipy_csr(FW) @ X)

    @pytest.mark.parametrize("kind", ["moment", "localizing"])
    def test_fh_t(self, groups, kind):
        g = groups[kind]
        rng = seeded_rng(67)
        for Fh, vs in zip(g.Fh, g.vars_list):
            for width in (len(vs), 1):
                T = rng.normal(size=(Fh.shape[1], width))
                assert np.array_equal(Fh @ T, scipy_csr(Fh) @ T)

    @pytest.mark.parametrize("kind", ["moment", "localizing"])
    @pytest.mark.parametrize("dtype", [float], ids=["double"])
    def test_g_y_and_gt_t(self, groups, kind, dtype):
        g = groups[kind]
        rng = seeded_rng(71)
        y = (rng.normal(size=g.G.shape[1]) / 3).astype(dtype)
        t = (rng.normal(size=g.GT.shape[1]) / 3).astype(dtype)
        for A, x in [(g.G, y), (g.GT, t)]:
            got = A @ x
            assert got.dtype == dtype
            assert np.array_equal(got, scipy_csr(A) @ x)

    def test_transposes_match_scipy(self, form, groups):
        # G' and E' are sorted out of G's and E's own arrays; they must be
        # the arrays of scipy's transpose, dtypes included
        sf, form = form
        assert sf.num_eq > 0
        pairs = [(g.GT, scipy_csr(g.G).T.tocsr()) for g in groups.values()]
        pairs.append((form.ET, scipy_csr(sf.eq_mat).T.tocsr()))
        for got, want in pairs:
            assert got.shape == want.shape
            for a, b in [(got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)]:
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


def wvw(W, V):
    """W V W per block, as `_Scaling.apply` forms it."""
    return W @ V @ W


class TestScipyExtensions:
    """scipy's compiled modules, loaded without its packages, and the steps
    of scipy's own functions rebuilt on them, bit for bit."""

    @staticmethod
    def qr_reference(At):
        Q, R, piv = sla.qr(At, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        r = int((diag > 1e-12 * diag[0]).sum())
        return Q[:, :r], R[:r, :r], piv[:r]

    def assert_qr_matches(self, At):
        got, want = sdp._pivoted_qr(At), self.qr_reference(At)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.f_contiguous == b.flags.f_contiguous
            assert np.array_equal(a, b)

    def test_pivoted_qr_on_intra_and_linking_rows(self, monkeypatch):
        # unit-ball-mix dense k=2: three components, a normalization row in
        # each of them, and 18 linking rows
        seen = []
        qr = sdp._pivoted_qr
        monkeypatch.setattr(sdp, "_pivoted_qr", lambda At: seen.append(At) or qr(At))
        ba = sdp._Form(to_standard_form(build(gen_unit_ball_mix(), "dense", 2))).ba
        monkeypatch.undo()
        assert ba.r_I > 0 and ba.r_L > 0
        assert len(seen) == sum(Q is not None for Q in ba.Q) + 1 == 4
        for At in seen:
            self.assert_qr_matches(At)

    @pytest.mark.parametrize("shape", [(12, 7), (5, 9)], ids=["tall", "wide"])
    def test_pivoted_qr_rank_deficient(self, shape):
        rng = seeded_rng(83)
        At = rng.normal(size=(shape[0], 4)) @ rng.normal(size=(4, shape[1]))
        assert len(sdp._pivoted_qr(At)[2]) == 4
        self.assert_qr_matches(At)

    def test_pivoted_qr_wide_full_rank(self):
        self.assert_qr_matches(seeded_rng(89).normal(size=(3, 8)))

    @pytest.mark.parametrize("rows, cols, shape", [
        ([2, 0, 2, 0, 2, 3], [3, 1, 3, 0, 0, 4], (5, 6)),  # repeats, unsorted
        ([1, 1, 0], [4, 2, 3], (3, 5)),                    # unsorted, no repeats
        ([0, 0, 2], [1, 3, 0], (4, 4)),                    # canonical
        ([], [], (3, 4)),                                  # nnz = 0
    ], ids=["duplicates", "unsorted", "canonical", "empty"])
    def test_coo_to_csr_matches_scipy(self, rows, cols, shape):
        data = [0.1 * (i + 1) + 1e-17 * i for i in range(len(rows))]
        got = sdp._coo_to_csr(data, rows, cols, shape)
        want = sp.csr_matrix((data, (rows, cols)), shape=shape)
        assert got.shape == want.shape
        for a, b in [(got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)]:
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert np.array_equal(got.toarray(), want.toarray())

    def test_missing_extension_names_its_path(self, monkeypatch, tmp_path):
        find_spec = importlib.util.find_spec
        fake = types.SimpleNamespace(origin=str(tmp_path / "scipy" / "__init__.py"))

        def fake_find_spec(name, *args):
            return fake if name == "scipy" else find_spec(name, *args)

        monkeypatch.setattr(importlib.util, "find_spec", fake_find_spec)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        path = str(tmp_path / "scipy" / "linalg" / "_flapack")
        with pytest.raises(ImportError, match=re.escape(path)):
            sdp._scipy_extension("linalg._flapack")

    def test_scipy_imported_after_ratsos_binds_the_modules(self):
        # a fresh interpreter, ratsos first: scipy's packages get their
        # compiled modules as attributes, holding the solver's functions
        script = (
            "from ratsos import sdp\n"
            "import scipy.linalg, scipy.sparse\n"
            "assert scipy.sparse._sparsetools.csr_matvec is sdp._csr_matvec\n"
            "assert scipy.linalg._flapack.dpotrf is sdp._potrf\n"
            "assert scipy.linalg.lapack.dpotrf is sdp._potrf\n"
            "assert scipy.linalg._fblas.dsyr2k is sdp._syr2k\n"
        )
        src = str(Path(ratsos.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_scipy_packages_reuse_the_loaded_modules(self):
        # scipy's module is this one when scipy was imported first, and
        # otherwise a second module holding the same objects
        for module in (sdp._flapack, sdp._fblas, sdp._sparsetools):
            loaded = importlib.import_module(module.__name__)
            for key, value in vars(module).items():
                if not key.startswith("__"):
                    assert getattr(loaded, key) is value, key
        assert sla.lapack.dpotrf is sdp._potrf
        assert sla.blas.dsyr2k is sdp._syr2k


class TestDoubleRefinement:
    """The Newton system is refined in double precision, on BLAS."""

    def test_apply_is_double_schur_product(self):
        # at the start the Schur matrix is known in closed form
        # (`first_iterate_schur`); the refinement's operator must agree
        sf = to_standard_form(build(gen_unit_ball_mix(), "dense", 2))
        _, _, M = first_iterate_schur(sf)
        scaling = sdp._Scaling(sdp._Form(sf).start())
        v = seeded_rng(83).normal(size=sf.num_vars)
        got = scaling.apply(v)
        assert got.dtype == np.float64
        assert np.linalg.norm(got - M @ v) <= 1e-12 * np.linalg.norm(M @ v)

    def test_refinement_carries_a_row(self):
        # the refinement fires on reznick-chain-M6-d2 signsym k=6 (a
        # table2 row), and the row still ends optimal
        run = solve_relaxation(gen_reznick_chain(6, 2), "signsym", 6)
        rep = run.report
        assert rep.status == "optimal", (rep.gap, rep.pinf, rep.dinf)
        assert rep.krylov_applies > 0

    @pytest.mark.parametrize("source", ["generator", "file"])
    def test_valley_chain_bound(self, source):
        # rosenbrock-ratio-N10, a maximization, as built and as read back
        # from its file with the sense set as `--maximize` sets it: the
        # bound must be ok() and an upper bound within 1e-6 relative
        prob = gen_rosenbrock_ratio(10)
        opt = prob.known_optimum
        if source == "file":
            prob = parse(serialize(prob))
            assert not prob.maximize
            prob.maximize = True
        run = solve_relaxation(prob, "cs-signsym", 2)
        assert run.report.ok(), run.report.status
        assert opt <= run.bound <= opt + 1e-6 * max(1.0, abs(opt)), run.bound

    def test_wvw_benchmark(self, benchmark):
        # times the W V W of `_Scaling.apply` on one group of three 49x49
        # blocks (`pytest --benchmark-only -k wvw`); asserts nothing about
        # time
        sf = to_standard_form(build(gen_reznick_sparse_chain(3, 2), "cs", 6))
        (g,), _ = schur_structure(sf)
        rng = seeded_rng(9)
        W = random_scaling(rng, g)
        V = g.lmi_step(rng.normal(size=sf.num_vars) / 3)
        got = benchmark.pedantic(wvw, args=(W, V), rounds=3)
        want = np.einsum("bij,bjk,bkl->bil", W, V, W)
        assert g.s == 49 and got.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestSdpaFormat:
    def test_round_trip_resolve(self, tmp_path):
        sf, opt = constructed_sdp(51, m=4, s=3, nf=2)
        rep1 = solve_internal(sf, tol=1e-9)
        path = tmp_path / "round.dat-s"
        export_sdpa(sf, str(path))
        back = read_sdpa(str(path))
        # paired diagonal entries are recognized and restored as equalities
        assert back.num_eq == 2
        assert 1 not in back.block_sizes()
        rep2 = solve_internal(back, tol=1e-9)
        assert rep2.ok()
        assert abs(rep2.primal - rep1.primal) <= 1e-8 * max(1.0, abs(rep1.primal))

    def test_round_trip_one_by_one_blocks_with_equalities(self, tmp_path):
        # four 1x1 blocks and 13 equality rows share the trailing diagonal
        # block of the file
        sf = to_standard_form(build(gen_unit_ball_mix(), "signsym", 2))
        assert sf.block_sizes().count(1) == 4 and sf.num_eq == 13
        first, second = tmp_path / "a.dat-s", tmp_path / "b.dat-s"
        export_sdpa(sf, str(first))
        back = read_sdpa(str(first))
        export_sdpa(back, str(second))
        assert first.read_bytes() == second.read_bytes()
        assert back.num_eq == sf.num_eq
        assert back.total_psd_dim() == sf.total_psd_dim() == 42
        assert sorted(back.block_sizes()) == sorted(sf.block_sizes())

    @pytest.mark.parametrize("entry", [
        "1 3 1 1 1.0",  # block 3 of 2
        "1 1 3 3 1.0",  # entry (3, 3) of a 2x2 block
        "1 2 5 5 1.0",  # entry (5, 5) of a size -2 diagonal block
        "3 1 1 1 1.0",  # matrix 3 of mDIM 2
    ], ids=["block", "matrix-entry", "diagonal-entry", "matrix-number"])
    def test_read_rejects_out_of_range_entries(self, tmp_path, entry):
        path = tmp_path / "bad.dat-s"
        path.write_text(f"2\n2\n2 -2\n1 1\n{entry}\n")
        with pytest.raises(SolveError, match="outside"):
            read_sdpa(str(path))

    @pytest.mark.parametrize("text", [
        "",
        "2\n1\n2\n",  # no objective line
        "2\n1\nx\n1 2\n",  # block size not an integer
        "2\n2\n2 -2\n1 1\n1 1 1 1 zz\n",  # entry value not a number
    ], ids=["empty", "short-header", "block-size", "entry-value"])
    def test_read_rejects_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.dat-s"
        path.write_text(text)
        with pytest.raises(SolveError, match="malformed"):
            read_sdpa(str(path))

    def test_trivial_round_trip(self, tmp_path):
        # no equality rows: read back as E with 0 rows, written again alike
        sf = trivial_sdp()
        path, again = tmp_path / "t.dat-s", tmp_path / "u.dat-s"
        export_sdpa(sf, str(path))
        back = read_sdpa(str(path))
        export_sdpa(back, str(again))
        assert back.num_eq == 0 and back.eq_mat.shape == (0, 1)
        assert path.read_bytes() == again.read_bytes()
        rep = solve_internal(back, tol=1e-9)
        assert rep.primal == pytest.approx(1.0, abs=1e-7)

    def test_header_and_ordering(self, tmp_path):
        sf, _ = constructed_sdp(61, m=3, s=2, nf=1)
        path = tmp_path / "h.dat-s"
        export_sdpa(sf, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "3"
        assert lines[1] == "2"
        sizes = lines[2].split()
        assert sizes[0] == "2"
        assert int(sizes[1]) == -2  # one equality -> paired diagonal entries
        assert len(lines[3].split()) == 3
        quintuples = [tuple(ln.split()) for ln in lines[4:]]
        keys = [(int(a), int(b), int(i), int(j)) for a, b, i, j, _ in quintuples]
        assert keys == sorted(keys)
        for _, _, i, j, _ in quintuples:
            assert int(i) <= int(j)

    def test_golden_file(self, tmp_path):
        # frozen byte-exact rendering of the trivial SDP plus one equality
        eq = sp.csr_matrix(np.array([[2.0]]))
        sf = SdpStandardForm(
            num_vars=1,
            objective=np.array([1.0]),
            blocks=trivial_sdp().blocks,
            eq_mat=eq,
            eq_rhs=np.array([0.5]),
        )
        path = tmp_path / "g.dat-s"
        export_sdpa(sf, str(path))
        expected = (
            "1\n"
            "2\n"
            "2 -2\n"
            "1\n"
            "0 1 1 2 -1\n"
            "0 2 1 1 0.5\n"
            "0 2 2 2 -0.5\n"
            "1 1 1 1 1\n"
            "1 1 2 2 1\n"
            "1 2 1 1 2\n"
            "1 2 2 2 -2\n"
        )
        assert path.read_text() == expected

    def test_seventeen_digit_coefficients(self, tmp_path):
        blk = PsdBlockData(
            label="p",
            size=1,
            rows=np.array([0]),
            cols=np.array([0]),
            varids=np.array([0]),
            coefs=np.array([1.0 / 3.0]),
            const_rows=np.array([], dtype=int),
            const_cols=np.array([], dtype=int),
            const_vals=np.array([]),
        )
        sf = SdpStandardForm(
            num_vars=1, objective=np.array([0.1]), blocks=[blk]
        )
        path = tmp_path / "p.dat-s"
        export_sdpa(sf, str(path))
        text = path.read_text()
        assert "0.33333333333333331" in text
        assert float(text.splitlines()[3]) == 0.1


def pool_counts():
    return {name: get() for name, (get, _) in sdp._blas_pools().items()}


class TestBlasThreads:
    """solve_internal runs with every OpenBLAS pool at one thread."""

    @pytest.fixture
    def two_threads(self):
        """Each pool at two threads, so that a missed restore shows."""
        pools = sdp._blas_pools()
        if not pools:
            pytest.skip("no OpenBLAS thread setter in this process")
        before = pool_counts()
        for _, put in pools.values():
            put(2)
        yield {name: 2 for name in pools}
        for name, (_, put) in pools.items():
            put(before[name])

    def test_one_thread_inside_the_loop(self, two_threads, monkeypatch):
        seen = []

        class Probe(sdp._BlockAngularFactor):
            def __init__(self, ba, M):
                seen.append(pool_counts())
                super().__init__(ba, M)

        monkeypatch.setattr(sdp, "_BlockAngularFactor", Probe)
        assert solve_internal(trivial_sdp()).status == "optimal"
        assert seen and all(c == dict.fromkeys(two_threads, 1) for c in seen)
        assert pool_counts() == two_threads

    def test_counts_restored_after_a_raise(self, two_threads, monkeypatch):
        def broken(ba, M):
            raise RuntimeError("factor broke")

        monkeypatch.setattr(sdp, "_BlockAngularFactor", broken)
        with pytest.raises(RuntimeError, match="factor broke"):
            solve_internal(trivial_sdp())
        assert pool_counts() == two_threads

    def test_counts_restored_after_an_order_sweep(self, two_threads, tmp_path,
                                                  capsys):
        path = tmp_path / "trivial.srfo"
        path.write_text("vars x1\nratio: (x1^2)/(1)\nconstraint: 1 - x1^2 >= 0\n")
        assert main(["solve", str(path), "--orders", "2..3"]) == 0
        capsys.readouterr()
        assert pool_counts() == two_threads

    @pytest.mark.parametrize("module", [np, scipy], ids=["numpy", "scipy"])
    def test_openblas_setter_found(self, module):
        # a wheel that renames the symbols must fail here, not run threaded
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "scipy-openblas" not in blas.get("name", ""):
            pytest.skip(f"{module.__name__} is not built on scipy-openblas")
        assert module.__name__ in sdp._blas_pools()

    def test_thread_count_does_not_change_y(self):
        # the smallest bench row whose y depended on the thread count
        script = (
            "import hashlib\n"
            "from ratsos.families import gen_overlap_chain\n"
            "from ratsos.relax import solve_relaxation\n"
            "res = solve_relaxation(gen_overlap_chain(8, 1), 'cs-signsym', 3)\n"
            "print(hashlib.sha256(res.report.y.tobytes()).hexdigest())\n"
        )
        src = str(Path(ratsos.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=path),
                capture_output=True, text=True, check=True, timeout=600,
            ).stdout
            for n in ("2", "1")
        ]
        assert digests[0] == digests[1] != ""
