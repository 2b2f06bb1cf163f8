"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is pinned in the assertions.
"""

import time

import numpy as np
import pytest

from ratsos.families import (
    gen_overlap_chain,
    gen_rand_srfo,
    gen_rayleigh,
    gen_reznick_chain,
    gen_reznick_sparse_chain,
    gen_rosenbrock_ratio,
    gen_unit_ball_mix,
    rayleigh_to_real,
)
from ratsos.oracle import grid_oracle
from ratsos.relax import (
    build,
    dirac_decision_vector,
    flatness_certificate,
    min_order,
    solve_relaxation,
)
from ratsos.sdp import export_sdpa, read_sdpa, solve_internal, to_standard_form
from ratsos.signsym import brute_force_sign_symmetries, sign_symmetries
from util import seeded_rng


def _report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_bound_table():
    """Mixed-parity ball instance: dense and per-case masked bounds."""
    t0 = time.time()
    prob = gen_unit_ball_mix()
    expected_dense = {2: -0.3563, 3: -0.3465}
    for k, want in expected_dense.items():
        res = solve_relaxation(prob, "dense", k)
        assert res.report.ok(), f"dense k={k}: {res.report.status}"
        assert abs(res.bound - want) <= 1e-3, (k, res.bound, want)
    cases = {
        None: {2: -0.4275, 3: -0.3469, 4: -0.3465},
        (1, 0, 2): {2: -0.4513, 3: -0.3546, 4: -0.3465},
        (2, 0, 1): {2: -0.4738, 3: -0.3550, 4: -0.3465},
    }
    for order, table in cases.items():
        for k, want in table.items():
            res = solve_relaxation(prob, "signsym", k, ratio_order=order)
            assert res.report.ok(), f"signsym {order} k={k}: {res.report.status}"
            assert abs(res.bound - want) <= 1e-3, (order, k, res.bound, want)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"11 bounds within 1e-3 of the table in {elapsed:.1f}s")


def test_criterion_2_chain_blocks():
    """Even chain, both dense and masked reach the optimum; masks shrink blocks."""
    t0 = time.time()
    prob = gen_reznick_chain(6, 2)
    dense = solve_relaxation(prob, "dense", 6)
    masked = solve_relaxation(prob, "signsym", 6)
    assert dense.report.ok() and masked.report.ok()
    assert abs(dense.bound - 5.0) <= 1e-2, dense.bound
    assert abs(masked.bound - 5.0) <= 1e-2, masked.bound
    hd = dense.rsdp.block_size_histogram()
    hm = masked.rsdp.block_size_histogram()
    assert sum(hm.values()) > sum(hd.values())
    assert max(hm) < max(hd)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    _report(
        2,
        f"dense {dense.bound:.4f} / masked {masked.bound:.4f}, "
        f"blocks {sum(hd.values())}->{sum(hm.values())} "
        f"(max {max(hd)}->{max(hm)}) in {elapsed:.1f}s",
    )


def _solve_facts(label, res):
    rep = res.report
    return (
        f"{label}: status {rep.status}, bound {res.bound!r}, gap {rep.gap:.2e}, "
        f"pinf {rep.pinf:.2e}, dinf {rep.dinf:.2e}, {rep.iterations} iterations"
    )


def test_criterion_3_sparse_chain_equivalence():
    """Per-clique relaxation with and without masks agrees (mask theorem)."""
    t0 = time.time()
    prob = gen_reznick_sparse_chain(5, 2)
    cs = solve_relaxation(prob, "cs", 6)
    csym = solve_relaxation(prob, "cs-signsym", 6)
    facts = _solve_facts("cs", cs) + "; " + _solve_facts("cs-signsym", csym)
    assert cs.report.ok() and csym.report.ok(), facts
    assert abs(cs.bound - 5.0) <= 1e-2, facts
    assert abs(csym.bound - 5.0) <= 1e-2, facts
    diff = abs(cs.bound - csym.bound)
    assert diff <= 1e-6, f"diff {diff:.2e}; {facts}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    _report(
        3,
        f"cs {cs.bound:.7f} vs masked {csym.bound:.7f}, "
        f"diff {diff:.2e} in {elapsed:.1f}s",
    )


def test_criterion_4_valley_chain_and_export(tmp_path):
    """Reciprocal valley chain at desk scale plus large-instance export."""
    t0 = time.time()
    prob = gen_rosenbrock_ratio(10)
    masked = solve_relaxation(prob, "cs-signsym", 2)
    assert masked.report.ok()
    assert abs(masked.bound - 10.0) <= 1e-3, masked.bound
    lifted = solve_relaxation(prob, "epigraph", 4)
    assert lifted.report.ok()
    assert abs(lifted.bound - 10.0) <= 1e-2, lifted.bound

    big = gen_rosenbrock_ratio(100)
    rsdp = build(big, "cs-signsym", 2)
    sf = to_standard_form(rsdp)
    path = tmp_path / "valley100.dat-s"
    export_sdpa(sf, str(path))
    back = read_sdpa(str(path))
    assert back.num_vars == sf.num_vars
    assert len(back.blocks) == len(sf.blocks)
    lines = path.read_text().splitlines()
    assert int(lines[0]) == sf.num_vars
    sizes = [int(tok) for tok in lines[2].split()]
    assert sum(abs(s) for s in sizes) >= sf.total_psd_dim()
    for ln in lines[4:]:
        toks = ln.split()
        assert len(toks) == 5 and int(toks[2]) <= int(toks[3])
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    _report(
        4,
        f"masked {masked.bound:.5f}, lifted {lifted.bound:.5f}, "
        f"export N=100 ok ({len(lines)} lines) in {elapsed:.1f}s",
    )


def test_criterion_5_random_instances():
    """Fresh random instances all reach the known optimum -N at k = d."""
    t0 = time.time()
    for seed in (101, 102, 103):
        prob = gen_rand_srfo(6, 4, 3, 0.2, seed)
        for method in ("dense", "signsym"):
            res = solve_relaxation(prob, method, 3)
            assert res.report.ok(), (seed, method, res.report.status)
            assert abs(res.bound - (-6.0)) <= 1e-3, (seed, method, res.bound)
    elapsed = time.time() - t0
    _report(5, f"6 solves at -6 within 1e-3 in {elapsed:.1f}s")


def _solve_cost(res):
    """Deterministic size of one solve: Schur dimension, sum of s^3 over the
    PSD blocks (the per-iteration factor and scaling work) and the largest
    block."""
    sf = to_standard_form(res.rsdp)
    return sf.num_vars, sum(b.size ** 3 for b in sf.blocks), max(sf.block_sizes())


def test_criterion_6_window_chain_comparison():
    """Lifted bound is no weaker than the masked per-clique bound; masks
    make the per-clique solve cheaper."""
    t0 = time.time()
    prob = gen_overlap_chain(8, 1)
    lifted = solve_relaxation(prob, "epigraph", 3)
    cs = solve_relaxation(prob, "cs", 3)
    masked = solve_relaxation(prob, "cs-signsym", 3)
    assert lifted.report.ok() and cs.report.ok() and masked.report.ok()
    assert lifted.bound >= masked.bound - 1e-6, (lifted.bound, masked.bound)
    # the cost is read off the standard form, not off a clock: Schur
    # dimension, sum of s^3 and largest block all shrink under the mask
    cs_cost = _solve_cost(cs)
    masked_cost = _solve_cost(masked)
    assert all(a < b for a, b in zip(masked_cost, cs_cost)), (masked_cost, cs_cost)
    elapsed = time.time() - t0
    _report(
        6,
        f"lifted {lifted.bound:.7f} >= masked {masked.bound:.7f} - 1e-6; "
        f"masked (m, sum s^3, max s) {masked_cost} < plain {cs_cost} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_7_property_suite(tmp_path):
    """Randomized structural properties across twenty instances."""
    t0 = time.time()
    rng = seeded_rng(777)
    shapes = [
        (1, 2, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1),
        (1, 3, 1), (2, 3, 1), (3, 3, 1), (4, 3, 1),
        (1, 2, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2),
        (1, 3, 2), (2, 3, 2), (3, 3, 2),
        (1, 4, 2), (2, 4, 2),
        (1, 2, 3), (2, 2, 3), (1, 3, 3),
    ]
    assert len(shapes) == 20
    checked_roundtrip = 0
    for idx, (N, n, d) in enumerate(shapes):
        prob = gen_rand_srfo(N, n, d, 0.5, seed=1000 + idx)
        d_min = min_order(prob)
        dense_bounds = {}
        sym_bounds = {}
        for k in (d_min, d_min + 1):
            dres = solve_relaxation(prob, "dense", k)
            sres = solve_relaxation(prob, "signsym", k)
            assert dres.report.ok() and sres.report.ok(), (N, n, d, k)
            dense_bounds[k] = dres.bound
            sym_bounds[k] = sres.bound
            # masked bound never exceeds the dense bound
            assert sres.bound <= dres.bound + 1e-6, (N, n, d, k)
            if k == d_min:
                first = dres
        # monotonicity over consecutive orders
        assert dense_bounds[d_min] <= dense_bounds[d_min + 1] + 2e-6
        assert sym_bounds[d_min] <= sym_bounds[d_min + 1] + 2e-6
        # soundness against the sampling oracle
        oracle = grid_oracle(prob, resolution=9, refine_iters=60)
        assert dense_bounds[d_min + 1] <= oracle.best_value + 2e-6
        # point-mass vector of a feasible point is feasible and dominates
        point = rng.uniform(-0.4, 0.4, size=n)
        y = dirac_decision_vector(first.rsdp, point)
        sf = to_standard_form(first.rsdp)
        if sf.num_eq:
            assert np.abs(sf.eq_mat @ y - sf.eq_rhs).max() <= 1e-10
        assert float(first.rsdp.objective @ y) >= first.report.primal - 1e-6
        # sign-symmetry groups agree with brute force
        if n <= 10:
            from ratsos.signsym import support_sets

            for s in support_sets(prob):
                g = sign_symmetries(s, n)
                assert sorted(g.elements()) == brute_force_sign_symmetries(s, n)
        # export round trip re-solves to the same optimum
        if idx % 5 == 0:
            path = tmp_path / f"rt{idx}.dat-s"
            export_sdpa(sf, str(path))
            back = read_sdpa(str(path))
            rep = solve_internal(back, tol=1e-9)
            assert rep.ok()
            scale = 1.0 + abs(first.report.primal)
            assert abs(rep.primal - first.report.primal) <= 1e-8 * scale
            checked_roundtrip += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s"
    _report(
        7,
        f"20 instances, {checked_roundtrip} round trips, all properties "
        f"hold in {elapsed:.1f}s",
    )


def test_criterion_8_certification_levels():
    """Flat truncation fires exactly at the exact relaxation order."""
    prob = gen_unit_ball_mix()
    low = solve_relaxation(prob, "dense", 2)
    high = solve_relaxation(prob, "dense", 3)
    assert flatness_certificate(low.rsdp, low.report) is False
    assert flatness_certificate(high.rsdp, high.report) is True
    assert low.certified is False
    assert high.certified is True
    _report(8, "certificate false at order 2, true at order 3")


def test_criterion_9_realification():
    """Realified quotients match complex arithmetic; scalar case is exact."""
    t0 = time.time()
    rng = seeded_rng(909)
    n, N = 3, 2
    prob = gen_rayleigh(n, N, seed=42)
    mats = np.random.default_rng(42)
    A_list, B_list = [], []
    for _ in range(N):
        C = mats.random((n, n)) + 1j * mats.random((n, n))
        D = mats.random((n, n)) + 1j * mats.random((n, n))
        A_list.append(C + C.conj().T)
        B_list.append(D.conj().T @ D)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1, 1, size=n)
        y = rng.uniform(-1, 1, size=n)
        z = x + 1j * y
        want = sum(
            (z.conj() @ A @ z).real / (z.conj() @ B @ z).real
            for A, B in zip(A_list, B_list)
        )
        got = prob.objective_value(np.concatenate([x, y]))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-10, worst

    scalar = rayleigh_to_real([np.array([[2.0]])], [np.array([[1.0]])])
    res = solve_relaxation(scalar, "dense", 2, tol=1e-11, max_iter=300)
    assert res.report.ok()
    assert abs(res.bound - 2.0) <= 1e-9, res.bound
    elapsed = time.time() - t0
    _report(
        9,
        f"1000 points within {worst:.1e}; scalar max bound "
        f"{res.bound:.12f} in {elapsed:.1f}s",
    )
