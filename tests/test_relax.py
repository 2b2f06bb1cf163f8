import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from ratsos import relax
from ratsos.corrsparse import build_cliques
from ratsos.errors import BuildError, OrderTooSmallError
from ratsos.families import (
    gen_motzkin_chain,
    gen_overlap_chain,
    gen_rand_srfo,
    gen_reznick_chain,
    gen_reznick_sparse_chain,
    gen_rosenbrock_ratio,
    gen_unit_ball_mix,
)
from ratsos.oracle import grid_oracle
from ratsos.poly import Polynomial, basis, full_basis
from ratsos.problem import Constraint, SrfoProblem, parse, serialize
from ratsos.relax import (
    build,
    dirac_decision_vector,
    flatness_certificate,
    min_order,
    reported_bound,
    solve_relaxation,
)
from ratsos.sdp import solve_internal, to_standard_form
from ratsos.signsym import (
    SignSymmetryGroup,
    in_closure,
    sign_symmetries,
    support_sets,
)
from util import scipy_csr, seeded_rng


def count_builds(monkeypatch):
    """Patch `relax.build` to record each call; returns the call list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(relax, "build", counted)
    return calls


def trivial_square():
    return parse("vars x1\nratio: (x1^2)/(1)\nconstraint: 1 - x1^2 >= 0\n")


def even_pair():
    """Two all-even ratios on the unit ball; every symmetry group is full."""
    n = 2
    one = Polynomial.constant(n, 1.0)
    x2 = Polynomial.variable(n, 0, 2)
    y2 = Polynomial.variable(n, 1, 2)
    ball = one - x2 - y2
    return SrfoProblem(
        nvars=n,
        ratios=[(x2, one + x2 + y2), (y2, one + 2.0 * x2 + y2)],
        constraints=[Constraint(ball, False)],
        name="even-pair",
    )


class TestOrders:
    def test_min_order_values(self):
        # the cubic numerator forces order 2, which is where the bound
        # table for this instance starts
        prob = gen_unit_ball_mix()
        assert min_order(prob, "dense") == 2
        prob2 = gen_reznick_sparse_chain(2, 1)
        assert min_order(prob2, "dense") == 3
        # epigraph lifts q by one degree
        assert min_order(gen_rosenbrock_ratio(3), "epigraph") == 3

    def test_order_too_small(self):
        prob = gen_reznick_sparse_chain(2, 1)
        with pytest.raises(OrderTooSmallError) as err:
            build(prob, "dense", 2)
        assert err.value.d_min == 3
        assert err.value.k == 2

    def test_spec_validation(self):
        with pytest.raises(BuildError, match="unknown method"):
            build(gen_unit_ball_mix(), "nonsense", 2)

    def test_bad_ratio_order(self):
        with pytest.raises(BuildError, match="permutation"):
            build(gen_unit_ball_mix(), "dense", 2, ratio_order=(0, 0, 1))


class TestStructure:
    # (instance, method, k) -> block-size histogram and equality row count
    PINNED = {
        ("ball-mix", "dense", 2): ({4: 3, 10: 3}, 21),
        ("ball-mix", "dense", 3): ({10: 3, 20: 3}, 71),
        ("ball-mix", "signsym", 2): (
            {1: 4, 2: 3, 3: 2, 4: 1, 5: 1, 7: 1, 10: 1}, 13),
        ("ball-mix", "signsym", 3): (
            {1: 1, 2: 3, 3: 1, 5: 3, 7: 2, 8: 1, 10: 1, 13: 1, 20: 1}, 37),
        ("ball-mix", "cs", 2): ({4: 1, 10: 3}, 30),
        ("ball-mix", "cs", 3): ({10: 1, 20: 3}, 105),
        ("ball-mix", "cs-signsym", 2): ({4: 1, 10: 3}, 30),
        ("ball-mix", "cs-signsym", 3): ({10: 1, 20: 3}, 105),
        ("overlap-chain-N8-s1", "cs", 3): ({6: 9, 10: 8}, 36),
        ("overlap-chain-N8-s1", "cs-signsym", 3): ({2: 9, 4: 17, 6: 8}, 22),
    }
    INSTANCES = {
        "ball-mix": gen_unit_ball_mix,
        "overlap-chain-N8-s1": lambda: gen_overlap_chain(8, 1),
    }

    def test_pinned_block_sizes_ball_mix(self):
        for (name, method, k), (hist, _) in self.PINNED.items():
            rsdp = build(self.INSTANCES[name](), method, k)
            assert rsdp.block_size_histogram() == hist, (name, method, k)

    def test_pinned_equality_row_counts(self):
        # dense: one normalization per measure plus two linking families
        # truncated at 2k - 2, a = 0 left out (3 + 2 * 9 at k=2,
        # 3 + 2 * 34 at k=3)
        for (name, method, k), (_, neq) in self.PINNED.items():
            rsdp = build(self.INSTANCES[name](), method, k)
            assert len(rsdp.eq_rows) == neq, (name, method, k)

    @pytest.mark.parametrize("method", relax.METHODS)
    @pytest.mark.parametrize("name", ["ball-mix", "overlap-chain-N8-s1"])
    def test_measures_tile_the_decision_vector(self, name, method):
        # the measures' column ranges tile the decision vector in order, and
        # every block and objective term stays inside a measure's range
        rsdp = build(self.INSTANCES[name](), method, 2)
        ends = [0]
        for m in rsdp.measures:
            assert m.offset == ends[-1]
            assert all(m.index[a] == m.offset + i for i, a in enumerate(m.monomials))
            ends.append(m.offset + len(m))
        assert ends[-1] == rsdp.num_decision
        labels = [m.label for m in rsdp.measures]
        for blk in rsdp.blocks:
            mi = labels.index(blk.label.split(":")[0])
            assert ends[mi] <= blk.varids.min() and blk.varids.max() < ends[mi + 1]
        assert rsdp.objective.shape == (rsdp.num_decision,)
        for gid in np.nonzero(rsdp.objective)[0]:
            assert any(lo <= gid < hi for lo, hi in zip(ends, ends[1:]))

    @pytest.mark.parametrize("method", ["dense", "signsym", "cs", "cs-signsym"])
    def test_every_measure_normalized_on_its_own(self, method):
        # L_i(q_i) = 1 for every measure i, each row inside its measure's
        # columns: no row ties one measure's scale to another's
        rsdp = build(gen_unit_ball_mix(), method, 2)
        normal = [cols for cols, _, rhs in rsdp.eq_rows if rhs == 1.0]
        assert len(normal) == len(rsdp.measures) == 3
        for m, cols in zip(rsdp.measures, normal):
            assert m.offset <= min(cols) and max(cols) < m.offset + len(m)

    @pytest.mark.parametrize("prob, method, k", [
        (gen_reznick_chain(6, 2), "dense", 6),
        (gen_reznick_sparse_chain(5, 2), "cs", 6),
        (gen_unit_ball_mix(), "signsym", 2),
        (gen_rosenbrock_ratio(10), "cs-signsym", 2),
    ], ids=["reznick-chain-dense", "reznick-sparse-chain-cs",
            "unit-ball-mix-signsym", "rosenbrock-ratio-cs-signsym"])
    def test_every_measure_has_a_group_and_unit_mass(self, prob, method, k):
        # every measure carries a sign-symmetry group, the trivial one for an
        # unmasked method, and its q rewritten in its own quotient is +-1 at
        # the centre of the scaled unit box
        rsdp = build(prob, method, k)
        centre = np.full(prob.nvars, 0.5)
        for m in rsdp.measures:
            assert isinstance(m.group, SignSymmetryGroup)
            if method in ("dense", "cs"):
                assert m.group.rank == 0
            qbar = Polynomial(prob.nvars, [
                (m2, c * c2) for mono, c in m.q.terms.items()
                for m2, c2 in m.reducer.reduce(mono)
            ])
            assert abs(abs(qbar.evaluate(centre)) - 1.0) <= 1e-12, m.label

    def test_mass_does_not_hang_on_term_order(self):
        # the generated and the reparsed sphere chain hold the same terms in
        # another order; their measures must be scaled to the same bits
        prob = gen_reznick_chain(6, 2)
        reparsed = parse(serialize(prob))
        assert [list(q.terms) for _, q in prob.ratios] != [
            list(q.terms) for _, q in reparsed.ratios]
        for a, b in zip(build(prob, "dense", 6).measures,
                        build(reparsed, "dense", 6).measures):
            assert a.q.terms == b.q.terms and a.p.terms == b.p.terms, a.label

    def test_signsym_block_accounting(self):
        # moment classes partition the index basis per measure, and within
        # each class all pairwise sums lie in the measure's closure
        prob = gen_unit_ball_mix()
        k = 2
        rsdp = build(prob, "signsym", k)
        groups = [
            sign_symmetries(s, prob.nvars) for s in support_sets(prob)
        ]
        mbasis = list(full_basis(prob.nvars, k))
        for mi, group in enumerate(groups):
            lay = rsdp.measures[mi]
            sizes = [b.size for _, b in lay.moment]
            assert sum(sizes) == len(mbasis)
            for _, blk in lay.moment:
                for v in blk.varids:
                    mono = lay.monomials[v - lay.offset]
                    assert in_closure(group, mono)

    def test_signsym_restricts_decision_vars(self):
        dense = build(gen_unit_ball_mix(), "dense", 2)
        sym = build(gen_unit_ball_mix(), "signsym", 2)
        assert sym.num_decision < dense.num_decision

    def test_quotient_reduction_drops_pivot(self):
        prob = parse(
            "vars x1 x2\nratio: (x1)/(1)\nconstraint: 1 - x1^2 - x2^2 == 0\n"
        )
        rsdp = build(prob, "dense", 2)
        lay = rsdp.measures[0]
        for mono in lay.monomials:
            assert mono[1] < 2
        assert len(rsdp.eq_rows) == 1  # only the normalization survives

    @pytest.mark.parametrize("text, pivots, value", [
        # the second pivot, x1, would close the cycle x2 -> x1 -> x2
        ("vars x1 x2\nratio: (x1)/(1)\n"
         "constraint: 1 - x1^2 - x2^2 == 0\n"
         "constraint: 2 - x1^2 - 3*x2^2 == 0\n", [1, None], -np.sqrt(0.5)),
        # the third constraint finds both of its variables already pivots
        ("vars x1 x2\nratio: (x1 + x2)/(1)\n"
         "constraint: 1 - x1^2 == 0\nconstraint: 1 - x2^2 == 0\n"
         "constraint: 2 - x1^2 - x2^2 == 0\n", [0, 1, None], -2.0),
    ])
    def test_quotient_reducer_rejects_unusable_pivots(self, text, pivots, value):
        # a rejected equality stays a localizing constraint, and the bound
        # is still the minimum over the variety
        prob = parse(text)
        reducer = relax.QuotientReducer(prob.nvars)
        assert [reducer.try_add(c.poly) for c in prob.constraints] == pivots
        for k in (1, 2):
            res = solve_relaxation(prob, "dense", k)
            assert res.report.status == "optimal"
            assert res.bound == pytest.approx(value, abs=1e-6)

    def test_epigraph_objective_is_value_vars(self):
        # one measure per extended clique, each with its own value c_i as
        # its only objective term
        prob = gen_rosenbrock_ratio(3)
        ne = prob.nvars + 3
        rsdp = build(prob, "epigraph", 3)
        nz = np.nonzero(rsdp.objective)[0]
        assert len(nz) == len(rsdp.measures) == 3
        for i, lay in enumerate(rsdp.measures):
            value = tuple(int(v == prob.nvars + i) for v in range(ne))
            own = [gid for gid in nz if lay.offset <= gid < lay.offset + len(lay)]
            assert own == [lay.index[value]]

    @pytest.mark.parametrize("prob, lifted_method, k", [
        (gen_rosenbrock_ratio(3), "cs-signsym", 3),
        (gen_unit_ball_mix(), "signsym", 2),
    ], ids=["rosenbrock-ratio-cliques", "unit-ball-mix-no-cliques"])
    def test_epigraph_is_ratio_method_of_lift(self, prob, lifted_method, k):
        # min sum c_i s.t. sign*p_i - c_i q_i = 0, written out by hand: per
        # extended clique with cliques, as one ratio (sum c_i)/1 without
        n, N = prob.nvars, prob.num_ratios
        sign = -1.0 if prob.maximize else 1.0

        def lift(poly):
            return Polynomial(n + N, {m + (0,) * N: c for m, c in poly.terms.items()})

        values = [Polynomial.variable(n + N, n + i) for i in range(N)]
        one = Polynomial.constant(n + N, 1.0)
        cons = [Constraint(lift(c.poly), c.equality) for c in prob.constraints]
        cons += [Constraint(lift(sign * p) - c * lift(q), True)
                 for c, (p, q) in zip(values, prob.ratios)]
        if prob.cliques is None:
            lifted = SrfoProblem(n + N, [(sum(values), one)], cons)
        else:
            cliques = [cl + (n + i,) for i, cl in enumerate(prob.cliques)]
            lifted = SrfoProblem(n + N, [(c, one) for c in values], cons, cliques)
        got = build(prob, "epigraph", k)
        ref = build(lifted, lifted_method, k)
        assert got.method == "epigraph" and got.problem is prob
        assert np.array_equal(got.objective, ref.objective)
        assert got.eq_rows == ref.eq_rows
        assert len(got.blocks) == len(ref.blocks)
        for a, b in zip(got.blocks, ref.blocks):
            assert (a.label, a.size) == (b.label, b.size)
            for field in ("rows", "cols", "varids", "coefs"):
                assert np.array_equal(getattr(a, field), getattr(b, field))


class TestBounds:
    def test_trivial_sos_bound(self):
        res = solve_relaxation(trivial_square(), "dense", 1)
        assert res.report.ok()
        assert res.bound == pytest.approx(0.0, abs=1e-7)

    def test_trivial_epigraph_bound(self):
        res = solve_relaxation(trivial_square(), "epigraph", 1)
        assert res.report.ok()
        assert res.bound == pytest.approx(0.0, abs=1e-6)

    def test_even_problem_signsym_equals_dense(self):
        prob = even_pair()
        d = solve_relaxation(prob, "dense", 2)
        s = solve_relaxation(prob, "signsym", 2)
        assert d.report.ok() and s.report.ok()
        assert abs(d.bound - s.bound) <= 1e-6

    def test_single_clique_cs_close_to_dense(self):
        # equal denominator degrees: the all-pairs linking of the per-clique
        # build coincides with the dense one, so the bounds agree
        prob = even_pair()
        prob.cliques = [(0, 1), (0, 1)]
        d = solve_relaxation(prob, "dense", 2)
        c = solve_relaxation(prob, "cs", 2)
        assert abs(d.bound - c.bound) <= 1e-6

    def test_dense_ratio_order_invariant(self):
        prob = gen_unit_ball_mix()
        bounds = []
        for order in (None, (1, 0, 2), (2, 1, 0)):
            res = solve_relaxation(prob, "dense", 2, ratio_order=order)
            bounds.append(res.bound)
        assert max(bounds) - min(bounds) <= 1e-6

    def test_signsym_ratio_order_sensitive(self):
        prob = gen_unit_ball_mix()
        bounds = []
        for order in (None, (1, 0, 2), (2, 0, 1)):
            res = solve_relaxation(prob, "signsym", 2, ratio_order=order)
            bounds.append(res.bound)
        assert len({round(b, 4) for b in bounds}) == 3

    def test_monotone_in_order(self):
        for prob in (gen_unit_ball_mix(), gen_rand_srfo(2, 2, 2, 0.5, seed=5)):
            prev = None
            for k in (min_order(prob), min_order(prob) + 1):
                res = solve_relaxation(prob, "dense", k)
                assert res.report.ok()
                if prev is not None:
                    assert res.bound >= prev - 2e-6
                prev = res.bound

    def test_sound_vs_oracle(self):
        for prob in (gen_unit_ball_mix(), gen_rand_srfo(3, 3, 2, 0.4, seed=9)):
            res = solve_relaxation(prob, "dense", min_order(prob))
            oracle = grid_oracle(prob, resolution=11, refine_iters=80)
            assert res.bound <= oracle.best_value + 2e-6

    def test_cs_signsym_matches_cs(self):
        for prob, k in (
            (gen_reznick_sparse_chain(2, 1), 3),
            (gen_overlap_chain(5, 1), 3),
            (gen_rosenbrock_ratio(4), 2),
        ):
            a = solve_relaxation(prob, "cs", k)
            b = solve_relaxation(prob, "cs-signsym", k)
            assert a.report.ok() and b.report.ok()
            assert abs(a.bound - b.bound) <= 5e-6

    def test_signsym_below_dense(self):
        rng = seeded_rng(97)
        for seed in range(4):
            prob = gen_rand_srfo(2, 3, 2, 0.5, seed=seed)
            k = min_order(prob) + 1
            d = solve_relaxation(prob, "dense", k)
            s = solve_relaxation(prob, "signsym", k)
            assert s.bound <= d.bound + 1e-6

    def test_maximize_reporting(self):
        prob = gen_rosenbrock_ratio(3)
        res = solve_relaxation(prob, "cs-signsym", 2)
        assert res.report.ok()
        # upper bound on a maximum of value 3
        assert res.bound >= 3.0 - 1e-6
        assert res.bound == pytest.approx(3.0, abs=1e-3)

    def test_valley_chain_plain_cs(self):
        res = solve_relaxation(gen_rosenbrock_ratio(4), "cs", 2)
        assert res.report.ok()
        assert res.bound == pytest.approx(4.0, abs=1e-3)

    def test_motzkin_chain_one_build_below_feasible_value(self, monkeypatch):
        # 7.99903 is c'y of a strictly feasible moment vector of this
        # relaxation (LMI eigenvalue floor 2.9e-10, equality residual 1e-17),
        # so the relaxation's value, and any sound bound, lies below it
        builds = count_builds(monkeypatch)
        res = solve_relaxation(gen_motzkin_chain(2), "cs-signsym", 5)
        rep = res.report
        facts = (rep.status, rep.gap, rep.pinf, rep.dinf, rep.iterations)
        assert rep.status == "optimal", facts
        assert len(builds) == 1
        assert res.bound <= 7.99903, (res.bound, facts)

    def test_capped_solve_builds_once(self, monkeypatch):
        # a solve stopped short of tolerance is reported as it ends, with
        # no second build
        builds = count_builds(monkeypatch)
        res = solve_relaxation(gen_unit_ball_mix(), "signsym", 2, max_iter=6)
        assert len(builds) == 1
        assert res.report.status == "max_iter"
        assert res.report.iterations == 6
        assert np.isnan(res.bound)


class TestDiracFeasibility:
    @pytest.mark.parametrize(
        "prob,method,k",
        [(gen_overlap_chain(3, 1), method, 2)
         for method in ("dense", "signsym", "cs", "cs-signsym", "epigraph")]
        # a maximization: the lifted point carries c_i = -p_i/q_i
        + [(gen_rosenbrock_ratio(3), "epigraph", 3)],
        ids=["dense-2", "signsym-2", "cs-2", "cs-signsym-2", "epigraph-2",
             "rosenbrock-ratio-epigraph-3"],
    )
    def test_feasible_point_vector(self, prob, method, k):
        rng = seeded_rng(101)
        rsdp = build(prob, method, k)
        sf = to_standard_form(rsdp)
        for _ in range(4):
            point = rng.uniform(-0.9, 0.9, size=prob.nvars)
            y = dirac_decision_vector(rsdp, point)
            if sf.num_eq:
                res = sf.eq_mat @ y - sf.eq_rhs
                assert np.abs(res).max() <= 1e-10
            for blk in sf.blocks:
                M = np.zeros((blk.size, blk.size))
                for r, c, v, a in zip(blk.rows, blk.cols, blk.varids, blk.coefs):
                    M[r, c] += a * y[v]
                    if r != c:
                        M[c, r] += a * y[v]
                eigs = np.linalg.eigvalsh(M)
                assert eigs.min() >= -1e-10

    def test_dirac_objective_dominates_bound(self):
        prob = gen_rand_srfo(3, 3, 2, 0.3, seed=13)
        res = solve_relaxation(prob, "dense", min_order(prob))
        rng = seeded_rng(103)
        for _ in range(5):
            point = rng.uniform(-0.5, 0.5, size=3)
            y = dirac_decision_vector(res.rsdp, point)
            value = float(res.rsdp.objective @ y)
            assert value >= res.report.primal - 1e-6

    def test_sphere_dirac_on_equality(self):
        prob = gen_reznick_sparse_chain(2, 1)
        rsdp = build(prob, "cs", 3)
        sf = to_standard_form(rsdp)
        point = np.ones(prob.nvars)
        y = dirac_decision_vector(rsdp, point)
        res = sf.eq_mat @ y - sf.eq_rhs
        assert np.abs(res).max() <= 1e-10
        assert float(rsdp.objective @ y) == pytest.approx(2.0, abs=1e-9)


class TestFlatness:
    def test_ball_mix_levels(self):
        prob = gen_unit_ball_mix()
        r2 = solve_relaxation(prob, "dense", 2)
        r3 = solve_relaxation(prob, "dense", 3)
        assert flatness_certificate(r2.rsdp, r2.report) is False
        assert flatness_certificate(r3.rsdp, r3.report) is True

    def test_ball_mix_levels_on_class_blocks(self):
        # signsym reaches the optimum one order after dense; the first
        # measure's group has rank 0 here, so its moment matrix is one block
        prob = gen_unit_ball_mix()
        assert solve_relaxation(prob, "signsym", 3).certified is False
        assert solve_relaxation(prob, "signsym", 4).certified is True

    def test_sphere_quotient_blocks(self):
        # the first measure's moment matrix is three class blocks on the
        # quotient basis of the sphere equalities
        res = solve_relaxation(gen_reznick_chain(6, 2), "signsym", 6)
        m = res.rsdp.measures[0]
        assert m.group.rank > 0 and m.reducer.relations
        assert res.certified is True

    def test_dirac_vector_is_flat(self):
        prob = gen_unit_ball_mix()
        rsdp = build(prob, "dense", 2)
        y = dirac_decision_vector(rsdp, np.array([0.3, -0.2, 0.1]))
        from ratsos.sdp import SolveReport

        fake = SolveReport(
            status="optimal", primal=0.0, dual=0.0, gap=0.0, iterations=0,
            y=y,
        )
        assert flatness_certificate(rsdp, fake) is True

    def test_rejects_cs_methods(self):
        prob = gen_overlap_chain(3, 1)
        res = solve_relaxation(prob, "cs", 2)
        with pytest.raises(BuildError):
            flatness_certificate(res.rsdp, res.report)


class TestExtract:
    def test_reported_bound_conservative(self):
        from ratsos.sdp import SolveReport

        rep = SolveReport(
            status="optimal", primal=1.0, dual=1.5, gap=0.0,
            iterations=0,
        )
        # dual exceeding primal is clipped back
        assert reported_bound(rep) == 1.0
        rep2 = SolveReport(
            status="optimal", primal=1.0, dual=0.5, gap=0.0,
            iterations=0,
        )
        assert reported_bound(rep2) == 0.5
        assert reported_bound(rep2, maximize=True) == -0.5


class TestPresolve:
    def test_dependent_rows_do_not_change_optimum(self):
        # an exact copy and a scaled copy of one equality row make E rank
        # deficient; the solver gives the dependent rows zero multipliers
        sf = to_standard_form(build(gen_reznick_sparse_chain(2, 1), "cs", 3))
        E, d = scipy_csr(sf.eq_mat), sf.eq_rhs
        r = E.shape[0] - 1
        more = dataclasses.replace(
            sf,
            eq_mat=sp.vstack([E, E[r], -2.5 * E[r]]).tocsr(),
            eq_rhs=np.r_[d, d[r], -2.5 * d[r]],
        )
        a = solve_internal(sf, tol=1e-9)
        b = solve_internal(more, tol=1e-9)
        assert more.num_eq == sf.num_eq + 2
        assert a.status == b.status == "optimal", (a.status, b.status)
        assert abs(a.primal - b.primal) <= 1e-6
