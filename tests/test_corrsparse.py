import numpy as np
import pytest

from ratsos.corrsparse import CliqueStructure, build_cliques, ensure_ball_constraints
from ratsos.errors import CliqueStructureError
from ratsos.families import (
    gen_motzkin_chain,
    gen_reznick_chain,
    gen_rosenbrock_ratio,
    gen_shekel,
)
from ratsos.poly import Polynomial
from ratsos.problem import Constraint, SrfoProblem
from util import seeded_rng


def _toy_problem(nvars, cliques, constraint_vars=()):
    """One ratio per clique, each using exactly its clique's variables."""
    ratios = []
    for cl in cliques:
        p = Polynomial.zero(nvars)
        for v in cl:
            p = p + Polynomial.variable(nvars, v, 2)
        ratios.append((p, Polynomial.constant(nvars, 1.0)))
    constraints = []
    for vars_ in constraint_vars:
        g = Polynomial.constant(nvars, 1.0)
        for v in vars_:
            g = g - Polynomial.variable(nvars, v, 2)
        constraints.append(Constraint(g, False))
    return SrfoProblem(
        nvars=nvars, ratios=ratios, constraints=constraints, cliques=list(cliques)
    )


class TestBuildCliques:
    def test_motzkin_chain_overlaps(self):
        cs = build_cliques(gen_motzkin_chain(3))
        assert cs.rip_order == (0, 1, 2)
        assert cs.shared == {(0, 1): (2, 3), (1, 2): (4, 5)}
        # each sphere lives inside its own clique
        assert cs.assign == ((0,), (1,), (2,))

    def test_single_ratio(self):
        prob = gen_reznick_chain(3, 1)
        cs = build_cliques(prob)
        assert len(cs.cliques) == 2
        prob_single = SrfoProblem(
            nvars=3,
            ratios=[prob.ratios[0]],
            constraints=prob.constraints,
            cliques=[(0, 1, 2)],
        )
        cs1 = build_cliques(prob_single)
        assert cs1.shared == {}

    def test_rip_violation_unrepairable(self):
        # a triangle of pair-cliques violates RIP in every order
        prob = _toy_problem(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(CliqueStructureError, match="running intersection"):
            build_cliques(prob)

    def test_rip_given_order_witness_and_repair(self):
        # {1,2},{3,4},{1,3} fails at the third clique in the given order
        # (overlap {1,3} fits in neither earlier clique) but an MCS
        # reordering repairs it
        prob = _toy_problem(4, [(0, 1), (2, 3), (0, 2)])
        cs = build_cliques(prob)
        assert cs.rip_order != (0, 1, 2)
        bad, overlap = cs.given_order_witness
        assert bad == 2
        assert overlap == (0, 2)

    def test_chain_cliques_accept_any_permutation(self):
        rng = seeded_rng(83)
        base = [(i, i + 1) for i in range(6)]
        for _ in range(10):
            perm = rng.permutation(len(base))
            cliques = [base[i] for i in perm]
            prob = _toy_problem(7, cliques)
            cs = build_cliques(prob)
            assert sorted(cs.rip_order) == list(range(len(base)))

    def test_shared_is_overlap_random(self):
        rng = seeded_rng(89)
        for _ in range(30):
            n = int(rng.integers(4, 16))
            N = int(rng.integers(2, 8))
            cliques = []
            for _ in range(N):
                size = int(rng.integers(1, 5))
                cliques.append(tuple(sorted(rng.choice(n, size=size, replace=False))))
            # ensure coverage
            missing = set(range(n)) - set().union(*map(set, cliques))
            if missing:
                cliques[-1] = tuple(sorted(set(cliques[-1]) | missing))
            prob = _toy_problem(n, cliques)
            try:
                cs = build_cliques(prob)
            except CliqueStructureError:
                continue
            # exactly the overlapping pairs (i < j), each with its overlap,
            # in ascending (i, j) order: the order the linking rows follow
            want = {}
            for i in range(N):
                for j in range(i + 1, N):
                    common = set(cliques[i]) & set(cliques[j])
                    if common:
                        want[(i, j)] = tuple(sorted(common))
            assert list(cs.shared.items()) == list(want.items())

    def test_coverage_failure(self):
        prob = SrfoProblem(
            nvars=3,
            ratios=[(Polynomial.variable(3, 0), Polynomial.constant(3, 1.0))],
        )
        prob.cliques = None
        with pytest.raises(CliqueStructureError, match="covered by no clique"):
            build_cliques(prob)

    def test_ratio_outside_clique(self):
        p = Polynomial.variable(3, 0) + Polynomial.variable(3, 2)
        prob = SrfoProblem(
            nvars=3,
            ratios=[(p, Polynomial.constant(3, 1.0)),
                    (Polynomial.variable(3, 1), Polynomial.constant(3, 1.0))],
            cliques=[(0, 1), (1, 2)],
        )
        with pytest.raises(CliqueStructureError, match="outside its clique"):
            build_cliques(prob)

    def test_constraint_fits_no_clique(self):
        g = Polynomial.constant(4, 1.0)
        for v in range(4):
            g = g - Polynomial.variable(4, v, 2)
        prob = _toy_problem(4, [(0, 1), (2, 3)])
        prob.constraints.append(Constraint(g, False))
        with pytest.raises(CliqueStructureError, match="fits in no clique"):
            build_cliques(prob)

    def test_assignment_prefers_lowest_clique(self):
        prob = _toy_problem(3, [(0, 1), (1, 2)], constraint_vars=[(1,)])
        cs = build_cliques(prob)
        assert cs.assign == ((0,), ())

    def test_deterministic(self):
        prob = gen_rosenbrock_ratio(6)
        a = build_cliques(prob)
        b = build_cliques(prob)
        assert a == b


class TestEnsureBalls:
    def test_box_bounds_sum(self):
        prob = gen_rosenbrock_ratio(4)
        cs = build_cliques(prob)
        prob2 = ensure_ball_constraints(prob, cs)
        added = prob2.constraints[len(prob.constraints):]
        assert len(added) == 4
        for con, cl in zip(added, cs.cliques):
            terms = con.poly.terms
            assert terms[(0,) * prob.nvars] == 32.0  # 16 + 16 over a pair
            assert not con.equality

    def test_sphere_supplies_radius(self):
        prob = gen_reznick_chain(3, 1)
        prob.cliques = [(0, 1, 2), (0, 1, 2)]
        cs = build_cliques(prob)
        prob2 = ensure_ball_constraints(prob, cs)
        added = prob2.constraints[1:]
        assert len(added) == 2
        assert added[0].poly.terms[(0, 0, 0)] == 3.0

    def test_quartic_supplies_radius(self):
        # each x_v^2 <= 5 + sqrt(60) on the shekel constraint, so the ball
        # on a pair of variables has radius twice that
        prob = gen_shekel(2)
        prob.cliques = [(0, 1)] * prob.num_ratios
        cs = build_cliques(prob)
        prob2 = ensure_ball_constraints(prob, cs)
        ball = prob2.constraints[-1]
        assert ball.poly.terms[(0, 0)] == 2 * (5 + np.sqrt(60))
        assert ball.poly.terms[(2, 0)] == -1.0

    def test_existing_ball_not_duplicated(self):
        prob = gen_rosenbrock_ratio(3)
        cs = build_cliques(prob)
        prob2 = ensure_ball_constraints(prob, cs)
        cs2 = build_cliques(prob2)
        prob3 = ensure_ball_constraints(prob2, cs2)
        assert len(prob3.constraints) == len(prob2.constraints)

    def test_underivable_bound_errors(self):
        prob = SrfoProblem(
            nvars=2,
            ratios=[(Polynomial.variable(2, 0), Polynomial.constant(2, 1.0)),
                    (Polynomial.variable(2, 1), Polynomial.constant(2, 1.0))],
            cliques=[(0,), (1,)],
        )
        cs = build_cliques(prob)
        with pytest.raises(CliqueStructureError, match="no bound derivable"):
            ensure_ball_constraints(prob, cs)
