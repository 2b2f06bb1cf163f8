import numpy as np
import pytest

from ratsos.errors import BuildError, InfeasibleSampleError, ParseError
from ratsos.families import (
    gen_motzkin_chain,
    gen_overlap_chain,
    gen_rand_srfo,
    gen_rayleigh,
    gen_reznick_chain,
    gen_reznick_sparse_chain,
    gen_rosenbrock_ratio,
    gen_shekel,
    gen_unit_ball_mix,
    rayleigh_to_real,
)
from ratsos.oracle import grid_oracle
from ratsos.poly import Polynomial
from ratsos.problem import (
    Constraint,
    SrfoProblem,
    parse,
    serialize,
    variable_bounds,
    variable_scales,
)
from util import seeded_rng


class TestParse:
    def test_minimal_single_ratio(self):
        prob = parse(
            "vars x1\n"
            "ratio: (x1)/(1)\n"
            "constraint: 1 - x1^2 >= 0\n"
        )
        assert prob.num_ratios == 1
        assert len(prob.constraints) == 1
        assert prob.nvars == 1
        assert prob.ratios[0][0].terms == {(1,): 1.0}
        assert not prob.constraints[0].equality

    def test_ball_mix_file(self):
        text = serialize(gen_unit_ball_mix())
        prob = parse(text)
        assert prob.num_ratios == 3
        assert len(prob.constraints) == 1
        assert prob.nvars == 3

    def test_comments_and_blank_lines(self):
        prob = parse(
            "# a comment\n"
            "name demo # trailing\n"
            "\n"
            "vars u v\n"
            "ratio: ( u^2 + 2.5*v ) / ( 1 + u^2 )  # inline\n"
        )
        assert prob.name == "demo"
        assert prob.ratios[0][0].terms == {(2, 0): 1.0, (0, 1): 2.5}

    def test_equality_constraint(self):
        prob = parse(
            "vars x1 x2\nratio: (x1)/(1)\nconstraint: 2 - x1^2 - x2^2 == 0\n"
        )
        assert prob.constraints[0].equality

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("vars x1\nratio: ( x1 + ) / ( 1 )\n")
        assert err.value.line == 2
        assert err.value.column is not None

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse("vars x1\nratio: ( x2 )/(1)\n")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError, match="implicit multiplication"):
            parse("vars x1 x2\nratio: ( 2 x1 )/(1)\n")

    def test_clique_count_mismatch(self):
        with pytest.raises(ParseError, match="clique"):
            parse(
                "vars x1 x2\n"
                "ratio: (x1)/(1)\n"
                "ratio: (x2)/(1)\n"
                "clique: 1\n"
            )

    def test_degree_overflow(self):
        with pytest.raises(ParseError, match="16-bit"):
            parse("vars x1\nratio: ( x1^70000 )/(1)\n")

    def test_missing_vars(self):
        with pytest.raises(ParseError, match="vars"):
            parse("ratio: (x1)/(1)\n")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError, match="exponent"):
            parse("vars x1\nratio: ( x1^1.5 )/(1)\n")


class TestRoundTrip:
    def test_generated_corpus(self):
        rng = seeded_rng(61)
        problems = [
            gen_unit_ball_mix(),
            gen_reznick_chain(4, 1),
            gen_motzkin_chain(2),
            gen_reznick_sparse_chain(3, 1),
            gen_overlap_chain(4, 2),
            gen_shekel(2),
        ]
        for seed in range(44):
            problems.append(
                gen_rand_srfo(
                    int(rng.integers(1, 4)),
                    int(rng.integers(1, 4)),
                    int(rng.integers(1, 4)),
                    0.5,
                    seed,
                )
            )
        assert len(problems) == 50
        for prob in problems:
            text = serialize(prob)
            again = parse(text)
            assert serialize(again) == text
            assert again.nvars == prob.nvars
            assert again.num_ratios == prob.num_ratios
            for (p1, q1), (p2, q2) in zip(prob.ratios, again.ratios):
                assert p1 == p2 and q1 == q2
            assert [c.poly for c in again.constraints] == [
                c.poly for c in prob.constraints
            ]
            assert again.cliques == prob.cliques

    def test_maximize_round_trip_keeps_ratios(self):
        prob = gen_rosenbrock_ratio(2)
        text = serialize(prob)
        assert text.startswith("# objective is a maximum")
        again = parse(text)
        # the sense flag is CLI-level; the polynomials survive untouched
        assert again.maximize is False
        assert again.ratios[0][0] == prob.ratios[0][0]


class TestGenerators:
    def test_reznick_chain_shape(self):
        prob = gen_reznick_chain(6, 2)
        assert prob.num_ratios == 5
        assert prob.nvars == 3
        assert all(p.degree() == 12 for p, _ in prob.ratios)
        assert all(q.degree() == 12 for _, q in prob.ratios)
        assert prob.constraints[0].equality
        assert prob.known_optimum == 5.0

    def test_rand_srfo_deterministic(self):
        a = gen_rand_srfo(4, 4, 3, 0.2, seed=7)
        b = gen_rand_srfo(4, 4, 3, 0.2, seed=7)
        assert serialize(a) == serialize(b)
        c = gen_rand_srfo(4, 4, 3, 0.2, seed=8)
        assert serialize(c) != serialize(a)

    def test_rand_srfo_optimum_at_origin(self):
        prob = gen_rand_srfo(5, 3, 3, 0.3, seed=3)
        assert prob.known_optimum == -5.0
        origin = np.zeros(3)
        assert prob.objective_value(origin) == pytest.approx(-5.0, abs=1e-12)
        # each term is bounded below by -1, so -N is the global optimum
        rng = seeded_rng(67)
        pts = rng.uniform(-1, 1, size=(200, 3))
        for pt in pts:
            assert prob.objective_value(pt) >= -5.0 - 1e-9

    def test_motzkin_chain_cliques(self):
        prob = gen_motzkin_chain(3)
        assert prob.nvars == 8
        assert prob.cliques == [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7)]
        assert prob.known_optimum == 12.0
        pt = np.ones(8)
        assert prob.objective_value(pt) == pytest.approx(12.0)

    def test_reznick_sparse_chain_cliques(self):
        prob = gen_reznick_sparse_chain(5, 2)
        assert prob.nvars == 11
        assert prob.cliques[0] == (0, 1, 2)
        assert prob.cliques[4] == (8, 9, 10)

    def test_rosenbrock_structure(self):
        prob = gen_rosenbrock_ratio(10)
        assert prob.maximize
        assert prob.nvars == 11
        assert len(prob.constraints) == 11
        assert prob.cliques == [(i, i + 1) for i in range(10)]
        ones = np.ones(11)
        assert prob.objective_value(ones) == pytest.approx(10.0)

    def test_overlap_chain_structure(self):
        prob = gen_overlap_chain(5, 2)
        assert prob.nvars == 7
        assert prob.cliques[0] == (0, 1, 2)
        assert len(prob.constraints) == 7
        # denominator weights are 1..s+1 on the window
        q = prob.ratios[0][1]
        assert q.terms[(0,) * 7] == 1.0
        assert q.terms[(2, 0, 0, 0, 0, 0, 0)] == 1.0
        assert q.terms[(0, 2, 0, 0, 0, 0, 0)] == 2.0
        assert q.terms[(0, 0, 2, 0, 0, 0, 0)] == 3.0

    def test_shekel_all_even(self):
        prob = gen_shekel(4)
        assert prob.num_ratios == 30
        for p, q in prob.ratios:
            for mono in list(p.support) + list(q.support):
                assert all(e % 2 == 0 for e in mono)

    def test_variable_bounds_detection(self):
        prob = gen_rosenbrock_ratio(3)
        assert variable_bounds(prob) == [16.0] * 4
        prob2 = gen_reznick_chain(3, 1)
        assert variable_bounds(prob2) == [3.0, 3.0, 3.0]
        free = SrfoProblem(
            nvars=1,
            ratios=[(Polynomial.variable(1, 0), Polynomial.constant(1, 1.0))],
        )
        assert variable_bounds(free) == [None]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_shekel_quartic_bounds(self, n):
        # 60 - sum (x_v^2 - 5)^2 >= 0 gives (x_v^2 - 5)^2 <= 60 in every
        # variable, though the expanded constant 60 - 25n is <= 0 for n >= 3
        assert variable_bounds(gen_shekel(n)) == [5 + np.sqrt(60)] * n

    def test_variable_scales(self):
        # sqrt of each derived bound, 1.0 where none is derivable
        prob = parse("vars x1 x2\nratio: (x1 + x2)/(1)\nconstraint: 4 - x1^2 >= 0\n")
        assert variable_scales(prob).tolist() == [2.0, 1.0]
        assert variable_scales(gen_overlap_chain(8, 1)).tolist() == [1.0] * 9


class TestRayleigh:
    def test_scalar_case(self):
        prob = rayleigh_to_real([np.array([[2.0]])], [np.array([[1.0]])])
        assert prob.nvars == 2
        p, q = prob.ratios[0]
        assert p.terms == {(2, 0): 2.0, (0, 2): 2.0}
        assert q.terms == {(2, 0): 1.0, (0, 2): 1.0}
        assert prob.maximize

    def test_real_symmetric_has_no_cross_terms(self):
        rng = seeded_rng(71)
        A = rng.random((3, 3))
        A = A + A.T
        B = np.eye(3)
        prob = rayleigh_to_real([A], [B])
        p, _ = prob.ratios[0]
        for mono in p.support:
            xs = sum(mono[:3])
            ys = sum(mono[3:])
            assert (xs, ys) in ((2, 0), (0, 2))

    def test_matches_complex_arithmetic(self):
        rng = seeded_rng(73)
        n, N = 3, 2
        prob = gen_rayleigh(n, N, seed=5)
        A_list, B_list = _regen_matrices(n, N, seed=5)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=n)
            y = rng.uniform(-1, 1, size=n)
            z = x + 1j * y
            want = sum(
                (z.conj() @ A @ z).real / (z.conj() @ B @ z).real
                for A, B in zip(A_list, B_list)
            )
            got = prob.objective_value(np.concatenate([x, y]))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_phase_invariance(self):
        rng = seeded_rng(79)
        prob = gen_rayleigh(2, 3, seed=11)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            y = rng.uniform(-1, 1, size=2)
            theta = rng.uniform(0, 2 * np.pi)
            xr = x * np.cos(theta) - y * np.sin(theta)
            yr = x * np.sin(theta) + y * np.cos(theta)
            a = prob.objective_value(np.concatenate([x, y]))
            b = prob.objective_value(np.concatenate([xr, yr]))
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_non_hermitian_rejected(self):
        with pytest.raises(BuildError, match="Hermitian"):
            rayleigh_to_real([np.array([[1.0, 2.0], [0.0, 1.0]])], [np.eye(2)])

    def test_indefinite_denominator_rejected(self):
        with pytest.raises(BuildError, match="positive definite"):
            rayleigh_to_real([np.eye(2)], [np.diag([1.0, -1.0])])


def _regen_matrices(n, N, seed):
    rng = np.random.default_rng(seed)
    A_list, B_list = [], []
    for _ in range(N):
        C = rng.random((n, n)) + 1j * rng.random((n, n))
        D = rng.random((n, n)) + 1j * rng.random((n, n))
        A_list.append(C + C.conj().T)
        B_list.append(D.conj().T @ D)
    return A_list, B_list


class TestGridOracle:
    def test_trivial_square_over_ball(self):
        prob = parse("vars x1\nratio: (x1^2)/(1)\nconstraint: 1 - x1^2 >= 0\n")
        res = grid_oracle(prob, resolution=21)
        assert res.best_value == pytest.approx(0.0, abs=1e-12)
        assert abs(res.best_point[0]) <= 1e-9

    def test_ball_mix_reaches_known_minimum(self):
        prob = gen_unit_ball_mix()
        res = grid_oracle(prob, resolution=21, refine_iters=300)
        assert res.best_value <= -0.3465 + 1e-3

    def test_reznick_chain_upper_bound(self):
        prob = gen_reznick_chain(6, 2)
        res = grid_oracle(prob, resolution=21, refine_iters=300)
        assert res.best_value >= 5.0 - 1e-6
        assert abs(res.best_value - 5.0) <= 1e-2

    def test_rosenbrock_maximize(self):
        prob = gen_rosenbrock_ratio(6)
        res = grid_oracle(prob, resolution=9, refine_iters=200)
        assert res.best_value <= 6.0 + 1e-9
        assert res.best_value >= 5.9

    def test_feasibility_of_best_point(self):
        prob = gen_reznick_sparse_chain(3, 1)
        res = grid_oracle(prob, resolution=9, refine_iters=100)
        for con in prob.constraints:
            val = con.poly.evaluate(res.best_point)
            assert abs(val) <= 1e-7 if con.equality else val >= -1e-7

    def test_infeasible_error(self):
        prob = parse(
            "vars x1\nratio: (x1)/(1)\n"
            "constraint: 0 - 1 - x1^2 >= 0\n"
        )
        with pytest.raises(InfeasibleSampleError):
            grid_oracle(prob, resolution=9)

    def test_never_below_known_optimum(self):
        for prob in (
            gen_rand_srfo(3, 3, 2, 0.4, seed=1),
            gen_reznick_sparse_chain(2, 1),
            gen_motzkin_chain(2),
        ):
            res = grid_oracle(prob, resolution=9, refine_iters=150)
            assert res.best_value >= prob.known_optimum - 1e-6
