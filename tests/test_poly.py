import math

import numpy as np
import pytest

from ratsos.errors import DimensionError
from ratsos.poly import Polynomial, basis, grlex_key
from util import (
    assert_poly_close,
    binomial,
    enumerate_monomials,
    naive_evaluate,
    random_polynomial,
    seeded_rng,
)


def x(nvars, i, power=1):
    return Polynomial.variable(nvars, i, power)


class TestArithmetic:
    def test_difference_of_squares(self):
        f = x(1, 0, 2) + 1.0
        g = x(1, 0, 2) - 1.0
        assert (f * g).terms == {(4,): 1.0, (0,): -1.0}

    def test_additive_inverse_empty_support(self):
        f = 2.5 * x(2, 0, 3) + x(2, 1) - 0.75
        z = f + f * -1.0
        assert z.is_zero()
        assert len(z.support) == 0

    def test_nvars_mismatch_raises(self):
        with pytest.raises(DimensionError):
            x(2, 0) + x(3, 0)
        with pytest.raises(DimensionError):
            x(2, 0) * x(3, 0)

    def test_chained_denominator_identity(self):
        # q written as the sum of two squared-term groups plus a corrective
        # monomial matches its regrouped form term for term.
        for a in (1.0 / 6.0, 0.5, 5.0 / 6.0):
            for d in (1, 2):
                q1 = _chain_denominator_direct(a, d)
                q2 = _chain_denominator_regrouped(a, d)
                assert_poly_close(q1, q2)

    def test_ring_axioms_random(self):
        rng = seeded_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            f = random_polynomial(rng, n, 3)
            g = random_polynomial(rng, n, 3)
            h = random_polynomial(rng, n, 2)
            assert_poly_close((f + g) * h, f * h + g * h, rtol=1e-12)
            assert_poly_close(f * g, g * f, rtol=0.0)

    def test_degree_overflow_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(1, {(70000,): 1.0})


def reference_product(f, g):
    """f * g by the general rule: every monomial's contributions summed in
    the order of their sorted operand pairs."""
    bucket = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            mono = tuple(a + b for a, b in zip(ma, mb))
            pair = (ma, mb) if ma <= mb else (mb, ma)
            bucket.setdefault(mono, []).append((pair, ca * cb))
    out = {}
    for mono, parts in bucket.items():
        s = 0.0
        for _, val in sorted(parts):
            s += val
        if s != 0.0:
            out[mono] = s
    return out


class TestConstructorFastPaths:
    @pytest.mark.parametrize("n", [0, 1, 3, 100])
    def test_constant_matches_constructor(self, n):
        zero = (0,) * n
        assert Polynomial.constant(n, 0.0).is_zero()
        assert Polynomial.constant(n, -0.0).is_zero()
        assert Polynomial.constant(n, 0.0) == Polynomial.zero(n)
        for value in (1, -2.5, np.float64(3.0)):
            got = Polynomial.constant(n, value)
            assert got == Polynomial(n, {zero: value})
            assert type(got.terms[zero]) is float

    def test_variable_matches_constructor(self):
        for n, i, power, coef in [(1, 0, 1, 1.0), (4, 2, 3, -0.5), (100, 99, 65535, 2),
                                  (3, -1, 2, 1.0), (3, 0, 0, 4.0), (2, 1, 5, 0.0)]:
            mono = [0] * n
            mono[i] = power
            got = Polynomial.variable(n, i, power, coef)
            assert got == Polynomial(n, {tuple(mono): coef})
            assert all(type(c) is float for c in got.terms.values())

    @pytest.mark.parametrize("power", [-1, 65536, 1 << 20])
    @pytest.mark.parametrize("coef", [1.0, 0.0])
    def test_variable_power_out_of_range_raises(self, power, coef):
        with pytest.raises(ValueError):
            Polynomial.variable(3, 1, power, coef)
        with pytest.raises(ValueError):
            Polynomial(3, {(0, power, 0): coef})

    def test_product_matches_general_rule(self):
        rng = seeded_rng(79)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            f = random_polynomial(rng, n, 3)
            g = random_polynomial(rng, n, 3, nterms=int(rng.integers(1, 3)))
            for a, b in [(f, g), (g, f), (f, f), (g, g)]:
                assert (a * b).terms == reference_product(a, b)

    def test_grlex_key(self):
        for mono in [(0,), (3, 0, 1), (0,) * 100, (65535, 2)]:
            assert grlex_key(mono) == (sum(mono), tuple(-e for e in mono))


class TestEvaluate:
    def test_circle_at_ones(self):
        f = x(2, 0, 2) + x(2, 1, 2)
        assert f.evaluate((1.0, 1.0)) == 2.0

    def test_even_chain_link_at_ones(self):
        # numerator (x1^2+x2^2+x3^2)*x1^2*x2^2*x3^2 + x4^8 at (1,1,1,1) is 4,
        # denominator x1^2*x2^2*x3^2*x4^2 is 1, so each chain link contributes 4.
        n = 4
        sq = lambda i: x(n, i, 2)
        num = (sq(0) + sq(1) + sq(2)) * (sq(0) * sq(1) * sq(2)) + x(n, 3, 8)
        den = sq(0) * sq(1) * sq(2) * sq(3)
        pt = (1.0, 1.0, 1.0, 1.0)
        assert num.evaluate(pt) == 4.0
        assert den.evaluate(pt) == 1.0
        assert num.evaluate(pt) / den.evaluate(pt) == 4.0

    def test_matches_uncompensated_oracle(self):
        rng = seeded_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            f = random_polynomial(rng, n, 6, nterms=8)
            pt = rng.uniform(-2, 2, size=n)
            a = f.evaluate(pt)
            b = naive_evaluate(f, pt)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_product_rule_numeric(self):
        rng = seeded_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            f = random_polynomial(rng, n, 6)
            g = random_polynomial(rng, n, 6)
            pt = rng.uniform(-1, 1, size=n)
            lhs = (f * g).evaluate(pt)
            rhs = f.evaluate(pt) * g.evaluate(pt)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_evaluate_many_agrees(self):
        rng = seeded_rng(17)
        f = random_polynomial(rng, 3, 5, nterms=7)
        pts = rng.uniform(-1.5, 1.5, size=(50, 3))
        vec = f.evaluate_many(pts)
        for row, expect in zip(pts, vec):
            assert abs(f.evaluate(row) - expect) <= 1e-11


class TestBasis:
    def test_two_vars_order_one(self):
        b = basis(2, (0, 1), 1)
        assert list(b) == [(0, 0), (1, 0), (0, 1)]

    def test_three_vars_order_two_count(self):
        assert len(basis(3, (0, 1, 2), 2)) == 10

    def test_four_vars_order_four_count(self):
        # binomial(8, 4) = 70, cross-checked by brute-force enumeration
        b = basis(4, (0, 1, 2, 3), 4)
        assert len(b) == 70
        assert set(b) == enumerate_monomials(4, 4)

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_cardinality_formula(self, m, k):
        b = basis(8, range(m), k)
        assert len(b) == binomial(m + k, k)

    def test_graded_lex_strictly_increasing(self):
        from ratsos.poly import grlex_key

        b = basis(3, (0, 1, 2), 4)
        keys = [grlex_key(mono) for mono in b]
        assert keys == sorted(keys)
        assert len(set(b)) == len(b)

    def test_subset_support(self):
        b = basis(5, (1, 3), 3)
        assert len(b) == binomial(2 + 3, 3)
        for mono in b:
            assert mono[0] == mono[2] == mono[4] == 0

    def test_index_roundtrip(self):
        b = basis(3, (0, 1, 2), 3)
        for i, mono in enumerate(b):
            assert b.index(mono) == i


def _chain_denominator_direct(a, d):
    n = 3
    g1 = (
        Polynomial(n, {(4 * d, 2 * d, 0): 1.0})
        + Polynomial(n, {(0, 4 * d, 2 * d): 1.0})
        + Polynomial(n, {(2 * d, 0, 4 * d): 1.0})
    )
    g2 = (
        Polynomial(n, {(2 * d, 4 * d, 0): 1.0})
        + Polynomial(n, {(0, 2 * d, 4 * d): 1.0})
        + Polynomial(n, {(4 * d, 0, 2 * d): 1.0})
    )
    center = Polynomial(n, {(2 * d, 2 * d, 2 * d): 1.0})
    return (
        2 * a ** 6 * g1
        + 2 * a ** 2 * g2
        + 3 * (1 - 2 * a ** 2 + a ** 4 - 2 * a ** 6 + a ** 8) * center
    )


def _chain_denominator_regrouped(a, d):
    n = 3
    g1 = (
        Polynomial(n, {(4 * d, 2 * d, 0): 1.0})
        + Polynomial(n, {(0, 4 * d, 2 * d): 1.0})
        + Polynomial(n, {(2 * d, 0, 4 * d): 1.0})
    )
    g2 = (
        Polynomial(n, {(2 * d, 4 * d, 0): 1.0})
        + Polynomial(n, {(0, 2 * d, 4 * d): 1.0})
        + Polynomial(n, {(4 * d, 0, 2 * d): 1.0})
    )
    center = Polynomial(n, {(2 * d, 2 * d, 2 * d): 1.0})
    return (
        2 * a ** 6 * (g1 - 3 * center)
        + 2 * a ** 2 * (g2 - 3 * center)
        + 3 * (1 + a ** 4 + a ** 8) * center
    )
