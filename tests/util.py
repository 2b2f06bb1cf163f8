"""Shared helpers for the test suite."""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from ratsos.poly import Polynomial, full_basis


def random_polynomial(rng, nvars, max_degree, nterms=None, even_only=False):
    """Random sparse polynomial with coefficients in [-1, 1]."""
    monos = [m for m in full_basis(nvars, max_degree)]
    if even_only:
        monos = [m for m in monos if all(e % 2 == 0 for e in m)]
    if nterms is None:
        nterms = rng.integers(1, min(6, len(monos)) + 1)
    picks = rng.choice(len(monos), size=min(nterms, len(monos)), replace=False)
    terms = {monos[i]: float(rng.uniform(-1, 1)) for i in picks}
    return Polynomial(nvars, terms)


def naive_evaluate(poly, point):
    """Term-by-term evaluation without compensation (independent oracle)."""
    total = 0.0
    for mono, coef in poly.terms.items():
        term = coef
        for x, e in zip(point, mono):
            term *= x ** e
        total += term
    return total


def binomial(n, k):
    return math.comb(n, k)


def enumerate_monomials(nslots, max_degree):
    """Brute-force monomial enumeration (independent of poly.basis)."""
    out = set()
    for combo in itertools.product(range(max_degree + 1), repeat=nslots):
        if sum(combo) <= max_degree:
            out.add(combo)
    return out


def assert_poly_close(f, g, rtol=1e-13):
    assert f.nvars == g.nvars
    assert f.support == g.support, (
        f"supports differ: {set(f.support) ^ set(g.support)}"
    )
    for mono in f.support:
        a, b = f.terms[mono], g.terms[mono]
        assert abs(a - b) <= rtol * max(1.0, abs(a), abs(b)), (mono, a, b)


def seeded_rng(seed=20240817):
    return np.random.default_rng(seed)


def scipy_csr(A):
    """The scipy CSR matrix of a solver `_Csr`: A's entries in A's order,
    with the row pointer rebased to start at 0, as scipy requires."""
    lo, hi = A.indptr[0], A.indptr[-1]
    return sp.csr_matrix((A.data[lo:hi], A.indices[lo:hi], A.indptr - lo),
                         shape=A.shape)
