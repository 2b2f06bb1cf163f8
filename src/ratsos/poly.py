"""Sparse multivariate polynomials and monomial-basis index algebra.

A monomial is a tuple of nonnegative integer exponents, one per ambient
variable.  A polynomial maps monomials to float coefficients and never
stores zero coefficients.  Bases are enumerated in graded lexicographic
order so that every matrix built on top of them has a reproducible
indexing.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, neg

import numpy as np

from .errors import DimensionError

Monomial = tuple  # exponent tuple, one entry per variable

# Exponents are 16-bit by contract; anything larger is rejected up front.
MAX_EXPONENT = 65535


def mono_mul(a, b):
    return tuple(map(add, a, b))


def grlex_key(mono):
    """Sort key realizing graded lexicographic order (x1 > x2 > ...)."""
    return (sum(mono), tuple(map(neg, mono)))


class Polynomial:
    """Sparse polynomial with float coefficients.

    Arithmetic is exact on the stored coefficients (dict merge / convolution)
    and prunes exact zeros, so `f + (-1.0) * f` has empty support.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        if terms:
            for mono, coef in terms.items() if isinstance(terms, dict) else terms:
                mono = tuple(int(e) for e in mono)
                if len(mono) != self.nvars:
                    raise DimensionError(
                        f"monomial length {len(mono)} != nvars {self.nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                if any(e > MAX_EXPONENT for e in mono) or sum(mono) > MAX_EXPONENT:
                    raise ValueError(f"degree overflow in {mono}")
                coef = float(coef)
                if coef != 0.0:
                    accum = clean.get(mono, 0.0) + coef
                    if accum == 0.0:
                        clean.pop(mono, None)
                    else:
                        clean[mono] = accum
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, value):
        return cls._term(nvars, (0,) * nvars, value)

    @classmethod
    def variable(cls, nvars, index, power=1, coef=1.0):
        power = int(power)
        expo = [0] * nvars
        expo[index] = power
        if power < 0:
            raise ValueError(f"negative exponent in {tuple(expo)}")
        if power > MAX_EXPONENT:
            raise ValueError(f"degree overflow in {tuple(expo)}")
        return cls._term(nvars, tuple(expo), coef)

    @classmethod
    def _term(cls, nvars, mono, coef):
        """coef * x^mono for a mono known to be valid: the constructor's
        result without its per-exponent checks, zero for a zero coef."""
        res = cls(nvars)
        coef = float(coef)
        if coef != 0.0:
            res.terms = {mono: coef}
        return res

    # -- structure ---------------------------------------------------------

    @property
    def support(self):
        return self.terms.keys()

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def vars_used(self):
        used = set()
        for mono in self.terms:
            for v, e in enumerate(mono):
                if e:
                    used.add(v)
        return used

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"nvars mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            s = out.get(mono, 0.0) + coef
            if s == 0.0:
                out.pop(mono, None)
            else:
                out[mono] = s
        res = Polynomial(self.nvars)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Polynomial(self.nvars)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            res = Polynomial(self.nvars)
            if other != 0.0:
                res.terms = {m: c * other for m, c in self.terms.items()}
                res.terms = {m: c for m, c in res.terms.items() if c != 0.0}
            return res
        self._check(other)
        # Contributions to each output monomial are summed in an order
        # symmetric in the operands, so f*g == g*f holds exactly.  A
        # monomial with one contribution (every one, when a factor has one
        # term) takes it as it is, which is what that sum gives.
        bucket = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                bucket.setdefault(mono_mul(ma, mb), []).append((ma, mb, ca * cb))
        out = {}
        for mono, parts in bucket.items():
            if sum(mono) > MAX_EXPONENT:
                raise ValueError("degree overflow in product")
            if len(parts) == 1:
                s = parts[0][2]
            else:
                s = 0.0
                for _, val in sorted(((ma, mb) if ma <= mb else (mb, ma), val)
                                     for ma, mb, val in parts):
                    s += val
            if s != 0.0:
                out[mono] = s
        res = Polynomial(self.nvars)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative power")
        if exponent == 0:
            return Polynomial.constant(self.nvars, 1.0)
        # 1 * self is self exactly, so the product starts from self
        out = Polynomial(self.nvars)
        out.terms = dict(self.terms)
        for _ in range(exponent - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a point with compensated (Kahan) summation.

        Term order is fixed (graded lex) so results are bit-reproducible.
        """
        if len(point) != self.nvars:
            raise DimensionError(
                f"point length {len(point)} != nvars {self.nvars}"
            )
        total = 0.0
        comp = 0.0
        for mono, coef in self.sorted_terms():
            val = coef
            for x, e in zip(point, mono):
                if e:
                    val *= float(x) ** e
            t = total + val
            if abs(total) >= abs(val):
                comp += (total - t) + val
            else:
                comp += (val - t) + total
            total = t
        return total + comp

    def evaluate_many(self, points):
        """Vectorized evaluation over an (npoints, nvars) array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise DimensionError("points must be (npoints, nvars)")
        out = np.zeros(pts.shape[0])
        for mono, coef in self.terms.items():
            term = np.full(pts.shape[0], coef)
            for v, e in enumerate(mono):
                if e:
                    term *= pts[:, v] ** e
            out += term
        return out

    def rescale_vars(self, factors):
        """Polynomial of x -> p(diag(factors) @ x), used for domain scaling."""
        if len(factors) != self.nvars:
            raise DimensionError("factor length mismatch")
        out = {}
        for mono, coef in self.terms.items():
            c = coef
            for v, e in enumerate(mono):
                if e:
                    c *= factors[v] ** e
            out[mono] = c
        res = Polynomial(self.nvars)
        res.terms = {m: c for m, c in out.items() if c != 0.0}
        return res

    def __repr__(self):
        if not self.terms:
            return f"Polynomial({self.nvars}, 0)"
        parts = []
        for mono, coef in self.sorted_terms()[:6]:
            mono_s = "*".join(
                f"x{v + 1}" + (f"^{e}" if e > 1 else "")
                for v, e in enumerate(mono)
                if e
            )
            parts.append(f"{coef:g}*{mono_s}" if mono_s else f"{coef:g}")
        tail = " + ..." if len(self.terms) > 6 else ""
        return f"Polynomial({self.nvars}, {' + '.join(parts)}{tail})"


def _compositions(nslots, total):
    """Exact-degree exponent tuples in descending lex order."""
    if nslots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(nslots - 1, total - head):
            yield (head,) + rest


@lru_cache(maxsize=4096)
def _basis_cached(nvars, indices, order):
    elems = []
    m = len(indices)
    for deg in range(order + 1):
        if m == 0:
            if deg == 0:
                elems.append((0,) * nvars)
            continue
        for packed in _compositions(m, deg):
            mono = [0] * nvars
            for slot, e in zip(indices, packed):
                mono[slot] = e
            elems.append(tuple(mono))
    return tuple(elems)


def basis(nvars, indices, order):
    """All monomials on variable subset `indices` (0-based) up to total
    degree `order`: a tuple of exponent tuples in graded-lex order, complete
    and duplicate-free, of size binomial(|indices| + order, order)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    idx = tuple(sorted(set(int(i) for i in indices)))
    if idx and (idx[0] < 0 or idx[-1] >= nvars):
        raise ValueError(f"variable index out of range in {idx}")
    return _basis_cached(nvars, idx, int(order))


def full_basis(nvars, order):
    return basis(nvars, range(nvars), order)
