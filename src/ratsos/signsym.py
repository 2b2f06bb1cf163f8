"""Sign symmetries of support sets over GF(2) and induced block partitions.

A sign symmetry of a support set A is a 0/1 vector r with r.alpha even for
every exponent alpha in A.  The set of all such r is a GF(2) subspace; its
closure test splits any monomial basis into parity classes, which is exactly
the block structure of the masked moment matrices.  Vectors are packed into
Python ints used as bit sets, so elimination works word-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionError


def parity_mask(mono):
    """Bit i set iff exponent i is odd."""
    mask = 0
    for i, e in enumerate(mono):
        if e & 1:
            mask |= 1 << i
    return mask


def _dot2(a, b):
    return (a & b).bit_count() & 1


def _rref(rows, n):
    """Reduced row echelon form over GF(2); returns (rows, pivot columns)."""
    rows = [r for r in rows if r]
    pivots = []
    reduced = []
    for col in range(n):
        bit = 1 << col
        pivot_row = None
        for r in rows:
            if r & bit:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows = [r ^ pivot_row if (r & bit) else r for r in rows if r != pivot_row]
        reduced = [r ^ pivot_row if (r & bit) else r for r in reduced]
        reduced.append(pivot_row)
        pivots.append(col)
        if not rows:
            break
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], [pivots[i] for i in order]


@dataclass(frozen=True)
class SignSymmetryGroup:
    """GF(2) subspace of sign-flip vectors, stored as a row-reduced basis."""

    n: int
    basis: tuple = ()

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, mask):
        """Membership of a bit vector in the row space."""
        r = mask
        for b in self.basis:
            low = b & -b
            if r & low:
                r ^= b
        return r == 0

    def elements(self):
        """All 2^rank members (use only for small ranks)."""
        if self.rank > 20:
            raise ValueError("group too large to enumerate")
        out = [0]
        for b in self.basis:
            out += [v ^ b for v in out]
        return out

    @cached_property
    def _columns(self):
        """Per variable v, the basis members with bit v set, packed like a
        signature: the signature of the monomial x_v."""
        cols = [0] * self.n
        for i, b in enumerate(self.basis):
            while b:
                low = b & -b
                cols[low.bit_length() - 1] |= 1 << i
                b ^= low
        return cols

    def signature(self, mono):
        """Parity pattern of a monomial against the basis, packed in an int.

        Bit i is the parity of basis[i] . mono, so the pattern is the XOR
        of the variables' columns over the odd exponents of mono.
        """
        sig = 0
        for col, e in zip(self._columns, mono):
            if e & 1:
                sig ^= col
        return sig

    def basis_vectors(self):
        """Basis as lists of 0/1 ints (for reports)."""
        return [[(b >> i) & 1 for i in range(self.n)] for b in self.basis]


def sign_symmetries(support, n):
    """Sign-symmetry group of a finite exponent set.

    Computes the exact GF(2) nullspace of the parity matrix whose rows are
    the exponents mod 2.  An empty generating set yields the full group
    (the defining condition is vacuous).
    """
    parities = {parity_mask(m) for m in support}
    parities.discard(0)
    rows, pivots = _rref(sorted(parities), n)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    gens = []
    for fc in free_cols:
        vec = 1 << fc
        for row, pc in zip(rows, pivots):
            if _dot2(row, vec):
                vec |= 1 << pc
        gens.append(vec)
    basis_rows, _ = _rref(gens, n)
    return SignSymmetryGroup(n, tuple(basis_rows))


def in_closure(group, mono):
    """True iff r.mono is even for every group member (basis check suffices)."""
    if len(mono) != group.n:
        raise DimensionError(f"monomial length {len(mono)} != n {group.n}")
    return group.signature(mono) == 0


def block_partition(group, monomial_basis):
    """Split a basis into the parity-signature classes of a symmetry group:
    a tuple of index tuples into the basis, ordered by first index.  Two
    members share a class iff their product lies in the group closure."""
    by_sig = {}
    for i, mono in enumerate(monomial_basis):
        by_sig.setdefault(group.signature(mono), []).append(i)
    classes = sorted(by_sig.values(), key=lambda idxs: idxs[0])
    return tuple(tuple(c) for c in classes)


def support_sets(prob, ratio_order=None):
    """Per-measure generating support sets for the sign-symmetry reduction.

    Measure slots follow `ratio_order` (a permutation of 0..N-1 giving which
    ratio is treated first).  Every slot's set contains its own numerator and
    denominator supports plus all constraint supports; the first slot is the
    full support, `global_support`.
    """
    order = list(ratio_order) if ratio_order is not None else list(range(len(prob.ratios)))
    if sorted(order) != list(range(len(prob.ratios))):
        raise ValueError(f"ratio_order {order} is not a permutation")
    gsupp = set()
    for con in prob.constraints:
        gsupp |= set(con.poly.support)
    sets = []
    for slot in order:
        p, q = prob.ratios[slot]
        sets.append(frozenset(set(p.support) | set(q.support) | gsupp))
    sets[0] = global_support(prob)
    return sets


def global_support(prob):
    """Union of all ratio and constraint supports (one set for all measures)."""
    out = set()
    for p, q in prob.ratios:
        out |= set(p.support) | set(q.support)
    for con in prob.constraints:
        out |= set(con.poly.support)
    return frozenset(out)


def brute_force_sign_symmetries(support, n):
    """Reference nullspace by enumerating all 2^n candidates (tests only)."""
    parities = [parity_mask(m) for m in support]
    members = [
        r for r in range(1 << n) if all(not _dot2(r, p) for p in parities)
    ]
    return members
