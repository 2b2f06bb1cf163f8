import itertools

import pytest

from ratsos.errors import DimensionError
from ratsos.poly import Polynomial, basis, full_basis
from ratsos.signsym import (
    SignSymmetryGroup,
    block_partition,
    brute_force_sign_symmetries,
    global_support,
    in_closure,
    parity_mask,
    sign_symmetries,
    support_sets,
)
from util import seeded_rng


def group_members(group):
    return sorted(group.elements())


class TestGroupComputation:
    def test_all_even_gives_full_group(self):
        g = sign_symmetries({(2, 0), (0, 2)}, 2)
        assert g.rank == 2
        assert group_members(g) == [0, 1, 2, 3]

    def test_diagonal_support(self):
        # {(1,1)} admits exactly 00 and 11 (brute force over Z2^2)
        g = sign_symmetries({(1, 1)}, 2)
        assert g.rank == 1
        assert group_members(g) == brute_force_sign_symmetries({(1, 1)}, 2) == [0, 3]

    def test_single_odd_var(self):
        g = sign_symmetries({(1, 0)}, 2)
        assert g.rank == 1
        assert group_members(g) == brute_force_sign_symmetries({(1, 0)}, 2) == [0, 2]

    def test_empty_support_full_group(self):
        g = sign_symmetries(set(), 3)
        assert g.rank == 3
        assert len(g.elements()) == 8

    def test_brute_force_agreement_random(self):
        rng = seeded_rng(31)
        for _ in range(120):
            n = int(rng.integers(1, 13))
            nset = int(rng.integers(0, 7))
            supp = {
                tuple(int(e) for e in rng.integers(0, 4, size=n))
                for _ in range(nset)
            }
            g = sign_symmetries(supp, n)
            assert group_members(g) == brute_force_sign_symmetries(supp, n)

    def test_group_axioms(self):
        rng = seeded_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            supp = {
                tuple(int(e) for e in rng.integers(0, 3, size=n))
                for _ in range(int(rng.integers(1, 5)))
            }
            g = sign_symmetries(supp, n)
            if g.rank > 12:
                continue
            members = set(g.elements())
            assert 0 in members
            for a in members:
                for b in members:
                    assert (a ^ b) in members

    def test_generating_set_respected(self):
        rng = seeded_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            supp = {
                tuple(int(e) for e in rng.integers(0, 4, size=n))
                for _ in range(int(rng.integers(1, 6)))
            }
            g = sign_symmetries(supp, n)
            for r in g.elements():
                for alpha in supp:
                    assert (r & parity_mask(alpha)).bit_count() % 2 == 0


class TestClosure:
    def test_diagonal_closure(self):
        g = sign_symmetries({(1, 1)}, 2)
        assert in_closure(g, (2, 0))
        assert not in_closure(g, (1, 0))
        assert in_closure(g, (1, 1))

    def test_full_group_closure_is_even_exponents(self):
        g = sign_symmetries(set(), 3)
        for mono in full_basis(3, 4):
            assert in_closure(g, mono) == all(e % 2 == 0 for e in mono)

    def test_trivial_group_accepts_everything(self):
        g = SignSymmetryGroup(3, ())
        for mono in full_basis(3, 3):
            assert in_closure(g, mono)

    def test_membership_matches_enumeration(self):
        rng = seeded_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            supp = {
                tuple(int(e) for e in rng.integers(0, 3, size=n))
                for _ in range(int(rng.integers(0, 5)))
            }
            g = sign_symmetries(supp, n)
            members = set(g.elements()) if g.rank <= 10 else None
            for r in range(1 << n):
                if members is not None:
                    assert g.contains(r) == (r in members)


def reference_signature(group, mono):
    """The definition: bit i is the parity of basis[i] . mono."""
    pm = parity_mask(mono)
    return sum(((b & pm).bit_count() & 1) << i for i, b in enumerate(group.basis))


def random_monomials(rng, n, count):
    """Sparse monomials of n variables, exponents up to 5 and a few at the
    16-bit limit, the zero monomial first."""
    out = [(0,) * n]
    for _ in range(count):
        mono = [0] * n
        for v in rng.integers(0, n, size=int(rng.integers(1, 6))):
            mono[v] += int(rng.integers(1, 6))
        if rng.random() < 0.1:
            mono[int(rng.integers(0, n))] = 65535
        out.append(tuple(mono))
    return out


def groups_of_every_rank(rng, n):
    """Rank n (no odd support), rank 0 (every x_v in the support) and the
    groups of a few random supports."""
    unit = {tuple(int(u == v) for u in range(n)) for v in range(n)}
    out = [sign_symmetries(set(), n), sign_symmetries(unit, n)]
    for size in (1, n // 3 + 1, n // 2 + 1):
        supp = {tuple(int(e) for e in rng.integers(0, 3, size=n)) for _ in range(size)}
        out.append(sign_symmetries(supp, n))
    return out


class TestSignatureFastPath:
    @pytest.mark.parametrize("n", [1, 2, 7, 30, 100])
    def test_signature_and_closure_match_definition(self, n):
        rng = seeded_rng(59 + n)
        groups = groups_of_every_rank(rng, n)
        assert [g.rank for g in groups[:2]] == [n, 0]
        monos = random_monomials(rng, n, 60)
        for g in groups:
            for mono in monos:
                sig = reference_signature(g, mono)
                assert g.signature(mono) == sig
                assert in_closure(g, mono) == (sig == 0)
                assert in_closure(g, mono) == all(
                    (b & parity_mask(mono)).bit_count() % 2 == 0 for b in g.basis
                )

    def test_closure_checks_length(self):
        g = sign_symmetries({(1, 1, 0)}, 3)
        with pytest.raises(DimensionError):
            in_closure(g, (1, 1))
        with pytest.raises(DimensionError):
            in_closure(g, (0, 0, 0, 0))

    @pytest.mark.parametrize("n", [3, 12, 100])
    def test_partition_classes_unchanged(self, n):
        # the classes of equal signature by the definition, in order of
        # their first member, on a basis over a few of the n variables
        rng = seeded_rng(73 + n)
        for g in groups_of_every_rank(rng, n):
            b = basis(n, range(0, n, max(1, n // 4)), 3)
            by_sig = {}
            for i, mono in enumerate(b):
                by_sig.setdefault(reference_signature(g, mono), []).append(i)
            want = tuple(sorted((tuple(c) for c in by_sig.values()), key=lambda c: c[0]))
            assert block_partition(g, b) == want


class TestBlockPartition:
    def test_two_var_order_one(self):
        g = sign_symmetries({(1, 1)}, 2)
        b = basis(2, (0, 1), 1)
        part = block_partition(g, b)
        classes = [tuple(b[i] for i in cls) for cls in part]
        assert classes == [((0, 0),), ((1, 0), (0, 1))]

    def test_trivial_group_single_class(self):
        g = SignSymmetryGroup(2, ())
        b = basis(2, (0, 1), 2)
        part = block_partition(g, b)
        assert len(part) == 1
        assert len(part[0]) == len(b)

    def test_full_group_signature_classes(self):
        g = sign_symmetries(set(), 2)
        b = basis(2, (0, 1), 2)
        part = block_partition(g, b)
        classes = [tuple(b[i] for i in cls) for cls in part]
        assert classes == [
            ((0, 0), (2, 0), (0, 2)),
            ((1, 0),),
            ((0, 1),),
            ((1, 1),),
        ]

    def test_same_class_iff_sum_in_closure(self):
        rng = seeded_rng(47)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            supp = {
                tuple(int(e) for e in rng.integers(0, 4, size=n))
                for _ in range(int(rng.integers(0, 5)))
            }
            g = sign_symmetries(supp, n)
            b = full_basis(n, k)
            if len(b) > 200:
                continue
            part = block_partition(g, b)
            cls_of = {}
            for ci, cls in enumerate(part):
                for i in cls:
                    cls_of[i] = ci
            for i, beta in enumerate(b):
                for j, gamma in enumerate(b):
                    same = cls_of[i] == cls_of[j]
                    summed = tuple(x + y for x, y in zip(beta, gamma))
                    assert same == in_closure(g, summed)

    def test_partition_covers_and_disjoint(self):
        g = sign_symmetries({(1, 0, 1)}, 3)
        b = full_basis(3, 3)
        part = block_partition(g, b)
        seen = [i for cls in part for i in cls]
        assert sorted(seen) == list(range(len(b)))
        assert all(len(cls) > 0 for cls in part)

    def test_mask_nonzero_count(self):
        # sum of squared class sizes equals the nonzero count of the 0/1 mask
        rng = seeded_rng(53)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            supp = {
                tuple(int(e) for e in rng.integers(0, 3, size=n))
                for _ in range(2)
            }
            g = sign_symmetries(supp, n)
            b = full_basis(n, 3)
            part = block_partition(g, b)
            direct = sum(
                1
                for beta in b
                for gamma in b
                if in_closure(g, tuple(x + y for x, y in zip(beta, gamma)))
            )
            assert sum(len(c) ** 2 for c in part) == direct


class TestSupportSets:
    def test_ball_mix_measure_ranks(self):
        from ratsos.families import gen_unit_ball_mix

        prob = gen_unit_ball_mix()
        sets = support_sets(prob)
        ranks = [sign_symmetries(s, 3).rank for s in sets]
        assert ranks == [0, 2, 1]
        # third slot's generating set has odd monomials from its numerator
        assert (1, 0, 0) in sets[2] and (0, 1, 0) in sets[2]

    def test_single_ratio_includes_constraints(self):
        from ratsos.families import gen_unit_ball_mix
        from ratsos.problem import Constraint, SrfoProblem

        p = Polynomial(2, {(1, 0): 1.0})
        q = Polynomial.constant(2, 1.0)
        g = Polynomial(2, {(0, 0): 1.0, (0, 3): -1.0})
        prob = SrfoProblem(
            nvars=2,
            ratios=[(p, q)],
            constraints=[Constraint(g, False)],
        )
        sets = support_sets(prob)
        assert len(sets) == 1
        assert sets[0] == frozenset({(1, 0), (0, 0), (0, 3)})

    def test_all_even_family_full_groups(self):
        from ratsos.families import gen_shekel

        prob = gen_shekel(3)
        for s in support_sets(prob):
            assert sign_symmetries(s, prob.nvars).rank == prob.nvars

    def test_ratio_order_permutes_roles(self):
        from ratsos.families import gen_unit_ball_mix

        prob = gen_unit_ball_mix()
        sets = support_sets(prob, ratio_order=(2, 0, 1))
        ranks = [sign_symmetries(s, 3).rank for s in sets]
        # first slot always carries the full support (trivial group here)
        assert ranks[0] == 0
        assert ranks[1:] == [2, 2]

    def test_global_support_is_first_slot(self):
        from ratsos.families import gen_unit_ball_mix

        prob = gen_unit_ball_mix()
        assert global_support(prob) == support_sets(prob)[0]
