"""Product groups as exact oracles: every fact of G1 x G2 that must factor, checked against its factors.

With the orthogonal-sum form, the Levi lattice of G1 x G2 is the product of
the factors' lattices, each Levi's chambers are pairs of chambers, the
spectral classes are pairs of classes, the hull of an orthogonal set is the
product of the factors' hulls, and a splitting constant is the product of
the factors' constants.  The product side is always built from the product
datum alone: a product Levi is matched to its pair of factor Levis only by
the support of its roots, and a point only by its coordinates.
"""
import random
from fractions import Fraction

import pytest

from gmcalc.gmfamily import hull_volume, orthogonal_set
from gmcalc.levilattice import d_constant, enumerate_levis, levi_lattice, parabolics
from gmcalc.rootdatum import RatVec, build_root_system
from gmcalc.spectral import enumerate_spectral_triples

PRODUCTS = ["A1xA1", "A1xA2", "A1xA3", "A2xB2", "G2xG2"]


def _factors(label):
    """The product datum and its two factor data, built apart."""
    first, second = label.split("x")
    return build_root_system(label), build_root_system(first), build_root_system(second)


def _levi_pairs(d, d1, d2):
    """Each Levi of the product mapped to its pair of factor Levis by the support of its roots."""
    r1 = d1.rank
    index1 = {row: k for k, row in enumerate(d1.root_rows)}
    index2 = {row: k for k, row in enumerate(d2.root_rows)}
    lattice1 = {L.root_subset: L for L in levi_lattice(d1)}
    lattice2 = {L.root_subset: L for L in levi_lattice(d2)}
    pairs = {}
    for L in levi_lattice(d):
        rows = [d.root_rows[i] for i in L.root_subset]
        assert all(not any(row[:r1]) or not any(row[r1:]) for row in rows), L.label  # each root in one factor
        s1 = frozenset(index1[row[:r1]] for row in rows if any(row[:r1]))
        s2 = frozenset(index2[row[r1:]] for row in rows if any(row[r1:]))
        pairs[L] = (lattice1[s1], lattice2[s2])
    return pairs


def _dominant(d, rng):
    T = RatVec.zero(d.rank)
    for w in d.fund_coweights:
        T = T + Fraction(rng.randint(1, 9), rng.randint(1, 4)) * w
    return T


@pytest.mark.parametrize("label", PRODUCTS)
def test_product_lattice_chambers_classes_hulls_and_d_factor(label):
    d, d1, d2 = _factors(label)
    pairs = _levi_pairs(d, d1, d2)
    # the lattice is the product: every pair of factor Levis once
    assert len(set(pairs.values())) == len(pairs) == len(levi_lattice(d1)) * len(levi_lattice(d2))
    for L, (L1, L2) in pairs.items():
        assert len(parabolics(L)) == len(parabolics(L1)) * len(parabolics(L2)), L.label
    counts = [len(enumerate_spectral_triples(x)) for x in (d, d1, d2)]
    assert counts[0] == counts[1] * counts[2]
    # hull volumes multiply, on the split coordinates of each sample point
    rng = random.Random(label)
    r1 = d1.rank
    for L, (L1, L2) in pairs.items():
        for _ in range(5):
            T = _dominant(d, rng)
            T1, T2 = RatVec(T.coords[:r1]), RatVec(T.coords[r1:])
            want = hull_volume(orthogonal_set(L1, T1)) * hull_volume(orthogonal_set(L2, T2))
            assert hull_volume(orthogonal_set(L, T)) == want, (L.label, T)
    # splitting constants multiply
    for M, (M1, M2) in pairs.items():
        for L in enumerate_levis(d, lower=M):
            for S in enumerate_levis(d, lower=M):
                (L1, L2), (S1, S2) = pairs[L], pairs[S]
                want = d_constant(M1, L1, S1) * d_constant(M2, L2, S2)
                assert d_constant(M, L, S) == want, (M.label, L.label, S.label)
