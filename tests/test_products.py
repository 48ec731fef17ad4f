"""Product groups as exact oracles: every fact of G1 x G2 that must factor, checked against its factors.

With the orthogonal-sum form, the Levi lattice of G1 x G2 is the product of
the factors' lattices, each Levi's chambers are pairs of chambers, the
spectral classes are pairs of classes, the hull of an orthogonal set is the
product of the factors' hulls, a splitting constant is the product of the
factors' constants, and theta of a chamber, product and covolume alike, is
the product of the factors' thetas.  The product side is always built from
the product datum alone: a product Levi is matched to its pair of factor
Levis only by the support of its roots, a chamber to its pair of factor
chambers only by its positive roots, and a point only by its coordinates.
"""
import random
from fractions import Fraction

import pytest

from mutants import doubled_hull_volume, doubled_theta_covolume, negated_d
from gmcalc.gmfamily import hull_volume, orthogonal_set
from gmcalc.levilattice import d_constant, enumerate_levis, levi_lattice, parabolics, theta
from gmcalc.rootdatum import RatVec, build_root_system
from gmcalc.spectral import enumerate_spectral_triples

PRODUCTS = ["A1xA1", "A1xA2", "A1xA3", "A2xB2", "G2xG2"]


def _factors(label):
    """The product datum and its two factor data, built apart."""
    first, second = label.split("x")
    return build_root_system(label), build_root_system(first), build_root_system(second)


def _split_roots(d, d1, d2, roots):
    """The product's root indices split into the two factors' root indices, each as a frozenset."""
    r1 = d1.rank
    index1 = {row: k for k, row in enumerate(d1.root_rows)}
    index2 = {row: k for k, row in enumerate(d2.root_rows)}
    rows = [d.root_rows[i] for i in roots]
    assert all(not any(row[:r1]) or not any(row[r1:]) for row in rows)  # each root in one factor
    return (frozenset(index1[row[:r1]] for row in rows if any(row[:r1])),
            frozenset(index2[row[r1:]] for row in rows if any(row[r1:])))


def _levi_pairs(d, d1, d2):
    """Each Levi of the product mapped to its pair of factor Levis by the support of its roots."""
    lattice1 = {L.root_subset: L for L in levi_lattice(d1)}
    lattice2 = {L.root_subset: L for L in levi_lattice(d2)}
    pairs = {}
    for L in levi_lattice(d):
        s1, s2 = _split_roots(d, d1, d2, L.root_subset)
        pairs[L] = (lattice1[s1], lattice2[s2])
    return pairs


def _chamber_pairs(d, d1, d2, L, L1, L2):
    """Each chamber of P(L) mapped to its pair of factor chambers by the split of its positive roots."""
    chambers1 = {frozenset(P.positive_roots): P for P in parabolics(L1)}
    chambers2 = {frozenset(P.positive_roots): P for P in parabolics(L2)}
    pairs = {}
    for P in parabolics(L):
        s1, s2 = _split_roots(d, d1, d2, P.positive_roots)
        pairs[P] = (chambers1[s1], chambers2[s2])
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
    # hull volumes multiply, and so do splitting constants
    assert _hull_mismatches(label, hull_volume) == (HULLS[label][0], [])
    assert _d_mismatches(label, d_constant) == (SPLITTINGS[label][0], [])


def _hull_mismatches(label, hull_fn):
    """The number of (Levi, point) samples of the product, five random dominant points per Levi, and those
    where hull_fn of its orthogonal set is not the product of its values on the pair of factor Levis, at the
    point's split coordinates."""
    d, d1, d2 = _factors(label)
    rng = random.Random(label)
    r1, checked, bad = d1.rank, 0, []
    for L, (L1, L2) in _levi_pairs(d, d1, d2).items():
        for _ in range(5):
            T = _dominant(d, rng)
            T1, T2 = RatVec(T.coords[:r1]), RatVec(T.coords[r1:])
            want = hull_fn(orthogonal_set(L1, T1)) * hull_fn(orthogonal_set(L2, T2))
            if hull_fn(orthogonal_set(L, T)) != want:
                bad.append((L.label, T))
            checked += 1
    return checked, bad


# per product: its (Levi, point) samples, and those where a volume doubled on flats of dimension above 1 breaks
# the oracle
HULLS = {"A1xA1": (20, 5), "A1xA2": (50, 15), "A1xA3": (150, 35), "A2xB2": (150, 65), "G2xG2": (320, 185)}


@pytest.mark.parametrize("label", PRODUCTS)
def test_doubled_hull_volume_fails_the_product_oracle(label):
    # it survives where a factor flat has dimension above 1 too, since that factor doubles as well
    checked, bad = _hull_mismatches(label, doubled_hull_volume)
    assert (checked, len(bad)) == HULLS[label]


def _d_mismatches(label, d_fn):
    """The number of triples M <= L, S of the product, and those where d_fn is not the product of its values on
    the pairs of factor Levis."""
    d, d1, d2 = _factors(label)
    pairs = _levi_pairs(d, d1, d2)
    checked, bad = 0, []
    for M, (M1, M2) in pairs.items():
        for L in enumerate_levis(d, lower=M):
            for S in enumerate_levis(d, lower=M):
                (L1, L2), (S1, S2) = pairs[L], pairs[S]
                if d_fn(M, L, S) != d_fn(M1, L1, S1) * d_fn(M2, L2, S2):
                    bad.append((M.label, L.label, S.label))
                checked += 1
    return checked, bad


# per product: its triples (M, L, S), and those where flipping the sign of every nonzero d breaks the oracle
SPLITTINGS = {"A1xA1": (25, 9), "A1xA2": (190, 45), "A1xA3": (2020, 339), "A2xB2": (2014, 345), "G2xG2": (7921, 2025)}


@pytest.mark.parametrize("label", PRODUCTS)
def test_negated_d_fails_the_product_oracle(label):
    # both factor constants flip and cancel, so exactly the nonzero constants of the product fail
    checked, bad = _d_mismatches(label, negated_d)
    assert (checked, len(bad)) == SPLITTINGS[label]


def _theta_mismatches(label, theta_fn):
    """The number of chambers of the product, and those where theta_fn is not the product of its values on
    the pair of factor chambers, at a random point split by coordinates."""
    d, d1, d2 = _factors(label)
    rng = random.Random(label)
    r1, matched, bad = d1.rank, 0, []
    for L, (L1, L2) in _levi_pairs(d, d1, d2).items():
        pairs = _chamber_pairs(d, d1, d2, L, L1, L2)
        assert len(set(pairs.values())) == len(pairs) == len(parabolics(L)), L.label
        for P, (P1, P2) in pairs.items():
            lam = RatVec([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d.rank)])
            got = theta_fn(P, lam)
            first, second = theta_fn(P1, RatVec(lam.coords[:r1])), theta_fn(P2, RatVec(lam.coords[r1:]))
            if got.product != first.product * second.product or got.covol != first.covol * second.covol:
                bad.append(P)
        matched += len(pairs)
    return matched, bad


# per product: its chambers, and those where a covolume doubled on flats of dimension above 1 breaks the oracle
CHAMBERS = {"A1xA1": (9, 4), "A1xA2": (39, 12), "A1xA3": (225, 28), "A2xB2": (221, 96), "G2xG2": (625, 288)}


@pytest.mark.parametrize("label", PRODUCTS)
def test_product_theta_is_the_product_of_the_factor_thetas(label):
    assert _theta_mismatches(label, theta) == (CHAMBERS[label][0], [])


@pytest.mark.parametrize("label", PRODUCTS)
def test_doubled_theta_covolume_fails_the_product_oracle(label):
    # it survives where one factor flat has dimension above 1 too, since that factor doubles as well
    matched, bad = _theta_mismatches(label, doubled_theta_covolume)
    assert (matched, len(bad)) == CHAMBERS[label]
