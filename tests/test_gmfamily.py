import random
from fractions import Fraction

import pytest

from gmcalc.errors import FamilyNotSmooth, IncompleteInput, NotDominant
from gmcalc.gmfamily import (
    ExpPolyFamily,
    ScalarRootFns,
    descent_sum,
    family_limit,
    hull_volume,
    induced_family_value,
    orthogonal_set,
    split_formula,
    split_terms,
    _lam_evaluator,
)
from gmcalc.levilattice import (
    QuadConst,
    base_chamber,
    enumerate_levis,
    gfull,
    levi_lattice,
    mzero,
    parabolics,
    restricted_rays,
)
from gmcalc.ratpoly import Poly
from gmcalc.rootdatum import RatVec, build_root_system, weyl_group


def dominant_point(d, coeffs):
    T = RatVec.zero(d.rank)
    for c, w in zip(coeffs, d.fund_coweights):
        T = T + Fraction(c) * w
    return T


def random_dominant(d, rng):
    return dominant_point(d, [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(d.rank)])


# -- orthogonal sets ---------------------------------------------------------


def test_orthogonal_set_zero_point():
    d = build_root_system("A2")
    for M in levi_lattice(d):
        oset = orthogonal_set(M, RatVec.zero(d.rank))
        assert all(p.is_zero() for p in oset.points)
        oset.validate()


def test_orthogonal_set_a1():
    d = build_root_system("A1")
    M0 = mzero(d)
    alpha_check = d.coroots[d.simple[0]]
    oset = orthogonal_set(M0, alpha_check)
    assert set(p.coords for p in oset.points) == {alpha_check.coords, (-alpha_check).coords}
    oset.validate()


def test_orthogonal_set_a2_hexagon():
    d = build_root_system("A2")
    M0 = mzero(d)
    rho_check = d.fund_coweights[0] + d.fund_coweights[1]
    # orbit of (1,1) under W(A2) in simple-root coordinates
    expected = {
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(-1)),
        (Fraction(-1), Fraction(-1)),
    }
    oset = orthogonal_set(M0, rho_check)
    assert {p.coords for p in oset.points} == expected
    oset.validate()


def test_orthogonal_set_requires_dominance():
    d = build_root_system("A2")
    with pytest.raises(NotDominant):
        orthogonal_set(mzero(d), -1 * (d.fund_coweights[0]))


# -- hull volumes ------------------------------------------------------------


def test_hull_volume_degenerate_and_point():
    d = build_root_system("A2")
    M0 = mzero(d)
    zero = orthogonal_set(M0, RatVec.zero(d.rank))
    assert hull_volume(zero) == QuadConst.zero()
    assert hull_volume(orthogonal_set(gfull(d), RatVec.zero(d.rank))) == QuadConst.one()


def test_hull_volume_a1_segment():
    d = build_root_system("A1")
    oset = orthogonal_set(mzero(d), d.coroots[d.simple[0]])
    # segment [-acheck, acheck] has length 2 sqrt(2) in the invariant metric
    assert hull_volume(oset) == QuadConst.from_square(Fraction(8))


def test_hull_volume_a2_hexagon():
    d = build_root_system("A2")
    rho_check = d.fund_coweights[0] + d.fund_coweights[1]
    oset = orthogonal_set(mzero(d), rho_check)
    # regular hexagon, circumradius sqrt(2): area 3 sqrt(3)
    assert hull_volume(oset) == QuadConst.from_square(Fraction(27))


def test_hull_volume_3d_cube_like():
    # A1xA1xA1 with T = sum of coweights: hull is a box, volume computable by hand
    d = build_root_system("A1xA1xA1")
    M0 = mzero(d)
    T = dominant_point(d, [1, 1, 1])
    oset = orthogonal_set(M0, T)
    vol = hull_volume(oset)
    # coordinates are (+-1/2)^3 scaled: T = (1/2, 1/2, 1/2), orbit = corners of a cube
    # side 1 in coordinates, measure factor sqrt(det diag(2,2,2)) = 2 sqrt(2)
    assert vol == QuadConst.from_square(Fraction(8))


# -- family limits -----------------------------------------------------------


def test_constant_family_limits():
    d = build_root_system("A2")
    for M in levi_lattice(d):
        fam = ExpPolyFamily.constant(M, 1)
        val = family_limit(fam)
        if M.dim == 0:
            assert val == QuadConst.one()
        else:
            assert val == QuadConst.zero()


def test_family_limit_equals_hull_volume_exactly():
    rng = random.Random(2024)
    for label in ("A1", "A2", "B2", "A1xA1"):
        d = build_root_system(label)
        for M in levi_lattice(d):
            for _ in range(6):
                T = random_dominant(d, rng)
                oset = orthogonal_set(M, T)
                fam = ExpPolyFamily.from_orthogonal_set(oset)
                assert family_limit(fam) == hull_volume(oset), (label, M.label, T)


def test_family_limit_linear():
    rng = random.Random(5)
    d = build_root_system("A2")
    M0 = mzero(d)
    f1 = ExpPolyFamily.from_orthogonal_set(orthogonal_set(M0, random_dominant(d, rng)))
    f2 = ExpPolyFamily.from_orthogonal_set(orthogonal_set(M0, random_dominant(d, rng)))
    a, b = Fraction(3), Fraction(-7, 2)
    combo = f1.scaled(a).plus(f2.scaled(b))
    v1, v2, vc = family_limit(f1), family_limit(f2), family_limit(combo)
    assert float(vc) == pytest.approx(a * float(v1) + b * float(v2), abs=1e-12)
    # exact version through squares
    lhs = vc
    import math

    rhs = float(a) * math.sqrt(float(v1.square)) * v1.sign + float(b) * math.sqrt(float(v2.square)) * v2.sign
    assert float(lhs) == pytest.approx(rhs, abs=1e-12)


def test_family_limit_weyl_invariant():
    d = build_root_system("B2")
    rng = random.Random(9)
    M0 = mzero(d)
    fam = ExpPolyFamily.from_orthogonal_set(orthogonal_set(M0, random_dominant(d, rng)))
    base = family_limit(fam)
    for w in weyl_group(d):
        assert family_limit(fam.weyl_image(w)) == base


def test_family_limit_many_directions_cancel():
    d = build_root_system("A2")
    rng = random.Random(31)
    M0 = mzero(d)
    fam = ExpPolyFamily.from_orthogonal_set(orthogonal_set(M0, random_dominant(d, rng)))
    chambers = parabolics(M0)
    seen = set()
    count = 0
    for P in chambers:
        for Q in chambers:
            direction = P.chamber_point + Fraction(1, 13) * Q.chamber_point
            if direction.coords in seen:
                continue
            seen.add(direction.coords)
            # raises FamilyNotSmooth if any negative Laurent order survived
            family_limit(fam, direction=direction)
            count += 1
            if count >= 10:
                return


def test_incompatible_family_raises():
    d = build_root_system("A1")
    M0 = mzero(d)
    n = d.rank
    fam = ExpPolyFamily(
        M0,
        [[(Poly.const(n, 1), RatVec.zero(n))], [(Poly.const(n, 2), RatVec.zero(n))]],
    )
    assert fam.check_compatibility()
    with pytest.raises(FamilyNotSmooth):
        family_limit(fam)


def test_exponential_families_pass_wall_checks():
    d = build_root_system("A2")
    rng = random.Random(77)
    for M in levi_lattice(d):
        oset = orthogonal_set(M, random_dominant(d, rng))
        fam = ExpPolyFamily.from_orthogonal_set(oset)
        assert fam.check_compatibility() == []


def test_family_limit_g_case():
    d = build_root_system("A2")
    G = gfull(d)
    n = d.rank
    fam = ExpPolyFamily(G, [[(Poly.const(n, Fraction(5, 3)), RatVec.zero(n))]])
    assert family_limit(fam) == QuadConst.from_rational(Fraction(5, 3))


# -- splitting formula -------------------------------------------------------


def test_split_formula_zero_densities():
    d = build_root_system("A2")
    M0 = mzero(d)
    fns = ScalarRootFns.uniform(M0, {"kind": "pole"}, None)  # all n = 0: f == 0
    P = base_chamber(d)
    val = split_formula(fns, M0, P, P, RatVec.of([1, 2]))
    assert val == 0


def test_split_formula_rank_one():
    d = build_root_system("A1")
    M0 = mzero(d)
    rays = restricted_rays(M0)
    fns = ScalarRootFns.uniform(M0, {"kind": "pole"}, {rays[0].key: Fraction(1)})
    P = base_chamber(d)
    lam = RatVec.of([Fraction(1, 3)])
    val = split_formula(fns, M0, P, P, lam)
    # single subset {-alpha}: vol = |(-alpha)dual| = sqrt(2), argument lam((-alpha)dual) = -2/3
    z = complex(d.pair(lam, d.coroots[d.simple[0]]))
    expected = (2 ** 0.5) * (-(1.0) / (-z))
    assert val == pytest.approx(expected, rel=1e-12)


def test_split_formula_constant_density_symmetric_sum():
    # with f == k the sum reduces to k^dim times the sum of lattice covolumes
    d = build_root_system("A2")
    M0 = mzero(d)
    G = gfull(d)
    k = 0.75

    class Const:
        n = Fraction(0)

        def has_pole0(self):
            return False

        def __call__(self, z):
            return k

    fns = ScalarRootFns(M0, {ray.key: Const() for ray in restricted_rays(M0)})
    P = base_chamber(d)
    val = split_formula(fns, M0, P, P, RatVec.of([1, Fraction(1, 2)]))
    # direct enumeration oracle over pairs of distinct negative coroots
    from itertools import combinations

    from gmcalc.exactlin import gram_det, vscale

    duals = []
    for ray in restricted_rays(M0):
        rep = ray.rep if d.pair(ray.rep, P.chamber_point) < 0 else -ray.rep
        duals.append(vscale(Fraction(2) / d.pair(rep, rep), rep.coords))
    expected = 0.0
    for pair in combinations(duals, 2):
        sq = gram_det(list(pair), d.gram)
        if sq != 0:
            expected += k * k * float(sq) ** 0.5
    assert val == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("template", [{"kind": "pole"}, {"kind": "model_plancherel", "c": "1"}])
def test_split_formula_matches_induced_family_a2(template):
    d = build_root_system("A2")
    M0 = mzero(d)
    n_map = {ray.key: Fraction(1) for ray in restricted_rays(M0)}
    fns = ScalarRootFns.uniform(M0, template, n_map)
    P = base_chamber(d)
    lam0 = [0.31j, 0.17j]
    combinatorial = split_terms(fns, M0, gfull(d), P, _lam_evaluator(d, lam0))
    analytic = induced_family_value(fns, P, lam0, P.chamber_point)
    assert abs(combinatorial - analytic) <= 1e-8


def test_descent_sum_basics():
    d = build_root_system("A2")
    M0 = mzero(d)
    levis = enumerate_levis(d, lower=M0)
    zeros = {L: 0j for L in levis}
    assert all(v == 0 for v in descent_sum(zeros, M0).values())
    rng = random.Random(4)
    values = {L: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for L in levis}
    out = descent_sum(values, M0)
    G = gfull(d)
    assert out[G] == pytest.approx(values[M0], abs=1e-14)
    # hand-assembled spot check for one maximal Levi
    from gmcalc.levilattice import d_constant

    L = [x for x in levis if x.dim == 1][0]
    expected = 0j
    for S in levis:
        w = d_constant(M0, L, S)
        if not w.is_zero():
            expected += float(w) * values[S]
    assert out[L] == pytest.approx(expected, abs=1e-14)
    with pytest.raises(IncompleteInput):
        descent_sum({M0: 1.0}, M0)
