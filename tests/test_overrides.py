"""Configurable overrides: invariant-form rescaling, multiplicities, density kinds."""
from fractions import Fraction

import pytest

from gmcalc.contour import TestFunction, residue_identity_1d
from gmcalc.errors import NotARoot, UnsupportedType
from gmcalc.gmfamily import (
    ExpPolyFamily,
    family_limit,
    hull_volume,
    ScalarRootFns,
    orthogonal_set,
    scalar_fn_from_template,
)
from gmcalc.levilattice import d_constant, gfull, levi_lattice, mzero, restricted_rays
from gmcalc.rootdatum import RatVec, build_root_system
from gmcalc.spectral import build_spectral_triple, n_beta, tau_class, tempext_check


def test_gram_override_scales_measures():
    base = build_root_system("A2")
    scaled = build_root_system("A2", gram_override=[["6", "-3"], ["-3", "6"]])
    # pairing with coroots stays canonical, so the combinatorics agree
    assert len(scaled.roots) == len(base.roots)
    for i, r in enumerate(scaled.roots):
        assert scaled.pair(r, scaled.coroots[i]) == 2
    # volumes of the same point set pick up 3^(dim/2): squares scale by 3^dim
    T = base.fund_coweights[0] + base.fund_coweights[1]
    v_base = hull_volume(orthogonal_set(mzero(base), T))
    v_scaled = hull_volume(orthogonal_set(mzero(scaled), T))
    assert v_scaled.square == v_base.square * 9
    # the hull = limit equivalence is insensitive to the override
    fam = ExpPolyFamily.from_orthogonal_set(orthogonal_set(mzero(scaled), T))
    assert family_limit(fam) == v_scaled
    # splitting constants are scale free (orthonormal-basis determinants)
    m0b, m0s = mzero(base), mzero(scaled)
    for Lb, Ls in zip(levi_lattice(base), levi_lattice(scaled)):
        for Sb, Ss in zip(levi_lattice(base), levi_lattice(scaled)):
            assert d_constant(m0b, Lb, Sb).square == d_constant(m0s, Ls, Ss).square


def test_rational_gram_override_a2():
    """A non-integral form reaches the exact kernel with denominators other than 1."""
    from gmcalc.levilattice import contains, parabolics, trand_check
    from gmcalc.rootdatum import RatVec
    from gmcalc.spectral import discrete_constants, enumerate_spectral_triples

    base = build_root_system("A2")
    half = build_root_system("A2", gram_override=[["1", "-1/2"], ["-1/2", "1"]])
    probes = list(base.roots) + [RatVec([Fraction(1, 3), Fraction(-2, 5)]), base.rho_check]
    for u in probes:
        for v in probes:
            assert half.pair(u, v) == base.pair(u, v) / 2
    assert [L.label for L in levi_lattice(half)] == [L.label for L in levi_lattice(base)]
    assert [len(parabolics(L)) for L in levi_lattice(half)] == [
        len(parabolics(L)) for L in levi_lattice(base)
    ]
    records = list(trand_check(half))
    assert records and all(ok for *_, ok in records)
    assert [lhs.square for _, lhs, _, _ in records] == [lhs.square for _, lhs, _, _ in trand_check(base)]
    for tb, th in zip(enumerate_spectral_triples(base), enumerate_spectral_triples(half), strict=True):
        cb, ch = tau_class(tb), tau_class(th)
        assert cb.levi_L.label == ch.levi_L.label
        for Lb, Lh in zip(levi_lattice(base), levi_lattice(half)):
            if contains(cb.levi_L, Lb):
                assert discrete_constants(ch, Lh) == discrete_constants(cb, Lb)


def test_gram_override_must_be_invariant():
    with pytest.raises(UnsupportedType):
        build_root_system("A2", gram_override=[["2", "0"], ["0", "3"]])
    with pytest.raises(UnsupportedType):
        build_root_system("A1", gram_override=[["-2"]])
    # a zero form once ended in ZeroDivisionError, an indefinite A2 form in an endless root closure
    for label, gram in [("A1", [["0"]]), ("A2", [["0", "0"], ["0", "0"]]), ("A2", [["2", "-3"], ["-3", "2"]])]:
        with pytest.raises(UnsupportedType):
            build_root_system(label, gram_override=gram)
    # positive definite but not invariant: non-integral Cartan pairings once closed the roots without end;
    # the G2 form under the A2 label has integral pairings, and its closure stops past the 6 roots of A2
    for gram, match in [
        ([["2", "-1"], ["-1", "3"]], "non-integral"),
        ([["2", "-1"], ["-1", "4"]], "non-integral"),
        ([["2", "-3"], ["-3", "6"]], "more than 6 roots"),
    ]:
        with pytest.raises(UnsupportedType, match=match):
            build_root_system("A2", gram_override=gram)


def test_multiplicity_override():
    d = build_root_system("A1")
    triple = build_spectral_triple(d, range(len(d.roots)), [])
    rays = restricted_rays(mzero(d))
    t = tau_class(triple, mult={rays[0].key: Fraction(3, 2)})
    alpha = d.roots[d.simple[0]]
    assert n_beta(t, alpha) == Fraction(3, 2)
    from gmcalc.spectral import discrete_constants

    assert discrete_constants(t, gfull(d))["nL"] == Fraction(3, 4)
    # densities built from the class pick up the overridden residue
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "pole"}, t.nbeta)
    assert fns.fn(alpha).n == Fraction(3, 2)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_int_and_fraction_ray_keys_give_the_same_n_beta_and_densities(label):
    # a ray key is an integer row, and a Fraction tuple of equal values hashes and compares equal to it
    d = build_root_system(label)
    triple = build_spectral_triple(d, range(len(d.roots)), [])
    rays = restricted_rays(triple.levi_L)
    by_int = {ray.key: Fraction(k + 1, 2) for k, ray in enumerate(rays)}
    by_fraction = {tuple(map(Fraction, key)): n for key, n in by_int.items()}
    t_int, t_fraction = tau_class(triple, mult=by_int), tau_class(triple, mult=by_fraction)
    assert t_int.nbeta == t_fraction.nbeta == by_int
    template = {"kind": "model_plancherel", "c": "1"}
    fns_int = ScalarRootFns.uniform(triple.levi_L, template, by_int)
    fns_fraction = ScalarRootFns.uniform(triple.levi_L, template, by_fraction)
    for ray in rays:
        assert n_beta(t_int, ray.rep) == n_beta(t_fraction, -ray.rep) == by_int[ray.key]
        assert fns_int.fn(ray.rep).key == fns_fraction.fn(-ray.rep).key
        assert fns_fraction.fn(ray.rep).n == by_int[ray.key]
    # the zero row keeps its outcomes: no restricted root, and no density ray
    zero = RatVec.zero(d.rank)
    with pytest.raises(NotARoot, match="zero vector"):
        n_beta(t_int, zero)
    with pytest.raises(KeyError, match=r"no density ray along \(0, 0\)"):
        fns_int.fn(zero)


def test_pole_plus_rational_template_identity():
    fn = scalar_fn_from_template({"kind": "pole_plus_rational", "p": ["1", "1"], "q": ["-4", "0", "1"]}, Fraction(1))
    # analytic part (1+z)/(z^2-4) is regular on the axis; the identity holds
    rec = residue_identity_1d(fn, TestFunction((Fraction(1),), Fraction(1)), 0.05)
    assert rec["pass"], rec


def test_tempext_respects_override():
    d = build_root_system("A1")
    rays = restricted_rays(mzero(d))
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []), mult={rays[0].key: Fraction(2)})
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "pole"}, t.nbeta)
    records = tempext_check(t, fns, [lambda lam: 1.0])
    assert records and all(r["pass"] for r in records)
