import cmath
import random
from fractions import Fraction

import pytest

from float_refs import ref_multiplier_alpha, same_bits
from fraction_refs import ref_mat_vec
from gmcalc.asymptotic import (
    SigmaModel,
    assemble_PhiP,
    c_coefficient_example,
    eps_M_sign,
    multiplier_alpha,
    phi_TT_expansion,
    weyl_denominator,
)
from gmcalc.errors import DimensionError, NotDiscrete, NotPRegular
from gmcalc.gmfamily import ScalarRootFns
from gmcalc.levilattice import (
    base_chamber,
    d_constant,
    enumerate_levis,
    gfull,
    levi_lattice,
    mzero,
    parabolics,
)
from gmcalc.rootdatum import RatVec, build_root_system, weyl_group
from gmcalc.spectral import build_spectral_triple, tau_class


def model_for(d, sigma="full", template=None, mu=None, ev=None):
    roots = range(len(d.roots)) if sigma == "full" else []
    t = tau_class(build_spectral_triple(d, roots, []))
    fns = ScalarRootFns.uniform(t.levi_L, template or {"kind": "model_plancherel", "c": "1"}, t.nbeta)
    mu_im = mu if mu is not None else RatVec([Fraction(k + 1, 3) for k in range(d.rank)])
    eval_im = ev if ev is not None else RatVec([Fraction(2 * k + 5, 7) for k in range(d.rank)])
    return SigmaModel(t, fns, mu_im, eval_im)


# -- multipliers ---------------------------------------------------------------


def test_multiplier_alpha_zero_and_bound():
    d = build_root_system("A2")
    M0 = mzero(d)
    zero = RatVec.zero(d.rank)
    assert multiplier_alpha(M0, zero, zero) == 1
    rng = random.Random(12)
    for _ in range(100):
        nu = RatVec([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
        X = RatVec([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
        assert abs(multiplier_alpha(gfull(d), nu, X)) <= 1 + 1e-12


def test_multiplier_alpha_trivial_group():
    d = build_root_system("A1")
    M0 = mzero(d)
    nu = RatVec([Fraction(3, 2)])
    X = RatVec([Fraction(1)])
    got = multiplier_alpha(M0, nu, X)
    assert got == pytest.approx(cmath.exp(1j * float(d.pair(nu, X))))


@pytest.mark.parametrize("group", ["A1", "A2", "B2", "G2", "A3", "A1xA3"])
def test_multiplier_alpha_keeps_the_rational_pairing_bits(group):
    # one integer dot over one denominator per Weyl element, against float(d.pair(act(w, nu), X)), on every
    # Levi and on the samples of the suite's multiplier-bound record
    d = build_root_system(group)
    rng = random.Random(20260810)
    for M1 in levi_lattice(d):
        for _ in range(5):
            nu = RatVec([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
            X = RatVec([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
            assert same_bits(multiplier_alpha(M1, nu, X), ref_multiplier_alpha(M1, nu, X))


def test_multiplier_alpha_rejects_a_vector_of_another_length():
    d = build_root_system("A2")
    with pytest.raises(DimensionError, match="expected vectors of length 2"):
        multiplier_alpha(gfull(d), RatVec([Fraction(1)]), RatVec.zero(2))
    with pytest.raises(DimensionError, match="expected vectors of length 2"):
        multiplier_alpha(gfull(d), RatVec.zero(2), RatVec.zero(3))


# -- Weyl denominators and signs ------------------------------------------------


def test_weyl_denominator_empty_and_a1():
    d = build_root_system("A1")
    assert weyl_denominator(d, [], [0.3j]) == 1
    alpha = d.roots[d.pos_indices[0]]
    Y = [complex(0.4, 0.1)]
    u = sum(complex(g) * y for g, y in zip(d.gram[0], Y)) * float(alpha.coords[0])
    # alpha(Y) = 2u means the factor is 2 sinh(u)
    val = weyl_denominator(d, list(d.pos_indices), Y)
    aY = u
    assert val == pytest.approx(2 * cmath.sinh(aY / 2))


def test_weyl_denominator_antisymmetry():
    d = build_root_system("A2")
    sigma = list(d.pos_indices)
    Y = [complex(0.21, 0.4), complex(-0.33, 0.09)]
    base = weyl_denominator(d, sigma, Y)
    for w in weyl_group(d):
        # the root permutation agrees with the matrix action
        wsigma = [w.perm[k] for k in sigma]
        assert [d.roots[j].coords for j in wsigma] == [ref_mat_vec(w.matrix, d.roots[k].coords) for k in sigma]
        lhs = weyl_denominator(d, wsigma, Y)
        assert abs(abs(lhs) - abs(base)) <= 1e-9 * max(1.0, abs(base))
        sign = eps_M_sign(d, w, sigma)
        assert lhs == pytest.approx(sign * base, rel=1e-9)


@pytest.mark.parametrize("label", ["A3", "A1xA3"])
def test_weyl_denominator_antisymmetry_off_every_wall(label):
    # the examples sample lies on the alpha2 wall of A3, where the base product is 0 and any sign passes
    d = build_root_system(label)
    sigma = list(d.pos_indices)
    real = RatVec([Fraction(1, 2), Fraction(5, 4), Fraction(9, 4), Fraction(3)][: d.rank])
    assert all(abs(d.pair(r, real)) >= Fraction(1, 4) for r in d.roots)
    Y = [complex(float(x), 0.11 * (k + 1)) for k, x in enumerate(real)]
    base = weyl_denominator(d, sigma, Y)
    assert abs(base) >= 1e-3

    def worst(sign):
        return max(abs(weyl_denominator(d, [w.perm[k] for k in sigma], Y) - sign(w) * base) for w in weyl_group(d))

    assert worst(lambda w: eps_M_sign(d, w, sigma)) <= 1e-9 * max(1.0, abs(base))
    assert worst(lambda w: 1) > 1e-3  # every sign forced to +1


def test_weyl_denominator_vanishes_on_walls():
    d = build_root_system("A1")
    # alpha(Y) = 2 pi i  means sinh(alpha(Y)/2) = 0
    alpha = d.roots[d.pos_indices[0]]
    aa = float(d.pair(alpha, alpha))
    Y = [2j * cmath.pi / (aa / float(alpha.coords[0]))]
    val = weyl_denominator(d, list(d.pos_indices), [Y[0]])
    assert abs(val) <= 1e-9


def test_eps_m_sign_values():
    d = build_root_system("A2")
    sigma = list(d.pos_indices)
    ws = weyl_group(d)
    assert eps_M_sign(d, ws[0], sigma) == 1
    for w in ws:
        if len(w.word) == 1:
            assert eps_M_sign(d, w, sigma) == -1
    longest = max(ws, key=lambda w: len(w.word))
    assert len(longest.word) == 3
    assert eps_M_sign(d, longest, sigma) == -1


def test_eps_m_is_sign_character_on_full_system():
    # for the full positive system the inversion parity is the sign character
    d = build_root_system("B2")
    sigma = list(d.pos_indices)
    ws = weyl_group(d)
    from fraction_refs import ref_mat_mul as mat_mul

    for a in ws:
        assert eps_M_sign(d, a, sigma) == (-1) ** len(a.word)
        for b in ws:
            ab = next(w for w in ws if w.matrix == mat_mul(a.matrix, b.matrix))
            assert eps_M_sign(d, ab, sigma) == eps_M_sign(d, a, sigma) * eps_M_sign(d, b, sigma)


def test_eps_m_character_on_subsystem_stabilizer():
    # restricted to the reflection subgroup of a sub-root-system the sign is a character
    d = build_root_system("A2")
    from fraction_refs import ref_mat_mul as mat_mul
    from gmcalc.rootdatum import reflect_subgroup

    i = d.pos_indices[0]
    sigma = [i]
    sub = reflect_subgroup(d, [i, d.neg_of[i]])
    for a in sub:
        for b in sub:
            ab = next(w for w in weyl_group(d) if w.matrix == mat_mul(a.matrix, b.matrix))
            assert eps_M_sign(d, ab, sigma) == eps_M_sign(d, a, sigma) * eps_M_sign(d, b, sigma)


# -- coefficient examples --------------------------------------------------------


def test_c_coefficient_identity_case():
    d = build_root_system("A2")
    model = model_for(d)
    M0 = mzero(d)
    P = base_chamber(d)
    u = 1j
    w_id = weyl_group(d)[0]
    got = c_coefficient_example(model, w_id, P, u, M0, M0)
    direct = u * model.m_rel(M0, gfull(d), P)
    assert got == pytest.approx(direct, rel=1e-12)


def test_c_coefficient_weyl_move_consistency():
    # value with w equals the identity value computed at the w-moved parabolic
    d = build_root_system("A1")
    model = model_for(d)
    M0 = mzero(d)
    P = base_chamber(d)
    s = weyl_group(d)[1]
    moved = c_coefficient_example(model, s, P, 1.0, M0, M0)
    assert isinstance(moved, complex)


def test_c_coefficient_not_discrete():
    d = build_root_system("A2")
    model = model_for(d, sigma="empty")
    M0 = mzero(d)
    with pytest.raises(NotDiscrete):
        c_coefficient_example(model, weyl_group(d)[0], base_chamber(d), 1.0, gfull(d), M0)


def test_assemble_phip_empty_and_nonconjugate():
    d = build_root_system("A2")
    model = model_for(d)
    M0, G = mzero(d), gfull(d)
    maxes = [L for L in levi_lattice(d) if L.dim == 1]
    P = parabolics(maxes[0])[0]
    # no conjugate of G fits inside a maximal Levi
    assert assemble_PhiP({}, G, G, model, P) == 0


def test_assemble_phip_direct_assembly():
    d = build_root_system("A2")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "pole"}, t.nbeta)
    model = SigmaModel(t, fns, RatVec([1, 1]), RatVec([Fraction(5, 7), Fraction(2, 7)]))
    M0 = mzero(d)
    maxes = [L for L in levi_lattice(d) if L.dim == 1]
    M = maxes[0]
    P = parabolics(M)[0]
    L = maxes[1]
    rng = random.Random(3)
    inputs = {X.label: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for X in levi_lattice(d)}
    got = assemble_PhiP(inputs, M0, L, model, P)
    # independent reassembly
    from gmcalc.levilattice import chamber_at, conjugate_levi, contains, weyl_cosets
    from gmcalc.rootdatum import act
    from gmcalc.spectral import discrete_constants

    kl = discrete_constants(t, L)["kL"]
    kl1 = discrete_constants(t, M0)["kL"]
    nl = discrete_constants(t, L)["nL"]
    expected = 0j
    for S in enumerate_levis(d, lower=M0):
        dc = d_constant(M0, L, S)
        if dc.is_zero():
            continue
        for w in weyl_cosets(M):
            wm = conjugate_levi(w, M)
            if not (contains(M0, wm) and contains(wm, S)):
                continue
            wp = chamber_at(wm, act(w, P.chamber_point))
            expected += float(dc) * inputs[wm.label] * model.m_rel(wm, S, wp)
    expected *= (kl / kl1) * float(nl)
    assert got == pytest.approx(expected, rel=1e-12)


# -- the split-torus expansion -----------------------------------------------


def test_phi_tt_a1_term_count():
    d = build_root_system("A1")
    model = model_for(d, mu=d.fund_coweights[0])
    P = base_chamber(d)
    exp = phi_TT_expansion(model, P)
    assert len(exp.terms) == 4  # 2 Levi subgroups x 2 Weyl elements


def test_phi_tt_zero_densities_trivial_coefficients():
    d = build_root_system("A2")
    t = tau_class(build_spectral_triple(d, [], []))
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "pole"}, t.nbeta)
    mu = d.fund_coweights[0] + 2 * d.fund_coweights[1]
    model = SigmaModel(t, fns, mu, RatVec([Fraction(5, 7), Fraction(2, 7)]))
    P = base_chamber(d)
    exp = phi_TT_expansion(model, P)
    for term in exp.terms:
        if term.levi_label == "M0":
            assert term.coefficient == pytest.approx(1.0)
        else:
            assert term.coefficient == pytest.approx(0.0, abs=1e-15)


def test_phi_tt_requires_regular_orbit():
    d = build_root_system("A1")
    model = model_for(d, mu=RatVec.zero(1))
    with pytest.raises(NotPRegular):
        phi_TT_expansion(model, base_chamber(d))


def test_phi_tt_relabel_invariance():
    d = build_root_system("A1xA1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
    # antidominant mu is minimal for the base chamber in every coordinate
    mu = RatVec([Fraction(-1), Fraction(-1)])
    ok = all(
        d.pair(d.roots[i], mu) < 0 for i in base_chamber(d).positive_roots
    )
    assert ok
    model = SigmaModel(t, fns, mu, RatVec([Fraction(5, 7), Fraction(2, 7)]))
    exp = phi_TT_expansion(model, base_chamber(d))
    by_key = {(term.levi_label, term.mu_image): term.coefficient for term in exp.terms}
    assert len(by_key) == len(exp.terms)
    # composing the enumeration with the longest element only permutes the terms
    ws = weyl_group(d)
    w0 = max(ws, key=lambda w: len(w.word))
    from fraction_refs import ref_mat_mul as mat_mul
    from gmcalc.rootdatum import act

    for S in levi_lattice(d):
        for w in ws:
            ww0 = next(x for x in ws if x.matrix == mat_mul(w.matrix, w0.matrix))
            key = (S.label, tuple(act(ww0, mu).coords))
            assert key in by_key
            direct = model.m_rel(mzero(d), S, base_chamber(d), w=ww0)
            assert by_key[key] == pytest.approx(direct, abs=1e-12)


def test_assemble_phip_linear_in_inputs():
    d = build_root_system("A2")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))

    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
    model = SigmaModel(t, fns, RatVec([1, 1]), RatVec([Fraction(5, 7), Fraction(2, 7)]))
    M0 = mzero(d)
    maxes = [L for L in levi_lattice(d) if L.dim == 1]
    M, L = maxes[0], maxes[1]
    P = parabolics(M)[0]
    rng = random.Random(8)
    a = {X.label: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for X in levi_lattice(d)}
    b = {X.label: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for X in levi_lattice(d)}
    s, u = 2.5 - 0.5j, -1.25j
    combo = {k: s * a[k] + u * b[k] for k in a}
    va = assemble_PhiP(a, M0, L, model, P)
    vb = assemble_PhiP(b, M0, L, model, P)
    vc = assemble_PhiP(combo, M0, L, model, P)
    assert vc == pytest.approx(s * va + u * vb, rel=1e-12)
