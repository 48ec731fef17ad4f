from fractions import Fraction

import pytest

from gmcalc.errors import NotARoot, NotChamberStabilizer, NotSubsystem
from gmcalc.gmfamily import ScalarRootFns
from gmcalc.levilattice import enumerate_levis, gfull, mzero, restricted_rays
from gmcalc.rootdatum import RatVec, build_root_system
from gmcalc.spectral import (
    build_spectral_triple,
    chamber_transitivity,
    classify_tau,
    closed_subsystems,
    discrete_constants,
    enumerate_spectral_triples,
    eps_tau,
    n_beta,
    r_group,
    reflections_in_core,
    tau_class,
    tempext_check,
)
from gmcalc.exactlin import coords_in_basis, mat, mat_vec, primitive_ray, projector, transpose


def full_sigma(d):
    return frozenset(range(len(d.roots)))


def test_build_triple_trivial_and_full():
    d = build_root_system("A1")
    t0 = build_spectral_triple(d, [], [])
    assert t0.r_elem.is_identity()
    t1 = build_spectral_triple(d, range(len(d.roots)), [])
    assert len(t1.sigma_roots) == 2


def test_build_triple_rejects_open_subset():
    d = build_root_system("A2")
    # a single root without its negative is not symmetric
    with pytest.raises(NotSubsystem):
        build_spectral_triple(d, [d.pos_indices[0]], [])
    # two plus-minus pairs whose reflections leave the set: A2 has no such pair
    i, j = d.pos_indices[0], d.pos_indices[1]
    with pytest.raises(NotSubsystem):
        build_spectral_triple(d, [i, d.neg_of[i], j, d.neg_of[j]], [])


def test_build_triple_rejects_chamber_mover():
    d = build_root_system("A1")
    i = d.simple[0]
    with pytest.raises(NotChamberStabilizer):
        build_spectral_triple(d, [0, 1], [i])


def test_r_group_shapes():
    d = build_root_system("A1")
    t = build_spectral_triple(d, range(len(d.roots)), [])
    groups = r_group(t)
    assert len(groups.w_sigma0) == 2
    assert len(groups.r_group) == 1
    t_empty = build_spectral_triple(d, [], [d.simple[0]])
    # with an empty vanishing set the whole group is generated by r
    g2 = r_group(t_empty)
    assert len(g2.w_sigma0) == 1
    assert len(g2.r_group) == 2

    d2 = build_root_system("A2")
    t2 = build_spectral_triple(d2, range(len(d2.roots)), [])
    g3 = r_group(t2)
    assert len(g3.w_sigma0) == 6
    assert len(g3.r_group) == 1


def test_classify_a1_cases():
    d = build_root_system("A1")
    t_full = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    assert t_full.levi_L == mzero(d)
    assert classify_tau(t_full)

    t_empty = tau_class(build_spectral_triple(d, [], []))
    assert not classify_tau(t_empty)


def test_classify_exhaustive_rank2():
    for label in ("A2", "B2", "G2", "A1xA1"):
        d = build_root_system(label)
        for triple in enumerate_spectral_triples(d):
            t = tau_class(triple)
            classify_tau(t)  # raises InternalInconsistency on any disagreement


def test_transitivity_and_reflections_exhaustive_rank2():
    for label in ("A2", "B2", "A1xA1"):
        d = build_root_system(label)
        for triple in enumerate_spectral_triples(d):
            t = tau_class(triple)
            assert chamber_transitivity(t), (label, triple)
            assert reflections_in_core(t), (label, triple)


def test_n_beta_values():
    d = build_root_system("A1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    alpha = d.roots[d.simple[0]]
    assert n_beta(t, alpha) == 1
    with pytest.raises(NotARoot):
        n_beta(t, 3 * alpha)

    t0 = tau_class(build_spectral_triple(d, [], []))
    assert n_beta(t0, alpha) == 0


def test_n_beta_two_pairs_same_ray():
    # B2 with vanishing set {+-e1, +-e2} and r the diagonal reflection:
    # both short pairs restrict to one ray of the fixed line, so n = 2 there
    d = build_root_system("B2")
    short = [i for i, r in enumerate(d.roots) if d.pair(r, r) == 2]
    assert len(short) == 4
    long_pos = [i for i in d.pos_indices if d.pair(d.roots[i], d.roots[i]) == 4]
    swap = None
    for j in long_pos:
        triple_try = None
        try:
            triple_try = build_spectral_triple(d, short, [j])
        except NotChamberStabilizer:
            continue
        swap = triple_try
        break
    assert swap is not None
    t = tau_class(swap)
    assert t.levi_L.dim == 1
    rays = t.tau_rays
    assert len(rays) == 1
    assert n_beta(t, rays[0].rep) == 2


def test_discrete_constants_basics():
    d = build_root_system("A1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    home = t.levi_L
    res_home = discrete_constants(t, home)
    assert res_home["nL"] == 1
    res_g = discrete_constants(t, gfull(d))
    assert res_g["nL"] == Fraction(1, 2)
    assert res_g["kL"] == 1

    t0 = tau_class(build_spectral_triple(d, [], []))
    res0 = discrete_constants(t0, gfull(d))
    assert res0["nL"] == 0


def test_discrete_constants_match_elementary_symmetric(nl_elementary):
    # rank <= 2: n^L is e_need of the n_beta/2; many values are neither 0 nor 1
    for label, nontrivial in (("A1", 1), ("A2", 7), ("B2", 19), ("G2", 38), ("A1xA1", 7)):
        d = build_root_system(label)
        seen = 0
        for triple in enumerate_spectral_triples(d):
            t = tau_class(triple)
            for L in enumerate_levis(d, lower=t.levi_L):
                nl = discrete_constants(t, L)["nL"]
                assert nl == nl_elementary(t, L), (label, triple, L.label)
                assert L != t.levi_L or nl == 1
                seen += nl not in (0, 1)
        assert seen == nontrivial, label
    # on A3 three rays can be dependent, and only the rank test drops them
    d = build_root_system("A3")
    pairs = [
        (t, L)
        for t in map(tau_class, enumerate_spectral_triples(d))
        for L in enumerate_levis(d, lower=t.levi_L)
    ]
    assert len(pairs) == 319
    assert sum(discrete_constants(t, L)["nL"] != nl_elementary(t, L) for t, L in pairs) == 5
    # two distinct rays are always independent, so the routes agree up to need 2
    assert all(
        discrete_constants(t, L)["nL"] == nl_elementary(t, L)
        for t, L in pairs
        if t.levi_L.dim - L.dim <= 2
    )


def test_eps_tau_character():
    d = build_root_system("A1xA1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    core = t.core
    assert len(core) == 4
    for u in core:
        assert eps_tau(t, u) in (-1, 1)
    # group character on the modeled stabilizer
    from gmcalc.exactlin import mat_mul
    from gmcalc.spectral import TauWeyl

    for a in core:
        for b in core:
            ab = TauWeyl(mat_mul(a.mat, b.mat), a.lift)
            assert eps_tau(t, ab) == eps_tau(t, a) * eps_tau(t, b)


def test_eps_tau_reflection_is_minus_one():
    d = build_root_system("A2")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    from gmcalc.spectral import _flat_reflection, TauWeyl

    for ray in t.tau_rays:
        m = _flat_reflection(t, ray)
        # identity has sign +1, a pole-ray reflection has sign -1
        u = TauWeyl(m, t.r_elem)
        assert eps_tau(t, u) == -1
    ident = t.core[0]
    from gmcalc.exactlin import identity as id_mat

    assert any(u.mat == id_mat(t.levi_L.dim) and eps_tau(t, u) == 1 for u in t.core)


def test_tempext_a1_exact_cancellation():
    d = build_root_system("A1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "pole"}, t.nbeta)
    records = tempext_check(t, fns, [lambda lam: 1.0])
    assert records
    for rec in records:
        assert rec["pass"]
        assert max(rec["maxima"]) <= 1e-10


def test_tempext_rank2_bounded():
    for label in ("A1xA1", "A2"):
        d = build_root_system(label)
        t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
        fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
        phi = [lambda lam: 1.0, lambda lam: 1.0 + sum(x * x for x in lam)]
        records = tempext_check(t, fns, phi)
        assert records
        for rec in records:
            assert rec["pass"], rec


def test_closed_subsystem_counts():
    d = build_root_system("A2")
    subs = closed_subsystems(d)
    # empty, three A1 pairs, full
    assert len(subs) == 5
    d2 = build_root_system("B2")
    # empty, four A1 pairs, two orthogonal A1xA1 pairs (short-short and long-long), full
    assert len(closed_subsystems(d2)) == 8


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_on_home_matches_basis_loop(label):
    from gmcalc.spectral import _on_home

    d = build_root_system(label)
    for triple in enumerate_spectral_triples(d):
        t = tau_class(triple)
        basis = t.levi_L.basis
        for u in t.core:
            if not basis:
                continue
            rows = [coords_in_basis(mat_vec(u.lift.matrix, b), basis) for b in basis]
            assert None not in rows
            assert _on_home(t, u.lift) == transpose(mat(rows)) == u.mat


def _nbeta_by_projection(t):
    """n by the earlier route: project each vanishing-set root onto the home flat and count per ray."""
    d = t.datum
    proj_m = projector(t.levi_L.basis, d.gram)
    projs = [mat_vec(proj_m, d.roots[i].coords) for i in t.sigma_roots]
    keys = [primitive_ray(p) for p in projs if any(p)]
    return {ray.key: Fraction(keys.count(ray.key), 2) for ray in restricted_rays(t.levi_L)}


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1", "A3", "A1xA3"])
def test_nbeta_from_ray_members_matches_projection(label):
    classes = enumerate_spectral_triples(build_root_system(label))
    assert any(any(t.nbeta.values()) for t in classes)
    for t in classes:
        assert t.nbeta == _nbeta_by_projection(t), (label, t)


def test_classes_built_once_and_overrides_copy():
    d = build_root_system("A2")
    classes = enumerate_spectral_triples(d)
    assert enumerate_spectral_triples(d) is classes
    t = next(t for t in classes if t.sigma_roots == full_sigma(d) and t.r_elem.is_identity())
    assert tau_class(t) is t
    before = t.nbeta
    ray = t.tau_rays[0]
    u = tau_class(t, mult={ray.key: Fraction(3, 2)})
    assert u is not t and u.sigma_roots == t.sigma_roots and u.r_elem is t.r_elem
    assert u.nbeta[ray.key] == Fraction(3, 2) and before[ray.key] == 1
    assert t.nbeta is before and t.nbeta == {key: 1 for key in before}
