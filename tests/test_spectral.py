from fractions import Fraction

import pytest
from fraction_refs import (
    ref_brute_force_discrete,
    ref_chamber_test,
    ref_coords_in_basis,
    ref_fixed_space,
    ref_flat_reflection,
    ref_home_scan,
    ref_k_constant,
    ref_levi_L,
    ref_n_constant,
    ref_wall_points,
)

from gmcalc import spectral
from gmcalc.errors import NotARoot, NotChamberStabilizer, NotSubsystem
from gmcalc.gmfamily import ScalarRootFns
from gmcalc.levilattice import (
    chamber_witnesses,
    coord_map,
    enumerate_levis,
    gfull,
    levi_lattice,
    mzero,
    restricted_rays,
)
from gmcalc.rootdatum import RatVec, act, build_root_system, weyl_group
from gmcalc.spectral import (
    _brute_force_discrete,
    _flat_reflection,
    _wall_points,
    _chamber_test,
    _fixed_dim,
    _fixes_flat,
    build_spectral_triple,
    chamber_transitivity,
    classify_tau,
    closed_subsystems,
    discrete_constants,
    enumerate_spectral_triples,
    n_beta,
    n_constant,
    nl_elementary,
    reflections_in_core,
    tau_class,
    tempext_check,
)
from fraction_refs import ref_mat_vec as mat_vec
from fraction_refs import combine, mat, primitive_ray, ref_basis, ref_projector, transpose
from gmcalc.exactlin import int_mat_vec, int_row, ratio_vec


def full_sigma(d):
    return frozenset(range(len(d.roots)))


def test_build_triple_trivial_and_full():
    d = build_root_system("A1")
    t0 = build_spectral_triple(d, [], [])
    assert t0.r_elem.perm == tuple(range(len(d.roots)))
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


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_n_constant_equals_the_subset_rank_reference(label):
    d = build_root_system(label)
    nontrivial = 0
    for triple in enumerate_spectral_triples(d):
        # the class's own n_beta (zeros included), then a distinct n per ray, so that every basis
        # weighs differently and a dropped or doubled subset shows
        distinct = {ray.key: Fraction(k + 1, 3) for k, ray in enumerate(restricted_rays(triple.levi_L))}
        for t in (triple, tau_class(triple, distinct)):
            for L in enumerate_levis(d, lower=t.levi_L):
                want = ref_n_constant(t, L)
                assert n_constant(t, L) == want, (label, t, L.label)
                if t.levi_L.dim - L.dim <= 2:
                    assert nl_elementary(t, L) == want, (label, t, L.label)
                nontrivial += want not in (0, 1)
    assert nontrivial > 0


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


def _scaled(t, m):
    """A Fraction matrix on the home flat times the home's one positive scale, the convention of the core's keys."""
    scale = coord_map(t.levi_L)[3]
    return tuple(tuple(scale * x for x in row) for row in m)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_on_home_matches_basis_loop(label):
    from gmcalc.spectral import _on_home

    d = build_root_system(label)
    for triple in enumerate_spectral_triples(d):
        t = tau_class(triple)
        basis = ref_basis(t.levi_L)
        for m, w in t.core.items():
            if not basis:
                continue
            rows = [ref_coords_in_basis(mat_vec(w.matrix, b), basis) for b in basis]
            assert None not in rows
            assert _on_home(t, w) == _scaled(t, transpose(mat(rows))) == m
    homes = {t.levi_L: t for t in enumerate_spectral_triples(d) if t.levi_L.dim}
    moved = 0
    for t in homes.values():
        # every Weyl element, those that move the home flat included
        basis = ref_basis(t.levi_L)
        for w in weyl_group(d):
            rows = [ref_coords_in_basis(mat_vec(w.matrix, b), basis) for b in basis]
            want = None if None in rows else _scaled(t, transpose(mat(rows)))
            assert _on_home(t, w) == want, (t.levi_L.label, w)
            moved += want is None
    assert moved


CORE_PAIRS = {"A2": 18, "B2": 44, "G2": 76, "A3": 114, "A1xA3": 456}  # (class, core element) pairs


def ref_apply_tau(t, m, point):
    """A core key on a point of the home flat through its basis matrix over the home's scale: the route
    chamber_transitivity took."""
    home = t.levi_L
    scale = coord_map(home)[3]
    c = ref_coords_in_basis(point.coords, ref_basis(home))
    matrix = tuple(tuple(Fraction(x, scale) for x in row) for row in m)
    return combine(mat_vec(matrix, c), ref_basis(home), t.datum.rank) if home.dim else point.coords


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_core_acts_on_the_home_as_its_lift(label):
    # chamber_transitivity moves pole-chamber points by the lift, on integer rows
    d = build_root_system(label)
    pairs = 0
    for t in enumerate_spectral_triples(d):
        for m, w in t.core.items():
            for p in chamber_witnesses(t.levi_L, t.tau_rays).values():
                x, den = int_row(p.coords)
                assert ratio_vec(int_mat_vec(w.matrix, x), den) == ref_apply_tau(t, m, p) == act(w, p).coords
            pairs += 1
    assert pairs == CORE_PAIRS[label]


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_core_checks_fail_on_a_core_cut_to_the_identity(label):
    d = build_root_system(label)  # a datum of its own: the cut stays on its classes
    ident = tuple(range(len(d.roots)))
    classes = [t for t in enumerate_spectral_triples(d) if len(chamber_witnesses(t.levi_L, t.tau_rays)) > 1]
    assert classes
    for t in classes:
        assert chamber_transitivity(t) and reflections_in_core(t)
        t.__dict__["core"] = {m: w for m, w in t.core.items() if w.perm == ident}
        assert len(t.core) == 1
        assert not chamber_transitivity(t)
        assert not reflections_in_core(t)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_reflections_in_core_fails_without_one_pole_ray_reflection(label):
    d = build_root_system(label)  # a datum of its own: the cut stays on its classes
    cuts = 0
    for t in enumerate_spectral_triples(d):
        core = t.core
        for ray in t.tau_rays:
            t.__dict__["core"] = {m: w for m, w in core.items() if m != _flat_reflection(t, ray)}
            assert len(t.core) == len(core) - 1, (t, ray.key)
            assert not reflections_in_core(t), (t, ray.key)
            cuts += 1
        t.__dict__["core"] = core
        assert reflections_in_core(t)
    assert cuts


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_ray_reflections_equal_the_fraction_reference_times_the_scale(label):
    # every ray of every home, pole rays included: the scaled reference where it is integral, None where not
    d = build_root_system(label)
    homes = {t.levi_L: t for t in enumerate_spectral_triples(d)}
    off = 0
    for t in homes.values():
        for ray in restricted_rays(t.levi_L):
            want = _scaled(t, ref_flat_reflection(t, ray))
            integral = all(x.denominator == 1 for row in want for x in row)
            assert _flat_reflection(t, ray) == (want if integral else None), (t.levi_L.label, ray.key)
            off += not integral
    assert off if label in ("A3", "A1xA3") else not off


def _nbeta_by_projection(t):
    """n by the earlier route: project each vanishing-set root onto the home flat and count per ray."""
    d = t.datum
    proj_m = ref_projector(ref_basis(t.levi_L), d.gram)
    projs = [mat_vec(proj_m, d.roots[i].coords) for i in t.sigma_roots]
    keys = [primitive_ray(int_row(p)[0]) for p in projs if any(p)]
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
    t = next(t for t in classes if t.sigma_roots == full_sigma(d) and t.r_elem.perm == tuple(range(len(d.roots))))
    assert tau_class(t) is t
    before = t.nbeta
    ray = t.tau_rays[0]
    u = tau_class(t, mult={ray.key: Fraction(3, 2)})
    assert u is not t and u.sigma_roots == t.sigma_roots and u.r_elem is t.r_elem
    assert u.nbeta[ray.key] == Fraction(3, 2) and before[ray.key] == 1
    assert t.nbeta is before and t.nbeta == {key: 1 for key in before}


CHAMBER_DATA = [(g, None) for g in ("A1", "A2", "B2", "G2", "A3", "A1xA3")] + [
    ("A2", [["1", "-1/2"], ["-1/2", "1"]])
]


@pytest.mark.parametrize("label, gram", CHAMBER_DATA)
def test_chamber_test_equals_the_chamber_search_reference(label, gram):
    d = build_root_system(label, gram)
    orbit, den = d.rho_orbit
    for roots in closed_subsystems(d):
        fixes = _chamber_test(d, roots)
        point, ref = ref_chamber_test(d, roots)
        # the search found the least orbit point for every non-empty subsystem
        assert not roots or point.coords == ratio_vec(min(orbit), den), sorted(roots)
        assert [fixes(w) for w in weyl_group(d)] == [ref(w) for w in weyl_group(d)], sorted(roots)
    for t in enumerate_spectral_triples(d):
        for L in enumerate_levis(d, t.levi_L):
            assert discrete_constants(t, L)["kL"] == ref_k_constant(t, L), (t, L.label)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1", "A3", "A1xA3"])
def test_fixed_spaces_on_integer_rows_equal_the_fraction_kernel(label):
    d = build_root_system(label)
    for w in weyl_group(d):
        assert _fixed_dim(d, w) == len(ref_fixed_space(d, w)), w
        for L in levi_lattice(d):
            assert _fixes_flat(d, w, L) == all(act(w, RatVec(b)) == RatVec(b) for b in ref_basis(L)), (w, L.label)
    for t in enumerate_spectral_triples(d):
        assert t.levi_L == ref_levi_L(t), t
        for upper in enumerate_levis(d, lower=t.levi_L):
            assert _brute_force_discrete(t, upper) == ref_brute_force_discrete(t, upper), (t, upper.label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3", "G2xG2"])
def test_home_read_once_per_r_equals_the_per_class_scan(label):
    for t in enumerate_spectral_triples(build_root_system(label)):
        assert t.levi_L == ref_home_scan(t), t


def test_home_is_built_once_per_r(monkeypatch):
    d = build_root_system("A1xA3")
    fixed_dim = spectral._fixed_dim
    scans = []
    monkeypatch.setattr(spectral, "_fixed_dim", lambda d, w: scans.append(w.perm) or fixed_dim(d, w))
    classes = enumerate_spectral_triples(d)
    homes = [t.levi_L for t in classes] + [tau_class(t, mult={(Fraction(1),) * 4: Fraction(3)}).levi_L for t in classes]
    assert len(classes) == 141 and len(scans) == len(set(scans)) == 48
    assert sum(1 for key in d.kept if key[0] is spectral._home) == 48
    assert all(h is t.levi_L for h, t in zip(homes, classes + classes))


def _partition_holds(t):
    """2 sum n_beta = |sigma \\ Phi_home|: the vanishing roots off the home are split among its rays."""
    return 2 * sum(t.nbeta[ray.key] for ray in restricted_rays(t.levi_L)) == len(t.sigma_roots - t.levi_L.root_subset)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_nbeta_partition_the_vanishing_roots_off_the_home(label):
    classes = enumerate_spectral_triples(build_root_system(label))
    assert all(_partition_holds(t) for t in classes)
    # a class with one n_beta doubled breaks the count
    t = next(t for t in classes if t.tau_rays)
    key = t.tau_rays[0].key
    assert not _partition_holds(tau_class(t, mult={key: 2 * t.nbeta[key]}))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_wall_points_equal_the_fraction_kernel_route(label):
    """The one-row kernel b_j - (q_j/q_p) b_p gives the points the Fraction kernel route gave, on both
    sides of every pole wall of every class."""
    d = build_root_system(label)
    walls = 0
    for t in enumerate_spectral_triples(d):
        for wall in t.tau_rays:
            for side in (wall, -wall):
                assert _wall_points(t, side) == ref_wall_points(t, side), (t, wall.key)
            walls += 1
    assert walls
