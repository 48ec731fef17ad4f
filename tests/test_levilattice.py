import hashlib
import random
from fractions import Fraction
from itertools import accumulate
from math import prod

import pytest

from fraction_refs import (
    ref_basis,
    ref_chambers_of_rays,
    ref_coord_map,
    ref_coords_in_basis,
    ref_levi_lattice,
    ref_mat_vec,
    ref_parabolics,
    ref_projector,
    ref_rel_basis,
    ref_restricted_rays,
    ref_sign_pattern,
    ref_split_constant,
    ref_weyl_cosets,
)
from mutants import negated_d, rebind
from gmcalc import levilattice
from gmcalc.errors import DimensionError, NotComparable
from gmcalc.exactlin import int_mat, int_rank, int_row
from gmcalc.gmfamily import ExpPolyFamily, family_limit, split_subsets
from gmcalc.levilattice import (
    Levi,
    QuadConst,
    Ray,
    ThetaValue,
    _join,
    _rel_rows,
    _split_constant,
    base_chamber,
    chamber_at,
    chamber_cells,
    chamber_witnesses,
    contains,
    coord_map,
    d_constant,
    enumerate_levis,
    flat_coords,
    flat_projector,
    form_signs,
    gfull,
    levi_by_label,
    levi_lattice,
    mzero,
    parabolics,
    restricted_rays,
    theta,
    trand_check,
    weyl_cosets,
)
from gmcalc.rootdatum import _ROOT_COUNT, _WEYL_ORDER, RatVec, RootDatum, build_root_system, reflect_subgroup, weyl_group
from gmcalc.spectral import enumerate_spectral_triples

# Flat counts: A1 has {M0, G}; A2 adds one line per positive-root kernel;
# A3 flats match the partition lattice of a 4-element set (15 blocks).
KNOWN_LEVI_COUNTS = {"A1": 2, "A2": 5, "B2": 6, "A1xA1": 4, "A3": 15}


@pytest.mark.parametrize("label", sorted(KNOWN_LEVI_COUNTS))
def test_levi_counts(label):
    d = build_root_system(label)
    assert len(levi_lattice(d)) == KNOWN_LEVI_COUNTS[label]


def test_enumerate_levis_bounds():
    d = build_root_system("A2")
    M0, G = mzero(d), gfull(d)
    assert enumerate_levis(d) == levi_lattice(d)
    assert enumerate_levis(d, lower=M0) == levi_lattice(d)
    assert enumerate_levis(d, lower=G) == (G,)
    for L in levi_lattice(d):
        if L.dim == 1:
            assert enumerate_levis(d, lower=L) == (L, G)
            assert enumerate_levis(d, lower=L) is enumerate_levis(d, lower=L)  # built once per Levi


def test_parabolic_counts_match_chamber_counts():
    d = build_root_system("A2")
    assert len(parabolics(mzero(d))) == 6
    for L in levi_lattice(d):
        if L.dim == 1:
            assert len(parabolics(L)) == 2
    assert len(parabolics(gfull(d))) == 1


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1"])
def test_minimal_parabolics_count_equals_weyl_order(label):
    d = build_root_system(label)
    assert len(parabolics(mzero(d))) == len(weyl_group(d))


def test_chambers_partition_generic_points():
    rng = random.Random(11)
    for label in ("A2", "B2"):
        d = build_root_system(label)
        for M in levi_lattice(d):
            if M.dim == 0:
                continue
            chambers = parabolics(M)
            rays = restricted_rays(M)
            for _ in range(10):
                coeffs = [Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(M.dim)]
                pt = RatVec.zero(d.rank)
                for c, b in zip(coeffs, ref_basis(M)):
                    pt = pt + c * RatVec(b)
                if any(d.pair(r.rep, pt) == 0 for r in rays):
                    continue
                hits = [
                    P
                    for P in chambers
                    if all(d.pair(r.rep, pt) > 0 for r in rays if d.pair(r.rep, P.chamber_point) > 0)
                    and all(d.pair(r.rep, pt) < 0 for r in rays if d.pair(r.rep, P.chamber_point) < 0)
                ]
                assert len(hits) == 1


def test_theta_a1():
    d = build_root_system("A1")
    P = base_chamber(d)
    alpha = d.roots[d.simple[0]]
    val = theta(P, Fraction(1, 2) * alpha)
    assert val.product == 1
    # covolume of the coroot line: squared length of the coroot is 2
    assert val.covol == QuadConst.from_square(Fraction(2))


def test_theta_zero_and_dominant_positive():
    d = build_root_system("A2")
    P0 = base_chamber(d)
    zero = RatVec.zero(d.rank)
    assert theta(P0, zero).product == 0
    rho = d.fund_coweights[0] + d.fund_coweights[1]
    val = theta(P0, rho)
    # both simple coroot pairings are 1; normalization squared is det [[2,-1],[-1,2]] = 3
    assert val.product == 1
    assert val.covol.square == 3
    for P in parabolics(mzero(d)):
        assert theta(P, P.chamber_point).product > 0


def test_theta_improper_chamber_is_one():
    d = build_root_system("A2")
    P = parabolics(gfull(d))[0]
    t = theta(P, RatVec.zero(d.rank))
    assert t.product == 1 and t.covol == QuadConst.from_square(1)


def _field_variants(make, fields, other_values):
    """make(*fields) and a copy, then one instance per field with that field replaced by its other value."""
    same = (make(*fields), make(*fields))
    changed = [make(*fields[:i], v, *fields[i + 1:]) for i, v in enumerate(other_values)]
    return same, changed


def test_value_classes_compare_and_hash_by_their_fields():
    # equal and of equal hash exactly when every field is; RatVec and QuadConst are no tuples, so that
    # + and * are theirs or raise
    d = build_root_system("A2")
    ray = restricted_rays(mzero(d))[0]
    one, two = QuadConst.from_square(1), QuadConst.from_square(2)
    cases = [
        _field_variants(RatVec, [(Fraction(1), Fraction(2))], [(Fraction(1), Fraction(3))]),
        _field_variants(QuadConst, [Fraction(2), 1], [Fraction(3), -1]),
        _field_variants(ThetaValue, [Fraction(1), one], [Fraction(2), two]),
        _field_variants(Ray, [ray.key, ray.rep, ray.dual, ray.members, ray.form],
                        [tuple(-x for x in ray.key), -ray.rep, -ray.dual, ray.members[:1], tuple(-x for x in ray.form)]),
    ]
    for (a, b), changed in cases:
        assert a == b and hash(a) == hash(b) and not a != b
        for c in changed:
            assert a != c and not a == c
    assert -ray != ray and -(-ray) == ray
    assert QuadConst.from_square(2) == QuadConst(Fraction(2), 1) and QuadConst.from_square(0) == QuadConst(Fraction(0), 0)
    v = RatVec((Fraction(1), Fraction(2)))
    assert v != v.coords and v + v == 2 * v == RatVec((Fraction(2), Fraction(4)))
    for bad in (lambda: two + two, lambda: 2 * two, lambda: two * 2, lambda: two * v, lambda: len(two), lambda: v * 2):
        with pytest.raises(TypeError):
            bad()


def test_d_constant_trivial_and_dimension_obstruction():
    d = build_root_system("A2")
    M0, G = mzero(d), gfull(d)
    assert d_constant(M0, M0, G) == QuadConst.from_square(1)
    assert d_constant(M0, G, M0) == QuadConst.from_square(1)
    maxes = [L for L in levi_lattice(d) if L.dim == 1]
    assert d_constant(M0, maxes[0], G).is_zero()  # 1 + 0 != 2
    with pytest.raises(NotComparable):
        d_constant(maxes[0], M0, G)


def test_d_constant_a2_kernel_lines():
    # kernels of two distinct A2 roots meet at 120 or 60 degrees; |sin| = sqrt(3)/2
    d = build_root_system("A2")
    M0 = mzero(d)
    maxes = [L for L in levi_lattice(d) if L.dim == 1]
    for i in range(len(maxes)):
        for j in range(len(maxes)):
            if i == j:
                continue
            val = d_constant(M0, maxes[i], maxes[j])
            assert val.square == Fraction(3, 4)
            assert val == d_constant(M0, maxes[j], maxes[i])


def test_d_constant_symmetry_random_products():
    d = build_root_system("B2")
    lat = levi_lattice(d)
    M0 = mzero(d)
    for L in lat:
        for S in lat:
            assert d_constant(M0, L, S) == d_constant(M0, S, L)


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_trand_exact(label):
    d = build_root_system(label)
    records = list(trand_check(d))
    assert records, "no chains enumerated"
    bad = [r for r in records if not r[3]]
    assert bad == []


@pytest.mark.parametrize("label, failing, chains", [("A2", 28, 79), ("B2", 44, 115), ("G2", 88, 205), ("A3", 302, 1303)])
def test_negated_d_fails_trand_on_every_chain_with_a_nonzero_side(monkeypatch, label, failing, chains):
    # both factors of the one join term flip and cancel, so a chain fails exactly when its lhs is nonzero
    rebind(monkeypatch, levilattice, "d_constant", negated_d)
    records = list(trand_check(build_root_system(label)))
    assert len(records) == chains
    assert sum(not ok for *_, ok in records) == sum(not lhs.is_zero() for _, lhs, _, _ in records) == failing


def test_weyl_cosets_counts():
    d = build_root_system("A2")
    assert len(weyl_cosets(gfull(d))) == 1
    maxes = [L for L in levi_lattice(d) if L.dim == 1]
    assert len(weyl_cosets(maxes[0])) == 3


COSET_GROUPS = ["A1", "A2", "B2", "G2", "A3", "A1xA1", "A1xA3", "A2xA2", "B2xB2", "G2xG2", "A1xG2"]


def _perms(elements):
    return [w.perm for w in elements]


@pytest.mark.parametrize("label", COSET_GROUPS)
def test_cosets_by_root_signs_equal_the_closure(label):
    d = build_root_system(label)
    for L in levi_lattice(d):
        # the same representatives in the same order
        assert _perms(weyl_cosets(L)) == _perms(ref_weyl_cosets(L)), L.label


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_coset_check_fails_on_a_sign_test_missing_one_root(label):
    d = build_root_system(label)
    positive = set(d.pos_indices)

    def mutant(L):
        # weyl_cosets with the least positive root of L dropped from its sign test
        least = min((i for i in L.root_subset if i in positive), default=None)
        return weyl_cosets(Levi(d, L.rows, L.den, L.root_subset - {least}))

    assert any(_perms(mutant(L)) != _perms(ref_weyl_cosets(L)) for L in levi_lattice(d))


def test_cosets_and_chamber_cells_close_no_subgroup(monkeypatch):
    d = build_root_system("A1xA3")
    closures = []
    subgroup = RootDatum.subgroup
    monkeypatch.setattr(RootDatum, "subgroup", lambda self, gens: closures.append(self) or subgroup(self, gens))
    assert sum(len(weyl_cosets(L)) for L in levi_lattice(d)) == 393
    for L in levi_lattice(d):
        cells = chamber_cells(L)
        assert {len(ws) for ws in cells.values()} == {len(weyl_group(d)) // len(weyl_cosets(L))}, L.label
    assert closures == []


def test_chamber_cells_cover_all_chambers():
    from gmcalc.rootdatum import reflect_subgroup

    for label in ("A2", "B2"):
        d = build_root_system(label)
        for M in levi_lattice(d):
            cells = chamber_cells(M)
            assert set(cells) == {P.index for P in parabolics(M)}
            expected = len(reflect_subgroup(d, M.root_subset))
            for ws in cells.values():
                assert len(ws) == expected


def test_wall_rays_span():
    d = build_root_system("B2")
    for M in levi_lattice(d):
        rays = restricted_rays(M)
        for P in parabolics(M):
            assert len(P.wall_rays) == M.dim
            assert d.volume_sq([rays[k].dual for k in P.wall_rays]) > 0


def test_levi_by_label_roundtrip():
    d = build_root_system("A2")
    for L in levi_lattice(d):
        assert levi_by_label(d, L.label) == L


def test_each_datum_owns_its_lattice():
    first = levi_lattice(build_root_system("A2"))
    # a second datum of the same label, and one whose override equals the default form
    for d in (build_root_system("A2"), build_root_system("A2", [["2", "-1"], ["-1", "2"]])):
        levis = levi_lattice(d)
        assert levi_lattice(d) is levis
        assert not {id(L) for L in levis} & {id(L) for L in first}
        for L in levis:
            assert L.datum is d
            for P in parabolics(L):
                # P.levi owns the rays P.signs refers to
                assert P.levi is L and len(P.signs) == (len(restricted_rays(L)) if L.dim else 0)
            for ws in chamber_cells(L).values():
                assert all(d.element(w.perm) is w for w in ws)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1", "A3"])
def test_stored_sign_pattern_matches_fresh(label):
    d = build_root_system(label)
    for M in levi_lattice(d):
        rays = restricted_rays(M)
        forms = [r.form for r in rays]
        for P in parabolics(M):
            fresh = tuple(1 if d.pair(r.rep, P.chamber_point) > 0 else -1 for r in rays)
            assert P.signs == fresh == ref_sign_pattern(d, rays, P.chamber_point)
            x = int_row(P.chamber_point.coords)[0]
            assert form_signs(d, forms, x) == fresh
            # -ray carries the other side's form: its sign at the chamber is the stored one flipped
            assert form_signs(d, [(-rays[k]).form for k in P.wall_rays], x) == tuple(-P.signs[k] for k in P.wall_rays)


def _kept(owner, fn) -> dict:
    """What owner keeps for fn, by the arguments after owner."""
    return {key[1:]: got for key, got in owner.kept.items() if key[0] is fn}


def test_d_constant_memo_matches_fresh_computation_on_a3():
    d = build_root_system("A3")
    assert all(ok for *_, ok in trand_check(d))
    fresh = build_root_system("A3")
    by_roots = {L.root_subset: L for L in levi_lattice(fresh)}
    entries = 0
    for L1 in levi_lattice(d):
        for (L, S, upper), got in _kept(L1, _split_constant).items():
            assert L.datum is S.datum is upper.datum is d  # d_constant hands on G where it is given None
            # the build itself, which keeps nothing on fresh
            want = _split_constant.__wrapped__(*(by_roots[X.root_subset] for X in (L1, L, S, upper)))
            assert got == want
            entries += 1
    # every distinct (L1, L, S, upper) tuple trand_check asks for, computed once; no upper and G share a key
    assert entries == 577
    assert all(not _kept(L, _split_constant) for L in levi_lattice(fresh))


def test_trand_check_yields_each_chain_before_the_walk_ends():
    d = build_root_system("A2")
    chains = trand_check(d)
    assert iter(chains) is chains
    next(chains)
    built = sum(len(_kept(L, _split_constant)) for L in levi_lattice(d))
    assert sum(1 for _ in chains) > 0
    # the first chain came out before the constants of the later chains were built
    assert 0 < built < sum(len(_kept(L, _split_constant)) for L in levi_lattice(d))


def test_d_constant_memo_is_per_datum_and_checks_containment_first():
    first, second = build_root_system("A2"), build_root_system("A2")
    lines = [[L for L in levi_lattice(d) if L.dim == 1] for d in (first, second)]
    got = d_constant(mzero(first), lines[0][0], lines[0][1])
    assert len(_kept(mzero(first), _split_constant)) == 1 and not _kept(mzero(second), _split_constant)
    assert d_constant(mzero(second), lines[1][0], lines[1][1]) == got
    assert mzero(second).kept is not mzero(first).kept
    # the containment checks run on every call, memoised or not
    for _ in range(2):
        with pytest.raises(NotComparable):
            d_constant(lines[0][0], mzero(first), lines[0][1])


def test_chamber_at_reads_stored_signs_and_rejects_wall_points():
    from gmcalc.errors import IncompleteInput

    for label in ("A2", "B2", "G2"):
        d = build_root_system(label)
        for M in levi_lattice(d):
            for P in parabolics(M):
                assert chamber_at(M, P.chamber_point) is P
        # a chamber point of a line lies on the walls of the roots vanishing on it
        line = next(L for L in levi_lattice(d) if L.dim == 1)
        with pytest.raises(IncompleteInput, match="wall"):
            chamber_at(mzero(d), parabolics(line)[0].chamber_point)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1", "A3", "A1xA3"])
def test_rays_in_matches_pairing_definition(label):
    from gmcalc.levilattice import rays_in

    d = build_root_system(label)
    pairs = 0
    for L1 in levi_lattice(d):
        for S in enumerate_levis(d, lower=L1):
            by_pairing = [
                ray for ray in restricted_rays(L1)
                if all(d.pair(ray.rep, RatVec(b)) == 0 for b in ref_basis(S))
            ]
            assert rays_in(L1, S) == by_pairing, (L1.label, S.label)
            pairs += 1
    assert pairs > len(levi_lattice(d))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_signed_rays_carry_their_duals(label):
    from fraction_refs import vscale

    d = build_root_system(label)
    for M in levi_lattice(d):
        for ray in restricted_rays(M):
            neg = -ray
            assert neg.rep == -ray.rep and neg.key == ray.key and neg.members == ray.members
            assert neg.dual.coords == vscale(Fraction(2) / d.pair(ray.rep, ray.rep), (-ray.rep).coords)
            assert -neg == ray
        rays = restricted_rays(M)
        for P in parabolics(M):
            # each wall ray, read on the side its stored sign names, is positive on the chamber
            for k in P.wall_rays:
                ray = rays[k] if P.signs[k] > 0 else -rays[k]
                assert d.pair(ray.rep, P.chamber_point) > 0
                assert ray.dual.coords == vscale(Fraction(2) / d.pair(ray.rep, ray.rep), ray.rep.coords)


ORACLE_DATA = [(g, None) for g in ("A1", "A2", "B2", "G2", "A1xA1", "A3", "A1xA3")] + [
    ("A2", [["1", "-1/2"], ["-1/2", "1"]])
]


@pytest.mark.parametrize("label, gram", ORACLE_DATA)
def test_integer_witnesses_equal_the_fraction_search(label, gram):
    d = build_root_system(label, gram)
    for M in levi_lattice(d):
        rays = restricted_rays(M)
        got = chamber_witnesses(M, rays)
        assert list(got.values()) == ref_chambers_of_rays(M, rays), M.label
        assert list(got) == [ref_sign_pattern(d, rays, p) for p in got.values()], M.label
        assert [P.chamber_point for P in parabolics(M)] == list(got.values())
    homes = {}  # every home with every pole-ray arrangement on it, once
    for t in enumerate_spectral_triples(d):
        homes.setdefault((t.levi_L.root_subset, t.tau_rays), t)
    for t in homes.values():
        got = chamber_witnesses(t.levi_L, t.tau_rays)
        assert list(got.values()) == ref_chambers_of_rays(t.levi_L, t.tau_rays), (t.levi_L.label, t.tau_rays)
        assert list(got) == [ref_sign_pattern(d, t.tau_rays, p) for p in got.values()], t.levi_L.label


@pytest.mark.parametrize("label, gram", ORACLE_DATA)
def test_point_flat_and_no_upper_take_the_general_path_to_their_conventions(label, gram):
    # the conventions at the point flat a_G = 0 and for d with no upper, which the general path gives
    d = build_root_system(label, gram)
    G, zero = gfull(d), RatVec.zero(d.rank)
    (P_G,) = parabolics(G)
    assert (P_G.index, P_G.positive_roots, P_G.wall_rays, P_G.signs, P_G.chamber_point) == (0, (), (), (), zero)
    generic = RatVec([Fraction(1, 3)] + [Fraction(-2, 5 + k) for k in range(d.rank - 1)])
    for lam in (zero, generic, d.rho_check):
        assert theta(P_G, lam) == ThetaValue(Fraction(1), QuadConst.from_square(1))
    # on G the limit is the one chamber's summed coefficient, whatever the points and the direction
    for coeffs in ([Fraction(5, 3)], [Fraction(-2, 7), Fraction(1, 2)], [Fraction(1), Fraction(-1)]):
        fam = ExpPolyFamily(G, [[(c, k * generic) for k, c in enumerate(coeffs)]])
        total = sum(coeffs)
        want = QuadConst.from_square(total * total, (total > 0) - (total < 0))
        assert family_limit(fam) == want and family_limit(fam, generic) == want, coeffs
    for L1 in levi_lattice(d):
        for M in enumerate_levis(d, lower=L1):
            for Q1 in parabolics(L1):
                assert split_subsets(L1, M, M, Q1) == [(QuadConst.from_square(1), [])], (L1.label, M.label)
            for S in enumerate_levis(d, lower=L1):
                assert d_constant(L1, M, S) is d_constant(L1, M, S, G), (L1.label, M.label, S.label)
    identity = weyl_group(d)[0]
    for t in enumerate_spectral_triples(d):
        if t.levi_L.dim == 0:
            assert t.core == {(): identity} and t.core[()] is identity, t


@pytest.mark.parametrize("label, gram", ORACLE_DATA)
def test_integer_routes_equal_the_fraction_references(label, gram):
    d = build_root_system(label, gram)
    generic = RatVec([Fraction(1, 3)] + [Fraction(-2, 5 + k) for k in range(d.rank - 1)])
    ambient = list(d.roots) + [d.rho_check, generic]
    for M in levi_lattice(d):
        rays = restricted_rays(M)
        assert rays == ref_restricted_rays(M), M.label
        proj = ref_projector(ref_basis(M), d.gram)
        # the projected roots and probes, and the chamber points, lie on the flat; roots off it do not
        on_flat = [RatVec(ref_mat_vec(proj, v.coords)) for v in ambient] + [P.chamber_point for P in parabolics(M)]
        forms = [r.form for r in rays]
        _, c, _, _, _ = coord_map(M)
        off = 0
        for v in ambient + on_flat:
            x, den = int_row(v.coords)
            got, want = flat_coords(M, x), ref_coords_in_basis(v.coords, ref_basis(M))
            if want is None:
                assert got is None, (M.label, v)
                off += 1
            else:
                assert got is not None and tuple(Fraction(y, c * den) for y in got) == want, (M.label, v)
            assert form_signs(d, forms, x) == ref_sign_pattern(d, rays, v), (M.label, v)
        assert all(flat_coords(M, int_row(v.coords)[0]) is not None for v in on_flat)
        assert (off > 0) == (M.dim < d.rank), M.label


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
def test_chamber_at_rejects_points_of_the_wrong_length(label):
    d = build_root_system(label)
    for M in levi_lattice(d):
        for P in parabolics(M):
            # a chamber point with one coordinate more or one less
            for coords in (P.chamber_point.coords + (Fraction(1),), P.chamber_point.coords[:-1]):
                with pytest.raises(DimensionError):
                    chamber_at(M, RatVec(coords))


PROJECTION_DATA = [(g, None) for g in ("A2", "B2", "G2", "A3", "A1xA3")] + [("A2", [["1", "-1/2"], ["-1/2", "1"]])]


@pytest.mark.parametrize("label, gram", PROJECTION_DATA)
def test_integer_projector_equals_the_fraction_reference(label, gram):
    d = build_root_system(label, gram)
    refs = {M: ref_projector(ref_basis(M), d.gram) for M in levi_lattice(d)}
    for M, ref in refs.items():
        # the same rows over the same least common denominator
        assert flat_projector(M) == int_mat(ref), M.label
    for M in levi_lattice(d):
        for S in enumerate_levis(d, lower=M):
            # a_S lies in a_M, so the projection onto a_M minus a_S is P_M - P_S
            rel = _rel_rows(M, S)[0]
            assert len(rel) == M.dim - S.dim, (M.label, S.label)
            diff = tuple(tuple(a - b for a, b in zip(pm, ps)) for pm, ps in zip(refs[M], refs[S]))
            assert ref_projector(rel, d.gram) == diff, (M.label, S.label)


# Every d_constant(L1, L, S, upper) with L1 <= L, L1 <= S and upper None or above both: square and sign,
# pinned as (sha256 of the value lines, number of values) from the route with a rank test before the
# Gram determinants.
D_CONSTANT_DIGESTS = {
    "A2": ("f4aedefbf69d013256a4fcef9c278b531d774d68d9f144fdbafedcce83f339df", 92),
    "B2": ("41aa5cfc80c5dd289a134742ff983b66ddb766ea078a7814c8a0d306e0209038", 127),
    "G2": ("49073bf5e2e2edd3b4aea10d7b10007f6c97c3f21ebacd6b9fa6b87bad6a5385", 209),
    "A3": ("dde947791a9c2265443d4a2ab52a8db86aec69f35b5c30e7c618959cf76c5f6d", 1066),
}


@pytest.mark.parametrize("label", sorted(D_CONSTANT_DIGESTS))
def test_d_constant_values_match_their_pinned_digest(label):
    d = build_root_system(label)
    h, n = hashlib.sha256(), 0
    for L1 in levi_lattice(d):
        for L in enumerate_levis(d, lower=L1):
            for S in enumerate_levis(d, lower=L1):
                for U in [None] + [U for U in enumerate_levis(d, lower=L) if S.root_subset <= U.root_subset]:
                    c = d_constant(L1, L, S, U)
                    h.update(f"{L1.label} {L.label} {S.label} {None if U is None else U.label}: {c.square} {c.sign}\n".encode())
                    n += 1
    assert (h.hexdigest(), n) == D_CONSTANT_DIGESTS[label]


# The Weyl group's exponents m_i: by Orlik and Solomon (Invent. Math. 56, 1980) the flats X of a
# reflection arrangement satisfy sum_X |mu(X)| t^codim X = prod_i (1 + m_i t).
EXPONENTS = {
    "A2": (1, 2),
    "B2": (1, 3),
    "G2": (1, 5),
    "A3": (1, 2, 3),
    "A1xA3": (1, 1, 2, 3),
    "G2xG2": (1, 5, 1, 5),
}


def _mobius(d, bottom):
    """mu(bottom, X) for the Levis X above bottom (the flats in a_bottom), on the lattice ordered by
    root sets (reverse inclusion of flats): 1 at bottom, and minus the sum over the Levis from bottom
    strictly below X elsewhere."""
    mu = {}
    for X in sorted(levi_lattice(d), key=lambda X: len(X.root_subset)):
        if bottom.root_subset <= X.root_subset:
            mu[X] = -sum(m for Y, m in mu.items() if Y.root_subset < X.root_subset) if mu else 1
    return mu


@pytest.mark.parametrize("label", sorted(EXPONENTS))
def test_flats_satisfy_orlik_solomon(label):
    d = build_root_system(label)
    poincare = [0] * (d.rank + 1)
    for L, m in _mobius(d, mzero(d)).items():
        poincare[d.rank - L.dim] += abs(m)
    product = [1]
    for m in EXPONENTS[label]:
        product = [a + m * b for a, b in zip(product + [0], [0] + product)]
    assert poincare == product


@pytest.mark.parametrize("label", sorted(EXPONENTS))
def test_chambers_of_every_flat_number_its_zaslavsky_count(label):
    # Zaslavsky (Mem. AMS 154, 1975): the arrangement restricted to a_L has sum_X |mu(a_L, X)| chambers,
    # X over the flats in a_L, so the parabolics and the lattice, built apart, must agree
    d = build_root_system(label)
    for L in levi_lattice(d):
        assert len(parabolics(L)) == sum(abs(m) for m in _mobius(d, L).values()), L.label


def _nonnegative_integer_roots(chi):
    """The roots of the monic integer polynomial chi (constant first), with multiplicity, if they are
    all nonnegative integers; else None."""
    roots = []
    # nonnegative roots are each at most their sum, -chi[-2]
    for r in range(abs(chi[-2]) + 1 if len(chi) > 1 else 0):
        while len(chi) > 1:
            carries = list(accumulate(reversed(chi), lambda carry, c: carry * r + c))  # synthetic division
            if carries[-1]:
                break
            chi = carries[-2::-1]
            roots.append(r)
    return roots if len(chi) == 1 else None


@pytest.mark.parametrize("label", sorted(EXPONENTS))
def test_restricted_characteristic_polynomials_have_nonnegative_integer_roots(label):
    # restrictions of Coxeter arrangements are free (Orlik and Solomon 1983), so by Terao's factorization
    # theorem (Invent. Math. 63, 1981) chi_L(t) = sum_X mu(a_L, X) t^dim X has nonnegative integer roots;
    # at M0 they are the exponents m_i, with sum m_i = |Phi+| and prod (1 + m_i) = |W|
    d = build_root_system(label)
    for L in levi_lattice(d):
        chi = [0] * (L.dim + 1)
        for X, m in _mobius(d, L).items():
            chi[X.dim] += m
        roots = _nonnegative_integer_roots(chi)
        assert roots is not None, (L.label, chi)
        if L == mzero(d):
            assert 2 * sum(roots) == sum(_ROOT_COUNT[f] for f in d.factors)
            assert prod(1 + m for m in roots) == prod(_WEYL_ORDER[f] for f in d.factors)
            assert sorted(roots) == sorted(EXPONENTS[label])


@pytest.mark.parametrize("label", sorted(EXPONENTS))
def test_join_has_the_meet_of_the_flats(label):
    d = build_root_system(label)
    for L in levi_lattice(d):
        for S in levi_lattice(d):
            J = _join(L, S)
            assert contains(L, J) and contains(S, J)
            # a_J lies in a_L meet a_S, so equal dimensions make them equal
            assert J.dim == L.dim + S.dim - int_rank(L.rows + S.rows), (L.label, S.label)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_split_constants_equal_the_gram_reference(label):
    d = build_root_system(label)
    nonzero = 0
    for L1 in levi_lattice(d):
        for L in enumerate_levis(d, lower=L1):
            for S in enumerate_levis(d, lower=L1):
                for U in [None] + [U for U in enumerate_levis(d, lower=L) if contains(S, U)]:
                    got = d_constant(L1, L, S, U)
                    assert got == ref_split_constant(L1, L, S, U), (L1.label, L.label, S.label, U)
                    nonzero += not got.is_zero()
    assert nonzero > 0


def test_quadconst_product_with_a_zero_factor_is_the_shared_zero():
    zero, a = QuadConst.from_square(0), QuadConst.from_square(Fraction(3, 4), -1)
    assert zero is QuadConst.from_square(Fraction(1), 0) is QuadConst.from_square(Fraction(0))
    for x, y in ((zero, a), (a, zero), (zero, zero)):
        assert x * y is zero
    assert a * a == QuadConst.from_square(Fraction(9, 16))
    assert a * QuadConst.from_square(1) == a



@pytest.mark.parametrize("square, sign, root", [
    (Fraction(9, 4), 1, Fraction(3, 2)),
    (Fraction(9, 4), -1, Fraction(-3, 2)),
    (Fraction(1), 1, Fraction(1)),
    (Fraction(10 ** 40, 49), -1, Fraction(-10 ** 20, 7)),  # isqrt stays exact past float precision
    (Fraction(2), 1, None),
    (Fraction(4, 3), 1, None),  # a square numerator over a non-square denominator
    (Fraction(3, 4), -1, None),  # and the other way round
    (Fraction(10 ** 40 + 1), 1, None),
    (Fraction(0), 1, Fraction(0)),
])
def test_quadconst_rational_is_the_exact_root_or_none(square, sign, root):
    val = QuadConst.from_square(square, sign)
    got = val.rational()
    assert got == root and (got is None or type(got) is Fraction)
    if root is not None:
        assert QuadConst.from_square(root * root, (root > 0) - (root < 0)) == val


# Levis whose chambers have more than one theta covolume, so the ratio to sqrt(det G) is read per chamber
COVOLUME_SPREAD = {"A2": 0, "B2": 0, "G2": 0, "A3": 6, "A1xA3": 12, "G2xG2": 0}


@pytest.mark.parametrize("label", list(COVOLUME_SPREAD))
def test_theta_covolume_is_a_rational_multiple_of_sqrt_det_g(label):
    # limit_frame reads each chamber's scale as this rational; a square class it misses would raise there
    d = build_root_system(label)
    spread = 0
    for M in levi_lattice(d):
        det_g = coord_map(M)[-1]
        covols = {theta(P, P.chamber_point).covol for P in parabolics(M)}
        for covol in covols:
            q = QuadConst.from_square(covol.square / det_g).rational()
            assert q is not None and q > 0, (M.label, covol)
        spread += len(covols) > 1
    assert spread == COVOLUME_SPREAD[label]


REF_GROUPS = ["A1", "A2", "B2", "G2", "A3", "A1xA3", "B2xB2", "G2xG2"]


@pytest.mark.parametrize("label", REF_GROUPS)
def test_integer_closure_gives_the_fraction_lattice(label):
    d = build_root_system(label)
    got, want = levi_lattice(d), ref_levi_lattice(d)
    assert [(L.label, L.root_subset, L.dim) for L in got] == [(L.label, L.root_subset, L.dim) for L in want]
    for L, R in zip(got, want):
        # RREF is canonical for the flat, so the basis is the same rationals whichever rows reached it, kept
        # as integer rows over their least positive denominator
        assert (L.rows, L.den) == int_mat(ref_basis(R)), L.label
        assert all(type(x) is int for row in L.rows for x in row), L.label


@pytest.mark.parametrize("label", REF_GROUPS)
def test_chambers_equal_the_fraction_chambers(label):
    d = build_root_system(label)
    for M in levi_lattice(d):
        assert restricted_rays(M) == ref_restricted_rays(M), M.label
        got = [(P.index, P.positive_roots, P.chamber_point, P.wall_rays, P.signs) for P in parabolics(M)]
        want = ref_parabolics(M)
        assert got == want, M.label
        # every exact vector is its Fraction reference as integer rows over their least positive denominator
        for P, (_, _, pt, _, _) in zip(parabolics(M), want):
            assert ((P.chamber_point.row,), P.chamber_point.den) == int_mat([pt.coords]), M.label
        for ray, ref in zip(restricted_rays(M), ref_restricted_rays(M)):
            # the key is a primitive integer row, and each member's multiple an integer over the projections'
            # one denominator
            assert all(type(x) is int for x in ray.key + tuple(c for _, c in ray.members)), M.label
            for v, w in ((ray.rep, ref.rep), (ray.dual, ref.dual)):
                assert ((v.row,), v.den) == int_mat([w.coords]), M.label


@pytest.mark.parametrize("label, gram", [(g, None) for g in REF_GROUPS + ["A1xA1"]] + [
    ("A2", [["6", "-3"], ["-3", "6"]]), ("A2", [["1", "-1/2"], ["-1/2", "1"]])
])
def test_integer_coord_map_equals_the_fraction_solve(label, gram):
    d = build_root_system(label, gram)
    for M in levi_lattice(d):
        assert repr(coord_map(M)) == repr(ref_coord_map(M)), M.label


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_kept_reflection_subgroup_equals_a_fresh_closure(label):
    d = build_root_system(label)
    for L in levi_lattice(d):
        for roots in (sorted(L.root_subset), sorted(L.root_subset, reverse=True)):
            got = reflect_subgroup(d, roots)
            assert got is reflect_subgroup(d, iter(roots))  # kept per datum and tuple of indices
            assert got == d.subgroup([d.reflection_perms[i] for i in roots]), (L.label, roots)


@pytest.mark.parametrize("label, gram", [
    ("A2", None), ("B2", None), ("G2", None), ("A3", None), ("A1xA3", None), ("A2", [["1", "-1/2"], ["-1/2", "1"]]),
])
def test_rel_basis_is_the_rref_of_the_fraction_kernel(label, gram):
    """The columns of P_L - P_upper reduce to the RREF of the Fraction kernel of upper's pairings on a_L: the same
    integer rows over one denominator, which the relative rows drop."""
    d = build_root_system(label, gram)
    pairs = 0
    for L in levi_lattice(d):
        for upper in enumerate_levis(d, lower=L):
            assert _rel_rows(L, upper)[0] == int_mat(ref_rel_basis(L, upper))[0], (L.label, upper.label)
            pairs += 1
    assert pairs > len(levi_lattice(d))


def _bits(xs) -> list[str]:
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_float_reads_are_the_fraction_floats_bit_for_bit(label):
    # x / den on the integer row is correctly rounded, so it is float(Fraction) of each coordinate
    from gmcalc.contour import _float_basis

    d = build_root_system(label)
    reads = 0
    for M in levi_lattice(d):
        vectors = [P.chamber_point for P in parabolics(M)]
        vectors += [v for ray in restricted_rays(M) for v in (ray.rep, ray.dual, (-ray).dual)]
        for v in vectors:
            assert _bits(v.floats()) == _bits(map(float, v.coords)), (M.label, v)
        for got, want in zip(_float_basis(M), ref_basis(M), strict=True):
            assert _bits(got) == _bits(map(float, want)), M.label
        reads += len(vectors) + M.dim
    assert reads > len(levi_lattice(d))
