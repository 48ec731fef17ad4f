import cmath
import hashlib
import json
import random
from collections import Counter
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from float_refs import ref_induced_family_value, ref_segment_integral, same_bits
from fraction_refs import (
    ref_family_limit,
    ref_gram_det,
    ref_hull_quad,
    ref_hull_simplices,
    ref_hull_volume,
    ref_limit_scale,
)
from mutants import doubled_hull_volume, doubled_theta_covolume, rebind
from gmcalc import exactlin, gmfamily, levilattice
from gmcalc.cli import main as cli_main
from gmcalc.config import load_config
from gmcalc.errors import DimensionError, FamilyNotSmooth, InternalInconsistency, NotDominant, PoleHit
from gmcalc.exactlin import int_mat, int_rank
from gmcalc.gmfamily import (
    ExpPolyFamily,
    OrthogonalSet,
    ScalarRootFns,
    family_limit,
    hull_volume,
    induced_family_value,
    orthogonal_set,
    split_subsets,
    split_terms,
    _hull_det_sum,
    _lam_evaluator,
)
from gmcalc.levilattice import (
    QuadConst,
    base_chamber,
    cell_maps,
    chamber_at,
    coord_map,
    enumerate_levis,
    flat_coords,
    flat_projector,
    gfull,
    hull_faces,
    hull_simplices,
    levi_lattice,
    limit_frame,
    mzero,
    parabolics,
    projected_orbit,
    restricted_rays,
    trand_check,
)
from gmcalc.rootdatum import RatVec, RootDatum, act, build_root_system, kept, weyl_group
from gmcalc.spectral import build_spectral_triple, enumerate_spectral_triples
from gmcalc.suites import _dominant_samples, suite_examples, suite_hull_limit


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


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_validate_rejects_reversed_and_bent_differences(label):
    d = build_root_system(label)
    M = mzero(d)
    points = list(orthogonal_set(M, dominant_point(d, range(1, d.rank + 1))).points)
    _, j, wall, _ = levilattice.adjacent_chambers(M)[0]
    negated = [-p for p in points]  # every difference stays on its wall ray's line and changes sign
    units = [RatVec([int(k == a) for k in range(d.rank)]) for a in range(d.rank)]
    bent = list(points)
    off_wall = next(e for e in units if int_rank(int_mat([e.coords, wall])[0]) == 2)
    bent[j] = points[j] + Fraction(1, 3) * off_wall
    for moved in (negated, bent):
        with pytest.raises(InternalInconsistency, match="adjacent difference not a nonnegative coroot multiple"):
            OrthogonalSet(M, tuple(moved)).validate()
        # the fixed faces describe positive orthogonal sets only, so the hull refuses these too
        with pytest.raises(InternalInconsistency, match="adjacent difference not a nonnegative coroot multiple"):
            hull_volume(OrthogonalSet(M, tuple(moved)))
    with pytest.raises(InternalInconsistency, match="point list does not match the chamber list"):
        OrthogonalSet(M, tuple(points[1:])).validate()


def test_orthogonal_set_rejects_points_of_the_wrong_length():
    # a third coordinate on A2 used to pass validate() and break hull_volume later
    d = build_root_system("A2")
    M = mzero(d)
    points = orthogonal_set(M, dominant_point(d, range(1, d.rank + 1))).points
    for moved in ([RatVec(p.coords + (0,)) for p in points], [RatVec(p.coords[:1]) for p in points]):
        with pytest.raises(DimensionError, match="expected vectors of length 2"):
            OrthogonalSet(M, tuple(moved))


def test_orthogonal_set_requires_dominance():
    d = build_root_system("A2")
    with pytest.raises(NotDominant):
        orthogonal_set(mzero(d), -1 * (d.fund_coweights[0]))
    # a point of the wrong length is rejected, not cut to the rank
    for T in (RatVec([1, 2, 5]), RatVec([1])):
        with pytest.raises(DimensionError):
            orthogonal_set(mzero(d), T)


# -- hull volumes ------------------------------------------------------------


def test_hull_volume_degenerate_and_point():
    d = build_root_system("A2")
    M0 = mzero(d)
    zero = orthogonal_set(M0, RatVec.zero(d.rank))
    assert hull_volume(zero) == QuadConst.from_square(0)
    assert hull_volume(orthogonal_set(gfull(d), RatVec.zero(d.rank))) == QuadConst.from_square(1)


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


# The 1-, 2- and 3-d routines hull_volume used before it had one routine for
# every dimension, kept as naive references.


def ref_length(pts):
    xs = [p[0] for p in pts]
    return max(xs) - min(xs)


def ref_monotone_chain(pts):
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def ref_area(pts):
    hull = ref_monotone_chain([tuple(p) for p in pts])
    if len(hull) < 3:
        return Fraction(0)
    total = Fraction(0)
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def ref_volume_3d(pts):
    """Every supporting plane through three points, each facet fanned from one apex."""
    rows, den = int_mat([tuple(p) for p in pts])
    ipts = sorted(set(rows))

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    def dotp(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    planes = {}
    for i, j, k in ((i, j, k) for i in range(len(ipts)) for j in range(i) for k in range(j)):
        nrm = cross(sub(ipts[j], ipts[i]), sub(ipts[k], ipts[i]))
        if nrm == (0, 0, 0):
            continue
        g = gcd(gcd(abs(nrm[0]), abs(nrm[1])), abs(nrm[2]))
        nrm = tuple(x // g for x in nrm)
        off = dotp(nrm, ipts[i])
        if (nrm, off) in planes or (tuple(-x for x in nrm), -off) in planes:
            continue
        side = {(dotp(nrm, p) > off) - (dotp(nrm, p) < off) for p in ipts}
        if {-1, 1} <= side:
            continue
        key = (tuple(-x for x in nrm), -off) if 1 in side else (nrm, off)
        planes[key] = [p for p in ipts if dotp(nrm, p) == off]
    apex = ipts[0]
    total = 0
    for (nrm, off), facet in planes.items():
        drop = max(range(3), key=lambda a: abs(nrm[a]))
        keep = [a for a in range(3) if a != drop]
        flat = {(p[keep[0]], p[keep[1]]): p for p in facet}
        ring = [flat[q] for q in ref_monotone_chain(list(flat))]
        for t in range(1, len(ring) - 1):
            total += abs(dotp(sub(ring[0], apex), cross(sub(ring[t], apex), sub(ring[t + 1], apex))))
    return Fraction(total, 6) / den**3


def hull(pts, n):
    """The beneath-beyond reference on rational points, scaled to integers over one denominator."""
    rows, den = int_mat(pts)
    return Fraction(ref_hull_volume(rows, n), factorial(n) * den**n)


def ref_volume(pts, n):
    if int_rank(int_mat([tuple(x - y for x, y in zip(p, pts[0])) for p in pts])[0]) < n:
        return Fraction(0)
    return (ref_length, ref_area, ref_volume_3d)[n - 1](pts)


# small coordinates on a coarse grid: duplicates, collinear and coplanar points are common
grid_values = st.sampled_from([Fraction(k, 2) for k in range(-3, 4)] + [Fraction(1, 3), Fraction(-5, 3)])


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 3))
    point = st.lists(grid_values, min_size=n, max_size=n).map(tuple)
    if draw(st.booleans()):
        return n, draw(st.lists(point, min_size=1, max_size=12))
    # points on an affine subspace of dimension < n, plus a few outside it
    base = draw(point)
    dirs = draw(st.lists(point, min_size=1, max_size=n - 1 or 1))
    coeffs = st.lists(grid_values, min_size=len(dirs), max_size=len(dirs))
    pts = [
        tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base))
        for cs in draw(st.lists(coeffs, min_size=1, max_size=10))
    ]
    return n, pts + draw(st.lists(point, max_size=3))


@given(point_sets())
@example((2, [(Fraction(0), Fraction(0))] * 3))
@example((3, [(Fraction(0),) * 3, (Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))]))
def test_hull_volume_matches_naive_routines(case):
    n, pts = case
    assert hull(pts, n) == ref_volume(pts, n)


def test_hull_volume_4d_known_polytopes():
    one, half = Fraction(1), Fraction(1, 2)
    cube = [tuple(Fraction(x) for x in p) for p in product((0, 1), repeat=4)]
    # interior, face and duplicate points leave the volume alone
    extra = [(half,) * 4, (one, half, half, 0), (half, half, 0, 0), cube[5]]
    assert hull(cube + extra, 4) == 1
    assert hull([tuple(2 * x - 1 for x in p) for p in cube], 4) == 16
    cross = [tuple(Fraction(s) if i == k else Fraction(0) for i in range(4)) for k in range(4) for s in (1, -1)]
    assert hull(cross + [(Fraction(0),) * 4], 4) == Fraction(2, 3)  # 2^4 / 4!
    simplex = [(Fraction(0),) * 4] + [c for c in cross if sum(c) > 0]
    assert hull(simplex, 4) == Fraction(1, 24)
    assert hull(cube[:8], 4) == 0  # the facet x_0 = 0 only


@pytest.mark.parametrize("label, factors", [("A1xA3", ("A1", "A3")), ("A1xA1xA2", ("A1", "A1", "A2"))])
def test_hull_volume_of_product_is_product_of_volumes(label, factors):
    d = build_root_system(label)
    parts = [build_root_system(f) for f in factors]
    rng = random.Random(11)
    for k in range(6):
        coeffs = [Fraction(rng.randint(0 if k % 3 == 0 else 1, 9), rng.randint(1, 3)) for _ in range(d.rank)]
        expected = QuadConst.from_square(1)
        start = 0
        for part in parts:
            T = dominant_point(part, coeffs[start:start + part.rank])
            expected = expected * hull_volume(orthogonal_set(mzero(part), T))
            start += part.rank
        got = hull_volume(orthogonal_set(mzero(d), dominant_point(d, coeffs)))
        assert got == expected, (label, coeffs)
        assert k % 3 == 0 or not got.is_zero()


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1", "A3", "A1xA3"])
def test_pulled_triangulation_matches_beneath_beyond(label):
    # every Levi and default sample, degenerate hulls included
    d = build_root_system(label)
    samples = _dominant_samples(d, 25, 20260810)
    for M in levi_lattice(d):
        if M.dim == 0:
            continue
        for T in samples:
            coords = [flat_coords(M, x) for x in orthogonal_set(M, T).rows]
            assert _hull_det_sum(M, coords) == ref_hull_volume(coords, M.dim), (M.label, T)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_hull_limit_squares_equal_the_fraction_products(label):
    # each square is one Fraction of integers; the references multiply Fractions out, as the package once did
    d = build_root_system(label)
    cfg = load_config(overrides={"group": label})
    samples = _dominant_samples(d, cfg.hull_samples, cfg.seed)
    for M in levi_lattice(d):
        for T in samples:
            oset = orthogonal_set(M, T)
            fam = ExpPolyFamily.from_orthogonal_set(oset)
            assert hull_volume(oset) == ref_hull_quad(oset), (M.label, T)
            assert family_limit(fam) == ref_family_limit(fam), (M.label, T)
    # a pass compares equal values, whose floats are equal: its residual is exactly 0.0
    records = suite_hull_limit(cfg, d)
    assert len(records) == len(samples) * len(levi_lattice(d))
    assert all(r.status == "pass" and type(r.residual) is float and r.residual == 0.0 for r in records)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3"])
def test_hull_faces_form_a_face_lattice(label):
    d = build_root_system(label)
    for M in levi_lattice(d):
        faces = hull_faces(M)
        counts = Counter(M.dim - Q.levi.dim for Q, _ in faces)
        # Euler: the alternating face count of a polytope, itself included, is 1
        assert sum((-1) ** k * n for k, n in counts.items()) == 1, M.label
        assert counts[0] == len(parabolics(M)) and counts[M.dim] == 1
        assert len({verts for _, verts in faces}) == len(faces)
        assert all(len(verts) > M.dim - Q.levi.dim for Q, verts in faces)
        simplices = hull_simplices(M)
        assert all(len(s) == M.dim + 1 and s[0] == 0 for s in simplices)
        assert {i for s in simplices for i in s} == set(range(len(parabolics(M))))


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A1xA1", "A3", "A1xA3", "G2xG2"])
def test_hull_simplices_equal_the_recursive_reference(label):
    d = build_root_system(label)
    for M in levi_lattice(d):
        assert hull_simplices(M) == ref_hull_simplices(M), M.label


def _facet_missing_vertex_zero(faces):
    """The index of the first facet of the whole hull that misses vertex 0: its cone over 0 is in the sum."""
    top = faces[-1][0].levi.dim
    return next(k for k, (Q, verts) in enumerate(faces) if Q.levi.dim == top + 1 and 0 not in verts)


def _drop_face(faces):
    k = _facet_missing_vertex_zero(faces)
    return faces[:k] + faces[k + 1:]


def _flip_one_containment(faces):
    # its last chamber P now fails the test P <= Q
    k = _facet_missing_vertex_zero(faces)
    Q, verts = faces[k]
    return faces[:k] + ((Q, verts[:-1]),) + faces[k + 1:]


@pytest.mark.parametrize("mutate", [_drop_face, _flip_one_containment])
@pytest.mark.parametrize("label", ["A2", "A3"])
def test_broken_face_lattice_fails_hull_limit(monkeypatch, tmp_path, label, mutate):
    real = levilattice.hull_faces
    monkeypatch.setattr(levilattice, "hull_faces", lambda M: mutate(real(M)) if M.label == "M0" else real(M))
    assert cli_main(["verify", "--group", label, "--suite", "hull-limit", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / f"report-{label}.json").read_text())
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed and all(c["id"].split("/")[2] == "M0" and c["detail"].startswith("hull ") for c in failed)


def test_hull_limit_suite_passes_on_rank_four():
    d = build_root_system("A1xA3")
    records = suite_hull_limit(load_config(overrides={"group": "A1xA3"}), d)
    assert [r.id for r in records if r.status != "pass"] == []
    assert sum(r.id.startswith("hull-limit/A1xA3/M0/") for r in records) == 25


@pytest.mark.parametrize("label, zero_passes", [("A2", 0), ("B2", 0), ("G2", 0), ("A3", 0), ("A1xA3", 30)])
def test_hull_limit_counts_the_passes_with_both_sides_zero(label, zero_passes):
    # a zero volume equal to a zero limit is a vacuous pass: the sidecar counts them, the records do not change
    d = build_root_system(label)
    cfg = load_config(overrides={"group": label})
    records = suite_hull_limit(cfg, d)
    assert records.counters == {"hull_limit.zero_passes": zero_passes}
    samples = _dominant_samples(d, cfg.hull_samples, cfg.seed)
    assert sum(hull_volume(orthogonal_set(M, T)).is_zero() for M in levi_lattice(d) for T in samples) == zero_passes
    assert all(r.status == "pass" and r.detail is None for r in records)


# -- the hull-limit frame kept on each Levi ----------------------------------
# Each case builds its own datum, so no frame built elsewhere is reused.


def test_moved_cell_element_fails_every_orthogonal_set_of_its_levi(monkeypatch):
    d = build_root_system("A2")
    M = next(L for L in levi_lattice(d) if L.dim == 1)
    real = levilattice.chamber_cells
    cells = real(M)
    moved = {0: cells[0][1:], 1: cells[1] + cells[0][:1]}
    monkeypatch.setattr(levilattice, "chamber_cells", lambda L: moved if L is M else real(L))
    # T = 0 maps every element to 0, yet the cell's maps still differ
    for T in (RatVec.zero(d.rank), dominant_point(d, [1, 2]), dominant_point(d, [3, 0])):
        with pytest.raises(InternalInconsistency, match="projection not constant on a chamber cell"):
            orthogonal_set(M, T)
    failed = [r for r in suite_hull_limit(load_config(overrides={"group": "A2"}), d) if r.status != "pass"]
    assert len(failed) == 25
    assert {r.id.split("/")[2] for r in failed} == {M.label}
    assert all(r.detail == "projection not constant on a chamber cell" for r in failed)


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_perturbed_chamber_scale_fails_every_record_of_its_levi(label):
    d = build_root_system(label)
    M = mzero(d)
    lam0, (nums, den) = limit_frame(M, None)
    M.kept[limit_frame, None] = (lam0, ((2 * nums[0],) + nums[1:], den))
    records = suite_hull_limit(load_config(overrides={"group": label}), d)
    records = [r for r in records if r.id.split("/")[2] == M.label]
    assert len(records) == 25
    assert all(r.status == "fail" for r in records)
    assert all(r.detail.startswith(("hull ", "negative Laurent orders do not cancel")) for r in records)
    with pytest.raises(FamilyNotSmooth):
        family_limit(ExpPolyFamily.from_orthogonal_set(orthogonal_set(M, dominant_point(d, [1] * d.rank))))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xA3", "G2xG2"])
def test_chamber_scales_read_off_theta_equal_the_basis_determinant_route(label):
    d = build_root_system(label)
    for M in levi_lattice(d):
        lam0 = levilattice._generic_direction(M, None)
        nums, den = limit_frame(M, None)[1]
        assert tuple(Fraction(n, den) for n in nums) == tuple(ref_limit_scale(P, lam0) for P in parabolics(M)), M.label


@pytest.mark.parametrize("label, failing", [("A2", 25), ("B2", 25), ("G2", 25), ("A3", 175)])
def test_doubled_theta_covolume_fails_hull_limit_on_every_flat_of_dim_above_one(monkeypatch, label, failing):
    # family_limit weights each chamber by theta itself, so hull-limit checks theta's normalization
    rebind(monkeypatch, levilattice, "theta", doubled_theta_covolume)
    d = build_root_system(label)  # a fresh datum keeps no frame built from the real theta
    records = suite_hull_limit(load_config(overrides={"group": label}), d)
    failed = [r for r in records if r.status == "fail"]
    assert len(failed) == failing
    assert {r.id.split("/")[2] for r in failed} == {M.label for M in levi_lattice(d) if M.dim > 1}
    assert all(r.detail.startswith("hull ") for r in failed)


@pytest.mark.parametrize(
    "label, failing, total", [("A2", 25, 125), ("B2", 25, 150), ("G2", 25, 200), ("A3", 175, 375), ("A1xA3", 497, 750)]
)
def test_doubled_hull_volume_fails_hull_limit_on_every_flat_of_dim_above_one(monkeypatch, label, failing, total):
    # a degenerate sample of a flat of dimension above 1 may have volume 0, which doubling keeps
    rebind(monkeypatch, gmfamily, "hull_volume", doubled_hull_volume)
    d = build_root_system(label)
    records = suite_hull_limit(load_config(overrides={"group": label}), d)
    failed = [r for r in records if r.status == "fail"]
    assert (len(failed), len(records)) == (failing, total)
    assert {r.id.split("/")[2] for r in failed} == {M.label for M in levi_lattice(d) if M.dim > 1}
    assert all(r.detail.startswith("hull ") for r in failed)


def test_hull_point_off_the_flat_raises():
    d = build_root_system("A3")
    for M in levi_lattice(d):
        if M.dim in (0, d.rank):
            continue
        oset = orthogonal_set(M, dominant_point(d, [1, 2, 3]))
        assert not hull_volume(oset).is_zero()
        normal = d.roots[min(M.root_subset)]  # vanishes on a_M, so it is orthogonal to the flat
        for k in (0, len(oset.points) - 1):
            points = list(oset.points)
            points[k] = points[k] + normal
            with pytest.raises(InternalInconsistency, match="hull point outside the flat"):
                hull_volume(OrthogonalSet(M, tuple(points)))


def _count_calls(monkeypatch, module, name, key):
    """Count the calls of module.name, by key(*args), under every gmcalc name bound to it."""
    orig = getattr(module, name)
    counts = Counter()

    def counted(*args, **kwargs):
        counts[key(*args, **kwargs)] += 1
        return orig(*args, **kwargs)

    rebind(monkeypatch, module, name, counted)
    return counts


def _count_builds(monkeypatch, name, module=levilattice):
    """Count, per Levi, the calls of module.name that find nothing kept for them on the Levi: its builds."""
    fn = getattr(module, name)
    counts = _count_calls(monkeypatch, module, name, lambda M, *rest: None if (fn, *rest) in M.kept else id(M))
    return lambda: {key: n for key, n in counts.items() if key is not None}


def _count_datum_builds(monkeypatch, name):
    """Count, per datum, the builds of the cached RootDatum attribute name."""
    counts = Counter()
    build = RootDatum.__dict__[name].func

    def counted(d):
        counts[id(d)] += 1
        return build(d)

    prop = cached_property(counted)
    prop.__set_name__(RootDatum, name)
    monkeypatch.setattr(RootDatum, name, prop)
    return counts


# the frames of every Levi that one hull-limit record reads: the orthogonal set's cell maps, the coordinate map,
# the adjacent walls that validate reads, the wedge steps of the hull, theta's walls and the limit frame
HULL_FRAMES = ((levilattice, "cell_maps"), (levilattice, "coord_map"), (levilattice, "adjacent_chambers"),
               (gmfamily, "_hull_plan"), (levilattice, "theta_frame"), (levilattice, "limit_frame"))


def _count_integer_frames(monkeypatch):
    """The build counters of the rho_check orbit and of each Levi's projected orbit and hull-limit frames."""
    orbits = _count_datum_builds(monkeypatch, "rho_orbit")
    frames = {name: _count_builds(monkeypatch, name, module)
              for module, name in ((levilattice, "projected_orbit"),) + HULL_FRAMES}
    return orbits, lambda: {name: count() for name, count in frames.items()}


def _one_build_per_levi(d):
    """What ``_count_integer_frames`` reads after hull-limit on every Levi of d: one projected orbit per proper
    flat, and one of every hull-limit frame per Levi."""
    every = {id(M): 1 for M in levi_lattice(d)}
    return {"projected_orbit": {id(M): 1 for M in levi_lattice(d) if M.dim}, **{name: every for _, name in HULL_FRAMES}}


def test_hull_limit_builds_each_frame_once_per_levi(monkeypatch):
    d = build_root_system("A3")
    solves = _count_calls(monkeypatch, exactlin, "solve", lambda m, rhs: len(m))
    directions = _count_calls(monkeypatch, levilattice, "_generic_direction", lambda M, direction: id(M))
    orbits, frames = _count_integer_frames(monkeypatch)
    records = suite_hull_limit(load_config(overrides={"group": "A3"}), d)
    assert len(records) == 25 * len(levi_lattice(d))
    assert all(r.status == "pass" for r in records)
    # one Gram solve per Levi, of the Levi's dimension, serves every projection of the suite
    assert solves == Counter(M.dim for M in levi_lattice(d))
    assert set(directions) == {id(M) for M in levi_lattice(d)}  # G included: its frame has one scale, 1
    assert set(directions.values()) == {1}
    assert orbits == {id(d): 1}
    assert frames() == _one_build_per_levi(d)


def test_second_datum_builds_its_own_frames(monkeypatch):
    first, second = build_root_system("A3"), build_root_system("A3")
    T = dominant_point(first, [1, 2, 3])
    values = {}
    for M in levi_lattice(first):
        oset = orthogonal_set(M, T)
        values[M.label] = (hull_volume(oset), family_limit(ExpPolyFamily.from_orthogonal_set(oset)))
    solves = _count_calls(monkeypatch, exactlin, "solve", lambda m, rhs: len(m))
    directions = _count_calls(monkeypatch, levilattice, "_generic_direction", lambda M, direction: id(M))
    orbits, frames = _count_integer_frames(monkeypatch)
    assert "rho_orbit" not in vars(second)
    # checked before any hull of second is built: the hull of M reads the chambers of every L >= M
    for M1, M2 in zip(levi_lattice(first), levi_lattice(second)):
        assert M2 == M1 and M2 is not M1  # equal keys: a cache keyed on them would hand out M1's frame
        assert M2.kept == {}
    for M1, M2 in zip(levi_lattice(first), levi_lattice(second)):
        oset = orthogonal_set(M2, T)
        assert (hull_volume(oset), family_limit(ExpPolyFamily.from_orthogonal_set(oset))) == values[M2.label]
        assert flat_projector(M2) is not flat_projector(M1)
        assert cell_maps(M2) is not cell_maps(M1) and coord_map(M2) is not coord_map(M1)
        assert hull_faces(M2) is not hull_faces(M1) and hull_simplices(M2) == hull_simplices(M1)
        assert limit_frame(M2, None) is not limit_frame(M1, None)
        if M2.dim:  # G's one chamber has the no-ray witness, read off no orbit
            assert projected_orbit(M2) is not projected_orbit(M1) and projected_orbit(M2) == projected_orbit(M1)
    assert second.rho_orbit is not first.rho_orbit and second.rho_orbit == first.rho_orbit
    assert solves == Counter(M.dim for M in levi_lattice(second))
    assert set(directions) == {id(M) for M in levi_lattice(second)}
    assert orbits == {id(second): 1}
    assert frames() == _one_build_per_levi(second)


def test_root_forms_built_once_per_datum(monkeypatch):
    forms = _count_datum_builds(monkeypatch, "root_forms")
    first, second = build_root_system("A3"), build_root_system("A3")
    for d in (first, second):
        levi_lattice(d)
        homes = {t.levi_L for t in enumerate_spectral_triples(d)}
        assert homes <= set(levi_lattice(d))
    assert forms == {id(first): 1, id(second): 1}
    assert second.root_forms is not first.root_forms and second.root_forms == first.root_forms


def _kept_values(d) -> list:
    return [got for owner in (d, *levi_lattice(d)) for got in owner.kept.values()]


def test_kept_builds_once_per_owner_and_keeps_no_failed_build():
    builds = []

    @kept
    def fact(d, k):
        builds.append((d, k))
        if k < 0:
            raise ValueError(k)
        return [d.label, k]

    first, second = build_root_system("A2"), build_root_system("A2")
    assert fact(first, 1) is fact(first, 1) and builds == [(first, 1)]
    assert fact(second, 1) == fact(first, 1) and fact(second, 1) is not fact(first, 1)
    for _ in range(2):
        with pytest.raises(ValueError):
            fact(first, -1)
    assert builds == [(first, 1), (second, 1), (first, -1), (first, -1)] and (fact, -1) not in first.kept
    # every fact the suites keep on a datum and its Levis: the second datum builds its own
    T = dominant_point(first, [1, 2])
    for d in (first, second):
        assert all(ok for *_, ok in trand_check(d))
        enumerate_spectral_triples(d)
        for M in levi_lattice(d):
            oset = orthogonal_set(M, T)
            hull_volume(oset)
            family_limit(ExpPolyFamily.from_orthogonal_set(oset))
    assert [len(owner.kept) for owner in (first, *levi_lattice(first))] == [
        len(owner.kept) for owner in (second, *levi_lattice(second))
    ]
    shared = {id(got) for got in _kept_values(first)} & {id(got) for got in _kept_values(second)}
    # only the immutable singletons: the empty tuple and the one zero constant
    assert all(got == () or got is QuadConst.from_square(0) for got in _kept_values(first) if id(got) in shared)


# -- family limits -----------------------------------------------------------


def test_constant_family_limits():
    d = build_root_system("A2")
    zero = RatVec.zero(d.rank)
    for M in levi_lattice(d):
        fam = ExpPolyFamily(M, [[(Fraction(1), zero)] for _ in parabolics(M)])
        val = family_limit(fam)
        if M.dim == 0:
            assert val == QuadConst.from_square(1)
        else:
            assert val == QuadConst.from_square(0)


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
    combo = ExpPolyFamily(
        M0, [[(a * c, X) for c, X in t1] + [(b * c, X) for c, X in t2] for t1, t2 in zip(f1.terms, f2.terms)]
    )
    v1, v2, vc = family_limit(f1), family_limit(f2), family_limit(combo)
    assert float(vc) == pytest.approx(a * float(v1) + b * float(v2), abs=1e-12)
    # exact version through squares
    lhs = vc
    import math

    rhs = float(a) * math.sqrt(float(v1.square)) * v1.sign + float(b) * math.sqrt(float(v2.square)) * v2.sign
    assert float(lhs) == pytest.approx(rhs, abs=1e-12)


def test_exp_poly_family_rejects_points_of_the_wrong_length():
    # a 7 appended to every point used to give the true family's limit, a silent wrong answer
    d = build_root_system("A2")
    M0 = mzero(d)
    fam = ExpPolyFamily.from_orthogonal_set(orthogonal_set(M0, dominant_point(d, range(1, d.rank + 1))))
    assert ExpPolyFamily(M0, fam.terms).rows == fam.rows
    longer = [[(c, RatVec(X.coords + (7,))) for c, X in chamber] for chamber in fam.terms]
    with pytest.raises(DimensionError, match="expected vectors of length 2"):
        ExpPolyFamily(M0, longer)


def test_family_limit_weyl_invariant():
    d = build_root_system("B2")
    rng = random.Random(9)
    M0 = mzero(d)
    fam = ExpPolyFamily.from_orthogonal_set(orthogonal_set(M0, random_dominant(d, rng)))
    base = family_limit(fam)
    chambers = parabolics(M0)
    for w in weyl_group(d):
        # move chambers and data together: the terms (c, w X) sit in the chamber of w P
        moved = [None] * len(chambers)
        for P in chambers:
            moved[chamber_at(M0, act(w, P.chamber_point)).index] = [(c, act(w, X)) for c, X in fam.terms[P.index]]
        assert family_limit(ExpPolyFamily(M0, moved)) == base


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
    zero = RatVec.zero(d.rank)
    fam = ExpPolyFamily(M0, [[(Fraction(1), zero)], [(Fraction(2), zero)]])
    with pytest.raises(FamilyNotSmooth):
        family_limit(fam)


def test_family_limit_g_case():
    d = build_root_system("A2")
    G = gfull(d)
    fam = ExpPolyFamily(G, [[(Fraction(5, 3), RatVec.zero(d.rank))]])
    assert family_limit(fam) == QuadConst.from_square(Fraction(25, 9))


# -- splitting formula -------------------------------------------------------


def test_root_fns_read_the_density_of_either_side_of_a_ray():
    d = build_root_system("A2")
    M0 = mzero(d)
    rays = restricted_rays(M0)
    fns = ScalarRootFns.uniform(M0, {"kind": "pole"}, {ray.key: Fraction(k + 1) for k, ray in enumerate(rays)})
    for k, ray in enumerate(rays):
        assert fns.fn(ray.rep).n == fns.fn(-ray.rep).n == k + 1
    # rep_0 + 3 rep_1 is a multiple of no root of A2
    off_ray = RatVec([a + 3 * b for a, b in zip(rays[0].rep.coords, rays[1].rep.coords)])
    with pytest.raises(KeyError, match="no density ray along"):
        fns.fn(off_ray)


def test_split_formula_zero_densities():
    d = build_root_system("A2")
    M0 = mzero(d)
    fns = ScalarRootFns.uniform(M0, {"kind": "pole"}, None)  # all n = 0: f == 0
    P = base_chamber(d)
    val = split_terms(fns, M0, gfull(d), P, lambda dual: complex(d.pair(RatVec([1, 2]), dual)))
    assert val == 0


def test_split_formula_rank_one():
    d = build_root_system("A1")
    M0 = mzero(d)
    rays = restricted_rays(M0)
    fns = ScalarRootFns.uniform(M0, {"kind": "pole"}, {rays[0].key: Fraction(1)})
    P = base_chamber(d)
    lam = RatVec([Fraction(1, 3)])
    val = split_terms(fns, M0, gfull(d), P, lambda dual: complex(d.pair(lam, dual)))
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
    val = split_terms(fns, M0, gfull(d), P, lambda dual: complex(d.pair(RatVec([1, Fraction(1, 2)]), dual)))
    # direct enumeration oracle over pairs of distinct negative coroots
    from itertools import combinations

    from fraction_refs import vscale

    duals = []
    for ray in restricted_rays(M0):
        rep = ray.rep if d.pair(ray.rep, P.chamber_point) < 0 else -ray.rep
        duals.append(vscale(Fraction(2) / d.pair(rep, rep), rep.coords))
    expected = 0.0
    for pair in combinations(duals, 2):
        sq = ref_gram_det(list(pair), d.gram)
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


# cases: every class with a home of positive dimension, every chamber of that home, both density templates
SPLIT_ROUTE_CASES = {"A1xA1": 48, "A2": 72, "B2": 168, "G2": 368}


@pytest.mark.parametrize("group", sorted(SPLIT_ROUTE_CASES))
def test_split_terms_match_induced_family_on_every_class_and_chamber(group):
    # the relative splitting sum over (M, S) = (home, G) against the (G,M)-family limit of the induced family
    cfg = load_config()
    d = build_root_system(group)
    G = gfull(d)
    lam0 = [0.31j, 0.17j, 0.23j, 0.41j][:d.rank]
    pairs = []
    for t in enumerate_spectral_triples(d):
        home = t.levi_L
        if home.dim == 0:
            continue
        for P in parabolics(home):
            for template in ({"kind": "pole"}, cfg.m_model):
                fns = ScalarRootFns.uniform(home, template, t.nbeta)
                combinatorial = split_terms(fns, home, G, P, _lam_evaluator(d, lam0))
                analytic = induced_family_value(fns, P, lam0, P.chamber_point)
                pairs.append((combinatorial, analytic))
    assert len(pairs) == SPLIT_ROUTE_CASES[group]
    tol = cfg.tolerances["split_match"]
    assert max(abs(a - b) for a, b in pairs) <= tol
    # the routes meet on nonzero values too, not only where both sides vanish
    assert sum(abs(a) > 1e-3 for a, _ in pairs) >= len(pairs) // 2


DENSITY_TEMPLATES = [
    {"kind": "pole"},
    {"kind": "model_plancherel", "c": "1"},
    # real poles at +-sqrt(5): a q with zeros on the imaginary axis is rejected
    {"kind": "pole_plus_rational", "p": ["1", "2"], "q": ["-5", "0", "1"]},
]


@pytest.mark.parametrize("template", DENSITY_TEMPLATES)
def test_segment_integral_keeps_the_per_node_bits(monkeypatch, template):
    # every segment of the analytic route on A2, its density called once on the nodes of a circle's segments
    batched = gmfamily._segment_integrals
    calls = []

    def both(f, z0, ends, rule):
        got = batched(f, z0, ends, rule)
        assert len(got) == len(ends)
        for value, z1 in zip(got, ends):
            assert same_bits(value, ref_segment_integral(f, z0, z1, rule))
        calls.append(len(ends))
        return got

    monkeypatch.setattr(gmfamily, "_segment_integrals", both)
    d = build_root_system("A2")
    M0 = mzero(d)
    fns = ScalarRootFns.uniform(M0, template, {ray.key: Fraction(1) for ray in restricted_rays(M0)})
    P = base_chamber(d)
    induced_family_value(fns, P, [0.31j, 0.17j], P.chamber_point)
    assert calls == [64] * 6  # one call per ray of M0 (3) on each circle, on its 64 nodes


@pytest.mark.parametrize("template", DENSITY_TEMPLATES)
def test_broadcast_segment_nodes_equal_the_per_segment_rows(template):
    # canary: the (64, 32) nodes mid + half * nodes, and the density on them, equal the 64 per-segment rows bit
    # for bit; numpy's elementwise complex ops give a node the same bits in either layout
    rule = np.array(gmfamily._GL32[0], dtype=complex)
    f = gmfamily.scalar_fn_from_template(template, Fraction(1))
    z0 = 0.31j - 0.17
    ends = [z0 + 0.05 * cmath.exp(2j * cmath.pi * k / 64) for k in range(64)]
    mids, halves = [(z0 + z1) / 2 for z1 in ends], [(z1 - z0) / 2 for z1 in ends]
    grid = np.array(mids)[:, None] + np.array(halves)[:, None] * rule
    rows = [mid + half * rule for mid, half in zip(mids, halves)]
    assert same_bits(grid, np.array(rows))
    assert same_bits(f(grid), np.array([f(row) for row in rows]))


@pytest.mark.parametrize("group", ["A1", "A2", "B2", "G2", "A3"])
def test_induced_family_value_keeps_the_per_chamber_bits(group):
    # the segment integrals of each ray, one density call per circle, give every chamber's member its old bits
    d = build_root_system(group)
    M0 = mzero(d)
    n_map = {ray.key: Fraction(1) for ray in restricted_rays(M0)}
    lam0 = [0.31j, 0.17j, 0.23j][:d.rank]
    for template in ({"kind": "pole"}, load_config().m_model):
        fns = ScalarRootFns.uniform(M0, template, n_map)
        for P in parabolics(M0):
            got = induced_family_value(fns, P, lam0, P.chamber_point)
            assert same_bits(got, ref_induced_family_value(fns, P, lam0, P.chamber_point)), (template, P.index)


def test_examples_suite_evaluates_each_segment_integral_once(monkeypatch):
    # the A2 dual route: 2 templates x 2 circles x 64 nodes x 3 rays (each chamber its own: 2,304), in one
    # density call per template, circle and ray
    calls = []
    segment_integrals = gmfamily._segment_integrals

    def counted(f, z0, ends, rule):
        calls.append(len(ends))
        return segment_integrals(f, z0, ends, rule)

    monkeypatch.setattr(gmfamily, "_segment_integrals", counted)
    records = suite_examples(load_config(overrides={"group": "A2"}), build_root_system("A2"))
    assert all(r.status == "pass" for r in records)
    assert calls == [64] * 12


def test_induced_family_value_on_a_pole_wall_raises_pole_hit():
    # <lam0, dual> is exactly 0 on A3's second ray of M0; the circle radius was 0 and the mean divided by 0
    d = build_root_system("A3")
    t = build_spectral_triple(d, range(len(d.roots)))
    assert t.levi_L == mzero(d)
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "pole"}, t.nbeta)
    P = base_chamber(d)
    lam0 = [0.31j, 0.31j + 0.01, 0.31j + 0.02]
    assert _lam_evaluator(d, lam0)(restricted_rays(t.levi_L)[1].dual) == 0
    with pytest.raises(PoleHit, match="pole wall"):
        induced_family_value(fns, P, lam0, P.chamber_point)


def _times(p, q):
    """The product of two polynomials, constant first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# factors of q with zeros on the imaginary axis: z, z^2 (a double zero), z^2 + 4, z^2 + 1/4, (z^2 + 4)^2
ON_AXIS = [[0, 1], [0, 0, 1], [4, 0, 1], [Fraction(1, 4), 0, 1], _times([4, 0, 1], [4, 0, 1])]
# and without: 2, z - 3, z + 1/2, z^2 + 2z + 2 (zeros -1 +- i), z^2 - 2z + 5 (zeros 1 +- 2i), z^2 - 4
OFF_AXIS = [[2], [-3, 1], [Fraction(1, 2), 1], [2, 2, 1], [5, -2, 1], [-4, 0, 1]]


@pytest.mark.parametrize("off", OFF_AXIS + [_times(OFF_AXIS[1], OFF_AXIS[3]), _times(OFF_AXIS[4], OFF_AXIS[4])])
def test_pole_plus_rational_rejects_exactly_a_q_with_a_zero_on_the_imaginary_axis(off):
    def load(q):
        template = {"kind": "pole_plus_rational", "p": ["1"], "q": [str(c) for c in q]}
        return gmfamily.scalar_fn_from_template(template, Fraction(1))

    load(off)
    for on in ON_AXIS:
        with pytest.raises(ValueError, match="no zero on the imaginary axis"):
            load(_times(on, off))


def test_sturm_count_gives_the_distinct_real_roots():
    cases = [
        ([-1, 1], 1), (_times([-1, 1], [-1, 1]), 1), (_times(_times([-1, 1], [-2, 1]), [3, 1]), 3),
        ([1, 0, 1], 0), (_times([1, 0, 1], [-1, 1]), 1), ([7], 0), (_times([0, 0, 1], [-2, 0, 1]), 3),
    ]
    for p, roots in cases:
        assert gmfamily._real_root_count([Fraction(c) for c in p]) == roots, p


def test_sturm_count_in_an_interval():
    # (z - 1)^2 (z - 2)(z + 3): distinct roots -3, 1, 2
    p = [Fraction(c) for c in _times(_times([-1, 1], [-1, 1]), _times([-2, 1], [3, 1]))]
    cases = [((None, None), 3), ((0, None), 2), ((None, 0), 1), ((Fraction(1, 2), Fraction(3, 2)), 1),
             ((Fraction(3, 2), Fraction(5, 2)), 1), ((-4, Fraction(-7, 2)), 0), ((Fraction(-5, 2), 0), 0)]
    for (lo, hi), roots in cases:
        assert gmfamily._real_root_count(p, lo, hi) == roots, (lo, hi)


@pytest.mark.parametrize("template, reach, hit", [
    # poles at +-1: reached at a real part of -1 or 1 and beyond, not short of them
    ({"kind": "model_plancherel", "c": "1"}, Fraction(-1), True),
    ({"kind": "model_plancherel", "c": "1"}, Fraction(9, 10), False),
    ({"kind": "model_plancherel", "c": "1"}, Fraction(2), True),
    ({"kind": "model_plancherel", "c": "2"}, Fraction(-141, 100), False),
    ({"kind": "model_plancherel", "c": "2"}, Fraction(-142, 100), True),
    # poles at 1/2 and -3 only: a contour moved to the left passes 1/2 by
    ({"kind": "pole_plus_rational", "p": ["1"], "q": ["-3/2", "5/2", "1"]}, Fraction(-29, 10), False),
    ({"kind": "pole_plus_rational", "p": ["1"], "q": ["-3/2", "5/2", "1"]}, Fraction(-3), True),
    ({"kind": "pole_plus_rational", "p": ["1"], "q": ["-3/2", "5/2", "1"]}, Fraction(1, 2), True),
    ({"kind": "pole_plus_rational", "p": ["1"], "q": ["-3/2", "5/2", "1"]}, Fraction(49, 100), False),
    # no real pole: z^2 + 2z + 2, and the pure pole at 0
    ({"kind": "pole_plus_rational", "p": ["1"], "q": ["2", "2", "1"]}, Fraction(-10**6), False),
    ({"kind": "pole"}, Fraction(10**6), False),
])
def test_real_pole_between_zero_and_a_reach(template, reach, hit):
    assert gmfamily.scalar_fn_from_template(template, Fraction(1)).real_pole_between(reach) is hit


def _split_terms_on_every_pair(d):
    """split_terms on M0 for every pair M <= S, with a pole density on every ray and a generic lam."""
    M0 = mzero(d)
    fns = ScalarRootFns.uniform(M0, {"kind": "pole"}, {ray.key: Fraction(1) for ray in restricted_rays(M0)})
    point = RatVec([Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)])
    lam = lambda dual: complex(d.pair(point, dual))
    return [split_terms(fns, M, S, base_chamber(d), lam) for M in levi_lattice(d) for S in enumerate_levis(d, lower=M)]


def test_split_terms_read_one_gram_solve_per_levi(monkeypatch):
    d = build_root_system("A3")
    solves = _count_calls(monkeypatch, exactlin, "solve", lambda m, rhs: len(m))
    assert any(_split_terms_on_every_pair(d))
    # the projections of every pair come from one Gram solve per Levi, of the Levi's dimension
    assert solves == Counter(M.dim for M in levi_lattice(d))


def test_repeated_split_terms_run_no_elimination(monkeypatch):
    d = build_root_system("A3")
    first = _split_terms_on_every_pair(d)
    eliminations = _count_calls(monkeypatch, exactlin, "_eliminate", lambda rows, ncols: ncols)
    assert _split_terms_on_every_pair(d) == first
    assert not eliminations


# Every split_subsets term (L1, M >= L1, S >= M, every chamber Q1 of L1): covolume square and sign and
# the (rep, dual) pairs in order.  These are the exact inputs of the float contour path, pinned as
# (sha256 of the term lines, number of terms) from the Fraction-projector route they replaced.
SPLIT_SUBSET_DIGESTS = {
    "A2": ("40c04b4ba4229b11f474eb6796a8f95ed5f730bdca4ae90c06598390faae4300", 121),
    "B2": ("2302fc3a7c4bc54f72311d1eec7b6a4e666c016244e9ffc7b428b130d47b1b0d", 249),
    "G2": ("c3412ac5e6721937eaee05163f62636a63078e7fd26b54407332b35605175fda", 745),
    "A3": ("f5fba612b75c1bd1bb40728fb1ac9a0a35dd9ecc3666749fc10c2e9ec117e8f8", 4351),
}


@pytest.mark.parametrize("label", sorted(SPLIT_SUBSET_DIGESTS))
def test_split_subsets_terms_match_their_pinned_digest(label):
    d = build_root_system(label)
    h, n = hashlib.sha256(), 0
    for L1 in levi_lattice(d):
        for M in enumerate_levis(d, lower=L1):
            for S in enumerate_levis(d, lower=M):
                for Q1 in parabolics(L1):
                    for vol, factors in split_subsets(L1, M, S, Q1):
                        pairs = " ".join(f"{rep}|{dual}" for rep, dual in factors)
                        h.update(f"{L1.label} {M.label} {S.label} {Q1.index}: {vol.square} {vol.sign} {pairs}\n".encode())
                        n += 1
    assert (h.hexdigest(), n) == SPLIT_SUBSET_DIGESTS[label]
