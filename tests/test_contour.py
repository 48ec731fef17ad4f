import ctypes
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from float_refs import (
    ref_flat_phi,
    ref_grid_build,
    ref_grid_values,
    ref_pv_integral,
    ref_quad_on_panels,
    ref_residue_identity_1d,
    ref_shifted_integral,
    same_bits,
)
from mutants import swapped_line_integral
from gmcalc import contour, gmfamily
from gmcalc.config import load_config
from gmcalc.contour import (
    FlatTestFunction,
    LineNodes,
    ShiftCase,
    TestFunction,
    _evaluate,
    _graded_edges,
    _keep_freed_arrays,
    _plan,
    chamber_below,
    lemma_shift_batch,
    lemma_shift_check,
    pv_integral,
    residue_identity_1d,
    shifted_integral,
    verify_residues,
)
from gmcalc.errors import BadShift, GmcalcError, NoConvergence, NotComparable
from gmcalc.gmfamily import ScalarFn, ScalarRootFns, scalar_fn_from_template, values_sharing_poles
from gmcalc.levilattice import base_chamber, levi_lattice, mzero, parabolics
from gmcalc.rootdatum import build_root_system
from gmcalc.spectral import build_spectral_triple, enumerate_spectral_triples, tau_class
from gmcalc.suites import _battery, _lemma_shift_cases, suite_lemma_shift, suite_residue_1d


def pole(n):
    return scalar_fn_from_template({"kind": "pole"}, Fraction(n))


def analytic(fn, label):
    """The line function fn with no pole at the origin."""
    return ScalarFn(Fraction(0), fn, label, (label,))


GAUSS = TestFunction((Fraction(1),), Fraction(1))
ZGAUSS = TestFunction((Fraction(0), Fraction(1)), Fraction(1))
BATTERY = _battery(load_config())  # the configured default test functions
DENSITY_KINDS = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "gmcalc" / "config.schema.json").read_text(encoding="utf-8")
)["$defs"]["density"]["properties"]["kind"]["enum"]


@pytest.mark.parametrize("n", [12, 32])
def test_gauss_legendre_tables_are_numpy_leggauss_bit_for_bit(n):
    # canary: the constant rules are the leggauss bits the pinned reports were made with; a numpy or LAPACK
    # upgrade that moves leggauss fails here, by name, while the reports keep the constants' bits
    nodes, weights = (contour._GL_NODES, contour._GL_WEIGHTS) if n == 12 else gmfamily._GL32
    want = np.polynomial.legendre.leggauss(n)
    assert [[float(x).hex() for x in table] for table in (nodes, weights)] == [[x.hex() for x in t.tolist()] for t in want]


def test_verify_residues_catches_wrong_declaration():
    # -1/z + 1/z has residue 0 at the origin against the declared -1
    bad = ScalarFn(Fraction(1), lambda z: 1.0 / z, "claims -1, is 0", ("bad",))
    with pytest.raises(NoConvergence):
        verify_residues(bad)
    # n = 0 declares residue 0, and the hidden pole 1/z has residue 1
    wrong = analytic(lambda z: 1.0 / z, "hidden pole")
    with pytest.raises(NoConvergence):
        verify_residues(wrong)


@pytest.mark.parametrize("n", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
@pytest.mark.parametrize("kind", DENSITY_KINDS)
def test_every_density_kind_has_residue_minus_n(kind, n):
    # the convention: a density's residue at the origin is minus the ray multiplicity
    template = {"kind": kind, "c": "1", "p": ["1", "1"], "q": ["-4", "0", "1"]}
    fn = scalar_fn_from_template(template, n)
    ring = 0.02 * np.exp(2j * np.pi * np.arange(256) / 256)
    assert abs(complex(np.mean(fn(ring) * ring)) + float(n)) <= 1e-12
    verify_residues(fn)


def test_pv_no_pole_matches_direct_quadrature():
    f = analytic(np.exp, "exp")
    val, err = pv_integral(f, GAUSS)
    # direct: integral of exp(it) exp(-t^2) dt / 2pi = exp(-1/4) sqrt(pi) / 2pi
    expected = math.exp(-0.25) * math.sqrt(math.pi) / (2 * math.pi)
    assert abs(val - expected) <= 1e-8


def test_pv_pure_pole_even_phi_is_zero():
    val, err = pv_integral(pole(1), GAUSS)
    assert abs(val) <= 1e-8


def test_pv_pure_pole_odd_phi_closed_form():
    # p.v. of (-n/z) z e^{z^2} over it: -n integral e^{-t^2} dt / 2pi
    n = 2
    val, _ = pv_integral(pole(n), ZGAUSS)
    expected = -n * math.sqrt(math.pi) / (2 * math.pi)
    assert abs(val - expected) <= 1e-8


def test_shifted_equals_pv_for_analytic():
    f = analytic(np.cos, "cos")
    pv, _ = pv_integral(f, GAUSS)
    for eps in (0.05, 0.1):
        assert abs(shifted_integral(f, GAUSS, eps) - pv) <= 1e-8


def test_shifted_integral_eps_independent():
    f = pole(1)
    a = shifted_integral(f, GAUSS, 0.05)
    b = shifted_integral(f, GAUSS, 0.1)
    assert abs(a - b) <= 1e-8


def test_shifted_bad_eps():
    with pytest.raises(BadShift):
        shifted_integral(pole(1), GAUSS, 0.0)


@pytest.mark.parametrize("deltas", [(20, 10, 9), (8.0, 0.1, 0.01), (0.1, 0.01, 0.0), (0.1, 0.01, -0.001)])
def test_pv_rejects_a_cut_outside_the_axis(deltas):
    # GAUSS is cut off at |t| = 8; the cut (-20, 20) once swallowed the axis and gave (0j, 0.0)
    with pytest.raises(BadShift):
        pv_integral(pole(1), GAUSS, deltas)


@pytest.mark.parametrize("rungs", range(3, 9))
def test_extrapolate_odd_fits_one_power_per_rung(rungs):
    # the fit is 1, d, d^3, ... with one power per rung: 6 rungs once met 5 powers in a LinAlgError
    xs = [0.5 / 4 ** k for k in range(rungs)]
    est, err = contour._extrapolate_odd(xs, [2.0 + 0.5 * x - 3.0 * x ** 3 for x in xs])
    assert abs(est - 2.0) < 1e-12 and err < 2e-3


def test_residue_1d_judges_the_ladder_by_its_tolerance():
    # this ladder settles to between 1.6e-6 and 2.1e-5, once judged against 1e-6 whatever the tolerance
    d = build_root_system("A2")
    coarse = {"delta_ladder": [0.2, 0.05, 0.01]}
    loose = suite_residue_1d(load_config({**coarse, "tolerances": {"residue_1d": 1e-4}}), d)
    assert len(loose) == 33 and all(r.status == "pass" for r in loose)
    tight = [r for r in suite_residue_1d(load_config({**coarse, "tolerances": {"residue_1d": 1e-6}}), d) if r.status != "pass"]
    assert tight and all("principal value ladder did not settle" in r.detail for r in tight)


def test_shifted_pure_pole_even_phi():
    # with p.v. zero the shifted value must be n/2 phi(0)
    for n in (Fraction(1, 2), Fraction(1), Fraction(2)):
        val = shifted_integral(pole(n), GAUSS, 0.05)
        assert abs(val - float(n) / 2) <= 1e-6


@pytest.mark.parametrize("n", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_residue_identity_battery(n):
    f = pole(n)
    for phi in BATTERY:
        rec = residue_identity_1d(f, phi, 0.05)
        assert rec["pass"], rec


def test_residue_identity_model_plancherel():
    fn = scalar_fn_from_template({"kind": "model_plancherel", "c": "1"}, Fraction(1))
    rec = residue_identity_1d(fn, TestFunction((Fraction(1),), Fraction(1)), 0.05)
    assert rec["pass"], rec


def test_residue_identity_n_zero_is_cauchy():
    rec = residue_identity_1d(analytic(np.exp, "exp"), GAUSS, 0.05)
    assert rec["pass"]


@pytest.mark.parametrize("kind", ["pole", "model"])
def test_panel_quadrature_keeps_the_per_panel_bits(monkeypatch, kind):
    # every panel set of the residue-1d identities, on the suite's lines and battery, all on one node table
    cfg = load_config()
    batched = LineNodes.integral
    calls = []

    def both(self, f, phi, edges, eps=None):
        got = batched(self, f, phi, edges, eps)

        def g(ts):
            z = 1j * ts if eps is None else -eps + 1j * ts
            return phi(z) * f(z) / (2 * np.pi)

        assert same_bits(got, ref_quad_on_panels(g, edges))
        calls.append(len(edges) - 1)
        return got

    monkeypatch.setattr(LineNodes, "integral", both)
    nodes = LineNodes()
    for n in (Fraction(1, 2), Fraction(1), Fraction(2)):
        line = scalar_fn_from_template({"kind": "pole"} if kind == "pole" else cfg.m_model, n)
        for phi in BATTERY:
            residue_identity_1d(line, phi, cfg.epsilons[0], cfg.delta_ladder, nodes=nodes)
    # one shifted line and two segments per delta for each identity
    assert len(calls) == 3 * len(BATTERY) * (1 + 2 * len(cfg.delta_ladder))
    assert min(calls) > 1


def _ref_residue_1d_records(cfg) -> list[tuple]:
    """(id, status, residual, detail) of each suite_residue_1d record by the per-identity route, sorted by id;
    the even-zero records evaluate their own integrals."""
    battery = _battery(cfg)
    even = next((phi for phi in battery if not any(phi.coeffs[1::2])), None)
    tol, eps = float(cfg.tolerances["residue_1d"]), cfg.epsilons[0]
    out = []
    for n in (Fraction(1, 2), Fraction(1), Fraction(2)):
        stem = f"residue-1d/n{n.numerator}_{n.denominator}/"
        pure = scalar_fn_from_template({"kind": "pole"}, n)
        for kind, line in (("pole", pure), ("model", scalar_fn_from_template(cfg.m_model, n))):
            for j, phi in enumerate(battery):
                try:
                    rec = ref_residue_identity_1d(line, phi, eps, cfg.delta_ladder, tol)
                    out.append((f"{stem}{kind}/phi{j}", "pass" if rec["pass"] else "fail", rec["residual"], None))
                except GmcalcError as exc:
                    out.append((f"{stem}{kind}/phi{j}", "fail", None, str(exc)))
        try:
            pv, _ = ref_pv_integral(pure, even, cfg.delta_ladder, tol)
            lhs = ref_shifted_integral(pure, even, eps)
            ok = abs(pv) <= float(cfg.tolerances["pv_zero"]) and abs(lhs - float(n) / 2 * complex(even(0.0))) <= tol
            out.append((f"{stem}even-zero", "pass" if ok else "fail", abs(pv), None))
        except GmcalcError as exc:
            out.append((f"{stem}even-zero", "fail", None, str(exc)))
    return sorted(out)


def _outcome(check, *args):
    """check(*args), or the message of the GmcalcError it raised."""
    try:
        return check(*args)
    except GmcalcError as exc:
        return str(exc)


RESIDUE_1D_CONFIGS = [
    {},
    # a rational density with real poles at +-sqrt(5), other test functions and a four-rung ladder
    {"test_functions": [{"poly": ["1", "2", "-1/3"], "scale": "3/2"}, {"poly": ["0", "0", "1"], "scale": "1"}],
     "m_model": {"kind": "pole_plus_rational", "p": ["1", "2"], "q": ["-5", "0", "1"]},
     "epsilons": [0.03, 0.07], "delta_ladder": [0.2, 0.02, 0.002, 0.0005]},
    # a coarse ladder: the records whose ladder does not settle within 1e-6 fail with its message
    {"delta_ladder": [0.2, 0.05, 0.01]},
]


@pytest.mark.parametrize("config", RESIDUE_1D_CONFIGS)
def test_residue_1d_identities_keep_the_per_identity_bits(config):
    # every identity of the suite on one shared node table, against each identity on its own panels
    cfg = load_config(config)
    nodes = LineNodes()
    tol = float(cfg.tolerances["residue_1d"])
    for n in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for template in ({"kind": "pole"}, cfg.m_model):
            line = scalar_fn_from_template(template, n)
            for phi in _battery(cfg):
                want = _outcome(ref_residue_identity_1d, line, phi, cfg.epsilons[0], cfg.delta_ladder, tol)
                got = _outcome(residue_identity_1d, line, phi, cfg.epsilons[0], cfg.delta_ladder, tol, nodes)
                assert repr(got) == repr(want)


@pytest.mark.parametrize("group", ["A1", "A2", "B2", "G2", "A3"])
@pytest.mark.parametrize("config", RESIDUE_1D_CONFIGS)
def test_residue_1d_suite_equals_the_per_identity_route(config, group):
    # the shared node table, the residues verified once and the even-zero records read off the pole records
    cfg = load_config(config)
    got = sorted((r.id, r.status, r.residual, r.detail) for r in suite_residue_1d(cfg, build_root_system(group)))
    assert repr(got) == repr(_ref_residue_1d_records(cfg))


def test_residue_1d_suite_verifies_each_density_once(monkeypatch):
    calls = []
    monkeypatch.setattr(contour, "verify_residues", lambda f: calls.append(f.key))
    records = suite_residue_1d(load_config(), build_root_system("A1"))
    assert len(records) == 33 and all(r.status == "pass" for r in records)
    assert len(calls) == len(set(calls)) == 6  # the pure pole and the model, at n = 1/2, 1 and 2


def test_swapped_residue_product_fails_the_reference(monkeypatch):
    # f(z) * phi(z) moves the low bits of complex products on hosts where numpy's array multiply is not
    # bitwise commutative, which the pinned reports were made on; elsewhere the two orders agree
    monkeypatch.setattr(LineNodes, "integral", swapped_line_integral)
    cfg = load_config()
    got = sorted((r.id, r.status, r.residual, r.detail) for r in suite_residue_1d(cfg, build_root_system("A1")))
    phi, f = BATTERY[2], pole(Fraction(1))
    z = -cfg.epsilons[0] + 1j * np.linspace(-3.0, 3.0, 256)  # nodes of a shifted line
    commutes = same_bits(phi(z) * f(z), f(z) * phi(z))
    assert (repr(got) == repr(_ref_residue_1d_records(cfg))) == commutes


PHI_FLAT = FlatTestFunction(1.0, 0.0, 0.0, 1.0, (0.0, 0.0, 0.0, 0.0))


def flat_phi(d, Q1, c1=0.0, c2=0.0, scale=1.0):
    v0 = tuple(float(x) for x in Q1.chamber_point.coords)
    return FlatTestFunction(1.0, c1, c2, scale, v0)


def test_lemma_shift_a1():
    d = build_root_system("A1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    M0 = mzero(d)
    P = base_chamber(d)
    for template in ({"kind": "model_plancherel", "c": "1"}, {"kind": "model_plancherel", "c": "4"}):
        fns = ScalarRootFns.uniform(t.levi_L, template, t.nbeta)
        phi = flat_phi(d, chamber_below(P, t.levi_L))
        rec = lemma_shift_check(t, fns, M0, P, phi)
        assert rec["pass"], rec
        assert rec["eps_stability"] <= 1e-4


def test_lemma_shift_a1_trivial_densities():
    d = build_root_system("A1")
    t = tau_class(build_spectral_triple(d, [], []))
    M0 = mzero(d)
    P = base_chamber(d)
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
    phi = flat_phi(d, chamber_below(P, t.levi_L), c1=0.5)
    rec = lemma_shift_check(t, fns, M0, P, phi)
    assert rec["pass"], rec


def test_lemma_shift_a1xa1_full():
    d = build_root_system("A1xA1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    M0 = mzero(d)
    P = base_chamber(d)
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
    phi = flat_phi(d, chamber_below(P, t.levi_L), c2=0.25)
    rec = lemma_shift_check(t, fns, M0, P, phi)
    assert rec["pass"], rec


def test_lemma_shift_a1xa1_intermediate_levi():
    d = build_root_system("A1xA1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    P_list = [L for L in levi_lattice(d) if L.dim == 1]
    M = P_list[0]
    P = parabolics(M)[0]
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
    phi = flat_phi(d, chamber_below(P, t.levi_L))
    rec = lemma_shift_check(t, fns, M, P, phi)
    assert rec["pass"], rec


# ---------------------------------------------------------------------------
# grid-major evaluation against a naive per-integral reference


AXES = ((0.6, -0.8, 0.1), (0.3, 0.4, -0.7))
SHIFT = (0.05, -0.02, 0.03)


def joined_slabs(grid):
    """The nodes and weights of every slab of the grid, joined along axis 0, and the slab count."""
    slabs = list(grid.slabs(grid.axes()))
    lam = [np.concatenate([nodes[i] for nodes, _ in slabs]) for i in range(len(slabs[0][0]))]
    return lam, np.concatenate([weight for _, weight in slabs]), len(slabs)


@pytest.mark.parametrize("k, pole_axes, shift", [
    (1, 0, None), (1, 0, SHIFT), (1, 1, None), (1, 1, SHIFT),
    (2, 0, None), (2, 0, SHIFT), (2, 1, None), (2, 1, SHIFT), (2, 2, None),
])
def test_grid_build_keeps_the_meshgrid_bits(monkeypatch, k, pole_axes, shift):
    grid = contour._Grid(AXES[:k], pole_axes, 0.01 if pole_axes else None, shift, 8.0, 0.0125)
    ref_lam, ref_weight = ref_grid_build(grid)
    half = len(ref_weight) // 2
    assert half == 192
    # slabs of the default size, of one row (or node), of 100 nodes, of two rows, and of the whole half
    for slab, slabs in ((contour._SLAB, (1, 5)), (1, (192, 192)), (100, (2, 192)), (1000, (1, 96)), (10**9, (1, 1))):
        monkeypatch.setattr(contour, "_SLAB", slab)
        lam, weight, count = joined_slabs(grid)
        assert count == slabs[k - 1] and len(lam) == len(ref_lam) == 3
        for a, b in zip(lam, ref_lam):
            # the slabs cover the first half of axis 0; the other half is its conjugate mirror, equal as
            # values (without pole axes the real parts of 2-d grids differ from it in the sign of zero)
            assert same_bits(a, b[:half])
            assert np.array_equal(b[half:], np.conj(np.flip(a)))
        assert same_bits(weight, ref_weight[:half])
        assert same_bits(np.flip(weight), ref_weight[half:])


FLAT_PHI_CASES = [
    (1.0, 0.0, 0.0), (1.0, 0.3, 0.0), (1.0, 0.0, 0.1), (1.0, 0.3, 0.1), (0.0, 0.0, 0.25), (-0.5, 0.0, 0.0),
]


@pytest.mark.parametrize("c0, c1, c2", FLAT_PHI_CASES)
def test_flat_phi_keeps_the_full_prefactor_bits(monkeypatch, c0, c1, c2):
    monkeypatch.setattr(contour, "_SLAB", 1000)
    d = build_root_system("A3")
    phi = FlatTestFunction(c0, c1, c2, 0.5, (0.7, 0.2, -0.4))
    nodes = [joined_slabs(grid)[0] for grid in (
        contour._Grid(AXES, 1, 0.01, SHIFT, phi.cutoff(), 0.0125),
        contour._Grid(AXES[:1], 0, None, None, phi.cutoff(), 0.0125),
    )]
    # the point values of 0-dimensional flats, at a shift and at the origin
    nodes += [[complex(x) for x in SHIFT], [0j, 0j, 0j]]
    for lam in nodes:
        # the float form against the exact one converted entry by entry
        assert same_bits(phi(d.float_gram, lam), ref_flat_phi(phi, d.gram, lam))


def test_flat_phi_without_a_linear_term_keeps_no_v0():
    one, other = (FlatTestFunction(1.0, 0.0, 0.1, 0.5, v0) for v0 in ((0.7, 0.2, -0.4), (0.1, 0.0, 0.3)))
    assert one.v0 == () and one == other and hash(one) == hash(other)
    linear = FlatTestFunction(1.0, 0.3, 0.1, 0.5, (0.7, 0.2, -0.4))
    assert linear.v0 == (0.7, 0.2, -0.4) and linear != FlatTestFunction(1.0, 0.3, 0.1, 0.5, (0.1, 0.0, 0.3))


@pytest.mark.parametrize("n", ["0", "1/2", "1", "2"])
def test_every_density_kind_and_flat_phi_commute_with_conjugation(n):
    # the precondition of evaluating each grid on half its nodes (see the contour module docstring):
    # real coefficients, so that f(conj z) == conj(f(z)) on the nodes of a shifted 2-d grid
    lam, _ = ref_grid_build(contour._Grid(AXES, 1, 0.01, SHIFT, 8.0, 0.0125))
    conj_lam = [np.conj(c) for c in lam]
    z = sum(c * g for c, g in zip(lam, (0.6, -0.3, 0.2)))
    for kind in DENSITY_KINDS:
        f = scalar_fn_from_template({"kind": kind, "c": "1", "p": ["1", "1"], "q": ["-4", "0", "1"]}, Fraction(n))
        assert np.array_equal(f(np.conj(z)), np.conj(f(z))), kind
    d = build_root_system("A3")
    for c0, c1, c2 in FLAT_PHI_CASES:
        phi = FlatTestFunction(c0, c1, c2, 0.5, (0.7, 0.2, -0.4))
        assert np.array_equal(phi(d.float_gram, conj_lam), np.conj(phi(d.float_gram, lam))), (c0, c1, c2)


def _mixed_complex(rng, shape):
    """Complex values of magnitudes 1e-12 to 1e12 and both signs, a tenth of the parts 0.0, a tenth -0.0."""
    parts = []
    for _ in range(2):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 12, shape)
        u = rng.uniform(size=shape)
        x[u < 0.1] = 0.0
        x[(u >= 0.1) & (u < 0.2)] = -0.0
        parts.append(x)
    return parts[0] + 1j * parts[1]


def _mirror_sum(half, rows):
    acc = contour._MirrorSum(contour._MirrorLeaves.of(half.size))
    for start in range(0, len(half), rows):
        acc.add(half[start:start + rows])
    return acc.total()


# every half-grid shape of the default A2, B2 and G2 runs, then small, odd and unaligned lengths: 4 and 12
# (the whole array one run of numpy's sum), 1036 % 8 == 4, 1000 (the whole array one leaf from a leaf size
# of 2048 on), and lengths that are not multiples of 4, whose leaves straddle the middle of the full array
MIRROR_SHAPES = [
    (156,), (180,), (192,), (240,), (156, 312), (180, 360), (156, 384), (192, 384), (240, 384), (240, 480),
    (4,), (12,), (60,), (1036,), (1000,), (6,), (1030,), (4099,), (30, 7),
]

# leaf sizes down to one run of numpy's sum, the former default and the default: the leaves are nodes
# of numpy's tree, so no leaf size may move a bit, and a smaller one puts more leaves wholly past the
# middle, where _MirrorSum sums a reversed view
LEAF_SIZES = (64, 2048, 4096)


def test_leaf_fits_numpys_buffer():
    # numpy reduces a reversed view in its own order and as one run only while it fits the buffer
    # (a longer strided operand is cut into buffer-sized runs), so a leaf past the middle of the mirrored
    # array has the bits of the reduction of its copy only up to np.getbufsize() elements
    assert contour._LEAF in LEAF_SIZES and contour._LEAF <= np.getbufsize()


@pytest.mark.parametrize("shape", MIRROR_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_mirror_sum_is_numpys_sum_of_the_mirrored_array(monkeypatch, shape):
    rng = np.random.default_rng(sum(shape))
    half = _mixed_complex(rng, shape)
    want = complex(np.sum(np.concatenate([half, np.conj(np.flip(half))])))
    for leaf in LEAF_SIZES:
        monkeypatch.setattr(contour, "_LEAF", leaf)
        # slabs of one row, of rows not aligned to the leaves, and of more rows than there are
        for rows in (1, 7, 301, len(half) + 5):
            assert same_bits(_mirror_sum(half, rows), want), (leaf, rows)


def test_mirror_sum_keeps_the_signs_of_zeros_that_numpy_keeps(monkeypatch):
    for leaf in LEAF_SIZES:
        monkeypatch.setattr(contour, "_LEAF", leaf)
        for half in (np.full(12, complex(-0.0, -0.0)), np.full(1200, complex(-0.0, -0.0)), np.zeros(4000, complex)):
            want = complex(np.sum(np.concatenate([half, np.conj(np.flip(half))])))
            assert same_bits(_mirror_sum(half, 100), want), (leaf, half.size)


@pytest.mark.parametrize("shape, rows", [((240, 384), 42), ((4099,), 301), ((1000,), 7)])
def test_mirror_sum_holds_at_most_one_leaf_between_slabs(shape, rows):
    half = _mixed_complex(np.random.default_rng(7), shape)
    acc = contour._MirrorSum(contour._MirrorLeaves.of(half.size))
    for start in range(0, len(half), rows):
        acc.add(half[start:start + rows])
        assert acc.held.size <= contour._LEAF and acc.held.base is None


def _naive_m(d, terms, lam):
    """The m-terms with each float pairing rebuilt from the exact dual vector."""
    total = None
    for term in terms:
        val = term.vol
        for fn, dual, _ in term.factors:
            gd = [sum(float(d.gram[i][j]) * float(dual.coords[j]) for j in range(d.rank)) for i in range(d.rank)]
            z = sum(lam[i] * gd[i] for i in range(d.rank))
            val = val * fn(z)
        total = val if total is None else total + val
    return 0j if total is None else total


def _naive_values(it):
    d = it.d
    if not it.grids:
        lam = [complex(x) for x in np.zeros(d.rank)]
        return [complex(ref_flat_phi(it.phi, d.gram, lam) * _naive_m(d, it.terms, lam))]
    out = []
    for g in it.grids:
        lam, weight = ref_grid_build(g)
        vals = ref_flat_phi(it.phi, d.gram, lam) * _naive_m(d, it.terms, lam)
        out.append(complex(np.sum(vals * weight)) / (2 * np.pi) ** len(g.onb))
    return out


def _suite_cases(group, wanted=None, config=None):
    d = build_root_system(group)
    rows = _lemma_shift_cases(load_config(config, overrides={"group": group}), d)
    return [(cid, case) for cid, _, case in rows if wanted is None or cid.split("/", 2)[2] in wanted]


@pytest.mark.parametrize("group, points", [("A1", 2), ("B2", 16), ("G2", 22), ("A1xA1", 6), ("A3", 4)])
def test_point_flats_read_no_density(group, points):
    # a 0-dimensional flat comes only from L = G, where S = M = L1: its one term is the empty subset
    found = []
    for index, (_, case) in enumerate(_suite_cases(group)):
        try:
            plan = _plan(index, case)
        except NotComparable:
            continue
        found += [it for it in plan.integrals() if not it.grids]
    assert len(found) == points
    assert all(len(it.terms) == 1 and not it.terms[0].factors for it in found)


def test_lemma_shift_ladder_reads_the_configured_tolerance():
    d = build_root_system("A2")
    coarse = {"group": "A2", "delta_ladder": [0.5, 0.2, 0.05]}
    # the ladder error of c04/M0/m is near 1.7e-4: inside 1e-2, outside 1e-5
    loose = suite_lemma_shift(load_config(overrides={**coarse, "tolerances": {"lemma_shift": 1e-2}}), d)
    assert Counter(r.status for r in loose) == {"pass": 38, "skip": 8}
    tight = suite_lemma_shift(load_config(overrides={**coarse, "tolerances": {"lemma_shift": 1e-5}}), d)
    rec = next(r for r in tight if r.id == "lemma-shift/A2/c04/M0/m")
    assert rec.status == "fail" and rec.detail.startswith("iterated principal value did not settle")


@pytest.mark.parametrize("group, wanted, config", [
    ("A1xA1", None, None),
    # the A2 cases whose residuals move when phi * m is computed as m * phi
    ("A2", {f"{c}/{m}" for c in ("c00/L4", "c00/L5", "c04/M0") for m in ("m", "r")}, None),
    # B2 cases whose grids carry one density for several integrals
    ("B2", {"c00/M0/m", "c00/M0/r", "c05/M0/m", "c05/L7/m"}, None),
    # a density and a phi that are neither odd nor even, so no half of a grid mirrors the other by symmetry
    ("A1xA1", None, {
        "m_model": {"kind": "pole_plus_rational", "p": ["1", "1"], "q": ["-4", "0", "1"]},
        "flat_phi": [{"c0": 1.0, "c1": 0.3, "c2": 0.1, "scale": 0.5}],
    }),
], ids=["A1xA1-None", "A2-wanted1", "B2-wanted2", "A1xA1-pole_plus_rational"])
def test_grid_major_values_equal_naive_reference(group, wanted, config):
    cases = _suite_cases(group, wanted, config)
    assert len(cases) == (len(wanted) if wanted else 32)
    plans = []
    for index, (_, case) in enumerate(cases):
        try:
            plans.append(_plan(index, case))
        except NotComparable:
            continue
    integrals = [it for p in plans for it in p.integrals()]
    counters = _evaluate(integrals, [0.0] * len(cases))
    assert counters["lemma_shift.grids"] < counters["lemma_shift.integrals"]
    factor_uses = sum(len(it.grids) * len(term.factors) for it in integrals for term in it.terms)
    assert counters["lemma_shift.pairings"] <= counters["lemma_shift.densities"] < factor_uses
    assert counters["lemma_shift.m_sums"] <= counters["lemma_shift.integrands"] <= counters["lemma_shift.integrals"]
    if group == "B2":
        # integrals that share one value are compared with their own naive values
        assert counters["lemma_shift.integrands"] < counters["lemma_shift.integrals"]
    for it in integrals:
        assert it.values == _naive_values(it)


def test_density_table_keys_densities_by_value():
    templates = [{"kind": "pole_plus_rational", "p": ["0", p1], "q": ["-4", "0", "1"]} for p1 in ("1", "2")]
    one, same, other = (scalar_fn_from_template(tpl, Fraction(1)) for tpl in templates[:1] + templates)
    assert one is not same and one.key == same.key
    assert one.label == other.label and one.key != other.key
    # two such densities on the same grids: a key by label would give both the first's values
    d = build_root_system("A1xA1")
    t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
    P = base_chamber(d)
    phi = flat_phi(d, chamber_below(P, t.levi_L))
    plans = [
        _plan(index, ShiftCase(
            t, ScalarRootFns.uniform(t.levi_L, tpl, t.nbeta), mzero(d), P, phi, (0.05, 0.1), (1e-1, 1e-2, 1e-3), 1e-4
        ))
        for index, tpl in enumerate(templates)
    ]
    grids = [{g for it in p.integrals() for g in it.grids} for p in plans]
    assert grids[0] == grids[1]
    integrals = [it for p in plans for it in p.integrals()]
    _evaluate(integrals, [0.0, 0.0])
    for it in integrals:
        assert it.values == _naive_values(it)
    assert plans[0].lhs[0].values != plans[1].lhs[0].values


def test_density_table_shares_each_pole_quotient_by_pairing_and_residue():
    # three densities on one pairing of an A2 slab: two with n = 1, which share -1 / z, and one with n = 1/2
    fns = [
        scalar_fn_from_template({"kind": "pole"}, Fraction(1)),
        scalar_fn_from_template({"kind": "model_plancherel", "c": "1"}, Fraction(1)),
        scalar_fn_from_template({"kind": "model_plancherel", "c": "4"}, Fraction(1, 2)),
    ]
    it = next(it for _, case in _suite_cases("A2", {"c00/M0/m"}) for it in _plan(0, case).lhs)
    gd = it.terms[0].factors[0][2]
    lam, _ = next(it.grids[0].slabs(it.grids[0].axes()))
    table = contour._density_table({gd: {fn.key: fn for fn in fns}}, lam)
    z = sum(c * g for c, g in zip(lam, gd))
    assert len(table) == 3 and z.size == lam[0].size
    for got, fn in zip(table, fns):
        assert same_bits(got, fn(z)), fn


def test_batch_matches_one_case_at_a_time():
    # the c00 cases: m- and r-models share every grid and phi
    cases = [case for cid, case in _suite_cases("A1xA1") if "/c00/" in cid]
    home = cases[0].t.levi_L
    other = next(t for t in map(tau_class, enumerate_spectral_triples(home.datum)) if t.levi_L != home)
    # densities on another flat: planning raises NotComparable for this case only
    bad = cases[0]._replace(fns=ScalarRootFns.uniform(other.levi_L, {"kind": "model_plancherel", "c": "1"}, other.nbeta))
    batch = lemma_shift_batch(cases[:2] + [bad] + cases[2:])
    outcomes = batch.outcomes[:2] + batch.outcomes[3:]
    for case, got in zip(cases, outcomes):
        try:
            want = lemma_shift_check(*case)
        except GmcalcError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert got == want
    assert isinstance(batch.outcomes[2], NotComparable)
    with pytest.raises(NotComparable, match=str(batch.outcomes[2])):
        lemma_shift_check(*bad)
    assert len(batch.runtimes) == len(cases) + 1 and all(rt > 0 for rt in batch.runtimes)


@pytest.mark.parametrize("fine", [0.0, -0.05, float("nan")])
def test_graded_edges_rejects_non_positive_step(fine):
    with pytest.raises(BadShift):
        _graded_edges(0.0, 8.0, fine, None)
    with pytest.raises(BadShift):
        _graded_edges(-8.0, 8.0, None, fine)


def test_allocator_setting_sets_both_thresholds_and_is_a_no_op_without_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    _keep_freed_arrays()
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD: either alone turns off the dynamic thresholds
    assert calls == [(-3, 32 << 20), (-1, 32 << 20)]

    def no_library(name):
        raise OSError("no C library")

    for cdll in (lambda name: SimpleNamespace(), no_library):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        _keep_freed_arrays()


def test_lemma_shift_peak_memory_is_bounded_by_slabs_not_grids():
    # the default A2 cases: one 92,160-node half grid took a 17.9 MB peak when evaluated whole
    cases = [case for _, _, case in _lemma_shift_cases(load_config(overrides={"group": "A2"}), build_root_system("A2"))]
    tracemalloc.start()
    try:
        batch = lemma_shift_batch(cases)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.counters["lemma_shift.nodes"] == 1809756
    assert peak <= 6e6


def _imaginary_points(rng, size):
    """Points iy of magnitudes 1e-6 to 1e6 and both signs, as y and as numpy complex values whose real parts
    are 0.0 or -0.0."""
    y = rng.standard_normal(size) * 10.0 ** rng.uniform(-6, 6, size)
    z = np.empty(size, complex)
    z.real = np.where(rng.uniform(size=size) < 0.5, 0.0, -0.0)
    z.imag = y
    return y, z


def test_numpy_keeps_the_facts_the_imaginary_grids_rely_on():
    # unshifted grids are evaluated in real arithmetic with numpy's complex bits (see the contour module
    # docstring); a numpy whose complex division or exp changes form fails here, not as a moved report sha
    rng = np.random.default_rng(20260810)
    y, z = _imaginary_points(rng, 1 << 16)
    for n in (0.5, 1.0, 1.5):
        # complex division takes the reciprocal of its denominator: n / y would differ in about 30% of values
        assert np.array_equal((-complex(n) / z).imag, n * (1.0 / y))
    for c in (1.0, 2.0, 4.0):
        quotient = z / (z * z - complex(c))
        assert np.array_equal(quotient.imag, y * (1.0 / (-(y * y) - c))) and not quotient.real.any()
    # the real part of the complex exp is the C library's exp; numpy's real exp differs in about 5% of values
    x = rng.uniform(-700.0, 700.0, 1 << 14)
    assert np.array_equal(np.exp(x + 0j).real, [math.exp(v) for v in x])


@pytest.mark.parametrize("n", ["1/2", "1", "3/2"])
def test_densities_at_imaginary_points_are_numpys_complex_values(n):
    y, z = _imaginary_points(np.random.default_rng(7), 4096)
    templates = [{"kind": "pole"}, {"kind": "pole_plus_rational", "p": ["1", "1"], "q": ["-4", "0", "1"]}]
    templates += [{"kind": "model_plancherel", "c": c} for c in ("1", "2", "4")]
    assert {t["kind"] for t in templates} == set(DENSITY_KINDS)
    # with n and with no pole: each template's analytic part is shared by the two
    fns = [scalar_fn_from_template(t, Fraction(r)) for t in templates for r in (n, "0")]
    for got, fn in zip(values_sharing_poles(fns, y, imaginary=True), fns):
        want = fn(z)
        if fn.on_axis is None:
            assert got.dtype == complex and np.array_equal(got, want), fn
        else:
            assert got.dtype == float and np.array_equal(got, want.imag) and not want.real.any(), fn


@pytest.mark.parametrize("c0, c1, c2", FLAT_PHI_CASES)
def test_flat_phi_at_imaginary_points_is_numpys_complex_value(c0, c1, c2):
    rng = np.random.default_rng(11)
    ys, lam = zip(*(_imaginary_points(rng, 4096) for _ in range(3)))
    ys = [y / np.abs(y).max() * 6.0 for y in ys]  # inside the cutoff, where the Gaussian is not 0
    for y, z in zip(ys, lam):
        z.imag = y
    d = build_root_system("A3")
    phi = FlatTestFunction(c0, c1, c2, 0.5, (0.7, 0.2, -0.4))
    got, want = phi(d.float_gram, ys, imaginary=True), phi(d.float_gram, list(lam))
    if c1 == 0:
        assert got.dtype == float and np.array_equal(got, want.real) and not want.imag.any()
    else:
        assert np.array_equal(got, want)


MIXED_CONFIG = {
    "m_model": {"kind": "pole_plus_rational", "p": ["1", "1"], "q": ["-4", "0", "1"]},
    "flat_phi": [{"c0": 1.0, "c1": 0.3, "c2": 0.1, "scale": 0.5}],
}


def _grid_integrals(group, config=None, shifted=True):
    """The planned integrals with grids of the group's default cases, those on shifted grids only if
    shifted, and the number of cases."""
    cases = [case for _, case in _suite_cases(group, config=config)]
    plans = []
    for index, case in enumerate(cases):
        try:
            plans.append(_plan(index, case))
        except NotComparable:
            continue
    integrals = [it for p in plans for it in p.integrals() if it.grids]
    return [it for it in integrals if shifted or it.grids[0].shift is None], len(cases)


@pytest.mark.parametrize("group, config, shifted", [
    # the shifted grids run the complex route, with one analytic part per pairing and template
    ("A2", None, True), ("B2", None, False), ("G2", None, False),
    # a density with both parts nonzero at iy next to ones with one, and a phi with a linear term
    ("A2", MIXED_CONFIG, False),
    ("A2", {"m_model": {"kind": "pole"}, "flat_phi": [{"c0": 0.5, "c1": 0.0, "c2": 0.2, "scale": 0.5}]}, False),
], ids=["A2", "B2", "G2", "A2-mixed", "A2-pole-c2"])
def test_every_grid_value_keeps_the_bits_of_the_complex_route(group, config, shifted):
    integrals, count = _grid_integrals(group, config, shifted)
    counters = _evaluate(integrals, [0.0] * count)
    assert 0 < counters["lemma_shift.imaginary_nodes"] <= counters["lemma_shift.nodes"]
    for it, want in zip(integrals, ref_grid_values(integrals)):
        assert all(map(same_bits, it.values, want))


def test_each_analytic_part_is_evaluated_once_per_pairing_and_template(monkeypatch):
    # the densities of A2 that differ only in n share their analytic part: 158 evaluations for 166 densities,
    # 72 for the 80 on shifted grids (complex) and one for each of the 86 on unshifted ones (real)
    monkeypatch.setattr(contour, "_SLAB", 10**9)  # one slab per grid
    integrals, count = _grid_integrals("A2")
    calls = Counter()
    for fn in {id(fn): fn for it in integrals for term in it.terms for fn, _, _ in term.factors}.values():
        for name in ("analytic", "on_axis"):
            def counted(z, fn=fn, inner=getattr(fn, name), name=name):
                calls[name] += 1
                return inner(z)
            monkeypatch.setattr(fn, name, counted)
    counters = _evaluate(integrals, [0.0] * count)
    assert counters["lemma_shift.densities"] == 166
    assert calls == {"analytic": 72, "on_axis": 86}
