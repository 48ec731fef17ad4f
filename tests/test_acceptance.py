"""Acceptance gate: every criterion at its stated tolerance, one line per criterion."""
import json
import time
from fractions import Fraction

from gmcalc.asymptotic import SigmaModel, assemble_PhiP, c_coefficient_example, multiplier_alpha
from gmcalc.cli import main as cli_main
from gmcalc.config import load_config
from gmcalc.contour import (
    FlatTestFunction,
    chamber_below,
    lemma_shift_check,
    pv_integral,
    residue_identity_1d,
    shifted_integral,
)
from gmcalc.gmfamily import (
    ExpPolyFamily,
    ScalarRootFns,
    family_limit,
    hull_volume,
    induced_family_value,
    orthogonal_set,
    scalar_fn_from_template,
    split_terms,
    _lam_evaluator,
)
from gmcalc.levilattice import (
    base_chamber,
    enumerate_levis,
    gfull,
    levi_lattice,
    mzero,
    parabolics,
)
from gmcalc.rootdatum import RatVec, build_root_system, weyl_group
from gmcalc.spectral import (
    build_spectral_triple,
    chamber_transitivity,
    classify_tau,
    discrete_constants,
    enumerate_spectral_triples,
    tau_class,
    tempext_check,
)
from gmcalc.suites import _battery, _dominant_samples

HULL_GROUPS = ("A1", "A2", "B2", "A1xA1", "A3")
RANK3_GROUPS = (
    "A1", "A2", "A3", "B2", "C2", "G2",
    "A1xA1", "A1xA2", "A1xB2", "A1xC2", "A1xG2", "A1xA1xA1",
)
RANK2_GROUPS = ("A1", "A2", "B2", "C2", "G2", "A1xA1")
BATTERY = _battery(load_config())  # the configured default test functions


def report(num, name, ok, note=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name} {note}")
    assert ok, f"criterion {num} ({name}) failed: {note}"


def test_criterion_1_hull_equals_limit():
    t0 = time.monotonic()
    checked = 0
    for label in HULL_GROUPS:
        d = build_root_system(label)
        samples = _dominant_samples(d, 25, 20260810)
        for M in levi_lattice(d):
            for T in samples:
                oset = orthogonal_set(M, T)
                hv = hull_volume(oset)
                fl = family_limit(ExpPolyFamily.from_orthogonal_set(oset))
                assert hv == fl, (label, M.label, [str(x) for x in T.coords])
                checked += 1
    elapsed = time.monotonic() - t0
    report(1, "hull volume equals family limit (exact)", elapsed < 60,
           f"{checked} checks in {elapsed:.1f}s (< 60s)")


def test_criterion_2_trand_exact():
    from gmcalc.levilattice import trand_check

    t0 = time.monotonic()
    total, failures = 0, 0
    for label in HULL_GROUPS:
        d = build_root_system(label)
        oks = [ok for *_, ok in trand_check(d)]
        total += len(oks)
        failures += oks.count(False)
    elapsed = time.monotonic() - t0
    report(2, "splitting-constant composition identity (exact)",
           failures == 0 and elapsed < 30,
           f"{total} chains, {failures} failures, {elapsed:.1f}s (< 30s)")


def test_criterion_3_tdisc_exhaustive():
    t0 = time.monotonic()
    triples = 0
    for label in RANK3_GROUPS:
        d = build_root_system(label)
        for triple in enumerate_spectral_triples(d):
            t = tau_class(triple)
            classify_tau(t)  # raises InternalInconsistency if span != coset search
            assert chamber_transitivity(t), (label, triple)
            triples += 1
    elapsed = time.monotonic() - t0
    report(3, "discreteness criterion and chamber transitivity (exhaustive rank <= 3)",
           elapsed < 60, f"{triples} triples in {elapsed:.1f}s (< 60s)")


def test_criterion_4_nl_well_defined(nl_elementary):
    checked = routed = 0
    for label in RANK3_GROUPS:
        d = build_root_system(label)
        for triple in enumerate_spectral_triples(d):
            t = tau_class(triple)
            for L in enumerate_levis(d, lower=t.levi_L):
                nl = discrete_constants(t, L)["nL"]
                if L == t.levi_L:
                    assert nl == 1, (label, triple)
                # any two distinct rays are independent, so both routes hold up to need 2
                if t.levi_L.dim - L.dim <= 2:
                    assert nl == nl_elementary(t, L), (label, triple, L.label)
                    routed += 1
                checked += 1
    report(4, "basis-sum constant: home value 1, e_need of n_beta/2 where need <= 2",
           True, f"{checked} (triple, Levi) pairs, {routed} by both routes")


def test_criterion_5_residue_identity_1d():
    worst = 0.0
    for n in (Fraction(1, 2), Fraction(1), Fraction(2)):
        pole = scalar_fn_from_template({"kind": "pole"}, n)
        for phi in BATTERY:
            rec = residue_identity_1d(pole, phi, 0.05, tol=1e-6)
            assert rec["pass"], rec
            worst = max(worst, rec["residual"])
        even = BATTERY[0]
        pv, _ = pv_integral(pole, even)
        lhs = shifted_integral(pole, even, 0.05)
        assert abs(pv) <= 1e-8
        assert abs(lhs - float(n) / 2 * complex(even(0.0))) <= 1e-6
    report(5, "one-dimensional residue identity (battery, n in {1/2,1,2})",
           worst <= 1e-6, f"worst residual {worst:.2e} (<= 1e-6)")


def _full_class(d):
    return tau_class(build_spectral_triple(d, range(len(d.roots)), []))


def test_criterion_6_lemma_shift_rank_le_2():
    t0 = time.monotonic()
    worst = 0.0
    ran = 0
    for label in ("A1", "A1xA1"):
        d = build_root_system(label)
        t = _full_class(d)
        for template in ({"kind": "model_plancherel", "c": "1"},
                         {"kind": "model_plancherel", "c": "4"}):
            fns = ScalarRootFns.uniform(t.levi_L, template, t.nbeta)
            for M in enumerate_levis(d, lower=t.levi_L):
                if M.dim == 0:
                    continue
                P = parabolics(M)[0]
                phi = FlatTestFunction(
                    1.0, 0.0, 0.0, 1.0,
                    tuple(float(x) for x in chamber_below(P, t.levi_L).chamber_point.coords),
                )
                rec = lemma_shift_check(t, fns, M, P, phi, epsilons=(0.05, 0.1), tol=1e-4)
                assert rec["pass"], (label, M.label, rec["residuals"])
                worst = max(worst, max(rec["residuals"]))
                ran += 1
    elapsed = time.monotonic() - t0
    report(6, "contour-shift identity (A1 and A1xA1, m- and r-models, two shifts)",
           worst <= 1e-4 and elapsed < 120,
           f"{ran} instances, worst residual {worst:.2e}, {elapsed:.1f}s (< 120s)")


def test_criterion_7_tempext_bounded():
    worst_exp = float("-inf")
    for label in RANK2_GROUPS:
        d = build_root_system(label)
        seen = set()
        for triple in enumerate_spectral_triples(d):
            t = tau_class(triple)
            if t.levi_L.dim == 0:
                continue
            key = (t.levi_L.key, tuple(sorted(t.nbeta.items())))
            if key in seen:
                continue
            seen.add(key)
            fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
            recs = tempext_check(t, fns, [lambda lam: 1.0, lambda lam: 1.0 + sum(x * x for x in lam)])
            for rec in recs:
                assert rec["pass"], (label, rec)
                if rec["exponent"] != float("-inf"):
                    worst_exp = max(worst_exp, rec["exponent"])
    # the exact-cancellation case on A1 returns 0 up to 1e-10
    d = build_root_system("A1")
    t = _full_class(d)
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "pole"}, t.nbeta)
    recs = tempext_check(t, fns, [lambda lam: 1.0])
    assert recs and all(max(r["maxima"]) <= 1e-10 for r in recs)
    report(7, "symmetrized sums bounded near pole walls (rank <= 2)",
           worst_exp < 0.5, f"worst growth exponent {worst_exp:.3f} (< 1/2)")


def test_criterion_8_split_formula_dual_route():
    d = build_root_system("A2")
    M0, G = mzero(d), gfull(d)
    P = base_chamber(d)
    t = _full_class(d)
    worst = 0.0
    for template in ({"kind": "pole"}, {"kind": "model_plancherel", "c": "1"}):
        fns = ScalarRootFns.uniform(t.levi_L, template, t.nbeta)
        lam0 = [0.31j, 0.17j]
        comb = split_terms(fns, M0, G, P, _lam_evaluator(d, lam0))
        ana = induced_family_value(fns, P, lam0, P.chamber_point)
        worst = max(worst, abs(comb - ana))
    report(8, "splitting formula matches the induced-family limit (A2)",
           worst <= 1e-8, f"worst deviation {worst:.2e} (<= 1e-8)")


def test_criterion_9_example_formulas():
    d = build_root_system("A2")
    M0, G = mzero(d), gfull(d)
    P0 = base_chamber(d)
    t = _full_class(d)
    fns = ScalarRootFns.uniform(t.levi_L, {"kind": "model_plancherel", "c": "1"}, t.nbeta)
    model = SigmaModel(t, fns, RatVec([Fraction(1, 3), Fraction(2, 3)]),
                       RatVec([Fraction(5, 7), Fraction(2, 7)]))
    u = 1j
    w_id = weyl_group(d)[0]
    got = c_coefficient_example(model, w_id, P0, u, M0, M0)
    direct = u * model.m_rel(M0, G, P0)
    ok_c = got == direct
    ok_mult = multiplier_alpha(M0, RatVec.zero(2), RatVec.zero(2)) == 1
    import random

    rng = random.Random(99)
    ok_bound = True
    for _ in range(100):
        nu = RatVec([Fraction(rng.randint(-15, 15), rng.randint(1, 7)) for _ in range(2)])
        X = RatVec([Fraction(rng.randint(-15, 15), rng.randint(1, 7)) for _ in range(2)])
        if abs(multiplier_alpha(G, nu, X)) > 1 + 1e-12:
            ok_bound = False
    maxes = [L for L in levi_lattice(d) if L.dim == 1]
    P_max = parabolics(maxes[0])[0]
    ok_zero = assemble_PhiP({}, G, G, model, P_max) == 0
    report(9, "example formulas (coefficient identity case, multiplier bounds, empty assembly)",
           ok_c and ok_mult and ok_bound and ok_zero,
           f"identity-case exact: {ok_c}")


def test_criterion_10_byte_identical_reports(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli_main(["verify", "--group", "A2", "--suite", "all", "--out", str(out)])
        assert code == 0
        outs.append((out / "report-A2.json").read_bytes())
    ok = outs[0] == outs[1]
    data = json.loads(outs[0])
    report(10, "consecutive full verify runs produce byte-identical reports",
           ok, f"{data['summary']}")
