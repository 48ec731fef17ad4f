"""Verification suites: each one turns a configured group into check records."""
from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from .asymptotic import (
    SigmaModel,
    assemble_PhiP,
    c_coefficient_example,
    eps_M_sign,
    multiplier_alpha,
    phi_TT_expansion,
    weyl_denominator,
)
from .config import Config
from .contour import (
    FlatTestFunction,
    MeromorphicLine,
    TestFunction,
    chamber_below,
    from_scalar_fn,
    lemma_shift_check,
    pv_integral,
    residue_identity_1d,
    shifted_integral,
)
from .errors import GmcalcError, NotComparable
from .gmfamily import (
    ExpPolyFamily,
    family_limit,
    hull_volume,
    orthogonal_set,
    scalar_fn_from_template,
    split_terms,
    _lam_evaluator,
    induced_family_value,
)
from .levilattice import (
    base_chamber,
    d_constant,
    enumerate_levis,
    gfull,
    levi_lattice,
    mzero,
    parabolics,
    theta,
    trand_check,
)
from .report import CheckRecord, digest
from .rootdatum import RatVec, RootDatum, build_root_system, weyl_group
from .spectral import (
    build_spectral_triple,
    chamber_transitivity,
    classify_tau,
    density_for,
    discrete_constants,
    enumerate_spectral_triples,
    reflections_in_core,
    tau_class,
    tempext_check,
)

ANCHORS = {
    "hull-limit": "hull volume equals chamber-family limit",
    "trand": "splitting-constant composition identity",
    "tdisc-classify": "discreteness: span criterion equals coset search",
    "tdisc-transitivity": "stabilizer acts transitively on pole-ray chambers",
    "tdisc-reflections": "pole-ray reflections lie in the modeled stabilizer",
    "nL-independence": "basis-sum constant is chamber independent",
    "nL-home": "basis-sum constant is 1 at the home Levi",
    "residue-1d": "one-dimensional contour-shift residue identity",
    "pv-even-zero": "principal value of the pure pole against even data vanishes",
    "lemma-shift": "contour-shift identity with splitting constants",
    "tempext": "symmetrized sums stay bounded near pole walls",
    "examples": "closed-form example evaluations",
}


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


def _record(check_id, anchor_key, inputs, ok, residual=None, detail=None, runtime=None, skip=False):
    return CheckRecord(
        id=check_id,
        anchor=ANCHORS[anchor_key],
        inputs=digest(inputs),
        status="skip" if skip else ("pass" if ok else "fail"),
        residual=residual,
        detail=detail,
        runtime=runtime,
    )


def _dominant_samples(d: RootDatum, count: int, seed: int) -> list[RatVec]:
    rng = random.Random(seed)
    out = []
    for k in range(count):
        coeffs = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(d.rank)]
        if k % 7 == 3:
            coeffs[rng.randrange(d.rank)] = Fraction(0)  # keep some degenerate hulls
        T = RatVec.zero(d.rank)
        for c, w in zip(coeffs, d.fund_coweights):
            T = T + c * w
        out.append(T)
    return out


def suite_hull_limit(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    records = []
    samples = _dominant_samples(d, cfg.hull_samples, cfg.seed)
    for M in levi_lattice(d):
        for k, T in enumerate(samples):
            inputs = {"group": d.label, "M": M.label, "T": [str(x) for x in T.coords]}

            def check():
                oset = orthogonal_set(M, T)
                oset.validate()
                fam = ExpPolyFamily.from_orthogonal_set(oset)
                return hull_volume(oset), family_limit(fam)

            try:
                (hv, fl), rt = _timed(check)
                ok = hv == fl
                residual = abs(float(hv) - float(fl))
                detail = None if ok else f"hull {hv!r} vs limit {fl!r}"
            except GmcalcError as exc:
                ok, residual, detail, rt = False, None, str(exc), None
            records.append(
                _record(f"hull-limit/{d.label}/{M.label}/t{k:02d}", "hull-limit", inputs, ok, residual, detail, rt)
            )
    return records


def suite_trand(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    (recs, rt) = _timed(lambda: trand_check(d))
    out = []
    for k, r in enumerate(recs):
        chain = "-".join(r["chain"])
        out.append(
            _record(
                f"trand/{d.label}/{k:04d}/{chain}",
                "trand",
                {"chain": r["chain"]},
                r["pass"],
                0.0 if r["pass"] else None,
                f"lhs_sq={r['lhs_sq']} rhs_sq={r['rhs_sq']}",
                rt if k == 0 else None,
            )
        )
    return out


def suite_tdisc(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    records = []
    for idx, triple in enumerate(enumerate_spectral_triples(d)):
        inputs = {
            "group": d.label,
            "sigma": sorted(triple.sigma_roots),
            "r": triple.r_elem.word,
        }

        def check():
            t = tau_class(triple)
            res = classify_tau(t)
            return t, res

        try:
            (t, res), rt = _timed(check)
            records.append(
                _record(f"tdisc/{d.label}/classify/{idx:03d}", "tdisc-classify", inputs, True, 0.0, None, rt)
            )
            ok_t = chamber_transitivity(t)
            records.append(
                _record(f"tdisc/{d.label}/transitivity/{idx:03d}", "tdisc-transitivity", inputs, ok_t)
            )
            ok_r = reflections_in_core(t)
            records.append(
                _record(f"tdisc/{d.label}/reflections/{idx:03d}", "tdisc-reflections", inputs, ok_r)
            )
        except GmcalcError as exc:
            records.append(
                _record(f"tdisc/{d.label}/classify/{idx:03d}", "tdisc-classify", inputs, False, None, str(exc))
            )
    return records


def suite_nl_independence(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    records = []
    for idx, triple in enumerate(enumerate_spectral_triples(d)):
        inputs = {"group": d.label, "sigma": sorted(triple.sigma_roots), "r": triple.r_elem.word}
        try:
            t = tau_class(triple)
            for L in enumerate_levis(d, lower=t.levi_L):
                res = discrete_constants(t, L)  # raises InternalInconsistency on Q-dependence
                if L == t.levi_L and res["nL"] != 1:
                    records.append(
                        _record(
                            f"nL/{d.label}/{idx:03d}/{L.label}", "nL-home", inputs, False,
                            float(res["nL"]), "home value is not 1",
                        )
                    )
                    break
            else:
                records.append(_record(f"nL/{d.label}/{idx:03d}", "nL-independence", inputs, True, 0.0))
        except GmcalcError as exc:
            records.append(_record(f"nL/{d.label}/{idx:03d}", "nL-independence", inputs, False, None, str(exc)))
    return records


def _battery(cfg: Config) -> list[TestFunction]:
    return [
        TestFunction(tuple(Fraction(str(c)) for c in tf["poly"]), Fraction(str(tf["scale"])))
        for tf in cfg.test_functions
    ]


def suite_residue_1d(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    records = []
    battery = _battery(cfg)
    tol = float(cfg.tolerances["residue_1d"])
    pv_tol = float(cfg.tolerances["pv_zero"])
    for n in (Fraction(1, 2), Fraction(1), Fraction(2)):
        pure = MeromorphicLine(
            lambda z: np.zeros_like(z, dtype=complex) if not np.isscalar(z) else 0j,
            ((0.0, complex(-n)),),
            f"pole(-{n}/z)",
        )
        model = from_scalar_fn(scalar_fn_from_template(cfg.m_model, n))
        for kind, line in (("pole", pure), ("model", model)):
            for j, phi in enumerate(battery):
                inputs = {"n": str(n), "kind": kind, "phi": phi.describe()}

                def check():
                    return residue_identity_1d(line, phi, cfg.epsilons[0], n, cfg.delta_ladder, tol)

                try:
                    rec, rt = _timed(check)
                    records.append(
                        _record(
                            f"residue-1d/n{n.numerator}_{n.denominator}/{kind}/phi{j}",
                            "residue-1d", inputs, rec["pass"], rec["residual"], None, rt,
                        )
                    )
                except GmcalcError as exc:
                    records.append(
                        _record(
                            f"residue-1d/n{n.numerator}_{n.denominator}/{kind}/phi{j}",
                            "residue-1d", inputs, False, None, str(exc),
                        )
                    )
        # even test data against the pure pole: principal value must vanish
        even_phi = battery[0]
        try:
            pv, _ = pv_integral(pure, even_phi, cfg.delta_ladder, tol)
            lhs = shifted_integral(pure, even_phi, cfg.epsilons[0])
            ok = abs(pv) <= pv_tol and abs(lhs - float(n) / 2 * complex(even_phi(0.0))) <= tol
            records.append(
                _record(
                    f"residue-1d/n{n.numerator}_{n.denominator}/even-zero",
                    "pv-even-zero", {"n": str(n)}, ok, abs(pv),
                )
            )
        except GmcalcError as exc:
            records.append(
                _record(
                    f"residue-1d/n{n.numerator}_{n.denominator}/even-zero",
                    "pv-even-zero", {"n": str(n)}, False, None, str(exc),
                )
            )
    return records


def _shift_classes(d: RootDatum):
    seen = set()
    out = []
    for triple in enumerate_spectral_triples(d):
        t = tau_class(triple)
        if t.levi_L.dim == 0 or t.levi_L.dim > 2:
            continue
        key = (t.levi_L.key, tuple(sorted(t.nbeta_map().items())))
        if key in seen:
            continue
        seen.add(key)
        out.append(t)
    return out


def suite_lemma_shift(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    records = []
    tol = float(cfg.tolerances["lemma_shift"])
    phi_cfg = cfg.flat_phi[0]
    for ci, t in enumerate(_shift_classes(d)):
        for M in enumerate_levis(d, lower=t.levi_L):
            if M.dim == 0:
                continue
            P = parabolics(M)[0]
            phi = FlatTestFunction(
                float(phi_cfg["c0"]), float(phi_cfg["c1"]), float(phi_cfg["c2"]),
                float(phi_cfg["scale"]),
                tuple(float(x) for x in chamber_below(P, t.levi_L).chamber_point.coords),
            )
            for model_name, template in (("m", cfg.m_model), ("r", cfg.r_model)):
                cid = f"lemma-shift/{d.label}/c{ci:02d}/{M.label}/{model_name}"
                inputs = {
                    "group": d.label,
                    "home": t.levi_L.label,
                    "n": {str(k): str(v) for k, v in sorted(t.nbeta_map().items())},
                    "M": M.label,
                    "model": model_name,
                }
                try:
                    fns = density_for(t, template)

                    def check():
                        return lemma_shift_check(
                            t, fns, M, P, phi, cfg.epsilons, cfg.delta_ladder, tol
                        )

                    rec, rt = _timed(check)
                    records.append(
                        _record(cid, "lemma-shift", inputs, rec["pass"], max(rec["residuals"]), None, rt)
                    )
                except NotComparable as exc:
                    records.append(_record(cid, "lemma-shift", inputs, True, None, str(exc), skip=True))
                except GmcalcError as exc:
                    records.append(_record(cid, "lemma-shift", inputs, False, None, str(exc)))
    return records


def suite_tempext(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    records = []
    phis = [lambda lam: 1.0, lambda lam: 1.0 + sum(x * x for x in lam)]
    for ci, t in enumerate(_shift_classes(d)):
        inputs = {
            "group": d.label,
            "home": t.levi_L.label,
            "n": {str(k): str(v) for k, v in sorted(t.nbeta_map().items())},
        }
        try:
            fns = density_for(t, cfg.m_model)

            def check():
                return tempext_check(t, fns, phis, cfg.tempext_deltas, cfg.growth_threshold)

            recs, rt = _timed(check)
            bad = [r for r in recs if not r["pass"]]
            worst = max((r["exponent"] for r in recs), default=float("-inf"))
            records.append(
                _record(
                    f"tempext/{d.label}/c{ci:02d}", "tempext", inputs, not bad,
                    worst if worst != float("-inf") else 0.0,
                    None if not bad else f"{len(bad)} walls grew too fast", rt,
                )
            )
        except GmcalcError as exc:
            records.append(_record(f"tempext/{d.label}/c{ci:02d}", "tempext", inputs, False, None, str(exc)))
    return records



def _generic_offset(d: RootDatum) -> RatVec:
    """Deterministic spectral offset off every pole wall: a chamber interior point."""
    pt = base_chamber(d).chamber_point
    return RatVec.of([Fraction(x) * Fraction(1, 7) for x in pt.coords])

def suite_examples(cfg: Config, d: RootDatum) -> list[CheckRecord]:
    records = []
    M0, G = mzero(d), gfull(d)
    P0 = base_chamber(d)

    def add(name, fn, inputs):
        try:
            (ok, residual, detail), rt = _timed(fn)
            records.append(_record(f"examples/{d.label}/{name}", "examples", inputs, ok, residual, detail, rt))
        except GmcalcError as exc:
            records.append(_record(f"examples/{d.label}/{name}", "examples", inputs, False, None, str(exc)))

    def theta_zero():
        if M0.dim == 0:
            return True, 0.0, None
        val = theta(P0, RatVec.zero(d.rank))
        return val.product == 0, float(abs(val.product)), None

    add("theta-zero", theta_zero, {"lambda": "0"})

    def d_trivial():
        got = d_constant(M0, M0, G)
        return float(got) == 1.0, abs(float(got) - 1.0), None

    add("d-trivial", d_trivial, {"chain": (M0.label, M0.label, G.label)})

    def multiplier():
        one = multiplier_alpha(M0, RatVec.zero(d.rank), RatVec.zero(d.rank))
        rng = random.Random(cfg.seed)
        worst = 0.0
        for _ in range(100):
            nu = RatVec.of([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
            X = RatVec.of([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
            worst = max(worst, abs(multiplier_alpha(G, nu, X)) - 1.0)
        ok = one == 1 and worst <= 1e-12
        return ok, max(worst, abs(one - 1)), None

    add("multiplier-bound", multiplier, {"samples": 100})

    def weyl_denom():
        sigma = list(d.pos_indices)
        Y = [complex(0.23, 0.11 * (k + 1)) for k in range(d.rank)]
        base = weyl_denominator(d, sigma, Y)
        worst = 0.0
        for w in weyl_group(d):
            wsigma = [w.perm[i] for i in sigma]
            lhs = weyl_denominator(d, wsigma, Y)
            worst = max(worst, abs(lhs - eps_M_sign(d, w, sigma) * base))
        return worst <= 1e-9 * max(1.0, abs(base)), worst, None

    add("weyl-denominator-antisymmetry", weyl_denom, {"Y": "fixed sample"})

    def c_coeff_case():
        t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
        fns = density_for(t, cfg.m_model)
        model = SigmaModel(
            t, fns,
            RatVec.of([Fraction(k + 1, 3) for k in range(d.rank)]),
            _generic_offset(d),
        )
        u = 1j
        w_id = weyl_group(d)[0]
        got = c_coefficient_example(model, w_id, model.mu_im, P0, u, M0, M0)
        direct = u * model.m_rel(M0, G, P0, conj=True)
        residual = abs(got - direct)
        return residual <= 1e-12, residual, None

    add("c-coefficient-identity-case", c_coeff_case, {"w": "identity", "L": M0.label})

    def assemble_zero():
        t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
        fns = density_for(t, cfg.m_model)
        model = SigmaModel(t, fns, RatVec.zero(d.rank), _generic_offset(d))
        maxes = [L for L in levi_lattice(d) if 0 < L.dim < d.rank]
        if not maxes:
            return True, 0.0, "no proper intermediate Levi"
        P = parabolics(maxes[0])[0]
        got = assemble_PhiP({}, G, G, model, P)
        return got == 0, abs(got), None

    add("assemble-empty-filter", assemble_zero, {"L1": G.label})

    def split_match():
        if d.label != "A2":
            return True, 0.0, "dual-route check runs on A2"
        t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
        worst = 0.0
        for template in ({"kind": "pole"}, cfg.m_model):
            fns = density_for(t, template)
            lam0 = [0.31j, 0.17j]
            comb = split_terms(fns, M0, G, P0, _lam_evaluator(d, lam0))
            ana = induced_family_value(fns, P0, lam0, P0.chamber_point)
            worst = max(worst, abs(comb - ana))
        return worst <= float(cfg.tolerances["split_match"]), worst, None

    add("split-formula-dual-route", split_match, {"templates": ["pole", "m_model"]})

    def phi_tt_terms():
        if M0.dim != d.rank or d.rank > 2:
            return True, 0.0, "expansion recorded for rank <= 2 groups"
        import json as _json

        from .asymptotic import phi_TT_expansion
        from .spectral import density_for as _density

        t = tau_class(build_spectral_triple(d, range(len(d.roots)), []))
        fns = _density(t, cfg.m_model)
        mu = RatVec.zero(d.rank)
        for k, cw in enumerate(d.fund_coweights):
            mu = mu + Fraction(k + 1) * cw  # distinct coefficients keep the orbit regular
        model = SigmaModel(t, fns, mu, _generic_offset(d))
        exp = phi_TT_expansion(model, P0)
        expected = len(levi_lattice(d)) * len(weyl_group(d))
        ok = len(exp.terms) == expected
        return ok, float(len(exp.terms) - expected), _json.dumps(exp.serialize(), sort_keys=True)

    add("formal-expansion-terms", phi_tt_terms, {"chamber": P0.index})

    return records


SUITE_FUNCS = {
    "hull-limit": suite_hull_limit,
    "trand": suite_trand,
    "tdisc": suite_tdisc,
    "nL-independence": suite_nl_independence,
    "residue-1d": suite_residue_1d,
    "lemma-shift": suite_lemma_shift,
    "tempext": suite_tempext,
    "examples": suite_examples,
}


def run_suites(cfg: Config):
    from .report import VerificationReport

    d = build_root_system(cfg.group, cfg.gram)
    gram_strings = [[str(x) for x in row] for row in d.gram]
    report = VerificationReport(
        group=cfg.group,
        gram=gram_strings,
        config_digest=digest(cfg.raw),
        numerics={
            "epsilons": cfg.epsilons,
            "delta_ladder": cfg.delta_ladder,
            "tempext_deltas": cfg.tempext_deltas,
            "truncation": "|Im z| <= 8/sqrt(scale), tail below 1e-12",
        },
    )
    for suite in cfg.resolved_suites():
        report.extend(SUITE_FUNCS[suite](cfg, d))
    return report
