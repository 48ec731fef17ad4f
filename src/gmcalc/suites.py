"""Verification suites: each one yields the checks of a configured group, and ``_records`` makes their records."""
from __future__ import annotations

import functools
import importlib
import json
import random
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

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
from .errors import BadShift, GmcalcError, NotComparable
from .gmfamily import (
    ExpPolyFamily,
    ScalarRootFns,
    family_limit,
    hull_volume,
    orthogonal_set,
    scalar_fn_from_template,
    split_terms,
    _lam_evaluator,
    induced_family_value,
)
from .levilattice import (
    Levi,
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
from .report import CheckRecord, SuiteRecords, VerificationReport, digest
from .rootdatum import RatVec, RootDatum, build_root_system, weyl_group
from .spectral import (
    TauClass,
    build_spectral_triple,
    chamber_transitivity,
    classify_tau,
    enumerate_spectral_triples,
    n_constant,
    nl_elementary,
    reflections_in_core,
    tempext_check,
)

if TYPE_CHECKING:
    # the float layer (and numpy) loads only inside the suites that run it
    from .contour import ShiftCase, TestFunction

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


def _records(suite):
    """The one maker of check records, around a suite that yields its checks.

    suite(cfg, d) yields (id, anchor key, inputs, outcome) or, from the
    grid-major lemma-shift batch, (id, anchor key, inputs, outcome, seconds
    charged).  An outcome is (ok, residual, detail), ok None for a skip, or
    the GmcalcError the check raised: that fails the record with its message,
    and a NotComparable skips it.  A record's runtime is the seconds charged,
    else the time the suite took to yield it.  The counters the suite returns
    go to the sidecar.
    """

    @functools.wraps(suite)
    def run(cfg: Config, d: RootDatum) -> SuiteRecords:
        records = SuiteRecords()
        items = suite(cfg, d)
        while True:
            t0 = time.monotonic()
            try:
                check_id, anchor_key, inputs, outcome, *charged = next(items)
            except StopIteration as end:
                records.counters.update(end.value or {})
                return records
            rt = charged[0] if charged else time.monotonic() - t0
            if isinstance(outcome, GmcalcError):
                outcome = None if isinstance(outcome, NotComparable) else False, None, str(outcome)
            ok, residual, detail = outcome
            status = "skip" if ok is None else "pass" if ok else "fail"
            records.append(CheckRecord(check_id, ANCHORS[anchor_key], digest(inputs), status, residual, detail, rt))

    return run


def _attempt(check, *args):
    """check(*args), an outcome, or the GmcalcError it raised."""
    try:
        return check(*args)
    except GmcalcError as exc:
        return exc


def _dominant_samples(d: RootDatum, count: int, seed: int) -> list[RatVec]:
    rng = random.Random(seed)
    out = []
    for k in range(count):
        coeffs = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(d.rank)]
        if k % 7 == 3:
            coeffs[rng.randrange(d.rank)] = Fraction(0)  # keep some degenerate hulls
        out.append(sum((c * w for c, w in zip(coeffs, d.fund_coweights)), RatVec.zero(d.rank)))
    return out


def _indexed(items, least: int, count: int | None = None):
    """Each item with its index padded to the digits of the last index, and to least, so ids sort as generated."""
    width = max(least, len(str((len(items) if count is None else count) - 1)))
    return ((f"{k:0{width}d}", x) for k, x in enumerate(items))


def _hull_limit(M: Levi, T: RatVec):
    """The outcome of one record, and whether it passed with both sides zero."""
    oset = orthogonal_set(M, T)
    hv = hull_volume(oset)  # rejects a set that validate() rejects
    fl = family_limit(ExpPolyFamily.from_orthogonal_set(oset))
    if hv == fl:  # equal values have equal floats, so a pass needs no float: its residual is 0.0
        return (True, 0.0, None), hv.is_zero()
    return (False, abs(float(hv) - float(fl)), f"hull {hv!r} vs limit {fl!r}"), False


@_records
def suite_hull_limit(cfg: Config, d: RootDatum):
    samples = [(k, T, [str(x) for x in T.coords]) for k, T in _indexed(_dominant_samples(d, cfg.hull_samples, cfg.seed), 2)]
    zero_passes = 0
    for M in levi_lattice(d):
        for k, T, t_strs in samples:
            inputs = {"group": d.label, "M": M.label, "T": t_strs}
            outcome = _attempt(_hull_limit, M, T)
            if not isinstance(outcome, GmcalcError):
                outcome, zero = outcome
                zero_passes += zero
            yield f"hull-limit/{d.label}/{M.label}/t{k}", "hull-limit", inputs, outcome
    return {"hull_limit.zero_passes": zero_passes}


@_records
def suite_trand(cfg: Config, d: RootDatum):
    ups = {L: enumerate_levis(d, lower=L) for L in levi_lattice(d)}  # trand_check's chains (M1, M, S1, G1), counted
    count = sum(len(ups[m1]) * sum(len(ups[s1]) for s1 in ups[m1]) for m1 in ups)
    for k, (chain, lhs, rhs, ok) in _indexed(trand_check(d), 4, count):
        outcome = ok, 0.0 if ok else None, f"lhs_sq={lhs.square} rhs_sq={rhs.square}"
        yield f"trand/{d.label}/{k}/{'-'.join(chain)}", "trand", {"chain": chain}, outcome


@_records
def suite_tdisc(cfg: Config, d: RootDatum):
    for idx, t in _indexed(enumerate_spectral_triples(d), 3):
        inputs = {"group": d.label, "sigma": sorted(t.sigma_roots), "r": t.r_elem.word}
        classified = _attempt(classify_tau, t)
        ok = not isinstance(classified, GmcalcError)
        yield f"tdisc/{d.label}/classify/{idx}", "tdisc-classify", inputs, (True, 0.0, None) if ok else classified
        if ok:
            yield (f"tdisc/{d.label}/transitivity/{idx}", "tdisc-transitivity", inputs,
                   _attempt(lambda: (chamber_transitivity(t), None, None)))
            yield (f"tdisc/{d.label}/reflections/{idx}", "tdisc-reflections", inputs,
                   _attempt(lambda: (reflections_in_core(t), None, None)))


def _nl_routes(t: TauClass):
    for L in enumerate_levis(t.datum, lower=t.levi_L):
        nl = n_constant(t, L)
        # two distinct rays are independent, so the routes must agree up to need 2
        e = nl_elementary(t, L) if t.levi_L.dim - L.dim <= 2 else nl
        if nl != e:
            return False, abs(float(nl - e)), f"n^{L.label} = {nl} but e_need of n_beta/2 is {e}"
    return True, 0.0, None


@_records
def suite_nl_independence(cfg: Config, d: RootDatum):
    for idx, t in _indexed(enumerate_spectral_triples(d), 3):
        inputs = {"group": d.label, "sigma": sorted(t.sigma_roots), "r": t.r_elem.word}
        cid = f"nL/{d.label}/{idx}"
        home = _attempt(n_constant, t, t.levi_L)  # the home is the first Levi _nl_routes visits
        if isinstance(home, GmcalcError) or home == 1:
            yield cid, "nL-independence", inputs, _attempt(_nl_routes, t)
        else:
            yield f"{cid}/{t.levi_L.label}", "nL-home", inputs, (False, float(home), "home value is not 1")


def _battery(cfg: Config) -> list[TestFunction]:
    from .contour import TestFunction

    return [
        TestFunction(tuple(Fraction(str(c)) for c in tf["poly"]), Fraction(str(tf["scale"])))
        for tf in cfg.test_functions
    ]


def _residue_1d(cfg: Config, line, phi: TestFunction, tol: float, nodes) -> dict:
    from .contour import residue_identity_1d

    return residue_identity_1d(line, phi, cfg.epsilons[0], cfg.delta_ladder, tol, nodes)


def _even_zero(cfg: Config, rec: dict, even_phi: TestFunction, n: Fraction, tol: float):
    """Even test data against the pure pole: the principal value must vanish.  rec is the pure pole's
    residue-1d record of even_phi, whose principal value and shifted integral this reads."""
    pv, lhs = complex(*rec["pv"]), complex(*rec["lhs"])
    ok = abs(pv) <= float(cfg.tolerances["pv_zero"]) and abs(lhs - float(n) / 2 * complex(even_phi(0.0))) <= tol
    return ok, abs(pv), None


@_records
def suite_residue_1d(cfg: Config, d: RootDatum):
    from .contour import LineNodes

    battery = _battery(cfg)
    even = next((j for j, phi in enumerate(battery) if not any(phi.coeffs[1::2])), None)
    tol = float(cfg.tolerances["residue_1d"])
    nodes = LineNodes()  # each node set, test function and density evaluated once in the suite
    for n in (Fraction(1, 2), Fraction(1), Fraction(2)):
        pure = scalar_fn_from_template({"kind": "pole"}, n)
        model = scalar_fn_from_template(cfg.m_model, n)
        if model.real_pole_between(-Fraction(cfg.epsilons[0])):  # as in lemma-shift, a bad config: the run ends
            raise BadShift(f"epsilons[0] must keep the residue-1d line Re z = {-cfg.epsilons[0]:.6g} off the real"
                           f" poles of the densities: it reaches a pole of {model.label}")
        even_rec = None
        for kind, line in (("pole", pure), ("model", model)):
            for j, phi in enumerate(battery):
                inputs = {"n": str(n), "kind": kind, "phi": phi.describe()}
                rec = _attempt(_residue_1d, cfg, line, phi, tol, nodes)
                if kind == "pole" and j == even:
                    even_rec = rec  # the pure pole's record of the even function holds the even-zero integrals
                yield (f"residue-1d/n{n.numerator}_{n.denominator}/{kind}/phi{j}", "residue-1d", inputs,
                       rec if isinstance(rec, GmcalcError) else (rec["pass"], rec["residual"], None))
        if even_rec is None:
            outcome = None, None, "no even test function in the battery"
        elif isinstance(even_rec, GmcalcError):
            outcome = even_rec
        else:
            outcome = _even_zero(cfg, even_rec, battery[even], n, tol)
        yield f"residue-1d/n{n.numerator}_{n.denominator}/even-zero", "pv-even-zero", {"n": str(n)}, outcome


def _n_inputs(t: TauClass) -> dict[str, str]:
    """A class's n_beta as record inputs, each ray key written as a ``Fraction`` tuple: the form on which
    the record input digests, and so the reports, are pinned."""
    return {str(tuple(map(Fraction, k))): str(v) for k, v in sorted(t.nbeta.items())}


def _shift_classes(d: RootDatum):
    seen = set()
    out = []
    for t in enumerate_spectral_triples(d):
        if t.levi_L.dim == 0 or t.levi_L.dim > 2:
            continue
        key = (t.levi_L.key, tuple(sorted(t.nbeta.items())))
        if key in seen:
            continue
        seen.add(key)
        out.append(t)
    return out


def _lemma_shift_cases(cfg: Config, d: RootDatum) -> list[tuple[str, dict, ShiftCase]]:
    """(record id, inputs, case) per check."""
    from .contour import FlatTestFunction, ShiftCase, chamber_below

    tol = float(cfg.tolerances["lemma_shift"])
    phi_cfg = cfg.flat_phi[0]
    out = []
    for ci, t in _indexed(_shift_classes(d), 2):
        models = [(name, ScalarRootFns.uniform(t.levi_L, template, t.nbeta))
                  for name, template in (("m", cfg.m_model), ("r", cfg.r_model))]
        for M in enumerate_levis(d, lower=t.levi_L):
            if M.dim == 0:
                continue
            P = parabolics(M)[0]
            phi = FlatTestFunction(
                float(phi_cfg["c0"]), float(phi_cfg["c1"]), float(phi_cfg["c2"]),
                float(phi_cfg["scale"]),
                chamber_below(P, t.levi_L).chamber_point.floats(),
            )
            for model_name, fns in models:
                cid = f"lemma-shift/{d.label}/c{ci}/{M.label}/{model_name}"
                inputs = {
                    "group": d.label,
                    "home": t.levi_L.label,
                    "n": _n_inputs(t),
                    "M": M.label,
                    "model": model_name,
                }
                out.append((cid, inputs, ShiftCase(t, fns, M, P, phi, cfg.epsilons, cfg.delta_ladder, tol)))
    return out


@_records
def suite_lemma_shift(cfg: Config, d: RootDatum):
    from .contour import lemma_shift_batch

    cases = _lemma_shift_cases(cfg, d)
    # a shift past a real pole is a bad config: lemma_shift_batch raises BadShift and the run ends
    batch = lemma_shift_batch([case for _, _, case in cases])
    for (cid, inputs, _), out, seconds in zip(cases, batch.outcomes, batch.runtimes):
        outcome = out if isinstance(out, GmcalcError) else (out["pass"], max(out["residuals"]), None)
        yield cid, "lemma-shift", inputs, outcome, seconds
    return batch.counters


def _tempext(cfg: Config, t: TauClass):
    fns = ScalarRootFns.uniform(t.levi_L, cfg.m_model, t.nbeta)
    phis = [lambda lam: 1.0, lambda lam: 1.0 + sum(x * x for x in lam)]
    recs = tempext_check(t, fns, phis, cfg.tempext_deltas, cfg.growth_threshold)
    bad = [r for r in recs if not r["pass"]]
    worst = max((r["exponent"] for r in recs), default=float("-inf"))
    return not bad, worst if worst != float("-inf") else 0.0, None if not bad else f"{len(bad)} walls grew too fast"


@_records
def suite_tempext(cfg: Config, d: RootDatum):
    for ci, t in _indexed(_shift_classes(d), 2):
        inputs = {
            "group": d.label,
            "home": t.levi_L.label,
            "n": _n_inputs(t),
        }
        yield f"tempext/{d.label}/c{ci}", "tempext", inputs, _attempt(_tempext, cfg, t)


DUAL_ROUTE_GROUP = "A2"  # the one group whose examples run the analytic route of the splitting sum


def _generic_offset(d: RootDatum) -> RatVec:
    """Deterministic spectral offset off every pole wall: a chamber interior point."""
    return Fraction(1, 7) * base_chamber(d).chamber_point


@_records
def suite_examples(cfg: Config, d: RootDatum):
    M0, G = mzero(d), gfull(d)
    P0 = base_chamber(d)
    name = f"examples/{d.label}/"

    def theta_zero():
        val = theta(P0, RatVec.zero(d.rank))
        return val.product == 0, float(abs(val.product)), None

    yield name + "theta-zero", "examples", {"lambda": "0"}, _attempt(theta_zero)

    def full_model(mu: RatVec) -> SigmaModel:
        t = build_spectral_triple(d, range(len(d.roots)))
        return SigmaModel(t, ScalarRootFns.uniform(t.levi_L, cfg.m_model, t.nbeta), mu, _generic_offset(d))

    def d_trivial():
        got = d_constant(M0, M0, G)
        return float(got) == 1.0, abs(float(got) - 1.0), None

    yield name + "d-trivial", "examples", {"chain": (M0.label, M0.label, G.label)}, _attempt(d_trivial)

    def multiplier():
        one = multiplier_alpha(M0, RatVec.zero(d.rank), RatVec.zero(d.rank))
        rng = random.Random(cfg.seed)
        worst = 0.0
        for _ in range(100):
            nu = RatVec([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
            X = RatVec([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d.rank)])
            worst = max(worst, abs(multiplier_alpha(G, nu, X)) - 1.0)
        ok = one == 1 and worst <= 1e-12
        return ok, max(worst, abs(one - 1)), None

    yield name + "multiplier-bound", "examples", {"samples": 100}, _attempt(multiplier)

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

    yield name + "weyl-denominator-antisymmetry", "examples", {"Y": "fixed sample"}, _attempt(weyl_denom)

    def c_coeff_case():
        model = full_model(RatVec([Fraction(k + 1, 3) for k in range(d.rank)]))
        u = 1j
        w_id = weyl_group(d)[0]
        got = c_coefficient_example(model, w_id, P0, u, M0, M0)
        direct = u * model.m_rel(M0, G, P0)
        residual = abs(got - direct)
        return residual <= 1e-12, residual, None

    yield name + "c-coefficient-identity-case", "examples", {"w": "identity", "L": M0.label}, _attempt(c_coeff_case)

    def assemble_zero():
        model = full_model(RatVec.zero(d.rank))
        maxes = [L for L in levi_lattice(d) if 0 < L.dim < d.rank]
        if not maxes:
            return True, 0.0, "no proper intermediate Levi"
        P = parabolics(maxes[0])[0]
        got = assemble_PhiP({}, G, G, model, P)
        return got == 0, abs(got), None

    yield name + "assemble-empty-filter", "examples", {"L1": G.label}, _attempt(assemble_zero)

    def split_match():
        if d.label != DUAL_ROUTE_GROUP:
            return True, 0.0, f"dual-route check runs on {DUAL_ROUTE_GROUP}"
        t = build_spectral_triple(d, range(len(d.roots)))
        worst = 0.0
        for template in ({"kind": "pole"}, cfg.m_model):
            fns = ScalarRootFns.uniform(t.levi_L, template, t.nbeta)
            lam0 = [0.31j, 0.17j]
            comb = split_terms(fns, M0, G, P0, _lam_evaluator(d, lam0))
            ana = induced_family_value(fns, P0, lam0, P0.chamber_point)
            worst = max(worst, abs(comb - ana))
        return worst <= float(cfg.tolerances["split_match"]), worst, None

    yield name + "split-formula-dual-route", "examples", {"templates": ["pole", "m_model"]}, _attempt(split_match)

    def phi_tt_terms():
        if d.rank > 2:
            return True, 0.0, "expansion recorded for rank <= 2 groups"
        mu = RatVec.zero(d.rank)
        for k, cw in enumerate(d.fund_coweights):
            mu = mu + Fraction(k + 1) * cw  # distinct coefficients keep the orbit regular
        exp = phi_TT_expansion(full_model(mu), P0)
        expected = len(levi_lattice(d)) * len(weyl_group(d))
        ok = len(exp.terms) == expected
        return ok, float(len(exp.terms) - expected), json.dumps(exp.serialize(), sort_keys=True)

    yield name + "formal-expansion-terms", "examples", {"chamber": P0.index}, _attempt(phi_tt_terms)


def _float_layer(suite: str, d: RootDatum) -> str | None:
    """The module a suite's numpy work loads, None for a suite with none: the contour layer for the 1-d and
    grid quadratures, numpy for the dual route of examples, which runs on its one group."""
    if suite in ("residue-1d", "lemma-shift"):
        return "gmcalc.contour"
    return "numpy" if suite == "examples" and d.label == DUAL_ROUTE_GROUP else None


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
        layer = _float_layer(suite, d)
        if layer is None:
            report.extend(SUITE_FUNCS[suite](cfg, d))
            continue
        t0 = time.monotonic()  # the float layer and numpy load here, not in the suite's first record
        importlib.import_module(layer)
        report.process["float_layer_import_s"] = report.process.get("float_layer_import_s", 0.0) + time.monotonic() - t0
        # a numpy overflow or invalid value raises FloatingPointError, which ends the run as a bad config does
        with sys.modules["numpy"].errstate(over="raise", invalid="raise"):
            report.extend(SUITE_FUNCS[suite](cfg, d))
    return report
