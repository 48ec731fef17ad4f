"""Command line interface: describe the lattice, run verification suites, evaluate formulas.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isfinite
from pathlib import Path

from .asymptotic import (
    SigmaModel,
    c_coefficient_example,
    eps_M_sign,
    multiplier_alpha,
    phi_TT_expansion,
    weyl_denominator,
)
from .config import ALL_SUITES, check_density, load_config
from .errors import ConfigError, GmcalcError
from .gmfamily import ScalarRootFns
from .levilattice import (
    d_constant,
    levi_by_label,
    levi_lattice,
    mzero,
    parabolics,
    theta,
    weyl_cosets,
)
from .rootdatum import RatVec, build_root_system, element_from_word, weyl_group
from .spectral import build_spectral_triple, discrete_constants, n_beta
from .suites import _generic_offset, run_suites


def _ratvec(d, items, name: str) -> RatVec:
    """A vector argument: a list of d.rank rationals."""
    try:
        if isinstance(items, list) and len(items) == d.rank:
            return RatVec([Fraction(str(x)) for x in items])
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"{name} must be a list of {d.rank} rationals, got {json.dumps(items)}")


def _complex(pair, name: str) -> complex:
    """A complex argument: a pair [re, im] of finite numbers."""
    finite = isinstance(pair, list) and all(type(x) in (int, float) and isfinite(x) for x in pair)
    if not (finite and len(pair) == 2):
        raise ConfigError(f"{name} must be a pair [re, im] of finite numbers, got {json.dumps(pair)}")
    return complex(*pair)


def _root_indices(d, payload, key: str) -> list[int]:
    """A list of in-range root indices under key (default: the positive roots)."""
    items = payload.get(key, list(d.pos_indices))
    if not isinstance(items, list) or any(type(i) is not int or not 0 <= i < len(d.roots) for i in items):
        raise ConfigError(f"{key} must be a list of root indices 0..{len(d.roots) - 1}, got {json.dumps(items)}")
    return items


def _index(payload, key: str, items):
    """The entry of items at the payload's index under key (default 0): an in-range int."""
    k = payload.get(key, 0)
    if type(k) is not int or not 0 <= k < len(items):
        raise ConfigError(f"{key} must be an integer in 0..{len(items) - 1}, got {json.dumps(k)}")
    return items[k]


def _quad_str(val) -> str:
    """Exact rendering of a rational-square value; rational when it is one."""
    root = val.rational()
    return str(root) if root is not None else ("-" if val.sign < 0 else "") + f"sqrt({val.square})"


@contextmanager
def _to_reader():
    """Print to a reader that may close the pipe early: the output then stops there, with no traceback, and
    the rest of stdout, the flushes at exit included, goes to the null device."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_describe(args) -> int:
    try:
        cfg = load_config(path=args.config, overrides={"group": args.group})
        d = build_root_system(cfg.group, cfg.gram)
    except (ConfigError, GmcalcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _to_reader():
        print(f"group {d.label}: rank {d.rank}, {len(d.roots)} roots, Weyl order {len(weyl_group(d))}")
        print("gram matrix rows:")
        for row in d.gram:
            print("  [" + ", ".join(str(x) for x in row) + "]")
        print("roots (index: coordinates in the simple basis):")
        for line in d.describe_roots():
            print("  " + line)
        print("Levi subgroups (label, dim of split center, chambers, coset count):")
        for L in levi_lattice(d):
            n_par = len(parabolics(L))
            n_cosets = len(weyl_cosets(L))
            roots = ",".join(str(i) for i in sorted(L.root_subset))
            print(f"  {L.label:10s} dim {L.dim}  chambers {n_par:3d}  cosets {n_cosets:3d}  roots [{roots}]")
    return 0


def cmd_verify(args) -> int:
    overrides = {"group": args.group}
    if args.suite:
        overrides["suites"] = args.suite
    try:
        cfg = load_config(path=args.config, overrides=overrides)
        out_dir = Path(args.out or os.environ.get("GMCALC_REPORT_DIR") or cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = run_suites(cfg)
    except (ConfigError, GmcalcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot create the report directory: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:  # FloatingPointError: numpy's, raised in the float suites
        print(f"error: config values too large to evaluate in floating point: {exc}", file=sys.stderr)
        return 2
    report_path = out_dir / f"report-{cfg.group}.json"
    try:
        with open(report_path, "w", encoding="utf-8") as out:
            report.render(out)
        report.process["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kB on Linux
        with open(out_dir / f"report-{cfg.group}.timing.json", "w", encoding="utf-8") as out:
            report.render_timing(out)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    with _to_reader():
        for rec in report.records:  # sorted by id, as render left them
            residual = "" if rec.residual is None else f"  residual={rec.residual:.3g}"
            extra = f"  ({rec.detail})" if rec.detail else ""
            print(f"[{rec.status:4s}] {rec.id}{residual}{extra}")
        summary = report.summary()
        print(
            f"summary: {summary['pass']} pass, {summary['fail']} fail, {summary['skip']} skip"
            f" -> {report_path}"
        )
    return 0 if report.passed() else 1


def _spectral_from_args(d, payload):
    return build_spectral_triple(d, payload.get("sigma_roots", []), payload.get("r_word", []))


def _model_from_args(d, cfg, payload):
    t = _spectral_from_args(d, payload)
    if "model" in payload:
        check_density("model", payload["model"])
    fns = ScalarRootFns.uniform(t.levi_L, payload.get("model", cfg.m_model), t.nbeta)
    mu = _ratvec(d, payload.get("mu", [0] * d.rank), "mu")
    ev = _ratvec(d, payload["eval"], "eval") if "eval" in payload else _generic_offset(d)
    return SigmaModel(t, fns, mu, ev)


def cmd_eval(args) -> int:
    try:
        cfg = load_config(path=args.config, overrides={"group": args.group})
        d = build_root_system(cfg.group, cfg.gram)
        payload = json.loads(args.args) if args.args else {}
        if not isinstance(payload, dict):
            raise ConfigError(f"--args must be a JSON object, got {args.args}")
    except (ConfigError, GmcalcError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    evaluate, known = EXPRESSIONS[args.expr]
    unknown = sorted(set(payload) - set(known))
    if unknown:
        print(f"error: {args.expr} takes no argument {', '.join(map(repr, unknown))};"
              f" its arguments are {', '.join(known)}", file=sys.stderr)
        return 2
    try:
        value, extra = evaluate(d, cfg, payload)
    except KeyError as exc:
        print(f"error: missing argument {exc}", file=sys.stderr)
        return 2
    except (GmcalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: arguments too large to evaluate in floating point: {exc}", file=sys.stderr)
        return 2
    with _to_reader():
        print(f"group: {d.label}")
        print("gram: " + json.dumps([[str(x) for x in row] for row in d.gram]))
        print(f"expression: {args.expr}")
        print("arguments: " + json.dumps(payload, sort_keys=True))
        for k, v in extra.items():
            print(f"{k}: {v}")
        print(f"value: {value}")
    return 0


def _eval_theta(d, cfg, payload):
    M = levi_by_label(d, payload.get("M", "M0"))
    P = _index(payload, "chamber", parabolics(M))
    val = theta(P, _ratvec(d, payload["lambda"], "lambda"))
    return float(val), {"product": str(val.product), "covol_sq": str(val.covol.square)}


def _eval_d(d, cfg, payload):
    L1, L, S = (levi_by_label(d, payload[k]) for k in ("L1", "L", "S"))
    val = d_constant(L1, L, S)
    return _quad_str(val), {"float": float(val), "square": str(val.square)}


def _eval_n_beta(d, cfg, payload):
    t = _spectral_from_args(d, payload)
    return str(n_beta(t, _ratvec(d, payload["beta"], "beta"))), {"home": t.levi_L.label}


def _eval_discrete(key):
    def ev(d, cfg, payload):
        t = _spectral_from_args(d, payload)
        res = discrete_constants(t, levi_by_label(d, payload.get("L", "G")))
        return str(res[key]), {"home": t.levi_L.label}

    return ev


def _eval_alpha_x(d, cfg, payload):
    M1 = levi_by_label(d, payload.get("M1", "M0"))
    nu, X = (_ratvec(d, payload.get(k, [0] * d.rank), k) for k in ("nu", "X"))
    val = multiplier_alpha(M1, nu, X)
    return f"{val.real}+{val.imag}j", {"modulus": abs(val)}


def _eval_eps_m(d, cfg, payload):
    w = element_from_word(d, payload.get("word", []))
    return eps_M_sign(d, w, _root_indices(d, payload, "sigma")), {"word": payload.get("word", [])}


def _eval_delta_sigma(d, cfg, payload):
    Y = payload["Y"]
    if not isinstance(Y, list) or len(Y) != d.rank:
        raise ConfigError(f"Y must be a list of {d.rank} pairs [re, im], got {json.dumps(Y)}")
    Y = [_complex(y, "each entry of Y") for y in Y]
    val = weyl_denominator(d, _root_indices(d, payload, "sigma"), Y)
    return f"{val.real}+{val.imag}j", {}


def _eval_c_coeff(d, cfg, payload):
    model = _model_from_args(d, cfg, payload)
    w = element_from_word(d, payload.get("w_word", []))
    M = levi_by_label(d, payload.get("M", "M0"))
    L = levi_by_label(d, payload.get("L", "M0"))
    P = _index(payload, "P", parabolics(levi_by_label(d, payload.get("P_levi", "M0"))))
    u = _complex(payload.get("u", [1.0, 0.0]), "u")
    val = c_coefficient_example(model, w, P, u, L, M)
    return f"{val.real}+{val.imag}j", {}


def _eval_phi_tt(d, cfg, payload):
    model = _model_from_args(d, cfg, payload)
    P = _index(payload, "P", parabolics(mzero(d)))
    exp = phi_TT_expansion(model, P)
    return json.dumps(exp.serialize(), sort_keys=True), {"terms": len(exp.terms)}


_MODEL_KEYS = ("sigma_roots", "r_word", "model", "mu", "eval")

# expression name -> (evaluator(d, cfg, payload) returning (value, extra lines), the argument keys it reads)
EXPRESSIONS = {
    "theta": (_eval_theta, ("M", "chamber", "lambda")),
    "d": (_eval_d, ("L1", "L", "S")),
    "n_beta": (_eval_n_beta, ("sigma_roots", "r_word", "beta")),
    "nL": (_eval_discrete("nL"), ("sigma_roots", "r_word", "L")),
    "kL": (_eval_discrete("kL"), ("sigma_roots", "r_word", "L")),
    "alpha_X": (_eval_alpha_x, ("M1", "nu", "X")),
    "eps_M": (_eval_eps_m, ("word", "sigma")),
    "delta_Sigma": (_eval_delta_sigma, ("Y", "sigma")),
    "c_coeff": (_eval_c_coeff, _MODEL_KEYS + ("w_word", "M", "L", "P", "P_levi", "u")),
    "phi_TT": (_eval_phi_tt, _MODEL_KEYS + ("P",)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gmcalc", description="Root-system identity workbench")
    ap.add_argument("--config", help="JSON configuration file")
    sub = ap.add_subparsers(dest="command", required=True)

    p_desc = sub.add_parser("describe", help="list Levi subgroups, chambers and cosets")
    p_desc.add_argument("--group", help="group label, e.g. A2 or A1xB2")

    p_ver = sub.add_parser("verify", help="run verification suites and write a JSON report")
    p_ver.add_argument("--group", help="group label")
    p_ver.add_argument("--suite", action="append", choices=list(ALL_SUITES) + ["all"],
                       help="suite name (repeatable); defaults to the config")
    p_ver.add_argument("--out", help="report directory (env GMCALC_REPORT_DIR also works)")

    p_eval = sub.add_parser("eval", help="evaluate one named expression")
    p_eval.add_argument("--group", help="group label")
    p_eval.add_argument("--expr", required=True, choices=list(EXPRESSIONS))
    p_eval.add_argument("--args", help="JSON arguments for the expression")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "describe":
        return cmd_describe(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "eval":
        return cmd_eval(args)
    return 2


def _observed() -> bool:
    """Whether a profiler, tracer or debugger watches this process; each writes what it saw at exit."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, whose cProfile and coverage register tools 0-5 here
    tools = [monitoring.get_tool(i) for i in range(6)] if monitoring else []
    return sys.getprofile() is not None or sys.gettrace() is not None or any(t is not None for t in tools)


def run(argv=None) -> int:
    """The process entry of `gmcalc` and `python -m gmcalc.cli`: main, then stdout and stderr flushed and
    the process ended with main's code, skipping interpreter teardown.  Under a profiler, tracer or
    debugger it returns the code, so the interpreter exits normally and they can write their results."""
    code = main(argv)
    if _observed():
        return code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
