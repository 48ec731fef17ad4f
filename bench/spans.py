"""Outside-in spans around the public functions of each gmcalc layer.

Each traced function is wrapped once and the wrapper is rebound in every
``gmcalc.*`` namespace that holds the original, and in
``suites.SUITE_FUNCS``, so no call escapes through an imported name.  Spans
(name, start, end, parent, run id) are kept in memory and written as JSON when
the traced process ends; self time is computed afterwards from the parents.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Public functions timed per layer.  exactlin, ratpoly and lp are measured
# through these callers.
LAYERS = {
    "rootdatum": ("build_root_system", "weyl_group", "reflect_subgroup"),
    "levilattice": ("levi_lattice", "parabolics", "weyl_cosets", "trand_check", "d_constant", "restricted_rays"),
    "gmfamily": ("orthogonal_set", "hull_volume", "family_limit", "induced_family_value", "split_terms"),
    "spectral": (
        "enumerate_spectral_triples", "tau_class", "classify_tau",
        "chamber_transitivity", "discrete_constants", "tempext_check",
    ),
    "contour": ("lemma_shift_check", "residue_identity_1d", "pv_integral", "shifted_integral"),
    "asymptotic": ("multiplier_alpha", "phi_TT_expansion"),
}
METHODS = {"report.render": ("report", "VerificationReport", "render")}
SUITES = (
    "hull-limit", "trand", "tdisc", "nL-independence",
    "residue-1d", "lemma-shift", "tempext", "examples",
)


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns] + list(METHODS)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count_records: bool = False):
        spans, stack, clock, run_id, counters = self.spans, self._stack, time.perf_counter, self.run_id, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_records:
                for rec in out:
                    key = f"{name}.{rec.status}"
                    counters[key] = counters.get(key, 0) + 1
            return out

        return traced

    def install(self) -> None:
        """Wrap every listed function and rebind it wherever gmcalc imported it."""
        for mod in ("cli", "suites", "report", *LAYERS):
            importlib.import_module(f"gmcalc.{mod}")
        namespaces = [m for n, m in sys.modules.items() if n == "gmcalc" or n.startswith("gmcalc.")]

        def rebind(orig, wrapped):
            for ns in namespaces:
                for attr in [a for a, v in vars(ns).items() if v is orig]:
                    setattr(ns, attr, wrapped)

        for mod, fns in LAYERS.items():
            module = sys.modules[f"gmcalc.{mod}"]
            for fn in fns:
                orig = getattr(module, fn)
                rebind(orig, self.wrap(f"{mod}.{fn}", orig))
        for name, (mod, cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules[f"gmcalc.{mod}"], cls_name)
            setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
        suite_funcs = sys.modules["gmcalc.suites"].SUITE_FUNCS
        for suite, orig in list(suite_funcs.items()):
            wrapped = self.wrap(f"suites.{suite}", orig, count_records=True)
            suite_funcs[suite] = wrapped
            rebind(orig, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counters": self.counters}, fh)


def layer_table(trace: dict) -> dict[str, float]:
    """Per-name self time, call count and per-suite totals from one traced process."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, float] = {}
    for name in function_names():
        table[f"{name}.self_s"] = 0.0
        table[f"{name}.calls"] = 0
    for suite in SUITES:
        table[f"suites.{suite}.s"] = 0.0
        table[f"suites.{suite}.checks"] = 0
        table[f"suites.{suite}.fail"] = 0
        table[f"suites.{suite}.skip"] = 0
    for k, (name, start, end, parent, _) in enumerate(spans):
        if name.startswith("suites."):
            table[f"{name}.s"] += end - start
        else:
            table[f"{name}.self_s"] += end - start - child_time[k]
            table[f"{name}.calls"] += 1
    for key, n in trace["counters"].items():
        suite, status = key.rsplit(".", 1)
        table[f"{suite}.checks"] += n
        if status != "pass":
            table[f"{suite}.{status}"] += n
    return table
