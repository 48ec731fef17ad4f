"""Run configuration: a versioned JSON document with strict key validation."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .gmfamily import scalar_fn_from_template

CONFIG_SCHEMA = "gmcalc-config-v1"

ALL_SUITES = (
    "hull-limit",
    "trand",
    "tdisc",
    "nL-independence",
    "residue-1d",
    "lemma-shift",
    "tempext",
    "examples",
)

_DEFAULTS = {
    "schema": CONFIG_SCHEMA,
    "group": "A2",
    "gram": None,
    "suites": ["all"],
    "m_model": {"kind": "model_plancherel", "c": "1"},
    "r_model": {"kind": "model_plancherel", "c": "4"},
    "test_functions": [
        {"poly": ["1"], "scale": "1"},
        {"poly": ["0", "1"], "scale": "1"},
        {"poly": ["1", "1"], "scale": "1/2"},
        {"poly": ["-2", "0", "1"], "scale": "1"},
        {"poly": ["0", "1", "0", "1"], "scale": "2"},
    ],
    "flat_phi": [
        {"c0": 1.0, "c1": 0.0, "c2": 0.0, "scale": 1.0},
        {"c0": 1.0, "c1": 0.3, "c2": 0.1, "scale": 0.5},
    ],
    "tolerances": {
        "residue_1d": 1e-6,
        "pv_zero": 1e-8,
        "lemma_shift": 1e-4,
        "split_match": 1e-8,
        "tempext_zero": 1e-10,
    },
    "epsilons": [0.05, 0.1],
    "delta_ladder": [0.1, 0.01, 0.001],
    "tempext_deltas": [1e-2, 1e-4, 1e-6],
    "growth_threshold": 0.5,
    "hull_samples": 25,
    "seed": 20260810,
    "output_dir": "reports",
}


@dataclass
class Config:
    group: str
    gram: list[list[str]] | None
    suites: list[str]
    m_model: dict
    r_model: dict
    test_functions: list[dict]
    flat_phi: list[dict]
    tolerances: dict
    epsilons: list[float]
    delta_ladder: list[float]
    tempext_deltas: list[float]
    growth_threshold: float
    hull_samples: int
    seed: int
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    def resolved_suites(self) -> list[str]:
        if "all" in self.suites:
            return list(ALL_SUITES)
        return list(self.suites)


def _merge_tolerances(given) -> dict:
    """A partial tolerances object overrides only the keys it names."""
    defaults = _DEFAULTS["tolerances"]
    if not isinstance(given, dict):
        raise ConfigError("tolerances must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown tolerances: {sorted(unknown)}; expected {sorted(defaults)}")
    bad = sorted(k for k, v in given.items() if isinstance(v, bool) or not isinstance(v, (int, float)))
    if bad:
        raise ConfigError(f"tolerances must be numbers: {bad}")
    return {**defaults, **given}


def _is_number(x) -> bool:
    """A finite JSON number; bool is not one."""
    return not isinstance(x, bool) and (isinstance(x, int) or (isinstance(x, float) and math.isfinite(x)))


def _check_positive_list(name: str, value, min_items: int) -> None:
    if not isinstance(value, list) or len(value) < min_items or any(not _is_number(x) or x <= 0 for x in value):
        raise ConfigError(f"{name} must be a list of at least {min_items} positive numbers, got {value!r}")


def _rational(name: str, x) -> Fraction:
    """x read as the rational literal the suites read it as."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name} must be a rational number, got {x!r}") from None


def _check_density(name: str, template) -> None:
    if not isinstance(template, dict):
        raise ConfigError(f"{name} must be an object, got {template!r}")
    try:
        scalar_fn_from_template(template, Fraction(0))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {name} {template!r}: {exc}") from None


def _check_test_functions(value) -> None:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"test_functions must be a non-empty list, got {value!r}")
    for tf in value:
        if not isinstance(tf, dict) or not isinstance(tf.get("poly"), list) or "scale" not in tf:
            raise ConfigError(f"test functions need a poly list and a scale, got {tf!r}")
        for c in tf["poly"]:
            _rational("test function coefficient", c)
        if _rational("test function scale", tf["scale"]) <= 0:
            raise ConfigError("test function scale must be positive")


def _check_gram(value) -> None:
    if value is None:
        return
    if not isinstance(value, list) or any(not isinstance(row, list) for row in value):
        raise ConfigError(f"gram must be a list of rows or null, got {value!r}")
    for row in value:
        for x in row:
            _rational("gram entry", x)


def _check_number(name: str, value, integer: bool = False) -> None:
    # as in the schema, an integer may be written with a zero fraction
    if not _is_number(value) or (integer and value != int(value)):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")


def _check_flat_phi(value) -> None:
    keys = {"c0", "c1", "c2", "scale"}
    if not isinstance(value, list) or not value:
        raise ConfigError(f"flat_phi must be a non-empty list, got {value!r}")
    for entry in value:
        if not isinstance(entry, dict) or set(entry) != keys:
            raise ConfigError(f"flat_phi entries need exactly the keys {sorted(keys)}, got {entry!r}")
        if not all(_is_number(v) for v in entry.values()):
            raise ConfigError(f"flat_phi coefficients must be numbers, got {entry!r}")
        if not entry["scale"] > 0:
            raise ConfigError(f"flat_phi scale must be positive, got {entry['scale']!r}")


def load_config(data: dict | None = None, path: str | Path | None = None, overrides: dict | None = None) -> Config:
    """Build a fully resolved configuration; unknown keys are rejected."""
    merged = dict(_DEFAULTS)
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
    if data:
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if data.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported config schema {data.get('schema')!r}")
        merged.update(data)
        if "tolerances" in data:
            merged["tolerances"] = _merge_tolerances(data["tolerances"])
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    suites = merged["suites"]
    bad = [s for s in suites if s != "all" and s not in ALL_SUITES]
    if bad:
        raise ConfigError(f"unknown suites: {bad}; expected {ALL_SUITES}")
    _check_positive_list("epsilons", merged["epsilons"], 2)
    _check_positive_list("delta_ladder", merged["delta_ladder"], 2)
    _check_flat_phi(merged["flat_phi"])
    _check_test_functions(merged["test_functions"])
    _check_density("m_model", merged["m_model"])
    _check_density("r_model", merged["r_model"])
    _check_gram(merged["gram"])
    _check_positive_list("tempext_deltas", merged["tempext_deltas"], 2)
    # the growth exponent divides by log(first / last)
    if not merged["tempext_deltas"][0] > merged["tempext_deltas"][-1]:
        raise ConfigError(f"tempext_deltas must start above where they end, got {merged['tempext_deltas']!r}")
    _check_number("hull_samples", merged["hull_samples"], integer=True)
    if merged["hull_samples"] < 1:
        raise ConfigError(f"hull_samples must be at least 1, got {merged['hull_samples']!r}")
    _check_number("seed", merged["seed"], integer=True)
    _check_number("growth_threshold", merged["growth_threshold"])
    raw = {k: v for k, v in merged.items() if k != "schema"}
    return Config(
        group=merged["group"],
        gram=merged["gram"],
        suites=list(suites),
        m_model=dict(merged["m_model"]),
        r_model=dict(merged["r_model"]),
        test_functions=[dict(t) for t in merged["test_functions"]],
        flat_phi=[dict(t) for t in merged["flat_phi"]],
        tolerances=dict(merged["tolerances"]),
        epsilons=[float(x) for x in merged["epsilons"]],
        delta_ladder=[float(x) for x in merged["delta_ladder"]],
        tempext_deltas=[float(x) for x in merged["tempext_deltas"]],
        growth_threshold=float(merged["growth_threshold"]),
        hull_samples=int(merged["hull_samples"]),
        seed=int(merged["seed"]),
        output_dir=str(merged["output_dir"]),
        raw=raw,
    )
