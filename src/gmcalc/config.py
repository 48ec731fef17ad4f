"""Run configuration: a versioned JSON document with strict key validation."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError

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


def _check_positive_list(name: str, value, min_items: int) -> None:
    if (
        not isinstance(value, list)
        or len(value) < min_items
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) or not 0 < x < math.inf for x in value)
    ):
        raise ConfigError(f"{name} must be a list of at least {min_items} positive numbers, got {value!r}")


def _check_flat_phi(value) -> None:
    keys = {"c0", "c1", "c2", "scale"}
    if not isinstance(value, list) or not value:
        raise ConfigError(f"flat_phi must be a non-empty list, got {value!r}")
    for entry in value:
        if not isinstance(entry, dict) or set(entry) != keys:
            raise ConfigError(f"flat_phi entries need exactly the keys {sorted(keys)}, got {entry!r}")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) for v in entry.values()):
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
    for tf in merged["test_functions"]:
        if Fraction(str(tf["scale"])) <= 0:
            raise ConfigError("test function scale must be positive")
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
