"""Run configuration: a versioned JSON document checked against config.schema.json."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError
from .gmfamily import POLE_HIT_RADIUS, scalar_fn_from_template

# the one statement of the config's structural rules; load_config adds only what it cannot state
_SCHEMA = json.loads(Path(__file__).with_name("config.schema.json").read_text(encoding="utf-8"))

# the least scale of flat_phi and the 1-d battery: tail cutoffs 8/sqrt(scale) <= 32 bound every panel count
_MIN_SCALE = Fraction(_SCHEMA["properties"]["flat_phi"]["items"]["properties"]["scale"]["minimum"])

# the suites in run order, as the schema lists them after "all"
ALL_SUITES = tuple(s for s in _SCHEMA["properties"]["suites"]["items"]["enum"] if s != "all")

_DEFAULTS = {
    "schema": "gmcalc-config-v1",
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


class Config(NamedTuple):
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
    raw: dict = {}  # the merged input that config_digest reads; never mutated

    def resolved_suites(self) -> list[str]:
        if "all" in self.suites:
            return list(ALL_SUITES)
        return list(self.suites)


def _is_number(x) -> bool:
    """A finite JSON number; bool is not one."""
    return not isinstance(x, bool) and (isinstance(x, int) or (isinstance(x, float) and math.isfinite(x)))


# the JSON types config.schema.json names; as in the schema, an integer may have a zero fraction
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and v == int(v),
}


def _validate(value, schema: dict, where: str) -> None:
    """Check value against schema, in the subset of JSON Schema that config.schema.json uses."""
    if "$ref" in schema:
        target = _SCHEMA
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part]
        _validate(value, target, where)
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](value) for t in types):
        raise ConfigError(f"{where} must be of type {' or '.join(types)}, got {value!r}")
    if "const" in schema and value != schema["const"]:
        raise ConfigError(f"{where} must be {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{where} must be one of {schema['enum']}, got {value!r}")
    if _is_number(value) and "minimum" in schema and value < schema["minimum"]:
        raise ConfigError(f"{where} must be at least {schema['minimum']}, got {value!r}")
    if _is_number(value) and "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        raise ConfigError(f"{where} must be above {schema['exclusiveMinimum']}, got {value!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{where} needs at least {schema['minItems']} items, got {value!r}")
        for i, item in enumerate(value):
            _validate(item, schema.get("items", {}), f"{where}[{i}]")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            raise ConfigError(f"{where} needs the keys {missing}, got {value!r}")
        unknown = sorted(set(value) - set(props)) if schema.get("additionalProperties") is False else []
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {unknown}; expected {sorted(props)}")
        for k, v in value.items():
            if k in props:
                _validate(v, props[k], f"{where}.{k}")


def _rational(name: str, x) -> Fraction:
    """x read as the rational literal the suites read it as."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name} must be a rational number, got {x!r}") from None


def check_density(name: str, template) -> None:
    """Reject a density template unless it matches the schema's density and builds."""
    _validate(template, _SCHEMA["$defs"]["density"], name)
    try:
        scalar_fn_from_template(template, Fraction(0))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # OverflowError: a parameter beyond float range
        raise ConfigError(f"bad {name} {template!r}: {exc}") from None


def load_config(data: dict | None = None, path: str | Path | None = None, overrides: dict | None = None) -> Config:
    """Build a fully resolved configuration from a document valid under config.schema.json.

    Keys the document leaves out take their defaults; a partial tolerances
    object overrides only the keys it names.
    """
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
    elif data is None:
        data = {}
    if overrides and isinstance(data, dict):
        data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    _validate(data, _SCHEMA, "config")
    merged = {**_DEFAULTS, **data, "tolerances": {**_DEFAULTS["tolerances"], **data.get("tolerances", {})}}
    # what the schema cannot state: rational literals, non-zero test data, builds, shrinking ladders
    for row in merged["gram"] or ():
        for x in row:
            _rational("gram entry", x)
    for tf in merged["test_functions"]:
        # a list, not a generator: every coefficient must parse, also after the first non-zero one
        if not any([_rational("test function coefficient", c) for c in tf["poly"]]):
            raise ConfigError(f"test function poly must not be zero, got {tf['poly']!r}")
        if _rational("test function scale", tf["scale"]) < _MIN_SCALE:
            raise ConfigError(f"test function scale must be at least {_MIN_SCALE}, got {tf['scale']!r}")
    for entry in merged["flat_phi"]:
        if entry["c0"] == entry["c1"] == entry["c2"] == 0:
            raise ConfigError(f"flat_phi entry must not be zero, got {entry!r}")
    check_density("m_model", merged["m_model"])
    check_density("r_model", merged["r_model"])
    # the growth exponent divides by log(first / last)
    if not merged["tempext_deltas"][0] > merged["tempext_deltas"][-1]:
        raise ConfigError(f"tempext_deltas must start above where they end, got {merged['tempext_deltas']!r}")
    # a shifted grid is refined from eps / 4 toward 0, with no end inside the pole-hit disc
    if min(merged["epsilons"]) < POLE_HIT_RADIUS:
        raise ConfigError(f"epsilons must be at least {POLE_HIT_RADIUS}, got {merged['epsilons']!r}")
    # odd-power extrapolation takes the last nodes as the smallest, and equal nodes are singular
    ladder = merged["delta_ladder"]
    if not all(a > b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"delta_ladder must strictly decrease, got {ladder!r}")
    # an excision must leave the pole-hit disc and stay inside the smallest tail cutoff of both batteries
    scale = max([Fraction(str(tf["scale"])) for tf in merged["test_functions"]] + [e["scale"] for e in merged["flat_phi"]])
    if not (POLE_HIT_RADIUS <= ladder[-1] and ladder[0] < 8.0 / math.sqrt(scale)):
        raise ConfigError(f"delta_ladder must lie in [{POLE_HIT_RADIUS}, {8.0 / math.sqrt(scale)}), got {ladder!r}")
    raw = {k: v for k, v in merged.items() if k != "schema"}
    return Config(
        group=merged["group"],
        gram=merged["gram"],
        suites=list(merged["suites"]),
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
