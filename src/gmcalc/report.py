"""Structured verification reports with deterministic serialization.

The canonical report file contains no wall-clock data so consecutive runs of
the same configuration are byte-identical; per-check runtimes go to a
separate timing sidecar and the console, and so do the counters a suite keeps.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

SCHEMA = "gmcalc-report-v1"


def digest(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


@dataclass
class CheckRecord:
    id: str
    anchor: str
    inputs: str
    status: str  # pass | fail | skip
    residual: float | None = None
    detail: str | None = None
    runtime: float | None = None  # console/sidecar only, never in the canonical file

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "anchor": self.anchor,
            "inputs": self.inputs,
            "status": self.status,
            "residual": self.residual,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class SuiteRecords(list):
    """The check records of one suite, with the counters its run kept."""

    def __init__(self, records=(), counters: dict[str, int] | None = None):
        super().__init__(records)
        self.counters = dict(counters or {})


@dataclass
class VerificationReport:
    group: str
    gram: list[list[str]]
    config_digest: str
    numerics: dict = field(default_factory=dict)
    records: list[CheckRecord] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)  # sidecar only

    def extend(self, records) -> None:
        self.records.extend(records)
        self.counters.update(getattr(records, "counters", {}))

    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "group": self.group,
            "gram": self.gram,
            "config_digest": self.config_digest,
            "numerics": self.numerics,
            "checks": [r.to_json() for r in sorted(self.records, key=lambda r: r.id)],
            "summary": self.summary(),
        }

    def render(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def timing_json(self) -> dict:
        return {
            "schema": SCHEMA + "-timing",
            "counters": self.counters,
            "runtimes": {r.id: r.runtime for r in sorted(self.records, key=lambda r: r.id)},
        }
