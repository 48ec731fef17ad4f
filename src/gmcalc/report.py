"""Structured verification reports with deterministic serialization.

The canonical report file contains no wall-clock data so consecutive runs of
the same configuration are byte-identical; per-check runtimes go to a
separate timing sidecar and the console, and so do the counters a suite keeps.
Both files are the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``, whose pure-Python encoder an
indent selects, so the long part of each, the records or the runtimes, goes entry by entry to the open file.

Digests hash with CPython's built-in SHA-256, as ``random`` does its seeds: the bytes of ``hashlib.sha256``
without loading OpenSSL's libcrypto, 3.6 MB of an A2 verify's peak RSS.  A test checks it against hashlib.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import attrgetter
from typing import Any, Iterable, NamedTuple, TextIO

try:
    from _sha2 import sha256  # CPython 3.12 on
except ImportError:
    from _sha256 import sha256  # CPython 3.10 and 3.11

SCHEMA = "gmcalc-report-v1"
_by_id = attrgetter("id")
_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True, default=str)  # what json.dumps builds per call with these arguments


def digest(obj: Any) -> str:
    return sha256(_DIGEST_ENCODER.encode(obj).encode()).hexdigest()[:16]


def _scalar(v: Any) -> str:
    """A JSON scalar as json.dumps writes it; finite floats skip the encoder."""
    return float.__repr__(v) if type(v) is float and isfinite(v) else json.dumps(v)


def _write(out: TextIO, doc: dict, key: str, entries: Iterable[str], ends: str) -> None:
    """Write json.dumps(doc | {key: container}, sort_keys=True, indent=2) + newline to out, the container laid
    out from its entries, written already, one at a time; only a top-level key's line starts with a newline,
    two spaces and a quote."""
    mark = f"\n  {_quote(key)}: "
    head, tail = json.dumps({**doc, key: None}, sort_keys=True, indent=2).split(mark + "null", 1)
    out.write(head + mark + ends[0])
    sep = "\n"
    for entry in entries:
        out.write(sep + entry)
        sep = ",\n"
    out.write(("\n  " if sep == ",\n" else "") + ends[1] + tail + "\n")


class CheckRecord(NamedTuple):
    id: str
    anchor: str
    inputs: str
    status: str  # pass | fail | skip
    residual: float | None = None
    detail: str | None = None
    runtime: float | None = None  # console/sidecar only, never in the canonical file

    def render(self) -> str:
        """The record as an entry of the report's "checks" list: its fields but the runtime, keys sorted,
        as json.dumps(sort_keys=True, indent=2) writes them there; no detail field when detail is None."""
        detail = "" if self.detail is None else f'      "detail": {_scalar(self.detail)},\n'
        return (
            f'    {{\n      "anchor": {_quote(self.anchor)},\n{detail}      "id": {_quote(self.id)},\n'
            f'      "inputs": {_quote(self.inputs)},\n      "residual": {_scalar(self.residual)},\n'
            f'      "status": {_quote(self.status)}\n    }}'
        )


class SuiteRecords(list):
    """The check records of one suite, with the counters its run kept."""

    def __init__(self, records=(), counters: dict[str, int] | None = None):
        super().__init__(records)
        self.counters = dict(counters or {})


class VerificationReport:
    def __init__(
        self,
        group: str,
        gram: list[list[str]],
        config_digest: str,
        numerics: dict | None = None,
        records: list[CheckRecord] | None = None,
        counters: dict[str, int] | None = None,  # sidecar only
    ):
        self.group, self.gram, self.config_digest = group, gram, config_digest
        self.numerics = {} if numerics is None else numerics
        self.records = [] if records is None else records
        self.counters = {} if counters is None else counters
        self.process: dict[str, float] = {}  # sidecar only: the float layer's import seconds, the peak RSS

    def extend(self, records: SuiteRecords) -> None:
        self.records.extend(records)
        self.counters.update(records.counters)

    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def render(self, out: TextIO) -> None:
        """Write the canonical report to out: schema, group, gram, config digest, numerics, summary and the
        records, sorted by id in place (a stable sort, which finds them sorted on any later call)."""
        self.records.sort(key=_by_id)
        doc = {
            "schema": SCHEMA,
            "group": self.group,
            "gram": self.gram,
            "config_digest": self.config_digest,
            "numerics": self.numerics,
            "summary": self.summary(),
        }
        _write(out, doc, "checks", (r.render() for r in self.records), "[]")

    def render_timing(self, out: TextIO) -> None:
        """Write the timing sidecar to out: counters, process facts and runtimes by record id (a repeated id keeps its last)."""
        self.records.sort(key=_by_id)
        runtimes = {r.id: r.runtime for r in self.records}
        entries = (f"    {_quote(k)}: {_scalar(v)}" for k, v in runtimes.items())
        _write(out, {"schema": SCHEMA + "-timing", "counters": self.counters, "process": self.process}, "runtimes", entries, "{}")
