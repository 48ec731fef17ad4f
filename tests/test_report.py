"""The report writer against json.dumps: the canonical report and the timing sidecar, byte for byte.

The references are the documents the package handed to ``json.dumps(doc, sort_keys=True, indent=2)``
before it wrote the records and the runtimes entry by entry.
"""
import hashlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gmcalc.cli
from gmcalc.config import load_config
from gmcalc.report import SCHEMA, CheckRecord, SuiteRecords, VerificationReport, digest
from gmcalc.suites import run_suites


def ref_record_doc(r):
    out = {"id": r.id, "anchor": r.anchor, "inputs": r.inputs, "status": r.status, "residual": r.residual}
    if r.detail is not None:
        out["detail"] = r.detail
    return out


def ref_report_doc(report):
    return {
        "schema": SCHEMA,
        "group": report.group,
        "gram": report.gram,
        "config_digest": report.config_digest,
        "numerics": report.numerics,
        "checks": [ref_record_doc(r) for r in sorted(report.records, key=lambda r: r.id)],
        "summary": report.summary(),
    }


def ref_timing_doc(report):
    return {
        "schema": SCHEMA + "-timing",
        "counters": report.counters,
        "process": report.process,
        "runtimes": {r.id: r.runtime for r in sorted(report.records, key=lambda r: r.id)},
    }


def _text(render) -> str:
    """What a render method writes, read back from an in-memory file."""
    out = io.StringIO()
    render(out)
    return out.getvalue()


def _same_bytes(report):
    assert _text(report.render) == json.dumps(ref_report_doc(report), sort_keys=True, indent=2) + "\n"
    assert _text(report.render_timing) == json.dumps(ref_timing_doc(report), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "group, suites",
    [
        ("A2", ["all"]),
        ("A3", ["hull-limit", "trand", "tdisc", "nL-independence"]),
        ("G2", ["hull-limit", "residue-1d", "tempext", "examples"]),
    ],
)
def test_real_reports_render_as_json_dumps(group, suites):
    report = run_suites(load_config(overrides={"group": group, "suites": suites}))
    assert report.records and any(r.detail is not None for r in report.records)
    _same_bytes(report)


def _record(k, residual, detail=None, status="pass"):
    return CheckRecord(f"s/{k:02d}", "anchor \"quoted\" \\ back", "inputs", status, residual, detail, runtime=residual)


def test_synthetic_reports_render_as_json_dumps():
    residuals = [None, 0, 7, -3, True, 0.0, -0.0, 1.5, 1e-300, 2.5e16, 1 / 3, math.inf, -math.inf, math.nan]
    records = [_record(k, r) for k, r in enumerate(residuals)]
    records += [
        _record(20, 0.1, "détail ∑   \x00 \t\n\"end\""),
        _record(21, None, "", status="skip"),
        _record(3, 2.0, "a duplicate id keeps both records in the report and the last runtime"),
    ]
    numerics = {"epsilons": [0.5, 0.25], "nested": {"b": [], "a": {}, "c": [[1, "x"], None]}, "ints": {1: "one"}}
    report = VerificationReport("A1", [["2"]], "digest", numerics, records, {"calls": 3, "é": 1})
    assert report.summary() == {"pass": 16, "fail": 0, "skip": 1}
    _same_bytes(report)
    report.extend(SuiteRecords([_record(22, -1.25, status="fail")], {"more": 0}))
    _same_bytes(report)


def test_empty_report_renders_as_json_dumps():
    report = VerificationReport("A1", [], "digest")
    _same_bytes(report)
    assert '"checks": [],' in _text(report.render) and '"runtimes": {},' in _text(report.render_timing)


@pytest.mark.parametrize("suites", [["trand", "examples"], []])
def test_cli_writes_what_render_writes(tmp_path, monkeypatch, suites):
    # the files the CLI streams, with records and without, are the bytes render and render_timing write
    made = []
    monkeypatch.setattr(gmcalc.cli, "run_suites", lambda cfg: made.append(run_suites(cfg)) or made[-1])
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"group": "A2", "suites": suites}))
    assert gmcalc.cli.main(["--config", str(config), "verify", "--out", str(tmp_path)]) == 0
    (report,) = made
    assert bool(report.records) == bool(suites)
    assert (tmp_path / "report-A2.json").read_bytes() == _text(report.render).encode()
    assert (tmp_path / "report-A2.timing.json").read_bytes() == _text(report.render_timing).encode()


@pytest.mark.parametrize(
    "obj",
    [
        {"b": Fraction(-3, 7), "a": (Fraction(1), 2, (Fraction(1, 2), "x"))},
        {"outer": {"z": [1.5, None, True], "y": {"x": Fraction(5, 3)}}, "inner": ()},
        {"name": "Weyl–Coxeter ρ∨", "λ": ["γ", "é", "\u2212"]},
        [Fraction(2, 4), ("a", {"k": Fraction(-1, 9)}), "ü"],
        "σ", Fraction(7, 2), 0.1,
    ],
)
def test_digest_hashes_the_bytes_of_json_dumps(obj):
    want = hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]
    assert digest(obj) == want


JSON_ABLE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.fractions(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300)
@given(JSON_ABLE)
def test_builtin_sha256_digest_equals_hashlib(obj):
    # the digest hashes with CPython's built-in SHA-256, not hashlib's OpenSSL one: the same bytes
    want = hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]
    assert digest(obj) == want
