"""Self-test of the benchmark on A1; run from a checkout root:

    python3 bench/selftest.py

Checks that every end-to-end and per-layer metric is printed with its unit,
that a tampered reference sets output_ok to 0 and fails the run, and that the
traced report is byte-identical to the untraced one.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def emitted(name: str, result: dict, trace: bool) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit(name, result, run.listed_metrics(trace))
    lines = buf.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    t0 = time.perf_counter()
    root = Path.cwd()
    run.byte_compile(root)
    name, wl = "selftest-a1", run.Workload("A1", "verify", ("trand", "tdisc"))
    ref = run.reference_for(name, run.DEFAULT_SEED, wl.kind)
    problems = []

    plain = run.measure(root, name, wl, run.DEFAULT_SEED, 0, False, ref, min_rounds=1, setup_probes=1)
    table, line = emitted(name, plain, False)
    for metric, unit in run.END_TO_END.items():
        if not any(row.split()[:1] == [metric] and row.split()[-1] == unit for row in table):
            problems.append(f"end-to-end metric {metric} not printed with unit {unit}")
    for metric in run.listed_metrics(False):
        if line["metrics"].get(metric, {}).get("unit") != run.END_TO_END[metric]:
            problems.append(f"result line lacks {metric} with its unit")
    if not (plain["correct"] and plain["table"]["output_ok"][0] == 1 and plain["table"]["fail_ratio"][0] == 0):
        problems.append(f"untampered run is not correct: {line}")

    sample = run.Sample(1.0, 1.0, 1.0, 1.0, output=ref, summary={"pass": 1, "fail": 0, "skip": 0})
    if run.check_outputs([sample], ref, wl.kind)[0] != 1:
        problems.append("the reference report itself did not give output_ok 1")
    if run.check_outputs([sample], "0" * 64, wl.kind)[0] != 0:
        problems.append("a tampered reference did not set output_ok to 0")

    traced = run.measure(root, name, wl, run.DEFAULT_SEED, 0, True, ref)
    table, line = emitted(name, traced, True)
    if not traced["correct"]:
        problems.append("traced report differs from the untraced one or from the reference")
    units = run.per_layer_units()
    for metric in run.listed_metrics(True):
        if line["metrics"].get(metric, {}).get("unit") != units.get(metric):
            problems.append(f"per-layer metric {metric} missing or without its unit")
    if traced["table"]["suites.trand.checks"][0] < 1 or traced["table"]["levilattice.trand_check.calls"][0] != 1:
        problems.append("spans missed the trand suite or trand_check")

    for p in problems:
        print(f"FAIL {p}")
    print(f"selftest: {'ok' if not problems else 'FAILED'} in {time.perf_counter() - t0:.2f} s")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
