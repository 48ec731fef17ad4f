"""gmcalc benchmark: cold-process workloads, end-to-end metrics and a per-layer trace.

    python3 bench/run.py --workload verify-a2 [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout root that holds ``src/gmcalc``.  Each workload process
is a fresh interpreter, one at a time (a closed loop with one client).  With
``--trace 0`` a run alternates workload processes with set-up probes, starts
no round that would end past ``--seconds`` (but makes at least two rounds),
tops up short set-up probes (see SETUP_MIN_S) and reports medians.  With ``--trace 1`` each round
runs the workload once untraced and once traced, for at least one round, and
reports the per-layer table of the traced processes.  Outputs are checked
against ``bench/reference.json``; a seed without a reference must give zero
failed checks and byte-identical reports.  The last stdout line is one JSON
object; the exit code is 0 only when every output checked out.

Times are reported in reference seconds: measured seconds scaled by how much
slower than reference the host ran meanwhile (see "Host-speed calibration").
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import SUITES, function_names, layer_table  # noqa: E402

DEFAULT_SEED = 20260810
DEFAULT_SECONDS = 20
MIN_ROUNDS = 2
# After the rounds, more set-up probes run until there are SETUP_PROBES or
# they took SETUP_MIN_S in all, so a set-up of 0.3 s gets several samples and
# one of 9 s costs no extra probe.
SETUP_PROBES = 5
SETUP_MIN_S = 3.0

# Host-speed calibration.  On the shared 2-CPU host this was tuned on, a
# fixed cold process took 2.6-6.1 s within ten minutes: each vCPU runs up to
# 2x slower in phases of seconds to minutes, steal time stays flat and the two
# vCPUs' phases are nearly uncorrelated.  So the runner and every child share
# one pinned CPU, children run at nice 19, and the runner times
# calibration_loop CAL_BEFORE times before and once every CAL_PERIOD during
# each child.  The loop then sees the host's speed, not the child's work, and
# a child's times are scaled by CAL_REF_S over the loop's median time.
CAL_REF_S = 2.0e-3  # a round figure near the loop's fastest time on that host
CAL_BEFORE = 10
CAL_PERIOD = 0.1
CHILD_NICE = 19


@dataclass(frozen=True)
class Workload:
    group: str
    kind: str  # "verify" runs `gmcalc verify`; "build" runs bench/child.py build
    suites: tuple[str, ...] = ()


WORKLOADS = {
    "verify-a2": Workload("A2", "verify", ("all",)),
    "exact-a3": Workload("A3", "verify", ("hull-limit", "trand", "tdisc", "nL-independence")),
    "build-rank4": Workload("A1xA3", "build"),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_run": "count",
    "fail_ratio": "ratio",
    "skip_ratio": "ratio",
    "output_ok": "bool",
    "raw_wall_s": "s",
    "raw_cpu_s": "s",
    "raw_setup_s": "s",
    "host_slowdown": "ratio",
}


@functools.cache
def _walk_table() -> array:
    """A 4 MB table of 1 Mi links that visit every slot once.

    It is kept small because a child's peak RSS, as wait4 reports it,
    includes the runner's own peak before the child's exec.
    """
    n = 1 << 20
    return array("i", ((i * 7917 + 1) % n for i in range(n)))


def calibration_loop() -> float:
    """Seconds a fixed piece of pure-Python work takes now on this CPU.

    Integer arithmetic, a Fraction sum and a strided walk through a table
    larger than the L2 cache, each about a third of the time.  Together
    they tracked the slowdowns of a contour-heavy and a Fraction-heavy
    workload better than any one part, or dict-and-sort work, did.
    """
    walk = _walk_table()
    t0 = time.perf_counter()
    x = 0
    for i in range(10000):
        x += i * i % 7
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i)
    j = time.perf_counter_ns() % len(walk)
    for _ in range(4000):
        j = walk[j]
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in function_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for suite in SUITES:
        units[f"suites.{suite}.s"] = "s"
        for what in ("checks", "fail", "skip"):
            units[f"suites.{suite}.{what}"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Sample:
    """One workload process: its cost and what it produced.

    ``wall`` and ``cpu`` are measured seconds; times ``scale`` they are
    reference seconds.
    """
    wall: float
    cpu: float
    rss_mb: float
    scale: float
    output: object = None  # report sha256 (verify) or structure dict (build)
    summary: dict = field(default_factory=dict)  # pass/fail/skip counts
    table: dict | None = None  # per-layer table of a traced process


class Runner:
    def __init__(self, root: Path, name: str, workload: Workload, seed: int, work: Path):
        self.root, self.name, self.wl, self.seed, self.work = root, name, workload, seed, work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"  # one pinned CPU: more threads would measure the scheduler
        self.env.pop("GMCALC_REPORT_DIR", None)
        self.config = work / "config.json"
        # the seed reaches gmcalc only as the config's seed key
        self.config.write_text(json.dumps({"seed": seed}) + "\n", encoding="utf-8")
        self.count = 0

    def _spawn(self, cmd: list[str], log: Path) -> tuple[float, float, float, int, float]:
        """Wall, user+sys CPU, peak RSS (MB), exit code and time scale of one child process.

        The scale is CAL_REF_S over the median calibration loop, timed
        CAL_BEFORE times before the child starts and once every CAL_PERIOD
        while it runs.
        """
        cal = [calibration_loop() for _ in range(CAL_BEFORE)]
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=subprocess.STDOUT,
                                    preexec_fn=lambda: os.nice(CHILD_NICE))
            try:
                exited = os.pidfd_open(proc.pid)
                try:
                    while not select.select([exited], [], [], CAL_PERIOD)[0]:
                        cal.append(calibration_loop())
                finally:
                    os.close(exited)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        scale = CAL_REF_S / statistics.median(cal)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, scale

    def _child(self, *args: str, trace: Path | None = None) -> list[str]:
        cmd = [sys.executable, str(BENCH_DIR / "child.py")]
        if trace is not None:
            cmd += ["--trace", str(trace), "--run-id", f"{self.name}-{self.seed}-{self.count}"]
        return cmd + list(args)

    def workload(self, traced: bool = False) -> Sample:
        self.count += 1
        out = self.work / f"p{self.count}"
        out.mkdir()
        trace = out / "spans.json" if traced else None
        wl = self.wl
        if wl.kind == "verify":
            gm_args = ["--config", str(self.config), "verify", "--group", wl.group, "--out", str(out)]
            for s in wl.suites:
                gm_args += ["--suite", s]
            cmd = self._child("verify", *gm_args, trace=trace) if traced else [sys.executable, "-m", "gmcalc.cli", *gm_args]
        else:
            cmd = self._child("build", "--config", str(self.config), "--group", wl.group,
                              "--result", str(out / "result.json"), trace=trace)
        wall, cpu, rss, rc, scale = self._spawn(cmd, out / "stdout.log")
        sample = Sample(wall, cpu, rss, scale)
        if wl.kind == "verify":
            report = out / f"report-{wl.group}.json"
            if rc in (0, 1) and report.exists():
                data = report.read_bytes()
                sample.output = hashlib.sha256(data).hexdigest()
                sample.summary = json.loads(data)["summary"]
        elif rc == 0:
            sample.output = json.loads((out / "result.json").read_text(encoding="utf-8"))
        if traced and trace.exists():
            table = layer_table(json.loads(trace.read_text(encoding="utf-8")))
            sample.table = {k: v * scale if k.endswith((".self_s", ".s")) else v for k, v in table.items()}
        shutil.rmtree(out)
        return sample

    def setup_probe(self) -> tuple[float, float]:
        """Wall and time scale of interpreter start, import and the group's datum, Weyl group,
        lattice, chambers and triples."""
        wall, _, _, rc, scale = self._spawn(
            self._child("setup", "--config", str(self.config), "--group", self.wl.group),
            self.work / "setup.log",
        )
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {(self.work / 'setup.log').read_text()[-2000:]}")
        return wall, scale


def check_outputs(samples: list[Sample], reference, kind: str) -> tuple[int, int, int, int]:
    """(output_ok, attempted, failed, skipped) over every process of a run.

    ``reference`` is a report sha256, a build structure, or None for a seed
    without one.

    A process that crashed counts all of its checks as failed.  Build
    workloads count one check per compared structure field.
    """
    ok = True
    outputs = [s.output for s in samples]
    if any(o is None for o in outputs) or any(o != outputs[0] for o in outputs):
        ok = False
    if reference is not None and outputs[0] != reference:
        ok = False
    if kind == "build":
        per = len(reference) if reference else max((len(o) for o in outputs if o), default=1)
        attempted = per * len(samples)
        failed = sum(
            per if o is None else sum(o.get(k) != v for k, v in (reference or o).items()) for o in outputs
        )
        return int(ok and failed == 0), attempted, failed, 0
    per = max((s.summary["pass"] + s.summary["fail"] for s in samples if s.summary), default=1)
    attempted = failed = skipped = 0
    for s in samples:
        if s.summary:
            attempted += s.summary["pass"] + s.summary["fail"]
            failed += s.summary["fail"]
            skipped += s.summary["skip"]
        else:
            attempted += per
            failed += per
    return int(ok and failed == 0), attempted, failed, skipped


def reference_for(name: str, seed: int, kind: str):
    refs = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    entry = refs.get(name, {})
    if kind == "build":
        return entry.get("structure")
    return entry.get("reports", {}).get(str(seed))


def measure(root: Path, name: str, wl: Workload, seed: int, seconds: float, trace: bool,
            reference=None, min_rounds: int | None = None, setup_probes: int = SETUP_PROBES) -> dict:
    """Run one benchmark run; returns {"correct", "attempted", "failed", "table", "note"}.

    An untraced run needs two rounds to compare reports; a traced round
    already holds two processes.
    """
    if min_rounds is None:
        min_rounds = 1 if trace else MIN_ROUNDS
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, name, wl, seed, work)
        plain: list[Sample] = []
        traced: list[Sample] = []
        setups: list[tuple[float, float]] = []
        t0 = time.perf_counter()
        rounds = 0
        # stop before a round that would end past `seconds`
        while rounds < min_rounds or (time.perf_counter() - t0) * (rounds + 1) / rounds <= seconds:
            plain.append(runner.workload())
            if trace:
                traced.append(runner.workload(traced=True))
            else:
                setups.append(runner.setup_probe())
            rounds += 1
        while not trace and len(setups) < setup_probes and sum(w for w, _ in setups) < SETUP_MIN_S:
            setups.append(runner.setup_probe())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    output_ok, attempted, failed, skipped = check_outputs(plain + traced, reference, wl.kind)
    if not trace:
        metrics = {
            "wall_s": statistics.median(s.wall * s.scale for s in plain),
            "cpu_s": statistics.median(s.cpu * s.scale for s in plain),
            "setup_s": statistics.median(w * scale for w, scale in setups),
            "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
            "checks_run": attempted // len(plain),
            "fail_ratio": failed / attempted,
            "skip_ratio": skipped / (attempted + skipped),
            "output_ok": output_ok,
            "raw_wall_s": statistics.median(s.wall for s in plain),
            "raw_cpu_s": statistics.median(s.cpu for s in plain),
            "raw_setup_s": statistics.median(w for w, _ in setups),
            "host_slowdown": statistics.median(1 / s.scale for s in plain),
        }
        units = END_TO_END
        note = (f"{len(plain)} workload processes, measured wall s / slowdown:"
                f" {' '.join(f'{s.wall:.3f}/{1 / s.scale:.3f}' for s in plain)};"
                f" {len(setups)} set-up probes: {' '.join(f'{w:.3f}/{1 / scale:.3f}' for w, scale in setups)}")
    else:
        tables = [s.table for s in traced]
        if any(t is None for t in tables):
            output_ok = 0
            tables = [t for t in tables if t is not None] or [layer_table({"spans": [], "counters": {}})]
        counts = [{k: v for k, v in t.items() if not k.endswith("_s") and not k.endswith(".s")} for t in tables]
        if any(c != counts[0] for c in counts):
            output_ok = 0  # call counts must repeat exactly
        metrics = {k: statistics.median(t[k] for t in tables) for k in tables[0]}
        metrics["trace.overhead_ratio"] = (
            statistics.median(s.wall * s.scale for s in traced) / statistics.median(s.wall * s.scale for s in plain)
        )
        units = per_layer_units()
        note = f"{len(traced)} traced and {len(plain)} untraced workload processes"
    table = {k: (metrics[k], units[k]) for k in units}
    return {
        "correct": bool(output_ok) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "table": table,
        "note": note,
    }


def byte_compile(root: Path) -> None:
    """Compile src/ and bench/ up front so no timed process pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(BENCH_DIR)],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)


def listed_metrics(trace: bool) -> list[str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def emit(name: str, result: dict, listed: list[str]) -> None:
    print(f"# {name}: {result['note']}")
    for metric, (value, unit) in result["table"].items():
        print(f"{metric:48s} {value:>16.6g} {unit}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["table"][m][0], "unit": result["table"][m][1]} for m in listed},
    }
    print(json.dumps(line))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()

    root = Path.cwd()
    if not (root / "src" / "gmcalc" / "__init__.py").is_file():
        print("error: run from a gmcalc checkout root (src/gmcalc not found)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    byte_compile(root)
    result = measure(root, args.workload, wl, args.seed, args.seconds, bool(args.trace),
                     reference_for(args.workload, args.seed, wl.kind))
    emit(args.workload, result, listed_metrics(bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
