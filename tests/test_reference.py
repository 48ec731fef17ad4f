"""Outputs pinned to the benchmark's reference file (read, never written), and two more float reports.

The exact-a3 report and the A1xA3 build structure are exact: every A3
residual of those suites is 0.0 or null, and the build fields are counts
and digests of labels.  The verify-a2 report carries float residuals, so
its sha pins every float bit of the A2 suites, the contour quadrature
included.

The A1xA1 and B2 report shas are not in the benchmark's reference file:
they are the canonical ``verify --suite all`` shas with the default config
recorded in CHANGES.md.  They pin the float path on a product group, and
on B2's 90 computed ``lemma-shift`` cases.  The A1xA3 and G2
``verify --suite hull-limit`` shas, also from CHANGES.md, pin the exact
hull volumes of 4-d hulls and of twelve-chamber hulls.  The G2 and A1xA3
``verify --suite tdisc --suite tempext`` shas pin the order of each class's
modeled stabilizer (``TauClass.core``), which sets the summation order of
the float sums of ``tempext``, on rank 2 and on rank 4.  Two A2 ``verify --suite residue-1d`` shas
pin the 1-d route's bits beyond the default config, and two
``verify --suite lemma-shift`` shas, on A2 and B2, pin the flat test
function's c1 and c2 terms.  The A3 ``verify --suite lemma-shift --suite
tempext`` sha pins a rank-3 contour-shift run, and the G2 ``verify --suite
lemma-shift`` sha the G2 grids, which no other pin in this file reads.

The ``verify --suite examples`` shas on G2, C2, A3 and A1xA3, the
``describe`` stdout on A2, G2 and A1xA3 and the ``eval`` stdout of eight
expressions pin what the exact kernels print that no report above reads:
coroots, theta's covolumes, Weyl-moved points and pairings with complex
points.

The benchmark's own self-test runs here too: it is the one check that the
package still runs the benchmark's traced path and its tampered-reference
gate.

The benchmark runs with ``PYTHONHASHSEED=0``, and a user's run has a random
seed, which orders every set of strings, and of objects hashed through
strings, differently: the exact-a3 and verify-a2 reports are compared
across two hash seeds.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gmcalc.cli import main as cli_main
from gmcalc.levilattice import levi_lattice, parabolics, weyl_cosets
from gmcalc.rootdatum import build_root_system, weyl_group
from gmcalc.spectral import enumerate_spectral_triples, tau_class

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text(encoding="utf-8")
)
DEFAULT_SEED = "20260810"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_a3_report_matches_reference(tmp_path):
    suites = ["hull-limit", "trand", "tdisc", "nL-independence"]
    args = ["verify", "--group", "A3", "--out", str(tmp_path)]
    for s in suites:
        args += ["--suite", s]
    assert cli_main(args) == 0
    data = (tmp_path / "report-A3.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == REFERENCE["exact-a3"]["reports"][DEFAULT_SEED]


def test_verify_a2_report_matches_reference(tmp_path):
    assert cli_main(["verify", "--group", "A2", "--suite", "all", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "report-A2.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == REFERENCE["verify-a2"]["reports"][DEFAULT_SEED]


# canonical verify --suite all report shas with the default config, from CHANGES.md
FLOAT_REPORTS = {
    "A1xA1": "99b679ee08602b02363cce349aa275712b56b0a23c79db5a6e0b02cbbfc83ba2",
    "B2": "729054cf6c0c547233cb21e9fa6f11022ee8124c193615939b396b8a8c0b8c34",
}


@pytest.mark.parametrize("group", sorted(FLOAT_REPORTS))
def test_float_report_matches_pinned_sha(tmp_path, group):
    assert cli_main(["verify", "--group", group, "--suite", "all", "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"report-{group}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FLOAT_REPORTS[group]


# canonical verify --suite hull-limit report shas with the default config, from CHANGES.md: exact-a3
# reaches no 4-d hull (A1xA3) and no hull of G2's twelve chambers
HULL_REPORTS = {
    "A1xA3": "f1da12f41410afb3d2cea5bf9e1c7c07d4214b02529f5e814bb28a34a8940648",
    "G2": "cdc81f586c961f6c04e3d11217d57ce5ff66783af6c8f1d47bcd5194fceb98d3",
}


@pytest.mark.parametrize("group", sorted(HULL_REPORTS))
def test_hull_report_matches_pinned_sha(tmp_path, group):
    assert cli_main(["verify", "--group", group, "--suite", "hull-limit", "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"report-{group}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == HULL_REPORTS[group]


# the canonical G2 verify --suite tdisc --suite tempext report sha with the default config
TEMPEXT_G2 = "d76746d6c8bd12cb4c40f4462494aabd275b374bba2e6ab0702b97a9ab07ffc6"


def test_tdisc_tempext_report_matches_pinned_sha(tmp_path):
    args = ["verify", "--group", "G2", "--suite", "tdisc", "--suite", "tempext", "--out", str(tmp_path)]
    assert cli_main(args) == 0
    assert hashlib.sha256((tmp_path / "report-G2.json").read_bytes()).hexdigest() == TEMPEXT_G2


# the same suites on A1xA3: the one rank-4 pin of the core order that tempext's sums read
TEMPEXT_A1XA3 = "63a585691e167ebec44b75ec1b85edd530013b272546630029f53478fe02b5c0"


def test_rank4_tdisc_tempext_report_matches_pinned_sha(tmp_path):
    args = ["verify", "--group", "A1xA3", "--suite", "tdisc", "--suite", "tempext", "--out", str(tmp_path)]
    assert cli_main(args) == 0
    assert hashlib.sha256((tmp_path / "report-A1xA3.json").read_bytes()).hexdigest() == TEMPEXT_A1XA3


# canonical A2 verify --suite residue-1d report shas with two non-default 1-d configs: a density with
# an analytic part that is not odd, and shifts four to six times the default
RESIDUE_1D_REPORTS = [
    (
        {"m_model": {"kind": "pole_plus_rational", "p": ["1", "1"], "q": ["-4", "0", "1"]}},
        "6445ca084ea8799bb1204acbf119e050fd2af022ecc3c3520fa5a60834beccf9",
    ),
    (
        {"m_model": {"kind": "pole"}, "epsilons": [0.2, 0.3]},
        "3ded006ab5e5ee87cbe4fa2803f1b4d9579a4f5d0bdb0c4f6443577ca0838d32",
    ),
]


@pytest.mark.parametrize("config, sha", RESIDUE_1D_REPORTS)
def test_residue_1d_report_matches_pinned_sha(tmp_path, config, sha):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["--config", str(cfg), "verify", "--group", "A2", "--suite", "residue-1d", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "report-A2.json").read_bytes()).hexdigest() == sha


# canonical verify --suite lemma-shift report shas with a flat test function whose c1 and c2 terms
# are nonzero, which the default config leaves at zero
FLAT_PHI = {"flat_phi": [{"c0": 1.0, "c1": 0.3, "c2": 0.1, "scale": 0.5}]}
LEMMA_SHIFT_PHI_REPORTS = {
    "A2": "8e833afd9d26fcffe677a584b1b4665d485e7719d92a8db3a5d9eaf884f99b26",
    "B2": "f1d1379e44a7b2ee18a783f0a59fef482120dd10d21c3d2c1b060dee92e04842",
}


@pytest.mark.parametrize("group", sorted(LEMMA_SHIFT_PHI_REPORTS))
def test_lemma_shift_flat_phi_report_matches_pinned_sha(tmp_path, group):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FLAT_PHI), encoding="utf-8")
    assert cli_main(["--config", str(cfg), "verify", "--group", group, "--suite", "lemma-shift", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / f"report-{group}.json").read_bytes()).hexdigest() == LEMMA_SHIFT_PHI_REPORTS[group]


# the canonical A3 verify --suite lemma-shift --suite tempext report sha with the default config: the
# one rank-3 lemma-shift run, whose cases plan 0-dimensional flats
LEMMA_SHIFT_A3 = "85293cd34a4f06b53d416f3ffa78ddb127378f109de0310b96cb0ef40f951825"


def test_lemma_shift_a3_report_matches_pinned_sha(tmp_path):
    args = ["verify", "--group", "A3", "--suite", "lemma-shift", "--suite", "tempext", "--out", str(tmp_path)]
    assert cli_main(args) == 0
    assert hashlib.sha256((tmp_path / "report-A3.json").read_bytes()).hexdigest() == LEMMA_SHIFT_A3


# the canonical G2 verify --suite lemma-shift report sha with the default config: nine grids with two
# pole axes (B2 has six) and one that carries 78 distinct m-term sums (B2's most is 32)
LEMMA_SHIFT_G2 = "3bf4f82be2610bca9d34b2205b6299220a0462bf019c19e219db3becc1897844"


def test_lemma_shift_g2_report_matches_pinned_sha(tmp_path):
    assert cli_main(["verify", "--group", "G2", "--suite", "lemma-shift", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "report-G2.json").read_bytes()).hexdigest() == LEMMA_SHIFT_G2


def test_rank4_build_structure_matches_reference():
    d = build_root_system("A1xA3")
    levis = levi_lattice(d)
    triples = enumerate_spectral_triples(d)
    got = {
        "W": len(weyl_group(d)),
        "levis": len(levis),
        "chambers": sum(len(parabolics(L)) for L in levis),
        "triples": len(triples),
        "cosets": sum(len(weyl_cosets(L)) for L in levis),
        "levi_labels_sha256": _sha("\n".join(L.label for L in levis)),
        "tau_homes_sha256": _sha("\n".join(tau_class(t).levi_L.label for t in triples)),
    }
    assert got == REFERENCE["build-rank4"]["structure"]


# the exact-a3 and verify-a2 workloads, run as the benchmark runs them but for the hash seed
HASH_SEED_RUNS = {
    "A2": ["--suite", "all"],
    "A3": ["--suite", "hull-limit", "--suite", "trand", "--suite", "tdisc", "--suite", "nL-independence"],
}


@pytest.mark.parametrize("group", sorted(HASH_SEED_RUNS))
def test_report_does_not_depend_on_the_hash_seed(tmp_path, group):
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = {}
    for seed in ("0", "1"):
        argv = [sys.executable, "-m", "gmcalc.cli", "verify", "--group", group, *HASH_SEED_RUNS[group],
                "--out", str(tmp_path / seed)]
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        procs[seed] = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    for proc in procs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    first, second = ((tmp_path / seed / f"report-{group}.json").read_bytes() for seed in procs)
    assert first == second


# canonical verify --suite examples report shas with the default config: the multipliers, Weyl
# denominators and coefficient formulas on rank 2 to 4, which read Weyl actions and complex pairings
EXAMPLES_REPORTS = {
    "A1xA3": "3519103248be636887e16eb28f977afea59e28875c43434d4422039dd03136ea",
    "A3": "254aa908e1faf16a06c2b9f5bb53ad23e64140cfb4783c7a1610f40e8094ab3e",
    "C2": "d10e8b01d9b1ca7a5f54c61f9fcafcfa123f7e0dd9dc0bd9cb51fe4778154300",
    "G2": "bbb4150c8b6252b6f012c9f96de7a3268fb514c381bcfc59a20432c12fbce8ea",
}


@pytest.mark.parametrize("group", sorted(EXAMPLES_REPORTS))
def test_examples_report_matches_pinned_sha(tmp_path, group):
    assert cli_main(["verify", "--group", group, "--suite", "examples", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / f"report-{group}.json").read_bytes()).hexdigest() == EXAMPLES_REPORTS[group]


# the stdout of describe: the form, the roots with their coroots and the Levi lattice
DESCRIBE_OUTPUTS = {
    "A1xA3": "63bcc40474a536dd6d27c12bc225a244598ba0a9e1288112e0d1b23f8cbaf17a",
    "A2": "28b7cd0349033770b7972df441b91950d47668be2a082b84b6377a3a242e16b1",
    "G2": "927a89413ebe5c4e065bd859888ad45cbefc0865156b604f9c4f223a7b27f408",
}


@pytest.mark.parametrize("group", sorted(DESCRIBE_OUTPUTS))
def test_describe_output_matches_pinned_sha(capsys, group):
    assert cli_main(["describe", "--group", group]) == 0
    assert _sha(capsys.readouterr().out) == DESCRIBE_OUTPUTS[group]


# the stdout of eval: covolumes and products of theta, splitting constants, n^L and k^L, multipliers
# over Weyl-moved points, Weyl denominators and coefficients at complex points, and formal expansions
EVAL_OUTPUTS = [
    ("G2", "theta", {"M": "M0", "chamber": 3, "lambda": ["1/2", "-3"]},
     "75d71d0ccac75b2f1c840073f8df5e9f888a4d33a2eb5caeab947012e2622ec4"),
    ("A3", "theta", {"M": "L7.11", "chamber": 1, "lambda": ["1/2", "-3", "2/7"]},
     "60d5fb60bb75c20400aab7e6b8bd6fa9642d4ee84278d8e94f80c893ddf458d4"),
    ("G2", "d", {"L1": "M0", "L": "L11", "S": "L10"},
     "7b86b56c8fb23cd0db74926f23fa48be83c3d091dde0f52d5e63cb5350e0b9c9"),
    ("A3", "d", {"L1": "M0", "L": "L11", "S": "L8.10"},
     "071da65ddc724b0d99978e08a797e3c86d4b9dc801c651c99d2c0a1c60faa211"),
    ("A2", "nL", {"sigma_roots": [0, 1, 2, 3, 4, 5], "L": "G"},
     "938d589caf4fa6a91afed7cf066149c7788829f5e716ee15759d3a47535a5542"),
    ("B2", "kL", {"sigma_roots": [0, 7], "L": "G"},
     "c6713e732325363227e6ecccdef500d3b50abe0dc97c6a9a09e5e272d3ef1bf2"),
    ("G2", "alpha_X", {"M1": "M0", "nu": ["1/3", "2"], "X": ["1", "-1/2"]},
     "75ad25a26f5fc9fdffd8c850ee067d2d08b193fdad1148111f3b3bb20caa4b5b"),
    ("G2", "alpha_X", {"M1": "L11", "nu": ["1/3", "2"], "X": ["1", "-1/2"]},
     "96f8ad0f088f32d1edb2747bb7cfb80a526393bba3482e9f87484b0bcad5b41f"),
    ("G2", "delta_Sigma", {"Y": [[0.1, 0.2], [0.3, -0.4]]},
     "21e1c06a4ebbfb5ca753692d77c7bc99c322925db491141243a22508dee49f70"),
    ("A2", "c_coeff", {"sigma_roots": [0, 1, 2, 3, 4, 5], "w_word": [0, 1], "L": "M0", "M": "M0", "P": 2, "u": [0, 1]},
     "875bca5562c9e4b2ca6946adf56555bd5b33fc89edcec13c934d0cc6919833de"),
    ("G2", "c_coeff", {"sigma_roots": [0, 11], "w_word": [0, 1, 0], "L": "M0", "M": "M0", "P": 3, "u": [0, -1]},
     "d54e56513b4ac16a5a301dce54aed77867f9adbe994d7f7c649401846dac2432"),
    ("A2", "phi_TT", {"sigma_roots": [0, 5], "mu": ["1/2", "1/3"], "P": 1},
     "b38228468d0f55144b92ec9f341415c0505ee7a37f2f7dff8e32c515094215db"),
    ("G2", "phi_TT", {"sigma_roots": [0, 11], "mu": ["1/2", "1/5"], "P": 1},
     "f001a8d93766ff6e25b72dbfceeed35363bedf3236c231e8a3485cb4403bd958"),
]


@pytest.mark.parametrize("group, expr, args, sha", EVAL_OUTPUTS, ids=[f"{g}-{e}-{k}" for k, (g, e, _, _) in enumerate(EVAL_OUTPUTS)])
def test_eval_output_matches_pinned_sha(capsys, group, expr, args, sha):
    assert cli_main(["eval", "--group", group, "--expr", expr, "--args", json.dumps(args)]) == 0
    assert _sha(capsys.readouterr().out) == sha


def test_benchmark_selftest_passes():
    """The benchmark's self-test, run from the repository root as its docstring says: every metric printed
    with its unit, the traced report byte-identical to the untraced one, and a tampered reference failing."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert any(line.startswith("selftest: ok") for line in proc.stdout.splitlines()), proc.stdout
