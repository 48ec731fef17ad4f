"""Outputs pinned to the benchmark's reference file (read, never written).

The exact-a3 report and the A1xA3 build structure are exact: every A3
residual of those suites is 0.0 or null, and the build fields are counts
and digests of labels.  The verify-a2 report carries float residuals, so
its sha pins every float bit of the A2 suites, the contour quadrature
included.
"""
import hashlib
import json
from pathlib import Path

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
