import contextlib
import json
import os
import pstats
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from gmcalc import cli
from gmcalc.cli import EXPRESSIONS, main
from gmcalc.config import load_config
from gmcalc.errors import ConfigError


def test_describe_exit_zero(capsys):
    assert main(["describe", "--group", "A1"]) == 0
    out = capsys.readouterr().out
    assert "Weyl order 2" in out
    assert "M0" in out and "G" in out


def test_describe_unknown_group(capsys):
    assert main(["describe", "--group", "E8"]) == 2


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"group": "A1", "frobnicate": 1}))
    with pytest.raises(ConfigError):
        load_config(path=p)


def test_config_unknown_suite(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suites": ["definitely-not-a-suite"]}))
    with pytest.raises(ConfigError):
        load_config(path=p)


def test_verify_partial_tolerances_merge_with_defaults(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"tolerances": {"lemma_shift": 1e-4}}))
    code = main(["--config", str(p), "verify", "--group", "A1", "--suite", "residue-1d",
                 "--out", str(tmp_path / "r")])
    assert code == 0
    assert load_config(path=p).tolerances["residue_1d"] == 1e-6


@pytest.mark.parametrize("tolerances", [{"lemma_shfit": 1e-4}, {"residue_1d": "x"}, [1e-4]])
def test_config_rejects_bad_tolerances(tmp_path, tolerances):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"tolerances": tolerances}))
    with pytest.raises(ConfigError):
        load_config(path=p)
    assert main(["--config", str(p), "verify", "--group", "A1"]) == 2


def test_verify_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"nope": True}))
    assert main(["--config", str(p), "verify", "--group", "A1"]) == 2


def test_verify_empty_suite_list_is_empty_report(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"group": "A1", "suites": []}))
    out = tmp_path / "reports"
    code = main(["--config", str(cfgp), "verify", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "report-A1.json").read_text())
    assert data["checks"] == []
    assert data["summary"] == {"pass": 0, "fail": 0, "skip": 0}


def test_verify_trand_a2_report_contents(tmp_path):
    out = tmp_path / "r"
    code = main(["verify", "--group", "A2", "--suite", "trand", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "report-A2.json").read_text())
    assert data["schema"] == "gmcalc-report-v1"
    assert data["group"] == "A2"
    assert data["gram"] == [["2", "-1"], ["-1", "2"]]
    assert "epsilons" in data["numerics"] and "delta_ladder" in data["numerics"]
    checks = data["checks"]
    # one record per composition-identity instance, each carrying both squares
    assert len(checks) == 79
    for c in checks:
        assert c["status"] == "pass"
        assert "anchor" in c and "inputs" in c
        assert "lhs_sq=" in c["detail"] and "rhs_sq=" in c["detail"]
        # timing lives in the sidecar, not the canonical report
        assert "runtime" not in c
    assert (out / "report-A2.timing.json").exists()


REPORT_SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "report.schema.json"


@pytest.mark.parametrize(
    "group, suites", [("A2", ["all"]), ("A3", ["hull-limit", "trand", "tdisc", "nL-independence"])]
)
def test_canonical_report_validates_against_the_report_schema(tmp_path, group, suites):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(REPORT_SCHEMA_PATH.read_text(encoding="utf-8"))
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    argv = ["verify", "--group", group, "--out", str(tmp_path)]
    for suite in suites:
        argv += ["--suite", suite]
    assert main(argv) == 0
    report = json.loads((tmp_path / f"report-{group}.json").read_text(encoding="utf-8"))
    assert report["checks"]
    validator(schema).validate(report)
    # every record's runtime reaches the sidecar: the time its suite took to yield it, or a batch's share
    runtimes = json.loads((tmp_path / f"report-{group}.timing.json").read_text(encoding="utf-8"))["runtimes"]
    assert set(runtimes) == {c["id"] for c in report["checks"]}
    assert all(rt > 0 for rt in runtimes.values())


def test_verify_env_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv("GMCALC_REPORT_DIR", str(target))
    assert main(["verify", "--group", "A1", "--suite", "trand"]) == 0
    assert (target / "report-A1.json").exists()


def test_eval_d_trivial(capsys):
    code = main(["eval", "--group", "A2", "--expr", "d", "--args", '{"L1":"M0","L":"M0","S":"G"}'])
    assert code == 0
    out = capsys.readouterr().out
    assert "value: 1" in out
    assert "gram:" in out  # provenance block


def test_eval_alpha_zero(capsys):
    code = main(["eval", "--group", "A2", "--expr", "alpha_X", "--args", '{"nu":[0,0],"X":[0,0]}'])
    assert code == 0
    assert "value: 1.0+0.0j" in capsys.readouterr().out


def test_eval_nl_a1_elliptic(capsys):
    args = json.dumps({"sigma_roots": [0, 1], "L": "G"})
    code = main(["eval", "--group", "A1", "--expr", "nL", "--args", args])
    assert code == 0
    assert "value: 1/2" in capsys.readouterr().out


def test_eval_unknown_expr_exit_2():
    with pytest.raises(SystemExit):
        main(["eval", "--group", "A1", "--expr", "nonsense"])


def test_eval_bad_args_exit_2(capsys):
    assert main(["eval", "--group", "A1", "--expr", "d", "--args", "{not json"]) == 2
    assert main(["eval", "--group", "A1", "--expr", "d", "--args", '{"L1":"M0"}']) == 2


@pytest.mark.parametrize(
    "expr, args",
    [
        ("eps_M", "[]"),
        ("eps_M", "5"),
        ("nL", '{"sigma_roots": "x"}'),
        ("nL", '{"sigma_roots": 5}'),
        ("nL", '{"sigma_roots": [0, 1], "r_word": [true]}'),
        ("eps_M", '{"word": "x"}'),
        ("eps_M", '{"word": [9]}'),
        ("eps_M", '{"word": [-1]}'),
        ("eps_M", '{"word": [true]}'),
        ("eps_M", '{"word": [0.0]}'),
    ],
)
def test_eval_rejects_malformed_args(capsys, expr, args):
    # once a traceback (exit 1), or for -1 and true a silent value from the wrong reflection
    assert main(["eval", "--group", "A1", "--expr", expr, "--args", args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        code = main(["verify", "--group", "A1", "--suite", "trand", "--suite", "examples", "--out", str(out)])
        assert code == 0
    b1 = (out1 / "report-A1.json").read_bytes()
    b2 = (out2 / "report-A1.json").read_bytes()
    assert b1 == b2


# per expression: a group, arguments it evaluates, and a misspelt key
MISSPELT = {
    "theta": ("A1", {"M": "M0", "chamber": 0, "lambda": ["1/2"]}, "lamda"),
    "d": ("A2", {"L1": "M0", "L": "M0", "S": "G"}, "L2"),
    "n_beta": ("A1", {"sigma_roots": [0, 1], "beta": ["1"]}, "sigma_root"),
    "nL": ("A1", {"L": "G"}, "sigma_root"),
    "kL": ("A1", {"sigma_roots": [0, 1], "L": "G"}, "r_words"),
    "alpha_X": ("A2", {"nu": [0, 0], "X": [0, 0]}, "M"),
    "eps_M": ("A2", {"word": [0]}, "sigmas"),
    "delta_Sigma": ("A2", {"sigma": [], "Y": [[0.1, 0.2], [0.0, 0.3]]}, "y"),
    "c_coeff": ("A2", {"sigma_roots": [0, 1, 2, 3, 4, 5], "L": "M0", "M": "M0"}, "w"),
    "phi_TT": ("A1", {"sigma_roots": [0, 1], "mu": ["1/2"]}, "Mu"),
}


def test_every_expression_has_a_misspelt_key_case():
    assert set(MISSPELT) == set(EXPRESSIONS)


@pytest.mark.parametrize("expr", sorted(MISSPELT))
def test_eval_rejects_a_misspelt_key(capsys, expr):
    # once a misspelt key fell back to its default: nL on A1 with "sigma_root" printed "value: 0"
    group, args, key = MISSPELT[expr]
    assert main(["eval", "--group", group, "--expr", expr, "--args", json.dumps(args)]) == 0
    capsys.readouterr()
    assert main(["eval", "--group", group, "--expr", expr, "--args", json.dumps(dict(args, **{key: [0, 1]}))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(key) in captured.err


def test_eval_theta(capsys):
    code = main(["eval", "--group", "A1", "--expr", "theta",
                 "--args", json.dumps({"M": "M0", "chamber": 0, "lambda": ["1/2"]})])
    assert code == 0
    out = capsys.readouterr().out
    assert "product:" in out and "covol_sq: 2" in out


def test_eval_theta_on_g_is_one(capsys):
    # G's one chamber has no walls: the empty product over covolume 1
    code = main(["eval", "--group", "A2", "--expr", "theta",
                 "--args", json.dumps({"M": "G", "chamber": 0, "lambda": ["1/2", "-3"]})])
    assert code == 0
    out = capsys.readouterr().out
    assert "product: 1\n" in out and "covol_sq: 1\n" in out and "value: 1.0\n" in out


def test_eval_n_beta(capsys):
    args = json.dumps({"sigma_roots": [0, 1], "beta": ["1"]})
    assert main(["eval", "--group", "A1", "--expr", "n_beta", "--args", args]) == 0
    assert "value: 1" in capsys.readouterr().out


def test_eval_kl(capsys):
    args = json.dumps({"sigma_roots": [0, 1], "L": "G"})
    assert main(["eval", "--group", "A1", "--expr", "kL", "--args", args]) == 0
    assert "value: 1" in capsys.readouterr().out


def test_eval_eps_m(capsys):
    assert main(["eval", "--group", "A2", "--expr", "eps_M", "--args", json.dumps({"word": [0]})]) == 0
    assert "value: -1" in capsys.readouterr().out


def test_eval_delta_sigma(capsys):
    args = json.dumps({"sigma": [], "Y": [[0.1, 0.2], [0.0, 0.3]]})
    assert main(["eval", "--group", "A2", "--expr", "delta_Sigma", "--args", args]) == 0
    assert "value: 1.0+0.0j" in capsys.readouterr().out


def test_eval_c_coeff_runs(capsys):
    args = json.dumps({"sigma_roots": [0, 1, 2, 3, 4, 5], "L": "M0", "M": "M0"})
    assert main(["eval", "--group", "A2", "--expr", "c_coeff", "--args", args]) == 0
    assert "value:" in capsys.readouterr().out


def test_eval_phi_tt(capsys):
    args = json.dumps({"sigma_roots": [0, 1], "mu": ["1/2"]})
    assert main(["eval", "--group", "A1", "--expr", "phi_TT", "--args", args]) == 0
    out = capsys.readouterr().out
    assert "terms: 4" in out and "psi_tag" in out


SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "gmcalc" / "config.schema.json"

# each of these once hung the contour quadrature, crashed with a traceback or passed vacuously
BAD_NUMERICS = [
    {"epsilons": [0.0, 0.1]},
    {"epsilons": [-0.05, 0.1]},
    {"epsilons": [0.1]},
    {"epsilons": []},
    {"epsilons": ["0.1", 0.2]},
    {"delta_ladder": [0.1, 0.01, 0.0]},
    {"delta_ladder": [0.1]},
    {"delta_ladder": []},
    {"flat_phi": []},
    {"flat_phi": [{"c0": 1.0, "c1": 0.0, "c2": 0.0, "scale": -1.0}]},
    {"flat_phi": [{"c0": 1.0, "c1": 0.0, "c2": 0.0}]},
    {"test_functions": []},
    {"test_functions": [{"poly": ["1"]}]},
    {"m_model": "x"},
    {"m_model": {"kind": "nope"}},
    {"hull_samples": "abc"},
    {"seed": "abc"},
    {"growth_threshold": "abc"},
    {"tempext_deltas": []},
    {"hull_samples": -1},
    {"hull_samples": 0},
    {"hull_samples": 2.7},
    {"tempext_deltas": [0.01]},
]

# bad inputs the schema cannot express: rational literals, c <= 0, equal deltas
BAD_VALUES = [
    {"test_functions": [{"poly": ["x"], "scale": "1"}]},
    {"test_functions": [{"poly": ["1"], "scale": "x"}]},
    {"m_model": {"kind": "model_plancherel", "c": "-1"}},
    {"r_model": {"kind": "model_plancherel", "c": "abc"}},
    {"gram": [["a", "-1"], ["-1", "2"]]},
    {"tempext_deltas": [0.01, 0.01]},
    {"test_functions": [{"poly": ["1", "x"], "scale": "1"}]},
    # equal deltas ended in a LinAlgError traceback, rising ones in false fails
    {"delta_ladder": [0.1, 0.1]},
    {"delta_ladder": [0.001, 0.1]},
    # a zero denominator ended in a ZeroDivisionError traceback
    {"m_model": {"kind": "pole_plus_rational", "p": ["1"], "q": ["0"]}},
    {"r_model": {"kind": "pole_plus_rational", "p": ["1"], "q": []}},
    {"m_model": {"kind": "pole_plus_rational", "p": ["1"]}},
    # q with zeros on the imaginary axis (at +-i, at 0, at +-2i) loaded and ended in failing records
    {"m_model": {"kind": "pole_plus_rational", "p": ["1"], "q": ["1", "0", "1"]}},
    {"r_model": {"kind": "pole_plus_rational", "p": ["1"], "q": ["0", "1"]}},
    {"m_model": {"kind": "pole_plus_rational", "p": ["1", "1"], "q": ["4", "0", "1"]}},
    # zero test data made every compared side 0: a vacuous pass
    {"test_functions": [{"poly": [], "scale": "1"}]},
    {"test_functions": [{"poly": ["0", "0"], "scale": "1"}]},
    {"flat_phi": [{"c0": 0, "c1": 0.0, "c2": 0, "scale": 1.0}]},
    # 1e999 reads as inf, which passed every check
    {"tolerances": {"lemma_shift": float("inf")}},
    {"epsilons": [float("inf"), 0.1]},
    # an OverflowError and a LinAlgError traceback, then 18 failing records: deltas outside [1e-12, cutoff)
    {"delta_ladder": [1e300, 1e-300, 1e-310]},
    {"delta_ladder": [0.5, 1e-300, 1e-310]},
    {"delta_ladder": [20, 10, 9]},
    # an epsilon below the pole-hit radius refined the shifted grids without end
    {"epsilons": [1e-300, 0.1]},
    {"epsilons": [0.05, 9.9e-13]},
]

# scales below 1/16 push the tail cutoff 8/sqrt(scale) past 32; 1e-300 added unit panels until memory ran out,
# so these are loaded only, never run
BAD_SCALES = [
    {"flat_phi": [{"c0": 1.0, "c1": 0.0, "c2": 0.0, "scale": 1e-300}]},
    {"flat_phi": [{"c0": 1.0, "c1": 0.0, "c2": 0.0, "scale": 0.06}]},
    {"test_functions": [{"poly": ["1"], "scale": "1e-300"}]},
    {"test_functions": [{"poly": ["1"], "scale": "1/17"}]},
]

# once accepted by load_config although the schema rejects them
BAD_SHAPES = [
    {"output_dir": 5},
    {"m_model": {"kind": "model_plancherel", "junk": 3}},
    {"m_model": {"kind": "pole_plus_rational", "p": ["1"], "q": ["0", "1"], "poles": [{"im": "0", "junk": 1}]}},
    # the rational kind, which dropped the ray's multiplicity, is gone
    {"m_model": {"kind": "rational", "p": ["1"], "q": ["0", "1"]}},
    {"tolerances": {"lemma_shift": 0}},
    {"tolerances": {"pv_zero": -1e-8}},
]


class _NoExit(BaseException):
    """Raised by the alarm; a BaseException, so no error handler of the CLI can catch it."""


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Fail instead of hanging tier-1 when a run does not end within the limit."""

    def expire(signum, frame):
        raise _NoExit

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except _NoExit:
        pytest.fail(f"no exit within {seconds} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _verify_argv(tmp_path, bad) -> list[str]:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(bad))
    return ["--config", str(p), "verify", "--group", "A1", "--suite", "lemma-shift", "--out", str(tmp_path / "r")]


@pytest.mark.parametrize("bad", BAD_NUMERICS + BAD_VALUES + BAD_SHAPES)
def test_verify_bad_numerics_exit_2_with_one_line(tmp_path, capsys, bad):
    # in-process: an uncaught exception fails the test as a traceback would
    with _time_limit(60):
        code = main(_verify_argv(tmp_path, bad))
    err = capsys.readouterr().err
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("epsilons", [[0.45, 0.5], [0.5, 1], [1e6, 2e6]])
def test_epsilons_onto_or_past_a_real_pole_exit_2_with_one_line(tmp_path, capsys, epsilons):
    # these once ended in 19 or 38 false fails on A2: the shifted contours reached the real poles +-1 and +-2 of
    # the default densities, model_plancherel with c = 1 and 4, at chamber pairings up to 2 in size
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"epsilons": epsilons}))
    code = main(["--config", str(p), "verify", "--group", "A2", "--suite", "lemma-shift", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: epsilons must keep"), err
    assert not (tmp_path / "r" / "report-A2.json").exists()


def test_epsilons_short_of_every_real_pole_pass(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"epsilons": [0.4, 0.45]}))
    assert main(["--config", str(p), "verify", "--group", "A2", "--suite", "lemma-shift", "--out", str(tmp_path)]) == 0
    assert "summary: 38 pass, 0 fail, 8 skip" in capsys.readouterr().out


RATIONAL_POLES_AT_2 = {"kind": "pole_plus_rational", "p": ["1"], "q": ["-4", "0", "1"]}


@pytest.mark.parametrize("cfg", [
    # the first two once failed 12 of A1's 33 records: the line Re z = -epsilons[0] reached the default
    # density's real pole at -1 (model_plancherel with c = 1)
    {"epsilons": [1.0, 1.5]},
    {"epsilons": [1.5, 2]},
    {"epsilons": [2.5, 3], "m_model": RATIONAL_POLES_AT_2},
])
def test_residue_1d_line_onto_or_past_a_real_pole_exits_2_with_one_line(tmp_path, capsys, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["--config", str(p), "verify", "--group", "A1", "--suite", "residue-1d", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: epsilons[0] must keep the residue-1d line"), err
    assert not (tmp_path / "r" / "report-A1.json").exists()


@pytest.mark.parametrize("cfg", [{"epsilons": [0.9, 1]}, {"epsilons": [1.5, 3], "m_model": RATIONAL_POLES_AT_2}])
def test_residue_1d_line_short_of_every_real_pole_passes(tmp_path, capsys, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["--config", str(p), "verify", "--group", "A1", "--suite", "residue-1d", "--out", str(tmp_path)]) == 0
    assert "summary: 33 pass, 0 fail, 0 skip" in capsys.readouterr().out


@pytest.mark.parametrize("gram", [[["2", "-1"], ["-1", "3"]], [["2", "-1"], ["-1", "4"]]])
@pytest.mark.parametrize("command", [["describe"], ["eval", "--expr", "d", "--args", '{"L1": "M0", "L": "M0", "S": "G"}']])
def test_non_invariant_form_exit_2_with_one_line(tmp_path, capsys, gram, command):
    # these positive-definite forms once closed the roots without end
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"group": "A2", "gram": gram}))
    with _time_limit(15):
        code = main(["--config", str(p), *command])
    err = capsys.readouterr().err
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_verify_bad_config_real_process_prints_one_line(tmp_path):
    # zero epsilon once hung the quadrature; a real interpreter shows what reaches stderr at exit
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "gmcalc.cli", *_verify_argv(tmp_path, BAD_NUMERICS[0])],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# Runs in a fresh interpreter; prints, per step, which float-layer and introspection modules are loaded after it.
_FLOAT_LAYER_PROBE = """
import json, sys
out = sys.argv[1]
from gmcalc.cli import main
import child

tracked = ("numpy", "gmcalc.contour", "inspect", "dataclasses")
loaded = {}

def after(step):
    loaded[step] = [m for m in tracked if m in sys.modules]

after("import")
main(["describe", "--group", "A2"])
after("describe")
main(["verify", "--group", "A1", "--suite", "hull-limit", "--suite", "trand", "--suite", "tdisc",
      "--suite", "nL-independence", "--out", out])
after("verify exact suites")
child.build("A2", None)
after("bench build")
main(["verify", "--group", "A1", "--suite", "residue-1d", "--out", out])
after("verify residue-1d")
print(json.dumps(loaded))
"""


def test_exact_runs_never_load_numpy(tmp_path):
    # numpy and the contour layer serve the float suites only; exact runs and the bench build skip their import.
    # No gmcalc module imports dataclasses, which imports inspect: inspect comes in with numpy only, dataclasses never
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])}
    proc = subprocess.run(
        [sys.executable, "-c", _FLOAT_LAYER_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import": [],
        "describe": [],
        "verify exact suites": [],
        "bench build": [],
        "verify residue-1d": ["numpy", "gmcalc.contour", "inspect"],
    }


# Runs verify --suite all on A2 and B2 in a fresh interpreter on src/ alone (bench/child.py imports hashlib)
# and prints the modules of OpenSSL's hash and numpy's Legendre rules loaded after it.
_LEAN_PROBE = """
import json, sys
from gmcalc.cli import main
codes = [main(["verify", "--group", group, "--suite", "all", "--out", sys.argv[1]]) for group in ("A2", "B2")]
print(json.dumps([codes, [m for m in ("hashlib", "_hashlib", "numpy.polynomial") if m in sys.modules]]))
"""


@pytest.fixture(scope="module")
def lean_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("lean")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _LEAN_PROBE, str(out)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stdout.splitlines()[-1])


def test_verify_loads_no_openssl_hash_and_no_numpy_legendre(lean_run):
    # digests use the built-in SHA-256 and the quadrature rules are constants: 5 MB less peak RSS
    _, (codes, loaded) = lean_run
    assert codes == [0, 0] and loaded == []


def test_sidecar_process_object_holds_peak_rss_and_the_float_import(lean_run):
    out, _ = lean_run
    for group in ("A2", "B2"):
        process = json.loads((out / f"report-{group}.timing.json").read_text())["process"]
        assert sorted(process) == ["float_layer_import_s", "peak_rss_kb"]
        assert all(type(v) in (int, float) and v > 0 for v in process.values())
        assert "process" not in json.loads((out / f"report-{group}.json").read_text())


def test_exact_runs_record_no_float_layer_import(tmp_path):
    assert main(["verify", "--group", "A1", "--suite", "trand", "--out", str(tmp_path)]) == 0
    process = json.loads((tmp_path / "report-A1.timing.json").read_text())["process"]
    assert list(process) == ["peak_rss_kb"] and process["peak_rss_kb"] > 0


# -- the process entry: cli.run ends the process once the reports are flushed ------------------

def _process_env():
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "tests")])
    return env


def _real_process(argv, tmp_path):
    """A fresh interpreter on src/ and tests/, run in tmp_path, its stdout and stderr block-buffered pipes."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, env=_process_env(), cwd=tmp_path
    )


def _cut_process(argv, tmp_path, lines):
    """_real_process with a stdout reader that reads the given number of lines and then closes the pipe, before
    the process starts for 0; the exit code, the lines read and stderr."""
    read_fd, write_fd = os.pipe()
    reader = os.fdopen(read_fd, "rb")
    if not lines:
        reader.close()
    proc = subprocess.Popen([sys.executable, *argv], stdout=write_fd, stderr=subprocess.PIPE, env=_process_env(),
                            cwd=tmp_path)
    os.close(write_fd)
    got = [reader.readline().decode() for _ in range(lines)]
    reader.close()
    _, err = proc.communicate(timeout=120)
    return proc.returncode, got, err.decode()


def test_verify_real_process_flushes_every_line_and_both_reports(tmp_path):
    # stdout to a pipe is block-buffered: every line must be flushed before the process ends
    proc = _real_process(["-m", "gmcalc.cli", "verify", "--group", "A1", "--suite", "all", "--out", "r"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r" / "report-A1.json").read_text())
    timing = json.loads((tmp_path / "r" / "report-A1.timing.json").read_text())
    lines = proc.stdout.splitlines()
    assert len(lines) == len(report["checks"]) + 1 == len(timing["runtimes"]) + 1
    assert lines[-1] == f"summary: {len(report['checks'])} pass, 0 fail, 0 skip -> r/report-A1.json"
    assert timing["counters"]["hull_limit.zero_passes"] == 7


_MUTANT_RUN = """
import sys
import pytest
from gmcalc import cli, gmfamily
from mutants import doubled_hull_volume, rebind
rebind(pytest.MonkeyPatch(), gmfamily, "hull_volume", doubled_hull_volume)
cli.run(["verify", "--group", "A2", "--suite", "hull-limit", "--out", "r"])
print("cli.run returned")
"""


def test_run_ends_a_failing_process_with_exit_1(tmp_path):
    proc = _real_process(["-c", _MUTANT_RUN], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == "summary: 100 pass, 25 fail, 0 skip -> r/report-A2.json"
    assert proc.stderr == ""


def test_verify_into_a_pipe_closed_after_one_line_keeps_its_exit_code_and_reports(tmp_path):
    # A3 trand prints about 130 kB, more than a pipe holds, so the process writes after the reader has gone
    code, lines, err = _cut_process(["-m", "gmcalc.cli", "verify", "--group", "A3", "--suite", "trand", "--out", "r"],
                                    tmp_path, 1)
    assert (code, err) == (0, "")
    assert lines[0].startswith("[pass] trand/A3/")
    assert json.loads((tmp_path / "r" / "report-A3.json").read_text())["checks"]
    assert (tmp_path / "r" / "report-A3.timing.json").stat().st_size > 0


def test_a_failing_verify_into_a_closed_pipe_exits_1(tmp_path):
    code, _, err = _cut_process(["-c", _MUTANT_RUN], tmp_path, 0)
    assert (code, err) == (1, "")


@pytest.mark.parametrize("observed", [[], ["-m", "cProfile", "-o", "out.prof"]], ids=["fast-exit", "observed"])
@pytest.mark.parametrize("command", [
    ["describe", "--group", "A2"],
    ["verify", "--group", "A1", "--suite", "hull-limit", "--out", "r"],
    ["eval", "--group", "A2", "--expr", "theta", "--args", '{"lambda": ["1/3", "2/5"]}'],
], ids=["describe", "verify", "eval"])
def test_commands_into_a_closed_pipe_exit_0_with_no_traceback(tmp_path, observed, command):
    # cli.run flushes stdout before os._exit; under a profiler the interpreter's own exit flushes it
    code, _, err = _cut_process([*observed, "-m", "gmcalc.cli", *command], tmp_path, 0)
    assert (code, err) == (0, "")


def test_run_under_cprofile_exits_normally_and_writes_the_profile(tmp_path):
    argv = ["-m", "cProfile", "-o", "out.prof", "-m", "gmcalc.cli", "verify", "--group", "A1", "--suite", "hull-limit",
            "--out", "r"]
    proc = _real_process(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.prof").stat().st_size > 0
    profiled = {fn for _, _, fn in pstats.Stats(str(tmp_path / "out.prof")).stats}
    assert {"run", "main", "suite_hull_limit"} <= profiled


def test_run_returns_the_code_under_a_tracer(monkeypatch, capsys):
    # a debugger or coverage tracer writes its results at exit, so the process must reach it
    def no_exit(code):
        raise AssertionError(f"os._exit({code}) under a tracer")

    monkeypatch.setattr(os, "_exit", no_exit)
    monkeypatch.setattr(sys, "gettrace", lambda: no_exit)
    assert cli.run(["describe", "--group", "A1"]) == 0
    assert "Weyl order 2" in capsys.readouterr().out


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_verify_report_dir_not_a_directory_exit_2_before_suites(tmp_path, capsys, monkeypatch, below):
    # a file there once ended in a FileExistsError traceback after every suite had run
    afile = tmp_path / "afile"
    afile.write_text("keep")
    ran = []
    monkeypatch.setattr("gmcalc.cli.run_suites", ran.append)
    out = afile / "r" if below else afile
    assert main(["verify", "--group", "A1", "--suite", "trand", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert not ran and captured.out == "" and afile.read_text() == "keep"


@pytest.mark.parametrize("name", ["report-A1.json", "report-A1.timing.json"])
def test_verify_report_file_not_writable_exit_2(tmp_path, capsys, name):
    # a directory in the report's place once ended in an IsADirectoryError traceback with exit 1
    (tmp_path / name).mkdir()
    assert main(["verify", "--group", "A1", "--suite", "trand", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the report: "), captured.err
    assert name in lines[0] and captured.out == ""
    assert (tmp_path / name).is_dir()


@pytest.mark.parametrize("bad", BAD_NUMERICS + BAD_SHAPES)
def test_schema_rejects_what_load_config_rejects(bad):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    jsonschema.validate({}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("bad", BAD_SCALES)
def test_load_config_rejects_scales_below_a_sixteenth(bad):
    with pytest.raises(ConfigError, match="scale"):
        load_config(bad)


def test_load_config_accepts_the_boundary_scales_and_ladders():
    # scale 1/16 gives cutoff 32, the smallest cutoff bounds the ladder from above
    cfg = load_config({
        "test_functions": [{"poly": ["1"], "scale": "1/16"}],
        "flat_phi": [{"c0": 1.0, "c1": 0.0, "c2": 0.0, "scale": 0.0625}],
        "delta_ladder": [31.5, 1e-12],
    })
    assert cfg.delta_ladder == [31.5, 1e-12]
    with pytest.raises(ConfigError, match="delta_ladder"):
        load_config({"delta_ladder": [5.66, 0.1]})


def test_load_config_bounds_epsilons_below_by_the_pole_hit_radius():
    assert load_config({"epsilons": [1e-12, 0.1]}).epsilons == [1e-12, 0.1]
    for bad in ([1e-300, 0.1], [0.05, 9.9e-13]):
        with pytest.raises(ConfigError, match="epsilons must be at least 1e-12"):
            load_config({"epsilons": bad})


@pytest.mark.parametrize("rungs", [6, 7])
def test_verify_runs_a_long_delta_ladder(tmp_path, capsys, rungs):
    # a ladder of 6 or more rungs fitted more nodes than odd powers and ended in a LinAlgError traceback
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"delta_ladder": [0.5] + [10.0 ** -k for k in range(1, rungs)]}))
    code = main(["--config", str(p), "verify", "--group", "A2", "--suite", "residue-1d", "--out", str(tmp_path / "r")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "summary: 33 pass, 0 fail, 0 skip" in out


# a float overflow inside the suites ended in an OverflowError traceback
OVERFLOWS = [
    ("A2", {"m_model": {"kind": "pole_plus_rational", "p": ["1e300"], "q": ["1"]}}),
    ("A1xA1", {"gram": [["1e300", "0"], ["0", "1e300"]]}),
]


@pytest.mark.parametrize("group, cfg", OVERFLOWS)
def test_verify_float_overflow_real_process_exit_2_with_one_line(tmp_path, group, cfg):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = ["-m", "gmcalc.cli", "--config", "cfg.json", "verify", "--group", group, "--suite", "examples", "--out", "r"]
    proc = _real_process(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "floating point" in lines[0], proc.stderr


@pytest.mark.parametrize("group", [5, None])
def test_describe_config_group_not_a_string_exit_2(tmp_path, capsys, group):
    # 5 was accepted and ended in an AttributeError traceback
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"group": group}))
    assert main(["--config", str(p), "describe"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "good",
    [
        {"gram": [[2]]},
        {"test_functions": [{"poly": [1], "scale": 1}]},
        {"m_model": {"kind": "model_plancherel", "c": 1}},
    ],
)
def test_numbers_are_rationals_for_schema_and_load_config(good):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(good, json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))
    load_config(good)


def test_lemma_shift_counters_and_runtimes_stay_in_the_sidecar(tmp_path):
    assert main(["verify", "--group", "A2", "--suite", "lemma-shift", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report-A2.json").read_text())
    timing = json.loads((tmp_path / "report-A2.timing.json").read_text())
    assert timing["counters"] == {
        "lemma_shift.integrals": 226,
        "lemma_shift.grids": 34,
        # the test functions with c1 = 0 differ only in v0, which they never read: 9 of 43 are repeats
        "lemma_shift.phi_evals": 34,
        "lemma_shift.pairings": 79,
        "lemma_shift.densities": 166,
        # the quotients -n / z: one per pairing and residue n, shared by the densities read through it
        "lemma_shift.pole_quotients": 22,
        "lemma_shift.m_sums": 167,
        "lemma_shift.integrands": 167,
        # half of the 3,619,512 grid nodes: the other half of each integrand is its conjugate mirror
        "lemma_shift.nodes": 1809756,
        # those of the 16 unshifted grids, evaluated in real arithmetic
        "lemma_shift.imaginary_nodes": 977472,
    }
    assert len(timing["runtimes"]) == len(report["checks"]) == 46
    assert all(rt is not None and rt > 0 for rt in timing["runtimes"].values())
    assert "counters" not in report
    assert all("runtime" not in c for c in report["checks"])


@pytest.mark.parametrize(
    "expr, args",
    [
        ("theta", '{"lambda": 5}'),
        ("theta", '{"lambda": ["1/2"], "chamber": 9}'),
        ("theta", '{"lambda": ["1/2"], "chamber": -1}'),
        ("theta", '{"lambda": ["1/2"], "chamber": true}'),
        ("delta_Sigma", '{"Y": 5}'),
        ("alpha_X", '{"nu": 5}'),
        ("phi_TT", '{"sigma_roots": [0, 1], "P": 99}'),
        ("c_coeff", '{"u": 5}'),
    ],
)
def test_eval_rejects_bad_vectors_and_indices(capsys, expr, args):
    # once a traceback (exit 1), or for chamber -1 a silent value from the last chamber
    assert main(["eval", "--group", "A1", "--expr", expr, "--args", args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "expr, args, names",
    [
        ("eps_M", {"sigma": 5}, "sigma must be a list of root indices"),
        ("delta_Sigma", {"Y": [[0, 0]], "sigma": 5}, "sigma must be a list of root indices"),
        ("eps_M", {"sigma": [99]}, "sigma must be a list of root indices"),
        ("c_coeff", {"model": 5}, "model must be of type object"),
        ("c_coeff", {"model": {"kind": "pole_plus_rational", "p": ["1"], "q": ["0"]}}, "nonzero denominator"),
        ("phi_TT", {"sigma_roots": [0, 1], "model": {"kind": "pole_plus_rational"}}, "needs p and q"),
        ("theta", {"lambda": ["1/2"], "M": [1]}, "no Levi labeled [1]"),
        ("theta", {"lambda": ["1/0"]}, "lambda must be a list of 1 rationals"),
        ("c_coeff", {"u": [float("inf"), 0]}, "u must be a pair [re, im] of finite numbers"),
        ("delta_Sigma", {"Y": [[1000, 0]]}, "too large"),
        ("alpha_X", {"nu": ["1e300"], "X": ["1e300"]}, "too large"),
    ],
)
def test_eval_errors_name_their_fault(capsys, expr, args, names):
    # once a traceback, or an exit 2 that blamed an unknown expression or a missing argument
    assert main(["eval", "--group", "A1", "--expr", expr, "--args", json.dumps(args)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ") and names in captured.err
    assert "missing argument" not in captured.err
