"""Random configs, eval arguments and describe, eval and verify runs: each ends in a result or a clean error."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fraction_refs import ref_det
from gmcalc.cli import EXPRESSIONS, main
from gmcalc.config import load_config
from gmcalc.errors import ConfigError
from gmcalc.exactlin import int_det

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "src" / "gmcalc" / "config.schema.json").read_text())

# "1e400" is a rational literal beyond float range
STRINGS = st.sampled_from(["", "x", "0", "1", "-1", "1/2", "-3/4", "1/0", "1e300", "1e400", "A1", "M0", "G", "all",
                           "lemma-shift", "model_plancherel", "rational", "pole", "pole_plus_rational",
                           "gmcalc-config-v1"])
NUMBERS = st.integers(-1, 30) | st.floats(-2, 2, width=32) | st.sampled_from([1e300, float("inf")])
LEAVES = st.none() | st.booleans() | NUMBERS | STRINGS


def _near(node):
    """Values shaped like the schema node, with leaves that may be out of range or malformed."""
    if "$ref" in node:
        return _near(SCHEMA["$defs"][node["$ref"].rsplit("/", 1)[1]])
    if "enum" in node or "const" in node:
        return st.sampled_from(node.get("enum", [node.get("const")]) + ["x"])
    types = node["type"] if isinstance(node["type"], list) else [node["type"]]
    options = []
    if "object" in types:
        options.append(st.fixed_dictionaries({}, optional={k: _near(v) for k, v in node["properties"].items()}))
    if "array" in types:
        options.append(st.lists(_near(node["items"]), max_size=4))
    if "number" in types or "integer" in types:
        options.append(NUMBERS)
    if "string" in types:
        options.append(STRINGS)
    if "null" in types:
        options.append(st.none())
    return st.one_of(options)


ARG_KEYS = ["lambda", "M", "chamber", "L1", "L", "S", "sigma_roots", "r_word", "beta", "nu", "X", "M1",
            "word", "sigma", "Y", "model", "mu", "eval", "w_word", "P", "P_levi", "u",
            "kind", "c", "p", "q"]
ARGS = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(ARG_KEYS), kids, max_size=3),
    max_leaves=8,
)


# a few top-level keys at a time, so that a fair share of documents is valid
PROPS = SCHEMA["properties"]
DOCS = st.lists(st.sampled_from(sorted(PROPS)).flatmap(lambda k: st.tuples(st.just(k), _near(PROPS[k]))),
                max_size=3).map(dict)


@settings(max_examples=200)
@given(DOCS, st.none() | st.tuples(st.sampled_from(sorted(PROPS) + ["junk"]), ARGS))
def test_load_config_rejects_whatever_the_schema_rejects(doc, replace):
    # replace puts any JSON value under one top-level key, known or not: the wrong types
    jsonschema = pytest.importorskip("jsonschema")
    if replace is not None:
        doc[replace[0]] = replace[1]
    try:
        load_config(doc)
        accepted = True
    except ConfigError:
        accepted = False
    if accepted:
        jsonschema.Draft202012Validator(SCHEMA).validate(doc)


@settings(max_examples=100)
@given(st.sampled_from(sorted(EXPRESSIONS)), st.dictionaries(st.sampled_from(ARG_KEYS), ARGS, max_size=5))
def test_eval_args_exit_0_or_2(expr, args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--group", "A1", "--expr", expr, "--args", json.dumps(args)])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == (code == 2)


SCALES = st.sampled_from(["1", "1/3", "5", "1e-300", "1e-150", "1e150", "1e300"])
COEFFS = st.sampled_from(["0", "1", "-1", "1/2", "3", "1e-300", "1e150", "1e300", "-1e300", "1e400"])
DENSITIES = (st.just({"kind": "pole"})
             | st.fixed_dictionaries({"kind": st.just("model_plancherel"), "c": COEFFS})
             | st.fixed_dictionaries({"kind": st.just("pole_plus_rational"),
                                      "p": st.lists(COEFFS, min_size=1, max_size=3),
                                      "q": st.lists(COEFFS, min_size=1, max_size=3)}))


def _exit_0_or_2_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == (code == 2)


@settings(max_examples=100, deadline=None)
@given(DOCS, st.fixed_dictionaries({}, optional={"m_model": DENSITIES, "r_model": DENSITIES}))
# each of these ended describe and eval in an OverflowError traceback (exit 1): a density parameter beyond float range
@example({}, {"m_model": {"kind": "model_plancherel", "c": "1e400"}})
@example({}, {"r_model": {"kind": "pole_plus_rational", "p": ["1e400"], "q": ["1"]}})
def test_describe_and_eval_exit_0_or_2_on_any_config(doc, densities):
    # a document near the schema, or one whose densities build; the config's group (A2 by default), its form
    # and its densities: c_coeff reads the m_model
    doc = {**doc, **densities}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        _exit_0_or_2_with_one_line(["--config", str(path), "describe"])
        _exit_0_or_2_with_one_line(["--config", str(path), "eval", "--expr", "c_coeff", "--args", "{}"])


LADDERS = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.floats(1e-13, 8.0), min_size=n, max_size=n, unique=True)
).map(lambda xs: sorted(xs, reverse=True))


@st.composite
def verify_runs(draw):
    """A cheap group and suite, and a config near the schema: a ladder of 2 to 8 rungs, a scaled form and a
    density with coefficients up to 1e300."""
    group = draw(st.sampled_from(["A1", "A1xA1"]))
    optional = {"delta_ladder": LADDERS, "m_model": DENSITIES, "r_model": DENSITIES}
    doc = draw(st.fixed_dictionaries({}, optional=optional))
    if draw(st.booleans()):
        scales = [draw(SCALES) for _ in range(2 if group == "A1xA1" else 1)]
        doc["gram"] = [[s if i == j else "0" for j in range(len(scales))] for i, s in enumerate(scales)]
    return group, draw(st.sampled_from(["residue-1d", "examples"])), doc


@settings(max_examples=60, deadline=None)
@given(verify_runs())
# each of these ended in a traceback: an OverflowError in the density's circle mean and in the Weyl
# denominator, and a LinAlgError from a ladder of more rungs than the fit had powers
@example(("A2", "examples", {"m_model": {"kind": "pole_plus_rational", "p": ["1e300"], "q": ["1"]}}))
@example(("A1xA1", "examples", {"gram": [["1e300", "0"], ["0", "1e300"]]}))
@example(("A1", "residue-1d", {"delta_ladder": [0.5, 0.1, 0.01, 0.001, 0.0001, 0.00001]}))
def test_verify_exits_0_1_or_2_and_never_raises(run):
    group, suite, doc = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", str(path), "verify", "--group", group, "--suite", suite, "--out", tmp])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == (code == 2)


def _laplace(m):
    """Cofactor expansion along the first row: an elimination-free reference."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _laplace([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


@st.composite
def int_matrices(draw):
    """Square integer matrices up to 5x5; a third of those with n >= 2 get one row a combination of others."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))
    singular = n >= 2 and draw(st.integers(0, 2)) == 0
    if singular:
        i = draw(st.integers(0, n - 1))
        j, k = (draw(st.sampled_from([r for r in range(n) if r != i])) for _ in range(2))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows, singular


@settings(max_examples=300)
@given(int_matrices())
def test_int_det_equals_det_on_integer_matrices(case):
    rows, singular = case
    before = [list(r) for r in rows]
    got = int_det(rows)
    assert rows == before  # the caller's rows are left alone
    assert type(got) is int
    assert got == ref_det(rows) == _laplace(rows)
    assert got == 0 or not singular


def test_int_det_of_the_empty_matrix_is_one():
    assert int_det([]) == 1
    assert ref_det(()) == 1
