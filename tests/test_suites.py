"""The record runner of gmcalc.suites and the record paths that only a failing check takes."""
import tracemalloc
from fractions import Fraction

import pytest

from gmcalc import suites
from gmcalc.config import load_config
from gmcalc.errors import BadShift, FamilyNotSmooth, InternalInconsistency, NotComparable
from gmcalc.levilattice import levi_lattice, trand_check
from gmcalc.report import VerificationReport, digest
from gmcalc.rootdatum import build_root_system
from gmcalc.spectral import enumerate_spectral_triples


def _suite(name, group="A2", **overrides):
    cfg = load_config(overrides={"group": group, "suites": [name], **overrides})
    return suites.SUITE_FUNCS[name](cfg, build_root_system(group))


# -- the runner, on a fake clock ----------------------------------------------


def test_runner_stamps_yield_times_charged_seconds_statuses_and_counters(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(suites.time, "monotonic", lambda: now[0])

    def fake(cfg, d):
        now[0] += 0.25
        yield "x/a", "examples", {"k": 1}, (True, 0.0, None)
        now[0] += 1.5
        yield "x/b", "examples", {"k": 2}, (False, 3.0, "off")
        now[0] += 0.75
        yield "x/c", "examples", {"k": 3}, (None, None, "nothing to compare")
        now[0] += 9.0  # a batch's shared work: the seconds it charged stand instead
        yield "x/d", "lemma-shift", {}, (True, 1e-9, None), 0.125
        yield "x/e", "lemma-shift", {}, NotComparable("out of scope"), 0.5
        now[0] += 2.0
        yield "x/f", "tdisc-classify", {}, BadShift("boom")
        now[0] += 7.0  # after the last item: charged to no record
        return {"fake.calls": 3}

    records = suites._records(fake)(None, None)
    assert [r.id for r in records] == ["x/a", "x/b", "x/c", "x/d", "x/e", "x/f"]
    assert [r.runtime for r in records] == [0.25, 1.5, 0.75, 0.125, 0.5, 2.0]
    assert [r.status for r in records] == ["pass", "fail", "skip", "pass", "skip", "fail"]
    assert [r.residual for r in records] == [0.0, 3.0, None, 1e-9, None, None]
    assert [r.detail for r in records] == [None, "off", "nothing to compare", None, "out of scope", "boom"]
    assert records[0].anchor == suites.ANCHORS["examples"] and records[0].inputs == digest({"k": 1})
    assert records[5].anchor == suites.ANCHORS["tdisc-classify"]
    report = VerificationReport("A1", [], "digest")
    report.extend(records)
    assert report.counters == {"fake.calls": 3}


def test_runner_keeps_no_counters_for_a_suite_that_returns_none():
    def fake(cfg, d):
        yield "x/a", "examples", {}, (True, 0.0, None)

    records = suites._records(fake)(None, None)
    assert len(records) == 1 and records.counters == {}
    assert records[0].runtime >= 0


# -- record paths that only a failing check takes ------------------------------


def test_home_value_not_one_fails_under_the_home_id_and_anchor(monkeypatch):
    d = build_root_system("A2")
    triples = enumerate_spectral_triples(d)
    bad = 1
    real = suites.n_constant
    monkeypatch.setattr(
        suites, "n_constant", lambda t, L: Fraction(3) if t is triples[bad] and L == t.levi_L else real(t, L)
    )
    records = suites.suite_nl_independence(load_config(overrides={"group": "A2"}), d)
    assert len(records) == len(triples)
    home = f"nL/A2/{bad:03d}/{triples[bad].levi_L.label}"
    [failed] = [r for r in records if r.status != "pass"]
    assert (failed.id, failed.anchor, failed.detail, failed.residual) == (
        home, suites.ANCHORS["nL-home"], "home value is not 1", 3.0
    )
    assert sorted(r.id for r in records if r is not failed) == [
        f"nL/A2/{k:03d}" for k in range(len(triples)) if k != bad
    ]
    assert {r.anchor for r in records if r is not failed} == {suites.ANCHORS["nL-independence"]}


def test_classify_error_fails_one_record_and_skips_the_triples_other_checks(monkeypatch):
    d = build_root_system("A2")
    triples = enumerate_spectral_triples(d)
    bad = 2
    real = suites.classify_tau

    def classify(t):
        if t is triples[bad]:
            raise InternalInconsistency("span criterion (True) disagrees with coset search (False)")
        return real(t)

    monkeypatch.setattr(suites, "classify_tau", classify)
    records = suites.suite_tdisc(load_config(overrides={"group": "A2"}), d)
    assert len(records) == 3 * len(triples) - 2
    [failed] = [r for r in records if r.status != "pass"]
    assert failed.id == f"tdisc/A2/classify/{bad:03d}" and failed.anchor == suites.ANCHORS["tdisc-classify"]
    assert failed.detail == "span criterion (True) disagrees with coset search (False)" and failed.residual is None
    assert not [r for r in records if r.id.endswith(f"/{bad:03d}") and r is not failed]
    assert len([r for r in records if r.id.endswith(f"/{bad + 1:03d}")]) == 3


def test_hull_limit_error_fails_its_record_and_the_suite_goes_on(monkeypatch):
    calls = []
    real = suites.hull_volume

    def hull_volume(oset):
        calls.append(oset)
        if len(calls) == 2:
            raise FamilyNotSmooth("the second hull is not smooth")
        return real(oset)

    monkeypatch.setattr(suites, "hull_volume", hull_volume)
    records = _suite("hull-limit", hull_samples=3)
    assert len(records) == len(calls) == 3 * len(levi_lattice(build_root_system("A2")))
    assert [r.status for r in records[:3]] == ["pass", "fail", "pass"]
    assert records[1].id == "hull-limit/A2/M0/t01" and records[1].anchor == suites.ANCHORS["hull-limit"]
    assert (records[1].detail, records[1].residual) == ("the second hull is not smooth", None)
    assert all(r.status == "pass" for r in records[2:])


# -- residue-1d: the even data of pv-even-zero ---------------------------------

ODD_FIRST = [{"poly": ["0", "1"], "scale": "1"}, {"poly": ["1"], "scale": "1"}]
NO_EVEN = [{"poly": ["1", "1"], "scale": "1"}]


@pytest.mark.parametrize("battery, want", [(ODD_FIRST, {"pass": 15, "fail": 0, "skip": 0}),
                                           (NO_EVEN, {"pass": 6, "fail": 0, "skip": 3})])
def test_pv_even_zero_reads_the_first_even_test_function(battery, want):
    records = _suite("residue-1d", test_functions=battery)
    report = VerificationReport("A2", [], "digest")
    report.extend(records)
    assert report.summary() == want
    even = [r for r in records if r.id.endswith("/even-zero")]
    assert [r.anchor for r in even] == [suites.ANCHORS["pv-even-zero"]] * 3
    if want["skip"]:
        assert all(r.status == "skip" and r.detail == "no even test function in the battery" for r in even)
        assert all(r.residual is None for r in even)


def test_trand_holds_no_second_copy_of_its_records():
    # with the splitting constants kept warm, what suite_trand holds at its peak is the records it returns
    cfg = load_config(overrides={"group": "A1xA3", "suites": ["trand"]})
    d = build_root_system("A1xA3")
    assert all(ok for *_, ok in trand_check(d))
    tracemalloc.start()
    try:
        records = suites.suite_trand(cfg, d)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 9121 and peak <= 1.1 * size


def test_indexed_pads_to_the_digits_of_the_last_index():
    assert [k for k, _ in suites._indexed(range(3), 2)] == ["00", "01", "02"]
    assert [k for k, _ in suites._indexed(range(1000), 3)][-1] == "999"
    assert [k for k, _ in suites._indexed(range(1001), 3)][::1000] == ["0000", "1000"]
    assert [k for k, _ in suites._indexed(iter("ab"), 4, count=10001)] == ["00000", "00001"]


def test_trand_ids_sort_in_generation_order_past_ten_thousand_chains():
    # B2xB2 has 13,225 chains: a four-digit index would sort trand/B2xB2/10000/... before .../9999/...
    records = _suite("trand", "B2xB2")
    ids = [r.id for r in records]
    assert len(ids) == 13225 and ids[0].startswith("trand/B2xB2/00000/") and ids[-1].startswith("trand/B2xB2/13224/")
    assert ids == sorted(ids)


# -- record inputs ------------------------------------------------------------


def test_n_beta_inputs_keep_the_fraction_key_strings_and_digests():
    # each ray key is an integer row, written into the record inputs as the Fraction tuple it once was
    cases = suites._lemma_shift_cases(load_config({"group": "A2"}), build_root_system("A2"))
    cases = {cid: inputs for cid, inputs, _ in cases}
    assert cases["lemma-shift/A2/c03/L5/m"]["n"] == {"(Fraction(1, 1), Fraction(-1, 1))": "0"}
    assert cases["lemma-shift/A2/c07/M0/m"]["n"] == {
        "(Fraction(0, 1), Fraction(1, 1))": "1", "(Fraction(1, 1), Fraction(0, 1))": "1",
        "(Fraction(1, 1), Fraction(1, 1))": "1",
    }
    assert digest(cases["lemma-shift/A2/c03/L5/m"]) == "ecbfc961e6a7867d"
    assert digest(cases["lemma-shift/A2/c07/M0/m"]) == "7ac6cd0b0dc610b1"
