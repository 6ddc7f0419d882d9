"""
Tests of the benchmark's own checks: each must pass the program's real
output and reject the same output with one fault put in.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import re
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from lorenzlinks import census, invariants, lorenz, torus  # noqa: E402


def _report(text: str, name: str = "") -> dict:
    return census.report(lorenz.parse_vector(text), name).to_dict()


def test_flipped_torus_verdict_is_rejected():
    item = workloads.Item("torus", "40^7", size=240)
    exp = workloads.expected(item)
    got = str(torus.is_torus(lorenz.parse_vector(item.text)))
    assert workloads.check(item, got, exp) == []
    assert workloads.check(item, "NotTorus", exp)

    morton = workloads.Item("torus", "2^16,9^23", size=200)
    exp = workloads.expected(morton)
    assert exp == "NotTorus"
    assert workloads.check(morton, "Torus(9,25)", exp)


def test_census_report_with_flipped_verdict_is_rejected():
    exp = oracle.closed_forms(oracle.parse("2^2,3^5"))
    got = _report("2^2,3^5", "k3_1")
    assert checks.report(got, "k3_1", exp) == []
    got["torus"] = "Torus(3,5)"
    assert checks.report(got, "k3_1", exp)


def _burau(text: str) -> list:
    v = lorenz.normalize(lorenz.parse_vector(text))
    w = lorenz.minimal_braid_word(v)
    poly = invariants.burau_alexander(w, max_strands=w.strands, max_letters=len(w))
    return [list(term) for term in poly.terms]


def test_alexander_with_wrong_span_is_rejected():
    item = workloads.Item("burau", "2^4,5^7")
    exp = workloads.expected(item)
    terms = _burau(item.text)
    assert workloads.check(item, terms, exp) == []
    # multiplying by 1 - t + t^2 keeps Delta(1) = +-1 and the ends monic
    longer = oracle.poly_mul(oracle.from_terms(terms), [1, -1, 1])
    problems = checks.alexander(list(enumerate(longer)), exp["twice_genus"], None)
    assert any("span" in p for p in problems)


def test_alexander_with_non_unit_end_is_rejected():
    item = workloads.Item("burau", "6^6,8^5", "k6_35")
    exp = workloads.expected(item)
    terms = _burau(item.text)
    assert workloads.check(item, terms, exp) == []
    bad = copy.deepcopy(terms)
    bad[-1][1] *= 2
    assert any("not units" in p for p in checks.alexander(bad, exp["twice_genus"], None))


def test_alexander_differing_from_morton_is_rejected():
    item = workloads.Item("morton", "2^4,5^7")
    exp = workloads.expected(item)
    (_, twice_m), (p, q) = lorenz.parse_vector(item.text).rle
    terms = [list(t) for t in invariants.morton_alexander(twice_m // 2, p, q).terms]
    assert workloads.check(item, terms, exp) == []
    # the same properties, but another knot's polynomial
    other = oracle.torus_poly(3, 7)
    assert len(other) - 1 != exp["twice_genus"] or other != exp["morton"]
    assert checks.alexander(list(enumerate(other)), len(other) - 1, exp["morton"])


def test_wrong_crossing_count_is_rejected():
    item = workloads.Item("invariants", "2^3,7^12,19^40", size=55)
    exp = workloads.expected(item)
    got = invariants.invariant_report(lorenz.parse_vector(item.text)).to_dict()
    assert workloads.check(item, got, exp) == []
    got["crossings"]["t_dual"] += 1
    assert any("crossings" in p for p in workloads.check(item, got, exp))


def test_reordered_cli_row_is_rejected():
    root = BENCH.parent
    rows = workloads.census_rows(root)
    exp = {name: oracle.closed_forms(oracle.normalized(oracle.parse(text)))
           for name, text in rows if text is not None}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        payload = [r.to_dict() for r in census.report_all(census.load_census())]
    assert len(payload) == 112
    assert checks.census_cli(payload, rows, exp) == []
    swapped = list(payload)
    swapped[10], swapped[11] = swapped[11], swapped[10]
    assert checks.census_cli(swapped, rows, exp)


def test_unknown_row_must_report_vector_unknown():
    rows = [("k0_1", None)]
    assert checks.census_cli([{"name": "k0_1", "vector": None, "error": "vector unknown"}],
                             rows, {}) == []
    assert checks.census_cli([{"name": "k0_1", "vector": None, "error": None}], rows, {})


def test_normaliser_is_raw_times_nominal_over_measured():
    assert reference.normalise(2.0, 0.004) == 2.0 * reference.NOMINAL_S / 0.004
    assert reference.normalise(0.3, reference.NOMINAL_S) == 0.3


def test_readme_states_the_nominal_constant():
    text = (BENCH / "README.md").read_text()
    stated = re.search(r"nominal reference time is `([0-9.]+) ms`", text)
    assert stated and float(stated.group(1)) / 1000 == reference.NOMINAL_S
