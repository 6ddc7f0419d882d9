import math
import random
import statistics
import time

import pytest

from helpers import fitted_exponent, random_normalized_vector
from lorenzlinks import (
    BraidWord,
    burau_alexander,
    invariant_report,
    load_census,
    milestone_words,
    morton_alexander,
    normalize,
    parse_vector,
    periodic_word,
    poly_equal_up_to_units,
    tbraid_word,
    vector_to_tparams,
)
from lorenzlinks.errors import UnsupportedInput
from lorenzlinks.laurent import LaurentPoly


def test_trefoil_report():
    rep = invariant_report(parse_vector("2^3"))
    assert rep.components == 1
    assert rep.genus == 1
    assert rep.unknotting_number == 1
    assert rep.min_crossing_number == 3
    assert rep.degree_prediction == 2
    # sigma_1^3 on 2 strands: c - n = 1 (and 2g = c - n + 1 = 2 checks out)
    assert rep.c_minus_n == 1


def test_favorite_report():
    rep = invariant_report(parse_vector("2^4,3^2,6,8^2"))
    assert rep.components == 1
    assert rep.c_minus_n == 19
    assert rep.genus == 10
    assert rep.min_crossing_number == 22
    assert rep.bound_holds


def test_unknot_report():
    rep = invariant_report(parse_vector("1,1,4"))
    assert rep.is_unknot
    assert rep.components == 1 and rep.genus == 0 and rep.unknotting_number == 0
    assert rep.min_crossing_number == 0
    assert rep.to_dict()["vector"] is None


def test_torus_genus_formula():
    for p in range(2, 7):
        for q in range(p, 10):
            if math.gcd(p, q) != 1:
                continue
            rep = invariant_report(parse_vector(f"{p}^{q}"))
            assert rep.components == 1
            assert rep.genus == (p - 1) * (q - 1) // 2


def test_gcd_component_law():
    for r in range(2, 7):
        for s in range(r, 10):
            rep = invariant_report(parse_vector(f"{r}^{s}"))
            assert rep.components == math.gcd(r, s)


def test_genus_consistent_across_milestones():
    rng = random.Random(21)
    for _ in range(200):
        v = random_normalized_vector(rng, max_p=16, max_r=9)
        rep = invariant_report(v)
        mw = milestone_words(v)
        for name, c in mw.crossings.items():
            n = mw.braid_indices[name]
            assert 2 * rep.genus == c - n + 2 - rep.components


def test_closed_forms_match_word_route():
    rng = random.Random(29)
    vectors = [e.vector for e in load_census() if e.known]
    assert len(vectors) == 107
    vectors += [random_normalized_vector(rng) for _ in range(200)]
    vectors += [random_normalized_vector(rng, max_p=80, max_r=40, max_k=6)
                for _ in range(50)]
    for v in vectors:
        rep = invariant_report(v)
        mw = milestone_words(normalize(v))
        assert list(rep.crossings.items()) == list(mw.crossings.items()), v
        assert list(rep.braid_indices.items()) == list(mw.braid_indices.items()), v
        assert rep.c_minus_n == mw.c_minus_n
        assert rep.min_crossing_number == len(mw.minimal)
        assert rep.trip == mw.minimal.strands


@pytest.mark.slow
def test_invariant_report_linear_in_p():
    sizes = [500, 1000, 2000, 4000]
    vectors = [parse_vector(f"3^{p // 2},7^{p // 2}") for p in sizes]
    for p, v in zip(sizes, vectors):
        assert invariant_report(v).crossings["lorenz"] == 5 * p
    # Each round times every size back to back, about 20 ms each, and fits
    # one exponent.  The machine's speed can change between rounds by half;
    # a per-round fit cancels that, where best-of times per size do not.
    exponents = []
    for _ in range(9):
        times = []
        for p, v in zip(sizes, vectors):
            calls = 20000 // p
            t0 = time.perf_counter()
            for _ in range(calls):
                invariant_report(v)
            times.append((time.perf_counter() - t0) / calls)
        exponents.append(fitted_exponent(sizes, times))
    exponent = statistics.median(exponents)
    assert exponent <= 1.2, (sizes, exponents)


def test_morton_explicit_value():
    expected = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    assert poly_equal_up_to_units(morton_alexander(1, 3, 2), expected)


def test_morton_rejects_common_factor():
    with pytest.raises(UnsupportedInput):
        morton_alexander(1, 2, 4)
    with pytest.raises(UnsupportedInput):
        morton_alexander(2, 6, 3)


def test_burau_classics():
    trefoil = burau_alexander(BraidWord(2, (1, 1, 1)))
    assert poly_equal_up_to_units(
        trefoil, LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
    )
    unknot = burau_alexander(BraidWord(2, (1,)))
    assert poly_equal_up_to_units(unknot, LaurentPoly.one())
    # torus knot T(2,5)
    t25 = burau_alexander(periodic_word(2, 5))
    assert poly_equal_up_to_units(
        t25, LaurentPoly.from_dict({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    )


def test_burau_guards():
    with pytest.raises(UnsupportedInput):
        burau_alexander(BraidWord(3, (1,)))  # two components
    with pytest.raises(UnsupportedInput):
        burau_alexander(BraidWord(12, (1,) * 4))
    with pytest.raises(UnsupportedInput):
        burau_alexander(BraidWord(2, (1,) * 61))


def test_alexander_agrees_across_all_milestones():
    # the strongest end-to-end check of the word pipeline: all four braid
    # representations must close to links with one Alexander polynomial
    for text in ("2^2,3^2", "2^3", "2^2,3^5", "2^2,4^3", "3^2,4^3"):
        v = parse_vector(text)
        mw = milestone_words(v)
        polys = [
            burau_alexander(w, max_strands=12, max_letters=60)
            for w in mw.words.values()
        ]
        assert all(poly_equal_up_to_units(polys[0], p) for p in polys[1:]), text


def test_morton_vs_burau_cross_oracle():
    for m in (1, 2):
        for p, q in ((3, 2), (5, 2), (5, 3), (4, 3)):
            vec = parse_vector(f"2^{2 * m},{p}^{q}")
            word = tbraid_word(vector_to_tparams(vec))
            assert poly_equal_up_to_units(
                morton_alexander(m, p, q), burau_alexander(word)
            ), (m, p, q)


def test_alexander_span_is_twice_genus_on_census():
    # span of the Alexander polynomial = 2g for fibered knots; checked on all
    # census entries small enough for the Burau oracle
    checked = 0
    for entry in load_census():
        if not entry.known:
            continue
        rep = invariant_report(entry.vector)
        assert rep.components == 1, entry.name
        word = tbraid_word(vector_to_tparams(rep.vector))
        if len(word) > 40 or word.strands > 12:
            continue
        poly = burau_alexander(word, max_strands=12, max_letters=40)
        assert poly.span == 2 * rep.genus, entry.name
        assert poly.span == rep.degree_prediction  # c - n + 1, mu = 1
        checked += 1
    assert checked >= 15


def test_c4g_bound_on_census():
    for entry in load_census():
        if not entry.known:
            continue
        rep = invariant_report(entry.vector)
        c_t = rep.crossings["t"]
        n_t = rep.braid_indices["t"]
        assert c_t == 2 * rep.genus + rep.components + n_t - 2
        assert c_t <= rep.t_braid_crossing_bound
        assert rep.bound_holds
