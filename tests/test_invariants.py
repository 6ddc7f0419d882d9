import collections
import itertools
import math
import random
import statistics
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (_burau_matrix, assert_raises, burau_oracle, fitted_exponent, morton_oracle,
                     random_normalized_vector)
from lorenzlinks import (
    BraidWord,
    Permutation,
    burau_alexander,
    cycle_count,
    format_word,
    invariant_report,
    is_torus,
    load_census,
    lorenz_permutation,
    milestone_words,
    minimal_braid_word,
    morton_alexander,
    normalize,
    parse_vector,
    periodic_word,
    poly_equal_up_to_units,
    tbraid_word,
    vector_to_tparams,
)
from lorenzlinks import invariants
from lorenzlinks.errors import UnsupportedInput
from lorenzlinks.invariants import (_burau_rows, _determinant, _digits, _quotient,
                                    _tbraid_components, _unit_normal)
from lorenzlinks.laurent import LaurentPoly, normalize_units


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
    # is_torus reads the counts in the report's place, so they must agree.
    counts = invariants._counts(parse_vector("1,1,4"))
    assert counts == (None, None, 0) and counts.components == rep.components


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


def test_components_from_tbraid_rotations_match_the_lorenz_permutation():
    # The oracle walks the Lorenz permutation on p + d_p strands; the last
    # 200 vectors have the shapes of the invariants benchmark (p up to 2,000).
    rng = random.Random(19)
    vectors = [e.vector for e in load_census() if e.known]
    assert len(vectors) == 107
    vectors += [random_normalized_vector(rng, max_p=60, max_r=20) for _ in range(20000)]
    vectors += [random_normalized_vector(rng, max_p=2000, max_r=60) for _ in range(200)]
    for v in vectors:
        nv = normalize(v)
        mu = cycle_count(lorenz_permutation(nv))
        assert _tbraid_components(nv) == mu, v
        assert invariant_report(v).components == mu, v


def test_genus_consistent_across_milestones():
    rng = random.Random(21)
    for _ in range(200):
        v = random_normalized_vector(rng, max_p=16, max_r=9)
        rep = invariant_report(v)
        for w in milestone_words(v).values():
            assert 2 * rep.genus == len(w) - w.strands + 2 - rep.components


def test_closed_forms_match_word_route():
    rng = random.Random(29)
    vectors = [e.vector for e in load_census() if e.known]
    assert len(vectors) == 107
    vectors += [random_normalized_vector(rng) for _ in range(200)]
    vectors += [random_normalized_vector(rng, max_p=80, max_r=40, max_k=6)
                for _ in range(50)]
    for v in vectors:
        rep = invariant_report(v)
        words = milestone_words(normalize(v))
        assert list(rep.crossings.items()) == [(name, len(w)) for name, w in words.items()], v
        assert list(rep.braid_indices.items()) == [
            (name, w.strands) for name, w in words.items()], v
        assert rep.c_minus_n == len(words["lorenz"]) - words["lorenz"].strands
        assert rep.min_crossing_number == len(words["minimal"])
        assert rep.trip == words["minimal"].strands


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


def test_huge_multiplicity_allocates_no_entries():
    # the runs are the stored form: a million equal entries cost one pair
    tracemalloc.start()
    try:
        rep = invariant_report(parse_vector("2^1000000,7^2,9^5,40^2"))
        report_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        verdict = is_torus(parse_vector("2^1000000"))
        torus_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report_peak < 1 << 20 and torus_peak < 1 << 20, (report_peak, torus_peak)
    assert rep.crossings["lorenz"] == 2 * 1000000 + 14 + 45 + 80
    assert (str(verdict), verdict.decided_by) == ("Torus(2,1000000)", "tparams")


def test_morton_explicit_value():
    expected = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    assert poly_equal_up_to_units(morton_alexander(1, 3, 2), expected)


def test_morton_rejects_common_factor():
    with pytest.raises(UnsupportedInput):
        morton_alexander(1, 2, 4)
    with pytest.raises(UnsupportedInput):
        morton_alexander(2, 6, 3)


def test_morton_matches_the_polynomial_oracle():
    # The coefficient-list route against the Laurent-polynomial one, term for
    # term, on every coprime triple with m = 1..5 and p, q = 2..15, and on one
    # triple of degree 493.
    triples = [(m, p, q) for m in range(1, 6) for p in range(2, 16) for q in range(2, 16)
               if math.gcd(p, q) == 1]
    assert len(triples) == 570
    for m, p, q in triples + [(3, 97, 101)]:
        assert morton_alexander(m, p, q) == morton_oracle(m, p, q), (m, p, q)


def test_morton_degree_is_capped(monkeypatch):
    # Morton's formula builds a list of pq + 2m + 2 coefficients, so pq + 2m
    # is capped, and checked before any list is built.
    cap = invariants.MAX_MORTON_DEGREE
    for m, p, q in ((1, 10001, 10000), (10 ** 18, 2, 3), (cap // 2 - 7, 3, 5)):
        assert_raises(lambda: morton_alexander(m, p, q), UnsupportedInput,
                      f"pq + 2m = {p * q + 2 * m} exceeds the cap of {cap} for Morton's formula")
    assert 3 * 5 + 2 * (cap // 2 - 7) == cap + 1
    monkeypatch.setattr(invariants, "MAX_MORTON_DEGREE", 17)
    assert morton_alexander(1, 3, 5) == morton_oracle(1, 3, 5)  # pq + 2m = 17
    with pytest.raises(UnsupportedInput):
        morton_alexander(2, 3, 5)


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


def test_burau_of_the_one_strand_word_is_one():
    assert burau_alexander(BraidWord(1)) == LaurentPoly.one()


def test_burau_guards():
    with pytest.raises(UnsupportedInput):
        burau_alexander(BraidWord(3, (1,)))  # split: sigma_2 is missing
    with pytest.raises(UnsupportedInput, match="split"):
        burau_alexander(BraidWord(4, (1, 1, 3, 3)))  # two Hopf links
    with pytest.raises(UnsupportedInput):
        burau_alexander(BraidWord(12, (1,) * 4))
    with pytest.raises(UnsupportedInput):
        burau_alexander(BraidWord(2, (1,) * 121))


def test_alexander_agrees_across_all_milestones():
    # the strongest end-to-end check of the word pipeline: all four braid
    # representations must close to links with one Alexander polynomial
    for text in ("2^2,3^2", "2^3", "2^2,3^5", "2^2,4^3", "3^2,4^3"):
        v = parse_vector(text)
        polys = [
            burau_alexander(w, max_strands=12, max_letters=60)
            for w in milestone_words(v).values()
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
    # span of the Alexander polynomial = 2g for fibered knots; checked on the
    # minimal word of every known census row, at the default caps
    checked = 0
    for entry in load_census():
        if not entry.known:
            continue
        rep = invariant_report(entry.vector)
        assert rep.components == 1, entry.name
        poly = burau_alexander(minimal_braid_word(rep.vector))
        assert poly.span == 2 * rep.genus, entry.name
        assert poly.span == rep.degree_prediction  # c - n + 1, mu = 1
        checked += 1
    assert checked == 107


def test_knot_alexander_at_one_is_a_unit():
    # Delta(1) = +-1 for every knot, a fact apart from the monic and span
    # certificates: the coefficient sum on the Burau route for every known
    # census knot at the default caps, and on Morton's formula for every
    # coprime triple of the oracle grid.
    knots = [e for e in load_census() if e.known]
    assert len(knots) == 107
    for entry in knots:
        poly = burau_alexander(minimal_braid_word(normalize(entry.vector)))
        assert abs(sum(c for _, c in poly.terms)) == 1, entry.name
    triples = [(m, p, q) for m in range(1, 6) for p in range(2, 16) for q in range(2, 16)
               if math.gcd(p, q) == 1]
    assert len(triples) == 570
    for m, p, q in triples:
        assert abs(sum(c for _, c in morton_alexander(m, p, q).terms)) == 1, (m, p, q)


def test_burau_on_seeded_lorenz_links():
    # span = c - n + 1 = 2g + mu - 1 for links too, and Delta(1) = 0 exactly
    # when the closure has more than one component
    rng = random.Random(5)
    links = 0
    while links < 200:
        v = random_normalized_vector(rng, max_p=14, max_r=8)
        rep = invariant_report(v)
        word = minimal_braid_word(rep.vector)
        poly = burau_alexander(word, max_strands=word.strands, max_letters=len(word))
        assert poly.span == rep.degree_prediction, v
        assert (sum(c for _, c in poly.terms) == 0) == (rep.components > 1), v
        if rep.components > 1:
            assert poly == burau_oracle(word), v
            links += 1


def test_burau_alexander_rows_match_the_polynomial_matrix():
    # R, decoded before the determinant, against the Laurent-polynomial
    # matrix of the tests, which is built by columns in letter order.
    rng = random.Random(1937)
    for j in range(300):
        n = 2 + j % 9
        letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 60)))
        want = [[dict(e.terms) for e in row] for row in zip(*_burau_matrix(BraidWord(n, letters)))]
        rows, b = _burau_rows(n, letters)
        got = [[{e: c for e, c in enumerate(_digits(x, b)) if c} for x in row] for row in rows]
        assert got == want, (n, letters)


def test_burau_links_match_polynomial_oracle():
    # random positive words with every generator present: non-split closures
    rng = random.Random(1936)
    links = 0
    while links < 100:
        n = rng.randint(2, 6)
        letters = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(rng.randint(0, 30))]
        rng.shuffle(letters)
        w = BraidWord(n, tuple(letters))
        if cycle_count(Permutation.from_letters(w.strands, w.letters)) > 1:
            assert burau_alexander(w) == burau_oracle(w), format_word(w)
            links += 1


def _torus_alexander(p: int, q: int) -> LaurentPoly:
    """(t^(pq/d) - 1)^d (t - 1) / ((t^p - 1)(t^q - 1)), d = gcd(p, q): Delta of T(p, q)."""
    one, d = LaurentPoly.one(), math.gcd(p, q)
    num = LaurentPoly.t_power(1) - one
    for _ in range(d):
        num = num * (LaurentPoly.t_power(p * q // d) - one)
    return num.exact_div((LaurentPoly.t_power(p) - one) * (LaurentPoly.t_power(q) - one))


def test_full_twist_peel_matches_polynomial_oracle():
    # k*n + j leading copies of delta = sigma_1 ... sigma_(n-1): k full twists
    # enter as t^(kn), and the j copies after them are multiplied out.
    rng = random.Random(1607)
    kinds = set()
    for n in range(2, 9):
        delta = tuple(range(1, n))
        for k in range(4):
            for j in sorted({0, 1, n - 1}):
                tail = list(range(1, n)) + [rng.randint(1, n - 1)
                                            for _ in range(rng.randint(0, 12))]
                rng.shuffle(tail)
                while n > 2 and tuple(tail[:n - 1]) == delta:
                    rng.shuffle(tail)  # exactly k*n + j copies lead (n = 2: all do)
                w = BraidWord(n, delta * (k * n + j) + tuple(tail))
                got = burau_alexander(w, max_letters=len(w))
                assert got == burau_oracle(w), (n, k, j, format_word(w))
                kinds.add(cycle_count(Permutation.from_letters(w.strands, w.letters)) > 1)
    assert kinds == {False, True}  # knots and non-split links both occur


def test_full_twist_mid_word_agrees_with_the_oracle():
    # the head does not start with delta, so nothing is peeled
    rng = random.Random(16)
    for n in range(3, 8):
        twist = tuple(range(1, n)) * n
        head = [rng.randint(2, n - 1)] + [rng.randint(1, n - 1) for _ in range(5)]
        tail = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(5)]
        w = BraidWord(n, tuple(head) + twist + tuple(tail))
        front = BraidWord(n, twist + tuple(head + tail))  # the twist is central
        got = burau_alexander(w, max_letters=len(w))
        assert got == burau_oracle(w), format_word(w)
        assert got == burau_alexander(front, max_letters=len(front))


def test_twist_only_words_close_to_torus_links():
    # delta^(nk) is k full twists with nothing after them: T(n, nk)
    for n in range(2, 8):
        for k in range(1, 4):
            w = periodic_word(n, n * k)
            got = burau_alexander(w, max_letters=len(w))
            assert poly_equal_up_to_units(got, _torus_alexander(n, n * k)), (n, k)
            assert got == burau_oracle(w), (n, k)


def test_burau_of_torus_knots_matches_closed_form():
    checked = 0
    for t in range(2, 10):
        for q in range(1, 4 * t + 1):
            if math.gcd(t, q) != 1:
                continue
            w = periodic_word(t, q)
            got = burau_alexander(w, max_letters=len(w))
            assert poly_equal_up_to_units(got, _torus_alexander(t, q)), (t, q)
            checked += 1
    assert checked > 100


@pytest.mark.slow
def test_envelope_of_torus_words_after_the_full_twists():
    # delta^(9k+2) on 9 strands: k full twists enter as t^(9k), and only the
    # two copies of delta after them are multiplied out.  Rotated by 3
    # letters, the word is conjugate, and its full twists no longer lead.
    for rotation in (0, 3):
        sizes = []
        times = []
        for k in (2, 4, 8, 16, 32, 64):
            letters = periodic_word(9, 9 * k + 2).letters
            w = BraidWord(9, letters[rotation:] + letters[:rotation])
            best = None
            for _ in range(3):
                t0 = time.perf_counter()
                poly = burau_alexander(w, max_letters=len(w))
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            assert poly.span == len(w) - 8, (rotation, k)
            sizes.append(len(w))
            times.append(best)
        assert sizes[-1] >= 4000
        exponent = fitted_exponent(sizes, times)
        assert exponent <= 1.6, (rotation, sizes, times, exponent)


# The Morton-family knots <2^2m, p^q> of the bench's alexander workload, as (m, p, q)
WORKLOAD_MORTON = [
    (2, 5, 7), (3, 7, 9), (4, 9, 11), (5, 11, 13), (6, 13, 15), (7, 15, 17),
    (2, 17, 18), (1, 5, 12), (3, 9, 13), (4, 7, 16), (2, 11, 15), (5, 13, 14),
]


def _random_knot_words(rng: random.Random, count: int) -> list[BraidWord]:
    """Positive words with knot closure on 2 to 10 strands and at most 80
    letters; every fifth is made of runs of one generator."""
    words = []
    while len(words) < count:
        n = rng.randint(2, 10)
        size = rng.randint(n - 1, 80)
        if len(words) % 5 == 4:
            letters = []
            while len(letters) < size:
                letters += [rng.randint(1, n - 1)] * rng.randint(2, 12)
        else:
            letters = [rng.randint(1, n - 1) for _ in range(size)]
        w = BraidWord(n, tuple(letters[:size]))
        if cycle_count(Permutation.from_letters(w.strands, w.letters)) == 1:
            words.append(w)
    return words


def test_burau_matches_polynomial_oracle(monkeypatch):
    # R's nonzero entries are decoded by the loop below LOOP_DIGITS digits and
    # by the masks above; both kinds meet the oracle here.
    sides = collections.Counter()

    def rows_seen(n, letters):
        rows, b = _burau_rows(n, letters)
        sides.update("loop" if x.bit_length() < invariants.LOOP_DIGITS * b else "mask"
                     for row in rows for x in row if x)
        return rows, b

    monkeypatch.setattr(invariants, "_burau_rows", rows_seen)
    census = [minimal_braid_word(e.vector) for e in load_census() if e.known]
    assert len(census) == 107
    for w in census:
        assert burau_alexander(w) == burau_oracle(w), format_word(w)
    for m, p, q in WORKLOAD_MORTON:
        w = minimal_braid_word(normalize(parse_vector(f"2^{2 * m},{p}^{q}")))
        got = burau_alexander(w, max_strands=w.strands, max_letters=len(w))
        assert got == burau_oracle(w), (m, p, q)
    # Census coefficients are at most 3 in magnitude; random words reach far
    # larger ones, which is what tests the packing width.
    largest = 0
    for w in _random_knot_words(random.Random(2007), 200):
        got = burau_alexander(w)
        assert got == burau_oracle(w), format_word(w)
        largest = max(largest, max(abs(c) for _, c in got.terms))
    assert largest > 2**16
    assert min(sides["loop"], sides["mask"]) >= 300, sides


def test_burau_is_conjugation_invariant_and_takes_out_inner_full_twists(monkeypatch):
    # a rotated word is conjugate, so its closure and Delta are the same
    for e in load_census():
        if e.known:
            w = minimal_braid_word(e.vector)
            want = burau_alexander(w)
            for j in (1, w.strands - 1, len(w) // 2):
                rotated = BraidWord(w.strands, w.letters[j:] + w.letters[:j])
                assert burau_alexander(rotated) == want, (e.name, j)
    # 2^4,3^16: delta^3, then 1 1 1 1, then delta^13; five full twists come out
    built = []

    def rows_seen(n, letters):
        built.append(tuple(letters))
        return _burau_rows(n, letters)

    monkeypatch.setattr(invariants, "_burau_rows", rows_seen)
    w = minimal_braid_word(normalize(parse_vector("2^4,3^16")))
    assert len(w) == 36 and burau_alexander(w) == burau_oracle(w)
    assert built == [(1, 1, 1, 1, 1, 2)]


def test_unit_normal_is_normalize_units():
    # both Alexander routes give a nonzero constant term, so the shift to
    # degree 0 is checked here, on seeded lists with leading zeros
    rng = random.Random(30)
    lists = [[], [0, 0], [0, -3], [5]]
    for _ in range(500):
        coeffs = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 12))]
        lists.append([0] * rng.randint(0, 3) + coeffs)
    for coeffs in lists:
        terms = tuple((e, c) for e, c in enumerate(coeffs) if c)
        assert _unit_normal(coeffs) == normalize_units(LaurentPoly(terms)), coeffs


def test_quotient_digits_are_certified():
    # Q = 1 + 50 t + t^2 fits 8-bit digits, but 3 * 50 >= 2^7: the digits of
    # det / (1 + t + t^2) at t = 2^8 are refused, and 3 * 42 < 2^7 passes.
    cyclotomic = 1 + (1 << 8) + (1 << 16)
    assert _quotient(_pack([1, 42, 1], 8) * cyclotomic, 3, 8) == [1, 42, 1]
    with pytest.raises(ArithmeticError, match="too wide"):
        _quotient(_pack([1, 50, 1], 8) * cyclotomic, 3, 8)
    with pytest.raises(ArithmeticError, match="inexact"):
        _quotient(_pack([1, 42, 1], 8) * cyclotomic + 1, 3, 8)


def _pack(digits: list[int], bits: int) -> int:
    return sum(d << (bits * e) for e, d in enumerate(digits))


def _stripped(digits: list[int]) -> list[int]:
    """The digit list without its trailing zeros, as _digits returns it."""
    while digits and not digits[-1]:
        digits = digits[:-1]
    return digits


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40).flatmap(lambda bits: st.tuples(
    st.just(bits),
    st.lists(st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1), max_size=30),
)))
def test_digits_round_trip(case):
    bits, digits = case
    assert _digits(_pack(digits, bits), bits) == _stripped(digits)


def test_digits_edges():
    for bits in (2, 3, 17, 64):
        top = (1 << (bits - 1)) - 1
        for digits in ([top, -top, 0, top], [0, 0, -top], [top, 0, -1], [-top - 1, top]):
            assert _digits(_pack(digits, bits), bits) == digits
        long = [top, -top, 0, top, -top - 1] * 6  # past LOOP_DIGITS: the masks
        assert _digits(_pack(long, bits), bits) == long
    assert _digits(0, 5) == []
    assert _digits(-1, 5) == [-1]


def test_integer_determinant_by_leibniz():
    # sparse matrices, so that zero pivots, row swaps and singular matrices occur
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(n)] for _ in range(n)]
        expected = sum(
            (-1) ** sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))
            * math.prod(rows[r][p[r]] for r in range(n))
            for p in itertools.permutations(range(n))
        )
        singular += expected == 0
        assert _determinant([row[:] for row in rows]) == expected, rows
    assert singular > 50


def _fraction_determinant(rows: list[list[int]]) -> tuple[Fraction, collections.Counter]:
    """The determinant by elimination over the rationals, with the pivot
    taken as in _determinant, and the cases met: row swaps, zero multipliers,
    deferred rescales (a row whose multiplier was zero at one step that later
    gets a nonzero one or becomes the pivot) and singular matrices."""
    a, det, seen = [[Fraction(x) for x in row] for row in rows], Fraction(1), collections.Counter()
    skipped = [False] * len(a)  # its multiplier was zero since the row was last read
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            seen["singular"] += 1
            return Fraction(0), seen
        if pivot != k:
            a[k], a[pivot], det = a[pivot], a[k], -det
            skipped[k], skipped[pivot] = skipped[pivot], skipped[k]
            seen["swap"] += 1
        seen["deferred rescale"] += skipped[k]
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            row = a[i]
            m = row[k] / a[k][k]
            seen["zero multiplier"] += not m
            seen["deferred rescale"] += bool(m) and skipped[i]
            skipped[i] = not m
            row[k:] = [x - m * y for x, y in zip(row[k:], a[k][k:])]
    return det, seen


def test_integer_determinant_by_fraction_elimination():
    # sparse matrices of wide entries on 6 to 12 rows; every fourth has a
    # row that is a combination of two others, so singular ones occur
    rng = random.Random(29)
    seen = collections.Counter()
    for j in range(150):
        n = rng.randint(6, 12)
        rows = [[rng.choice((0, 1)) * rng.randint(-1 << 100, 1 << 100) for _ in range(n)]
                for _ in range(n)]
        if j % 4 == 0:
            a, b, c = rng.sample(range(n), 3)
            rows[a] = [3 * x - y for x, y in zip(rows[b], rows[c])]
        want, cases = _fraction_determinant(rows)
        seen.update(cases)
        assert _determinant([row[:] for row in rows]) == want, rows
    assert min(seen["swap"], seen["zero multiplier"], seen["deferred rescale"],
               seen["singular"]) >= 30, seen


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


@pytest.mark.parametrize("m, p, q, message", [
    pytest.param(0, 3, 2, "need at least one full twist (m >= 1)", id="no-twist"),
    pytest.param(1, 1, 2, "torus parameters must be at least 2", id="p-below-2"),
    pytest.param(1, 3, 1, "torus parameters must be at least 2", id="q-below-2"),
])
def test_morton_alexander_validation_errors(m, p, q, message):
    assert_raises(lambda: morton_alexander(m, p, q), ValueError, message)
