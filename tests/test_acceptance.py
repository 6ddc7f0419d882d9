"""
Acceptance suite: one test per criterion, each printing a PASS or FAIL line
(visible with `pytest -s`).  Every tolerance is pinned here.

Criterion 11's "all known entries have mu = 1" clause covers the two
corrected census rows, k3_1 and k6_35; their derivations are in the notes of
data/census.txt.  The criterion is implemented as stated, with no exemption
for any row.
"""

import contextlib
import math
import random
import time

from helpers import (
    braid_index_k1,
    braid_index_k2,
    fitted_exponent,
    random_normalized_vector,
    rewrite_classes,
)
from lorenzlinks import (
    BraidWord,
    bracket,
    burau_alexander,
    cycle_count,
    dual_vector,
    invariant_report,
    is_torus,
    load_census,
    lorenz_permutation,
    milestone_words,
    minimal_braid_word,
    morton_alexander,
    normal_form,
    parse_vector,
    poly_equal_up_to_units,
    tbraid_word,
    tm_triple,
    braid_index,
    trip_number,
    vector_from_triple,
    vector_to_tparams,
    words_equal,
    x_word,
    y_word,
    z_word,
)
from lorenzlinks.laurent import LaurentPoly


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{title}]: PASS")


def test_criterion_01_duality_examples():
    with criterion(1, "duality worked examples, < 1 ms each"):
        # item 1: <r^s> ~ <s^r>
        assert dual_vector(parse_vector("4^5")) == parse_vector("5^4")
        assert dual_vector(parse_vector("9^2")) == parse_vector("2^9")
        # item 2: k = 2 closed form
        rng = random.Random(2)
        for _ in range(25):
            r1 = rng.randint(2, 8)
            r2 = rng.randint(r1 + 1, 11)
            s1 = rng.randint(1, 6)
            s2 = rng.randint(2, 7)
            v = parse_vector(f"{r1}^{s1},{r2}^{s2}")
            expected = [s2] * (r2 - r1) + [s1 + s2] * r1
            assert dual_vector(v).d == tuple(sorted(expected))
        # items 3 and 4: printed pairs
        assert dual_vector(parse_vector("2^4,3^2,6,8^2")) == parse_vector("2^2,3^3,5,9^2")
        assert dual_vector(parse_vector("2^2,3^3,4^2,7,9,13^2")) == parse_vector(
            "2^4,3^2,4^3,6,9,11^2"
        )
        # timing: warm call then measure each example
        big = parse_vector("2^2,3^3,4^2,7,9,13^2")
        dual_vector(big)
        for text in ("2^4,3^2,6,8^2", "2^2,3^3,4^2,7,9,13^2", "4^5", "3^6,8^3"):
            v = parse_vector(text)
            t0 = time.perf_counter()
            dual_vector(v)
            assert time.perf_counter() - t0 < 1e-3


def test_criterion_02_duality_involution():
    with criterion(2, "duality involution + braid-index identity, 500 random"):
        rng = random.Random(1002)
        for _ in range(500):
            v = random_normalized_vector(rng, max_p=30, max_r=14)
            d = dual_vector(v)
            assert dual_vector(d) == v
            assert d.p + d.dp == v.p + v.dp


def test_criterion_03_theorem1_word_identity():
    with criterion(3, "X*Y*Z = T-braid and YZ collapse, 200 random, < 60 s"):
        rng = random.Random(1003)
        t0 = time.perf_counter()
        for _ in range(200):
            v = random_normalized_vector(rng, max_p=12, max_r=9)
            t = trip_number(v)
            xyz = x_word(v) * y_word(v) * z_word(v)
            assert words_equal(xyz, tbraid_word(vector_to_tparams(v)))
            yz_rhs, d = BraidWord(v.dp), v.d
            for i in range(v.p - t + 1, v.p + 1):
                yz_rhs = yz_rhs * bracket(1, d[i - 1], v.dp)
            assert words_equal(y_word(v) * z_word(v), yz_rhs)
        assert time.perf_counter() - t0 < 60


def test_criterion_04_trip_number_triple_agreement():
    with criterion(4, "trip count = braid-index formula = k<=2 special cases, 500 random"):
        rng = random.Random(1004)
        k_seen = {1: 0, 2: 0}
        for i in range(500):
            k = 1 + i % 4 if i < 400 else None  # force k = 1..4 coverage
            v = random_normalized_vector(rng, max_p=24, max_r=12, k=k)
            tp = vector_to_tparams(v)
            t = trip_number(v)
            assert braid_index(tp) == t
            if tp.k == 1:
                (r, s), = tp.pairs
                assert t == braid_index_k1(r, s)
                k_seen[1] += 1
            elif tp.k == 2:
                (r1, s1), (r2, s2) = tp.pairs
                assert t == braid_index_k2(r1, s1, r2, s2)
                k_seen[2] += 1
        assert k_seen[1] >= 100 and k_seen[2] >= 100


def test_criterion_05_milestone_table():
    with criterion(5, "milestone table for <2^4,3^2,6,8^2>"):
        v = parse_vector("2^4,3^2,6,8^2")
        words = milestone_words(v)
        assert {name: len(w) for name, w in words.items()} == {
            "lorenz": 36, "t": 27, "t_dual": 28, "minimal": 22}
        assert {name: w.strands for name, w in words.items()} == {
            "lorenz": 17, "t": 8, "t_dual": 9, "minimal": 3}
        assert all(len(w) - w.strands == 19 for w in words.values())
        tr = tm_triple(v)
        assert (tr.t, tr.n, tr.m) == (3, (4, 2), (2, 3))


def test_criterion_06_torus_detection():
    with criterion(6, "torus verdicts: sweep, worked example, census, < 120 s"):
        t0 = time.perf_counter()
        for r in range(2, 6):
            for s in range(r, 11):
                assert str(is_torus(parse_vector(f"{r}^{s}"))) == f"Torus({r},{s})"
        assert str(is_torus(parse_vector("3^6,8^3"))) == "Torus(3,14)"
        for entry in load_census():
            if entry.known:
                assert not is_torus(entry.vector).is_torus, entry.name
        assert time.perf_counter() - t0 < 120


def test_criterion_07_alexander_cross_oracle():
    with criterion(7, "Morton formula vs Burau determinant"):
        for m in (1, 2):
            for p, q in ((3, 2), (5, 2), (5, 3), (4, 3)):
                word = tbraid_word(vector_to_tparams(parse_vector(f"2^{2 * m},{p}^{q}")))
                assert poly_equal_up_to_units(
                    morton_alexander(m, p, q), burau_alexander(word)
                ), (m, p, q)
        expected = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
        assert poly_equal_up_to_units(morton_alexander(1, 3, 2), expected)


def test_criterion_07_at_scale():
    # Burau on minimal words of 13 to 24 strands and 442 to 599 letters; the
    # time bound also catches a packing width grown from the letters alone
    with criterion(7, "Morton formula vs Burau determinant, 24 strands"):
        elapsed = 0.0
        for m, p, q in ((1, 24, 25), (3, 23, 25), (5, 19, 24), (2, 17, 30),
                        (12, 24, 25), (6, 13, 40)):
            word = minimal_braid_word(parse_vector(f"2^{2 * m},{p}^{q}"))
            t0 = time.perf_counter()
            poly = burau_alexander(word, max_strands=word.strands, max_letters=len(word))
            elapsed += time.perf_counter() - t0
            assert poly == morton_alexander(m, p, q), (m, p, q)
        assert elapsed < 0.6, elapsed


def test_criterion_08_invariant_laws():
    with criterion(8, "gcd law, torus genus, crossing bound"):
        for r in range(2, 7):
            for s in range(r, 10):
                rep = invariant_report(parse_vector(f"{r}^{s}"))
                assert rep.components == math.gcd(r, s)
                if math.gcd(r, s) == 1:
                    assert rep.genus == (r - 1) * (s - 1) // 2
        for entry in load_census():
            if not entry.known:
                continue
            rep = invariant_report(entry.vector)
            c_t, n_t = rep.crossings["t"], rep.braid_indices["t"]
            assert c_t == 2 * rep.genus + rep.components + n_t - 2
            assert c_t <= 4 * rep.genus + 2 * rep.components - 2


def test_criterion_09_theorem2_round_trip():
    with criterion(9, "vector -> (t,n,m) -> vector identity, 500 random"):
        rng = random.Random(1009)
        for _ in range(500):
            v = random_normalized_vector(rng, max_p=26, max_r=13)
            assert vector_from_triple(tm_triple(v)) == v


def test_criterion_10_garside_oracle_equivalence():
    with criterion(10, "normal form vs rewriting closure, exhaustive"):
        for strands in (2, 3, 4):
            for length in range(0, 7):
                classes = rewrite_classes(strands, length)
                reps = []
                for cls in classes:
                    forms = {normal_form(BraidWord(strands, w)) for w in cls}
                    assert len(forms) == 1
                    reps.append(forms.pop())
                assert len(set(reps)) == len(classes)


def test_criterion_11_census_pipeline():
    with criterion(11, "census pipeline: 112 rows, warnings, mu, Dehornoy pair"):
        entries = load_census()
        assert len(entries) == 112
        known = [e for e in entries if e.known]
        assert len(known) == 107
        assert {e.name for e in entries if not e.known} == {
            "k7_48", "k7_56", "k7_101", "k7_109", "k7_119",
        }
        warned = sorted(e.name for e in known if e.warnings)
        assert warned == ["k7_61"]
        # Dehornoy pair: equal genus 17
        a = invariant_report(parse_vector("4,4,5,7,7,7,7,7"))
        b = invariant_report(parse_vector("2,3,4,5,5,6,6,6,6,6"))
        assert a.genus == b.genus == 17
        # all known entries must close to knots; k3_1 and k6_35 carry
        # corrected values, derived in data/census.txt
        not_knots = [
            e.name
            for e in known
            if cycle_count(lorenz_permutation(e.vector)) != 1
        ]
        assert not_knots == [], f"census rows that are not knots: {not_knots}"
