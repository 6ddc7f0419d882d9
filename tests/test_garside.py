import itertools
import random
import time

import pytest

from helpers import (assert_raises, central_power, descents, fitted_exponent, inversions,
                     is_identity, is_left_weighted, letter_count, longest, random_rewrite,
                     rewrite_classes, simple, then)
from lorenzlinks import (BraidWord, bracket, minimal_braid_word, normal_form, parse_vector,
                         periodic_word, power, words_equal)
from lorenzlinks import garside
from lorenzlinks.garside import left_slide, meet, multiply, nf_power, right_complement
from lorenzlinks.braid import Permutation


def test_braid_relation_same_normal_form():
    assert normal_form(BraidWord(3, (1, 2, 1))) == normal_form(BraidWord(3, (2, 1, 2)))


def test_delta_squared_flip():
    assert words_equal(power(bracket(1, 3, 3), 3), power(bracket(3, 1, 3), 3))


def test_commuting_and_distinct():
    assert words_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))
    with pytest.raises(ValueError):
        words_equal(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_words_of_different_lengths_differ():
    assert not words_equal(BraidWord(3, (1, 2)), BraidWord(3, (1, 2, 1)))


def test_index_shift_relation():
    # [1,w][u,v] = [u+1,v+1][1,w] for u < v < w
    for w in range(3, 8):
        for u in range(1, w):
            for v in range(u + 1, w):
                lhs = bracket(1, w, w) * bracket(u, v, w)
                rhs = bracket(u + 1, v + 1, w) * bracket(1, w, w)
                assert words_equal(lhs, rhs)


def test_periodic_word():
    assert periodic_word(3, 2).letters == (1, 2, 1, 2)
    assert periodic_word(2, 5).letters == (1,) * 5
    assert len(periodic_word(7, 3)) == 3 * 6
    with pytest.raises(ValueError):
        periodic_word(1, 2)


def test_periodic_power_is_central():
    rng = random.Random(9)
    for _ in range(100):
        t = rng.randint(2, 6)
        w = BraidWord(t, tuple(rng.randint(1, t - 1) for _ in range(rng.randint(0, 12))))
        dt = periodic_word(t, t)
        assert words_equal(dt * w, w * dt)


def test_central_power_matches_engine():
    for t in range(2, 6):
        for q in range(0, 4):
            assert central_power(t, q) == normal_form(periodic_word(t, t * q))


def _run_then_commuting(rng, n):
    """A long run of one generator, then letters commuting with it."""
    g = rng.randint(1, n - 1)
    far = [i for i in range(1, n) if abs(i - g) > 1] or [g]
    return (g,) * rng.randint(1, 30) + tuple(rng.choice(far) for _ in range(rng.randint(0, 20)))


def test_length_conservation_and_left_weighting():
    rng = random.Random(13)
    words = []
    for _ in range(300):
        n = rng.randint(2, 8)
        letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 40)))
        words.append(BraidWord(n, letters))
    for _ in range(100):
        n = rng.randint(2, 8)
        words.append(BraidWord(n, _run_then_commuting(rng, n)))
    for w in words:
        length = len(w)
        nf = normal_form(w)
        assert letter_count(nf) == length
        assert all(not is_identity(f) for f in nf.factors)
        for a, b in zip(nf.factors, nf.factors[1:]):
            assert is_left_weighted(a, b)
        assert Permutation.from_letters(w.strands, nf.word().letters) == Permutation.from_letters(
            w.strands, w.letters)
        assert normal_form(nf.word()) == nf


def test_equal_after_random_rewriting():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 6)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 25))))
        assert words_equal(w, random_rewrite(rng, w))


def test_uniqueness_against_rewriting_closure():
    # normal forms coincide exactly on braid-relation closures (small exhaustive)
    for n in (2, 3, 4):
        for length in range(0, 6):
            classes = rewrite_classes(n, length)
            key = {}
            for cls in classes:
                keys = {normal_form(BraidWord(n, w)) for w in cls}
                assert len(keys) == 1
                key[min(cls)] = keys.pop()
            assert len(set(key.values())) == len(classes)


def test_multiply_and_power():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 15))))
        b = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 15))))
        assert multiply(normal_form(a), normal_form(b)) == normal_form(a * b)
        k = rng.randint(0, 4)
        assert nf_power(normal_form(a), k) == normal_form(power(a, k))


def test_meet_is_weak_order_meet():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 6)
        u = Permutation.from_letters(n, [rng.randint(1, n - 1) for _ in range(6)])
        v = Permutation.from_letters(n, [rng.randint(1, n - 1) for _ in range(6)])
        m = meet(u, v)
        # m is a common left divisor: stripping it stays length-additive
        for x in (u, v):
            rem = then(m.inverse, x)
            assert inversions(m) + inversions(rem) == inversions(x)
        # every common left-dividing generator divides the meet
        for i in descents(u) & descents(v):
            assert i in descents(m)


def test_left_slide_contract():
    rng = random.Random(43)
    for _ in range(500):
        n = rng.randint(2, 8)
        a = Permutation.from_letters(n, [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))])
        b = Permutation.from_letters(n, [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))])
        slid = left_slide(a, b)
        assert (slid is None) == is_left_weighted(a, b)
        if slid is None:
            continue
        a2, b2 = slid
        assert is_left_weighted(a2, b2)
        assert inversions(a2) + inversions(b2) == inversions(a) + inversions(b)
        assert then(a2, b2) == then(a, b)


def test_is_left_weighted_by_definition():
    # (a, b) is left weighted iff no sigma_i dividing b on the left can move
    # into a with a staying a permutation braid, i.e. a sigma_i one inversion
    # longer than a.
    pairs = weighted = 0
    for n in range(2, 5):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for a, b in itertools.product(perms, repeat=2):
            movable = any(
                b.image[i - 1] > b.image[i]
                and inversions(then(a, simple(i, n))) == inversions(a) + 1
                for i in range(1, n)
            )
            assert is_left_weighted(a, b) == (not movable), (a, b)
            pairs += 1
            weighted += not movable
    assert (pairs, weighted) == (616, 233)


def test_meet_is_longest_common_divisor():
    # d left-divides x iff stripping d from x stays length-additive; the meet
    # is the unique longest permutation that left-divides both.
    def divides(d, x):
        return inversions(d) + inversions(then(d.inverse, x)) == inversions(x)

    pairs = 0
    for n in range(2, 5):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for u, v in itertools.product(perms, repeat=2):
            common = [d for d in perms if divides(d, u) and divides(d, v)]
            top = max(inversions(d) for d in common)
            brute = [d for d in common if inversions(d) == top]
            assert brute == [meet(u, v)], (u, v)
            pairs += 1
    assert pairs == 616


def test_right_complement():
    cases = 0
    for n in range(2, 6):
        for image in itertools.permutations(range(1, n + 1)):
            p = Permutation(image)
            c = right_complement(p)
            assert then(p, c) == longest(n)
            assert inversions(p) + inversions(c) == n * (n - 1) // 2
            cases += 1
    assert cases == 2 + 6 + 24 + 120


def test_slide_memo_lasts_one_call(monkeypatch):
    # Within one normal_form or product no pair is slid twice, and nothing
    # carries over: a second call slides exactly as many pairs again.
    w = minimal_braid_word(parse_vector("2^18,10^39"))
    nf = normal_form(w)
    cubed = nf_power(nf, 3)
    slid = []
    slide = garside._slide

    def counted(a, b):
        slid.append((a, b))
        return slide(a, b)

    monkeypatch.setattr(garside, "_slide", counted)
    for run, expected in ((lambda: normal_form(w), nf), (lambda: nf_power(nf, 3), cubed)):
        counts = []
        for _ in range(2):
            slid.clear()
            assert run() == expected
            assert slid and len(set(slid)) == len(slid)
            counts.append(len(slid))
        assert counts[0] == counts[1], counts


@pytest.mark.slow
def test_normal_form_quadratic_envelope():
    rng = random.Random(41)
    sizes = [200, 400, 800, 1600]
    times = []
    for length in sizes:
        w = BraidWord(6, tuple(rng.randint(1, 5) for _ in range(length)))
        best = min(
            _timed(lambda: normal_form(w)) for _ in range(3)
        )
        times.append(best)
    exponent = fitted_exponent(sizes, times)
    assert exponent <= 4.0, (sizes, times, exponent)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: meet(Permutation((1, 2)), Permutation((1, 2, 3))),
                 "size mismatch", id="meet-sizes"),
    pytest.param(lambda: multiply(normal_form(BraidWord(3)), normal_form(BraidWord(4))),
                 "strand counts differ: 3 != 4", id="multiply-strands"),
    pytest.param(lambda: nf_power(normal_form(BraidWord(3, (1,))), -1),
                 "negative powers of positive braids do not exist", id="negative-power"),
])
def test_validation_errors(build, message):
    assert_raises(build, ValueError, message)
