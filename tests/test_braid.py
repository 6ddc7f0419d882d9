import itertools
import random
import time

import pytest

from helpers import assert_raises, identity, inversions, longest, simple, then
from lorenzlinks import (
    BraidWord,
    ParseError,
    Permutation,
    UnsupportedInput,
    bracket,
    cycle_count,
    flip_word,
    format_word,
    parse_vector,
    parse_word,
    permutation_braid_word,
    power,
)
from lorenzlinks.braid import MAX_LETTERS, MAX_WORD_STRANDS, _brackets, _cycles
from lorenzlinks.lorenz import lorenz_permutation


def test_bracket_ascending():
    w = bracket(1, 3, 3)
    assert w.letters == (1, 2)
    assert bracket(2, 3, 8).letters == (2,)


def test_bracket_descending():
    assert bracket(3, 1, 3).letters == (2, 1)
    assert bracket(5, 2, 6).letters == (4, 3, 2)


def test_bracket_length_and_errors():
    assert len(bracket(2, 7, 9)) == 5
    with pytest.raises(ValueError):
        bracket(2, 2, 4)
    with pytest.raises(ValueError):
        bracket(0, 3, 4)
    with pytest.raises(ValueError):
        bracket(1, 5, 4)


def test_brackets_are_the_product_of_bracket_powers():
    # one builder for every word: its letters are the bracket powers laid end
    # to end, [v, v] is empty, and the length is sum |v - w| c
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(2, 9)
        blocks = [(rng.randint(1, n), rng.randint(1, n), rng.randint(0, 4))
                  for _ in range(rng.randint(0, 5))]
        expected = tuple(i for v, w, c in blocks if v != w for i in bracket(v, w, n).letters * c)
        assert _brackets(blocks) == expected
        assert len(expected) == sum(abs(v - w) * c for v, w, c in blocks)


def test_brackets_size_the_word_before_building_it():
    assert len(_brackets([(1, 2, MAX_LETTERS)])) == MAX_LETTERS
    for blocks in ([(1, 2, MAX_LETTERS + 1)], [(1, 3, 10 ** 18)], [(3, 1, 1)] * (MAX_LETTERS // 2 + 1)):
        assert_raises(lambda: _brackets(blocks), UnsupportedInput,
                      f"word exceeds the cap of {MAX_LETTERS} letters")


def test_product_rule_letter_level():
    # [u,v][v,w] has the same letters as [u,w]
    for v, u, w in [(1, 2, 4), (2, 4, 7), (1, 3, 5)]:
        lhs = bracket(v, u, w) * bracket(u, w, w)
        assert lhs.letters == bracket(v, w, w).letters


def test_concat_and_power():
    e = BraidWord(3)
    w = bracket(1, 3, 3)
    assert e * w == w
    assert power(w, 3).letters == w.letters * 3
    assert power(w, 0) == e
    assert power(BraidWord(2, (1,)), 5).letters == (1,) * 5
    with pytest.raises(ValueError):
        BraidWord(3, (1,)) * BraidWord(4, (1,))
    with pytest.raises(ValueError):
        power(w, -1)


def test_letters_validated():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))


def test_permutation_from_letters_examples():
    assert Permutation.from_letters(5, ()).image == (1, 2, 3, 4, 5)
    assert Permutation.from_letters(3, (1, 2)).image == (3, 1, 2)
    perm = lorenz_permutation(parse_vector("2^2,3^2"))
    assert perm.image == (3, 4, 6, 7, 1, 2, 5)


def test_permutation_composition_matches_concat():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(2, 7)
        a = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))
        b = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))
        assert Permutation.from_letters(n, (a * b).letters) == then(
            Permutation.from_letters(n, a.letters), Permutation.from_letters(n, b.letters))


def test_cycle_count():
    assert cycle_count(identity(6)) == 6
    import math

    for r in range(2, 7):
        for s in range(r, 10):
            mu = cycle_count(lorenz_permutation(parse_vector(f"{r}^{s}")))
            assert mu == math.gcd(r, s)
    assert cycle_count(lorenz_permutation(parse_vector("2^4,3^2,6,8^2"))) == 1


def test_cycle_count_is_the_orbit_count():
    # Independent count: the orbit of a is {p^k(a) : 0 <= k < n}, from powers
    # built with then(); distinct orbits are the cycles.
    for n in range(8):
        for image in itertools.permutations(range(1, n + 1)):
            p = Permutation(image)
            powers = [identity(n)]
            for _ in range(n - 1):
                powers.append(then(powers[-1], p))
            orbits = {frozenset(q(a) for q in powers) for a in range(1, n + 1)}
            assert cycle_count(p) == len(orbits), image


def test_cycle_walk_refuses_a_list_that_is_not_a_permutation():
    # every walk of _cycles must close at its start; a repeated value leaves
    # some walk stuck on a cycle that does not hold its start
    for image in ((1, 1), (2, 2), (2, 3, 3), (2, 1, 1), (3, 1, 1, 4), (2, 3, 4, 2)):
        with pytest.raises(AssertionError):
            _cycles(list(image))


def test_inverse_undoes_every_small_permutation():
    for n in range(1, 7):
        e = identity(n)
        for image in itertools.permutations(range(1, n + 1)):
            p = Permutation(image)
            assert then(p, p.inverse) == e
            assert then(p.inverse, p) == e


def test_from_letters_is_the_product_of_simples():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(2, 9)
        letters = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 3 * n))]
        expected = identity(n)
        for i in letters:
            expected = then(expected, simple(i, n))
        assert Permutation.from_letters(n, letters) == expected


def test_flip_word():
    assert flip_word(BraidWord(3, (1, 2))).letters == (2, 1)
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 8)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))))
        assert flip_word(flip_word(w)) == w
        assert len(flip_word(w)) == len(w)
        w0 = longest(n)
        assert Permutation.from_letters(n, flip_word(w).letters) == then(
            then(w0, Permutation.from_letters(n, w.letters)), w0)


def test_permutation_braid_word_small():
    assert permutation_braid_word(identity(4)).letters == ()
    assert permutation_braid_word(simple(1, 2)).letters == (1,)


@pytest.mark.parametrize("n", range(1, 8))
def test_permutation_braid_word_exhaustive(n):
    # length = inversions, permutation round-trips, for every element of S_n
    for img in itertools.permutations(range(1, n + 1)):
        p = Permutation(img)
        w = permutation_braid_word(p)
        assert len(w) == inversions(p)
        assert Permutation.from_letters(n, w.letters) == p


def test_permutation_braid_word_skips_strands_that_cross_nothing():
    # a transposition of the first two of 10,000 strands: the scan over every
    # placed strand, for every strand, took seconds
    image = (2, 1) + tuple(range(3, 10001))
    t0 = time.perf_counter()
    w = permutation_braid_word(Permutation(image))
    elapsed = time.perf_counter() - t0
    assert w == BraidWord(10000, (1,))
    assert elapsed < 0.1, elapsed


def test_lorenz_word_length_is_inversion_count():
    v = parse_vector("2^4,3^2,6,8^2")
    p = lorenz_permutation(v)
    w = permutation_braid_word(p)
    assert len(w) == 36 == inversions(p) == v.total


def test_word_text_round_trip():
    w = BraidWord(3, (1, 2, 1))
    assert format_word(w) == "n=3 1 2 1"
    assert parse_word("n=3 1 2 1") == w
    assert parse_word("n=4") == BraidWord(4)
    with pytest.raises(ParseError):
        parse_word("1 2 1")
    with pytest.raises(ParseError):
        parse_word("n=3 7")


@pytest.mark.parametrize("build, exc_type, message", [
    pytest.param(lambda: Permutation((1, 1)), ValueError,
                 "not a permutation of 1..2: (1, 1)", id="repeated-image"),
    pytest.param(lambda: BraidWord(0), ValueError,
                 "a braid needs at least one strand", id="no-strands"),
    pytest.param(lambda: parse_word("n=3 1 x"), ParseError,
                 "malformed braid word 'n=3 1 x'", id="bad-letter"),
    pytest.param(lambda: BraidWord(4, (1, 2, 5, 0)), ValueError,
                 "letter 5 out of range 1..3", id="first-bad-letter"),
    pytest.param(lambda: parse_word("n=3 1 0 3"), ParseError,
                 "letter 0 out of range 1..2", id="parsed-bad-letter"),
    pytest.param(lambda: parse_word(f"n={MAX_WORD_STRANDS + 1} 1"), UnsupportedInput,
                 f"n = {MAX_WORD_STRANDS + 1} exceeds the cap of {MAX_WORD_STRANDS} strands",
                 id="strand-cap"),
    pytest.param(lambda: parse_word("n=100000000 1 x"), ParseError,
                 "malformed braid word 'n=100000000 1 x'", id="malformed-past-the-cap"),
])
def test_validation_errors(build, exc_type, message):
    assert_raises(build, exc_type, message)
