import random
import time
import warnings

import pytest

from helpers import random_normalized_vector
from lorenzlinks import (
    UNKNOT,
    LorenzVector,
    ParseError,
    classify_strands,
    cycle_count,
    dual_vector,
    flip_word,
    format_vector,
    lorenz_braid_word,
    lorenz_permutation,
    milestone_words,
    minimal_braid_word,
    normalize,
    parse_vector,
    tm_triple,
    trip_number,
    vector_from_triple,
    words_equal,
)
from lorenzlinks.braid import BraidWord
from lorenzlinks.lorenz import (
    TmTriple,
    VectorOrderWarning,
    minimal_word_from_triple,
    normalize_steps,
)

FAVORITE = "2^4,3^2,6,8^2"


def test_parse_and_format():
    v = parse_vector(FAVORITE)
    assert v.d == (2, 2, 2, 2, 3, 3, 6, 8, 8)
    assert format_vector(v) == FAVORITE
    assert parse_vector("2,2,3").d == (2, 2, 3)
    assert parse_vector("3").d == (3,)
    assert not parse_vector("3").is_normalized


def test_parse_sorts_with_warning():
    with pytest.warns(VectorOrderWarning):
        v = parse_vector("6^6,5^8")
    assert format_vector(v) == "5^8,6^6"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_vector("2^2,3^4")  # ordered input warns on nothing


def test_parse_errors():
    for bad in ("", "0,2", "2^0", "a", "2;3"):
        with pytest.raises(ParseError):
            parse_vector(bad)


def test_vector_invariants():
    with pytest.raises(ValueError):
        LorenzVector((3, 2))
    with pytest.raises(ValueError):
        LorenzVector(())


def test_normalize_examples():
    assert normalize(LorenzVector((1, 1, 4))) is UNKNOT
    assert normalize(LorenzVector((2, 2, 3, 4))) == LorenzVector((2, 2, 3, 3))
    v = parse_vector(FAVORITE)
    assert normalize(v) == v
    assert normalize(LorenzVector((2,))) is UNKNOT
    assert normalize(LorenzVector((1, 2, 2))) == LorenzVector((2, 2))


def test_normalize_preserves_c_minus_n():
    rng = random.Random(3)
    for _ in range(200):
        # build arbitrary (possibly unnormalized) vectors
        p = rng.randint(1, 12)
        d = sorted(rng.randint(1, 9) for _ in range(p))
        v = LorenzVector(tuple(d))
        before = v.total - v.strands
        for step in normalize_steps(v):
            assert step.total - step.strands == before


def _normalize_by_steps(v):
    final = v
    for step in normalize_steps(v):
        final = step
    return UNKNOT if final.p <= 1 else final


def test_normalize_agrees_with_steps():
    rng = random.Random(17)
    for _ in range(3000):
        ones = rng.choice((0, 0, 1, 2, 6))
        p = rng.randint(0 if ones else 1, 10)
        d = sorted(rng.randint(1, 9) for _ in range(p))
        if d and rng.random() < 0.5:
            d[-1] += rng.randint(1, 300)  # a long run of decrements
        v = LorenzVector((1,) * ones + tuple(d))
        assert normalize(v) == _normalize_by_steps(v), v


def test_normalize_long_decrement_is_fast():
    v = parse_vector("2^1000,20000")
    t0 = time.perf_counter()
    nv = normalize(v)
    elapsed = time.perf_counter() - t0
    assert nv == LorenzVector((2,) * 1001)
    assert elapsed < 0.05, elapsed


def test_lorenz_permutation_favorite():
    v = parse_vector(FAVORITE)
    perm = lorenz_permutation(v)
    assert perm.size == 17
    assert cycle_count(perm) == 1
    assert len(lorenz_braid_word(v)) == 36


def test_lorenz_permutation_hopf():
    perm = lorenz_permutation(parse_vector("2^2"))
    assert perm.image == (3, 4, 1, 2)
    assert cycle_count(perm) == 2


def test_trip_number():
    assert trip_number(parse_vector(FAVORITE)) == 3
    assert trip_number(parse_vector("3^6,8^3")) == 3
    for r in range(2, 7):
        for s in range(r, 10):
            assert trip_number(parse_vector(f"{r}^{s}")) == r
    with pytest.raises(ValueError):
        trip_number(LorenzVector((1, 2, 2)))


def test_classify_strands():
    cls = classify_strands(parse_vector(FAVORITE))
    assert cls.counts == {"LL": 6, "LR": 3, "RL": 3, "RR": 5}
    cls = classify_strands(parse_vector("2^2"))
    assert cls.counts == {"LL": 0, "LR": 2, "RL": 2, "RR": 0}
    cls = classify_strands(parse_vector("3^6,8^3"))
    assert cls.counts == {"LL": 6, "LR": 3, "RL": 3, "RR": 5}


def test_classification_counts_formula():
    rng = random.Random(77)
    for _ in range(100):
        v = random_normalized_vector(rng)
        t = trip_number(v)
        counts = classify_strands(v).counts
        assert counts == {
            "LL": v.p - t,
            "LR": t,
            "RL": t,
            "RR": v.dp - t,
        }


def test_dual_examples():
    assert format_vector(dual_vector(parse_vector(FAVORITE))) == "2^2,3^3,5,9^2"
    assert (
        format_vector(dual_vector(parse_vector("2^2,3^3,4^2,7,9,13^2")))
        == "2^4,3^2,4^3,6,9,11^2"
    )
    assert format_vector(dual_vector(parse_vector("4^5"))) == "5^4"
    assert format_vector(dual_vector(parse_vector("5^4"))) == "4^5"


def test_dual_involution_and_braid_index():
    rng = random.Random(123)
    for _ in range(300):
        v = random_normalized_vector(rng, max_p=30)
        d = dual_vector(v)
        assert d.is_normalized
        assert dual_vector(d) == v
        assert d.p + d.dp == v.p + v.dp
        assert d.p == v.dp and d.dp == v.p


def test_tm_triple_examples():
    tr = tm_triple(parse_vector(FAVORITE))
    assert (tr.t, tr.n, tr.m) == (3, (4, 2), (2, 3))
    tr = tm_triple(parse_vector("3^6,8^3"))
    assert (tr.t, tr.n, tr.m) == (3, (0, 6), (0, 5))
    tr = tm_triple(parse_vector("2^2"))
    assert (tr.t, tr.n, tr.m) == (2, (0,), (0,))


def test_triple_sums():
    rng = random.Random(5)
    for _ in range(200):
        v = random_normalized_vector(rng)
        tr = tm_triple(v)
        assert sum(tr.n) == v.p - tr.t
        assert sum(tr.m) == v.dp - tr.t
        assert 2 * tr.t + sum(tr.n) + sum(tr.m) == v.p + v.dp


def test_triple_round_trip():
    rng = random.Random(6)
    assert vector_from_triple(tm_triple(parse_vector(FAVORITE))) == parse_vector(FAVORITE)
    for _ in range(300):
        v = random_normalized_vector(rng)
        assert vector_from_triple(tm_triple(v)) == v


def test_minimal_word_examples():
    v = parse_vector(FAVORITE)
    w = minimal_braid_word(v)
    assert w.strands == 3
    assert len(w) == 22 == v.total + 3 - v.p - v.dp
    # [1,3]^3 [1,2]^4 [1,3]^2 [3,2]^2 [3,1]^3
    expected = (1, 2) * 3 + (1,) * 4 + (1, 2) * 2 + (2,) * 2 + (2, 1) * 3
    assert w.letters == expected
    assert minimal_braid_word(parse_vector("2^2")).letters == (1, 1)


def test_minimal_word_t2_collapse():
    # t = 2 vectors give sigma_1^(2 + n1 + m1)
    for text in ("2^3", "2^5", "3^2", "2,3^2"):
        v = parse_vector(text)
        tr = tm_triple(v)
        if tr.t != 2:
            continue
        w = minimal_braid_word(v)
        assert w.strands == 2
        assert w.letters == (1,) * (2 + tr.n[0] + tr.m[0])


def test_distinct_vectors_may_share_minimal_word():
    # for t = 2 every partition of n1 + m1 gives the same 2-braid
    a = vector_from_triple(TmTriple(2, (1,), (2,)))
    b = vector_from_triple(TmTriple(2, (2,), (1,)))
    assert a != b
    assert a == parse_vector("2,4^2") and b == parse_vector("2^2,3^2")
    assert minimal_braid_word(a) == minimal_braid_word(b) == BraidWord(2, (1,) * 5)


def test_torus_vector_minimal_length():
    for r in range(2, 6):
        for s in range(r, 9):
            v = parse_vector(f"{r}^{s}")
            assert len(minimal_braid_word(v)) == s * (r - 1)


def test_milestones_favorite():
    mw = milestone_words(parse_vector(FAVORITE))
    assert mw.crossings == {"lorenz": 36, "t": 27, "t_dual": 28, "minimal": 22}
    assert mw.braid_indices == {"lorenz": 17, "t": 8, "t_dual": 9, "minimal": 3}
    assert mw.c_minus_n == 19
    for name in mw.words:
        assert mw.crossings[name] - mw.braid_indices[name] == 19


def test_milestones_trefoil():
    mw = milestone_words(parse_vector("2^3"))
    assert mw.minimal.letters == (1, 1, 1)
    assert mw.c_minus_n == 1


def test_milestones_component_agreement():
    rng = random.Random(17)
    for _ in range(60):
        v = random_normalized_vector(rng, max_p=14, max_r=8)
        mw = milestone_words(v)
        mus = {cycle_count(w.permutation()) for w in mw.words.values()}
        assert len(mus) == 1
        cs = set(mw.crossings[n] - mw.braid_indices[n] for n in mw.crossings)
        assert len(cs) == 1


def test_minimal_word_delta_duality():
    # flip(M(t,n,m)) is a cyclic rotation of M(t,m,n) as a braid element
    rng = random.Random(19)
    vectors = [parse_vector(FAVORITE)]
    for _ in range(8):
        vectors.append(random_normalized_vector(rng, max_p=8, max_r=6))
    for v in vectors:
        tr = tm_triple(v)
        flipped = flip_word(minimal_word_from_triple(tr))
        target = minimal_word_from_triple(TmTriple(tr.t, tr.m, tr.n))
        letters = flipped.letters
        assert any(
            words_equal(BraidWord(flipped.strands, letters[i:] + letters[:i]), target)
            for i in range(max(1, len(letters)))
        )
