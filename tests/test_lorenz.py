import itertools
import random
import sys
import time
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (assert_raises, dual_vector_entries, from_entries, normalize_steps,
                     parse_vector_regex, random_normalized_vector, rle_loop, tm_triple_entries,
                     trip_number_entries, x_letters_from_triple)
from lorenzlinks import (
    UNKNOT,
    LorenzVector,
    ParseError,
    Permutation,
    TParams,
    UnsupportedInput,
    classify_strands,
    cycle_count,
    dual_vector,
    flip_word,
    format_vector,
    load_census,
    lorenz_braid_word,
    lorenz_permutation,
    milestone_words,
    minimal_braid_word,
    normalize,
    parse_vector,
    permutation_braid_word,
    tbraid_word,
    tm_triple,
    tparams_to_vector,
    trip_number,
    vector_from_triple,
    vector_to_tparams,
    words_equal,
)
from lorenzlinks.braid import MAX_LETTERS, BraidWord, _brackets
from lorenzlinks.lorenz import (
    MAX_TERM_DIGITS,
    TmTriple,
    VectorOrderWarning,
    _x_blocks,
)

FAVORITE = "2^4,3^2,6,8^2"


def test_parse_and_format():
    v = parse_vector(FAVORITE)
    assert v.d == (2, 2, 2, 2, 3, 3, 6, 8, 8)
    assert format_vector(v) == FAVORITE
    assert parse_vector("2,2,3").d == (2, 2, 3)
    assert parse_vector("3").d == (3,)
    assert not parse_vector("3").is_normalized


def test_rle_matches_the_entry_loop():
    rng = random.Random(23)
    vectors = [e.vector for e in load_census() if e.known]
    vectors += [random_normalized_vector(rng, max_p=60, max_r=20) for _ in range(2000)]
    vectors += [random_normalized_vector(rng, max_p=2000, max_r=60) for _ in range(50)]
    # k = p: every entry differs, one run per entry
    vectors += [from_entries(range(1, p + 1)) for p in range(1, 40)]
    vectors += [from_entries(sorted(rng.sample(range(1, 500), p))) for p in range(1, 60)]
    vectors += [from_entries((7,) * p) for p in (1, 2, 1000)]
    for v in vectors:
        assert v.rle == rle_loop(v.d), v


_RUNS = st.lists(st.tuples(st.integers(1, 60), st.integers(1, 30)), min_size=1, max_size=12,
                 unique_by=lambda run: run[0]).map(sorted)


def _expand(runs) -> tuple[int, ...]:
    return tuple([r for r, s in runs for _ in range(s)])


@settings(max_examples=300, deadline=None)
@given(_RUNS)
def test_run_lengths_round_trip(runs):
    v = from_entries(_expand(runs))
    assert v.rle == tuple(runs) and v == LorenzVector(tuple(runs))
    assert _expand(v.rle) == v.d
    assert parse_vector(format_vector(v)) == v


@settings(max_examples=300, deadline=None)
@given(_RUNS.filter(lambda runs: runs[0][0] >= 2 and runs[-1][1] >= 2))
def test_tparams_round_trip_on_normalized_run_lengths(runs):
    v = from_entries(_expand(runs))
    assert v.is_normalized
    tp = vector_to_tparams(v)
    assert tp.pairs == tuple(runs)
    assert tparams_to_vector(tp) == v


# Small runs from r = 1: leading 1-runs, a last run of one entry, and r^s
# with s > r, where the LL rows of length t meet the shortest LR row (m_(t-1) = 0).
_SMALL_RUNS = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=1, max_size=5,
                       unique_by=lambda run: run[0]).map(sorted)


@settings(max_examples=300, deadline=None)
@given(_SMALL_RUNS)
@example([(1, 2), (3, 5)])  # a leading 1-run, and the seam at r = t = 3
@example([(2, 3), (4, 2), (6, 1)])  # s_k = 1
@example([(2, 1), (3, 3), (5, 2)])  # the seam at t = 3 with a longer run above
def test_run_length_functions_match_the_entry_oracles(runs):
    v = LorenzVector(tuple(runs))
    assert v.d == _expand(runs) and v == from_entries(v.d)
    assert normalize(v) == _normalize_by_steps(v)
    if runs[0][0] >= 2:  # unmerged T-parameters: each run with s > 1 cut in two
        split = [pair for r, s in runs for pair in ([(r, 1), (r, s - 1)] if s > 1 else [(r, s)])]
        assert tparams_to_vector(TParams(tuple(split))) == v
    nv = normalize(v)
    if nv is UNKNOT:
        return
    assert trip_number(nv) == trip_number_entries(nv)
    assert dual_vector(nv) == dual_vector_entries(nv)
    triple = tm_triple(nv)
    assert triple == tm_triple_entries(nv)
    assert vector_from_triple(triple) == nv


def test_parse_sorts_with_warning():
    with pytest.warns(VectorOrderWarning):
        v = parse_vector("6^6,5^8")
    assert format_vector(v) == "5^8,6^6"
    with pytest.warns(VectorOrderWarning):
        assert parse_vector("2,3,2") == parse_vector("2^2,3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_vector("2^2,3^4")  # ordered input warns on nothing
        assert parse_vector("2^2,2,3") == parse_vector("2^3,3")  # equal r merge silently
        assert parse_vector("3^2,3") == parse_vector("3^3")  # even with s reordered
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_vector("3,2") == parse_vector("2,3")
    assert [(w.category, str(w.message)) for w in caught] == [
        (VectorOrderWarning, "vector '3,2' is not nondecreasing; sorted")]
    assert caught[0].filename == __file__  # stacklevel=2: the caller's line


def _outcome(parse, text):
    """(vector, warnings) of parse(text), or (exception type, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            v = parse(text)
        except Exception as exc:
            return type(exc), str(exc)
    return v, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789^,<> \t\n+-_\u0663\uff12\u00b2", max_size=12))
@example("3^")
@example("^3")
@example("3^^2")
@example("3^2^2")
@example(" 3 ^ 2")
@example("007^02")
@example("0")
@example("2^0")
@example("1_0")
@example("<2,3>")
@example("2,,3")
@example("<>")
@example("")
def test_parse_matches_the_regex_grammar(text):
    assert _outcome(parse_vector, text) == _outcome(parse_vector_regex, text)


def test_an_over_long_term_is_refused_whatever_the_int_limit():
    message = f"a vector term of 4301 digits exceeds the cap of {MAX_TERM_DIGITS} digits"
    limit = sys.get_int_max_str_digits()
    for lifted in (limit, 0):
        sys.set_int_max_str_digits(lifted)
        try:
            assert_raises(lambda: parse_vector("2," + "3" * 4301), UnsupportedInput, message)
            assert_raises(lambda: parse_vector("3^" + "1" * 4301), UnsupportedInput, message)
            assert_raises(lambda: parse_vector("0" * 4301 + "^2"), UnsupportedInput, message)
        finally:
            sys.set_int_max_str_digits(limit)
    with pytest.raises(ParseError):
        parse_vector("3" * 4301 + "x")  # malformed before it is long
    assert parse_vector("9" * 4300 + "^" + "0" * 4299 + "2").rle == ((10 ** 4300 - 1, 2),)


def test_parse_errors():
    for bad in ("", "0,2", "2^0", "a", "2;3"):
        with pytest.raises(ParseError):
            parse_vector(bad)


def test_vector_invariants():
    with pytest.raises(ValueError):
        from_entries((3, 2))
    with pytest.raises(ValueError):
        from_entries(())


def test_normalize_examples():
    assert normalize(from_entries((1, 1, 4))) is UNKNOT
    assert normalize(from_entries((2, 2, 3, 4))) == from_entries((2, 2, 3, 3))
    v = parse_vector(FAVORITE)
    assert normalize(v) == v
    assert normalize(from_entries((2,))) is UNKNOT
    assert normalize(from_entries((1, 2, 2))) == from_entries((2, 2))


def test_normalize_preserves_c_minus_n():
    rng = random.Random(3)
    for _ in range(200):
        # build arbitrary (possibly unnormalized) vectors
        p = rng.randint(1, 12)
        d = sorted(rng.randint(1, 9) for _ in range(p))
        v = from_entries(d)
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
        v = from_entries((1,) * ones + tuple(d))
        assert normalize(v) == _normalize_by_steps(v), v


def test_normalize_long_decrement_is_fast():
    v = parse_vector("2^1000,20000")
    t0 = time.perf_counter()
    nv = normalize(v)
    elapsed = time.perf_counter() - t0
    assert nv == from_entries((2,) * 1001)
    assert elapsed < 0.05, elapsed


def test_lorenz_permutation_favorite():
    v = parse_vector(FAVORITE)
    perm = lorenz_permutation(v)
    assert perm.size == 17
    assert cycle_count(perm) == 1
    assert len(lorenz_braid_word(v)) == 36


def _raw_vectors(rng, count):
    """Vectors as written, not normalized: leading 1s, s_k = 1 and single runs."""
    vectors = []
    for _ in range(count):
        rs = sorted(rng.sample(range(1, 16), rng.randint(1, 5)))
        ss = [rng.randint(1, 7) for _ in rs]
        if rng.random() < 0.3:
            ss[-1] = 1
        vectors.append(LorenzVector(tuple(zip(rs, ss))))
    return vectors


def test_lorenz_word_from_its_brackets_is_the_permutation_word():
    # prod_j [p+j, u_j] has the letters of the inversion scan on the Lorenz
    # permutation, which it replaced, on normalized and raw vectors alike
    rng = random.Random(41)
    vectors = [e.vector for e in load_census() if e.known]
    vectors += [random_normalized_vector(rng, max_p=40, max_r=16, max_k=6) for _ in range(1000)]
    vectors += _raw_vectors(rng, 1000)
    vectors += [parse_vector(text) for text in ("1", "1^5", "1^3,2", "1,4^2,9", "5", "2,3")]
    assert sum(v.rle[0][0] == 1 for v in vectors) > 200
    assert sum(v.rle[-1][1] == 1 for v in vectors) > 200
    for v in vectors:
        assert lorenz_braid_word(v) == permutation_braid_word(lorenz_permutation(v)), v


def test_lorenz_word_is_linear_in_its_letters():
    # 20,000 letters on 4,007 strands; the inversion scan took seconds
    v = parse_vector("3^2000,7^2000")
    t0 = time.perf_counter()
    w = lorenz_braid_word(v)
    elapsed = time.perf_counter() - t0
    assert (w.strands, len(w)) == (4007, 20000)
    assert elapsed < 0.1, elapsed


def test_every_builder_has_its_closed_form_length():
    # the blocks of X size X exactly, and every word has the length its
    # closed form in the runs gives: S, S - p, S - d_p, |M| and |M| - t(t-1),
    # which is (t-1)(q-t) whenever |M| = (t-1) q
    rng = random.Random(43)
    vectors = [e.vector for e in load_census() if e.known]
    vectors += [random_normalized_vector(rng, max_p=60, max_r=20, max_k=6) for _ in range(1500)]
    for v in vectors:
        t = trip_number(v)
        total, p, dp, length = v.total, v.p, v.dp, v.total - v.p - v.dp + t
        blocks = _x_blocks(v, t)
        assert sum(abs(a - b) * c for a, b, c in blocks) == len(_brackets(blocks)) == length - t * (t - 1)
        assert len(lorenz_braid_word(v)) == total
        assert len(tbraid_word(vector_to_tparams(v))) == total - p
        assert len(tbraid_word(vector_to_tparams(dual_vector(v)))) == total - dp
        assert len(minimal_braid_word(v)) == length
        if length % (t - 1) == 0:
            assert len(_brackets(blocks)) == (t - 1) * (length // (t - 1) - t)


def test_words_past_the_letter_cap_are_refused_before_they_are_built():
    # S = 200,000,006 and 2,000,000,000: the Lorenz word is sized from S before
    # any block is read; 1000000000^2 has one block per undercrossing strand
    for v, build in itertools.product(
            map(parse_vector, ("2^100000000,3^2", "1000000000^2")),
            (lorenz_braid_word, milestone_words)):
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedInput) as exc:
                build(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (v, build, peak)
        assert str(exc.value) == f"word exceeds the cap of {MAX_LETTERS} letters"
    # the cap itself is built, one letter past it is refused
    assert len(lorenz_braid_word(parse_vector(f"2^{MAX_LETTERS // 2}"))) == MAX_LETTERS
    with pytest.raises(UnsupportedInput):
        lorenz_braid_word(parse_vector(f"2^{MAX_LETTERS // 2 - 1},3"))


def test_lorenz_permutation_hopf():
    perm = lorenz_permutation(parse_vector("2^2"))
    assert perm.image == (3, 4, 1, 2)
    assert cycle_count(perm) == 2


def test_entries_past_the_cap_are_refused_before_they_are_expanded():
    # p + d_p = 30,000,008 and 10^20 + 7: the entries d, and so the Lorenz
    # permutation on p + d_p strands, are refused from the runs
    for text in ("2^30000000,3^5", "2^99999999999999999999,3^5"):
        v = parse_vector(text)
        for expand in (lambda: v.d, lambda: lorenz_permutation(v)):
            tracemalloc.start()
            try:
                with pytest.raises(UnsupportedInput) as exc:
                    expand()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (text, peak)
            assert str(exc.value) == f"p + d_p = {v.strands} exceeds the cap of {MAX_LETTERS} strands"
    # at the cap the entries are expanded, one strand past it they are refused
    assert len(LorenzVector(((2, MAX_LETTERS - 2),)).d) == MAX_LETTERS - 2
    with pytest.raises(UnsupportedInput):
        LorenzVector(((3, MAX_LETTERS - 2),)).d


def test_trip_number():
    assert trip_number(parse_vector(FAVORITE)) == 3
    assert trip_number(parse_vector("3^6,8^3")) == 3
    for r in range(2, 7):
        for s in range(r, 10):
            assert trip_number(parse_vector(f"{r}^{s}")) == r
    with pytest.raises(ValueError):
        trip_number(from_entries((1, 2, 2)))


def test_trip_number_agrees_with_count():
    # the definition t = #{i : i + d_i > p}, counted strand by strand
    rng = random.Random(19)
    for _ in range(20000):
        v = random_normalized_vector(rng, max_p=60, max_r=20)
        p = v.p
        count = sum(1 for i, di in enumerate(v.d, start=1) if i + di > p)
        assert trip_number(v) == count, v


def _kinds(counts: dict[str, int]) -> tuple[str, ...]:
    """The strand types in start order, which the counts fix: LL, LR, RL, RR."""
    return tuple(itertools.chain.from_iterable(itertools.repeat(k, c) for k, c in counts.items()))


def test_classify_strands():
    for text, counts in ((FAVORITE, {"LL": 6, "LR": 3, "RL": 3, "RR": 5}),
                         ("2^2", {"LL": 0, "LR": 2, "RL": 2, "RR": 0}),
                         ("3^6,8^3", {"LL": 6, "LR": 3, "RL": 3, "RR": 5})):
        v = parse_vector(text)
        assert classify_strands(v) == counts
        assert _kinds(classify_strands(v)) == _classify_by_walk(v), text


def test_classify_strands_on_huge_p_builds_nothing():
    # p = 10^20 + 4: the counts come from the runs, no strand is listed
    v = parse_vector("2^99999999999999999999,3^5")
    tracemalloc.start()
    try:
        counts = classify_strands(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert counts == {"LL": 10 ** 20 + 1, "LR": 3, "RL": 3, "RR": 0}


def _classify_by_walk(v: LorenzVector) -> tuple[str, ...]:
    """Strand types read off the Lorenz permutation, one strand at a time."""
    perm = lorenz_permutation(v)
    p = v.p
    kinds = []
    for start in range(1, v.strands + 1):
        end = perm(start)
        if start <= p:
            kinds.append("LL" if end <= p else "LR")
        else:
            kinds.append("RL" if end <= p else "RR")
    return tuple(kinds)


def test_classification_matches_permutation_walk():
    rng = random.Random(78)
    for _ in range(2000):
        v = random_normalized_vector(rng)
        assert _kinds(classify_strands(v)) == _classify_by_walk(v), v


def test_classification_counts_formula():
    rng = random.Random(77)
    for _ in range(100):
        v = random_normalized_vector(rng)
        t = trip_number(v)
        counts = classify_strands(v)
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
    census = [e.vector for e in load_census() if e.known]
    assert len(census) == 107
    for v in census + [random_normalized_vector(rng, max_p=30) for _ in range(300)]:
        d = dual_vector(v)
        assert d.is_normalized
        assert dual_vector(d) == v
        assert d.p + d.dp == v.p + v.dp
        assert d.p == v.dp and d.dp == v.p
        # the conjugate keeps the Durfee square and swaps n with m
        tr = tm_triple(v)
        assert trip_number(d) == trip_number(v) == tr.t
        assert tm_triple(d) == TmTriple(tr.t, tr.m, tr.n)


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


def _triple_is_inverted(triple: TmTriple) -> None:
    v = vector_from_triple(triple)
    assert v.is_normalized, triple
    assert trip_number(v) == triple.t, triple
    assert tm_triple(v) == triple, triple


def test_vector_from_triple_is_total():
    # every valid triple has a vector: no triple reaches an inconsistency
    count = 0
    for t in range(2, 6):
        for n in itertools.product(range(3), repeat=t - 1):
            for m in itertools.product(range(3), repeat=t - 1):
                _triple_is_inverted(TmTriple(t, n, m))
                count += 1
    assert count == 7380
    rng = random.Random(29)
    for _ in range(500):
        t = rng.randint(2, 12)
        n = tuple(rng.randint(0, 6) for _ in range(t - 1))
        m = tuple(rng.randint(0, 6) for _ in range(t - 1))
        _triple_is_inverted(TmTriple(t, n, m))


def test_minimal_word_examples():
    v = parse_vector(FAVORITE)
    w = minimal_braid_word(v)
    assert w.strands == 3
    assert len(w) == 22 == v.total + 3 - v.p - v.dp
    # [1,3]^3 [1,2]^4 [1,3]^2 [3,2]^2 [3,1]^3
    expected = (1, 2) * 3 + (1,) * 4 + (1, 2) * 2 + (2,) * 2 + (2, 1) * 3
    assert w.letters == expected
    assert minimal_braid_word(parse_vector("2^2")).letters == (1, 1)


def test_x_letters_from_the_runs_match_the_triple():
    # X read from the runs against X read from the triple (t, n, m) that the
    # entry-based oracle counts, on seeded vectors with runs below, at and
    # above t, and on every small triple; the triple read from the runs gives
    # back the vector.
    rng = random.Random(31)
    vectors = [random_normalized_vector(rng, max_p=40, max_r=16, max_k=6) for _ in range(1500)]
    vectors += [vector_from_triple(TmTriple(t, n, m)) for t in range(2, 5)
                for n in itertools.product(range(3), repeat=t - 1)
                for m in itertools.product(range(3), repeat=t - 1)]
    for v in vectors:
        tr = tm_triple_entries(v)
        assert _brackets(_x_blocks(v, tr.t)) == x_letters_from_triple(tr), v
        assert vector_from_triple(tm_triple(v)) == v, v


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
    words = milestone_words(parse_vector(FAVORITE))
    assert list(words) == ["lorenz", "t", "t_dual", "minimal"]
    assert {name: len(w) for name, w in words.items()} == {
        "lorenz": 36, "t": 27, "t_dual": 28, "minimal": 22}
    assert {name: w.strands for name, w in words.items()} == {
        "lorenz": 17, "t": 8, "t_dual": 9, "minimal": 3}
    for w in words.values():
        assert len(w) - w.strands == 19


def test_milestones_trefoil():
    words = milestone_words(parse_vector("2^3"))
    assert words["minimal"].letters == (1, 1, 1)
    assert len(words["lorenz"]) - words["lorenz"].strands == 1


def test_milestones_component_agreement():
    rng = random.Random(17)
    for _ in range(60):
        v = random_normalized_vector(rng, max_p=14, max_r=8)
        words = milestone_words(v).values()
        mus = {cycle_count(Permutation.from_letters(w.strands, w.letters)) for w in words}
        assert len(mus) == 1
        cs = {len(w) - w.strands for w in words}
        assert len(cs) == 1


def test_minimal_word_delta_duality():
    # flip(M(t,n,m)) is a cyclic rotation of M(t,m,n) as a braid element
    rng = random.Random(19)
    vectors = [parse_vector(FAVORITE)]
    for _ in range(8):
        vectors.append(random_normalized_vector(rng, max_p=8, max_r=6))
    for v in vectors:
        tr = tm_triple(v)
        flipped = flip_word(minimal_braid_word(vector_from_triple(tr)))
        target = minimal_braid_word(vector_from_triple(TmTriple(tr.t, tr.m, tr.n)))
        letters = flipped.letters
        assert any(
            words_equal(BraidWord(flipped.strands, letters[i:] + letters[:i]), target)
            for i in range(max(1, len(letters)))
        )


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: from_entries((0, 2)), "displacements and multiplicities must be"
                 " positive: ((0, 1), (2, 1))", id="nonpositive"),
    pytest.param(lambda: LorenzVector(((2, 0),)), "displacements and multiplicities must be"
                 " positive: ((2, 0),)", id="nonpositive-run"),
    pytest.param(lambda: from_entries((3, 2)),
                 "run displacements must strictly increase: ((3, 1), (2, 1))", id="unsorted"),
    pytest.param(lambda: LorenzVector(((2, 1), (2, 3))),
                 "run displacements must strictly increase: ((2, 1), (2, 3))", id="unmerged"),
    pytest.param(lambda: LorenzVector(((3, 1), (2, 0))), "displacements and multiplicities"
                 " must be positive: ((3, 1), (2, 0))", id="positivity-before-order"),
    pytest.param(lambda: LorenzVector(((2, 1), (1, 1))),
                 "run displacements must strictly increase: ((2, 1), (1, 1))", id="decreasing"),
    pytest.param(lambda: TmTriple(1, (), ()),
                 "trip number must be at least 2", id="trip-below-2"),
    pytest.param(lambda: TmTriple(3, (0,), (0, 0)),
                 "n and m must have length t-1", id="short-n"),
    pytest.param(lambda: TmTriple(2, (-1,), (0,)),
                 "counts must be nonnegative", id="negative-count"),
])
def test_validation_errors(build, message):
    assert_raises(build, ValueError, message)
