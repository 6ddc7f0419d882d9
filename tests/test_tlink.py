import itertools
import math
import random

import pytest

from helpers import (assert_raises, braid_index_k1, braid_index_k2, random_normalized_vector,
                     torus_simplify_loop)
from lorenzlinks import (
    ParseError,
    TParams,
    braid_index,
    bracket,
    cycle_count,
    dual_tparams,
    dual_vector,
    format_tparams,
    invariant_report,
    parse_tparams,
    parse_vector,
    tbraid_word,
    torus_simplify,
    tparams_to_vector,
    trip_number,
    vector_to_tparams,
    words_equal,
    x_word,
    y_word,
    z_word,
)
from lorenzlinks.braid import BraidWord


def test_tparams_validation_and_canonical():
    with pytest.raises(ValueError):
        TParams(((1, 2),))
    with pytest.raises(ValueError):
        TParams(((3, 2), (2, 1)))
    tp = TParams(((3, 6), (3, 8)))
    assert tp.canonical() != tp
    assert tp.canonical().pairs == ((3, 14),)


def test_parse_format():
    tp = parse_tparams("(2,4)(3,2)(6,1)(8,2)")
    assert tp.pairs == ((2, 4), (3, 2), (6, 1), (8, 2))
    assert format_tparams(tp) == "(2,4)(3,2)(6,1)(8,2)"
    with pytest.raises(ParseError):
        parse_tparams("2,4")
    with pytest.raises(ParseError):
        parse_tparams("(2,4)x")


def test_tbraid_word():
    tp = parse_tparams("(2,4)(3,2)(6,1)(8,2)")
    w = tbraid_word(tp)
    assert w.strands == 8 and len(w) == 27
    assert tbraid_word(TParams(((5, 3),))).letters == (1, 2, 3, 4) * 3
    assert tbraid_word(TParams(((2, 1),))).letters == (1,)


def test_vector_tparams_round_trip():
    v = parse_vector("2^4,3^2,6,8^2")
    tp = vector_to_tparams(v)
    assert tp.pairs == ((2, 4), (3, 2), (6, 1), (8, 2))
    assert tparams_to_vector(tp) == v
    assert tparams_to_vector(TParams(((3, 6), (8, 3)))) == parse_vector("3^6,8^3")


def test_xyz_favorite():
    v = parse_vector("2^4,3^2,6,8^2")
    x, y, z = x_word(v), y_word(v), z_word(v)
    assert x.letters == bracket(1, 2, 8).letters * 4 + bracket(1, 3, 8).letters * 2
    assert y.letters == bracket(1, 3, 8).letters * 3
    assert z.letters == (bracket(3, 8, 8) * bracket(2, 7, 8) * bracket(1, 4, 8)).letters
    assert (len(x), len(y), len(z)) == (8, 6, 13)


def test_yz_identity_favorite():
    v = parse_vector("2^4,3^2,6,8^2")
    rhs = bracket(1, 6, 8) * bracket(1, 8, 8) * bracket(1, 8, 8)
    assert words_equal(y_word(v) * z_word(v), rhs)


def test_xyz_normal_form_favorite():
    from lorenzlinks import normal_form

    v = parse_vector("2^4,3^2,6,8^2")
    xyz = x_word(v) * y_word(v) * z_word(v)
    assert normal_form(xyz) == normal_form(tbraid_word(vector_to_tparams(v)))


def test_xyz_equals_tbraid_random():
    rng = random.Random(101)
    for _ in range(60):
        v = random_normalized_vector(rng, max_p=12, max_r=9)
        t_word = tbraid_word(vector_to_tparams(v))
        assert words_equal(x_word(v) * y_word(v) * z_word(v), t_word)
        d = v.d
        rhs = math.prod(
            (bracket(1, d[i - 1], v.dp) for i in range(v.p - trip_number(v) + 1, v.p + 1)),
            start=BraidWord(v.dp),
        )
        assert words_equal(y_word(v) * z_word(v), rhs)


def test_dual_tparams_examples():
    assert dual_tparams(TParams(((3, 14),))).pairs == ((14, 3),)
    assert dual_tparams(parse_tparams("(2,4)(3,2)(6,1)(8,2)")).pairs == (
        (2, 2),
        (3, 3),
        (5, 1),
        (9, 2),
    )
    with pytest.raises(ValueError):
        dual_tparams(TParams(((3, 1),)))


def test_dual_tparams_k2_formula():
    # the paper's run-length formula against the conjugate route, on every
    # canonical parameter list with 1 <= s <= 8, s_k >= 2 and either k <= 2,
    # r <= 12 or k = 3, r <= 9
    for k, r_max in ((1, 12), (2, 12), (3, 9)):
        for rs in itertools.combinations(range(2, r_max + 1), k):
            for ss in itertools.product(range(1, 9), repeat=k):
                if ss[-1] < 2:
                    continue
                r = (0,) + rs  # r_0 = 0
                expected = tuple(
                    (sum(ss[k - j:]), r[k - j + 1] - r[k - j])  # (rbar_j, sbar_j)
                    for j in range(1, k + 1)
                )
                assert dual_tparams(TParams(tuple(zip(rs, ss)))).pairs == expected


def test_dual_tparams_involution_and_vector_compatibility():
    rng = random.Random(8)
    for _ in range(200):
        v = random_normalized_vector(rng)
        tp = vector_to_tparams(v)
        dual = dual_tparams(tp)
        assert dual == vector_to_tparams(dual_vector(v))
        assert dual_tparams(dual) == tp


def test_braid_index_examples():
    for r in range(2, 8):
        for s in range(1, 10):
            assert braid_index(TParams(((r, s),))) == min(r, s)
    assert braid_index(parse_tparams("(2,4)(3,2)(6,1)(8,2)")) == 3
    assert braid_index(TParams(((3, 6), (8, 3)))) == 3


def test_braid_index_matches_trip_number_and_specializations():
    rng = random.Random(11)
    for _ in range(300):
        v = random_normalized_vector(rng)
        tp = vector_to_tparams(v)
        t = braid_index(tp)
        assert t == trip_number(v)
        if tp.k == 1:
            (r, s), = tp.pairs
            assert t == braid_index_k1(r, s)
        elif tp.k == 2:
            (r1, s1), (r2, s2) = tp.pairs
            assert t == braid_index_k2(r1, s1, r2, s2)


def test_torus_simplify_examples():
    simplified, applied = torus_simplify(TParams(((3, 6), (8, 3))))
    assert applied and simplified.pairs == ((3, 14),)
    simplified, applied = torus_simplify(TParams(((2, 2), (3, 4))))
    assert applied and simplified.pairs == ((2, 2), (4, 3))
    simplified, applied = torus_simplify(TParams(((2, 3), (5, 2))))
    assert not applied and simplified.pairs == ((2, 3), (5, 2))
    assert torus_simplify_loop(TParams(((3, 6), (8, 3)))).pairs == ((3, 14),)


def test_torus_simplify_all_stops_when_k_stays():
    tp = TParams(((2, 2), (4, 3)))
    assert torus_simplify(tp) == (TParams(((2, 2), (3, 4))), True)  # a swap: k stays 2
    assert torus_simplify_loop(tp) == tp


def test_torus_simplify_all_is_one_rewrite_on_a_grid():
    # every canonical TParams with k <= 3, 2 <= r <= 12 and 1 <= s <= 8: the
    # rewrite loop does what one torus_simplify call does when it lowers k,
    # and nothing otherwise
    one_pair = 0
    for k in (1, 2, 3):
        for rs in itertools.combinations(range(2, 13), k):
            for ss in itertools.product(range(1, 9), repeat=k):
                tp = TParams(tuple(zip(rs, ss)))
                once, _ = torus_simplify(tp)
                reduced = torus_simplify_loop(tp)
                assert reduced == (once if once.k < tp.k else tp), tp
                merges = k == 2 and ss[1] == rs[0] and ss[0] % rs[0] == 0
                assert (reduced.k == 1) == (k == 1 or merges), tp
                one_pair += reduced.k == 1
    assert one_pair > 8 * 8  # some k = 2 parameters merge


def test_torus_simplify_preserves_closure_invariants():
    rng = random.Random(12)
    tried = 0
    while tried < 40:
        v = random_normalized_vector(rng, max_p=14, max_r=8)
        tp = vector_to_tparams(v)
        simplified, applied = torus_simplify(tp)
        if not applied:
            continue
        tried += 1
        w = tparams_to_vector(simplified)
        a, b = invariant_report(v), invariant_report(w)
        assert (a.components, a.genus, a.c_minus_n) == (b.components, b.genus, b.c_minus_n)


@pytest.mark.parametrize("build, exc_type, message", [
    pytest.param(lambda: TParams(()), ValueError, "empty T-parameters", id="empty"),
    pytest.param(lambda: TParams(((2, 0),)), ValueError,
                 "s must be at least 1: ((2, 0),)", id="zero-s"),
    pytest.param(lambda: parse_tparams("(2,0)"), ParseError,
                 "s must be at least 1: ((2, 0),)", id="parse-zero-s"),
])
def test_validation_errors(build, exc_type, message):
    assert_raises(build, exc_type, message)
