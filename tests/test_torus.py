import collections
import random
import time

import pytest

from helpers import fitted_exponent, random_normalized_vector
from lorenzlinks import (
    LorenzVector,
    TParams,
    is_torus,
    load_census,
    minimal_braid_word,
    normal_form,
    normalize,
    parse_vector,
    torus_simplify,
    tparams_to_vector,
    vector_to_tparams,
)
from lorenzlinks.garside import central_power, nf_power
from lorenzlinks.lorenz import UNKNOT, _milestone_sizes
from lorenzlinks.torus import NOT_TORUS, TorusVerdict


def test_verdict_type():
    assert str(TorusVerdict("torus", 3, 14)) == "Torus(3,14)"
    assert str(TorusVerdict("not-torus")) == "NotTorus"
    assert str(TorusVerdict("unknot")) == "Unknot"
    with pytest.raises(ValueError):
        TorusVerdict("torus", 3, 2)  # q < t impossible
    with pytest.raises(ValueError):
        TorusVerdict("torus", 1, 5)


def test_example_torus_rewrite():
    verdict = is_torus(parse_vector("3^6,8^3"))
    assert str(verdict) == "Torus(3,14)"


def test_unknot_short_circuit():
    assert str(is_torus(LorenzVector((1, 1, 4)))) == "Unknot"
    assert str(is_torus(LorenzVector((3,)))) == "Unknot"


def test_torus_vectors_sweep():
    for r in range(2, 6):
        for s in range(r, 11):
            verdict = is_torus(parse_vector(f"{r}^{s}"))
            assert str(verdict) == f"Torus({r},{s})", (r, s)


def test_torus_vectors_swapped_orientation():
    # <r^s> with s < r reports the braid-index-first form T(s, r)
    assert str(is_torus(parse_vector("5^3"))) == "Torus(3,5)"
    assert str(is_torus(parse_vector("7^2"))) == "Torus(2,7)"


def test_hyperbolic_census_knot_is_not_torus():
    # the (-2,3,7)-pretzel, census knot k3_1
    assert str(is_torus(parse_vector("2^2,3^5"))) == "NotTorus"


def test_verdict_names_its_rung():
    cases = {
        "1,1,4": ("Unknot", "unknot"),
        "6^6,8^5": ("NotTorus", "length"),
        "2^2,3^5": ("NotTorus", "components"),
        "2^4,3^2,6,8^2": ("NotTorus", "factor_bound"),
        "3^6,8^3": ("Torus(3,14)", "garside"),
    }
    for text, expected in cases.items():
        verdict = is_torus(parse_vector(text))
        assert (str(verdict), verdict.decided_by) == expected, text
    # one shared verdict per rung; the rung takes no part in equality
    assert is_torus(parse_vector("2^2,3^5")) is NOT_TORUS["components"]
    assert NOT_TORUS["components"] == NOT_TORUS["factor_bound"] == TorusVerdict("not-torus")
    # "garside" names only Torus verdicts
    assert set(NOT_TORUS) == {"length", "components", "factor_bound"}


def test_cheap_rungs_agree_with_full_power():
    # Every vector that passes the length rule, decided by components, the
    # factor bound or a fold within 2q factors, against the full power M^t.
    rng = random.Random(17)
    rungs = collections.Counter()
    while sum(rungs.values()) < 2000:
        v = random_normalized_vector(rng, max_p=18, max_r=8)
        crossings, strands = _milestone_sizes(v)
        t, length = strands["minimal"], crossings["minimal"]
        if length % (t - 1):
            continue
        q = length // (t - 1)
        assert q >= t, v  # the minimal word begins with [1,t]^t
        verdict = is_torus(v)
        rungs[verdict.decided_by] += 1
        full = nf_power(normal_form(minimal_braid_word(v)), t) == central_power(t, q)
        assert verdict.is_torus == full, (v, verdict.decided_by)
        assert (verdict.decided_by == "garside") == full, (v, verdict.decided_by)
        assert str(verdict) == (f"Torus({t},{q})" if full else "NotTorus"), v
    assert rungs["components"] >= 300 and rungs["factor_bound"] >= 200, rungs


def test_census_rung_histogram():
    rungs = collections.Counter(
        is_torus(entry.vector).decided_by for entry in load_census() if entry.known
    )
    # every census row that passes the length rule is NotTorus, by components
    # or the factor bound, so none is decided by "garside"
    assert rungs == {"length": 72, "components": 11, "factor_bound": 24}


def test_long_vectors_decided_by_components():
    # closures with the wrong component count never reach the power
    for text in ("2^200,9^300", "3^219,10^101,46^116,47^162,48^12"):
        t0 = time.perf_counter()
        verdict = is_torus(parse_vector(text))
        elapsed = time.perf_counter() - t0
        assert (str(verdict), verdict.decided_by) == ("NotTorus", "components")
        assert elapsed < 0.1, (text, elapsed)


def test_length_soundness():
    rng = random.Random(15)
    for _ in range(150):
        v = random_normalized_vector(rng, max_p=14, max_r=8)
        verdict = is_torus(v)
        if verdict.is_torus:
            word = minimal_braid_word(normalize(v))
            assert len(word) == verdict.q * (verdict.t - 1)
            assert verdict.t == word.strands
            assert verdict.q >= verdict.t


def test_simplify_invariant_verdicts():
    rng = random.Random(16)
    tried = 0
    while tried < 30:
        v = random_normalized_vector(rng, max_p=12, max_r=7)
        simplified, applied = torus_simplify(vector_to_tparams(v))
        if not applied:
            continue
        tried += 1
        assert str(is_torus(v)) == str(is_torus(tparams_to_vector(simplified)))


def test_twisted_is_detected_as_torus():
    # T((2,2),(3,4)) = T(3,5): a twisted form that really is a torus knot
    assert str(is_torus(parse_vector("2^2,3^4"))) == "Torus(3,5)"
    # T((3,6),(8,3)) dual route
    assert str(is_torus(tparams_to_vector(TParams(((3, 6), (8, 3)))))) == "Torus(3,14)"


@pytest.mark.slow
def test_quadratic_envelope_in_minimal_word_length():
    sizes = []
    times = []
    for s in (36, 72, 143, 285):
        v = parse_vector(f"8^{s}")
        word_len = len(minimal_braid_word(v))
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            verdict = is_torus(v)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert verdict.is_torus
        sizes.append(word_len)
        times.append(best)
    assert sizes[-1] >= 1990
    exponent = fitted_exponent(sizes, times)
    assert exponent <= 4.0, (sizes, times, exponent)
