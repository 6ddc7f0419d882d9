"""Shared test utilities: random vectors, independent oracles, timing fits."""

from __future__ import annotations

import itertools
import math
import random
import re
import warnings
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator

import pytest

from lorenzlinks import (BraidWord, LaurentPoly, LorenzVector, NormalForm, Permutation,
                         TmTriple, TParams, normalize_units, torus_simplify)
from lorenzlinks import invariants
from lorenzlinks.errors import ParseError, UnsupportedInput
from lorenzlinks.lorenz import VectorOrderWarning, _merge_runs
from lorenzlinks.torus import _packed_at_2


def random_normalized_vector(
    rng: random.Random,
    max_p: int = 30,
    max_r: int = 12,
    max_k: int = 4,
    k: int | None = None,
) -> LorenzVector:
    """A uniform-ish normalized vector: r strictly increasing from 2, s_k >= 2."""
    while True:
        kk = k if k is not None else rng.randint(1, max_k)
        if kk > max_r - 1:
            continue
        rs = sorted(rng.sample(range(2, max_r + 1), kk))
        ss = [1] * (kk - 1) + [2]
        budget = max_p - sum(ss)
        if budget < 0:
            continue
        for _ in range(rng.randint(0, budget)):
            ss[rng.randrange(kk)] += 1
        return from_entries([r for r, s in zip(rs, ss) for _ in range(s)])


def rewrite_neighbors(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Single applications of the braid relations, in both directions."""
    out = []
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if abs(a - b) >= 2:
            out.append(word[:k] + (b, a) + word[k + 2:])
    for k in range(len(word) - 2):
        a, b, c = word[k], word[k + 1], word[k + 2]
        if a == c and abs(a - b) == 1:
            out.append(word[:k] + (b, a, b) + word[k + 3:])
    return out


def rewrite_classes(strands: int, length: int) -> list[set[tuple[int, ...]]]:
    """Partition of all positive words of one length by braid-relation closure."""
    words = list(itertools.product(range(1, strands), repeat=length))
    unseen = set(words)
    classes = []
    while unseen:
        seed = unseen.pop()
        cls = {seed}
        stack = [seed]
        while stack:
            w = stack.pop()
            for nb in rewrite_neighbors(w):
                if nb not in cls:
                    cls.add(nb)
                    stack.append(nb)
        unseen -= cls
        classes.append(cls)
    return classes


def random_rewrite(rng: random.Random, word: BraidWord, steps: int = 40) -> BraidWord:
    """A word equal to the input as a braid element, via random relation moves."""
    letters = word.letters
    for _ in range(steps):
        nbs = rewrite_neighbors(letters)
        if not nbs:
            break
        letters = rng.choice(nbs)
    return BraidWord(word.strands, letters)


def braid_index_k1(r: int, s: int) -> int:
    return min(r, s)


def braid_index_k2(r1: int, s1: int, r2: int, s2: int) -> int:
    if r1 <= s2:
        return min(s2, r2)
    return min(s1 + s2, r1)


def fitted_exponent(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


# The Burau route as it was on Laurent polynomials, kept as the oracle for the
# packed-integer route in lorenzlinks.invariants.
def _burau_matrix(w: BraidWord) -> list[list[LaurentPoly]]:
    """Reduced Burau matrix of a positive word, as a list of columns."""
    n = w.strands
    k = n - 1
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    cols = [[one if r == c else zero for r in range(k)] for c in range(k)]
    # sigma_i differs from the identity only in row i:
    #   entry t at column i-1, -t at column i, 1 at column i+1.
    # Right multiplication therefore touches at most three columns, and the
    # t entries are applied as exponent shifts, not polynomial products.
    for i in w.letters:
        col_i = cols[i - 1]
        if i >= 2:
            cols[i - 2] = [a + b.shifted(1) for a, b in zip(cols[i - 2], col_i)]
        if i <= k - 1:
            cols[i] = [a + b for a, b in zip(cols[i], col_i)]
        cols[i - 1] = [-b.shifted(1) for b in col_i]
    return cols


def _determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Bareiss fraction-free determinant; every division is exact."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    sign = 1
    prev = LaurentPoly.one()
    zero = LaurentPoly.zero()
    for k in range(n - 1):
        if rows[k][k].is_zero():
            pivot = next(
                (i for i in range(k + 1, n) if not rows[i][k].is_zero()), None
            )
            if pivot is None:
                return zero
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][k] = zero
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


def burau_oracle(w: BraidWord) -> LaurentPoly:
    """normalize_units(det(rho(w) - I) / (1 + t + ... + t^(n-1))), on polynomials."""
    n = w.strands
    cols = _burau_matrix(w)
    one = LaurentPoly.one()
    for c, col in enumerate(cols):
        col[c] = col[c] - one
    det = _determinant(cols)
    return normalize_units(det.exact_div(LaurentPoly.from_dict({e: 1 for e in range(n)})))


# The rows of the torus Burau rung decoded, the oracle for its packed build
# and its trace; the rung itself reads the trace off the packed rows.
def _burau_at_2(t: int, x: tuple[int, ...]) -> list[list[int]]:
    """The rows of rho(X) at s = 2, for X's letters x on t strands, decoded
    from torus._packed_at_2 as lists of their t - 1 signed entries."""
    rows, b = _packed_at_2(t, x)
    return [(invariants._digits(row, b) + [0] * t)[:t - 1] for row in rows]


# The torus Burau rung on det(rho - I) alone, as it was before it read the
# trace, kept as the reference for lorenzlinks.torus._burau_agrees, which
# reads the trace alone: is_torus gives the same verdicts with either.
def burau_determinant_agrees(t: int, q: int, x: tuple[int, ...]) -> bool:
    """Whether det(2^t rho(X)(2) - I) = det(rho(delta^q)(2) - I), for X's
    letters x on t strands; M = delta^t X, and rho(delta^t) = 2^t I.  With
    y = 2^q and d = gcd(t, q), the eigenvalues (2 zeta)^q of rho(delta^q)(2)
    give det(rho(delta^q)(2) - I) = (-1)^t (1 - y^(t/d))^d / (y - 1)."""
    rows = [[(e << t) - (r == c) for c, e in enumerate(row)]
            for r, row in enumerate(_burau_at_2(t, x))]
    y, d = 1 << q, math.gcd(t, q)
    closed = (1 - y ** (t // d)) ** d // (y - 1)
    return invariants._determinant(rows) == (-closed if t % 2 else closed)


# Morton's formula as it was on Laurent polynomials, kept as the oracle for
# the coefficient-list route in lorenzlinks.invariants.
def morton_oracle(m: int, p: int, q: int) -> LaurentPoly:
    """
    Alexander polynomial of the link <2^2m, p^q> (m full twists on two strands
    of a (p,q) torus link), up to units.

    Requires gcd(p, q) = 1.  With 0 < u < p, 0 < v < q solving
    u*q = -1 mod p and p*v = 1 mod q, and a = p*v, b = (p-u)*q:

        (1-t) * (1 - (1-t)(1 + t^2 + ... + t^(2m-2))(t^a + t^b) - t^(pq+2m))
        -----------------------------------------------------------------
                              (t^p - 1)(t^q - 1)

    The division is always exact; a remainder signals an implementation bug.
    """
    if m < 1:
        raise ValueError("need at least one full twist (m >= 1)")
    if p < 2 or q < 2:
        raise ValueError("torus parameters must be at least 2")
    if math.gcd(p, q) != 1:
        raise UnsupportedInput(f"gcd({p},{q}) != 1: formula needs a knot base")
    u = (-pow(q, -1, p)) % p
    v = pow(p, -1, q)
    a, b = p * v, (p - u) * q
    one = LaurentPoly.one()
    t = LaurentPoly.t_power(1)
    even = LaurentPoly.from_dict({2 * j: 1 for j in range(m)})
    inner = (
        one
        - (one - t) * even * (LaurentPoly.t_power(a) + LaurentPoly.t_power(b))
        - LaurentPoly.t_power(p * q + 2 * m)
    )
    num = (one - t) * inner
    den = (LaurentPoly.t_power(p) - one) * (LaurentPoly.t_power(q) - one)
    return normalize_units(num.exact_div(den))


# Permutation and normal-form facts that only the tests ask for.
def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def simple(i: int, n: int) -> Permutation:
    """The adjacent transposition (i, i+1), the permutation of sigma_i."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    image = list(range(1, n + 1))
    image[i - 1], image[i] = image[i], image[i - 1]
    return Permutation(tuple(image))


def then(p: Permutation, q: Permutation) -> Permutation:
    """The permutation of 'p followed by q' (braid concatenation)."""
    if p.size != q.size:
        raise ValueError("size mismatch")
    return Permutation(tuple([q.image[x - 1] for x in p.image]))


def inversions(p: Permutation) -> int:
    img = p.image
    n = len(img)
    return sum(1 for a in range(n) for b in range(a + 1, n) if img[a] > img[b])


def longest(n: int) -> Permutation:
    """The order-reversing permutation, i.e. the half twist Delta."""
    return Permutation(tuple(range(n, 0, -1)))


def descents(p: Permutation) -> frozenset[int]:
    """Letters i with p(i) > p(i+1): the sigma_i dividing p's braid on the left."""
    img = p.image
    return frozenset(i for i in range(1, len(img)) if img[i - 1] > img[i])


def is_identity(p: Permutation) -> bool:
    return p == identity(p.size)


def letter_count(nf: NormalForm) -> int:
    """Letters of the braid, the sum of its factors' inversion counts."""
    return sum(inversions(f) for f in nf.factors)


# Garside oracles, kept for the tests of lorenzlinks.garside and the torus fold.
def central_power(t: int, q: int) -> NormalForm:
    """
    Normal form of delta^(t*q), the q-th power of the centre generator of B_t.

    delta^t equals Delta^2, so the factor sequence is 2q copies of the half
    twist, which is already left weighted.
    """
    if t < 2:
        raise ValueError("periodic words need at least two strands")
    if q < 0:
        raise ValueError("negative powers of positive braids do not exist")
    return NormalForm(t, (longest(t),) * (2 * q))


def is_left_weighted(a: Permutation, b: Permutation) -> bool:
    """Whether every sigma_i dividing b on the left divides a^{-1} on the left."""
    return descents(b) <= descents(a.inverse)


# Reference for torus._tparams_pair: the torus rewrite applied until it no
# longer lowers k.
def torus_simplify_loop(t: TParams) -> TParams:
    current = t.canonical()
    while current.k > 1:
        simplified, applied = torus_simplify(current)
        if not applied or simplified.k == current.k:
            break
        current = simplified
    return current


# Reference for the runs of a vector: one step per entry, not one per run.
def rle_loop(d: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    pairs: list[tuple[int, int]] = []
    for x in d:
        if pairs and pairs[-1][0] == x:
            pairs[-1] = (x, pairs[-1][1] + 1)
        else:
            pairs.append((x, 1))
    return tuple(pairs)


def from_entries(d) -> LorenzVector:
    """The vector <d_1, ..., d_p> written entry by entry; LorenzVector holds runs."""
    return LorenzVector(rle_loop(tuple(d)))


# Entry-based references for the run-length trip_number, dual_vector and
# tm_triple of lorenzlinks.lorenz; each reads the p entries of a normalized v.
def trip_number_entries(v: LorenzVector) -> int:
    """t = #{i : i + d_i > p}; the ends i + d_i strictly increase, so those
    above p form a suffix, found by bisection."""
    p, d = v.p, v.d
    return p - bisect_right(range(p), p, key=lambda j: j + 1 + d[j])


def dual_vector_entries(v: LorenzVector) -> LorenzVector:
    """The conjugate partition: column x has height #{i : d_i >= x}."""
    d = v.d
    return from_entries([len(d) - bisect_left(d, x) for x in range(d[-1], 0, -1)])


def tm_triple_entries(v: LorenzVector) -> TmTriple:
    """n counts the rows of each length below the Durfee square; m the steps
    between the t longest rows, and from the t-th longest down to t."""
    t, d, p = trip_number_entries(v), v.d, v.p
    ll = d[:p - t]
    n = [bisect_right(ll, x) - bisect_left(ll, x) for x in range(2, t + 1)]
    m = [d[p - i - 1] - d[p - i - 2] for i in range(1, t - 1)] + [d[p - t] - t]
    return TmTriple(t, tuple(n), tuple(m))


# Reference for X's letters built from lorenz._x_blocks, which reads X's blocks
# from the runs.
def x_letters_from_triple(triple: TmTriple) -> tuple[int, ...]:
    """The letters of X = prod [1,i+1]^n_i prod [t,t-i]^m_i, the part of the
    minimal word after its leading full twist [1,t]^t."""
    t = triple.t
    up = (tuple(range(1, i + 1)) * c for i, c in enumerate(triple.n, start=1))
    down = (tuple(range(t - 1, t - i - 1, -1)) * c for i, c in enumerate(triple.m, start=1))
    return tuple(itertools.chain.from_iterable(itertools.chain(up, down)))


# Reference for torus._crossings_agree, which counts crossings on X's blocks:
# the same invariant, read by one walk over X's letters.
def crossings_agree_on_letters(t: int, x: tuple[int, ...], k: int) -> bool:
    """Whether every pair of strands crosses k times in X^t, for X's letters x.
    With the strands labelled 0..t-1 by start position, one walk over x crosses
    a and b c[a][b] + c[b][a] times and leaves strand at[i] at position i."""
    at, c = list(range(t)), [[0] * t for _ in range(t)]
    for i in x:
        c[at[i - 1]][at[i]] += 1
        at[i - 1], at[i] = at[i], at[i - 1]
    seen: set[tuple[int, int]] = set()
    for a, b in itertools.combinations(range(t), 2):
        excess = 0
        while (a, b) not in seen:  # the orbit under at, the inverse strand map
            seen.update(((a, b), (b, a)))
            excess += t * (c[a][b] + c[b][a]) - k
            a, b = at[a], at[b]
        if excess:
            return False
    return True


# Reference for lorenz.normalize: the single destabilization moves, one at a time.
def normalize_steps(v: LorenzVector) -> Iterator[LorenzVector]:
    """
    Yield the vector after each single destabilization move.

    A leading displacement 1 deletes the first strand; while d_{p-1} < d_p the
    last displacement decrements.  Both moves remove one crossing and one
    strand, so c - n is preserved at every step.  The iteration stops at a
    normalized vector or once only a single strand remains.
    """
    d = list(v.d)
    while True:
        if len(d) >= 1 and d[0] == 1:
            d.pop(0)
        elif len(d) >= 2 and d[-2] < d[-1]:
            d[-1] -= 1
        else:
            return
        if not d:
            return
        yield from_entries(d)


def assert_raises(build: Callable[[], object], exc_type: type, message: str) -> None:
    """build() raises exactly exc_type, not a subclass, with exactly this message."""
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


# The vector parser as it was on a regular expression, kept as the oracle for
# the grammar of lorenzlinks.lorenz.parse_vector, which reads each term by
# str.partition and str.isdecimal.
_TERM = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_vector_regex(text: str) -> LorenzVector:
    body = text.strip().strip("<>").strip()
    if not body:
        raise ParseError("empty vector")
    terms: list[tuple[int, int]] = []
    for term in body.split(","):
        term = term.strip()
        m = _TERM.match(term)
        if not m:
            raise ParseError(f"bad vector term {term!r} in {text!r}")
        r = int(m.group(1))
        s = int(m.group(2)) if m.group(2) else 1
        if r < 1:
            raise ParseError(f"nonpositive displacement in {text!r}")
        if s < 1:
            raise ParseError(f"nonpositive multiplicity in {text!r}")
        terms.append((r, s))
    if any(a[0] > b[0] for a, b in zip(terms, terms[1:])):
        warnings.warn(
            f"vector {text!r} is not nondecreasing; sorted", VectorOrderWarning,
            stacklevel=2,
        )
    return LorenzVector(_merge_runs(sorted(terms)))
