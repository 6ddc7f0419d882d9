"""
Numerical and polynomial invariants of Lorenz links.

Everything here rides on one Euler-characteristic identity for closed
positive braids: 2g = c - n + 2 - mu, where c and n are the crossing and
strand counts of any positive braid representation, g the genus and mu the
number of components.  Since c - n agrees across all four milestone words,
each representation yields the same genus, unknotting number g + mu - 1 and
polynomial degree data (max deg of the Alexander polynomial and twice the
minimal Jones degree both equal c - n + 1).

Two independent Alexander computations are provided for cross-checking:
morton_alexander evaluates the closed formula for the doubly twisted torus
family <2^2m, p^q>, and burau_alexander computes det(rho(w) - I) for the
reduced Burau matrix of any positive word with non-split closure, divided
exactly by 1 + t + ... + t^(n-1).  Both are defined up to units +-t^j only.

The Burau route runs on integers at packed points t = 2^b, whose signed
base-2^b digits are the coefficients (Kronecker substitution).  Full twists
are central and enter as the scalar t^n; the rest is multiplied out by rows
from the last letter back.  Bareiss runs at t = 2^max(b, B), B the Hadamard
width, rescales a row only when it reads it, and the quotient is certified.
Morton's formula runs on one dense coefficient list, each division one pass.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, chain, compress
from typing import Optional

from .braid import BraidWord, _cycles
from .errors import UnsupportedInput, _Value
from .laurent import LaurentPoly
from .lorenz import (
    UNKNOT,
    LorenzVector,
    format_vector,
    normalize,
    trip_number,
)

MAX_WALK_COST = 11_500_000  # t (k + 15) of mu's walk, k rotations of t entries, measured
MAX_MORTON_DEGREE = 1_000_000  # pq + 2m, the degree of the bracket in Morton's formula
MAX_BURAU_STRANDS = 10  # burau_alexander's default caps, which admit the minimal word
MAX_BURAU_LETTERS = 120  # of every known census knot: at most 9 strands, 116 letters
LOOP_DIGITS = 24  # _digits reads fewer digits than this one at a time, measured

class InvariantReport(_Value):
    """Invariants of one Lorenz link, all derived from its normalized vector."""

    __slots__ = ("vector", "components", "genus", "unknotting_number", "trip", "c_minus_n",
                 "crossings", "braid_indices", "min_crossing_number", "degree_prediction",
                 "t_braid_crossing_bound")

    def __init__(self, vector: Optional[LorenzVector], components: int, genus: int,
                 unknotting_number: int, trip: Optional[int], c_minus_n: int,
                 crossings: dict[str, int], braid_indices: dict[str, int],
                 min_crossing_number: int, degree_prediction: int,
                 t_braid_crossing_bound: int) -> None:
        object.__setattr__(self, "vector", vector)  # None for the unknot
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "unknotting_number", unknotting_number)
        object.__setattr__(self, "trip", trip)
        object.__setattr__(self, "c_minus_n", c_minus_n)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "braid_indices", braid_indices)
        object.__setattr__(self, "min_crossing_number", min_crossing_number)
        # max deg Alexander = 2 * min deg Jones = c - n + 1
        object.__setattr__(self, "degree_prediction", degree_prediction)
        # 4g + 2*mu - 2 bounds the T-braid crossings
        object.__setattr__(self, "t_braid_crossing_bound", t_braid_crossing_bound)

    @property
    def is_unknot(self) -> bool:
        return self.vector is None

    @property
    def bound_holds(self) -> bool:
        return self.crossings.get("t", 0) <= self.t_braid_crossing_bound

    def to_dict(self) -> dict:
        """The fields in order, the vector as text, then bound_holds."""
        return {**{name: getattr(self, name) for name in self.__slots__},
                "vector": None if self.vector is None else format_vector(self.vector),
                "crossings": dict(self.crossings), "braid_indices": dict(self.braid_indices),
                "bound_holds": self.bound_holds}


_UNKNOT_REPORT = InvariantReport(  # one strand, no crossings
    vector=None, components=1, genus=0, unknotting_number=0, trip=None, c_minus_n=-1,
    crossings={}, braid_indices={}, min_crossing_number=0, degree_prediction=0,
    t_braid_crossing_bound=0)


def _components(rle: tuple[tuple[int, int], ...], t: int) -> int:
    """mu, the cycle count of X's strand map on t strands, for the runs of a
    normalized vector with trip number t: the minimal word's full twist moves no
    strand, and X = U F D (lorenz._x_blocks) is conjugate to D U F.  [v,w]^c
    rotates positions v..w by c: one list rotation per run, of up to t entries,
    and about 15 more for the list and its cycles, so t (k + 15) is capped first."""
    if t * (len(rle) + 15) > MAX_WALK_COST:
        raise UnsupportedInput(f"t = {t}, k = {len(rle)}: t (k + 15) exceeds the cap of"
                               f" {MAX_WALK_COST} for the component count")
    a, height, top = list(range(1, t + 1)), 0, 0
    # D, top run first: the run above, of height entries, rotates the last height
    # positions right by c when its lower neighbour r shows its width, top - max(r, t)
    for r, s in reversed(((0, 0),) + rle):
        if top and (c := (top - (r if r > t else t)) % height):
            a[t - height:] = a[t - c:] + a[t - height:t - c]
        if r < t:
            break
        height, top = height + s, r
    for r, s in rle:  # U: [1, r]^s rotates the first r positions left by s
        if r >= t:
            break
        a[:r] = a[s % r:r] + a[:s % r]
    return _cycles(a[height % t:] + a[:height % t])  # F = [1,t]^(height - t)


class _Counts(namedtuple("_Counts", "vector trip min_crossing_number")):
    """What the torus verdict reads, named as in InvariantReport: the normalized
    vector (None for the unknot), t and |M|; mu is walked only when read."""

    __slots__ = ()

    @property
    def components(self) -> int:
        return 1 if self.vector is None else _components(self.vector.rle, self.trip)


def _counts(v: LorenzVector) -> _Counts:
    """t and |M| = S - p - d_p + t, for is_torus."""
    nv = normalize(v)
    if nv is UNKNOT:
        return _Counts(None, None, 0)
    t = trip_number(nv)
    return _Counts(nv, t, nv.total - nv.p - nv.dp + t)


def invariant_report(v: LorenzVector) -> InvariantReport:
    """
    Full invariant report of the normalized input, from closed forms; no word
    is built.  Crossings and strands are keyed as in milestone_words.  The
    T-braid has sum s_i (r_i - 1) = S - p crossings, and the dual vector has
    the same total S with p and d_p swapped, so its T-braid has S - d_p.  Every
    milestone word has the same c - n, so the minimal word on t strands has
    S - p - d_p + t letters.  mu is walked on the t strands, and S, p, d_p and
    t are read from the k runs, so no entry is expanded.
    """
    nv = normalize(v)
    if nv is UNKNOT:
        return _UNKNOT_REPORT
    t, total, p, dp = trip_number(nv), nv.total, nv.p, nv.dp
    mu, cmn = _components(nv.rle, t), total - p - dp
    crossings = {"lorenz": total, "t": total - p, "t_dual": total - dp,
                 "minimal": cmn + t}
    braid_indices = {"lorenz": p + dp, "t": dp, "t_dual": p, "minimal": t}
    twice_genus = cmn + 2 - mu
    if twice_genus < 0 or twice_genus % 2:
        raise AssertionError(f"genus formula broke on {format_vector(nv)}")
    genus = twice_genus // 2
    return InvariantReport(
        vector=nv,
        components=mu,
        genus=genus,
        unknotting_number=genus + mu - 1,
        trip=t,
        c_minus_n=cmn,
        crossings=crossings,
        braid_indices=braid_indices,
        min_crossing_number=crossings["minimal"],
        degree_prediction=cmn + 1,
        t_braid_crossing_bound=4 * genus + 2 * mu - 2,
    )


def morton_alexander(m: int, p: int, q: int) -> LaurentPoly:
    """
    Alexander polynomial of the link <2^2m, p^q> (m full twists on two strands
    of a (p,q) torus link), up to units.

    Requires gcd(p, q) = 1.  With 0 < u < p, 0 < v < q solving
    u*q = -1 mod p and p*v = 1 mod q, and a = p*v, b = (p-u)*q:

        (1-t) * (1 - (1-t)(1 + t^2 + ... + t^(2m-2))(t^a + t^b) - t^(pq+2m))
        -----------------------------------------------------------------
                              (t^p - 1)(t^q - 1)

    evaluated on one coefficient list of pq + 2m + 2 entries, so pq + 2m is
    capped at MAX_MORTON_DEGREE.  The division is always exact; a remainder
    signals an implementation bug.
    """
    if m < 1:
        raise ValueError("need at least one full twist (m >= 1)")
    if p < 2 or q < 2:
        raise ValueError("torus parameters must be at least 2")
    if math.gcd(p, q) != 1:
        raise UnsupportedInput(f"gcd({p},{q}) != 1: formula needs a knot base")
    top = p * q + 2 * m
    if top > MAX_MORTON_DEGREE:
        raise UnsupportedInput(
            f"pq + 2m = {top} exceeds the cap of {MAX_MORTON_DEGREE} for Morton's formula")
    u = (-pow(q, -1, p)) % p
    v = pow(p, -1, q)
    # (1-t)(1 + t^2 + ... + t^(2m-2)) = 1 - t + t^2 - ... - t^(2m-1), so the
    # bracket has 2 + 4m terms; the numerator is (1-t) times it.
    bracket = [0] * (top + 1)
    bracket[0], bracket[top] = 1, -1
    for e in (p * v, (p - u) * q):
        for j in range(2 * m):
            bracket[e + j] -= 1 - 2 * (j % 2)
    num = [x - y for x, y in zip(bracket + [0], [0] + bracket)]
    # The two sign changes cancel, so divide by 1 - t^k for k = p, q: one pass,
    # quot_i = num_i + quot_(i-k), whose top k entries must vanish.
    for k in (p, q):
        for r in range(k):
            num[r::k] = accumulate(num[r::k])
        if any(num[-k:]):
            raise ArithmeticError("inexact polynomial division")
        del num[-k:]
    return _unit_normal(num)


def _unit_normal(coeffs: list[int]) -> LaurentPoly:
    """normalize_units of the polynomial with these coefficients, lowest first:
    read from the first nonzero one, negated once if that one is negative."""
    low = next((e for e, c in enumerate(coeffs) if c), 0)
    tail = coeffs[low:] if not coeffs or coeffs[low] > 0 else [-c for c in coeffs[low:]]
    return LaurentPoly(tuple(compress(enumerate(tail), tail)))


def _digits(x: int, bits: int) -> list[int]:
    """Signed base-2^bits digits of x, lowest first, in [-2^(bits-1), 2^(bits-1)),
    for bits >= 2.  Adding half a digit leaves a slot its digit plus half with
    no borrow.  Below LOOP_DIGITS digits that is done slot by slot, shifting
    each off; above, H adds half to every slot at once, at the cost of a
    division, and each digit is one shift and mask of x + H."""
    half, mask, out = 1 << (bits - 1), (1 << bits) - 1, []
    if x.bit_length() < LOOP_DIGITS * bits:
        while x:
            x += half
            out.append((x & mask) - half)
            x >>= bits
        return out
    width = ((x.bit_length() + 1) // bits + 1) * bits
    y = x + ((1 << width) - 1) // mask * half
    out = [(y >> s & mask) - half for s in range(0, width, bits)]
    while not out[-1]:
        out.pop()
    return out


def _determinant(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant on integers; every division is exact.
    A row whose multiplier is zero at step s is left as it is: its step-k
    entries are its step-s ones times p_(k-1) / p_(s-1), with div[j] = p_(j-1)
    the pivots and p_(-1) = 1.  So held keeps s, and the row is scaled when read."""
    n, sign, div, held = len(rows), 1, [1] * (len(rows) + 1), [0] * len(rows)
    for k in range(n):
        pivot = k if rows[k][k] else next((i for i in range(k + 1, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot], sign = rows[pivot], rows[k], -sign
            held[k], held[pivot] = held[pivot], held[k]
        p, top, s = rows[k][k], rows[k][k + 1:], held[k]
        if s != k:
            p, top = p * div[k] // div[s], [x * div[k] // div[s] for x in top]
        for i in range(k + 1, n):
            if m := rows[i][k]:
                q, held[i] = div[held[i]], k + 1
                rows[i][k + 1:] = [(p * x - m * y) // q for x, y in zip(rows[i][k + 1:], top)]
        div[k + 1] = p
    return sign * div[n]


def _burau_rows(n: int, letters: tuple[int, ...]) -> tuple[list[list[int]], int]:
    """The rows of rho of the word on n strands, each entry packed at t = 2^b,
    and b.  sigma_i differs from the identity only in row i (t, -t, 1 at
    columns i-1, i, i+1), so on the left it sets row i to t (row i-1 - row i)
    + row i+1: the rows are built from the last letter back.  On the right it
    adds column i to its neighbours; the same update on sums bounds each
    column, and so sets b.  Rows and sums 0, n pad both ends."""
    sums = [1] * (n + 1)
    for i in letters:
        sums[i - 1] += sums[i]
        sums[i + 1] += sums[i]
    b = max(sums[1:n]).bit_length() + 2
    line = [0] * (n - 1) + [1] + [0] * (n - 1)  # I's rows 1..n-1, padded by 0 rows
    rows = [line[n - r:2 * n - 1 - r] for r in range(n + 1)]
    for i in reversed(letters):
        rows[i] = [((x - y) << b) + z for x, y, z in zip(rows[i - 1], rows[i], rows[i + 1])]
    return rows[1:n], b


def _quotient(det: int, n: int, bits: int) -> list[int]:
    """
    The digits of Delta = D / (1 + t + ... + t^(n-1)) at width bits, lowest
    first, where det = D(2^bits) and every |D_j| < 2^(bits-2).

    The bound on D does not bound Delta, so the digits Q are certified.  The
    division of det by c = 1 + 2^bits + ... + 2^(bits(n-1)) must be exact,
    and then h = Q (1 + t + ... + t^(n-1)) - D vanishes at t = 2^bits.  Each
    coefficient of the product sums at most n digits of Q, so if
    n max|Q_j| < 2^(bits-1), every |h_j| < 2^bits.  A nonzero h with such
    coefficients is nonzero at 2^bits, since its lowest nonzero coefficient
    is not a multiple of 2^bits, so h = 0 and Q is Delta.  Otherwise
    ArithmeticError is raised.
    """
    quot, rem = divmod(det, ((1 << (bits * n)) - 1) // ((1 << bits) - 1))
    if rem:
        raise ArithmeticError("inexact polynomial division")
    digits = _digits(quot, bits)
    if n * max(map(abs, digits), default=0) >= 1 << (bits - 1):
        raise ArithmeticError(f"quotient digits too wide for {bits} bits")
    return digits


def _check_burau_size(strands: int, letters: int, max_strands: int = MAX_BURAU_STRANDS,
                      max_letters: int = MAX_BURAU_LETTERS) -> None:
    """Refuse a word of this size before the Burau route builds anything."""
    if strands > max_strands or letters > max_letters:
        raise UnsupportedInput(
            f"word too large for the Burau oracle ({strands} strands, {letters} letters)")


def burau_alexander(w: BraidWord, *, max_strands: int = MAX_BURAU_STRANDS,
                    max_letters: int = MAX_BURAU_LETTERS) -> LaurentPoly:
    """
    Alexander polynomial of the closure of w, up to units, via the reduced
    Burau determinant: det(rho(w) - I) divided by 1 + t + ... + t^(n-1).

    Knots and links alike are accepted; a word missing some sigma_i closes
    to a split link, whose Delta is 0, and is refused.  _check_burau_size caps
    the size, since the determinant cost grows quickly.  Non-split closures of
    positive braids are fibred: Delta must be monic of span len(w) - n + 1,
    which is 2g + mu - 1.  Bareiss runs at t = 2^max(b, B), b R's width and B
    one that bounds the determinant, so R is re-packed only when B > b.
    """
    n = w.strands
    _check_burau_size(n, len(w), max_strands, max_letters)
    if len(set(w.letters)) != n - 1:
        raise UnsupportedInput("closure is split")
    if n == 1:
        return LaurentPoly.one()
    # delta^n, delta = sigma_1 ... sigma_(n-1), is central and maps to t^n, so
    # M = t^lead * R: lead counts delta in every run of n copies, R the rest.
    text = "".join(map(chr, w.letters))
    rest = text.replace("".join(map(chr, range(1, n))) * n, "")
    lead = (len(text) - len(rest)) // (n - 1)
    rows, b = _burau_rows(n, list(map(ord, rest)))  # R, packed at t = 2^b
    # One decode of R's nonzero entries: L1(R column) + 1 bounds the column of M - I,
    # exactly if lead > 0 (t^lead R has no term below t^n), so 2 prod(norms) bounds each minor.
    entries = [[(c, _digits(x, b)) for c, x in enumerate(row) if x] for row in rows]
    norms = [1] * (n - 1)
    for c, digits in chain.from_iterable(entries):
        norms[c] += sum(map(abs, digits))
    big = max(b, (2 * math.prod(norms)).bit_length() + 2)
    for r, row in enumerate(rows):  # t^lead * R - I at t = 2^big
        for c, digits in entries[r] if big > b else ():
            x = 0
            for d in reversed(digits):  # re-packed by Horner
                x = (x << big) + d
            row[c] = x
        row[:] = [x << (big * lead) for x in row]
        row[r] -= 1
    poly = _unit_normal(_quotient(_determinant(rows), n, big))
    ends = {abs(c) for _, c in poly.terms[:1] + poly.terms[-1:]}
    if ends != {1} or poly.span != len(w) - n + 1:
        raise AssertionError(f"Burau result is not monic of span {len(w) - n + 1}")
    return poly
