"""
Lorenz vectors and the braid representations of the links they define.

A Lorenz braid on p + d_p strands is determined by the displacements of its p
overcrossing strands: strand i starts at position i and ends at i + d_i, and
the undercrossing strands fill the remaining positions in increasing order.
The nondecreasing vector <d_1, ..., d_p> therefore encodes the whole braid.
A LorenzVector stores its run-length form <r_1^s_1, ..., r_k^s_k>, the pairs
(r_i, s_i) of tlink.TParams; only lorenz_permutation expands it.

A vector is *normalized* when p >= 2, d_1 >= 2 and d_{p-1} = d_p; every other
vector destabilizes to a normalized one or to the unknot, one strand at a
time, and each move preserves c - n (crossings minus strands) of the braid.

Four braid representations of the same link are produced here ("milestones"):
the Lorenz braid itself, the twisted-torus word on d_p strands, its dual on p
strands, and the minimal braid-index word on t strands, where t is the trip
number #{i : i + d_i > p}.
"""

from __future__ import annotations

import warnings
from itertools import accumulate, chain, repeat
from typing import Iterable, Union

from .braid import MAX_LETTERS, BraidWord, Permutation, _brackets, _check_letters
from .errors import ParseError, UnsupportedInput, _Value


class VectorOrderWarning(UserWarning):
    """A vector was written out of order and has been sorted."""


class Unknot(_Value):
    """Verdict for vectors whose closure is the trivial knot."""

    __slots__ = ()

    def __str__(self) -> str:
        return "Unknot"


UNKNOT = Unknot()


def _merge_runs(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge adjacent pairs with equal r (their s values add)."""
    merged: list[tuple[int, int]] = []
    for r, s in pairs:
        if merged and merged[-1][0] == r:
            merged[-1] = (r, merged[-1][1] + s)
        else:
            merged.append((r, s))
    return tuple(merged)


class LorenzVector(_Value):
    """Nondecreasing positive displacements <d_1, ..., d_p>, held as their
    runs (r_i, s_i): r_i repeated s_i times, r strictly increasing."""

    __slots__ = ("rle",)

    def __init__(self, rle: tuple[tuple[int, int], ...]) -> None:
        if not rle:
            raise ValueError("empty displacement vector")
        if min(chain.from_iterable(rle)) < 1:
            raise ValueError(f"displacements and multiplicities must be positive: {rle}")
        prev = 0
        for r, _ in rle:
            if r <= prev:
                raise ValueError(f"run displacements must strictly increase: {rle}")
            prev = r
        object.__setattr__(self, "rle", rle)

    @property
    def d(self) -> tuple[int, ...]:
        """The p entries, an O(p) expansion for the builders of size-p objects,
        refused when p + d_p passes MAX_LETTERS, before anything is expanded."""
        if self.strands > MAX_LETTERS:
            raise UnsupportedInput(
                f"p + d_p = {self.strands} exceeds the cap of {MAX_LETTERS} strands")
        return tuple(chain.from_iterable(repeat(r, s) for r, s in self.rle))

    @property
    def p(self) -> int:
        """Number of overcrossing strands."""
        return sum(s for _, s in self.rle)

    @property
    def dp(self) -> int:
        """Largest displacement, the number of undercrossing strands."""
        return self.rle[-1][0]

    @property
    def strands(self) -> int:
        return self.p + self.dp

    @property
    def total(self) -> int:
        """S, the crossing number of the Lorenz braid."""
        return sum(r * s for r, s in self.rle)

    @property
    def is_normalized(self) -> bool:
        """d_1 >= 2 and d_(p-1) = d_p, which also gives p >= 2."""
        return self.rle[0][0] >= 2 and self.rle[-1][1] >= 2

    def __str__(self) -> str:
        return format_vector(self)


MaybeUnknot = Union[LorenzVector, Unknot]


def _require_normalized(v: LorenzVector) -> None:
    if not v.is_normalized:
        raise ValueError(f"vector <{format_vector(v)}> is not normalized")


MAX_TERM_DIGITS = 4_300  # CPython's default int_max_str_digits, kept when that is lifted


def parse_vector(text: str) -> LorenzVector:
    """
    Parse "2^4,3^2,6,8^2" or an explicit list "2,2,3".

    Terms are "r" or "r^s", each number up to MAX_TERM_DIGITS digits of
    Unicode category Nd (str.isdecimal).  The result is sorted nondecreasing,
    with a VectorOrderWarning when sorting changed the written order.  Each
    term is a run, and runs of equal r merge; the cost is in terms, not entries.
    """
    body = text.strip().strip("<>").strip()
    if not body:
        raise ParseError("empty vector")
    terms: list[tuple[int, int]] = []
    for term in body.split(","):
        term = term.strip()
        r, caret, s = term.partition("^")
        if not r.isdecimal() or (caret and not s.isdecimal()):
            raise ParseError(f"bad vector term {term!r} in {text!r}")
        if len(term) > MAX_TERM_DIGITS and max(len(r), len(s)) > MAX_TERM_DIGITS:
            raise UnsupportedInput(f"a vector term of {max(len(r), len(s))} digits exceeds"
                                   f" the cap of {MAX_TERM_DIGITS} digits")
        r, s = int(r), int(s) if caret else 1
        if r < 1:
            raise ParseError(f"nonpositive displacement in {text!r}")
        if s < 1:
            raise ParseError(f"nonpositive multiplicity in {text!r}")
        terms.append((r, s))
    runs = sorted(terms)
    if runs != terms and any(a[0] > b[0] for a, b in zip(terms, terms[1:])):
        warnings.warn(f"vector {text!r} is not nondecreasing; sorted", VectorOrderWarning,
                      stacklevel=2)
    return LorenzVector(_merge_runs(runs))


def format_vector(v: LorenzVector) -> str:
    """Canonical run-length text, e.g. "2^4,3^2,6,8^2"."""
    return ",".join(f"{r}^{s}" if s > 1 else str(r) for r, s in v.rle)


def normalize(v: LorenzVector) -> MaybeUnknot:
    """
    Destabilize to a normalized vector, or to the unknot verdict, on the runs:
    a leading run of 1s goes, then d_p falls to d_{p-1}, so a last run of one
    entry joins the run before it.  Each move removes one crossing and one
    strand, so c - n is kept; a decrement never makes a leading 1.
    """
    runs = v.rle[1:] if v.rle[0][0] == 1 else v.rle
    if not runs or (len(runs) == 1 and runs[0][1] == 1):  # p <= 1
        return UNKNOT
    if runs[-1][1] == 1:
        runs = _merge_runs(runs[:-1] + ((runs[-2][0], 1),))
    return v if runs == v.rle else LorenzVector(runs)


def lorenz_permutation(v: LorenzVector) -> Permutation:
    """
    The permutation of the Lorenz braid: i -> i + d_i for the overcrossing
    strands, remaining start positions to remaining end positions in order.
    """
    over = [i + di for i, di in enumerate(v.d, start=1)]
    taken = set(over)
    under = [end for end in range(1, v.strands + 1) if end not in taken]
    return Permutation(tuple(over + under))


def lorenz_braid_word(v: LorenzVector) -> BraidWord:
    """
    The Lorenz braid prod_j [p+j, u_j] of S = sum(d_i) letters, u_j the end of
    undercrossing strand p+j.  The overcrossing strands never cross, so p+j
    moves left past the p+j-u_j of them ending after u_j, as permutation_braid_word
    does.  The r_i - r_(i-1) ends just before run i's are free: u_j = a_i + j - 1
    for r_(i-1) < j <= r_i, a_i the run's first strand.  S is checked against the
    letter cap before any block is read.
    """
    _check_letters(v.total)
    rs, p = [r for r, _ in v.rle], v.p
    runs = zip(accumulate((s for _, s in v.rle), initial=1), [0] + rs, rs)  # a_i, r_(i-1), r_i
    return BraidWord(v.strands, _brackets(
        (p + j, a + j - 1, 1) for a, prev, r in runs for j in range(prev + 1, r + 1)))


def trip_number(v: LorenzVector) -> int:
    """t = #{i : i + d_i > p}; the minimal braid index of the closure, and the
    side of the Durfee square (the largest t with t rows of length >= t).  From
    the longest run down, with c rows above it, the first run with c + s >= r
    ends the square, at side max(r, c)."""
    _require_normalized(v)
    c = 0
    for r, s in reversed(v.rle):
        if c + s >= r:
            return max(r, c)
        c += s
    return c


def classify_strands(v: LorenzVector) -> dict[str, int]:
    """
    Count each strand type, by whether its endpoints lie in the left group
    1..p or the right group p+1..p+d_p.  The overcrossing ends i + d_i
    increase with i, so the last t of the p overcrossing strands, and only
    they, end on the right.  That leaves t left-group ends to the
    undercrossing strands, which fill the free ends in increasing order, so
    the first t of them end on the left.  By start position the types run LL
    p-t times, LR t, RL t and RR d_p-t times, so the counts fix them.
    """
    t = trip_number(v)  # requires v normalized
    return {"LL": v.p - t, "LR": t, "RL": t, "RR": v.dp - t}


def dual_vector(v: LorenzVector) -> LorenzVector:
    """
    The vector of the dual Lorenz braid (the braid rotated on the template).

    Read d as a partition with rows d_i: the dual is its conjugate, column x
    having height #{i : d_i >= x} for x = d_p down to 1.  In run-length form
    that is rbar_j = s_k + ... + s_{k-j+1} repeated sbar_j = r_{k-j+1} - r_{k-j}
    times, with r_0 = 0; the dual swaps p and d_p and represents the same link.
    """
    _require_normalized(v)
    rle, runs, height = v.rle, [], 0
    for j in range(len(rle) - 1, -1, -1):
        height += rle[j][1]
        runs.append((height, rle[j][0] - (rle[j - 1][0] if j else 0)))
    return LorenzVector(tuple(runs))


class TmTriple(_Value):
    """Counts of LL strands (n) and RR strands (m) by displacement: the Durfee
    decomposition of the vector read as a partition, with t the side of the
    Durfee square, n_i its rows of length i+1 below the square and m_i its
    columns of height i+1 to the right of it."""

    __slots__ = ("t", "n", "m")

    def __init__(self, t: int, n: tuple[int, ...], m: tuple[int, ...]) -> None:
        if t < 2:
            raise ValueError("trip number must be at least 2")
        if len(n) != t - 1 or len(m) != t - 1:
            raise ValueError("n and m must have length t-1")
        if any(x < 0 for x in n + m):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


def tm_triple(v: LorenzVector) -> TmTriple:
    """The triple (t, n, m) of the normalized v: the counts of X's blocks."""
    t = trip_number(v)  # requires v normalized
    n, m = [0] * (t - 1), [0] * (t - 1)
    for a, b, c in _x_blocks(v, t):
        (n if a < b else m)[abs(a - b) - 1] = c  # [1,i+1]^n_i or [t,t-i]^m_i
    return TmTriple(t, tuple(n), tuple(m))


def vector_from_triple(triple: TmTriple) -> LorenzVector:
    """
    Reconstruct the unique Lorenz vector with the given triple.

    The n-counts give the LL rows.  The t LR rows hold the Durfee square, and
    the j-th longest of them is t plus the number of columns right of the
    square with height >= j; the m-counts give those heights, 2..t.  Every
    valid triple gives a normalized vector with trip number t: the LL rows lie
    in 2..t and each LR row is at least t, so the Durfee side is t, and the two
    longest rows each take every column, since every height is at least 2.
    The shortest LR row is t when m_(t-1) = 0, so it joins an LL run of t.
    """
    t, m = triple.t, triple.m
    ll = [(i + 1, c) for i, c in enumerate(triple.n, start=1) if c]
    lr = [(t + sum(m[max(j - 2, 0):]), 1) for j in range(t, 0, -1)]
    return LorenzVector(_merge_runs(ll + lr))


def _x_blocks(v: LorenzVector, t: int) -> list[tuple[int, int, int]]:
    """
    The blocks (a, b, c), each [a,b]^c, of X = prod [1,i+1]^n_i prod [t,t-i]^m_i,
    the minimal word after its full twist [1,t]^t, from the runs of the
    normalized v with trip number t.  Up-blocks [1,i+1] are rows below the
    Durfee square: s rows of length r per run r < t, the rest of the p - t of
    length t.  Down-blocks [t,t-i] are columns right of it: r - max(r_prev, t)
    of height H (the entries from that run up) per run r > t, reversed as H falls.
    """
    up, down, below, height, prev = [], [], v.p - t, v.p, 0
    for r, s in v.rle:
        if r < t:
            up.append((1, r, s))
            below -= s
        elif r > t:
            down.append((t, t - height + 1, r - max(prev, t)))
        height, prev = height - s, r
    return up + [(1, t, below)] + down[::-1]


def minimal_braid_word(v: LorenzVector) -> BraidWord:
    """
    The minimal braid-index word [1,t]^t prod [1,i+1]^n_i prod [t,t-i]^m_i on t strands.

    Its letter count is S + t - p - d_p, the minimal crossing number of the
    link.  Distinct vectors may share this word (for t = 2 it collapses to
    sigma_1^(2 + n_1 + m_1)).
    """
    t = trip_number(v)  # requires v normalized
    return BraidWord(t, _brackets([(1, t, t)] + _x_blocks(v, t)))


def milestone_words(v: LorenzVector) -> dict[str, BraidWord]:
    """The Lorenz braid, the twisted-torus word, its dual and the minimal word,
    keyed "lorenz", "t", "t_dual" and "minimal" as in InvariantReport.crossings."""
    from .tlink import tbraid_word, vector_to_tparams

    _require_normalized(v)
    return {
        "lorenz": lorenz_braid_word(v),
        "t": tbraid_word(vector_to_tparams(v)),
        "t_dual": tbraid_word(vector_to_tparams(dual_vector(v))),
        "minimal": minimal_braid_word(v),
    }
