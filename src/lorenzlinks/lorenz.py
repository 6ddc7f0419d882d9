"""
Lorenz vectors and the braid representations of the links they define.

A Lorenz braid on p + d_p strands is determined by the displacements of its p
overcrossing strands: strand i starts at position i and ends at i + d_i, and
the undercrossing strands fill the remaining positions in increasing order.
The nondecreasing vector <d_1, ..., d_p> therefore encodes the whole braid.
Run-length form <r_1^s_1, ..., r_k^s_k> groups parallel strands.

A vector is *normalized* when p >= 2, d_1 >= 2 and d_{p-1} = d_p; every other
vector destabilizes to a normalized one or to the unknot, one strand at a
time, and each move preserves c - n (crossings minus strands) of the braid.

Four braid representations of the same link are produced here ("milestones"):
the Lorenz braid itself, the twisted-torus word on d_p strands, its dual on p
strands, and the minimal braid-index word on t strands, where t is the trip
number #{i : i + d_i > p}.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .braid import (
    BraidWord,
    Permutation,
    bracket,
    concat_all,
    permutation_braid_word,
    power,
)
from .errors import ParseError


class VectorOrderWarning(UserWarning):
    """A vector was written out of order and has been sorted."""


@dataclass(frozen=True)
class Unknot:
    """Verdict for vectors whose closure is the trivial knot."""

    def __str__(self) -> str:
        return "Unknot"


UNKNOT = Unknot()


@dataclass(frozen=True)
class LorenzVector:
    """Nondecreasing positive displacements <d_1, ..., d_p>."""

    d: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.d:
            raise ValueError("empty displacement vector")
        if any(x < 1 for x in self.d):
            raise ValueError(f"displacements must be positive: {self.d}")
        if any(a > b for a, b in zip(self.d, self.d[1:])):
            raise ValueError(f"displacements must be nondecreasing: {self.d}")

    @property
    def p(self) -> int:
        """Number of overcrossing strands."""
        return len(self.d)

    @property
    def dp(self) -> int:
        """Largest displacement, the number of undercrossing strands."""
        return self.d[-1]

    @property
    def strands(self) -> int:
        return self.p + self.dp

    @property
    def total(self) -> int:
        """S, the crossing number of the Lorenz braid."""
        return sum(self.d)

    @cached_property
    def rle(self) -> tuple[tuple[int, int], ...]:
        """Run-length pairs (r_i, s_i) with r strictly increasing."""
        pairs: list[tuple[int, int]] = []
        for x in self.d:
            if pairs and pairs[-1][0] == x:
                pairs[-1] = (x, pairs[-1][1] + 1)
            else:
                pairs.append((x, 1))
        return tuple(pairs)

    @property
    def is_normalized(self) -> bool:
        return self.p >= 2 and self.d[0] >= 2 and self.d[-2] == self.d[-1]

    def __str__(self) -> str:
        return format_vector(self)


MaybeUnknot = Union[LorenzVector, Unknot]


def _require_normalized(v: LorenzVector) -> None:
    if not v.is_normalized:
        raise ValueError(f"vector <{format_vector(v)}> is not normalized")


_TERM = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_vector(text: str) -> LorenzVector:
    """
    Parse "2^4,3^2,6,8^2" or an explicit list "2,2,3".

    Terms are "r" or "r^s"; the result is sorted nondecreasing, with a
    VectorOrderWarning when sorting changed the written order.
    """
    body = text.strip().strip("<>").strip()
    if not body:
        raise ParseError("empty vector")
    entries: list[int] = []
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
        entries.extend([r] * s)
    ordered = sorted(entries)
    if ordered != entries:
        warnings.warn(
            f"vector {text!r} is not nondecreasing; sorted", VectorOrderWarning,
            stacklevel=2,
        )
    return LorenzVector(tuple(ordered))


def format_vector(v: LorenzVector) -> str:
    """Canonical run-length text, e.g. "2^4,3^2,6,8^2"."""
    return ",".join(f"{r}^{s}" if s > 1 else str(r) for r, s in v.rle)


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
        yield LorenzVector(tuple(d))


def normalize(v: LorenzVector) -> MaybeUnknot:
    """
    Destabilize to a normalized vector, or to the unknot verdict: the moves of
    normalize_steps in one pass.  The leading 1s go, then d_p falls to d_{p-1};
    a decrement never makes a leading 1.
    """
    d = v.d
    start = 0
    while start < len(d) and d[start] == 1:
        start += 1
    if len(d) - start <= 1:
        return UNKNOT
    return v if v.is_normalized else LorenzVector(d[start:-1] + (d[-2],))


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
    """The Lorenz braid as a positive word; its length is S = sum(d_i)."""
    return permutation_braid_word(lorenz_permutation(v))


def trip_number(v: LorenzVector) -> int:
    """t = #{i : i + d_i > p}; the minimal braid index of the closure."""
    _require_normalized(v)
    p = v.p
    return sum(1 for i, di in enumerate(v.d, start=1) if i + di > p)


@dataclass(frozen=True)
class StrandClassification:
    """Strand types by start position: kinds[s-1] in {"LL","LR","RL","RR"}."""

    kinds: tuple[str, ...]

    def count(self, kind: str) -> int:
        return sum(1 for k in self.kinds if k == kind)

    @property
    def counts(self) -> dict[str, int]:
        return {kind: self.count(kind) for kind in ("LL", "LR", "RL", "RR")}


def classify_strands(v: LorenzVector) -> StrandClassification:
    """
    Type each strand by whether its endpoints lie in the left group 1..p or
    the right group p+1..p+d_p.  There are p-t, t, t and d_p-t strands of
    type LL, LR, RL and RR respectively.
    """
    _require_normalized(v)
    perm = lorenz_permutation(v)
    p = v.p
    kinds = []
    for start in range(1, v.strands + 1):
        end = perm(start)
        if start <= p:
            kinds.append("LL" if end <= p else "LR")
        else:
            kinds.append("RL" if end <= p else "RR")
    return StrandClassification(tuple(kinds))


def dual_vector(v: LorenzVector) -> LorenzVector:
    """
    The vector of the dual Lorenz braid (the braid rotated on the template).

    In run-length form, rbar_j = s_k + ... + s_{k-j+1} and
    sbar_j = r_{k-j+1} - r_{k-j} with r_0 = 0; the dual swaps p and d_p and
    represents the same link.
    """
    _require_normalized(v)
    pairs = v.rle
    k = len(pairs)
    r = [0] + [pr[0] for pr in pairs]  # r[0] = 0 sentinel
    s = [pr[1] for pr in pairs]
    entries: list[int] = []
    acc = 0
    for j in range(1, k + 1):
        acc += s[k - j]
        r_bar = acc
        s_bar = r[k - j + 1] - r[k - j]
        entries.extend([r_bar] * s_bar)
    return LorenzVector(tuple(entries))


@dataclass(frozen=True)
class TmTriple:
    """Counts of LL strands (n) and RR strands (m) by displacement."""

    t: int
    n: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ValueError("trip number must be at least 2")
        if len(self.n) != self.t - 1 or len(self.m) != self.t - 1:
            raise ValueError("n and m must have length t-1")
        if any(x < 0 for x in self.n + self.m):
            raise ValueError("counts must be nonnegative")


def tm_triple(v: LorenzVector) -> TmTriple:
    """
    The triple (t, n, m): n_i counts LL strands with d_j = i+1, and m_i counts
    RR strands via the dual vector, whose LL strands they become.
    """
    _require_normalized(v)
    t = trip_number(v)
    n = [0] * (t - 1)
    for j in range(1, v.p - t + 1):
        n[v.d[j - 1] - 2] += 1
    dual = dual_vector(v)
    m = [0] * (t - 1)
    for j in range(1, dual.p - t + 1):
        m[dual.d[j - 1] - 2] += 1
    return TmTriple(t, tuple(n), tuple(m))


def vector_from_triple(triple: TmTriple) -> LorenzVector:
    """
    Reconstruct the unique Lorenz vector with the given triple.

    The n-counts give the LL displacements and, through the dual, the m-counts
    place the RR strands; the LR strands then occupy the remaining right-group
    end positions in increasing order, which pins down every displacement.
    """
    t = triple.t
    p = t + sum(triple.n)
    dp = t + sum(triple.m)
    n_strands = p + dp
    d_ll = [i + 1 for i in range(1, t) for _ in range(triple.n[i - 1])]
    d_ll.sort()
    dual_ll = [i + 1 for i in range(1, t) for _ in range(triple.m[i - 1])]
    dual_ll.sort()
    # Dual overcrossing strand jbar -> jbar + dbar corresponds to the original
    # undercrossing strand from n+1-jbar down to n+1-(jbar+dbar).
    rr_ends = {
        n_strands + 1 - (jbar + dbar)
        for jbar, dbar in enumerate(dual_ll, start=1)
    }
    lr_ends = sorted(set(range(p + 1, n_strands + 1)) - rr_ends)
    if len(lr_ends) != t:
        raise ValueError(f"inconsistent triple {triple}")
    d_lr = [end - start for start, end in zip(range(p - t + 1, p + 1), lr_ends)]
    return LorenzVector(tuple(d_ll + d_lr))


def minimal_word_from_triple(triple: TmTriple) -> BraidWord:
    """The t-strand word [1,t]^t prod [1,i+1]^n_i prod [t,t-i]^m_i."""
    t = triple.t
    parts = [power(bracket(1, t, t), t)]
    for i in range(1, t):
        if triple.n[i - 1]:
            parts.append(power(bracket(1, i + 1, t), triple.n[i - 1]))
    for i in range(1, t):
        if triple.m[i - 1]:
            parts.append(power(bracket(t, t - i, t), triple.m[i - 1]))
    return concat_all(t, parts)


def minimal_braid_word(v: LorenzVector) -> BraidWord:
    """
    The minimal braid-index representation, on t strands.

    Its letter count is S + t - p - d_p, the minimal crossing number of the
    link.  Distinct vectors may share this word (for t = 2 it collapses to
    sigma_1^(2 + n_1 + m_1)).
    """
    return minimal_word_from_triple(tm_triple(v))


@dataclass(frozen=True)
class Milestones:
    """The four braid representations of one Lorenz link."""

    lorenz: BraidWord
    t_braid: BraidWord
    dual_t_braid: BraidWord
    minimal: BraidWord

    @property
    def words(self) -> dict[str, BraidWord]:
        return {
            "lorenz": self.lorenz,
            "t": self.t_braid,
            "t_dual": self.dual_t_braid,
            "minimal": self.minimal,
        }

    @property
    def crossings(self) -> dict[str, int]:
        return {name: len(w) for name, w in self.words.items()}

    @property
    def braid_indices(self) -> dict[str, int]:
        return {name: w.strands for name, w in self.words.items()}

    @property
    def c_minus_n(self) -> int:
        """Crossings minus strands; identical for all four representations."""
        return len(self.lorenz) - self.lorenz.strands


def _milestone_sizes(v: LorenzVector) -> tuple[dict[str, int], dict[str, int]]:
    """
    Crossings and strands of the milestone words of a normalized vector, keyed
    as in Milestones.words, from closed forms; no word is built.  The T-braid
    has sum s_i (r_i - 1) = S - p crossings, and the dual vector has the same
    total S with p and d_p swapped.
    """
    total, p, dp, t = v.total, v.p, v.dp, trip_number(v)
    return (
        {"lorenz": total, "t": total - p, "t_dual": total - dp,
         "minimal": total + t - p - dp},
        {"lorenz": p + dp, "t": dp, "t_dual": p, "minimal": t},
    )


def milestone_words(v: LorenzVector) -> Milestones:
    """Lorenz braid, twisted-torus word, its dual, and the minimal word."""
    from .tlink import tbraid_word, vector_to_tparams

    _require_normalized(v)
    return Milestones(
        lorenz=lorenz_braid_word(v),
        t_braid=tbraid_word(vector_to_tparams(v)),
        dual_t_braid=tbraid_word(vector_to_tparams(dual_vector(v))),
        minimal=minimal_braid_word(v),
    )
