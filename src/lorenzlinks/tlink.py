"""
T-links: repeated positive twisting of torus braids.

T((r_1,s_1),...,(r_k,s_k)) is the closure of the r_k-strand word
prod_i (sigma_1 ... sigma_{r_i-1})^{s_i}, with 2 <= r_1 <= ... <= r_k and
s_i >= 1.  The run-length pairs of a Lorenz vector, which are its stored
form (LorenzVector.rle), transfer verbatim to T-parameters and back, and one
merge of equal r serves both; so T-links and Lorenz links coincide.  The X, Y, Z
words built here realise that identity inside the braid group and are checked
against the T-braid word through the normal-form engine.

k is not an invariant of the link: adjacent pairs with equal r merge, and the
torus rewrite (see torus_simplify) can lower it by one, but never by two;
torus._tparams_pair reads from the runs whether it leaves one pair.
Canonical parameters have strictly increasing r.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, islice, repeat

from .braid import BraidWord, _brackets
from .errors import ParseError, _Value
from .lorenz import (LorenzVector, _merge_runs, _require_normalized, _x_blocks, dual_vector,
                     trip_number)


class TParams(_Value):
    """Pairs ((r_1,s_1),...,(r_k,s_k)) with r nondecreasing, r_1 >= 2, s_i >= 1."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        if not pairs:
            raise ValueError("empty T-parameters")
        for r, s in pairs:
            if r < 2:
                raise ValueError(f"r must be at least 2: {pairs}")
            if s < 1:
                raise ValueError(f"s must be at least 1: {pairs}")
        rs = [r for r, _ in pairs]
        if any(a > b for a, b in zip(rs, rs[1:])):
            raise ValueError(f"r values must be nondecreasing: {pairs}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def r_max(self) -> int:
        return self.pairs[-1][0]

    def canonical(self) -> "TParams":
        """Merge adjacent pairs with equal r (their s values add)."""
        return TParams(_merge_runs(self.pairs))

    def __str__(self) -> str:
        return format_tparams(self)


_PAIR = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_tparams(text: str) -> TParams:
    """Parse "(r,s)(r,s)..." text."""
    body = text.strip()
    pairs = [(int(r), int(s)) for r, s in _PAIR.findall(body)]
    if not pairs or _PAIR.sub("", body).strip():
        raise ParseError(f"bad T-parameters {text!r}")
    try:
        return TParams(tuple(pairs))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_tparams(t: TParams) -> str:
    return "".join(f"({r},{s})" for r, s in t.pairs)


def tbraid_word(t: TParams) -> BraidWord:
    """The word prod_i [1, r_i]^{s_i} on r_k strands; length sum s_i (r_i - 1)."""
    return BraidWord(t.r_max, _brackets((1, r, s) for r, s in t.pairs))


def vector_to_tparams(v: LorenzVector) -> TParams:
    """Run-length pairs of a normalized vector, read as T-parameters."""
    _require_normalized(v)
    return TParams(v.rle)


def tparams_to_vector(t: TParams) -> LorenzVector:
    """The Lorenz vector whose run-length form is the canonical parameters."""
    return LorenzVector(_merge_runs(t.pairs))


def x_word(v: LorenzVector) -> BraidWord:
    """The LL part on r_k strands: prod_{i<=p-t} [1, d_i], X's up-blocks."""
    return BraidWord(v.dp, _brackets(b for b in _x_blocks(v, trip_number(v)) if b[0] < b[1]))


def y_word(v: LorenzVector) -> BraidWord:
    """The LR part on r_k strands: [1, t]^t."""
    t = trip_number(v)
    return BraidWord(v.dp, _brackets(((1, t, t),)))


def z_word(v: LorenzVector) -> BraidWord:
    """The RL/RR part: Z_t ... Z_1, Z_{t-i} = [t-i, d_{p-i} - i], empty when d_{p-i} = t."""
    t = trip_number(v)
    top = islice(chain.from_iterable(repeat(r, s) for r, s in reversed(v.rle)), t)
    return BraidWord(v.dp, _brackets((t - i, d - i, 1) for i, d in enumerate(top)))


def dual_tparams(t: TParams) -> TParams:
    """
    The dual parameters: rbar_j = s_k + ... + s_{k-j+1},
    sbar_j = r_{k-j+1} - r_{k-j} (r_0 = 0), the conjugate partition that
    dual_vector computes.  Requires s_k >= 2 so that the dual again has
    r_1 >= 2; both parameter lists close to the same link.
    """
    t = t.canonical()
    if t.pairs[-1][1] < 2:
        raise ValueError("dual needs s_k >= 2")
    return vector_to_tparams(dual_vector(tparams_to_vector(t)))


def braid_index(t: TParams) -> int:
    """
    The braid index of the T-link, straight from the parameters.

    With r_0 = rbar_0 = 0, i_0 = min{i : r_i >= rbar_{k-i}} and symmetrically
    j_0 for the dual; the index is min(r_{i_0}, rbar_{j_0}).  It equals the
    trip number of the corresponding Lorenz vector.
    """
    t = t.canonical()
    k = t.k
    r = [0] + [pr[0] for pr in t.pairs]
    r_bar = [0, *accumulate(s for _, s in reversed(t.pairs))]
    i0 = min(i for i in range(1, k + 1) if r[i] >= r_bar[k - i])
    j0 = min(j for j in range(1, k + 1) if r_bar[j] >= r[k - j])
    return min(r[i0], r_bar[j0])


def torus_simplify(t: TParams) -> tuple[TParams, bool]:
    """
    One application of the torus rewrite at the tail.

    When r_{k-1} <= s_k and every r_i divides s_i (i < k), the last pair
    (r_k, s_k) may be replaced by (s_k, r_k) without changing the link.
    Returns (params, True) when the rule applied and (t.canonical(), False)
    otherwise; params are canonical, so (s_k, r_k) merges when s_k = r_{k-1}.
    """
    t = t.canonical()
    r_prev = t.pairs[-2][0] if t.k >= 2 else 0
    r_k, s_k = t.pairs[-1]
    if s_k < 2 or r_prev > s_k or any(s % r for r, s in t.pairs[:-1]):
        return t, False
    rewritten = TParams(t.pairs[:-1] + ((s_k, r_k),))
    return rewritten.canonical(), True

