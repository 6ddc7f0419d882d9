"""
Left-greedy normal form for positive braid words, and the word problem.

Every positive braid has a unique factorisation D_1 D_2 ... D_k into
nonidentity permutation braids that is left weighted: for each adjacent pair
(A, B), no generator can be moved from the front of B into A while keeping A
a permutation braid.  Comparing factor sequences therefore decides equality
of positive words in the braid group.

Inside, factors are plain image tuples (the braid.Permutation convention).
A slide moves c = meet(B, A^{-1} Delta) from the front of B onto A, and
(A, B) is left weighted exactly when c is trivial.  The strip reads the
left factor's inverse image: the descents of A^{-1} Delta are the ascents of
A^{-1}, so the complement A^{-1} Delta is never built.  Products use the classical
fold (Epstein et al., Word Processing in Groups, ch. 9; Elrifai-Morton 1994):
a simple element is appended to a left-weighted list, then one right-to-left
pass of slides deletes any right factor that empties and stops at the first
pair already left weighted, since every pair left of it is unchanged.
_product is the one fold driver.  normal_form feeds it the maximal
permutation braids cut from the word (_cut), so each fold carries a whole
factor; multiply feeds it both operands' factors.  A slide depends only on
its pair, and Lorenz words, products of bracket powers, slide the same few
pairs over and over, so one _product call keeps one memo from pair to slide
result and slides each pair once.  Nothing is cached across calls.

Every word here is positive, so a normal form is just the strand count and
the factor tuple, with no Delta^{-k} prefix.  Permutation objects appear only
at the boundary: in NormalForm.factors and the public helpers.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional

from .braid import BraidWord, Permutation, _brackets, _inverse, permutation_braid_word
from .errors import _Value

Image = tuple[int, ...]


def _strip(ainv: list[int], v: list[int]) -> list[int]:
    """
    Strip common left divisors from a^{-1} Delta and v in place, given ainv,
    the inverse image of a; return the letters stripped, a word for the meet.

    sigma_i divides a^{-1} Delta exactly when ainv[i-1] < ainv[i], and
    stripping it swaps those two entries.  Greedy stripping is exact, and a
    swap at i can only create a common divisor at i-1 or i+1, so the scan
    steps back by one.
    """
    letters = []
    n = len(v)
    i = 1
    while i < n:
        if ainv[i - 1] < ainv[i] and v[i - 1] > v[i]:
            ainv[i - 1], ainv[i] = ainv[i], ainv[i - 1]
            v[i - 1], v[i] = v[i], v[i - 1]
            letters.append(i)
            if i > 1:
                i -= 1
        else:
            i += 1
    return letters


def _slide(a: Image, b: Image) -> Optional[tuple[Image, Image]]:
    """(a c, c^{-1} b) for c = meet(b, a^{-1} Delta), or None if c is trivial,
    that is, if (a, b) is left weighted."""
    ainv, head = list(_inverse(a)), list(b)
    if not _strip(ainv, head):  # ainv is now the inverse image of a c
        return None
    return _inverse(ainv), tuple(head)


def _fold(factors: list[Image], s: Image, memo: dict) -> None:
    """
    Right-multiply the left-weighted list by the nonidentity simple s, in place.

    memo maps a pair (a, b) to _slide(a, b), None included; _product keeps
    one memo per call and drops it after.
    """
    identity = tuple(range(1, len(s) + 1))
    factors.append(s)
    j = len(factors) - 1
    while j:
        pair = (factors[j - 1], factors[j])
        try:
            slid = memo[pair]
        except KeyError:
            slid = memo[pair] = _slide(*pair)
        if slid is None:
            return
        factors[j - 1], right = slid
        if right == identity:
            del factors[j]
        else:
            factors[j] = right
        j -= 1


def _product(simples: Iterable[Image], limit: Optional[int] = None) -> Optional[list[Image]]:
    """
    The left-weighted factors of the product of the nonidentity simples, or
    None once the fold holds more than limit factors: the fold so far
    left-divides the product, so the product has more than limit factors too.
    """
    out: list[Image] = []
    memo: dict = {}
    for s in simples:
        _fold(out, s, memo)
        if limit is not None and len(out) > limit:
            return None
    return out


def _cut(n: int, letters: tuple[int, ...]) -> Iterator[Image]:
    """The maximal permutation braids of a positive word on n strands, in order,
    as image tuples."""
    # strand labels by position, within the permutation braid being cut
    arrangement = list(range(1, n + 1))
    for i in letters:
        if arrangement[i - 1] > arrangement[i]:  # these two strands crossed already
            yield _inverse(arrangement)
            arrangement = list(range(1, n + 1))
        arrangement[i - 1], arrangement[i] = arrangement[i], arrangement[i - 1]
    if letters:
        yield _inverse(arrangement)


def right_complement(p: Permutation) -> Permutation:
    """The permutation c with p followed by c equal to Delta, lengths adding."""
    return Permutation(tuple(p.size + 1 - x for x in p.inverse.image))


def meet(u: Permutation, v: Permutation) -> Permutation:
    """Greatest common left divisor of two permutation braids (weak-order meet)."""
    if u.size != v.size:
        raise ValueError("size mismatch")
    top = u.size + 1  # top - u(i) ascends exactly where u descends
    letters = _strip([top - x for x in u.image], list(v.image))
    return Permutation.from_letters(u.size, letters)


def left_slide(a: Permutation, b: Permutation) -> Optional[tuple[Permutation, Permutation]]:
    """
    Make the pair (a, b) left weighted by moving the head of b into a.

    Returns the new pair, or None when the pair is already left weighted.
    The moved part is c = meet(b, right_complement(a)); the result is
    (a c, c^{-1} b), read left to right, and the second entry may be the identity.
    """
    slid = _slide(a.image, b.image)
    return None if slid is None else (Permutation(slid[0]), Permutation(slid[1]))


class NormalForm(_Value):
    """Left-greedy normal form: strand count plus the canonical factor tuple."""

    __slots__ = ("strands", "factors")

    def __init__(self, strands: int, factors: tuple[Permutation, ...]) -> None:
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "factors", factors)

    def word(self) -> BraidWord:
        return BraidWord(self.strands, tuple(
            chain.from_iterable(permutation_braid_word(f).letters for f in self.factors)))


def _normal_form(strands: int, factors: list[Image]) -> NormalForm:
    return NormalForm(strands, tuple(Permutation(f) for f in factors))


def normal_form(w: BraidWord) -> NormalForm:
    """The unique left-weighted factorisation of a positive word."""
    return _normal_form(w.strands, _product(_cut(w.strands, w.letters)))


def multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    return _normal_form(a.strands, _product(f.image for f in a.factors + b.factors))


def nf_power(a: NormalForm, k: int) -> NormalForm:
    """
    k-th power computed factor-wise: a's factors folded on k times.

    The work grows with the number of factors folded in; repeated squaring,
    which folds a^j onto a^j, folds in up to about twice as many.
    """
    if k < 0:
        raise ValueError("negative powers of positive braids do not exist")
    return _normal_form(a.strands, _product([f.image for f in a.factors] * k))


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two positive words represent the same element of the braid group."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    if len(a) != len(b):
        return False  # positive words admit no cancellation
    return normal_form(a) == normal_form(b)


def periodic_word(t: int, q: int) -> BraidWord:
    """The word delta^q in B_t, where delta = sigma_1 ... sigma_{t-1}."""
    if t < 2:
        raise ValueError("periodic words need at least two strands")
    if q < 0:
        raise ValueError("negative powers of positive words do not exist")
    return BraidWord(t, _brackets(((1, t, q),)))

