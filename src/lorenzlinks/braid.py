"""
Positive braid words and the permutations they induce.

Conventions used throughout the package:

- Strand positions are numbered 1..n, and a braid word is a sequence of
  generator indices, letter i standing for sigma_i, the crossing of the
  strands occupying positions i and i+1.  Only positive words exist here, so
  the letter count of a word is its crossing number and no cancellation is
  ever possible.
- Words act on positions left to right.  A Permutation records where each
  strand ends up: image[a-1] is the end position of the strand that starts
  at position a.  Under this convention perm(a * b)(x) = perm(b)(perm(a)(x)).
- A permutation braid is a positive braid in which any two strands cross at
  most once; it is determined by its permutation, and its positive words are
  exactly the reduced words.  permutation_braid_word picks a deterministic
  reduced word (strands inserted by increasing start position, each emitting
  a descending run of letters).
- One builder, _brackets, spells every word built from a vector, each a
  product of bracket powers [v, w]^c, and bracket and delta^q too; it sizes
  the word before it makes a letter, so it holds the letter cap, MAX_LETTERS.
- The image-tuple helpers live here too: _inverse, shared by Permutation
  and the Garside kernel, and _cycles, the walk behind cycle_count that
  invariants also runs on a plain list.

Text format for words: a header token "n=<strands>" followed by whitespace
separated letters, e.g. "n=3 1 2 1" for sigma_1 sigma_2 sigma_1 in B_3.
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import ne
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, UnsupportedInput, _Value

MAX_LETTERS = 1_000_000  # the letters of a built word, the scale of MAX_MORTON_DEGREE
MAX_WORD_STRANDS = 10_000  # the strands of a parsed word, which the Garside cut lists
MAX_WORD_COST = 300_000_000  # L (n + 25) (L + 500) of a parsed word, measured: see parse_word


def _inverse(image: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of the inverse permutation."""
    inv = [0] * len(image)
    for a, x in enumerate(image, start=1):
        inv[x - 1] = a
    return tuple(inv)


class Permutation(_Value):
    """A permutation of {1..n} in image form: image[a-1] = pi(a)."""

    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]) -> None:
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {image!r}")
        object.__setattr__(self, "image", image)

    @classmethod
    def from_letters(cls, n: int, letters: Iterable[int]) -> "Permutation":
        """Trace the strands of a positive word given by its letters."""
        # arrangement[pos-1] = label of the strand currently at position pos
        arrangement = list(range(1, n + 1))
        for i in letters:
            arrangement[i - 1], arrangement[i] = arrangement[i], arrangement[i - 1]
        return cls(_inverse(arrangement))

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, a: int) -> int:
        return self.image[a - 1]

    @property
    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.image))


class BraidWord(_Value):
    """A positive braid word: a strand count and a sequence of letters."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()) -> None:
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        if letters and not 1 <= min(letters) <= max(letters) < strands:
            bad = next(i for i in letters if not 1 <= i < strands)
            raise ValueError(f"letter {bad} out of range 1..{strands - 1}")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if other.strands != self.strands:
            raise ValueError(f"strand counts differ: {other.strands} != {self.strands}")
        return BraidWord(self.strands, self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)


def _check_letters(size: int) -> None:
    """Refuse a word of this many letters past MAX_LETTERS."""
    if size > MAX_LETTERS:
        raise UnsupportedInput(f"word exceeds the cap of {MAX_LETTERS} letters")


def _brackets(blocks: Iterable[tuple[int, int, int]]) -> tuple[int, ...]:
    """
    The letters of prod [v, w]^c over the blocks (v, w, c), [v, v] empty.

    Ascending, [v, w] with v < w is sigma_v sigma_{v+1} ... sigma_{w-1};
    descending, it is sigma_{v-1} ... sigma_{w+1} sigma_w: |v - w| letters
    moving one strand across the interval.  The blocks are sized before any
    letter is made, and refused once their running size passes MAX_LETTERS.
    """
    read, size = [], 0
    for v, w, c in blocks:
        size += abs(v - w) * c
        _check_letters(size)
        read.append((v, w, c))
    return tuple(chain.from_iterable(
        tuple(range(v, w) if v < w else range(v - 1, w - 1, -1)) * c for v, w, c in read))


def bracket(v: int, w: int, strands: int) -> BraidWord:
    """The generator run [v, w] between positions v and w (see _brackets)."""
    if not (1 <= v <= strands and 1 <= w <= strands):
        raise ValueError(f"bracket endpoints {v},{w} out of range 1..{strands}")
    if v == w:
        raise ValueError("bracket endpoints must differ")
    return BraidWord(strands, _brackets(((v, w, 1),)))


def power(a: BraidWord, k: int) -> BraidWord:
    if k < 0:
        raise ValueError("negative powers of positive words do not exist")
    return BraidWord(a.strands, a.letters * k)


def _cycles(image: Sequence[int]) -> int:
    """Cycles of a -> image[a-1]; every walk must close at its start, as all do
    exactly when image, of values in 1..n, is a permutation."""
    seen = [False] * len(image)
    count = 0
    for a in range(len(image)):
        if not seen[a]:
            count += 1
            x = a
            while not seen[x]:
                seen[x] = True
                x = image[x] - 1
            if x != a:
                raise AssertionError(f"not a permutation: {a + 1} is on no cycle")
    return count


def cycle_count(p: Permutation) -> int:
    """Number of cycles; the component count of the closure of any word inducing p."""
    return _cycles(p.image)


def flip_word(w: BraidWord) -> BraidWord:
    """Replace each letter i by n-i: conjugation by the half twist Delta."""
    n = w.strands
    return BraidWord(n, tuple(n - i for i in w.letters))


def _image_word(image: tuple[int, ...]) -> list[int]:
    """The letters of permutation_braid_word for a permutation in image form.
    Only the strands from the first moved one to the last cross, so the walk
    spans them alone; one scan in C finds them on a wide factor."""
    moved = list(compress(count(), map(ne, image, count(1))))
    if not moved:
        return []
    lo, hi = moved[0], moved[-1]
    letters, top = [], lo  # top: the highest end of the strands placed so far
    for a, x in enumerate(image[lo:hi + 1], start=lo + 1):
        if x < top:  # strand a crosses the placed strands that end above it
            letters.extend(range(a - 1, a - 1 - sum(y > x for y in image[:a - 1]), -1))
        top = max(top, x)
    return letters


def permutation_braid_word(p: Permutation) -> BraidWord:
    """
    A deterministic reduced positive word for the permutation braid of p.

    Strands are inserted in increasing start position; strand a enters at
    position a and descends past every already placed strand b < a with
    p(b) > p(a), emitting a descending run of letters.  The word length is the
    inversion count of p, so any two strands cross at most once.
    """
    return BraidWord(p.size, tuple(_image_word(p.image)))


def format_word(w: BraidWord) -> str:
    if not w.letters:
        return f"n={w.strands}"
    return f"n={w.strands} " + " ".join(str(i) for i in w.letters)


def parse_word(text: str) -> BraidWord:
    """
    Parse the "n=<strands> i j k ..." text format.

    The L letter tokens are counted before any is converted, and the word is
    refused when L (m + 25) (L + 500) passes MAX_WORD_COST, for m the smaller
    of n and MAX_WORD_STRANDS.  That is the measured shape of the normal
    form's cost: each letter costs the cut and the printed factors about
    n + 25 steps, and a factor such as Delta can slide past every factor
    before it, so a fold can take up to L slides.  Then the letters are read,
    so a malformed word is a ParseError whatever its header, and n is
    checked against MAX_WORD_STRANDS.
    """
    tokens = text.split()
    if not tokens or not tokens[0].startswith("n="):
        raise ParseError(f"word must start with a strand header n=<int>: {text!r}")
    try:
        strands = int(tokens[0][2:])
    except ValueError as exc:
        raise ParseError(f"malformed braid word {text!r}") from exc
    size = len(tokens) - 1
    if size * (min(strands, MAX_WORD_STRANDS) + 25) * (size + 500) > MAX_WORD_COST:
        raise UnsupportedInput(f"{size} letters on {strands} strands: L (n + 25) (L + 500)"
                               f" exceeds the cap of {MAX_WORD_COST}")
    try:
        letters = tuple(int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ParseError(f"malformed braid word {text!r}") from exc
    if strands > MAX_WORD_STRANDS:  # outside the try: not a ParseError
        raise UnsupportedInput(f"n = {strands} exceeds the cap of {MAX_WORD_STRANDS} strands")
    try:
        return BraidWord(strands, letters)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
