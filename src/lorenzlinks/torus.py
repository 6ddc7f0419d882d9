"""
Deciding whether a Lorenz link is a torus link.

A torus link with braid index t is the closure of [1,t]^q for some q >= t,
and any t-braid closing to it is conjugate to [1,t]^q.  Positivity fixes q:
the minimal word M and [1,t]^q must have equal letter length, so q must be
|M| / (t-1).  Conjugacy is then reduced to the word problem: delta = [1,t]
is periodic, periodic braids have unique roots, and delta^(tq) is central,
so M is conjugate to delta^q exactly when M^t = delta^(tq) = Delta^(2q).
is_torus reads t and |M|, closed forms in the vector, from invariants._counts,
and counts the component count mu only when the components rung is reached;
census.report passes its own report to the same decision, so nothing is
counted twice.  The minimal word begins with
[1,t]^t, which has t(t-1) letters, so q >= t needs no test.  After the unknot
and the length rule, two cheap rungs come before any word is built, the O(1)
one first:

- tparams: the run-length pairs of the vector are T-parameters, and when
  the torus rewrite (tlink.torus_simplify) leaves one pair (r, s), the
  closure is T(r, s).  A rewrite turns the last canonical pair to (s_k, r_k),
  so it lowers k only by merging that pair into the one before, which needs
  s_k = r_(k-1).  So one pair is left only for k = 1, or for k = 2 with
  s_2 = r_1 and r_1 | s_1, giving T(r_1, s_1 + r_2): an O(1) test on the runs.
- components: delta^q permutes the strands as the q-th power of a t-cycle,
  so T(t, q) has gcd(t, q) components; mu is counted without a word.

Both are proved, and tparams decides only Torus verdicts while components
decides only NotTorus ones, so no vector is decided by both, and their order
changes no verdict and no deciding rung.

Otherwise M = delta^t X, where delta^t = Delta^2 is central and X has
(t-1)(q-t) letters.  The positive monoid is cancellative, so
M^t = Delta^(2q) exactly when X^t = Delta^(2(q-t)).  Two checks on X come
first, each deciding only NotTorus, then the factors of X are folded t times,
stopping past 2(q-t) factors:

- crossings: label each strand of a positive word by its start position.
  Positive words equal in B_t are related by far commutations, which move no
  crossing between strand pairs, and braid moves, each side of which crosses
  each pair of its three strands once (Garside, Quart. J. Math. 1969).  So
  how often strands a and b cross is a braid invariant: 2k for every pair in
  Delta^(2k), and sum_(j<t) C[pi^j a, pi^j b] in X^t, where C counts one walk
  over X and pi is its strand map.  The sum runs along the pair's orbit:
  exact if pi^t = id, while if not, X^t has the wrong permutation.  Either
  way a pair whose sum is not 2(q-t) makes the link NotTorus.  C is counted
  on X's blocks (lorenz._x_blocks), not its letters: [v,w] on the r = |v-w|+1
  strands between v and w moves the strand at v to w past the other r-1, each
  crossed once, so [v,w]^n with n = qr + m is q full twists, which cross each
  pair of the r strands twice and move none, then m moves.  Each moved strand
  crosses each of the r-1 others once as it moves, so two moved strands cross
  twice and a moved and an unmoved strand once.
- burau: rho, the reduced Burau representation (Burau 1936) in the
  convention of invariants.py, is a homomorphism, so conjugate braids have
  similar matrices and equal traces.  rho(delta) = s C, where C maps e_j to
  e_(j+1) for j < t-1 and e_(t-1) to -(e_1 + ... + e_(t-1)): the companion
  matrix of 1 + x + ... + x^(t-1), whose roots are the t-th roots of unity
  zeta != 1.  These are distinct, so C is diagonalisable, C^t = I,
  rho(Delta^2) = rho(delta^t) = s^t I, and rho(delta^q) has the eigenvalues
  (s zeta)^q.  The q-th powers of all t-th roots of unity sum to t if t | q,
  else to 0, so at s = 2, with y = 2^q, tr rho(delta^q)(2) = y (t [t | q] - 1),
  while tr rho(M) = 2^t tr rho(X).  If the traces differ, M is not conjugate
  to delta^q and the link is NotTorus; if they agree, the fold decides.
- factor bound: if X^t = Delta^(2(q-t)), every prefix of the fold
  left-divides it, so it has at most 2(q-t) left-greedy factors.
- garside: a fold of X^t within 2(q-t) factors is Delta^(2(q-t)).  It holds
  the t (q-t) (t-1) letters of X^t, and a simple factor has at most
  t(t-1)/2 letters, with exactly that many only for Delta, so every factor
  is Delta.  An empty X gives Torus(t, t).

X's letters come from its blocks, read from the runs (lorenz._x_blocks), only
when the burau rung is reached, so M is never built, and an X past braid.MAX_LETTERS raises
UnsupportedInput there.  The crossing counts hold a t x t table, so a t past
MAX_TORUS_STRANDS raises UnsupportedInput once the components rung is passed.
Each letter of X rewrites a burau row of 2|X| t bits, so an |X| t past
MAX_BURAU_RUNG_SIZE raises UnsupportedInput before the rows are built.
The rungs run in the order unknot, length, tparams, components, crossings,
burau, factor_bound, garside.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Optional

from .braid import _brackets
from .errors import UnsupportedInput, _Value
from .garside import _cut, _product
from .invariants import InvariantReport, _counts, _Counts
from .lorenz import LorenzVector, _x_blocks

MAX_TORUS_STRANDS = 150  # t at the crossings rung, whose counts fill a t x t table
MAX_BURAU_RUNG_SIZE = 100_000  # |X| t at the burau build, of |X| rewrites of 2|X| t bits


class TorusVerdict(_Value, compared=("kind", "t", "q")):
    """Torus(t, q) for the link T(t, q), or NotTorus, or Unknot, with the
    rung of is_torus that decided it; the rung takes no part in equality."""

    __slots__ = ("kind", "t", "q", "decided_by")

    def __init__(self, kind: str, t: Optional[int] = None, q: Optional[int] = None,
                 decided_by: str = "garside") -> None:
        if kind == "torus":
            if t is None or q is None or t < 2 or q < t:
                raise ValueError(f"impossible torus verdict ({t},{q})")
        object.__setattr__(self, "kind", kind)  # "torus" | "not-torus" | "unknot"
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q", q)
        # "unknot" | "length" | "tparams" | "components" | "crossings" | "burau" |
        # "factor_bound" | "garside"; "tparams" and "garside" decide only Torus
        # verdicts, "crossings" and "burau" only NotTorus
        object.__setattr__(self, "decided_by", decided_by)

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    def __str__(self) -> str:
        if self.kind == "torus":
            return f"Torus({self.t},{self.q})"
        return "Unknot" if self.kind == "unknot" else "NotTorus"


NOT_TORUS = {rung: TorusVerdict("not-torus", decided_by=rung) for rung in
             ("length", "components", "crossings", "burau", "factor_bound")}
UNKNOT_VERDICT = TorusVerdict("unknot", decided_by="unknot")


def _crossings_agree(t: int, blocks: list[tuple[int, int, int]], k: int) -> bool:
    """Whether every pair of strands crosses k times in X^t, for X's blocks
    (v, w, n), each [v,w]^n.  With the strands labelled 0..t-1 by start
    position, X crosses a and b c[a][b] + c[b][a] times and leaves strand
    at[i] at position i."""
    at, c = list(range(t)), [[0] * t for _ in range(t)]
    for v, w, n in blocks:
        lo, r = min(v, w) - 1, abs(v - w) + 1
        twists, moves = divmod(n, r)
        seg = at[lo:lo + r]
        if twists:
            for a in seg:
                row = c[a]
                for b in seg:
                    row[b] += twists
        cut = moves if v < w else r - moves  # [v,w] moves the strand at v to w
        for a in seg[:cut] if v < w else seg[cut:]:
            row = c[a]
            for b in seg:
                row[b] += 1
        at[lo:lo + r] = seg[cut:] + seg[:cut]
    seen: set[tuple[int, int]] = set()
    for a, b in combinations(range(t), 2):
        excess = 0
        while (a, b) not in seen:  # the orbit under at, the inverse strand map
            seen.update(((a, b), (b, a)))
            excess += t * (c[a][b] + c[b][a]) - k
            a, b = at[a], at[b]
        if excess:
            return False
    return True


def _packed_at_2(t: int, x: tuple[int, ...]) -> tuple[list[int], int]:
    """The rows of rho(X) at s = 2, for X's letters x on t strands, and b,
    built from the last letter back as in invariants._burau_rows.  Slot c of
    b bits holds column c; the entries stay below 3^|X| in size, so
    b = 2|X| + 2 bits keep every slot exact.  Rows 0 and t pad both ends."""
    b = 2 * len(x) + 2
    rows = [0] + [1 << (b * r) for r in range(t - 1)] + [0]
    for i in reversed(x):
        rows[i] = ((rows[i - 1] - rows[i]) << 1) + rows[i + 1]
    return rows[1:t], b


def _trace(rows: list[int], b: int) -> int:
    """The sum of slot r of row r, each read past the borrow of the slots
    below it, which are less than half of slot r's unit in size."""
    half, mask = 1 << (b - 1), (1 << b) - 1
    return sum(((((row + (1 << b * r >> 1)) >> b * r) + half) & mask) - half
               for r, row in enumerate(rows))


def _burau_agrees(t: int, q: int, x: tuple[int, ...]) -> bool:
    """Whether 2^t rho(X)(2) has the trace of rho(delta^q)(2), for X's letters
    x on t strands; M = delta^t X, and rho(delta^t) = 2^t I."""
    return _trace(*_packed_at_2(t, x)) << t == (t * (q % t == 0) - 1) << q


def _garside_verdict(t: int, q: int, x: tuple[int, ...]) -> TorusVerdict:
    """The fold of X^t within 2(q-t) factors, for X's letters x on t strands."""
    if _product(_product(_cut(t, x)) * t, 2 * (q - t)) is None:
        return NOT_TORUS["factor_bound"]
    return TorusVerdict("torus", t, q)


def _tparams_pair(rle: tuple[tuple[int, int], ...]) -> Optional[tuple[int, int]]:
    """The one pair the torus rewrite leaves of the canonical pairs rle, else None."""
    if len(rle) == 2 and rle[1][1] == rle[0][0] and rle[0][1] % rle[0][0] == 0:
        return rle[0][0], rle[0][1] + rle[1][0]
    return rle[0] if len(rle) == 1 else None


def _verdict(rep: InvariantReport | _Counts) -> TorusVerdict:
    """The torus verdict from an invariant report or the counts it builds on."""
    nv = rep.vector
    if nv is None:
        return UNKNOT_VERDICT
    t, length = rep.trip, rep.min_crossing_number
    if length % (t - 1):
        return NOT_TORUS["length"]
    q = length // (t - 1)
    pair = _tparams_pair(nv.rle)
    if pair is not None:
        return TorusVerdict("torus", min(pair), max(pair), decided_by="tparams")
    if rep.components != gcd(t, q):
        return NOT_TORUS["components"]
    if t > MAX_TORUS_STRANDS:
        raise UnsupportedInput(
            f"t = {t} exceeds the cap of {MAX_TORUS_STRANDS} strands for the crossing counts")
    blocks = _x_blocks(nv, t)
    if not _crossings_agree(t, blocks, 2 * (q - t)):
        return NOT_TORUS["crossings"]
    x = _brackets(blocks)
    if len(x) * t > MAX_BURAU_RUNG_SIZE:
        raise UnsupportedInput(
            f"|X| t = {len(x) * t} exceeds the cap of {MAX_BURAU_RUNG_SIZE} for the Burau rung")
    if not _burau_agrees(t, q, x):
        return NOT_TORUS["burau"]
    return _garside_verdict(t, q, x)


def is_torus(v: LorenzVector) -> TorusVerdict:
    """Decide torus-ness of the closure; the input is normalized first."""
    return _verdict(_counts(v))
