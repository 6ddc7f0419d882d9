"""
Deciding whether a Lorenz link is a torus link.

A torus link with braid index t is the closure of [1,t]^q for some q >= t,
and any t-braid closing to it is conjugate to [1,t]^q.  Positivity fixes q:
the minimal word M and [1,t]^q must have equal letter length, so q must be
|M| / (t-1).  Conjugacy is then reduced to the word problem: delta = [1,t]
is periodic, periodic braids have unique roots, and delta^(tq) is central,
so M is conjugate to delta^q exactly when M^t = delta^(tq) = Delta^(2q).
t, |M| and the component count mu have closed forms in the vector, and
is_torus reads all three from invariants.invariant_report; census.report
passes its own report to the same decision, so nothing is counted twice.
The minimal word begins with [1,t]^t, which has t(t-1) letters, so q >= t
needs no test.  Two cheap rungs come before any braid arithmetic, in this
order:

- components: delta^q permutes the strands as the q-th power of a t-cycle,
  so T(t, q) has gcd(t, q) components; mu is counted without a word.
- tparams: the run-length pairs of the vector are T-parameters, and when
  the torus rewrite (tlink.torus_simplify_all) leaves one pair (r, s), the
  closure is T(r, s).  That happens only for k = 1 or a merge from k = 2.

Otherwise M = delta^t X, where delta^t = Delta^2 is central and X has
(t-1)(q-t) letters.  The positive monoid is cancellative, so
M^t = Delta^(2q) exactly when X^t = Delta^(2(q-t)).  The factors of X are
folded t times, stopping past 2(q-t) factors:

- factor bound: if X^t = Delta^(2(q-t)), every prefix of the fold
  left-divides it, so it has at most 2(q-t) left-greedy factors.
- garside: a fold of X^t within 2(q-t) factors is Delta^(2(q-t)).  It holds
  the t (q-t) (t-1) letters of X^t, and a simple factor has at most
  t(t-1)/2 letters, with exactly that many only for Delta, so every factor
  is Delta.  An empty X gives Torus(t, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .garside import _cut, _product
from .invariants import InvariantReport, invariant_report
from .lorenz import LorenzVector, minimal_braid_word
from .tlink import torus_simplify_all, vector_to_tparams


@dataclass(frozen=True)
class TorusVerdict:
    """Torus(t, q) for the link T(t, q), or NotTorus, or Unknot, with the
    rung of is_torus that decided it; the rung takes no part in equality."""

    kind: str  # "torus" | "not-torus" | "unknot"
    t: Optional[int] = None
    q: Optional[int] = None
    # "unknot" | "length" | "components" | "tparams" | "factor_bound" |
    # "garside"; only Torus verdicts are decided by "tparams" or "garside"
    decided_by: str = field(default="garside", compare=False)

    def __post_init__(self) -> None:
        if self.kind == "torus":
            if self.t is None or self.q is None or self.t < 2 or self.q < self.t:
                raise ValueError(f"impossible torus verdict ({self.t},{self.q})")

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    def __str__(self) -> str:
        if self.kind == "torus":
            return f"Torus({self.t},{self.q})"
        return "Unknot" if self.kind == "unknot" else "NotTorus"


NOT_TORUS = {rung: TorusVerdict("not-torus", decided_by=rung) for rung in
             ("length", "components", "factor_bound")}
UNKNOT_VERDICT = TorusVerdict("unknot", decided_by="unknot")


def _garside_verdict(nv: LorenzVector, t: int, q: int) -> TorusVerdict:
    """The fold of X^t within 2(q-t) factors, for a normalized vector whose
    minimal word has t strands and (t-1)q letters."""
    x = _product(_cut(t, minimal_braid_word(nv).letters[t * (t - 1):]))
    if _product(x * t, 2 * (q - t)) is None:
        return NOT_TORUS["factor_bound"]
    return TorusVerdict("torus", t, q)


def _verdict(rep: InvariantReport) -> TorusVerdict:
    """The torus verdict of the link whose invariant report is rep."""
    nv = rep.vector
    if nv is None:
        return UNKNOT_VERDICT
    t, length = rep.trip, rep.min_crossing_number
    if length % (t - 1):
        return NOT_TORUS["length"]
    q = length // (t - 1)
    if rep.components != gcd(t, q):
        return NOT_TORUS["components"]
    reduced = torus_simplify_all(vector_to_tparams(nv))
    if reduced.k == 1:
        r, s = reduced.pairs[0]
        return TorusVerdict("torus", min(r, s), max(r, s), decided_by="tparams")
    return _garside_verdict(nv, t, q)


def is_torus(v: LorenzVector) -> TorusVerdict:
    """Decide torus-ness of the closure; the input is normalized first."""
    return _verdict(invariant_report(v))
