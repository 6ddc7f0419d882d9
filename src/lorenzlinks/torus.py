"""
Deciding whether a Lorenz link is a torus link.

A torus link with braid index t is the closure of [1,t]^q for some q >= t,
and any t-braid closing to it is conjugate to [1,t]^q.  Positivity fixes q:
the minimal word M and [1,t]^q must have equal letter length, so q must be
|M| / (t-1).  Conjugacy is then reduced to the word problem: delta = [1,t]
is periodic, periodic braids have unique roots, and delta^(tq) is central,
so M is conjugate to delta^q exactly when M^t = delta^(tq) = Delta^(2q).
|M| and t have closed forms in the vector.  Two cheap rungs come before the
full power:

- components: delta^q permutes the strands as the q-th power of a t-cycle,
  so T(t, q) has gcd(t, q) components, counted here without a word.
- factor bound: if M^t = Delta^(2q), every prefix of the fold of M's factors
  left-divides Delta^(2q), so it has at most 2q left-greedy factors.

A fold within 2q factors has the 2q |Delta| letters of M^t, so it is the 2q
half twists; the final comparison is the Garside verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .braid import cycle_count
from .garside import _power_within, normal_form
from .lorenz import (UNKNOT, LorenzVector, _milestone_sizes, lorenz_permutation,
                     minimal_braid_word, normalize)


@dataclass(frozen=True)
class TorusVerdict:
    """Torus(t, q) for the link T(t, q), or NotTorus, or Unknot, with the
    rung of is_torus that decided it; the rung takes no part in equality."""

    kind: str  # "torus" | "not-torus" | "unknot"
    t: Optional[int] = None
    q: Optional[int] = None
    # "unknot" | "length" | "q_lt_t" | "components" | "factor_bound" | "garside"
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
             ("length", "q_lt_t", "components", "factor_bound", "garside")}
UNKNOT_VERDICT = TorusVerdict("unknot", decided_by="unknot")


def is_torus(v: LorenzVector) -> TorusVerdict:
    """Decide torus-ness of the closure; the input is normalized first."""
    nv = normalize(v)
    if nv is UNKNOT:
        return UNKNOT_VERDICT
    crossings, strands = _milestone_sizes(nv)
    t, length = strands["minimal"], crossings["minimal"]
    if length % (t - 1):
        return NOT_TORUS["length"]
    q = length // (t - 1)
    if q < t:
        # Torus links of braid index t need q >= t full passes.
        return NOT_TORUS["q_lt_t"]
    if cycle_count(lorenz_permutation(nv)) != gcd(t, q):
        return NOT_TORUS["components"]
    factors = [f.image for f in normal_form(minimal_braid_word(nv)).factors]
    power = _power_within(factors, t, 2 * q)
    if power is None:
        return NOT_TORUS["factor_bound"]
    if power == [tuple(range(t, 0, -1))] * (2 * q):
        return TorusVerdict("torus", t, q)
    return NOT_TORUS["garside"]
