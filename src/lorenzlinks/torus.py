"""
Deciding whether a Lorenz link is a torus link.

A torus link with braid index t is the closure of [1,t]^q for some q >= t,
and any t-braid closing to it is conjugate to [1,t]^q.  Positivity fixes q:
the minimal word M and [1,t]^q must have equal letter length, so q must be
|M| / (t-1).  Conjugacy is then reduced to the word problem: delta = [1,t]
is periodic, periodic braids have unique roots, and delta^(tq) is central,
so M is conjugate to delta^q exactly when M^t and delta^(tq) are the same
element.  The power is taken factor-wise through the normal-form engine.
|M| and t have closed forms in the vector, so M is built only for a vector
that passes both length rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .garside import central_power, nf_power, normal_form
from .lorenz import UNKNOT, LorenzVector, _milestone_sizes, minimal_braid_word, normalize


@dataclass(frozen=True)
class TorusVerdict:
    """Torus(t, q) for the link T(t, q), or NotTorus, or Unknot."""

    kind: str  # "torus" | "not-torus" | "unknot"
    t: Optional[int] = None
    q: Optional[int] = None

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


NOT_TORUS = TorusVerdict("not-torus")
UNKNOT_VERDICT = TorusVerdict("unknot")


def is_torus(v: LorenzVector) -> TorusVerdict:
    """Decide torus-ness of the closure; the input is normalized first."""
    nv = normalize(v)
    if nv is UNKNOT:
        return UNKNOT_VERDICT
    crossings, strands = _milestone_sizes(nv)
    t, length = strands["minimal"], crossings["minimal"]
    if length % (t - 1):
        return NOT_TORUS
    q = length // (t - 1)
    if q < t:
        # Torus links of braid index t need q >= t full passes.
        return NOT_TORUS
    if nf_power(normal_form(minimal_braid_word(nv)), t) == central_power(t, q):
        return TorusVerdict("torus", t, q)
    return NOT_TORUS
