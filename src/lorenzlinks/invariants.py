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
reduced Burau matrix of any positive word with knot closure, divided exactly
by 1 + t + ... + t^(n-1).  Both are defined up to units +-t^j only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .braid import BraidWord, cycle_count
from .errors import UnsupportedInput
from .laurent import LaurentPoly, geometric, normalize_units, poly_equal_up_to_units
from .lorenz import (
    UNKNOT,
    LorenzVector,
    _milestone_sizes,
    format_vector,
    lorenz_permutation,
    normalize,
)

__all__ = [
    "InvariantReport",
    "invariant_report",
    "morton_alexander",
    "burau_alexander",
    "normalize_units",
    "poly_equal_up_to_units",
]


@dataclass(frozen=True)
class InvariantReport:
    """Invariants of one Lorenz link, all derived from its normalized vector."""

    vector: Optional[LorenzVector]  # None for the unknot
    components: int
    genus: int
    unknotting_number: int
    trip: Optional[int]
    c_minus_n: int
    crossings: dict[str, int]
    braid_indices: dict[str, int]
    min_crossing_number: int
    degree_prediction: int  # max deg Alexander = 2 * min deg Jones = c - n + 1
    t_braid_crossing_bound: int  # 4g + 2*mu - 2 bounds the T-braid crossings

    @property
    def is_unknot(self) -> bool:
        return self.vector is None

    @property
    def bound_holds(self) -> bool:
        return self.crossings.get("t", 0) <= self.t_braid_crossing_bound

    def to_dict(self) -> dict:
        return {
            "vector": None if self.vector is None else format_vector(self.vector),
            "components": self.components,
            "genus": self.genus,
            "unknotting_number": self.unknotting_number,
            "trip": self.trip,
            "c_minus_n": self.c_minus_n,
            "crossings": dict(self.crossings),
            "braid_indices": dict(self.braid_indices),
            "min_crossing_number": self.min_crossing_number,
            "degree_prediction": self.degree_prediction,
            "t_braid_crossing_bound": self.t_braid_crossing_bound,
            "bound_holds": self.bound_holds,
        }


_UNKNOT_REPORT = InvariantReport(
    vector=None,
    components=1,
    genus=0,
    unknotting_number=0,
    trip=None,
    c_minus_n=-1,  # one strand, no crossings
    crossings={},
    braid_indices={},
    min_crossing_number=0,
    degree_prediction=0,
    t_braid_crossing_bound=0,
)


def invariant_report(v: LorenzVector) -> InvariantReport:
    """Full invariant report of the normalized input, from closed forms."""
    nv = normalize(v)
    if nv is UNKNOT:
        return _UNKNOT_REPORT
    mu = cycle_count(lorenz_permutation(nv))
    crossings, braid_indices = _milestone_sizes(nv)
    cmn = crossings["lorenz"] - braid_indices["lorenz"]
    twice_genus = cmn + 2 - mu
    if twice_genus < 0 or twice_genus % 2:
        raise AssertionError(f"genus formula broke on {format_vector(nv)}")
    genus = twice_genus // 2
    return InvariantReport(
        vector=nv,
        components=mu,
        genus=genus,
        unknotting_number=genus + mu - 1,
        trip=braid_indices["minimal"],
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

    The division is always exact; a remainder signals an implementation bug.
    """
    if m < 1:
        raise ValueError("need at least one full twist (m >= 1)")
    if p < 2 or q < 2:
        raise ValueError("torus parameters must be at least 2")
    if math.gcd(p, q) != 1:
        raise UnsupportedInput(f"gcd({p},{q}) != 1: formula needs a knot base")
    u = (-pow(q, -1, p)) % p
    v = pow(p, -1, q)
    a, b = p * v, (p - u) * q
    one = LaurentPoly.one()
    t = LaurentPoly.t_power(1)
    even = LaurentPoly.from_dict({2 * j: 1 for j in range(m)})
    inner = (
        one
        - (one - t) * even * (LaurentPoly.t_power(a) + LaurentPoly.t_power(b))
        - LaurentPoly.t_power(p * q + 2 * m)
    )
    num = (one - t) * inner
    den = (LaurentPoly.t_power(p) - one) * (LaurentPoly.t_power(q) - one)
    return normalize_units(num.exact_div(den))


def _burau_matrix(w: BraidWord) -> list[list[LaurentPoly]]:
    """Reduced Burau matrix of a positive word, as a list of columns."""
    n = w.strands
    k = n - 1
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    t = LaurentPoly.t_power(1)
    neg_t = -t
    cols = [[one if r == c else zero for r in range(k)] for c in range(k)]
    # sigma_i differs from the identity only in row i:
    #   entry t at column i-1, -t at column i, 1 at column i+1.
    # Right multiplication therefore touches at most three columns.
    for i in w.letters:
        col_i = cols[i - 1]
        if i >= 2:
            cols[i - 2] = [a + t * b for a, b in zip(cols[i - 2], col_i)]
        if i <= k - 1:
            cols[i] = [a + b for a, b in zip(cols[i], col_i)]
        cols[i - 1] = [neg_t * b for b in col_i]
    return cols


def _determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Bareiss fraction-free determinant; every division is exact."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    sign = 1
    prev = LaurentPoly.one()
    zero = LaurentPoly.zero()
    for k in range(n - 1):
        if rows[k][k].is_zero():
            pivot = next(
                (i for i in range(k + 1, n) if not rows[i][k].is_zero()), None
            )
            if pivot is None:
                return zero
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][k] = zero
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


def burau_alexander(
    w: BraidWord, *, max_strands: int = 10, max_letters: int = 60
) -> LaurentPoly:
    """
    Alexander polynomial of the closure of w, up to units, via the reduced
    Burau determinant: det(rho(w) - I) divided by 1 + t + ... + t^(n-1).

    Only knot closures are supported (one cycle), and input size is capped by
    default since the determinant cost grows quickly.
    """
    n = w.strands
    if n > max_strands or len(w) > max_letters:
        raise UnsupportedInput(
            f"word too large for the Burau oracle ({n} strands, {len(w)} letters)"
        )
    if cycle_count(w.permutation()) != 1:
        raise UnsupportedInput("closure is not a knot")
    if n == 1:
        return LaurentPoly.one()
    cols = _burau_matrix(w)
    one = LaurentPoly.one()
    rows = [
        [cols[c][r] - (one if r == c else LaurentPoly.zero()) for c in range(n - 1)]
        for r in range(n - 1)
    ]
    det = _determinant(rows)
    return normalize_units(det.exact_div(geometric(n)))
