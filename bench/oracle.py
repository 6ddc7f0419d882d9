"""
Computations made apart from lorenzlinks, which the benchmark checks the
program's outputs against.

Vectors are plain tuples of displacements and polynomials are dense lists of
integer coefficients, lowest degree first.  Nothing here imports the program.
"""

from __future__ import annotations

import math
import re

_TERM = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse(text: str) -> tuple[int, ...]:
    """The sorted displacements of "r^s,..." text."""
    d: list[int] = []
    for term in text.split(","):
        m = _TERM.match(term.strip())
        if not m:
            raise ValueError(f"bad vector term {term!r}")
        d += [int(m.group(1))] * int(m.group(2) or 1)
    return tuple(sorted(d))


def pairs(d: tuple[int, ...]) -> list[tuple[int, int]]:
    """Run-length pairs (r, s) with r increasing."""
    out: list[tuple[int, int]] = []
    for x in d:
        if out and out[-1][0] == x:
            out[-1] = (x, out[-1][1] + 1)
        else:
            out.append((x, 1))
    return out


def text(d: tuple[int, ...]) -> str:
    return ",".join(f"{r}^{s}" if s > 1 else str(r) for r, s in pairs(d))


def normalized(d: tuple[int, ...]) -> tuple[int, ...] | None:
    """
    Destabilize: drop a leading 1, or lower d_p while d_{p-1} < d_p.  Each
    move removes one crossing and one strand.  None stands for the unknot.
    """
    v = list(d)
    while v:
        if v[0] == 1:
            v.pop(0)
        elif len(v) >= 2 and v[-2] < v[-1]:
            v[-1] -= 1
        else:
            break
    return tuple(v) if len(v) >= 2 else None


def components(d: tuple[int, ...]) -> int:
    """Cycles of i -> i + d_i, the free starts going to the free ends in order."""
    p, n = len(d), len(d) + d[-1]
    image = [0] * (n + 1)
    for i, di in enumerate(d, start=1):
        image[i] = i + di
    free = sorted(set(range(1, n + 1)) - set(image[1:p + 1]))
    for start, end in zip(range(p + 1, n + 1), free):
        image[start] = end
    seen = [False] * (n + 1)
    cycles = 0
    for a in range(1, n + 1):
        if not seen[a]:
            cycles += 1
            while not seen[a]:
                seen[a] = True
                a = image[a]
    return cycles


def trip(d: tuple[int, ...]) -> int:
    """t = #{i : i + d_i > p}."""
    return sum(1 for i, di in enumerate(d, start=1) if i + di > len(d))


def dual(d: tuple[int, ...]) -> tuple[int, ...]:
    """rbar_j = s_k + ... + s_{k-j+1} repeated r_{k-j+1} - r_{k-j} times."""
    rs = [0] + [r for r, _ in pairs(d)]
    ss = [s for _, s in pairs(d)]
    k = len(ss)
    out: list[int] = []
    for j in range(1, k + 1):
        out += [sum(ss[k - j:])] * (rs[k - j + 1] - rs[k - j])
    return tuple(out)


def tbraid_letters(d: tuple[int, ...]) -> int:
    return sum(s * (r - 1) for r, s in pairs(d))


def minimal_letters(d: tuple[int, ...]) -> int:
    """Letters of the minimal braid word of a normalized vector: S + t - p - d_p."""
    return sum(d) + trip(d) - len(d) - d[-1]


def closed_forms(d: tuple[int, ...]) -> dict:
    """
    The invariant report of a normalized vector, from closed forms in the
    vector and the Euler-characteristic identity 2g = c - n + 2 - mu.
    """
    p, dp, total = len(d), d[-1], sum(d)
    t = trip(d)
    mu = components(d)
    cmn = total - p - dp
    genus = (cmn + 2 - mu) // 2
    minimal = minimal_letters(d)
    crossings = {
        "lorenz": total,
        "t": tbraid_letters(d),
        "t_dual": tbraid_letters(dual(d)),
        "minimal": minimal,
    }
    bound = 4 * genus + 2 * mu - 2
    return {
        "vector": text(d),
        "components": mu,
        "genus": genus,
        "unknotting_number": genus + mu - 1,
        "trip": t,
        "c_minus_n": cmn,
        "crossings": crossings,
        "braid_indices": {"lorenz": p + dp, "t": dp, "t_dual": p, "minimal": t},
        "min_crossing_number": minimal,
        "degree_prediction": cmn + 1,
        "t_braid_crossing_bound": bound,
        "bound_holds": crossings["t"] <= bound,
    }


def torus_rung(d: tuple[int, ...]) -> str:
    """The rung of is_torus that decides a normalized vector: its minimal
    word has t strands and S + t - p - d_p letters."""
    t, letters = trip(d), minimal_letters(d)
    if letters % (t - 1):
        return "length"
    if letters // (t - 1) < t:
        return "q_lt_t"
    return "garside"


# Polynomials: dense integer coefficient lists, lowest degree first.

def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient; raises ArithmeticError on a remainder.  b is monic up to sign."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact division")
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact division")
    return q


def monomial(e: int, c: int = 1) -> list[int]:
    return [0] * e + [c]


def units_normal(coeffs: list[int]) -> list[int]:
    """Strip zero ends and make the lowest coefficient positive."""
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    out = coeffs[lo:hi + 1]
    return out if out[0] > 0 else [-c for c in out]


def from_terms(terms) -> list[int]:
    """Dense coefficients of (exponent, coefficient) pairs, shifted to degree 0."""
    terms = [(int(e), int(c)) for e, c in terms]
    if not terms:
        return [0]
    lo = min(e for e, _ in terms)
    out = [0] * (max(e for e, _ in terms) - lo + 1)
    for e, c in terms:
        out[e - lo] += c
    return out


def torus_poly(t: int, q: int) -> list[int]:
    """(x^tq - 1)(x - 1) / ((x^t - 1)(x^q - 1)), the Alexander polynomial of T(t, q)."""
    num = poly_mul(poly_add(monomial(t * q), [-1]), [-1, 1])
    den = poly_mul(poly_add(monomial(t), [-1]), poly_add(monomial(q), [-1]))
    return units_normal(poly_div(num, den))


def morton_poly(m: int, p: int, q: int) -> list[int]:
    """
    Morton's formula for <2^2m, p^q>, gcd(p, q) = 1: with u q = -1 mod p,
    p v = 1 mod q, a = p v and b = (p - u) q,
    (1-t)(1 - (1-t)(1 + t^2 + ... + t^(2m-2))(t^a + t^b) - t^(pq+2m))
    divided by (t^p - 1)(t^q - 1).
    """
    u = (-pow(q, -1, p)) % p
    v = pow(p, -1, q)
    a, b = p * v, (p - u) * q
    even = [1 if e % 2 == 0 else 0 for e in range(2 * m - 1)]
    one_minus_t = [1, -1]
    middle = poly_mul(poly_mul(one_minus_t, even), poly_add(monomial(a), monomial(b)))
    inner = poly_add(poly_add([1], [-c for c in middle]), monomial(p * q + 2 * m, -1))
    num = poly_mul(one_minus_t, inner)
    den = poly_mul(poly_add(monomial(p), [-1]), poly_add(monomial(q), [-1]))
    return units_normal(poly_div(num, den))


def morton_params(d: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(m, p, q) when d is <2^2m, p^q> with gcd(p, q) = 1, else None."""
    runs = pairs(d)
    if len(runs) == 2 and runs[0][0] == 2 and runs[0][1] % 2 == 0:
        (_, twice_m), (p, q) = runs
        if math.gcd(p, q) == 1:
            return twice_m // 2, p, q
    return None


def proven_not_torus(d: tuple[int, ...]) -> bool:
    """
    Whether the knot of a normalized vector is shown not to be a torus knot
    without Garside.  Its minimal word has t strands and L letters; it can
    only be T(t, q) with q = L / (t-1) >= t, gcd(t, q) = 1 and the same
    Alexander polynomial, which Morton's formula gives for its family.
    """
    if components(d) != 1:
        return False
    t, letters = trip(d), minimal_letters(d)
    if letters % (t - 1):
        return True
    q = letters // (t - 1)
    if q < t or math.gcd(t, q) > 1:
        return True
    morton = morton_params(d)
    return morton is not None and morton_poly(*morton) != torus_poly(t, q)
