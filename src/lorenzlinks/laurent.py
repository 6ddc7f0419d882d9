"""
Integer Laurent polynomials in one variable t, with exact arithmetic.

Alexander polynomials are only defined up to multiplication by units +-t^j,
so alongside ring arithmetic this module provides unit normalisation (shift
the lowest exponent to 0 and make the lowest coefficient positive) and the
induced equality test.  Division is exact integer polynomial division and
raises if a remainder appears, since every division performed by the package
is exact whenever the implementation is correct.
"""

from __future__ import annotations

from typing import Mapping

from .errors import _Value


class LaurentPoly(_Value):
    """Sorted (exponent, coefficient) pairs, zero coefficients never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()) -> None:
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, int]) -> "LaurentPoly":
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(((0, 1),))

    @classmethod
    def t_power(cls, e: int, c: int = 1) -> "LaurentPoly":
        return cls.from_dict({e: c})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_degree(self) -> int:
        if self.is_zero():
            raise ValueError("the zero polynomial has no degree")
        return self.terms[0][0]

    @property
    def max_degree(self) -> int:
        if self.is_zero():
            raise ValueError("the zero polynomial has no degree")
        return self.terms[-1][0]

    @property
    def span(self) -> int:
        return self.max_degree - self.min_degree

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs = dict(self.terms)
        for e, c in other.terms:
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly.from_dict(coeffs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        coeffs: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(coeffs)

    def shifted(self, e: int) -> "LaurentPoly":
        """Multiply by t^e."""
        return LaurentPoly(tuple((exp + e, c) for exp, c in self.terms))

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """
        Exact quotient self / other over the integers.

        Raises ArithmeticError when the division is not exact; that signals a
        bug in the caller, never a property of valid inputs.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        shift = self.min_degree - other.min_degree
        num = self._dense()
        den = other._dense()
        if len(num) < len(den):
            raise ArithmeticError("inexact polynomial division")
        quot = [0] * (len(num) - len(den) + 1)
        for i in range(len(quot) - 1, -1, -1):
            lead = num[i + len(den) - 1]
            if lead % den[-1]:
                raise ArithmeticError("inexact polynomial division")
            q = lead // den[-1]
            quot[i] = q
            if q:
                for j, dc in enumerate(den):
                    num[i + j] -= q * dc
        if any(num):
            raise ArithmeticError("inexact polynomial division")
        return LaurentPoly.from_dict({e + shift: c for e, c in enumerate(quot)})

    def _dense(self) -> list[int]:
        """Coefficients with the lowest exponent shifted to 0, ascending."""
        lo = self.min_degree
        out = [0] * (self.max_degree - lo + 1)
        for e, c in self.terms:
            out[e - lo] = c
        return out

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def normalize_units(a: LaurentPoly) -> LaurentPoly:
    """Shift the lowest exponent to 0 and make the lowest coefficient positive."""
    if a.is_zero():
        return a
    shifted = a.shifted(-a.min_degree)
    if shifted.terms[0][1] < 0:
        shifted = -shifted
    return shifted


def poly_equal_up_to_units(a: LaurentPoly, b: LaurentPoly) -> bool:
    """Equality up to multiplication by +-t^j."""
    return normalize_units(a) == normalize_units(b)

