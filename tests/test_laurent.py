import pytest

from helpers import assert_raises
from lorenzlinks.laurent import (
    LaurentPoly,
    normalize_units,
    poly_equal_up_to_units,
)


def test_construction_drops_zeros():
    assert LaurentPoly.from_dict({0: 1, 2: 0}).terms == ((0, 1),)
    assert LaurentPoly.zero().is_zero()


def test_arithmetic():
    one = LaurentPoly.one()
    t = LaurentPoly.t_power(1)
    assert (one + t).terms == ((0, 1), (1, 1))
    assert (one - one).is_zero()
    assert ((one + t) * (one - t)).terms == ((0, 1), (2, -1))
    assert (t * t).terms == ((2, 1),)
    assert LaurentPoly.t_power(-2, 3).shifted(2).terms == ((0, 3),)


def test_exact_division():
    one = LaurentPoly.one()
    t = LaurentPoly.t_power(1)
    num = LaurentPoly.t_power(3) - one  # t^3 - 1
    den = t - one
    assert num.exact_div(den) == LaurentPoly.from_dict({0: 1, 1: 1, 2: 1})
    with pytest.raises(ArithmeticError):
        (t + one).exact_div(t - one)
    # Laurent shifts divide exactly
    assert LaurentPoly.t_power(-1).exact_div(LaurentPoly.t_power(-3)).terms == ((2, 1),)


def test_normalize_units_and_equality():
    a = LaurentPoly.from_dict({2: 1, 1: -1})  # t^2 - t
    b = LaurentPoly.from_dict({0: 1, 1: -1})  # 1 - t
    assert poly_equal_up_to_units(a, b)
    c = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
    assert poly_equal_up_to_units(c, c.shifted(5))
    assert poly_equal_up_to_units(c, -c)
    assert not poly_equal_up_to_units(
        LaurentPoly.from_dict({0: 1, 1: 1}), LaurentPoly.from_dict({0: 1, 1: -1})
    )
    assert normalize_units(a).terms == ((0, 1), (1, -1))


def test_span_and_str():
    c = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
    assert c.span == 2
    assert str(c) == "1 - t + t^2"
    assert str(LaurentPoly.from_dict({-1: 2, 3: -1})) == "2*t^-1 - t^3"
    assert str(LaurentPoly.zero()) == "0"


_ONE, _T, _ZERO = LaurentPoly.one(), LaurentPoly.t_power(1), LaurentPoly.zero()


@pytest.mark.parametrize("build, exc_type, message", [
    pytest.param(lambda: _ZERO.min_degree, ValueError,
                 "the zero polynomial has no degree", id="min-degree-of-zero"),
    pytest.param(lambda: _ZERO.max_degree, ValueError,
                 "the zero polynomial has no degree", id="max-degree-of-zero"),
    pytest.param(lambda: _ONE.exact_div(_ZERO), ZeroDivisionError,
                 "division by the zero polynomial", id="divide-by-zero"),
    pytest.param(lambda: _ONE.exact_div(_T * _T + _ONE), ArithmeticError,
                 "inexact polynomial division", id="divisor-longer"),
    pytest.param(lambda: (_T + _ONE).exact_div(_T + _T + _ONE), ArithmeticError,
                 "inexact polynomial division", id="leading-coefficient"),
    pytest.param(lambda: (_T * _T + _ONE).exact_div(_T + _ONE), ArithmeticError,
                 "inexact polynomial division", id="remainder"),
])
def test_validation_errors(build, exc_type, message):
    assert_raises(build, exc_type, message)
