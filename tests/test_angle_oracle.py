"""``Angle`` against ``fractions.Fraction`` as an oracle.

``Angle`` keeps its own reduced (numerator, denominator) pair; every
comparison, sum, difference, negation, text round trip, hash and radian value
must be what the same fraction of pi gives through ``Fraction``.
"""

import math
import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim import Angle  # noqa: E402

numerators = st.integers(-10**9, 10**9)
denominators = st.integers(-10**6, 10**6).filter(bool)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def pair(x) -> tuple:
    return x.numerator, x.denominator


def text_of(f: Fraction) -> str:
    """``f`` of pi as bellsim writes it: ``0``, ``pi``, ``-pi/4``, ``3pi/4``, ``2pi`` and so on."""
    if f == 0:
        return "0"
    n = abs(f.numerator)
    head = ("-" if f < 0 else "") + ("" if n == 1 else str(n)) + "pi"
    return head if f.denominator == 1 else f"{head}/{f.denominator}"


@hypothesis.given(n=numerators, d=denominators)
def test_an_angle_is_its_reduced_fraction(n, d):
    f, a = Fraction(n, d), Angle.of(n, d)
    assert pair(a) == pair(f) and a.denominator > 0
    assert Angle(f) == a and pair(Angle(f)) == pair(f)
    assert hash(a) == hash(pair(f))
    assert -a == Angle(-f) and pair(-a) == pair(-f)
    assert a.radians.hex() == (float(f) * math.pi).hex()
    assert str(a) == text_of(f)
    assert Angle.parse(str(a)) == a and str(Angle.parse(str(a))) == str(a)


@hypothesis.given(n1=numerators, d1=denominators, n2=numerators, d2=denominators)
def test_angle_arithmetic_and_order_follow_fraction(n1, d1, n2, d2):
    fa, fb = Fraction(n1, d1), Fraction(n2, d2)
    a, b = Angle.of(n1, d1), Angle.of(n2, d2)
    assert pair(a + b) == pair(fa + fb)
    assert pair(a - b) == pair(fa - fb)
    assert (a - b).radians.hex() == (float(fa - fb) * math.pi).hex()
    for op in ORDER:
        assert op(a, b) == op(fa, fb), op
    if a == b:
        assert hash(a) == hash(b)


@hypothesis.given(n=numerators, d=denominators, k=st.integers(-10**4, 10**4).filter(bool))
def test_equal_fractions_are_one_dict_key(n, d, k):
    table = {Angle.of(n, d): "a"}
    assert table[Angle.of(n * k, d * k)] == table[Angle(Fraction(n, d))] == "a"


def test_zero_angle_and_integer_zero_are_two_keys_and_never_equal():
    zero = Angle.of(0)
    assert len({zero: 1, 0: 2}) == 2
    assert zero != 0 and not zero == 0 and 0 != zero
    with pytest.raises(TypeError):
        zero < 0  # noqa: B015
    with pytest.raises(ZeroDivisionError):
        Angle.of(1, 0)
