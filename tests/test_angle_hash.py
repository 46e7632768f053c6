"""``Angle`` hashes its reduced fraction, consistently with ``==``."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bellsim import Angle  # noqa: E402


@hypothesis.given(n=st.integers(-10**6, 10**6), d=st.integers(1, 10**6), k=st.integers(1, 10**4))
def test_equal_angles_hash_equal(n, d, k):
    a = Angle.of(n, d)
    scaled = Angle(Fraction(n * k, d * k))
    parsed = Angle.parse(str(a))
    assert scaled == a and parsed == a
    assert hash(scaled) == hash(a) == hash(parsed)
    table = {a: "a"}
    assert table[scaled] == table[parsed] == "a"


def test_zero_angle_and_integer_zero_stay_two_keys():
    assert len({Angle.of(0): 1, 0: 2}) == 2
