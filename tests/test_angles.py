import math

import pytest

from bellsim import Angle
from bellsim.angles import setting_from_text, setting_text


def test_parse_and_str_round_trip():
    for text in ["0", "pi/4", "-pi/4", "3pi/4", "pi", "2pi", "-5pi/12"]:
        a = Angle.parse(text)
        assert str(a) == text
        assert Angle.parse(str(a)) == a


def test_parse_unicode_and_spacing():
    assert Angle.parse(" π/4 ") == Angle.of(1, 4)
    assert Angle.parse("2 pi / 3".replace(" ", "")) == Angle.of(2, 3)


def test_parse_rejects_garbage():
    for bad in ["", "pie", "pi/0", "1.5pi", "pi/4/2"]:
        with pytest.raises(ValueError):
            Angle.parse(bad)


def test_parse_bounds_the_multiple_of_pi():
    # below 2**53 in size, so the radians of an angle and of a difference of two are finite
    assert Angle.parse(f"-{2**53 - 1}pi").numerator == -(2**53 - 1)
    assert Angle.parse(f"{2**54 - 1}pi/2") == Angle.of(2**54 - 1, 2)
    for bad in [f"{2**53}pi", f"-{2**53}pi", f"{2**54}pi/2"]:
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            Angle.parse(bad)
    assert math.isfinite((Angle.parse(f"{2**53 - 1}pi") - Angle.parse(f"-{2**53 - 1}pi")).radians)


def test_exact_equality_and_arithmetic():
    assert Angle.of(2, 8) == Angle.of(1, 4)
    assert Angle.of(1, 2) - Angle.of(1, 4) == Angle.of(1, 4)
    assert -Angle.of(1, 4) == Angle.of(-1, 4)
    assert Angle.of(1, 3).radians == pytest.approx(math.pi / 3, abs=0)


def test_setting_text_handles_both_kinds():
    assert setting_text(Angle.of(1, 4)) == "pi/4"
    assert setting_text(1) == "1"
    assert setting_from_text("pi/4") == Angle.of(1, 4)
    assert setting_from_text("1") == 1


def test_zero_angle_never_collides_with_integer_zero():
    assert setting_text(Angle.of(0)) == "0pi"
    assert setting_from_text("0pi") == Angle.of(0)
    assert setting_from_text("0") == 0
