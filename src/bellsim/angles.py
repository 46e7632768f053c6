"""Measurement angles as exact rational multiples of pi.

Device settings are discrete propositions: two settings are either the same
proposition or different ones, so their comparison must never go through
float rounding.  Storing the fraction of pi keeps equality exact; the float
value only appears when a cosine is actually evaluated.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering

_ANGLE_RE = re.compile(r"^(-?)(\d+)?(?:pi|π)(?:/(\d+))?$")


@total_ordering
class Angle:
    """``value / denominator`` of pi radians, for an int ``value`` or any with ``numerator`` and ``denominator``.

    The pair is kept in lowest terms with a positive denominator, as a
    ``Fraction`` keeps it, so equal angles have equal pairs.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, value, denominator: int = 1):
        n, d = value.numerator, value.denominator * denominator
        if not d:
            raise ZeroDivisionError(f"Angle({n}, 0)")
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
        self.numerator, self.denominator = n // g, d // g

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "Angle":
        return cls(numerator, denominator)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse ``"0"``, ``"pi/4"``, ``"-pi/4"``, ``"3pi/4"``, ``"2pi"`` etc.

        The multiple of pi must be below 2**53 in size, so that the radians of
        a parsed angle, and of the difference of two, are finite floats.
        """
        s = text.strip().replace(" ", "")
        if s in ("0", "-0"):
            return cls(0)
        m = _ANGLE_RE.match(s)
        if not m:
            raise ValueError(f"not an angle: {text!r} (expected e.g. '0', 'pi/4', '-3pi/4')")
        sign = -1 if m.group(1) else 1
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise ValueError(f"not an angle: {text!r} (zero denominator)")
        if num >= den * 2**53:
            raise ValueError(f"not an angle: {text!r} (its multiple of pi must be below 2**53 in size)")
        return cls(sign * num, den)

    def __eq__(self, other) -> bool:
        if type(other) is not Angle:
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __lt__(self, other) -> bool:
        if type(other) is not Angle:
            return NotImplemented
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    @property
    def radians(self) -> float:
        # int / int is correctly rounded, as float(Fraction(n, d)) is
        return self.numerator / self.denominator * math.pi

    def __sub__(self, other: "Angle") -> "Angle":
        return self + -other

    def __add__(self, other: "Angle") -> "Angle":
        n, d = self.numerator, self.denominator
        return Angle(n * other.denominator + other.numerator * d, d * other.denominator)

    def __neg__(self) -> "Angle":
        return Angle(-self.numerator, self.denominator)

    def __repr__(self) -> str:
        return f"Angle({self.numerator}, {self.denominator})"

    def __str__(self) -> str:
        n, d = self.numerator, self.denominator
        if n == 0:
            return "0"
        sign = "-" if n < 0 else ""
        n = abs(n)
        head = "pi" if n == 1 else f"{n}pi"
        return f"{sign}{head}" if d == 1 else f"{sign}{head}/{d}"


def cos_between(a: Angle, b: Angle) -> float:
    """cos of the angle difference, exact at multiples of pi."""
    return math.cos((a - b).radians)


def setting_text(value) -> str:
    """Serialize a setting value (an Angle or a plain integer label).

    The zero angle becomes ``"0pi"`` so it never collides with the integer
    label ``0`` on the way back in.
    """
    if isinstance(value, Angle):
        return "0pi" if value.numerator == 0 else str(value)
    return str(int(value))


def setting_from_text(text: str):
    """Inverse of :func:`setting_text`."""
    s = text.strip()
    try:
        return int(s)
    except ValueError:
        return Angle.parse(s)
