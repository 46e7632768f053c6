"""Measurement angles as exact rational multiples of pi.

Device settings are discrete propositions: two settings are either the same
proposition or different ones, so their comparison must never go through
float rounding.  Storing the fraction of pi keeps equality exact; the float
value only appears when a cosine is actually evaluated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

_ANGLE_RE = re.compile(r"^(-?)(\d+)?(?:pi|π)(?:/(\d+))?$")


@dataclass(frozen=True, order=True)
class Angle:
    """An angle equal to ``fraction * pi`` radians."""

    fraction: Fraction

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "Angle":
        return cls(Fraction(numerator, denominator))

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse ``"0"``, ``"pi/4"``, ``"-pi/4"``, ``"3pi/4"``, ``"2pi"`` etc."""
        s = text.strip().replace(" ", "")
        if s in ("0", "-0"):
            return cls(Fraction(0))
        m = _ANGLE_RE.match(s)
        if not m:
            raise ValueError(f"not an angle: {text!r} (expected e.g. '0', 'pi/4', '-3pi/4')")
        sign = -1 if m.group(1) else 1
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise ValueError(f"not an angle: {text!r} (zero denominator)")
        return cls(Fraction(sign * num, den))

    def __hash__(self) -> int:
        # Fraction.__hash__ takes a modular inverse on every call; a Fraction
        # is kept in lowest terms, so equal angles have equal (n, d) pairs.
        return hash((self.fraction.numerator, self.fraction.denominator))

    @property
    def radians(self) -> float:
        return float(self.fraction) * math.pi

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.fraction - other.fraction)

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.fraction + other.fraction)

    def __neg__(self) -> "Angle":
        return Angle(-self.fraction)

    def __str__(self) -> str:
        n, d = self.fraction.numerator, self.fraction.denominator
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
        return "0pi" if value.fraction == 0 else str(value)
    return str(int(value))


def setting_from_text(text: str):
    """Inverse of :func:`setting_text`."""
    s = text.strip()
    try:
        return int(s)
    except ValueError:
        return Angle.parse(s)
