"""Exact arithmetic over the ring Z[1/sqrt(2)].

Every amplitude produced by a phase-free ZH diagram lives in this ring.
A value is stored as (a + b*sqrt(2)) / 2**e with arbitrary-precision
integers a, b and a non-negative exponent e.  The triple is kept
canonical: a zero value is (0, 0, 0), and otherwise e is minimal, i.e.
a and b are never both even while e > 0.  Since 1 and sqrt(2) are
linearly independent over the rationals, canonical triples are unique,
so structural equality is value equality.

The ring is closed under addition and multiplication.  There is no
division; halving is done by multiplying with HALF (the star scalar).
"""

from __future__ import annotations

from .frozen import Frozen, _brief, _fields

SQRT2_FLOAT = 1.4142135623730951


class NotDyadic(ValueError):
    """Raised when a value with a sqrt(2) component is read as dyadic."""


class ExactScalar(Frozen):
    """The value (a + b*sqrt(2)) / 2**e, stored canonically."""

    __match_args__ = ("a", "b", "e")
    a: int
    b: int
    e: int

    def __init__(self, a: int, b: int, e: int = 0) -> None:
        if a == 0 and b == 0:
            e = 0
        elif e < 0:
            a <<= -e
            b <<= -e
            e = 0
        elif e > 0 and not (a | b) & 1:
            # Drop the common factors of two in one shift: the trailing
            # zeros of a | b, but never below e = 0.
            low = a | b
            shift = min((low & -low).bit_length() - 1, e)
            a >>= shift
            b >>= shift
            e -= shift
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "e", e)

    def __add__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.e, other.e)
        return ExactScalar(
            (self.a << (e - self.e)) + (other.a << (e - other.e)),
            (self.b << (e - self.e)) + (other.b << (e - other.e)),
            e,
        )

    __radd__ = __add__

    def __neg__(self) -> ExactScalar:
        return ExactScalar(-self.a, -self.b, self.e)

    def __sub__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ExactScalar | int) -> ExactScalar:
        return -(self - other)

    def __mul__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a1 + b1*r)(a2 + b2*r) with r**2 == 2
        return ExactScalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.e + other.e,
        )

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_dyadic(self) -> bool:
        """True when the value lies in Z[1/2], i.e. has no sqrt(2) part."""
        return self.b == 0

    def as_dyadic(self) -> tuple[int, int]:
        """Return (c, d) with value c / 2**d, or raise NotDyadic."""
        if self.b != 0:
            raise NotDyadic(f"{self} has a sqrt(2) component")
        return self.a, self.e

    def to_float(self) -> float:
        """Float approximation; for tests and display only."""
        return (self.a + self.b * SQRT2_FLOAT) / (2.0**self.e)

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "e": self.e}

    @classmethod
    def from_json(cls, data: dict) -> ExactScalar:
        """Read what ``to_json`` writes: ``a`` and ``b`` as ASCII decimal
        strings or JSON integers, ``e`` as a non-negative JSON integer."""
        a, b, e = _fields(data, "scalar", ("a", "b", "e"))
        if not (_decimal(a) and _decimal(b)):
            raise ValueError(f"a and b must be decimal integers, not {_brief(a)} and {_brief(b)}")
        if type(e) is not int or e < 0:  # bool is an int subclass; refuse it too
            raise ValueError(f"e must be a non-negative integer, not {_brief(e)}")
        return cls(int(a), int(b), e)

    def __str__(self) -> str:
        return f"({self.a} + {self.b}*sqrt2)/2^{self.e}"


def _decimal(value: object) -> bool:
    """True for a JSON integer or ASCII digits after an optional minus."""
    if type(value) is str:
        return value.isascii() and value.removeprefix("-").isdigit()
    return type(value) is int


def _coerce(value: ExactScalar | int) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, int):
        return ExactScalar(value, 0, 0)
    return NotImplemented


def sqrt2_pow(k: int) -> ExactScalar:
    """sqrt(2)**k for any integer k, including negative powers."""
    q, r = divmod(k, 2)
    a, b = (1, 0) if r == 0 else (0, 1)
    if q >= 0:
        return ExactScalar(a << q, b << q, 0)
    return ExactScalar(a, b, -q)


ZERO = ExactScalar(0, 0, 0)
ONE = ExactScalar(1, 0, 0)
TWO = ExactScalar(2, 0, 0)
HALF = ExactScalar(1, 0, 1)
SQRT2 = ExactScalar(0, 1, 0)
