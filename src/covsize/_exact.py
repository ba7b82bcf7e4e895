"""Exact rational plumbing shared across the package.

All statistically meaningful inputs (theta, margins, interval endpoints,
confidence levels) are carried as `fractions.Fraction`.  Binary floats are
rejected at the boundary: a float like 0.1 is really
3602879701896397/36028797018963968, and feeding that into lattice membership
tests silently moves candidate points off the lattice.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import DomainError


def exact(value: Fraction | int | str | Decimal, *, name: str = "value") -> Fraction:
    """Convert `value` to an exact Fraction.

    Accepts Fractions, ints, Decimals, and strings in either decimal
    ("0.125") or ratio ("1/8") form.  Floats are rejected so that callers
    are forced to state the number they mean.
    """
    if isinstance(value, bool):
        raise DomainError(f"{name}: expected an exact number, got a bool")
    if isinstance(value, float):
        raise DomainError(
            f"{name}: got a binary float ({value!r}); pass a string such as "
            f"'{value!r}' or a Fraction to keep arithmetic exact"
        )
    if isinstance(value, (Fraction, int)):
        return value if type(value) is Fraction else Fraction(value)
    if isinstance(value, (str, Decimal)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"{name}: cannot parse {value!r} as an exact number") from exc
    raise DomainError(f"{name}: unsupported type {type(value).__name__}")


def ratio_str(q: Fraction) -> str:
    """Serialize a Fraction as "numerator/denominator" (exact, canonical)."""
    return f"{q.numerator}/{q.denominator}"
