"""Exact rational arithmetic helpers.

Everything geometric in this package compares squared distances against
squared radii so that membership, disjointness and containment are decided
without floating point.  The helpers here convert rational thresholds into
integer bounds usable against integer-scaled distance arrays, and produce
certified rational bounds for square roots where a plain rational answer
does not exist (euclidean metric in dimension >= 2).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_INT64_MAX = 2**63 - 1


class InputError(ValueError):
    """Malformed, out-of-range or unusable input (CLI exit code 2)."""


class ResourceError(InputError):
    """A configured resource cap (point count, search cap) was exceeded."""


class CheckFailure(Exception):
    """A mathematical precondition or check failed; carries a witness."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


def parse_rational(text: object) -> Fraction:
    """Parse "p/q" or "p" (or an int) into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        s = text.strip()
        try:
            if "/" in s:
                num, den = s.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {text!r}") from exc
    raise InputError(f"not a rational: {text!r}")


def format_rational(x: Fraction) -> str:
    """Serialize a Fraction as "p/q" (bit-exact, canonical)."""
    return f"{x.numerator}/{x.denominator}"


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def int_lt_bound(x: Fraction) -> int:
    """Largest integer n with n < x."""
    return ceil_frac(x) - 1


def int_le_bound(x: Fraction) -> int:
    """Largest integer n with n <= x."""
    return floor_frac(x)


def clamp_int64(n: int) -> int:
    """Clamp a python int into the int64 range for numpy comparisons."""
    if n > _INT64_MAX:
        return _INT64_MAX
    if n < -_INT64_MAX:
        return -_INT64_MAX
    return n


def sqrt_bounds(x: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= tol (x >= 0, tol > 0)."""
    if x < 0:
        raise InputError("sqrt of negative rational")
    if tol <= 0:
        raise InputError("sqrt tolerance must be positive")
    if x == 0:
        return Fraction(0), Fraction(0)
    a, b = x.numerator, x.denominator
    # sqrt(a/b) = sqrt(a*b)/b; refine by powers of two until within tol
    shift = 0
    while True:
        n = isqrt(a * b << (2 * shift))
        lo = Fraction(n, b << shift)
        hi = Fraction(n + 1, b << shift)
        if hi - lo <= tol:
            return lo, hi
        shift += max(8, shift)


def sqrt_lower(x: Fraction, tol: Fraction) -> Fraction:
    return sqrt_bounds(x, tol)[0]


def sqrt_upper(x: Fraction, tol: Fraction) -> Fraction:
    return sqrt_bounds(x, tol)[1]


def exact_sqrt(x: Fraction) -> Fraction | None:
    """sqrt(x) if it is rational, else None."""
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None
