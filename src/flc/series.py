"""Truncated formal power series in t with polynomial coefficients.

A TruncSeries holds coefficients of t^0 .. t^cap; everything above the
cap is discarded.  All binary operations require equal caps — callers
build a fresh family of series at the cap they need (one extraction, one
cap) rather than resizing on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .polyring import ONE, ZERO, Poly

__all__ = [
    "TruncSeries",
    "CapMismatch",
    "IndexOutOfRange",
    "series_one",
    "series_from_polys",
    "series_linear",
    "series_geometric",
    "series_add",
    "series_sub",
    "series_mul",
    "series_coeff",
]


class CapMismatch(ValueError):
    """Two series with different caps were combined."""


class IndexOutOfRange(IndexError):
    """series_coeff asked for a power outside 0..cap."""


@dataclass(frozen=True)
class TruncSeries:
    cap: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise ValueError("cap must be >= 0")
        if len(self.coeffs) != self.cap + 1:
            raise ValueError("need exactly cap+1 coefficients")


def _check_caps(s: TruncSeries, u: TruncSeries) -> None:
    if s.cap != u.cap:
        raise CapMismatch(f"caps differ: {s.cap} != {u.cap}")


def series_one(cap: int) -> TruncSeries:
    return TruncSeries(cap, (ONE,) + (ZERO,) * cap)


def series_from_polys(cap: int, coeffs: Sequence[Poly]) -> TruncSeries:
    """Series with the given low-order coefficients, zero-padded to the cap."""
    padded = list(coeffs[: cap + 1])
    padded.extend([ZERO] * (cap + 1 - len(padded)))
    return TruncSeries(cap, tuple(padded))


def series_linear(p: Poly, cap: int) -> TruncSeries:
    """The polynomial series 1 + t*p."""
    return series_from_polys(cap, [ONE, p])


def series_geometric(p: Poly, cap: int) -> TruncSeries:
    """The geometric series 1/(1 - t*p) = 1 + t*p + t^2*p^2 + ..."""
    coeffs = [ONE]
    for _ in range(cap):
        coeffs.append(coeffs[-1] * p)
    return TruncSeries(cap, tuple(coeffs))


def series_add(s: TruncSeries, u: TruncSeries) -> TruncSeries:
    _check_caps(s, u)
    return TruncSeries(s.cap, tuple(a + b for a, b in zip(s.coeffs, u.coeffs)))


def series_sub(s: TruncSeries, u: TruncSeries) -> TruncSeries:
    _check_caps(s, u)
    return TruncSeries(s.cap, tuple(a - b for a, b in zip(s.coeffs, u.coeffs)))


def series_mul(s: TruncSeries, u: TruncSeries) -> TruncSeries:
    _check_caps(s, u)
    cap = s.cap
    out = [ZERO] * (cap + 1)
    for i, a in enumerate(s.coeffs):
        if not a:
            continue
        for j in range(cap + 1 - i):
            b = u.coeffs[j]
            if b:
                out[i + j] = out[i + j] + a * b
    return TruncSeries(cap, tuple(out))


def series_coeff(s: TruncSeries, m: int) -> Poly:
    """The coefficient of t^m."""
    if m < 0 or m > s.cap:
        raise IndexOutOfRange(f"power {m} outside 0..{s.cap}")
    return s.coeffs[m]
