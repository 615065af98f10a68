"""Factorial complete homogeneous functions h_m for the classical families.

Each kind is defined by a generating series in t, truncated at the power
m being extracted:

    GL   prod_v 1/(1-t*v)                        over the listed variables
    SP   prod_i 1/((1-t*x_i)(1-t*xb_i))          over the listed pairs
    OO   (1+t) * SP-style product
    EO   (1-t^2) * SP-style product              (two or more pairs)
         (1/(1-t*x_1) + 1/(1-t*xb_1) - [m=0])    (exactly one pair)
    EOD  (1/(1-t*x_1) - 1/(1-t*xb_1)) * geometric factors of the rest

multiplied in every case by prod_{j=1}^{L+m-1} (1 + t*a_{j+shift}), where
L is the number of listed variables (GL) or pairs (the rest).  A shifted
a-index <= 0 stands for the zero value, so its factor degenerates to 1.

The coefficients c_0..c_m of the product are kept in one list, built
from a seed by multiplying in one factor at a time, in place:

    seed             c = 1, or 1 + t (OO), or 1 - t^2 (EO, two or more
                     pairs), or c_k = x_1^k +/- xb_1^k for the
                     distinguished EO/EOD pair (so c_0 = 2 for the
                     one-pair EO series and 0 for EOD)
    1/(1-t*v)        c_k += v*c_{k-1}      k = 1..m, ascending
    1 + t*a          c_k += a*c_{k-1}      k = m..1, descending

Ascending, c_{k-1} already holds the new coefficient, which sums the
geometric tail; descending, it still holds the old one.

The builder has two pieces.  ``_a_free_series`` is the seed and the
geometric loop, cached; ``_a_loop`` multiplies in the a-factors.  ``h``
runs the a-loop on a copy of the series, so
h_m = sum_k e_k(a_{1+shift}..a_{L+m-1+shift}) * h0_{m-k}, with h0 the
a-free coefficient; ``_elementary`` is the a-loop on the seed [1], the
e_k themselves, up to the degree its caller reads.  The Jacobi-Trudi
route takes both pieces apart (``characters.char_jacobi_trudi``).

``flc.series`` builds the same products as truncated series and is the
reference h is tested against.

Conventions: h_m = 0 for m < 0 and h_0 = 1, except the EOD kind where
h_m = 0 for all m <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .polyring import ONE, ZERO, Poly, VarId, pa, poly_reduce_inverses, poly_var, px, pxb

__all__ = ["HKind", "VarSpec", "factorial_power", "h"]


# Bound of every lru_cache here and in characters.  The default
# ``flc verify`` fills at most 223 entries of any of them (``_weyl_quotient``;
# ``h`` 140, ``_a_free_series`` 122, ``_flagged_minors`` 93), and one pass
# over a rank <= 3 grid of the ratio or division-free routes at most 114,
# so the bound only keeps a long-running process that visits many shapes
# from growing without limit.
_CACHE_SIZE = 4096


class HKind(Enum):
    GL = "gl"
    SP = "sp"
    OO = "oo"
    EO = "eo"
    EOD = "eod"


@dataclass(frozen=True)
class VarSpec:
    """Variable content for an h function.

    GL uses ``singles``: an ordered list of variable ids, any mix of x's
    and xb's (s-letters are allowed too).  The other kinds use ``pairs``:
    a list of indices i, each standing for the pair (x_i, xb_i); for EO
    and EOD the first listed pair is the distinguished one.
    """

    kind: HKind
    singles: tuple = ()
    pairs: tuple = ()
    shift: int = 0

    def __post_init__(self) -> None:
        if self.kind is HKind.GL:
            if not self.singles or self.pairs:
                raise ValueError("GL spec takes a non-empty singles list")
            for v in self.singles:
                if not isinstance(v, VarId) or v.kind == "a":
                    raise ValueError("GL variables must be letter variables")
        else:
            if not self.pairs or self.singles:
                raise ValueError(f"{self.kind.value} spec takes a non-empty pairs list")
            for i in self.pairs:
                if not isinstance(i, int) or i < 1:
                    raise ValueError("pair indices are positive ints")
            if len(set(self.pairs)) != len(self.pairs):
                raise ValueError("pair indices must be distinct")

    def width(self) -> int:
        return len(self.singles) if self.kind is HKind.GL else len(self.pairs)


@lru_cache(maxsize=_CACHE_SIZE)
def _fp_cached(base: Poly, m: int, shift: int) -> Poly:
    if m == 0:
        return ONE
    return _fp_cached(base, m - 1, shift) * (base + pa(m + shift))


def factorial_power(v, m: int, shift: int = 0) -> Poly:
    """(v|a)^m with shifted a's: (v + a_{1+shift})(v + a_{2+shift})...(v + a_{m+shift}).

    ``v`` may be a VarId or an arbitrary Poly.  m must be >= 0; m = 0
    gives 1.  Any a-index <= 0 contributes nothing (that a is zero).
    """
    if m < 0:
        raise ValueError("factorial_power needs m >= 0")
    base = poly_var(v) if isinstance(v, VarId) else v
    return _fp_cached(base, m, shift)


@lru_cache(maxsize=_CACHE_SIZE)
def _a_free_series(spec: VarSpec, m: int) -> tuple:
    """c_0..c_m of the a-free series of ``spec``: the seed times the
    geometric factors, each coefficient reduced modulo the pairing.

    The a-letters and ``spec.shift`` do not enter it.  The one-pair EO
    series keeps c_0 = 2 and EOD's c_0 is 0; ``h`` applies their
    conventions.  Cached: the coefficient tuple is shared, never changed.
    """
    kind = spec.kind
    pairs = spec.pairs
    if kind is HKind.EOD or (kind is HKind.EO and len(pairs) == 1):
        # The distinguished pair's two geometric series, added (EO) or
        # subtracted (EOD) rather than multiplied.
        x, xb = px(pairs[0]), pxb(pairs[0])
        if kind is HKind.EOD:
            c = [x ** k - xb ** k for k in range(m + 1)]
        else:
            c = [x ** k + xb ** k for k in range(m + 1)]
        pairs = pairs[1:]
    else:
        # OO's 1 + t and EO's 1 - t^2 are the seed itself.
        seed = {HKind.OO: [ONE, ONE], HKind.EO: [ONE, ZERO, -ONE]}.get(kind, [ONE])
        c = (seed + [ZERO] * m)[: m + 1]
    if kind is HKind.GL:
        geometric = [poly_var(v) for v in spec.singles]
    else:
        geometric = [v for i in pairs for v in (px(i), pxb(i))]
    for v in geometric:
        for k in range(1, m + 1):
            c[k] = c[k] + v * c[k - 1]
    # Values are normalised so that matched x_i*xb_i (reciprocal) pairs
    # never survive in a monomial; every consumer compares h's, and the
    # determinant/recurrence identities they enter hold modulo that pairing.
    return tuple(poly_reduce_inverses(f) for f in c)


def _a_loop(c: list, length: int, shift: int = 0) -> list:
    """Multiply the coefficients c_0..c_m in place by
    prod_{j=1}^{length} (1 + t*a_{j+shift}), truncated at t^m, and return c.

    It adds no x-letter, so reduced coefficients stay reduced.  On the
    seed [1, 0, ..., 0] it gives e_0..e_m of the a-letters.
    """
    for j in range(1, length + 1):
        aj = pa(j + shift)
        if aj:
            for k in range(len(c) - 1, 0, -1):
                c[k] = c[k] + aj * c[k - 1]
    return c


@lru_cache(maxsize=_CACHE_SIZE)
def _elementary(length: int, degree: int) -> tuple:
    """e_0..e_degree of a_1..a_length, by the a-loop on the seed [1] of
    degree + 1 coefficients; an e_r with r > length comes out 0."""
    return tuple(_a_loop([ONE] + [ZERO] * degree, length))


@lru_cache(maxsize=_CACHE_SIZE)
def h(spec: VarSpec, m: int) -> Poly:
    """The factorial h_m for the given variable spec: the a-loop over
    a_{1+shift}..a_{L+m-1+shift} run on the a-free series."""
    kind = spec.kind
    if kind is HKind.EOD:
        if m <= 0:
            return ZERO
    else:
        if m < 0:
            return ZERO
        if m == 0:
            return ONE
    return _a_loop(list(_a_free_series(spec, m)), spec.width() + m - 1, spec.shift)[m]
