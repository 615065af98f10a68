"""Factorial characters of the classical groups, by two determinantal routes.

For a rank-n group and a partition lambda (zero-padded to n parts) the
character is a polynomial in x_1, xb_1, ..., x_n, xb_n and the shift
alphabet a_1, a_2, ...  It can be computed as

* a ratio of alternants (``char_raw`` builds the matrix entries from
  factorial powers, ``char_alternant`` from one-pair h-series, and
  ``char_raw_diff`` the difference character o' from the entries
  (x_i|a)^m - (xb_i|a)^m).  All three run one pipeline,
  ``_ratio_character``, which divides the numerator determinant exactly
  by the denominator determinant's binomial factors.  Their matrices
  are row-separable (row i uses only pair i's letters, with the same
  a-coefficients in every row), so both determinants are taken by
  Cauchy-Binet (``polyring._det_separable``), or
* a flagged Jacobi-Trudi determinant of h functions (``char_jacobi_trudi``),
  which involves no division at all.  Its matrix is not row-separable
  (the flagged h of row i spans pairs i..n), so it keeps the cofactor
  expansion ``polyring._det_cofactor``.

Groups: GL (general linear), SP (symplectic), OO (odd orthogonal), EO
(even orthogonal, characters of o(2n)), EO_DIFF (the signed difference
o'), and SO_EVEN_PLUS / SO_EVEN_MINUS (the two irreducible so(2n)
characters, which exist as a genuine split only when lambda has n
nonzero parts).

The odd-orthogonal ratio involves half-integer powers, so its alternants
are built in the s-letters with x_i realised as s_i^2; the exact quotient
is then mapped back to whole x-powers.  The even-orthogonal ratio carries
a factor eta (1/2 exactly when lambda_n = 0) which is realised by halving
the numerator determinant in that case; the denominator determinant is
halved always.  o' divides by that same denominator and is never halved.

The barred letters are reciprocals of the plain ones, and for two or more
pairs the alternant quotients only exist granting x_i*xb_i = 1 (likewise
s_i*sb_i = 1): the denominators do not divide the numerators in the free
ring.  Every character returned here is therefore in the canonical
form with no matched reciprocal pair inside a monomial
(``poly_reduce_inverses``): the determinants are formed on the paired
packed layout, which cancels x_i*xb_i inside each monomial product, and
the ratio routes emit their numerator straight under the layout of the
division chain behind ``poly_exact_div_inverses_many`` (``polyring._Chain``).
All routes produce that same normal form, which is what the cross-route
equality tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, List, Sequence

from .hfuncs import _CACHE_SIZE, HKind, VarSpec, factorial_power, h
from .polyring import (
    ONE,
    Poly,
    _Chain,
    _Layout,
    X,
    XB,
    eval_integer,
    _det_cofactor,
    _det_separable,
    _row_bound,
    map_s_to_x,
    poly_halve,
    poly_substitute,
    px,
    pxb,
    ps,
    psb,
)

__all__ = [
    "Group",
    "CharSpec",
    "char_spec",
    "make_partition",
    "partition_length",
    "shapes",
    "char_raw",
    "char_alternant",
    "char_jacobi_trudi",
    "char_raw_diff",
    "char_so_even",
    "char_raw_so_even",
    "character",
    "weyl_denominator_product",
    "zero_a",
    "dimension",
]


class Group(Enum):
    GL = "gl"
    SP = "sp"
    OO = "oo"
    EO = "eo"
    EO_DIFF = "eo_diff"
    SO_EVEN_PLUS = "so_even_plus"
    SO_EVEN_MINUS = "so_even_minus"


_RATIO_GROUPS = (Group.GL, Group.SP, Group.OO, Group.EO)

_JT_KIND = {
    Group.GL: HKind.GL,
    Group.SP: HKind.SP,
    Group.OO: HKind.OO,
    Group.EO: HKind.EO,
    Group.EO_DIFF: HKind.EOD,
}


def _flag_spec(kind: HKind, lo: int, hi: int) -> VarSpec:
    """The variable content of pairs (GL: letters) lo..hi."""
    if kind is HKind.GL:
        return VarSpec(HKind.GL, singles=tuple(X(k) for k in range(lo, hi + 1)))
    return VarSpec(kind, pairs=tuple(range(lo, hi + 1)))


def make_partition(parts: Iterable[int], rank: int) -> tuple:
    """Validate and zero-pad a weakly decreasing partition to the rank."""
    lam = tuple(int(p) for p in parts)
    if any(p < 0 for p in lam):
        raise ValueError("partition parts must be non-negative")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing, got {lam}")
    if len(lam) > rank:
        raise ValueError(f"partition {lam} has more than rank={rank} parts")
    return lam + (0,) * (rank - len(lam))


def partition_length(lam: Sequence[int]) -> int:
    """Number of nonzero parts."""
    return sum(1 for p in lam if p)


def shapes(n: int, max_part: int) -> List[tuple]:
    """All weakly decreasing n-part shapes with parts <= max_part, zeros
    included, largest first."""
    return [
        lam
        for lam in product(range(max_part, -1, -1), repeat=n)
        if all(lam[i] >= lam[i + 1] for i in range(n - 1))
    ]


@dataclass(frozen=True)
class CharSpec:
    group: Group
    rank: int
    lam: tuple

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.lam != make_partition(self.lam, self.rank):
            raise ValueError(f"lambda {self.lam} is not zero-padded weakly decreasing")


def char_spec(group: Group, rank: int, parts: Iterable[int]) -> CharSpec:
    return CharSpec(group, rank, make_partition(parts, rank))


@lru_cache(maxsize=_CACHE_SIZE)
def _raw_entry(group: Group, i: int, m: int) -> Poly:
    if group is Group.GL:
        return factorial_power(X(i), m)
    if group is Group.SP:
        return px(i) * factorial_power(X(i), m) - pxb(i) * factorial_power(XB(i), m)
    if group is Group.OO:
        s, sb = ps(i), psb(i)
        return s * factorial_power(s * s, m) - sb * factorial_power(sb * sb, m)
    if group is Group.EO:
        return factorial_power(X(i), m) + factorial_power(XB(i), m)
    if group is Group.EO_DIFF:
        return factorial_power(X(i), m) - factorial_power(XB(i), m)
    raise ValueError(f"no raw alternant for group {group}")


@lru_cache(maxsize=_CACHE_SIZE)
def _alt_entry(group: Group, i: int, m: int) -> Poly:
    entry = h(_flag_spec(_JT_KIND[group], i, i), m)
    if group is Group.EO and m == 0:
        # The delta-free one-pair series: at m = 0 this is 2, not h_0 = 1;
        # the halving below absorbs the overall factor of 2 per eta-convention.
        return entry + ONE
    return entry


def _pair_letters(group: Group) -> tuple:
    """u_i and ub_i, the two letters of pair i in the denominator's
    factors: s_i^2 and sb_i^2 for OO, x_i and xb_i otherwise."""
    if group is Group.OO:
        return (lambda i: ps(i) * ps(i)), (lambda i: psb(i) * psb(i))
    return px, pxb


def _own_pair_factors(group: Group, n: int) -> list:
    if group is Group.SP:
        return [px(i) - pxb(i) for i in range(1, n + 1)]
    if group is Group.OO:
        return [ps(i) - psb(i) for i in range(1, n + 1)]
    return []


def _denominator_factors(group: Group, n: int) -> list:
    """The factors of the denominator's product form: SP's x_i - xb_i or
    OO's s_i - sb_i, then for each i < j GL's x_i - x_j or the cross
    factor u_i + ub_i - u_j - ub_j."""
    if group not in _RATIO_GROUPS:
        raise ValueError(f"no denominator product for group {group}")
    u, ub = _pair_letters(group)
    out = _own_pair_factors(group, n)
    for i, j in combinations(range(1, n + 1), 2):
        out.append(u(i) - u(j) if group is Group.GL else u(i) + ub(i) - u(j) - ub(j))
    return out


def weyl_denominator_product(group: Group, n: int) -> Poly:
    """The denominator alternant in product form (OO in the s-letters)."""
    prod = ONE
    for f in _denominator_factors(group, n):
        prod = prod * f
    return prod


_ENTRY_FN = {"raw": _raw_entry, "alternant": _alt_entry}


def _route_rows(group: Group, n: int, route: str, exps: Sequence[int]) -> list:
    """The route's alternant matrix: row i holds pair i's entries at the
    column exponents ``exps``."""
    entry = _ENTRY_FN[route]
    return [[entry(group, i, m) for m in exps] for i in range(1, n + 1)]


@lru_cache(maxsize=_CACHE_SIZE)
def _denominator_info(group: Group, n: int, route: str) -> tuple:
    """The denominator as binomial factors, and whether they match it.

    Modulo the pairing u_i*ub_i = 1 each cross factor splits into two
    binomials, u_i + ub_i - u_j - ub_j = (u_i - u_j)(1 - ub_i*ub_j); the
    other factors are binomials already.  So the division chain
    (``polyring._Chain``) divides by two-term factors only, which its
    sweep serves.

    ``matches`` records that the reduced (EO: halved) denominator
    determinant equals the reduced product of the binomials, so the ratio
    can divide factor by factor.  The determinant is the route's own
    alternant by Cauchy-Binet (``_det_separable``), compared on packed
    ints with the factors' product under one paired layout.  Cached: the
    denominator of a ratio character depends only on the group, the rank
    and the route.
    """
    rows = _route_rows(group, n, route, [n - (j + 1) for j in range(n)])
    # The one-pair h entries already hold each row's own pair factor, so
    # outside GL the alternant route divides only by the cross terms,
    # which are EO's whole denominator (for OO in the x-letters too).
    cross_only = route == "alternant" and group is not Group.GL
    factor_group = Group.EO if cross_only else group
    u, ub = _pair_letters(factor_group)
    factors = _own_pair_factors(factor_group, n)
    for i, j in combinations(range(1, n + 1), 2):
        factors.append(u(i) - u(j))
        if factor_group is not Group.GL:
            factors.append(ONE - ub(i) * ub(j))
    # One group per row and per factor: the bound covers both sides.
    layout, packed = _Layout.for_products([*rows, *([f] for f in factors)], paired=True)
    denom = _det_separable(rows, layout)
    if group is Group.EO:
        denom = layout.halve(denom)
    matches = denom == layout.product(g[0] for g in packed[n:])
    return tuple(factors), matches


def _ratio_character(spec: CharSpec, route: str, groups: tuple) -> Poly:
    """The pipeline of char_raw, char_alternant and char_raw_diff: the
    numerator determinant divided by the denominator's binomial factors, for
    the groups the calling route accepts (ValueError otherwise).

    The division chain (``polyring._Chain``) is sized with D the larger
    of the numerator's row-sum degree bound and the divisors' degrees,
    and the numerator is emitted by Cauchy-Binet (``_det_separable``)
    straight under the chain's layout, so it is packed once, cleared,
    divided and unpacked once; it is unpacked on its own only to replay
    the stepwise fold when a division fails.  The division runs factor by
    factor, which is only sound when the reduced denominator determinant
    equals the reduced factor product, so that identity is checked, not
    assumed.

    EO_DIFF divides by EO's denominator; EO alone carries the eta = 1/2
    of lambda_n = 0, realised by halving the numerator.
    """
    group, n, lam = spec.group, spec.rank, spec.lam
    if group not in groups:
        raise ValueError(f"no alternant-ratio route for group {group}")
    den_group = Group.EO if group is Group.EO_DIFF else group
    factors, matches = _denominator_info(den_group, n, route)
    if not matches:
        raise ArithmeticError(
            f"{route} denominator for {den_group.value}, n={n} differs from its product form"
        )
    rows = _route_rows(group, n, route, [lam[j] + n - (j + 1) for j in range(n)])
    codes: set = set()
    chain = _Chain(factors, codes, _row_bound(rows, codes))
    layout = chain.layout
    numer = _det_separable(rows, layout)
    if group is Group.EO and lam[n - 1] == 0:
        numer = layout.halve(numer)
    out = chain.divide(numer, lambda: layout.to_poly(numer))
    if group is Group.OO and route == "raw":
        out = map_s_to_x(out)
    return out


def char_raw(spec: CharSpec) -> Poly:
    """Character as the literal ratio of factorial-power alternants."""
    return _ratio_character(spec, "raw", _RATIO_GROUPS)


def char_alternant(spec: CharSpec) -> Poly:
    """Character as a ratio of alternants with series-built h entries."""
    return _ratio_character(spec, "alternant", _RATIO_GROUPS)


def char_jacobi_trudi(spec: CharSpec) -> Poly:
    """Character as a flagged Jacobi-Trudi determinant |h_{lambda_j - j + i}|.

    Row i uses the flagged variable content (pairs/variables i..n); no
    division is involved.  Covers GL, SP, OO, EO and EO_DIFF.
    """
    kind = _JT_KIND.get(spec.group)
    if kind is None:
        raise ValueError(f"no Jacobi-Trudi determinant for group {spec.group}")
    n, lam = spec.rank, spec.lam
    rows = []
    for i in range(1, n + 1):
        vs = _flag_spec(kind, i, n)
        rows.append([h(vs, lam[j - 1] - j + i) for j in range(1, n + 1)])
    return _det_cofactor(rows, paired=True)


def char_raw_diff(n: int, lam_parts: Iterable[int]) -> Poly:
    """The signed difference character o' as a literal alternant ratio.

    Numerator entries (x_i|a)^m - (xb_i|a)^m; the denominator is the halved
    even-orthogonal denominator determinant.  When lambda_n = 0 the last
    numerator column vanishes identically, so the result is 0 (computed,
    not special-cased).
    """
    return _ratio_character(char_spec(Group.EO_DIFF, n, lam_parts), "raw", (Group.EO_DIFF,))


def _so_even_split(
    spec: CharSpec,
    eo_route: Callable[[CharSpec], Poly],
    diff_route: Callable[[CharSpec], Poly],
) -> Poly:
    """(o + o')/2 for SO_EVEN_PLUS, (o - o')/2 for SO_EVEN_MINUS, with o
    and o' taken from the one route given.

    The plus/minus split exists only when lambda has n nonzero parts;
    otherwise both signs coincide with the full even-orthogonal character.
    """
    if spec.group not in (Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS):
        raise ValueError(f"so-even character needs a so-even group, got {spec.group}")
    n, lam = spec.rank, spec.lam
    eo = eo_route(CharSpec(Group.EO, n, lam))
    if partition_length(lam) < n:
        return eo
    diff = diff_route(CharSpec(Group.EO_DIFF, n, lam))
    if spec.group is Group.SO_EVEN_PLUS:
        return poly_halve(eo + diff)
    return poly_halve(eo - diff)


def char_so_even(spec: CharSpec) -> Poly:
    """Irreducible so(2n) character for SO_EVEN_PLUS / SO_EVEN_MINUS, from
    Jacobi-Trudi determinants."""
    return _so_even_split(spec, char_jacobi_trudi, char_jacobi_trudi)


def char_raw_so_even(spec: CharSpec) -> Poly:
    """The same so(2n) character from the raw ratios char_raw and
    char_raw_diff only."""
    return _so_even_split(spec, char_raw, lambda s: char_raw_diff(s.rank, s.lam))


def zero_a(p: Poly) -> Poly:
    """Set every a-variable to zero."""
    return poly_substitute(p, {v: 0 for v in p.variables() if v.kind == "a"})


def character(spec: CharSpec) -> Poly:
    """The character by the division-free route appropriate to the group."""
    if spec.group in (Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS):
        return char_so_even(spec)
    return char_jacobi_trudi(spec)


def dimension(spec: CharSpec) -> int:
    """Character evaluated at a = 0 and every letter = 1."""
    p = zero_a(character(spec))
    return eval_integer(p, {v: 1 for v in p.variables()})
