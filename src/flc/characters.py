"""Factorial characters of the classical groups, by two determinantal routes.

For a rank-n group and a partition lambda (zero-padded to n parts) the
character is a polynomial in x_1, xb_1, ..., x_n, xb_n and the shift
alphabet a_1, a_2, ...  It can be computed as

* a ratio of alternants (``char_raw`` builds the matrix entries from
  factorial powers, ``char_alternant`` from one-pair h-series, and
  ``char_raw_diff`` the difference character o' from the entries
  (x_i|a)^m - (xb_i|a)^m).  All three run one pipeline,
  ``_ratio_character``, which takes the ratio by linearity.  Their
  matrices are row-separable (row i uses only pair i's letters, with the
  same a-coefficients in every row), and the a-letters are inert in the
  ratio: each column folds onto the route's Weyl basis b_e(y), so by
  Cauchy-Binet the numerator is sum_E c_E(a) * det[b_e(y_i)]_{e in E},
  and the character is sum_E c_E(a) * chi_E(x).  Each chi_E, an a-free
  Weyl alternant over the denominator, is a bialternant in the orbit
  letters z_i = x_i + xb_i, divided in their free ring once per (route,
  basis group, n, E) and cached (``_weyl_quotient``), or
* a flagged Jacobi-Trudi determinant of h functions (``char_jacobi_trudi``),
  which involves no division at all.  Its matrix is not row-separable
  (the flagged h of row i spans pairs i..n), but the a-letters of column
  j are a_1..a_N in every row, N = n + lambda_j - j, so it splits over
  them instead: F = P * Q with P the a-free flagged series coefficients
  and Q the elementary symmetric functions of the a's.  By Cauchy-Binet
  the character is sum_S c_S(a) * chi_S(x), with chi_S = det P[:, S] a
  flagged a-free determinant cached per (group, n, block size,
  lambda_1), not an alternant quotient; both sets of minors run on the
  Laplace expansion that the ratio routes' minors run on.

Groups: GL (general linear), SP (symplectic), OO (odd orthogonal), EO
(even orthogonal, characters of o(2n)), EO_DIFF (the signed difference
o'), and SO_EVEN_PLUS / SO_EVEN_MINUS (the two irreducible so(2n)
characters, which exist as a genuine split only when lambda has n
nonzero parts).

The odd-orthogonal raw ratio involves half-integer powers, so its
matrices are built in the s-letters with x_i realised as s_i^2; its
quotients chi_E need no s-letters, since z_i = s_i^2 + sb_i^2 is
x_i + xb_i.  The even-orthogonal ratio carries a factor eta (1/2 exactly
when lambda_n = 0) which is realised by halving the sum in that case;
the denominator determinant is halved always.  o' divides by that same
denominator and is never halved.

The barred letters are reciprocals of the plain ones, and for two or more
pairs the alternant quotients only exist granting x_i*xb_i = 1 (likewise
s_i*sb_i = 1): the denominators do not divide the alternants in the free
ring of the x- and xb-letters.  No route divides modulo that pairing:
each chi_E is divided in the free ring of the z_i, where every cross
factor of the denominator is z_i - z_j.  Every character returned here is
in the canonical form with no matched reciprocal pair inside a monomial
(``poly_reduce_inverses``): the determinants are formed, and each chi_E
is expanded by z_i -> x_i + xb_i, on the paired packed layout, which
cancels x_i*xb_i inside each monomial product.  All routes produce that
same normal form, which is what the cross-route equality tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product, zip_longest
from typing import Callable, Iterable, List, Optional, Sequence

from .hfuncs import _CACHE_SIZE, HKind, VarSpec, _a_free_series, _elementary, factorial_power, h
from .polyring import (
    ONE,
    Poly,
    _Layout,
    _maximal_minors,
    _minors,
    _separable_table,
    _sum_of_split_products,
    _a_free_part,
    X,
    XB,
    _det_separable,
    _divide_packed,
    poly_halve,
    poly_reduce_inverses,
    poly_sum,
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
    """Validate and zero-pad a weakly decreasing partition to the rank.
    A part that is not an int (bool included) raises ValueError."""
    lam = tuple(parts)
    for p in lam:
        if type(p) is not int:
            raise ValueError(f"partition part {p!r} is not an int")
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


def _own_pair_factors(group: Group, n: int) -> list:
    if group is Group.SP:
        return [px(i) - pxb(i) for i in range(1, n + 1)]
    if group is Group.OO:
        return [ps(i) - psb(i) for i in range(1, n + 1)]
    return []


def _denominator_factors(group: Group, n: int) -> list:
    """The factors of the denominator's product form: SP's x_i - xb_i or
    OO's s_i - sb_i, then for each i < j GL's x_i - x_j or the cross
    factor z_i - z_j, with z_i = u_i + ub_i the orbit letter of pair i:
    s_i^2 + sb_i^2 for OO, x_i + xb_i otherwise."""
    if group not in _RATIO_GROUPS:
        raise ValueError(f"no denominator product for group {group}")
    y, yb, k = (ps, psb, 2) if group is Group.OO else (px, pxb, 1)
    z = {i: y(i) if group is Group.GL else y(i) ** k + yb(i) ** k for i in range(1, n + 1)}
    return _own_pair_factors(group, n) + [z[i] - z[j] for i, j in combinations(range(1, n + 1), 2)]


def weyl_denominator_product(group: Group, n: int) -> Poly:
    """The denominator alternant in product form (OO in the s-letters)."""
    prod = ONE
    for f in _denominator_factors(group, n):
        prod = prod * f
    return prod


def _route_rows(group: Group, n: int, route: str, exps: Sequence[int]) -> list:
    """The route's alternant matrix: row i holds pair i's entries at the
    column exponents ``exps``.  The entry function is looked up when
    called, so a test that replaces ``_raw_entry`` or ``_alt_entry``
    reaches every route."""
    entry = _raw_entry if route == "raw" else _alt_entry
    return [[entry(group, i, m) for m in exps] for i in range(1, n + 1)]


@lru_cache(maxsize=_CACHE_SIZE)
def _denominator_info(group: Group, n: int, route: str) -> bool:
    """Whether the route's denominator determinant matches its product form.

    The reduced determinant is compared with the reduced product of
    ``_denominator_factors`` (EO: twice it); their equality is what lets
    each Weyl quotient cancel the own-pair factors and divide by the
    cross factors z_i - z_j (``_weyl_quotient``).  The determinant is the
    route's own alternant by Cauchy-Binet (``_det_separable``), compared
    on packed ints with the factors' product under one paired layout.
    Cached: the denominator of a ratio character depends only on the
    group, the rank and the route.
    """
    rows = _route_rows(group, n, route, [n - (j + 1) for j in range(n)])
    # The one-pair h entries already hold each row's own pair factor, so
    # outside GL the alternant route divides only by the cross terms,
    # which are EO's whole denominator (for OO in the x-letters too).
    factor_group = Group.EO if route == "alternant" and group is not Group.GL else group
    factors = _denominator_factors(factor_group, n)
    # One row per matrix row and per factor: the bound covers both sides.
    layout = _Layout.for_rows([*rows, *([f] for f in factors)], paired=True)
    prod = layout.product(layout.pack_terms(f) for f in factors)
    if group is Group.EO:
        prod = {v: 2 * c for v, c in prod.items()}
    return _det_separable(*_separable_table(rows, layout), layout) == prod


def _basis_sign(group: Group, route: str) -> Optional[int]:
    """The route's Weyl basis b_e(y), as the sign of its y^(-e) term: None
    for GL's b_e = y^e (e >= 0), -1 for b_e = y^e - y^(-e) (e >= 1: the
    raw SP, OO and EO_DIFF routes), +1 for b_0 = 1 and b_e = y^e + y^(-e)
    (the raw EO route and every alternant route outside GL)."""
    if group is Group.GL:
        return None
    if route == "raw" and group is not Group.EO:
        return -1
    return 1


def _weyl_columns(table: list, sign: Optional[int]) -> list:
    """Fold each column's table C[j][e] onto the Weyl basis of ``sign``
    (``_basis_sign``): the coefficients C'[j][e] at e >= 0 such that
    F[i][j] = sum_e C'[j][e] * b_e(y_i) holds identically, each still
    packed as ``polyring._separable_table`` packed it.

    That needs e >= 0 everywhere for GL; C[j][-e] = -C[j][e] and no e = 0
    term for the odd basis; C[j][-e] = C[j][e] for the even one.  A column
    that breaks it raises ValueError; there is no fallback.
    """
    out = []
    for j, col in enumerate(table):
        folded = {}
        for e, by_a in col.items():
            if sign is None:
                fits = e >= 0
            elif sign < 0:
                fits = e != 0 and col.get(-e) == {am: -c for am, c in by_a.items()}
            else:
                fits = col.get(-e) == by_a
            if not fits:
                raise ValueError(
                    f"column {j + 1} breaks the Weyl symmetry of its basis "
                    f"at net exponent {e}"
                )
            if e >= 0:
                folded[e] = by_a
        out.append(folded)
    return out


def _chebyshev(k: int, w0: list, w1: list) -> list:
    """w_k(z) as coefficients by power of z, for w_(k+1) = z*w_k - w_(k-1)
    from w0 and w1: U_k from 1 and z, V_k from 2 and z, U_k + U_(k-1) from
    1 and z + 1."""
    for _ in range(k):
        w0, w1 = w1, [a - b for a, b in zip_longest([0] + w1, w0, fillvalue=0)]
    return w0


@lru_cache(maxsize=_CACHE_SIZE)
def _z_basis(route: str, group: Group, e: int) -> tuple:
    """p_e, the route's Weyl basis element b_e as a polynomial in the orbit
    letter z, as coefficients by power of z, checked exactly.

    ``group`` is the basis group, as for ``_weyl_quotient``.  With y the
    pair's letter (s for the raw OO route, x otherwise), d(y) the
    denominator's own-pair factor (y - 1/y for SP and raw OO, 1 otherwise)
    and own(y) = y - 1/y for EO_DIFF (1 otherwise), the identity

        d(y) * own(y) * p_e(z) = b_e(y)

    is checked modulo y*yb = 1, with z = y for GL, z = s^2 + 1/s^2 for
    raw OO and z = y + 1/y otherwise; a failure raises ArithmeticError.
    p_e is z^e for GL, U_(e-1) for the odd basis, U_k + U_(k-1) for raw
    OO's odd e = 2k + 1 in the s-letters (a sum of x^j, |j| <= k), V_e for
    the even basis with b_0 = 1.  Cached once per (route, group, e).
    """
    sign = _basis_sign(group, route)
    in_s = group is Group.OO and route == "raw"
    if sign is None:
        p = [0] * e + [1]
    elif sign > 0:
        p = _chebyshev(e, [2], [0, 1]) if e else [1]
    elif in_s:
        p = _chebyshev((e - 1) // 2, [1], [1, 1])
    else:
        p = _chebyshev(e - 1, [1], [0, 1])
    y, yb = (ps(1), psb(1)) if in_s else (px(1), pxb(1))
    z = y if sign is None else y * y + yb * yb if in_s else y + yb
    lhs = poly_sum(c * z ** k for k, c in enumerate(p))
    for f in _own_pair_factors(group, 1) + ([y - yb] if group is Group.EO_DIFF else []):
        lhs = lhs * f
    b = y ** e if sign is None or e == 0 else y ** e + sign * yb ** e
    if poly_reduce_inverses(lhs) != b:
        raise ArithmeticError(f"{route} basis b_{e} for {group.value} differs from its z-form")
    return tuple(p)


def _z_divisors(n: int) -> list:
    """The cross factors z_i - z_j, i < j, with z_i written as x_i."""
    return [px(i) - px(j) for i, j in combinations(range(1, n + 1), 2)]


@lru_cache(maxsize=_CACHE_SIZE)
def _weyl_quotient(route: str, group: Group, n: int, cols_e: tuple) -> Poly:
    """chi_E = det[b_e(y_i)]_{i, e in E} / Delta, an a-free Weyl alternant
    of the route's basis divided by its denominator, in the orbit
    letters z_i = u_i + ub_i.

    ``group`` is the basis group, whose Weyl basis and denominator the
    quotient uses, and ``cols_e`` the ascending exponents E.  Each b_e is
    d * own * p_e(z) (``_z_basis``, checked), and each cross factor
    u_i + ub_i - u_j - ub_j of Delta (``_denominator_factors``) is
    z_i - z_j.  So the own-pair factors d cancel, and

        chi_E = prod_i own(y_i) * det[p_e(z_i)] / prod_{i<j} (z_i - z_j),

    a bialternant in the free ring of the z_i, with no pairing.  Under one
    paired layout, the alternant is emitted by Cauchy-Binet
    (``_det_separable``) from the integer table {k: {0: c}} of the p_e,
    with z_i written as x_i, divided by each binomial z_i - z_j in turn
    (``_divide_packed``, the one division kernel: bar-free ints, as in
    the free ring), expanded once by z_i -> x_i + xb_i
    (``_Layout.expand_orbits``; GL: no expansion) and multiplied by own.
    Raw OO's z = s^2 + sb^2 is x + xb, so its quotient comes out in the
    x-letters.  An inexact quotient raises DivisionNotExact.  Cached on
    (route, basis group, n, E): the route is in the key so that the raw
    and alternant routes never read each other's quotients.
    """
    own = group is Group.EO_DIFF
    basis = [_z_basis(route, group, e) for e in cols_e]
    codes = [X(i).code() for i in range(1, n + 1)]
    # The row bound is n times the largest degree, as every p_e is monic.
    # The expansion keeps every net exponent and the net degree within the
    # z-degree; own adds at most one per pair.
    layout = _Layout(codes, n * (max(map(len, basis)) - 1 + (1 if own else 0)), paired=True)
    table = [{k: {0: c} for k, c in enumerate(p) if c} for p in basis]
    units = [layout.unit[code] for code in codes]
    quot = _det_separable(table, units, layout)
    for z in _z_divisors(n):
        quot = _divide_packed(quot, layout.pack_terms(z), layout)
    if group is not Group.GL:
        quot = layout.expand_orbits(quot)
    if own:
        quot = _Layout.product([quot, *({u: 1, -u: -1} for u in units)])
    return layout.to_poly(quot)


def _ratio_character(spec: CharSpec, route: str, groups: tuple) -> Poly:
    """The pipeline of char_raw, char_alternant and char_raw_diff, for the
    groups the calling route accepts (ValueError otherwise): the ratio of
    the numerator determinant N to the denominator, by linearity.

    The a-letters are inert in the ratio.  The numerator matrix is split
    as F[i][j] = sum_e C[j][e](a) * y_i^e, with C packed under one paired
    layout (``polyring._separable_table``, which checks row-separability),
    and folded onto the route's Weyl basis (``_weyl_columns``, which checks
    the symmetry), so F = B * C'^T with
    B[i][e] = b_e(y_i).  By Cauchy-Binet N = sum_E det C'[:, E] * det B[:, E]
    exactly, and the character is sum_E c_E(a) * chi_E(x) with
    c_E = det C'[:, E] (``polyring._maximal_minors``) and chi_E the cached
    quotient ``_weyl_quotient``.  The x- and a-letters are disjoint, so each
    product monomial is the concatenation of the two
    (``polyring._sum_of_split_products``).

    chi_E divides by the denominator's product form, which is only sound
    when the reduced denominator determinant equals the reduced product
    of its factors, so that identity is checked (``_denominator_info``),
    not assumed.
    EO_DIFF divides by EO's denominator; EO alone carries the eta = 1/2 of
    lambda_n = 0, realised by halving the sum exactly.
    """
    group, n, lam = spec.group, spec.rank, spec.lam
    if group not in groups:
        raise ValueError(f"no alternant-ratio route for group {group}")
    rows = _route_rows(group, n, route, [lam[j] + n - (j + 1) for j in range(n)])
    layout = _Layout.for_rows(rows, paired=True)
    columns = _weyl_columns(_separable_table(rows, layout)[0], _basis_sign(group, route))
    den_group = Group.EO if group is Group.EO_DIFF else group
    if not _denominator_info(den_group, n, route):
        raise ArithmeticError(
            f"{route} denominator for {den_group.value}, n={n} differs from its product form"
        )
    minors = _maximal_minors(columns, layout)
    # Outside GL every alternant route has the even basis over EO's cross
    # factors, so SP, OO and EO share their quotients there.
    basis_group = Group.EO if route == "alternant" and group is not Group.GL else group
    pairs = ((_weyl_quotient(route, basis_group, n, e), layout.to_poly(m)) for e, m in minors.items())
    char = _sum_of_split_products(pairs)
    if group is Group.EO and lam[n - 1] == 0:
        char = poly_halve(char)
    return char


def char_raw(spec: CharSpec) -> Poly:
    """Character as the literal ratio of factorial-power alternants."""
    return _ratio_character(spec, "raw", _RATIO_GROUPS)


def char_alternant(spec: CharSpec) -> Poly:
    """Character as a ratio of alternants with series-built h entries."""
    return _ratio_character(spec, "alternant", _RATIO_GROUPS)


def _jt_alphabet(n: int, part: int, j: int) -> int:
    """N = n + lambda_j - j, the length of the a-alphabet in column j of
    the Jacobi-Trudi matrix: entry (i, j) is h_m over the n - i + 1 pairs
    (GL: letters) i..n with m = lambda_j - j + i, whose a-loop runs over
    a_1..a_(n-i+1+m-1), the same letters in every row."""
    return n + part - j


@lru_cache(maxsize=_CACHE_SIZE)
def _flagged_minors(kind: HKind, n: int, k: int, part: int) -> dict:
    """chi_S = det P[:, S] for the a-free flagged matrix
    P[i][p] = h0_(p+i)(pairs i..n), i = 1..k, p = -k..part - 1, with h0
    the a-free series coefficient (``hfuncs._a_free_series``).

    They depend on lambda only through k and part = lambda_1, so they are
    cached on (kind, n, k, lambda_1) and shared by every shape with that
    leading block size and first part.
    """
    rows = []
    for i in range(1, k + 1):
        series = _a_free_series(_flag_spec(kind, i, n), part - 1 + i)
        rows.append({q - i: f for q, f in enumerate(series)})
    return _minors(rows, paired=True)


@lru_cache(maxsize=_CACHE_SIZE)
def _coefficient_minors(columns: tuple) -> dict:
    """c_S = det Q[S, :] for the x-free matrix
    Q[p][j] = e_(top_j - p)(a_1..a_(N_j)), p = -k..top_j, from the
    block's columns as pairs (top_j, N_j) = (lambda_j - j, N), k of them.
    Column j reads e_0..e_(top_j + k) only, so ``hfuncs._elementary``
    builds no more; an e_r with r > N_j is 0, and ``_minors`` skips it.

    They hold no group, so every JT group of one rank and shape shares
    them; the key holds each N, so a change of alphabet is never served
    from the cache.
    """
    k = len(columns)
    rows = []
    for top, length in columns:
        e = _elementary(length, top + k)
        rows.append({p: e[top - p] for p in range(-k, top + 1)})
    return _minors(rows, paired=True)


def char_jacobi_trudi(spec: CharSpec) -> Poly:
    """Character as a flagged Jacobi-Trudi determinant |h_{lambda_j - j + i}|.

    Row i uses the flagged variable content (pairs/variables i..n); no
    division is involved.  Covers GL, SP, OO, EO and EO_DIFF.

    Only the leading k x k block is built, k the number of nonzero parts:
    a zero part's column j holds h_{i-j}, which is 0 above the diagonal
    and h_0 = 1 on it, so the matrix is block lower triangular with that
    block and a unitriangular one on its diagonal.  EO_DIFF's h_0 is 0,
    so it keeps the whole n x n matrix.

    The a-letters enter entry (i, j) only through the a-loop over
    a_1..a_N, N = n + lambda_j - j (``_jt_alphabet``), the same in every
    row, so h_m = sum_r e_r(a_1..a_N) * h0_(m-r) and the block factors as
    F = P * Q with P[i][p] = h0_(p+i)(flag_i), a-free, and
    Q[p][j] = e_(lambda_j-j-p)(a_1..a_N), x-free, p = -k..lambda_1 - 1
    (P's columns below -k are zero).  By Cauchy-Binet

        det F = sum_S det P[:, S] * det Q[S, :],

    with chi_S = det P[:, S] cached per (kind, n, k, lambda_1)
    (``_flagged_minors``) and c_S = det Q[S, :], the maximal minors of
    Q^T, cached per column alphabet (``_coefficient_minors``), and the
    sum_S chi_S(x) * c_S(a) emitted by concatenating monomials
    (``polyring._sum_of_split_products``).  Every entry of F is an
    identity of series, so the split is exact.  The one exception, EO's
    one-pair h_0 = 1 where the series gives 2, is entry (n, n) when
    lambda_n = 0, which is never in the block.  EO_DIFF with
    lambda_n = 0 gives 0 by computation: its column p = -n of P is
    h0_0 = 0, and Q's last column is nonzero only there.  lambda = 0
    gives the empty determinant, 1.
    """
    kind = _JT_KIND.get(spec.group)
    if kind is None:
        raise ValueError(f"no Jacobi-Trudi determinant for group {spec.group}")
    n, lam = spec.rank, spec.lam
    k = n if kind is HKind.EOD else partition_length(lam)
    columns = tuple((lam[j - 1] - j, _jt_alphabet(n, lam[j - 1], j)) for j in range(1, k + 1))
    chis = _flagged_minors(kind, n, k, lam[0])
    return _sum_of_split_products(
        (chis[cols], c) for cols, c in _coefficient_minors(columns).items() if cols in chis
    )


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
    """Set every a-variable to zero: keep the terms that hold no a-letter."""
    return _a_free_part(p)


def character(spec: CharSpec) -> Poly:
    """The character by the division-free route appropriate to the group."""
    if spec.group in (Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS):
        return char_so_even(spec)
    return char_jacobi_trudi(spec)


def dimension(spec: CharSpec) -> int:
    """Character evaluated at a = 0 and every letter = 1: the sum of the
    coefficients of its a-free terms."""
    return sum(zero_a(character(spec)).terms.values())
