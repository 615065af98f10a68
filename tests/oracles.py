"""Independent oracles: dimensions of the classical families, the
reference canonical rendering, and references built on ``Poly``.

The dimensions are computed straight from the Weyl dimension formula
over the root systems, in exact rational arithmetic, with no use of the
package's polynomial machinery.  Tests compare character evaluations
against these numbers.

The reference renderer orders terms by a graded-lex key built of tuples
and prints every term afresh, with no packed layout; the tests hold
``poly_to_str`` and ``poly_to_json`` to it.

The ``Poly`` references are statements the tests hold the library to,
written the way the paper writes them: the word expansions of h_m
(``explicit_h``) and its closed one-pair forms (``h_closed_one_pair``,
through the half-power map ``map_s_to_x``), the Weyl denominator as a
product of its factors, the reduced determinant (``det_reduced``), and
the per-tableau coefficients of the o(2n) difference sum and the so(2n)
sums.
"""

from fractions import Fraction
from typing import Sequence

from flc.characters import Group, _denominator_factors
from flc.hfuncs import HKind, factorial_power
from flc.polyring import (
    ONE,
    X,
    XB,
    ZERO,
    _A_NEG_LOW,
    _S_BASE,
    _minors,
    _poly,
    _strip,
    _var_name,
    pa,
    poly_exact_div,
    poly_reduce_inverses,
    ps,
    psb,
    px,
    pxb,
)
from flc.tableaux import tab_stats


def _pad(lam: Sequence[int], n: int) -> list:
    lam = list(lam) + [0] * (n - len(lam))
    assert len(lam) == n and all(
        lam[i] >= lam[i + 1] >= 0 for i in range(n - 1)
    ), lam
    return lam


def _as_int(f: Fraction) -> int:
    assert f.denominator == 1, f
    return int(f)


def dim_gl(n: int, lam: Sequence[int]) -> int:
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i)."""
    lam = _pad(lam, n)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return _as_int(out)


def _type_bcd(lam: Sequence[int], n: int, rho_offset: Fraction, long_root: bool) -> int:
    """Weyl dimension for B/C/D: products over e_i ± e_j, plus e_i (B)
    or 2e_i (C) factors when long_root is set."""
    lam = _pad(lam, n)
    l = [Fraction(lam[i]) + rho_offset + (n - 1 - i) for i in range(n)]
    rho = [rho_offset + (n - 1 - i) for i in range(n)]
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= (l[i] ** 2 - l[j] ** 2) / (rho[i] ** 2 - rho[j] ** 2)
    if long_root:
        for i in range(n):
            out *= l[i] / rho[i]
    return _as_int(out)


def dim_so_odd(n: int, lam: Sequence[int]) -> int:
    """so(2n+1), type B_n: rho_i = n - i + 1/2."""
    return _type_bcd(lam, n, Fraction(1, 2), long_root=True)


def dim_sp(n: int, lam: Sequence[int]) -> int:
    """sp(2n), type C_n: rho_i = n - i + 1."""
    return _type_bcd(lam, n, Fraction(1), long_root=True)


def dim_so_even(n: int, lam: Sequence[int]) -> int:
    """so(2n), type D_n: rho_i = n - i.  For lambda_n > 0 this is the
    dimension of either one of the two irreducibles so(2n)_{lambda,+-}."""
    if n == 1:  # so(2) is abelian: every weight space is a line
        return 1
    return _type_bcd(lam, n, Fraction(0), long_root=False)


def dim_o_even(n: int, lam: Sequence[int]) -> int:
    """o(2n): twice the so(2n) count when the plus/minus pair exists."""
    lam = _pad(lam, n)
    base = dim_so_even(n, lam)
    return 2 * base if lam[n - 1] > 0 else base


# ---------------------------------------------------------------------------
# reference rendering


def order_key(mono: tuple):
    """Sort key realising the graded-lex order (larger key = larger
    monomial): total degree first, then the (code, exponent) pairs, where
    an earlier code or a higher exponent on the same code wins."""
    return (sum(e for _, e in mono), tuple((-c, e) for c, e in mono))


def descending(p) -> list:
    """p's monomials in descending graded-lex order."""
    return sorted(p.terms, key=order_key, reverse=True)


def _term_str(m: tuple, c: int, lead: bool) -> str:
    body = "*".join(_var_name(code) + (f"^{exp}" if exp > 1 else "") for code, exp in m)
    mag = abs(c)
    if not body:
        core = str(mag)
    elif mag == 1:
        core = body
    else:
        core = f"{mag}*{body}"
    if lead:
        return f"-{core}" if c < 0 else core
    return f"- {core}" if c < 0 else f"+ {core}"


def poly_str(p) -> str:
    """The canonical text of p, one term at a time."""
    if not p.terms:
        return "0"
    monos = descending(p)
    parts = [_term_str(monos[0], p.terms[monos[0]], lead=True)]
    parts.extend(_term_str(m, p.terms[m], lead=False) for m in monos[1:])
    return " ".join(parts)


# ---------------------------------------------------------------------------
# references built on Poly


class OddHalfPower(ArithmeticError):
    """map_s_to_x hit an odd power of an s-variable."""


def map_s_to_x(p):
    """Rewrite half powers: s_i^2 -> x_i and sb_i^2 -> xb_i.

    The s-letters realise square roots of mutually inverse values
    (s_i^2 = x_i, sb_i^2 = xb_i with x_i*xb_i = 1 at the half-power
    level), so a matched s_i*sb_i pair cancels to 1.  Pairs are cancelled
    and like monomials collected first; an s-power that is still odd
    after that raises OddHalfPower.
    """
    out: dict = {}
    for m, c in poly_reduce_inverses(p).terms.items():
        new: dict = {}
        for code, exp in m:
            if _S_BASE <= code < _A_NEG_LOW:
                if exp % 2:
                    raise OddHalfPower(f"odd power {_var_name(code)}^{exp} cannot be mapped to x")
                code = code - _S_BASE  # s_i -> x_i, sb_i -> xb_i
                exp //= 2
            new[code] = new.get(code, 0) + exp
        mono = tuple(sorted((k, e) for k, e in new.items() if e))
        out[mono] = out.get(mono, 0) + c
    return _poly(_strip(out))


def h_closed_one_pair(kind: HKind, i: int, m: int, shift: int = 0):
    """Closed form of h_m on a single pair (or single variable for GL)."""
    if kind is HKind.EOD:
        if m <= 0:
            return ZERO
        return factorial_power(X(i), m, shift) - factorial_power(XB(i), m, shift)
    if m < 0:
        return ZERO
    if m == 0:
        return ONE
    if kind is HKind.GL:
        return factorial_power(X(i), m, shift)
    if kind is HKind.SP:
        numer = px(i) * factorial_power(X(i), m, shift) - pxb(i) * factorial_power(XB(i), m, shift)
        return poly_reduce_inverses(poly_exact_div(numer, px(i) - pxb(i)))
    if kind is HKind.OO:
        s, sb = ps(i), psb(i)
        numer = s * factorial_power(s * s, m, shift) - sb * factorial_power(sb * sb, m, shift)
        return map_s_to_x(poly_exact_div(numer, s - sb))
    if kind is HKind.EO:
        return factorial_power(X(i), m, shift) + factorial_power(XB(i), m, shift)
    raise ValueError(f"unknown kind {kind}")


def _z(i: int):
    """z_{2k-1} = x_k, z_{2k} = xb_k."""
    k = (i + 1) // 2
    return px(k) if i % 2 else pxb(k)


def _word_sum(n2: int, m: int, weight, lo_min: int = 1, first: int = 1):
    """Sum over weakly increasing words (i_first <= ... <= i_m, letters
    lo_min..n2) of prod_j weight(i_j, j)."""
    memo: dict = {}

    def rec(j: int, lo: int):
        if j > m:
            return ONE
        key = (j, lo)
        got = memo.get(key)
        if got is not None:
            return got
        total = ZERO
        for i in range(lo, n2 + 1):
            total = total + weight(i, j) * rec(j + 1, i)
        memo[key] = total
        return total

    return rec(first, lo_min)


def explicit_h(kind: HKind, n: int, m: int):
    """Direct weighted-word expansion of h_m in n variables/pairs.

    Implemented for GL, SP, OO and EO; agrees with ``flc.hfuncs.h`` on
    the full (unshifted) variable content of rank n.
    """
    if m < 0:
        return ZERO
    if kind is HKind.GL:
        return _word_sum(n, m, lambda i, k: px(i) + pa(i + k - 1))
    if kind is HKind.SP:
        return poly_reduce_inverses(_word_sum(2 * n, m, lambda i, j: _z(i) + pa(i - n + j - 1)))
    if kind is HKind.OO:
        body = _word_sum(2 * n, m, lambda i, j: _z(i) + pa(i - n + j))
        if m == 0:
            return body
        tail = _word_sum(2 * n, m - 1, lambda i, j: _z(i) + pa(i - n + j))
        return poly_reduce_inverses(body + (ONE - pa(m + n)) * tail)
    if kind is HKind.EO:
        if m == 0:
            return ONE

        def sp_weight(i, j):
            return _z(i) + pa(i - n + j - 1)

        # Words of k letters all 1 (x_1) or all 2 (xb_1), then letters >= 3.
        total = _word_sum(2 * n, m, sp_weight, 3)  # no prefix at all
        pref_x, pref_xb = ONE, ONE
        for k in range(1, m + 1):
            ak = pa(k + 1 - n)
            pref_x = pref_x * (px(1) + ak)
            pref_xb = pref_xb * (pxb(1) + ak)
            total = total + (pref_x + pref_xb) * _word_sum(2 * n, m, sp_weight, 3, k + 1)
        return poly_reduce_inverses(total)
    raise ValueError(f"explicit_h is not defined for kind {kind}")


def weyl_denominator_product(group: Group, n: int):
    """The denominator alternant in product form (OO in the s-letters):
    the free-ring product of the factors the ratio routes divide by."""
    prod = ONE
    for f in _denominator_factors(group, n):
        prod = prod * f
    return prod


def det_reduced(rows):
    """The determinant of a square matrix reduced modulo the pairing: its
    one maximal minor on the paired layout, 0 when it has none."""
    return _minors([dict(enumerate(row)) for row in rows], paired=True).get(tuple(range(len(rows))), ZERO)


def is_diff_tableau(t, n: int) -> bool:
    """First column reads k or k~ at every level k = 1..n."""
    if len(t.rows) != n:
        return False
    return all(t.rows[k - 1][0].k == k for k in range(1, n + 1))


def so_even_coefficient(t, plus: bool) -> int:
    """Multiplicity of an even-orthogonal tableau in the so(2n) plus or
    minus sum: 2^(zeta-1) when zeta >= 1, else 1 or 0 by the parity of
    the barred first-column entries."""
    st = tab_stats(t, Group.EO)
    if st.zeta >= 1:
        return 1 << (st.zeta - 1)
    sign = (-1) ** st.bar
    return (1 + sign) // 2 if plus else (1 - sign) // 2
