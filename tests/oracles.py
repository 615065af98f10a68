"""Independent oracles: dimensions of the classical families, and the
reference canonical rendering.

The dimensions are computed straight from the Weyl dimension formula
over the root systems, in exact rational arithmetic, with no use of the
package's polynomial machinery.  Tests compare character evaluations
against these numbers.

The reference renderer orders terms by a graded-lex key built of tuples
and prints every term afresh, with no packed layout; the tests hold
``poly_to_str`` and ``poly_to_json`` to it.
"""

from fractions import Fraction
from typing import Sequence

from flc.polyring import _var_name


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
