"""Exact sparse multivariate polynomials over the integers.

The variable universe is fixed.  For each index i >= 1 there is a letter
x_i together with a formal companion xb_i ("x-bar", printed ``xb``), and
a square-root letter s_i with companion sb_i (s_i^2 stands for x_i, see
:func:`map_s_to_x`).  On top of that sits a shift alphabet a_1, a_2, ...
An a_j with j <= 0 is identically zero: constructors annihilate any term
that would mention it, so such a variable never appears in a stored
monomial.

Monomials are compared graded-lexicographically: first by total degree,
ties broken by the canonical variable sequence

    x1, xb1, x2, xb2, ..., s1, sb1, s2, sb2, ..., a1, a2, ...

where a higher exponent on an earlier variable wins.  Text rendering
lists terms in descending monomial order, e.g. ``2*x1*xb1^2 + a3``.

Coefficients are plain Python ints, so overflow is impossible.  Poly
values are immutable (operations return fresh objects) and safe to share
between threads.
"""

from __future__ import annotations

import heapq
from bisect import bisect
from dataclasses import dataclass
from functools import reduce
from math import comb
from typing import Iterable, Mapping, Sequence, Tuple

__all__ = [
    "VarId",
    "Poly",
    "X",
    "XB",
    "S",
    "SB",
    "A",
    "px",
    "pxb",
    "ps",
    "psb",
    "pa",
    "ZERO",
    "ONE",
    "poly_const",
    "poly_var",
    "poly_sum",
    "poly_exact_div",
    "poly_exact_div_inverses",
    "poly_exact_div_inverses_many",
    "poly_reduce_inverses",
    "poly_halve",
    "poly_determinant",
    "poly_substitute",
    "map_s_to_x",
    "eval_integer",
    "poly_to_str",
    "poly_to_json",
    "poly_from_json",
    "parse_var",
    "DivisionNotExact",
    "DivisionByZero",
    "OddCoefficient",
    "NonSquare",
    "OddHalfPower",
    "MissingAssignment",
]


class DivisionNotExact(ArithmeticError):
    """Exact division failed: a nonzero remainder was left over."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class OddCoefficient(ArithmeticError):
    """poly_halve hit a coefficient that is not divisible by 2."""


class NonSquare(ValueError):
    """poly_determinant was given a non-square matrix."""


class OddHalfPower(ArithmeticError):
    """map_s_to_x hit an odd power of an s-variable."""


class MissingAssignment(KeyError):
    """eval_integer was given a point that misses some variable."""


# Variable codes.  Letter block first (x/xb interleaved by index), then the
# s block, then the a block; integer comparison of codes is exactly the
# canonical sequence order.  Codes just below _A_BASE are reserved for the
# identically-zero a_j with j <= 0 (nothing may store them).
_S_BASE = 1 << 20
_A_BASE = 1 << 21
_A_NEG_LOW = _A_BASE - (1 << 19)

_KINDS = ("x", "xb", "s", "sb", "a")


@dataclass(frozen=True)
class VarId:
    """A variable name: kind in {'x','xb','s','sb','a'} plus an index."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind != "a" and self.index < 1:
            raise ValueError(f"{self.kind}-variables are indexed from 1")

    def code(self) -> int:
        k, i = self.kind, self.index
        if k == "x":
            return 2 * i
        if k == "xb":
            return 2 * i + 1
        if k == "s":
            return _S_BASE + 2 * i
        if k == "sb":
            return _S_BASE + 2 * i + 1
        return _A_BASE + i

    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def __str__(self) -> str:
        return self.name()


def X(i: int) -> VarId:
    return VarId("x", i)


def XB(i: int) -> VarId:
    return VarId("xb", i)


def S(i: int) -> VarId:
    return VarId("s", i)


def SB(i: int) -> VarId:
    return VarId("sb", i)


def A(j: int) -> VarId:
    return VarId("a", j)


def parse_var(name: str) -> VarId:
    """Parse a rendered variable name like ``x1``, ``xb2``, ``a3``."""
    for kind in ("xb", "sb", "x", "s", "a"):  # longest prefixes first
        if name.startswith(kind) and name[len(kind):].lstrip("-").isdigit():
            return VarId(kind, int(name[len(kind):]))
    raise ValueError(f"cannot parse variable name {name!r}")


def _var_name(code: int) -> str:
    if code >= _A_BASE:
        return f"a{code - _A_BASE}"
    if code >= _S_BASE:
        i, bar = divmod(code - _S_BASE, 2)
        return f"{'sb' if bar else 's'}{i}"
    i, bar = divmod(code, 2)
    return f"{'xb' if bar else 'x'}{i}"


def _code_to_var(code: int) -> VarId:
    return parse_var(_var_name(code))


# A monomial is a tuple of (code, exponent) pairs, sorted by code, with all
# exponents positive.  The empty tuple is the constant monomial.
Mono = tuple


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    ia = ib = 0
    la, lb = len(a), len(b)
    out = []
    while ia < la and ib < lb:
        ca, ea = a[ia]
        cb, eb = b[ib]
        if ca == cb:
            out.append((ca, ea + eb))
            ia += 1
            ib += 1
        elif ca < cb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _strip(d: dict) -> dict:
    return {m: c for m, c in d.items() if c}


def _poly(terms: dict) -> "Poly":
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    return p


class Poly:
    """An immutable polynomial: mapping from monomial to nonzero int."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        """Canonicalise (code, exponent) pairs given in any order: repeated
        codes merge, zero exponents drop, and terms that land on the same
        monomial add.  A coefficient or exponent that is not an int (bool
        included), or a negative exponent, raises ValueError."""
        clean: dict = {}
        for m, c in (terms or {}).items():
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} is not an int")
            mono: dict = {}
            for code, e in m:
                if type(e) is not int:
                    raise ValueError(f"exponent {e!r} on {_var_name(code)} is not an int")
                if e < 0:
                    raise ValueError(f"negative exponent {e} on {_var_name(code)}")
                if e:
                    mono[code] = mono.get(code, 0) + e
            # A term mentioning a_j with j <= 0 is identically zero.
            if not any(_A_NEG_LOW < code <= _A_BASE for code in mono):
                key = tuple(sorted(mono.items()))
                clean[key] = clean.get(key, 0) + c
        object.__setattr__(self, "terms", _strip(clean))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Poly is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _add(self, other, sign: int) -> "Poly":
        """self + sign * other: the one loop behind ``+`` and ``-``."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + sign * c
            if nc:
                out[m] = nc
            else:
                del out[m]
        return _poly(out)

    def __add__(self, other) -> "Poly":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self._add(other, -1)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mm = _mono_mul(m1, m2)
                nc = get(mm, 0) + c1 * c2
                if nc:
                    out[mm] = nc
                else:
                    del out[mm]
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Poly":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("Poly exponent must be a non-negative int")
        result = ONE
        for _ in range(exp):
            result = result * self
        return result

    def variables(self) -> set:
        """All VarIds that occur in some monomial."""
        codes = set()
        for m in self.terms:
            for code, _ in m:
                codes.add(code)
        return {_code_to_var(c) for c in codes}

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)})"


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return poly_const(value)
    return NotImplemented


ZERO = _poly({})
ONE = _poly({(): 1})


def poly_const(c: int) -> Poly:
    return _poly({(): c}) if c else ZERO


def poly_var(v: VarId) -> Poly:
    if v.kind == "a" and v.index <= 0:
        return ZERO
    return _poly({((v.code(), 1),): 1})


def px(i: int) -> Poly:
    return poly_var(X(i))


def pxb(i: int) -> Poly:
    return poly_var(XB(i))


def ps(i: int) -> Poly:
    return poly_var(S(i))


def psb(i: int) -> Poly:
    return poly_var(SB(i))


def pa(j: int) -> Poly:
    return poly_var(A(j))


def poly_sum(polys: Iterable[Poly]) -> Poly:
    """The sum of the polynomials, accumulated in place in one dict.

    Equal to folding ``+`` from ZERO, but each term is added once instead
    of the running sum being copied at every step.
    """
    out: dict = {}
    get = out.get
    for p in polys:
        for m, c in p.terms.items():
            nc = get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                del out[m]
    return _poly(out)


def _codes_and_degree(p: Poly, codes: set) -> int:
    """Add the variable codes of p to ``codes``; return p's total degree."""
    deg = 0
    for m in p.terms:
        d = 0
        for code, e in m:
            codes.add(code)
            d += e
        if d > deg:
            deg = d
    return deg


class _Layout:
    """A packed-exponent layout shared by every step of one computation.

    After Monagan and Pearce, "Polynomial division using dynamic arrays,
    heaps, and packed exponent vectors" (CASC 2007): the fields, in
    ascending code order, fill the int from the most significant down,
    and the total degree takes one field above all of them.  Multiplying
    two monomials adds their ints.

    A layout has one of two modes, chosen by what its caller computes:

    formal
        One field per letter, so x_i and xb_i are independent.  Public
        ``poly_determinant`` and ``poly_exact_div`` use it: they work in
        the free ring, where x1*xb1 is a monomial of its own.
    paired
        One field per inverse pair (x_i/xb_i, s_i/sb_i) and one per
        a-letter.  xb_i packs as minus the unit of x_i, degree field
        included, so a field holds the net exponent e(x_i) - e(xb_i) and
        x_i*xb_i cancels inside the add that multiplies two monomials.
        Packing adds colliding terms, so packing is the reduction of
        ``poly_reduce_inverses``, and every product and sum formed on the
        ints is already reduced.  Every route's minors
        (``_maximal_minors``) use it: Jacobi-Trudi's for its two
        factors (``_minors(rows, paired=True)``), the ratio routes'
        through their packed tables (``_separable_table``) and
        ``_det_separable``; so do the Weyl quotients
        (``_weyl_quotient``), ``group_tableau_sum``,
        ``poly_exact_div_inverses`` and ``_det_cofactor(rows,
        paired=True)``, which the tests hold route determinants to.

    Every field is ``degree.bit_length() + 1`` bits wide.  A monomial is
    the int sum of e_k * 2^(shift of field k), with a signed digit e_k in
    a paired layout.  Unpacking adds a constant bias of half = 2^(width-1)
    per field; when every |e_k| <= ``degree`` < half, each field of the
    biased int holds e_k + half, in [1, 2*half - 1], with no borrow or
    carry between fields, and reading it back and subtracting half gives
    e_k.  The bias is the same in both modes, which differ only in which
    letters share a field; a formal layout's digits are never negative.

    The bound holds for every monomial whose total degree is at most
    ``degree``: then each exponent, each net exponent, and the degree
    field are at most ``degree`` in absolute value.  Each caller states
    why its monomials stay within the bound it passes.

    For bar-free monomials (every digit >= 0) both modes give the same
    int as the graded packing of the plain letters, and its order is
    exactly the graded-lex order.  A formal layout's digits are never
    negative, so its int order is the canonical text order for every
    monomial: rendering (``_descending``) sorts on it, one int per term.
    The one division kernel,
    ``_divide_packed``, works on such ints only: the free ring's, the
    cleared operands of ``poly_exact_div_inverses``, and the Weyl
    quotients' alternants in the orbit letters z_i.  Its guard test:
    every field's low bits hold any value up to ``degree`` and its top
    bit is a guard bit; a difference m - t is a monomial exactly when it
    sets no bit of ``guard``: a field that goes below zero borrows into
    its own guard bit, and a total degree below zero makes the int
    negative, which sets the guard bit of the degree field
    (|m - t| < 2^(that bit), because t's degree is at most ``degree``).
    """

    __slots__ = ("shifts", "unit", "guard", "field", "half", "bias", "cut", "high")

    def __init__(self, codes: Iterable[int], degree: int, paired: bool = False):
        if paired:
            codes = {code - code % 2 if code < _A_NEG_LOW else code for code in codes}
        codes = sorted(codes)
        width = degree.bit_length() + 1
        top = len(codes) * width
        self.shifts = [(code, top - (k + 1) * width) for k, code in enumerate(codes)]
        # Adding e * unit[code] raises that exponent and the degree field by e.
        self.unit = {code: (1 << sh) | (1 << top) for code, sh in self.shifts}
        if paired:
            for code, _ in self.shifts:
                if code < _A_NEG_LOW:
                    self.unit[code + 1] = -self.unit[code]
        fields = range(len(codes) + 1)
        self.guard = sum(1 << (k * width + width - 1) for k in fields)
        self.field = (1 << width) - 1
        self.half = 1 << (width - 1)
        self.bias = sum(self.half << (k * width) for k in fields)
        # to_poly unpacks the fields above and below ``cut`` apart: the
        # letter fields and the a-fields, or two halves when all are of one kind.
        seam = sum(code >= _A_NEG_LOW for code in codes)
        self.cut = (seam if 0 < seam < len(codes) else len(codes) // 2) * width
        self.high = (1 << (top - self.cut)) - 1

    def _digits(self, u: int, shifts) -> Mono:
        """The monomial of the fields ``shifts`` of a biased int."""
        field, half = self.field, self.half
        out = []
        for code, sh in shifts:
            e = ((u >> sh) & field) - half
            if e > 0:
                out.append((code, e))
            elif e:
                out.append((code + 1, -e))
        return tuple(out)

    def pack_terms(self, p: Poly) -> dict:
        """p's terms packed; colliding monomials (paired layouts) add up."""
        unit = self.unit
        out: dict = {}
        get = out.get
        for m, c in p.terms.items():
            v = 0
            for code, e in m:
                v += e * unit[code]
            out[v] = get(v, 0) + c
        if len(out) < len(p.terms):
            return {v: c for v, c in out.items() if c}
        return out

    @classmethod
    def for_rows(cls, rows: Iterable[Iterable[Poly]], paired: bool = False) -> "_Layout":
        """A layout for products that take at most one entry from each row.

        It holds the codes of every entry, and its degree bound is the sum
        over rows of the row's largest entry degree (0 for an empty row):
        such a product, and any sum of such products, has total degree at
        most that, so no field overflows.
        """
        codes: set = set()
        degree = sum(max((_codes_and_degree(f, codes) for f in row), default=0) for row in rows)
        return cls(codes, degree, paired)

    @classmethod
    def for_products(cls, groups: Iterable[Iterable[Poly]], paired: bool = False) -> Tuple["_Layout", list]:
        """The layout ``for_rows`` gives the groups, and every group's
        factors packed under it, in order."""
        groups = [list(g) for g in groups]
        layout = cls.for_rows(groups, paired)
        return layout, [[layout.pack_terms(f) for f in g] for g in groups]

    @staticmethod
    def mul_add(out: dict, a: dict, b: dict, scale: int = 1) -> None:
        """Add scale * a * b into ``out``, each monomial product one int add.

        Loops over ``a`` outside, so pass the shorter operand as ``a``.
        Zero coefficients may stay in ``out``.
        """
        get = out.get
        for m1, c1 in a.items():
            c1 *= scale
            for m2, c2 in b.items():
                mm = m1 + m2
                out[mm] = get(mm, 0) + c1 * c2

    @classmethod
    def product(cls, factors: Iterable[dict]) -> dict:
        """The product of packed factors (the constant 1 for none), with
        the cancelled zeros dropped after every factor."""
        acc = {0: 1}
        for f in factors:
            out: dict = {}
            cls.mul_add(out, f, acc)
            acc = {m: c for m, c in out.items() if c}
        return acc

    def expand_orbits(self, terms: dict) -> dict:
        """Packed ``terms`` in the orbit letters z_i = y_i + yb_i, one per
        field, read in the y-letters: each z_i^k expands binomially as
        sum_j C(k, j) * y_i^(k - 2j), with y_i^(-e) meaning yb_i^e.

        For a paired layout whose every field is an inverse pair's, holding
        bar-free ints; the expansion keeps every net exponent, and the net
        degree, within the z-degree, so the layout's bound still holds.
        """
        for code, sh in self.shifts:
            u = self.unit[code]
            out: dict = {}
            for v, c in terms.items():
                k = (((v + self.bias) >> sh) & self.field) - self.half
                for j in range(k + 1):
                    w = v - 2 * j * u
                    out[w] = out.get(w, 0) + c * comb(k, j)
            terms = out
        return terms

    def to_poly(self, terms: dict, offset: int = 0) -> Poly:
        """Unpack every term with a nonzero coefficient, each monomial
        first multiplied by the packed ``offset``.  Monomials share their
        letter part and their a-part (a layout's two halves, when it has
        only one kind of field) far more often than they repeat whole, so
        each part is unpacked once and cached."""
        cut, high, low = self.cut, self.high, (1 << self.cut) - 1
        digits = self._digits
        above = [f for f in self.shifts if f[1] >= cut]
        below = [f for f in self.shifts if f[1] < cut]
        offset += self.bias
        highs: dict = {}
        lows: dict = {}
        out = {}
        for v, c in terms.items():
            if not c:
                continue
            u = v + offset
            h = (u >> cut) & high
            mh = highs.get(h)
            if mh is None:
                mh = highs[h] = digits(h << cut, above)
            lo = u & low
            ml = lows.get(lo)
            if ml is None:
                ml = lows[lo] = digits(lo, below)
            out[mh + ml] = c
        return _poly(out)


def _divide_packed(rem: dict, divisor: dict, layout: _Layout) -> dict:
    """Packed quotient of rem by divisor, both under ``layout``; ``rem``
    is consumed as the remainder.  The one division kernel: public
    ``poly_exact_div`` and ``poly_exact_div_inverses`` and the Weyl
    quotients (``characters._weyl_quotient``) all divide here.

    Classic leading-term elimination in the graded-lex order (Johnson,
    "Sparse polynomial arithmetic", 1974) on the layout's packed ints: a
    lazy max-heap of the remainder's ints yields its current leading
    term, so the loop costs roughly (quotient terms) x (divisor terms)
    heap operations.  Each quotient term must pass the layout's guard
    test and divide the coefficient; the largest remainder term that
    lead(divisor) does not divide raises DivisionNotExact, naming that
    term and lead(divisor).

    No overflow, given that the layout bounds rem and divisor: the
    remainder starts as rem, and each monomial added later is t*m_q for a
    divisor term m_q, with t*m_q < t*lead(divisor) = m, the term being
    eliminated, so by induction
    every remainder monomial, and every quotient monomial t, is at most
    lead(rem) in the graded order and within the layout's degree bound.
    """
    lq = max(divisor)
    cq = divisor[lq]
    # m * (m_q / lead(q)) as one add; the field-wise sum never overflows.
    offsets = [(mq - lq, c) for mq, c in divisor.items() if mq != lq]
    guard = layout.guard
    heap = [-m for m in rem]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quot: dict = {}
    while heap:
        m = -pop(heap)
        c = rem.pop(m, 0)
        if not c:
            continue  # stale entry
        tm = m - lq
        if tm & guard or c % cq:
            raise DivisionNotExact(
                f"remainder nonzero: leading term {layout.to_poly({m: c})} "
                f"is not divisible by {layout.to_poly({lq: cq})}"
            )
        tc = c // cq
        quot[tm] = tc  # the lead product tm*lead(q) cancels m exactly
        for off, c2 in offsets:
            mm = m + off
            nc = rem.get(mm, 0) - tc * c2
            if nc:
                if mm not in rem:
                    push(heap, -mm)
                rem[mm] = nc
            else:
                del rem[mm]
    return quot


def poly_exact_div(p: Poly, q: Poly) -> Poly:
    """Divide p by q, raising DivisionNotExact unless q divides p exactly.

    One call of the division kernel ``_divide_packed`` under the formal
    ``_Layout.for_rows`` of one row [p, q], whose degree bound D is the
    larger total degree of p and q.  That bound holds for every monomial
    the division touches: each remainder and quotient monomial is at most
    lead(p) in the graded order, so its total degree is at most
    deg p <= D.  p and q are packed once and the quotient is unpacked
    once, at the end.
    """
    if not q.terms:
        raise DivisionByZero("division by the zero polynomial")
    if not p.terms:
        return ZERO
    layout = _Layout.for_rows([[p, q]])
    return layout.to_poly(_divide_packed(layout.pack_terms(p), layout.pack_terms(q), layout))


def poly_reduce_inverses(p: Poly) -> Poly:
    """Cancel matched inverse-pair letters monomial by monomial.

    The barred letters denote reciprocals of their plain partners
    (xb_i = 1/x_i, and sb_i = 1/s_i at the half-power level), so inside a
    monomial x_i^e * xb_i^f collapses to x_i^(e-f) (or xb_i^(f-e)); like
    monomials are collected afterwards.  The result is the canonical
    representative with at most one letter of each inverse pair per
    monomial.  The a-letters are untouched.  Idempotent.
    """
    out: dict = {}
    for m, c in p.terms.items():
        exps = dict(m)
        changed = False
        for code in list(exps):
            if code % 2 == 0 and code < _A_NEG_LOW:
                t = min(exps.get(code, 0), exps.get(code + 1, 0))
                if t:
                    exps[code] -= t
                    exps[code + 1] -= t
                    changed = True
        mono = tuple(sorted((k, e) for k, e in exps.items() if e)) if changed else m
        nc = out.get(mono, 0) + c
        if nc:
            out[mono] = nc
        else:
            del out[mono]
    return _poly(out)


def poly_exact_div_inverses(p: Poly, q: Poly) -> Poly:
    """Exact division treating barred letters as formal reciprocals.

    Both operands are reduced modulo the pairing (see
    ``poly_reduce_inverses``); the barred letters are then cleared by
    multiplying through with plain-letter powers (legal since a matched
    pair is 1), the bar-free polynomials are divided exactly, and the
    compensating power is folded back in.  The quotient is returned in
    reduced form.  Raises DivisionNotExact when no quotient exists even
    granting the inverse relation.

    One paired ``_Layout`` serves the step: packing reduces, clearing is
    one add per int, the cleared operands go to the division kernel
    ``_divide_packed`` as they are, and the compensation is folded into
    the unpack.
    With D the larger total degree of p and q, s the degree of q and
    ``plain`` the product of one plain letter per inverse pair, p is
    cleared by plain^(D + 2s) and q by plain^s.  Net exponents lie in
    [-D, D] for p and [-s, s] for q, and the lowest net exponent of a
    product is the sum of its factors' lowest, so the quotient's are
    >= -D - s: every cleared operand and the cleared quotient
    Q * plain^(D + s) are bar-free, and the bar-free division is exact
    whenever Q exists.  With P inverse pairs, no monomial of the step
    has total degree above D + P(D + 2s), the layout's bound.
    """
    codes: set = set()
    s = _codes_and_degree(q, codes)
    deg = max(_codes_and_degree(p, codes), s)
    pairs = len({code - code % 2 for code in codes if code < _A_NEG_LOW})
    layout = _Layout(codes, deg + pairs * (deg + 2 * s), paired=True)
    plain = sum(layout.unit[code] for code, _ in layout.shifts if code < _A_NEG_LOW)
    divisor = {v + s * plain: c for v, c in layout.pack_terms(q).items()}
    if not divisor:
        raise DivisionByZero("division by the zero polynomial")
    clear = (deg + 2 * s) * plain
    quot = _divide_packed({v + clear: c for v, c in layout.pack_terms(p).items()}, divisor, layout)
    return layout.to_poly(quot, -(deg + s) * plain)


def poly_exact_div_inverses_many(p: Poly, divisors) -> Poly:
    """Divide p by every divisor in turn, modulo the reciprocal pairing:
    the fold of ``poly_exact_div_inverses`` over the divisors, from p
    (which is returned as it is when there are none)."""
    return reduce(poly_exact_div_inverses, divisors, p)


def _sum_of_split_products(pairs: Iterable[Tuple[Poly, Poly]]) -> Poly:
    """The sum of x * a over the pairs (x, a), where every letter of x
    sorts before every letter of a (x-letters before a-letters), so each
    product monomial is the concatenation of the two.

    The emission of the ratio routes' sum_E chi_E(x) * c_E(a)
    (``characters._ratio_character``) and of Jacobi-Trudi's
    sum_S chi_S(x) * c_S(a) (``characters.char_jacobi_trudi``).
    """
    out: dict = {}
    for x, a in pairs:
        for ma, ca in a.terms.items():
            for mx, cx in x.terms.items():
                m = mx + ma
                out[m] = out.get(m, 0) + cx * ca
    return _poly(_strip(out))


def _a_free_part(p: Poly) -> Poly:
    """The terms of p that hold no a-letter: p at a = 0.  A monomial holds
    one exactly when its last code, the largest, is an a-code."""
    return _poly({m: c for m, c in p.terms.items() if not m or m[-1][0] < _A_NEG_LOW})


def poly_halve(p: Poly) -> Poly:
    """Divide every coefficient by 2 exactly; an odd one raises
    OddCoefficient."""
    out = {}
    for m, c in p.terms.items():
        if c % 2:
            raise OddCoefficient(f"coefficient {c} of {poly_to_str(_poly({m: 1}))} is odd")
        out[m] = c // 2
    return _poly(out)


def _separable_table(rows: Sequence[Sequence[Poly]], layout: _Layout) -> Tuple[list, list]:
    """Split each entry of a row-separable matrix F as
    F[i][j] = sum_e C[j][e] * y_i^e, packed under the paired ``layout``.

    Row-separable means: row i's entries use, besides the a-letters, only
    the letters of its own pair (y_i = x_i, or s_i for the raw
    odd-orthogonal route), e is the net exponent y_i^e(yb_i)^(-e), and the
    a-polynomials C[j][e] are the same in every row.  A row that uses
    another pair's letter, or whose table C differs from the first row's,
    raises ValueError; there is no fallback.

    Returns the table, one dict per column of F mapping e to the
    a-polynomial C[j][e] as {packed a-monomial: coefficient} (zero-free),
    and per row the packed unit of its plain letter y_i (0 for a row of
    constants).  Packing is one-to-one on a-monomials, so tables compare
    as the a-polynomials do.  ``layout`` must hold the entries' codes and
    bound the row sums (``_Layout.for_rows``), as the table's minors need.
    """
    unit = layout.unit
    table = None
    units = []
    for r, row in enumerate(rows):
        own = (2 * (r + 1), _S_BASE + 2 * (r + 1))
        y = None
        split = []
        for f in row:
            # net exponent e -> {packed a-monomial v: coefficient}
            col: dict = {}
            for m, c in f.terms.items():
                e = v = 0
                for code, x in m:
                    if code >= _A_NEG_LOW:
                        v += x * unit[code]
                        continue
                    if code - code % 2 != y:
                        if y is not None or code - code % 2 not in own:
                            raise ValueError(
                                f"not row-separable: row {r + 1} uses {_var_name(code)}, "
                                f"outside its own pair"
                            )
                        y = code - code % 2
                    e += -x if code % 2 else x
                by_a = col.setdefault(e, {})
                by_a[v] = by_a.get(v, 0) + c
            split.append(
                {e: nz for e, by_a in col.items() if (nz := {v: c for v, c in by_a.items() if c})}
            )
        if table is None:
            table = split
        elif split != table:
            raise ValueError(
                f"not row-separable: the coefficient table of row {r + 1} differs from row 1's"
            )
        units.append(0 if y is None else unit[y])
    return table or [], units


def _maximal_minors(rows: Sequence[Mapping[int, dict]], layout: _Layout) -> dict:
    """The nonzero maximal minors of a matrix, the one Laplace expansion
    behind every determinant here.

    ``rows[j]`` maps each column key e to the nonzero entry in row j and
    column e, packed under ``layout``; E runs over the n-subsets of the
    column keys, n the number of rows, and each minor is keyed by E as
    an ascending tuple.  The expansion goes down the rows, bottom-up over
    column subsets: level r + 1 grows from level r's nonzero minors only,
    so at most two levels are held at once.  Each minor is a sum of
    products of one entry per row, so ``layout`` must bound the sum over
    rows of the row's largest entry degree.

    The ratio routes pass a coefficient table, whose rows are its columns
    C[j] keyed by exponent (``_det_separable``, ``_ratio_character``);
    Jacobi-Trudi's factors P and Q^T, keyed by their inner index, and
    ``_det_cofactor``'s square matrix, keyed by column index, come in as
    ``Poly`` rows through ``_minors``.
    """
    minors: dict = {(): {0: 1}}
    for j, row in enumerate(rows):
        grown: dict = {}
        for cols_e, minor in minors.items():
            for e, coeffs in row.items():
                if e in cols_e:
                    continue
                k = bisect(cols_e, e)
                out = grown.setdefault(cols_e[:k] + (e,) + cols_e[k:], {})
                layout.mul_add(out, coeffs, minor, -1 if (j + k) % 2 else 1)
        minors = {
            cols_e: nz for cols_e, out in grown.items() if (nz := {v: c for v, c in out.items() if c})
        }
    return minors


def _det_separable(table: Sequence[Mapping[int, dict]], units: Sequence[int], layout: _Layout) -> dict:
    """The determinant of a row-separable matrix by Cauchy-Binet, packed
    under the paired ``layout``, reduced modulo the pairing.

    ``table`` and ``units`` are the matrix as ``_separable_table`` splits
    and packs it, F[i][j] = sum_e C[j][e] * y_i^e.  Then F = X * C^T with
    X[i][e] = y_i^e, and

        det F = sum_E det C[:, E] * det X[:, E]

    over the n-subsets E of the exponents.  The maximal minors det C[:, E]
    come from ``_maximal_minors``.  det X[:, E] is the alternant
    sum_sigma sign(sigma) prod_i y_i^(E_sigma(i)), so each minor is added
    at each x^(E o sigma), one int add per term.  These monomials are
    distinct across all E and sigma, so nothing cancels and the cost is
    about the size of the determinant.

    ``layout`` must bound the matrix's row sums (``_Layout.for_rows``):
    every term formed is a sub-product of one entry term per row and per
    column.  The Weyl quotients (``characters._weyl_quotient``) pass their
    integer basis table and the layout that they divide and expand under,
    so their alternants are never unpacked before the division.
    """
    n = len(units)
    minors = _maximal_minors(table, layout)
    # Every permutation with its parity: inserting k at position pos
    # puts it before k - pos smaller values.
    signed = [((), 0)]
    for k in range(n):
        signed = [
            (perm[:pos] + (k,) + perm[pos:], (odd + k - pos) % 2)
            for perm, odd in signed
            for pos in range(k + 1)
        ]
    det: dict = {}
    for cols_e, minor in minors.items():
        negated = {v: -c for v, c in minor.items()}
        for perm, odd in signed:
            xpart = 0
            for p, u in zip(perm, units):
                xpart += cols_e[p] * u
            for v, c in (negated if odd else minor).items():
                det[v + xpart] = c
    return det


def _minors(rows: Sequence[Mapping], paired: bool = False) -> dict:
    """The nonzero maximal minors of a matrix whose rows map column keys
    to ``Poly`` entries, keyed by ascending tuples of column keys, by
    ``_maximal_minors``.

    The rows are packed once under ``_Layout.for_rows``, whose bound, the
    sum over rows of the row's largest entry degree, holds for every
    minor: each is a sum of products of one entry from each of some set
    of rows.  Zero entries are skipped, and each minor is unpacked once.
    ``paired`` selects the paired layout (see ``_Layout``), under which
    the minors come out reduced modulo x_i*xb_i = 1 and s_i*sb_i = 1.
    """
    layout = _Layout.for_rows([row.values() for row in rows], paired)
    packed = [{key: v for key, f in row.items() if (v := layout.pack_terms(f))} for row in rows]
    return {cols: layout.to_poly(m) for cols, m in _maximal_minors(packed, layout).items()}


def _det_cofactor(rows: Sequence[Sequence[Poly]], paired: bool = False) -> Poly:
    """The determinant of a square matrix: its one maximal minor
    (``_minors``), with row i keyed by column index, so the minor is
    keyed by every column; a matrix with no nonzero maximal minor gives 0.

    With ``paired`` the determinant comes out reduced, the form the tests
    compare the routes' determinants in; ``poly_determinant``, the one
    caller in the library, keeps the free ring's formal layout.
    """
    return _minors([dict(enumerate(row)) for row in rows], paired).get(tuple(range(len(rows))), ZERO)


def poly_determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials, by Laplace expansion
    at every size (see ``_det_cofactor``).

    The expansion runs on packed exponents under one layout whose degree
    bound is the sum over rows of each row's largest entry degree.  Every
    term of the determinant, of every minor and of every product formed
    on the way is a product of at most one entry per row, so its total
    degree stays within that bound and no packed field overflows.  It
    holds two levels of minors at a time, one per column subset of the
    level's size, so at most C(k, k // 2) per level.
    """
    k = len(rows)
    for row in rows:
        if len(row) != k:
            raise NonSquare(f"matrix is {k} rows but a row has {len(row)} entries")
    return _det_cofactor(rows)


def poly_substitute(p: Poly, mapping: Mapping[VarId, "Poly | int"]) -> Poly:
    """Replace variables by polynomials; unmapped variables pass through."""
    code_map = {}
    for v, val in mapping.items():
        code_map[v.code()] = _coerce(val)

    def images():
        for m, c in p.terms.items():
            keep = []
            factors = []
            for code, exp in m:
                sub = code_map.get(code)
                if sub is None:
                    keep.append((code, exp))
                else:
                    factors.append(sub ** exp)
            term = _poly({tuple(keep): c})
            for f in factors:
                term = term * f
            yield term

    return poly_sum(images())


def map_s_to_x(p: Poly) -> Poly:
    """Rewrite half powers: s_i^2 -> x_i and sb_i^2 -> xb_i.

    The s-letters realise square roots of mutually inverse values
    (s_i^2 = x_i, sb_i^2 = xb_i with x_i*xb_i = 1 at the half-power
    level), so a matched s_i*sb_i pair cancels to 1.  Pairs are cancelled
    and like monomials collected first; an s-power that is still odd
    after that raises OddHalfPower.
    """
    # Pass 1: cancel matched inverse pairs within each monomial, collect.
    # Pass 2: the surviving s-powers must be even; halve them into x-letters.
    out: dict = {}
    for m, c in poly_reduce_inverses(p).terms.items():
        new: dict = {}
        for code, exp in m:
            if _S_BASE <= code < _A_NEG_LOW:
                if exp % 2:
                    raise OddHalfPower(
                        f"odd power {_var_name(code)}^{exp} cannot be mapped to x"
                    )
                code = code - _S_BASE  # s_i -> x_i, sb_i -> xb_i
                exp //= 2
            new[code] = new.get(code, 0) + exp
        mono = tuple(sorted((k, e) for k, e in new.items() if e))
        out[mono] = out.get(mono, 0) + c
    return _poly(_strip(out))


def eval_integer(p: Poly, point: Mapping[VarId, int]) -> int:
    """Evaluate at an integer point covering every variable of p.  A value
    that is not an int (bool included) raises ValueError."""
    values = {}
    for v, val in point.items():
        if type(val) is not int:
            raise ValueError(f"value {val!r} for {v} is not an int")
        values[v.code()] = val
    total = 0
    for m, c in p.terms.items():
        prod = c
        for code, exp in m:
            if code not in values:
                raise MissingAssignment(f"no value for variable {_var_name(code)}")
            prod *= values[code] ** exp
        total += prod
    return total


def _descending(p: Poly) -> list:
    """p's monomials in descending monomial order, sorted on one int per
    term: a formal layout's packed int order is the graded-lex order (see
    ``_Layout``)."""
    unit = _Layout.for_rows([[p]]).unit
    return sorted(p.terms, key=lambda m: sum(e * unit[c] for c, e in m), reverse=True)


def poly_to_str(p: Poly) -> str:
    """Canonical text form: terms in descending monomial order."""
    if not p.terms:
        return "0"
    # Each (code, exponent) piece such as "xb2^3" is built once per call.
    piece = {
        (code, exp): _var_name(code) + (f"^{exp}" if exp > 1 else "")
        for code, exp in {ce for m in p.terms for ce in m}
    }
    terms, parts = p.terms, []
    for m in _descending(p):
        c = terms[m]
        body = "*".join(map(piece.__getitem__, m))
        mag = abs(c)
        core = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        parts.append(("- " if c < 0 else "+ ") + core)
    # The lead term's sign has no space after it, and a "+" none at all.
    lead = parts[0]
    parts[0] = lead[2:] if lead[0] == "+" else "-" + lead[2:]
    return " ".join(parts)


def poly_to_json(p: Poly) -> dict:
    """JSON form: {"terms": [{"coeff": c, "monomial": {"x1": 2, ...}}, ...]}."""
    name = {code: _var_name(code) for code in {code for m in p.terms for code, _ in m}}
    return {
        "terms": [
            {"coeff": p.terms[m], "monomial": {name[code]: exp for code, exp in m}}
            for m in _descending(p)
        ]
    }


def poly_from_json(data: Mapping) -> Poly:
    """Inverse of poly_to_json; the constructor rejects non-int numbers."""
    terms = (
        (tuple((parse_var(v).code(), e) for v, e in t["monomial"].items()), t["coeff"])
        for t in data["terms"]
    )
    return poly_sum(Poly({m: c}) for m, c in terms)
