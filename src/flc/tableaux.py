"""Group-specific tableaux and their weighted character sums.

A tableau is a filling of the Young diagram of lambda (English
convention) from the group's alphabet:

    GL          1 < 2 < ... < n
    SP, EO      1 < 1~ < 2 < 2~ < ... < n < n~
    OO          1 < 1~ < 2 < 2~ < ... < n < n~ < 0   (0 greatest)

subject to the conditions

    T1  rows weakly increase left to right;
    T2  columns weakly increase top to bottom;
    T3  no letter repeats within a column (0 excepted);
    T4  neither k nor k~ appears below row k         (SP, OO, EO);
    T5  at most one 0 per row                        (OO);
    T6  if row k contains a k, every k~ in that row
        must sit directly below a k                  (EO).

Each condition relates a row only to itself and the row directly above,
so enumerate_tableaux works row by row: a level's rows are the sorted
multisets of its T4 letters (T1) with at most one 0 (T5), one predicate,
fits, says whether a row may sit under another (T2, T3, T6), and the
rows that fit under each (level, row above) are found once per call.

Each cell carries a linear weight from the group's table; the weighted
sums over complete tableau sets reproduce the characters computed by the
determinantal routes, with a multiplicity 2^zeta in the even-orthogonal
case.  The even-orthogonal difference and plus/minus sums reuse the same
tableau set with first-column restrictions and signs.  All of these are
one sum, _packed_tableaux, with a coefficient rule per group.

The sums run on packed exponents (polyring._Layout; Monagan and Pearce,
CASC 2007).  Each call packs every factor _cell_weight gives a cell once,
under one layout whose degree bound is the sum over cells of the largest
factor degree.  Every cell factor is linear (x + a, xb + a, 1 - a, or a
bare letter when the a-index is <= 0), so the bound is at most |lambda|,
and no weight or sum of weights has a term of higher degree.  A weight
is the product of its cells' packed factors, each monomial product one
int add.  group_tableau_sum packs under the paired layout, where x_k and
xb_k share one signed field, so x_k*xb_k cancels inside those adds:
coefficient times weight accumulates in one packed dict that is already
in the reduced normal form of every other character-level value, and is
unpacked once.  weighted_tableaux lists each weight under the formal
layout, as the literal product of its cells, matched pairs kept.
weight() stays the literal Poly product of the cell factors, the oracle
the tests hold the engine to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from typing import Dict, Iterable, Iterator, List, Tuple

from .characters import _RATIO_GROUPS, Group, make_partition, partition_length
from .polyring import ONE, Poly, _Layout, pa, poly_reduce_inverses, poly_sum, px, pxb

__all__ = [
    "Entry",
    "ZERO_ENTRY",
    "Tableau",
    "TabStats",
    "InvalidShape",
    "enumerate_tableaux",
    "weight",
    "tab_stats",
    "weighted_tableaux",
    "weighted_sum",
    "group_tableau_sum",
    "tableau_sum",
    "diff_tableau_sum",
    "so_even_tableau_sum",
    "is_diff_tableau",
    "so_even_coefficient",
    "tableau_to_text",
    "tableau_to_json",
]

_EO_FAMILY = (Group.EO, Group.EO_DIFF, Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS)


class InvalidShape(ValueError):
    """lambda does not have the full n nonzero parts the operation needs."""


@dataclass(frozen=True)
class Entry:
    """One tableau letter: k or k~ (barred), or the 0 letter (k == 0)."""

    k: int
    barred: bool = False

    def __post_init__(self) -> None:
        if self.k < 0 or (self.k == 0 and self.barred):
            raise ValueError("entry is k>=1 (optionally barred) or the 0 letter")

    def is_zero(self) -> bool:
        return self.k == 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"{self.k}~" if self.barred else str(self.k)


ZERO_ENTRY = Entry(0)


@dataclass(frozen=True)
class Tableau:
    shape: tuple
    rows: tuple  # tuple of tuples of Entry

    def __str__(self) -> str:
        return tableau_to_text(self)


@dataclass(frozen=True)
class TabStats:
    zeta: int
    bar: int


def _alphabet(group: Group, n: int) -> List[Entry]:
    if group is Group.GL:
        return [Entry(k) for k in range(1, n + 1)]
    out: List[Entry] = []
    for k in range(1, n + 1):
        out.append(Entry(k))
        out.append(Entry(k, barred=True))
    if group is Group.OO:
        out.append(ZERO_ENTRY)
    return out


def enumerate_tableaux(group: Group, n: int, lam_parts: Iterable[int]) -> List[Tableau]:
    """All tableaux for the group, rank and shape, in row-major lex order.

    The even-orthogonal difference and plus/minus groups share the EO
    tableau set; their extra first-column selections happen in the
    summing operations.
    """
    lam = make_partition(lam_parts, n)
    shape = tuple(p for p in lam if p)
    eo_rules = group in _EO_FAMILY
    alphabet = _alphabet(Group.EO if eo_rules else group, n)
    # A row is a tuple of alphabet positions: k at 2k-2 and k~ at 2k-1
    # outside GL, and the OO 0 last.
    zero = alphabet.index(ZERO_ENTRY) if group is Group.OO else None

    def level_rows(k: int, width: int) -> List[Tuple[tuple, tuple]]:
        """(positions, entries) of the level-k rows under T1, T4, T5, in lex order."""
        lo = 0 if group is Group.GL else 2 * k - 2  # T4
        return [
            (row, tuple(map(alphabet.__getitem__, row)))
            for row in combinations_with_replacement(range(lo, len(alphabet)), width)  # T1
            if row.count(zero) < 2  # T5
        ]

    def fits(above: tuple, row: tuple, k: int) -> bool:
        """T2, T3 and T6 between a row at level k and the row above it."""
        for a, r in zip(above, row):
            if r != zero and (a == zero or a >= r):
                return False  # T2 + T3: a letter only strictly below a letter; 0 below anything
        if eo_rules and 2 * k - 2 in row:  # T6: with a k in row k, every k~ sits below a k
            return all(a == 2 * k - 2 for a, r in zip(above, row) if r == 2 * k - 1)
        return True

    candidates = [level_rows(k, w) for k, w in enumerate(shape, start=1)]
    successors: Dict[Tuple[int, tuple], List[Tuple[tuple, tuple]]] = {}
    out: List[Tableau] = []

    def extend(k: int, above: tuple, rows: tuple) -> None:
        if k > len(shape):
            out.append(Tableau(shape, rows))
            return
        fitting = successors.get((k, above))
        if fitting is None:
            fitting = successors[k, above] = [
                c for c in candidates[k - 1] if fits(above, c[0], k)
            ]
        for row, entries in fitting:
            extend(k + 1, row, rows + (entries,))

    # Level 1 sits under a virtual row of position -1: below it T2 and T3
    # always hold, and T6 rules out a 1~ beside a 1.
    extend(1, (-1,) * max(shape, default=0), ())
    return out


def _cell_weight(e: Entry, i: int, j: int, group: Group, n: int) -> Poly:
    """Weight of entry e in cell (i, j), 1-based, for the given group."""
    if e.is_zero():
        return ONE - pa(n + 1 + j - i)
    k = e.k
    if group is Group.GL:
        return px(k) + pa(k + j - i)
    if group is Group.SP:
        if e.barred:
            return pxb(k) + pa(2 * k - n + j - i)
        return px(k) + pa(2 * k - 1 - n + j - i)
    if group is Group.OO:
        if e.barred:
            return pxb(k) + pa(2 * k + 1 - n + j - i)
        return px(k) + pa(2 * k - n + j - i)
    # even-orthogonal family (EO, EO_DIFF, SO_EVEN_PLUS, SO_EVEN_MINUS)
    if e.barred:
        return pxb(k) + pa(2 * k - n + j - i)
    return px(k) + pa(2 * k - 1 - n + j - i + (1 if i == k else 0))


def weight(t: Tableau, group: Group, n: int) -> Poly:
    """Product of the cell weights (without any 2^zeta multiplicity)."""
    total = ONE
    for i, row in enumerate(t.rows, start=1):
        for j, e in enumerate(row, start=1):
            total = total * _cell_weight(e, i, j, group, n)
    return total


def _zeta_raw(t: Tableau) -> int:
    """Number of k with T_{k-1,1} = k above T_{k,1} = k~ in column 1."""
    count = 0
    for k in range(2, len(t.rows) + 1):
        if t.rows[k - 2][0] == Entry(k) and t.rows[k - 1][0] == Entry(k, barred=True):
            count += 1
    return count


def _bar_count(t: Tableau) -> int:
    return sum(1 for row in t.rows if row[0].barred)


def tab_stats(t: Tableau, group: Group) -> TabStats:
    """First-column statistics; the 2^zeta multiplicity only exists for
    the even-orthogonal family, so zeta reads 0 elsewhere."""
    z = _zeta_raw(t) if group in _EO_FAMILY else 0
    return TabStats(zeta=z, bar=_bar_count(t))


def is_diff_tableau(t: Tableau, n: int) -> bool:
    """First column reads k or k~ at every level k = 1..n."""
    if len(t.rows) != n:
        return False
    return all(t.rows[k - 1][0].k == k for k in range(1, n + 1))


def so_even_coefficient(t: Tableau, plus: bool) -> int:
    """Multiplicity of an even-orthogonal tableau in the so(2n) plus or
    minus sum: 2^(zeta-1) when zeta >= 1, else 1 or 0 by the parity of
    the barred first-column entries."""
    z = _zeta_raw(t)
    if z >= 1:
        return 1 << (z - 1)
    sign = (-1) ** _bar_count(t)
    return (1 + sign) // 2 if plus else (1 - sign) // 2


def _packed_tableaux(
    group: Group, n: int, lam_parts: Iterable[int], paired: bool
) -> Tuple[_Layout, Iterator[Tuple[Tableau, int, dict]]]:
    """The engine: a layout and the (tableau, coefficient, packed weight)
    triples of the group's sum, packed weights under that layout, which
    is paired or formal as ``paired`` says (see polyring._Layout).

    The coefficient rules, the only place they are written down:

        GL, SP, OO, EO           2^zeta
        EO_DIFF                  (-1)^bar, first column k or k~ at level k
        SO_EVEN_PLUS/MINUS       so_even_coefficient, when lambda has n
                                 nonzero parts; otherwise there is no split
                                 and the plain o(2n) rule 2^zeta applies

    Tableaux with coefficient 0 are left out.  Raises InvalidShape for
    EO_DIFF with fewer than n nonzero parts.  Every factor _cell_weight
    gives a cell is packed once, by _Layout.for_products with one group
    of factors per cell, so the degree bound is the sum over cells of the
    cell's largest factor degree, i.e. at most |lambda|; each weight
    takes one factor per cell, so no term of a weight, or of a sum of
    weights, exceeds it.
    """
    lam = make_partition(lam_parts, n)
    full = partition_length(lam) == n
    if group is Group.EO_DIFF and not full:
        raise InvalidShape(f"difference sum needs n={n} nonzero parts, got {lam}")
    split = full and group in (Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS)
    tableaux = enumerate_tableaux(group, n, lam)
    alphabet = _alphabet(Group.EO if group in _EO_FAMILY else group, n)
    layout, packed = _Layout.for_products(
        (
            [_cell_weight(e, i, j, group, n) for e in alphabet]
            for i, w in enumerate(lam, start=1)
            for j in range(1, w + 1)
        ),
        paired,
    )
    cells = [dict(zip(alphabet, factors)) for factors in packed]

    def triples() -> Iterator[Tuple[Tableau, int, dict]]:
        for t in tableaux:
            if group is Group.EO_DIFF:
                c = (-1) ** _bar_count(t) if is_diff_tableau(t, n) else 0
            elif split:
                c = so_even_coefficient(t, group is Group.SO_EVEN_PLUS)
            else:
                c = 1 << tab_stats(t, group).zeta
            if c:
                yield t, c, layout.product(
                    cell[e] for cell, e in zip(cells, chain.from_iterable(t.rows))
                )

    return layout, triples()


def weighted_tableaux(
    group: Group, n: int, lam_parts: Iterable[int]
) -> Iterator[Tuple[Tableau, int, Poly]]:
    """Yield (tableau, coefficient, weight) for every tableau in the group's sum.

    The engine's triples with each weight unpacked; see _packed_tableaux
    for the coefficient rules.  For EO_DIFF with fewer than n nonzero
    parts, iterating raises InvalidShape.  The triples are yielded, not
    listed, so a caller never needs to hold every weight at once.
    """
    layout, triples = _packed_tableaux(group, n, lam_parts, paired=False)
    for t, c, w in triples:
        yield t, c, layout.to_poly(w)


def weighted_sum(triples: Iterable[Tuple[Tableau, int, Poly]]) -> Poly:
    """Sum of coefficient * weight over weighted_tableaux triples, reduced."""
    return poly_reduce_inverses(poly_sum(c * w for _, c, w in triples))


def group_tableau_sum(group: Group, n: int, lam_parts: Iterable[int]) -> Poly:
    """The weighted tableau sum of any of the seven groups.

    The engine's weights are formed and summed on the paired layout, so
    the sum comes out reduced and is unpacked once.  Raises InvalidShape
    for EO_DIFF with fewer than n nonzero parts; SO_EVEN_PLUS/MINUS with
    fewer than n nonzero parts get the plain 2^zeta sum.
    """
    layout, triples = _packed_tableaux(group, n, lam_parts, paired=True)
    total = layout.linear_combination((c, w) for _, c, w in triples)
    return layout.to_poly(total)


def tableau_sum(group: Group, n: int, lam_parts: Iterable[int]) -> Poly:
    """Sum of 2^zeta * weight over the group's tableaux of shape lambda."""
    if group not in _RATIO_GROUPS:
        raise ValueError(f"no plain tableau sum for group {group}")
    return group_tableau_sum(group, n, lam_parts)


def diff_tableau_sum(n: int, lam_parts: Iterable[int]) -> Poly:
    """Signed sum (-1)^bar * weight over the first-column-restricted
    even-orthogonal tableaux; the difference character o'."""
    return group_tableau_sum(Group.EO_DIFF, n, lam_parts)


def so_even_tableau_sum(n: int, lam_parts: Iterable[int], plus: bool) -> Poly:
    """The irreducible so(2n) character as a weighted tableau sum."""
    lam = make_partition(lam_parts, n)
    if partition_length(lam) < n:
        raise InvalidShape(f"plus/minus split needs n={n} nonzero parts, got {lam}")
    group = Group.SO_EVEN_PLUS if plus else Group.SO_EVEN_MINUS
    return group_tableau_sum(group, n, lam)


def tableau_to_text(t: Tableau) -> str:
    """One row per line; entries space-separated; barred as k~, 0 as 0."""
    return "\n".join(" ".join(str(e) for e in row) for row in t.rows)


def tableau_to_json(t: Tableau) -> list:
    """Rows of entries; a letter is {"k": ..., "barred": ...}, 0 is "zero"."""
    return [
        ["zero" if e.is_zero() else {"k": e.k, "barred": e.barred} for e in row]
        for row in t.rows
    ]
