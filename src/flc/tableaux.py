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
so the conditions are one graph on rows, _row_graph: a level's rows are
the sorted multisets of its T4 letters (T1) with at most one 0 (T5), one
predicate, fits, says whether a row may sit under another (T2, T3, T6),
and the rows that fit under each (level, row above) are found once per
graph.  A row is a tuple of alphabet positions, and the graph holds
nothing else.  One walk, _walk, goes through the graph depth first and
maps each row it meets to its Entry tuple once; enumerate_tableaux
lists the walk, and weighted_tableaux iterates it.

Each cell carries a linear weight from the group's table; the weighted
sums over complete tableau sets reproduce the characters computed by the
determinantal routes, with a multiplicity 2^zeta in the even-orthogonal
case.  The even-orthogonal difference and plus/minus sums reuse the same
tableau set with first-column restrictions and signs.  Every coefficient
rule is local too: a factor of each row that depends only on the first
letters of that row and of the row above (_coefficient_rules).

group_tableau_sum, behind tableau_sum, diff_tableau_sum,
so_even_tableau_sum and the flc tableaux sum line, is the one sum
engine, and it never forms a tableau's weight.  It is a transfer sum
over rows (the transfer-matrix method; Stanley, Enumerative
Combinatorics I, 4.7), taken bottom up: B_k(r), the sum of coefficient
times weight over the rows k, k+1, ... of the tableaux whose row k is
r, is w_k(r) times the fan F(r), the sum of c(r, r') * B_{k+1}(r') over
the rows r' that may sit under r.  Rows share fans, so each is formed
once per distinct set of (r', c), and the character is the sum, over the
fans of level 1, of each fan times the sum of c * w_1 over the level-1
rows that share it.  It runs on packed exponents (polyring._Layout;
Monagan and Pearce, CASC 2007) in the paired mode, where x_k and xb_k
share one signed field, so x_k*xb_k cancels inside the adds that
multiply monomials; the sum comes out in the reduced normal form of
every other character-level value and is unpacked once.  Each call packs
every factor _cell_weight gives a cell once, under one layout whose
degree bound is the sum over cells of the largest factor degree.  Every
cell factor is linear (x + a, xb + a, 1 - a, or a bare letter when the
a-index is <= 0), so the bound is at most |lambda|, and no weight or sum
of weights has a term of higher degree.

weighted_tableaux (the flc tableaux listing) yields each tableau of the
walk with its coefficient and weight() as the walk finds it, so a long
listing is never held whole.  weight() stays the literal Poly product of
the cell factors, matched pairs kept, and with enumerate_tableaux and
tab_stats it is the per-tableau oracle the tests hold the transfer sum
to; the tests write each group's per-tableau coefficient from tab_stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, count, islice
from math import prod
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .characters import _RATIO_GROUPS, Group, make_partition, partition_length
from .polyring import ONE, Poly, _Layout, pa, px, pxb

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
    "group_tableau_sum",
    "tableau_sum",
    "diff_tableau_sum",
    "so_even_tableau_sum",
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


def _row_graph(group: Group, n: int, shape: tuple) -> Tuple[tuple, Callable[[int, tuple], list]]:
    """The conditions T1-T6 as a graph on the rows of a shape (nonzero parts).

    A row is a tuple of alphabet positions: k at 2k-2 and k~ at 2k-1
    outside GL, and the OO 0 last.  Returns (top, successors): top is a
    virtual row of position -1 above level 1, under which T2 and T3 always
    hold and T6 rules out a 1~ beside a 1; successors(k, above) lists the
    level-k rows that may sit under the row ``above`` and that some rows
    below complete to a tableau, in lex order, each list found once per
    graph.  So every row a walk from top reaches lies on a whole tableau,
    and no partial tableau is a dead end.
    """
    eo_rules = group in _EO_FAMILY
    alphabet = _alphabet(group, n)
    zero = alphabet.index(ZERO_ENTRY) if group is Group.OO else None

    def level_rows(k: int, width: int) -> List[tuple]:
        """The level-k rows under T1, T4, T5, in lex order."""
        lo = 0 if group is Group.GL else 2 * k - 2  # T4
        return [
            row
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
    lists: Dict[Tuple[int, tuple], list] = {}

    def successors(k: int, above: tuple) -> list:
        fitting = lists.get((k, above))
        if fitting is None:
            fitting = lists[k, above] = [
                row
                for row in candidates[k - 1]
                if fits(above, row, k) and (k == len(shape) or successors(k + 1, row))
            ]
        return fitting

    return (-1,) * max(shape, default=0), successors


def _walk(group: Group, n: int, lam: tuple) -> Iterator[Tableau]:
    """The tableaux of the padded partition ``lam``, depth first through
    the row graph, in row-major lex order.  Each graph row is mapped to
    its entries once per walk, so tableaux that share a row share its
    entry tuple."""
    shape = tuple(p for p in lam if p)
    top, successors = _row_graph(group, n, shape)
    alphabet = _alphabet(group, n)
    entries: Dict[tuple, tuple] = {}

    def extend(k: int, above: tuple, rows: tuple) -> Iterator[Tableau]:
        if k > len(shape):
            yield Tableau(shape, rows)
            return
        for row in successors(k, above):
            if row not in entries:
                entries[row] = tuple(map(alphabet.__getitem__, row))
            yield from extend(k + 1, row, rows + (entries[row],))

    return extend(1, top, ())


def enumerate_tableaux(group: Group, n: int, lam_parts: Iterable[int]) -> List[Tableau]:
    """All tableaux for the group, rank and shape, in row-major lex order.

    The even-orthogonal difference and plus/minus groups share the EO
    tableau set; their extra first-column selections happen in the
    summing operations.
    """
    return list(_walk(group, n, make_partition(lam_parts, n)))


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


_Rule = Callable[[int, int, int], int]


def _coefficient_rules(group: Group, lam: tuple) -> List[Tuple[int, _Rule]]:
    """The coefficient rules of the sums for the partition ``lam`` (padded
    to the rank), the only place they are written down.

    A rule gives the row at level k a factor rule(k, a, r), where r is the
    position of the row's first letter and a that of the row above (-1 at
    level 1); a tableau's value under a rule is the product of its rows'
    factors.  Its coefficient is the sum of sign * value over the group's
    (sign, rule) pairs, halved when there are two (_half):

        GL, SP, OO           1
        EO                   2 where k opens row k-1 and k~ opens row k,
                             else 1: 2^zeta
        EO_DIFF              (-1)^[row k opens with k~], 0 unless row k
                             opens with k or k~: (-1)^bar on the
                             tableaux whose first column reads k or k~
                             at every level k
        SO_EVEN_PLUS/MINUS   (2^zeta +/- [zeta = 0] (-1)^bar) / 2 when
                             lambda has n nonzero parts; otherwise there
                             is no split and the plain o(2n) rule 2^zeta
                             applies

    Raises InvalidShape for EO_DIFF with fewer than n nonzero parts.
    """
    full = partition_length(lam) == len(lam)
    if group is Group.EO_DIFF and not full:
        raise InvalidShape(f"difference sum needs n={len(lam)} nonzero parts, got {lam}")

    def zeta(k: int, a: int, r: int) -> int:
        return 2 if a == 2 * k - 2 and r == 2 * k - 1 else 1

    def zeta_free_sign(k: int, a: int, r: int) -> int:
        return 0 if a == 2 * k - 2 and r == 2 * k - 1 else 1 - 2 * (r & 1)

    def first_column_sign(k: int, a: int, r: int) -> int:
        return 1 - 2 * (r & 1) if r >> 1 == k - 1 else 0

    if group is Group.EO_DIFF:
        return [(1, first_column_sign)]
    if full and group in (Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS):
        return [(1, zeta), (1 if group is Group.SO_EVEN_PLUS else -1, zeta_free_sign)]
    if group in _EO_FAMILY:
        return [(1, zeta)]
    return [(1, lambda k, a, r: 1)]


def _half(c: int) -> int:
    """c / 2 for the so(2n) split, exact because each tableau's
    2^zeta +/- [zeta = 0] (-1)^bar is even."""
    q, odd = divmod(c, 2)
    if odd:
        raise ArithmeticError(f"so(2n) split of an odd coefficient {c}")
    return q


def weighted_tableaux(
    group: Group, n: int, lam_parts: Iterable[int]
) -> Iterator[Tuple[Tableau, int, Poly]]:
    """Yield (tableau, coefficient, weight) for every tableau in the group's sum.

    The tableaux of enumerate_tableaux, in its order, each with its
    coefficient (see _coefficient_rules) and its weight(); tableaux with
    coefficient 0 are left out.  For EO_DIFF with fewer than n nonzero
    parts, iterating raises InvalidShape.  The walk of the row graph is
    iterated, and the triples yielded, as they are found, so neither the
    tableaux nor their weights are ever held all at once.
    """
    lam = make_partition(lam_parts, n)
    rules = _coefficient_rules(group, lam)
    position = {e: p for p, e in enumerate(_alphabet(group, n))}
    for t in _walk(group, n, lam):
        firsts = [position[row[0]] for row in t.rows]
        aboves = [-1, *firsts]
        c = sum(sign * prod(map(rule, count(1), aboves, firsts)) for sign, rule in rules)
        if len(rules) == 2:
            c = _half(c)
        if c:
            yield t, c, weight(t, group, n)


def _transfer_sum(
    top: tuple,
    successors: Callable[[int, tuple], list],
    levels: List[list],
    rule: _Rule,
    scale: int,
    total: dict,
) -> None:
    """Add scale * the packed sum of value * weight over the row graph's
    tableaux into ``total``, bottom up.

    B_k(r), the sum of value * weight over the rows k, k+1, ... of the
    tableaux whose row k is r, is w_k(r) * F(r), where the fan F(r) is
    the sum of rule(k+1, r[0], r'[0]) * B_{k+1}(r') over the rows r' that
    may sit under r; under the last level sits one virtual row with
    B = 1.  F(r) depends on r only through its key, the pairs (r', rule
    value) with the value nonzero, and rows share keys, so each level
    forms one fan per key and multiplies it by each row's cell factors,
    one binomial at a time.  At level 1 the rows that share a key are
    summed first, rule * w_1, and each such sum is multiplied by its fan
    once, into the total.  Only the rows that a walk from the top reaches
    through nonzero rule values are formed, and one level's B and fans
    are alive at once, with the B of the level below.  A fan drops the
    zeros that a signed rule leaves where terms cancel.
    """
    depth = len(levels)
    if not depth:
        total[0] = total.get(0, 0) + scale
        return
    mul_add = _Layout.mul_add
    reached = [[top]]
    for k in range(1, depth + 1):
        rows = (r for a in reached[-1] for r in successors(k, a) if rule(k, a[0], r[0]))
        reached.append(list(dict.fromkeys(rows)))
    below: dict = {None: {0: 1}}

    def fan(key: tuple) -> dict:
        out: dict = {}
        get = out.get
        for r, c in key:
            for m, v in below[r].items():
                out[m] = get(m, 0) + c * v
        return {m: v for m, v in out.items() if v} if 0 in out.values() else out

    for k in range(depth, 0, -1):
        cells = levels[k - 1]
        fans: dict = {}
        level: dict = {}
        for r in reached[k]:
            if k == depth:
                key: tuple = ((None, 1),)
            else:
                key = tuple(
                    (u, c) for u in successors(k + 1, r) if (c := rule(k + 1, r[0], u[0]))
                )
            if k == 1:
                acc = level.setdefault(key, {})
                c = rule(1, top[0], r[0])
                for m, v in _Layout.product(cell[p] for cell, p in zip(cells, r)).items():
                    acc[m] = acc.get(m, 0) + c * v
                continue
            s = fans.get(key)
            if s is None:
                s = fans[key] = fan(key)
            for cell, p in zip(cells, r):
                out: dict = {}
                mul_add(out, cell[p], s)
                s = out
            level[r] = s
        if k > 1:
            below = level
    for key, acc in level.items():
        f = fan(key)
        if 0 in acc.values():
            acc = {m: v for m, v in acc.items() if v}
        if len(f) < len(acc):
            mul_add(total, f, acc, scale)
        else:
            mul_add(total, acc, f, scale)


def group_tableau_sum(group: Group, n: int, lam_parts: Iterable[int]) -> Poly:
    """The weighted tableau sum of any of the seven groups.

    One bottom-up transfer sum over the row graph per coefficient rule
    (_transfer_sum), with one product per shared fan at level 1, on the
    paired layout, so the sum comes out reduced and is unpacked once; no
    tableau is enumerated and no tableau's weight is formed.  Raises
    InvalidShape for EO_DIFF with fewer than n nonzero parts;
    SO_EVEN_PLUS/MINUS with fewer than n nonzero parts get the plain
    2^zeta sum.

    Every factor _cell_weight gives a cell is packed once, indexed by
    alphabet position, one list of cells per level, by
    _Layout.for_products with one group of factors per cell: the degree
    bound is the sum over cells of the cell's largest factor degree, at
    most |lambda|, and the weight of a partial tableau takes at most one
    factor per cell, so no term of it, or of any sum of such weights,
    exceeds the bound.
    """
    lam = make_partition(lam_parts, n)
    rules = _coefficient_rules(group, lam)
    shape = tuple(p for p in lam if p)
    alphabet = _alphabet(group, n)
    layout, packed = _Layout.for_products(
        [_cell_weight(e, i, j, group, n) for e in alphabet]
        for i, w in enumerate(shape, start=1)
        for j in range(1, w + 1)
    )
    cells = iter(packed)
    levels = [list(islice(cells, w)) for w in shape]
    top, successors = _row_graph(group, n, shape)
    total: dict = {}
    for sign, rule in rules:
        _transfer_sum(top, successors, levels, rule, sign, total)
    if len(rules) == 2:
        total = {m: _half(c) for m, c in total.items()}
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
