"""Lindström–Gessel–Viennot lattice-path oracle for the gl case.

Paths live on a grid in matrix coordinates (row k counts from the top,
column l from the left) and move monotonically down (V) or right (H).
Path i of an n-tuple runs from P_i = (i, n-i+1) to Q_{sigma(i)} =
(n, n-sigma(i)+1+lambda_{sigma(i)}); a horizontal step into (k, l)
carries the weight x_k + a_{k+l-n-1} (with a_m = 0 for m <= 0).

The signed sum of the tuple weights over every permutation reproduces
the gl Jacobi-Trudi determinant.  ``lgv_signed_sum`` takes it regrouped
by distributivity: the path weights are summed once per endpoint pair
into W[i][j], and the Leibniz sum over sigma of sign(sigma) times
W[1][sigma(1)]...W[n][sigma(n)] is the sum over every tuple.  It expands
that sum down the rows, with one minor per set of columns the rows so
far take, so it forms n * 2^(n-1) products where the Leibniz terms
would take n * n!.  The surviving non-intersecting identity tuples
(``enumerate_gl_tuples``) correspond one-to-one with the gl tableaux,
preserving weights.  This module exists as a test oracle independent of
the routes' determinant engines and of tableau enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, List, Sequence, Tuple

from .characters import make_partition
from .polyring import ONE, ZERO, Poly, pa, poly_sum, px
from .tableaux import Entry, Tableau

__all__ = [
    "LatticePath",
    "IntersectingTuple",
    "enumerate_gl_tuples",
    "lgv_signed_sum",
    "tuple_to_tableau",
]


class IntersectingTuple(ValueError):
    """Two paths of the tuple share a lattice point."""


@dataclass(frozen=True)
class LatticePath:
    """A monotone H/V path on the rank-n grid."""

    n: int
    start: Tuple[int, int]
    steps: Tuple[str, ...]  # each "H" (right) or "V" (down)

    def points(self) -> List[Tuple[int, int]]:
        r, c = self.start
        pts = [(r, c)]
        for s in self.steps:
            if s == "H":
                c += 1
            else:
                r += 1
            pts.append((r, c))
        return pts

    @property
    def end(self) -> Tuple[int, int]:
        return self.points()[-1]

    def h_levels(self) -> List[int]:
        """Row of each horizontal step, in path order."""
        return [r for (r, c), s in zip(self.points(), self.steps) if s == "H"]

    def weight(self) -> Poly:
        """Product of x_k + a_{k+l-n-1} over horizontal steps into (k, l)."""
        w = ONE
        r, c = self.start
        for s in self.steps:
            if s == "H":
                c += 1
                w = w * (px(r) + pa(r + c - self.n - 1))
            else:
                r += 1
        return w


def _paths_between(n: int, i: int, j: int, lam: Sequence[int]) -> List[LatticePath]:
    """All monotone paths P_i -> Q_j; empty when the displacement is negative."""
    start = (i, n - i + 1)
    horiz = lam[j - 1] - j + i
    vert = n - i
    if horiz < 0:
        return []
    out = []
    # choose which of the vert+horiz step slots are horizontal
    for hpos in combinations(range(vert + horiz), horiz):
        steps = tuple("H" if k in hpos else "V" for k in range(vert + horiz))
        out.append(LatticePath(n, start, steps))
    return out


def enumerate_gl_tuples(
    n: int, lam_parts: Iterable[int], sigma: Sequence[int]
) -> List[Tuple[LatticePath, ...]]:
    """Every n-tuple (intersecting ones included) with path i running
    P_i -> Q_{sigma(i)}, as the cartesian product of per-path choices."""
    lam = make_partition(lam_parts, n)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{n}: {sigma}")
    choices = [_paths_between(n, i, sigma[i - 1], lam) for i in range(1, n + 1)]
    if any(not c for c in choices):
        return []
    return [tuple(t) for t in product(*choices)]


def lgv_signed_sum(n: int, lam_parts: Iterable[int]) -> Poly:
    """Sum of sign(sigma) * path-weight products over all tuples, by the
    Leibniz sum of the endpoint-pair path sums, expanded down the rows;
    equals the gl Jacobi-Trudi character."""
    lam = make_partition(lam_parts, n)
    ends = range(1, n + 1)
    w = [[poly_sum(p.weight() for p in _paths_between(n, i, j, lam)) for j in ends] for i in ends]
    minors = {(): ONE}  # of the rows so far, by their sorted columns
    for row in w:
        wider: dict = {}
        for cols, m in minors.items():
            for j in set(range(n)).difference(cols):
                key = tuple(sorted(cols + (j,)))
                part = wider.get(key, ZERO)
                odd = sum(c > j for c in cols) % 2  # sigma's inversions: earlier columns right of j
                wider[key] = part - m * row[j] if odd else part + m * row[j]
        minors = wider
    return minors[tuple(range(n))]


def _is_intersecting(tup: Sequence[LatticePath]) -> bool:
    seen: set = set()
    for path in tup:
        pts = set(path.points())
        if pts & seen:
            return True
        seen |= pts
    return False


def tuple_to_tableau(tup: Sequence[LatticePath]) -> Tableau:
    """Read the gl tableau off a non-intersecting identity tuple: the
    j-th horizontal step of path i at level k becomes T_{ij} = k."""
    if _is_intersecting(tup):
        raise IntersectingTuple("paths share a lattice point")
    rows = []
    for path in tup:
        levels = path.h_levels()
        if levels:
            rows.append(tuple(Entry(k) for k in levels))
    shape = tuple(len(r) for r in rows)
    return Tableau(shape, tuple(rows))
