"""The benchmark's cells: one timed call into flc each.

A cell is (key, route, group, n, lam).  The key names the golden digest
the cell's result must match.  The seed only permutes the order of the
cells within a pass; it never changes which cells run.
"""

from __future__ import annotations

import random
from itertools import product

WORKLOADS = ("ratio-grid", "division-free", "rank4", "verify")

BASE_GROUPS = ("gl", "sp", "oo", "eo")
ROUTES = ("raw", "alternant", "jacobi-trudi", "tableaux")
VERIFY_ARGV = ("verify", "--max-rank", "2", "--max-part", "4")
VERIFY_KEY = "verify/" + " ".join(VERIFY_ARGV[1:])


def shapes(n: int, max_part: int) -> list:
    """Every weakly decreasing n-tuple with parts <= max_part, zeros included."""
    return [
        lam
        for lam in product(range(max_part, -1, -1), repeat=n)
        if all(lam[i] >= lam[i + 1] for i in range(n - 1))
    ]


def cell_key(group: str, n: int, lam: tuple, route: str) -> str:
    return f"{group}/{n}/{','.join(map(str, lam))}/{route}"


def _grid(max_part: int, routes: tuple) -> list:
    return [
        (cell_key(g, n, lam, r), r, g, n, lam)
        for g in BASE_GROUPS
        for n in (1, 2, 3)
        for lam in shapes(n, max_part)
        for r in routes
    ]


def cells(workload: str) -> list:
    """The cells of one pass, in canonical order."""
    if workload == "ratio-grid":
        return _grid(2, ("raw", "alternant"))
    if workload == "division-free":
        return _grid(3, ("jacobi-trudi", "tableaux"))
    if workload == "rank4":
        lam = (2, 2, 2, 2)
        return [(cell_key("sp", 4, lam, r), r, "sp", 4, lam) for r in ROUTES]
    if workload == "verify":
        return [(VERIFY_KEY, "verify", None, None, None)]
    raise ValueError(f"unknown workload {workload!r}")


def pass_cells(workload: str, seed: int, pass_index: int) -> list:
    """The cells of pass ``pass_index`` of a run, in the order the seed gives."""
    out = cells(workload)
    random.Random(seed * 1_000_003 + pass_index).shuffle(out)
    return out
