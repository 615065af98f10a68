"""Lattice-path tuples: signed sums against the literal tuple sum and
the Jacobi-Trudi route, the weight-preserving bijection with gl tableaux,
and the oracle's independence of the routes' engines."""

import ast
from itertools import combinations, permutations

import pytest

import flc.latticepaths
from flc.characters import Group, char_jacobi_trudi, char_spec, shapes
from flc.latticepaths import (
    IntersectingTuple,
    LatticePath,
    enumerate_gl_tuples,
    lgv_signed_sum,
    tuple_to_tableau,
)
from flc.polyring import ONE, ZERO, pa, poly_to_str, px
from flc.tableaux import Entry, Tableau, enumerate_tableaux, weight

E = Entry


def _tuple_weight(tup):
    w = ONE
    for path in tup:
        w = w * path.weight()
    return w


def _non_intersecting(tup):
    seen = set()
    for path in tup:
        pts = set(path.points())
        if pts & seen:
            return False
        seen |= pts
    return True


# ---------------------------------------------------------------------------
# single paths


def test_path_geometry():
    p = LatticePath(2, (1, 2), ("V", "H"))
    assert p.points() == [(1, 2), (2, 2), (2, 3)]
    assert p.end == (2, 3)
    assert p.h_levels() == [2]


def test_horizontal_step_weight():
    assert LatticePath(2, (1, 2), ("H",)).weight() == px(1) + pa(1)
    assert LatticePath(2, (1, 2), ("V", "H")).weight() == px(2) + pa(2)


def test_early_columns_carry_no_a():
    # into (k, l) with k + l - n - 1 <= 0 the a-part vanishes
    assert LatticePath(3, (1, 1), ("H",)).weight() == px(1)


# ---------------------------------------------------------------------------
# tuple enumeration


def test_rank_one_row_shape_single_path():
    tuples = enumerate_gl_tuples(1, (2,), (1,))
    assert len(tuples) == 1
    (path,) = tuples[0]
    assert path.steps == ("H", "H")
    assert path.weight() == (px(1) + pa(1)) * (px(1) + pa(2))


def test_empty_shape_identity_tuple_is_all_vertical():
    tuples = enumerate_gl_tuples(2, (0, 0), (1, 2))
    assert len(tuples) == 1
    assert all(set(p.steps) <= {"V"} for p in tuples[0])
    assert _tuple_weight(tuples[0]) == ONE


def test_negative_displacement_gives_no_tuples():
    assert enumerate_gl_tuples(2, (1, 0), (2, 1)) == []


def test_sigma_must_be_a_permutation():
    with pytest.raises(ValueError):
        enumerate_gl_tuples(2, (1, 0), (1, 1))
    with pytest.raises(ValueError):
        enumerate_gl_tuples(2, (1, 0), (0, 1))


def test_endpoints_follow_sigma():
    for sigma in permutations((1, 2)):
        for tup in enumerate_gl_tuples(2, (2, 1), sigma):
            lam = (2, 1)
            for i, path in enumerate(tup, start=1):
                j = sigma[i - 1]
                assert path.start == (i, 2 - i + 1)
                assert path.end == (2, 2 - j + 1 + lam[j - 1])


# ---------------------------------------------------------------------------
# signed sums


def test_signed_sum_single_box():
    assert poly_to_str(lgv_signed_sum(2, (1, 0))) == "x1 + x2 + a1 + a2"


def test_signed_sum_single_row():
    assert lgv_signed_sum(1, (2,)) == (px(1) + pa(1)) * (px(1) + pa(2))


def test_signed_sum_empty_shape():
    assert lgv_signed_sum(3, ()) == ONE


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_sum_is_the_literal_tuple_sum(n):
    """The endpoint-pair regrouping equals sign(sigma) times the weight of
    every tuple for every permutation, summed one tuple at a time."""
    for lam in shapes(n, 2):
        want = ZERO
        for sigma in permutations(range(1, n + 1)):
            sign = (-1) ** sum(a > b for a, b in combinations(sigma, 2))
            for tup in enumerate_gl_tuples(n, lam, sigma):
                want = want + sign * _tuple_weight(tup)
        assert lgv_signed_sum(n, lam) == want, lam


@pytest.mark.parametrize("n", [1, 2])
def test_signed_sum_matches_jacobi_trudi(n):
    for lam in shapes(n, 3):
        got = lgv_signed_sum(n, lam)
        assert got == char_jacobi_trudi(char_spec(Group.GL, n, lam)), lam


def test_signed_sum_matches_jacobi_trudi_rank_three():
    for lam in [(1, 1, 0), (2, 1, 1), (3, 2, 1)]:
        assert lgv_signed_sum(3, lam) == char_jacobi_trudi(char_spec(Group.GL, 3, lam))


# ---------------------------------------------------------------------------
# the bijection with tableaux


def test_crossing_tuples_only_from_identity():
    """Non-intersecting tuples exist only for sigma = id."""
    for n, lam in [(2, (2, 1)), (2, (3, 3)), (3, (2, 1, 1))]:
        for sigma in permutations(range(1, n + 1)):
            if sigma == tuple(range(1, n + 1)):
                continue
            assert all(
                not _non_intersecting(t) for t in enumerate_gl_tuples(n, lam, sigma)
            ), (sigma, lam)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bijection_is_weight_preserving_and_onto(n):
    for lam in shapes(n, 2):
        identity = tuple(range(1, n + 1))
        survivors = [
            t for t in enumerate_gl_tuples(n, lam, identity) if _non_intersecting(t)
        ]
        mapped = []
        for tup in survivors:
            t = tuple_to_tableau(tup)
            assert weight(t, Group.GL, n) == _tuple_weight(tup)
            mapped.append(t)
        assert sorted(map(str, mapped)) == sorted(
            map(str, enumerate_tableaux(Group.GL, n, lam))
        ), lam


def test_intersecting_tuple_rejected():
    crossing = (
        LatticePath(2, (1, 2), ("V", "H")),
        LatticePath(2, (2, 1), ("H",)),
    )
    assert crossing[0].points()[1] == crossing[1].points()[1] == (2, 2)
    with pytest.raises(IntersectingTuple):
        tuple_to_tableau(crossing)


def test_disjoint_variant_of_the_same_endpoints():
    clean = (
        LatticePath(2, (1, 2), ("H", "V")),
        LatticePath(2, (2, 1), ("H",)),
    )
    assert tuple_to_tableau(clean) == Tableau(
        (1, 1), ((E(1),), (E(2),))
    )


def test_vertical_first_path_reads_level_two():
    tup = (
        LatticePath(2, (1, 2), ("V", "H")),
        LatticePath(2, (2, 1), ()),
    )
    assert tuple_to_tableau(tup) == Tableau((1,), ((E(2),),))


def test_empty_tuple_maps_to_empty_tableau():
    (tup,) = enumerate_gl_tuples(2, (0, 0), (1, 2))
    assert tuple_to_tableau(tup) == Tableau((), ())


def test_worked_example_tuple():
    """The rank-4 (4,3,3) picture: three stepped paths and a trivial one."""
    tup = (
        LatticePath(4, (1, 4), ("H", "H", "V", "H", "V", "V", "H")),
        LatticePath(4, (2, 3), ("H", "V", "H", "H", "V")),
        LatticePath(4, (3, 2), ("V", "H", "H", "H")),
        LatticePath(4, (4, 1), ()),
    )
    assert tup in enumerate_gl_tuples(4, (4, 3, 3), (1, 2, 3, 4))
    t = tuple_to_tableau(tup)
    assert [[str(e) for e in row] for row in t.rows] == [
        ["1", "1", "2", "4"],
        ["2", "3", "3"],
        ["4", "4", "4"],
    ]
    assert _tuple_weight(tup) == weight(t, Group.GL, 4)


# ---------------------------------------------------------------------------
# independence of the routes


_ROUTE_ENGINES = {"poly_determinant", "_minors", "_maximal_minors", "_det_separable"}


def _route_names(source):
    """Every imported or referenced name of ``source`` that is a route
    (``char_*``) or one of polyring's determinant engines."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return {m for m in names if m.startswith("char_") or m in _ROUTE_ENGINES}


def test_oracle_imports_no_route_and_no_determinant_engine():
    with open(flc.latticepaths.__file__, encoding="utf-8") as f:
        assert _route_names(f.read()) == set()


def test_route_guard_sees_imports_and_attributes():
    source = (
        "from .polyring import poly_determinant as det\n"
        "from . import characters\n"
        "x = characters.char_jacobi_trudi\n"
    )
    assert _route_names(source) == {"poly_determinant", "char_jacobi_trudi"}
