"""Acceptance gate: one test per shipping criterion, each recording a
single PASS/FAIL verdict line (echoed in the terminal summary).
Everything is exact polynomial equality; there are no tolerances
anywhere."""

import time

from flc.characters import (
    Group,
    char_alternant,
    char_jacobi_trudi,
    char_raw,
    char_raw_diff,
    char_so_even,
    char_spec,
    dimension,
    partition_length,
    shapes,
)
from flc.hfuncs import HKind, VarSpec, h
from flc.latticepaths import enumerate_gl_tuples, lgv_signed_sum, tuple_to_tableau
from flc.polyring import (
    ONE,
    X,
    ZERO,
    pa,
    poly_determinant,
    poly_halve,
    poly_reduce_inverses,
    poly_substitute,
    px,
    pxb,
)
from flc.tableaux import (
    Entry,
    Tableau,
    ZERO_ENTRY,
    diff_tableau_sum,
    enumerate_tableaux,
    so_even_tableau_sum,
    tab_stats,
    tableau_sum,
    weight,
)

import oracles
from oracles import explicit_h, so_even_coefficient
from test_characters import _denominator_product, _raw_denominator_matrix

red = poly_reduce_inverses
E = Entry
BASE_GROUPS = (Group.GL, Group.SP, Group.OO, Group.EO)
ALL_KINDS = (HKind.GL, HKind.SP, HKind.OO, HKind.EO)


VERDICTS: list = []


def _criterion(num: int, label: str, body) -> None:
    try:
        body()
        ok, detail = True, ""
    except Exception as exc:
        ok, detail = False, f" ({exc})"
    VERDICTS.append(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}{detail}"


def _tab(*rows):
    rows = tuple(tuple(r) for r in rows)
    return Tableau(tuple(len(r) for r in rows), rows)


def _std_spec(kind: HKind, n: int) -> VarSpec:
    if kind is HKind.GL:
        return VarSpec(kind, singles=tuple(X(i) for i in range(1, n + 1)))
    return VarSpec(kind, pairs=tuple(range(1, n + 1)))


# ---------------------------------------------------------------------------


def test_criterion_1_route_agreement():
    def body():
        start = time.monotonic()
        for group in BASE_GROUPS:
            for n in (1, 2, 3):
                for lam in shapes(n, 3):
                    spec = char_spec(group, n, lam)
                    jt = char_jacobi_trudi(spec)
                    assert char_raw(spec) == jt, (group, n, lam)
                    assert char_alternant(spec) == jt, (group, n, lam)
                    assert tableau_sum(group, n, lam) == jt, (group, n, lam)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"

    _criterion(1, "four routes agree for GL/SP/OO/EO, n <= 3, parts <= 3", body)


def test_criterion_2_so_even_suite():
    def body():
        for n in (1, 2, 3):
            for lam in shapes(n, 3):
                if partition_length(lam) < n:
                    continue
                eo = char_jacobi_trudi(char_spec(Group.EO, n, lam))
                eod = char_jacobi_trudi(char_spec(Group.EO_DIFF, n, lam))
                assert char_raw_diff(n, lam) == eod, lam
                assert diff_tableau_sum(n, lam) == eod, lam
                plus = char_so_even(char_spec(Group.SO_EVEN_PLUS, n, lam))
                minus = char_so_even(char_spec(Group.SO_EVEN_MINUS, n, lam))
                assert so_even_tableau_sum(n, lam, True) == plus, lam
                assert so_even_tableau_sum(n, lam, False) == minus, lam
                assert plus + minus == eo, lam
                assert plus - minus == eod, lam

    _criterion(2, "so(2n) difference and plus/minus decomposition", body)


def _golden_tableaux():
    b = lambda k: E(k, barred=True)
    gl_t = _tab([E(1), E(1), E(2), E(4)], [E(2), E(3), E(3)], [E(4), E(4), E(4)])
    gl_w = (
        (px(1) + pa(1)) * (px(1) + pa(2)) * (px(2) + pa(4)) * (px(4) + pa(7))
        * (px(2) + pa(1)) * (px(3) + pa(3)) * (px(3) + pa(4))
        * (px(4) + pa(2)) * (px(4) + pa(3)) * (px(4) + pa(4))
    )
    sp_t = _tab([E(1), b(1), E(2), b(4)], [b(3), E(4), E(4)], [E(4), b(4), b(4)])
    sp_w = (
        px(1) * pxb(1) * (px(2) + pa(1)) * (pxb(4) + pa(7))
        * (pxb(3) + pa(1)) * (px(4) + pa(3)) * (px(4) + pa(4))
        * (px(4) + pa(1)) * (pxb(4) + pa(3)) * (pxb(4) + pa(4))
    )
    oo_t = _tab([E(1), b(1), E(2), b(4)], [E(3), E(4), ZERO_ENTRY], [E(4), b(4), ZERO_ENTRY])
    oo_w = (
        px(1) * pxb(1) * (px(2) + pa(2)) * (pxb(4) + pa(8))
        * (px(3) + pa(1)) * (px(4) + pa(4)) * (ONE - pa(6))
        * (px(4) + pa(2)) * (pxb(4) + pa(4)) * (ONE - pa(5))
    )
    eo_t = _tab(
        [E(2), E(2), b(2), b(2), E(4)],
        [b(2), E(3), E(3), b(3), b(4)],
        [b(3), E(4), E(4), b(4)],
        [E(4), b(4), b(4)],
    )
    eo_w = (
        px(2) * px(2) * (pxb(2) + pa(2)) * (pxb(2) + pa(3)) * (px(4) + pa(7))
        * pxb(2) * (px(3) + pa(1)) * (px(3) + pa(2)) * (pxb(3) + pa(4)) * (pxb(4) + pa(7))
        * pxb(3) * (px(4) + pa(2)) * (px(4) + pa(3)) * (pxb(4) + pa(5))
        * (px(4) + pa(1)) * (pxb(4) + pa(2)) * (pxb(4) + pa(3))
    )
    return (gl_t, gl_w), (sp_t, sp_w), (oo_t, oo_w), (eo_t, eo_w)


def _so4_weight_tables():
    b = lambda k: E(k, barred=True)
    shared = (
        _tab([E(2), E(2)], [b(2), b(2)]),
        (px(2) + pa(1)) * (px(2) + pa(2)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2)),
    )
    plus = {
        _tab([E(1), E(1)], [E(2), E(2)]):
            px(1) * (px(1) + pa(1)) * (px(2) + pa(1)) * (px(2) + pa(2)),
        _tab([E(1), E(2)], [E(2), b(2)]):
            px(1) * (px(2) + pa(1)) * (px(2) + pa(2)) * (pxb(2) + pa(2)),
        _tab([b(1), E(2)], [b(2), b(2)]):
            pxb(1) * (px(2) + pa(2)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2)),
        _tab([b(1), b(1)], [b(2), b(2)]):
            pxb(1) * (pxb(1) + pa(1)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2)),
        shared[0]: shared[1],
    }
    minus = {
        _tab([E(1), E(1)], [b(2), b(2)]):
            px(1) * (px(1) + pa(1)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2)),
        _tab([E(1), E(2)], [b(2), b(2)]):
            px(1) * (px(2) + pa(2)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2)),
        _tab([b(1), E(2)], [E(2), b(2)]):
            pxb(1) * (px(2) + pa(2)) * (px(2) + pa(1)) * (pxb(2) + pa(2)),
        _tab([b(1), b(1)], [E(2), E(2)]):
            pxb(1) * (pxb(1) + pa(1)) * (px(2) + pa(1)) * (px(2) + pa(2)),
        shared[0]: shared[1],
    }
    return plus, minus


def test_criterion_3_golden_examples():
    def body():
        (gl_t, gl_w), (sp_t, sp_w), (oo_t, oo_w), (eo_t, eo_w) = _golden_tableaux()
        assert gl_t in enumerate_tableaux(Group.GL, 4, (4, 3, 3))
        assert weight(gl_t, Group.GL, 4) == gl_w
        assert sp_t in enumerate_tableaux(Group.SP, 4, (4, 3, 3))
        assert weight(sp_t, Group.SP, 4) == sp_w
        assert oo_t in enumerate_tableaux(Group.OO, 4, (4, 3, 3))
        assert weight(oo_t, Group.OO, 4) == oo_w
        assert eo_t in enumerate_tableaux(Group.EO, 4, (5, 5, 4, 3))
        assert weight(eo_t, Group.EO, 4) == eo_w
        assert tab_stats(eo_t, Group.EO).zeta == 1

        plus_table, minus_table = _so4_weight_tables()
        for plus, table in ((True, plus_table), (False, minus_table)):
            chosen = [
                t
                for t in enumerate_tableaux(Group.EO, 2, (2, 2))
                if so_even_coefficient(t, plus)
            ]
            assert len(chosen) == 5
            assert all(so_even_coefficient(t, plus) == 1 for t in chosen)
            assert set(chosen) == set(table)
            for t in chosen:
                assert weight(t, Group.EO, 2) == table[t], str(t)

    _criterion(3, "worked-example tableaux match their printed weights", body)


def test_criterion_4_denominator_identities():
    def body():
        for group in BASE_GROUPS:
            for n in (1, 2, 3, 4):
                rows = _raw_denominator_matrix(group, n)
                det = poly_determinant(rows)
                if group is Group.EO:
                    det = poly_halve(det)
                prod = red(_denominator_product(group, n))
                assert red(det) == prod, (group, n)
                # a-independence: specialize the a's in the entries two
                # ways; the determinant must not move.
                a_vars = {
                    v
                    for row in rows
                    for e in row
                    for v in e.variables()
                    if v.kind == "a"
                }
                for value_of in (lambda v: 0, lambda v: 1 + 2 * v.index):
                    subs = {v: value_of(v) for v in a_vars}
                    det2 = poly_determinant(
                        [[poly_substitute(e, subs) for e in row] for row in rows]
                    )
                    if group is Group.EO:
                        det2 = poly_halve(det2)
                    assert red(det2) == prod, (group, n)

    _criterion(4, "denominator determinants equal product forms, any a", body)


def test_criterion_5_recurrence_suite():
    def body():
        for kind in ALL_KINDS:
            for j in (2, 3):
                for i in range(1, j):
                    for m in range(0, 5):
                        if kind is HKind.GL:
                            left = VarSpec(kind, singles=tuple(X(k) for k in range(i, j)))
                            right = VarSpec(kind, singles=tuple(X(k) for k in range(i + 1, j + 1)))
                            full = VarSpec(kind, singles=tuple(X(k) for k in range(i, j + 1)))
                            factor = px(i) - px(j)
                        else:
                            left = VarSpec(kind, pairs=tuple(range(i, j)))
                            right = VarSpec(kind, pairs=tuple(range(i + 1, j + 1)))
                            full = VarSpec(kind, pairs=tuple(range(i, j + 1)))
                            factor = px(i) + pxb(i) - px(j) - pxb(j)
                        lhs = h(left, m) - h(right, m)
                        rhs = factor * h(full, m - 1)
                        assert red(lhs) == red(rhs), (kind, i, j, m)

    _criterion(5, "two-row h recurrence for all four kinds", body)


def test_criterion_6_explicit_expansions():
    def body():
        for kind in ALL_KINDS:
            for n in (1, 2, 3):
                for m in range(0, 5):
                    assert explicit_h(kind, n, m) == h(_std_spec(kind, n), m), (kind, n, m)
        for n in (1, 2, 3):
            for m in range(1, 5):
                p = explicit_h(HKind.OO, n, m)
                dummy = [v for v in p.variables() if v.kind == "a" and v.index == m + n]
                assert not dummy, (n, m)
                for val in (0, 9):
                    sub = {v: val for v in pa(m + n).variables()}
                    assert poly_substitute(p, sub) == p, (n, m)

    _criterion(6, "explicit expansions equal the generating-function h", body)


def test_criterion_7_lattice_path_oracle():
    def body():
        from itertools import permutations

        for n in (1, 2, 3):
            for lam in shapes(n, 3):
                assert lgv_signed_sum(n, lam) == char_jacobi_trudi(
                    char_spec(Group.GL, n, lam)
                ), lam
                identity = tuple(range(1, n + 1))
                mapped = []
                for tup in enumerate_gl_tuples(n, lam, identity):
                    pts: set = set()
                    crossing = False
                    for path in tup:
                        own = set(path.points())
                        if own & pts:
                            crossing = True
                            break
                        pts |= own
                    if crossing:
                        continue
                    t = tuple_to_tableau(tup)
                    w = ONE
                    for path in tup:
                        w = w * path.weight()
                    assert weight(t, Group.GL, n) == w, lam
                    mapped.append(t)
                expected = enumerate_tableaux(Group.GL, n, lam)
                assert sorted(map(str, mapped)) == sorted(map(str, expected)), lam
                for sigma in permutations(identity):
                    if sigma == identity:
                        continue
                    for tup in enumerate_gl_tuples(n, lam, sigma):
                        pts = set()
                        disjoint = True
                        for path in tup:
                            own = set(path.points())
                            if own & pts:
                                disjoint = False
                                break
                            pts |= own
                        assert not disjoint, (lam, sigma)

    _criterion(7, "lattice-path oracle: signed sum and bijection", body)


def test_criterion_8_classical_dimensions():
    def body():
        table = [
            (Group.GL, 3, (2, 1), 8, oracles.dim_gl),
            (Group.SP, 2, (1, 1), 5, oracles.dim_sp),
            (Group.OO, 2, (1,), 5, oracles.dim_so_odd),
            (Group.OO, 3, (1,), 7, oracles.dim_so_odd),
        ]
        for group, n, lam, fixed, oracle in table:
            assert oracle(n, lam) == fixed, (group, n, lam)
            assert dimension(char_spec(group, n, lam)) == fixed, (group, n, lam)
        for n in (1, 2, 3):
            lam = (1,)
            assert oracles.dim_o_even(n, lam) == 2 * n
            assert dimension(char_spec(Group.EO, n, lam)) == 2 * n, n
        plus = dimension(char_spec(Group.SO_EVEN_PLUS, 2, (2, 2)))
        minus = dimension(char_spec(Group.SO_EVEN_MINUS, 2, (2, 2)))
        whole = dimension(char_spec(Group.EO, 2, (2, 2)))
        assert plus == minus == oracles.dim_so_even(2, (2, 2))
        assert plus + minus == whole == oracles.dim_o_even(2, (2, 2))

    _criterion(8, "classical dimensions match the Weyl formula table", body)


def test_criterion_9_degenerate_contracts():
    def body():
        for kind in (HKind.GL, HKind.SP, HKind.OO, HKind.EO, HKind.EOD):
            spec = _std_spec(kind, 2)
            assert h(spec, -1) == ZERO, kind
            assert h(spec, -3) == ZERO, kind
            expected_h0 = ZERO if kind is HKind.EOD else ONE
            assert h(spec, 0) == expected_h0, kind
        for n in (1, 2):
            lam = [2] * (n - 1) + [0]
            assert char_jacobi_trudi(char_spec(Group.EO_DIFF, n, lam)) == ZERO, n
        for group in (
            Group.GL,
            Group.SP,
            Group.OO,
            Group.EO,
            Group.SO_EVEN_PLUS,
            Group.SO_EVEN_MINUS,
        ):
            for n in (1, 2):
                spec = char_spec(group, n, ())
                if group in BASE_GROUPS:
                    assert char_raw(spec) == ONE, (group, n)
                    assert char_alternant(spec) == ONE, (group, n)
                    assert tableau_sum(group, n, ()) == ONE, (group, n)
                    assert char_jacobi_trudi(spec) == ONE, (group, n)
                else:
                    assert char_so_even(spec) == ONE, (group, n)

    _criterion(9, "degenerate inputs: negative/zero m and empty shapes", body)
