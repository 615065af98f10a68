"""Tableau enumeration against a brute-force validator, frozen worked
examples with their printed cell weights, and the weighted sums against
the determinantal routes."""

import itertools

import pytest

import flc.tableaux
from flc.characters import (
    Group,
    char_jacobi_trudi,
    char_raw_diff,
    char_so_even,
    char_spec,
    shapes,
    zero_a,
)
from flc.polyring import (
    ONE,
    _Layout,
    eval_integer,
    pa,
    poly_reduce_inverses,
    poly_sum,
    poly_to_str,
    px,
    pxb,
)
from flc.tableaux import (
    ZERO_ENTRY,
    Entry,
    InvalidShape,
    TabStats,
    Tableau,
    diff_tableau_sum,
    enumerate_tableaux,
    group_tableau_sum,
    so_even_tableau_sum,
    tab_stats,
    tableau_sum,
    tableau_to_json,
    tableau_to_text,
    weight,
    weighted_tableaux,
)

import oracles
from oracles import is_diff_tableau, so_even_coefficient

E = Entry
BASE_GROUPS = (Group.GL, Group.SP, Group.OO, Group.EO)


def tab(*rows):
    rows = tuple(tuple(r) for r in rows)
    return Tableau(tuple(len(r) for r in rows), rows)


def units_eval(p):
    """Evaluate at a = 0 and every letter = 1."""
    q = zero_a(p)
    return eval_integer(q, {v: 1 for v in q.variables()})


# ---------------------------------------------------------------------------
# entries


def test_entry_str_forms():
    assert str(E(3)) == "3"
    assert str(E(3, barred=True)) == "3~"
    assert str(ZERO_ENTRY) == "0"


def test_entry_validation():
    with pytest.raises(ValueError):
        E(-1)
    with pytest.raises(ValueError):
        E(0, barred=True)


# ---------------------------------------------------------------------------
# enumeration against an independent brute-force validator

# The validator restates the tableau conditions as whole-grid scans, so it
# shares nothing with the enumerator's prefix pruning except the alphabet
# order itself (which is the definition of the order).


def _alphabet(group, n):
    if group is Group.GL:
        return [E(k) for k in range(1, n + 1)]
    letters = [e for k in range(1, n + 1) for e in (E(k), E(k, barred=True))]
    if group is Group.OO:
        letters.append(ZERO_ENTRY)
    return letters


def _pos(e, n):
    return 2 * n + 2 if e.is_zero() else 2 * e.k + (1 if e.barred else 0)


def _valid_brute(rows, group, n):
    order = {e: _pos(e, n) for e in _alphabet(group, n)}
    for row in rows:  # T1
        if any(order[a] > order[b] for a, b in zip(row, row[1:])):
            return False
    width = len(rows[0]) if rows else 0
    for j in range(width):  # T2 + T3
        col = [row[j] for row in rows if len(row) > j]
        for a, b in zip(col, col[1:]):
            if order[a] > order[b]:
                return False
            if a == b and not a.is_zero():
                return False
    if group is not Group.GL:  # T4
        for i, row in enumerate(rows):
            if any(not e.is_zero() and e.k < i + 1 for e in row):
                return False
    if group is Group.OO:  # T5
        for row in rows:
            if sum(1 for e in row if e.is_zero()) > 1:
                return False
    if group is Group.EO:  # T6
        for i, row in enumerate(rows):
            k = i + 1
            for j, e in enumerate(row):
                if e == E(k, barred=True) and E(k) in row[:j]:
                    if i == 0 or rows[i - 1][j] != E(k):
                        return False
    return True


def _brute_force(group, n, lam):
    shape = tuple(p for p in lam if p)
    cells = sum(shape)
    out = []
    for flat in itertools.product(_alphabet(group, n), repeat=cells):
        rows, at = [], 0
        for w in shape:
            rows.append(tuple(flat[at : at + w]))
            at += w
        if _valid_brute(rows, group, n):
            out.append(Tableau(shape, tuple(rows)))
    return out


@pytest.mark.parametrize(
    "group,n,lam",
    [
        (Group.GL, 3, (2, 1)),
        (Group.SP, 2, (2, 1)),
        (Group.OO, 1, (2,)),
        (Group.OO, 2, (1, 1)),
        (Group.EO, 2, (3,)),
        (Group.EO, 2, (2, 2)),
        (Group.EO, 3, (2, 2, 1)),
        (Group.OO, 2, (2, 2)),
        (Group.SP, 3, (2, 1, 1)),
        (Group.GL, 3, (2, 2)),
    ],
)
def test_enumeration_matches_brute_force(group, n, lam):
    """Exactly the valid fillings, in row-major lexicographic order."""
    assert enumerate_tableaux(group, n, lam) == _brute_force(group, n, lam)


@pytest.mark.parametrize("group", [Group.EO_DIFF, Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS])
def test_even_orthogonal_family_enumerates_the_eo_set(group):
    for n, lam in ((2, (2, 2)), (3, (2, 2, 1)), (3, (2, 1, 0))):
        assert enumerate_tableaux(group, n, lam) == enumerate_tableaux(Group.EO, n, lam)


def test_enumeration_is_deterministic():
    a = enumerate_tableaux(Group.EO, 2, (2, 1))
    b = enumerate_tableaux(Group.EO, 2, (2, 1))
    assert a == b
    assert len(set(a)) == len(a)


def test_single_cell_and_single_column_sets():
    assert enumerate_tableaux(Group.GL, 2, (1,)) == [tab([E(1)]), tab([E(2)])]
    assert enumerate_tableaux(Group.SP, 1, (1,)) == [
        tab([E(1)]),
        tab([E(1, barred=True)]),
    ]


def test_gl_row_major_order_and_strict_columns():
    got = enumerate_tableaux(Group.GL, 2, (2, 1))
    assert got == [tab([E(1), E(1)], [E(2)]), tab([E(1), E(2)], [E(2)])]


def test_empty_shape_single_empty_tableau():
    got = enumerate_tableaux(Group.SP, 2, ())
    assert got == [Tableau((), ())]
    assert weight(got[0], Group.SP, 2) == ONE


def test_shape_longer_than_rank_rejected():
    with pytest.raises(ValueError):
        enumerate_tableaux(Group.GL, 2, (1, 1, 1))


def test_oo_allows_repeated_zero_down_a_column():
    got = enumerate_tableaux(Group.OO, 2, (1, 1))
    assert tab([ZERO_ENTRY], [ZERO_ENTRY]) in got
    assert len(got) == 10  # == dim so(5) at (1,1)


def test_oo_one_zero_per_row():
    got = enumerate_tableaux(Group.OO, 1, (2,))
    flat = [tuple(t.rows[0]) for t in got]
    assert (ZERO_ENTRY, ZERO_ENTRY) not in flat
    assert len(got) == 5


def test_sp_letters_stay_at_or_below_their_row():
    got = enumerate_tableaux(Group.SP, 2, (1, 1))
    firsts = [(str(t.rows[0][0]), str(t.rows[1][0])) for t in got]
    assert firsts == [("1", "2"), ("1", "2~"), ("1~", "2"), ("1~", "2~"), ("2", "2~")]


def test_eo_no_barred_k_right_of_k_in_row_one():
    got = enumerate_tableaux(Group.EO, 2, (2,))
    assert tab([E(1), E(1, barred=True)]) not in got
    assert len(got) == 9


def test_eo_covering_rule_in_row_two():
    got = enumerate_tableaux(Group.EO, 2, (2, 2))
    # 2~ right of 2 in row 2 is fine under a 2 ...
    assert tab([E(1), E(2)], [E(2), E(2, barred=True)]) in got
    # ... and excluded under anything else.
    bad = tab([E(1, barred=True), E(1, barred=True)], [E(2), E(2, barred=True)])
    assert _valid_brute(bad.rows, Group.SP, 2)  # only T6 rules it out
    assert bad not in got


# ---------------------------------------------------------------------------
# first-column statistics


def test_tab_stats_counts_zeta_and_bars():
    t = tab([E(2), E(2)], [E(2, barred=True), E(2, barred=True)])
    assert tab_stats(t, Group.EO) == TabStats(zeta=1, bar=1)


def test_zeta_only_counts_for_the_even_orthogonal_family():
    t = tab([E(2), E(2)], [E(2, barred=True), E(2, barred=True)])
    for group in (Group.GL, Group.SP, Group.OO):
        assert tab_stats(t, group).zeta == 0
    for group in (Group.EO, Group.EO_DIFF, Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS):
        assert tab_stats(t, group).zeta == 1


def test_zeta_requires_adjacent_k_over_barred_k():
    t = tab([E(1)], [E(2, barred=True)])
    assert tab_stats(t, Group.EO) == TabStats(zeta=0, bar=1)


# ---------------------------------------------------------------------------
# counts against the Weyl dimension


def test_gl_counts_match_dimension():
    assert len(enumerate_tableaux(Group.GL, 2, (2, 1))) == oracles.dim_gl(2, (2, 1))
    assert len(enumerate_tableaux(Group.GL, 3, (2, 1))) == 8


_DIM_ORACLE = {
    Group.GL: oracles.dim_gl,
    Group.SP: oracles.dim_sp,
    Group.OO: oracles.dim_so_odd,
    Group.EO: oracles.dim_o_even,
}


@pytest.mark.parametrize("group", BASE_GROUPS)
@pytest.mark.parametrize("n", [1, 2])
def test_weighted_count_is_the_weyl_dimension(group, n):
    """At a = 0 and all letters 1 the sum collapses to sum of 2^zeta."""
    for lam in shapes(n, 2):
        ts = enumerate_tableaux(group, n, lam)
        by_zeta = sum(1 << tab_stats(t, group).zeta for t in ts)
        assert by_zeta == _DIM_ORACLE[group](n, lam)
        assert units_eval(tableau_sum(group, n, lam)) == by_zeta


# ---------------------------------------------------------------------------
# worked examples with printed cell weights


def test_gl_worked_example_weight():
    t = tab(
        [E(1), E(1), E(2), E(4)],
        [E(2), E(3), E(3)],
        [E(4), E(4), E(4)],
    )
    ts = enumerate_tableaux(Group.GL, 4, (4, 3, 3))
    assert len(ts) == 70
    assert t in ts
    expected = (
        (px(1) + pa(1)) * (px(1) + pa(2)) * (px(2) + pa(4)) * (px(4) + pa(7))
        * (px(2) + pa(1)) * (px(3) + pa(3)) * (px(3) + pa(4))
        * (px(4) + pa(2)) * (px(4) + pa(3)) * (px(4) + pa(4))
    )
    assert weight(t, Group.GL, 4) == expected


def test_sp_worked_example_weight():
    t = tab(
        [E(1), E(1, barred=True), E(2), E(4, barred=True)],
        [E(3, barred=True), E(4), E(4)],
        [E(4), E(4, barred=True), E(4, barred=True)],
    )
    ts = enumerate_tableaux(Group.SP, 4, (4, 3, 3))
    assert len(ts) == 42042
    assert t in ts
    expected = (
        px(1) * pxb(1) * (px(2) + pa(1)) * (pxb(4) + pa(7))
        * (pxb(3) + pa(1)) * (px(4) + pa(3)) * (px(4) + pa(4))
        * (px(4) + pa(1)) * (pxb(4) + pa(3)) * (pxb(4) + pa(4))
    )
    assert weight(t, Group.SP, 4) == expected
    # The listing keeps matched pairs: the tableau 1 1~ weighs x1*(xb1 + a2).
    listed = [poly_to_str(w) for _, _, w in weighted_tableaux(Group.SP, 1, (2,))]
    assert "x1*xb1 + x1*a2" in listed


def test_weighted_tableaux_streams_without_listing(monkeypatch):
    """The listing walks the row graph lazily: its first triple comes out
    without every tableau being listed first."""
    first = enumerate_tableaux(Group.OO, 3, (2, 1))[0]

    def listed(*args):
        raise AssertionError("weighted_tableaux listed every tableau")

    monkeypatch.setattr(flc.tableaux, "enumerate_tableaux", listed)
    assert next(weighted_tableaux(Group.OO, 3, (2, 1))) == (first, 1, weight(first, Group.OO, 3))


def test_oo_worked_example_weight():
    t = tab(
        [E(1), E(1, barred=True), E(2), E(4, barred=True)],
        [E(3), E(4), ZERO_ENTRY],
        [E(4), E(4, barred=True), ZERO_ENTRY],
    )
    ts = enumerate_tableaux(Group.OO, 4, (4, 3, 3))
    assert len(ts) == 128700
    assert t in ts
    expected = (
        px(1) * pxb(1) * (px(2) + pa(2)) * (pxb(4) + pa(8))
        * (px(3) + pa(1)) * (px(4) + pa(4)) * (ONE - pa(6))
        * (px(4) + pa(2)) * (pxb(4) + pa(4)) * (ONE - pa(5))
    )
    assert weight(t, Group.OO, 4) == expected


def test_eo_worked_example_weight_and_stats():
    b = lambda k: E(k, barred=True)
    t = tab(
        [E(2), E(2), b(2), b(2), E(4)],
        [b(2), E(3), E(3), b(3), b(4)],
        [b(3), E(4), E(4), b(4)],
        [E(4), b(4), b(4)],
    )
    ts = enumerate_tableaux(Group.EO, 4, (5, 5, 4, 3))
    assert len(ts) == 177898
    assert t in ts
    expected = (
        px(2) * px(2) * (pxb(2) + pa(2)) * (pxb(2) + pa(3)) * (px(4) + pa(7))
        * pxb(2) * (px(3) + pa(1)) * (px(3) + pa(2)) * (pxb(3) + pa(4)) * (pxb(4) + pa(7))
        * pxb(3) * (px(4) + pa(2)) * (px(4) + pa(3)) * (pxb(4) + pa(5))
        * (px(4) + pa(1)) * (pxb(4) + pa(2)) * (pxb(4) + pa(3))
    )
    assert weight(t, Group.EO, 4) == expected
    assert tab_stats(t, Group.EO) == TabStats(zeta=1, bar=2)


# ---------------------------------------------------------------------------
# weighted sums against the determinantal routes


def test_gl_rank_two_single_box_sum():
    assert poly_to_str(tableau_sum(Group.GL, 2, (1,))) == "x1 + x2 + a1 + a2"


def test_eo_rank_one_single_box_sum():
    assert poly_to_str(tableau_sum(Group.EO, 1, (1,))) == "x1 + xb1 + 2*a1"


def test_empty_shape_sums_to_one():
    for group in BASE_GROUPS:
        assert tableau_sum(group, 2, ()) == ONE


@pytest.mark.parametrize("group", BASE_GROUPS)
@pytest.mark.parametrize("n", [1, 2])
def test_tableau_sum_matches_jacobi_trudi(group, n):
    for lam in shapes(n, 2):
        got = tableau_sum(group, n, lam)
        assert got == char_jacobi_trudi(char_spec(group, n, lam)), lam


def test_tableau_sum_rejects_derived_groups():
    for group in (Group.EO_DIFF, Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS):
        with pytest.raises(ValueError):
            tableau_sum(group, 1, (1,))


# ---------------------------------------------------------------------------
# the difference sum


def test_diff_sum_rank_one():
    assert poly_to_str(diff_tableau_sum(1, (1,))) == "x1 - xb1"


def test_diff_sum_needs_full_length():
    with pytest.raises(InvalidShape):
        diff_tableau_sum(2, (1, 0))


def test_diff_subset_keeps_level_k_first_columns_only():
    kept = [t for t in enumerate_tableaux(Group.EO, 2, (2, 2)) if is_diff_tableau(t, 2)]
    assert kept and all(
        t.rows[k - 1][0].k == k for t in kept for k in (1, 2)
    )
    spectator = tab([E(2), E(2)], [E(2, barred=True), E(2, barred=True)])
    assert not is_diff_tableau(spectator, 2)


def test_diff_sum_small_zero_a_factorisation():
    got = zero_a(diff_tableau_sum(2, (1, 1)))
    assert got == (px(1) - pxb(1)) * (px(2) - pxb(2))


@pytest.mark.parametrize("n", [1, 2])
def test_diff_sum_matches_alternant_ratio(n):
    for lam in shapes(n, 2):
        if len([p for p in lam if p]) < n:
            continue
        assert diff_tableau_sum(n, lam) == char_raw_diff(n, lam), lam


# ---------------------------------------------------------------------------
# the library sums and the listing against the Poly oracle

# A column taller than any row is wide raises one letter's exponent above
# the longest row; (1, 1, 1, 1) at n = 4 does so for every group but
# EO_DIFF, whose first column holds n distinct letters.
_ENGINE_CASES = [(n, lam) for n in (1, 2, 3) for lam in shapes(n, 2)] + [(4, (1, 1, 1, 1))]
_SO_EVEN = (Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS)


def _library_sum(group, n, lam):
    if group is Group.EO_DIFF:
        return diff_tableau_sum(n, lam)
    if group in _SO_EVEN:
        return so_even_tableau_sum(n, lam, group is Group.SO_EVEN_PLUS)
    return tableau_sum(group, n, lam)


@pytest.mark.parametrize("group", list(Group))
def test_packed_engine_matches_the_poly_oracle(group):
    """What test_transfer_sum_matches_the_per_tableau_oracle leaves out:
    EO_DIFF refuses a shape with fewer than n parts at every entry point,
    and each library wrapper's sum equals the sum of c * weight(t) over
    the listing."""
    for n, lam in _ENGINE_CASES:
        full = len([p for p in lam if p]) == n
        if group is Group.EO_DIFF and not full:
            with pytest.raises(InvalidShape):
                next(weighted_tableaux(group, n, lam))
            with pytest.raises(InvalidShape):
                group_tableau_sum(group, n, lam)
            with pytest.raises(InvalidShape):
                _library_sum(group, n, lam)
            continue
        if group in _SO_EVEN and not full:
            continue  # no plus/minus split
        listed = weighted_tableaux(group, n, lam)
        expected = poly_reduce_inverses(poly_sum(c * weight(t, group, n) for t, c, _ in listed))
        assert _library_sum(group, n, lam) == expected, lam


def test_injected_weight_fault_reaches_sp_and_so_even_sums(monkeypatch):
    """Negative control: one skewed SP letter, one skewed even-orthogonal
    letter and a skewed OO 0 letter (weight 1 - a) must change the sums,
    the difference sum included, right after the same sums were taken with
    the true factors, so no factor may be kept from one call to the next."""
    import flc.tableaux

    lam = (2, 1)
    jt = lambda group: char_jacobi_trudi(char_spec(group, 2, lam))
    sums = {
        "sp": (lambda: tableau_sum(Group.SP, 2, lam), jt(Group.SP)),
        "eo": (lambda: tableau_sum(Group.EO, 2, lam), jt(Group.EO)),
        "oo": (lambda: tableau_sum(Group.OO, 2, lam), jt(Group.OO)),
        "plus": (
            lambda: so_even_tableau_sum(2, lam, True),
            char_so_even(char_spec(Group.SO_EVEN_PLUS, 2, lam)),
        ),
        "diff": (lambda: diff_tableau_sum(2, lam), char_raw_diff(2, lam)),
    }
    for name, (tableau_route, other_route) in sums.items():
        assert tableau_route() == other_route, name
    true_weight = flc.tableaux._cell_weight

    def skewed(e, i, j, group, n):
        # The factor of the cell to the right: the a-index moves up by one.
        if (
            (group is Group.SP and e == E(1, barred=True))
            or (group is Group.OO and e == ZERO_ENTRY)
            or (group not in (Group.GL, Group.SP, Group.OO) and e == E(2))
        ):
            return true_weight(e, i, j + 1, group, n)
        return true_weight(e, i, j, group, n)

    monkeypatch.setattr(flc.tableaux, "_cell_weight", skewed)
    for name, (tableau_route, other_route) in sums.items():
        assert tableau_route() != other_route, name


def _oracle_coefficient(t, group, n):
    """A tableau's coefficient from the public per-tableau statistics alone."""
    if group is Group.EO_DIFF:
        return (-1) ** tab_stats(t, group).bar if is_diff_tableau(t, n) else 0
    if group in _SO_EVEN and len(t.rows) == n:
        return so_even_coefficient(t, group is Group.SO_EVEN_PLUS)
    return 1 << tab_stats(t, group).zeta


# n = 4 with (1, 1, 1, 1) and (2, 1, 1, 1) are the first shapes with
# zeta = 2 (2, 2~, 4, 4~ down column 1), where the so(2n) coefficient is 2.
# n = 3 with a part 3: many level-1 rows share one fan key (OO (3, 3, 1)
# lists 2,079 tableaux).
_TRANSFER_CASES = _ENGINE_CASES + [(4, (2, 1, 1, 1)), (3, (3, 2, 1)), (3, (3, 3, 1))]


@pytest.mark.parametrize("group", list(Group))
def test_transfer_sum_matches_the_per_tableau_oracle(group):
    """group_tableau_sum, the row-by-row transfer sum, against the sum of
    coefficient * weight(t) over enumerate_tableaux, with the coefficient
    from tab_stats, is_diff_tableau or so_even_coefficient; the listing's
    coefficients against the same oracle, and the sum of its triples
    against group_tableau_sum, which flc tableaux prints as their sum."""
    coefficients = set()
    for n, lam in _TRANSFER_CASES:
        if group is Group.EO_DIFF and len([p for p in lam if p]) < n:
            continue  # InvalidShape: test_packed_engine_matches_the_poly_oracle
        listed = [
            (t, c)
            for t in enumerate_tableaux(group, n, lam)
            if (c := _oracle_coefficient(t, group, n))
        ]
        expected = poly_reduce_inverses(poly_sum(c * weight(t, group, n) for t, c in listed))
        total = group_tableau_sum(group, n, lam)
        assert total == expected, (n, lam)
        triples = list(weighted_tableaux(group, n, lam))
        assert [(t, c) for t, c, _ in triples] == listed, (n, lam)
        assert poly_reduce_inverses(poly_sum(c * w for _, c, w in triples)) == total, (n, lam)
        coefficients.update(c for _, c in listed)
    if group in _SO_EVEN:
        assert coefficients == {1, 2}
    elif group is Group.EO_DIFF:
        assert coefficients == {-1, 1}
    elif group in BASE_GROUPS[:3]:
        assert coefficients == {1}
    else:
        assert coefficients == {1, 2, 4}


def test_oo_transfer_sum_forms_one_product_per_shared_fan(monkeypatch):
    """A host-independent guard on the bottom-up grouping, counted as
    |a| * |b| over every packed product (_Layout.mul_add, which
    _Layout.product calls too): OO n=3 lambda=(3,3,3) forms 63,102.
    Multiplying each level-1 row by its own fan forms 77,958, and the
    top-down sum, with a last-level fold per level sum, formed 189,228."""
    products = 0
    true_mul_add = _Layout.mul_add

    def counting(out, a, b, scale=1):
        nonlocal products
        products += len(a) * len(b)
        true_mul_add(out, a, b, scale)

    monkeypatch.setattr(_Layout, "mul_add", staticmethod(counting))
    assert len(tableau_sum(Group.OO, 3, (3, 3, 3)).terms) == 8824
    assert 0 < products < 70_000


def test_rank_four_oo_tableau_sum():
    """A whole rank-4 character from the transfer sum: OO n=4
    lambda=(3,3,3,3), which has 111,293 terms, evaluates at a = 0 and
    every letter 1 to the so(9) dimension."""
    p = tableau_sum(Group.OO, 4, (3, 3, 3, 3))
    assert len(p.terms) == 111_293
    assert units_eval(p) == oracles.dim_so_odd(4, (3, 3, 3, 3)) == 28_314


# ---------------------------------------------------------------------------
# the so(2n) plus/minus sums


def test_so_even_coefficient_piecewise():
    zeta1 = tab([E(2), E(2)], [E(2, barred=True), E(2, barred=True)])
    assert so_even_coefficient(zeta1, True) == 1
    assert so_even_coefficient(zeta1, False) == 1
    zeta2 = tab([E(2)], [E(2, barred=True)], [E(4)], [E(4, barred=True)])
    assert so_even_coefficient(zeta2, True) == 2
    even_bars = tab([E(1, barred=True)], [E(2, barred=True)])
    assert so_even_coefficient(even_bars, True) == 1
    assert so_even_coefficient(even_bars, False) == 0
    odd_bars = tab([E(1)], [E(2, barred=True)])
    assert so_even_coefficient(odd_bars, True) == 0
    assert so_even_coefficient(odd_bars, False) == 1


def test_so_even_sum_rank_one():
    assert poly_to_str(so_even_tableau_sum(1, (1,), True)) == "x1 + a1"
    assert poly_to_str(so_even_tableau_sum(1, (1,), False)) == "xb1 + a1"


def test_so_even_sum_needs_full_length():
    with pytest.raises(InvalidShape):
        so_even_tableau_sum(2, (2, 0), True)


def _supported(n, lam, plus):
    return [
        (t, so_even_coefficient(t, plus))
        for t in enumerate_tableaux(Group.EO, n, lam)
        if so_even_coefficient(t, plus)
    ]


def test_so4_highest_weight_two_two_tableau_sets():
    """The rank-two (2,2) split: five tableaux a side, one shared."""
    plus = _supported(2, (2, 2), True)
    minus = _supported(2, (2, 2), False)
    first_cols = lambda sel: sorted(
        (str(t.rows[0][0]), str(t.rows[1][0])) for t, _ in sel
    )
    assert first_cols(plus) == [("1", "2"), ("1", "2"), ("1~", "2~"), ("1~", "2~"), ("2", "2~")]
    assert first_cols(minus) == [("1", "2~"), ("1", "2~"), ("1~", "2"), ("1~", "2"), ("2", "2~")]
    assert all(c == 1 for _, c in plus + minus)
    shared = {t for t, _ in plus} & {t for t, _ in minus}
    assert shared == {tab([E(2), E(2)], [E(2, barred=True), E(2, barred=True)])}
    assert len({t for t, _ in plus} | {t for t, _ in minus}) == 9


def test_so4_printed_weights():
    b = lambda k: E(k, barred=True)
    cases = [
        (tab([E(1), E(1)], [E(2), E(2)]),
         px(1) * (px(1) + pa(1)) * (px(2) + pa(1)) * (px(2) + pa(2))),
        (tab([E(1), E(2)], [E(2), b(2)]),
         px(1) * (px(2) + pa(1)) * (px(2) + pa(2)) * (pxb(2) + pa(2))),
        (tab([E(2), E(2)], [b(2), b(2)]),
         (px(2) + pa(1)) * (px(2) + pa(2)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2))),
        (tab([E(1), E(1)], [b(2), b(2)]),
         px(1) * (px(1) + pa(1)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2))),
        (tab([b(1), b(1)], [b(2), b(2)]),
         pxb(1) * (pxb(1) + pa(1)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2))),
        (tab([b(1), E(2)], [b(2), b(2)]),
         pxb(1) * (px(2) + pa(2)) * (pxb(2) + pa(1)) * (pxb(2) + pa(2))),
    ]
    for t, expected in cases:
        assert weight(t, Group.EO, 2) == expected, tableau_to_text(t)


@pytest.mark.parametrize("plus", [True, False])
@pytest.mark.parametrize("n", [1, 2])
def test_so_even_sum_matches_determinant_route(n, plus):
    group = Group.SO_EVEN_PLUS if plus else Group.SO_EVEN_MINUS
    for lam in shapes(n, 2):
        if len([p for p in lam if p]) < n:
            continue
        got = so_even_tableau_sum(n, lam, plus)
        assert got == char_so_even(char_spec(group, n, lam)), lam


@pytest.mark.parametrize("n", [1, 2])
def test_so_even_sums_recombine(n):
    for lam in shapes(n, 2):
        if len([p for p in lam if p]) < n:
            continue
        plus = so_even_tableau_sum(n, lam, True)
        minus = so_even_tableau_sum(n, lam, False)
        assert plus + minus == tableau_sum(Group.EO, n, lam)
        assert plus - minus == diff_tableau_sum(n, lam)


# ---------------------------------------------------------------------------
# rendering


def test_text_rendering():
    t = tab([E(1), E(2, barred=True)], [E(2), ZERO_ENTRY])
    assert tableau_to_text(t) == "1 2~\n2 0"
    assert str(t) == tableau_to_text(t)


def test_json_rendering():
    t = tab([E(1), E(2, barred=True)], [ZERO_ENTRY])
    assert tableau_to_json(t) == [
        [{"k": 1, "barred": False}, {"k": 2, "barred": True}],
        ["zero"],
    ]


def test_empty_tableau_rendering():
    t = Tableau((), ())
    assert tableau_to_text(t) == ""
    assert tableau_to_json(t) == []
