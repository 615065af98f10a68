"""Characters by both determinantal routes: pinned small values, route
agreement, denominator identities, the so(2n) family, and dimensions."""

import hashlib
import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given

import flc.characters
import flc.hfuncs
from flc.characters import (
    CharSpec,
    Group,
    _JT_KIND,
    _denominator_factors,
    _denominator_info,
    _flag_spec,
    _weyl_quotient,
    _z_basis,
    _z_divisors,
    char_alternant,
    char_jacobi_trudi,
    char_raw,
    char_raw_diff,
    char_so_even,
    char_spec,
    character,
    dimension,
    make_partition,
    partition_length,
    shapes,
    weyl_denominator_product,
    zero_a,
)
from flc.hfuncs import _CACHE_SIZE, factorial_power, h
from flc.tableaux import group_tableau_sum, tableau_sum
from flc.polyring import (
    A,
    ONE,
    DivisionNotExact,
    X,
    XB,
    ZERO,
    _Layout,
    _det_cofactor,
    _det_separable,
    _separable_table,
    map_s_to_x,
    pa,
    poly_determinant,
    poly_exact_div_inverses_many,
    poly_halve,
    poly_reduce_inverses,
    poly_substitute,
    poly_to_str,
    ps,
    psb,
    px,
    pxb,
)

import oracles
from conftest import _leibniz, polys

red = poly_reduce_inverses

BASE_GROUPS = (Group.GL, Group.SP, Group.OO, Group.EO)


# ---------------------------------------------------------------------------
# partitions and specs


def test_make_partition():
    assert make_partition([2, 1], 3) == (2, 1, 0)
    assert make_partition([], 2) == (0, 0)
    with pytest.raises(ValueError):
        make_partition([1, 2], 3)
    with pytest.raises(ValueError):
        make_partition([1, 1, 1], 2)
    with pytest.raises(ValueError):
        make_partition([-1], 1)


@pytest.mark.parametrize("part", [1.5, True, "2"], ids=["float", "bool", "str"])
def test_make_partition_refuses_a_part_that_is_not_an_int(part):
    """Parts are never truncated or parsed: 2.7 is not 2, True is not 1,
    and "21" is not (2, 1)."""
    with pytest.raises(ValueError, match=f"partition part {re.escape(repr(part))} is not an int"):
        make_partition([2, part], 2)
    with pytest.raises(ValueError, match="is not an int"):
        char_spec(Group.GL, 2, [part])
    with pytest.raises(ValueError, match="is not an int"):
        char_spec(Group.GL, 2, "21")


def test_partition_length():
    assert partition_length((3, 1, 0)) == 2
    assert partition_length((0, 0)) == 0


def test_char_spec_validation():
    with pytest.raises(ValueError):
        char_spec(Group.GL, 0, [])
    with pytest.raises(ValueError):
        char_so_even(char_spec(Group.GL, 2, [1]))


# ---------------------------------------------------------------------------
# pinned small characters


def test_pinned_rank_one_values():
    assert poly_to_str(char_alternant(char_spec(Group.GL, 2, [1]))) == "x1 + x2 + a1 + a2"
    assert poly_to_str(char_alternant(char_spec(Group.SP, 1, [1]))) == "x1 + xb1 + a1"
    assert poly_to_str(char_raw(char_spec(Group.OO, 1, [1]))) == "x1 + xb1 + a1 + 1"
    assert poly_to_str(char_raw(char_spec(Group.EO, 1, [1]))) == "x1 + xb1 + 2*a1"


def test_pinned_so_even_rank_one():
    assert char_so_even(char_spec(Group.SO_EVEN_PLUS, 1, [1])) == px(1) + pa(1)
    assert char_so_even(char_spec(Group.SO_EVEN_MINUS, 1, [1])) == pxb(1) + pa(1)


def test_diff_character_small():
    assert char_raw_diff(1, [1]) == px(1) - pxb(1)
    assert char_raw_diff(2, [1, 0]) == ZERO
    assert char_raw_diff(2, [1, 1]) != ZERO


def test_diff_character_classical_specialization():
    want = (px(1) - pxb(1)) * (px(2) - pxb(2))
    assert zero_a(char_raw_diff(2, [1, 1])) == want


@pytest.mark.parametrize("group", BASE_GROUPS)
def test_empty_partition_gives_one(group):
    spec = char_spec(group, 2, [])
    assert char_raw(spec) == ONE
    assert char_alternant(spec) == ONE
    assert char_jacobi_trudi(spec) == ONE


def test_one_row_characters_are_h_functions():
    from flc.hfuncs import HKind, VarSpec, h

    assert char_jacobi_trudi(char_spec(Group.GL, 2, [2])) == h(
        VarSpec(HKind.GL, singles=(X(1), X(2))), 2
    )
    assert char_jacobi_trudi(char_spec(Group.SP, 2, [3])) == h(
        VarSpec(HKind.SP, pairs=(1, 2)), 3
    )


_JT_GROUPS = BASE_GROUPS + (Group.EO_DIFF,)


def _jacobi_trudi_by_laplace(group, n, lam):
    """The whole n x n flagged matrix of h values, h_{lambda_j - j + i}
    over pairs (GL: letters) i..n, expanded by cofactors as it stands."""
    kind = _JT_KIND[group]
    rows = [
        [h(_flag_spec(kind, i, n), lam[j - 1] - j + i) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return _det_cofactor(rows, paired=True)


@pytest.mark.parametrize("group", _JT_GROUPS, ids=lambda g: g.value)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_jacobi_trudi_by_cauchy_binet_equals_the_laplace_expansion(group, n):
    """Sum_S c_S(a) * chi_S(x) over the a-letters equals the cofactor
    expansion of the whole h matrix, on every shape with n <= 3 and
    parts <= 3 (zero parts and EO_DIFF's vanishing lambda_n = 0 included)
    and on lambda = (1,1,1,1)."""
    for lam in shapes(n, 3) if n < 4 else [(1, 1, 1, 1)]:
        want = _jacobi_trudi_by_laplace(group, n, lam)
        assert char_jacobi_trudi(char_spec(group, n, lam)) == want, lam


# ---------------------------------------------------------------------------
# route agreement (small fast slice; the full range runs in acceptance)


@pytest.mark.parametrize("group", BASE_GROUPS)
@pytest.mark.parametrize("n", (1, 2))
def test_three_routes_agree(group, n):
    for lam in shapes(n, 3):
        spec = char_spec(group, n, lam)
        jt = char_jacobi_trudi(spec)
        assert char_raw(spec) == jt, (group, lam)
        assert char_alternant(spec) == jt, (group, lam)


@pytest.mark.parametrize("group", BASE_GROUPS)
def test_three_routes_agree_rank3_spot(group):
    for lam in [(2, 1, 0), (2, 2, 1), (3, 1, 1)]:
        spec = char_spec(group, 3, lam)
        jt = char_jacobi_trudi(spec)
        assert char_raw(spec) == jt, lam
        assert char_alternant(spec) == jt, lam


@pytest.mark.parametrize(
    "group, lam",
    [
        (Group.GL, (2, 1, 1)),
        (Group.SP, (1, 1, 1, 1, 1, 1)),
        (Group.OO, (1, 1)),
        (Group.EO, (1, 1)),
    ],
)
def test_jacobi_trudi_equals_tableau_sum_rank6(group, lam):
    # Jacobi-Trudi builds only the leading block of nonzero parts: SP
    # lambda=(1^6) is 6x6, larger than any other test reaches, and must
    # stay fast past 5x5; GL (2,1,1) is 3x3 and OO/EO (1,1) are 2x2.
    spec = char_spec(group, 6, make_partition(lam, 6))
    assert char_jacobi_trudi(spec) == tableau_sum(group, 6, spec.lam)


# ---------------------------------------------------------------------------
# denominator identities, transcribed independently of the characters module


def _raw_denominator_matrix(group, n):
    if group is Group.GL:
        entry = lambda i, m: factorial_power(X(i), m)
    elif group is Group.SP:
        entry = lambda i, m: px(i) * factorial_power(X(i), m) - pxb(i) * factorial_power(XB(i), m)
    elif group is Group.OO:
        def entry(i, m):
            xfac = ONE
            bfac = ONE
            for k in range(1, m + 1):
                xfac = xfac * (ps(i) ** 2 + pa(k))
                bfac = bfac * (psb(i) ** 2 + pa(k))
            return ps(i) * xfac - psb(i) * bfac
    else:  # EO
        entry = lambda i, m: factorial_power(X(i), m) + factorial_power(XB(i), m)
    return [[entry(i, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def _raw_denominator(group, n):
    det = poly_determinant(_raw_denominator_matrix(group, n))
    return poly_halve(det) if group is Group.EO else det


def _denominator_product(group, n):
    prod = ONE
    if group is Group.GL:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                prod = prod * (px(i) - px(j))
        return prod
    if group is Group.OO:
        for i in range(1, n + 1):
            prod = prod * (ps(i) - psb(i))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                prod = prod * (ps(i) ** 2 + psb(i) ** 2 - ps(j) ** 2 - psb(j) ** 2)
        return prod
    if group is Group.SP:
        for i in range(1, n + 1):
            prod = prod * (px(i) - pxb(i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            prod = prod * (px(i) + pxb(i) - px(j) - pxb(j))
    return prod


@pytest.mark.parametrize("group", BASE_GROUPS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_denominator_equals_weyl_product(group, n):
    det = red(_raw_denominator(group, n))
    prod = red(_denominator_product(group, n))
    assert det == prod
    assert red(weyl_denominator_product(group, n)) == prod


@pytest.mark.parametrize("group", BASE_GROUPS)
@pytest.mark.parametrize("n", (2, 3))
def test_denominator_independent_of_a(group, n):
    rows = _raw_denominator_matrix(group, n)
    a_vars = {v for row in rows for e in row for v in e.variables() if v.kind == "a"}
    if n >= 2:
        assert a_vars  # the raw entries genuinely mention a's
    prod = red(_denominator_product(group, n))
    for value_of in (lambda v: 0, lambda v: 1 + 2 * v.index):
        subs = {v: value_of(v) for v in a_vars}
        det = poly_determinant(
            [[poly_substitute(e, subs) for e in row] for row in rows]
        )
        if group is Group.EO:
            det = poly_halve(det)
        assert red(det) == prod


# ---------------------------------------------------------------------------
# the denominator as the ratio routes divide by it: the z-binomials


@pytest.mark.parametrize("route", ("raw", "alternant"))
@pytest.mark.parametrize("group", BASE_GROUPS)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_denominator_info_lists_matching_binomials(group, n, route):
    """The route's denominator determinant equals its product form, whose
    cross factors the Weyl quotients divide by as n(n-1)/2 binomials
    z_i - z_j."""
    assert _denominator_info(group, n, route) is True
    divisors = _z_divisors(n)
    assert len(divisors) == n * (n - 1) // 2
    assert all(len(f.terms) == 2 for f in divisors)


@pytest.mark.parametrize(
    "group, n, text",
    [
        (Group.GL, 1, "1"),
        (Group.GL, 2, "x1 - x2"),
        (Group.SP, 1, "x1 - xb1"),
        (Group.SP, 2, "x1^2*x2 - x1^2*xb2 - x1*x2^2 + x1*xb2^2 - xb1^2*x2 + xb1^2*xb2 + xb1*x2^2 - xb1*xb2^2"),
        (Group.OO, 1, "s1 - sb1"),
        (
            Group.OO,
            2,
            "s1^3*s2 - s1^3*sb2 - s1^2*sb1*s2 + s1^2*sb1*sb2 + s1*sb1^2*s2 - s1*sb1^2*sb2"
            " - s1*s2^3 + s1*s2^2*sb2 - s1*s2*sb2^2 + s1*sb2^3 - sb1^3*s2 + sb1^3*sb2"
            " + sb1*s2^3 - sb1*s2^2*sb2 + sb1*s2*sb2^2 - sb1*sb2^3",
        ),
        (Group.EO, 1, "1"),
        (Group.EO, 2, "x1 + xb1 - x2 - xb2"),
        (Group.GL, 3, "x1^2*x2 - x1^2*x3 - x1*x2^2 + x1*x3^2 + x2^2*x3 - x2*x3^2"),
        # longer texts, pinned by their SHA-256
        (Group.SP, 3, "sha256:a4468f6d606cded1ec8d3fed5b992d0b1a74541b7515da2e76614adcccb64ea3"),
        (Group.OO, 3, "sha256:24e3881a74267a83b54baa5bf7dbebfd1f156d19c8bb0622b1343bc091fdcda8"),
        (Group.EO, 3, "sha256:729477874fa11af195c0f86ebc17729a505ef66cdbb8674cc109b2a1d079f6c5"),
    ],
)
def test_weyl_denominator_product_text(group, n, text):
    """The public product form is the free-ring product of the four-term
    factors, whatever list the ratio routes divide by."""
    got = poly_to_str(weyl_denominator_product(group, n))
    if text.startswith("sha256:"):
        got = "sha256:" + hashlib.sha256(got.encode()).hexdigest()
    assert got == text


@pytest.mark.usefixtures("flipped_own_pair_factor")
def test_denominator_with_a_flipped_binomial_is_refused():
    assert _denominator_info(Group.SP, 2, "raw") is False
    with pytest.raises(ArithmeticError, match="differs from its product form"):
        char_raw(char_spec(Group.SP, 2, (1,)))


@pytest.mark.parametrize("route", ("raw", "alternant"))
@pytest.mark.parametrize("group", (Group.SP, Group.OO))
def test_inexact_numerator_is_refused(group, route):
    """The public fold ``poly_exact_div_inverses_many`` on a real route
    numerator, not the route itself (which divides only Weyl quotients,
    see test_inexact_weyl_quotient_is_refused): divided by the
    denominator's product-form factors it gives the character, and with
    one extra term, x1*a1, it must raise, never return a quotient."""
    n, lam = 3, (2, 1, 0)
    exps = [lam[j] + n - (j + 1) for j in range(n)]
    numer = _det_cofactor(flc.characters._route_rows(group, n, route, exps), paired=True)
    factors = _denominator_factors(_factor_group(group, route), n)
    in_s = group is Group.OO and route == "raw"
    quot = poly_exact_div_inverses_many(numer, factors)
    assert (map_s_to_x(quot) if in_s else quot) == char_jacobi_trudi(char_spec(group, n, lam))
    extra = (ps(1) ** 2 if in_s else px(1)) * pa(1)
    with pytest.raises(DivisionNotExact):
        poly_exact_div_inverses_many(numer + extra, factors)


_SEPARABLE_ROUTES = [(g, r) for g in BASE_GROUPS for r in ("raw", "alternant")] + [(Group.EO_DIFF, "raw")]


@pytest.mark.parametrize("group, route", _SEPARABLE_ROUTES)
def test_route_determinants_by_cauchy_binet_equal_the_cofactor_expansion(group, route):
    """Every numerator and denominator matrix of the ratio routes, n <= 3,
    parts <= 2: Cauchy-Binet on the paired layout equals the cofactor
    expansion of the same matrix, and both equal the Leibniz sum, which
    shares no engine with them."""
    for n in (1, 2, 3):
        for exps in [[n - (j + 1) for j in range(n)]] + [
            [lam[j] + n - (j + 1) for j in range(n)] for lam in shapes(n, 2)
        ]:
            rows = flc.characters._route_rows(group, n, route, exps)
            layout, _ = _Layout.for_products(rows, paired=True)
            det = _det_separable(*_separable_table(rows, layout), layout)
            want = poly_reduce_inverses(_leibniz(rows))
            assert layout.to_poly(det) == _det_cofactor(rows, paired=True) == want


def _clear_ratio_caches():
    _denominator_info.cache_clear()
    _weyl_quotient.cache_clear()
    _z_basis.cache_clear()


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm-denominator"))
def test_route_refuses_a_row_with_shifted_a_letters(monkeypatch, warm):
    """Row 2's raw entries with every a_k moved to a_(k+1): the matrix is
    no longer row-separable, so char_raw must raise ValueError, never
    return a polynomial.  Warm: the true denominator is cached before the
    fault, so the numerator's own check is what raises."""
    true_entry = flc.characters._raw_entry

    def shifted(group, i, m):
        entry = true_entry(group, i, m)
        if i != 2:
            return entry
        return poly_substitute(entry, {v: pa(v.index + 1) for v in entry.variables() if v.kind == "a"})

    spec = char_spec(Group.SP, 2, (1, 1))
    _clear_ratio_caches()
    try:
        if warm:
            _denominator_info(Group.SP, 2, "raw")
        monkeypatch.setattr(flc.characters, "_raw_entry", shifted)
        with pytest.raises(ValueError, match="not row-separable"):
            char_raw(spec)
    finally:
        _clear_ratio_caches()


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
@pytest.mark.parametrize("group, route", [(Group.SP, "raw"), (Group.EO, "alternant")])
def test_route_refuses_a_column_that_breaks_the_weyl_symmetry(monkeypatch, group, route, warm):
    """Every entry of the route gains a1*x_i, a plain-side term with no
    barred mirror: the matrix stays row-separable, but its columns no
    longer fold onto the route's Weyl basis, so the route must raise
    ValueError, never return a polynomial.  Warm: the true denominator and
    quotients are cached before the fault."""
    name = "_raw_entry" if route == "raw" else "_alt_entry"
    true_entry = getattr(flc.characters, name)
    char = char_raw if route == "raw" else char_alternant

    def broken(g, i, m):
        return true_entry(g, i, m) + pa(1) * px(i)

    spec = char_spec(group, 2, (1, 1))
    _clear_ratio_caches()
    try:
        if warm:
            char(spec)
        monkeypatch.setattr(flc.characters, name, broken)
        rows = flc.characters._route_rows(group, 2, route, [2, 1])
        _separable_table(rows, _Layout.for_products(rows, paired=True)[0])  # row-separable still
        with pytest.raises(ValueError, match="Weyl symmetry"):
            char(spec)
    finally:
        _clear_ratio_caches()


def test_inexact_weyl_quotient_is_refused(monkeypatch):
    """One z-divisor too many, z_1 + 1, while the denominator still
    matches its product form: the quotients chi_E are then inexact, and
    the route must raise DivisionNotExact, never return a polynomial."""
    true_divisors = flc.characters._z_divisors

    def one_too_many(n):
        return true_divisors(n) + [px(1) + ONE]

    _clear_ratio_caches()
    try:
        monkeypatch.setattr(flc.characters, "_z_divisors", one_too_many)
        with pytest.raises(DivisionNotExact):
            char_raw(char_spec(Group.SP, 2, (1, 1)))
    finally:
        _clear_ratio_caches()


def _route_character(group, route, n, lam):
    if group is Group.EO_DIFF:
        return char_raw_diff(n, lam)
    return (char_raw if route == "raw" else char_alternant)(char_spec(group, n, lam))


def _factor_group(group, route):
    """The group of the route's denominator factors: EO for EO_DIFF and
    for every alternant route outside GL."""
    if group is Group.EO_DIFF or (route == "alternant" and group is not Group.GL):
        return Group.EO
    return group


def _ratio_by_whole_division(group, route, n, lam):
    """The whole-numerator oracle: the numerator determinant by cofactor
    expansion, checked against the Leibniz sum, divided modulo the
    pairing by the denominator's product-form factors."""
    exps = [lam[j] + n - (j + 1) for j in range(n)]
    rows = flc.characters._route_rows(group, n, route, exps)
    numer = _det_cofactor(rows, paired=True)
    assert numer == poly_reduce_inverses(_leibniz(rows))
    out = poly_exact_div_inverses_many(numer, _denominator_factors(_factor_group(group, route), n))
    if group is Group.EO and lam[-1] == 0:
        out = poly_halve(out)
    return map_s_to_x(out) if group is Group.OO and route == "raw" else out


@pytest.mark.parametrize("group, route", _SEPARABLE_ROUTES)
def test_ratio_by_linearity_equals_the_whole_division(group, route):
    """Sum c_E * chi_E, each chi_E divided in the free z-ring, equals the
    whole-numerator oracle on every shape with n <= 3 and parts <= 3, and
    on lambda = (1,1,1,1) and (2,1,1,1); the quotient cache stays bounded."""
    cases = [(n, lam) for n in (1, 2, 3) for lam in shapes(n, 3)]
    cases += [(4, (1, 1, 1, 1)), (4, (2, 1, 1, 1))]
    for n, lam in cases:
        want = _ratio_by_whole_division(group, route, n, lam)
        assert _route_character(group, route, n, lam) == want, (n, lam)
    assert _weyl_quotient.cache_info().maxsize == _CACHE_SIZE


# Every (route, basis group) whose Weyl quotients _weyl_quotient divides.
_Z_BASES = [("raw", g) for g in (*BASE_GROUPS, Group.EO_DIFF)] + [
    ("alternant", Group.GL),
    ("alternant", Group.EO),
]


@pytest.mark.parametrize("route, group", _Z_BASES)
def test_z_basis_satisfies_its_identity(route, group):
    """own(y) * p_e(z) = b_e(y) for each e <= 12 the basis takes, with
    own(y) = y - 1/y for the odd bases (1 otherwise), z = y for GL,
    z = y^2 + 1/y^2 for raw OO in the s-letters and z = y + 1/y
    otherwise.  Checked in exact rationals at 28 points: times y^13 each
    side is a polynomial of degree at most 26, so they are equal."""
    in_s = group is Group.OO and route == "raw"
    sign = flc.characters._basis_sign(group, route)
    for e in range(13):
        if (sign == -1 and e == 0) or (in_s and e % 2 == 0):
            continue
        p = _z_basis(route, group, e)
        for y in map(Fraction, range(2, 30)):
            z = y if sign is None else y * y + 1 / (y * y) if in_s else y + 1 / y
            own = y - 1 / y if sign == -1 else 1
            b = y ** e if sign is None or e == 0 else y ** e + sign * y ** -e
            assert own * sum(c * z ** k for k, c in enumerate(p)) == b, (e, y)
    assert _z_basis.cache_info().maxsize == _CACHE_SIZE


@pytest.mark.parametrize("route, group", [("raw", Group.SP), ("raw", Group.OO), ("alternant", Group.EO)])
def test_a_broken_z_basis_is_refused(monkeypatch, route, group):
    """U and V by a broken recurrence, w_(k+1) = z*w_k + w_(k-1): the
    bialternant det[p_e(z_i)] stays alternating, so it still divides
    exactly, and only the identity check stands between it and a wrong
    character.  The route must raise ArithmeticError."""

    def broken(k, w0, w1):
        for _ in range(k):
            w0, w1 = w1, [a + b for a, b in zip_longest([0] + w1, w0, fillvalue=0)]
        return w0

    char = char_raw if route == "raw" else char_alternant
    _clear_ratio_caches()
    try:
        monkeypatch.setattr(flc.characters, "_chebyshev", broken)
        with pytest.raises(ArithmeticError, match="differs from its z-form"):
            char(char_spec(group, 2, (2, 1)))
    finally:
        _clear_ratio_caches()


# ---------------------------------------------------------------------------
# so(2n) family


@pytest.mark.parametrize("n", (1, 2))
def test_so_even_decomposition(n):
    for lam in shapes(n, 3):
        if partition_length(lam) < n:
            continue
        eo = char_jacobi_trudi(char_spec(Group.EO, n, lam))
        eod = char_jacobi_trudi(char_spec(Group.EO_DIFF, n, lam))
        plus = char_so_even(char_spec(Group.SO_EVEN_PLUS, n, lam))
        minus = char_so_even(char_spec(Group.SO_EVEN_MINUS, n, lam))
        assert plus + minus == eo, lam
        assert plus - minus == eod, lam
        assert char_raw_diff(n, lam) == eod, lam


def test_so_even_degenerate_equals_eo():
    lam = [2, 1, 0]
    eo = char_jacobi_trudi(char_spec(Group.EO, 3, lam))
    for g in (Group.SO_EVEN_PLUS, Group.SO_EVEN_MINUS):
        assert char_so_even(char_spec(g, 3, lam)) == eo


def test_eod_jacobi_trudi_zero_when_last_part_zero():
    for lam in [(1, 0), (3, 2, 0)]:
        n = len(lam)
        assert char_jacobi_trudi(char_spec(Group.EO_DIFF, n, lam)) == ZERO


# The groups each route accepts; every other group raises ValueError.
# char_raw_diff takes no group: it is the raw route of EO_DIFF alone.
_ROUTE_GROUPS = {
    char_raw: BASE_GROUPS,
    char_alternant: BASE_GROUPS,
    char_jacobi_trudi: BASE_GROUPS + (Group.EO_DIFF,),
}


@pytest.mark.parametrize("group", list(Group), ids=lambda g: g.value)
def test_route_group_contract(group):
    n, lam = 2, (2, 1)
    spec = char_spec(group, n, lam)
    expected = group_tableau_sum(group, n, lam)
    for route, accepted in _ROUTE_GROUPS.items():
        if group in accepted:
            assert route(spec) == expected, route.__name__
        else:
            with pytest.raises(ValueError):
                route(spec)
    assert (char_raw_diff(n, lam) == expected) == (group is Group.EO_DIFF)


def test_character_dispatch():
    spec = char_spec(Group.SP, 2, [1, 1])
    assert character(spec) == char_jacobi_trudi(spec)
    so = char_spec(Group.SO_EVEN_PLUS, 2, [1, 1])
    assert character(so) == char_so_even(so)


# ---------------------------------------------------------------------------
# dimensions against the independent Weyl oracle


_ORACLES = {
    Group.GL: oracles.dim_gl,
    Group.SP: oracles.dim_sp,
    Group.OO: oracles.dim_so_odd,
    Group.EO: oracles.dim_o_even,
    Group.SO_EVEN_PLUS: oracles.dim_so_even,
    Group.SO_EVEN_MINUS: oracles.dim_so_even,
}


@pytest.mark.parametrize("group", list(_ORACLES))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_dimension_matches_weyl_formula(group, n):
    for lam in shapes(n, 2):
        want = _ORACLES[group](n, lam)
        assert dimension(char_spec(group, n, lam)) == want, (group, lam)


def test_jacobi_trudi_builds_only_the_elementary_functions_it_reads(monkeypatch):
    """Host-independent guard: Q's column j reads e_0..e_(lambda_j - j + k)
    of its a-alphabet only, so GL n=20, lambda=(1) runs the a-loop on
    seeds of two coefficients, where building every e_0..e_20 takes 2^20
    terms.  The rank-30 dimensions of lambda = (1) and (1, 1), which
    would take 2^30, then match the Weyl oracle."""
    flc.hfuncs._elementary.cache_clear()
    flc.characters._coefficient_minors.cache_clear()
    a_loop = flc.hfuncs._a_loop

    def short_seeds_only(c, length, shift=0):
        assert len(c) <= 3, f"the a-loop runs on a seed of {len(c)} coefficients"
        return a_loop(c, length, shift)

    monkeypatch.setattr(flc.hfuncs, "_a_loop", short_seeds_only)
    char_jacobi_trudi(char_spec(Group.GL, 20, [1]))
    for group in BASE_GROUPS:
        for lam in ((1,), (1, 1)):
            assert dimension(char_spec(group, 30, lam)) == _ORACLES[group](30, lam), (group, lam)


@given(polys())
@example(ONE * 3)
@example(pa(1) * pa(2) * pa(2))
@example(px(1) * pa(2))
def test_zero_a_is_substituting_zero_for_every_a(p):
    assert zero_a(p) == poly_substitute(p, {A(1): 0, A(2): 0})


def test_dimension_pinned_values():
    assert dimension(char_spec(Group.GL, 3, [2, 1])) == 8
    assert dimension(char_spec(Group.SP, 2, [1, 1])) == 5
    assert dimension(char_spec(Group.OO, 2, [1])) == 5
    assert dimension(char_spec(Group.OO, 3, [1])) == 7
    assert dimension(char_spec(Group.EO, 2, [1])) == 4
    assert dimension(char_spec(Group.EO, 3, [1])) == 6
