"""Ring axioms, exact division, inverse-pair reduction, determinants,
rendering and serialization for the sparse polynomial core."""

import tracemalloc
from itertools import combinations

import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flc.characters import (
    Group,
    _denominator_factors,
    char_jacobi_trudi,
    char_spec,
)
from flc.polyring import (
    A,
    ONE,
    X,
    XB,
    ZERO,
    DivisionByZero,
    DivisionNotExact,
    MissingAssignment,
    NonSquare,
    OddCoefficient,
    Poly,
    VarId,
    _Layout,
    _det_separable,
    _minors,
    _separable_table,
    eval_integer,
    pa,
    parse_var,
    poly_const,
    poly_determinant,
    poly_exact_div,
    poly_exact_div_inverses,
    poly_exact_div_inverses_many,
    poly_from_json,
    poly_halve,
    poly_reduce_inverses,
    poly_substitute,
    poly_sum,
    poly_to_json,
    poly_to_str,
    poly_var,
    ps,
    psb,
    px,
    pxb,
)

import oracles
from oracles import OddHalfPower, det_reduced, map_s_to_x, weyl_denominator_product
from conftest import _leibniz, nonzero_polys, polys

x1, x2, x3 = px(1), px(2), px(3)
xb1, xb2 = pxb(1), pxb(2)
a1, a2, a3 = pa(1), pa(2), pa(3)


# ---------------------------------------------------------------------------
# ring axioms


@given(polys(), polys())
def test_add_commutative(p, q):
    assert p + q == q + p


@given(polys(), polys(), polys())
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys())
def test_add_identity_and_inverse(p):
    assert p + ZERO == p
    assert p - p == ZERO


@given(st.lists(polys(), max_size=6))
def test_sum_is_left_fold_of_add(ps):
    folded = ZERO
    for p in ps:
        folded = folded + p
    got = poly_sum(ps)
    assert got == folded
    assert all(got.terms.values())  # no zero coefficient is kept


# Products that cancel, with the constant monomial in the shorter operand,
# in the longer one or in both, and a left operand longer than the right.
@given(polys(), polys())
@example(1 + x1, 1 - x1)
@example(1 + x1 * xb1, 1 - x1 * xb1)  # the free ring: x1*xb1 is a monomial
@example(x1 - x1 * x1 + x2, 1 + x1)
@example(1 - x1 + x2, x1 + x1 * x1)
def test_mul_commutative(p, q):
    assert p * q == q * p
    assert all((p * q).terms.values())  # no zero coefficient is kept


@settings(max_examples=50)
@given(polys(), polys(), polys())
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys())
def test_mul_identity_and_zero(p):
    assert p * ONE == p
    assert p * ZERO == ZERO


@settings(max_examples=50)
@given(polys(), polys(), polys())
@example(1 + x1, ONE, -x1)
@example(1 + x1 * xb1, ONE, -x1 * xb1)
@example(x1 - x1 * x1 + x2, ONE, x1)
@example(1 - x1 + x2, x1, x1 * x1)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_canonical_no_zero_entries(p):
    for mono, coeff in p.terms.items():
        assert coeff != 0
        assert all(exp > 0 for _, exp in mono)


def test_int_coercion_both_sides():
    assert 2 * x1 == x1 + x1
    assert x1 * 2 == x1 + x1
    assert 1 + x1 - 1 == x1


# ---------------------------------------------------------------------------
# a_j with j <= 0 is identically zero


def test_nonpositive_a_vanishes():
    assert pa(0) == ZERO
    assert pa(-3) == ZERO
    assert x1 + pa(-1) == x1
    assert (x1 + pa(0)) * (x1 + pa(1)) == x1 * x1 + x1 * a1


def test_nonpositive_a_never_stored():
    p = (x1 + pa(-2)) * (xb1 + pa(0)) + pa(-5) ** 3
    for mono, _ in p.terms.items():
        for code, _exp in mono:
            pass  # reaching here means the monomial was stored
    assert p == x1 * xb1


# ---------------------------------------------------------------------------
# exact division


# The examples of both tests divide by binomials: a lead coefficient
# that is not a unit, a negative second coefficient, a lead spanning
# several fields, a negative lead, x_i*x_j - 1 (1 - xb_i*xb_j times
# x_i*x_j, as poly_exact_div_inverses clears it, by a higher power), and
# a formal x1 - xb1.
@settings(max_examples=200)
@given(polys(), nonzero_polys())
@example(x1 * x1 + ONE, 2 * x1 - 3 * ONE)
@example(x1 * a2 - x2 * x2, x2 - 2 * a1)
@example(x2 * x3 + x1 * x3, x1 * x2 - x3)
@example(x1 * x2 - a1 * a1, -3 * x1 * a1 + 2 * x2)
@example(x1 ** 3 * xb2 + a1, x1 * x2 - ONE)
@example(x1 * x1 + xb1, x1 - xb1)
def test_exact_div_round_trip(p, q):
    assert poly_exact_div(p * q, q) == p


@settings(max_examples=200)
@given(polys(), nonzero_polys())
@example((x1 * x1 + ONE) * (2 * x1 - 3 * ONE) + ONE, 2 * x1 - 3 * ONE)  # a non-unit lead
@example(x2 * x3 * (x1 * x2 - x3) + x1 * x3, x1 * x2 - x3)  # a remainder term below the lead
@example((x1 * a2 - x2) * (x2 - 2 * a1) + a1, x2 - 2 * a1)
@example((x1 - a1) * (-3 * x1 * a1 + 2 * x2) + x2, -3 * x1 * a1 + 2 * x2)
@example((x1 ** 3 * xb2 + a1) * (x1 * x2 - ONE) + xb2, x1 * x2 - ONE)
@example((x1 + xb1) * (x1 - xb1) + x1 * xb1, x1 - xb1)
def test_exact_div_quotient_is_exact(p, q):
    # any quotient returned must multiply back; otherwise the division refuses
    try:
        quot = poly_exact_div(p, q)
    except DivisionNotExact:
        return
    assert quot * q == p


@pytest.mark.parametrize(
    "p, q, lead, lead_q",
    [
        (x1 * x1 + ONE, x1 + ONE, "2", "x1"),
        # the leading exponents fit in every field but the lowest one
        (x1 * x2, x2 * x3 + ONE, "x1*x2", "x2*x3"),
        # the monomials divide but the coefficients do not
        (2 * x1, 3 * x1, "2*x1", "3*x1"),
        # a divisor letter that the dividend never mentions
        (x1 * x1 + a1, x1 + a2, "a2^2", "x1"),
        # by x1 - x3, eliminating x1^3 walks x1^2*x3 and x1*x3^2 down to
        # x3^3, but x2^3, above x3^3, is the largest term that fails
        (x1 ** 3 + x2 ** 3, x1 - x3, "x2^3", "x1"),
    ],
    ids=["remainder", "lower-field", "coefficient", "absent-letter", "largest-failure"],
)
def test_exact_div_rejects_remainder(p, q, lead, lead_q):
    with pytest.raises(DivisionNotExact) as info:
        poly_exact_div(p, q)
    assert str(info.value) == (
        f"remainder nonzero: leading term {lead} is not divisible by {lead_q}"
    )


def test_exact_div_by_zero():
    with pytest.raises(DivisionByZero):
        poly_exact_div(x1, ZERO)
    # nonzero in the free ring, zero once matched reciprocal pairs cancel
    q = -3 * xb1 * xb1 * x2 * x2 * xb2 * xb2 + 3 * xb1 * xb1
    with pytest.raises(DivisionByZero):
        poly_exact_div_inverses(ZERO, q)


@pytest.mark.parametrize(
    "numer, denom, quot",
    [
        # antisymmetric in x1, x2
        (x1 * x1 * x2 - x1 * x2 * x2, x1 - x2, x1 * x2),
        # a constant divisor
        (6 * x1 * a1 - 4 * x2, poly_const(2), 3 * x1 * a1 - 2 * x2),
        # high exponents
        ((x1 - a1) * (x1 ** 40 + a2), x1 - a1, x1 ** 40 + a2),
        # the free ring: x1*xb1 is a monomial of its own, not 1
        (x1 * xb1 * x2 - x2, x2, x1 * xb1 - ONE),
    ],
    ids=["antisymmetric", "constant-divisor", "high-exponent", "free-ring-pair"],
)
def test_exact_div_antisymmetric_alternant(numer, denom, quot):
    assert poly_exact_div(numer, denom) == quot


# ---------------------------------------------------------------------------
# inverse-pair reduction (xb_i acts as the reciprocal of x_i)


def test_reduce_inverses_cancels_matched_pairs():
    assert poly_reduce_inverses(x1 * xb1) == ONE
    assert poly_reduce_inverses(x1 * x1 * xb1) == x1
    assert poly_reduce_inverses(x1 * xb1 * xb1 * x2) == xb1 * x2
    assert poly_reduce_inverses(ps(1) * psb(1)) == ONE


def test_reduce_inverses_collects_collisions():
    # distinct monomials that agree after cancellation must merge
    p = x1 * xb1 * a1 + a1
    assert poly_reduce_inverses(p) == 2 * a1
    q = x1 * xb1 * a1 - a1
    assert poly_reduce_inverses(q) == ZERO


@given(polys())
def test_reduce_inverses_idempotent(p):
    r = poly_reduce_inverses(p)
    assert poly_reduce_inverses(r) == r


@settings(max_examples=100)
@given(polys(), polys())
def test_reduce_inverses_is_ring_hom(p, q):
    red = poly_reduce_inverses
    assert red(p + q) == red(red(p) + red(q))
    assert red(p * q) == red(red(p) * red(q))


def test_reduce_inverses_leaves_a_letters_alone():
    p = a1 * a2 + 3 * a3
    assert poly_reduce_inverses(p) == p


# ---------------------------------------------------------------------------
# the paired packed layout: one signed field per inverse pair


@settings(max_examples=150)
@given(st.lists(polys(), min_size=2, max_size=3))
# x1*xb1 and 1 collide on packing, with opposite coefficients
@example([x1 * xb1 - ONE + a1, x1 * xb1 + ONE])
# net exponent -D in one field, and in the degree field
@example([xb1 ** 70, xb1 ** 30 * xb2 ** 40])
@example([x1 ** 70 + xb1 ** 70, xb2 ** 70 + x2 * a1])
def test_paired_layout_equals_the_reduced_poly_arithmetic(factors):
    """Pack one group per factor, multiply and combine on the packed ints,
    unpack, and compare with the reduced Poly arithmetic.  Exponents
    reach 70 on x and xb alike, so net exponents reach +-D."""
    red = poly_reduce_inverses
    layout, groups = _Layout.for_products([[f] for f in factors])
    packed = [g[0] for g in groups]
    for f, pf in zip(factors, packed):
        assert layout.to_poly(pf) == red(f)
    prod = ONE
    for f in factors:
        prod = prod * f
    assert layout.to_poly(layout.product(packed)) == red(prod)
    out: dict = {}
    layout.mul_add(out, packed[0], packed[1], -2)
    assert layout.to_poly(out) == red(-2 * factors[0] * factors[1])


_SEAM_CASES = {
    "letters-only": x1**2 * xb2 + 3 * xb1 * x2 - x1 * xb1 + ps(1) * psb(2),
    "a-only": a1**2 * a3 - 2 * a2 + a1,
    "constant-only": poly_const(5),
    "mixed": x1 * xb1 * a2 + xb2**3 * a1 - a3 + x1 - 7,
}


@pytest.mark.parametrize("paired", [False, True], ids=["formal", "paired"])
@pytest.mark.parametrize("name", list(_SEAM_CASES))
def test_to_poly_round_trips_on_both_sides_of_the_seam(name, paired):
    """to_poly unpacks the letter fields and the a-fields apart, or a
    layout's two halves when it has fields of one kind or none: each
    round trip gives p in a formal layout and p reduced modulo the
    pairing in a paired one."""
    p = _SEAM_CASES[name]
    layout = _Layout.for_rows([[p]], paired)
    assert layout.to_poly(layout.pack_terms(p)) == (poly_reduce_inverses(p) if paired else p)


def test_to_poly_offset_multiplies_every_monomial():
    """The nonzero offset of poly_exact_div_inverses: each monomial is
    multiplied by the packed offset before it is unpacked, across the
    seam, with net exponents going negative in the pair fields."""
    p = _SEAM_CASES["mixed"]
    shift = xb1**2 * x2 * a2
    layout, ((packed,), (packed_shift,)) = _Layout.for_products([[p], [shift]])
    (offset,) = packed_shift  # the one packed monomial
    assert layout.to_poly(packed, offset) == poly_reduce_inverses(p * shift)


@pytest.mark.parametrize("n", [3, 4])
def test_product_carries_no_cancelled_zeros(monkeypatch, n):
    """The symplectic denominator's factors cancel a great deal modulo the
    pairing: ``_Layout.product`` must drop those zeros after every factor,
    so no accumulator that it hands to ``mul_add`` holds a zero
    coefficient, and the product is still the reduced one."""
    accumulators = []
    true_mul_add = _Layout.mul_add

    def spy(out, a, b, scale=1):
        accumulators.append(b)
        true_mul_add(out, a, b, scale)

    factors = _denominator_factors(Group.SP, n)
    layout, groups = _Layout.for_products([[f] for f in factors])
    monkeypatch.setattr(_Layout, "mul_add", staticmethod(spy))
    prod = layout.product(g[0] for g in groups)
    assert len(accumulators) == len(factors)
    assert [sum(1 for c in acc.values() if not c) for acc in accumulators] == [0] * len(factors)
    assert layout.to_poly(prod) == poly_reduce_inverses(weyl_denominator_product(Group.SP, n))


@settings(max_examples=100)
@given(polys(), nonzero_polys())
def test_exact_div_inverses_round_trip(p, q):
    red = poly_reduce_inverses
    # q may be nonzero yet vanish modulo the pairing; that is a division
    # by zero, pinned in test_exact_div_by_zero
    assume(red(q))
    got = poly_exact_div_inverses(p * q, q)
    assert got == red(got)  # result is in normal form
    assert red(got - red(p)) == ZERO


def test_exact_div_inverses_uses_the_pair_relation():
    # (x1 - xb1) * (x1 + xb1) = x1^2 - xb1^2 modulo x1*xb1 = 1
    numer = x1 * x1 - xb1 * xb1
    assert poly_exact_div_inverses(numer, x1 - xb1) == x1 + xb1
    # not free-divisible, only divisible modulo the relation:
    numer2 = x1 * x1 - ONE
    assert poly_exact_div_inverses(numer2, x1 - xb1) == x1
    with pytest.raises(DivisionNotExact):
        poly_exact_div(numer2, x1 - xb1)
    # xb1 / x1 = xb1^2 reaches net exponent -D - S = -2; clearing the
    # dividend by less than D + 2S = 3 leaves no room for it
    assert poly_exact_div_inverses(xb1, x1) == xb1 ** 2


def test_exact_div_inverses_detects_genuine_failure():
    with pytest.raises(DivisionNotExact):
        poly_exact_div_inverses(x1 * x1 + ONE, x1 - xb1)


def test_exact_div_inverses_many_chains():
    prod = (x1 - xb1) * (x2 - xb2) * (x1 + xb1 - x2 - xb2)
    quot = poly_exact_div_inverses_many(
        prod * (x1 + x2), [(x1 - xb1), (x2 - xb2), (x1 + xb1 - x2 - xb2)]
    )
    assert quot == x1 + x2
    # each step deepens the bars, down to -D - S = -4 (D = 2, S = 2)
    assert poly_exact_div_inverses_many(xb1 ** 2, [x1, x1]) == xb1 ** 4


@settings(max_examples=100)
@given(polys(), st.lists(nonzero_polys(), min_size=1, max_size=3))
def test_exact_div_inverses_many_is_the_fold(f, qs):
    red = poly_reduce_inverses
    assume(all(red(q) for q in qs))
    p = f
    for q in qs:
        p = p * q
    folded = p
    for q in qs:
        folded = poly_exact_div_inverses(folded, q)
    assert poly_exact_div_inverses_many(p, qs) == folded == red(f)


@settings(max_examples=100)
@given(polys(), nonzero_polys(), polys(), nonzero_polys(), nonzero_polys())
# A divisor of degree 69 before an inexact four-term step, then a
# binomial: 0.4 s when the whole list was cleared by one degree bound,
# well past the 200 ms deadline; the fold stops at the inexact step.
@example(
    px(2),
    px(2) ** 69 - xb1 ** 34,
    ONE,
    x1 ** 2 * x2 + 2 * x1 ** 2 * xb2 + 3 * a1 - 2 * x2 * xb2 * a1 ** 2,
    -3 * xb2 * a1 * a2 ** 58 - 2 * a1 ** 29,
)
def test_exact_div_inverses_many_fails_like_the_fold(f, q1, g, q2, q3):
    # The first step is exact; a later one fails for most draws.
    red = poly_reduce_inverses
    assume(red(q1) and red(q2) and red(q3))
    p = f * q1 * g
    try:
        folded = p
        for q in (q1, q2, q3):
            folded = poly_exact_div_inverses(folded, q)
    except DivisionNotExact as err:
        message = str(err)
    else:
        assume(False)  # every step happened to be exact
    with pytest.raises(DivisionNotExact) as chained:
        poly_exact_div_inverses_many(p, [q1, q2, q3])
    assert str(chained.value) == message


@settings(max_examples=150)
@given(
    polys(),
    st.lists(nonzero_polys(), max_size=2),
    st.lists(st.tuples(st.integers(1, 3), st.booleans(), st.integers(1, 40)), min_size=1, max_size=3),
    st.data(),
)
# xb1 / x1^2 = xb1^3: net exponent -3 = -D - s with D = s = 2
@example(xb1, [], [(1, False, 2)], None)
def test_exact_div_inverses_by_letter_powers(f, qs, powers, data):
    """Divisors x_i^k or xb_i^k, which may carry letters the dividend
    lacks (x3 never occurs in it).  Each is a unit modulo the pairing, so
    the quotient is f times the inverse powers, and each step's net
    exponents reach -D - s, below anything a product f*q reaches.  A step
    that clears its dividend by less than plain^(D + 2s) cannot hold it."""
    red = poly_reduce_inverses
    assume(all(red(q) for q in qs))
    p = f
    for q in qs:
        p = p * q
    quot = f
    units = []
    for i, bar, k in powers:
        units.append((pxb(i) if bar else px(i)) ** k)
        quot = quot * (px(i) if bar else pxb(i)) ** k
    divisors = qs + units
    if data is not None:
        divisors = data.draw(st.permutations(divisors))
    assert poly_exact_div_inverses_many(p, divisors) == red(quot)
    if len(divisors) == 1:
        assert poly_exact_div_inverses(p, divisors[0]) == red(quot)


def test_exact_div_inverses_many_names_the_folds_term():
    # The fold stops at its first inexact step, 1 / 2, and names that
    # step's own term; clearing by all three divisors' degrees at once
    # would have named x1^3, which is in no operand of the fold.
    with pytest.raises(DivisionNotExact) as err:
        poly_exact_div_inverses_many(ONE, [ONE, poly_const(2), x1])
    assert str(err.value) == "remainder nonzero: leading term 1 is not divisible by 2"


# ---------------------------------------------------------------------------
# halving


def test_poly_halve():
    assert poly_halve(2 * x1 + 4 * a1) == x1 + 2 * a1
    with pytest.raises(OddCoefficient, match="coefficient 1 of x1 is odd"):
        poly_halve(x1 + x2)
    with pytest.raises(OddCoefficient, match="coefficient -3 of 1 is odd"):
        poly_halve(2 * x1 - 3)


# ---------------------------------------------------------------------------
# determinants


def _demo_matrix():
    return [
        [x1 + a1, x2, ONE],
        [xb1, x1 * x2, a2],
        [ONE - a1, x2 * x2, x1 + xb1],
    ]


def test_determinant_equals_leibniz():
    # The free ring: [[x1, 1], [1, xb1]] and [[x1*xb1]] keep x1*xb1.  The
    # 0x0 matrix, formal layouts and a zero row or column are inputs that
    # the ratio routes never hand the shared minor engine; the last
    # column of ``peel`` is zero above a diagonal 1.
    peel = [[x1, a1, ZERO], [xb1, x2, ZERO], [a2, x1 * x2, ONE]]
    zero_row = [[x1, a1], [ZERO, ZERO]]
    zero_col = [[x1, ZERO], [xb1, ZERO]]
    for m in (_demo_matrix(), [[x1, ONE], [ONE, xb1]], [], [[x1 * xb1]], zero_row, zero_col, peel):
        assert poly_determinant(m) == _leibniz(m)
    assert det_reduced([[x1 * xb1]]) == ONE


def test_determinant_row_scaling():
    m = _demo_matrix()
    scaled = [m[0], [poly_const(3) * e for e in m[1]], m[2]]
    assert poly_determinant(scaled) == 3 * poly_determinant(m)


def test_determinant_swap_antisymmetry():
    m = _demo_matrix()
    swapped = [m[1], m[0], m[2]]
    assert poly_determinant(swapped) == -poly_determinant(m)


def test_determinant_rejects_non_square():
    with pytest.raises(NonSquare):
        poly_determinant([[ONE, x1], [x2]])


def test_determinant_identity():
    eye = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    assert poly_determinant(eye) == ONE


@st.composite
def matrices(draw):
    """1x1 to 4x4 matrices with zero and constant entries, trailing
    columns zero above a diagonal of 1, and mostly one exponent of at
    least 40.  Without it, low-degree 4x4 products fill narrow fields."""
    k = draw(st.integers(1, 4))
    entries = polys() | st.integers(-3, 3).map(poly_const)
    rows = [[draw(entries) for _ in range(k)] for _ in range(k)]
    for j in range(k - draw(st.integers(0, k)), k):
        for i in range(j):
            rows[i][j] = ZERO
        rows[j][j] = ONE
    if draw(st.integers(0, 3)):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        big = poly_var(draw(st.sampled_from([X(1), XB(2), A(1)]))) ** draw(st.integers(40, 70))
        rows[i][j] = rows[i][j] + big
    return rows


@settings(max_examples=150)
@given(matrices())
def test_determinant_equals_leibniz_on_random_matrices(rows):
    assert poly_determinant(rows) == _leibniz(rows)


def _a_poly(terms):
    p = ZERO
    for c, ks in terms:
        m = poly_const(c)
        for k in ks:
            m = m * pa(k)
        p = p + m
    return p


_A_POLYS = st.lists(
    st.tuples(st.integers(-3, 3), st.lists(st.integers(1, 3), max_size=3)), max_size=3
).map(_a_poly)


@st.composite
def separable_matrices(draw):
    """n <= 3 row-separable matrices F[i][j] = sum_e C[j][e] * y_i^e, with
    y_i = x_i or s_i, Laurent net exponents e (yb_i^(-e) below zero, a few
    at +-40), a-letter coefficients C[j][e] that may be zero, and
    (y_i*yb_i - 1)*c added to some entries, which the pairing removes,
    so the free-ring entries differ from row to row."""
    n = draw(st.integers(1, 3))
    exps = st.integers(-3, 3) | st.sampled_from([-40, 40])
    table = [draw(st.dictionaries(exps, _A_POLYS, max_size=3)) for _ in range(n)]
    letters = (ps, psb) if draw(st.booleans()) else (px, pxb)
    rows = []
    for i in range(1, n + 1):
        y, yb = letters[0](i), letters[1](i)
        row = []
        for col in table:
            entry = ZERO
            for e, c in col.items():
                entry = entry + c * (y ** e if e >= 0 else yb ** -e)
            if draw(st.booleans()):
                entry = entry + (y * yb - ONE) * draw(_A_POLYS)
            row.append(entry)
        rows.append(row)
    return rows


@settings(max_examples=150)
@given(separable_matrices())
# x1*xb1 - 1 padding on one row only, against a zero table entry
@example([[x1 * xb1 - ONE + a1, x1], [a1, x2]])
def test_det_separable_equals_cofactor_and_leibniz(rows):
    layout = _Layout.for_rows(rows, paired=True)
    got = layout.to_poly(_det_separable(*_separable_table(rows, layout), layout))
    assert got == det_reduced(rows) == poly_reduce_inverses(_leibniz(rows))


def test_det_separable_refuses_a_table_that_differs_by_row():
    rows = [[x1 + a1, x1 * x1], [x2 + a2, x2 * x2]]
    layout = _Layout.for_rows(rows, paired=True)
    with pytest.raises(ValueError, match="coefficient table of row 2 differs from row 1's"):
        _separable_table(rows, layout)


@pytest.mark.parametrize(
    "rows, name",
    [
        ([[x1 + a1, x1 * x1], [x2 + a1, x2 * x1]], "row 2 uses x1"),
        ([[x1 + a1, xb2], [x2 + a1, xb2]], "row 1 uses xb2"),
        ([[x1 + a1, ps(1)], [x2 + a1, ps(2)]], "row 1 uses s1"),
    ],
)
def test_det_separable_refuses_another_pairs_letter(rows, name):
    layout = _Layout.for_rows(rows, paired=True)
    with pytest.raises(ValueError, match=f"{name}, outside its own pair"):
        _separable_table(rows, layout)


@st.composite
def keyed_matrices(draw):
    """k <= 3 rows over k + 1 or k + 2 column keys, some negative, each
    row a dict from keys to polys() that may leave a key out or map it
    to zero."""
    k = draw(st.integers(1, 3))
    keys = draw(st.sets(st.integers(-3, 5), min_size=k + 1, max_size=k + 2))
    return [{key: draw(polys()) for key in keys if draw(st.booleans())} for _ in range(k)]


@settings(max_examples=100)
@given(keyed_matrices(), st.booleans())
# the minor on columns (0, 1) is x1*xb1 - 1: zero in paired mode only
@example([{0: x1 * xb1, 1: ONE, 2: a1}, {0: ONE, 1: ONE, 2: x1}], True)
@example([{0: x1 * xb1, 1: ONE, 2: a1}, {0: ONE, 1: ONE, 2: x1}], False)
def test_minors_are_the_leibniz_minors_of_non_square_matrices(rows, paired):
    """Every nonzero maximal minor, keyed by its ascending columns, and
    no zero one: paired minors come out reduced."""
    reduce = poly_reduce_inverses if paired else (lambda p: p)
    keys = sorted(set().union(*rows))
    want = {}
    for cols in combinations(keys, len(rows)):
        minor = reduce(_leibniz([[row.get(c, ZERO) for c in cols] for row in rows]))
        if minor:
            want[cols] = minor
    got = _minors(rows, paired)
    assert all(got.values())
    assert got == want


@pytest.mark.parametrize("e", [1, 40])
def test_determinant_degree_is_the_sum_over_rows(e):
    # det has x1^(4e): every row's largest degree counts, not just the largest row's
    rows = [[x1 ** e if i == j else a1 for j in range(4)] for i in range(4)]
    assert poly_determinant(rows) == _leibniz(rows)


# ---------------------------------------------------------------------------
# substitution, s-mapping, evaluation


def test_substitute_is_free_of_the_pair_relation():
    assert poly_substitute(x1 * xb1, {X(1): 2, XB(1): 5}) == poly_const(10)
    assert poly_substitute(x1 + a1, {A(1): 0}) == x1
    assert poly_substitute(x1, {}) == x1


def test_substitute_by_polynomial():
    assert poly_substitute(x1 * x1, {X(1): x2 + a1}) == (x2 + a1) * (x2 + a1)


def test_map_s_to_x():
    assert map_s_to_x(ps(1) ** 2) == x1
    # matched s*sb pairs cancel before halving, so s1^2*sb1^4 -> xb1
    assert map_s_to_x(ps(1) ** 2 * psb(1) ** 4) == xb1
    assert map_s_to_x(ps(1) ** 2 * psb(1) ** 4) == poly_reduce_inverses(
        x1 * xb1 ** 2
    )
    with pytest.raises(OddHalfPower):
        map_s_to_x(ps(1) ** 3)


def test_eval_integer():
    assert eval_integer(x1 + xb1, {X(1): 1, XB(1): 1}) == 2
    assert eval_integer(poly_const(7), {}) == 7
    assert eval_integer(x1 + xb1 + a1, {X(1): 1, XB(1): 1, A(1): 0}) == 2
    with pytest.raises(MissingAssignment):
        eval_integer(x1 + x2, {X(1): 1})
    # exact integers only: no truncated float, no parsed string, no bool
    for bad in (2.7, "3", True):
        with pytest.raises(ValueError):
            eval_integer(x1 * x1, {X(1): bad})


# ---------------------------------------------------------------------------
# rendering and serialization


def test_canonical_text_rendering():
    assert poly_to_str(2 * x1 * xb1 ** 2 + a3) == "2*x1*xb1^2 + a3"
    assert poly_to_str(ZERO) == "0"
    assert poly_to_str(x1 - x2) == "x1 - x2"
    assert poly_to_str(-x1 + ONE) == "-x1 + 1"


def test_rendering_is_stable_under_reordering():
    p = a1 + x1 + x2 + a2
    q = x2 + a2 + a1 + x1
    assert poly_to_str(p) == poly_to_str(q) == "x1 + x2 + a1 + a2"


_RENDER_VARS = [VarId(kind, i) for kind in ("x", "xb", "s", "sb", "a") for i in (1, 2, 3)]


@st.composite
def render_polys(draw):
    """Polynomials over every letter kind, so codes on both sides of the s
    and a block bases occur, with exponents up to 70 and coefficients of
    both signs."""
    exps = st.integers(1, 3) | st.integers(4, 70)
    monos = st.lists(st.tuples(st.sampled_from(_RENDER_VARS), exps), max_size=4)
    coeffs = st.integers(-3, 3) | st.integers(-(10 ** 20), 10 ** 20)
    terms = draw(st.lists(st.tuples(monos, coeffs), max_size=8))
    return poly_sum(Poly({tuple((v.code(), e) for v, e in m): c}) for m, c in terms)


@given(render_polys())
@example(ZERO)
@example(poly_const(-1))
@example(x1 * a2 + 5)
@example(ps(1) * psb(2) ** 3)
def test_rendering_matches_the_reference(p):
    """Text and JSON list the terms in the reference order, and the text
    is the reference's, character for character."""
    assert poly_to_str(p) == oracles.poly_str(p)
    listed = [
        (tuple(sorted((parse_var(v).code(), e) for v, e in t["monomial"].items())), t["coeff"])
        for t in poly_to_json(p)["terms"]
    ]
    assert listed == [(m, p.terms[m]) for m in oracles.descending(p)]


def test_rendering_a_large_character_peaks_under_2_mb():
    """Rendering sorts one int per term and builds each letter piece once,
    so its transient memory stays near the size of the text (about 0.2 MB
    here).  A tuple sort key per term took this render past 4 MB."""
    p = char_jacobi_trudi(char_spec(Group.OO, 3, (3, 3, 2)))
    assert len(p.terms) == 9280
    tracemalloc.start()
    try:
        poly_to_str(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@given(polys())
def test_json_round_trip(p):
    assert poly_from_json(poly_to_json(p)) == p


# Each case: the same polynomial written canonically (a Poly expression)
# and non-canonically (a constructor mapping or a JSON document).
_X1, _X2 = X(1).code(), X(2).code()


@pytest.mark.parametrize(
    "given, expected",
    [
        (lambda: Poly({((_X2, 1), (_X1, 1)): 1, ((_X1, 1), (_X2, 1)): 1}), 2 * x1 * x2),
        (lambda: Poly({((_X1, 1), (_X1, 2)): 3}), 3 * x1 ** 3),
        (lambda: Poly({((_X1, 0),): 1, (): -1}), ZERO),
        (lambda: Poly({((_X1, 0), (_X2, 2)): 1}), x2 ** 2),
        (
            lambda: poly_from_json(
                {"terms": [{"coeff": 1, "monomial": {"x1": 0}}, {"coeff": -1, "monomial": {}}]}
            ),
            ZERO,
        ),
        (
            lambda: poly_from_json(
                {"terms": [{"coeff": 1, "monomial": {"x1": 1}}, {"coeff": 2, "monomial": {"x1": 1}}]}
            ),
            3 * x1,
        ),
        (lambda: poly_from_json({"terms": [{"coeff": 1, "monomial": {"a0": 1, "x1": 1}}]}), ZERO),
        (lambda: Poly({((_X1, -1),): 1}), ValueError),
        (lambda: poly_from_json({"terms": [{"coeff": 1, "monomial": {"x1": -1}}]}), ValueError),
    ],
    ids=[
        "colliding-keys-add",
        "repeated-code-merges",
        "zero-exponent-cancels",
        "zero-exponent-drops",
        "json-zero-exponent-cancels",
        "json-repeated-monomial-adds",
        "json-a0-term-vanishes",
        "negative-exponent",
        "json-negative-exponent",
    ],
)
def test_constructor_gives_canonical_form(given, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            given()
        return
    p = given()
    assert p == expected
    assert poly_to_str(p) == poly_to_str(expected)
    assert poly_to_json(p) == poly_to_json(expected)


@pytest.mark.parametrize(
    "given",
    [
        lambda: Poly({(): 0.5}),
        lambda: Poly({(): 2.0}),
        lambda: Poly({(): True}),
        lambda: Poly({((_X2, 1.5),): 1}),
        lambda: poly_from_json({"terms": [{"coeff": 1.5, "monomial": {"x1": 2}}]}),
        lambda: poly_from_json({"terms": [{"coeff": 1, "monomial": {"x1": 2.7}}]}),
        lambda: poly_from_json({"terms": [{"coeff": "3", "monomial": {}}]}),
    ],
    ids=[
        "fraction-coeff",
        "integral-float-coeff",
        "bool-coeff",
        "fraction-exponent",
        "json-fraction-coeff",
        "json-fraction-exponent",
        "json-string-coeff",
    ],
)
def test_non_integer_numbers_are_rejected(given):
    """The ring is over the integers: no number is rounded or coerced."""
    with pytest.raises(ValueError):
        given()


def test_json_shape():
    doc = poly_to_json(2 * x1 * xb1 ** 2 + a3)
    assert doc == {
        "terms": [
            {"coeff": 2, "monomial": {"x1": 1, "xb1": 2}},
            {"coeff": 1, "monomial": {"a3": 1}},
        ]
    }


def test_parse_var_round_trip():
    for name in ["x1", "xb2", "s3", "sb1", "a7"]:
        assert poly_to_str(poly_var(parse_var(name))) == name
    with pytest.raises(ValueError):
        parse_var("y1")
