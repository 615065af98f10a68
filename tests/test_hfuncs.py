"""Factorial h-functions: degenerate values, closed forms, explicit
expansions, recurrences, symmetries and cross-kind reduction identities."""

from itertools import combinations

import pytest

from flc.characters import _flag_spec
from flc.hfuncs import (
    HKind,
    VarSpec,
    _a_free_series,
    _elementary,
    factorial_power,
    h,
)
from flc.polyring import (
    ONE,
    X,
    XB,
    ZERO,
    pa,
    poly_reduce_inverses,
    poly_substitute,
    poly_sum,
    poly_var,
    px,
    pxb,
)
from flc.series import (
    series_add,
    series_coeff,
    series_from_polys,
    series_geometric,
    series_linear,
    series_mul,
    series_one,
    series_sub,
)

from oracles import explicit_h, h_closed_one_pair

red = poly_reduce_inverses

x1, x2, x3 = px(1), px(2), px(3)
xb1, xb2 = pxb(1), pxb(2)
a1, a2, a3 = pa(1), pa(2), pa(3)

ALL_KINDS = (HKind.GL, HKind.SP, HKind.OO, HKind.EO, HKind.EOD)


def pair_spec(kind, n, shift=0):
    return VarSpec(kind, pairs=tuple(range(1, n + 1)), shift=shift)


def gl_spec(n, shift=0):
    return VarSpec(HKind.GL, singles=tuple(X(i) for i in range(1, n + 1)), shift=shift)


def spec_for(kind, n, shift=0):
    return gl_spec(n, shift) if kind is HKind.GL else pair_spec(kind, n, shift)


# ---------------------------------------------------------------------------
# factorial powers


def test_factorial_power_basics():
    assert factorial_power(X(1), 0) == ONE
    assert factorial_power(X(1), 2) == (x1 + a1) * (x1 + a2)
    assert factorial_power(XB(1), 1) == xb1 + a1


def test_factorial_power_shift():
    assert factorial_power(X(1), 2, shift=1) == (x1 + a2) * (x1 + a3)
    # shifted indices at or below zero contribute nothing
    assert factorial_power(X(1), 2, shift=-2) == x1 * x1


# ---------------------------------------------------------------------------
# degenerate contracts


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_h_negative_is_zero(kind):
    spec = spec_for(kind, 2)
    assert h(spec, -1) == ZERO
    assert h(spec, -2) == ZERO


@pytest.mark.parametrize("kind", (HKind.GL, HKind.SP, HKind.OO, HKind.EO))
def test_h_zero_is_one(kind):
    assert h(spec_for(kind, 2), 0) == ONE
    assert h(spec_for(kind, 1), 0) == ONE


def test_eod_vanishes_up_to_zero():
    assert h(pair_spec(HKind.EOD, 2), 0) == ZERO
    assert h(pair_spec(HKind.EOD, 1), 0) == ZERO
    assert h(pair_spec(HKind.EOD, 1), -1) == ZERO


# ---------------------------------------------------------------------------
# pinned small values


def test_h_m1_values():
    assert h(gl_spec(2), 1) == x1 + x2 + a1 + a2
    assert h(pair_spec(HKind.SP, 1), 1) == x1 + xb1 + a1
    assert h(pair_spec(HKind.OO, 1), 1) == x1 + xb1 + 1 + a1
    assert h(pair_spec(HKind.EO, 1), 1) == x1 + xb1 + 2 * a1
    assert h(pair_spec(HKind.EOD, 1), 1) == x1 - xb1


def test_gl_singles_may_mix_barred_letters():
    spec = VarSpec(HKind.GL, singles=(X(1), XB(1)))
    assert h(spec, 1) == x1 + xb1 + a1 + a2


# ---------------------------------------------------------------------------
# closed one-pair forms


def test_closed_forms_pinned():
    assert h_closed_one_pair(HKind.GL, 1, 3) == factorial_power(X(1), 3)
    assert h_closed_one_pair(HKind.EO, 1, 0) == ONE
    assert h_closed_one_pair(HKind.OO, 1, 1) == x1 + xb1 + 1 + a1
    assert h_closed_one_pair(HKind.EOD, 2, 1) == x2 - pxb(2)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", range(6))
def test_closed_equals_series_h(kind, m):
    one_pair = (
        VarSpec(HKind.GL, singles=(X(1),)) if kind is HKind.GL else pair_spec(kind, 1)
    )
    assert h_closed_one_pair(kind, 1, m) == h(one_pair, m)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_respects_shift(kind):
    one_pair = (
        VarSpec(HKind.GL, singles=(X(1),), shift=2)
        if kind is HKind.GL
        else pair_spec(kind, 1, shift=2)
    )
    assert h_closed_one_pair(kind, 1, 3, shift=2) == h(one_pair, 3)


# ---------------------------------------------------------------------------
# differential: h against its generating series, built with flc.series


def _series_h(spec, m):
    """h_m read off the defining product of truncated series (hfuncs docstring)."""
    if m < 0 or (m == 0 and spec.kind is HKind.EOD):
        return ZERO
    if m == 0:
        return ONE
    kind, pairs = spec.kind, spec.pairs

    def geo(v):
        return series_geometric(v, m)

    if kind is HKind.GL:
        factors = [geo(poly_var(v)) for v in spec.singles]
    else:
        factors = []
        if kind is HKind.EOD or (kind is HKind.EO and len(pairs) == 1):
            join = series_sub if kind is HKind.EOD else series_add
            factors.append(join(geo(px(pairs[0])), geo(pxb(pairs[0]))))
            pairs = pairs[1:]
        elif kind is HKind.OO:
            factors.append(series_linear(ONE, m))
        elif kind is HKind.EO:
            factors.append(series_from_polys(m, [ONE, ZERO, -ONE]))
        factors.extend(geo(v) for i in pairs for v in (px(i), pxb(i)))
    factors.extend(series_linear(pa(j + spec.shift), m) for j in range(1, spec.width() + m))
    prod = series_one(m)
    for f in factors:
        prod = series_mul(prod, f)
    return poly_reduce_inverses(series_coeff(prod, m))


# Widths 1..4: unordered pairs, and GL singles that mix in barred letters.
_FLAGS = [(1,), (2, 1), (1, 2, 3), (3, 1, 4, 2)]
_SINGLES = [(X(1),), (X(1), XB(1)), (XB(2), X(1), X(3)), (X(1), XB(3), X(2), XB(1))]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("width", (1, 2, 3, 4))
@pytest.mark.parametrize("shift", (-2, 0, 1))
def test_h_equals_series_product(kind, width, shift):
    if kind is HKind.GL:
        spec = VarSpec(kind, singles=_SINGLES[width - 1], shift=shift)
    else:
        spec = VarSpec(kind, pairs=_FLAGS[width - 1], shift=shift)
    for m in range(-1, 10 - width):  # up to m = 7 on two pairs, 5 on four
        assert h(spec, m) == _series_h(spec, m), m


# ---------------------------------------------------------------------------
# the two pieces of the builder: a-free series and a-loop


def _e(k, length):
    """e_k(a_1..a_length), summed over the k-subsets of the letters."""
    terms = []
    for subset in combinations(range(1, length + 1), k):
        term = ONE
        for j in subset:
            term = term * pa(j)
        terms.append(term)
    return poly_sum(terms)


@pytest.mark.parametrize("length", range(6))
def test_elementary_is_the_a_loop_on_one(length):
    """e_0..e_degree at every degree up to two past the length, where
    every e_r with r > length is 0."""
    for degree in range(length + 3):
        assert _elementary(length, degree) == tuple(_e(k, length) for k in range(degree + 1))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", range(-1, 6))
def test_h_is_the_elementary_convolution_of_the_a_free_series(kind, m):
    """h_m = sum_k e_k(a_1..a_N) * h0_(m-k), N = width + m - 1, on every
    flag spec pairs (GL: letters) lo..n with n <= 3: the identity the
    Jacobi-Trudi route factors by.  The one exception is the one-pair EO
    series at m = 0, whose c_0 is 2 where h_0 is 1."""
    for n in (1, 2, 3):
        for lo in range(1, n + 1):
            spec = _flag_spec(kind, lo, n)
            series = _a_free_series(spec, max(m, 0))
            length = spec.width() + m - 1
            want = poly_sum(_e(k, length) * series[m - k] for k in range(m + 1))
            if kind is HKind.EO and spec.width() == 1 and m == 0:
                assert want == 2
                want = ONE
            assert h(spec, m) == want, (lo, n)


# ---------------------------------------------------------------------------
# explicit expansions


def test_explicit_gl_n2_m2():
    want = (
        (x1 + a1) * (x1 + a2)
        + (x1 + a1) * (x2 + a3)
        + (x2 + a2) * (x2 + a3)
    )
    assert explicit_h(HKind.GL, 2, 2) == want


def test_explicit_sp_n1_m1():
    assert explicit_h(HKind.SP, 1, 1) == x1 + xb1 + a1


def test_explicit_oo_n1_m1():
    assert explicit_h(HKind.OO, 1, 1) == x1 + xb1 + 1 + a1


@pytest.mark.parametrize("kind", (HKind.GL, HKind.SP, HKind.OO, HKind.EO))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("m", range(5))
def test_explicit_equals_series_h(kind, n, m):
    assert explicit_h(kind, n, m) == h(spec_for(kind, n), m)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_oo_dummy_parameter_absent(n, m):
    """The odd-orthogonal expansion must not involve a_{m+n}."""
    p = explicit_h(HKind.OO, n, m)
    dummy = {v for v in p.variables() if v.kind == "a" and v.index == m + n}
    assert not dummy
    # and therefore two different specializations of a_{m+n} agree
    assert poly_substitute(p, {pa(m + n).variables().pop(): 7}) == p


# ---------------------------------------------------------------------------
# recurrences: h_m(i..j-1) - h_m(i+1..j) = factor * h_{m-1}(i..j)


@pytest.mark.parametrize("kind", (HKind.GL, HKind.SP, HKind.OO, HKind.EO))
@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("m", range(5))
def test_recurrence(kind, pair, m):
    i, j = pair
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
    assert red(lhs) == red(factor * h(full, m - 1))


# ---------------------------------------------------------------------------
# symmetries


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_gl_symmetric_in_singles(m):
    base = VarSpec(HKind.GL, singles=(X(1), XB(2), X(3)))
    for perm in [(XB(2), X(1), X(3)), (X(3), X(1), XB(2))]:
        assert h(VarSpec(HKind.GL, singles=perm), m) == h(base, m)


@pytest.mark.parametrize("kind", (HKind.SP, HKind.OO, HKind.EO))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_pair_kinds_symmetric_in_pairs(kind, m):
    assert h(VarSpec(kind, pairs=(2, 1, 3)), m) == h(pair_spec(kind, 3), m)
    assert h(VarSpec(kind, pairs=(3, 1, 2)), m) == h(pair_spec(kind, 3), m)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_eod_antisymmetric_in_first_pair(m):
    p = h(pair_spec(HKind.EOD, 2), m)
    swapped = poly_substitute(p, {X(1): xb1, XB(1): x1})
    assert red(swapped) == red(-p)


# ---------------------------------------------------------------------------
# cross-kind reduction identities


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_sp_reduces_to_gl(n, m):
    """h^sp over n pairs is the 2n-letter gl function with shift -n."""
    letters = []
    for i in range(1, n + 1):
        letters.extend([X(i), XB(i)])
    gl = VarSpec(HKind.GL, singles=tuple(letters), shift=-n)
    assert h(pair_spec(HKind.SP, n), m) == h(gl, m)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_oo_reduces_to_gl(n, m):
    """h^oo = h^gl(shift 1-n) + (1 - a_{m+n}) h^gl_{m-1}(shift 1-n)."""
    letters = []
    for i in range(1, n + 1):
        letters.extend([X(i), XB(i)])
    gl = VarSpec(HKind.GL, singles=tuple(letters), shift=1 - n)
    want = h(gl, m) + (ONE - pa(m + n)) * h(gl, m - 1)
    assert h(pair_spec(HKind.OO, n), m) == want


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_eo_reduces_to_gl(n, m):
    """h^eo splits by the first letter of the monomial: an x_1 prefix, an
    xb_1 prefix, or no first-pair letter at all (shift 2-n throughout)."""
    rest = []
    for i in range(2, n + 1):
        rest.extend([X(i), XB(i)])
    shift = 2 - n
    with_x1 = VarSpec(HKind.GL, singles=(X(1), *rest), shift=shift)
    with_xb1 = VarSpec(HKind.GL, singles=(XB(1), *rest), shift=shift)
    tail = VarSpec(HKind.GL, singles=tuple(rest), shift=shift)
    want = (
        (x1 + pa(2 - n)) * h(with_x1, m - 1)
        + (xb1 + pa(2 - n)) * h(with_xb1, m - 1)
        + h(tail, m)
    )
    assert red(h(pair_spec(HKind.EO, n), m)) == red(want)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_eod_reduces_to_gl(n, m):
    rest = []
    for i in range(2, n + 1):
        rest.extend([X(i), XB(i)])
    shift = 2 - n
    with_x1 = VarSpec(HKind.GL, singles=(X(1), *rest), shift=shift)
    with_xb1 = VarSpec(HKind.GL, singles=(XB(1), *rest), shift=shift)
    want = (x1 + pa(2 - n)) * h(with_x1, m - 1) - (xb1 + pa(2 - n)) * h(
        with_xb1, m - 1
    )
    assert red(h(pair_spec(HKind.EOD, n), m)) == red(want)


# ---------------------------------------------------------------------------
# spec validation


def test_varspec_validation():
    with pytest.raises(ValueError):
        VarSpec(HKind.GL)  # no singles
    with pytest.raises(ValueError):
        VarSpec(HKind.SP, singles=(X(1),))  # pairs kind with singles
    with pytest.raises(ValueError):
        VarSpec(HKind.SP, pairs=(1, 1))  # duplicate pair
