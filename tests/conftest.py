"""Shared test helpers: the acceptance summary, hypothesis strategies, a
Leibniz determinant oracle and a denominator fault for negative
controls."""

import sys
from itertools import permutations

import pytest
from hypothesis import strategies as st

import flc.characters
from flc.polyring import A, X, XB, ZERO, poly_const, poly_var


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdicts so they survive output capture."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in verdicts:
        terminalreporter.write_line(line)


_VARS = [X(1), X(2), XB(1), XB(2), A(1), A(2)]


@st.composite
def monomials(draw):
    # Large exponents too, so exact division sees wide packed fields.
    exps = st.integers(1, 2) | st.integers(3, 70)
    pairs = draw(st.lists(st.tuples(st.sampled_from(_VARS), exps), max_size=3))
    m = poly_const(1)
    for v, e in pairs:
        m = m * poly_var(v) ** e
    return m


@st.composite
def polys(draw):
    """Small random polynomials over x1, x2, xb1, xb2, a1, a2."""
    n_terms = draw(st.integers(0, 4))
    p = ZERO
    for _ in range(n_terms):
        c = draw(st.integers(-3, 3))
        p = p + poly_const(c) * draw(monomials())
    return p


@st.composite
def nonzero_polys(draw):
    p = draw(polys())
    if not p.terms:
        p = p + poly_const(draw(st.integers(1, 3)))
    return p


def _leibniz(rows):
    """The determinant as a plain signed sum over permutations, in the
    free ring; it shares no determinant code with flc."""
    k = len(rows)
    total = ZERO
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = poly_const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@pytest.fixture
def flipped_own_pair_factor(monkeypatch):
    """Negate SP's x1 - xb1 among the denominator's binomials, so that their
    product no longer equals the denominator determinant.  The cached
    denominators are dropped on both sides of the test."""
    true_factors = flc.characters._own_pair_factors

    def flipped(group, n):
        out = true_factors(group, n)
        return [-out[0], *out[1:]] if out else out

    monkeypatch.setattr(flc.characters, "_own_pair_factors", flipped)
    flc.characters._denominator_info.cache_clear()
    yield
    flc.characters._denominator_info.cache_clear()
