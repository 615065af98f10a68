"""Exact factorial characters of the classical Lie groups.

Four independent routes — raw alternant ratios, h-alternant ratios,
flagged Jacobi-Trudi determinants, and weighted tableau sums — computed
in exact integer arithmetic and cross-checkable as polynomial identities.
"""

from .polyring import (
    A,
    ONE,
    S,
    SB,
    X,
    XB,
    ZERO,
    Poly,
    VarId,
    eval_integer,
    poly_determinant,
    poly_exact_div,
    poly_exact_div_inverses,
    poly_from_json,
    poly_halve,
    poly_reduce_inverses,
    poly_substitute,
    poly_to_json,
    poly_to_str,
)
from .series import TruncSeries, series_coeff, series_geometric, series_mul, series_one
from .hfuncs import HKind, VarSpec, factorial_power, h
from .characters import (
    CharSpec,
    Group,
    char_alternant,
    char_jacobi_trudi,
    char_raw,
    char_raw_diff,
    char_raw_so_even,
    char_so_even,
    char_spec,
    character,
    dimension,
    zero_a,
)
from .tableaux import (
    Entry,
    InvalidShape,
    Tableau,
    TabStats,
    diff_tableau_sum,
    enumerate_tableaux,
    group_tableau_sum,
    so_even_tableau_sum,
    tab_stats,
    tableau_sum,
    weight,
    weighted_tableaux,
)
from .latticepaths import (
    IntersectingTuple,
    LatticePath,
    enumerate_gl_tuples,
    lgv_signed_sum,
    tuple_to_tableau,
)

__version__ = "0.1.0"
