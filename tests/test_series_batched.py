"""kbasis_series and kbasis_rows against each other, the closed forms and the
Taylor series of a coefficient table.

kbasis_series no longer sums a table's row: it checks the table's horizon
and returns kbasis_rows' value, certified within _TAIL_TOL.  The series
sum_k b[n][k] z^k stays here as an independent oracle at complex z, inside
each family's reach.
"""

import functools

import numpy as np
import pytest

from chromex import ParameterError, build_table, kbasis_closed, kbasis_rows, kbasis_series
from chromex.basis_functions import _TAIL_TOL, suggest_columns

BOUND = 2 * _TAIL_TOL
SERIES_COLUMNS = 400


@functools.lru_cache(maxsize=None)
def _table(family, N, K):
    return build_table(family, N, K)


def _extent(family):
    """A radius inside every family's series reach (laguerre 0.241, herron 0.483, hermite 18.8)."""
    return {"laguerre": 0.2, "herron": 0.45, "hermite": 3.0}.get(family, 4.0)


@pytest.mark.parametrize("lo,hi", [(0, 0), (3, 9), (12, 20)])
def test_sub_range_matches_full_pass(lo, hi):
    grid = np.linspace(-3.0, 3.0, 13)
    full = kbasis_rows("legendre", 0, 20, grid)
    got = kbasis_rows("legendre", lo, hi, grid)
    assert got.shape == (hi - lo + 1, grid.size)
    assert np.abs(got - full[lo : hi + 1]).max() <= BOUND


def test_complex_argument_within_horner_bound():
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for family in ("legendre", "chebyshev_t", "hermite", "laguerre"):
        # the Gauss route's rounding bound grows as e^{pi |Im z|}: keep |Im z| <= 1
        R = _extent(family)
        z = rng.uniform(-R, R, 40) + 1j * rng.uniform(-1.0, 1.0, 40) * min(R, 1.0)
        table = _table(family, 24, SERIES_COLUMNS)
        got = kbasis_rows(family, 0, 24, z)
        absz = np.abs(z)
        for n in range(25):
            ref = np.polynomial.polynomial.polyval(z, table.b[n])
            # Higham's rounding bound for Horner: 2 L eps sum_k |b_k| |z|^k
            rounding = 2 * (table.K + 1) * eps * np.polynomial.polynomial.polyval(absz, np.abs(table.b[n]))
            assert np.all(np.abs(got[n] - ref) <= BOUND + rounding)


@pytest.mark.parametrize("family", ["laguerre", "herron"])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 8, 13, 20, 30, 40, 55, 70, 85, 100])
def test_suggest_columns_certifies_p1_families(family, N):
    """Tables sized by suggest_columns serve every row within 1e-12 of the
    closed forms up to |z| = 0.9, past the series reaches 0.241 (laguerre)
    and 0.483 (herron) that once capped kbasis_series."""
    for R in np.linspace(0.9 / 12, 0.9, 12):
        table = _table(family, N, suggest_columns(family, N, R))
        z = np.array([-R, R])
        got = np.array([kbasis_series(table, n, z) for n in range(N + 1)])
        ref = np.array([kbasis_closed(family, n, z) for n in range(N + 1)])
        assert np.abs(got - ref).max() < 1e-12


def test_horizon_error_after_all_rows_certify():
    table = _table("legendre", 12, 60)
    got = np.array([kbasis_series(table, n, 0.5) for n in range(table.N + 1)])
    assert np.abs(got - kbasis_rows("legendre", 0, 12, 0.5)[:, 0]).max() <= BOUND
    with pytest.raises(ParameterError, match="order n=13 outside table horizon"):
        kbasis_series(table, table.N + 1, 0.5)
    with pytest.raises(ParameterError, match="order n=-1 outside table horizon"):
        kbasis_series(table, -1, 0.5)
