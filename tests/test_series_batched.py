"""The batched Horner pass against the per-row scalar Horner loop.

``_kbasis_series_scalar`` is the per-row reference: certification row by
row, then one scalar Horner loop per point.  For real z the batched pass
must reproduce it bit for bit, including which error it raises and with
what message; for complex z it must agree within Horner's rounding bound.

Its certification is the scalar loop the library replaced with array
passes, kept here as an oracle: ``_terms_needed_loop`` walks the row-sum
bound t_L = s_1 ... s_L |z|^L / L! one length at a time.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromex import (
    ConvergenceError,
    ParameterError,
    build_table,
    kbasis_closed,
    kbasis_series,
)
from chromex.basis_functions import (
    _MAX_TERMS,
    _TAIL_TOL,
    _reach,
    _series_rows,
    _terms_needed,
    suggest_columns,
)
from chromex.families import family_spec, gamma_beta_arrays

from conftest import ALL_FAMILIES


def series_eval_scalar(coeffs, zs, nterms):
    """Horner evaluation of sum_k coeffs[k] z^k, one point at a time."""
    out = np.zeros(zs.shape[0], dtype=np.complex128)
    for i in range(zs.shape[0]):
        z = zs[i]
        acc = 0.0 + 0.0j
        for k in range(nterms - 1, -1, -1):
            acc = acc * z + coeffs[k]
        out[i] = acc
    return out


@functools.lru_cache(maxsize=None)
def _ratio_bounds(family):
    """s_k / k for k = 1.._MAX_TERMS + 1, s_k the largest absolute row sum
    of the Jacobi matrix over levels 0..k, and each one's maximum with
    every later one, one k at a time."""
    gam, bet = gamma_beta_arrays(family, _MAX_TERMS + 1)
    s, ratios = 0.0, []
    for i in range(_MAX_TERMS + 2):
        s = max(s, abs(float(bet[i])) + float(gam[i]) + (float(gam[i - 1]) if i else 0.0))
        if i:
            ratios.append(s / i)
    later = ratios[:]
    for k in range(len(later) - 2, -1, -1):
        later[k] = max(later[k], later[k + 1])
    return ratios, later


@functools.lru_cache(maxsize=None)
def _terms_needed_loop(family, n, absz):
    """The first L >= n + 1, L <= _MAX_TERMS, with r_L < 1 and
    t_L / (1 - r_L) below _TAIL_TOL 2^-53, or None."""
    if absz == 0.0:
        return n + 1
    ratios, later = _ratio_bounds(family)
    log_t = 0.0
    for L in range(1, _MAX_TERMS + 1):
        log_t += math.log(ratios[L - 1]) + math.log(absz)
        r = later[L] * absz
        if L > n and r < 1.0 and log_t - math.log1p(-r) < math.log(_TAIL_TOL * 2.0 ** -53):
            return L
    return None


def _kbasis_series_scalar(table, n, z):
    spec = family_spec(table.family)
    if not 0 <= n <= table.N:
        raise ParameterError(f"order n={n} outside table horizon")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if not np.isfinite(zs).all():
        raise ParameterError("non-finite argument; z must be finite")
    absz = float(np.abs(zs).max())
    base = _terms_needed_loop(spec.id, 0, absz)
    if base is None:
        raise ConvergenceError(f"|z|={absz:g} is beyond the certified series reach "
                               f"|z| <= {_reach(spec):.3g} for {spec}; use kbasis_rows")
    if base > table.K + 1:
        raise ConvergenceError(f"|z|={absz:g} needs {base} table columns, not {table.K + 1}; "
                               f"rebuild the table with K >= {base - 1}")
    out = series_eval_scalar(table.b[n], zs, _terms_needed_loop(spec.id, n, absz))
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def _rows_scalar(table, N, z):
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return np.array([_kbasis_series_scalar(table, n, zs) for n in range(N + 1)])


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (ConvergenceError, ParameterError) as exc:
        return None, (type(exc), str(exc))


@functools.lru_cache(maxsize=None)
def _table(family, N, K):
    return build_table(family, N, K)


def _sized_table(family, N, absz):
    return _table(family, N, suggest_columns(family, N, absz))


def _extent(family):
    """A radius inside every family's certified reach."""
    return {"laguerre": 0.2, "herron": 0.45, "hermite": 3.0}.get(family_spec(family).tag, 4.0)


def _assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rows_bitwise_equal_real_grid(family):
    R = _extent(family)
    grid = np.linspace(-R, R, 33)
    table = _sized_table(family, 40, R)
    got = _series_rows(table, 0, 40, grid)
    _assert_bitwise(got, _rows_scalar(table, 40, grid))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_single_row_bitwise_equal_scalar_and_array(family):
    R = _extent(family)
    table = _sized_table(family, 40, R)
    grid = np.linspace(-R, R, 9)
    for n in (0, 1, 7, 40):
        got = kbasis_series(table, n, grid)
        _assert_bitwise(got, _kbasis_series_scalar(table, n, grid))
        for t in (-R, 0.0, 0.3 * R):
            one = kbasis_series(table, n, t)
            ref = _kbasis_series_scalar(table, n, t)
            assert np.ndim(one) == 0
            assert np.complex128(one).tobytes() == np.complex128(ref).tobytes()


@pytest.mark.parametrize("R", [3.0, 10.0, 20.0])
def test_rows_bitwise_equal_past_last_nonzero_column(R):
    # every entry past column ~225 is 0, so the pass stops far short of K
    table = _table("chebyshev_t", 25, 1417)
    assert np.flatnonzero(table.b.any(axis=0))[-1] < 300
    grid = np.linspace(-R, R, 9)
    _assert_bitwise(_series_rows(table, 0, 25, grid), _rows_scalar(table, 25, grid))


@pytest.mark.parametrize("lo,hi", [(0, 0), (3, 9), (12, 20)])
def test_sub_range_matches_full_pass(lo, hi):
    table = _sized_table("legendre", 20, 3.0)
    grid = np.linspace(-3.0, 3.0, 13)
    full = _rows_scalar(table, 20, grid)
    _assert_bitwise(_series_rows(table, lo, hi, grid), full[lo : hi + 1])


@pytest.mark.parametrize(
    "family,N,K,hi,z",
    [
        ("hermite", 10, None, 10, 6.0),  # undersized K
        ("legendre", 30, 40, 30, 3.0),  # undersized K
        ("laguerre", 4, None, 4, 0.9),  # beyond the certified reach
        ("herron", 4, None, 4, -0.75),  # beyond the certified reach
        ("legendre", 4, None, 5, 0.5),  # order beyond the table horizon
        ("hermite", 10, None, 11, 6.0),  # an undersized K comes before the horizon
        ("legendre", 4, None, 4, [0.5, math.nan]),  # non-finite arguments
        ("laguerre", 4, None, 4, math.inf),
        ("hermite", 4, None, 4, complex(0.5, math.nan)),
    ],
)
def test_error_parity(family, N, K, hi, z):
    table = build_table(family, N, K)
    _, err_new = _outcome(_series_rows, table, 0, hi, z)
    _, err_old = _outcome(lambda: [_kbasis_series_scalar(table, n, z) for n in range(hi + 1)])
    assert err_old is not None
    assert err_new == err_old


def test_complex_argument_within_horner_bound():
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for family in ("legendre", "chebyshev_t", "hermite", "laguerre"):
        R = _extent(family)
        z = R * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
        table = _sized_table(family, 24, R)
        got = _series_rows(table, 0, 24, z)
        ref = _rows_scalar(table, 24, z)
        absz = np.abs(z)
        for n in range(25):
            nterms = _terms_needed_loop(family_spec(family).id, n, float(absz.max()))
            # Higham's rounding bound for Horner: 2 L eps sum_k |b_k| |z|^k
            bound = 2 * nterms * eps * np.polyval(np.abs(table.b[n, :nterms])[::-1], absz)
            assert np.all(np.abs(got[n] - ref[n]) <= bound)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(ALL_FAMILIES),
    N=st.integers(0, 30),
    frac=st.floats(0.0, 1.5, allow_nan=False),
    npts=st.integers(1, 5),
)
def test_property_batched_equals_scalar(family, N, frac, npts):
    """Same values bit for bit, or the same error, over (family, N, |z|)."""
    R = _extent(family)
    table = _sized_table(family, N, R)
    grid = np.linspace(-frac * R, frac * R, npts)
    new, err_new = _outcome(_series_rows, table, 0, N, grid)
    old, err_old = _outcome(_rows_scalar, table, N, grid)
    assert err_new == err_old
    if err_old is None:
        _assert_bitwise(new, old)
        assert math.isfinite(float(np.abs(new).max()))


def test_property_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        test_property_batched_equals_scalar()


@pytest.mark.parametrize("family", ["laguerre", "herron"])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 8, 13, 20, 30, 40, 55, 70, 85, 100])
def test_suggest_columns_certifies_p1_families(family, N):
    """Tables sized by suggest_columns certify every row up to |z| = 0.2
    (laguerre) and 0.45 (herron), inside the reaches 0.241 and 0.483."""
    top = _extent(family)
    for R in np.linspace(top / 12, top, 12):
        table = _table(family, N, suggest_columns(family, N, R))
        z = np.array([-R, R])
        got = _series_rows(table, 0, N, z)
        ref = np.array([kbasis_closed(family, n, z) for n in range(N + 1)])
        assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_terms_needed_equals_scan_loop(family):
    """The array scan returns the scalar loop's length or None, through
    each family's reach and past it."""
    spec = family_spec(family)
    reach = _reach(spec)
    radii = [0.0, *np.logspace(-8, 3, 45), *np.linspace(0.0, 1.2 * reach, 120)[1:]]
    for absz in radii:
        for n in (0, 40):
            assert _terms_needed(spec, n, float(absz)) == _terms_needed_loop(spec.id, n, float(absz))
    assert _terms_needed(spec, 0, reach) is not None
    assert _terms_needed(spec, 0, reach * (1 + 1e-6)) is None


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_tails_converged_equals_row_check(family):
    """The batched certification gives each row the scalar check's verdict:
    the same values bit for bit, or the same error, including tables
    narrower than the certified length and radii past the reach."""
    for N, K in ((8, 10), (20, 60), (30, 300)):
        table = _table(family, N, K)
        for absz in (0.1, 0.3, 3.0, 6.0, 20.0, 1e3):
            z = np.array([-absz, 0.5 * absz])
            new, err_new = _outcome(_series_rows, table, 0, N, z)
            old, err_old = _outcome(_rows_scalar, table, N, z)
            assert err_new == err_old
            if err_old is None:
                _assert_bitwise(new, old)


def test_horizon_error_after_all_rows_certify():
    table = _table("legendre", 12, 60)
    with pytest.raises(ParameterError, match="order n=13 outside table horizon"):
        _series_rows(table, 0, table.N + 1, 0.5)
    with pytest.raises(ParameterError, match="order n=13 outside table horizon"):
        _series_rows(table, 13, 13, 0.5)
