"""The batched Horner pass against the per-row scalar Horner loop.

``_kbasis_series_scalar`` is the per-row reference: certification row by
row, then one scalar Horner loop per point.  For real z the batched pass
must reproduce it bit for bit, including which row raises and with what
message; for complex z it must agree within Horner's rounding bound.
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
    SeriesEvalConfig,
    build_table,
    kbasis_closed,
    kbasis_series,
)
from chromex.basis_functions import (
    _RADIUS_GUARDS,
    _empirical_tail_ok,
    _series_rows,
    _terms_needed,
    suggest_columns,
)
from chromex.families import family_spec

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


def _kbasis_series_scalar(table, n, z, cfg=None):
    spec = family_spec(table.family)
    cfg = cfg or SeriesEvalConfig()
    if not 0 <= n <= table.N:
        raise ParameterError(f"order n={n} outside table horizon")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    absz = float(np.abs(zs).max())
    guard = cfg.radius_guard
    if guard is None:
        guard = _RADIUS_GUARDS.get(spec.tag)
    if guard is not None and absz > guard:
        raise ParameterError(f"|z|={absz:g} beyond radius guard {guard:g} for {spec.tag}")
    nterms = _terms_needed(spec, n, absz, cfg)
    avail = min(table.reliable_columns(n) + 1, cfg.max_terms)
    if nterms is None or nterms > avail:
        if not _empirical_tail_ok(table.b[n], avail, absz, cfg.tail_tolerance):
            raise ConvergenceError(
                f"series tail for row {n} at |z|={absz:g} not below "
                f"{cfg.tail_tolerance:g} within {avail} columns; "
                "rebuild the table with a larger K"
            )
        nterms = avail
    out = series_eval_scalar(table.b[n], zs, nterms)
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def _rows_scalar(table, N, z, cfg=None):
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return np.array([_kbasis_series_scalar(table, n, zs, cfg) for n in range(N + 1)])


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
    """A radius every family's series reaches: inside the p = 1 guards."""
    return {"laguerre": 0.45, "herron": 0.6, "hermite": 2.0}.get(family_spec(family).tag, 4.0)


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
        ("hermite", 10, None, 10, 6.0),  # a-priori bound out of reach, tail not converged
        ("legendre", 30, 40, 30, 3.0),  # undersized K
        ("laguerre", 4, None, 4, 0.9),  # radius guard
        ("herron", 4, None, 4, -0.75),  # radius guard
        ("legendre", 4, None, 5, 0.5),  # order beyond the table horizon
    ],
)
def test_error_parity(family, N, K, hi, z):
    table = build_table(family, N, K)
    _, err_new = _outcome(_series_rows, table, 0, hi, z)
    _, err_old = _outcome(lambda: [_kbasis_series_scalar(table, n, z) for n in range(hi + 1)])
    assert err_old is not None
    assert err_new == err_old


def _terms_used(table, n, absz, cfg=SeriesEvalConfig()):
    spec = family_spec(table.family)
    need = _terms_needed(spec, n, absz, cfg)
    avail = min(table.reliable_columns(n) + 1, cfg.max_terms)
    return avail if need is None or need > avail else need


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
            nterms = _terms_used(table, n, float(absz.max()))
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


def test_tail_check_rejects_overflowing_terms_silently():
    # |z|^k overflows past k ~ 237 at |z| = 20, and rows 0..30 are 0 past
    # column 225, so the tail terms are inf * 0: not certified, and no warning
    table = _table("legendre", 30, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _empirical_tail_ok(table.b[0], 301, 20.0, 1e-12)
        with pytest.raises(ConvergenceError, match="row 0 at"):
            _series_rows(table, 0, 30, 20.0)


@pytest.mark.parametrize("family", ["laguerre", "herron"])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 8, 13, 20, 30, 40, 55, 70, 85, 100])
def test_suggest_columns_certifies_p1_families(family, N):
    """Tables sized by suggest_columns certify every row up to the guard."""
    guard = _RADIUS_GUARDS[family]
    for R in np.linspace(guard / 12, guard, 12):
        table = build_table(family, N, suggest_columns(family, N, R))
        z = np.array([-R, R])
        got = _series_rows(table, 0, N, z)
        ref = np.array([kbasis_closed(family, n, z) for n in range(N + 1)])
        assert np.abs(got - ref).max() < 1e-12
