"""The batched Horner pass against the per-row scalar Horner loop.

``_kbasis_series_scalar`` is the per-row reference: certification row by
row, then one scalar Horner loop per point.  For real z the batched pass
must reproduce it bit for bit, including which row raises and with what
message; for complex z it must agree within Horner's rounding bound.

Its certification uses the scalar loops the library replaced with array
passes, kept here as bitwise oracles: ``_terms_needed_loop`` scans the
a-priori bound one k at a time, and ``_empirical_tail_ok`` checks one row.
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
    _RADIUS_GUARDS,
    _TAIL_TOL,
    _series_rows,
    _tails_converged,
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


@functools.lru_cache(maxsize=None)
def _scan_loop(p, M, absz):
    """First k of the scalar scan of |b[n][k]| <= L^k / k!^(1-p), or None.

    It does not depend on n, so the sweep below memoizes it per argument.
    """
    L = (M + 1.0) ** 2 * absz
    log_l = math.log(L)
    log_tol = math.log(_TAIL_TOL / 2.0)
    logr = 0.0
    k = 0
    while k < _MAX_TERMS:
        k += 1
        logr += log_l - (1.0 - p) * math.log(k)
        if logr < log_tol and L / (k + 1) ** (1.0 - p) < 0.5:
            return k
    return None


def _terms_needed_loop(spec, n, absz):
    p = spec.growth_exponent
    if absz == 0.0:
        return n + 1
    if p < 1.0:
        k = _scan_loop(p, spec.weak_bound_M, absz)
        return None if k is None else max(k + 1, n + 1)
    q = spec.rho * absz
    if q >= 0.95:
        raise ConvergenceError("argument too close to the convergence boundary")
    return None


def _empirical_tail_ok(row, nterms, absz, tol):
    w = 6
    if nterms < 2 * w:
        return False
    start = nterms - 2 * w
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(row[start:nterms]) * absz ** np.arange(start, nterms)
    if not np.isfinite(terms).all():
        return False
    last = terms[-w:].max()
    prev = terms[-2 * w : -w].max()
    return last < tol / 4.0 and last <= prev + tol / 4.0


def _kbasis_series_scalar(table, n, z):
    spec = family_spec(table.family)
    if not 0 <= n <= table.N:
        raise ParameterError(f"order n={n} outside table horizon")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if not np.isfinite(zs).all():
        raise ParameterError("non-finite argument; z must be finite")
    absz = float(np.abs(zs).max())
    guard = _RADIUS_GUARDS.get(spec.tag)
    if guard is not None and absz > guard:
        raise ParameterError(f"|z|={absz:g} beyond radius guard {guard:g} for {spec.tag}")
    nterms = _terms_needed_loop(spec, n, absz)
    avail = min(table.K + 1, _MAX_TERMS)
    if nterms is None or nterms > avail:
        if not _empirical_tail_ok(table.b[n], avail, absz, _TAIL_TOL):
            raise ConvergenceError(
                f"series tail for row {n} at |z|={absz:g} not below "
                f"{_TAIL_TOL:g} within {avail} columns; "
                "rebuild the table with a larger K"
            )
        nterms = avail
    out = series_eval_scalar(table.b[n], zs, nterms)
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
        ("hermite", 10, None, 11, 6.0),  # a failing row comes before the horizon
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


def _terms_used(table, n, absz):
    spec = family_spec(table.family)
    need = _terms_needed_loop(spec, n, absz)
    avail = min(table.K + 1, _MAX_TERMS)
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
        assert not _tails_converged(table.b[:1], 301, 20.0).any()
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


@pytest.mark.parametrize("family", [f for f in ALL_FAMILIES
                                    if family_spec(f).growth_exponent < 1.0])
def test_terms_needed_equals_scan_loop(family):
    """The cumulative-sum scan returns the scalar loop's integer or None,
    through hermite's None region at |z| >= 2.75."""
    spec = family_spec(family)
    radii = [0.0, *np.logspace(-8, 3, 45), *np.arange(4001) * 0.01]
    for absz in radii:
        for n in (0, 7, 40):
            assert _terms_needed(spec, n, float(absz)) == _terms_needed_loop(spec, n, float(absz))
    if spec.tag == "hermite":
        assert _terms_needed(spec, 0, 2.75) is None


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_tails_converged_equals_row_check(family):
    """One verdict per row, each the scalar check's, including rows that
    fail, rows whose terms overflow and tables narrower than the window."""
    for N, K in ((8, 10), (20, 60), (30, 300)):
        table = _table(family, N, K)
        for absz in (0.3, 3.0, 6.0, 20.0, 1e3):
            got = _tails_converged(table.b, K + 1, absz)
            ref = [_empirical_tail_ok(row, K + 1, absz, _TAIL_TOL) for row in table.b]
            assert got.tolist() == ref


@pytest.mark.parametrize("z,K,row", [(3.0, 60, 15), (6.0, 112, 11)])
@pytest.mark.parametrize("lo", [0, 3])
def test_first_failing_row_is_named(z, K, row, lo):
    """hermite N = 20: rows from `row` on fail the tail check at |z| (at
    |z| = 3 row 16 passes again), and the error names the first of them."""
    table = _table("hermite", 20, K)
    verdicts = [_empirical_tail_ok(r, K + 1, z, _TAIL_TOL) for r in table.b]
    assert verdicts.index(False) == row
    with pytest.raises(ConvergenceError, match=f"row {row} at \\|z\\|={z:g} "):
        _series_rows(table, lo, 20, np.array([-z, 0.5]))


def test_horizon_error_after_all_rows_certify():
    table = _table("legendre", 12, 60)
    with pytest.raises(ParameterError, match="order n=13 outside table horizon"):
        _series_rows(table, 0, table.N + 1, 0.5)
    with pytest.raises(ParameterError, match="order n=13 outside table horizon"):
        _series_rows(table, 13, 13, 0.5)
