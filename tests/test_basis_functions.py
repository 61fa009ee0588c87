import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromex import (
    NumericError,
    ParameterError,
    Sinc,
    build_table,
    chromatic_approximation,
    error_envelope,
    identity_exponential,
    kbasis_closed,
    kbasis_rows,
    kbasis_series,
)
from chromex.basis_functions import _miller
from chromex.families import gamma_beta_arrays

from conftest import ALL_FAMILIES


def test_series_at_zero():
    for fam in ("laguerre", "herron"):
        t = build_table(fam, 5)
        assert kbasis_series(t, 0, 0.0) == 1.0
        assert kbasis_series(t, 3, 0.0) == 0.0
    # legendre sums the Gauss weights: 1 to rounding
    t = build_table("legendre", 5)
    assert abs(kbasis_series(t, 0, 0.0) - 1.0) <= 1e-15
    assert abs(kbasis_series(t, 3, 0.0)) <= 1e-15


def test_sinc_zero_at_one():
    t = build_table("legendre", 2, 64)
    assert abs(kbasis_series(t, 0, 1.0)) < 1e-12


def test_series_is_the_row_anywhere_inside_the_horizon():
    # (-1)^10 sqrt(21) j_10(15 pi); a Taylor sum of the table's row gives -88.47
    t = build_table("legendre", 40, 241)
    assert abs(kbasis_series(t, 10, 15.0) - 0.09074918502970468) < 1e-12
    for n in (-1, 41):
        with pytest.raises(ParameterError, match=f"order n={n} outside table horizon"):
            kbasis_series(t, n, 0.5)


def test_hermite_closed_value():
    val = kbasis_closed("hermite", 2, 1.0)
    assert val == pytest.approx(math.exp(-0.25) / math.sqrt(8), rel=1e-13)
    t = build_table("hermite", 4, 96)
    assert kbasis_series(t, 2, 1.0) == pytest.approx(val, abs=1e-12)


def test_laguerre_and_herron_trivia():
    assert kbasis_closed("laguerre", 1, 0.0) == 0.0
    assert kbasis_closed("herron", 0, 0.0) == 1.0


def test_herron_closed_form_underflows_quietly_past_710():
    """sech z is an exact 0 past |Re z| = 710, at any Im z, with no warning,
    in kbasis_closed and kbasis_rows alike (1 / cosh z was NaN at 1e4 + 2j)."""
    z = np.array([711.0, -800.0, 1e4, 1e4 + 2j, -1e4 + 2j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = kbasis_closed("herron", 3, z)
        rows = kbasis_rows("herron", 0, 3, z)
    assert np.all(out == 0.0)
    assert np.all(rows == 0.0)


@pytest.mark.parametrize("family, n, z, error, message", [
    # 1 / sqrt(2^n n!) was an exact 0 from n = 151, an OverflowError from n = 171
    ("hermite", 151, 2.0, NumericError, r"K\^151\[m\] of hermite over- or underflows .* use kbasis_rows"),
    ("hermite", 171, 2.0, NumericError, "use kbasis_rows"),
    # NaN with RuntimeWarnings at the pole
    ("laguerre", 3, [0.5, -1j], NumericError, "use kbasis_rows"),
    ("hermite", 2, 60.0, NumericError, r"e\^\(-z\^2/4\) underflows"),
    ("laguerre", 2, [0.5, math.nan], ParameterError, "z must be finite"),
])
def test_closed_refuses_a_lost_factor(family, n, z, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            kbasis_closed(family, n, z)


def test_closed_hermite_to_n_150():
    z = np.array([-3.0, 2.0, 5.5 + 0.5j])
    assert np.abs(kbasis_closed("hermite", 150, z) / kbasis_rows("hermite", 150, 150, z)[0] - 1).max() < 1e-12


def test_closed_unsupported_families():
    for family in ("gegenbauer(1)", "jacobi(0.5,-0.25)"):
        with pytest.raises(ParameterError, match="no printed closed form; use kbasis_rows"):
            kbasis_closed(family, 2, 0.5)


@pytest.mark.parametrize("family", ["legendre", "chebyshev_t", "chebyshev_u", "hermite", "laguerre", "herron"])
def test_closed_refuses_a_negative_order(family):
    # laguerre, herron and both chebyshevs once returned numbers at n = -1 (laguerre -2 at z = 0.5)
    with pytest.raises(ParameterError, match="^n must be nonnegative$"):
        kbasis_closed(family, -1, 0.5)


@pytest.mark.parametrize("family", ["legendre", "chebyshev_t", "chebyshev_u", "hermite"])
def test_series_matches_closed_weakly_bounded(family):
    t = build_table(family, 20, 200)
    grid = np.arange(-4.0, 4.0001, 0.25)
    for n in range(21):
        closed = kbasis_closed(family, n, grid)
        series = kbasis_series(t, n, grid.astype(complex))
        assert np.abs(series - closed).max() < 1e-8


@pytest.mark.parametrize("family", ["laguerre", "herron"])
def test_series_matches_closed_p1(family):
    R = {"laguerre": 0.2, "herron": 0.45}[family]
    t = build_table(family, 20)
    grid = np.linspace(-R, R, 17)
    for n in range(21):
        closed = kbasis_closed(family, n, grid)
        series = kbasis_series(t, n, grid.astype(complex))
        assert np.abs(series - closed).max() < 1e-12


EXTRA_FAMILIES = ["gegenbauer(0.2)", "gegenbauer(3)", "jacobi(-0.5,2)", "jacobi(3,-0.9)"]
RATIO_TERMS = 2048


@functools.lru_cache(maxsize=None)
def _log_ratios(family):
    """log(s_k / k), k = 1..RATIO_TERMS + 1, with s_k the largest absolute
    row sum of the Jacobi matrix over levels 0..k.  J^k e_0 lives on those
    levels, so |b[n][k]| = |(J^k e_0)[n]| / k! <= s_1 ... s_k / k!: the bound
    behind the series reach figures of test_kbasis_rows' Taylor oracle."""
    gam, bet = gamma_beta_arrays(family, RATIO_TERMS + 1)
    rows = np.abs(bet) + gam
    rows[1:] += gam[:-1]
    return np.log(np.maximum.accumulate(rows)[1:] / np.arange(1, RATIO_TERMS + 2))


def _row_sum_bound(family, K):
    """s_1 ... s_k / k! for k = 0..K, inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.exp(np.r_[0.0, np.cumsum(_log_ratios(family)[:K])])


@pytest.mark.parametrize("family", ALL_FAMILIES + EXTRA_FAMILIES)
@pytest.mark.parametrize("N,K", [(5, 400), (100, 600)])
def test_row_sum_bound_holds_on_every_entry(family, N, K):
    """|b[n][k]| <= s_1 ... s_k / k! on every entry of a coefficient table."""
    b = np.abs(build_table(family, N, K).b)
    assert (b <= _row_sum_bound(family, K) * (1 + 1e-9) + 5e-324).all()


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(ALL_FAMILIES + EXTRA_FAMILIES),
       N=st.integers(0, 60), extra=st.integers(0, 300))
def test_row_sum_bound_property(family, N, extra):
    b = np.abs(build_table(family, N, N + extra).b)
    assert (b <= _row_sum_bound(family, N + extra) * (1 + 1e-9) + 5e-324).all()


@pytest.mark.parametrize("family", ALL_FAMILIES + EXTRA_FAMILIES)
def test_log_ratios_never_rise_over_the_last_half(family):
    """s_{k+1} / (k + 1) falls near the horizon, so the largest ratio there
    also bounds every ratio past it, and a series tail bound read off a finite
    stretch of ratios holds for the whole tail."""
    lr = _log_ratios(family)
    assert (np.diff(lr[lr.size // 2 :]) <= 0.0).all()


def test_hermite_rows_match_closed_form_to_three():
    """hermite rows match their closed form at |z| <= 6, where a Taylor sum
    of the table's rows cancels by up to 7e-10."""
    grid = np.linspace(-6.0, 6.0, 121)
    t = build_table("hermite", 40)
    for n in range(41):
        assert np.abs(kbasis_series(t, n, grid) - kbasis_closed("hermite", n, grid)).max() < 1e-12


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(0.3, math.nan),
                               [0.5, math.nan], complex(math.inf, 0.0), complex(0.0, -math.inf),
                               complex(math.inf, math.nan), [2.0, math.inf]])
def test_non_finite_arguments_raise_parameter_error(z):
    """Every route refuses a non-finite argument up front."""
    msg = "non-finite argument; z must be finite"
    for family in ("legendre", "gegenbauer(1)", "hermite", "laguerre", "herron"):
        with pytest.raises(ParameterError, match=msg):
            kbasis_rows(family, 0, 12, z)
        with pytest.raises(ParameterError, match=msg):
            kbasis_series(build_table(family, 10), 0, z)
        with pytest.raises(ParameterError, match=msg):
            identity_exponential(family, 1.0, z, 10)
    if np.isrealobj(z):  # error_envelope names its own argument
        with pytest.raises(ParameterError, match="non-finite argument; t must be finite"):
            error_envelope("legendre", 10, z)


@pytest.mark.parametrize("family", ["legendre", "chebyshev_u", "jacobi(0.5,-0.25)", "hermite", "laguerre"])
@pytest.mark.parametrize("z", [np.full((2, 3), 0.5), np.zeros((1, 1)), np.full((3, 1), 0.25 + 0.5j)])
def test_arguments_of_more_than_one_dimension_raise_parameter_error(family, z):
    """Every entry point refuses a 2-D z with one message: numpy's broadcast error,
    an IndexError or a (2, 3) result before, depending on the route."""
    msg = "z must be a scalar or a 1-D array"
    calls = [lambda: kbasis_rows(family, 0, 3, z),
             lambda: error_envelope(family, 3, z.real),
             lambda: chromatic_approximation(family, Sinc(), 0.3, 3, z),
             lambda: identity_exponential(family, 1.0, z, 10)]
    if family in ("legendre", "chebyshev_u", "hermite", "laguerre"):
        calls.append(lambda: kbasis_closed(family, 3, z.real))
    for call in calls:
        with pytest.raises(ParameterError, match=msg):
            call()


def test_legendre_boundedness_on_reals():
    t = build_table("legendre", 20, 200)
    grid = np.arange(-4.0, 4.0001, 0.1).astype(complex)
    for n in range(21):
        assert np.abs(kbasis_series(t, n, grid)).max() <= 1.0 + 1e-10


def test_legendre_normalization_sum():
    # sum_n (2n+1) j_n(pi t)^2 = 1 (unit energy of sinc)
    for t in np.arange(-3.0, 3.0001, 0.5):
        N = 40 + int(4 * abs(t))
        js = _miller(True, N, math.pi * t, range(N + 1))[:, 0]
        total = np.sum((2 * np.arange(N + 1) + 1) * js ** 2)
        assert abs(total - 1.0) < 1e-8


def test_derivative_consistency_via_recurrence():
    # centered difference of K^0[m] matches the operator recurrence
    # gamma_0 K^1 = D K^0 for symmetric families
    t = build_table("legendre", 2, 120)
    h = 1e-5
    g0 = math.pi / math.sqrt(3)
    for x in np.arange(-2.0, 2.0001, 0.25):
        fd = (kbasis_series(t, 0, x + h) - kbasis_series(t, 0, x - h)) / (2 * h)
        assert abs(fd - g0 * kbasis_series(t, 1, x)) < 1e-6


def test_spherical_bessel_basics():
    assert _miller(True, 0, 1e-30, [0])[0, 0] == 1.0
    assert _miller(False, 0, 0.0, [0])[0, 0] == 1.0
    assert _miller(True, 0, 2.0, [0])[0, 0] == pytest.approx(math.sin(2.0) / 2.0, rel=1e-14)
    assert _miller(True, 1, 1.5, [1])[0, 0] == pytest.approx(
        math.sin(1.5) / 1.5 ** 2 - math.cos(1.5) / 1.5, rel=1e-13
    )


def test_bessel_normalization_identity():
    jb = _miller(False, 80, 2.0, range(81))[:, 0]
    assert abs(jb[0] + 2 * np.sum(jb[2::2]) - 1.0) < 1e-10


def test_bessel_parity():
    for spherical in (True, False):
        for n in range(6):
            j = _miller(spherical, n, [-3.0, 3.0], [n])[0]
            assert j[0] == pytest.approx((-1) ** n * j[1], rel=1e-13)


def test_bessel_wronskian():
    # j_{n+1}' relations are implied by the cross identity
    # j_n(x) y-type checks are unavailable; use the recurrence residual
    x = 7.3
    js = _miller(True, 12, x, range(13))[:, 0]
    for n in range(1, 11):
        resid = js[n - 1] + js[n + 1] - (2 * n + 1) / x * js[n]
        assert abs(resid) < 1e-12


def test_bessel_recurrence_residual():
    x = 11.7
    jb = _miller(False, 24, x, range(25))[:, 0]
    for n in range(1, 23):
        resid = jb[n - 1] + jb[n + 1] - 2 * n / x * jb[n]
        assert abs(resid) < 1e-12


def test_series_complex_argument():
    t = build_table("legendre", 10, 150)
    z = 1.0 + 0.3j
    # compare against the closed spherical Bessel form through the
    # exponential identity instead: use conjugate-symmetry sanity
    v = kbasis_series(t, 4, z)
    vbar = kbasis_series(t, 4, np.conj(z))
    assert v == pytest.approx(np.conj(vbar), rel=1e-12)


def test_laguerre_half_pole_value():
    # K^n[m](-i/2) = 2 i^n: the squared magnitudes are constant, which is
    # why the expansion diverges on that horizontal line
    for n in range(8):
        val = kbasis_closed("laguerre", n, -0.5j)
        assert val == pytest.approx(2.0 * 1j ** n, rel=1e-12)
