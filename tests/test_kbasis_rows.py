"""kbasis_rows against independent routes: the printed and Bessel closed
forms, the Taylor series sum_k b[n][k] z^k of a coefficient table inside
its reach, scipy's fractional-order Bessel function (gegenbauer) and
mpmath quadrature at complex z (jacobi).

The Gauss route certifies its truncation tail and its rounding each below
_TAIL_TOL; the closed products round far below it.  So BOUND is what any
row may be off by.  In a symmetric family at real z the route sums cosines
and sines over half the nodes; the complex product over all of them, kept
here as _complex_product, is its oracle.
"""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, jv, spherical_jn

from chromex import (
    NumericError,
    ParameterError,
    Sinc,
    build_table,
    chromatic_approximation_grid,
    error_envelope,
    identity_exponential,
    kbasis_closed,
    kbasis_rows,
)
from chromex.basis_functions import _CHUNK, _TAIL_TOL, _gauss_rows, _gauss_size, _points
from chromex.families import family_spec

from conftest import ALL_FAMILIES

BOUND = 2 * _TAIL_TOL
EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["legendre", "chebyshev_t", "chebyshev_u",
                               "hermite", "laguerre", "herron"]),
       n=st.integers(0, 60), z=st.floats(-40.0, 40.0))
def test_rows_match_the_closed_forms(family, n, z):
    got = kbasis_rows(family, 0, n, z)[:, 0]
    ref = np.array([kbasis_closed(family, k, z) for k in range(n + 1)])
    assert np.abs(got - ref).max() <= BOUND
    if family_spec(family).symmetric:
        assert (got.imag == 0.0).all()


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["hermite", "laguerre", "herron"]), n=st.integers(0, 60),
       x=st.floats(-20.0, 20.0), y=st.floats(-0.5, 0.5))
def test_closed_products_match_the_closed_forms_at_complex_z(family, n, x, y):
    z = complex(x, y)
    got = kbasis_rows(family, 0, n, z)[:, 0]
    ref = np.array([kbasis_closed(family, k, z) for k in range(n + 1)])
    # a product of n + 1 factors, each correctly rounded
    assert (np.abs(got - ref) <= 4 * (n + 1) * EPS * np.maximum(1.0, np.abs(ref))).all()


# the largest |z| at which the row-sum bound |b[n][k]| <= s_1 ... s_k / k!
# (s_k the Jacobi matrix's largest absolute row sum over levels 0..k) puts
# each family's series tail below 1e-12; 193 or more in the other families
# (test_basis_functions checks the bound on every table entry)
SERIES_REACH = {"laguerre": 0.241, "herron": 0.483, "hermite": 18.8}
SERIES_COLUMNS = 400


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(ALL_FAMILIES), n=st.integers(0, 60),
       frac=st.floats(0.0, 1.0), sign=st.sampled_from([-1.0, 1.0]))
def test_rows_match_the_series_inside_its_reach(family, n, frac, sign):
    z = sign * frac * min(SERIES_REACH.get(family_spec(family).tag, 193.0), 4.0)
    table = build_table(family, n, SERIES_COLUMNS)
    got = kbasis_rows(family, 0, n, z)[:, 0]
    ref = np.array([np.polynomial.polynomial.polyval(z, table.b[k]) for k in range(n + 1)])
    # inside the reach the terms fall far below eps long before column
    # SERIES_COLUMNS; the sum's rounding is at most 2 L eps sum_k |b[n][k]| |z|^k
    # (Higham, section 5.1)
    powers = np.abs(z) ** np.arange(table.K + 1)
    rounding = 2 * (table.K + 1) * EPS * (np.abs(table.b) @ powers)
    assert (np.abs(got - ref) <= BOUND + rounding).all()


def _gegenbauer_ref(lam, n, t):
    """K^n[m](t) = c_n J_{n+lam}(pi t) / (pi t)^lam: Gegenbauer's integral
    (DLMF 18.17.17) over the normalized weight (1 - x^2)^(lam - 1/2), with
    p_n the orthonormal C_n^lam of positive leading coefficient."""
    h0 = math.sqrt(math.pi) * gamma(lam + 0.5) / gamma(lam + 1)
    hn = (math.pi * 2 ** (1 - 2 * lam) * gamma(n + 2 * lam)
          / (math.factorial(n) * (n + lam) * gamma(lam) ** 2))
    norm = np.sign(gamma(lam + n) / gamma(lam)) * math.sqrt(hn / h0)
    c = math.pi * 2 ** (1 - lam) * gamma(n + 2 * lam) / (math.factorial(n) * gamma(lam))
    s = math.pi * abs(t)
    value = (-1) ** n * c / (h0 * norm) * jv(n + lam, s) / s ** lam
    return value if t > 0 or n % 2 == 0 else -value


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(-0.45, 4.0).filter(lambda a: abs(a) > 0.05), n=st.integers(0, 60),
       t=st.floats(0.05, 40.0), sign=st.sampled_from([-1.0, 1.0]))
def test_gegenbauer_rows_match_fractional_order_bessel(lam, n, t, sign):
    t *= sign
    got = kbasis_rows(f"gegenbauer({lam!r})", 0, n, t)[:, 0]
    ref = np.array([_gegenbauer_ref(lam, k, t) for k in range(n + 1)])
    assert np.abs(got - ref).max() <= BOUND


@pytest.mark.parametrize("a, twin", [(-0.5, "chebyshev_t"), (0.0, "legendre"), (0.5, "gegenbauer(1)"),
                                     (1.5, "gegenbauer(2)")])
def test_jacobi_a_a_is_symmetric_like_its_gegenbauer_twin(a, twin):
    """jacobi(a, a) has gegenbauer(a + 1/2)'s measure, so at real z its rows and sinc jets are real."""
    family = f"jacobi({a},{a})"
    assert family_spec(family).symmetric
    t = np.linspace(-20.0, 20.0, 401)
    got = kbasis_rows(family, 0, 40, t)
    assert (got.imag == 0.0).all()
    assert np.abs(got - kbasis_rows(twin, 0, 40, t)).max() <= 1e-14
    assert (Sinc().chromatic_jet(family, 3.7, 40).imag == 0.0).all()


def _complex_product(family, lo, hi, z):
    """K = A e^{ixz} over all M nodes of the rule kbasis_rows picks, _CHUNK points at a time:
    the Gauss route's product at complex z and in asymmetric families."""
    spec = family_spec(family)
    zs, absz = _points(z)
    M = _gauss_size(spec, hi, absz, float(np.abs(zs.imag).max()))
    nodes, A, _, _ = _gauss_rows(spec, M, 16 * (hi // 16 + 1))
    rows = np.empty((hi - lo + 1, zs.size), dtype=np.complex128)
    for s in range(0, zs.size, _CHUNK):
        phases = np.multiply.outer(1j * nodes, zs[s : s + _CHUNK])
        rows[:, s : s + _CHUNK] = A[lo : hi + 1] @ np.exp(phases, out=phases)
    return rows


def _bessel_ref(family, n, t):
    """K^n[m](t) from scipy: (-1)^n sqrt(2n + 1) j_n(pi t) (legendre), (-1)^n sqrt(2) J_n(pi t)
    and J_0 (chebyshev_t), (-1)^n (J_n + J_{n+2})(pi t) (chebyshev_u); odd in t for odd n."""
    x = math.pi * abs(t)
    if family == "legendre" and n and x < np.finfo(float).tiny:
        value = 0.0  # |j_n(x)| <= x / 3 there, and scipy returns NaN at subnormal x
    elif family == "legendre":
        value = math.sqrt(2 * n + 1) * spherical_jn(n, x)
    elif family == "chebyshev_t":
        value = jv(0, x) if n == 0 else math.sqrt(2.0) * jv(n, x)
    else:
        value = jv(n, x) + jv(n + 2, x)
    return value * (-1) ** n * (-1 if t < 0 and n % 2 else 1)


_ROWS = st.integers(0, 60).flatmap(lambda hi: st.tuples(st.integers(0, hi), st.just(hi)))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["legendre", "chebyshev_t", "chebyshev_u"]), rows=_ROWS,
       t=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=4))
def test_half_node_rows_match_scipy_bessel(family, rows, t):
    lo, hi = rows
    got = kbasis_rows(family, lo, hi, t)
    assert (got.imag == 0.0).all()
    ref = np.array([[_bessel_ref(family, n, x) for x in t] for n in range(lo, hi + 1)])
    assert np.abs(got.real - ref).max() <= BOUND


@settings(max_examples=40, deadline=None)
@given(family=st.one_of(st.floats(-0.45, 4.0).filter(lambda a: abs(a) > 0.05).map(lambda a: f"gegenbauer({a!r})"),
                        st.floats(-0.95, 3.0).map(lambda a: f"jacobi({a!r},{a!r})")),
       rows=_ROWS, t=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=4))
def test_half_node_rows_match_the_complex_product(family, rows, t):
    lo, hi = rows
    got = kbasis_rows(family, lo, hi, t)
    assert (got.imag == 0.0).all()
    assert np.abs(got - _complex_product(family, lo, hi, t)).max() <= BOUND


@pytest.mark.parametrize("family, z", [
    ("legendre", [0.5 + 0.3j, -7.0, 12.0 - 0.1j]), ("chebyshev_u", 3.0 + 0.5j),
    ("gegenbauer(1.75)", np.linspace(-20.0, 20.0, _CHUNK + 9) + 0.25j),
    ("jacobi(0.5,-0.25)", 3.3), ("jacobi(0.5,-0.25)", np.linspace(-30.0, 30.0, _CHUNK + 9)),
    ("jacobi(0.5,-0.25)", [1.5 - 0.7j, 0.2]),
])
def test_complex_product_rows_are_unchanged(family, z):
    """Complex z, and asymmetric jacobi at any z, keep the complex product bit for bit."""
    for lo, hi in ((0, 40), (7, 7), (3, 30)):
        got = kbasis_rows(family, lo, hi, z)
        assert got.tobytes() == _complex_product(family, lo, hi, z).tobytes()


def _jacobi_quad(a, b, n, z):
    """i^n int p_n(w) e^{iwz} dmu(w) in mpmath: w = pi x under the
    normalized weight (1 - x)^a (1 + x)^b, p_n the orthonormal P_n^(a,b)."""
    a, b = mp.mpf(a), mp.mpf(b)
    h0 = 2 ** (a + b + 1) * mp.beta(a + 1, b + 1)
    hn = (2 ** (a + b + 1) / (2 * n + a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
          / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
    zz = mp.mpc(z)

    def f(theta):  # x = cos(theta), so that no 1 - x cancels at the ends
        x = mp.cos(theta)
        weight = 2 ** (a + b + 1) * mp.sin(theta / 2) ** (2 * a + 1) * mp.cos(theta / 2) ** (2 * b + 1)
        return mp.jacobi(n, a, b, x) * weight * mp.expj(mp.pi * x * zz)

    return complex(1j ** n * mp.quad(f, [0, mp.pi / 2, mp.pi]) / (h0 * mp.sqrt(hn / h0)))


@settings(max_examples=10, deadline=None)
@given(ab=st.sampled_from([(0.5, -0.25), (-0.5, 2.0), (0.0, 0.0), (1.5, 0.5)]),
       n=st.integers(0, 60), x=st.floats(1.1, 12.0), sign=st.sampled_from([-1.0, 1.0]),
       y=st.floats(-0.8, 0.8))
def test_complex_rows_match_mpmath_quadrature(ab, n, x, sign, y):
    """Off the real line the rule is sized by |J_k(w)| <= |w/2|^k e^{|Im w|} / k!."""
    z = complex(sign * x, y)
    got = kbasis_rows(f"jacobi({ab[0]},{ab[1]})", n, n, z)[0]
    with mp.workdps(20):
        ref = _jacobi_quad(ab[0], ab[1], n, z)
    assert abs(got - ref) <= BOUND


def _sph_j(n, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(n + mp.mpf(1) / 2, x)


def test_item3_commands_give_the_mpmath_values():
    """identity --kind exponential --order 40 --z 10:20:5,
    envelope --family legendre --order 15 --t=16:20:4 and
    expand --family legendre --function sinc --order 15 --t=10:20:5."""
    with mp.workdps(30):
        # K^n[m](z) = (-1)^n sqrt(2n+1) j_n(pi z), p_n(w) = sqrt(2n+1) P_n(w/pi)
        k = [(-1) ** n * mp.sqrt(2 * n + 1) for n in range(41)]
        zs = [10, 15, 20]
        ident = [abs(mp.expj(z) - sum((-1j) ** n * mp.sqrt(2 * n + 1) * mp.legendre(n, 1 / mp.pi)
                                     * k[n] * _sph_j(n, mp.pi * z) for n in range(41)))
                 for z in zs]
        env = [mp.sqrt(1 - sum((k[n] * _sph_j(n, mp.pi * t)) ** 2 for n in range(16)))
               for t in (16, 20)]
        sinc = [mp.sin(mp.pi * t) / (mp.pi * t) for t in zs]
    np.testing.assert_allclose(identity_exponential("legendre", 1.0, np.array(zs, float), 40),
                               [float(v) for v in ident], rtol=0, atol=BOUND)
    np.testing.assert_allclose(error_envelope("legendre", 15, np.array([16.0, 20.0])),
                               [float(v) for v in env], rtol=0, atol=BOUND)
    ca = chromatic_approximation_grid("legendre", Sinc(), 0.0, 15, np.array(zs, float))
    assert np.abs(ca - np.array([float(v) for v in sinc])).max() < 1e-12


def test_a_grid_past_one_chunk_matches_the_closed_forms():
    """The Gauss route fills its rows _CHUNK points at a time."""
    t = np.linspace(-30.0, 30.0, 2 * _CHUNK + 37)
    got = kbasis_rows("legendre", 0, 20, t)
    ref = np.array([kbasis_closed("legendre", n, t) for n in range(21)])
    assert np.abs(got - ref).max() <= BOUND
    # the last chunk holds t[-37:], whose max|t| sizes the same rule
    np.testing.assert_array_equal(got[:, -37:], kbasis_rows("legendre", 0, 20, t[-37:]))


def test_rows_refuse_what_no_route_certifies():
    with pytest.raises(NumericError, match="rounding bound .* exceeds 1e-12; use a smaller"):
        kbasis_rows("legendre", 0, 10, 1000.0)
    # e^{pi |Im z|} and the node search stay finite however large z is
    for z in (5.0 + 3.0j, 1.0 + 300.0j, 1e300):
        with pytest.raises(NumericError, match="rounding bound"):
            kbasis_rows("chebyshev_t", 0, 10, z)
    with pytest.raises(NumericError, match="underflows at \\|z\\|=60; use \\|z\\| <= 52.9"):
        kbasis_rows("hermite", 0, 10, 60.0)
    with pytest.raises(NumericError, match="pole"):
        kbasis_rows("laguerre", 0, 3, -1j)
    with pytest.raises(ParameterError, match="non-finite argument"):
        kbasis_rows("herron", 0, 3, [0.5, math.inf])
    with pytest.raises(ParameterError):
        kbasis_rows("legendre", 3, 2, 0.5)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rows_at_no_points(family):
    # the Gauss route once raised numpy's "zero-size array to reduction operation maximum"
    assert kbasis_rows(family, 2, 7, []).shape == (6, 0)
    assert error_envelope(family, 7, []).shape == (0,)


@pytest.mark.parametrize("family, hi", [("legendre", 10), ("chebyshev_t", 0), ("jacobi(0.5,-0.25)", 40)])
def test_gauss_refusal_names_the_reach_it_certifies(family, hi):
    reach = None
    for z in (850.0, 3000.0, 1e300):  # the search ends after many nodes or at 16; the reach is one
        with pytest.raises(NumericError, match="use a smaller \\|z\\|, at most ([0-9.]+) at \\|Im z\\| = 0$") as info:
            kbasis_rows(family, hi, hi, z)
        printed = float(re.search("at most ([0-9.]+)", str(info.value)).group(1))
        assert reach in (None, printed)
        reach = printed
    assert family != "legendre" or reach == 847.85
    kbasis_rows(family, hi, hi, reach)
    kbasis_rows(family, hi, hi, -reach)
    with pytest.raises(NumericError, match=f"at most {reach:g} "):
        kbasis_rows(family, hi, hi, 1.001 * reach)
    # where e^{pi |Im z|} alone spends the rounding budget, no |z| is certified
    with pytest.raises(NumericError, match="exceeds 1e-12; use a smaller \\|Im z\\|$"):
        kbasis_rows(family, hi, hi, 5.0 + 3.0j)


@pytest.mark.parametrize("z", [850.0, 1000.0, 5.0 + 3.0j])
def test_gauss_refusal_prints_a_bound_above_the_tolerance(z):
    # at |z| = 850 the bound is just above 1e-12; printed to 3 digits it is rounded up
    with pytest.raises(NumericError) as info:
        kbasis_rows("legendre", 10, 10, z)
    printed = re.search("the rounding bound (\\S+) of", str(info.value)).group(1)
    assert float(printed) > 1e-12
    assert z != 850.0 or printed == "1.01e-12"
