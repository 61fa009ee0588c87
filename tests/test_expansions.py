import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromex import (
    Constant,
    Cosine,
    Exponential,
    FunctionSpec,
    JetFunction,
    ParameterError,
    ShannonCombo,
    Sinc,
    bessel_j_all,
    build_table,
    chromatic_approximation,
    chromatic_approximation_grid,
    error_envelope,
    identity_constant_one,
    identity_exponential,
    identity_translation,
    kbasis_closed,
    local_convolution,
    local_norm_sq,
    local_scalar,
    chromatic_jet_from_taylor,
    gauss_quadrature,
    table_for,
    taylor_vs_chromatic_comparison,
)
from chromex.basis_functions import kbasis_rows
from chromex.chromatic_core import conversion_matrices
from chromex.families import gamma_beta_arrays
from chromex.orthopoly import eval_all_p


def test_constant_reproduced_at_center():
    res = chromatic_approximation("legendre", Constant(1.0), 0.3, 10, 0.3)
    assert res.value == pytest.approx(1.0, abs=1e-13)


def test_exponential_convergence():
    t = table_for("legendre", 40)
    res = chromatic_approximation("legendre", Exponential(2.0), 0.0, 40, 1.5, t)
    assert abs(res.value - np.exp(3j)) < 1e-8


def test_exponential_convergence_other_families():
    for fam in ("chebyshev_u", "hermite", "jacobi(0.5,-0.25)"):
        t = table_for(fam, 40)
        res = chromatic_approximation(fam, Exponential(1.0), 0.0, 40, 1.2, t)
        assert abs(res.value - np.exp(1.2j)) < 1e-8


@pytest.mark.parametrize("family", ["legendre", "chebyshev_t", "jacobi(0.5,-0.25)", "hermite", "laguerre"])
def test_exponential_jet_phases_are_exact(family):
    """K^n[e^{iw.}](0) = i^n p_n(w) with i^n exact; 1j ** n rounds from n = 100 on."""
    k = np.arange(201)
    expect = np.array([1, 1j, -1, -1j])[k % 4] * eval_all_p(family, 200, 1.3)
    np.testing.assert_array_equal(Exponential(1.3).chromatic_jet(family, 0.0, 200), expect)


def test_approximation_value_and_tail_come_from_one_pass():
    """The value is the grid sum and the tail bound is sqrt(tail energy) E_N(z - u),
    bit for bit, from the one jet and the one set of rows."""
    f, u, N = Sinc(), 0.3, 6
    z = np.linspace(-4.0, 5.0, 37)
    res = chromatic_approximation("legendre", f, u, N, z)
    assert res.value.tobytes() == chromatic_approximation_grid("legendre", f, u, N, z).tobytes()
    tail = math.sqrt(1.0 - local_norm_sq("legendre", f, u, N)) * error_envelope("legendre", N, z - u)
    assert tail.min() > 0.0
    assert res.tail_bound.tobytes() == tail.tobytes()


def test_sinc_truncation_bound():
    t = table_for("legendre", 15, 160)
    u = 0.3
    grid = np.arange(u - 1.0, u + 1.0001, 0.125)
    f = Sinc()
    for z in grid:
        res = chromatic_approximation("legendre", f, u, 15, float(z), t)
        err = abs(res.value - f.value(float(z)))
        assert res.tail_bound is not None
        assert err <= res.tail_bound + 1e-12


def test_ca_bounded_by_jet_l1_norm():
    t = table_for("legendre", 15, 160)
    f = Sinc()
    jet = f.chromatic_jet("legendre", 0.3, 15)
    bound = np.sum(np.abs(jet))
    grid = np.arange(-3.0, 3.0001, 0.25)
    ca = chromatic_approximation_grid("legendre", f, 0.3, 15, grid, t)
    assert np.abs(ca).max() <= bound + 1e-12


def test_jet_matching_invariant():
    """K^m applied to CA[f,N,u] at z=u reproduces K^m[f](u) for m <= N."""
    N = 12
    t = table_for("legendre", N, 64)
    f = Exponential(1.3)
    jet = f.chromatic_jet("legendre", 0.0, N)
    # Taylor coefficients of CA at u: sum_k (-1)^k jet_k b[k][j]
    signs = (-1.0) ** np.arange(N + 1)
    coeffs = (signs * jet) @ t.b[:, : N + 1]
    back = chromatic_jet_from_taylor("legendre", coeffs, N)
    assert np.abs(back - jet).max() < 1e-8


def test_envelope_zero_at_origin():
    for fam in ("legendre", "chebyshev_t", "hermite"):
        tab = table_for(fam, 8)
        for N in (0, 3, 8):
            assert error_envelope(fam, N, 0.0, tab) == 0.0


def test_envelope_nonnegative_grid():
    tab = table_for("legendre", 6, 120)
    for t in np.arange(-3.0, 3.0001, 0.25):
        assert error_envelope("legendre", 6, float(t), tab) >= 0.0


def test_envelope_flatness_order():
    tab = table_for("legendre", 3, 64)
    r = error_envelope("legendre", 3, 0.1, tab) ** 2 / error_envelope("legendre", 3, 0.05, tab) ** 2
    assert 2 ** 8 / 1.3 <= r <= 2 ** 8 * 1.3


def test_local_norm_sinc():
    f = Sinc()
    for t in (0.0, 0.37, 1.5):
        assert abs(local_norm_sq("legendre", f, t, 60) - 1.0) < 1e-6


def test_local_norm_t_independence():
    f = Sinc()
    a = local_norm_sq("legendre", f, 0.0, 60)
    b = local_norm_sq("legendre", f, 2.0, 60)
    assert abs(a - b) < 1e-6


def test_local_norm_zero_function():
    assert local_norm_sq("legendre", Constant(0.0), 0.7, 30) == 0.0


def test_local_scalar_matches_norm():
    f = Sinc()
    s = local_scalar("legendre", f, f, 0.4, 50)
    assert s.imag == pytest.approx(0.0, abs=1e-12)
    assert s.real == pytest.approx(local_norm_sq("legendre", f, 0.4, 50), rel=1e-12)


@pytest.mark.parametrize("family", ["legendre", "chebyshev_t"])
@pytest.mark.parametrize("f", [Sinc(), ShannonCombo(np.array([0.5, -1.0, 2.0]), -1)])
def test_sinc_jets_refuse_a_negative_order(family, f):
    # each raised a bare ValueError (max() of an empty row list) before
    for call in (lambda: chromatic_approximation(family, f, 0.0, -1, 0.5),
                 lambda: local_norm_sq(family, f, 0.0, -1),
                 lambda: local_scalar(family, f, f, 0.0, -1)):
        with pytest.raises(ParameterError, match="^N must be nonnegative$"):
            call()


def test_convolution_center_independence():
    f = Sinc()
    vals = [local_convolution("legendre", f, f, u, 0.8, 60) for u in (0.0, 0.8, 0.4)]
    assert abs(vals[0] - vals[1]) < 1e-7
    assert abs(vals[0] - vals[2]) < 1e-7


def test_convolution_with_mother_reproduces():
    # (f * m)(t) = f(t): m has the jet K^n[m](x) which is the sinc jet at
    # x for the Legendre family, i.e. convolving sinc with itself
    f = Sinc()
    t = 0.6
    conv = local_convolution("legendre", f, f, 0.0, t, 60)
    assert abs(conv - f.value(t)) < 1e-7


def test_identity_exponential():
    tab = table_for("legendre", 40)
    assert identity_exponential("legendre", math.pi / 2, 1.0, 40, tab) <= 1e-9
    tabh = table_for("hermite", 20)
    assert identity_exponential("hermite", 1.0, 0.0, 20, tabh) < 1e-13


def test_identity_exponential_matches_classical_chebyshev():
    # e^{i w z} = J_0(pi z) + 2 sum i^n T_n(w/pi) J_n(pi z)
    omega, z, N = 2.0, 0.5, 40
    tab = table_for("chebyshev_t", N)
    resid = identity_exponential("chebyshev_t", omega, z, N, tab)
    assert resid <= 1e-9
    jb = bessel_j_all(N, math.pi * z)
    x = omega / math.pi
    tvals = np.cos(np.arange(N + 1) * math.acos(x))
    classical = jb[0] + 2 * np.sum(1j ** np.arange(1, N + 1) * tvals[1:] * jb[1:])
    assert abs(classical - np.exp(1j * omega * z)) < 1e-9


def test_identity_translation():
    tab = table_for("legendre", 50, 180)
    assert identity_translation("legendre", 0.4, 0.7, 50, tab) <= 1e-8
    assert identity_translation("legendre", 0.4, 0.0, 50, tab) < 1e-14


def test_identity_constant_one():
    tab = table_for("chebyshev_t", 60, 180)
    assert identity_constant_one("chebyshev_t", 0.6, 60, tab) <= 1e-8
    # which reduces to J_0 + 2 sum J_2n = 1
    jb = bessel_j_all(60, math.pi * 0.6)
    assert abs(jb[0] + 2 * np.sum(jb[2:61:2]) - 1.0) <= 1e-10


def _constant_one_from_k2d(family, z, N):
    """identity_constant_one with the jet read off the full k2d matrix."""
    cjet = conversion_matrices(family, N).k2d[:, 0]
    basis = kbasis_rows(family, 0, N, z)
    s = ((-1.0) ** np.arange(N + 1) * cjet) @ basis
    values = np.abs(1.0 - s)
    return float(values[0]) if np.ndim(z) == 0 else values


@pytest.mark.parametrize("family,R", [
    ("legendre", 3.0), ("chebyshev_t", 2.0), ("jacobi(0.5,-0.25)", 2.0), ("hermite", 2.0),
    ("laguerre", 0.15),
])
def test_identity_constant_one_on_the_k2d_column(family, R):
    """The jet i^n p_n(0) is k2d's column 0 within 2e-15, and sum_k |K^k|^2 <= 1,
    so the two residuals differ by at most that (jacobi: 2.1e-16; the rest: 0)."""
    N, z = 30, np.linspace(-R, R, 13)
    table = table_for(family, N, 200)
    whole = identity_constant_one(family, z, N, table)
    assert np.abs(whole - _constant_one_from_k2d(family, z, N)).max() <= 2e-15
    for x in z:
        one = identity_constant_one(family, float(x), N, table)
        assert abs(one - _constant_one_from_k2d(family, float(x), N)) <= 2e-15


def test_operator_christoffel_darboux():
    # d/dt sum_{m<=n} K^m[f] conj(K^m[g]) equals
    # gamma_n (K^{n+1}[f] conj(K^n[g]) + K^n[f] conj(K^{n+1}[g]))
    f, g = Sinc(), Cosine(1.2)
    n, t0, h = 12, 0.4, 1e-4
    gam, _ = gamma_beta_arrays("legendre", n)

    def partial(t):
        jf = f.chromatic_jet("legendre", t, n)
        jg = g.chromatic_jet("legendre", t, n)
        return float(np.sum(jf * np.conj(jg)).real)

    fd = (partial(t0 + h) - partial(t0 - h)) / (2 * h)
    jf = f.chromatic_jet("legendre", t0, n + 1)
    jg = g.chromatic_jet("legendre", t0, n + 1)
    rhs = gam[n] * (jf[n + 1] * np.conj(jg[n]) + jf[n] * np.conj(jg[n + 1]))
    assert abs(fd - rhs.real) < 1e-5


def test_comparison_taylor_exact_at_center(rng):
    f = Cosine(0.9)
    rows = taylor_vs_chromatic_comparison("legendre", f, 0.5, 10, [0.5])
    t, fv, ca, ty = rows[0]
    assert ty == pytest.approx(fv, rel=1e-12)
    assert ca == pytest.approx(fv, rel=1e-9)


def test_comparison_chromatic_beats_taylor_off_center(rng):
    samples = rng.uniform(-1.0, 1.0, 65)
    f = ShannonCombo(samples, first_index=-32)
    rows = taylor_vs_chromatic_comparison("legendre", f, 0.0, 15, [-1.0, 1.0])
    for _, fv, ca, ty in rows:
        assert abs(ca - fv) < abs(ty - fv)


def test_identity_exponential_residual_decreases():
    tab = table_for("legendre", 40)
    residuals = [identity_exponential("legendre", 1.5, 1.0, N, tab) for N in (10, 20, 40)]
    # N = 20 and 40 are both at the rounding floor, in either order
    assert residuals[0] > residuals[1]
    assert residuals[1] < 1e-14 and residuals[2] < 1e-14
    assert residuals[2] < 1e-10


def test_identity_translation_other_families():
    for fam in ("chebyshev_u", "hermite"):
        tab = table_for(fam, 40, 160)
        assert identity_translation(fam, 0.3, 0.5, 40, tab) < 1e-8


def test_identity_exponential_matches_classical_hermite():
    # e^{i w z} = sum_n H_n(w)/n! (iz/2)^n e^{-z^2/4}
    omega, z, N = 1.3, 0.8, 30
    tab = table_for("hermite", N, 140)
    assert identity_exponential("hermite", omega, z, N, tab) <= 1e-10
    H = np.zeros(N + 1)
    H[0], H[1] = 1.0, 2.0 * omega
    for n in range(1, N):
        H[n + 1] = 2.0 * omega * H[n] - 2.0 * n * H[n - 1]
    fac = np.array([math.factorial(n) for n in range(N + 1)], dtype=float)
    classical = np.sum(H / fac * (1j * z / 2.0) ** np.arange(N + 1)) * np.exp(-z * z / 4.0)
    assert abs(classical - np.exp(1j * omega * z)) < 1e-10


def test_approximation_sizes_its_own_table():
    # |z - u| = 5 needs a wider table than the default 2N + 32 columns
    f, u, N, z = Sinc(), 0.3, 15, 5.3
    res = chromatic_approximation("legendre", f, u=u, N=N, z=z)
    jet = f.chromatic_jet("legendre", u, N)
    ref = sum((-1) ** k * jet[k] * kbasis_closed("legendre", k, z - u) for k in range(N + 1))
    assert abs(res.value - ref) < 1e-10


@pytest.mark.parametrize("family,R", [
    ("legendre", 3.0), ("chebyshev_t", 2.0), ("hermite", 2.0), ("laguerre", 0.2), ("herron", 0.3),
])
def test_array_calls_match_per_point_calls(family, R):
    """One pass over all points equals one call per point within rounding."""
    N, z = 20, np.linspace(-R, R, 41)
    calls = [
        lambda x: error_envelope(family, N, x) ** 2,
        lambda x: identity_exponential(family, 1.1, x, N),
        lambda x: identity_translation(family, 0.1, 0.5 * x, N),
        lambda x: identity_constant_one(family, x, N),
        lambda x: abs(chromatic_approximation(family, Exponential(1.1), 0.0, N, x).value),
    ]
    for call in calls:
        whole = call(z)
        assert isinstance(whole, np.ndarray) and whole.shape == z.shape
        points = [call(float(x)) for x in z]
        assert all(isinstance(v, float) for v in points)
        assert np.abs(whole - points).max() < 1e-14


def test_array_tail_bound_matches_per_point_calls():
    f, u, N, z = Sinc(), 0.3, 15, np.linspace(-2.7, 3.3, 25)
    whole = chromatic_approximation("legendre", f, u, N, z)
    assert whole.value.shape == whole.tail_bound.shape == z.shape
    for x, v, tail in zip(z, whole.value, whole.tail_bound):
        point = chromatic_approximation("legendre", f, u, N, float(x))
        assert isinstance(point.value, complex) and isinstance(point.tail_bound, float)
        assert abs(point.value - v) < 1e-14 and abs(point.tail_bound - tail) < 1e-14


@pytest.mark.parametrize("family", ["chebyshev_t", "hermite", "jacobi(0.5,-0.25)"])
def test_shannon_combo_jets_in_every_family(rng, family):
    samples = rng.uniform(-1.0, 1.0, 17)
    f = ShannonCombo(samples, first_index=-8)
    for t in (0.0, 0.4, -1.3):
        ref = sum(s * Sinc().chromatic_jet(family, t - m, 12) for m, s in zip(range(-8, 9), samples))
        assert np.abs(f.chromatic_jet(family, t, 12) - ref).max() < 1e-12


@pytest.mark.parametrize("omega,u,N", [(1.3, 0.4, 12), (0.7, -1.0, 20)])
def test_base_class_derives_the_missing_jet(omega, u, N):
    """The base-class conversions reproduce the closed-form jets."""
    e = Exponential(omega)
    derived = FunctionSpec.taylor_jet(e, u, N + 1)
    assert np.abs(derived - e.taylor_jet(u, N + 1)).max() < 1e-13
    c = Cosine(omega)
    for family in ("legendre", "chebyshev_u", "hermite"):
        derived = FunctionSpec.chromatic_jet(c, family, u, N)
        assert np.abs(derived - c.chromatic_jet(family, u, N)).max() < 1e-13


def test_jet_function():
    u, N = 0.2, 20
    jet = Exponential(0.9).taylor_jet(u, N + 1)
    f = JetFunction(u, jet)
    z = np.array([0.1, 0.2, 0.45])
    np.testing.assert_allclose(f.value(z), Exponential(0.9).value(z), rtol=0, atol=1e-15)
    assert f.value(u) == jet[0]
    for family in ("legendre", "hermite"):
        ref = chromatic_jet_from_taylor(family, jet, 10)
        np.testing.assert_array_equal(f.chromatic_jet(family, u, 10), ref)
    with pytest.raises(ParameterError):
        f.chromatic_jet("legendre", u + 0.1, 10)
    with pytest.raises(ParameterError):
        f.taylor_jet(u, N + 2)


def test_a_function_stating_neither_jet_raises():
    class Bare(FunctionSpec):
        pass

    with pytest.raises(NotImplementedError):
        Bare().chromatic_jet("legendre", 0.0, 4)
    with pytest.raises(NotImplementedError):
        Bare().taylor_jet(0.0, 5)
    with pytest.raises(NotImplementedError):
        Bare().value(0.0)


def _taylor_per_point(f, u, N, grid):
    """The Taylor column as one sum per grid point."""
    tj = f.taylor_jet(u, N + 1)
    k = np.arange(N + 1)
    return np.array([np.sum(tj * (t - u) ** k) for t in np.asarray(grid, dtype=float)])


@pytest.mark.parametrize("family", ["legendre", "chebyshev_t", "hermite"])
def test_comparison_taylor_column_bitwise_per_point(rng, family):
    grid = np.arange(-1.5, 1.5001, 0.125)
    shannon = ShannonCombo(rng.uniform(-1.0, 1.0, 33), first_index=-16)
    for f in (Exponential(1.3), Cosine(0.7), Constant(2.0), Sinc(), shannon):
        for u in (0.0, 0.3):
            rows = taylor_vs_chromatic_comparison(family, f, u, 10, grid)
            taylor = np.array([row[3] for row in rows])
            np.testing.assert_array_equal(taylor, _taylor_per_point(f, u, 10, grid))


@pytest.mark.parametrize("length", [21, 22, 171, 172, 400])
def test_long_taylor_jets_match_mpmath(length):
    """Closed-form Taylor jets stay complex128 at every length and underflow
    to 0 where k! passes the float range, instead of overflowing."""
    mp = pytest.importorskip("mpmath")
    omega, u = 1.7, 0.4
    k = range(length)
    with mp.workdps(30):
        expo = [(1j * omega) ** j / mp.factorial(j) * mp.exp(1j * omega * u) for j in k]
        cos = [omega ** j * mp.cos(omega * u + j * mp.pi / 2) / mp.factorial(j) for j in k]
        sinc = [(-mp.pi ** 2) ** (j // 2) / mp.factorial(j + 1) if j % 2 == 0 else 0 for j in k]
    for f, u0, ref in ((Exponential(omega), u, expo), (Cosine(omega), u, cos), (Sinc(), 0.0, sinc)):
        got = f.taylor_jet(u0, length)
        assert got.dtype == np.complex128 and got.shape == (length,)
        want = np.array([complex(v) for v in ref])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("length", [16, 41])
def test_sinc_taylor_jet_at_zero_is_correctly_rounded(length):
    """About u = 0 the jet is the Legendre table's row 0, i^k pi^k / (k + 1)! rounded once
    from 80 bits: within an ulp of mpmath at every k, where a float64 running product drifts."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = [(-mp.pi ** 2) ** (j // 2) / mp.factorial(j + 1) if j % 2 == 0 else 0 for j in range(length)]
        got = Sinc().taylor_jet(0.0, length)
        assert (got.imag == 0.0).all() and (got.real[1::2] == 0.0).all()
        rel = max(abs((mp.mpf(g) - r) / r) for g, r in zip(got.real[::2], ref[::2]))
    assert rel <= np.finfo(float).eps


# ---------------------------------------------------------------------------
# sinc and Shannon jets in every family: K^n[sinc](t) = i^n int p_n e^{iwt} dmu_leg

EPS = np.finfo(float).eps
_PHASES = np.array([1.0, 1j, -1.0, -1j])


def _rows_80bit(family, N, x):
    """p_0..p_N at x by the recurrence, in 80-bit arithmetic."""
    gam, bet = gamma_beta_arrays(family, N, longdouble=True)
    P = np.empty((N + 1, x.size), dtype=np.longdouble)
    P[0], prev, g_prev = 1.0, 0.0, 1.0
    for k in range(N):
        P[k + 1] = ((x + bet[k]) * P[k] - g_prev * prev) / gam[k]
        prev, g_prev = P[k], gam[k]
    return P


@lru_cache(maxsize=None)
def _legendre_rule_80bit(M):
    """The M-point Gauss-Legendre rule in 80-bit arithmetic: the float64
    nodes polished by two Newton steps on p_M, Christoffel weights."""
    gam, _ = gamma_beta_arrays("legendre", M, longdouble=True)
    x = gauss_quadrature("legendre", M)[0].astype(np.longdouble)
    for _ in range(2):
        p, prev, dp, dprev, g_prev = np.ones_like(x), np.zeros_like(x), 0.0 * x, 0.0 * x, 1.0
        for k in range(M):
            p, prev, dp, dprev, g_prev = ((x * p - g_prev * prev) / gam[k], p,
                                          (p + x * dp - g_prev * dprev) / gam[k], dp, gam[k])
        x = x - p / dp
    return x, 1.0 / (_rows_80bit("legendre", M - 1, x) ** 2).sum(axis=0)


def _shannon_jets_80bit(family, N, offsets, samples):
    """i^n sum_j w_j p_n(x_j) sum_m s_m e^{i x_j (t - m)}, n <= N, for the float64
    offsets t - m, on the 160-point rule: exact for |t - m| <= 48 and N <= 60
    (its degree-259 remainder is below 1e-40), and it rounds near 1e-19.
    Also returns c_n = ||p_n||_{L^2(mu_leg)}."""
    x, w = _legendre_rule_80bit(160)
    P = _rows_80bit(family, N, x)
    arg = np.multiply.outer(x, np.asarray(offsets, dtype=np.longdouble))
    s = np.asarray(samples, dtype=np.longdouble)
    re, im = (P * w) @ (np.cos(arg) @ s), (P * w) @ (np.sin(arg) @ s)
    c = np.sqrt((P ** 2) @ w)
    return _PHASES[np.arange(N + 1) % 4] * (re.astype(float) + 1j * im.astype(float)), c.astype(float)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["legendre", "chebyshev_t", "chebyshev_u", "gegenbauer(1)",
                               "gegenbauer(0.25)", "jacobi(0.5,-0.25)", "jacobi(-0.5,2.0)",
                               "hermite", "herron"]),
       N=st.integers(0, 60), t=st.floats(-40.0, 40.0), first=st.integers(-4, 4),
       samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_sinc_and_shannon_jets_match_the_direct_gauss_legendre_product(family, N, t, first, samples):
    """Within the stated rounding bound (N + 1) eps c_n, with a factor 4 to spare."""
    ref, c = _shannon_jets_80bit(family, N, [t], [1.0])
    bound = 4 * (N + 1) * EPS * np.maximum(1.0, c)
    assert np.all(np.abs(Sinc().chromatic_jet(family, t, N) - ref) <= bound)
    f = ShannonCombo(np.array(samples), first_index=first)
    ref, _ = _shannon_jets_80bit(family, N, t - (first + np.arange(len(samples))), samples)
    assert np.all(np.abs(f.chromatic_jet(family, t, N) - ref) <= bound * max(1.0, np.abs(samples).sum()))


def _mp_shannon_jets(family, N, t, samples=(1.0,), first=0):
    """i^n int p_n(w) e^{iwt} sum_m s_m e^{-iw(first + m)} dw / (2 pi) over [-pi, pi],
    n <= N, on mpmath's 64-point Gauss-Legendre rule (its remainder is below 1e-40
    for N <= 40 and |t - m| <= 3), with p_n from the classical T_n and H_n."""
    X, W = mp.gauss_quadrature(64, "legendre")
    jets = []
    for x, wx in zip(X, W):
        w = mp.pi * x
        if family == "chebyshev_t":  # p_n = sqrt(2) T_n(w / pi), p_0 = 1
            T = [mp.mpf(1), x]
            for n in range(1, N):
                T.append(2 * x * T[n] - T[n - 1])
            p = [T[0]] + [mp.sqrt(2) * v for v in T[1:]]
        else:  # hermite: p_n = H_n(w) / sqrt(2^n n!)
            H = [mp.mpf(1), 2 * w]
            for n in range(1, N):
                H.append(2 * w * H[n] - 2 * n * H[n - 1])
            p = [v / mp.sqrt(2 ** n * mp.factorial(n)) for n, v in enumerate(H)]
        F = sum(s * mp.expj(w * (t - first - m)) for m, s in enumerate(samples))
        jets.append([wx * v * F / 2 for v in p])
    return np.array([complex(1j ** n * mp.fsum(row[n] for row in jets)) for n in range(N + 1)])


def test_chebyshev_t_sinc_jets_match_mpmath():
    """The Taylor-conversion route was off by 6e-12, 1.6e-7 and 9.7e-4 here."""
    with mp.workdps(30):
        ref = _mp_shannon_jets("chebyshev_t", 40, mp.mpf(1) / 2)
    for N in (15, 30, 40):
        got = Sinc().chromatic_jet("chebyshev_t", 0.5, N)
        assert np.abs(got - ref[: N + 1]).max() <= 4 * (N + 1) * EPS  # c_n <= 1 here


@pytest.mark.parametrize("family", ["chebyshev_t", "hermite"])
def test_local_norm_and_scalar_match_mpmath(rng, family):
    samples, t, N = rng.uniform(-1.0, 1.0, 5), 0.5, 40
    f, g = Sinc(), ShannonCombo(samples, first_index=-2)
    with mp.workdps(30):
        jf = _mp_shannon_jets(family, N, mp.mpf(1) / 2)
        jg = _mp_shannon_jets(family, N, mp.mpf(1) / 2, samples, -2)
    nf, ng = np.sum(np.abs(jf) ** 2), np.sum(np.abs(jg) ** 2)
    assert local_norm_sq(family, f, t, N) == pytest.approx(nf, rel=1e-13)
    assert local_norm_sq(family, g, t, N) == pytest.approx(ng, rel=1e-13)
    assert abs(local_scalar(family, f, g, t, N) - np.sum(jf * np.conj(jg))) <= 1e-13 * math.sqrt(nf * ng)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_constant_is_a_parameter_error(c):
    with pytest.raises(ParameterError, match="non-finite argument; c must be finite"):
        Constant(c)


@pytest.mark.parametrize("family", ["legendre", "chebyshev_t"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_sinc_argument_names_t(family, t):
    with pytest.raises(ParameterError, match="non-finite argument; t must be finite"):
        Sinc().chromatic_jet(family, t, 5)
    with pytest.raises(ParameterError, match="non-finite argument; t must be finite"):
        ShannonCombo(np.ones(3)).chromatic_jet(family, t, 5)
