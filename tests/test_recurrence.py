"""Every three-term-recurrence output against the scalar loops it replaced.

The ``*_loop`` functions below are the per-element loops that computed
p_0..p_N, grids of p_n, the products p_k(omega) p_k(sigma) and the
Christoffel weights before ``families.three_term`` took their place.
Each step does the same float64 operations in the same order, so every
output must be bitwise equal to theirs.  ``orthonormality_matrix`` is the
one exception: it now divides by sqrt(s * sum w) instead of multiplying
by sqrt(w), and is compared within ten machine epsilons.

That holds at a float argument through order 4159 (``SWITCH`` - 1): the
first block of 64 orders (``families._BLOCK``) runs on the float loops,
and so does every order while fewer than ``_MIN_BLOCKS`` whole blocks lie
past it.  Past that, whole blocks after the first run as numpy lanes
from the start states (p_{s-1}, p_s) = (1, -1) and (1, 1), joined by one
float loop over the blocks.  Those values are held
within c N eps times the running RMS of p of an 80-bit loop on the same
float64 coefficients, ``cd_diagonal`` within c N eps of that loop's
sum of p_k^2, relative, the end values behind ``cd_kernel`` equal the
full-array route to the bit, and ``sigma_sequence``'s two-argument rows
equal ``three_term`` at each.

``gamma_beta_ld_scalar`` and ``gamma_beta_arrays_loop`` are the per-order
80-bit formulas and loop that the blocked array expressions replaced;
they must be matched bitwise, signs of zero included.

``two_lane_cd_kernel``, ``direct_cd_diagonal`` and ``two_pass_sigma``
are the routes that ran ``three_term`` once per argument, or summed the
scalar loop's p_k^2, before the one-pass end-value and two-lane loops:
values, errors and error texts must be theirs.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chromex.families
from chromex import (
    ChromexError,
    Exponential,
    NumericError,
    ParameterError,
    beta_sequence,
    cd_diagonal,
    cd_kernel,
    eval_all_p,
    gauss_quadrature,
    jacobi_matrix,
    nu_sequence,
    orthonormality_matrix,
    sigma_sequence,
)
from chromex.families import (
    _BLOCK,
    _COEFF_BLOCK,
    _LANES,
    _MIN_BLOCKS,
    PI_LD,
    _gauss_pass,
    family_spec,
    gamma_beta_arrays,
    recursion_coefficients,
    three_term,
    three_term_ends,
    three_term_pair,
)

from conftest import ALL_FAMILIES


def poly_sequence_loop(gam, bet, omega):
    n = gam.shape[0]
    out = np.empty(n, dtype=np.float64)
    out[0] = 1.0
    pm1 = 0.0
    p = 1.0
    for j in range(n - 1):
        gm1 = gam[j - 1] if j >= 1 else 1.0
        pn = ((omega + bet[j]) * p - gm1 * pm1) / gam[j]
        pm1 = p
        p = pn
        out[j + 1] = p
    return out


def poly_grid_loop(gam, bet, omegas):
    n = gam.shape[0]
    m = omegas.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    out[0, :] = 1.0
    pm1 = np.zeros(m)
    p = np.ones(m)
    for j in range(n - 1):
        gm1 = gam[j - 1] if j >= 1 else 1.0
        pn = ((omegas + bet[j]) * p - gm1 * pm1) / gam[j]
        pm1 = p
        p = pn
        out[j + 1, :] = p
    return out


def pair_products_loop(gam, bet, om, sg):
    n = gam.shape[0]
    out = np.empty(n, dtype=np.float64)
    out[0] = 1.0
    pm1 = 0.0
    p = 1.0
    qm1 = 0.0
    q = 1.0
    for j in range(n - 1):
        gm1 = gam[j - 1] if j >= 1 else 1.0
        pn = ((om + bet[j]) * p - gm1 * pm1) / gam[j]
        qn = ((sg + bet[j]) * q - gm1 * qm1) / gam[j]
        pm1 = p
        p = pn
        qm1 = q
        q = qn
        if abs(p) > 1e100 or abs(q) > 1e100:
            out[j + 1 :] = np.nan  # the callers raise NumericError on a NaN
            return out
        out[j + 1] = p * q
    return out


def christoffel_weights_loop(gam, bet, nodes):
    nq = gam.shape[0]
    m = nodes.shape[0]
    w = np.empty(m, dtype=np.float64)
    for i in range(m):
        x = nodes[i]
        pm1 = 0.0
        p = 1.0
        s = 1.0
        scale = 0.0  # log10 of the factor taken out of s
        for j in range(nq - 1):
            gm1 = gam[j - 1] if j >= 1 else 1.0
            pn = ((x + bet[j]) * p - gm1 * pm1) / gam[j]
            pm1 = p
            p = pn
            if abs(p) > 1e140:
                p *= 1e-140
                pm1 *= 1e-140
                s = s * 1e-280 + p * p
                scale += 280.0
            else:
                s += p * p
        w[i] = 10.0 ** (-scale) / s if scale > 0 else 1.0 / s
    return w


def gamma_beta_ld_scalar(spec, n):
    tag = spec.tag
    nn = np.longdouble(n)
    if tag == "legendre":
        return PI_LD * (nn + 1) / np.sqrt(4 * (nn + 1) ** 2 - 1), np.longdouble(0.0)
    if tag == "chebyshev_t":
        g = PI_LD / np.sqrt(np.longdouble(2.0)) if n == 0 else PI_LD / 2
        return g, np.longdouble(0.0)
    if tag == "chebyshev_u":
        return PI_LD / 2, np.longdouble(0.0)
    if tag == "gegenbauer":
        a = np.longdouble(spec.a)
        g = PI_LD / 2 * np.sqrt((nn + 1) * (nn + 2 * a) / ((nn + a) * (nn + a + 1)))
        return g, np.longdouble(0.0)
    if tag == "jacobi":
        a = np.longdouble(spec.a)
        b = np.longdouble(spec.b)
        s = 2 * nn + a + b
        g = (
            2 * PI_LD / (s + 2)
            * np.sqrt((nn + 1) * (nn + a + 1) * (nn + b + 1) * (nn + a + b + 1)
                      / ((s + 1) * (s + 3)))
        )
        if n == 0:
            beta = PI_LD * (a - b) / (a + b + 2)
        else:
            beta = PI_LD * (a - b) * (a + b) / ((s + 2) * s)
        return g, beta
    if tag == "hermite":
        return np.sqrt((nn + 1) / 2), np.longdouble(0.0)
    if tag == "laguerre":
        return nn + 1, -(2 * nn + 1)
    assert tag == "herron"
    return nn + 1, np.longdouble(0.0)


def gamma_beta_arrays_loop(family, horizon):
    # the float64 path stored each of these 80-bit values with one
    # rounding, which astype(np.float64) repeats
    spec = family_spec(family)
    gam = np.empty(horizon + 1, dtype=np.longdouble)
    bet = np.empty(horizon + 1, dtype=np.longdouble)
    for n in range(horizon + 1):
        g, b = gamma_beta_ld_scalar(spec, n)
        gam[n] = g
        bet[n] = b
    return gam, bet


def loop_80(gam, bet, omega):
    """p_0..p_{len(gam)-1} by the scalar loop's steps in 80-bit arithmetic on the float64
    coefficients."""
    g, b = gam.astype(np.longdouble), bet.astype(np.longdouble)
    x, one = np.longdouble(omega), np.longdouble(1.0)
    p = np.empty(len(gam), dtype=np.longdouble)
    p[0] = 1.0
    pm1, pc, gm1 = 0 * one, one, one
    for j in range(len(gam) - 1):
        pm1, pc = pc, ((x + b[j]) * pc - gm1 * pm1) / g[j]
        p[j + 1], gm1 = pc, g[j]
    return p


def assert_bitwise(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # signs of zero


def _gauss_nodes(family, n):
    return np.linalg.eigvalsh(jacobi_matrix(family, n))


OMEGAS = (-2.7, 0.0, 0.4, 1.3, 3.9)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_eval_all_p_matches_scalar_loop(family):
    for N in (0, 1, 40, 300):
        gam, bet = gamma_beta_arrays(family, N)
        for om in OMEGAS:
            np.testing.assert_array_equal(eval_all_p(family, N, om),
                                          poly_sequence_loop(gam, bet, om))


# jacobi(0.3,-0.3) has a + b = 0, so its discarded n = 0 beta lane is 0/0
COEFF_FAMILIES = ALL_FAMILIES + ["gegenbauer(-0.3)", "jacobi(1.5,2.5)", "jacobi(0.3,-0.3)"]


@pytest.mark.parametrize("family", COEFF_FAMILIES)
def test_gamma_beta_arrays_match_scalar_loop(family):
    # an entry of the loop depends on n alone, so one long run covers every horizon
    want_g, want_b = gamma_beta_arrays_loop(family, 30000)
    for horizon in (0, 1, _COEFF_BLOCK - 1, _COEFF_BLOCK, _COEFF_BLOCK + 1, 30000):
        for longdouble, dt in ((True, np.longdouble), (False, np.float64)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                g, b = gamma_beta_arrays(family, horizon, longdouble=longdouble)
            assert_bitwise(g, want_g[: horizon + 1].astype(dt))
            assert_bitwise(b, want_b[: horizon + 1].astype(dt))


@pytest.mark.parametrize("family", COEFF_FAMILIES)
def test_recursion_coefficients_match_scalar_formulas(family):
    spec = family_spec(family)
    for n in (0, 1, 7, 1000):
        got = recursion_coefficients(family, n)
        want = tuple(float(v) for v in gamma_beta_ld_scalar(spec, n))
        assert got == want
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


@pytest.mark.parametrize("call, args", [
    (eval_all_p, ("hermite", 3000, 40.0)),
    (cd_kernel, ("hermite", 3000, 40.0, 1.0)),
    (cd_diagonal, ("hermite", 3000, 40.0)),
    (cd_diagonal, ("legendre", 300, 7.0)),  # every p_n finite, p_n^2 overflows
    (eval_all_p, ("hermite", 3000, np.array([1.0, 40.0]))),
])
def test_overflow_raises_numeric_error(call, args):
    with pytest.raises(NumericError, match="smaller N or \\|omega\\|"):
        call(*args)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_eval_p_grid_matches_scalar_loop(family):
    for N, om in ((0, np.array([0.5])), (30, np.linspace(-3, 3, 17)), (120, np.linspace(-8, 8, 101))):
        gam, bet = gamma_beta_arrays(family, N)
        np.testing.assert_array_equal(eval_all_p(family, N, om), poly_grid_loop(gam, bet, om))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cd_kernel_matches_scalar_loop(family):
    for N in (0, 7, 250):
        gam, bet = gamma_beta_arrays(family, N + 1)
        for om, sg in ((0.4, 1.3), (-2.7, 0.0)):
            po = poly_sequence_loop(gam, bet, om)
            ps = poly_sequence_loop(gam, bet, sg)
            old = float(gam[N] * (po[N + 1] * ps[N] - ps[N + 1] * po[N]) / (om - sg))
            assert cd_kernel(family, N, om, sg) == old


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cd_diagonal_matches_two_builds(family):
    # the sum's p_0..p_N are the first N + 1 rows of a build one order longer
    for N in (0, 9, 200):
        p = eval_all_p(family, N + 1, 0.7)
        assert cd_diagonal(family, N, 0.7) == float(p[: N + 1] @ p[: N + 1])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_power_sums_match_scalar_loop(family):
    for N, om, sg in ((500, 1.0, 2.0), (3000, 0.3, 0.18), (40, 1.3, -0.4)):
        gam, bet = gamma_beta_arrays(family, N + 1)
        den = np.cumsum(1.0 / gam)
        sq = pair_products_loop(gam, bet, om, om)
        cross = pair_products_loop(gam, bet, om, sg)[: N + 1]
        np.testing.assert_array_equal(nu_sequence(family, Exponential(om), 0.0, N).values,
                                      np.cumsum(sq[: N + 1]) / den[: N + 1])
        np.testing.assert_array_equal(sigma_sequence(family, om, sg, 0.0, N).values,
                                      np.abs(np.cumsum(cross)) / den[: N + 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # conditions not evidenced
            beta = beta_sequence(family, Exponential(om), 0.0, N).values
        np.testing.assert_array_equal(beta, gam[: N + 1] * (sq[:-1] + sq[1:]))


@pytest.mark.parametrize("family, omega", [("hermite", 40.0), ("laguerre", -50.0), ("legendre", 5.0)])
def test_magnitude_guard_trips_at_first_large_p(family, omega):
    gam, bet = gamma_beta_arrays(family, 400)
    first = int(np.flatnonzero(np.abs(poly_sequence_loop(gam, bet, omega)) > 1e100)[0])
    assert np.isnan(pair_products_loop(gam, bet, omega, omega)[first])
    nu_sequence(family, Exponential(omega), 0.0, first - 1)
    sigma_sequence(family, omega, 0.5, 0.0, first - 1)
    sigma_sequence(family, 0.5, omega, 0.0, first - 1)
    remedy = "guard tripped .*; use a smaller N or \\|omega\\|"
    with pytest.raises(NumericError, match=remedy):
        nu_sequence(family, Exponential(omega), 0.0, first)
    with pytest.raises(NumericError, match=remedy):
        sigma_sequence(family, omega, 0.5, 0.0, first)
    with pytest.raises(NumericError, match=remedy):
        sigma_sequence(family, 0.5, omega, 0.0, first)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_gauss_weights_match_scalar_loop(family):
    for n in (1, 2, 32, 64):
        gam, bet = gamma_beta_arrays(family, n - 1)
        nodes = _gauss_nodes(family, n)
        w = christoffel_weights_loop(gam, bet, nodes)
        got_nodes, got_w = gauss_quadrature(family, n)
        np.testing.assert_array_equal(got_nodes, nodes)
        np.testing.assert_array_equal(got_w, w / w.sum())


@pytest.mark.parametrize("family", ["hermite", "laguerre", "herron"])
def test_gauss_weights_match_scalar_loop_through_rescales(family):
    n = 404
    gam, bet = gamma_beta_arrays(family, n - 1)
    w = christoffel_weights_loop(gam, bet, _gauss_nodes(family, n))
    # without a rescale s <= n * 1e280, so every weight would exceed this
    assert w.min() < 1e-284
    np.testing.assert_array_equal(gauss_quadrature(family, n)[1], w / w.sum())


def gauss_pass_loop(family, n, nrows):
    """_gauss_pass as it was before its step ran in place: J from three np.diag matrices, a
    fresh array per operation, and the rescale mask formed and tested on every step."""
    gam, bet = gamma_beta_arrays(family, n - 1)
    J = np.diag(-bet)
    J += np.diag(gam[: n - 1], 1) + np.diag(gam[: n - 1], -1)
    nodes = np.linalg.eigvalsh(J)
    s = np.ones(n)
    E = np.zeros(n)
    rows = np.empty((nrows, n))
    rows[:1] = 1.0
    p_prev, p, g_prev = np.zeros(n), np.ones(n), 1.0
    for j, g, b in zip(range(1, n), memoryview(gam[:-1]), memoryview(bet)):
        p_prev, p = p, ((nodes + b) * p - g_prev * p_prev) / g
        g_prev = g
        big = np.abs(p) > 1e140
        if big.any():
            p[big] *= 1e-140
            p_prev[big] *= 1e-140
            rows[:j, big] *= 1e-140
            s[big] *= 1e-280
            E += big
        s += p * p
        if j < nrows:
            rows[j] = p
    w = 10.0 ** (-280.0 * E) / s
    total = w.sum()
    return nodes, w / total, rows / np.sqrt(s * total)


@pytest.mark.parametrize("family, n", [("hermite", 404), ("laguerre", 404), ("herron", 404), ("legendre", 64)])
def test_gauss_pass_matches_loop_through_rescales(family, n):
    # the rows orthonormality_matrix reads: an (N + 4)-point rule, rows n <= N
    got = _gauss_pass(family_spec(family), n, n - 3)
    want = gauss_pass_loop(family, n, n - 3)
    if family != "legendre":  # unrescaled, s <= n * 1e280 and no weight is below 1e-284
        assert want[1].min() < 1e-284
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_orthonormality_matches_old_route(family):
    N = 100
    nodes = _gauss_nodes(family, N + 4)
    gam, bet = gamma_beta_arrays(family, N + 3)
    w = christoffel_weights_loop(gam, bet, nodes)
    Q = poly_grid_loop(gam[: N + 1], bet[: N + 1], nodes) * np.sqrt(w / w.sum())[None, :]
    idx = np.arange(N + 1)
    phase = np.array([1.0, 1j, -1.0, -1j])[(3 * idx[:, None] + idx) % 4]  # (-1)^n i^(n+m)
    np.testing.assert_allclose(orthonormality_matrix(family, N), phase * (Q @ Q.T),
                               rtol=0, atol=10 * np.finfo(float).eps)


@pytest.mark.parametrize("family, N", [("hermite", 400), ("laguerre", 200), ("laguerre", 400),
                                       ("herron", 300), ("herron", 400)])
def test_orthonormality_at_large_order(family, N):
    # the Christoffel weight of the outer nodes underflows here; the
    # rescaled rows carry p_k sqrt(w) without forming it
    G = orthonormality_matrix(family, N)
    assert np.abs(G - np.eye(N + 1)).max() <= 1e-8


OVERFLOW = "p_n(omega), n <= {}, overflows float64; use a smaller N or |omega|"
GUARD = "polynomial magnitude guard tripped (|p| > 1e100); use a smaller N or |omega|"


def _checked(value, N):
    if not math.isfinite(value):
        raise NumericError(OVERFLOW.format(N))
    return value


def _finite_arg(x, name):
    if not math.isfinite(x):
        raise ParameterError(f"non-finite argument; {name} must be finite")
    return x


def two_lane_cd_kernel(family, N, omega, sigma):
    omega, sigma = _finite_arg(omega, "omega"), _finite_arg(sigma, "sigma")
    gam, bet = gamma_beta_arrays(family, N + 1)
    po, po1 = three_term(gam, bet, omega)[N:].tolist()
    ps, ps1 = three_term(gam, bet, sigma)[N:].tolist()
    return _checked(float(gam[N]) * (po1 * ps - ps1 * po) / (omega - sigma), N + 1)


def direct_cd_diagonal(family, N, omega):
    gam, bet = gamma_beta_arrays(family, N)
    with np.errstate(over="ignore", invalid="ignore"):  # p_n^2 may overflow where p_n does not
        po = poly_sequence_loop(gam, bet, _finite_arg(omega, "omega"))
        return _checked(float(po[: N + 1] @ po[: N + 1]), N)


def two_pass_sigma(family, omega, sigma, N):
    omega, sigma = _finite_arg(omega, "omega"), _finite_arg(sigma, "sigma")
    gam, bet = gamma_beta_arrays(family, N)

    def lane(x):
        p = three_term(gam, bet, x)
        if not (np.abs(p) <= 1e100).all():
            raise NumericError(GUARD)
        return p

    prods = lane(omega) * lane(sigma)
    return np.abs(np.cumsum(prods)) / np.cumsum(1.0 / gam)


def _outcome(call, *args):
    """The bits of what call returns, or the type and text of what it raises."""
    try:
        out = call(*args)
    except ChromexError as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(out, "values", out), dtype=float).tobytes()


def _same_as_before(family, N, omega, sigma):
    assert _outcome(cd_kernel, family, N, omega, sigma) == _outcome(two_lane_cd_kernel, family, N, omega, sigma)
    if N < SWITCH:  # past that cd_diagonal's p runs in lanes: test_lanes_track_an_80_bit_loop bounds it
        assert _outcome(cd_diagonal, family, N, omega) == _outcome(direct_cd_diagonal, family, N, omega)
    assert (_outcome(sigma_sequence, family, omega, sigma, 0.0, N)
            == _outcome(two_pass_sigma, family, omega, sigma, N))


# every argument as omega and as sigma
PAIRS = ((-2.7, 0.4), (0.4, 1.3), (1.3, 0.0), (0.0, -2.7))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_one_pass_loops_match_the_routes_they_replaced(family):
    # past N = 4096 the coefficients come in blocks
    for N in (0, 1, 2, 30, _COEFF_BLOCK - 1, _COEFF_BLOCK, _COEFF_BLOCK + 1):
        for omega, sigma in PAIRS:
            _same_as_before(family, N, omega, sigma)
    i = ALL_FAMILIES.index(family)
    for omega, sigma in (PAIRS[i % 4], PAIRS[(i + 1) % 4]):  # each pair in four families
        _same_as_before(family, 100_000, omega, sigma)


@pytest.mark.parametrize("omega, sigma", [
    (40.0, 1.0), (1.0, 40.0),  # hermite at N = 3000: the omega or the sigma lane overflows
    (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
    (40.0, math.nan),  # sigma is checked before omega's guard could trip
])
def test_one_pass_loops_raise_as_before(omega, sigma):
    _same_as_before("hermite", 3000, omega, sigma)
    with pytest.raises(ChromexError):
        sigma_sequence("hermite", omega, sigma, 0.0, 3000)


@pytest.mark.parametrize("call, limit", [
    (lambda N: cd_kernel("legendre", N, 1.0, 0.6), 3.6e6),
    (lambda N: cd_diagonal("legendre", N, 1.0), 4.8e6),
    (lambda N: sigma_sequence("legendre", 1.0, 0.6, 0.0, N), 9.6e6),
    (lambda N: nu_sequence("legendre", Exponential(1.0), 0.0, N), 6.8e6),
])
def test_one_pass_loops_peak_memory(call, limit, monkeypatch):
    # the coefficient store grows to N = 2e5 inside the count, whatever earlier tests left in it: gamma takes
    # 1.6 MB, legendre's +0.0 betas none; cd_kernel holds no other array of N, cd_diagonal its sum's p (1.6 MB)
    # and, while the lanes run, one chunk's store of them (1042 blocks of 64 orders and 2 lanes, 1.07 MB),
    # with 0.5 MB for the lanes' smaller buffers, the cross sums no more than the two-pass route held (9.6 MB),
    # and nu, summed in place, no more than p and |p| beside them
    monkeypatch.setattr(chromex.families, "_COEFF_STORE", {})
    call(10)  # the store's first block stays out of the count
    tracemalloc.start()
    try:
        call(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


# the first N whose recurrence runs in lanes: _MIN_BLOCKS whole blocks past the first block
SWITCH = _BLOCK + _MIN_BLOCKS * _BLOCK
# orders that end at, next to and one past the first block, and the last two before the switch,
# all on the float loops
HEAD_EDGES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, SWITCH - 2, SWITCH - 1)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_float_loops_are_bitwise_at_the_head(family):
    """Below the switch every float-argument entry point runs the float loops alone, so its bits are
    the scalar loops': rows and sums to N = SWITCH - 1, and the calls that run to order N + 1
    (cd_kernel, beta_sequence) to N = SWITCH - 2."""
    for i, N in enumerate(HEAD_EDGES):
        om, sg = ((0.4, 1.3), (1.3, 0.0))[i % 2]
        gam, bet = gamma_beta_arrays(family, N + 1)
        po, ps = poly_sequence_loop(gam, bet, om), poly_sequence_loop(gam, bet, sg)
        assert_bitwise(eval_all_p(family, N, om), po[: N + 1])
        assert_bitwise(eval_all_p(family, N, sg), ps[: N + 1])
        den = np.cumsum(1.0 / gam[: N + 1])
        # no |p| passes 1e100 here, so pair_products_loop is the plain products
        assert_bitwise(nu_sequence(family, Exponential(om), 0.0, N).values, np.cumsum(po[: N + 1] ** 2) / den)
        assert_bitwise(sigma_sequence(family, om, sg, 0.0, N).values,
                       np.abs(np.cumsum(po[: N + 1] * ps[: N + 1])) / den)
        assert cd_diagonal(family, N, om) == float(po[: N + 1] @ po[: N + 1])
        if N + 1 == SWITCH:
            continue
        assert cd_kernel(family, N, om, sg) == float(gam[N] * (po[N + 1] * ps[N] - ps[N + 1] * po[N]) / (om - sg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # conditions not evidenced
            beta = beta_sequence(family, Exponential(om), 0.0, N).values
        assert_bitwise(beta, gam[: N + 1] * (po[: N + 1] ** 2 + po[1:] ** 2))


@pytest.mark.parametrize("call", [
    lambda N: eval_all_p("legendre", N, 1.0),
    lambda N: sigma_sequence("legendre", 1.0, 0.6, 0.0, N),
    lambda N: cd_kernel("legendre", N, 1.0, 0.6),
    lambda N: cd_diagonal("legendre", N, 1.0),
], ids=["p", "pair", "ends", "diagonal"])
def test_long_calls_run_at_most_two_blocks_on_the_float_loops(call, monkeypatch):
    """Only the first block and the last partial one run on a float loop; lanes run every order between."""
    counted = []

    def counting(steps):
        def run(gam, bet, xs, lo, hi, state, rows):
            counted.append(hi - lo)
            return steps(gam, bet, xs, lo, hi, state, rows)
        return run

    for name in ("_p_steps", "_pair_steps", "_ends_steps"):
        monkeypatch.setattr(chromex.families, name, counting(getattr(chromex.families, name)))
    # the last order 62 and 0 past a whole block; 63 and 1 for cd_kernel, which runs to N + 1
    for N in (200_000 - 2, 200_000):
        counted.clear()
        call(N)
        assert 0 < sum(counted) <= 2 * _BLOCK - 1


# (family, omega, c): legendre at +-3.1 is near the band edge +-pi and laguerre's step
# tends to a Jordan block, where the unit start basis (1, 0), (0, 1) would cancel; there
# the running sums of p^2 that nu divides moved by 22 and 21 times more.  At laguerre
# the float loop itself is off by 33 N eps times the running RMS of p.
LANE_CASES = [("legendre", 3.1, 1), ("legendre", -3.1, 1), ("legendre", 2.1, 1), ("laguerre", 1.7, 50),
              ("hermite", 2.3, 1), ("herron", 0.9, 1), ("jacobi(0.5,-0.25)", 1.1, 1), ("chebyshev_t", 2.5, 1)]


# the last order on the float loops, the first with lanes, lanes and a float tail, lanes in one
# chunk at one argument and two at two, lanes in two chunks at one argument and four at two
# (short of 200 000), and aim 1's largest power sum
PAST_HEAD = (SWITCH - 2, SWITCH - 1, SWITCH + 37, _BLOCK + _LANES * _BLOCK + 5,
             _BLOCK + 2 * _LANES * _BLOCK + 5, 200_000)


@pytest.mark.parametrize("family, omega, c", LANE_CASES)
def test_lanes_track_an_80_bit_loop(family, omega, c):
    """p within c N eps of the running RMS of p, the running sums of p^2 within
    c N eps / 100, relative, and cd_diagonal, whose p runs in lanes from N = SWITCH,
    within c N eps of those sums, relative."""
    N = 200_000
    gam, bet = gamma_beta_arrays(family, N)
    values = eval_all_p(family, N, omega)
    assert_bitwise(values, three_term(gam, bet, omega))
    p80 = loop_80(gam, bet, omega).astype(np.float64)
    eps = np.finfo(float).eps
    rms = np.sqrt(np.cumsum(p80 * p80) / np.arange(1, N + 2))
    assert (np.abs(values - p80) <= c * N * eps * rms).all()
    sums = np.cumsum(p80 * p80)
    assert (np.abs(np.cumsum(values ** 2) - sums) <= c * N * eps / 100 * sums).all()
    for n in PAST_HEAD[1:]:
        assert abs(cd_diagonal(family, n, omega) - sums[n]) <= c * n * eps * sums[n]


# (family, c) of LANE_CASES, each swept over omega in [-3.1, 3.1] but laguerre, swept over [0.5, 3.1]: inside
# its support [0, inf) and away from the edge, where x + beta_n = x - (2n + 1) drops the low bits of x, so that
# at omega = -0.02 and N = 6000 the float loop's own sum is off by 129 N eps
SWEEP = sorted({(family, c) for family, _, c in LANE_CASES})


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(SWEEP), t=st.floats(0.0, 1.0), N=st.integers(0, 6000))
@example(case=("legendre", 1), t=1.0, N=SWITCH - 1)
@example(case=("legendre", 1), t=1.0, N=SWITCH)
@example(case=("laguerre", 50), t=0.5, N=6000)
def test_cd_diagonal_tracks_an_80_bit_sum(case, t, N):
    """cd_diagonal within c N eps of the 80-bit loop's sum of p_k^2, relative, on the float loop below
    SWITCH and in lanes from it; below 64 orders within c 64 eps, as the sum's own roundings and the
    band edge's growth exceed N eps there (legendre at omega = 3.1, N = 11: 17 eps)."""
    (family, c), eps = case, np.finfo(float).eps
    lo, hi = (0.5, 3.1) if family == "laguerre" else (-3.1, 3.1)
    omega = lo + t * (hi - lo)
    gam, bet = gamma_beta_arrays(family, N)
    p80 = loop_80(gam, bet, omega)
    want = np.sum(p80 * p80)
    assert abs(cd_diagonal(family, N, omega) - want) <= c * max(N, 64) * eps * want


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_end_values_are_the_full_arrays_past_the_head(family):
    # cd_kernel runs to order N + 1: at SWITCH - 2 the float loops, from SWITCH - 1 the lanes, where its ends
    # are compared; cd_diagonal is compared on the float loops alone, to N = SWITCH - 1, and sigma_sequence's
    # pair rows, to order N, are checked against three_term once per argument
    i = ALL_FAMILIES.index(family)
    for j, N in enumerate(PAST_HEAD):
        _same_as_before(family, N, *PAIRS[(i + j) % 4])


def test_magnitude_guard_trips_past_the_head():
    # legendre at omega = 3.143, just past the band edge pi: |p_n| first passes
    # 1e100 at n = 7653, on the scalar loop, at N = 7653 on the float loop's tail and from N = 20000
    # in lanes alike
    first = 7653
    assert first >= SWITCH
    gam, bet = gamma_beta_arrays("legendre", 20_000)
    assert np.flatnonzero(np.abs(poly_sequence_loop(gam[: first + 1], bet, 3.143)) > 1e100).tolist() == [first]
    assert np.flatnonzero(np.abs(three_term(gam, bet, 3.143)) > 1e100)[0] == first
    nu_sequence("legendre", Exponential(3.143), 0.0, first - 1)
    sigma_sequence("legendre", 3.143, 0.5, 0.0, first - 1)
    for N in (first, 20_000, 200_000):
        for call, args in ((nu_sequence, (Exponential(3.143), 0.0, N)), (sigma_sequence, (3.143, 0.5, 0.0, N)),
                           (sigma_sequence, (0.5, 3.143, 0.0, N))):
            with pytest.raises(NumericError) as exc:
                call("legendre", *args)
            assert str(exc.value) == GUARD


@pytest.mark.parametrize("family, x, y", [("legendre", 3.1, -0.6), ("laguerre", 1.7, 0.4), ("herron", 0.9, 2.0)])
def test_lanes_do_not_depend_on_the_chunk_size(family, x, y, monkeypatch):
    """Every lane entry point gives the same bits however many blocks a chunk runs
    (about _LANES at one x): each block has its own lanes, and the join walks the blocks in order."""
    def run(lanes, N):
        monkeypatch.setattr(chromex.families, "_LANES", lanes)
        gam, bet = gamma_beta_arrays(family, N)
        outs = (three_term(gam, bet, x), *three_term_pair(gam, bet, x, y), np.array(three_term_ends(gam, bet, x, y)))
        return [a.tobytes() for a in outs]

    # one block per chunk, 29 chunks of 7 or 6 blocks at one x, the former default and the default
    N = _BLOCK + 200 * _BLOCK + 37
    default = run(_LANES, N)
    for lanes in (1, 7, 256):
        assert run(lanes, N) == default
    N = 150_000
    assert (N - _BLOCK) // _BLOCK > 2 * _LANES  # the default runs two chunks at one x here, five at two
    assert run(256, N) == run(_LANES, N)
    # the whole blocks split into near-equal chunks: at N = 200 000 not 1024 + 1024 + 1024 + 52
    sizes, lanes = [], chromex.families._lanes
    monkeypatch.setattr(chromex.families, "_lanes", lambda *args: sizes.append(args[4]) or lanes(*args))
    three_term(*gamma_beta_arrays(family, 200_000), x)
    assert sizes == [1041, 1041, 1042]
