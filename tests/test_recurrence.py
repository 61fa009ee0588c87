"""Every three-term-recurrence output against the scalar loops it replaced.

The ``*_loop`` functions below are the per-element loops that computed
p_0..p_N, grids of p_n, the products p_k(omega) p_k(sigma) and the
Christoffel weights before ``families.three_term`` took their place.
Each step does the same float64 operations in the same order, so every
output must be bitwise equal to theirs.  ``orthonormality_matrix`` is the
one exception: it now divides by sqrt(s * sum w) instead of multiplying
by sqrt(w), and is compared within ten machine epsilons.

That holds at a float argument through order 4096 (``families._HEAD``),
and at every order while fewer than ``_MIN_BLOCKS`` whole blocks of 64
orders lie past it: there the float loops run.  Past that, whole blocks
run as numpy lanes from the start states (p_{s-1}, p_s) = (1, -1) and
(1, 1), joined by one float loop over the blocks.  Those values are held
within c N eps times the running RMS of p of an 80-bit loop on the same
float64 coefficients, ``cd_diagonal`` within c N eps of that loop's
sum of p_k^2, relative, the end values behind ``cd_kernel`` equal the
full-array route to the bit, and ``sigma_sequence``'s two-argument rows
equal ``three_term`` at each.

``gamma_beta_ld_scalar`` and ``gamma_beta_arrays_loop`` are the per-order
80-bit formulas and loop that the blocked array expressions replaced, and
``derivative_loop`` is the numpy-scalar loop of the differentiated
recurrence that gives p'; on the float loops both must be matched bitwise,
signs of zero included.

``two_lane_cd_kernel``, ``full_jet_cd_diagonal`` and ``two_pass_sigma``
are the routes that ran ``three_term`` once per argument, or built every
p_n and p'_n, before the one-pass end-value and two-lane loops: values,
errors and error texts must be theirs.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chromex import (
    ChromexError,
    Exponential,
    NumericError,
    ParameterError,
    beta_sequence,
    cd_diagonal,
    cd_kernel,
    eval_all_p,
    eval_p_grid,
    gauss_quadrature,
    jacobi_matrix,
    nu_sequence,
    orthonormality_matrix,
    sigma_sequence,
)
from chromex.families import (
    _BLOCK,
    _COEFF_BLOCK,
    _HEAD,
    _LANES,
    _MIN_BLOCKS,
    PI_LD,
    family_spec,
    gamma_beta_arrays,
    recursion_coefficients,
    three_term,
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
        a = np.longdouble(spec.id.a)
        g = PI_LD / 2 * np.sqrt((nn + 1) * (nn + 2 * a) / ((nn + a) * (nn + a + 1)))
        return g, np.longdouble(0.0)
    if tag == "jacobi":
        a = np.longdouble(spec.id.a)
        b = np.longdouble(spec.id.b)
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


def derivative_loop(gam, bet, p, omega):
    N = gam.shape[0] - 1
    dvals = np.zeros(N + 1)
    dm1, d = 0.0, 0.0
    for n in range(N):
        gm1 = gam[n - 1] if n >= 1 else 1.0
        dn = (p[n] + (omega + bet[n]) * d - gm1 * dm1) / gam[n]
        dm1, d = d, dn
        dvals[n + 1] = d
    return dvals


def jet_loop_80(gam, bet, omega):
    """p and p' by derivative_loop's steps in 80-bit arithmetic on the float64
    coefficients, each order rounded to float64 once."""
    g, b = gam.astype(np.longdouble), bet.astype(np.longdouble)
    x, one = np.longdouble(omega), np.longdouble(1.0)
    p, d = np.empty(len(gam)), np.empty(len(gam))
    p[0], d[0] = 1.0, 0.0
    pm1, pc, dm1, dc, gm1 = 0 * one, one, 0 * one, 0 * one, one
    for j in range(len(gam) - 1):
        xb = x + b[j]
        dm1, dc = dc, (pc + xb * dc - gm1 * dm1) / g[j]
        pm1, pc = pc, (xb * pc - gm1 * pm1) / g[j]
        p[j + 1], d[j + 1], gm1 = pc, dc, g[j]
    return p, d


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
    (cd_diagonal, ("legendre", 300, 7.0)),  # every p_n finite, the CD products overflow
    (eval_p_grid, ("hermite", 3000, np.array([1.0, 40.0]))),
])
def test_overflow_raises_numeric_error(call, args):
    with pytest.raises(NumericError, match="smaller N or \\|omega\\|"):
        call(*args)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_eval_p_grid_matches_scalar_loop(family):
    for N, om in ((0, np.array([0.5])), (30, np.linspace(-3, 3, 17)), (120, np.linspace(-8, 8, 101))):
        gam, bet = gamma_beta_arrays(family, N)
        np.testing.assert_array_equal(eval_p_grid(family, N, om), poly_grid_loop(gam, bet, om))


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
    # gamma_N from recursion_coefficients rounds like the array entry
    for N in (0, 9, 200):
        gam, bet = gamma_beta_arrays(family, N + 1)
        p = eval_all_p(family, N + 1, 0.7)
        d = derivative_loop(gam, bet, p, 0.7)
        assert cd_diagonal(family, N, 0.7) == float(gam[N] * (d[N + 1] * p[N] - p[N + 1] * d[N]))


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


def full_jet_cd_diagonal(family, N, omega):
    p = eval_all_p(family, N + 1, omega)
    gam, bet = gamma_beta_arrays(family, N + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # p' may overflow where p does not
        d = derivative_loop(gam, bet, p, omega)
    (p, p1), (d, d1) = p[N:].tolist(), d[N:].tolist()
    return _checked(float(gam[N]) * (d1 * p - p1 * d), N + 1)


def two_pass_sigma(family, omega, sigma, N):
    gam, bet = gamma_beta_arrays(family, N)

    def lane(x, name):
        p = three_term(gam, bet, _finite_arg(x, name))
        if not (np.abs(p) <= 1e100).all():
            raise NumericError(GUARD)
        return p

    prods = lane(omega, "omega") * lane(sigma, "sigma")
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
    if N + 1 < SWITCH:  # past that cd_diagonal's p' runs in lanes: test_lanes_track_an_80_bit_loop bounds it
        assert _outcome(cd_diagonal, family, N, omega) == _outcome(full_jet_cd_diagonal, family, N, omega)
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
    (40.0, math.nan),  # omega's guard trips before sigma is checked
])
def test_one_pass_loops_raise_as_before(omega, sigma):
    _same_as_before("hermite", 3000, omega, sigma)
    with pytest.raises(ChromexError):
        sigma_sequence("hermite", omega, sigma, 0.0, 3000)


@pytest.mark.parametrize("call, limit", [
    (lambda N: cd_kernel("legendre", N, 1.0, 0.6), 3.6e6),
    (lambda N: cd_diagonal("legendre", N, 1.0), 3.6e6),
    (lambda N: sigma_sequence("legendre", 1.0, 0.6, 0.0, N), 9.6e6),
    (lambda N: nu_sequence("legendre", Exponential(1.0), 0.0, N), 6.8e6),
])
def test_one_pass_loops_peak_memory(call, limit):
    # gamma and beta alone take 3.2 MB at N = 2e5; the CD kernels hold no other
    # array of N, the cross sums no more than the two-pass route held (9.6 MB),
    # and nu, summed in place, no more than p and |p| beside them (8.0 MB before)
    call(10)  # the cached first coefficient block stays out of the count
    tracemalloc.start()
    try:
        call(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


# orders that end at, next to and one block past the head, all on the float loops
HEAD_EDGES = (_HEAD - 1, _HEAD, _HEAD + 1, _HEAD + _BLOCK)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_float_loops_are_bitwise_at_the_head(family):
    for i, N in enumerate(HEAD_EDGES):
        om, sg = ((0.4, 1.3), (1.3, 0.0))[i % 2]
        gam, bet = gamma_beta_arrays(family, N + 1)
        po, ps = poly_sequence_loop(gam, bet, om), poly_sequence_loop(gam, bet, sg)
        d = derivative_loop(gam, bet, po, om)
        assert_bitwise(eval_all_p(family, N, om), po[: N + 1])
        assert_bitwise(eval_all_p(family, N, sg), ps[: N + 1])
        assert cd_kernel(family, N, om, sg) == float(gam[N] * (po[N + 1] * ps[N] - ps[N + 1] * po[N]) / (om - sg))
        assert cd_diagonal(family, N, om) == float(gam[N] * (d[N + 1] * po[N] - po[N + 1] * d[N]))
        den = np.cumsum(1.0 / gam[: N + 1])
        # no |p| passes 1e100 here, so pair_products_loop is the plain products
        assert_bitwise(nu_sequence(family, Exponential(om), 0.0, N).values, np.cumsum(po[: N + 1] ** 2) / den)
        assert_bitwise(sigma_sequence(family, om, sg, 0.0, N).values,
                       np.abs(np.cumsum(po[: N + 1] * ps[: N + 1])) / den)


# (family, omega, c): legendre at +-3.1 is near the band edge +-pi and laguerre's step
# tends to a Jordan block, where the unit start basis (1, 0), (0, 1) would cancel; there
# the running sums of p^2 that nu divides moved by 22 and 21 times more.  At laguerre
# the float loop itself is off by 33 N eps times the running RMS of p.
LANE_CASES = [("legendre", 3.1, 1), ("legendre", -3.1, 1), ("legendre", 2.1, 1), ("laguerre", 1.7, 50),
              ("hermite", 2.3, 1), ("herron", 0.9, 1), ("jacobi(0.5,-0.25)", 1.1, 1), ("chebyshev_t", 2.5, 1)]


# the last order on the float loops, the first with lanes, lanes and a float tail,
# lanes in two chunks, and aim 1's largest power sum
SWITCH = _HEAD + _MIN_BLOCKS * _BLOCK
PAST_HEAD = (SWITCH - 2, SWITCH - 1, SWITCH + 37, _HEAD + _LANES * _BLOCK + 5, 200_000)


@pytest.mark.parametrize("family, omega, c", LANE_CASES)
def test_lanes_track_an_80_bit_loop(family, omega, c):
    """p within c N eps of the running RMS of p, the running sums of p^2 within
    c N eps / 100, relative, and cd_diagonal, whose order N + 1 runs in lanes
    from N = SWITCH - 1, within c N eps of those sums, relative."""
    N = 200_000
    gam, bet = gamma_beta_arrays(family, N)
    values = eval_all_p(family, N, omega)
    assert_bitwise(values, three_term(gam, bet, omega))
    p80, _ = jet_loop_80(gam, bet, omega)
    eps = np.finfo(float).eps
    rms = np.sqrt(np.cumsum(p80 * p80) / np.arange(1, N + 2))
    assert (np.abs(values - p80) <= c * N * eps * rms).all()
    sums = np.cumsum(p80 * p80)
    assert (np.abs(np.cumsum(values ** 2) - sums) <= c * N * eps / 100 * sums).all()
    for n in PAST_HEAD[1:]:
        assert abs(cd_diagonal(family, n, omega) - sums[n]) <= c * n * eps * sums[n]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_end_values_are_the_full_arrays_past_the_head(family):
    # cd_kernel and cd_diagonal run to order N + 1: at SWITCH - 2 the float loops, from SWITCH - 1 the lanes,
    # where only cd_kernel's ends are compared; sigma_sequence's pair rows, to order N, are checked against
    # three_term once per argument
    i = ALL_FAMILIES.index(family)
    for j, N in enumerate(PAST_HEAD):
        _same_as_before(family, N, *PAIRS[(i + j) % 4])


def test_magnitude_guard_trips_past_the_head():
    # legendre at omega = 3.143, just past the band edge pi: |p_n| first passes
    # 1e100 at n = 7653, on the float loop and, from N = 20000, on the lanes alike
    first = 7653
    assert first > _HEAD and (20_000 - _HEAD) // _BLOCK >= _MIN_BLOCKS
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
