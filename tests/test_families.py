import importlib
import math
import re
import warnings

import numpy as np
import pytest

import chromex
from chromex import (
    ChromexError,
    Constant,
    Cosine,
    Exponential,
    FamilyId,
    FirFilter,
    JetFunction,
    NumericError,
    ParameterError,
    ShannonCombo,
    Sinc,
    build_table,
    cd_diagonal,
    cd_kernel,
    chebyshev_exponential_norm,
    check_conditions,
    chromatic_jet_from_taylor,
    conversion_matrices,
    design_ls,
    error_envelope,
    euler_numbers,
    eval_all_p,
    family_spec,
    gauss_quadrature,
    jacobi_matrix,
    kbasis_rows,
    local_norm_sq,
    moment_analytic,
    moment_jacobi_matrix,
    nu_sequence,
    orthonormality_matrix,
    parse_family,
    recursion_coefficients,
    sigma_sequence,
    taylor_from_chromatic_jet,
    taylor_vs_chromatic_comparison,
    transfer_function,
)
from chromex.basis_functions import _gauss_rows, _gauss_size, _miller
from chromex.families import (_COEFF_BLOCK, _gamma_beta_ld, _gauss_nodes, gamma_beta_arrays,
                              moment_over_factorial_ld, three_term)
from conftest import ALL_FAMILIES, CLOSED_MOMENT_FAMILIES
from test_recurrence import OMEGAS, assert_bitwise


def test_recursion_coefficient_values():
    g, b = recursion_coefficients("legendre", 0)
    assert g == pytest.approx(math.pi / math.sqrt(3), abs=1e-15)
    assert b == 0.0
    g, b = recursion_coefficients("laguerre", 2)
    assert (g, b) == (3.0, -5.0)
    g, b = recursion_coefficients("hermite", 3)
    assert g == pytest.approx(math.sqrt(2), abs=1e-15)
    assert b == 0.0


def test_chebyshev_gammas():
    assert recursion_coefficients("chebyshev_t", 0)[0] == pytest.approx(math.pi / math.sqrt(2))
    assert recursion_coefficients("chebyshev_t", 5)[0] == pytest.approx(math.pi / 2)
    assert recursion_coefficients("chebyshev_u", 0)[0] == pytest.approx(math.pi / 2)


def test_parameter_domains():
    with pytest.raises(ParameterError):
        FamilyId("gegenbauer", a=0.0)
    with pytest.raises(ParameterError):
        FamilyId("gegenbauer", a=-0.6)
    with pytest.raises(ParameterError):
        FamilyId("jacobi", a=-1.0, b=0.0)
    with pytest.raises(ParameterError):
        FamilyId("legendre", a=1.0)
    # an infinite parameter once gave recursion_coefficients("gegenbauer(inf)", 0) = (nan, 0.0)
    # and a failed Jacobi matrix eigendecomposition for jacobi(0.5,inf)
    for text in ("gegenbauer(inf)", "jacobi(0.5,inf)", "jacobi(inf,0.5)"):
        with pytest.raises(ParameterError, match="requires (a )?finite"):
            recursion_coefficients(text, 0)
    for text in ("nosuchfamily", "jacobi(0.5", "jacobi(a,b)", "gegenbauer(1,2)"):
        with pytest.raises(ParameterError):
            parse_family(text)
    with pytest.raises(ParameterError):
        recursion_coefficients("legendre", -1)
    with pytest.raises(ParameterError):
        jacobi_matrix("legendre", 0)
    with pytest.raises(ParameterError):
        moment_over_factorial_ld("legendre", -1)


def test_family_string_round_trip():
    for text in ALL_FAMILIES:
        assert str(parse_family(text)) == text
    assert str(parse_family("JACOBI( 0.5 , -0.25 )")) == "jacobi(0.5,-0.25)"


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_gamma_positive(family):
    for n in range(201):
        assert recursion_coefficients(family, n)[0] > 0


@pytest.mark.parametrize(
    "family,M,p",
    [("legendre", 2.0, 0.0), ("chebyshev_t", 4.0, 0.0), ("chebyshev_u", 4.0, 0.0),
     ("hermite", 2.0, 0.5)],
)
def test_weak_boundedness_pinch(family, M, p):
    for n in range(201):
        g, b = recursion_coefficients(family, n)
        lo = (n + 1) ** p / M
        hi = M * (n + 1) ** p
        assert lo <= g <= hi
        assert abs(b) <= M * g


def test_symmetry_metadata():
    for fam in ALL_FAMILIES:
        spec = family_spec(fam)
        expected = spec.tag != "laguerre" and spec.tag != "jacobi"
        assert spec.symmetric == expected
        if spec.symmetric:
            assert recursion_coefficients(fam, 7)[1] == 0.0


# the last k with a finite mu_k; the next even k overflows float64
LAST_FINITE_MOMENT = {"legendre": 624, "chebyshev_t": 622, "chebyshev_u": 628,
                      "hermite": 342, "laguerre": 170, "herron": 186}


def mu_mpmath(family, k):
    """mu_k of a closed-moment family at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        if family == "laguerre":
            return mp.factorial(k)
        if k % 2:
            return mp.mpf(0)
        n = k // 2
        if family == "hermite":
            return mp.fac2(k - 1) / mp.mpf(2) ** n
        if family == "herron":
            return abs(mp.mpf(euler_numbers(k)[k]))
        if family == "legendre":
            return mp.pi ** k / (k + 1)
        mu = mp.pi ** k * mp.binomial(k, n) / mp.mpf(4) ** n
        return mu / (n + 1) if family == "chebyshev_u" else mu


def assert_correct_moment(got, want):
    """got within 2.5e-16 relative of the mpmath value want; exactly +0.0 where want is 0."""
    assert isinstance(got, float)
    if want == 0:
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    else:
        assert abs(got - want) <= 2.5e-16 * abs(want), (got, want)


def test_moment_analytic_values():
    assert moment_analytic("legendre", 0) == 1.0
    assert moment_analytic("legendre", 2) == pytest.approx(math.pi ** 2 / 3, rel=1e-15)
    assert moment_analytic("laguerre", 3) == 6.0
    assert moment_analytic("legendre", 7) == 0.0
    assert moment_analytic("hermite", 4) == pytest.approx(0.75, rel=1e-15)
    assert moment_analytic("herron", 4) == 5.0  # |E_4|
    # pi^k C(k, k/2) overflowed from k = 388; mu_400 = pi^400 prod_j (1 - 1/(2j)) is ~1e197
    mu = math.pi ** 400 * math.prod(1 - 0.5 / j for j in range(1, 201))
    assert moment_analytic("chebyshev_t", 400) == pytest.approx(mu, rel=1e-13)
    assert math.isfinite(moment_analytic("chebyshev_u", 620))
    # pi^k itself overflows from k = 621; these mu_k are 40-digit mpmath's
    for family, k, mu in (("legendre", 622, 2.7085245045757175e306), ("legendre", 624, 2.664652276163226e307),
                          ("chebyshev_t", 622, 5.396238415157916e307), ("chebyshev_u", 628, 1.6390675409550534e308)):
        assert moment_analytic(family, k) == pytest.approx(mu, rel=2.5e-16)


@pytest.mark.parametrize("family, k", [
    ("legendre", 626), ("chebyshev_t", 624), ("chebyshev_u", 630), ("laguerre", 171),
    ("herron", 188), ("hermite", 344), ("gegenbauer(1)", 640), ("jacobi(0.5,-0.25)", 700),
    ("legendre", 2000), ("laguerre", 2000), ("legendre", 2200), ("chebyshev_t", 2200), ("hermite", 3000),
])
def test_moments_past_float64_raise(family, k):
    """A bare OverflowError, or an inf with a RuntimeWarning, before; past k = 1754, where
    k! overflows 80-bit, a ValueError was the risk, and from legendre 2200, chebyshev_t 2200
    and hermite 3000 on, mu_k / k! underflows 80-bit to 0, which must not read as mu_k = 0."""
    routes = [moment_jacobi_matrix] if "(" in family else [moment_analytic, moment_jacobi_matrix]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for moment in routes:
            with pytest.raises(NumericError, match=f"mu_{k} of {re.escape(family)} overflows float64"):
                moment(family, k)


def test_moment_analytic_unsupported():
    with pytest.raises(ParameterError):
        moment_analytic("gegenbauer(1)", 2)
    with pytest.raises(ParameterError):
        moment_analytic("jacobi(0.5,-0.25)", 2)


def test_euler_numbers():
    E = euler_numbers(10)
    assert E[0] == 1 and E[2] == -1 and E[4] == 5 and E[6] == -61 and E[8] == 1385
    assert E[1] == E[3] == 0


def _euler_by_binomial_sums(nmax):
    """E_2n = -sum_{j<n} C(2n, 2j) E_2j: the recurrence the boustrophedon replaced."""
    E = [0] * (nmax + 1)
    E[0] = 1
    for n in range(1, nmax // 2 + 1):
        E[2 * n] = -sum(math.comb(2 * n, 2 * j) * E[2 * j] for j in range(n))
    return tuple(E)


def test_euler_numbers_match_the_binomial_recurrence():
    want = _euler_by_binomial_sums(300)
    for nmax in (0, 1, 2, 7, 300):
        assert euler_numbers(nmax) == want[: nmax + 1]


@pytest.mark.parametrize("k", [1500, 1600, 1700, 2000])
def test_herron_moment_over_factorial_past_float64s_normal_range(k):
    """Split unscaled into two float64 parts, |E_k| / k! lost digits once the low part went
    subnormal (k = 1548), and read 0 from k = 1652; float64's least subnormal is passed at 1660."""
    mp = pytest.importorskip("mpmath")
    got = moment_over_factorial_ld("herron", k)[k]
    num, den = got.as_integer_ratio()
    with mp.workdps(40):
        want = abs(mp.eulernum(k)) / mp.factorial(k)
        assert abs(mp.mpf(num) / den - want) <= np.finfo(np.longdouble).eps * want


def test_moment_jacobi_matrix_basics():
    for fam in ALL_FAMILIES:
        assert moment_jacobi_matrix(fam, 0) == 1.0
    assert moment_jacobi_matrix("legendre", 2) == pytest.approx(math.pi ** 2 / 3, rel=1e-13)
    assert moment_jacobi_matrix("laguerre", 1) == pytest.approx(1.0, rel=1e-13)
    # odd moments of symmetric measures are exact zeros, also where the old
    # matrix power overflowed (hermite 513, herron 257) and past 80-bit's k! (2001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam, k in (("hermite", 513), ("herron", 257), ("hermite", 2001)):
            assert_correct_moment(moment_jacobi_matrix(fam, k), 0)
            assert_correct_moment(moment_analytic(fam, k), 0)


@pytest.mark.parametrize("family", CLOSED_MOMENT_FAMILIES)
def test_moment_oracles_agree(family):
    """Both routes within 2.5e-16 of mpmath up to the last finite mu_k (2.4e-14
    and 8.2e-15 off once, from float64 pi^k and the float64 matrix power)."""
    last = LAST_FINITE_MOMENT[family]
    for k in sorted({*range(61), *range(61, last, 7), last - 1, last}):
        want = mu_mpmath(family, k)
        assert_correct_moment(moment_analytic(family, k), want)
        assert_correct_moment(moment_jacobi_matrix(family, k), want)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_quadrature_weights_sum_one(family):
    for n in (1, 5, 20):
        _, w = gauss_quadrature(family, n)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)


def test_quadrature_low_moments():
    nodes, w = gauss_quadrature("legendre", 20)
    assert np.sum(w * nodes ** 2) == pytest.approx(math.pi ** 2 / 3, abs=1e-12)
    nodes, w = gauss_quadrature("hermite", 20)
    assert np.sum(w * nodes ** 4) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", [10, 30])
def test_quadrature_reproduces_moments(family, n):
    nodes, w = gauss_quadrature(family, n)
    for k in range(2 * n):
        mu = moment_jacobi_matrix(family, k)
        q = float(np.sum(w * nodes ** k))
        if mu == 0.0:
            assert abs(q) <= 1e-10 * np.sum(w * np.abs(nodes) ** k)
        else:
            assert abs(q - mu) / abs(mu) < 1e-10


def test_quadrature_rejects_bad_order():
    with pytest.raises(ParameterError):
        gauss_quadrature("legendre", 0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("N", [3, 40, 150])
def test_gauss_rules_are_the_same_bytes_from_a_cleared_or_a_warm_node_store(family, N):
    # orthonormality_matrix(f, N) and gauss_quadrature(f, N + 4) share one (N + 4)-point rule: each
    # call goes first on a cleared store once, then both run again on the warm store
    got = []
    for quadrature_first in (False, True):
        _gauss_nodes.cache_clear()
        for _ in range(2):
            if quadrature_first:
                (nodes, w), G = gauss_quadrature(family, N + 4), orthonormality_matrix(family, N)
            else:
                G, (nodes, w) = orthonormality_matrix(family, N), gauss_quadrature(family, N + 4)
            got.append((nodes, w, G))
    for nodes, w, G in got:
        assert_bitwise(nodes, np.linalg.eigvalsh(jacobi_matrix(family, N + 4)))
        assert_bitwise(w, got[0][1])
        assert G.shape == (N + 1, N + 1) and G.tobytes() == got[0][2].tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("z", [np.linspace(-5.0, 5.0, 21), np.linspace(-4.0, 4.0, 17) + 0.25j])
def test_kbasis_rows_are_the_same_bytes_from_a_cleared_or_a_warm_node_store(family, z):
    # rows 0..10 and 0..20 keep 16 and 32 rows of one 32-point rule: two _gauss_rows keys, one node key
    spec = family_spec(family)
    absz, imz = float(np.abs(z).max()), float(np.abs(z.imag).max())
    assert _gauss_size(spec, 10, absz, imz) == _gauss_size(spec, 20, absz, imz) == 32
    got = {10: [], 20: []}
    for clear_nodes in (True, False, False):
        if clear_nodes:
            _gauss_nodes.cache_clear()
        for hi in (10, 20, 10):
            _gauss_rows.cache_clear()  # each call runs its Gauss pass, on the stored nodes or fresh ones
            got[hi].append(kbasis_rows(family, 0, hi, z))
    for rows in got.values():
        assert len({r.tobytes() for r in rows}) == 1


def test_stored_gauss_nodes_are_read_only_and_quadrature_returns_a_copy():
    spec = family_spec("hermite")
    want = np.linalg.eigvalsh(jacobi_matrix(spec, 24))
    stored = _gauss_nodes(spec, 24)
    assert _gauss_nodes.cache_info().maxsize >= 64
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 0.0
    nodes, w = gauss_quadrature(spec, 24)
    want_w = w.copy()
    nodes[:] = w[:] = -1.0  # both are the caller's own arrays
    again, w_again = gauss_quadrature(spec, 24)
    assert_bitwise(again, want)
    assert_bitwise(w_again, want_w)
    assert_bitwise(stored, want)


def test_gegenbauer_one_equals_chebyshev_u():
    # C_n^(1) are the Chebyshev polynomials of the second kind
    for n in range(40):
        g1, b1 = recursion_coefficients("gegenbauer(1)", n)
        g2, b2 = recursion_coefficients("chebyshev_u", n)
        assert g1 == pytest.approx(g2, rel=1e-14)
        assert b1 == b2 == 0.0
    for k in range(301):
        assert_correct_moment(moment_jacobi_matrix("gegenbauer(1)", k), mu_mpmath("chebyshev_u", k))


def test_jacobi_minus_half_equals_chebyshev_t():
    # a + b = -1: gamma_0's printed form is 0/0 there, and its cancelled form
    # must give chebyshev_t's pi/sqrt(2)
    g1, b1 = gamma_beta_arrays("jacobi(-0.5,-0.5)", 50)
    g2, b2 = gamma_beta_arrays("chebyshev_t", 50)
    assert np.all(np.abs(g1 - g2) <= 2 * np.spacing(g2))
    np.testing.assert_array_equal(b1, b2)
    for fam in ("jacobi(-0.5,-0.5)", "jacobi(-0.25,-0.75)"):
        nodes, w = gauss_quadrature(fam, 40)
        assert np.isfinite(nodes).all() and np.isfinite(w).all()
        assert np.isfinite(build_table(fam, 12, 80).b).all()
    ref_nodes, ref_w = gauss_quadrature("chebyshev_t", 40)
    nodes, w = gauss_quadrature("jacobi(-0.5,-0.5)", 40)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-13)
    np.testing.assert_allclose(w, ref_w, rtol=1e-12)
    np.testing.assert_allclose(build_table("jacobi(-0.5,-0.5)", 12, 80).b,
                               build_table("chebyshev_t", 12, 80).b, rtol=0, atol=1e-14)


def test_jacobi_zero_zero_equals_legendre():
    for n in range(40):
        g1, b1 = recursion_coefficients("jacobi(0,0)", n)
        g2, _ = recursion_coefficients("legendre", n)
        assert g1 == pytest.approx(g2, rel=1e-13)
        assert abs(b1) < 1e-15
    for k in range(301):
        assert_correct_moment(moment_jacobi_matrix("jacobi(0,0)", k), mu_mpmath("legendre", k))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_three_term_float_path_matches_array_path(family):
    # Python floats through memoryviews at a float x, numpy rows at an
    # array x: the same values to the bit, signs of zero included
    for N in (0, 1, 300):
        gam, bet = gamma_beta_arrays(family, N)
        for om in OMEGAS + (-0.0,):
            got = three_term(gam, bet, om)
            want = three_term(gam, bet, np.array([om]))[:, 0]
            assert got.shape == (N + 1,) and got[0] == 1.0
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _gamma_beta_uncached(family, horizon, longdouble):
    # gamma_beta_arrays without its store: every block computed on each call, the last cut at the horizon
    spec = family_spec(family)
    dt = np.longdouble if longdouble else np.float64
    gam, bet = np.empty(horizon + 1, dtype=dt), np.empty(horizon + 1, dtype=dt)
    for lo in range(0, horizon + 1, _COEFF_BLOCK):
        nn = np.arange(lo, min(lo + _COEFF_BLOCK, horizon + 1), dtype=np.longdouble)
        gam[lo : lo + nn.size], bet[lo : lo + nn.size] = _gamma_beta_ld(spec, nn)
    return gam, bet


@pytest.fixture
def empty_store(monkeypatch):
    """The coefficient store empty for one test, the process's own kept aside."""
    monkeypatch.setattr(chromex.families, "_COEFF_STORE", {})


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cached_first_block_is_bitwise_noop(family, empty_store):
    # the store grows only on a rising horizon; falling ones are its prefixes, and every block is the same bits
    rising = (0, 1, 30, _COEFF_BLOCK - 1, _COEFF_BLOCK, _COEFF_BLOCK + 1, 10 ** 4)
    for horizon in rising + rising[::-1] + (3 * _COEFF_BLOCK + 7, 10 ** 4, 5 * _COEFF_BLOCK):
        for longdouble in (False, True):
            got = gamma_beta_arrays(family, horizon, longdouble=longdouble)
            want = _gamma_beta_uncached(family, horizon, longdouble)
            for g, w in zip(got, want):
                assert_bitwise(g, w)


@pytest.mark.parametrize("horizon", [30, _COEFF_BLOCK + 10])
def test_returned_coefficients_are_read_only(horizon):
    # jacobi(0.5,-0.25)'s betas are stored, legendre's +0.0 read with stride 0
    for family in ("jacobi(0.5,-0.25)", "legendre"):
        want = _gamma_beta_uncached(family, horizon, False)
        for a in gamma_beta_arrays(family, horizon):
            with pytest.raises(ValueError, match="read-only"):
                a[:] = -1.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            gamma_beta_arrays(family, horizon)[0].flags.writeable = True  # the store under the view is read-only
        for g, w in zip(gamma_beta_arrays(family, horizon), want):
            assert_bitwise(g, w)


@pytest.mark.parametrize("families", [("legendre", "jacobi(-0.5,-0.5)"), ("jacobi(-0.5,-0.5)", "legendre")])
def test_unstored_zero_betas_keep_the_sign_of_zero(families, empty_store):
    # jacobi(-0.5,-0.5)'s beta_n is -0.0 from n = 1: it must not become legendre's unstored +0.0, nor they it
    for longdouble in (False, True):
        for family in families + families[::-1]:
            for horizon in (30, 2 * _COEFF_BLOCK + 5):
                _, bet = gamma_beta_arrays(family, horizon, longdouble=longdouble)
                assert_bitwise(bet, _gamma_beta_uncached(family, horizon, longdouble)[1])
        _, bet = gamma_beta_arrays("jacobi(-0.5,-0.5)", 40, longdouble=longdouble)
        assert not bet.any() and np.signbit(bet[1:]).all() and not np.signbit(bet[0])
        _, zero = gamma_beta_arrays("legendre", 40, longdouble=longdouble)
        assert not np.signbit(zero).any() and zero.strides == (0,)


def test_store_keeps_the_16_last_used_families(empty_store):
    families = [family_spec(f"jacobi({k / 8},0.5)") for k in range(17)]
    for family in families[:16]:
        gamma_beta_arrays(family, 3)
    gamma_beta_arrays(families[0], 3)  # used again: the next family evicts families[1]
    gamma_beta_arrays(families[16], 3)
    store = chromex.families._COEFF_STORE
    assert len(store) == 16 and (families[1], np.float64) not in store
    assert {(f, np.float64) for f in families[:1] + families[2:]} == set(store)
    assert gamma_beta_arrays(families[0], 2)[0].base is gamma_beta_arrays(families[0], 3)[0].base  # one array


def test_family_spec_is_resolved_once_per_key():
    spec = family_spec("jacobi(0.5,-0.25)")
    assert family_spec("jacobi(0.5,-0.25)") is spec
    assert family_spec(FamilyId("jacobi", 0.5, -0.25)) == spec
    assert family_spec(spec) is spec
    with pytest.raises(ParameterError, match="unknown family tag"):
        family_spec("bogus")  # an error is not cached: it raises again
    with pytest.raises(ParameterError, match="unknown family tag"):
        family_spec("bogus")


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_negative_zero_parameter_is_plus_zero(first, empty_store):
    # -0.0 == 0.0 makes them one cache key, so neither spelling may change what the other gets
    parse_family.cache_clear()
    try:
        for a in (first, -first):
            spec = family_spec(FamilyId("jacobi", a, 0.0))
            assert str(spec) == str(family_spec(f"jacobi({a!r},-0.0)")) == "jacobi(0,0)"
            assert math.copysign(1.0, spec.a) == math.copysign(1.0, spec.b) == 1.0
            _, bet = gamma_beta_arrays(f"jacobi({a!r},0)", 3)
            assert not np.signbit(bet).any()
    finally:
        parse_family.cache_clear()


_FILTER = FirFilter(None, 0, 2, np.ones(5), 0.9 * math.pi, 0.98 * math.pi)
_Z = np.complex128(1 + 2j)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: eval_all_p("legendre", 2.5, 0.3), "N 2.5 is not", id="eval_all_p"),
    pytest.param(lambda: eval_all_p("legendre", True, 0.3), "N True is not", id="eval_all_p-bool"),
    pytest.param(lambda: jacobi_matrix("legendre", 2.5), "dimension 2.5 is not", id="jacobi_matrix"),
    pytest.param(lambda: conversion_matrices("legendre", 2.5), "N 2.5 is not", id="conversion_matrices"),
    pytest.param(lambda: gauss_quadrature("legendre", 4.0), "n 4.0 is not", id="gauss_quadrature"),
    pytest.param(lambda: kbasis_rows("legendre", 0, 2.0, 0.3), "hi 2.0 is not", id="kbasis_rows"),
    pytest.param(lambda: build_table("legendre", 3.0), "N 3.0 is not", id="build_table"),
    pytest.param(lambda: build_table("legendre", 3, 9.0), "K 9.0 is not", id="build_table-K"),
    pytest.param(lambda: orthonormality_matrix("legendre", 2.5), "N 2.5 is not", id="orthonormality_matrix"),
    pytest.param(lambda: chromatic_jet_from_taylor("legendre", np.ones(5), 2.5), "N 2.5 is not",
                 id="chromatic_jet_from_taylor"),
    pytest.param(lambda: check_conditions("hermite", 200.0), "horizon 200.0 is not", id="check_conditions"),
    pytest.param(lambda: design_ls("legendre", 2, 16.0), "half_width 16.0 is not", id="design_ls"),
    # a cast to float would refuse a Python complex, and drop a numpy one's imaginary part
    pytest.param(lambda: transfer_function(_FILTER, 1 + 2j), "omega must be real", id="transfer_function"),
    pytest.param(lambda: transfer_function(_FILTER, np.complex128(1 + 2j)), "omega must be real",
                 id="transfer_function-numpy-scalar"),
    pytest.param(lambda: transfer_function(_FILTER, np.array([0.5, 1 + 2j])), "omega must be real",
                 id="transfer_function-numpy-array"),
    # each of these casts once dropped a numpy complex's imaginary part, with only a ComplexWarning
    pytest.param(lambda: eval_all_p("legendre", 3, _Z), "omega must be real", id="eval_all_p-complex"),
    pytest.param(lambda: cd_kernel("legendre", 3, _Z, 0.5), "omega must be real", id="cd_kernel"),
    pytest.param(lambda: cd_diagonal("legendre", 3, _Z), "omega must be real", id="cd_diagonal"),
    pytest.param(lambda: nu_sequence("legendre", Exponential(_Z), 0.0, 3), "omega must be real",
                 id="nu_sequence"),
    pytest.param(lambda: sigma_sequence("legendre", 0.5, _Z, 0.0, 3), "sigma must be real", id="sigma_sequence"),
    pytest.param(lambda: error_envelope("legendre", 3, _Z), "t must be real", id="error_envelope"),
    pytest.param(lambda: Sinc().chromatic_jet("legendre", 0.3 + 1j, 3), "t must be real", id="sinc_jet"),
    pytest.param(lambda: _miller(True, 3, _Z, [3]), "x must be real", id="_miller"),
    pytest.param(lambda: chebyshev_exponential_norm(_Z, 10), "x must be real", id="chebyshev_exponential_norm"),
    pytest.param(lambda: design_ls("legendre", 2, 16, weight_ratio=10 + _Z), "weight_ratio must be real",
                 id="design_ls-weight_ratio"),
    pytest.param(lambda: taylor_vs_chromatic_comparison("legendre", Sinc(), 0.0, 3, [0.5, _Z]),
                 "grid must be real", id="taylor_vs_chromatic_comparison"),
    # a Python complex once reached an ordering comparison as a bare TypeError
    pytest.param(lambda: check_conditions("legendre", 200, 2 + 0j), "kappa must be real",
                 id="check_conditions-kappa"),
    pytest.param(lambda: design_ls("legendre", 1, 16, passband_edge=2.8 + 0j), "passband_edge must be real",
                 id="design_ls-passband_edge"),
    pytest.param(lambda: FirFilter(None, 0, 2, np.ones(5), 2.8, 3 + 0j), "stopband_edge must be real",
                 id="FirFilter-stopband_edge"),
    # chromatic_jet refused this omega, while the Taylor jet came back NaN
    pytest.param(lambda: Exponential(math.nan).taylor_jet(0.0, 3), "omega must be finite",
                 id="taylor_jet-exponential-nan"),
    # a non-finite center gave NaN jets and sums, or was never read
    pytest.param(lambda: Exponential(1.0).chromatic_jet("legendre", math.nan, 2), "t must be finite",
                 id="chromatic_jet-exponential-t-nan"),
    pytest.param(lambda: Exponential(1.0).chromatic_jet("legendre", math.inf, 2), "t must be finite",
                 id="chromatic_jet-exponential-t-inf"),
    pytest.param(lambda: Exponential(1.0).taylor_jet(math.nan, 3), "u must be finite",
                 id="taylor_jet-exponential-u-nan"),
    pytest.param(lambda: local_norm_sq("legendre", Exponential(1.0), math.nan, 5), "t must be finite",
                 id="local_norm_sq-t-nan"),
    pytest.param(lambda: nu_sequence("legendre", Exponential(1.0), math.nan, 5), "t must be finite",
                 id="nu_sequence-t-nan"),
    # the exponential fast path reads |p_k(omega)|^2, which is |K^k|^2 at real t only
    pytest.param(lambda: nu_sequence("legendre", Exponential(1.0), 1j, 5), "t must be real",
                 id="nu_sequence-t-complex"),
    pytest.param(lambda: sigma_sequence("legendre", 0.5, 1.0, math.nan, 5), "t must be finite",
                 id="sigma_sequence-t-nan"),
    # functions built from data, checked as Constant checks c
    pytest.param(lambda: ShannonCombo(np.array([math.nan, 1.0])), "samples must be finite",
                 id="ShannonCombo-samples"),
    pytest.param(lambda: ShannonCombo(np.ones(3), first_index=0.5), "first_index 0.5 is not",
                 id="ShannonCombo-first_index"),
    pytest.param(lambda: JetFunction(0.0, np.array([math.nan, 1.0])), "jet must be finite", id="JetFunction-jet"),
    # both conversions once returned NaN jets, the second behind a matmul RuntimeWarning
    pytest.param(lambda: chromatic_jet_from_taylor("legendre", [1, math.nan, 0], 2), "jet must be finite",
                 id="chromatic_jet_from_taylor-jet"),
    pytest.param(lambda: taylor_from_chromatic_jet("legendre", [1, math.inf, 0], 2), "cjet must be finite",
                 id="taylor_from_chromatic_jet-cjet"),
    pytest.param(lambda: JetFunction(complex(0.0, math.inf), np.ones(2)), "u must be finite",
                 id="JetFunction-u"),
    # sizes: a bare TypeError, a wrong label or an empty result before
    pytest.param(lambda: design_ls("legendre", 2, 16, grid_density=2.5), "grid_density 2.5 is not",
                 id="design_ls-grid_density"),
    pytest.param(lambda: design_ls("legendre", 2, 16, refine_iterations=1.5), "refine_iterations 1.5 is not",
                 id="design_ls-refine_iterations"),
    pytest.param(lambda: euler_numbers(-1), "nmax must be nonnegative", id="euler_numbers-negative"),
    pytest.param(lambda: euler_numbers(2.5), "nmax 2.5 is not", id="euler_numbers"),
    pytest.param(lambda: Exponential(1.0).taylor_jet(0.0, 2.5), "length 2.5 is not", id="taylor_jet-exponential"),
    pytest.param(lambda: Cosine(1.0).taylor_jet(0.0, -1), "length must be nonnegative", id="taylor_jet-cosine"),
    pytest.param(lambda: Constant(1.0).taylor_jet(0.0, 2.5), "length 2.5 is not", id="taylor_jet-constant"),
    pytest.param(lambda: JetFunction(0.0, np.ones(3)).taylor_jet(0.0, 2.5), "length 2.5 is not",
                 id="taylor_jet-jet_function"),
    pytest.param(lambda: Sinc().taylor_jet(0.0, 2.5), "length 2.5 is not", id="taylor_jet-sinc"),
])
def test_non_integer_order_or_non_real_omega_is_a_parameter_error(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("module, name", [
    ("basis_functions", "spherical_j"),
    ("basis_functions", "bessel_j"),
    ("basis_functions", "spherical_j_all"),
    ("basis_functions", "bessel_j_all"),
    ("chromatic_core", "compose_at_zero"),
    ("fir_design", "shannon_decay_report"),
])
def test_names_only_tests_called_are_gone(module, name):
    """_miller, orthonormality_matrix and kbasis_closed serve what these wrapped."""
    assert not hasattr(chromex, name)
    assert not hasattr(importlib.import_module(f"chromex.{module}"), name)


def test_two_error_classes():
    """A refusal names its arguments (ParameterError) or a value no route certifies (NumericError);
    the deleted series route's ConvergenceError folded into NumericError."""
    assert set(ChromexError.__subclasses__()) == {ParameterError, NumericError}
    assert not hasattr(chromex, "ConvergenceError")
    assert not hasattr(importlib.import_module("chromex.errors"), "ConvergenceError")


def test_numpy_integer_orders_are_integers():
    want = build_table("legendre", 3, 9).b
    np.testing.assert_array_equal(build_table("legendre", np.int64(3), np.int32(9)).b, want)
    assert_bitwise(eval_all_p("legendre", np.int8(4), 0.3), eval_all_p("legendre", 4, 0.3))
