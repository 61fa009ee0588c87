import math

import numpy as np
import pytest

from chromex import (
    HorizonError,
    ParameterError,
    TaylorJet,
    build_table,
    chromatic_jet_from_taylor,
    compose_at_zero,
    compose_at_zero_from_tables,
    conversion_matrices,
    orthonormality_matrix,
    table_for,
    taylor_from_chromatic_jet,
)
from chromex.chromatic_core import ChromaticJet, _phase_vector, build_table_recurrence
from chromex.families import family_spec, gamma_beta_arrays, moment_analytic
from conftest import ALL_FAMILIES


def test_table_base_entries():
    t = build_table("legendre", 8)
    assert t.b[0, 0] == 1.0
    assert t.b[1, 1] == pytest.approx(-math.pi / math.sqrt(3), rel=1e-14)
    assert t.b[3, 1] == 0.0


def test_table_row_zero_matches_moments():
    for fam in ("legendre", "chebyshev_u", "hermite", "laguerre", "herron"):
        t = build_table(fam, 4, 24)
        for k in range(25):
            expected = (1j) ** k * moment_analytic(fam, k) / math.factorial(k)
            assert t.b[0, k] == pytest.approx(expected, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_structural_zeros(family):
    t = build_table(family, 40)
    sub = np.tril(t.b[:, :41], -1)
    assert np.count_nonzero(sub) == 0


@pytest.mark.parametrize("family", [f for f in ALL_FAMILIES if f not in ("laguerre", "jacobi(0.5,-0.25)")])
def test_symmetric_tables_are_real(family):
    t = build_table(family, 40)
    assert np.abs(t.b.imag).max() <= 1e-12 * np.abs(t.b).max()


def test_table_requires_K_at_least_N():
    with pytest.raises(ParameterError):
        build_table("legendre", 10, 5)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_dual_route_table_agreement(family):
    """Jacobi-power and operator-recurrence builders agree at low orders.

    The recurrence route truncates its last column, so row n is only
    reliable through column K - n there; compare the common block.
    """
    t1 = build_table(family, 12, 56)
    t2 = build_table_recurrence(family, 12, 56)
    block1 = t1.b[:, : 56 - 12 + 1]
    block2 = t2.b[:, : 56 - 12 + 1]
    scale = np.abs(block1).max()
    assert np.abs(block1 - block2).max() < 1e-11 * scale


def _build_table_full_width(family, N, K):
    """The power iteration run through every column up to K: the reference
    for build_table, which stops once the remaining columns underflow."""
    spec = family_spec(family)
    dim = (K + N) // 2 + 2
    gam, bet = gamma_beta_arrays(spec, dim, longdouble=True)
    diag = -bet[:dim]
    off = gam[: dim - 1]
    raw = np.zeros((N + 1, K + 1), dtype=np.longdouble)
    v = np.zeros(dim, dtype=np.longdouble)
    v[0] = 1.0
    raw[0, 0] = 1.0
    for k in range(1, K + 1):
        w = diag * v
        w[:-1] += off * v[1:]
        w[1:] += off * v[:-1]
        v = w / np.longdouble(k)
        raw[: min(k, N) + 1, k] = v[: min(k, N) + 1]
    phases = np.multiply.outer(_phase_vector(N), _phase_vector(K))
    return (phases * raw).astype(np.complex128)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("N,K", [(36, 1428), (500, 1032), (21, 544), (21, 120)])
def test_build_table_matches_full_width_loop(family, N, K):
    # laguerre's entries C(k, n) pass the float64 range at N = 500 and are
    # stored as inf by both builds
    with np.errstate(over="ignore"):
        got = build_table(family, N, K).b
        ref = _build_table_full_width(family, N, K)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    nonzero = ref != 0
    assert got[nonzero].tobytes() == ref[nonzero].tobytes()


def test_table_for_shares_one_table_per_key():
    t = table_for("legendre", 5, 14)
    assert table_for(family_spec("legendre"), 5, 14) is t
    assert table_for("legendre", 5) is table_for("legendre", 5, 42)
    assert table_for("legendre", 5, 15) is not t
    assert table_for("chebyshev_u", 5, 14) is not t


def test_cached_table_is_read_only():
    t = table_for("jacobi(0.5,-0.25)", 6, 20)
    with pytest.raises(ValueError):
        t.b[0, 0] = 2.0
    # build_table hands each caller its own writable table
    build_table("jacobi(0.5,-0.25)", 6, 20).b[0, 0] = 2.0
    assert t.b[0, 0] == 1.0


@pytest.mark.parametrize(
    "family,M,p", [("legendre", 2.0, 0.0), ("hermite", 2.0, 0.5)]
)
def test_lemma_bound_inequalities(family, M, p):
    t = build_table(family, 60, 152)
    mats = conversion_matrices(family, 60, t)
    kfac = np.array([math.factorial(k) for k in range(61)], dtype=float)
    assert np.all(np.abs(t.b[:, :61]) * kfac ** (1 - p) <= (M + 1) ** (2 * np.arange(61)) + 1e-12)
    bound = (3 * M) ** np.arange(61)[:, None]
    assert np.all(np.abs(mats.k2d) * kfac[None, :] ** p <= bound + 1e-12)


def test_conversion_matrix_entries():
    mats = conversion_matrices("legendre", 6)
    assert mats.k2d[0, 0] == 1.0
    assert mats.d2k[0, 0] == 1.0
    assert mats.k2d[1, 1] == pytest.approx(math.sqrt(3) / math.pi, rel=1e-14)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_scaled_basis_change_product(family):
    # laguerre entries are exact integers that exceed the float53 range
    # beyond order ~30; the identity is exact below that
    N = 30 if family == "laguerre" else 40
    t = build_table(family, N)
    mats = conversion_matrices(family, N, t)
    P = mats.d2k_scaled @ mats.k2d_scaled
    assert np.abs(P - np.eye(N + 1)).max() < 1e-9


def test_jet_round_trip_exponential_type(rng):
    """Random order-30 jets of exponential type survive the round trip."""
    N = 30
    mats = conversion_matrices("legendre", N)
    k = np.arange(N + 1)
    fac = np.array([math.factorial(j) for j in k], dtype=float)
    for _ in range(5):
        coeff = (rng.uniform(-1, 1, N + 1) + 1j * rng.uniform(-1, 1, N + 1))
        coeff = coeff * math.pi ** k / fac
        jet = TaylorJet(0.0, coeff)
        cjet = chromatic_jet_from_taylor("legendre", jet, N, mats)
        back = taylor_from_chromatic_jet("legendre", cjet, N, mats)
        assert np.abs(back.coefficients - coeff).max() < 1e-9


def test_exponential_jet_example():
    # K^1[e^{i pi z}](0) = i p_1(pi) = i sqrt(3) for legendre
    N = 6
    k = np.arange(N + 1)
    fac = np.array([math.factorial(j) for j in k], dtype=float)
    jet = TaylorJet(0.0, (1j * math.pi) ** k / fac)
    cjet = chromatic_jet_from_taylor("legendre", jet, N)
    assert cjet.values[1] == pytest.approx(1j * math.sqrt(3), rel=1e-12)


def test_monomial_jet_example():
    # f(z) = z: K^1[f](0) = sqrt(3)/pi, K^0[f](0) = 0
    coeff = np.zeros(4, dtype=complex)
    coeff[1] = 1.0
    cjet = chromatic_jet_from_taylor("legendre", TaylorJet(0.0, coeff), 3)
    assert cjet.values[0] == 0.0
    assert cjet.values[1] == pytest.approx(math.sqrt(3) / math.pi, rel=1e-13)


def test_constant_jet_round_trip():
    coeff = np.zeros(9, dtype=complex)
    coeff[0] = 1.0
    cjet = chromatic_jet_from_taylor("hermite", TaylorJet(0.0, coeff), 8)
    assert cjet.values[0] == 1.0
    assert np.abs(cjet.values[1::2]).max() == 0.0
    back = taylor_from_chromatic_jet("hermite", cjet, 8)
    assert back.coefficients[0] == pytest.approx(1.0, rel=1e-13)
    assert np.abs(back.coefficients[1:]).max() < 1e-13


def test_jet_length_guards():
    jet = TaylorJet(0.0, np.zeros(4, dtype=complex))
    with pytest.raises(HorizonError):
        chromatic_jet_from_taylor("legendre", jet, 10)
    cjet = ChromaticJet(None, 0.0, np.zeros(4, dtype=complex))
    with pytest.raises(HorizonError):
        taylor_from_chromatic_jet("legendre", cjet, 10)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_operator_orthonormality(family):
    G = orthonormality_matrix(family, 40)
    assert np.abs(G - np.eye(41)).max() < 1e-8


def test_compose_examples():
    assert compose_at_zero("legendre", 5, 5) == pytest.approx(-1.0, abs=1e-9)
    assert abs(compose_at_zero("legendre", 0, 3)) < 1e-9
    assert compose_at_zero("hermite", 2, 2) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_compose_table_route_agrees_at_low_order(family):
    t = build_table(family, 12, 56)
    mats = conversion_matrices(family, 12, t)
    for n in range(13):
        for m in range(13):
            a = compose_at_zero(family, n, m)
            b = compose_at_zero_from_tables(t, mats, n, m)
            assert abs(a - b) < 1e-9


def test_compose_table_route_horizon_guard():
    t = build_table("legendre", 6, 10)
    mats = conversion_matrices("legendre", 6, t)
    with pytest.raises(HorizonError):
        compose_at_zero_from_tables(t, mats, 6, 6)


def test_gegenbauer_one_table_matches_chebyshev_u():
    t1 = build_table("gegenbauer(1)", 16, 64)
    t2 = build_table("chebyshev_u", 16, 64)
    assert np.abs(t1.b - t2.b).max() < 1e-15 * np.abs(t2.b).max()
