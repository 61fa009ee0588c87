import math
import tracemalloc

import numpy as np
import pytest

from chromex import (
    ChromexError,
    Constant,
    HorizonError,
    NumericError,
    ParameterError,
    build_table,
    chromatic_jet_from_taylor,
    compose_at_zero,
    conversion_matrices,
    orthonormality_matrix,
    table_for,
    taylor_from_chromatic_jet,
)
from chromex.chromatic_core import ChromaticTable, _i_pow
from chromex.families import (
    family_spec,
    gamma_beta_arrays,
    moment_analytic,
    moment_over_factorial_ld,
)
from conftest import ALL_FAMILIES


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_phases_are_exact_at_high_order(family):
    """i^(n+m) G[n, m] on the diagonal is real; 1j ** k rounds from k = 100 on."""
    for n in (60, 150):
        assert compose_at_zero(family, n, n).imag == 0.0
    assert np.all(np.diag(orthonormality_matrix(family, 150)).imag == 0.0)


def build_table_recurrence(family, N, K):
    """The table by the operator recurrence across rows: an oracle for
    build_table (Jacobi-matrix powers) that loses relative accuracy in the
    small near-diagonal entries beyond order ~25.  Its last column omits
    the missing K + 1 column's term, so row n is reliable through column
    K - n only."""
    spec = family_spec(family)
    b = np.zeros((N + 1, K + 1), dtype=np.clongdouble)
    b[0, :] = moment_over_factorial_ld(spec, K) * _i_pow(np.arange(K + 1))
    gam, bet = gamma_beta_arrays(spec, N, longdouble=True)
    for n in range(N):
        gm1 = gam[n - 1] if n >= 1 else np.longdouble(1.0)
        lo = n + 1
        prev = b[n - 1, lo:K] if n >= 1 else 0.0
        ks = np.arange(lo + 1, K + 1, dtype=np.longdouble)
        b[n + 1, lo:K] = (ks * b[n, lo + 1 : K + 1] + 1j * bet[n] * b[n, lo:K] + gm1 * prev) / gam[n]
        prev_last = b[n - 1, K] if n >= 1 else 0.0
        b[n + 1, K] = (1j * bet[n] * b[n, K] + gm1 * prev_last) / gam[n]
    return ChromaticTable(spec.id, N, K, b.astype(np.complex128))


def compose_at_zero_from_tables(table, matrices, n, m):
    """The literal change-of-basis sum sum_k k2d[n][k] k! b[m][k]: an
    oracle for compose_at_zero, ill-conditioned beyond n + m around 25."""
    if n > matrices.N or m > table.N:
        raise HorizonError("table/matrix horizon too small")
    if n + m > table.K:
        raise HorizonError("table needs K >= n + m for a reliable row")
    return complex(np.sum(matrices.k2d_scaled[n, : n + 1] * table.b[m, : n + 1]))


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


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_columns_do_not_depend_on_K(family):
    """A wider table only appends columns, so every stored column is usable."""
    narrow = build_table(family, 20, 60).b
    for K in (61, 100, 200):
        assert narrow.tobytes() == build_table(family, 20, K).b[:, :61].tobytes()


def test_conversion_matrices_read_a_square_table():
    """d2k_scaled, read off the (N+1)-square table, is the signed transpose of a wide table's corner."""
    for family in ALL_FAMILIES:
        for N in (20, 99):
            corner = build_table(family, N, 2 * N + 32).b[:, : N + 1]
            wide = corner.T * np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
            assert conversion_matrices(family, N).d2k_scaled.tobytes() == wide.tobytes()


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
    phases = np.multiply.outer(_i_pow(np.arange(N + 1)), _i_pow(np.arange(K + 1)))
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



def _build_table_one_product(family, N, K):
    """build_table before its columns were staged: every column kept in one
    (K + 1) x (N + 1) 80-bit array, each step run on all levels, and the
    phases applied by one product over the whole table."""
    spec = family_spec(family)
    dim = (K + N) // 2 + 2
    gam, bet = gamma_beta_arrays(spec, dim, longdouble=True)
    diag = -bet[:dim]
    off = gam[: dim - 1]
    row_sums = np.abs(diag)
    row_sums[:-1] += off
    row_sums[1:] += off
    jnorm = row_sums.max()
    rawT = np.zeros((K + 1, N + 1), dtype=np.longdouble)
    v = np.zeros(dim, dtype=np.longdouble)
    v[0] = 1.0
    rawT[0, 0] = 1.0
    kend = K + 1
    for k in range(1, K + 1):
        if k >= jnorm and np.abs(v).max() < np.longdouble(2.0) ** -1100:
            kend = k
            break
        w = diag * v
        w[:-1] += off * v[1:]
        w[1:] += off * v[:-1]
        v = w / np.longdouble(k)
        rawT[k, : min(k, N) + 1] = v[: min(k, N) + 1]
    phases = np.multiply.outer(_i_pow(np.arange(N + 1)), _i_pow(np.arange(kend)))
    b = np.zeros((N + 1, K + 1), dtype=np.complex128)
    b[:, :kend] = phases * rawT[:kend].T
    return b


# K < 64 (one partial block); K + 1 columns landing on, one before and one after
# a multiple of 64 (laguerre and herron run to K, the rest up to column 128);
# K past the underflow stop (the families on [-pi, pi] and hermite end near 225-300);
# N > 64, where a later block again holds columns shorter than N + 1
@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("N,K", [(0, 0), (5, 10), (20, 63), (30, 126), (30, 127), (30, 128), (40, 1000), (100, 300)])
def test_staged_build_matches_one_product(family, N, K):
    got = build_table(family, N, K).b
    assert got.flags.c_contiguous
    assert got.tobytes() == _build_table_one_product(family, N, K).tobytes()


def test_staged_build_matches_one_product_past_float64():
    # laguerre 500 stores 25 entries as inf in both builds (ROADMAP item 10)
    with np.errstate(over="ignore"):
        got = build_table("laguerre", 500, 1032).b
        ref = _build_table_one_product("laguerre", 500, 1032)
    assert (~np.isfinite(got)).sum() == 25
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("family, K, limit", [("laguerre", 1032, 12e6), ("legendre", None, 12e6)])
def test_build_table_peak_memory(family, K, limit):
    # both complex128 tables are 501 x 1033, 8.3 MB; the build holds 64 staged 80-bit
    # columns beside it, where one (K + 1) x (N + 1) 80-bit array and its clongdouble
    # product took the peak to 41.9 (laguerre) and 22.7 MB (legendre, which stops near column 225)
    build_table(family, 5)  # the cached first coefficient block stays out of the count
    tracemalloc.start()
    try:
        with np.errstate(over="ignore"):
            build_table(family, 500, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the build returns infinite entries behind a RuntimeWarning")
def test_table_past_float64_is_an_error():
    with np.errstate(over="ignore"), pytest.raises(ChromexError):
        build_table("laguerre", 500, 1032)

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
    mats = conversion_matrices(family, 60)
    kfac = np.array([math.factorial(k) for k in range(61)], dtype=float)
    assert np.all(np.abs(t.b[:, :61]) * kfac ** (1 - p) <= (M + 1) ** (2 * np.arange(61)) + 1e-12)
    bound = (3 * M) ** np.arange(61)[:, None]
    assert np.all(np.abs(mats.k2d) * kfac[None, :] ** p <= bound + 1e-12)


def test_conversion_past_order_170_raises_instead_of_nan():
    """k2d[n][k] k! overflows float64 from about n = 187 on [-pi, pi]: the
    matrices build without a warning, and the conversion that would use
    the infinite entries raises instead of returning NaN."""
    mats = conversion_matrices("legendre", 200)
    assert np.isfinite(mats.k2d).all() and not np.isfinite(mats.k2d_scaled).all()
    with pytest.raises(NumericError, match="N=200"):
        chromatic_jet_from_taylor("legendre", np.r_[1.0, np.zeros(200)], 200)


def test_conversion_matrix_entries():
    mats = conversion_matrices("legendre", 6)
    assert mats.k2d[0, 0] == 1.0
    assert mats.d2k_scaled[0, 0] == 1.0
    assert mats.k2d[1, 1] == pytest.approx(math.sqrt(3) / math.pi, rel=1e-14)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_scaled_basis_change_product(family):
    # laguerre entries are exact integers that exceed the float53 range
    # beyond order ~30; the identity is exact below that
    N = 30 if family == "laguerre" else 40
    mats = conversion_matrices(family, N)
    P = mats.d2k_scaled @ mats.k2d_scaled
    assert np.abs(P - np.eye(N + 1)).max() < 1e-9


def test_jet_round_trip_exponential_type(rng):
    """Random order-30 jets of exponential type survive the round trip."""
    N = 30
    k = np.arange(N + 1)
    fac = np.array([math.factorial(j) for j in k], dtype=float)
    for _ in range(5):
        coeff = (rng.uniform(-1, 1, N + 1) + 1j * rng.uniform(-1, 1, N + 1))
        coeff = coeff * math.pi ** k / fac
        cjet = chromatic_jet_from_taylor("legendre", coeff, N)
        back = taylor_from_chromatic_jet("legendre", cjet, N)
        assert np.abs(back - coeff).max() < 1e-9


def test_exponential_jet_example():
    # K^1[e^{i pi z}](0) = i p_1(pi) = i sqrt(3) for legendre
    N = 6
    k = np.arange(N + 1)
    fac = np.array([math.factorial(j) for j in k], dtype=float)
    cjet = chromatic_jet_from_taylor("legendre", (1j * math.pi) ** k / fac, N)
    assert cjet[1] == pytest.approx(1j * math.sqrt(3), rel=1e-12)


def test_monomial_jet_example():
    # f(z) = z: K^1[f](0) = sqrt(3)/pi, K^0[f](0) = 0
    coeff = np.zeros(4, dtype=complex)
    coeff[1] = 1.0
    cjet = chromatic_jet_from_taylor("legendre", coeff, 3)
    assert cjet[0] == 0.0
    assert cjet[1] == pytest.approx(math.sqrt(3) / math.pi, rel=1e-13)


def test_constant_jet_round_trip():
    coeff = np.zeros(9, dtype=complex)
    coeff[0] = 1.0
    cjet = chromatic_jet_from_taylor("hermite", coeff, 8)
    assert cjet[0] == 1.0
    assert np.abs(cjet[1::2]).max() == 0.0
    back = taylor_from_chromatic_jet("hermite", cjet, 8)
    assert back[0] == pytest.approx(1.0, rel=1e-13)
    assert np.abs(back[1:]).max() < 1e-13


def test_jet_length_guards():
    with pytest.raises(HorizonError):
        chromatic_jet_from_taylor("legendre", np.zeros(4, dtype=complex), 10)
    with pytest.raises(HorizonError):
        taylor_from_chromatic_jet("legendre", np.zeros(4, dtype=complex), 10)
    with pytest.raises(ParameterError, match="N must be nonnegative"):
        conversion_matrices("legendre", -1)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_operator_orthonormality(family):
    G = orthonormality_matrix(family, 40)
    assert np.abs(G - np.eye(41)).max() < 1e-8


def test_compose_examples():
    assert compose_at_zero("legendre", 5, 5) == pytest.approx(-1.0, abs=1e-9)
    assert abs(compose_at_zero("legendre", 0, 3)) < 1e-9
    assert compose_at_zero("hermite", 2, 2) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ParameterError):
        compose_at_zero("legendre", -1, 0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_compose_table_route_agrees_at_low_order(family):
    t = build_table(family, 12, 56)
    mats = conversion_matrices(family, 12)
    for n in range(13):
        for m in range(13):
            a = compose_at_zero(family, n, m)
            b = compose_at_zero_from_tables(t, mats, n, m)
            assert abs(a - b) < 1e-9


def test_compose_table_route_horizon_guard():
    t = build_table("legendre", 6, 10)
    mats = conversion_matrices("legendre", 6)
    with pytest.raises(HorizonError):
        compose_at_zero_from_tables(t, mats, 6, 6)


def test_gegenbauer_one_table_matches_chebyshev_u():
    t1 = build_table("gegenbauer(1)", 16, 64)
    t2 = build_table("chebyshev_u", 16, 64)
    assert np.abs(t1.b - t2.b).max() < 1e-15 * np.abs(t2.b).max()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_constant_jet_is_column_zero_of_k2d(family):
    """K^n[1](t) = i^n p_n(0) at any t, column 0 of k2d to rounding."""
    for N in (0, 1, 20, 60, 200):
        ref = conversion_matrices(family, N).k2d[:, 0]
        for t in (0.0, 2.5):
            assert np.abs(Constant().chromatic_jet(family, t, N) - ref).max() <= 2e-15
