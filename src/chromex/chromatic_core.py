"""Coefficient tables for the chromatic differential operators.

The central object is the table

    b[n][k] = (K^n o D^k)[m](0) / k!

holding the Taylor coefficients of the basis functions K^n[m](z).  Row 0
is i^k mu_k / k!; subsequent rows satisfy the operator recurrence

    K^{n+1} = (D o K^n + i beta_n K^n + gamma_{n-1} K^{n-1}) / gamma_n.

Construction: b[n][k] = i^(n+k) (J^k e_0)[n] / k!, where J is the Jacobi
matrix, evaluated by the scaled power iteration v_k = J v_{k-1} / k
(families._jacobi_powers, which moment_jacobi_matrix also runs).  The
entries of J^k e_0 are sums over lattice paths whose weights never change
sign (gamma_n > 0; the diagonal -beta_n is nonnegative or negligible for
every supported family), so each table entry is computed without
cancellation.  (Running the operator recurrence across rows instead
reproduces the same table but loses the tiny near-diagonal entries to
cancellation beyond order ~25; the test suite keeps it as an oracle.)
Entries with k < n, and with k - n odd for symmetric families, are exact
structural zeros.

Tables are built in 80-bit extended precision and stored as complex128,
which keeps every coefficient correctly rounded.  Step k updates only the
levels 0..min(k, dim - 1) that J^k e_0 lives on (dim = (K + N) / 2 + 2),
sum_k min(k + 1, dim) < K * dim updates in all, and the build holds the
complex128 output plus 64 staged 80-bit columns, landed in b 64 at a time.

Where the build stops: once k >= ||J||_inf (the largest absolute row sum
of the truncated Jacobi matrix), a step v <- J v / k can no longer grow
max|v|.  If max|v| is then also below 2^-1100, every later column rounds
to 0 in complex128 (whose smallest subnormal is 2^-1074), so the loop
stops and those columns are left as the zeros b was allocated with.
Whatever K is, this happens near column 225 for the families on
[-pi, pi] and near column 300 for hermite.  The laguerre and herron
recurrence coefficients grow linearly in n, so ||J||_inf > K and their
builds always run to column K.

table_for keeps recently built tables in memory, keyed on (family, N, K),
and shares each one read-only with every caller that asks for it again.

Column reliability: column k needs only the Jacobi matrix's first
(k + N) / 2 + 2 levels, which every K >= k includes, so a table's columns
do not depend on K (build_table(f, N, K).b equals the first K + 1 columns
of any wider table bit for bit) and every stored column is usable.
No evaluation route sums a table's columns, so the default K = 2N + 32
serves every caller that has no width of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HorizonError, NumericError, ParameterError
from .families import (
    FamilyId,
    _gauss_pass,
    _jacobi_powers,
    family_spec,
    gamma_beta_arrays,
    require_nonnegative,
)

# below 2^-1100 an entry rounds to 0 in complex128 (smallest subnormal 2^-1074)
_UNDERFLOW = np.longdouble(2.0) ** -1100
_STAGE = 64  # build_table's 80-bit columns held at a time before they land in b


def default_columns(N: int) -> int:
    return 2 * N + 32


@dataclass(frozen=True)
class ChromaticTable:
    family: FamilyId
    N: int
    K: int
    b: np.ndarray  # complex128, shape (N+1, K+1)


def _i_pow(n):
    """i^n, exact, for an integer or an integer array n."""
    return np.array([1.0, 1j, -1.0, -1j])[np.asarray(n) % 4]


def build_table(family, N: int, K: int | None = None) -> ChromaticTable:
    """Build the coefficient table from powers of the Jacobi matrix."""
    spec = family_spec(family)
    require_nonnegative(N)
    if K is None:
        K = default_columns(N)
    if K < N:
        raise ParameterError(f"K={K} must be at least N={N}")
    # paths of length k from level 0 ending at level <= N reach at most
    # (k + N) / 2, so that dimension captures J^k e_0 exactly
    dim = (K + N) // 2 + 2
    gam, bet = gamma_beta_arrays(spec, dim, longdouble=True)
    row_sums = np.abs(bet[:dim])
    row_sums[:-1] += gam[: dim - 1]
    row_sums[1:] += gam[: dim - 1]
    jnorm = row_sums.max()
    b = np.zeros((N + 1, K + 1), dtype=np.complex128)
    # columns k0 .. k0 + _STAGE - 1, column k as stage[k - k0] so that each step writes contiguously;
    # the row's next column, k + _STAGE, fills all the levels 0..min(k, N) it held, so no row is cleared
    stage = np.zeros((_STAGE, N + 1), dtype=np.longdouble)
    row_phases = _i_pow(np.arange(N + 1))

    def land(k0, k1):
        b[:, k0:k1] = np.multiply.outer(row_phases, _i_pow(np.arange(k0, k1))) * stage[: k1 - k0].T

    k0, kend = 0, K + 1
    for k, v in enumerate(_jacobi_powers(spec, dim, K)):
        if k - k0 == _STAGE:
            land(k0, k)
            k0 = k
        stage[k - k0, : min(k, N) + 1] = v[: min(k, N) + 1]
        # the stop rule of the module docstring, before step k + 1
        if k + 1 >= jnorm and np.abs(v).max() < _UNDERFLOW:
            kend = k + 1
            break
    land(k0, kend)
    return ChromaticTable(spec.id, N, K, b)


@dataclass(frozen=True)
class ConversionMatrices:
    """Change of basis between {D^n} and {K^n}.

    k2d[n][k] = K^n[z^k/k!](0), so K^n = sum_k k2d[n][k] D^k.
    The inverse direction D^n = sum_k d2k[n][k] K^k with
    d2k[n][k] = (-1)^k (D^n o K^k)[m](0) = (-1)^k n! b[k][n].

    Stored alongside are the jet-scaled variants actually used in
    computations: k2d_scaled[n][k] = k2d[n][k] k! maps Taylor coefficients
    f^(k)/k! to chromatic values, and d2k_scaled[n][k] = d2k[n][k]/n!
    maps chromatic values back to Taylor coefficients, keeping every
    factorial inside a ratio that stays representable.  d2k itself, whose
    n! overflows float64 past N = 170, is not stored.
    """

    family: FamilyId
    N: int
    k2d: np.ndarray
    k2d_scaled: np.ndarray
    d2k_scaled: np.ndarray


def conversion_matrices(family, N: int) -> ConversionMatrices:
    """Build both change-of-basis matrices; d2k_scaled is read off the
    (N+1)-square table, whose columns are any wider table's."""
    spec = family_spec(family)
    gam, bet = gamma_beta_arrays(spec, require_nonnegative(N), longdouble=True)
    k2d = np.zeros((N + 1, N + 1), dtype=np.clongdouble)
    k2d[0, 0] = 1.0
    for n in range(N):
        gm1 = gam[n - 1] if n >= 1 else np.longdouble(1.0)
        prev = k2d[n - 1, : n + 2] if n >= 1 else 0.0
        shifted = np.zeros(n + 2, dtype=np.clongdouble)
        shifted[1:] = k2d[n, : n + 1]
        k2d[n + 1, : n + 2] = (shifted + 1j * bet[n] * k2d[n, : n + 2] + gm1 * prev) / gam[n]
    k2d64 = k2d.astype(np.complex128)
    fac = np.cumprod(np.maximum(np.arange(N + 1), 1), dtype=np.longdouble)
    with np.errstate(over="ignore"):  # past N = 170, k2d k! overflows to inf
        k2d_scaled = (k2d * fac[None, :]).astype(np.complex128)
    signs = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    d2k_scaled = (build_table(spec, N, N).b.T * signs[None, :]).copy()  # copied to C order
    return ConversionMatrices(spec.id, N, k2d64, k2d_scaled, d2k_scaled)


def chromatic_jet_from_taylor(family, jet, N: int) -> np.ndarray:
    """K^n[f](u) = sum_{k<=n} f^(k)(u) K^n[z^k/k!](0) for n <= N, from the
    Taylor jet jet[k] = f^(k)(u)/k!."""
    spec = family_spec(family)
    if len(jet) < N + 1:
        raise HorizonError(f"jet of length {len(jet)} too short for N={N}")
    coeff = np.asarray(jet[: N + 1], dtype=np.complex128)
    k2d_scaled = conversion_matrices(spec, N).k2d_scaled
    if not np.isfinite(k2d_scaled).all():
        raise NumericError(f"the Taylor conversion k2d[n][k] k! overflows float64 at N={N}; use a smaller N")
    return k2d_scaled @ coeff


def taylor_from_chromatic_jet(family, cjet, N: int) -> np.ndarray:
    """Invert the basis change: f^(n)(u)/n! = sum_k (-1)^k b[k][n] K^k[f](u),
    from the chromatic jet cjet[k] = K^k[f](u)."""
    spec = family_spec(family)
    if len(cjet) < N + 1:
        raise HorizonError(f"chromatic jet of length {len(cjet)} too short for N={N}")
    vals = np.asarray(cjet[: N + 1], dtype=np.complex128)
    return conversion_matrices(spec, N).d2k_scaled @ vals


def compose_at_zero(family, n: int, m: int) -> complex:
    """(K^n o K^m)[m-function](0) = i^(n+m) * integral of p_n p_m.

    Evaluated by Gauss quadrature with eigenvalue nodes and recurrence
    weights, which keeps the computation well conditioned at any order.
    The equivalent table expression sum_k k2d[n][k] k! b[m][k] loses
    roughly one digit per two orders to cancellation; the test suite keeps
    it as a low-order cross-check.
    """
    if n < 0 or m < 0:
        raise ParameterError("orders must be nonnegative")
    return complex((-1.0) ** n * orthonormality_matrix(family, max(n, m))[n, m])


def orthonormality_matrix(family, N: int) -> np.ndarray:
    """G[n][m] = (-1)^n (K^n o K^m)[m-function](0) for n, m <= N."""
    # an (N+4)-point Gauss rule integrates every p_n p_m with n, m <= N
    _, _, Q = _gauss_pass(family_spec(family), N + 4, N + 1)
    idx = np.arange(N + 1)
    return _i_pow(3 * idx[:, None] + idx) * (Q @ Q.T)  # (-1)^n i^(n+m) = i^(3n+m)


# ---------------------------------------------------------------------------
# table cache

def table_for(family, N: int, K: int | None = None) -> ChromaticTable:
    """The table for (family, N, K), built once per process and shared.

    The returned table's b is read-only, since every caller gets the same
    array.
    """
    if K is None:
        K = default_columns(N)
    return _cached_table(family_spec(family).id, N, K)


@lru_cache(maxsize=32)
def _cached_table(family: FamilyId, N: int, K: int) -> ChromaticTable:
    table = build_table(family, N, K)
    table.b.flags.writeable = False
    return table
