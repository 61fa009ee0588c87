"""Coefficient tables for the chromatic differential operators.

The central object is the table

    b[n][k] = (K^n o D^k)[m](0) / k!

holding the Taylor coefficients of the basis functions K^n[m](z).  Row 0
is i^k mu_k / k!; subsequent rows satisfy the operator recurrence

    K^{n+1} = (D o K^n + i beta_n K^n + gamma_{n-1} K^{n-1}) / gamma_n.

Construction: b[n][k] = i^(n+k) (J^k e_0)[n] / k!, where J is the Jacobi
matrix, evaluated by the scaled power iteration v_k = J v_{k-1} / k.  The
entries of J^k e_0 are sums over lattice paths whose weights never change
sign (gamma_n > 0; the diagonal -beta_n is nonnegative or negligible for
every supported family), so each table entry is computed without
cancellation.  Running the operator recurrence across rows instead
(build_table_recurrence, kept as an independent cross-check) reproduces
the same table but loses the tiny near-diagonal entries to cancellation
beyond order ~25.  Entries with k < n, and with k - n odd for symmetric
families, are exact structural zeros in both routes.

Tables are built in 80-bit extended precision and stored as complex128;
the build is a one-time O(K * (N + K)) pass, so the extra precision is
essentially free and keeps every coefficient correctly rounded.

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
so repeated evaluations in one process build each table once; the shared
arrays are read-only.

Column reliability: build_table_recurrence omits one term in its last
column (the K+1 column does not exist), so its row n is only reliable
through column K - n; the default K = 2N + 32 keeps all n, m <= N sums
inside that region.  The power-iteration builder has no such cascade but
keeps the same default for interchangeability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import christoffel_weights, poly_grid
from .errors import HorizonError, ParameterError
from .families import (
    FamilyId,
    family_spec,
    gamma_beta_arrays,
    jacobi_matrix,
    moment_over_factorial_ld,
)

# below 2^-1100 an entry rounds to 0 in complex128 (smallest subnormal 2^-1074)
_UNDERFLOW = np.longdouble(2.0) ** -1100


def default_columns(N: int) -> int:
    return 2 * N + 32


@dataclass(frozen=True)
class ChromaticTable:
    family: FamilyId
    N: int
    K: int
    b: np.ndarray  # complex128, shape (N+1, K+1)

    def row(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.N:
            raise HorizonError(f"row {n} outside table horizon N={self.N}")
        return self.b[n]

    def reliable_columns(self, n: int) -> int:
        """Highest column of row n unaffected by the truncation cascade."""
        return self.K - n


def _phase_vector(K: int) -> np.ndarray:
    phase = np.ones(K + 1, dtype=np.complex128)
    phase[1::4] = 1j
    phase[2::4] = -1
    phase[3::4] = -1j
    return phase


def build_table(family, N: int, K: int | None = None) -> ChromaticTable:
    """Build the coefficient table from powers of the Jacobi matrix."""
    spec = family_spec(family)
    if N < 0:
        raise ParameterError("N must be nonnegative")
    if K is None:
        K = default_columns(N)
    if K < N:
        raise ParameterError(f"K={K} must be at least N={N}")
    # paths of length k from level 0 ending at level <= N reach at most
    # (k + N) / 2, so that dimension captures J^k e_0 exactly
    dim = (K + N) // 2 + 2
    gam, bet = gamma_beta_arrays(spec, dim, longdouble=True)
    diag = -bet[:dim]
    off = gam[: dim - 1]
    row_sums = np.abs(diag)
    row_sums[:-1] += off
    row_sums[1:] += off
    jnorm = row_sums.max()
    # column k is stored as rawT[k] so that each step writes contiguously
    rawT = np.zeros((K + 1, N + 1), dtype=np.longdouble)
    v = np.zeros(dim, dtype=np.longdouble)
    v[0] = 1.0
    rawT[0, 0] = 1.0
    kend = K + 1
    for k in range(1, K + 1):
        if k >= jnorm and np.abs(v).max() < _UNDERFLOW:
            kend = k
            break
        w = diag * v
        w[:-1] += off * v[1:]
        w[1:] += off * v[:-1]
        v = w / np.longdouble(k)
        rawT[k, : min(k, N) + 1] = v[: min(k, N) + 1]
    phases = np.multiply.outer(_phase_vector(N), _phase_vector(kend - 1))
    b = np.zeros((N + 1, K + 1), dtype=np.complex128)
    b[:, :kend] = phases * rawT[:kend].T
    return ChromaticTable(spec.id, N, K, b)


def build_table_recurrence(family, N: int, K: int | None = None) -> ChromaticTable:
    """Build the table by the operator recurrence across rows.

    Independent of build_table (which goes through Jacobi-matrix powers);
    the two agree to rounding in the bulk, but this route loses relative
    accuracy in the small near-diagonal entries beyond order ~25.  Kept
    as the second half of a dual-route consistency check.
    """
    spec = family_spec(family)
    if N < 0:
        raise ParameterError("N must be nonnegative")
    if K is None:
        K = default_columns(N)
    if K < N:
        raise ParameterError(f"K={K} must be at least N={N}")
    b = np.zeros((N + 1, K + 1), dtype=np.clongdouble)
    b[0, :] = moment_over_factorial_ld(spec, K) * _phase_vector(K)
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
    factorial inside a ratio that stays representable.
    """

    family: FamilyId
    N: int
    k2d: np.ndarray
    k2d_scaled: np.ndarray
    d2k_scaled: np.ndarray

    @property
    def d2k(self) -> np.ndarray:
        if self.N > 170:
            raise HorizonError("d2k with explicit n! overflows for N > 170")
        fac = np.array([math.factorial(n) for n in range(self.N + 1)], dtype=np.float64)
        return self.d2k_scaled * fac[:, None]


def conversion_matrices(family, N: int, table: ChromaticTable | None = None) -> ConversionMatrices:
    """Build both change-of-basis matrices; d2k is read off the table."""
    spec = family_spec(family)
    if table is None:
        table = build_table(spec, N, default_columns(N))
    if table.N < N or table.K < N:
        raise HorizonError("table horizon too small for conversion matrices")
    gam, bet = gamma_beta_arrays(spec, N, longdouble=True)
    k2d = np.zeros((N + 1, N + 1), dtype=np.clongdouble)
    k2d[0, 0] = 1.0
    for n in range(N):
        gm1 = gam[n - 1] if n >= 1 else np.longdouble(1.0)
        prev = k2d[n - 1, : n + 2] if n >= 1 else 0.0
        shifted = np.zeros(n + 2, dtype=np.clongdouble)
        shifted[1:] = k2d[n, : n + 1]
        k2d[n + 1, : n + 2] = (shifted + 1j * bet[n] * k2d[n, : n + 2] + gm1 * prev) / gam[n]
    k2d64 = k2d.astype(np.complex128)
    fac = np.ones(N + 1, dtype=np.longdouble)
    for k in range(1, N + 1):
        fac[k] = fac[k - 1] * k
    k2d_scaled = (k2d * fac[None, :]).astype(np.complex128)
    signs = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    d2k_scaled = (table.b[: N + 1, : N + 1].T * signs[None, :]).copy()
    return ConversionMatrices(spec.id, N, k2d64, k2d_scaled, d2k_scaled)


@dataclass(frozen=True)
class TaylorJet:
    """coefficients[k] = f^(k)(u) / k!"""

    u: complex
    coefficients: np.ndarray

    def __len__(self):
        return len(self.coefficients)


@dataclass(frozen=True)
class ChromaticJet:
    """values[n] = K^n[f](u)"""

    family: FamilyId
    u: complex
    values: np.ndarray

    def __len__(self):
        return len(self.values)


def chromatic_jet_from_taylor(family, jet: TaylorJet, N: int,
                              matrices: ConversionMatrices | None = None) -> ChromaticJet:
    """K^n[f](u) = sum_{k<=n} f^(k)(u) K^n[z^k/k!](0) for n <= N."""
    spec = family_spec(family)
    if len(jet) < N + 1:
        raise HorizonError(f"jet of length {len(jet)} too short for N={N}")
    if matrices is None or matrices.N < N:
        matrices = conversion_matrices(spec, N)
    coeff = np.asarray(jet.coefficients[: N + 1], dtype=np.complex128)
    values = matrices.k2d_scaled[: N + 1, : N + 1] @ coeff
    return ChromaticJet(spec.id, jet.u, values)


def taylor_from_chromatic_jet(family, cjet: ChromaticJet, N: int,
                              matrices: ConversionMatrices | None = None) -> TaylorJet:
    """Invert the basis change: f^(n)(u)/n! = sum_k (-1)^k b[k][n] K^k[f](u)."""
    spec = family_spec(family)
    if len(cjet) < N + 1:
        raise HorizonError(f"chromatic jet of length {len(cjet)} too short for N={N}")
    if matrices is None or matrices.N < N:
        matrices = conversion_matrices(spec, N)
    vals = np.asarray(cjet.values[: N + 1], dtype=np.complex128)
    coeff = matrices.d2k_scaled[: N + 1, : N + 1] @ vals
    return TaylorJet(cjet.u, coeff)


def compose_at_zero(family, n: int, m: int) -> complex:
    """(K^n o K^m)[m-function](0) = i^(n+m) * integral of p_n p_m.

    Evaluated by Gauss quadrature with eigenvalue nodes and recurrence
    weights, which keeps the computation well conditioned at any order.
    The equivalent table expression sum_k k2d[n][k] k! b[m][k] (available
    as compose_at_zero_from_tables) loses roughly one digit per two
    orders to cancellation and is only useful as a low-order cross-check.
    """
    if n < 0 or m < 0:
        raise ParameterError("orders must be nonnegative")
    G = orthonormality_matrix(family, max(n, m), raw=True)
    return complex(1j ** (n + m) * G[n, m])


def compose_at_zero_from_tables(table: ChromaticTable, matrices: ConversionMatrices,
                                n: int, m: int) -> complex:
    """Literal change-of-basis sum sum_k k2d[n][k] k! b[m][k].

    Ill-conditioned beyond n + m around 25; prefer compose_at_zero.
    """
    if n > matrices.N or m > table.N:
        raise HorizonError("table/matrix horizon too small")
    if n + m > table.K:
        raise HorizonError("table needs K >= n + m for a reliable row")
    return complex(np.sum(matrices.k2d_scaled[n, : n + 1] * table.b[m, : n + 1]))


def orthonormality_matrix(family, N: int, raw: bool = False) -> np.ndarray:
    """G[n][m] = (-1)^n (K^n o K^m)[m-function](0) for n, m <= N.

    With raw=True returns the real integrals of p_n p_m instead (no
    i-phases), which is what compose_at_zero consumes.
    """
    spec = family_spec(family)
    nq = N + 4
    J = jacobi_matrix(spec, nq).dense()
    nodes = np.linalg.eigvalsh(J)
    gam, bet = gamma_beta_arrays(spec, nq - 1)
    w = christoffel_weights(gam, bet, nodes)
    w = w / w.sum()
    gamN, betN = gamma_beta_arrays(spec, N)
    P = poly_grid(gamN, betN, nodes)
    Q = P * np.sqrt(w)[None, :]
    G = Q @ Q.T
    if raw:
        return G
    idx = np.arange(N + 1)
    phases = (1j ** (idx[:, None] + idx[None, :])) * np.where(idx % 2 == 0, 1, -1)[:, None]
    return phases * G


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
