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
sum_k min(k + 1, dim) < K * dim updates in all; where the diagonal is 0
(the symmetric families and jacobi(a, a)) it updates only the levels of
k's parity, the others being 0.  The build holds the complex128 output
plus 64 staged 80-bit columns, landed in b 64 at a time: rounded to
float64 and multiplied by the exact phases i^(n+k) in complex128, which
gives the 80-bit product's cells to the bit except where an entry
underflows to 0 or overflows to inf in float64; only there is the 80-bit
product formed, so that a zero keeps the entry's sign.

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

from .errors import NumericError, ParameterError
from .families import (
    FamilyId,
    _gauss_pass,
    _jacobi_powers,
    family_spec,
    gamma_beta_arrays,
    require_finite,
    require_integer,
    require_nonnegative,
)

# below 2^-1100 an entry rounds to 0 in complex128 (smallest subnormal 2^-1074)
_UNDERFLOW = np.longdouble(2.0) ** -1100
_TAIL_TOL = 1e-12  # every value kbasis_rows or chromatic_jet_from_taylor returns is certified within this
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
    if require_integer(K, "K") < N:
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
    # i^n i^k as one complex product per cell, signs of zero included; k0 is a multiple of 4,
    # so every stage has the same phases
    phases = np.multiply.outer(_i_pow(np.arange(N + 1)), _i_pow(np.arange(_STAGE)))

    def land(k0, k1):
        raw, ph, out = stage[: k1 - k0].T, phases[:, : k1 - k0], b[:, k0:k1]
        c = raw.astype(np.float64)  # warns where an entry overflows float64
        lost = np.isinf(c) | ((c == 0) & (raw != 0))  # where inf * 0 is nan, or a zero's sign is lost
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(ph, c, out=out)
            if lost.any():
                out[lost] = ph[lost] * raw[lost]

    k0, kend = 0, K + 1
    for k, v in enumerate(_jacobi_powers(spec, dim, K)):
        if k - k0 == _STAGE:
            land(k0, k)
            k0 = k
        stage[k - k0, : min(k, N) + 1] = v[: min(k, N) + 1]
        # the stop rule of the module docstring, before step k + 1
        if k + 1 >= jnorm and v.max() < _UNDERFLOW and -v.min() < _UNDERFLOW:  # max|v|, no |v| array
            kend = k + 1
            break
    land(k0, kend)
    return ChromaticTable(spec, N, K, b)


@dataclass(frozen=True)
class ConversionMatrices:
    """Change of basis between {D^n} and {K^n}.

    k2d[n][k] = K^n[z^k/k!](0) = i^(n-k) c[n][k], so K^n = sum_k k2d[n][k] D^k,
    where c[n] holds the real monomial coefficients of p_n: p_n's recurrence, run
    in 80-bit, rounded to float64 once and given its exact phases in complex128.
    D^n = sum_k d2k[n][k] K^k with d2k[n][k] = (-1)^k n! b[k][n].  Stored are
    the jet-scaled variants used in computations: k2d_scaled[n][k] = k2d[n][k] k!
    maps Taylor coefficients f^(k)/k! to chromatic values (c k! rounded from
    80-bit; past float64, from N = 187 on [-pi, pi], a cell is not finite), and
    d2k_scaled[n][k] = d2k[n][k]/n! maps them back, its factorials inside a
    ratio.  d2k itself, whose n! overflows float64 past N = 170, is not stored.
    """

    family: FamilyId
    N: int
    k2d: np.ndarray
    k2d_scaled: np.ndarray
    d2k_scaled: np.ndarray


def conversion_matrices(family, N: int) -> ConversionMatrices:
    """Build both change-of-basis matrices, k2d as ConversionMatrices says; d2k_scaled is read
    off the (N+1)-square table, whose columns are any wider table's."""
    spec = family_spec(family)
    gam, bet = gamma_beta_arrays(spec, require_nonnegative(N), longdouble=True)
    c = np.zeros((N + 2, N + 1), dtype=np.longdouble)  # row N + 1 stays 0, as p_{-1}
    c[0, 0] = 1.0
    for n in range(N):
        row = c[n + 1, : n + 2]
        row[1:] = c[n, : n + 1]
        row += bet[n] * c[n, : n + 2]
        row -= gam[n - 1] * c[n - 1, : n + 2]  # gam[-1] times p_{-1} at n = 0
        row *= 1 / gam[n]  # as numpy's complex division by gam[n] + 0i does, so a complex recurrence agrees to the bit
    k = np.arange(N + 1)
    ph = np.multiply.outer(_i_pow(k), _i_pow(-k))  # i^(n-k), exact
    with np.errstate(over="ignore", invalid="ignore"):  # from N = 187 on [-pi, pi] some c k! overflow float64
        k2d = ph * c[:-1].astype(np.float64)
        k2d_scaled = ph * (c[:-1] * np.cumprod(np.maximum(k, 1), dtype=np.longdouble)).astype(np.float64)
    d2k_scaled = (build_table(spec, N, N).b.T * (-1.0) ** k).copy()  # copied to C order
    return ConversionMatrices(spec, N, k2d, k2d_scaled, d2k_scaled)


def _certified(matrix, vec, N: int, what: str) -> np.ndarray:
    """matrix @ vec, whose row n sums at most n + 1 nonzero products of entries rounded once: it rounds
    by at most g_n (|matrix| @ |vec|)[n], g_n = m u / (1 - m u), m = n + 2, u = 2^-53 (Higham, section
    3.1); past _TAIL_TOL max(1, |row|) it is a NumericError naming the last order within."""
    m = np.arange(2, N + 3) * 2.0 ** -53
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite c k! times a zero coefficient
        out, bound = matrix @ vec, m / (1 - m) * (np.abs(matrix) @ np.abs(vec))
    bad = np.flatnonzero(~(bound <= _TAIL_TOL * np.maximum(1.0, np.abs(out))))  # a nan bound too
    if bad.size:
        raise NumericError(f"the {what} conversion's rounding passes {_TAIL_TOL:g} past order {bad[0] - 1} at N={N}")
    return out


def chromatic_jet_from_taylor(family, jet, N: int) -> np.ndarray:
    """K^n[f](u) = sum_{k<=n} f^(k)(u) K^n[z^k/k!](0) for n <= N, from the Taylor jet
    jet[k] = f^(k)(u)/k!, each row certified by _certified."""
    spec = family_spec(family)
    if len(jet) < require_nonnegative(N) + 1:
        raise ParameterError(f"jet of length {len(jet)} too short for N={N}")
    coeff = require_finite(np.asarray(jet[: N + 1], dtype=np.complex128), "jet")
    return _certified(conversion_matrices(spec, N).k2d_scaled, coeff, N, "Taylor")


def taylor_from_chromatic_jet(family, cjet, N: int) -> np.ndarray:
    """Invert the basis change: f^(n)(u)/n! = sum_{k<=n} (-1)^k b[k][n] K^k[f](u),
    from the chromatic jet cjet[k] = K^k[f](u), each row certified by _certified."""
    spec = family_spec(family)
    if len(cjet) < require_nonnegative(N) + 1:
        raise ParameterError(f"chromatic jet of length {len(cjet)} too short for N={N}")
    vals = require_finite(np.asarray(cjet[: N + 1], dtype=np.complex128), "cjet")
    return _certified(conversion_matrices(spec, N).d2k_scaled, vals, N, "inverse Taylor")


def orthonormality_matrix(family, N: int) -> np.ndarray:
    """G[n][m] = (-1)^n (K^n o K^m)[m-function](0) for n, m <= N."""
    # an (N+4)-point Gauss rule integrates every p_n p_m with n, m <= N
    _, _, Q = _gauss_pass(family_spec(family), require_nonnegative(N) + 4, N + 1)
    R, G = Q @ Q.T, np.empty((N + 1, N + 1), dtype=np.complex128)
    for p, q in np.ndindex(4, 4):  # (-1)^n i^(n+m) = i^(3n+m), one phase where n = p, m = q mod 4
        np.multiply(_i_pow(3 * p + q), R[p::4, q::4], out=G[p::4, q::4])
    return G


# ---------------------------------------------------------------------------
# table cache

def table_for(family, N: int, K: int | None = None) -> ChromaticTable:
    """The table for (family, N, K), built once per process and shared.

    The returned table's b is read-only, since every caller gets the same
    array.
    """
    if K is None:
        K = default_columns(N)
    return _cached_table(family_spec(family), N, K)


@lru_cache(maxsize=32)
def _cached_table(family: FamilyId, N: int, K: int) -> ChromaticTable:
    table = build_table(family, N, K)
    table.b.flags.writeable = False
    return table
