"""Independent reference values and the per-job correctness checks.

Nothing here is timed: the worker calls these functions after the timed
loop.  The references avoid the library's own code paths:

- K^n[m](z) for the bounded-support families comes from Gauss-Jacobi
  quadrature with scipy's nodes and scipy's Jacobi polynomials,
  K^n[m](z) = i^n sum_j w_j p_n(pi x_j) e^{i pi x_j z}, which has no
  cancellation at any real z; Hermite uses its closed form in log space.
- p_n(omega) comes from scipy's classical polynomials, normalized here,
  except for herron (no scipy form), which runs its printed recurrence
  in 80-bit precision.
- Long power sums run the printed recurrence in 80-bit precision; the
  Chebyshev sums use their closed form.

Tolerances are the library's own stated tolerance plus a stated rounding
slack, never the observed error:

- TAIL_TOL: SeriesEvalConfig.tail_tolerance, the absolute accuracy the
  series evaluation promises for each basis value.
- SLACK: 64 ulps relative to the magnitude of the reference value.
- Sums of N terms get a slack of 8 (N+1) ulps times the sum of |terms|.

scipy and mpmath are imported by this module only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special as sp

EPS = float(np.finfo(float).eps)
TAIL_TOL = 1e-12          # SeriesEvalConfig().tail_tolerance
SLACK = 64 * EPS          # rounding slack relative to the reference scale
CHECK_TOL = 1e-8          # tolerance of `chromex check` for orthonormality
MOMENT_TOL = 1e-10        # tolerance of `chromex check` for moments
REPORT_TOL = 1e-9         # FIR report figures recomputed on the same grid

BOUNDED = {
    # family -> (alpha, beta) of the Jacobi weight (1-x)^alpha (1+x)^beta
    "legendre": (0.0, 0.0),
    "chebyshev_t": (-0.5, -0.5),
    "chebyshev_u": (0.5, 0.5),
    "gegenbauer(1)": (0.5, 0.5),
    "jacobi(0.5,-0.25)": (0.5, -0.25),
}


@dataclass
class Verdict:
    """Outcome of checking one job against its reference."""

    wrong: bool
    err: float     # max absolute error against the reference
    scale: float   # magnitude the relative error is taken against

    @property
    def digits(self) -> float:
        if self.wrong:
            return 0.0
        if self.err == 0.0:
            return 16.0
        return float(min(16.0, max(0.0, -math.log10(self.err / self.scale))))


def verdict(out, ref, tol, scale=None, elementwise=False, sharp=None) -> Verdict:
    """Compare out with ref; wrong where |out - ref| exceeds tol.

    The relative error behind the digits is norm-wise (against `scale`,
    default max |ref|), or with elementwise=True taken entry by entry
    against max(|ref|, tol), for tables whose entries span many decades;
    `sharp` then limits the digits to entries the reference itself knows
    to better than one float64 ulp.
    """
    out = np.asarray(out, dtype=complex).ravel()
    ref = np.asarray(ref, dtype=complex).ravel()
    tol = np.broadcast_to(np.asarray(tol, dtype=float), ref.shape)
    diff = np.abs(out - ref)
    bad = ~np.isfinite(diff) | (diff > tol)
    diff = np.where(np.isfinite(diff), diff, np.inf)
    if not diff.size:
        return Verdict(bool(bad.any()), 0.0, 1.0)
    if elementwise:
        rel = np.where(diff == 0, 0.0, diff / np.maximum(np.maximum(np.abs(ref), tol), 1e-300))
        if sharp is not None:
            rel = rel[np.asarray(sharp).ravel()]
        return Verdict(bool(bad.any()), float(np.max(rel, initial=0.0)), 1.0)
    if scale is None:
        scale = float(np.max(np.abs(ref)))
    return Verdict(bool(bad.any()), float(np.max(diff)), max(scale, 1e-300))


# ---------------------------------------------------------------------------
# orthonormal polynomials

def _jacobi_norm(n, a, b):
    """sqrt(h_n / h_0) for the Jacobi polynomials P_n^(a,b)."""
    n = np.asarray(n, dtype=float)
    lg = sp.gammaln
    log_h0 = (a + b + 1) * math.log(2) + lg(a + 1) + lg(b + 1) - lg(a + b + 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_hn = ((a + b + 1) * math.log(2) - np.log(2 * n + a + b + 1)
                  + lg(n + a + 1) + lg(n + b + 1) - lg(n + a + b + 1) - lg(n + 1))
    log_hn = np.where(n == 0, log_h0, log_hn)
    return np.exp(0.5 * (log_hn - log_h0))


def _herron_values(nmax, omega):
    om = np.atleast_1d(np.asarray(omega, dtype=np.longdouble))
    out = np.empty((nmax + 1, om.size), dtype=np.longdouble)
    out[0] = 1
    pm1 = np.zeros_like(om)
    for j in range(nmax):
        gm1 = np.longdouble(j) if j else np.longdouble(1)
        out[j + 1] = (om * out[j] - (gm1 if j else 0) * pm1) / np.longdouble(j + 1)
        pm1 = out[j]
    return out.astype(float)


def p_ref(family, nmax, omega):
    """p_0..p_nmax at omega (scalar or array); shape (nmax+1, size)."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    n = np.arange(nmax + 1)[:, None]
    if family in BOUNDED:
        a, b = BOUNDED[family]
        return sp.eval_jacobi(n, a, b, om[None, :] / math.pi) / _jacobi_norm(n, a, b)
    if family == "hermite":
        lognorm = 0.5 * (n * math.log(2.0) + sp.gammaln(n + 1.0))
        return sp.eval_hermite(n, om[None, :]) / np.exp(lognorm)
    if family == "laguerre":
        return (-1.0) ** n * sp.eval_laguerre(n, om[None, :])
    if family == "herron":
        return _herron_values(nmax, om)
    raise ValueError(family)


@lru_cache(maxsize=64)
def _gauss_jacobi(family, nq):
    a, b = BOUNDED[family]
    x, w = sp.roots_jacobi(nq, a, b)
    return math.pi * x, w / w.sum()


def _quad_size(nmax, radius):
    return int(nmax + math.pi * radius + 60)


def kbasis_ref(family, nmax, z):
    """K^0[m]..K^nmax[m] at real z; shape (nmax+1, size)."""
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    n = np.arange(nmax + 1)[:, None]
    if family == "hermite":
        # (-1)^n z^n e^{-z^2/4} / sqrt(2^n n!)
        logz = np.log(np.where(zs == 0, 1.0, np.abs(zs)))[None, :]
        logmag = n * logz - zs[None, :] ** 2 / 4 - 0.5 * (n * math.log(2.0) + sp.gammaln(n + 1.0))
        sign = (-1.0) ** n * np.sign(zs)[None, :] ** n
        out = np.where((zs[None, :] == 0) & (n > 0), 0.0, sign * np.exp(logmag))
        return out.astype(complex)
    nodes, w = _gauss_jacobi(family, _quad_size(nmax, float(np.abs(zs).max())))
    P = p_ref(family, nmax, nodes) * w[None, :]
    return (1j ** n) * (P @ np.exp(1j * np.outer(nodes, zs)))


def abs_series_sum(family, n, radius):
    """sum_k |b[n][k]| radius^k, the magnitude the series has to cancel.

    For the symmetric families the table entries i^(n+k) (J^k e_0)[n]/k!
    have nonnegative path sums, so the sum is (e^{radius J} e_0)[n], the
    basis function continued to the imaginary axis.
    """
    if family == "hermite":
        return math.exp(n * math.log(max(radius, 1e-300)) + radius ** 2 / 4
                        - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))
    nodes, w = _gauss_jacobi(family, _quad_size(n, radius))
    return float(abs(np.sum(w * p_ref(family, n, nodes)[n] * np.exp(radius * nodes))))


# ---------------------------------------------------------------------------
# recurrences in extended precision (power workload)

def gamma_beta_ref(family, N):
    """Printed recursion coefficients in 80-bit precision, n = 0..N."""
    n = np.arange(N + 1, dtype=np.longdouble)
    pi = np.longdouble("3.141592653589793238462643383279502884")
    if family == "hermite":
        return np.sqrt((n + 1) / 2), np.zeros_like(n)
    if family == "chebyshev_t":
        g = np.full_like(n, pi / 2)
        g[0] = pi / np.sqrt(np.longdouble(2))
        return g, np.zeros_like(n)
    if family == "legendre":
        return pi * (n + 1) / np.sqrt(4 * (n + 1) ** 2 - 1), np.zeros_like(n)
    if family == "laguerre":
        return n + 1, -(2 * n + 1)
    raise ValueError(family)


def poly_seq_ref(family, N, omega):
    """p_0..p_N at one omega by the printed recurrence in 80-bit floats."""
    gam, bet = gamma_beta_ref(family, N)
    g = list(gam)   # keep 80-bit scalars; tolist() would round to float64
    b = list(bet)
    w = np.longdouble(omega)
    out = np.empty(N + 1, dtype=np.longdouble)
    pm1, p = np.longdouble(0), np.longdouble(1)
    out[0] = p
    for j in range(N):
        gm1 = g[j - 1] if j else 1
        pm1, p = p, ((w + b[j]) * p - gm1 * pm1) / g[j]
        out[j + 1] = p
    return out


def abs_poly_values(family, N, omega):
    """sum_k |c_nk| |omega|^k for p_n = sum_k c_nk w^k, bounded from above
    by running the recurrence with every term made nonnegative."""
    from chromex.families import gamma_beta_arrays

    gam, bet = gamma_beta_arrays(family, N)
    x = abs(omega)
    out = np.empty(N + 1)
    pm1, p = 0.0, 1.0
    out[0] = 1.0
    for j in range(N):
        gm1 = gam[j - 1] if j else 0.0
        pm1, p = p, ((x + abs(bet[j])) * p + gm1 * pm1) / gam[j]
        out[j + 1] = p
    return out


def poly_seq(family, N, omega):
    """p_0..p_N at one omega: closed form for chebyshev_t, else 80-bit recurrence."""
    if family == "chebyshev_t":
        k = np.arange(N + 1)
        return np.where(k == 0, 1.0, math.sqrt(2.0) * np.cos(k * math.acos(omega / math.pi)))
    return poly_seq_ref(family, N, omega)


def chebyshev_t_square_sums(N, omega):
    """sum_{k<=n} p_k(omega)^2 for chebyshev_t, n = 0..N, closed form."""
    theta = math.acos(omega / math.pi)
    n = np.arange(N + 1, dtype=float)
    if abs(math.sin(theta)) < 1e-300:
        return 2 * n + 1
    return n + 1 + (np.sin((2 * n + 1) * theta) / math.sin(theta) - 1) / 2


def chebyshev_norm_ref(x, n):
    """The closed form of chebyshev_exponential_norm at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        th = mpmath.acos(x)
        f = mpmath.mpf(2 * n + 1) / (2 * n + 2) + mpmath.sin((2 * n + 1) * th) / (
            (2 * n + 2) * mpmath.sqrt(1 - mpmath.mpf(x) ** 2))
    return float(f)


def inv_gamma_cumsum_ref(family, N):
    gam, _ = gamma_beta_ref(family, N)
    return np.cumsum(1 / gam)


# ---------------------------------------------------------------------------
# shared tolerance helpers

def sum_slack(abs_terms, count):
    """Rounding slack of a sum of `count` terms whose magnitudes add to abs_terms."""
    return 8 * (count + 1) * EPS * np.asarray(abs_terms, dtype=float)


def series_tol(coef_abs, basis_abs):
    """Tolerance of sum_k c_k K^k[m](z): each basis value carries TAIL_TOL."""
    coef_abs = np.asarray(coef_abs, dtype=float)
    return TAIL_TOL * coef_abs.sum() + SLACK * (coef_abs[:, None] * basis_abs).sum(axis=0) + SLACK



# ---------------------------------------------------------------------------
# coefficient-table rows by the operator recurrence (construct workload)

def _euler_ratio_ld(kmax):
    """(-1)^n E_2n / (2n)! at index 2n <= kmax, in 80-bit floats.

    From sech z cosh z = 1: s_n = -sum_{j<n} s_j / (2(n-j))!.  The terms
    of the sum never exceed the result by more than a factor of about 2,
    so the recurrence does not cancel.
    """
    m = kmax // 2
    inv_fact = np.ones(m + 1, dtype=np.longdouble)   # 1 / (2j)!
    for j in range(1, m + 1):
        inv_fact[j] = inv_fact[j - 1] / ((2 * j - 1) * (2 * j))
    s = np.zeros(m + 1, dtype=np.longdouble)
    s[0] = 1
    for n in range(1, m + 1):
        s[n] = -np.dot(s[:n], inv_fact[n:0:-1])
    out = np.zeros(kmax + 1, dtype=np.longdouble)
    out[::2] = s * np.where(np.arange(m + 1) % 2 == 0, 1, -1)
    return out


def table_rows_ref(family, nrows, K):
    """Rows 0..nrows of b[n][k] by the operator recurrence, in 80-bit.

    Returns the rows and the magnitudes of the recurrence's terms, which
    bound its own rounding error (it cancels near the diagonal).
    """
    from chromex.families import gamma_beta_arrays, moment_over_factorial_ld

    if family == "herron":
        row0 = _euler_ratio_ld(K)
    else:
        row0 = moment_over_factorial_ld(family, K)
    phase = np.array([1, 1j, -1, -1j])[np.arange(K + 1) % 4]
    gam, bet = gamma_beta_arrays(family, nrows, longdouble=True)
    b = np.zeros((nrows + 1, K + 2), dtype=np.clongdouble)
    A = np.zeros((nrows + 1, K + 2), dtype=np.longdouble)
    b[0, : K + 1] = row0 * phase
    A[0, : K + 1] = np.abs(row0)
    ks = np.arange(1, K + 2, dtype=np.longdouble)  # (D f)_k = (k+1) f_{k+1}
    for n in range(nrows):
        gm1 = gam[n - 1] if n else np.longdouble(0)
        b[n + 1, : K + 1] = (ks * b[n, 1:] + 1j * bet[n] * b[n, : K + 1] + gm1 * b[n - 1, : K + 1]) / gam[n]
        A[n + 1, : K + 1] = (ks * A[n, 1:] + abs(bet[n]) * A[n, : K + 1] + gm1 * A[n - 1, : K + 1]) / gam[n]
    return b[:, : K + 1].astype(complex), A[:, : K + 1].astype(float)


def recurrence_tol(ref, mag, rows):
    """Tolerance for table rows from table_rows_ref, and the entries on
    which the reference is sharper than one float64 ulp."""
    n = np.arange(rows + 1)[:, None]
    own = 16 * (n + 1) * float(np.finfo(np.longdouble).eps) * mag
    return own + SLACK * np.abs(ref), own <= EPS * np.abs(ref)
