"""Basis functions K^n[m](z): truncated series, closed forms, Bessel oracles.

The Bessel and spherical Bessel evaluators are implemented in-house
(ascending-series limits handled inside a Miller backward recurrence) so
that the series/closed-form comparison is a genuine cross-check between
two independent computations rather than two calls into one library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import bessel_j_sequence, spherical_j_sequence
from .chromatic_core import ChromaticTable
from .errors import ConvergenceError, ParameterError, UnsupportedFamilyError
from .families import family_spec

_RADIUS_GUARDS = {"laguerre": 0.5, "herron": 0.7}
# geometric growth rate of |b[n][k]|^(1/k) for the p = 1 families
# (poles of m at -i and +-i*pi/2 respectively)
_SERIES_RATIOS = {"laguerre": 1.0, "herron": 2.0 / math.pi}


@dataclass(frozen=True)
class SeriesEvalConfig:
    max_terms: int = 2048
    tail_tolerance: float = 1e-12
    radius_guard: float | None = None  # None: use the family default

    def __post_init__(self):
        if self.tail_tolerance <= 0 or self.max_terms <= 0:
            raise ParameterError("tail_tolerance and max_terms must be positive")


def _terms_needed(spec, n, absz, cfg):
    """Smallest series length certified by the coefficient bounds.

    Returns None when the a-priori bound exceeds max_terms; callers may
    then fall back to the empirical tail check on the stored row.
    """
    p = spec.growth_exponent
    tol = cfg.tail_tolerance
    if absz == 0.0:
        return n + 1
    if p < 1.0:
        # |b[n][k]| <= (M+1)^(2k) / k!^(1-p); conservative tail scan
        L = (spec.weak_bound_M + 1.0) ** 2 * absz
        log_l = math.log(L)
        log_tol = math.log(tol / 2.0)
        logr = 0.0
        k = 0
        while k < cfg.max_terms:
            k += 1
            logr += log_l - (1.0 - p) * math.log(k)
            if logr < log_tol and L / (k + 1) ** (1.0 - p) < 0.5:
                return max(k + 1, n + 1)
        return None
    # p = 1: the coefficient growth rate is geometric with a known base
    # but carries an order-n polynomial factor, so no sharp a-priori
    # length exists; the radius guard plus the empirical trailing-decay
    # check on the stored row governs instead
    q = _SERIES_RATIOS[spec.tag] * absz
    if q >= 0.95:
        raise ConvergenceError("argument too close to the convergence boundary")
    return None


def _empirical_tail_ok(row, nterms, absz, tol):
    """Trailing-term decay certificate when the a-priori bound is too loose.

    The last window of computed terms must sit far below tolerance and
    must not be growing relative to the window before it.  A term that
    overflows (|z|^k = inf, and inf * 0 = nan for a stored zero) fails
    the check: an underflowed b_k says nothing about b_k |z|^k.
    """
    w = 6
    if nterms < 2 * w:
        return False
    start = nterms - 2 * w
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(row[start:nterms]) * absz ** np.arange(start, nterms)
    if not np.isfinite(terms).all():
        return False
    last = terms[-w:].max()
    prev = terms[-2 * w : -w].max()
    return last < tol / 4.0 and last <= prev + tol / 4.0


def _geometric_terms_needed(N, q, tol):
    """First k >= N with C(k, N) q^k < tol/8 and the term ratio
    (k+1) q / (k+1-N) below 1, so the terms of row N fall from there on.

    For laguerre |b[n][k]| = C(k, n) exactly (q = |z|); herron's rows
    follow the same model with q = 2|z|/pi.  Needs 0 < q < 1.
    """
    log_q = math.log(q)
    log_goal = math.log(tol / 8.0)
    log_term = N * log_q  # C(N, N) q^N
    k = N
    while not (log_term < log_goal and (k + 1) * q < k + 1 - N):
        k += 1
        log_term += math.log(k / (k - N)) + log_q
    return k


def suggest_columns(family, N: int, absz: float, cfg: SeriesEvalConfig | None = None) -> int:
    """Table columns sufficient to evaluate rows up to N at |z| <= absz."""
    spec = family_spec(family)
    cfg = cfg or SeriesEvalConfig()
    fallback = 2 * N + 32
    absz = float(absz)
    need = _terms_needed(spec, N, absz, cfg)
    if need is None and spec.growth_exponent >= 1.0:
        need = _geometric_terms_needed(N, _SERIES_RATIOS[spec.tag] * absz, cfg.tail_tolerance)
    if need is None:
        return fallback
    # kbasis_series trusts row n through column K - n
    return max(fallback, need + N + 8)


def _series_rows(table: ChromaticTable, lo: int, hi: int, z, cfg: SeriesEvalConfig | None = None):
    """K^n[m](z) for lo <= n <= hi, summed from table rows lo..hi in one
    Horner pass; shape (hi - lo + 1, points) for scalar or array z.

    Every row keeps its own certified length and is zero-padded past it,
    so for real z the shared pass returns bit for bit what one scalar
    Horner loop per row and point returns.
    """
    spec = family_spec(table.family)
    cfg = cfg or SeriesEvalConfig()
    if not 0 <= lo <= table.N:
        raise ParameterError(f"order n={lo} outside table horizon")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    absz = float(np.abs(zs).max())
    guard = cfg.radius_guard
    if guard is None:
        guard = _RADIUS_GUARDS.get(spec.tag)
    if guard is not None and absz > guard:
        raise ParameterError(
            f"|z|={absz:g} beyond radius guard {guard:g} for {spec.tag}"
        )
    # the a-priori scan does not depend on n: nterms(n) = max(base, n + 1)
    base = _terms_needed(spec, 0, absz, cfg)
    nterms = np.empty(hi - lo + 1, dtype=np.intp)
    for n in range(lo, hi + 1):
        if n > table.N:
            raise ParameterError(f"order n={n} outside table horizon")
        need = None if base is None else max(base, n + 1)
        avail = min(table.reliable_columns(n) + 1, cfg.max_terms)
        if need is None or need > avail:
            # a-priori certificate out of reach: accept the full stored row
            # if its trailing terms demonstrate convergence below tolerance
            if not _empirical_tail_ok(table.b[n], avail, absz, cfg.tail_tolerance):
                raise ConvergenceError(
                    f"series tail for row {n} at |z|={absz:g} not below "
                    f"{cfg.tail_tolerance:g} within {avail} columns; "
                    "rebuild the table with a larger K"
                )
            need = avail
        nterms[n - lo] = need
    width = int(nterms.max())
    coeffs = table.b[lo : hi + 1, :width].T.copy()
    coeffs[np.arange(width)[:, None] >= nterms] = 0.0
    # columns past the last nonzero coefficient would only add exact zeros
    nonzero = np.flatnonzero(coeffs.any(axis=1))
    width = int(nonzero[-1]) + 1 if nonzero.size else 0
    coeffs = coeffs[:width, :, None]
    acc = np.zeros((hi - lo + 1, zs.size), dtype=np.complex128)
    for k in range(width - 1, -1, -1):
        acc *= zs
        acc += coeffs[k]
    return acc


def kbasis_series(table: ChromaticTable, n: int, z, cfg: SeriesEvalConfig | None = None):
    """K^n[m](z) summed from table row n; z may be scalar or array."""
    out = _series_rows(table, n, n, z, cfg)[0]
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def kbasis_closed(family, n: int, z):
    """Printed closed forms of K^n[m](z); series is the general fallback."""
    spec = family_spec(family)
    tag = spec.tag
    if tag in ("gegenbauer", "jacobi"):
        raise UnsupportedFamilyError(f"{tag} has no printed closed form; use the series")
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if tag == "hermite":
        out = (-1.0) ** n / math.sqrt(2.0 ** n * math.factorial(n)) * zs ** n * np.exp(-zs * zs / 4.0)
    elif tag == "laguerre":
        out = 1.0 / (1.0 - 1j * zs) * (-zs / (1.0 - 1j * zs)) ** n
    elif tag == "herron":
        out = (-1.0) ** n / np.cosh(zs) * np.tanh(zs) ** n
    else:
        if np.abs(zs.imag).max() > 0.0:
            raise ParameterError("Bessel-backed closed forms take real z only")
        x = zs.real
        out = np.empty(x.size, dtype=np.complex128)
        for i, t in enumerate(x):
            if tag == "legendre":
                js = spherical_j_sequence(n, math.pi * t)
                out[i] = (-1.0) ** n * math.sqrt(2 * n + 1) * js[n]
            elif tag == "chebyshev_t":
                jb = bessel_j_sequence(n, math.pi * t)
                out[i] = jb[0] if n == 0 else (-1.0) ** n * math.sqrt(2.0) * jb[n]
            else:  # chebyshev_u
                jb = bessel_j_sequence(n + 2, math.pi * t)
                out[i] = (-1.0) ** n * (jb[n] + jb[n + 2])
    return complex(out[0]) if scalar else out


def spherical_j(n: int, x: float) -> float:
    """Spherical Bessel j_n(x), real x, n <= ~200, |x| <= ~1e4."""
    if n < 0:
        raise ParameterError("order must be nonnegative")
    return float(spherical_j_sequence(n, float(x))[n])


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), real x."""
    if n < 0:
        raise ParameterError("order must be nonnegative")
    return float(bessel_j_sequence(n, float(x))[n])


def spherical_j_all(n: int, x: float) -> np.ndarray:
    """j_0(x) .. j_n(x)."""
    return spherical_j_sequence(n, float(x))


def bessel_j_all(n: int, x: float) -> np.ndarray:
    """J_0(x) .. J_n(x)."""
    return bessel_j_sequence(n, float(x))
