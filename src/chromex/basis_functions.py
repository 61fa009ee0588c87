"""Basis functions K^n[m](z): truncated series, closed forms, Bessel oracles.

The Bessel and spherical Bessel evaluators are implemented in-house (one
Miller backward recurrence, run over an array of arguments at once) so
that the series/closed-form comparison is a genuine cross-check between
two independent computations rather than two calls into one library.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .chromatic_core import ChromaticTable, default_columns
from .errors import ConvergenceError, ParameterError, UnsupportedFamilyError
from .families import family_spec

# every series row is certified to this absolute tail and holds at most
# this many terms; the laguerre and herron arguments stay inside these radii
_TAIL_TOL = 1e-12
_MAX_TERMS = 2048
_RADIUS_GUARDS = {"laguerre": 0.5, "herron": 0.7}


@lru_cache(maxsize=None)
def _scan_table(p):
    """(1 - p) log k and (k + 1)^(1 - p) for k = 1.._MAX_TERMS."""
    return (np.array([(1.0 - p) * math.log(k) for k in range(1, _MAX_TERMS + 1)]),
            np.array([(k + 1) ** (1.0 - p) for k in range(1, _MAX_TERMS + 1)]))


def _terms_needed(spec, n, absz):
    """Smallest series length certified by the coefficient bounds.

    Returns None when the a-priori bound exceeds _MAX_TERMS; callers may
    then fall back to the empirical tail check on the stored row.  For p < 1
    the log of |b[n][k]| <= (M+1)^(2k) / k!^(1-p) is summed for every k at
    once: np.cumsum adds the float64 steps a scalar loop over k adds, in the
    loop's order, so the first k meeting both conditions is the loop's.
    """
    p = spec.growth_exponent
    if absz == 0.0:
        return n + 1
    if p < 1.0:
        slope, power = _scan_table(p)
        L = (spec.weak_bound_M + 1.0) ** 2 * absz
        logr = np.cumsum(math.log(L) - slope)
        hit = (logr < math.log(_TAIL_TOL / 2.0)) & (L / power < 0.5)
        k = int(np.argmax(hit)) + 1
        return max(k + 1, n + 1) if hit[k - 1] else None
    # p = 1: the coefficient growth rate is geometric with a known base
    # but carries an order-n polynomial factor, so no sharp a-priori
    # length exists; the radius guard plus the empirical trailing-decay
    # check on the stored row governs instead; spec.rho is that base
    q = spec.rho * absz
    if q >= 0.95:
        raise ConvergenceError("argument too close to the convergence boundary")
    return None


def _tails_converged(rows, nterms, absz):
    """Trailing-term decay certificate per row when the a-priori bound is too
    loose: the last window of a row's first nterms terms must sit far below
    tolerance and must not grow relative to the window before it.  A term
    that overflows (|z|^k = inf, and inf * 0 = nan for a stored zero) fails:
    an underflowed b_k says nothing about b_k |z|^k."""
    w = 6
    if nterms < 2 * w or len(rows) == 0:
        return np.zeros(len(rows), dtype=bool)
    start = nterms - 2 * w
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(rows[:, start:nterms]) * absz ** np.arange(start, nterms)
        last = terms[:, w:].max(axis=1)
        prev = terms[:, :w].max(axis=1)
    return np.isfinite(terms).all(axis=1) & (last < _TAIL_TOL / 4) & (last <= prev + _TAIL_TOL / 4)


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


def suggest_columns(family, N: int, absz: float) -> int:
    """Table columns sufficient to evaluate rows up to N at |z| <= absz."""
    spec = family_spec(family)
    absz = float(absz)
    if not math.isfinite(absz):
        raise ParameterError("non-finite argument; z must be finite")
    need = _terms_needed(spec, N, absz)
    if need is None and spec.growth_exponent >= 1.0:
        need = _geometric_terms_needed(N, spec.rho * absz, _TAIL_TOL)
    if need is None:
        return default_columns(N)
    # 8 spare columns put the empirical tail window past the certified length
    return max(default_columns(N), need + 8)


def _series_rows(table: ChromaticTable, lo: int, hi: int, z):
    """K^n[m](z) for lo <= n <= hi, summed from table rows lo..hi in one
    Horner pass; shape (hi - lo + 1, points) for scalar or array z.

    Every row keeps its own certified length and is zero-padded past it,
    so for real z the shared pass returns bit for bit what one scalar
    Horner loop per row and point returns.
    """
    spec = family_spec(table.family)
    if not 0 <= lo <= table.N:
        raise ParameterError(f"order n={lo} outside table horizon")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    absz = float(np.abs(zs).max())  # NaN if any point is NaN
    if not math.isfinite(absz):  # before the radius guard, which NaN passes
        raise ParameterError("non-finite argument; z must be finite")
    guard = _RADIUS_GUARDS.get(spec.tag)
    if guard is not None and absz > guard:
        raise ParameterError(
            f"|z|={absz:g} beyond radius guard {guard:g} for {spec.tag}"
        )
    # the a-priori scan does not depend on n: nterms(n) = max(base, n + 1);
    # a table's columns do not depend on its width, so all K + 1 are usable
    base = _terms_needed(spec, 0, absz)
    avail = min(table.K + 1, _MAX_TERMS)
    nterms = np.maximum(avail + 1 if base is None else base,
                        np.arange(lo + 1, min(hi, table.N) + 2))
    # rows past the a-priori reach (a suffix) count in full if their tails converge
    late = int(np.searchsorted(nterms, avail, side="right"))
    ok = _tails_converged(table.b[lo + late : lo + nterms.size], avail, absz)
    if not ok.all():
        raise ConvergenceError(
            f"series tail for row {lo + late + int(np.argmin(ok))} at |z|={absz:g} "
            f"not below {_TAIL_TOL:g} within {avail} columns; rebuild the table with a larger K"
        )
    nterms[late:] = avail
    if hi > table.N:
        raise ParameterError(f"order n={table.N + 1} outside table horizon")
    # columns past the table's last nonzero column would only add exact
    # zeros (so would those zeroed below, past every row's length)
    nonzero = np.flatnonzero(table.b[lo : hi + 1, : int(nterms.max())].any(axis=0))
    width = int(nonzero[-1]) + 1 if nonzero.size else 0
    coeffs = table.b[lo : hi + 1, :width].T.copy()
    coeffs[np.arange(width)[:, None] >= nterms] = 0.0
    coeffs = coeffs[:, :, None]
    acc = np.zeros((hi - lo + 1, zs.size), dtype=np.complex128)
    for k in range(width - 1, -1, -1):
        acc *= zs
        acc += coeffs[k]
    return acc


def kbasis_series(table: ChromaticTable, n: int, z):
    """K^n[m](z) summed from table row n; z may be scalar or array."""
    out = _series_rows(table, n, n, z)[0]
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
        if (zs.imag != 0.0).any():
            raise ParameterError("Bessel-backed closed forms take real z only")
        x = math.pi * zs.real
        if tag == "legendre":
            out = (-1.0) ** n * math.sqrt(2 * n + 1) * _miller(True, n, x, [n])[0]
        elif tag == "chebyshev_t":
            jb = _miller(False, n, x, [n])[0]
            out = jb if n == 0 else (-1.0) ** n * math.sqrt(2.0) * jb
        else:  # chebyshev_u
            jb = _miller(False, n + 2, x, [n, n + 2])
            out = (-1.0) ** n * (jb[0] + jb[1])
        out = out.astype(np.complex128)
    return complex(out[0]) if scalar else out


def _miller(spherical, nmax, x, rows):
    """Distinct rows `rows` of j_0..j_nmax (spherical) or J_0..J_nmax at every
    real x in one Miller backward recurrence; shape (len(rows), x.size).

    Each point starts at its own index, measured from max(nmax, |x|) so
    the start lies past the turning point at order |x|, and keeps its own
    1e250 rescale and normalization: by whichever of the closed forms
    j_0, j_1 is larger in magnitude, or by J_0 + 2 sum_k J_2k = 1.  Only
    the requested rows are stored.
    """
    x = np.atleast_1d(np.asarray(x)).astype(np.float64, casting="same_kind")
    if not np.isfinite(x).all():
        raise ParameterError("non-finite Bessel argument; x must be finite")
    out = np.zeros((len(rows), x.size))
    out[np.asarray(rows) == 0] = 1.0  # j_n(0) = J_n(0) = [n == 0]
    live = np.flatnonzero(np.abs(x) >= 1e-14)
    if live.size == 0:
        return out
    top = np.maximum(nmax, np.floor(np.abs(x[live])))
    start = top + np.floor(np.sqrt(40.0 * (top + 1))) + 20
    if not spherical:
        start += start % 2  # the last step then lands on the even J_0 term
    # lanes in order of falling start: the ones started by step k are a prefix
    order = np.argsort(-start, kind="stable")
    live, start = live[order], start[order]
    ax = np.abs(x[live])
    if spherical:
        j0 = np.sin(ax) / ax
        j1 = np.sin(ax) / (ax * ax) - np.cos(ax) / ax
        if nmax == 0:
            out[:, live] = j0
            return out
    slot = {r: i for i, r in enumerate(rows)}
    rec = np.zeros((len(rows), live.size))
    # a lane that has not started holds f = fp1 = 0, which the recurrence
    # keeps exactly 0; it starts from f = 1e-305 at its own start index
    f = np.zeros(live.size)
    fp1 = np.zeros(live.size)
    even_sum = np.zeros(live.size)
    m = 0
    for k in range(int(start[0]), 0, -1):
        while m < live.size and start[m] >= k:
            f[m] = 1e-305
            m += 1
        fp1, f = f, ((2.0 * k + 1.0) if spherical else 2.0 * k) / ax * f - fp1
        if not spherical and k % 2 == 1 and k > 1:
            even_sum += 2.0 * f
        if k - 1 in slot:  # every lane has started by row nmax
            rec[slot[k - 1]] = f
        if np.abs(f).max() > 1e250:
            big = np.abs(f) > 1e250
            f[big] *= 1e-250
            fp1[big] *= 1e-250
            even_sum[big] *= 1e-250
            rec[:, big] *= 1e-250
    # f and fp1 now hold the unnormalized rows 0 and 1
    if spherical:
        use_j0 = np.abs(j0) >= np.abs(j1)
        scale = np.where(use_j0, j0, j1) / np.where(use_j0, f, fp1)
    else:
        scale = 1.0 / (even_sum + f)
    rec *= scale
    rec[np.ix_(np.asarray(rows) % 2 == 1, x[live] < 0.0)] *= -1.0  # odd rows
    out[:, live] = rec
    return out


def spherical_j(n: int, x: float) -> float:
    """Spherical Bessel j_n(x), real finite x; accurate to 1e-14 absolute
    (tested) for n <= 80, |x| <= 1e4."""
    if n < 0:
        raise ParameterError("order must be nonnegative")
    return float(_miller(True, n, float(x), [n])[0, 0])


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), real finite x; same
    tested domain as spherical_j."""
    if n < 0:
        raise ParameterError("order must be nonnegative")
    return float(_miller(False, n, float(x), [n])[0, 0])


def spherical_j_all(n: int, x: float) -> np.ndarray:
    """j_0(x) .. j_n(x): the one-point case of _miller."""
    return _miller(True, n, float(x), range(n + 1))[:, 0]


def bessel_j_all(n: int, x: float) -> np.ndarray:
    """J_0(x) .. J_n(x): the one-point case of _miller."""
    return _miller(False, n, float(x), range(n + 1))[:, 0]
