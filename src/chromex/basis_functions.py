"""Basis functions K^n[m](z): truncated series, Gauss rules, closed forms, Bessel oracles.

The Bessel and spherical Bessel evaluators are implemented in-house (one
Miller backward recurrence, run over an array of arguments at once) so
that the series/closed-form comparison is a genuine cross-check between
two independent computations rather than two calls into one library.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .chromatic_core import ChromaticTable, _i_pow, default_columns, table_for
from .errors import ConvergenceError, ParameterError, UnsupportedFamilyError
from .families import FamilyId, _gauss_pass, family_spec, gamma_beta_arrays, require_nonnegative

# a series row's dropped tail is certified below _TAIL_TOL 2^-53, under
# anything a float64 sum can show, within at most _MAX_TERMS terms
_TAIL_TOL = 1e-12
_MAX_TERMS = 2048
_CHUNK = 1024  # the Gauss route's points per matrix product


@lru_cache(maxsize=None)
def _log_ratios(family: FamilyId) -> np.ndarray:
    """log(s_k / k), k = 1.._MAX_TERMS + 1, with s_k the largest absolute
    row sum of the Jacobi matrix over levels 0..k.  J^k e_0 lives on those
    levels, so |b[n][k]| = |(J^k e_0)[n]| / k! <= s_1 ... s_k / k!."""
    gam, bet = gamma_beta_arrays(family, _MAX_TERMS + 1)
    rows = np.abs(bet) + gam
    rows[1:] += gam[:-1]
    return np.log(np.maximum.accumulate(rows)[1:] / np.arange(1, _MAX_TERMS + 2))


@lru_cache(maxsize=None)
def _log_bounds(family: FamilyId):
    """log t_L and log r_L at |z| = 1 (see _terms_needed), L = 1.._MAX_TERMS:
    cumulative sums and suffix maxima of _log_ratios, plus the L themselves."""
    lr = _log_ratios(family)
    return np.cumsum(lr[:-1]), np.maximum.accumulate(lr[::-1])[::-1][1:], np.arange(1, _MAX_TERMS + 1)


def _terms_needed(spec, n, absz):
    """The first length L >= n + 1 whose dropped tail is certified, or None.

    Term k is at most t_k = s_1 ... s_k |z|^k / k!, and every term ratio
    from k = L on is at most r_L = max_{k >= L} s_{k+1} |z| / (k + 1), so
    the tail is at most t_L / (1 - r_L) once r_L < 1.  Both fall as L
    grows, so the lengths that pass form a suffix.  The suffix maximum
    bounds the ratios past _MAX_TERMS too: in every family s_k is bounded,
    grows like sqrt(k) (hermite) or grows linearly (laguerre, herron), so
    s_{k+1} / (k + 1) never rises there.
    """
    if absz == 0.0:
        return n + 1
    logt, logr, ls = _log_bounds(spec.id)
    logz = math.log(absz)
    logr = logr + logz
    with np.errstate(divide="ignore", invalid="ignore"):  # r_L >= 1 fails either way
        tail = logt + logz * ls - np.log1p(-np.exp(logr))
    hit = (logr < 0.0) & (tail < math.log(_TAIL_TOL * 2.0 ** -53))
    L = int(np.argmax(hit)) + 1
    return max(L, n + 1) if hit[L - 1] else None


@lru_cache(maxsize=None)
def _reach(spec):
    """The largest |z| some length certifies, to 2^-40 relative: the passing
    |z| form an interval from 0, whose end bisection brackets."""
    lo, hi = 0.0, 1.0
    while _terms_needed(spec, 0, hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _terms_needed(spec, 0, mid) else (lo, mid)
    return lo


def _certified_length(spec, n, absz):
    """_terms_needed, raising where |z| is not finite or no length certifies it."""
    if not math.isfinite(absz):
        raise ParameterError("non-finite argument; z must be finite")
    need = _terms_needed(spec, n, absz)
    if need is None:
        raise ConvergenceError(f"|z|={absz:g} is beyond the certified series reach "
                               f"|z| <= {_reach(spec):.3g} for {spec}; use kbasis_rows")
    return need


def suggest_columns(family, N: int, absz: float) -> int:
    """Table columns certifying rows up to N at |z| <= absz; raises past the reach."""
    return max(default_columns(N), _certified_length(family_spec(family), N, float(absz)))


def _series_rows(table: ChromaticTable, lo: int, hi: int, z):
    """K^n[m](z) for lo <= n <= hi, summed from table rows lo..hi in one
    Horner pass; shape (hi - lo + 1, points) for scalar or array z.

    Every row keeps its own certified length and is zero-padded past it,
    so for real z the shared pass returns bit for bit what one scalar
    Horner loop per row and point returns.
    """
    if not 0 <= lo <= table.N:
        raise ParameterError(f"order n={lo} outside table horizon")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    absz = float(np.abs(zs).max())  # NaN if any point is NaN
    # row n needs max(base, n + 1) terms, and n + 1 <= N + 1 <= K + 1
    base = _certified_length(family_spec(table.family), 0, absz)
    if base > table.K + 1:
        raise ConvergenceError(f"|z|={absz:g} needs {base} table columns, not {table.K + 1}; "
                               f"rebuild the table with K >= {base - 1}")
    if hi > table.N:
        raise ParameterError(f"order n={table.N + 1} outside table horizon")
    nterms = np.maximum(base, np.arange(lo + 1, hi + 2))
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


@lru_cache(maxsize=64)
def _gauss_rows(family: FamilyId, M: int, nrows: int):
    """Nodes x_j and A[n, j] = i^n Q[n, j] sqrt(w_j), n < nrows, of the M-point Gauss rule."""
    nodes, w, Q = _gauss_pass(family_spec(family), M, nrows)
    return nodes, _i_pow(np.arange(nrows))[:, None] * (Q * np.sqrt(w))


def _gauss_size(spec, hi, absz, imz, name_reach=True):
    """The fewest nodes M, a multiple of 16 above hi, leaving rows 0..hi within
    4 e^{pi |Im z|} sum_{k>d} a^k / k!, d = 2M - 1 - hi, a = pi |z| / 2 (README,
    Numerical notes); once d + 2 > a, that tail is at most its first term over 1 - a / (d + 2).
    Where rounding ends the search first: None if not name_reach, else a ConvergenceError
    naming the largest |z| >= 1 (the Gauss route's range) certified at this Im z, in hundredths."""
    a, M = 0.5 * math.pi * absz, 16 * (hi // 16 + 1)
    log_tol = math.log(_TAIL_TOL / 4.0) - math.pi * imz
    # rounding: M products, and nodes off by eps ||J|| <= eps pi turn each
    # phase by |z| times that; it grows with M, so it also ends the search
    scale = 2.0 ** -52 * math.exp(min(math.pi * imz, 700.0))
    while (M + math.pi * absz) * scale <= _TAIL_TOL:
        d = 2 * M - 1 - hi
        if d + 2 > a and (d + 1) * math.log(a) - math.lgamma(d + 2) - math.log1p(-a / (d + 2)) <= log_tol:
            return M
        M += 16
    if not name_reach:
        return None
    lo, up = 99, math.ceil(100 * absz)  # bisect: lo / 100 certified (99: none), up / 100 not
    while lo + 1 < up:
        mid = (lo + up) // 2
        lo, up = (mid, up) if _gauss_size(spec, hi, mid / 100, imz, False) else (lo, mid)
    smaller = f"|z|, at most {lo / 100:g} at |Im z| = {imz:g}" if lo > 99 else "|Im z|"
    from decimal import ROUND_CEILING, Decimal  # imported here, off the start-up path (about 2 ms)
    # printed rounded up to 3 digits, so a bound just above the tolerance never reads as equal to it
    bound = Decimal((M + math.pi * absz) * scale)
    bound = bound.quantize(Decimal(1).scaleb(bound.adjusted() - 2), rounding=ROUND_CEILING)
    raise ConvergenceError(f"|z|={absz:g} for {spec}: the rounding bound {float(bound):.3g} "
                           f"of {M} Gauss nodes exceeds {_TAIL_TOL:g}; use a smaller {smaller}")


@lru_cache(maxsize=64)
def _unit_table(family: FamilyId, hi: int) -> ChromaticTable:
    """The shared table certifying rows 0..hi at every |z| <= 1, sized once."""
    return table_for(family, hi, suggest_columns(family, hi, 1.0))


def kbasis_rows(family, lo: int, hi: int, z):
    """K^n[m](z), lo <= n <= hi, shape (hi - lo + 1, points), at scalar or array z, real or
    complex: hermite, laguerre and herron by one cumulative product of their closed forms; the
    families on [-pi, pi] by the series where max|z| <= 1, else as K = i^n P W e^{ixz} on a
    cached Gauss rule, _CHUNK points at a time, real for symmetric families at real z."""
    spec = family_spec(family)
    if not 0 <= lo <= hi:
        raise ParameterError(f"rows {lo}..{hi} must satisfy 0 <= lo <= hi")
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    absz = float(np.abs(zs).max())  # NaN or inf if any point is
    if not math.isfinite(absz):
        raise ParameterError("non-finite argument; z must be finite")
    if spec.tag in ("hermite", "laguerre", "herron"):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if spec.tag == "hermite" and float(np.max(zs.real ** 2 - zs.imag ** 2)) > 2800.0:
                raise ConvergenceError(f"e^(-z^2/4) underflows at |z|={absz:g}; use |z| <= 52.9")
            if spec.tag == "hermite":
                first = np.exp(-zs * zs / 4.0)
                step = -zs / np.sqrt(2.0 * np.arange(1, hi + 1))[:, None]
            elif spec.tag == "laguerre":
                first = 1.0 / (1.0 - 1j * zs)
                step = -zs * first
            else:
                first, step = _sech(zs), -np.tanh(zs)
            rows = np.cumprod(np.vstack([first, np.broadcast_to(step, (hi, zs.size))]), axis=0)[lo:]
        if not np.isfinite(rows).all():
            raise ConvergenceError(f"K^n[m] overflows at |z|={absz:g} for {spec}: "
                                   "z is near a pole or |Im z| is too large")
        return rows
    if absz <= 1.0:
        return _series_rows(_unit_table(spec.id, hi), lo, hi, zs)
    imz = float(np.abs(zs.imag).max())
    nodes, A = _gauss_rows(spec.id, _gauss_size(spec, hi, absz, imz), 16 * (hi // 16 + 1))
    rows = np.empty((hi - lo + 1, zs.size), dtype=np.complex128)
    for s in range(0, zs.size, _CHUNK):  # e^{ixz} is M x points: bound its memory
        phases = np.multiply.outer(1j * nodes, zs[s : s + _CHUNK])
        rows[:, s : s + _CHUNK] = A[lo : hi + 1] @ np.exp(phases, out=phases)
    if spec.symmetric and imz == 0.0:
        rows.imag = 0.0  # even rows sum cos(xz), odd rows sin(xz)
    return rows


def _sech(zs):
    """sech z = 2 e^{-sz} / (1 + e^{-2sz}), s = sign(Re z) (1 at Re z = 0), at any z: |e^{-sz}| <= 1,
    so nothing overflows; past |Re z| = 710, where it is below 2^-1022, it is an exact 0."""
    e = np.exp(np.where(zs.real < 0.0, zs, -zs))
    return np.where(np.abs(zs.real) > 710.0, 0.0, 2.0 * e / (1.0 + e * e))


def kbasis_series(table: ChromaticTable, n: int, z):
    """K^n[m](z) summed from table row n; z may be scalar or array."""
    out = _series_rows(table, n, n, z)[0]
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def kbasis_closed(family, n: int, z):
    """Printed closed forms of K^n[m](z); kbasis_rows is the general fallback."""
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
        out = (-1.0) ** n * _sech(zs) * np.tanh(zs) ** n
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
    require_nonnegative(n, "order")
    return float(_miller(True, n, float(x), [n])[0, 0])


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), real finite x; same
    tested domain as spherical_j."""
    require_nonnegative(n, "order")
    return float(_miller(False, n, float(x), [n])[0, 0])


def spherical_j_all(n: int, x: float) -> np.ndarray:
    """j_0(x) .. j_n(x): the one-point case of _miller."""
    return _miller(True, n, float(x), range(n + 1))[:, 0]


def bessel_j_all(n: int, x: float) -> np.ndarray:
    """J_0(x) .. J_n(x): the one-point case of _miller."""
    return _miller(False, n, float(x), range(n + 1))[:, 0]
