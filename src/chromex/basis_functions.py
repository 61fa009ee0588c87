"""Basis functions K^n[m](z): Gauss rules, closed forms, Bessel oracles.

The Bessel and spherical Bessel evaluators are implemented in-house (one
Miller backward recurrence, run over an array of arguments at once) so
that the Gauss-rule/closed-form comparison is a genuine cross-check between
two independent computations rather than two calls into one library.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .chromatic_core import _TAIL_TOL, ChromaticTable, _i_pow, default_columns
from .errors import NumericError, ParameterError
from .families import FamilyId, _gauss_pass, family_spec, require_integer, require_nonnegative, require_real

_CHUNK = 1024  # the Gauss route's points per matrix product


def suggest_columns(family, N: int, absz: float) -> int:
    """default_columns(N), whatever absz: no evaluation route reads a table's columns."""
    return default_columns(N)


@lru_cache(maxsize=64)
def _gauss_rows(family: FamilyId, M: int, nrows: int):
    """Nodes x_j and A[n, j] = i^n Q[n, j] sqrt(w_j), n < nrows, of the M-point Gauss rule; in a
    symmetric family also the positive nodes xp and the real H with K^n = H[n] @ cos(xp z) for
    even n and H[n] @ sin(xp z) for odd n at real z, from the sum over each pair +-x_j."""
    spec = family_spec(family)
    nodes, w, Q = _gauss_pass(spec, M, nrows)
    A = _i_pow(np.arange(nrows))[:, None] * (Q * np.sqrt(w))
    if not spec.symmetric:
        return nodes, A, None, None
    h = M // 2  # nodes ascend and M is even: x_{h+j} pairs with x_{h-1-j}
    sign = (1 - 2 * (np.arange(nrows) % 2))[:, None]  # (-1)^n
    P = A[:, h:] + sign * A[:, h - 1 :: -1]
    return nodes, A, nodes[h:], np.where(sign > 0, P.real, -P.imag)


def _gauss_size(spec, hi, absz, imz, explain=True):
    """The fewest nodes M, a multiple of 16 above hi, leaving rows 0..hi within
    4 e^{pi |Im z|} sum_{k>d} a^k / k!, d = 2M - 1 - hi, a = pi |z| / 2 (README,
    Numerical notes); once d + 2 > a, that tail is at most its first term over 1 - a / (d + 2).
    At a = 0 (every point is z = 0) the rule is exact.  Where rounding ends the search first:
    None if not explain, else a NumericError naming the largest |z| >= 1 certified at this
    Im z, in hundredths."""
    a, M = 0.5 * math.pi * absz, 16 * (hi // 16 + 1)
    log_tol = math.log(_TAIL_TOL / 4.0) - math.pi * imz
    # rounding: M products (M / 2 real ones, each of a pair sum, in a symmetric family at real
    # z), and nodes off by eps ||J|| <= eps pi turn each phase by |z| times that; it grows with
    # M, so it also ends the search
    scale = 2.0 ** -52 * math.exp(min(math.pi * imz, 700.0))
    while (M + math.pi * absz) * scale <= _TAIL_TOL:
        d = 2 * M - 1 - hi
        if a == 0.0 or (d + 2 > a and (d + 1) * math.log(a) - math.lgamma(d + 2)
                        - math.log1p(-a / (d + 2)) <= log_tol):
            return M
        M += 16
    if not explain:
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
    raise NumericError(f"|z|={absz:g} for {spec}: the rounding bound {float(bound):.3g} "
                       f"of {M} Gauss nodes exceeds {_TAIL_TOL:g}; use a smaller {smaller}")


def _points(z):
    """z as a 1-D complex128 array, and max|z|; a z of more dimensions, or a non-finite point, is
    a ParameterError."""
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if zs.ndim > 1:
        raise ParameterError(f"z has shape {zs.shape}; z must be a scalar or a 1-D array")
    absz = float(np.abs(zs).max(initial=0.0))  # NaN or inf if any point is
    if not math.isfinite(absz):
        raise ParameterError("non-finite argument; z must be finite")
    return zs, absz


def _hermite_reach(zs, absz):
    """Refuse z where hermite's factor e^(-z^2/4) underflows."""
    if float(np.max(zs.real ** 2 - zs.imag ** 2, initial=0.0)) > 2800.0:
        raise NumericError(f"e^(-z^2/4) underflows at |z|={absz:g}; use |z| <= 52.9")


def kbasis_rows(family, lo: int, hi: int, z):
    """K^n[m](z), lo <= n <= hi, shape (hi - lo + 1, points), at scalar or array z, real or
    complex, by a route the family alone picks: hermite, laguerre and herron by one cumulative
    product of their closed forms; the families on [-pi, pi] as K = i^n P W e^{ixz} on a cached
    Gauss rule, _CHUNK points at a time.  In a symmetric family at real z that is a real cosine
    (even n) or sine (odd n) sum over the M / 2 positive nodes, and each row is exactly real."""
    spec = family_spec(family)
    if not 0 <= require_integer(lo, "lo") <= require_integer(hi, "hi"):
        raise ParameterError(f"rows {lo}..{hi} must satisfy 0 <= lo <= hi")
    zs, absz = _points(z)
    if spec.tag in ("hermite", "laguerre", "herron"):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if spec.tag == "hermite":
                _hermite_reach(zs, absz)
                first = np.exp(-zs * zs / 4.0)
                step = -zs / np.sqrt(2.0 * np.arange(1, hi + 1))[:, None]
            elif spec.tag == "laguerre":
                first = 1.0 / (1.0 - 1j * zs)
                step = -zs * first
            else:
                first, step = _sech(zs), -np.tanh(zs)
            rows = np.cumprod(np.vstack([first, np.broadcast_to(step, (hi, zs.size))]), axis=0)[lo:]
        if not np.isfinite(rows).all():
            raise NumericError(f"K^n[m] overflows at |z|={absz:g} for {spec}: "
                               "z is near a pole or |Im z| is too large")
        return rows
    imz = float(np.abs(zs.imag).max(initial=0.0))
    nodes, A, xp, H = _gauss_rows(spec, _gauss_size(spec, hi, absz, imz), 16 * (hi // 16 + 1))
    rows = np.empty((hi - lo + 1, zs.size), dtype=np.complex128)
    half = H is not None and imz == 0.0
    even, odd = lo + lo % 2, lo + 1 - lo % 2  # the first even and odd rows
    for s in range(0, zs.size, _CHUNK):  # the phases are M x points: bound their memory
        if half:  # only the parities asked for
            phases = xp[:, None] * zs.real[s : s + _CHUNK]
            if even <= hi:
                rows[even - lo :: 2, s : s + _CHUNK] = H[even : hi + 1 : 2] @ np.cos(phases)
            if odd <= hi:
                rows[odd - lo :: 2, s : s + _CHUNK] = H[odd : hi + 1 : 2] @ np.sin(phases, out=phases)
        else:
            phases = np.multiply.outer(1j * nodes, zs[s : s + _CHUNK])
            rows[:, s : s + _CHUNK] = A[lo : hi + 1] @ np.exp(phases, out=phases)
    return rows


def _sech(zs):
    """sech z = 2 e^{-sz} / (1 + e^{-2sz}), s = sign(Re z) (1 at Re z = 0), at any z: |e^{-sz}| <= 1,
    so nothing overflows; past |Re z| = 710, where it is below 2^-1022, it is an exact 0."""
    e = np.exp(np.where(zs.real < 0.0, zs, -zs))
    return np.where(np.abs(zs.real) > 710.0, 0.0, 2.0 * e / (1.0 + e * e))


def kbasis_series(table: ChromaticTable, n: int, z):
    """K^n[m](z) for a row n of the table's horizon, scalar or array z: kbasis_rows' value,
    certified at every z it accepts; the table's Taylor coefficients are no longer summed."""
    if not 0 <= n <= table.N:
        raise ParameterError(f"order n={n} outside table horizon")
    out = kbasis_rows(table.family, n, n, z)[0]
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def kbasis_closed(family, n: int, z):
    """Printed closed forms of K^n[m](z); kbasis_rows is the general fallback.  Where a printed
    form loses a factor to over- or underflow, or is not finite, a NumericError names it."""
    require_nonnegative(n, "n")
    spec = family_spec(family)
    tag = spec.tag
    if tag in ("gegenbauer", "jacobi"):
        raise ParameterError(f"{tag} has no printed closed form; use kbasis_rows")
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    zs, absz = _points(z)
    if tag in ("hermite", "laguerre", "herron"):
        lost = NumericError(f"the printed K^{n}[m] of {spec} over- or underflows at |z|={absz:g}; "
                            "use kbasis_rows")
        with np.errstate(all="ignore"):  # a non-finite value is refused below
            if tag == "hermite":
                _hermite_reach(zs, absz)
                try:  # 2^n n! leaves float64 from n = 151
                    norm = math.sqrt(2 ** n * math.factorial(n))
                except OverflowError:
                    raise lost from None
                out = (-1.0) ** n / norm * zs ** n * np.exp(-zs * zs / 4.0)
            elif tag == "laguerre":
                out = 1.0 / (1.0 - 1j * zs) * (-zs / (1.0 - 1j * zs)) ** n
            else:
                out = (-1.0) ** n * _sech(zs) * np.tanh(zs) ** n
        if not np.isfinite(out).all():
            raise lost
    elif (zs.imag != 0.0).any():
        raise ParameterError("Bessel-backed closed forms take real z only")
    else:
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
    x = np.atleast_1d(require_real(x, "x"))
    out = np.zeros((len(rows), x.size))
    small = np.abs(x) < 1e-14  # there j_n = prod_{k<=n} x/(2k+1), J_n = prod_{k<=n} x/(2k)
    if small.any():  # + 0.0 turns -0.0 into 0.0, so j_n(-0) = [n == 0] without a sign
        steps = (x[small] + 0.0) / (2.0 * np.arange(1, max(rows) + 1) + spherical)[:, None]
        out[:, small] = np.cumprod(np.vstack([np.ones(steps.shape[1]), steps]), axis=0)[list(rows)]
    live = np.flatnonzero(~small)
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

