"""Hot scalar-loop kernels: three-term recurrences and Bessel sequences.

Each kernel here has a plain numpy/Python implementation (``*_py``) and,
when numba is importable and ``CHROMEX_NO_NUMBA`` is not set, an
``@njit``-compiled version.  The public names always point at the
selected variant; ``benchmarks/bench_kernels.py`` times both.  Series
evaluation is not among them: it is one numpy-vectorized Horner pass,
``basis_functions._series_rows``.
"""

import os

import numpy as np

_DISABLED = os.environ.get("CHROMEX_NO_NUMBA", "").strip().lower() in ("1", "true", "yes", "on")

if not _DISABLED:
    try:
        from numba import njit
    except ImportError:
        njit = None
else:
    njit = None

USING_NUMBA = njit is not None


def poly_sequence_py(gam, bet, omega):
    """p_0(omega)..p_N(omega) by the forward three-term recurrence.

    gam, bet: float64 arrays of recursion coefficients, length >= N+1;
    the returned array has the same length as gam.
    """
    n = gam.shape[0]
    out = np.empty(n, dtype=np.float64)
    out[0] = 1.0
    pm1 = 0.0
    p = 1.0
    for j in range(n - 1):
        gm1 = gam[j - 1] if j >= 1 else 1.0
        pn = ((omega + bet[j]) * p - gm1 * pm1) / gam[j]
        pm1 = p
        p = pn
        out[j + 1] = p
    return out


def poly_grid_py(gam, bet, omegas):
    """p_n(omega) for n <= N over a grid; shape (N+1, len(omegas))."""
    n = gam.shape[0]
    m = omegas.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    out[0, :] = 1.0
    pm1 = np.zeros(m)
    p = np.ones(m)
    for j in range(n - 1):
        gm1 = gam[j - 1] if j >= 1 else 1.0
        pn = ((omegas + bet[j]) * p - gm1 * pm1) / gam[j]
        pm1 = p
        p = pn
        out[j + 1, :] = p
    return out


def poly_pair_products_py(gam, bet, om, sg):
    """p_k(om)*p_k(sg) for k <= N (om == sg gives squared values)."""
    n = gam.shape[0]
    out = np.empty(n, dtype=np.float64)
    out[0] = 1.0
    pm1 = 0.0
    p = 1.0
    qm1 = 0.0
    q = 1.0
    for j in range(n - 1):
        gm1 = gam[j - 1] if j >= 1 else 1.0
        pn = ((om + bet[j]) * p - gm1 * pm1) / gam[j]
        qn = ((sg + bet[j]) * q - gm1 * qm1) / gam[j]
        pm1 = p
        p = pn
        qm1 = q
        q = qn
        if abs(p) > 1e100 or abs(q) > 1e100:
            # caller treats NaN as a magnitude-guard trip
            out[j + 1 :] = np.nan
            return out
        out[j + 1] = p * q
    return out


def christoffel_weights_py(gam, bet, nodes):
    """Gauss weights w_i = 1 / sum_{k<n} p_k(x_i)^2 at the given nodes.

    Evaluated with a running rescale so the squared sums cannot overflow
    for weights far below the double-precision range.
    """
    nq = gam.shape[0]
    m = nodes.shape[0]
    w = np.empty(m, dtype=np.float64)
    for i in range(m):
        x = nodes[i]
        pm1 = 0.0
        p = 1.0
        s = 1.0
        scale = 0.0  # log2 of the factor taken out of p
        for j in range(nq - 1):
            gm1 = gam[j - 1] if j >= 1 else 1.0
            pn = ((x + bet[j]) * p - gm1 * pm1) / gam[j]
            pm1 = p
            p = pn
            if abs(p) > 1e140:
                p *= 1e-140
                pm1 *= 1e-140
                s = s * 1e-280 + p * p
                scale += 280.0
            else:
                s += p * p
        w[i] = 10.0 ** (-scale) / s if scale > 0 else 1.0 / s
    return w


def spherical_j_sequence_py(nmax, x):
    """j_0..j_nmax at real x: Miller backward recurrence, normalized by
    whichever of the closed forms j_0, j_1 is larger in magnitude."""
    out = np.zeros(nmax + 1, dtype=np.float64)
    ax = abs(x)
    if ax < 1e-14:
        out[0] = 1.0
        return out
    j0 = np.sin(ax) / ax
    j1 = np.sin(ax) / (ax * ax) - np.cos(ax) / ax
    if nmax == 0:
        out[0] = j0
        return out
    start = nmax + int(np.sqrt(40.0 * (nmax + 1))) + 20
    if ax > nmax:
        start += int(ax)
    fp1 = 0.0
    f = 1e-305
    for k in range(start, 0, -1):
        fm1 = (2.0 * k + 1.0) / ax * f - fp1
        fp1 = f
        f = fm1
        if k - 1 <= nmax:
            out[k - 1] = f
        if abs(f) > 1e250:
            f *= 1e-250
            fp1 *= 1e-250
            for j in range(nmax + 1):
                out[j] *= 1e-250
    if abs(j0) >= abs(j1):
        scale = j0 / out[0]
    else:
        scale = j1 / out[1]
    for j in range(nmax + 1):
        out[j] *= scale
    if x < 0.0:
        for j in range(1, nmax + 1, 2):
            out[j] = -out[j]
    return out


def bessel_j_sequence_py(nmax, x):
    """J_0..J_nmax at real x: Miller backward recurrence, normalized by
    J_0(x) + 2 sum_k J_2k(x) = 1."""
    out = np.zeros(nmax + 1, dtype=np.float64)
    ax = abs(x)
    if ax < 1e-14:
        out[0] = 1.0
        return out
    start = nmax + int(np.sqrt(40.0 * (nmax + 1))) + 20
    if ax > nmax:
        start += int(ax)
    if start % 2 == 1:
        start += 1
    fp1 = 0.0
    f = 1e-305
    even_sum = 0.0
    for k in range(start, 0, -1):
        fm1 = 2.0 * k / ax * f - fp1
        fp1 = f
        f = fm1
        if (k - 1) % 2 == 0 and k - 1 > 0:
            even_sum += 2.0 * f
        if k - 1 <= nmax:
            out[k - 1] = f
        if abs(f) > 1e250:
            f *= 1e-250
            fp1 *= 1e-250
            even_sum *= 1e-250
            for j in range(nmax + 1):
                out[j] *= 1e-250
    even_sum += f  # the k-1 == 0 term
    scale = 1.0 / even_sum
    for j in range(nmax + 1):
        out[j] *= scale
    if x < 0.0:
        for j in range(1, nmax + 1, 2):
            out[j] = -out[j]
    return out


if USING_NUMBA:
    poly_sequence = njit(cache=True)(poly_sequence_py)
    poly_grid = njit(cache=True)(poly_grid_py)
    poly_pair_products = njit(cache=True)(poly_pair_products_py)
    christoffel_weights = njit(cache=True)(christoffel_weights_py)
    spherical_j_sequence = njit(cache=True)(spherical_j_sequence_py)
    bessel_j_sequence = njit(cache=True)(bessel_j_sequence_py)
else:
    poly_sequence = poly_sequence_py
    poly_grid = poly_grid_py
    poly_pair_products = poly_pair_products_py
    christoffel_weights = christoffel_weights_py
    spherical_j_sequence = spherical_j_sequence_py
    bessel_j_sequence = bessel_j_sequence_py
