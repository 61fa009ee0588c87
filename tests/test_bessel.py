"""The vectorized Miller engine behind the Bessel closed forms.

The two scalar loops below are the per-point Miller recurrences, with
the start index measured from max(nmax, |x|); every column the engine
returns must equal them bit for bit.  Accuracy is
checked separately against scipy and mpmath.
"""

import math

import numpy as np
import pytest

from chromex import ParameterError, ShannonCombo, Sinc, kbasis_closed
from chromex.basis_functions import _miller


def _start(nmax, ax):
    top = max(nmax, int(ax))
    return top + int(np.sqrt(40.0 * (top + 1))) + 20


def _leading_term_loop(nmax, x, odd):
    """j_n(x) = x^n / (2n+1)!! (odd = 1) or J_n(x) = (x/2)^n / n! (odd = 0),
    one factor x / (2k + odd) at a time; x = 0 gives [1, 0, ..., 0]."""
    out = np.zeros(nmax + 1, dtype=np.float64)
    out[0] = 1.0
    if x == 0.0:
        return out
    for k in range(1, nmax + 1):
        out[k] = out[k - 1] * (x / (2.0 * k + odd))
    return out


def _spherical_j_loop(nmax, x):
    out = np.zeros(nmax + 1, dtype=np.float64)
    ax = abs(x)
    if ax < 1e-14:
        return _leading_term_loop(nmax, x, 1.0)
    j0 = np.sin(ax) / ax
    j1 = np.sin(ax) / (ax * ax) - np.cos(ax) / ax
    if nmax == 0:
        out[0] = j0
        return out
    fp1 = 0.0
    f = 1e-305
    for k in range(_start(nmax, ax), 0, -1):
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


def _bessel_j_loop(nmax, x):
    out = np.zeros(nmax + 1, dtype=np.float64)
    ax = abs(x)
    if ax < 1e-14:
        return _leading_term_loop(nmax, x, 0.0)
    start = _start(nmax, ax)
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


_EDGE_X = [0.0, 1e-15, -1e-15, 1e-14, 1e-3, -1e-3, 0.5, -1.0, 3.0, -7.3,
           19.9, -63.0, 63.5, 150.0, -200.0, 200.0]


@pytest.mark.parametrize("spherical", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 42, 80])
def test_engine_equals_scalar_loops_bitwise(spherical, n, rng):
    x = np.concatenate([_EDGE_X, rng.uniform(-200.0, 200.0, 60)])
    loop = _spherical_j_loop if spherical else _bessel_j_loop
    ref = np.array([loop(n, float(t)) for t in x]).T
    np.testing.assert_array_equal(_miller(spherical, n, x, range(n + 1)), ref)
    # storing only some rows changes nothing in them
    rows = [n, 1] if n > 1 else [n]
    np.testing.assert_array_equal(_miller(spherical, n, x, rows), ref[rows])
    for t in _EDGE_X:  # one point at a time
        np.testing.assert_array_equal(_miller(spherical, n, t, range(n + 1))[:, 0], loop(n, t))


def test_engine_matches_scipy_and_mpmath():
    sp = pytest.importorskip("scipy.special")
    mp = pytest.importorskip("mpmath")
    n = np.arange(81)[:, None]
    x = np.concatenate([np.linspace(-300.0, 300.0, 601), np.linspace(-1e4, 1e4, 201)])
    js = _miller(True, 80, x, range(81))
    assert np.abs(js - sp.spherical_jn(n, x)).max() < 1e-14
    small = np.abs(x) <= 300.0
    jb = _miller(False, 80, x, range(81))
    assert np.abs(jb[:, small] - sp.jv(n, x[small])).max() < 1e-14
    # scipy's jv is itself off by up to ~5e-14 at |x| ~ 1e3..1e4 (against
    # mpmath), so the larger arguments are checked against mpmath
    mp.mp.dps = 30
    for i in np.flatnonzero(~small)[::40]:
        ref = [float(mp.besselj(k, mp.mpf(float(x[i])))) for k in range(81)]
        assert np.abs(jb[:, i] - ref).max() < 1e-14


def test_start_index_covers_large_arguments():
    # a start measured from n alone ends the recurrence too close to the
    # turning point at order |x| (these were 0.8% and 3.5e-9 off)
    sp = pytest.importorskip("scipy.special")
    assert abs(_miller(False, 10, 1e4, [10])[0, 0] - 0.0071143123833542745) < 1e-14  # mpmath
    assert abs(kbasis_closed("chebyshev_t", 0, 20.0) - sp.j0(20.0 * math.pi)) < 1e-14


def test_non_finite_arguments_raise():
    for call in (
        lambda: _miller(False, 3, math.nan, [3]),
        lambda: _miller(True, 3, math.nan, [3]),
        lambda: _miller(False, 3, math.inf, [3]),
        lambda: _miller(True, 3, -math.inf, range(4)),
    ):
        with pytest.raises(ParameterError, match="x must be finite"):
            call()
    # kbasis_closed names its own argument, as kbasis_rows does, even where z is also not real
    for call in (
        lambda: kbasis_closed("legendre", 3, [0.5, math.nan]),
        lambda: kbasis_closed("chebyshev_t", 3, [0.5, math.inf]),
        lambda: kbasis_closed("chebyshev_u", 0, math.nan),
        lambda: kbasis_closed("legendre", 3, complex(0.5, math.nan)),
    ):
        with pytest.raises(ParameterError, match="z must be finite"):
            call()


@pytest.mark.parametrize(
    "family, n", [("legendre", 3), ("chebyshev_t", 0), ("chebyshev_t", 40), ("chebyshev_u", 7)]
)
def test_closed_array_matches_per_point_calls(family, n):
    t = np.concatenate([np.linspace(-20.0, 20.0, 999), [0.0]])
    per_point = np.array([kbasis_closed(family, n, float(v)) for v in t])
    np.testing.assert_array_equal(kbasis_closed(family, n, t), per_point)


def test_shannon_jets_match_per_sample_sum(rng):
    samples = rng.uniform(-1.0, 1.0, 65)
    f = ShannonCombo(samples, first_index=-32)
    ref = np.zeros(16, dtype=np.complex128)
    for m, s in zip(-32 + np.arange(65), samples):
        ref += s * Sinc().chromatic_jet("legendre", 0.3 - m, 15)
    # one product instead of the loop: 65 terms, each |K^n[sinc]| <= 1
    atol = 65 * np.finfo(float).eps * np.abs(samples).sum()
    np.testing.assert_allclose(f.chromatic_jet("legendre", 0.3, 15), ref, rtol=0, atol=atol)
    with pytest.raises(ParameterError, match="t must be real"):  # real t only, as per sample before
        f.chromatic_jet("legendre", 0.3 + 0.1j, 15)


def test_shannon_decay_matches_per_offset_calls():
    """|K^15[sinc](0.25 - m)|, |m| <= 64, in one call: each offset's one-point Miller row."""
    ms = np.arange(-64, 65)
    for m, v in zip(ms, np.abs(kbasis_closed("legendre", 15, 0.25 - ms))):
        assert v == abs(math.sqrt(31) * _miller(True, 15, math.pi * (0.25 - m), range(16))[15, 0])


def test_tiny_arguments_keep_their_leading_term():
    """Below |x| = 1e-14 a row is its series' leading term, not 0."""
    assert _miller(True, 1, 3e-15, [1])[0, 0] == pytest.approx(1e-15, rel=1e-15)
    assert _miller(False, 2, -4e-15, [2])[0, 0] == pytest.approx(2e-30, rel=1e-15)
    assert _miller(True, 1, 0.0, [1])[0, 0] == 0.0 and _miller(False, 0, 0.0, [0])[0, 0] == 1.0
