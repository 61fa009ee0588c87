"""Chromatic approximations, error envelopes, local norms and identities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis_functions import _miller, kbasis_rows
from .chromatic_core import ChromaticTable, _i_pow, chromatic_jet_from_taylor, taylor_from_chromatic_jet
from .errors import ParameterError
from .families import FamilyId, _gauss_pass, family_spec, require_finite, require_nonnegative
from .orthopoly import eval_all_p, eval_p_grid


# ---------------------------------------------------------------------------
# test-signal specifications

class FunctionSpec:
    """A function together with its jets.  A subclass states the jet it
    knows in closed form; the base class derives the other one through the
    change of basis K^n = sum_k k2d[n][k] D^k."""

    def value(self, z):
        raise NotImplementedError

    def chromatic_jet(self, family, t, N) -> np.ndarray:
        """K^n[f](t), n <= N, converted from the Taylor jet at t."""
        return chromatic_jet_from_taylor(family, self.taylor_jet(t, N + 1), N)

    def taylor_jet(self, u, length) -> np.ndarray:
        """f^(k)(u)/k!, k < length, converted from the Legendre chromatic jet."""
        if type(self).chromatic_jet is FunctionSpec.chromatic_jet:
            raise NotImplementedError(f"{type(self).__name__} states neither jet")
        cjet = self.chromatic_jet("legendre", float(u), length - 1)
        return taylor_from_chromatic_jet("legendre", cjet, length - 1)

    def norm_sq(self, family) -> float | None:
        """Squared local norm sum |K^n[f]|^2 under the given family, when
        known in closed form (used for truncation-error bounds)."""
        return None


@dataclass
class Exponential(FunctionSpec):
    """f(z) = e^{i w z}; K^n[f](t) = i^n p_n(w) e^{i w t} exactly."""

    omega: float

    def value(self, z):
        return np.exp(1j * self.omega * np.asarray(z, dtype=np.complex128))

    def chromatic_jet(self, family, t, N):
        pv = eval_all_p(family, N, self.omega)
        return _i_pow(np.arange(N + 1)) * pv * np.exp(1j * self.omega * t)

    def taylor_jet(self, u, length):
        # (i w)^k / k! as one running product, so long jets underflow to 0
        steps = np.r_[1.0, 1j * self.omega / np.arange(1, length)][:length]
        return np.cumprod(steps) * np.exp(1j * self.omega * u)


@dataclass
class Cosine(FunctionSpec):
    """f(z) = cos(w z), the real combination of two exponentials."""

    omega: float

    def value(self, z):
        return np.cos(self.omega * np.asarray(z, dtype=np.complex128))

    def chromatic_jet(self, family, t, N):
        plus = Exponential(self.omega).chromatic_jet(family, t, N)
        minus = Exponential(-self.omega).chromatic_jet(family, t, N)
        return 0.5 * (plus + minus)

    def taylor_jet(self, u, length):
        plus = Exponential(self.omega).taylor_jet(u, length)
        minus = Exponential(-self.omega).taylor_jet(u, length)
        return 0.5 * (plus + minus)


@dataclass
class Constant(FunctionSpec):
    c: float = 1.0

    def __post_init__(self):
        require_finite(self.c, "c")

    def value(self, z):
        return self.c * np.ones_like(np.asarray(z, dtype=np.complex128))

    def chromatic_jet(self, family, t, N):
        return self.c * Exponential(0.0).chromatic_jet(family, 0.0, N)  # K^n[1] = i^n p_n(0)

    def taylor_jet(self, u, length):
        coeff = np.zeros(length, dtype=np.complex128)
        coeff[0] = self.c
        return coeff


@lru_cache(maxsize=16)
def _sinc_connection(family: FamilyId, N: int) -> np.ndarray:
    """C[n, k] = i^(n-k) int p_n p^leg_k dmu_leg, n, k <= N, exact on the (N + 1)-point
    Gauss-Legendre rule (degree <= 2N); k > n and, if symmetric, odd n - k give exact 0."""
    nodes, w, Q = _gauss_pass(family_spec("legendre"), N + 1, N + 1)
    n, odd = np.arange(N + 1), 0.0 if family_spec(family).symmetric else 1.0
    phase = np.array([1.0, 1j * odd, -1.0, -1j * odd])[(n[:, None] - n) % 4]
    C = np.tril(phase * ((eval_p_grid(family, N, nodes) * np.sqrt(w)) @ Q.T))
    C.flags.writeable = False
    return C


def _sinc_jets(family, ts, N):
    """K^n[sinc](t) = i^n int p_n(w) e^{iwt} dmu_leg = sum_k C[n, k] K^k_leg[sinc](t),
    n <= N, at every real t in ts, shape (N + 1, len(ts)); the Legendre jets
    (-1)^k sqrt(2k+1) j_k(pi t) come from one Miller pass (legendre skips C = I).
    As sum_k |K^k_leg|^2 <= 1, row n rounds off by about (N + 1) eps c_n, where
    c_n = ||C[n, :]||_2 also bounds |K^n[sinc]| (Cauchy-Schwarz)."""
    spec = family_spec(family)
    n = np.arange(require_nonnegative(N) + 1)
    js = _miller(True, N, math.pi * require_finite(np.asarray(ts), "t"), range(N + 1))
    jets = (((-1.0) ** n * np.sqrt(2 * n + 1))[:, None] * js).astype(np.complex128)
    return jets if spec.tag == "legendre" else _sinc_connection(spec.id, N) @ jets


@dataclass
class Sinc(FunctionSpec):
    """sinc z = sin(pi z)/(pi z); unit norm under the Legendre functional."""

    def norm_sq(self, family):
        return 1.0 if family_spec(family).tag == "legendre" else None

    def value(self, z):
        zs = np.asarray(z, dtype=np.complex128)
        out = np.ones_like(zs)
        nz = zs != 0
        out[nz] = np.sin(math.pi * zs[nz]) / (math.pi * zs[nz])
        return out

    def chromatic_jet(self, family, t, N):
        return _sinc_jets(family, [t], N)[:, 0]


@dataclass
class ShannonCombo(FunctionSpec):
    """f(t) = sum_m samples[m] sinc(t - m0 - m): the Shannon interpolant
    of unit-spaced samples starting at integer m0 (Legendre functional)."""

    samples: np.ndarray
    first_index: int = 0

    def value(self, z):
        idx = self.first_index + np.arange(len(self.samples))
        return Sinc().value(np.asarray(z)[..., None] - idx) @ self.samples

    def chromatic_jet(self, family, t, N):
        idx = self.first_index + np.arange(len(self.samples))
        return _sinc_jets(family, t - idx, N) @ self.samples


def _taylor_sum(jet, u, z):
    """sum_k jet[k] (z - u)^k at scalar or array z, one row sum per point; a
    real z stays real, so (z - u)^k is a float64 power."""
    dz = np.asarray(z) - u
    return np.sum(jet * dz[..., None] ** np.arange(len(jet)), axis=-1)


@dataclass
class JetFunction(FunctionSpec):
    """A function known only through its Taylor jet f^(k)(u)/k! at its center u."""

    u: complex
    jet: np.ndarray

    def value(self, z):
        return _taylor_sum(self.jet, self.u, z)

    def taylor_jet(self, u, length):
        if u != self.u or length > len(self.jet):
            raise ParameterError("requested jet outside the stored one")
        return self.jet[:length]


# ---------------------------------------------------------------------------
# approximation and envelopes
# The evaluating functions below accept a `table=` and ignore it: kbasis_rows
# sizes its own.  It stays because acceptance criteria 3, 4 and 6 pass it.

@dataclass(frozen=True)
class ApproximationResult:
    """value and tail_bound are per-point arrays when z is an array."""

    value: complex | np.ndarray
    order: int
    tail_bound: float | np.ndarray | None


def _expansion_sum(jet, rows):
    """sum_k (-1)^k jet[k] rows[k]: the chromatic expansion with coefficients
    jet[k] = K^k[f](u) over basis rows[k] = K^k[m](z - u), per point of rows."""
    return ((-1.0) ** np.arange(len(jet)) * jet) @ rows


def _envelope(rows):
    """E_N = sqrt(max(0, 1 - sum_{k<=N} |K^k[m]|^2)), clamped at 0, per point of rows K^0..K^N[m]."""
    return np.sqrt(np.maximum(0.0, 1.0 - np.sum(np.abs(rows) ** 2, axis=0)))


def chromatic_approximation(family, f: FunctionSpec, u, N: int, z,
                            table: ChromaticTable | None = None) -> ApproximationResult:
    """CA[f, N, u](z) = sum_{k<=N} (-1)^k K^k[f](u) K^k[m](z - u), for
    scalar or array z, with the tail bound when ||f|| is known and z real."""
    spec = family_spec(family)
    dz = np.asarray(z) - u
    jet = f.chromatic_jet(spec, u, N)
    rows = kbasis_rows(spec, 0, N, dz)
    value = _expansion_sum(jet, rows)
    tail = None
    fnorm = f.norm_sq(spec)
    if fnorm is not None and np.isrealobj(z) and np.isreal(u):
        tail_energy = max(0.0, fnorm - float(np.sum(np.abs(jet) ** 2)))
        tail = math.sqrt(tail_energy) * _per_point(_envelope(rows), dz)
    return ApproximationResult(value if dz.ndim else complex(value[0]), N, tail)


def chromatic_approximation_grid(family, f, u, N, zs, table=None):
    spec = family_spec(family)
    return _expansion_sum(f.chromatic_jet(spec, u, N), kbasis_rows(spec, 0, N, np.asarray(zs) - u))


def _per_point(values, z):
    """A float for scalar z, else the array of per-point values."""
    return float(values[0]) if np.ndim(z) == 0 else values


def error_envelope(family, N: int, t, table: ChromaticTable | None = None):
    """E_N(t) at a scalar t (a float) or at an array of t, in one pass."""
    return _per_point(_envelope(kbasis_rows(family, 0, N, np.asarray(t, dtype=float))), t)


def local_norm_sq(family, f: FunctionSpec, t: float, N: int) -> float:
    """sum_{n<=N} |K^n[f](t)|^2; t-independent in the limit for f in L^2_M."""
    jet = f.chromatic_jet(family_spec(family), t, N)
    return float(np.sum(np.abs(jet) ** 2))


def local_scalar(family, f: FunctionSpec, g: FunctionSpec, t: float, N: int) -> complex:
    spec = family_spec(family)
    jf = f.chromatic_jet(spec, t, N)
    jg = g.chromatic_jet(spec, t, N)
    return complex(np.sum(jf * np.conj(jg)))


def local_convolution(family, f: FunctionSpec, g: FunctionSpec, u: float, t: float, N: int) -> complex:
    spec = family_spec(family)
    return complex(_expansion_sum(f.chromatic_jet(spec, u, N), g.chromatic_jet(spec, t - u, N)))


# ---------------------------------------------------------------------------
# identity verifiers: each classical identity is a chromatic expansion, and
# each returns its residual, never asserts

def _expansion_residual(family, f: FunctionSpec, z, N: int):
    """| f(z) - CA[f, N, 0](z) |; the basis goes first, so it rejects a non-finite z."""
    ca = chromatic_approximation_grid(family, f, 0.0, N, z)
    return _per_point(np.abs(f.value(z) - ca), z)


def identity_exponential(family, omega: float, z, N: int,
                         table: ChromaticTable | None = None):
    """| e^{i w z} - sum_n (-i)^n p_n(w) K^n[m](z) |, for scalar or array z:
    the expansion of e^{i w z} about 0, whose jet is i^n p_n(w)."""
    return _expansion_residual(family, Exponential(omega), z, N)


def identity_translation(family, u, z, N: int, table: ChromaticTable | None = None):
    """| m(z+u) - sum_n (-1)^n K^n[m](u) K^n[m](z) |, for scalar or array z:
    the expansion of m about u, whose jet is K^n[m](u)."""
    z = np.asarray(z)
    s = _expansion_sum(kbasis_rows(family, 0, N, u)[:, 0], kbasis_rows(family, 0, N, z))
    return _per_point(np.abs(kbasis_rows(family, 0, 0, z + u)[0] - s), z)


def identity_constant_one(family, z, N: int, table: ChromaticTable | None = None):
    """| 1 - sum_k (-1)^k K^k[1](0) K^k[m](z) |, for scalar or array z.

    The coefficients K^k[1](0) = i^k p_k(0) come from the constant's jet,
    not from any printed sign pattern.
    """
    return _expansion_residual(family, Constant(1.0), z, N)


def taylor_vs_chromatic_comparison(family, f: FunctionSpec, u: float, N: int, grid,
                                   table: ChromaticTable | None = None):
    """Rows (t, f(t), CA[f,N,u](t), Taylor_N[f,u](t)) over the grid."""
    spec = family_spec(family)
    grid = np.asarray(grid, dtype=float)
    ca = chromatic_approximation_grid(spec, f, u, N, grid)
    taylor = _taylor_sum(f.taylor_jet(u, N + 1), u, grid)
    fvals = f.value(grid)
    return [
        (float(t), complex(fv), complex(cv), complex(tv))
        for t, fv, cv, tv in zip(grid, fvals, ca, taylor)
    ]
