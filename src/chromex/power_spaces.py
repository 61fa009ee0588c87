"""Power-space machinery: growth conditions, normalized sums, seminorms.

For recursion coefficients with gamma_n -> infinity (and the regularity
conditions C1..C7 below), the normalized sums

    nu_n^f(t) = sum_{k<=n} |K^k[f](t)|^2 / sum_{k<=n} 1/gamma_k

converge to a t-independent limit and define a seminorm under which the
complex exponentials have finite positive norm.  The sequences oscillate
slowly (Plancherel-Rotach-type behavior), so the diagnostics offer a
Cesaro average over the final half alongside the raw values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .expansions import Exponential, FunctionSpec
from .families import (family_spec, gamma_beta_arrays, require_finite, require_nonnegative, three_term,
                       three_term_pair)


@dataclass(frozen=True)
class SequenceDiagnostics:
    values: np.ndarray
    averaged_tail: float   # Cesaro mean over the final half
    oscillation: float     # max - min over the final half

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SequenceDiagnostics":
        half = values[len(values) // 2 :]
        return cls(values, float(half.mean()), float(half.max() - half.min()))


@dataclass(frozen=True)
class ConditionReport:
    """Finite-horizon evidence for the seven growth conditions.

    The flags are heuristics, not proofs: C1 gamma -> inf; C2 the first
    difference -> 0; C3 eventual growth over shifts; C4 sum 1/gamma
    diverges; C5 sum 1/gamma^kappa converges; C6 sum |d gamma|/gamma^2
    converges; C7 sum |d^2 gamma|/gamma converges.
    """

    horizon: int
    kappa: float
    flags: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        return all(self.flags[f"C{i}"] for i in range(1, 8))


def check_conditions(family, horizon: int, kappa: float = 3.0) -> ConditionReport:
    spec = family_spec(family)
    if horizon < 100:
        raise ParameterError("horizon must be at least 100")
    if not 1 < kappa < math.inf:  # a NaN kappa fails this too
        raise ParameterError("kappa must be finite and exceed 1")
    gam, _ = gamma_beta_arrays(spec, horizon + 12)
    g = gam[: horizon + 1]
    d1 = np.diff(gam)[: horizon + 1]
    d2 = np.diff(gam, 2)[: horizon + 1]
    half = horizon // 2

    inv = 1.0 / g
    s4 = np.cumsum(inv)
    s5 = np.cumsum(inv ** kappa)
    s6 = np.cumsum(np.abs(d1[: horizon + 1]) / g ** 2)
    s7 = np.cumsum(np.abs(d2[: horizon + 1]) / g)

    evidence = {
        "gamma_end": float(g[-1]),
        "gamma_growth_ratio": float(g[-1] / g[int(math.isqrt(horizon))]),
        "max_abs_dgamma_tail": float(np.abs(d1[half:horizon]).max()),
        "min_shift_margin": float((gam[half + 10 : horizon + 10] - g[half:horizon]).min()),
        "sum_inv_gamma": float(s4[-1]),
        "sum_inv_gamma_recent": float(s4[-1] - s4[half]),
        "sum_inv_gamma_kappa": float(s5[-1]),
        "sum_inv_gamma_kappa_recent": float(s5[-1] - s5[half]),
        "sum_dgamma_over_gamma2": float(s6[-1]),
        "sum_dgamma_over_gamma2_recent": float(s6[-1] - s6[half]),
        "sum_d2gamma_over_gamma": float(s7[-1]),
        "sum_d2gamma_over_gamma_recent": float(s7[-1] - s7[half]),
    }
    flags = {
        "C1": evidence["gamma_growth_ratio"] >= 5.0,
        "C2": evidence["max_abs_dgamma_tail"] <= 0.01,
        "C3": evidence["min_shift_margin"] > 0.0,
        "C4": evidence["sum_inv_gamma_recent"] >= 0.1,
        "C5": evidence["sum_inv_gamma_kappa_recent"] <= 0.01 * (evidence["sum_inv_gamma_kappa"] + 1e-300),
        "C6": evidence["sum_dgamma_over_gamma2_recent"] <= 0.01 * (evidence["sum_dgamma_over_gamma2"] + 1e-300),
        "C7": evidence["sum_d2gamma_over_gamma_recent"] <= 0.01 * (evidence["sum_d2gamma_over_gamma"] + 1e-300),
    }
    if spec.tag == "hermite":
        # gamma_n = sqrt((n+1)/2) is of the form c(n+1)^p with 0 < p < 1,
        # for which all seven conditions hold analytically
        flags = {key: True for key in flags}
    return ConditionReport(horizon, kappa, flags, evidence)


_GUARD_TRIPPED = "polynomial magnitude guard tripped (|p| > 1e100); use a smaller N or |omega|"


def _guarded(p: np.ndarray) -> np.ndarray:
    """p, once every |p_k| <= 1e100 (a NaN trips the guard too)."""
    if not (np.abs(p) <= 1e100).all():
        raise NumericError(_GUARD_TRIPPED)
    return p


def _squared_jet_values(spec, f: FunctionSpec, t: float, gam, bet) -> np.ndarray:
    """|K^k[f](t)|^2 for k < len(gam), exact fast path for exponentials."""
    if isinstance(f, Exponential):
        # |K^k[e^{i omega t}]| = |p_k(omega)|: one pass of the recurrence
        p = _guarded(three_term(gam, bet, require_finite(float(f.omega), "omega")))
        return np.multiply(p, p, out=p)
    jet = f.chromatic_jet(spec, t, len(gam) - 1)
    return np.abs(jet) ** 2


def nu_sequence(family, f: FunctionSpec, t: float, N: int) -> SequenceDiagnostics:
    """nu_n = sum_{k<=n} |K^k[f](t)|^2 / sum_{k<=n} 1/gamma_k for n <= N."""
    spec = family_spec(family)
    gam, bet = gamma_beta_arrays(spec, require_nonnegative(N))
    num = np.cumsum(_squared_jet_values(spec, f, t, gam, bet))
    den = 1.0 / gam  # in place below: the peak stays at the guard (gam, bet, p, |p|)
    return SequenceDiagnostics.from_values(np.divide(num, np.cumsum(den, out=den), out=num))


def beta_sequence(family, f: FunctionSpec, t: float, N: int) -> SequenceDiagnostics:
    """beta_n = gamma_n (|K^n[f](t)|^2 + |K^{n+1}[f](t)|^2) for n <= N."""
    spec = family_spec(family)
    report = check_conditions(spec, max(100, min(require_nonnegative(N), 10_000)))
    if not report.all_pass():
        failing = [k for k, v in report.flags.items() if not v]
        warnings.warn(
            f"{spec.tag}: conditions {failing} not evidenced; "
            "beta_n need not converge",
            stacklevel=2,
        )
    gam, bet = gamma_beta_arrays(spec, N + 1)
    sq = _squared_jet_values(spec, f, t, gam, bet)
    return SequenceDiagnostics.from_values(gam[:-1] * (sq[:-1] + sq[1:]))


def sigma_sequence(family, omega: float, sigma: float, t: float, N: int) -> SequenceDiagnostics:
    """|sigma_n| for the cross sums of two exponentials.

    sigma_n = sum_{k<=n} p_k(omega) p_k(sigma) e^{i(omega-sigma)t} over
    sum_{k<=n} 1/gamma_k; the returned values are magnitudes (the phase
    e^{i(omega-sigma)t} is unimodular, so t does not affect them).
    """
    if omega == sigma:
        raise ParameterError("omega == sigma: use nu_sequence")
    gam, bet = gamma_beta_arrays(family, require_nonnegative(N))
    prods, ps = three_term_pair(gam, bet, require_finite(float(omega), "omega"), float(sigma))
    _guarded(prods)
    require_finite(float(sigma), "sigma")  # after omega's guard, as when each lane ran alone
    prods *= _guarded(ps)
    del ps  # and the sums below in place: the peak stays at the guard (gam, bet, two lanes, |ps|)
    np.abs(np.cumsum(prods, out=prods), out=prods)
    return SequenceDiagnostics.from_values(prods / np.cumsum(1.0 / gam))


def chebyshev_exponential_norm(x: float, n: int):
    """Finite-n Chebyshev power norm of e^{i pi x t}: (formula, direct).

    x is the frequency normalized by pi (|x| < 1).  The closed form is
    (2n+1)/(2n+2) + sin((2n+1) arccos x) / ((2n+2) sqrt(1-x^2)); the
    direct value is (1/(n+1)) sum_{k<=n} p_k(pi x)^2.
    """
    if not -1.0 < x < 1.0:
        raise ParameterError("x must lie in (-1, 1)")
    require_nonnegative(n, "n")
    theta = math.acos(x)
    formula = (2 * n + 1) / (2 * n + 2) + math.sin((2 * n + 1) * theta) / (
        (2 * n + 2) * math.sqrt(1.0 - x * x)
    )
    # p_0 = 1, p_k = sqrt(2) T_k(x) = sqrt(2) cos(k theta)
    ks = np.arange(1, n + 1)
    direct = (1.0 + np.sum(2.0 * np.cos(ks * theta) ** 2)) / (n + 1)
    return float(formula), float(direct)


def hermite_exponential_norm(omega: float, N: int) -> float:
    """Estimate of the Hermite power norm of e^{i omega t}.

    Converges to e^{omega^2/2} / (4 pi)^(1/4); the Cesaro mean over the
    final half of the nu sequence damps the slow oscillation.
    """
    diag = nu_sequence("hermite", Exponential(omega), 0.0, N)
    return math.sqrt(max(0.0, diag.averaged_tail))
