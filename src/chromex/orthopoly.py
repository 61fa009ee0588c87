"""Orthonormal polynomial evaluation and Christoffel-Darboux kernels."""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ParameterError
from .families import (family_spec, gamma_beta_arrays, require_finite, require_nonnegative, three_term,
                       three_term_ends, three_term_jet_ends)


def _finite(a, N: int):
    """a, once checked finite: Python floats overflow silently, and numpy
    arrays do under the errstate that eval_p_grid sets."""
    if not np.isfinite(a).all():
        raise NumericError(f"p_n(omega), n <= {N}, overflows float64; use a smaller N or |omega|")
    return a


def eval_all_p(family, N: int, omega: float) -> np.ndarray:
    """p_0(omega)..p_N(omega) at a single omega, by the forward recurrence.

    Raises NumericError once a value overflows float64.
    """
    gam, bet = gamma_beta_arrays(family_spec(family), require_nonnegative(N))
    x = require_finite(float(omega), "omega")
    return _finite(three_term(gam, bet, x), N)


def eval_p_grid(family, N: int, omegas) -> np.ndarray:
    """p_n(omega) for n <= N over a grid; shape (N+1, len(omegas)).

    Raises NumericError once a value overflows float64.
    """
    omegas = require_finite(np.asarray(omegas, dtype=np.float64), "omega")
    gam, bet = gamma_beta_arrays(family, require_nonnegative(N))
    with np.errstate(over="ignore", invalid="ignore"):
        values = three_term(gam, bet, omegas)
    return _finite(values, N)


def cd_kernel(family, N: int, omega: float, sigma: float) -> float:
    """sum_{k<=N} p_k(omega) p_k(sigma) via the Christoffel-Darboux quotient.

    Requires omega != sigma; use cd_diagonal on the diagonal.
    """
    if omega == sigma:
        raise ParameterError("omega == sigma: use cd_diagonal")
    omega, sigma = require_finite(float(omega), "omega"), require_finite(float(sigma), "sigma")
    gam, bet = gamma_beta_arrays(family, require_nonnegative(N) + 1)
    po, po1, ps, ps1 = three_term_ends(gam, bet, omega, sigma)
    return float(_finite(float(gam[N]) * (po1 * ps - ps1 * po) / (omega - sigma), N + 1))


def cd_diagonal(family, N: int, omega: float) -> float:
    """sum_{k<=N} p_k(omega)^2 via gamma_N (p'_{N+1} p_N - p_{N+1} p'_N)."""
    gam, bet = gamma_beta_arrays(family, require_nonnegative(N) + 1)
    p, p1, d, d1 = three_term_jet_ends(gam, bet, require_finite(float(omega), "omega"))
    return _finite(float(gam[N]) * (d1 * p - p1 * d), N + 1)
