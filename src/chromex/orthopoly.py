"""Orthonormal polynomial evaluation and Christoffel-Darboux kernels."""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ParameterError
from .families import gamma_beta_arrays, require_nonnegative, require_real, three_term, three_term_ends


def _finite(a, N: int):
    """a, once checked finite: Python floats overflow silently, and numpy
    arrays do under the errstate that eval_all_p sets."""
    if not np.isfinite(a).all():
        raise NumericError(f"p_n(omega), n <= {N}, overflows float64; use a smaller N or |omega|")
    return a


def eval_all_p(family, N: int, omega) -> np.ndarray:
    """p_0(omega)..p_N(omega) by the forward recurrence: shape (N+1,) at a scalar omega,
    (N+1, len(omega)) over an array.

    Raises NumericError once a value overflows float64.
    """
    omega = require_real(omega, "omega")
    gam, bet = gamma_beta_arrays(family, require_nonnegative(N))
    with np.errstate(over="ignore", invalid="ignore"):
        values = three_term(gam, bet, omega)
    return _finite(values, N)


def cd_kernel(family, N: int, omega: float, sigma: float) -> float:
    """sum_{k<=N} p_k(omega) p_k(sigma) via the Christoffel-Darboux quotient.

    Requires omega != sigma; use cd_diagonal on the diagonal.
    """
    if omega == sigma:
        raise ParameterError("omega == sigma: use cd_diagonal")
    omega, sigma = float(require_real(omega, "omega")), float(require_real(sigma, "sigma"))
    gam, bet = gamma_beta_arrays(family, require_nonnegative(N) + 1)
    po, po1, ps, ps1 = three_term_ends(gam, bet, omega, sigma)
    return float(_finite(float(gam[N]) * (po1 * ps - ps1 * po) / (omega - sigma), N + 1))


def cd_diagonal(family, N: int, omega: float) -> float:
    """sum_{k<=N} p_k(omega)^2 at a float omega, a sum of positive terms."""
    p = eval_all_p(family, N, float(require_real(omega, "omega")))
    with np.errstate(over="ignore"):  # every p_k is finite, but p_k^2 may not be: _finite refuses it
        return _finite(float(p @ p), N)
