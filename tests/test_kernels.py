"""The numba kernels and their pure-numpy fallbacks must agree exactly."""

import numpy as np
import pytest

from chromex import _kernels as k
from chromex.families import gamma_beta_arrays

PAIRS = [
    (k.poly_sequence, k.poly_sequence_py),
    (k.poly_grid, k.poly_grid_py),
    (k.poly_pair_products, k.poly_pair_products_py),
    (k.christoffel_weights, k.christoffel_weights_py),
    (k.spherical_j_sequence, k.spherical_j_sequence_py),
    (k.bessel_j_sequence, k.bessel_j_sequence_py),
]


def test_selection_flag():
    import os

    disabled = os.environ.get("CHROMEX_NO_NUMBA", "").lower() in ("1", "true", "yes", "on")
    if disabled:
        assert not k.USING_NUMBA


def test_poly_sequence_variants():
    gam, bet = gamma_beta_arrays("jacobi(0.5,-0.25)", 40)
    a = k.poly_sequence(gam, bet, 1.3)
    b = k.poly_sequence_py(gam, bet, 1.3)
    np.testing.assert_array_equal(a, b)


def test_poly_grid_variants():
    gam, bet = gamma_beta_arrays("hermite", 30)
    om = np.linspace(-3, 3, 17)
    np.testing.assert_array_equal(k.poly_grid(gam, bet, om), k.poly_grid_py(gam, bet, om))


def test_pair_products_variants():
    gam, bet = gamma_beta_arrays("hermite", 500)
    a = k.poly_pair_products(gam, bet, 1.0, 2.0)
    b = k.poly_pair_products_py(gam, bet, 1.0, 2.0)
    np.testing.assert_array_equal(a, b)


def test_christoffel_variants():
    gam, bet = gamma_beta_arrays("laguerre", 31)
    nodes = np.linalg.eigvalsh(np.diag(-bet[:32]) + np.diag(gam[:31], 1) + np.diag(gam[:31], -1))
    a = k.christoffel_weights(gam, bet, nodes)
    b = k.christoffel_weights_py(gam, bet, nodes)
    np.testing.assert_array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-10)


def test_bessel_variants():
    for x in (-7.3, 0.0, 0.4, 25.0):
        np.testing.assert_array_equal(k.spherical_j_sequence(20, x), k.spherical_j_sequence_py(20, x))
        np.testing.assert_array_equal(k.bessel_j_sequence(20, x), k.bessel_j_sequence_py(20, x))
