import math

import numpy as np
import pytest

from chromex import (
    ParameterError,
    cd_diagonal,
    cd_kernel,
    eval_all_p,
    eval_p_grid,
    family_spec,
    gauss_quadrature,
)
from conftest import ALL_FAMILIES


def test_p0_is_one():
    for fam in ALL_FAMILIES:
        assert eval_all_p(fam, 0, 0.37).tolist() == [1.0]


def test_legendre_p1_at_pi():
    assert eval_all_p("legendre", 1, math.pi)[1] == pytest.approx(math.sqrt(3), rel=1e-14)


def test_chebyshev_t_p2_at_zero():
    assert eval_all_p("chebyshev_t", 2, 0.0)[2] == pytest.approx(-math.sqrt(2), rel=1e-14)


@pytest.mark.parametrize("family", [f for f in ALL_FAMILIES if family_spec(f).symmetric])
def test_parity(family):
    for om in (0.3, 1.1, 2.9):
        plus = eval_all_p(family, 50, om)
        minus = eval_all_p(family, 50, -om)
        signs = (-1.0) ** np.arange(51)
        np.testing.assert_allclose(minus, signs * plus, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_orthonormality_by_quadrature(family):
    nodes, w = gauss_quadrature(family, 64)
    P = eval_p_grid(family, 40, nodes)
    G = (P * w) @ P.T
    assert np.abs(G - np.eye(41)).max() < 1e-8


def test_cd_kernel_matches_direct_sum():
    cases = [("legendre", 30, 1.0, 2.0), ("hermite", 25, 0.3, -0.3)]
    for fam, N, om, sg in cases:
        po = eval_all_p(fam, N, om)
        ps = eval_all_p(fam, N, sg)
        direct = float(np.sum(po * ps))
        assert cd_kernel(fam, N, om, sg) == pytest.approx(direct, rel=1e-10)


def test_cd_kernel_order_zero():
    assert cd_kernel("laguerre", 0, 0.5, 2.5) == pytest.approx(1.0, rel=1e-12)


def test_cd_kernel_rejects_equal_arguments():
    with pytest.raises(ParameterError):
        cd_kernel("legendre", 5, 1.0, 1.0)


def test_cd_diagonal_matches_direct_sum():
    direct = float(np.sum(eval_all_p("legendre", 20, 0.5) ** 2))
    assert cd_diagonal("legendre", 20, 0.5) == pytest.approx(direct, rel=1e-9)
    assert cd_diagonal("herron", 0, 0.9) == pytest.approx(1.0, rel=1e-12)


def test_cd_diagonal_chebyshev_pattern():
    # p_0 = 1 and even T_k(0)^2 = 1 contribute 2 each: 1 + 2*5 = 11 at N=10
    assert cd_diagonal("chebyshev_t", 10, 0.0) == pytest.approx(11.0, rel=1e-12)


def test_grid_matches_scalar_evaluation():
    omegas = np.array([-1.5, 0.0, 0.4, 2.2])
    P = eval_p_grid("jacobi(0.5,-0.25)", 12, omegas)
    for i, om in enumerate(omegas):
        np.testing.assert_allclose(
            P[:, i], eval_all_p("jacobi(0.5,-0.25)", 12, om), rtol=1e-13
        )


@pytest.mark.parametrize("family", ["gegenbauer(2.5)", "gegenbauer(-0.3)", "jacobi(0.5,-0.5)"])
def test_orthonormality_at_general_parameters(family):
    nodes, w = gauss_quadrature(family, 48)
    P = eval_p_grid(family, 30, nodes)
    G = (P * w) @ P.T
    assert np.abs(G - np.eye(31)).max() < 1e-8


@pytest.mark.parametrize("call, name", [
    (lambda w: eval_all_p("hermite", 3, w), "omega"),
    (lambda w: cd_diagonal("legendre", 3, w), "omega"),
    (lambda w: eval_p_grid("hermite", 3, [0.5, w]), "omega"),
    (lambda w: cd_kernel("hermite", 3, w, 0.5), "omega"),
    (lambda w: cd_kernel("laguerre", 3, 0.5, w), "sigma"),
    (lambda w: cd_diagonal("hermite", 3, w), "omega"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_frequency_is_a_parameter_error(call, name, bad):
    # not the overflow remedy "use a smaller N or |omega|", which cannot help
    with pytest.raises(ParameterError, match=f"non-finite argument; {name} must be finite"):
        call(bad)
