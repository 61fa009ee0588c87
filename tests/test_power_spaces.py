import math
import warnings

import numpy as np
import pytest

from chromex import (
    Exponential,
    NumericError,
    ParameterError,
    Sinc,
    beta_sequence,
    cd_diagonal,
    cd_kernel,
    chebyshev_exponential_norm,
    check_conditions,
    eval_all_p,
    hermite_exponential_norm,
    nu_sequence,
    sigma_sequence,
)


def test_conditions_hermite_all_pass():
    report = check_conditions("hermite", 10_000, 3.0)
    assert report.all_pass()


def test_conditions_legendre_c1_fails():
    report = check_conditions("legendre", 5_000)
    assert not report.flags["C1"]


def test_conditions_laguerre():
    report = check_conditions("laguerre", 10_000)
    assert report.flags["C1"]
    assert report.flags["C4"]          # harmonic sums keep growing
    assert not report.flags["C2"]      # first difference is constant 1
    assert report.evidence["sum_inv_gamma"] > 5.0


def test_conditions_horizon_guard():
    with pytest.raises(ParameterError):
        check_conditions("hermite", 50)


def test_exponential_jet_reduction_exact():
    # |K^k[e^{iwt}](t)|^2 equals p_k(w)^2 through the jet machinery
    f = Exponential(1.3)
    jet = f.chromatic_jet("hermite", 0.7, 50)
    pv = eval_all_p("hermite", 50, 1.3)
    assert np.abs(np.abs(jet) ** 2 - pv ** 2).max() < 1e-12


def test_nu_t_independence_for_exponentials():
    f = Exponential(0.8)
    a = nu_sequence("hermite", f, 0.0, 2000)
    b = nu_sequence("hermite", f, 1.0, 2000)
    np.testing.assert_array_equal(a.values, b.values)


def test_nu_hermite_limit():
    diag = nu_sequence("hermite", Exponential(1.0), 0.0, 40_000)
    ref = math.exp(1.0) / math.sqrt(4 * math.pi)
    assert abs(diag.averaged_tail - ref) / ref < 0.05


def test_nu_vanishes_for_finite_energy_signal():
    diag = nu_sequence("legendre", Sinc(), 0.0, 4000)
    assert diag.values[-1] < 1e-2
    assert diag.averaged_tail < 1e-2


def test_beta_consistent_with_nu():
    f = Exponential(1.0)
    beta = beta_sequence("hermite", f, 0.0, 100_000)
    nu = nu_sequence("hermite", f, 0.0, 100_000)
    assert abs(beta.averaged_tail / 2.0 - nu.averaged_tail) / nu.averaged_tail < 0.02


def test_beta_oscillates_for_bounded_family():
    with pytest.warns(UserWarning):
        beta = beta_sequence("legendre", Exponential(0.5), 0.0, 20_000)
    assert beta.oscillation > 0.1


def test_sigma_rejects_equal_frequencies():
    with pytest.raises(ParameterError):
        sigma_sequence("hermite", 1.0, 1.0, 0.0, 100)


def test_sigma_decays_for_distinct_frequencies():
    diag = sigma_sequence("hermite", 1.0, 2.0, 0.0, 100_000)
    assert diag.values[-1] <= 0.05


def test_sigma_cauchy_schwarz():
    N = 20_000
    for om, sg in ((0.5, 1.5), (1.0, 2.5)):
        s = sigma_sequence("hermite", om, sg, 0.0, N)
        nu_o = nu_sequence("hermite", Exponential(om), 0.0, N)
        nu_s = nu_sequence("hermite", Exponential(sg), 0.0, N)
        bound = math.sqrt(nu_o.values[-1] * nu_s.values[-1])
        assert s.values[-1] <= bound + 1e-12


def test_chebyshev_norm_exact_at_zero():
    for n in (4, 10, 64):
        formula, direct = chebyshev_exponential_norm(0.0, n)
        assert formula == pytest.approx(1.0, abs=1e-14)
        assert direct == pytest.approx(1.0, abs=1e-14)


def test_chebyshev_norm_agreement_and_convergence():
    formula, direct = chebyshev_exponential_norm(0.5, 1000)
    assert abs(formula - direct) <= 1e-10
    assert abs(direct - 1.0) <= 2e-3
    _, d500 = chebyshev_exponential_norm(0.5, 500)
    _, d2000 = chebyshev_exponential_norm(0.5, 2000)
    assert abs(d2000 - 1.0) < abs(d500 - 1.0) / 2  # O(1/n) decay


def test_chebyshev_norm_domain():
    with pytest.raises(ParameterError):
        chebyshev_exponential_norm(1.0, 10)


def test_hermite_norm_values():
    est0 = hermite_exponential_norm(0.0, 50_000)
    ref0 = 1.0 / (4 * math.pi) ** 0.25
    assert abs(est0 - ref0) / ref0 < 0.05
    est10 = hermite_exponential_norm(1.0, 50_000)
    est15 = hermite_exponential_norm(1.5, 50_000)
    assert est15 > est10  # monotone in |omega|


def test_denominator_normalization():
    # sum 1/gamma_k stays within 3 of 2 sqrt(2) (sqrt(n+2) - 1)
    n = np.arange(1_000_001, dtype=np.float64)
    s = np.cumsum(np.sqrt(2.0 / (n + 1.0)))
    ref = 2.0 * math.sqrt(2.0) * (np.sqrt(n + 2.0) - 1.0)
    assert np.abs(s - ref).max() <= 3.0


@pytest.mark.parametrize("call", [
    lambda N: nu_sequence("hermite", Exponential(1.0), 0.0, N),
    lambda N: nu_sequence("legendre", Sinc(), 0.0, N),
    lambda N: sigma_sequence("hermite", 1.0, 2.0, 0.0, N),
    lambda N: beta_sequence("hermite", Exponential(1.0), 0.0, N),
    lambda N: hermite_exponential_norm(1.0, N),
    lambda N: cd_kernel("legendre", N, 0.5, 1.0),
    lambda N: cd_diagonal("legendre", N, 0.5),  # not n, the gamma_N it reads
])
def test_negative_order_is_a_parameter_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way
        with pytest.raises(ParameterError, match="N must be nonnegative"):
            call(-1)


@pytest.mark.parametrize("call, name", [
    (lambda w: nu_sequence("hermite", Exponential(w), 0.0, 50), "omega"),
    (lambda w: beta_sequence("hermite", Exponential(w), 0.0, 50), "omega"),
    (lambda w: hermite_exponential_norm(w, 50), "omega"),
    (lambda w: sigma_sequence("legendre", w, 0.5, 0.0, 50), "omega"),
    (lambda w: sigma_sequence("legendre", 0.5, w, 0.0, 50), "sigma"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_frequency_is_a_parameter_error(call, name, bad):
    # not "guard tripped ...; use a smaller N or |omega|", which cannot help
    with pytest.raises(ParameterError, match=f"non-finite argument; {name} must be finite"):
        call(bad)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, 1.0])
def test_conditions_kappa_guard(kappa):
    with pytest.raises(ParameterError, match="kappa must be finite and exceed 1"):
        check_conditions("hermite", 100, kappa)
