"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they execute.
"""

import math

import numpy as np

from chromex import (
    Exponential,
    apply_filter,
    build_table,
    chebyshev_exponential_norm,
    chromatic_approximation,
    chromatic_approximation_grid,
    conversion_matrices,
    design_ls,
    error_envelope,
    eval_all_p,
    hermite_exponential_norm,
    identity_constant_one,
    kbasis_series,
    local_norm_sq,
    moment_analytic,
    moment_jacobi_matrix,
    orthonormality_matrix,
    Sinc,
)
from chromex.basis_functions import _miller

FAMILIES = [
    "legendre",
    "chebyshev_t",
    "chebyshev_u",
    "gegenbauer(1)",
    "jacobi(0.5,-0.25)",
    "hermite",
    "laguerre",
    "herron",
]


def report(num, name, ok, detail):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_orthonormality():
    worst = 0.0
    for fam in FAMILIES:
        G = orthonormality_matrix(fam, 40)
        worst = max(worst, float(np.abs(G - np.eye(41)).max()))
    report(1, "operator orthonormality", worst <= 1e-8, f"max deviation {worst:.3e}")


def test_criterion_02_legendre_sinc_identity():
    table = build_table("legendre", 20, 192)
    grid = np.round(np.arange(-50, 51) * 0.1, 10)
    worst = 0.0
    for t in grid:
        js = _miller(True, 20, math.pi * t, range(21))[:, 0]
        vals = np.array([kbasis_series(table, n, complex(t)) for n in range(21)])
        refs = (-1.0) ** np.arange(21) * np.sqrt(2 * np.arange(21) + 1) * js
        worst = max(worst, float(np.abs(vals - refs).max()))
    report(2, "sinc / spherical-Bessel identity", worst <= 1e-8, f"max |series-closed| {worst:.3e}")


def test_criterion_03_bessel_constant_one():
    table = build_table("chebyshev_t", 80, 192)
    worst = 0.0
    orders = {}
    for z in (0.3, 0.6, 1.2):
        best = None
        for N in range(4, 81, 4):
            r = identity_constant_one("chebyshev_t", z, N, table)
            if r <= 1e-8:
                best = (N, r)
                break
        assert best is not None, f"no N <= 80 reached 1e-8 at z={z}"
        orders[z] = best[0]
        worst = max(worst, best[1])
    report(3, "constant-one Bessel identity", worst <= 1e-8,
           f"max residual {worst:.3e} at adaptive N {orders}")


def test_criterion_04_pointwise_convergence():
    table = build_table("legendre", 40, 192)
    f = Exponential(2.0)
    grid = np.arange(-2.0, 2.0001, 0.1)
    ca = chromatic_approximation_grid("legendre", f, 0.0, 40, grid, table)
    worst = float(np.abs(ca - np.exp(2j * grid)).max())
    zc = 1.0 + 0.3j
    res = chromatic_approximation("legendre", f, 0.0, 40, zc, table)
    worst = max(worst, abs(res.value - np.exp(2j * zc)))
    report(4, "pointwise expansion convergence", worst <= 1e-8, f"max |CA - f| {worst:.3e}")


def test_criterion_05_local_norm_invariance():
    worst = 0.0
    for t in (0.0, 0.37, 1.5, 3.0):
        worst = max(worst, abs(local_norm_sq("legendre", Sinc(), t, 60) - 1.0))
    report(5, "local norm value and t-invariance", worst <= 1e-6, f"max |norm^2 - 1| {worst:.3e}")


def test_criterion_06_envelope_flatness():
    table = build_table("legendre", 3, 64)
    at_zero = error_envelope("legendre", 3, 0.0, table)
    ratio = (error_envelope("legendre", 3, 0.1, table) ** 2
             / error_envelope("legendre", 3, 0.05, table) ** 2)
    ok = at_zero == 0.0 and 2 ** 8 / 1.3 <= ratio <= 2 ** 8 * 1.3
    report(6, "error envelope flatness", ok, f"E_3(0)={at_zero}, ratio {ratio:.1f} vs 256")


def test_criterion_07_fir_reproduction():
    _, rep = design_ls("legendre", 32, 64)
    _, rep_mono = design_ls("legendre", 32, 64, target="monomial")
    contrast = rep_mono.passband_median_relative_error / rep.passband_median_relative_error
    errs = [design_ls("legendre", 32, hw)[1].passband_max_error for hw in (32, 48, 64)]
    monotone = errs[0] >= errs[1] >= errs[2]
    ok = rep.passband_max_error <= 1e-4 and contrast >= 100.0 and monotone
    report(7, "FIR design accuracy and contrast", ok,
           f"passband err {rep.passband_max_error:.2e}, relative contrast {contrast:.1e}, "
           f"errors over widths {[f'{e:.1e}' for e in errs]}")


def test_criterion_08_exponential_response():
    filt, rep = design_ls("legendre", 2, 64)
    omega = 0.5 * math.pi
    p2 = eval_all_p("legendre", 2, omega)[2]
    n = np.arange(-80, 100)
    samples = np.cos(omega * n)
    worst = 0.0
    for t0 in range(20):
        out = apply_filter(filt, samples, 80 + t0)
        ref = (-p2) * math.cos(omega * t0)  # Re(i^2 p_2(w) e^{i w t})
        worst = max(worst, abs(out - ref))
    ok = worst <= rep.passband_max_error
    report(8, "filter response on cosine samples", ok,
           f"max error {worst:.3e} vs passband error {rep.passband_max_error:.3e}")


def test_criterion_09_hermite_power_norm():
    est = hermite_exponential_norm(1.0, 200_000)
    ref = math.exp(0.5) / (4 * math.pi) ** 0.25
    dev = abs(est - ref) / ref
    report(9, "Hermite exponential norm", dev <= 0.05,
           f"estimate {est:.5f} vs {ref:.5f} ({100*dev:.2f}%)")


def test_criterion_10_chebyshev_power_norm():
    formula, direct = chebyshev_exponential_norm(0.5, 1000)
    ok = abs(formula - direct) <= 1e-10 and abs(direct - 1.0) <= 2e-3
    report(10, "Chebyshev exponential norm", ok,
           f"|formula-direct| {abs(formula-direct):.2e}, |direct-1| {abs(direct-1):.2e}")


def test_criterion_11_moment_oracles():
    worst = 0.0
    for fam in ("legendre", "chebyshev_t", "chebyshev_u", "hermite", "laguerre", "herron"):
        for k in range(31):
            ana = moment_analytic(fam, k)
            jac = moment_jacobi_matrix(fam, k)
            if ana == 0.0:
                worst = max(worst, abs(jac))
            else:
                worst = max(worst, abs(jac - ana) / abs(ana))
    report(11, "moment oracle agreement", worst <= 1e-10, f"worst relative error {worst:.3e}")


def test_criterion_12_lemma_bounds():
    ok = True
    margins = {}
    for fam, M, p in (("legendre", 2.0, 0.0), ("hermite", 2.0, 0.5)):
        table = build_table(fam, 60, 152)
        mats = conversion_matrices(fam, 60)
        kfac = np.array([math.factorial(k) for k in range(61)], dtype=float)
        lhs_b = np.abs(table.b[:, :61]) * kfac ** (1 - p)
        rhs_b = (M + 1.0) ** (2 * np.arange(61))
        lhs_m = np.abs(mats.k2d) * kfac[None, :] ** p
        rhs_m = (3 * M) ** np.arange(61)[:, None]
        ok_b = bool(np.all(lhs_b <= rhs_b + 1e-12))
        ok_m = bool(np.all(lhs_m <= rhs_m + 1e-12))
        margins[fam] = (float((lhs_b / rhs_b).max()), float((lhs_m / rhs_m).max()))
        ok = ok and ok_b and ok_m
    report(12, "coefficient bound inequalities", ok,
           f"largest bound fractions {margins}")
