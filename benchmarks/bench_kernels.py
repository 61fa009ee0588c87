"""Benchmark the numba kernels against their pure numpy/Python fallbacks.

Usage: python benchmarks/bench_kernels.py

The compiled variants are warmed up once before timing so JIT compilation
is excluded.  When numba is unavailable (or CHROMEX_NO_NUMBA is set) both
columns time the same fallback code.
"""

import time

import numpy as np

from chromex import _kernels as k
from chromex.families import gamma_beta_arrays, jacobi_matrix


def timeit(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    rows = []

    gam, bet = gamma_beta_arrays("hermite", 200_000)
    rows.append((
        "poly_sequence (hermite, N=2e5)",
        timeit(k.poly_sequence, gam, bet, 1.0),
        timeit(k.poly_sequence_py, gam, bet, 1.0),
    ))
    rows.append((
        "poly_pair_products (hermite, N=2e5)",
        timeit(k.poly_pair_products, gam, bet, 1.0, 2.0),
        timeit(k.poly_pair_products_py, gam, bet, 1.0, 2.0),
    ))

    gam2, bet2 = gamma_beta_arrays("legendre", 60)
    grid = np.linspace(-3.0, 3.0, 4096)
    rows.append((
        "poly_grid (legendre, N=60, 4096 pts)",
        timeit(k.poly_grid, gam2, bet2, grid),
        timeit(k.poly_grid_py, gam2, bet2, grid),
    ))

    gam3, bet3 = gamma_beta_arrays("laguerre", 63)
    nodes = np.linalg.eigvalsh(jacobi_matrix("laguerre", 64).dense())
    rows.append((
        "christoffel_weights (laguerre, 64 nodes)",
        timeit(k.christoffel_weights, gam3, bet3, nodes),
        timeit(k.christoffel_weights_py, gam3, bet3, nodes),
    ))

    def sph_many(fn):
        for x in np.linspace(0.1, 40.0, 500):
            fn(64, x)

    rows.append((
        "spherical_j_sequence (n=64, 500 args)",
        timeit(sph_many, k.spherical_j_sequence),
        timeit(sph_many, k.spherical_j_sequence_py),
    ))

    mode = "numba @njit" if k.USING_NUMBA else "fallback only (numba inactive)"
    print(f"kernel path: {mode}\n")
    print(f"{'kernel':<42s} {'compiled':>10s} {'fallback':>10s} {'speedup':>8s}")
    for name, tc, tp in rows:
        print(f"{name:<42s} {tc*1e3:9.2f}ms {tp*1e3:9.2f}ms {tp/tc:7.1f}x")


if __name__ == "__main__":
    # warm up JIT compilation outside the timings
    g, b = gamma_beta_arrays("hermite", 8)
    k.poly_sequence(g, b, 1.0)
    k.poly_pair_products(g, b, 1.0, 2.0)
    k.poly_grid(g, b, np.array([0.5]))
    k.christoffel_weights(g, b, np.array([0.5]))
    k.spherical_j_sequence(4, 1.0)
    k.bessel_j_sequence(4, 1.0)
    main()
