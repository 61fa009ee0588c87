import json
import math
import tracemalloc

import numpy as np
import pytest

from chromex import (
    FirFilter,
    NumericError,
    ParameterError,
    UnsupportedFamilyError,
    apply_filter,
    design_ls,
    eval_all_p,
    eval_p_grid,
    family_spec,
    load_filter,
    save_filter,
    shannon_decay_report,
    transfer_function,
)
from chromex.fir_design import _design_grid, _response, _solve_ls, _target_values


def test_tap_parity_structure():
    filt, _ = design_ls("legendre", 2, 16)
    np.testing.assert_array_equal(filt.taps, filt.taps[::-1])
    filt, _ = design_ls("legendre", 3, 16)
    np.testing.assert_array_equal(filt.taps, -filt.taps[::-1])
    assert filt.tap(0) == 0.0


def test_dc_response():
    # 33 taps over a 0.08 pi transition carry a few-percent ripple, so DC
    # accuracy is ripple-limited there; 129 taps reach the microscale
    filt, rep = design_ls("legendre", 0, 16)
    assert abs(transfer_function(filt, 0.0) - 1.0) <= rep.passband_max_error
    filt, _ = design_ls("legendre", 0, 64, refine_iterations=0)
    assert abs(transfer_function(filt, 0.0) - 1.0) < 1e-5
    filt, _ = design_ls("legendre", 3, 16)
    assert abs(transfer_function(filt, 0.0)) < 1e-15  # antisymmetric taps


def test_tap_is_bounded_by_the_half_width():
    # tap(-half_width - 1) once read c_{half_width} through a negative index, and
    # tap(half_width + 1) raised a bare IndexError
    filt, _ = design_ls("legendre", 3, 4)
    assert filt.tap(-4) == filt.taps[0] and filt.tap(4) == filt.taps[-1]
    for k in (-5, 5, -100, 100):
        with pytest.raises(ParameterError, match=f"tap {k} outside -4..4"):
            filt.tap(k)
    assert filt.tap(np.int64(-4)) == filt.taps[0]
    for k in (1.5, 2.0, True, "1"):  # tap(1.5) raised numpy's IndexError
        with pytest.raises(ParameterError, match="is not an integer"):
            filt.tap(k)


@pytest.mark.parametrize("half_width, taps, edges, message", [
    (2, np.zeros(4), (2.8, 3.0), "4 taps, not 2[*]half_width[+]1 = 5"),
    (2, np.zeros(3), (2.8, 3.0), "3 taps, not"),
    (0, np.zeros(1), (2.8, 3.0), "half_width 0 is below 1"),
    (-1, np.zeros(1), (2.8, 3.0), "half_width -1 is below 1"),
    (2, np.array([0.0, 0.0, math.nan, 0.0, 0.0]), (2.8, 3.0), "non-finite taps"),
    (2, np.array([0.0, math.inf, 1.0, 0.0, 0.0]), (2.8, 3.0), "non-finite taps"),
    (2, np.zeros(5), (0.0, 3.0), "passband_edge"),
    (2, np.zeros(5), (3.0, 2.8), "passband_edge"),
    (2, np.zeros(5), (2.8, 3.2), "stopband_edge <= pi"),
    (2, np.zeros(5), (2.8, math.nan), "stopband_edge"),
])
def test_a_hand_built_filter_checks_itself(half_width, taps, edges, message):
    with pytest.raises(ParameterError, match=message):
        FirFilter(None, 0, half_width, taps, *edges)


def test_transfer_function_trivia():
    filt = FirFilter(None, 0, 2, np.zeros(5), 0.9 * math.pi, 0.98 * math.pi)
    assert transfer_function(filt, 1.3) == 0.0
    taps = np.zeros(5)
    taps[2] = 1.0
    filt = FirFilter(None, 0, 2, taps, 0.9 * math.pi, 0.98 * math.pi)
    for om in (0.0, 0.5, 2.0):
        assert transfer_function(filt, om) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, [0.5, np.nan]])
def test_transfer_function_refuses_non_finite_omega(omega):
    filt = FirFilter(None, 0, 2, np.ones(5), 0.9 * math.pi, 0.98 * math.pi)
    with pytest.raises(ParameterError, match="omega must be finite"):
        transfer_function(filt, omega)


def test_first_order_target_shape():
    filt, rep = design_ls("legendre", 1, 32)
    om = np.linspace(0.05, 0.9 * math.pi, 40)
    H = transfer_function(filt, om)
    target = np.array([eval_all_p("legendre", 1, w)[1] for w in om])
    assert np.abs(H.real).max() < 1e-12
    assert np.abs(H.imag - target).max() <= rep.passband_max_error + 1e-12


def test_exponential_response_exactness():
    filt, _ = design_ls("legendre", 2, 24)
    omega = 1.1
    n = np.arange(-60, 61)
    samples = np.exp(1j * omega * n)
    t = 60
    out = apply_filter(filt, samples, t)
    ref = transfer_function(filt, omega) * np.exp(1j * omega * 0.0)
    assert abs(out - ref) < 1e-12


def test_apply_cosine_matches_operator():
    filt, rep = design_ls("legendre", 2, 64)
    omega = 0.5 * math.pi
    p2 = eval_all_p("legendre", 2, omega)[2]
    n = np.arange(-80, 101)
    samples = np.cos(omega * n)
    for t0 in range(20):
        t = 80 + t0
        out = apply_filter(filt, samples, t)
        ref = -p2 * math.cos(omega * t0)  # Re(i^2 p_2 e^{i w t})
        assert abs(out - ref) <= rep.passband_max_error


def test_apply_constant_gives_dc_gain():
    filt, _ = design_ls("legendre", 2, 32)
    samples = np.ones(101)
    out = apply_filter(filt, samples, 50)
    assert out == pytest.approx(transfer_function(filt, 0.0).real, abs=1e-12)


def test_apply_sinc_samples_band_limited_projection():
    # sinc samples are 1 at n=0 and 0 elsewhere, so the filter output is
    # its center tap c_0 = (1/2pi) integral of H -- the band-limited
    # projection of K^order[sinc](0).  Because sinc occupies the full
    # band (including the filter's stopband), the output only loosely
    # resembles the analytic delta pattern (1, 0, 0, ...): the outer 10%
    # of the spectrum carries an O(0.1) share of every p_n.
    n = np.arange(-128, 129)
    samples = np.where(n == 0, 1.0, np.sin(math.pi * n) / (math.pi * np.where(n == 0, 1, n)))
    t0 = 128
    for order in (0, 2, 4, 8):
        filt, _ = design_ls("legendre", order, 64)
        out = apply_filter(filt, samples, t0)
        assert out == pytest.approx(filt.tap(0), abs=3e-3)
        if order == 0:
            assert abs(out - 1.0) < 0.07
        else:
            assert abs(out) < 0.15


def test_apply_index_guard():
    filt, _ = design_ls("legendre", 0, 8)
    with pytest.raises(ParameterError):
        apply_filter(filt, np.ones(10), 1)


@pytest.mark.parametrize("t", [20.0, 20.5, True])
def test_apply_refuses_a_non_integer_index(t):
    filt, _ = design_ls("legendre", 0, 8)
    with pytest.raises(ParameterError, match="is not an integer"):
        apply_filter(filt, np.ones(41), t)


def test_apply_takes_a_numpy_integer_index():
    filt, _ = design_ls("legendre", 0, 8)
    samples = np.arange(41.0)
    assert apply_filter(filt, samples, np.int64(20)) == apply_filter(filt, samples, 20)


def test_monotone_improvement_with_width():
    errs = []
    for hw in (32, 48, 64):
        _, rep = design_ls("legendre", 16, hw)
        errs.append(rep.passband_max_error)
    assert errs[0] >= errs[1] >= errs[2]


def test_design_rejections():
    with pytest.raises(UnsupportedFamilyError):
        design_ls("hermite", 2, 16)
    with pytest.raises(ParameterError):
        design_ls("legendre", 40, 16)  # n > 2 * half_width
    with pytest.raises(ParameterError):
        design_ls("legendre", 2, 16, passband_edge=3.0, stopband_edge=2.0)
    with pytest.raises(ParameterError):
        design_ls("legendre", -1, 8)
    with pytest.raises(ParameterError):
        design_ls("legendre", 2, 16, target="bogus")


def test_report_fields():
    _, rep = design_ls("legendre", 4, 24, grid_density=8)
    assert rep.grid_size > 0
    assert np.isfinite(rep.condition_number)
    # 49 taps: ripple-limited to the percent scale over these bands
    assert rep.stopband_max_magnitude < 5e-2
    assert rep.passband_median_relative_error > 0
    _, rep129 = design_ls("legendre", 4, 64)
    assert rep129.stopband_max_magnitude < 1e-3


def test_filter_serialization_round_trip(tmp_path):
    filt, _ = design_ls("chebyshev_t", 3, 20)
    path = str(tmp_path / "f.json")
    save_filter(filt, path)
    loaded = load_filter(path)
    assert str(loaded.family) == "chebyshev_t"
    assert loaded.operator_order == 3
    np.testing.assert_array_equal(loaded.taps, filt.taps)


def test_shannon_decay_report():
    rows = shannon_decay_report(0, 0.0, 4)
    center = dict((m, v) for m, v in rows)
    assert center[0] == pytest.approx(1.0, abs=1e-13)
    rows15 = shannon_decay_report(15, 0.0, 64)
    mags = {m: v for m, v in rows15}
    assert max(mags.values()) > 1e-2
    for m in range(1, 60):
        assert mags[m] == pytest.approx(mags[-m], rel=1e-10)


def test_apply_filter_is_the_plain_sum_bit_for_bit(rng):
    filt, _ = design_ls("legendre", 4, 32)
    real = rng.standard_normal(200)
    for samples in (real, real + 1j * rng.standard_normal(200)):
        for t in (32, 100, 167):
            got = apply_filter(filt, samples, t)
            want = np.sum(filt.taps * samples[t - 32 : t + 33])
            assert type(got) is (complex if np.iscomplexobj(samples) else float)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


BOUNDED = ["legendre", "chebyshev_t", "chebyshev_u", "gegenbauer(1)", "jacobi(0.5,-0.25)"]


def _three_branch_design(family, n, half_width, refine_iterations=8, target="operator"):
    """design_ls as it was before its one parity basis, at the default bands, grid and
    weights: the design matrix, the tap layout and the report each branch on n % 2.
    Returns the taps and the five report fields."""
    spec = family_spec(family)
    omegas, in_pass = _design_grid(half_width, 0.9 * math.pi, 0.98 * math.pi, 16)
    tgt = np.where(in_pass, _target_values(spec, n, omegas, target), 0.0)
    w = np.where(in_pass, 1.0, 10.0)
    k = np.arange(1, half_width + 1)
    if n % 2 == 0:
        A = np.hstack([np.ones((omegas.size, 1)), 2.0 * np.cos(np.outer(omegas, k))])
    else:
        A = 2.0 * np.sin(np.outer(omegas, k))
    coef, cond = _solve_ls(A, tgt, w, refine_iterations)
    taps = np.zeros(2 * half_width + 1)
    if n % 2 == 0:
        taps[half_width] = coef[0]
        taps[half_width + 1 :] = coef[1:]
        taps[:half_width] = coef[:0:-1]
    else:
        taps[half_width + 1 :] = coef
        taps[:half_width] = -coef[::-1]
    dense = np.linspace(0.0, math.pi, 8001)
    dpass, dstop = dense <= 0.9 * math.pi, dense >= 0.98 * math.pi
    td = _target_values(spec, n, dense, target)
    X = np.fft.rfft(np.roll(np.r_[taps, np.zeros(16000 - taps.size)], -half_width))
    if n % 2 == 0:
        H = X.real
    else:
        H = -X.imag
    err = np.abs(H - td)
    nonzero = dpass & (np.abs(td) > 1e-300)
    return taps, (float(err[dpass].max()), float(np.abs(H[dstop]).max()), int(omegas.size),
                  cond, float(np.median(err[nonzero] / np.abs(td[nonzero]))))


@pytest.mark.parametrize("family", BOUNDED + ["jacobi(0.5,0.5)"])
@pytest.mark.parametrize("half_width", [1, 2, 16, 45])
def test_one_parity_basis_matches_the_three_branch_design_bit_for_bit(family, half_width):
    """The taps and every report field of design_ls equal, bit for bit, those of the
    design that branched on the parity of n for its matrix, its taps and its report."""
    for n in [n for n in (0, 1, 2, 7, 31, 32) if n <= 2 * half_width]:
        for kwargs in ({}, {"refine_iterations": 0}, {"target": "monomial"}):
            filt, rep = design_ls(family, n, half_width, **kwargs)
            taps, fields = _three_branch_design(family, n, half_width, **kwargs)
            assert filt.taps.tobytes() == taps.tobytes()
            got = (rep.passband_max_error, rep.stopband_max_magnitude, rep.grid_size,
                   rep.condition_number, rep.passband_median_relative_error)
            assert np.array(got).tobytes() == np.array(fields).tobytes()


def _dense_response(n, half_width, taps):
    """The response of taps on design_ls's 8001 dense frequencies w_j = j pi / 8000, from
    one 8001 x half_width product in the parity basis.  k w_j is reduced exactly, to
    pi (j k mod 16000) / 8000, so each cosine or sine is within a few eps."""
    jk = np.outer(np.arange(8001), np.arange(1, half_width + 1)) % 16000
    if n % 2 == 0:
        return taps[half_width] + 2.0 * np.cos(np.pi / 8000 * jk) @ taps[half_width + 1 :]
    return 2.0 * np.sin(np.pi / 8000 * jk) @ taps[half_width + 1 :]


@pytest.mark.parametrize("family", BOUNDED)
@pytest.mark.parametrize("half_width", [1, 2, 16, 19, 29, 45, 68, 103, 128])
def test_report_blocks_match_one_dense_product(family, half_width):
    """The report's response, one real FFT of the taps, is the 8001 x half_width product
    to within 2 log2(16000) eps sum_k |c_k|: each FFT output passes through at most
    log2(16000) butterfly levels, and the product, its arguments reduced exactly, adds a
    few eps sum_k |c_k|.  The largest gap seen is 4.7 eps sum_k |c_k|."""
    dense = np.linspace(0.0, math.pi, 8001)
    for n in (min(32, 2 * half_width), min(31, 2 * half_width - 1)):
        filt, rep = design_ls(family, n, half_width, refine_iterations=1)
        H = _dense_response(n, half_width, filt.taps)
        delta = 2 * math.log2(16000) * np.finfo(float).eps * np.abs(filt.taps).sum()
        assert np.abs(_response(filt.taps, n) - H).max() <= delta
        td = (-1.0) ** (n // 2) * eval_p_grid(family, n, dense)[n]
        dpass = dense <= filt.passband_edge
        err = np.abs(H - td)
        assert abs(rep.passband_max_error - err[dpass].max()) <= delta
        assert abs(rep.stopband_max_magnitude - np.abs(H[dense >= filt.stopband_edge]).max()) <= delta
        # each relative error moves by at most delta / |td|, and a median is monotone
        nonzero = dpass & (np.abs(td) > 1e-300)
        rel, slack = err[nonzero] / np.abs(td[nonzero]), delta / np.abs(td[nonzero])
        assert np.median(rel - slack) <= rep.passband_median_relative_error <= np.median(rel + slack)


def test_design_peak_memory():
    # one 8001 x 103 cosine matrix and its copies took the peak to 16.2 MB; with the
    # report from one FFT, B = A R^-1 written over A and A's trig values written in
    # place, the design peaks at 4.9 MB
    design_ls("legendre", 32, 40)
    tracemalloc.start()
    try:
        design_ls("legendre", 32, 103)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6


def _gelsd_lawson(family, n, half_width, refine_iterations=8):
    """The all-gelsd Lawson loop design_ls ran before its solves moved onto one QR:
    one lstsq per solve on the weighted design matrix.  Returns the taps and the
    last solve's condition number."""
    omegas, in_pass = _design_grid(half_width, 0.9 * math.pi, 0.98 * math.pi, 16)
    tgt = np.where(in_pass, (-1.0) ** (n // 2) * eval_p_grid(family, n, omegas)[n], 0.0)
    w = np.where(in_pass, 1.0, 10.0)
    k = np.arange(1, half_width + 1)
    if n % 2 == 0:
        A = np.hstack([np.ones((omegas.size, 1)), 2.0 * np.cos(np.outer(omegas, k))])
    else:
        A = 2.0 * np.sin(np.outer(omegas, k))
    for it in range(refine_iterations + 1):
        sw = np.sqrt(w)[:, None]
        coef, _, rank, sv = np.linalg.lstsq(A * sw, tgt * sw[:, 0], rcond=None)
        assert rank == A.shape[1] and np.all(np.isfinite(coef))
        if it < refine_iterations:
            r = np.abs(A @ coef - tgt)
            w = w * (r + 1e-3 * r.max())
            w *= omegas.size / w.sum()
    if n % 2 == 0:
        taps = np.concatenate([coef[:0:-1], coef])
    else:
        taps = np.concatenate([-coef[::-1], [0.0], coef])
    return taps, float(sv[0] / sv[-1])


def _dense_report(family, n, half_width, taps):
    """(passband_max_error, stopband_max_magnitude, passband_median_relative_error)
    of taps on design_ls's 8001 dense frequencies, from one dense product."""
    dense = np.linspace(0.0, math.pi, 8001)
    H = _dense_response(n, half_width, taps)
    td = (-1.0) ** (n // 2) * eval_p_grid(family, n, dense)[n]
    dpass = dense <= 0.9 * math.pi
    err = np.abs(H - td)
    nonzero = dpass & (np.abs(td) > 1e-300)
    return (float(err[dpass].max()), float(np.abs(H[dense >= 0.98 * math.pi]).max()),
            float(np.median(err[nonzero] / np.abs(td[nonzero]))))


# (family, n, half_width) beyond orders 31 and 32: the four designs CI pins through design-fir,
# and orders 0 and 6 at half-widths 1 and 16 in every family (family None)
EXTRA_DESIGNS = [("legendre", 32, 64), ("jacobi(0.5,-0.25)", 31, 103), ("chebyshev_u", 7, 103),
                 ("legendre", 6, 64), (None, 0, 1), (None, 6, 16)]


@pytest.mark.parametrize("family", BOUNDED)
@pytest.mark.parametrize("half_width", [1, 2, 16, 45, 64, 103, 128])
def test_lawson_on_one_qr_matches_the_gelsd_loop(family, half_width):
    """Every solve on one QR, after 0 or 8 reweightings, gives the all-gelsd loop's
    design.  The largest gaps seen (OpenBLAS, 1 and 2 threads) are 2.2e-7 in the
    taps, 1.3e-7 in the condition number and 8.4e-6 in a report error: those
    errors are differences far below the taps, so they move most.  One
    reweighting fewer moves the taps by 4.6e-6 or more, save chebyshev_t n = 32
    at half-width 128 (6.1e-7); one more than none, by 3.7e-5 or more."""
    orders = {min(32, 2 * half_width), min(31, 2 * half_width - 1)}
    orders |= {n for f, n, hw in EXTRA_DESIGNS if f in (None, family) and hw == half_width}
    for n in sorted(orders):
        for refine_iterations in (0, 8):
            filt, rep = design_ls(family, n, half_width, refine_iterations=refine_iterations)
            taps, cond = _gelsd_lawson(family, n, half_width, refine_iterations)
            assert np.linalg.norm(filt.taps - taps) <= 1e-6 * np.linalg.norm(taps)
            got = (rep.passband_max_error, rep.stopband_max_magnitude, rep.passband_median_relative_error)
            np.testing.assert_allclose(got, _dense_report(family, n, half_width, taps), rtol=1e-4, atol=0)
            assert rep.condition_number == pytest.approx(cond, rel=1e-6)


def _fail(*args, **kwargs):
    raise AssertionError("not to be called")


@pytest.mark.parametrize("refine_iterations", [0, 8])
def test_rank_deficient_design_raises(monkeypatch, refine_iterations):
    # the Lawson loop's R refuses A before any reweighting
    monkeypatch.setattr(np.linalg, "solve", _fail)
    with pytest.raises(NumericError, match="rank 223 of 224"):
        design_ls("legendre", 1, 224, refine_iterations=refine_iterations)


@pytest.mark.parametrize("failure", ["nan", "singular"])
def test_lawson_solve_failure_raises(monkeypatch, failure):
    def solve(G, b):
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(b, np.nan)

    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(NumericError, match="Lawson iteration 1"):
        design_ls("legendre", 2, 8)


def test_final_weighted_system_failure_raises(monkeypatch):
    def cholesky(G):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    with pytest.raises(NumericError, match="final weighted system"):
        design_ls("legendre", 2, 8, refine_iterations=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"refine_iterations": -1}, "refine_iterations"),
    ({"grid_density": 0}, "grid_density"),
    ({"grid_density": -3}, "grid_density"),
    ({"weight_ratio": math.nan}, "weight_ratio"),
    ({"weight_ratio": math.inf}, "weight_ratio"),
    ({"weight_ratio": -1.0}, "weight_ratio"),
    ({"weight_ratio": 0.0}, "weight_ratio"),
])
def test_design_argument_guards(kwargs, name):
    with pytest.raises(ParameterError, match=name):
        design_ls("legendre", 2, 16, **kwargs)


@pytest.mark.parametrize("edit, message", [
    ({"taps": ["1.0", "2.0"]}, "2 taps, not 2[*]half_width[+]1 = 9"),
    ({"half_width": 0, "taps": ["1.0"]}, "half_width 0"),
    ({"half_width": -1}, "half_width -1"),
    ({"taps": ["0"] * 4 + ["nan"] + ["0"] * 4}, "non-finite taps"),
    ({"taps": ["0"] * 4 + ["inf"] + ["0"] * 4}, "non-finite taps"),
    ({"passband_edge": "0"}, "passband_edge"),
    ({"passband_edge": "3.0", "stopband_edge": "2.0"}, "passband_edge"),
    ({"stopband_edge": "3.2"}, "stopband_edge <= pi"),
    ({"stopband_edge": "nan"}, "stopband_edge"),
    ({"family": 5}, "lacks or mistypes"),  # a traceback (AttributeError) before
    ({"operator_order": 2.7}, "operator_order 2.7 is not an integer"),  # loaded as 2 before
    ({"half_width": True}, "half_width True is not an integer"),  # loaded as 1 before
    ({"half_width": "4"}, "half_width '4' is not an integer"),
])
def test_load_filter_rejects_inconsistent_files(tmp_path, edit, message):
    filt, _ = design_ls("legendre", 2, 4)
    path = str(tmp_path / "f.json")
    save_filter(filt, path)
    with open(path) as fh:
        doc = json.load(fh)
    doc.update(edit)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ParameterError, match=f"filter file .* {message}"):
        load_filter(path)
