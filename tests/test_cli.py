import json
import math
import os

import numpy as np
import pytest

from chromex import kbasis_closed, spherical_j
from chromex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_families_list(capsys):
    code, out = run(capsys, "families", "--list")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "family,symmetric,p,support,rho"
    assert len(lines) == 9  # header + 8 families


def test_families_list_csv_round_trip(capsys):
    """Fields holding commas (supports, jacobi parameters) come back whole."""
    import csv

    _, out = run(capsys, "families", "--list")
    rows = list(csv.reader(out.splitlines()))
    assert all(len(row) == 5 for row in rows)
    by_family = {row[0]: row for row in rows[1:]}
    assert "jacobi(0.5,-0.25)" in by_family
    assert by_family["legendre"][3] == "[-pi, pi]"


def test_basis_matches_closed_form(capsys, tmp_path):
    out_file = str(tmp_path / "basis.csv")
    code = main([
        "basis", "--family", "legendre", "--n", "15",
        "--t=-5:5:0.5", "--columns", "200", "--out", out_file,
    ])
    assert code == 0
    rows = np.loadtxt(out_file, delimiter=",", skiprows=1)
    for t, n, re, im in rows:
        ref = (-1) ** 15 * math.sqrt(31) * spherical_j(15, math.pi * t)
        assert abs(re - ref) < 1e-8
        assert abs(im) < 1e-12


def test_basis_jacobi_with_a_plus_b_minus_one(capsys):
    # jacobi(-1/2,-1/2) is chebyshev_t; its gamma_0 was once 0/0 = nan
    code, out = run(capsys, "basis", "--family", "jacobi(-0.5,-0.5)", "--n", "2", "--t=0:1:0.5")
    assert code == 0
    _, ref = run(capsys, "basis", "--family", "chebyshev_t", "--n", "2", "--t=0:1:0.5")
    got = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    np.testing.assert_allclose(got, np.loadtxt(ref.splitlines(), delimiter=",", skiprows=1),
                               rtol=1e-13, atol=1e-15)


def test_csv_header_and_precision(capsys):
    code, out = run(capsys, "poly", "--family", "legendre", "--n", "2", "--omega", "1:1:1")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].count("p_2") == 1
    value = float(lines[1].split(",")[1])
    # 17 significant digits round-trip float64 exactly
    assert f"{value:.17g}" == lines[1].split(",")[1]


def test_determinism_with_seed(capsys):
    args = ["compare", "--family", "legendre", "--function", "shannon_random:17",
            "--order", "8", "--u", "0.0", "--t=-1:1:0.25", "--seed", "7"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3 = run(capsys, *args[:-1], "8")
    assert out3 != out1


def test_expand_residual_column(capsys):
    code, out = run(
        capsys, "expand", "--family", "legendre", "--function", "exponential:1.0",
        "--order", "25", "--t=-1:1:0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,f_re,f_im,ca_re,ca_im,residual"
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-8


def test_identity_subcommand(capsys):
    code, out = run(
        capsys, "identity", "--family", "chebyshev_t", "--kind", "constant_one",
        "--order", "60", "--z", "0.3:1.2:0.45",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) < 1e-8


def test_poly_overflow_exits_1(capsys):
    code = main(["poly", "--family", "hermite", "--n", "3000", "--omega=40"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "smaller N or |omega|" in captured.err


def test_fir_design_and_apply_round_trip(capsys, tmp_path):
    filt_file = str(tmp_path / "filter.json")
    code, _ = run(
        capsys, "design-fir", "--family", "legendre", "--n", "2",
        "--half-width", "32", "--filter-file", filt_file,
    )
    assert code == 0 and os.path.exists(filt_file)
    code, out = run(
        capsys, "apply-fir", "--filter-file", filt_file,
        "--signal", "cos:1.0", "--extent", "40",
    )
    assert code == 0
    assert out.splitlines()[0] == "t,output"


def test_power_norm_columns(capsys):
    code, out = run(
        capsys, "power-norm", "--family", "hermite",
        "--function", "exponential:1.0", "--order", "2000", "--points", "10",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,raw,cesaro"
    assert len(lines) > 5


def test_conditions_subcommand(capsys):
    code, out = run(capsys, "conditions", "--family", "hermite", "--horizon", "1000")
    assert code == 0
    assert "C1,True" in out


def test_check_subcommand(capsys):
    code, out = run(capsys, "check", "--family", "legendre", "--orders", "40")
    assert code == 0
    assert "FAIL" not in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["basis", "--family", "legendre", "--n", "3", "--t=nan"],
    ["basis", "--family", "hermite", "--n", "3", "--t=-inf"],
    ["envelope", "--family", "legendre", "--order", "10", "--t=nan"],
])
def test_non_finite_argument_exit_code(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "non-finite argument; z must be finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["poly", "--family", "hermite", "--n", "3", "--omega=nan"], "omega must be finite"),
    (["power-norm", "--function", "exponential:nan"], "omega must be finite"),
    (["power-norm", "--function", "exponential:inf"], "omega must be finite"),
    (["conditions", "--kappa", "nan"], "kappa must be finite"),
    (["power-norm", "--function", "exponential:1.0", "--order", "-1"], "N must be nonnegative"),
    (["power-norm", "--function", "sinc", "--t", "nan", "--order", "5"], "t must be finite"),
])
def test_bad_argument_is_a_library_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err


def test_domain_error_exit_code(capsys):
    code = main(["basis", "--family", "hermite", "--n", "1", "--t=60"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: e^(-z^2/4) underflows")


def test_json_format(capsys):
    code, out = run(capsys, "families", "--list", "--format", "json")
    assert code == 0
    import json

    doc = json.loads(out)
    assert len(doc) == 8


@pytest.mark.parametrize("argv", [
    ["expand", "--function", "bogus"],
    ["expand", "--function", "exponential:abc"],
    ["expand", "--t=0:1:0"],
    ["basis", "--t=0:1:-0.5"],
    ["power-norm", "--order", "100", "--points", "0"],
    ["power-norm", "--order", "100", "--points=-3"],
    ["power-norm", "--order", "100", "--points", "x"],
])
def test_malformed_input_is_a_usage_error(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the grid while parsing
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    assert "error: " in captured.err.splitlines()[-1]


def test_shannon_random_in_other_families(capsys):
    code, out = run(capsys, "compare", "--family", "chebyshev_t", "--function", "shannon_random:17",
                    "--order", "8", "--t=-1:1:0.5")
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    assert np.abs(rows[:, 4]).max() < 1e-2


@pytest.mark.parametrize("case", ["filter", "samples", "out", "bad_filter", "bad_samples"])
def test_unreadable_or_unwritable_file_is_a_usage_error(capsys, tmp_path, case):
    """A file the command line names but that cannot be opened, or that
    does not parse, gives one error line and exit 2, not a traceback."""
    filt = str(tmp_path / "k1.json")
    assert main(["design-fir", "--n", "1", "--half-width", "8", "--filter-file", filt,
                 "--out", str(tmp_path / "report.csv")]) == 0
    missing = str(tmp_path / "missing" / "x")
    bad_filter, bad_samples = tmp_path / "bad.json", tmp_path / "bad.csv"
    bad_filter.write_text("garbage\n")
    bad_samples.write_text("x\n1.0\nabc\n")
    named, argv = {
        "filter": (missing, ["apply-fir", "--filter-file", missing]),
        "samples": (missing, ["apply-fir", "--filter-file", filt, "--samples", missing]),
        "out": (missing, ["apply-fir", "--filter-file", filt, "--out", missing]),
        "bad_filter": (str(bad_filter), ["apply-fir", "--filter-file", str(bad_filter)]),
        "bad_samples": (str(bad_samples),
                        ["apply-fir", "--filter-file", filt, "--samples", str(bad_samples)]),
    }[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


@pytest.mark.parametrize("change", [{"format_version": 99}, {"family": "bogus"}])
def test_a_filter_file_the_library_rejects_keeps_its_error(capsys, tmp_path, change):
    """A filter file that parses but that the library refuses exits 1 with
    the library's message, not as a malformed file."""
    filt = tmp_path / "k1.json"
    assert main(["design-fir", "--n", "1", "--half-width", "8", "--filter-file", str(filt),
                 "--out", str(tmp_path / "report.csv")]) == 0
    filt.write_text(json.dumps({**json.loads(filt.read_text()), **change}))
    capsys.readouterr()
    code = main(["apply-fir", "--filter-file", str(filt)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "malformed" not in captured.err


def test_long_exponential_comparison(capsys):
    code, out = run(capsys, "compare", "--function", "exponential:1.0", "--order", "200",
                    "--t=-1:1:0.5")
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    assert rows.shape == (5, 6) and rows[:, 4:].max() < 1e-13


def test_hermite_basis_past_the_old_scan(capsys):
    code, out = run(capsys, "basis", "--family", "hermite", "--n", "10", "--t=-3:3:0.5")
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    closed = kbasis_closed("hermite", 10, rows[:, 0])
    assert np.abs(rows[:, 2] + 1j * rows[:, 3] - closed).max() < 1e-15


def test_laguerre_basis_past_the_reach(capsys):
    """Past the series reach 0.241, basis takes the closed-form product."""
    code, out = run(capsys, "basis", "--family", "laguerre", "--n", "4", "--t=-0.45:0.45:0.05")
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    closed = kbasis_closed("laguerre", 4, rows[:, 0])
    assert np.abs(rows[:, 2] + 1j * rows[:, 3] - closed).max() <= 1e-15


def test_legendre_basis_past_the_old_series(capsys):
    """basis --t=14:16:1 once printed 2.22, -88.5 and -1505 from the series."""
    code, out = run(capsys, "basis", "--family", "legendre", "--n", "10", "--t=14:16:1")
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 2], [-0.100536701487, 0.09074918503, -0.0820731797], rtol=1e-9)
    assert np.abs(rows[:, 2] - kbasis_closed("legendre", 10, rows[:, 0]).real).max() <= 1e-14


@pytest.mark.parametrize("text", ["[1, 2]", '{"format_version": 1}'])
def test_json_that_is_not_a_filter_is_a_library_error(capsys, tmp_path, text):
    filt = tmp_path / "f.json"
    filt.write_text(text)
    code = main(["apply-fir", "--filter-file", str(filt)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_chebyshev_t_sinc_power_norm(capsys):
    """raw nu_60 once printed 4.6e7 through the Taylor conversion."""
    code, out = run(capsys, "power-norm", "--family", "chebyshev_t", "--function", "sinc", "--order", "60")
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
    assert rows[-1, 0] == 60 and rows[-1, 1] == pytest.approx(0.0319219625011, rel=1e-9)


def test_non_finite_constant_is_one_usage_error_line(capsys):
    code = main(["power-norm", "--family", "legendre", "--function", "constant:nan", "--order", "50",
                 "--points", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: bad function 'constant:nan'; use sinc, exponential:W, "
                                         "cos:W, constant:C or shannon_random[:COUNT]"]
