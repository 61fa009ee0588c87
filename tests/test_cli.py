import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chromex
from chromex import family_spec, kbasis_closed, table_for
from chromex.basis_functions import _miller
from chromex.cli import build_parser, main


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


def test_families_list_stdout_is_pinned(capsys):
    _, out = run(capsys, "families", "--list")
    assert out == (
        "family,symmetric,p,support,rho\n"
        'legendre,True,0,"[-pi, pi]",0\n'
        'chebyshev_t,True,0,"[-pi, pi]",0\n'
        'chebyshev_u,True,0,"[-pi, pi]",0\n'
        'gegenbauer(1),True,0,"[-pi, pi]",0\n'
        '"jacobi(0.5,-0.25)",False,0,"[-pi, pi]",0\n'
        "hermite,True,0.5,real line,0\n"
        "laguerre,False,1,half line,1\n"
        "herron,True,1,real line,0.63661977236758138\n"
    )


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
        ref = (-1) ** 15 * math.sqrt(31) * _miller(True, 15, math.pi * t, [15])[0, 0]
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
    code, out = run(capsys, "identity", "--kind", "translation", "--order", "40", "--z=-3:3:0.5")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) < 1e-12


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


def test_start_up_loads_neither_decimal_nor_fractions():
    # fractions imports decimal, about 1.5 ms of every chromex process; herron's moments and
    # the Gauss-size refusal import them when they run
    src = os.path.dirname(os.path.dirname(chromex.__file__))
    code = "import sys, chromex.cli; assert not {'decimal', 'fractions'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


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
    name = "t" if argv[0] == "envelope" else "z"  # error_envelope names its own argument
    assert f"non-finite argument; {name} must be finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["poly", "--family", "hermite", "--n", "3", "--omega=nan"], "omega must be finite"),
    (["power-norm", "--function", "exponential:nan"], "omega must be finite"),
    (["power-norm", "--function", "exponential:inf"], "omega must be finite"),
    (["conditions", "--kappa", "nan"], "kappa must be finite"),
    (["power-norm", "--function", "exponential:1.0", "--order", "-1"], "N must be nonnegative"),
    (["power-norm", "--function", "sinc", "--t", "nan", "--order", "5"], "t must be finite"),
    # a traceback (OverflowError) before
    (["families", "--family", "laguerre", "--orders", "200"], "mu_171 of laguerre overflows float64"),
    # a traceback under -W error::RuntimeWarning before
    (["families", "--family", "gegenbauer(inf)"], "gegenbauer requires a finite a"),
    # "Jacobi matrix eigendecomposition failed" before
    (["basis", "--family", "jacobi(0.5,inf)", "--n", "2", "--t=0:1:0.5"], "jacobi requires finite a"),
    # a traceback (max() of an empty row list) before
    (["expand", "--function", "sinc", "--order", "-1"], "N must be nonnegative"),
    (["compare", "--order", "-1"], "N must be nonnegative"),
])
def test_bad_argument_is_a_library_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("function", ["cos:1.0", "exponential:1.0", "constant:1.0", "shannon_random"])
def test_non_finite_t_is_one_error_line(capsys, function):
    """cos printed nan rows with exit 0, and the others never read t."""
    code = main(["power-norm", "--function", function, "--t", "nan", "--order", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: non-finite argument; t must be finite\n"


def test_domain_error_exit_code(capsys):
    code = main(["basis", "--family", "hermite", "--n", "1", "--t=60"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: e^(-z^2/4) underflows")


SUBCOMMANDS = ("families", "poly", "basis", "table", "expand", "identity", "compare", "design-fir",
               "apply-fir", "envelope", "power-norm", "conditions", "check")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command):
    """--seed only where a random signal can be drawn; --out and --format
    wherever main writes rows, so everywhere but check."""
    assert set(build_parser()._subparsers._group_actions[0].choices) == set(SUBCOMMANDS)
    for flag, value, takes in (
        ("--seed", "1", command in ("expand", "compare", "apply-fir", "power-norm")),
        ("--out", "x.csv", command != "check"),
        ("--format", "json", command != "check"),
    ):
        if takes:
            assert build_parser().parse_args([command, flag, value]).command == command
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, flag, value])
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines() == [
                "usage: chromex [-h] COMMAND ...", f"chromex: error: unrecognized arguments: {flag} {value}"]


TABLE_COMMANDS = [
    ["families", "--family", "hermite", "--orders", "5"],
    ["families", "--list"],
    ["poly", "--n", "3", "--omega=-1:1:0.5"],
    ["basis", "--n", "3", "--t=-1:1:0.5"],
    ["table", "--family", "laguerre", "--n", "4"],
    ["expand", "--order", "5", "--t=-1:1:0.5"],
    ["identity", "--order", "10", "--z=0:1:0.5"],
    ["compare", "--function", "shannon_random:9", "--seed", "3", "--order", "5", "--t=-1:1:0.5"],
    ["design-fir", "--n", "1", "--half-width", "8", "--filter-file", "k1.json"],
    ["apply-fir", "--filter-file", "k1.json", "--extent", "12"],
    ["envelope", "--order", "5", "--t=-1:1:0.5"],
    ["power-norm", "--order", "100", "--points", "5"],
    ["conditions", "--family", "hermite", "--horizon", "200"],
]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_one_writer_for_csv_json_and_out(capsys, tmp_path, monkeypatch, argv):
    """Every table subcommand's --format json rows and --out file hold its CSV stdout."""
    monkeypatch.chdir(tmp_path)
    assert main(["design-fir", "--n", "1", "--half-width", "8", "--filter-file", "k1.json",
                 "--out", "report.csv"]) == 0
    code, csv_out = run(capsys, *argv)
    assert code == 0 and csv_out
    assert main([*argv, "--out", "rows.csv"]) == 0
    assert (tmp_path / "rows.csv").read_text() == csv_out
    code, json_out = run(capsys, *argv, "--format", "json")
    assert code == 0
    header, *rows = list(csv.reader(csv_out.splitlines()))
    assert [[str(doc[h]) for h in header] for doc in json.loads(json_out)] == rows


@pytest.mark.parametrize("family, n, columns",
                         [("legendre", 10, None), ("hermite", 8, 30), ("laguerre", 6, None)])
def test_table_rows_are_the_nonzero_entries(capsys, family, n, columns):
    """table lists b[n, k] != 0 in row-major order: the double loop it replaced."""
    argv = ["table", "--family", family, "--n", str(n)] + (["--columns", str(columns)] if columns else [])
    _, out = run(capsys, *argv)
    b = table_for(family_spec(family), n, columns).b
    ref = [f"{i},{k},{b[i, k].real:.17g},{b[i, k].imag:.17g}"
           for i in range(b.shape[0]) for k in range(b.shape[1]) if b[i, k] != 0]
    assert out.splitlines() == ["n,k,b_re,b_im", *ref]


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
    ["basis", "--t=0:1"],
    ["power-norm", "--order", "100", "--points", "0"],
    ["power-norm", "--order", "100", "--points=-3"],
    ["power-norm", "--order", "100", "--points", "x"],
    # flags a subcommand would ignore
    ["poly", "--seed", "1"],
    ["check", "--format", "json"],
    ["check", "--out", "report.csv"],
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


@pytest.mark.parametrize("source", ["cos:nan", "exponential:nan", "cos:inf", "exponential:inf",
                                    "exponential:1e308", "csv"])
def test_apply_fir_refuses_non_finite_samples(capsys, tmp_path, source):
    """NaN samples once printed NaN rows at exit 0, and an infinite or overflowing
    frequency a RuntimeWarning traceback."""
    filt = str(tmp_path / "k1.json")
    assert main(["design-fir", "--n", "1", "--half-width", "2", "--filter-file", filt,
                 "--out", str(tmp_path / "report.csv")]) == 0
    if source == "csv":
        (tmp_path / "s.csv").write_text("x\n1.0\n2.0\nnan\n3.0\n4.0\n5.0\n")
        argv = ["--samples", str(tmp_path / "s.csv")]
    else:
        argv = ["--signal", source, "--extent", "8"]
    capsys.readouterr()
    code = main(["apply-fir", "--filter-file", filt, *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: non-finite argument; samples must be finite\n"


@pytest.mark.parametrize("source, given", [("7", 15), ("-3", 0), ("csv", 16)])
def test_apply_fir_refuses_too_few_samples(capsys, tmp_path, source, given):
    """Fewer than 2 half_width + 1 samples once printed only the header at exit 0."""
    filt = str(tmp_path / "k1.json")
    assert main(["design-fir", "--n", "1", "--half-width", "8", "--filter-file", filt,
                 "--out", str(tmp_path / "report.csv")]) == 0
    if source == "csv":
        (tmp_path / "s.csv").write_text("x\n" + "1.0\n" * given)
        argv = ["--samples", str(tmp_path / "s.csv")]
    else:
        argv = ["--extent", source]
    capsys.readouterr()
    code = main(["apply-fir", "--filter-file", filt, *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: a filter of half_width 8 needs at least 17 samples; {given} given\n"
    # exactly 2 half_width + 1 samples give one output
    code, out = run(capsys, "apply-fir", "--filter-file", filt, "--extent", "8")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2 and lines[1].startswith("8,")


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
