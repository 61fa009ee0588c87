import math
import os

import numpy as np
import pytest

from chromex import spherical_j
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


def test_domain_error_exit_code(capsys):
    code = main(["basis", "--family", "laguerre", "--n", "1", "--t", "0:2:1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_json_format(capsys):
    code, out = run(capsys, "families", "--list", "--format", "json")
    assert code == 0
    import json

    doc = json.loads(out)
    assert len(doc) == 8
