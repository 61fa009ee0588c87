"""Command-line front end.

Every subcommand emits CSV (default) or JSON with numbers serialized at 17
significant digits, so identical configurations produce byte-identical
output.  Random signals use numpy's PCG64 generator with an explicit seed
(default 0).  Each command builds the coefficient tables it needs in
memory; nothing is written to disk besides --out and filter files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import expansions, fir_design, power_spaces
from .basis_functions import kbasis_series, suggest_columns
from .chromatic_core import build_table, orthonormality_matrix, table_for
from .errors import ChromexError
from .families import (
    FAMILY_TAGS,
    family_spec,
    gauss_quadrature,
    moment_analytic,
    moment_jacobi_matrix,
    parse_family,
    recursion_coefficients,
)
from .orthopoly import cd_diagonal, cd_kernel, eval_all_p, eval_p_grid


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_rows(path, header, rows, fmt):
    if fmt == "json":
        doc = [dict(zip(header, [(_fmt(v) if isinstance(v, float) else v) for v in row])) for row in rows]
        text = json.dumps(doc, indent=1) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        text = buf.getvalue()
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_grid(text: str) -> np.ndarray:
    """a:b:step -> inclusive grid; a single number -> one point."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be 'a:b:step' or a number")
    a, b, step = (float(p) for p in parts)
    n = int(round((b - a) / step))
    return a + step * np.arange(n + 1)


def _parse_function(text: str, seed: int) -> expansions.FunctionSpec:
    if text == "sinc":
        return expansions.Sinc()
    if text.startswith("exponential:"):
        return expansions.Exponential(float(text.split(":", 1)[1]))
    if text.startswith("cos:"):
        return expansions.Cosine(float(text.split(":", 1)[1]))
    if text.startswith("constant:"):
        return expansions.Constant(float(text.split(":", 1)[1]))
    if text.startswith("shannon_random"):
        count = 65
        if ":" in text:
            count = int(text.split(":", 1)[1])
        rng = np.random.Generator(np.random.PCG64(seed))
        samples = rng.uniform(-1.0, 1.0, count)
        return expansions.ShannonCombo(samples, first_index=-(count // 2))
    raise argparse.ArgumentTypeError(f"unknown function {text!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_families(args):
    if args.list:
        rows = []
        for tag in FAMILY_TAGS:
            fid = tag if tag not in ("gegenbauer", "jacobi") else (
                "gegenbauer(1)" if tag == "gegenbauer" else "jacobi(0.5,-0.25)"
            )
            spec = family_spec(fid)
            rows.append((str(spec), spec.symmetric, spec.growth_exponent,
                         spec.support, spec.rho))
        _write_rows(args.out, ["family", "symmetric", "p", "support", "rho"], rows, args.format)
        return 0
    spec = family_spec(args.family)
    rows = []
    for n in range(args.orders + 1):
        g, b = recursion_coefficients(spec, n)
        row = [n, g, b]
        if spec.tag not in ("gegenbauer", "jacobi"):
            row.append(moment_analytic(spec, n))
        else:
            row.append(moment_jacobi_matrix(spec, n))
        rows.append(tuple(row))
    _write_rows(args.out, ["n", "gamma", "beta", "moment"], rows, args.format)
    return 0


def cmd_poly(args):
    spec = family_spec(args.family)
    grid = args.omega
    vals = eval_p_grid(spec, args.n, grid)[args.n]
    rows = [(float(w), float(v)) for w, v in zip(grid, vals)]
    _write_rows(args.out, ["omega", f"p_{args.n}"], rows, args.format)
    return 0


def cmd_basis(args):
    spec = family_spec(args.family)
    cols = max(suggest_columns(spec, args.n, np.abs(args.t).max()), args.columns)
    table = table_for(spec, args.n, cols)
    vals = kbasis_series(table, args.n, args.t.astype(complex))
    rows = [(float(t), args.n, v.real, v.imag) for t, v in zip(args.t, vals)]
    _write_rows(args.out, ["t", "n", "value_re", "value_im"], rows, args.format)
    return 0


def cmd_table(args):
    spec = family_spec(args.family)
    table = table_for(spec, args.n, args.columns)
    rows = []
    for n in range(table.N + 1):
        for k in range(table.K + 1):
            v = table.b[n, k]
            if v != 0:
                rows.append((n, k, v.real, v.imag))
    _write_rows(args.out, ["n", "k", "b_re", "b_im"], rows, args.format)
    return 0


def cmd_expand(args):
    spec = family_spec(args.family)
    f = _parse_function(args.function, args.seed)
    cols = suggest_columns(spec, args.order, np.abs(args.t - args.u).max())
    table = table_for(spec, args.order, cols)
    ca = expansions.chromatic_approximation_grid(spec, f, args.u, args.order, args.t, table)
    fv = f.value(args.t)
    rows = [
        (float(t), fval.real, fval.imag, c.real, c.imag, abs(fval - c))
        for t, fval, c in zip(args.t, fv, ca)
    ]
    _write_rows(args.out, ["t", "f_re", "f_im", "ca_re", "ca_im", "residual"], rows, args.format)
    return 0


def cmd_identity(args):
    spec = family_spec(args.family)
    extent = float(np.abs(args.z).max()) + abs(args.u)
    table = table_for(spec, args.order, suggest_columns(spec, args.order, extent))
    rows = []
    for z in args.z:
        if args.kind == "exponential":
            r = expansions.identity_exponential(spec, args.omega, float(z), args.order, table)
        elif args.kind == "translation":
            r = expansions.identity_translation(spec, args.u, float(z), args.order, table)
        else:
            r = expansions.identity_constant_one(spec, float(z), args.order, table)
        rows.append((float(z), r))
    _write_rows(args.out, ["z", "residual"], rows, args.format)
    return 0


def cmd_compare(args):
    spec = family_spec(args.family)
    f = _parse_function(args.function, args.seed)
    cols = suggest_columns(spec, args.order, np.abs(args.t - args.u).max())
    table = table_for(spec, args.order, cols)
    rows = expansions.taylor_vs_chromatic_comparison(spec, f, args.u, args.order, args.t, table)
    out = [
        (t, fv.real, ca.real, ty.real, abs(fv - ca), abs(fv - ty))
        for t, fv, ca, ty in rows
    ]
    _write_rows(
        args.out,
        ["t", "f", "chromatic", "taylor", "chromatic_error", "taylor_error"],
        out,
        args.format,
    )
    return 0


def cmd_design_fir(args):
    spec = family_spec(args.family)
    filt, report = fir_design.design_ls(
        spec, args.n, args.half_width,
        passband_edge=args.passband * math.pi,
        stopband_edge=args.stopband * math.pi,
        grid_density=args.grid_density,
        weight_ratio=args.weight_ratio,
        refine_iterations=args.refine,
        target=args.target,
    )
    fir_design.save_filter(filt, args.filter_file)
    rows = [
        ("passband_max_error", report.passband_max_error),
        ("stopband_max_magnitude", report.stopband_max_magnitude),
        ("passband_median_relative_error", report.passband_median_relative_error),
        ("condition_number", report.condition_number),
        ("grid_size", float(report.grid_size)),
    ]
    _write_rows(args.out, ["metric", "value"], rows, args.format)
    return 0


def cmd_apply_fir(args):
    filt = fir_design.load_filter(args.filter_file)
    if args.samples:
        samples = np.loadtxt(args.samples, delimiter=",", skiprows=1, ndmin=1)
    else:
        f = _parse_function(args.signal, args.seed)
        idx = np.arange(-args.extent, args.extent + 1)
        samples = f.value(idx.astype(float)).real
    N = filt.half_width
    rows = []
    for t in range(N, samples.size - N):
        y = fir_design.apply_filter(filt, samples, t)
        rows.append((t, float(np.real(y))))
    _write_rows(args.out, ["t", "output"], rows, args.format)
    return 0


def cmd_envelope(args):
    spec = family_spec(args.family)
    cols = suggest_columns(spec, args.order, np.abs(args.t).max())
    table = table_for(spec, args.order, cols)
    # one envelope per point: each certifies its series length at its own |t|
    vals = [expansions.error_envelope(spec, args.order, float(t), table) for t in args.t]
    rows = [(float(t), float(v)) for t, v in zip(args.t, vals)]
    _write_rows(args.out, ["t", "envelope"], rows, args.format)
    return 0


def cmd_power_norm(args):
    spec = family_spec(args.family)
    f = _parse_function(args.function, args.seed)
    diag = power_spaces.nu_sequence(spec, f, args.t, args.order)
    step = max(1, args.order // args.points)
    rows = []
    running = np.cumsum(diag.values)
    for n in range(0, args.order + 1, step):
        cesaro = running[n] / (n + 1)
        rows.append((n, float(diag.values[n]), float(cesaro)))
    _write_rows(args.out, ["n", "raw", "cesaro"], rows, args.format)
    return 0


def cmd_conditions(args):
    spec = family_spec(args.family)
    report = power_spaces.check_conditions(spec, args.horizon, args.kappa)
    rows = [(name, str(flag)) for name, flag in report.flags.items()]
    rows += [(k, _fmt(v)) for k, v in report.evidence.items()]
    _write_rows(args.out, ["item", "value"], rows, args.format)
    return 0


def cmd_check(args):
    spec = family_spec(args.family)
    N = args.orders
    checks = []

    nodes, w = gauss_quadrature(spec, 64)
    checks.append(("quadrature weights sum to 1", abs(w.sum() - 1.0) < 1e-12))
    P = eval_p_grid(spec, min(N, 40), nodes)
    G = (P * w) @ P.T
    checks.append(("orthonormality by quadrature", np.abs(G - np.eye(G.shape[0])).max() < 1e-8))

    Gt = orthonormality_matrix(spec, N)
    checks.append(("operator orthonormality", np.abs(Gt - np.eye(N + 1)).max() < 1e-8))

    table = build_table(spec, min(N, 40))
    sub = np.tril(np.abs(table.b[:, : table.N + 1]), -1)
    checks.append(("structural zeros below diagonal", float(sub.max()) == 0.0))

    if spec.tag not in ("gegenbauer", "jacobi"):
        ok = True
        for k in range(0, 21):
            ana = moment_analytic(spec, k)
            jac = moment_jacobi_matrix(spec, k)
            if ana != 0 and abs(jac - ana) / abs(ana) > 1e-10:
                ok = False
        checks.append(("moment oracle agreement", ok))

    om = 0.7
    direct = float(np.sum(eval_all_p(spec, 30, om).values ** 2))
    checks.append(("Christoffel-Darboux diagonal", abs(cd_diagonal(spec, 30, om) - direct) < 1e-9 * direct))
    po = eval_all_p(spec, 30, om).values
    ps = eval_all_p(spec, 30, 1.3).values
    checks.append((
        "Christoffel-Darboux kernel",
        abs(cd_kernel(spec, 30, om, 1.3) - float(np.sum(po * ps))) < 1e-9 * max(1.0, abs(np.sum(po * ps))),
    ))

    width = max(len(name) for name, _ in checks)
    ok_all = True
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
        ok_all &= ok
    return 0 if ok_all else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="chromex",
        description="Chromatic derivatives and expansions for orthonormal polynomial families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, family=True, grid=None):
        if family:
            p.add_argument("--family", default="legendre", help="family string, e.g. jacobi(0.5,-0.25)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed (PCG64)")
        if grid:
            p.add_argument(grid, type=_parse_grid, default=_parse_grid("-2:2:0.1"),
                           help="grid a:b:step")

    p = sub.add_parser("families", help="list families or emit coefficients")
    common(p)
    p.add_argument("--list", action="store_true")
    p.add_argument("--orders", type=int, default=20)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("poly", help="orthonormal polynomial values over a grid")
    common(p, grid="--omega")
    p.add_argument("--n", type=int, default=8)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("basis", help="basis function K^n[m] over a grid")
    common(p, grid="--t")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--columns", type=int, default=0, help="table columns override")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("table", help="emit the coefficient table")
    common(p)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--columns", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("expand", help="chromatic approximation of a signal")
    common(p, grid="--t")
    p.add_argument("--function", default="sinc")
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--order", type=int, default=15)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("identity", help="residuals of the classical identities")
    common(p, grid="--z")
    p.add_argument("--kind", choices=("exponential", "translation", "constant_one"),
                   default="exponential")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--u", type=float, default=0.4)
    p.add_argument("--order", type=int, default=40)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("compare", help="chromatic vs Taylor approximation")
    common(p, grid="--t")
    p.add_argument("--function", default="shannon_random")
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--order", type=int, default=15)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("design-fir", help="weighted-LS FIR design for K^n")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--half-width", type=int, default=64)
    p.add_argument("--passband", type=float, default=0.9, help="edge as a fraction of pi")
    p.add_argument("--stopband", type=float, default=0.98, help="edge as a fraction of pi")
    p.add_argument("--grid-density", type=int, default=16)
    p.add_argument("--weight-ratio", type=float, default=10.0)
    p.add_argument("--refine", type=int, default=8, help="Lawson refinement iterations")
    p.add_argument("--target", choices=("operator", "monomial"), default="operator")
    p.add_argument("--filter-file", default="filter.json")
    p.set_defaults(func=cmd_design_fir)

    p = sub.add_parser("apply-fir", help="apply a designed filter to samples")
    common(p, family=False)
    p.add_argument("--filter-file", default="filter.json")
    p.add_argument("--samples", default=None, help="CSV of sample values (one column)")
    p.add_argument("--signal", default="cos:1.0", help="synthetic signal when no CSV given")
    p.add_argument("--extent", type=int, default=128)
    p.set_defaults(func=cmd_apply_fir)

    p = sub.add_parser("envelope", help="truncation error envelope E_N")
    common(p, grid="--t")
    p.add_argument("--order", type=int, default=15)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("power-norm", help="normalized power sums (n, raw, cesaro)")
    common(p)
    p.add_argument("--function", default="exponential:1.0")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--order", type=int, default=10000)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_power_norm)

    p = sub.add_parser("conditions", help="growth-condition evidence C1..C7")
    common(p)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--kappa", type=float, default=3.0)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("check", help="run the invariant suite for one family")
    common(p)
    p.add_argument("--orders", type=int, default=40)
    p.set_defaults(func=cmd_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ChromexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
