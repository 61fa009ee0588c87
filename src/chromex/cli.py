"""Command-line front end.

Every subcommand but check emits CSV (default) or JSON with numbers
serialized at 17 significant digits, so identical configurations produce
byte-identical output; check prints one PASS/FAIL line per invariant.
Random signals use numpy's PCG64 generator with an explicit --seed
(default 0), taken by the subcommands that can draw one.  Only table and
check build a coefficient table, in memory; nothing is written to disk
besides --out and filter files.
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
from .basis_functions import kbasis_rows
from .chromatic_core import build_table, orthonormality_matrix, table_for
from .errors import ChromexError, ParameterError
from .families import (
    FAMILY_TABLE,
    FAMILY_TAGS,
    family_spec,
    gauss_quadrature,
    moment_analytic,
    moment_jacobi_matrix,
    recursion_coefficients,
    require_real,
)
from .orthopoly import cd_diagonal, cd_kernel, eval_all_p


def _fmt(x) -> str:
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
    if not 0 < abs(step) < math.inf:
        raise argparse.ArgumentTypeError("grid step must be finite and nonzero")
    count = (b - a) / step
    if not 0 <= count < math.inf:
        raise argparse.ArgumentTypeError("grid ends must be finite, with a step from a toward b")
    return a + step * np.arange(int(round(count)) + 1)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


_SCALED = {"exponential": expansions.Exponential, "cos": expansions.Cosine,
           "constant": expansions.Constant}


def _parse_function(text: str, seed: int) -> expansions.FunctionSpec:
    name, colon, arg = text.partition(":")
    try:
        if text == "sinc":
            return expansions.Sinc()
        if name in _SCALED and colon:
            return _SCALED[name](float(arg))
        if name == "shannon_random":
            count = int(arg) if colon else 65
            rng = np.random.Generator(np.random.PCG64(seed))
            samples = rng.uniform(-1.0, 1.0, count)
            return expansions.ShannonCombo(samples, first_index=-(count // 2))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad function {text!r}; use sinc, exponential:W, cos:W, constant:C or shannon_random[:COUNT]"
    )


# ---------------------------------------------------------------------------
# subcommands: each returns (header, rows), which main writes; check prints
# its own PASS/FAIL lines and returns its exit code

def cmd_families(args):
    if args.list:
        listed = {"gegenbauer": "gegenbauer(1)", "jacobi": "jacobi(0.5,-0.25)"}
        specs = [family_spec(listed.get(tag, tag)) for tag in FAMILY_TAGS]
        return ["family", "symmetric", "p", "support", "rho"], [
            (str(s), s.symmetric, *FAMILY_TABLE[s.tag][1:]) for s in specs]
    spec = family_spec(args.family)
    moment = moment_jacobi_matrix if spec.tag in ("gegenbauer", "jacobi") else moment_analytic
    rows = [(n, *recursion_coefficients(spec, n), moment(spec, n)) for n in range(args.orders + 1)]
    return ["n", "gamma", "beta", "moment"], rows


def cmd_poly(args):
    vals = eval_all_p(args.family, args.n, args.omega)[args.n]
    return ["omega", f"p_{args.n}"], [(float(w), float(v)) for w, v in zip(args.omega, vals)]


def cmd_basis(args):
    vals = kbasis_rows(args.family, args.n, args.n, args.t)[0]
    return ["t", "n", "value_re", "value_im"], [(float(t), args.n, v.real, v.imag)
                                               for t, v in zip(args.t, vals)]


def cmd_table(args):
    b = table_for(args.family, args.n, args.columns).b
    n, k = np.nonzero(b)
    v = b[n, k]
    return ["n", "k", "b_re", "b_im"], list(zip(n.tolist(), k.tolist(), v.real.tolist(), v.imag.tolist()))


def cmd_expand(args):
    f = _parse_function(args.function, args.seed)
    ca = expansions.chromatic_approximation_grid(args.family, f, args.u, args.order, args.t)
    fv = f.value(args.t)
    return ["t", "f_re", "f_im", "ca_re", "ca_im", "residual"], [
        (float(t), fval.real, fval.imag, c.real, c.imag, abs(fval - c)) for t, fval, c in zip(args.t, fv, ca)]


def cmd_identity(args):
    if args.kind == "exponential":
        res = expansions.identity_exponential(args.family, args.omega, args.z, args.order)
    elif args.kind == "translation":
        res = expansions.identity_translation(args.family, args.u, args.z, args.order)
    else:
        res = expansions.identity_constant_one(args.family, args.z, args.order)
    return ["z", "residual"], [(float(z), float(r)) for z, r in zip(args.z, res)]


def cmd_compare(args):
    f = _parse_function(args.function, args.seed)
    rows = expansions.taylor_vs_chromatic_comparison(args.family, f, args.u, args.order, args.t)
    return ["t", "f", "chromatic", "taylor", "chromatic_error", "taylor_error"], [
        (t, fv.real, ca.real, ty.real, abs(fv - ca), abs(fv - ty))
        for t, fv, ca, ty in rows
    ]


def cmd_design_fir(args):
    filt, report = fir_design.design_ls(
        args.family, args.n, args.half_width,
        passband_edge=args.passband * math.pi,
        stopband_edge=args.stopband * math.pi,
        grid_density=args.grid_density,
        weight_ratio=args.weight_ratio,
        refine_iterations=args.refine,
        target=args.target,
    )
    fir_design.save_filter(filt, args.filter_file)
    return ["metric", "value"], [
        ("passband_max_error", report.passband_max_error),
        ("stopband_max_magnitude", report.stopband_max_magnitude),
        ("passband_median_relative_error", report.passband_median_relative_error),
        ("condition_number", report.condition_number),
        ("grid_size", float(report.grid_size)),
    ]


def _parse_file(path, load, **kw):
    """load(path, **kw), reporting a file that does not parse as a usage error."""
    try:
        return load(path, **kw)
    except ChromexError:  # a parsed file the library rejects (say, its format_version)
        raise
    except ValueError as exc:  # not JSON, or a non-numeric cell
        raise argparse.ArgumentTypeError(f"malformed file {path}: {exc}") from exc


def cmd_apply_fir(args):
    filt = _parse_file(args.filter_file, fir_design.load_filter)
    if args.samples:
        samples = _parse_file(args.samples, np.loadtxt, delimiter=",", skiprows=1, ndmin=1)
    else:
        f = _parse_function(args.signal, args.seed)
        idx = np.arange(-args.extent, args.extent + 1)
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite signal is refused below
            samples = f.value(idx.astype(float)).real
    samples = require_real(samples, "samples")
    N = filt.half_width
    if samples.size < 2 * N + 1:  # no t would have a full window: only the header would print
        raise ParameterError(f"a filter of half_width {N} needs at least {2 * N + 1} samples; "
                             f"{samples.size} given")
    return ["t", "output"], [(t, float(np.real(fir_design.apply_filter(filt, samples, t))))
                             for t in range(N, samples.size - N)]


def cmd_envelope(args):
    vals = expansions.error_envelope(args.family, args.order, args.t)
    return ["t", "envelope"], [(float(t), float(v)) for t, v in zip(args.t, vals)]


def cmd_power_norm(args):
    f = _parse_function(args.function, args.seed)
    diag = power_spaces.nu_sequence(args.family, f, args.t, args.order)
    running = np.cumsum(diag.values)
    return ["n", "raw", "cesaro"], [(n, float(diag.values[n]), float(running[n] / (n + 1)))
                                    for n in range(0, args.order + 1, max(1, args.order // args.points))]


def cmd_conditions(args):
    report = power_spaces.check_conditions(args.family, args.horizon, args.kappa)
    rows = [(name, str(flag)) for name, flag in report.flags.items()]
    rows += [(k, _fmt(v)) for k, v in report.evidence.items()]
    return ["item", "value"], rows


def cmd_check(args):
    spec = family_spec(args.family)
    N = args.orders
    checks = []

    nodes, w = gauss_quadrature(spec, 64)
    checks.append(("quadrature weights sum to 1", abs(w.sum() - 1.0) < 1e-12))
    P = eval_all_p(spec, min(N, 40), nodes)
    G = (P * w) @ P.T
    checks.append(("orthonormality by quadrature", np.abs(G - np.eye(G.shape[0])).max() < 1e-8))

    Gt = orthonormality_matrix(spec, N)
    checks.append(("operator orthonormality", np.abs(Gt - np.eye(N + 1)).max() < 1e-8))

    table = build_table(spec, min(N, 40))
    sub = np.tril(np.abs(table.b[:, : table.N + 1]), -1)
    checks.append(("structural zeros below diagonal", float(sub.max()) == 0.0))

    if spec.tag not in ("gegenbauer", "jacobi"):
        pairs = [(moment_analytic(spec, k), moment_jacobi_matrix(spec, k)) for k in range(21)]
        ok = not any(ana != 0 and abs(jac - ana) / abs(ana) > 1e-10 for ana, jac in pairs)
        checks.append(("moment oracle agreement", ok))

    om = 0.7
    # reproducing: K(om, om) integrates K(om, x)^2, a polynomial of degree 60 that 31 Gauss nodes integrate exactly
    x, wx = gauss_quadrature(spec, 31)
    direct = sum(wj * cd_kernel(spec, 30, om, xj) ** 2 for xj, wj in zip(x.tolist(), wx.tolist()))
    checks.append(("Christoffel-Darboux diagonal", abs(cd_diagonal(spec, 30, om) - direct) < 1e-9 * direct))
    cross = float(np.sum(eval_all_p(spec, 30, om) * eval_all_p(spec, 30, 1.3)))
    checks.append(("Christoffel-Darboux kernel",
                   abs(cd_kernel(spec, 30, om, 1.3) - cross) < 1e-9 * max(1.0, abs(cross))))

    width = max(len(name) for name, _ in checks)
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="chromex",
        description="Chromatic derivatives and expansions for orthonormal polynomial families.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p, family=True, grid=None, seed=False, table=True):
        """The flags a subcommand reads: --seed only where _parse_function may draw a signal,
        --out and --format only where main writes the rows."""
        if family:
            p.add_argument("--family", default="legendre", help="family string, e.g. jacobi(0.5,-0.25)")
        if table:
            p.add_argument("--out", default=None, help="output path (default stdout)")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
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
    p.add_argument("--columns", type=int, default=0, help="ignored: kbasis_rows sizes its own")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("table", help="emit the coefficient table")
    common(p)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--columns", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("expand", help="chromatic approximation of a signal")
    common(p, grid="--t", seed=True)
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
    common(p, grid="--t", seed=True)
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
    common(p, family=False, seed=True)
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
    common(p, seed=True)
    p.add_argument("--function", default="exponential:1.0")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--order", type=int, default=10000)
    p.add_argument("--points", type=_positive_int, default=100)
    p.set_defaults(func=cmd_power_norm)

    p = sub.add_parser("conditions", help="growth-condition evidence C1..C7")
    common(p)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--kappa", type=float, default=3.0)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("check", help="run the invariant suite for one family")
    common(p, table=False)
    p.add_argument("--orders", type=int, default=40)
    p.set_defaults(func=cmd_check)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        if isinstance(result, int):  # check: its report is printed
            return result
        _write_rows(args.out, *result, args.format)
        return 0
    except ChromexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (argparse.ArgumentTypeError, OSError) as exc:  # a bad --function string or file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
