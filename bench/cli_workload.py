"""The cli workload: every job is one `python -m chromex ...` command in a
fresh process, run one at a time inside a throwaway directory.

A round ("pass") runs the twelve command lines of README's command-line
section in README order, then the four commands ROADMAP item 3 records as
silently wrong or failing.  The seed only sets the `--seed` of the
`compare` command (README uses 0).  Each pass gets a fresh directory
under .bench_out/cli/, so `design-fir` writes k32.json where `apply-fir`
reads it; the directory is removed after the pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import Job, Workload

README_COMMANDS = (
    "chromex families --list",
    "chromex poly --family hermite --n 8 --omega=-3:3:0.05",
    "chromex basis --family legendre --n 15 --t=-5:5:0.01 --columns 200",
    "chromex expand --family legendre --function sinc --order 15 --u 0.3 --t=-3:3:0.05",
    "chromex compare --family legendre --function shannon_random --order 15 --seed 0 --t=-6:6:0.1",
    "chromex identity --family chebyshev_t --kind constant_one --order 60 --z 0.1:1.5:0.1",
    "chromex envelope --family legendre --order 15 --t=-2:2:0.02",
    "chromex design-fir --family legendre --n 32 --half-width 64 --filter-file k32.json",
    "chromex apply-fir --filter-file k32.json --signal cos:1.0 --extent 128",
    "chromex power-norm --family hermite --function exponential:1.0 --order 100000",
    "chromex conditions --family hermite --horizon 10000",
    "chromex check --family legendre --orders 40",
)
ITEM3_COMMANDS = (
    "chromex basis --family legendre --n 10 --t=14:16:1",
    "chromex identity --kind exponential --order 40 --z 10:20:5",
    "chromex envelope --family legendre --order 15 --t=16:20:4",
    "chromex basis --family hermite --n 10 --t=-3:3:0.5",
)
WARMUP_COMMAND = "chromex families --list"


def command_list(seed):
    """argv lists of one pass; README's compare seed replaced by `seed`."""
    out = []
    for line in README_COMMANDS + ITEM3_COMMANDS:
        argv = shlex.split(line)[1:]
        if argv[0] == "compare":
            argv[argv.index("--seed") + 1] = str(seed)
        out.append(argv)
    return out


def _opt(argv, name, default=None):
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def _rows(stdout):
    return list(csv.reader(io.StringIO(stdout)))


def _cols(stdout):
    rows = _rows(stdout)
    return np.array([[float(x) for x in r] for r in rows[1:]])


class CliWorkload(Workload):
    name = "cli"
    tail_percentile = 79
    round_s = 4.9
    why = ("each job is one chromex command in a fresh interpreter, so start-up "
           "and import (about 0.2 s of a 0.25-1.5 s command) count in full")

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ)

    def start(self, seed):
        self.seed = seed
        self.passes = 0

    def rounds(self):
        next_id = 0
        while True:
            jobs = [Job(next_id + i, argv[0], _opt(argv, "--family"), {"argv": argv})
                    for i, argv in enumerate(command_list(self.seed))]
            next_id += len(jobs)
            yield self._in_fresh_dir(jobs)

    def _in_fresh_dir(self, jobs):
        self.passes += 1
        work = os.path.join(self.root, ".bench_out", "cli", f"{os.getpid()}-{self.passes}")
        for job in jobs:
            job.params["cwd"] = work
        jobs[0].params["fresh_dir"] = True
        jobs[-1].params["last"] = True
        return jobs

    def warmup(self):
        work = os.path.join(self.root, ".bench_out", "cli", f"{os.getpid()}-warmup")
        return Job(-1, "families", None, {"argv": shlex.split(WARMUP_COMMAND)[1:], "cwd": work,
                                          "fresh_dir": True, "last": True})

    def _command(self, job):
        """Run one command; a ChromexError stands for the CLI's exit 1."""
        from chromex import ChromexError

        cwd = job.params["cwd"]
        proc = subprocess.run([sys.executable, "-m", "chromex", *job.params["argv"]], cwd=cwd,
                              env=self.env, capture_output=True, text=True, timeout=120)
        files = {}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name)) as fh:
                files[name] = fh.read()
        job.notes["output_bytes"] = len(proc.stdout.encode()) + sum(len(v.encode()) for v in files.values())
        if proc.returncode == 1 and proc.stderr.startswith("error:"):
            raise ChromexError(proc.stderr.strip())
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout, files

    def run(self, job, call):
        cwd = job.params["cwd"]
        if job.params.get("fresh_dir"):
            shutil.rmtree(cwd, ignore_errors=True)
        # a traced run repeats each job, the pass's last one included
        os.makedirs(cwd, exist_ok=True)
        try:
            return call(self._command, job, span=f"cli.{job.kind}")
        finally:
            if job.params.get("last"):
                shutil.rmtree(cwd, ignore_errors=True)

    # -- per-layer counts (traced run) -----------------------------------------

    def layer_counts(self, records):
        def median_wall(code):
            walls = []
            for _ in range(5):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True)
                walls.append(time.perf_counter() - t0)
            return statistics.median(walls)

        interp = median_wall("pass")
        imported = median_wall("import chromex")
        cmd = statistics.fmean(r.raw_s for r in records) - imported
        return {"cli.interp_s": interp, "cli.import_s": imported - interp, "cli.command_s": cmd,
                "cli.output_bytes": sum(r[0].notes.get("output_bytes", 0) for r in records)}

    # -- checks ----------------------------------------------------------------

    def check(self, job, out):
        import oracles

        stdout, files = out
        return getattr(self, "check_" + job.kind.replace("-", "_"))(job, stdout, files, oracles)

    def check_families(self, job, stdout, files, o):
        want = [
            ("legendre", True, 0.0, "[-pi, pi]", 0.0),
            ("chebyshev_t", True, 0.0, "[-pi, pi]", 0.0),
            ("chebyshev_u", True, 0.0, "[-pi, pi]", 0.0),
            ("gegenbauer(1)", True, 0.0, "[-pi, pi]", 0.0),
            ("jacobi(0.5,-0.25)", False, 0.0, "[-pi, pi]", 0.0),
            ("hermite", True, 0.5, "real line", 0.0),
            ("laguerre", False, 1.0, "half line", 1.0),
            ("herron", True, 1.0, "real line", 2 / math.pi),
        ]
        rows = _rows(stdout)
        ok = rows[0] == ["family", "symmetric", "p", "support", "rho"] and len(rows) == 9
        for row, (fam, sym, p, support, rho) in zip(rows[1:], want):
            # a CSV reader must get back five fields per family
            ok = ok and len(row) == 5 and row[0] == fam and row[1] == str(sym) \
                and float(row[2]) == p and row[3] == support and abs(float(row[4]) - rho) <= o.SLACK
        return o.Verdict(not ok, 0.0 if ok else 1.0, 1.0)

    def check_poly(self, job, stdout, files, o):
        argv = job.params["argv"]
        n = int(_opt(argv, "--n"))
        fam = _opt(argv, "--family")
        data = _cols(stdout)
        ref = o.p_ref(fam, n, data[:, 0])[n]
        bound = np.array([o.abs_poly_values(fam, n, w)[n] for w in data[:, 0]])
        return o.verdict(data[:, 1], ref, o.sum_slack(bound, n) + o.SLACK * np.abs(ref))

    def _basis_check(self, job, stdout, o):
        argv = job.params["argv"]
        n = int(_opt(argv, "--n"))
        data = _cols(stdout)
        ref = o.kbasis_ref(_opt(argv, "--family"), n, data[:, 0])[n]
        return o.verdict(data[:, 2] + 1j * data[:, 3], ref,
                         o.TAIL_TOL + o.SLACK * np.maximum(1, np.abs(ref)))

    def check_basis(self, job, stdout, files, o):
        return self._basis_check(job, stdout, o)

    def check_expand(self, job, stdout, files, o):
        argv = job.params["argv"]
        N = int(_opt(argv, "--order"))
        u = float(_opt(argv, "--u"))
        data = _cols(stdout)
        t = data[:, 0]
        k = np.arange(N + 1)
        jet = o.kbasis_ref("legendre", N, np.array([u]))[:, 0]     # K^k[sinc](u), m = sinc
        basis = o.kbasis_ref("legendre", N, t - u)
        coef = (-1.0) ** k * jet
        ca = coef @ basis
        f = np.sinc(t)
        tol = o.series_tol(np.abs(coef), np.abs(basis))
        got = np.concatenate([data[:, 1] + 1j * data[:, 2], data[:, 3] + 1j * data[:, 4], data[:, 5]])
        ref = np.concatenate([f, ca, np.abs(f - ca)])
        return o.verdict(got, ref, np.concatenate([o.SLACK * np.ones(t.size), tol, tol + o.SLACK]),
                         scale=1.0)

    def check_compare(self, job, stdout, files, o):
        argv = job.params["argv"]
        N = int(_opt(argv, "--order"))
        seed = int(_opt(argv, "--seed"))
        data = _cols(stdout)
        t = data[:, 0]
        count = 65
        rng = np.random.Generator(np.random.PCG64(seed))
        s = rng.uniform(-1.0, 1.0, count)
        m = -(count // 2) + np.arange(count)
        f = np.sinc(t[:, None] - m[None, :]) @ s
        k = np.arange(N + 1)
        jets_m = o.kbasis_ref("legendre", N, -m.astype(float))       # K^k[sinc](0 - m)
        jet = jets_m @ s
        basis = o.kbasis_ref("legendre", N, t)
        coef = (-1.0) ** k * jet
        ca = (coef @ basis).real
        ca_tol = o.series_tol(np.abs(coef), np.abs(basis)) \
            + o.SLACK * (np.abs(jets_m) @ np.abs(s)) @ np.abs(basis)
        # Taylor coefficients of sinc(z - m) at 0: int_{-1/2}^{1/2} (2 pi i v)^j / j! e^{-2 pi i v m} dv
        nodes, w = np.polynomial.legendre.leggauss(64)
        v, w = nodes / 2, w / 2
        fact = np.array([math.factorial(j) for j in k], dtype=float)
        mom = ((2j * math.pi * v[None, :]) ** k[:, None] / fact[:, None]) * w[None, :]
        taylor_c = (mom @ np.exp(-2j * math.pi * np.outer(v, m))) @ s
        terms = taylor_c[None, :] * t[:, None] ** k[None, :]
        taylor = terms.sum(axis=1).real
        ta_tol = o.sum_slack(np.abs(terms).sum(axis=1), N) + o.SLACK
        got = np.concatenate([data[:, 1], data[:, 2], data[:, 3], data[:, 4], data[:, 5]])
        ref = np.concatenate([f, ca, taylor, np.abs(f - ca), np.abs(f - taylor)])
        tol = np.concatenate([o.SLACK * np.ones(t.size), ca_tol, ta_tol, ca_tol + o.SLACK, ta_tol + o.SLACK])
        return o.verdict(got, ref, tol, scale=1.0)

    def check_identity(self, job, stdout, files, o):
        argv = job.params["argv"]
        fam = _opt(argv, "--family", "legendre")
        N = int(_opt(argv, "--order"))
        kind = _opt(argv, "--kind")
        omega = float(_opt(argv, "--omega", "1.0"))
        data = _cols(stdout)
        z = data[:, 0]
        k = np.arange(N + 1)
        basis = o.kbasis_ref(fam, N, z)
        if kind == "exponential":
            coef = ((-1j) ** k) * o.p_ref(fam, N, omega)[:, 0]
            lhs = np.exp(1j * omega * z)
        else:
            coef = ((-1.0) ** k) * (1j ** k) * o.p_ref(fam, N, 0.0)[:, 0]
            lhs = np.ones(z.size)
        ref = np.abs(lhs - coef @ basis)
        return o.verdict(data[:, 1], ref, o.series_tol(np.abs(coef), np.abs(basis)), scale=1.0)

    def check_envelope(self, job, stdout, files, o):
        argv = job.params["argv"]
        N = int(_opt(argv, "--order"))
        data = _cols(stdout)
        basis = np.abs(o.kbasis_ref(_opt(argv, "--family"), N, data[:, 0]))
        ref = np.sqrt(np.maximum(0.0, 1.0 - (basis ** 2).sum(axis=0)))
        dS = 2 * o.TAIL_TOL * basis.sum(axis=0) + o.sum_slack((basis ** 2).sum(axis=0), N)
        tol = np.minimum(np.sqrt(dS), dS / np.maximum(ref, 1e-300)) + o.SLACK
        return o.verdict(data[:, 1], ref, tol, scale=1.0)

    def check_design_fir(self, job, stdout, files, o):
        argv = job.params["argv"]
        n = int(_opt(argv, "--n"))
        hw = int(_opt(argv, "--half-width"))
        doc = json.loads(files[_opt(argv, "--filter-file")])
        taps = np.array([float(c) for c in doc["taps"]])
        dense = np.linspace(0.0, math.pi, 8001)
        H = np.exp(1j * np.outer(dense, np.arange(-hw, hw + 1))) @ taps
        H = H.real if n % 2 == 0 else H.imag
        sign = (-1.0) ** (n // 2) if n % 2 == 0 else (-1.0) ** ((n - 1) // 2)
        target = sign * o.p_ref(_opt(argv, "--family"), n, dense)[n]
        err = np.abs(H - target)
        dpass = dense <= float(doc["passband_edge"])
        dstop = dense >= float(doc["stopband_edge"])
        nz = dpass & (np.abs(target) > 1e-300)
        report = {r[0]: float(r[1]) for r in _rows(stdout)[1:]}
        got = [report["passband_max_error"], report["stopband_max_magnitude"],
               report["passband_median_relative_error"], report["grid_size"]]
        ref = [err[dpass].max(), np.abs(H[dstop]).max(),
               np.median(err[nz] / np.abs(target[nz])), 16 * (2 * hw + 1)]
        return o.verdict(got, ref, o.REPORT_TOL * np.maximum(1.0, np.abs(ref)), scale=1.0)

    def check_apply_fir(self, job, stdout, files, o):
        argv = job.params["argv"]
        doc = json.loads(files[_opt(argv, "--filter-file")])
        taps = np.array([float(c) for c in doc["taps"]])
        hw = int(doc["half_width"])
        extent = int(_opt(argv, "--extent"))
        omega = float(_opt(argv, "--signal").split(":")[1])
        data = _cols(stdout)
        H = np.sum(taps * np.exp(1j * omega * np.arange(-hw, hw + 1)))
        ref = np.real(np.exp(1j * omega * (data[:, 0] - extent)) * H)
        return o.verdict(data[:, 1], ref, o.sum_slack(np.abs(taps).sum(), taps.size),
                         scale=max(1.0, abs(H)))

    def check_power_norm(self, job, stdout, files, o):
        argv = job.params["argv"]
        N = int(_opt(argv, "--order"))
        fam = _opt(argv, "--family")
        omega = float(_opt(argv, "--function").split(":")[1])
        data = _cols(stdout)
        nu = np.cumsum(o.poly_seq(fam, N, omega) ** 2) / o.inv_gamma_cumsum_ref(fam, N)
        nu = np.asarray(nu, dtype=float)
        idx = data[:, 0].astype(int)
        cesaro = np.cumsum(nu)[idx] / (idx + 1)
        got = np.concatenate([data[:, 1] / nu[idx], data[:, 2] / cesaro])
        return o.verdict(got, np.ones(got.size), o.sum_slack(1.0, N) + o.SLACK, scale=1.0)

    def check_conditions(self, job, stdout, files, o):
        argv = job.params["argv"]
        N = int(_opt(argv, "--horizon"))
        gam = np.asarray(o.gamma_beta_ref(_opt(argv, "--family"), N + 12)[0], dtype=float)
        g = gam[: N + 1]
        d1 = np.diff(gam)[: N + 1]
        d2 = np.diff(gam, 2)[: N + 1]
        half = N // 2
        s4, s5 = np.cumsum(1.0 / g), np.cumsum(g ** -3.0)
        s6, s7 = np.cumsum(np.abs(d1) / g ** 2), np.cumsum(np.abs(d2) / g)
        ref = {
            "gamma_end": g[-1], "gamma_growth_ratio": g[-1] / g[math.isqrt(N)],
            "max_abs_dgamma_tail": np.abs(d1[half:N]).max(),
            "min_shift_margin": (gam[half + 10: N + 10] - g[half:N]).min(),
            "sum_inv_gamma": s4[-1], "sum_inv_gamma_recent": s4[-1] - s4[half],
            "sum_inv_gamma_kappa": s5[-1], "sum_inv_gamma_kappa_recent": s5[-1] - s5[half],
            "sum_dgamma_over_gamma2": s6[-1], "sum_dgamma_over_gamma2_recent": s6[-1] - s6[half],
            "sum_d2gamma_over_gamma": s7[-1], "sum_d2gamma_over_gamma_recent": s7[-1] - s7[half],
        }
        rows = {r[0]: r[1] for r in _rows(stdout)[1:]}
        flags_ok = all(rows.get(f"C{i}") == "True" for i in range(1, 8))
        keys = sorted(ref)
        got = np.array([float(rows[k]) for k in keys])
        want = np.array([ref[k] for k in keys])
        tol = o.sum_slack(np.abs(want), N) + o.sum_slack(g[-1], N)
        v = o.verdict(got, want, tol, scale=float(np.max(np.abs(want))))
        v.wrong = v.wrong or not flags_ok     # hermite meets C1..C7 analytically
        return v

    def check_check(self, job, stdout, files, o):
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        ok = bool(lines) and all(ln.rstrip().endswith("PASS") for ln in lines)
        return o.Verdict(not ok, 0.0 if ok else 1.0, 1.0)
