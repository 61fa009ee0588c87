"""Seeded job streams for the library workloads, how to run each job
through the public chromex functions, and how to check its output.

A workload yields *rounds*.  A round is a fixed list of job slots (kind,
family, size); the seed picks the arguments (frequencies, expansion
points, grid lengths, sample streams, FIR orders).  Every run executes
whole rounds, so each run does the same kinds of work in the same
proportions and runs differ in the seeded values.  That keeps the
end-to-end figures steady across seeds.

Each job is a list of calls into chromex.  `call(fn, *args, counts=...)`
is supplied by the worker: untraced it just calls `fn`; traced it
records one span named `<module>.<function>` with the counts given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

import chromex as cx
from chromex.basis_functions import suggest_columns


@dataclass
class Job:
    id: int
    kind: str
    family: str | None
    params: dict
    band: str | None = None          # |z - u| band of the evaluation
    table_key: tuple | None = None   # (family, N, K-determining radius)
    notes: dict = field(default_factory=dict)


def _band(radius):
    return "1-3" if radius <= 3 else ("3-10" if radius <= 10 else "10-20")


class Workload:
    name = ""
    why = ""
    # the highest percentile with at least ten jobs beyond it in a run of
    # this workload at the benchmark's run length (BENCHMARK.json)
    tail_percentile = 92
    # reference seconds one round took at this workload's first commit; a
    # run of --seconds S does round(S / round_s) rounds (at least one), so
    # it runs the same jobs at every commit and on every machine
    round_s = 5.8

    def rounds_for(self, seconds):
        return max(1, round(seconds / self.round_s))

    def start(self, seed):
        """Seeded set-up: draw the per-seed state (working sets, filters)."""
        self.rng = np.random.default_rng([seed, 1])
        self.state = self.seed_state(self.rng)

    def rounds(self):
        """Yield rounds (lists of Jobs) forever; ids run on across rounds."""
        next_id = 0
        r = 0
        while True:
            jobs = self.make_round(self.rng, self.state, r, next_id)
            next_id += len(jobs)
            r += 1
            yield jobs

    def seed_state(self, rng):
        return None

    def warmup(self):
        """A small job run once, untimed, at the end of set-up."""
        raise NotImplementedError

    def run(self, job, call):
        return getattr(self, "run_" + job.kind)(job, call)

    def digest(self, job, out):
        """The part of a job's output its check reads (default: all)."""
        return out

    def check(self, job, out):
        import oracles

        return getattr(self, "check_" + job.kind)(job, out, oracles)


# ---------------------------------------------------------------------------
# evaluate

EVAL_FAMILIES = ("legendre", "chebyshev_t", "chebyshev_u", "gegenbauer(1)",
                 "jacobi(0.5,-0.25)", "hermite")
CLOSED_FAMILIES = ("legendre", "chebyshev_t", "chebyshev_u", "hermite")
# band -> evaluation radius max|z - u|; hermite's basis decays like
# e^{-z^2/4}, so its bands sit lower (and its series fails beyond ~3)
RADIUS = {"low": 3.0, "mid": 10.0, "high": 20.0}
HERMITE_RADIUS = {"low": 1.5, "mid": 3.0, "high": 6.0}
ORDER_STRATA = {"S": (5, 10), "M": (11, 20), "L": (21, 40)}
# one round per family: (kind, band, order stratum, points); the three
# (band, stratum) pairs are the family's three tables, each used twice
EVAL_SLOTS = (
    ("basis", "low", "S", 1000),
    ("compare", "low", "S", 200),
    ("expand", "mid", "M", 120),
    ("identity", "mid", "M", 20),
    ("basis", "high", "L", 300),
    ("envelope", "high", "L", 16),
    ("closed", "high", "L", 1000),
)
IDENTITY_KINDS = ("exponential", "constant_one", "translation")
FIR = dict(family="legendre", n=4, half_width=32)


class Evaluate(Workload):
    name = "evaluate"
    why = ("read side: basis values, expansions, envelopes, identities and FIR "
           "application over a small set of reused (family, N, K) tables")

    def seed_state(self, rng):
        # the small table working set: one order per (family, stratum),
        # spread evenly over the stratum; the same for every seed, because
        # the series cost grows with the order
        orders = {}
        for s, (lo, hi) in ORDER_STRATA.items():
            spread = np.linspace(lo, hi, len(EVAL_FAMILIES)).round().astype(int)
            for f, N in zip(EVAL_FAMILIES, spread):
                orders[(f, s)] = int(N)
        filt, _ = cx.design_ls(FIR["family"], FIR["n"], FIR["half_width"])
        return {"orders": orders, "filter": filt}

    def make_round(self, rng, st, r, first_id):
        jobs = []
        for fi, fam in enumerate(EVAL_FAMILIES):
            radii = HERMITE_RADIUS if fam == "hermite" else RADIUS
            for si, (kind, band, stratum, points) in enumerate(EVAL_SLOTS):
                if kind == "closed" and fam not in CLOSED_FAMILIES:
                    continue
                N = st["orders"][(fam, stratum)]
                R = radii[band]
                p = {"N": N, "R": R,
                     "points": int(points * rng.uniform(0.95, 1.05)),
                     # fixed rows: every round is the same work, so a
                     # run's figures do not depend on how many rounds fit
                     "n": (5 * fi + 3 * si) % (N + 1),
                     "u": float(rng.uniform(-0.5, 0.5)),
                     "omega": float(rng.uniform(0.3, 2.5))}
                if kind == "identity":
                    # the CLI sizes the table for max|z| + |u|; keep that at R
                    p["identity"] = IDENTITY_KINDS[fi % 3]
                    p["u"] = 0.4
                key = None if kind == "closed" else (fam, N, R)
                jobs.append(Job(first_id + len(jobs), kind, fam, p, _band(R), key))
        for _ in range(2):
            p = {"length": int(rng.integers(300, 1001)), "omega": float(rng.uniform(0.2, 2.5))}
            jobs.append(Job(first_id + len(jobs), "apply_fir", None, p))
        return jobs

    def warmup(self):
        return Job(-1, "basis", "legendre", {"N": 5, "R": 3.0, "points": 50, "n": 2,
                                             "u": 0.0, "omega": 1.0}, "1-3", ("legendre", 5, 3.0))

    # -- runs ---------------------------------------------------------------

    def _table(self, job, call):
        fam, N, R = job.family, job.params["N"], job.params["R"]
        K = call(suggest_columns, fam, N, R)
        dim = (K + N) // 2 + 2
        table = call(cx.table_for, fam, N, K, counts={
            "chromatic_core.table_entries": (N + 1) * (K + 1),
            "chromatic_core.flops_computed": 5 * K * dim,
            "families.coeffs": dim + 1,
        }, key=(fam, N, K))
        job.notes["K"] = K
        return table

    def _grid(self, job, center=0.0):
        p = job.params
        return center + np.linspace(-p["R"], p["R"], p["points"])

    def _identity_grid(self, job):
        p = job.params
        extent = p["R"] - abs(p["u"])
        return np.linspace(-extent, extent, p["points"])

    @staticmethod
    def _jet_counts(p, points):
        # the jet of e^{i omega z} needs p_0..p_N at omega
        return {"expansions.points": points, "orthopoly.poly_values": p["N"] + 1,
                "families.coeffs": p["N"] + 1}

    def run_basis(self, job, call):
        table = self._table(job, call)
        t = self._grid(job).astype(complex)
        return call(cx.kbasis_series, table, job.params["n"], t,
                    counts={"basis_functions.row_points": t.size})

    def run_closed(self, job, call):
        t = self._grid(job)
        return call(cx.kbasis_closed, job.family, job.params["n"], t,
                    counts={"basis_functions.closed_points": t.size})

    def run_expand(self, job, call):
        p = job.params
        table = self._table(job, call)
        z = self._grid(job, p["u"])
        return call(cx.chromatic_approximation_grid, job.family, cx.Exponential(p["omega"]),
                    p["u"], p["N"], z, table, counts=self._jet_counts(p, z.size))

    def run_compare(self, job, call):
        p = job.params
        table = self._table(job, call)
        t = self._grid(job, p["u"])
        rows = call(cx.taylor_vs_chromatic_comparison, job.family, cx.Exponential(p["omega"]),
                    p["u"], p["N"], t, table, counts=self._jet_counts(p, t.size))
        return np.array([row[1:] for row in rows])

    def run_envelope(self, job, call):
        table = self._table(job, call)
        out = [call(cx.error_envelope, job.family, job.params["N"], float(t), table,
                    counts={"expansions.envelope_points": 1})
               for t in self._grid(job)]
        return np.array(out)

    def run_identity(self, job, call):
        p = job.params
        table = self._table(job, call)
        kind = p["identity"]
        out = []
        for z in self._identity_grid(job):
            if kind == "exponential":
                args = (cx.identity_exponential, job.family, p["omega"], float(z), p["N"], table)
            elif kind == "translation":
                args = (cx.identity_translation, job.family, p["u"], float(z), p["N"], table)
            else:
                args = (cx.identity_constant_one, job.family, float(z), p["N"], table)
            counts = self._jet_counts(p, 1) if kind == "exponential" else {"expansions.points": 1}
            out.append(call(*args, counts=counts))
        return np.array(out)

    def run_apply_fir(self, job, call):
        filt = self.state["filter"]
        hw = filt.half_width
        samples = np.cos(job.params["omega"] * np.arange(job.params["length"] + 2 * hw))
        return np.array([call(cx.apply_filter, filt, samples, t,
                              counts={"fir_design.applied_samples": 1})
                         for t in range(hw, samples.size - hw)])

    # -- checks -------------------------------------------------------------

    def _rounding_ok(self, o, job, rows):
        """False where the series cancels more than float64 can carry.

        Recorded next to each wrong value: a wrong value in a job whose
        rounding bound 2 K eps sum_k |b_k| R^k exceeds the tolerance is
        ROADMAP item 3's missing rounding certificate.
        """
        K = job.notes.get("K", 0)
        R = job.params["R"]
        bound = max(2 * (K + 1) * o.EPS * o.abs_series_sum(job.family, n, R) for n in rows)
        job.notes["rounding_bound"] = bound
        return bound <= o.TAIL_TOL

    def check_basis(self, job, out, o):
        n = job.params["n"]
        ref = o.kbasis_ref(job.family, n, self._grid(job))[n]
        self._rounding_ok(o, job, [n])
        return o.verdict(out, ref, o.TAIL_TOL + o.SLACK * np.maximum(1, np.abs(ref)))

    def check_closed(self, job, out, o):
        n = job.params["n"]
        ref = o.kbasis_ref(job.family, n, self._grid(job))[n]
        return o.verdict(out, ref, o.TAIL_TOL + o.SLACK * np.maximum(1, np.abs(ref)))

    def _ca_ref(self, o, job, z):
        p = job.params
        N = p["N"]
        k = np.arange(N + 1)
        jet = (1j ** k) * o.p_ref(job.family, N, p["omega"])[:, 0] * np.exp(1j * p["omega"] * p["u"])
        basis = o.kbasis_ref(job.family, N, z - p["u"])
        coef = ((-1.0) ** k) * jet
        return coef @ basis, o.series_tol(np.abs(coef), np.abs(basis))

    def check_expand(self, job, out, o):
        self._rounding_ok(o, job, range(job.params["N"] + 1))
        ref, tol = self._ca_ref(o, job, self._grid(job, job.params["u"]))
        return o.verdict(out, ref, tol)

    def check_compare(self, job, out, o):
        p = job.params
        t = self._grid(job, p["u"])
        self._rounding_ok(o, job, range(p["N"] + 1))
        ca, ca_tol = self._ca_ref(o, job, t)
        f = np.exp(1j * p["omega"] * t)
        k = np.arange(p["N"] + 1)
        terms = (1j * p["omega"] * (t[None, :] - p["u"])) ** k[:, None] / np.array(
            [math.factorial(j) for j in k], dtype=float)[:, None] * np.exp(1j * p["omega"] * p["u"])
        taylor = terms.sum(axis=0)
        ta_tol = o.sum_slack(np.abs(terms).sum(axis=0), p["N"]) + o.SLACK
        ref = np.concatenate([f, ca, taylor])
        tol = np.concatenate([o.SLACK * np.ones(t.size), ca_tol, ta_tol])
        return o.verdict(np.asarray(out).T.ravel(), ref, tol, scale=1.0)

    def check_envelope(self, job, out, o):
        N = job.params["N"]
        self._rounding_ok(o, job, range(N + 1))
        basis = np.abs(o.kbasis_ref(job.family, N, self._grid(job)))
        ref = np.sqrt(np.maximum(0.0, 1.0 - (basis ** 2).sum(axis=0)))
        dS = 2 * o.TAIL_TOL * basis.sum(axis=0) + o.sum_slack((basis ** 2).sum(axis=0), N)
        tol = np.minimum(np.sqrt(dS), dS / np.maximum(ref, 1e-300)) + o.SLACK
        return o.verdict(out, ref, tol, scale=1.0)

    def check_identity(self, job, out, o):
        p = job.params
        N = p["N"]
        z = self._identity_grid(job)
        k = np.arange(N + 1)
        basis = o.kbasis_ref(job.family, N, z)
        self._rounding_ok(o, job, range(N + 1))
        if p["identity"] == "exponential":
            coef = ((-1j) ** k) * o.p_ref(job.family, N, p["omega"])[:, 0]
            lhs = np.exp(1j * p["omega"] * z)
        elif p["identity"] == "constant_one":
            coef = ((-1.0) ** k) * (1j ** k) * o.p_ref(job.family, N, 0.0)[:, 0]
            lhs = np.ones(z.size)
        else:
            bu = o.kbasis_ref(job.family, N, np.array([p["u"]]))[:, 0]
            coef = ((-1.0) ** k) * bu
            lhs = o.kbasis_ref(job.family, 0, z + p["u"])[0]
        ref = np.abs(lhs - coef @ basis)
        return o.verdict(out, ref, o.series_tol(np.abs(coef), np.abs(basis)), scale=1.0)

    def check_apply_fir(self, job, out, o):
        filt = self.state["filter"]
        hw = filt.half_width
        w = job.params["omega"]
        H = np.sum(filt.taps * np.exp(1j * w * np.arange(-hw, hw + 1)))
        t = np.arange(hw, job.params["length"] + hw)
        ref = np.real(np.exp(1j * w * t) * H)
        tol = o.sum_slack(np.abs(filt.taps).sum(), filt.taps.size)
        return o.verdict(out, ref, tol, scale=max(1.0, abs(H)))


# ---------------------------------------------------------------------------
# construct

ALL_FAMILIES = ("legendre", "chebyshev_t", "chebyshev_u", "gegenbauer(1)",
                "jacobi(0.5,-0.25)", "hermite", "laguerre", "herron")
FIR_FAMILIES = ALL_FAMILIES[:5]


def _stratum(lo, hi, count, index, u, log=False):
    """Value in stratum `index` of `count` equal strata of [lo, hi]."""
    x = (index + u) / count
    if log:
        return lo * (hi / lo) ** x
    return lo + (hi - lo) * x


# orthonormality strata of N in [50, 400]: the bounded families rotate
# over five of the eight; each unbounded family gets the other three (low,
# middle, top) in every round, so each round holds the same mix
ORTHO_STRATA = ((0, 2, 3, 5, 6), (1, 4, 7))


class Construct(Workload):
    name = "construct"
    tail_percentile = 97
    round_s = 1.86
    why = ("write side: table builds, basis-change matrices, orthonormality, Gauss "
           "rules and FIR designs; every (family, N, K) is new, so no table repeats")

    def seed_state(self, rng):
        return {"used": set()}

    @staticmethod
    def _fresh(fam, N, used):
        """N, or the next order whose (family, N) table was never built."""
        while (fam, N) in used:
            N += 1
        used.add((fam, N))
        return N

    def make_round(self, rng, st, r, first_id):
        used = st["used"]
        jobs = []

        def add(kind, fam, params, key=None):
            jobs.append(Job(first_id + len(jobs), kind, fam, params, table_key=key))

        build_n = np.linspace(100, 500, 8).round().astype(int)
        conv_n = np.linspace(20, 99, 8).round().astype(int)
        gauss_n = np.geomspace(16, 256, 8).round().astype(int)
        for i, fam in enumerate(ALL_FAMILIES):
            N = self._fresh(fam, int(build_n[(3 * i + r) % 8]), used)
            add("build", fam, {"N": N}, (fam, N, 2 * N + 32))
            Nc = self._fresh(fam, int(conv_n[(5 * i + r) % 8]), used)
            add("conversion", fam, {"N": Nc}, (fam, Nc, 2 * Nc + 32))
            bounded, unbounded = ORTHO_STRATA
            for k in (unbounded if i >= 5 else [bounded[(i + r) % 5]]):
                add("orthonormality", fam, {"N": int(_stratum(50, 400, 8, k, 0.5))})
            add("gauss", fam, {"n": int(gauss_n[(7 * i + r) % 8])})
        for i, fam in enumerate(FIR_FAMILIES):
            hw = int(_stratum(16, 128, 5, (2 * i + r) % 5, 0.5, log=True))
            add("design", fam, {"n": int(rng.integers(0, min(64, 2 * hw) + 1)), "half_width": hw})
        return jobs

    def warmup(self):
        # the first LAPACK call in a process is slow; pay it in set-up
        return Job(-1, "orthonormality", "legendre", {"N": 12})

    def run_build(self, job, call):
        N = job.params["N"]
        K = 2 * N + 32
        dim = (K + N) // 2 + 2
        return call(cx.build_table, job.family, N, counts={
            "chromatic_core.table_entries": (N + 1) * (K + 1),
            "chromatic_core.flops_computed": 5 * K * dim,
            "families.coeffs": dim + 1,
        }, key=(job.family, N, K))

    def run_conversion(self, job, call):
        N = job.params["N"]
        K = 2 * N + 32
        return call(cx.conversion_matrices, job.family, N, counts={
            "chromatic_core.table_entries": (N + 1) * (K + 1) + 3 * (N + 1) ** 2,
            "chromatic_core.flops_computed": 5 * K * ((K + N) // 2 + 2) + 4 * (N + 1) ** 2,
            "families.coeffs": (K + N) // 2 + 3 + N + 1,
        }, key=(job.family, N, K))

    def run_orthonormality(self, job, call):
        N = job.params["N"]
        return call(cx.orthonormality_matrix, job.family, N, counts={
            "chromatic_core.flops_computed": 2 * (N + 1) ** 2 * (N + 4) + 10 * (N + 4) ** 2,
            "families.coeffs": 2 * N + 6,
            "families.quad_nodes": N + 4,
            "orthopoly.poly_values": (N + 1) * (N + 4),
        })

    def run_gauss(self, job, call):
        n = job.params["n"]
        return call(cx.gauss_quadrature, job.family, n,
                    counts={"families.quad_nodes": n, "families.coeffs": n})

    def run_design(self, job, call):
        p = job.params
        hw = p["half_width"]
        rows = 16 * (2 * hw + 1)
        cols = hw + 1 if p["n"] % 2 == 0 else hw
        return call(cx.design_ls, job.family, p["n"], hw, counts={
            "fir_design.designs": 1,
            "fir_design.lstsq_cells_computed": rows * cols * 9,
            "orthopoly.poly_values": (p["n"] + 1) * (rows + 8001),
        })

    def digest(self, job, out):
        if job.kind == "build":
            # rows n <= 20 are checked entry by entry, the rest for finiteness
            job.notes["non_finite_entries"] = int(np.sum(~np.isfinite(out.b)))
            return out.b[:21].copy()
        if job.kind == "orthonormality":
            return np.max(np.abs(out - np.eye(out.shape[0])))
        return out

    def check_build(self, job, rows_b, o):
        rows = min(job.params["N"], 20)
        K = rows_b.shape[1] - 1
        ref, mag = o.table_rows_ref(job.family, rows, K)
        tol, sharp = o.recurrence_tol(ref, mag, rows)
        # the recurrence is reliable through column K - n of row n
        reliable = np.arange(K + 1)[None, :] <= K - np.arange(rows + 1)[:, None]
        v = o.verdict(rows_b[: rows + 1][reliable], ref[reliable], tol[reliable],
                      elementwise=True, sharp=sharp[reliable])
        v.wrong = v.wrong or job.notes["non_finite_entries"] > 0
        return v

    def check_conversion(self, job, mats, o):
        N = job.params["N"]
        w = 0.5
        k = np.arange(N + 1)
        # K^n e^{iwz} at 0 is i^n p_n(w) = sum_k k2d[n][k] (iw)^k; the
        # polynomial with absolute coefficients bounds the cancellation
        lhs = (mats.k2d * (1j * w) ** k[None, :]).sum(axis=1)
        ref = (1j ** k) * o.p_ref(job.family, N, w)[:, 0]
        tol = o.sum_slack(o.abs_poly_values(job.family, N, w), N) + o.SLACK * np.abs(ref)
        # d2k_scaled[n][k] = (-1)^k b[k][n]: the table rows by the recurrence
        rows = min(N, 20)
        tab, mag = o.table_rows_ref(job.family, rows, 2 * N + 32)
        tol2, sharp = o.recurrence_tol(tab[:, : N + 1], mag[:, : N + 1], rows)
        got = mats.d2k_scaled[:, : rows + 1].T * ((-1.0) ** np.arange(rows + 1))[:, None]
        return o.verdict(np.concatenate([lhs, got.ravel()]), np.concatenate([ref, tab[:, : N + 1].ravel()]),
                         np.concatenate([tol, tol2.ravel()]), elementwise=True,
                         sharp=np.concatenate([np.ones(N + 1, bool), sharp.ravel()]))

    def check_orthonormality(self, job, deviation, o):
        # deviation = max |G - I|, taken when the job ran
        return o.verdict(deviation, 0.0, o.CHECK_TOL + o.SLACK, scale=1.0)

    def check_gauss(self, job, out, o):
        nodes, w = out
        n = job.params["n"]
        got, want, tol, scale = [w.sum()], [1.0], [1e-12], [1.0]
        for k in range(1, min(2 * n - 1, 20) + 1):
            if job.family in ("gegenbauer(1)", "jacobi(0.5,-0.25)"):
                mu = cx.moment_jacobi_matrix(job.family, k)
            else:
                mu = cx.moment_analytic(job.family, k)
            terms = w * nodes ** k
            got.append(terms.sum())
            want.append(mu)
            tol.append(o.MOMENT_TOL * abs(mu) + float(o.sum_slack(np.abs(terms).sum(), n)))
            scale.append(max(abs(mu), float(np.abs(terms).sum())))
        scale = np.array(scale)
        return o.verdict(np.array(got) / scale, np.array(want) / scale, np.array(tol) / scale, scale=1.0)

    def check_design(self, job, out, o):
        filt, report = out
        n = job.params["n"]
        hw = filt.half_width
        dense = np.linspace(0.0, math.pi, 8001)
        H = np.exp(1j * np.outer(dense, np.arange(-hw, hw + 1))) @ filt.taps
        H = H.real if n % 2 == 0 else H.imag
        sign = (-1.0) ** (n // 2) if n % 2 == 0 else (-1.0) ** ((n - 1) // 2)
        target = sign * o.p_ref(job.family, n, dense)[n]
        dpass = dense <= filt.passband_edge
        dstop = dense >= filt.stopband_edge
        got = np.array([report.passband_max_error, report.stopband_max_magnitude])
        ref = np.array([np.abs(H - target)[dpass].max(), np.abs(H[dstop]).max()])
        tol = o.REPORT_TOL * np.maximum(1.0, np.abs(ref))
        return o.verdict(got, ref, tol, scale=1.0)


# ---------------------------------------------------------------------------
# power

POWER_FAMILIES = ("hermite", "chebyshev_t", "legendre", "laguerre")
SEQUENCE_SAMPLES = 1001
# (kind, family) slots of one round; each slot gets its own log-N stratum
POWER_SLOTS = tuple(
    [(k, f) for k in ("nu", "sigma", "cd_kernel", "cd_diagonal") for f in POWER_FAMILIES]
    + [("beta", "legendre"), ("beta", "hermite"), ("conditions", "hermite"),
       ("conditions", "laguerre"), ("hermite_norm", "hermite"), ("chebyshev_norm", "chebyshev_t")]
)


class Power(Workload):
    name = "power"
    tail_percentile = 84
    round_s = 5.9
    why = ("long recurrences: power sums, growth conditions and Christoffel-Darboux "
           "kernels at N up to 2e5, a scale no other workload reaches")

    def make_round(self, rng, st, r, first_id):
        jobs = []
        count = len(POWER_SLOTS)
        for j, (kind, fam) in enumerate(POWER_SLOTS):
            # a fixed log-N schedule, the same in every round: a round's
            # cost and latency mix must not depend on how many rounds ran
            stratum = (7 * j) % count
            N = int(_stratum(1e3, 2e5, count, stratum, 0.5, log=True))
            omega = float(rng.uniform(0.3, 2.5))
            p = {"N": N, "omega": omega, "sigma": 0.6 * omega,
                 "x": float(rng.uniform(-0.9, 0.9))}
            jobs.append(Job(first_id + j, kind, fam, p))
        return jobs

    def warmup(self):
        return Job(-1, "nu", "legendre", {"N": 500, "omega": 1.0, "sigma": 0.6, "x": 0.3})

    @staticmethod
    def _counts(N, points=1):
        # terms summed, gamma/beta pairs and polynomial values the call needs
        return {"power_spaces.terms": N + 1, "families.coeffs": N + 1,
                "orthopoly.poly_values": points * (N + 1)}

    def run_nu(self, job, call):
        p = job.params
        return call(cx.nu_sequence, job.family, cx.Exponential(p["omega"]), 0.0, p["N"],
                    counts=self._counts(p["N"])).values

    def run_sigma(self, job, call):
        p = job.params
        return call(cx.sigma_sequence, job.family, p["omega"], p["sigma"], 0.0, p["N"],
                    counts=self._counts(p["N"], points=2)).values

    def run_beta(self, job, call):
        p = job.params
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return call(cx.beta_sequence, job.family, cx.Exponential(p["omega"]), 0.0, p["N"],
                        counts=self._counts(p["N"] + 1)).values

    def run_conditions(self, job, call):
        N = max(100, job.params["N"])
        return call(cx.check_conditions, job.family, N,
                    counts={"power_spaces.terms": N + 13, "families.coeffs": N + 13})

    def run_hermite_norm(self, job, call):
        p = job.params
        return call(cx.hermite_exponential_norm, p["omega"], p["N"], counts=self._counts(p["N"]))

    def run_chebyshev_norm(self, job, call):
        p = job.params
        return call(cx.chebyshev_exponential_norm, p["x"], p["N"],
                    counts={"power_spaces.terms": p["N"] + 1})

    def run_cd_kernel(self, job, call):
        p = job.params
        return call(cx.cd_kernel, job.family, p["N"], p["omega"], p["sigma"],
                    counts={"orthopoly.poly_values": 2 * (p["N"] + 2), "families.coeffs": p["N"] + 2})

    def run_cd_diagonal(self, job, call):
        p = job.params
        return call(cx.cd_diagonal, job.family, p["N"], p["omega"],
                    counts={"orthopoly.poly_values": 2 * (p["N"] + 2), "families.coeffs": p["N"] + 2})

    # -- checks -------------------------------------------------------------

    def _square_sums(self, o, fam, N, omega):
        """sum_{k<=n} p_k(omega)^2 for n <= N, 80-bit."""
        if fam == "chebyshev_t":
            return o.chebyshev_t_square_sums(N, omega)
        return np.cumsum(o.poly_seq(fam, N, omega) ** 2)

    def digest(self, job, out):
        # sequences of up to 2e5 values: keep about a thousand, last included
        if isinstance(out, np.ndarray) and out.size > SEQUENCE_SAMPLES:
            idx = np.unique(np.linspace(0, out.size - 1, SEQUENCE_SAMPLES).round().astype(int))
            return idx, out[idx]
        if isinstance(out, np.ndarray):
            return np.arange(out.size), out
        return out

    def check_nu(self, job, out, o):
        p = job.params
        idx, vals = out
        ref = self._square_sums(o, job.family, p["N"], p["omega"]) / o.inv_gamma_cumsum_ref(job.family, p["N"])
        ref = np.asarray(ref, dtype=float)[idx]
        return o.verdict(vals / ref, np.ones_like(ref), o.sum_slack(1.0, p["N"]) + o.SLACK, scale=1.0)

    def check_sigma(self, job, out, o):
        p = job.params
        a = o.poly_seq(job.family, p["N"], p["omega"])
        b = o.poly_seq(job.family, p["N"], p["sigma"])
        prods = np.asarray(a * b, dtype=np.longdouble)
        den = o.inv_gamma_cumsum_ref(job.family, p["N"])
        ref = np.asarray(np.abs(np.cumsum(prods)) / den, dtype=float)
        tol = np.asarray(o.sum_slack(np.cumsum(np.abs(prods)), p["N"]) / den, dtype=float) + o.SLACK * ref
        idx, vals = out
        return o.verdict(vals, ref[idx], tol[idx], scale=float(np.max(np.abs(ref))))

    def check_beta(self, job, out, o):
        p = job.params
        N = p["N"]
        sq = np.asarray(o.poly_seq(job.family, N + 1, p["omega"]), dtype=float) ** 2
        gam = np.asarray(o.gamma_beta_ref(job.family, N)[0], dtype=float)
        ref = gam * (sq[:-1] + sq[1:])
        idx, vals = out
        return o.verdict(vals, ref[idx], o.sum_slack(ref[idx], N), scale=float(np.max(np.abs(ref))))

    def check_conditions(self, job, rep, o):
        N = max(100, job.params["N"])
        gam = np.asarray(o.gamma_beta_ref(job.family, N + 12)[0], dtype=float)
        g = gam[: N + 1]
        d1 = np.diff(gam)[: N + 1]
        d2 = np.diff(gam, 2)[: N + 1]
        half = N // 2
        s4 = np.cumsum(1.0 / g)
        s5 = np.cumsum(g ** -rep.kappa)
        s6 = np.cumsum(np.abs(d1) / g ** 2)
        s7 = np.cumsum(np.abs(d2) / g)
        ref = {
            "gamma_end": g[-1], "gamma_growth_ratio": g[-1] / g[math.isqrt(N)],
            "max_abs_dgamma_tail": np.abs(d1[half:N]).max(),
            "min_shift_margin": (gam[half + 10: N + 10] - g[half:N]).min(),
            "sum_inv_gamma": s4[-1], "sum_inv_gamma_recent": s4[-1] - s4[half],
            "sum_inv_gamma_kappa": s5[-1], "sum_inv_gamma_kappa_recent": s5[-1] - s5[half],
            "sum_dgamma_over_gamma2": s6[-1], "sum_dgamma_over_gamma2_recent": s6[-1] - s6[half],
            "sum_d2gamma_over_gamma": s7[-1], "sum_d2gamma_over_gamma_recent": s7[-1] - s7[half],
        }
        keys = sorted(ref)
        got = np.array([rep.evidence[k] for k in keys])
        want = np.array([ref[k] for k in keys])
        # differences of gamma carry the absolute rounding of gamma itself
        tol = o.sum_slack(np.abs(want), N) + o.sum_slack(g[-1], N)
        v = o.verdict(got, want, tol, scale=float(np.max(np.abs(want))))
        if job.family == "hermite" and not rep.all_pass():
            v.wrong = True
        return v

    def check_hermite_norm(self, job, out, o):
        p = job.params
        nu = self._square_sums(o, "hermite", p["N"], p["omega"]) / o.inv_gamma_cumsum_ref("hermite", p["N"])
        half = np.asarray(nu[(p["N"] + 1) // 2:], dtype=float)
        ref = math.sqrt(max(0.0, float(half.mean())))
        return o.verdict(out, ref, float(o.sum_slack(ref, p["N"])) + o.SLACK * ref)

    def check_chebyshev_norm(self, job, out, o):
        n = job.params["N"]
        ref = o.chebyshev_norm_ref(job.params["x"], n)
        return o.verdict(np.array(out), np.array([ref, ref]), float(o.sum_slack(2.0, n)) + o.SLACK)

    def check_cd_kernel(self, job, out, o):
        p = job.params
        N, w, s = p["N"], p["omega"], p["sigma"]
        a = np.asarray(o.poly_seq(job.family, N + 1, w), dtype=float)
        b = np.asarray(o.poly_seq(job.family, N + 1, s), dtype=float)
        ref = float(np.sum(a[: N + 1] * b[: N + 1]))
        gN = float(o.gamma_beta_ref(job.family, N)[0][N])
        quot = gN * (abs(a[N + 1] * b[N]) + abs(b[N + 1] * a[N])) / abs(w - s)
        tol = float(o.sum_slack(np.sum(np.abs(a[: N + 1] * b[: N + 1])) + quot, N))
        return o.verdict(out, ref, tol, scale=max(abs(ref), 1.0))

    def check_cd_diagonal(self, job, out, o):
        p = job.params
        N = p["N"]
        ref = float(self._square_sums(o, job.family, N, p["omega"])[N])
        return o.verdict(out, ref, float(o.sum_slack(ref, N)) * 4, scale=ref)


WORKLOADS = {w.name: w for w in (Evaluate(), Construct(), Power())}
