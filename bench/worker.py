"""One workload in one fresh process: set up, run jobs in a closed loop,
check every output against its reference, report.

Started by run.py, which passes the checkout root and times set-up from
process start to the READY line.  Protocol on stdout: `READY`, then one
`RESULT <json>` line.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from collections import defaultdict
from typing import NamedTuple

import numpy as np


RATIO_FLOOR = 1e-3
# run.py gives a whole run 170 s, set-ups and checks included
LOOP_LIMIT_S = 120.0


class Tracer:
    """Spans kept in memory: name, start, end, job id, parent, counts."""

    def __init__(self):
        self.spans = []
        self.seen_keys = set()
        self.job = None

    def call(self, fn, *args, counts=None, key=None, span=None, **kw):
        counts = dict(counts or {})
        if key is not None:
            if key in self.seen_keys:
                counts["chromatic_core.table_key_repeats"] = 1
            self.seen_keys.add(key)
        name = span or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        t0 = time.perf_counter()
        ok = False
        try:
            out = fn(*args, **kw)
            ok = True
            return out
        finally:
            self.spans.append({"name": name, "start": t0, "end": time.perf_counter(),
                               "job": self.job, "parent": f"job-{self.job}",
                               "counts": counts, "ok": ok})


def plain_call(fn, *args, counts=None, key=None, span=None, **kw):
    return fn(*args, **kw)


class Record(NamedTuple):
    job: object
    out: object
    err: str | None
    raw_s: float    # wall time of the job
    norm_s: float   # the same in reference seconds (see calibrate)
    untimed_s: float  # digest and reference loop after the job


# On a shared 2-vCPU Xeon VM the CPU speed drifts by +-20% over tens of
# seconds (a fixed loop took 16.5-24.9 ms per 5-second window), which no
# run length averages away.  So after every job the worker times a fixed
# reference loop and scales the job's time by CALIBRATION_S over the
# median of the last five loops.  The loop mixes the kinds of work
# chromex's hot paths do: Horner over numpy complex scalars (series), a
# float64 scalar recurrence (power sums), 80-bit scalar arithmetic
# (coefficients) and a numpy array pass (tables, designs).  Timings are
# thus "reference seconds": on a machine where the loop takes
# CALIBRATION_S they equal wall seconds.
CALIBRATION_S = 0.0012
_COEF = (1.0 / np.arange(1, 33)).astype(np.complex128)
_ZS = np.linspace(-1.0, 1.0, 60).astype(np.complex128)
_GAM = np.sqrt(np.arange(1.0, 1201.0) / 2)
_LD = np.arange(1, 301, dtype=np.longdouble)


def calibrate():
    t0 = time.perf_counter()
    for z in _ZS:
        acc = 0j
        for c in _COEF:
            acc = acc * z + c
    pm1, p = 0.0, 1.0
    for g in _GAM:
        pm1, p = p, (0.7 * p - pm1) / g
    for n in _LD:
        np.sqrt((n + 1) / (4 * n * n - 1))
    np.cumsum(np.sin(np.arange(10000.0)))
    return time.perf_counter() - t0


class Speed:
    """Running estimate of the machine's speed from the reference loop."""

    def __init__(self):
        self.samples = [calibrate() for _ in range(5)]

    def factor(self):
        self.samples.append(calibrate())
        return CALIBRATION_S / statistics.median(self.samples[-5:])


def run_loop(workload, seconds, tracer=None):
    """Run the whole rounds `seconds` stands for; one job at a time.

    The number of rounds depends on `seconds` alone, not on how fast the
    jobs run, so every run of a seed attempts the same jobs and meets the
    same failures.  Only a commit far slower than the one the rounds were
    sized on stops early, after LOOP_LIMIT_S, to end within the run's
    deadline.

    Returns the records, the timed wall time (without the output digests
    and reference loops between jobs) and, with a tracer, the untraced
    time of the same jobs.  Each job then runs three times: once to warm
    up (a second run of the same job is faster), then untraced and traced
    in alternating order.  The records hold the traced run.
    """
    records = []
    rounds = workload.rounds()
    speed = Speed()
    start = time.perf_counter()
    untimed = 0.0
    untraced = 0.0
    for r in range(workload.rounds_for(seconds)):
        if r and time.perf_counter() - start > LOOP_LIMIT_S:
            print(f"stopped after {r} rounds: the loop passed {LOOP_LIMIT_S} s",
                  file=sys.stderr)
            break
        for job in next(rounds):
            if tracer is None:
                rec = run_job(workload, job, plain_call, speed)
            else:
                tracer.job = job.id
                run_job(workload, job, plain_call, speed)
                first_plain = job.id % 2 == 0
                if first_plain:
                    untraced += run_job(workload, job, plain_call, speed).norm_s
                rec = run_job(workload, job, tracer.call, speed)
                if not first_plain:
                    untraced += run_job(workload, job, plain_call, speed).norm_s
            untimed += rec.untimed_s
            records.append(rec)
    return records, time.perf_counter() - start - untimed, untraced


def run_job(workload, job, call, speed):
    from chromex import ChromexError

    t0 = time.perf_counter()
    out = err = None
    try:
        out = workload.run(job, call)
    except ChromexError as exc:
        err = type(exc).__name__
    except Exception as exc:  # outside the library's error contract
        err = "CRASH " + repr(exc)
    t1 = time.perf_counter()
    # keep only what the check needs, so held outputs do not grow the
    # process's peak memory with the number of jobs run
    if err is None:
        out = workload.digest(job, out)
    f = speed.factor()
    return Record(job, out, err, t1 - t0, (t1 - t0) * f, time.perf_counter() - t1)


def key_repeat_share(records):
    seen, uses, repeats = set(), 0, 0
    for job, *_ in records:
        if job.table_key is not None:
            uses += 1
            repeats += job.table_key in seen
            seen.add(job.table_key)
    return repeats / uses if uses else 0.0


def hd_quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  Unlike a single order statistic it does not
    jump between two job sizes when one latency crosses another."""
    x = np.sort(np.asarray(xs, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.concatenate([[0.0], np.exp(logpdf - logpdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    w = np.diff(cdf[::64])
    return float(w @ x / w.sum())


def tail(latencies, percentile):
    """The workload's tail percentile (Harrell-Davis) and the number of
    samples beyond it."""
    p = percentile / 100.0
    return hd_quantile(latencies, p), percentile, int(len(latencies) * (1 - p))


def end_to_end(workload, records, wall, rss_mb):
    verdicts = []
    crashes = []
    for r in records:
        if r.err is None:
            try:
                verdicts.append(workload.check(r.job, r.out))
            except Exception as exc:  # a reference that cannot judge the output
                crashes.append(f"check of job {r.job.id} ({r.job.kind}) failed: {exc!r}")
                verdicts.append(None)
        else:
            if r.err.startswith("CRASH"):
                crashes.append(f"job {r.job.id} ({r.job.kind}): {r.err}")
            verdicts.append(None)
    n = len(records)
    errors = sum(1 for r in records if r.err is not None)
    wrong = sum(1 for v in verdicts if v is not None and v.wrong)
    digits = [0.0 if v is None else v.digits for v in verdicts]
    lat = [r.norm_s for r in records]
    raw = [r.raw_s for r in records]
    t, pct, beyond = tail(lat, workload.tail_percentile)
    metrics = {
        "jobs_per_s": (n / sum(lat), "1/s"),
        "job_p50_s": (hd_quantile(lat, 0.5), "s"),
        "job_tail_s": (t, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy_digits": (statistics.fmean(digits), "digits"),
        # floored at one in a thousand, so a run without failures reads
        # RATIO_FLOOR rather than 0 and two runs can always be compared
        "error_ratio": (max(errors / n, RATIO_FLOOR), "1"),
        "wrong_ratio": (max(wrong / n, RATIO_FLOOR), "1"),
    }
    by_kind = defaultdict(lambda: [0, 0, 0])
    for r, v in zip(records, verdicts):
        row = by_kind[r.job.kind]
        row[0] += 1
        row[1] += r.err is not None
        row[2] += v is not None and v.wrong
    bands = defaultdict(int)
    for r in records:
        if r.job.band is not None:
            bands[r.job.band] += 1
    banded = sum(bands.values())
    info = {
        "attempted": n, "errors": errors, "wrong": wrong, "crashes": crashes,
        "tail_percentile": pct, "tail_samples_beyond": beyond, "timed_wall_s": wall,
        "wall_clock": {"jobs_per_s": n / wall, "job_p50_s": hd_quantile(raw, 0.5),
                       "job_tail_s": tail(raw, workload.tail_percentile)[0],
                       "speed_factor": sum(lat) / sum(raw)},
        "job_share": {k: v[0] / n for k, v in sorted(by_kind.items())},
        "errors_by_kind": {k: v[1] for k, v in sorted(by_kind.items()) if v[1]},
        "wrong_by_kind": {k: v[2] for k, v in sorted(by_kind.items()) if v[2]},
        "band_share": {k: v / banded for k, v in sorted(bands.items())} if banded else {},
        "table_key_repeat_share": key_repeat_share(records),
        "wrong_examples": [
            {"job": r.job.id, "kind": r.job.kind, "family": r.job.family, "band": r.job.band,
             "err": v.err, **r.job.notes}
            for r, v in zip(records, verdicts) if v is not None and v.wrong][:5],
    }
    return metrics, info


def per_layer(workload, tracer, records, untraced_jps):
    from layers import COUNTS, LAYERS

    job_wall = sum(r.raw_s for r in records)
    busy = defaultdict(float)
    calls = defaultdict(int)
    failed = defaultdict(int)
    counts = defaultdict(float)
    for s in tracer.spans:
        layer = s["name"].split(".", 1)[0]
        busy[layer] += s["end"] - s["start"]
        calls[layer] += 1
        failed[layer] += not s["ok"]
        for k, v in s["counts"].items():
            counts[k] += v
    if workload.name == "cli":
        counts.update(workload.layer_counts(records))
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.busy_s"] = (busy[layer], "s")
        metrics[f"{layer}.share"] = (busy[layer] / job_wall, "1")
        metrics[f"{layer}.failed"] = (failed[layer], "count")
        for name, unit in COUNTS[layer]:
            metrics[f"{layer}.{name}"] = (counts[f"{layer}.{name}"], unit)
    traced_jps = len(records) / sum(r.norm_s for r in records)
    metrics["trace.span_coverage"] = (sum(busy.values()) / job_wall, "1")
    metrics["trace.overhead"] = (1.0 - traced_jps / untraced_jps, "1")
    metrics["trace.untraced_jobs_per_s"] = (untraced_jps, "1/s")
    metrics["trace.traced_jobs_per_s"] = (traced_jps, "1/s")
    metrics["inputs.table_key_repeat_share"] = (key_repeat_share(records), "1")
    return metrics, {layer: busy[layer] / job_wall for layer in LAYERS}


def write_spans(path, spans, t_origin):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "span": s["name"], "start_s": s["start"] - t_origin, "end_s": s["end"] - t_origin,
                "job": s["job"], "parent": s["parent"], "ok": s["ok"], **s["counts"]}) + "\n")


def environment():
    import chromex

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy without config introspection
        blas = f"unknown ({exc!r})"
    return {
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "chromex_using_numba": chromex.USING_NUMBA,
        "chromex_cache_dir": os.environ.get("CHROMEX_CACHE_DIR"),
        "chromex_path": os.path.dirname(chromex.__file__),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    import chromex  # noqa: F401  (set-up cost: the import)
    if args.workload == "cli":
        from cli_workload import CliWorkload
        workload = CliWorkload(args.root)
    else:
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
    workload.start(args.seed)
    next(workload.rounds())                      # job generation
    try:
        workload.run(workload.warmup(), plain_call)
    except chromex.ChromexError:
        pass
    print("READY", flush=True)
    # the speed the set-up ran at, to state it in reference seconds
    print(f"SPEED {CALIBRATION_S / statistics.median(Speed().samples)}", flush=True)
    if args.setup_only:
        return 0

    t_origin = time.perf_counter()
    result = {"env": environment()}
    if args.trace:
        workload.start(args.seed)
        tracer = Tracer()
        records, wall, untraced = run_loop(workload, args.seconds, tracer)
        rss = peak_rss_mb(workload)
        metrics, shares = per_layer(workload, tracer, records, len(records) / untraced)
        _, info = end_to_end(workload, records, wall, rss)
        path = os.path.join(args.root, ".bench_out",
                            f"trace-{args.workload}-seed{args.seed}.jsonl")
        write_spans(path, tracer.spans, t_origin)
        info["trace_file"] = os.path.relpath(path, args.root)
        info["layer_shares"] = shares
    else:
        workload.start(args.seed)
        records, wall, _ = run_loop(workload, args.seconds)
        rss = peak_rss_mb(workload)
        metrics, info = end_to_end(workload, records, wall, rss)
    result.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  info=info, workload_why=workload.why)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
