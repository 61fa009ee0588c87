"""chromex benchmark: seeded job mixes through the public chromex API.

    python3 bench/run.py --workload evaluate --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the library is imported from ./src,
whose bytecode the run compiles first).
Workloads: evaluate, construct, power, cli (see bench/README.md).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Scratch files (trace
spans, reports, the cli jobs' working directories) go to
.bench_out/ under the checkout root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("evaluate", "construct", "power", "cli")
SETUP_SAMPLES = 5          # set-ups per run (one of them is the measured run's)
DEADLINE_S = 170.0         # the whole run, set-up included


def worker_env():
    env = dict(os.environ)
    # the JSON table cache loads slower than a rebuild; measure without it
    env.pop("CHROMEX_CACHE_DIR", None)
    # one BLAS thread: chromex's dense problems are at most about 400 x 400,
    # where a second thread gains nothing and now and then stalls for
    # half a second (eigvalsh, n = 256, 2 cores)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    # the run compiles its own bytecode; write none anywhere else
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, setup_only, deadline):
    """Start a worker; return (set-up time in reference seconds, RESULT payload)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    ready = speed = None
    result = None
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError("worker exceeded the run deadline")
            if not sel.select(timeout=left):
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("SPEED "):
                speed = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        sel.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or speed is None or (result is None and not setup_only):
        raise RuntimeError(f"worker failed (exit {code})")
    return ready * speed, result


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "chromex" / "__init__.py").is_file():
        print(f"error: no chromex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # every process of the run (workers, their cli subprocesses) shares one
    # CPU, so the reference loop times the core the jobs run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    deadline = time.perf_counter() + DEADLINE_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    # an installed package ships compiled bytecode; so does the checkout
    # (into the __pycache__ directories .gitignore already lists)
    for pkg in (ROOT / "src" / "chromex", BENCH):
        compileall.compile_dir(str(pkg), quiet=1, maxlevels=0)
    try:
        # set-up is an end-to-end metric; the traced run does not report it
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_worker(args, True, deadline)[0] for _ in range(probes)]
        ready, result = run_worker(args, False, deadline)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir / "cli", ignore_errors=True)
    setups.append(ready)

    info = result["info"]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    info["setup_samples_s"] = setups
    info["env"] = dict(result["env"], git_sha=git_sha(), nproc=len(cpus), pinned_cpu=min(cpus))
    info["why"] = result["workload_why"]
    correct = not info["crashes"]

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "metrics": metrics, "info": info}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1))

    print(f"# {args.workload}: {info['why']}")
    for key in ("job_share", "band_share", "table_key_repeat_share", "errors_by_kind",
                "wrong_by_kind", "tail_percentile", "tail_samples_beyond", "wall_clock", "env"):
        print(f"# {key}: {json.dumps(info.get(key))}")
    for crash in info["crashes"]:
        print(f"# CRASH {crash}")
    if args.trace:
        from layers import judge

        for line in judge(args.workload, info["layer_shares"]):
            print("# " + line)
        print(f"# spans: {info['trace_file']}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"# report: {out_dir.name}/{name}")
    print(json.dumps({"correct": correct, "attempted": info["attempted"],
                      "failed": info["errors"] + info["wrong"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
