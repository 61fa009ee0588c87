"""Self-tests of the benchmark: python3 -m pytest -q bench/test_bench.py"""

import json
import math
import os
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import oracles  # noqa: E402
from cli_workload import ITEM3_COMMANDS, README_COMMANDS, command_list  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from worker import RATIO_FLOOR, Record, end_to_end, plain_call, run_loop  # noqa: E402
from workloads import WORKLOADS, Job, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    res = run_bench(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    want = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert {(k, v["unit"]) for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    res = run_bench(workload, 1)
    assert res["correct"] is True
    want = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    assert {(k, v["unit"]) for k, v in res["metrics"].items()} == want
    assert res["metrics"]["trace.span_coverage"]["value"] >= 0.9


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == per_layer_metrics()


def test_perturbed_outputs_count_as_wrong():
    from chromex import ChromexError

    w = WORKLOADS["evaluate"]
    w.start(3)
    clean = []
    for job in next(w.rounds()):
        if job.kind in ("basis", "closed", "apply_fir"):
            try:
                clean.append(Record(job, np.asarray(w.run(job, plain_call)), None, 1e-3, 1e-3, 0.0))
            except ChromexError:
                pass
    good = [r for r in clean if not w.check(r.job, r.out).wrong]
    assert good, "some outputs must pass, or the check would be vacuous"
    # 1e-9 is a thousand times the series tolerance of 1e-12
    bent = [r._replace(out=r.out + 1e-9) for r in good]
    metrics, info = end_to_end(w, bent, 1.0, 1.0)
    assert info["wrong"] == len(bent)
    assert metrics["wrong_ratio"][0] == 1.0
    metrics, info = end_to_end(w, good, 1.0, 1.0)
    assert info["wrong"] == 0
    assert metrics["wrong_ratio"][0] == RATIO_FLOOR


def test_cli_commands_are_readme_lines_plus_item3():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    readme = [shlex.split(line) for line in block.splitlines() if line.startswith("chromex ")]
    assert readme == [shlex.split(line) for line in README_COMMANDS]
    assert len(ITEM3_COMMANDS) == 4
    seeded = command_list(5)
    compare = next(a for a in seeded if a[0] == "compare")
    assert compare[compare.index("--seed") + 1] == "5"
    expected = [shlex.split(line)[1:] for line in README_COMMANDS + ITEM3_COMMANDS]
    compare_ref = next(a for a in expected if a[0] == "compare")
    compare_ref[compare_ref.index("--seed") + 1] = "5"
    assert seeded == expected


def test_quadrature_reference_matches_closed_forms():
    import scipy.special as sp

    t = np.array([0.3, 4.7, 15.3, 19.9])
    n = np.arange(13)[:, None]
    x = math.pi * t[None, :]
    legendre = (-1.0) ** n * np.sqrt(2 * n + 1) * sp.spherical_jn(n, x)
    assert np.abs(oracles.kbasis_ref("legendre", 12, t) - legendre).max() < 1e-13
    cheb_t = np.where(n == 0, sp.jv(0, x), (-1.0) ** n * math.sqrt(2) * sp.jv(n, x))
    assert np.abs(oracles.kbasis_ref("chebyshev_t", 12, t) - cheb_t).max() < 1e-13
    cheb_u = (-1.0) ** n * (sp.jv(n, x) + sp.jv(n + 2, x))
    assert np.abs(oracles.kbasis_ref("chebyshev_u", 12, t) - cheb_u).max() < 1e-13
    assert np.abs(oracles.kbasis_ref("gegenbauer(1)", 12, t) - cheb_u).max() < 1e-13


def test_seed_fixes_the_inputs():
    def params(seed):
        w = WORKLOADS["evaluate"]
        w.start(seed)
        return [(j.kind, j.family, j.params) for j in next(w.rounds())]

    assert params(4) == params(4)
    assert params(4) != params(5)


def test_round_count_depends_on_seconds_not_speed():
    class Tiny(Workload):
        name = "tiny"
        round_s = 0.5

        def make_round(self, rng, st, r, first_id):
            return [Job(first_id + i, "sleep", None, {"s": self.pause}) for i in range(3)]

        def run_sleep(self, job, call):
            return time.sleep(job.params["s"])

    w = Tiny()
    w.start(1)
    assert w.rounds_for(0.01) == 1 and w.rounds_for(1.3) == 3
    counts = []
    for pause in (0.0, 0.01):
        w.pause = pause
        counts.append(len(run_loop(w, 1.3)[0]))
    assert counts == [9, 9]
    rounds = {name: w.rounds_for(15) for name, w in WORKLOADS.items()}
    assert rounds == {"evaluate": 3, "construct": 8, "power": 3}
