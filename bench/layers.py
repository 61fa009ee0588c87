"""Layers (chromex modules), their per-layer metric names, and what each
layer is predicted to move.  The traced run prints each layer's share of
job wall time beside these predictions and names the ones it contradicts.
"""

LAYERS = ("families", "orthopoly", "chromatic_core", "basis_functions",
          "expansions", "fir_design", "power_spaces", "cli")

# extra work counts per layer: (name, unit)
COUNTS = {
    "families": (("coeffs", "count"), ("quad_nodes", "count")),
    "orthopoly": (("poly_values", "count"),),
    "chromatic_core": (("table_entries", "count"), ("flops_computed", "count"),
                       ("table_key_repeats", "count")),
    "basis_functions": (("row_points", "count"), ("closed_points", "count")),
    "expansions": (("points", "count"), ("envelope_points", "count")),
    "fir_design": (("designs", "count"), ("lstsq_cells_computed", "count"),
                   ("applied_samples", "count")),
    "power_spaces": (("terms", "count"),),
    "cli": (("interp_s", "s"), ("import_s", "s"), ("command_s", "s"), ("output_bytes", "B")),
}

# layer -> (end-to-end metrics it should move, workloads it should move
# them on, workloads on which it should not move anything)
PREDICTIONS = {
    "families": (("jobs_per_s", "job_tail_s"), ("power",), ("evaluate",)),
    "orthopoly": (("jobs_per_s",), ("power", "evaluate"), ("construct",)),
    "chromatic_core": (("jobs_per_s", "peak_rss_mb"), ("construct",), ("power",)),
    "basis_functions": (("job_p50_s", "jobs_per_s"), ("evaluate",), ("construct", "power")),
    "expansions": (("job_p50_s", "jobs_per_s"), ("evaluate",), ("construct", "power")),
    "fir_design": (("jobs_per_s",), ("construct", "evaluate"), ("power",)),
    "power_spaces": (("jobs_per_s", "job_tail_s", "peak_rss_mb"), ("power",),
                     ("evaluate", "construct")),
    "cli": (("job_p50_s",), ("cli",), ("evaluate", "construct", "power")),
}

# a layer "moves" a workload's figures only if it holds a visible share of
# the job wall time there; below MOVE_SHARE a predicted move is contradicted,
# above STILL_SHARE a predicted non-move is
MOVE_SHARE = 0.05
STILL_SHARE = 0.10

TRACE_METRICS = (
    ("trace.span_coverage", "1", "higher"),
    ("trace.overhead", "1", "lower"),
    ("trace.untraced_jobs_per_s", "1/s", "higher"),
    ("trace.traced_jobs_per_s", "1/s", "higher"),
    ("inputs.table_key_repeat_share", "1", "higher"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "higher"), (f"{layer}.busy_s", "s", "lower"),
                (f"{layer}.share", "1", "lower"), (f"{layer}.failed", "count", "lower")]
        for name, unit in COUNTS[layer]:
            better = "lower" if unit in ("s", "B") else "higher"
            out.append((f"{layer}.{name}", unit, better))
    return out + list(TRACE_METRICS)


def judge(workload, shares):
    """Lines comparing measured shares with the predictions for one workload."""
    lines = []
    for layer in LAYERS:
        moves, on, still = PREDICTIONS[layer]
        share = shares.get(layer, 0.0)
        if workload in on:
            verdict = "holds" if share >= MOVE_SHARE else "CONTRADICTED"
            what = f"should move {', '.join(moves)}"
        elif workload in still:
            verdict = "holds" if share <= STILL_SHARE else "CONTRADICTED"
            what = "should not move"
        else:
            verdict, what = "-", "no prediction"
        lines.append(f"{layer:<16} share {share:7.3f}  {what} on {workload}: {verdict}")
    return lines
