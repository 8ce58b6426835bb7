"""The per-layer metrics derived from a traced run.  Metric names and
units are those of ``BENCHMARK.json``, read here.

Which end-to-end metric each layer metric should move, and where:

- montecarlo.run_trials_s, node_steps, node_steps_per_s: wall_s on mc_ba100
  and mc_stationarity; no move on exact_fit.
- montecarlo.rng_fill_s: wall_s on mc_ba100, which it bounds by its share.
- montecarlo.chunks, uniform_buffer_bytes: peak_rss_mb on mc_stationarity
  and mc_ba100.
- montecarlo.thread_speedup: wall_s on mc_stationarity only.
- montecarlo.stats_s, csv_write_s: wall_s on the three Monte Carlo workloads.
- exact.*: wall_s and peak_rss_mb on exact_fit; no move on Monte Carlo.
- approx.fit_s: wall_s on exact_fit.
- sis.sis_run_s, graph.largest_eigenvalue_s: wall_s on mc_sis_memory.
- graph.generate_s: setup_s on all.
- cli.self_s: wall_s on all.
- bench.trace_overhead_frac: nothing; a health check of the traced run.

A layer metric that does not apply to a workload reads 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer, self_seconds, total_seconds

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# printed in the report, not in the result line: the raw times and the host
# slowdown drift with the host, node_steps_per_s does not exist on exact_fit
# and failed_frac is 0 when all is well
REPORT_ONLY = {"wall_raw_s": "s", "setup_raw_s": "s", "host_slowdown": "x",
               "node_steps_per_s": "1/s", "failed_frac": "frac"}


def _run_trials_counts(tracer: Tracer, args, kwargs, stats) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    chunk = cfg.describe()["chunk"]   # the resolved chunk, as in the config hash
    n, h = cfg.net.node_count, cfg.horizon
    tracer.count("montecarlo.configs", cfg)
    tracer.count("montecarlo.node_steps", cfg.trials * h * n)
    tracer.count("montecarlo.chunks", -(-cfg.trials // chunk))
    tracer.count("montecarlo.uniform_buffer_bytes", chunk * h * n * 8)


def _enumerate_counts(tracer: Tracer, args, kwargs, table) -> None:
    tracer.count("exact.assignments", 1 << (table.node_count * table.horizon))
    tracer.count("exact.table_bytes", table_bytes(table.probs))


def table_bytes(probs) -> int:
    """Bytes held by a joint table: the float array, or the list of Fractions
    with their numerators and denominators."""
    if hasattr(probs, "nbytes"):
        return int(probs.nbytes)
    return sys.getsizeof(probs) + sum(
        sys.getsizeof(p) + sys.getsizeof(p.numerator) + sys.getsizeof(p.denominator)
        for p in probs)


HOOKS = {
    "montecarlo.run_trials": _run_trials_counts,
    "exact.enumerate_joint": _enumerate_counts,
}


def round_metrics(tracer: Tracer, trace: str) -> dict:
    """Per-layer metrics of one traced round of operations."""
    spans = tracer.spans_of(trace)

    def seconds(*names):
        return total_seconds(spans, *names)

    def counts(name):
        return tracer.counts_of(trace, name)

    run_s = seconds("montecarlo.run_trials")
    steps = sum(counts("montecarlo.node_steps"))
    enum_s = seconds("exact.enumerate_joint")
    assignments = sum(counts("exact.assignments"))
    return {
        "montecarlo.run_trials_s": run_s,
        "montecarlo.node_steps": steps,
        "montecarlo.node_steps_per_s": steps / run_s if run_s else 0.0,
        "montecarlo.chunks": sum(counts("montecarlo.chunks")),
        "montecarlo.uniform_buffer_bytes": max(counts("montecarlo.uniform_buffer_bytes"),
                                               default=0),
        "montecarlo.stats_s": seconds("montecarlo.ks_fit", "montecarlo.histogram",
                                      "montecarlo.stationarity_diagnostic"),
        "montecarlo.csv_write_s": seconds("montecarlo.write_trajectory_csv",
                                          "montecarlo.write_histogram_csv"),
        "exact.enumerate_joint_s": enum_s,
        "exact.assignments": assignments,
        "exact.assignments_per_s": assignments / enum_s if enum_s else 0.0,
        "exact.table_bytes": max(counts("exact.table_bytes"), default=0),
        "exact.node_marginal_s": seconds("exact.JointTable.node_marginal"),
        "exact.complete_node_marginal_s": seconds("exact.complete_node_marginal"),
        # fitting a given marginal: fit_node less the marginal's computation
        "approx.fit_s": self_seconds(spans, "approx.fit_node",
                                     subtract=("approx.node_marginal_for_fit",)),
        "sis.sis_run_s": seconds("sis.sis_run"),
        "graph.largest_eigenvalue_s": seconds("graph.largest_eigenvalue"),
        "cli.self_s": self_seconds(spans, "cli.main"),
    }
