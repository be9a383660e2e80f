"""Per-layer metrics from the spans a traced run recorded.

Layers are the gcalc modules scenario, calculus, solver, harness and cli
(catalog and gtensor do no measurable work; their time lands in their
callers). A span's self time is its duration minus the part of it that its
child spans cover; busy time sums the spans of one entry that are not nested
inside another span of the same entry. Every figure here is a count or a
busy/self time: the workloads are single-threaded and no layer waits on
another.
"""
from __future__ import annotations

LAYERS = ("scenario", "calculus", "solver", "harness", "cli")

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    ("scenario.sweep.calls", "count", "lower"),
    ("scenario.sweep.self_s", "s", "lower"),
    ("scenario.sweep.node_updates_per_s", "updates/s", "higher"),
    ("scenario.child_mean.calls", "count", "lower"),
    ("scenario.policy.corner_share", "ratio", "higher"),
    ("scenario.evaluate_field.self_s", "s", "lower"),
    ("scenario.nearest_index.self_s", "s", "lower"),
    ("scenario.build_lattice.self_s", "s", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("calculus.weighted_norm.calls", "count", "lower"),
    ("calculus.weighted_norm.busy_s", "s", "lower"),
    ("calculus.self_s", "s", "lower"),
    ("solver.picard_step.calls", "count", "lower"),
    ("solver.picard_step.busy_s", "s", "lower"),
    ("solver.triple_distance_sq.busy_s", "s", "lower"),
    ("solver.useful_sweep_share", "ratio", "higher"),
    ("solver.residual_check.busy_s", "s", "lower"),
    ("solver.compensator_mc_check.busy_s", "s", "lower"),
    ("solver.replay.max_residual", "abs", "lower"),
    ("solver.self_s", "s", "lower"),
    ("harness.apriori_check.busy_s", "s", "lower"),
    ("harness.representation_bound_check.busy_s", "s", "lower"),
    ("harness.cauchy_sequence_check.busy_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("cli.build_experiment.self_s", "s", "lower"),
    ("cli.fields_csv.self_s", "s", "lower"),
    ("cli.write_outputs.self_s", "s", "lower"),
    ("cli.write_outputs.bytes", "bytes", "lower"),
    ("cli.artifacts_identical", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_stats(spans: list) -> tuple:
    """(calls, busy, self_time, ancestors) per span name from
    [name, start, end, parent] records; ancestors[i] is the set of names
    enclosing span i."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    ancestors = []
    below = {}  # parent index -> names enclosing its children
    calls, busy, self_time = {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            anc = frozenset()
        else:
            if parent not in below:
                below[parent] = ancestors[parent] | {spans[parent][0]}
            anc = below[parent]
        ancestors.append(anc)
        dur = end - start
        covered = _covered([(spans[c][1], spans[c][2]) for c in children[i]])
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - covered
        if name not in anc:
            busy[name] = busy.get(name, 0.0) + dur
    return calls, busy, self_time, ancestors


def metrics(dump: dict) -> dict:
    """Per-layer metric values from a traced child's dump, except the ones
    the parent measures (trace.*, cli.write_outputs.bytes,
    cli.artifacts_identical)."""
    spans = dump["spans"]
    calls, busy, self_time, ancestors = span_stats(spans)
    counters = dump["counters"]
    sweep_busy = busy.get("scenario.sweep", 0.0)
    sweeps = [i for i, s in enumerate(spans) if s[0] == "scenario.sweep"]
    in_solve = sum("solver.solve_gbsde" in ancestors[i] for i in sweeps)
    in_picard = sum("solver.picard_step" in ancestors[i] for i in sweeps)
    out = {
        "scenario.sweep.calls": len(sweeps),
        "scenario.sweep.node_updates_per_s": (
            counters["scenario.sweep.node_updates"] / sweep_busy
            if sweep_busy > 0 else 0.0),
        "scenario.child_mean.calls": counters["scenario.child_mean.calls"],
        "scenario.policy.corner_share": (
            dump["corner_entries"] / dump["policy_entries"]
            if dump["policy_entries"] else 0.0),
        "calculus.weighted_norm.calls": calls.get("calculus.weighted_norm", 0),
        "solver.picard_step.calls": calls.get("solver.picard_step", 0),
        "solver.useful_sweep_share": in_picard / in_solve if in_solve else 0.0,
        "solver.replay.max_residual": dump["max_residual"] or 0.0,
    }
    for entry in ("scenario.sweep", "scenario.evaluate_field",
                  "scenario.nearest_index", "scenario.build_lattice",
                  "cli.build_experiment", "cli.fields_csv", "cli.write_outputs"):
        out[f"{entry}.self_s"] = self_time.get(entry, 0.0)
    for entry in ("calculus.weighted_norm", "solver.picard_step",
                  "solver.triple_distance_sq", "solver.residual_check",
                  "solver.compensator_mc_check", "harness.apriori_check",
                  "harness.representation_bound_check",
                  "harness.cauchy_sequence_check"):
        out[f"{entry}.busy_s"] = busy.get(entry, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((v for k, v in self_time.items()
                                      if k.split(".")[0] == layer), 0.0)
    return out
