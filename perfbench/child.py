"""Child processes of the gcalc benchmark; run.py starts each one fresh.

    child.py setup  WORKLOAD SIZE               time import + set-up, print JSON
    child.py replay SIZE SEED OUT               run the replay pipeline
    child.py traced WORKLOAD SIZE SEED OUT CONFIG SPANS
                                                run a workload with layer spans

gcalc is found through PYTHONPATH, which run.py sets to the absolute path of
the tree's `src`. The traced mode wraps each layer's entry functions in every
gcalc module namespace that holds a reference to them (e.g. `_sweep` is
imported by name into solver, calculus and harness), counts
`Lattice.child_mean` calls without a span, and writes the spans (name, start,
end, parent) with the run id to SPANS when the workload ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

import workloads

# Layer entries that get a span, by module; a span is named
# "<module>.<attribute without leading underscores>".
LAYER_ENTRIES = {
    "scenario": ("build_lattice", "_sweep", "conditional_expectation_field",
                 "evaluate_field", "nearest_index"),
    "calculus": ("weighted_norm", "_state_expectation"),
    "solver": ("solve_gbsde", "picard_step", "triple_distance_sq",
               "represent_martingale", "extract_integrands", "residual_check",
               "compensator_mc_check"),
    "harness": ("apriori_check", "representation_bound_check",
                "cauchy_sequence_check"),
    "cli": ("main", "build_experiment", "_fields_csv", "_write_outputs"),
}
# Entries whose returned object carries the worst-case policy.
POLICY_SOURCES = {"scenario.conditional_expectation_field",
                  "solver.picard_step", "solver.represent_martingale"}


def _build_lattice(cfg: dict):
    import numpy as np
    from gcalc import SpaceGrid, TimeGrid, VolatilityBox, build_lattice
    box_cfg = cfg["box"]
    box = VolatilityBox(np.asarray(box_cfg["lower"], dtype=float),
                        np.asarray(box_cfg["upper"], dtype=float),
                        grid_points_per_axis=box_cfg.get("grid_points", 5))
    grid = TimeGrid(horizon=cfg["time"]["horizon"], steps=cfg["time"]["steps"])
    space = SpaceGrid.build(box, grid.horizon,
                            points_per_axis=cfg["space"]["points"])
    return build_lattice(grid, space, box)


def setup(name: str, size: str) -> None:
    """Time `import gcalc` plus the workload's set-up: the CLI's config
    validation and lattice construction, or the library lattice build."""
    cfg = workloads.config(name, size)
    spec = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        from gcalc import cli
        cli.build_experiment(cfg, spec["command"], 0, None)
    else:
        _build_lattice(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def replay(size: str, seed: int, out: str) -> None:
    """Martingale representation of the `abs` payoff, then the pathwise
    residual check and the compensator Monte Carlo check."""
    from gcalc import (GBsdeParams, compensator_mc_check, make_payoff,
                       represent_martingale, residual_check, zero_dt_driver,
                       zero_qv_driver)
    cfg = workloads.config("replay-1d", size)
    lattice = _build_lattice(cfg)
    payoff = make_payoff(cfg["payoff"]["id"], lattice.d, {})
    params = GBsdeParams(terminal=payoff, f=zero_dt_driver(payoff.n),
                         g=zero_qv_driver(payoff.n, lattice.d))
    sol = represent_martingale(payoff, lattice)
    res = residual_check(sol, params, seed=seed, **cfg["residual"])
    mc = compensator_mc_check(sol, seed=seed, **cfg["mc"])
    result = {"y0": [float(v) for v in sol.y0],
              "min_k_increment": float(sol.K_inc.min()),
              "max_residual": res.max_residual,
              "mc_ok": bool(mc.ok),
              "mc": {"sup_estimate": mc.sup_estimate, "sup_se": mc.sup_se}}
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = {"scenario.child_mean.calls": 0,
                         "scenario.sweep.node_updates": 0}
        self.policies = {}       # id -> (policy array, lattice); keeps refs
        self.max_residual = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        on_call = self._sweep_work(fn) if name == "scenario.sweep" else None
        on_result = self._result_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _sweep_work(self, fn):
        """Count layers x nodes x combos x components of each sweep call."""
        sig = inspect.signature(fn)

        def on_call(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            lattice = bound.get("lattice")
            values = bound.get("terminal_values")
            if lattice is None or values is None:
                return  # signature changed by a later refactor
            layers = bound.get("start_layer")
            if layers is None:
                layers = lattice.steps
            self.counters["scenario.sweep.node_updates"] += (
                layers * math.prod(lattice.space.shape)
                * lattice.combos.shape[0] * values.shape[-1])
        return on_call

    def _result_hook(self, name: str):
        if name in POLICY_SOURCES:
            def on_result(result):
                policy = getattr(result, "policy_idx", None)
                if policy is not None:
                    self.policies.setdefault(id(policy),
                                             (policy, result.lattice))
            return on_result
        if name == "solver.residual_check":
            def on_result(result):
                self.max_residual = getattr(result, "max_residual", None)
            return on_result
        return None

    def corner_share(self) -> tuple:
        """(policy entries at a box corner, policy entries) over every
        distinct policy array the policy sources returned."""
        import numpy as np
        at_corner = total = 0
        for policy, lattice in self.policies.values():
            combos = lattice.combos
            corner = np.all(np.isclose(combos, lattice.box.lower, rtol=1e-12)
                            | np.isclose(combos, lattice.box.upper, rtol=1e-12),
                            axis=1)
            at_corner += int(np.count_nonzero(corner[policy]))
            total += int(policy.size)
        return at_corner, total


def install(recorder: Recorder) -> None:
    """Wrap the layer entries in every gcalc namespace that references them."""
    import gcalc
    import gcalc.cli  # noqa: F401  (imports every layer module)
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "gcalc" or k.startswith("gcalc.")]
    for mod_name, attrs in LAYER_ENTRIES.items():
        owner = sys.modules[f"gcalc.{mod_name}"]
        for attr in attrs:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue  # entry removed by a later refactor: it reports zero
            wrapped = recorder.wrap(f"{mod_name}.{attr.lstrip('_')}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    lattice_cls = gcalc.scenario.Lattice
    child_mean = getattr(lattice_cls, "child_mean", None)
    if child_mean is None:
        return
    counters = recorder.counters

    @functools.wraps(child_mean)
    def counted(self, *args, **kwargs):
        counters["scenario.child_mean.calls"] += 1
        return child_mean(self, *args, **kwargs)
    lattice_cls.child_mean = counted


def traced(name: str, size: str, seed: int, out: str, config_path: str,
           spans_path: str) -> int:
    recorder = Recorder(run_id=f"{name}-{size}-{seed}-{os.getpid()}")
    install(recorder)
    spec = workloads.WORKLOADS[name]
    if spec["kind"] == "cli":
        from gcalc import cli
        argv = [spec["command"], "--config", config_path, "--seed", str(seed),
                "--out", out]
        root = recorder.wrap("workload", cli.main)
        rc = root(argv)
    else:
        root = recorder.wrap("workload", replay)
        root(size, seed, out)
        rc = 0
    at_corner, total = recorder.corner_share()
    dump = {"run_id": recorder.run_id, "spans": recorder.spans, "counters": recorder.counters,
            "corner_entries": at_corner, "policy_entries": total,
            "max_residual": recorder.max_residual, "exit_code": rc}
    with open(spans_path, "w") as fh:
        json.dump(dump, fh)
    return rc


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        setup(args[0], args[1])
        return 0
    if mode == "replay":
        replay(args[0], int(args[1]), args[2])
        return 0
    if mode == "traced":
        return traced(args[0], args[1], int(args[2]), args[3], args[4], args[5])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
