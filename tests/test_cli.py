"""End-to-end tests for the command-line interface.

Most cases drive gcalc.cli.main() in-process with configs written into
tmp_path; one test goes through `python3 -m gcalc.cli` to make sure the
module entry point stays wired up.
"""
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gcalc
from gcalc import TerminalFunctional, represent_martingale
from gcalc import calculus
from gcalc.calculus import (NORM_SWEEP_ARRAYS, SWEEP_BUDGET_BYTES, _layerwise_norms,
                            ratio_decay_report)
from gcalc.cli import (COMMANDS, LAYER_STACKS, MAX_LAYER_NODES, STACK_BUDGET_BYTES,
                       _fields_csv, _fmt, _write_outputs, build_experiment, main)

from conftest import make_lattice, run_fresh

BOX = {"d": 1, "lower": [1.0], "upper": [4.0]}
SMALL = {"box": BOX, "time": {"horizon": 1.0, "steps": 20},
         "space": {"points": 121}}
DESK = {"box": BOX, "time": {"horizon": 1.0, "steps": 40},
        "space": {"points": 161}}


def run_cli(tmp_path, command, cfg, name="cfg", extra=(), out=None):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / (out or f"out-{name}")
    rc = main([command, "--config", str(path), "--out", str(out_dir), *extra])
    return rc, out_dir


def load_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_expect_quadratic_hits_anchors(tmp_path):
    cfg = {**DESK, "payoff": {"id": "quadratic"}}
    rc, out = run_cli(tmp_path, "expect", cfg)
    assert rc == 0
    summary = load_summary(out)
    assert summary["schema_version"] == 1
    assert summary["command"] == "expect"
    assert summary["files"] == ["expectation.csv"]
    assert abs(summary["outputs"]["expectation"] - 4.0) <= 1e-9
    assert abs(summary["outputs"]["lower_expectation"] - 1.0) <= 1e-9
    with open(out / "expectation.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "value_1", "lower_1"]
    assert len(rows) == 1 + DESK["time"]["steps"] + 1
    # first data row is t = 0 and repeats the headline numbers
    assert float(rows[1][0]) == 0.0
    assert float(rows[1][1]) == summary["outputs"]["expectation"]


def test_expect_is_byte_deterministic(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "abs"}}
    rc1, out1 = run_cli(tmp_path, "expect", cfg, name="e1")
    rc2, out2 = run_cli(tmp_path, "expect", cfg, name="e2")
    assert rc1 == rc2 == 0
    assert (out1 / "expectation.csv").read_bytes() == \
        (out2 / "expectation.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == \
        (out2 / "summary.json").read_bytes()


def test_solve_zero_drivers_matches_represent_exactly(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "quadratic"}}
    rc_r, out_r = run_cli(tmp_path, "represent", cfg, name="rep")
    rc_s, out_s = run_cli(tmp_path, "solve", cfg, name="sol")
    assert rc_r == rc_s == 0
    fields_r = (out_r / "fields.csv").read_bytes()
    fields_s = (out_s / "fields.csv").read_bytes()
    assert fields_r == fields_s
    assert fields_r.split(b"\n", 1)[0] == b"t,state_1,Y_1,Z_11,eta_11,K_1"
    summary = load_summary(out_s)
    assert summary["outputs"]["converged"] is True
    assert summary["outputs"]["iterations"] == 2
    assert abs(summary["outputs"]["y0"] - 4.0) <= 1e-9
    assert summary["outputs"]["min_k_increment"] >= -1e-12


def test_solve_with_driver_reports_contraction(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "linear"},
           "drivers": {"dt": {"id": "linear-in-y", "params": {"r": -0.5}}}}
    rc, out = run_cli(tmp_path, "solve", cfg)
    assert rc == 0
    outputs = load_summary(out)["outputs"]
    assert outputs["converged"] is True
    assert outputs["iterations"] > 2
    assert 0.0 < outputs["max_contraction_factor"] < 1.0
    assert outputs["beta0_empirical"] >= 1.0


def test_seed_flag_overrides_config(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "abs"}, "seed": 7}
    rc, out = run_cli(tmp_path, "expect", cfg, extra=("--seed", "42"))
    assert rc == 0
    summary = load_summary(out)
    assert summary["seed"] == 42
    assert summary["config"]["seed"] == 7          # raw config echoed untouched
    assert summary["package_version"]


def test_capacity_command(tmp_path):
    cfg = {**DESK, "event": {"payoff": {"id": "linear"}, "level": 1.0}}
    rc, out = run_cli(tmp_path, "capacity", cfg)
    assert rc == 0
    cap = load_summary(out)["outputs"]["capacity"]
    assert abs(cap - 0.4025) <= 5e-3
    with open(out / "capacity.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "capacity"]
    vals = [float(r[1]) for r in rows[1:]]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert abs(vals[0] - cap) <= 1e-12


def test_capacity_basics(tmp_path, capsys):
    def capacity(payoff, level, name):
        cfg = {**DESK, "event": {"payoff": payoff, "level": level}}
        rc, out = run_cli(tmp_path, "capacity", cfg, name=name)
        assert rc == 0
        return load_summary(out)["outputs"]["capacity"]

    sure = {"id": "constant", "params": {"c": 1.0}}
    assert capacity(sure, 0.0, "sure") == 1.0
    linear = {"id": "linear"}
    c1, c2 = capacity(linear, 1.0, "lvl1"), capacity(linear, 2.0, "lvl2")
    assert 0.0 <= c2 <= c1 <= 1.0
    # an event is a payoff compared with a level: a bare payoff is no indicator
    rc, out = run_cli(tmp_path, "capacity", {**DESK, "event": {"payoff": linear}},
                      name="bare")
    assert rc == 2 and not out.exists()
    assert "event.level" in capsys.readouterr().err


DESK_2D = {"box": {"d": 2, "lower": [1.0, 1.0], "upper": [2.0, 2.0],
                   "grid_points": 5},
           "time": {"horizon": 1.0, "steps": 40}, "space": {"points": 121}}


@pytest.mark.parametrize("command,extra", [
    ("expect", {"payoff": {"id": "quadratic"}}),
    ("capacity", {"event": {"payoff": {"id": "linear"}, "level": 1.0}}),
])
def test_origin_series_memory_stays_below_one_layer_stack(tmp_path, command, extra):
    # the series reads one node per layer, so no run may hold a
    # (steps + 1) x nodes x n stack of float64 layers (n = 1 here)
    stack_bytes = (DESK_2D["time"]["steps"] + 1) * DESK_2D["space"]["points"] ** 2 * 8
    tracemalloc.start()
    try:
        rc, _ = run_cli(tmp_path, command, {**DESK_2D, **extra})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < stack_bytes, f"traced peak {peak} >= one layer stack {stack_bytes}"


def footprint_config(command, steps):
    """A 2-d config on the engine's largest grid, 1025 x 1025 nodes."""
    cfg = {**DESK_2D, "time": {"horizon": 1.0, "steps": steps},
           "space": {"points": 1025}, "payoff": {"id": "quadratic"}}
    if command == "capacity":
        cfg["event"] = {"payoff": {"id": "linear"}, "level": 1.0}
    return cfg


@pytest.mark.parametrize("command", sorted(MAX_LAYER_NODES))
def test_footprint_rule_exits_2_past_the_stack_budget(tmp_path, capsys, command):
    # footprints come from the shapes alone: the rule is checked before the
    # lattice is built, and the runs past it never start
    limit = MAX_LAYER_NODES[command]
    assert limit * 8 * LAYER_STACKS[command] <= STACK_BUDGET_BYTES
    nodes = 1025 ** 2
    steps = limit // nodes - 1              # the most steps within the limit
    assert (steps + 1) * nodes <= limit < (steps + 2) * nodes
    build_experiment(footprint_config(command, steps), command, None, None)
    rc, out = run_cli(tmp_path, command, footprint_config(command, steps + 1))
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"limit of {limit:,}" in err


@pytest.mark.parametrize("points", [1025, 241])
def test_beta_columns_run_in_groups_within_the_sweep_budget(monkeypatch, points):
    # 2-d and 1-d grids with one beta more than the retired beta rule let
    # through: the config builds, and the stability norms' 5 columns per beta
    # run as sweeps of at most SWEEP_BUDGET_BYTES each (the sweeps are only
    # recorded here, from their shapes)
    cfg = {**footprint_config("verify-estimates", 1), "space": {"points": points}}
    if points == 241:
        cfg["box"] = BOX
    nodes = points ** cfg["box"]["d"]
    most = int(STACK_BUDGET_BYTES // (8 * NORM_SWEEP_ARRAYS * 5 * nodes))
    ctx = build_experiment({**cfg, "betas": [1.0] * (most + 1)}, "verify-estimates", None, None)
    columns = []

    def recording(lattice, zero, **costs):
        columns.append(zero.shape[-1])
        return zero

    monkeypatch.setattr(calculus, "_sweep", recording)
    _layerwise_norms(lambda ks: [], 5, ctx.lattice, ctx.betas, 5)
    assert sum(columns) == 5 * len(ctx.betas) and len(columns) > 1
    assert max(columns) * 8 * NORM_SWEEP_ARRAYS * nodes <= SWEEP_BUDGET_BYTES


@pytest.mark.parametrize("command", ["expect", "capacity"])
def test_footprint_rule_exempts_the_origin_series(command):
    # at the engine's caps: 401 layers of 1025 x 1025 nodes
    ctx = build_experiment(footprint_config(command, 400), command, None, None)
    assert (ctx.lattice.steps + 1) * ctx.lattice.states[..., 0].size > max(
        MAX_LAYER_NODES.values())


def exit_code_and_loaded(tmp_path, command, cfg, module):
    """Run `command` in a fresh interpreter: (exit code, whether `module`
    is in sys.modules afterwards), as printed strings."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = ("import sys\n"
            "from gcalc.cli import main\n"
            f"rc = main([{command!r}, '--config', {str(path)!r},\n"
            f"           '--out', {str(tmp_path / 'out')!r}])\n"
            f"print(rc, {module!r} in sys.modules)\n")
    return run_fresh(code, cwd=str(tmp_path)).split()


def test_expect_leaves_numpy_ma_unimported(tmp_path):
    # numpy imports numpy.ma lazily, on first use of a function such as
    # np.isin or np.unique without return_inverse; that adds about 0.5 MB to
    # the peak RSS of a run, so building the experiment (the lattice
    # included) and running `expect` must not use one
    cfg = {**DESK_2D, "payoff": {"id": "quadratic"}}
    assert exit_code_and_loaded(tmp_path, "expect", cfg, "numpy.ma") == ["0", "False"]


# one small config per command; solve and verify-estimates run the Lipschitz
# spot check, solve's on a bracket driver that is not zero
SMALL_RUNS = {
    "expect": {"payoff": {"id": "quadratic"}},
    "represent": {"payoff": {"id": "abs"}},
    "solve": {"payoff": {"id": "quadratic"},
              "drivers": {"dt": {"id": "linear-in-y", "params": {"r": -0.5}},
                          "qv": {"id": "linear-in-z", "params": {"a": [0.2]}}}},
    "verify-estimates": {"payoff": {"id": "quadratic"}, "betas": [1.0, 4.0]},
    "capacity": {"event": {"payoff": {"id": "linear"}, "level": 1.0}},
    "ratio-decay": {"ratio": {"theta": [{"id": "linear"}, {"id": "linear"}],
                              "zeta": [{"id": "constant"}, {"id": "constant"}]}},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_leave_numpy_random_unimported(tmp_path, command):
    # importing numpy.random (with secrets, hashlib and OpenSSL) adds about
    # 6 MB to a run's peak RSS; only the Monte Carlo checks of the library
    # draw from it, and no command runs one
    cfg = {**SMALL, **SMALL_RUNS[command]}
    assert exit_code_and_loaded(tmp_path, command, cfg, "numpy.random") == ["0", "False"]


def test_ratio_decay_command(tmp_path):
    cfg = {**SMALL,
           "ratio": {"theta": [{"id": "linear", "params": {"weights": [0.5]}},
                               {"id": "linear", "params": {"weights": [0.5]}}],
                     "zeta": [{"id": "constant", "params": {"c": 1.0}},
                              {"id": "constant", "params": {"c": 1.0}}],
                     "n_max": 20}}
    rc, out = run_cli(tmp_path, "ratio-decay", cfg)
    assert rc == 0
    outputs = load_summary(out)["outputs"]
    assert outputs["all_within_bound"] is True
    assert abs(outputs["c_max"] - 0.5) <= 1e-9
    assert outputs["d_min"] == 1.0
    assert outputs["final_ratio"] <= 1.0 / 20 + 1e-12
    with open(out / "ratio.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "beta_n", "ratio", "bound", "t_n", "l_n", "m_n",
                       "pass"]
    assert len(rows) == 21
    assert all(r[-1] == "true" for r in rows[1:])
    # elementary processes are their own step approximations: t_n, l_n, m_n
    # are the ratio, 1 and 1
    assert all(r[4] == r[2] for r in rows[1:])
    assert all(r[5] == "1.0" and r[6] == "1.0" for r in rows[1:])


def test_ratio_decay_reports_the_requested_beta_rows(tmp_path):
    ratio = {"theta": [{"id": "linear", "params": {"weights": [0.5]}}] * 2,
             "zeta": [{"id": "constant", "params": {"c": 1.0}}] * 2, "n_max": 5}
    rc, out = run_cli(tmp_path, "ratio-decay", {**SMALL, "ratio": ratio}, name="plain")
    assert rc == 0
    assert "beta_rows" not in load_summary(out)["outputs"]

    cfg = {**SMALL, "ratio": {**ratio, "betas": [1, 5, 50]}}
    rc, out = run_cli(tmp_path, "ratio-decay", cfg, name="betas")
    assert rc == 0
    ctx = build_experiment(cfg, "ratio-decay", None, None)
    rep = ratio_decay_report(ctx.ratio["theta"], ctx.ratio["zeta"], ctx.lattice,
                             betas=ctx.ratio["betas"], n_max=ctx.ratio["n_max"])
    rows = load_summary(out)["outputs"]["beta_rows"]
    assert [r["beta"] for r in rows] == [1.0, 5.0, 50.0]
    assert rows == [dict(r) for r in rep.beta_rows]


def test_verify_estimates_passes_on_unit_floor_box(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "linear"}, "betas": [1.0]}
    rc, out = run_cli(tmp_path, "verify-estimates", cfg)
    assert rc == 0
    outputs = load_summary(out)["outputs"]
    assert outputs["ok"] is True
    assert outputs["apriori_ok"] is True
    assert outputs["representation_ok"] is True
    assert outputs["cauchy_ok"] is True
    assert outputs["apriori_beta0_conservative"] == 1.0
    for name in ("estimates.csv", "representation.csv", "cauchy.csv"):
        assert (out / name).exists()
    with open(out / "estimates.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2                      # header + one beta
    assert rows[1][0] == "1.0"


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_verify_estimates_failure_exits_4_but_writes_report(tmp_path):
    # sigma_floor^2 = 9 shrinks the conservative terminal coefficient to
    # 5/9 < 1, so a pure payoff shift violates the conservative bound.
    cfg = {"box": {"d": 1, "lower": [9.0], "upper": [16.0]},
           "time": {"horizon": 1.0, "steps": 10}, "space": {"points": 61},
           "payoff": {"id": "linear"}, "betas": [1.0]}
    rc, out = run_cli(tmp_path, "verify-estimates", cfg)
    assert rc == 4
    outputs = load_summary(out)["outputs"]
    assert outputs["ok"] is False
    assert outputs["apriori_ok"] is False
    assert outputs["apriori_beta0_conservative"] is None
    assert (out / "estimates.csv").exists()


def test_divergent_solve_exits_3_without_outputs(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "linear"},
           "drivers": {"dt": {"id": "linear-in-y", "params": {"r": -0.5}}},
           "max_iter": 1}
    rc, out = run_cli(tmp_path, "solve", cfg)
    assert rc == 3
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    rc = main(["expect", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["expect", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("mutate, label", [
    (lambda c: c.update(bogus_key=1), "unknown top-level key"),
    (lambda c: c["payoff"].update(id="perpetual-motion"), "unknown payoff id"),
    (lambda c: c.pop("payoff"), "payoff required"),
    (lambda c: c["space"].update(points=120), "even grid"),
    (lambda c: c.update(command="solve"), "command mismatch"),
    (lambda c: c.update(beta=800.0), "beta weight overflow"),
    (lambda c: c.update(betas=[800.0, 900.0]), "all betas overflow"),
    (lambda c: c.update(betas=[]), "no betas"),
    (lambda c: (c["time"].update(steps=100), c["space"].update(points=201)),
     "grid too coarse for the box"),
    (lambda c: c["box"].update(lower=[4.0], upper=[1.0]), "inverted box"),
])
def test_config_errors_exit_2_and_write_nothing(tmp_path, capsys, mutate, label):
    cfg = json.loads(json.dumps({**SMALL, "payoff": {"id": "quadratic"}}))
    mutate(cfg)
    # the weight range of beta / betas is checked only by the command that reads it
    command = {"beta weight overflow": "solve", "all betas overflow": "verify-estimates",
               "no betas": "verify-estimates"}.get(label, "expect")
    rc, out = run_cli(tmp_path, command, cfg, name=label.replace(" ", "-"))
    assert rc == 2, label
    assert not out.exists(), label
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert ("need at least one entry" in err) == (label == "no betas"), err


@pytest.mark.parametrize("extra", [{"time": {"horizon": 701.0, "steps": 20}},
                                   {"beta": 800.0, "betas": [800.0]}],
                         ids=["horizon 701", "beta 800"])
def test_weights_are_checked_only_by_the_commands_that_read_them(tmp_path, extra):
    # no weight beta is admissible at horizon 701, and beta 800 overflows at
    # horizon 1, but expect reads neither beta nor betas
    rc, out = run_cli(tmp_path, "expect", {**SMALL, "payoff": {"id": "quadratic"}, **extra})
    assert rc == 0
    assert_finite_outputs(out)


@pytest.mark.parametrize("command", ["solve", "verify-estimates"])
@pytest.mark.parametrize("key", ["mu", "nu"])
@pytest.mark.parametrize("weight", [1e-200, 1e200])
def test_unrepresentable_penalty_weight_exits_2_with_one_stderr_line(
        tmp_path, capsys, command, key, weight):
    # 1e-200 squares to 0 and 1e200 squares past the float range
    cfg = {"box": BOX, "time": {"horizon": 1.0, "steps": 16}, "space": {"points": 101},
           "payoff": {"id": "quadratic"}, key: weight}
    rc, out = run_cli(tmp_path, command, cfg)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key}:"), err
    assert not out.exists()


def test_overflowing_bracket_term_exits_3_with_one_stderr_line(tmp_path, capsys):
    # mu = 1e-150 passes the mu^2 rule, but |df|^2 / mu^2 overflows from
    # beta = 32 on; an infinite bracket would pass those rows trivially
    cfg = {"box": BOX, "time": {"horizon": 1.0, "steps": 16}, "space": {"points": 101},
           "payoff": {"id": "quadratic"}, "mu": 1e-150,
           "perturbation": {"f_shift": 1.0}}
    rc, out = run_cli(tmp_path, "verify-estimates", cfg)
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: bracket term |df|^2/mu^2 is not finite "
                   "at beta=32"]
    assert not out.exists()


def test_oversized_covariance_grid_rejected_before_lattice(tmp_path, monkeypatch):
    # 182^2 = 33,124 covariance combos would overflow the int16 policy indices
    def no_lattice(*args):
        raise AssertionError("lattice built for an invalid box")

    monkeypatch.setattr(gcalc.cli, "build_lattice", no_lattice)
    cfg = {"box": {"d": 2, "lower": [1.0, 1.0], "upper": [2.0, 2.0],
                   "grid_points": 182},
           "time": {"horizon": 1.0, "steps": 4}, "space": {"points": 41},
           "payoff": {"id": "quadratic"}}
    rc, out = run_cli(tmp_path, "expect", cfg)
    assert rc == 2
    assert not out.exists()


def test_huge_space_grid_rejected_before_any_axis_is_built(tmp_path, monkeypatch, capsys):
    def no_axis(*args, **kwargs):
        raise AssertionError("grid axis allocated before the point count was checked")

    monkeypatch.setattr(np, "linspace", no_axis)
    cfg = {**SMALL, "space": {"points": 4_000_001}, "payoff": {"id": "quadratic"}}
    rc, out = run_cli(tmp_path, "expect", cfg)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not out.exists()


def test_non_finite_payoff_exits_3_without_outputs(tmp_path):
    # the butterfly midpoint (a + b) / 2 overflows, so the payoff is -inf
    cfg = {**SMALL, "payoff": {"id": "butterfly",
                               "params": {"a": -1.7e308, "b": -1.6e308}}}
    rc, out = run_cli(tmp_path, "expect", cfg)
    assert rc == 3
    assert not out.exists()


def test_overflowing_driver_exits_3_with_one_stderr_line(tmp_path, capsys):
    # every driver value is finite, but the accumulated driver term overflows
    # inside the backward sweep
    cfg = {"box": BOX, "time": {"horizon": 2.0, "steps": 16},
           "space": {"points": 101}, "payoff": {"id": "quadratic"},
           "drivers": {"dt": {"id": "constant", "params": {"c": 1e308}}}}
    rc, out = run_cli(tmp_path, "solve", cfg)
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert not out.exists()
    assert not list(tmp_path.rglob("*.csv"))


def test_huge_ratio_n_max_exits_3_before_allocating(tmp_path, capsys):
    # beta_n at n = 10^12 is far past the weight limit; the report must say
    # so before it allocates one row per n
    ratio = {"theta": [{"id": "linear"}] * 2, "zeta": [{"id": "constant"}] * 2,
             "n_max": 10 ** 12}
    rc, out = run_cli(tmp_path, "ratio-decay", {**SMALL, "ratio": ratio})
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert not out.exists()


def test_zero_ratio_numerator_exits_3_with_its_cause(tmp_path, capsys):
    # c_max = 0 makes every beta_n 0 and every ratio 0/0
    zero = {"id": "constant", "params": {"c": 0}}
    ratio = {"theta": [zero] * 2, "zeta": [{"id": "constant"}] * 2, "n_max": 5}
    rc, out = run_cli(tmp_path, "ratio-decay", {**SMALL, "ratio": ratio})
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: ratio.theta mean square is identically "
                   "zero, so every beta_n is 0 and each ratio would be 0/0"]
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


RATIO = {"theta": [{"id": "linear"}, {"id": "linear"}],
         "zeta": [{"id": "constant"}, {"id": "constant"}]}

# the field a 400-digit JSON integer sits in, as the error line names it
OUT_OF_RANGE_FIELD = {"beta beyond float range": "betas[0]",
                      "horizon beyond float range": "time.horizon",
                      "box lower beyond float range": "box.lower",
                      "ratio partition beyond float range": "ratio.partition[1]"}


@pytest.mark.parametrize("command, extra, label", [
    ("expect", {"payoff": {"id": "constant", "params": {"c": None}}}, "payoff c null"),
    ("expect", {"payoff": {"id": "constant", "params": {"c": "x"}}}, "payoff c string"),
    ("expect", {"payoff": {"id": "linear", "params": {"weights": {"a": 1}}}},
     "payoff weights object"),
    ("solve", {"payoff": {"id": "quadratic"},
               "drivers": {"dt": {"id": "constant", "params": {"c": [1, 2]}}}},
     "driver c list"),
    ("solve", {"payoff": {"id": "quadratic"},
               "drivers": {"dt": {"id": "linear-in-z", "params": {"a": 1e300}}}},
     "driver Lipschitz overflow"),
    ("expect", {"payoff": {"id": "constant", "params": {"c": 10 ** 400}}},
     "payoff c beyond float range"),
    ("expect", {"payoff": {"id": "quadratic"}, "betas": [10 ** 400]}, "beta beyond float range"),
    ("ratio-decay", {"ratio": {**RATIO, "betas": [None]}}, "ratio betas null"),
    ("expect", {"payoff": {"id": "quadratic"}, "time": {"horizon": 10 ** 400, "steps": 20}},
     "horizon beyond float range"),
    ("expect", {"payoff": {"id": "quadratic"}, "box": {**BOX, "lower": [10 ** 400]}},
     "box lower beyond float range"),
    ("ratio-decay", {"ratio": {**RATIO, "partition": [0.0, 10 ** 400, 1.0]}},
     "ratio partition beyond float range"),
    ("expect", {"payoff": {"id": "quadratic"}, "box": {**BOX, "lower": [{"a": 1}]}},
     "box lower object"),
])
def test_malformed_param_values_exit_2_with_one_stderr_line(tmp_path, capsys, command,
                                                            extra, label):
    rc, out = run_cli(tmp_path, command, {**SMALL, **extra}, name=label.replace(" ", "-"))
    assert rc == 2, label
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    if label in OUT_OF_RANGE_FIELD:
        assert f"{OUT_OF_RANGE_FIELD[label]}: value out of range" in err[0], err
    assert not out.exists(), label



def test_beta_at_the_weight_exponent_limit_solves(tmp_path):
    # 695 * horizon sits under the shared 700 exponent limit, so the CLI and
    # the solver agree that this beta is admissible
    cfg = {**SMALL, "payoff": {"id": "quadratic"},
           "drivers": {"dt": {"id": "linear-in-y", "params": {"r": -0.5}}},
           "beta": 695}
    rc, out = run_cli(tmp_path, "solve", cfg)
    assert rc == 0
    outputs = load_summary(out)["outputs"]
    assert outputs["converged"] is True
    assert math.isfinite(outputs["y0"])


def test_config_error_message_names_the_field(tmp_path, capsys):
    cfg = {**SMALL, "payoff": {"id": "quadratic"}, "betas": "nope"}
    rc, _ = run_cli(tmp_path, "expect", cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "betas" in err


# ---------------------------------------------------------------------------
# fields.csv layout
# ---------------------------------------------------------------------------

def reference_fields_rows(sol):
    """The per-cell formatter that the streamed fields.csv rows replaced."""
    lat = sol.lattice
    d, n = lat.d, sol.n
    times = lat.time.times()
    rows = []
    zeros = np.zeros(lat.space.shape + (n,))
    states = lat.states
    for k in range(lat.steps + 1):
        k_layer = sol.K_inc[k] if k < lat.steps else zeros
        for idx in np.ndindex(lat.space.shape):
            row = [_fmt(times[k])]
            row += [_fmt(states[idx + (a,)]) for a in range(d)]
            row += [_fmt(sol.Y[(k,) + idx + (i,)]) for i in range(n)]
            row += [_fmt(sol.Z[(k,) + idx + (a, i)]) for a in range(d) for i in range(n)]
            row += [_fmt(sol.eta[(k,) + idx + (i, a)]) for i in range(n) for a in range(d)]
            row += [_fmt(k_layer[idx + (i,)]) for i in range(n)]
            rows.append(row)
    return rows


def csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def assert_same_lines(got, want):
    """Text equality that names the first differing line (a plain == on
    megabytes of text makes pytest build a slow diff)."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"line {i + 1} differs"
    assert len(got_lines) == len(want_lines)


def written_fields_csv(tmp_path, sol):
    """fields.csv as _write_outputs writes it."""
    ctx = types.SimpleNamespace(out_dir=str(tmp_path / "fields"), command="represent",
                                seed=0, config={})
    _write_outputs(ctx, {}, {"fields.csv": _fields_csv(sol)})
    return (tmp_path / "fields" / "fields.csv").read_text()


def test_fields_csv_matches_per_cell_formatter_2d_two_components(tmp_path):
    lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=4, points=41,
                       grid_points=3)
    payoff = TerminalFunctional(
        fn=lambda x: np.stack([np.sum(x * x, axis=-1),
                               np.abs(x[..., 0] - 0.5 * x[..., 1])], axis=-1),
        lipschitz=100.0, n=2)
    sol = represent_martingale(payoff, lat)
    header, _ = _fields_csv(sol)
    assert header == ["t", "state_1", "state_2", "Y_1", "Y_2",
                      "Z_11", "Z_12", "Z_21", "Z_22",
                      "eta_11", "eta_12", "eta_21", "eta_22", "K_1", "K_2"]
    assert_same_lines(written_fields_csv(tmp_path, sol),
                      csv_text(header, reference_fields_rows(sol)))


def test_fields_csv_writes_special_floats_like_the_per_cell_formatter(tmp_path):
    lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=2, points=41,
                       grid_points=2)
    payoff = TerminalFunctional(fn=lambda x: np.stack([x[..., 0], x[..., 1]], axis=-1),
                                lipschitz=2.0, n=2)
    sol = represent_martingale(payoff, lat)
    specials = np.array([-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, -1e300, 0.0, 1.5])
    filled = {name: np.resize(np.roll(specials, shift), getattr(sol, name).shape)
              for shift, name in enumerate(("Y", "Z", "eta", "K_inc"))}
    sol = dataclasses.replace(sol, Y=filled["Y"])
    # derived fields: set them after replace; Z and eta through the block
    # reader, which the Z and eta properties read as well
    sol.K_inc = filled["K_inc"]
    sol.integrands = lambda ks: (filled["Z"][ks], filled["eta"][ks])
    header, _ = _fields_csv(sol)
    text = written_fields_csv(tmp_path, sol)
    assert_same_lines(text, csv_text(header, reference_fields_rows(sol)))
    cells = set(text.replace("\n", ",").split(","))
    assert {"-0.0", "5e-324", "1e+16", "1e-05", "0.30000000000000004",
            "-1e+300"} <= cells


def test_represent_fields_csv_matches_per_cell_formatter(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "abs"}}
    rc, out = run_cli(tmp_path, "represent", cfg)
    assert rc == 0
    ctx = build_experiment(cfg, "represent", None, None)
    sol = represent_martingale(ctx.payoff, ctx.lattice)
    header, _ = _fields_csv(sol)
    want = csv_text(header, reference_fields_rows(sol))
    assert (out / "fields.csv").read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# property-based fuzz: every config ends in finite outputs or one error line
# ---------------------------------------------------------------------------

MALFORMED = st.sampled_from([None, "x", [1, 2], {"a": 1}, True, -1.0, 0.0, 1e300,
                             10 ** 400])
# finite floats whose square leaves the float range
EXTREME = st.sampled_from([1e-200, 1e200])


def small_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def vectors(d, lo, hi):
    return st.lists(small_floats(lo, hi), min_size=d, max_size=d)


def payoff_params(d):
    return {"constant": {"c": small_floats(-3.0, 3.0)},
            "linear": {"weights": vectors(d, -2.0, 2.0)},
            "quadratic": {}, "neg-quadratic": {},
            "abs": {"weights": vectors(d, -2.0, 2.0)},
            "call": {"strike": small_floats(-1.0, 1.0), "weights": vectors(d, -2.0, 2.0)},
            "butterfly": {"a": small_floats(-2.0, 0.0), "b": small_floats(0.0, 2.0)}}


def driver_params(d):
    return {"zero": {}, "constant": {"c": small_floats(-2.0, 2.0)},
            "linear-in-y": {"r": small_floats(-1.0, 1.0)},
            "linear-in-z": {"a": vectors(d, -0.5, 0.5)},
            "qv-constant": {"gamma": small_floats(-1.0, 1.0)},
            "clamped-custom-affine": {
                "alpha": small_floats(-0.5, 0.5), "coef_y": small_floats(-0.5, 0.5),
                "coef_z": vectors(d, -0.3, 0.3), "coef_eta": vectors(d, 0.0, 0.05),
                "lo": small_floats(-2.0, -0.5), "hi": small_floats(0.5, 2.0)}}


def catalog_entry(draw, table, ids=None):
    """{"id", "params"} with a random subset of valid params, or one
    malformed param value."""
    cid = draw(st.sampled_from(sorted(table) if ids is None else ids))
    params = {k: draw(v) for k, v in table[cid].items() if draw(st.booleans())}
    if table[cid] and draw(st.integers(0, 5)) == 0:
        params[draw(st.sampled_from(sorted(table[cid])))] = draw(MALFORMED)
    return {"id": cid, "params": params}


def betas_near_limit(horizon):
    # admissible and overflowing weights around beta * horizon = 700
    return st.floats(min_value=0.9, max_value=1.05).map(lambda f: f * 700.0 / horizon)


@st.composite
def fuzz_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    d = draw(st.sampled_from([1, 2]))
    lower = draw(vectors(d, 0.5, 2.0))
    upper = [lo * w for lo, w in zip(lower, draw(vectors(d, 1.0, 2.0)))]
    horizon = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    # ratio-decay's default partition needs the midpoint on the time grid
    steps = draw(st.integers(1, 4)) * 2 if command == "ratio-decay" else draw(st.integers(1, 8))
    # mostly fine enough for the resolution guard
    # (spacing 12 sigma_max sqrt(T) / (points - 1) <= sigma_min sqrt(T / steps))
    cap = 61 if d == 1 else 41
    fine = 12.0 * math.sqrt(max(upper) / min(lower) * steps) + 1.0
    least = min(cap, max(9, int(fine) + 1))
    points = draw(st.integers(least // 2, cap // 2)) * 2 + 1
    cfg = {"box": {"d": d, "lower": lower, "upper": upper,
                   "grid_points": draw(st.integers(2, 5 if d == 1 else 3))},
           "time": {"horizon": horizon, "steps": steps},
           "space": {"points": points}}
    payoffs = payoff_params(d)
    drivers = driver_params(d)
    if command in ("expect", "represent", "solve", "verify-estimates"):
        cfg["payoff"] = catalog_entry(draw, payoffs)
    if command in ("solve", "verify-estimates"):
        cfg["drivers"] = {"dt": catalog_entry(draw, drivers),
                          "qv": catalog_entry(draw, drivers)}
        cfg["max_iter"] = draw(st.integers(1, 30))
        if draw(st.booleans()):
            cfg["beta"] = draw(betas_near_limit(horizon))
        if draw(st.booleans()):
            cfg["betas"] = [1.0, draw(betas_near_limit(horizon))]
        # solver and harness scalars: each valid or absent, then at most one
        # of them malformed or extreme
        shifts = {}
        scalars = [(cfg, "mu", small_floats(0.1, 10.0)), (cfg, "nu", small_floats(0.1, 10.0)),
                   (cfg, "tol", small_floats(1e-10, 1e-3)),
                   (shifts, "payoff_shift", small_floats(-1.0, 1.0)),
                   (shifts, "f_shift", small_floats(-1.0, 1.0))]
        for target, key, valid in scalars:
            if draw(st.booleans()):
                target[key] = draw(valid)
        bad = draw(st.integers(-1, len(scalars) - 1))
        if bad >= 0:
            target, key, _ = scalars[bad]
            target[key] = draw(st.one_of(EXTREME, MALFORMED))
        if shifts:
            cfg["perturbation"] = shifts
    if command == "capacity":
        cfg["event"] = {"payoff": catalog_entry(draw, payoffs),
                        "level": draw(small_floats(-1.0, 2.0)),
                        "op": draw(st.sampled_from([">=", "<=", ">", "<"]))}
    if command == "ratio-decay":
        cfg["ratio"] = {
            "theta": [catalog_entry(draw, payoffs) for _ in range(2)],
            "zeta": [catalog_entry(draw, payoffs, ["constant"]) for _ in range(2)],
            "n_max": draw(st.integers(1, 4)),
            "betas": draw(st.lists(st.one_of(betas_near_limit(horizon), MALFORMED),
                                   max_size=2))}
    return command, cfg


def assert_finite_outputs(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)

    def walk(v):
        if isinstance(v, dict):
            for x in v.values():
                walk(x)
        elif isinstance(v, list):
            for x in v:
                walk(x)
        elif isinstance(v, float):
            assert math.isfinite(v), summary
    walk(summary)
    for name in summary["files"]:
        with open(os.path.join(out_dir, name)) as fh:
            for row in list(csv.reader(fh))[1:]:
                for cell in row:
                    if cell not in ("", "true", "false"):
                        assert math.isfinite(float(cell)), (name, row)


@given(fuzz_configs())
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_cli_fuzz_ends_in_finite_outputs_or_one_error_line(example):
    command, cfg = example
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out_dir = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", path, "--out", out_dir])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3, 4), (rc, lines)
        # exit 4 is a verification check that ran and failed: its report is
        # written like a success, plus one stderr line saying so
        if rc in (0, 4):
            assert_finite_outputs(out_dir)
            assert len(lines) == (rc == 4), lines
        else:
            assert len(lines) == 1, lines
            assert not os.path.exists(out_dir)


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_invocation_matches_in_process(tmp_path):
    cfg = {**SMALL, "payoff": {"id": "abs"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out_in = run_cli(tmp_path, "expect", cfg, name="inproc")
    assert rc == 0
    out_sub = tmp_path / "subproc"
    # The child runs in tmp_path, so a relative PYTHONPATH would not find
    # the package: put the directory holding the imported gcalc first.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gcalc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gcalc.cli", "expect", "--config", str(path),
         "--out", str(out_sub)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out_sub / "expectation.csv").read_bytes() == \
        (out_in / "expectation.csv").read_bytes()
