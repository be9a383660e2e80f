"""End-to-end tests for the command-line interface.

Most cases drive gcalc.cli.main() in-process with configs written into
tmp_path; one test goes through `python3 -m gcalc.cli` to make sure the
module entry point stays wired up.
"""
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gcalc
from gcalc import TerminalFunctional, represent_martingale
from gcalc.cli import _fields_csv, _fmt, build_experiment, main

from conftest import make_lattice

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
    (lambda c: (c["time"].update(steps=100), c["space"].update(points=201)),
     "grid too coarse for the box"),
    (lambda c: c["box"].update(lower=[4.0], upper=[1.0]), "inverted box"),
])
def test_config_errors_exit_2_and_write_nothing(tmp_path, mutate, label):
    cfg = json.loads(json.dumps({**SMALL, "payoff": {"id": "quadratic"}}))
    mutate(cfg)
    rc, out = run_cli(tmp_path, "expect", cfg, name=label.replace(" ", "-"))
    assert rc == 2, label
    assert not out.exists(), label


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


def test_fields_csv_matches_per_cell_formatter_2d_two_components():
    lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=4, points=41,
                       grid_points=3)
    payoff = TerminalFunctional(
        fn=lambda x: np.stack([np.sum(x * x, axis=-1),
                               np.abs(x[..., 0] - 0.5 * x[..., 1])], axis=-1),
        lipschitz=100.0, n=2)
    sol = represent_martingale(payoff, lat)
    header, rows = _fields_csv(sol)
    assert header == ["t", "state_1", "state_2", "Y_1", "Y_2",
                      "Z_11", "Z_12", "Z_21", "Z_22",
                      "eta_11", "eta_12", "eta_21", "eta_22", "K_1", "K_2"]
    assert csv_text(header, rows) == csv_text(header, reference_fields_rows(sol))


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
