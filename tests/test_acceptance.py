"""Acceptance gate: nine criteria, one printed verdict line each.

Each test prints exactly one "[AC#] PASS/FAIL - ..." line straight to the
terminal (bypassing capture) so the gate status is visible in any pytest
run, then asserts. Tolerances are frozen here on purpose; loosening them
is a release decision, not a test fix.
"""
import json
import math
import time

import numpy as np
import pytest

from conftest import desk_lattice, make_lattice, quad_payoff

from gcalc import (DiagTensor, Driver, GBsdeParams, StepProcess,
                   TerminalFunctional, TimeGrid, VolatilityBox,
                   classical_oracle, compensator_mc_check, g_diag,
                   g_sym_bruteforce, lemma31_bounds, ratio_decay_report,
                   represent_martingale, residual_check, simulate_path,
                   solve_gbsde, sublinear_expectation, zero_dt_driver,
                   zero_qv_driver)
from gcalc.catalog import make_driver, make_payoff
from gcalc.cli import main as cli_main
from gcalc.harness import (BETA_GRID, apriori_check, cauchy_sequence_check,
                           representation_bound_check)
from gcalc.solver import triple_distance_sq


@pytest.fixture
def verdict(capsys):
    def _go(tag, ok, detail):
        line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _go


def _note(capsys, text):
    with capsys.disabled():
        print(text, flush=True)


# ---------------------------------------------------------------------------
# AC1: worst-case generator exactness
# ---------------------------------------------------------------------------

def test_ac1_generator_exactness(verdict):
    rng = np.random.default_rng(314)
    # per-axis counts chosen so the product grid has ~1e4 points
    grid_pts = {1: 10000, 2: 100, 3: 22}
    worst_corner = 0.0
    grid_violations = 0
    t0 = time.time()
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(0.1, 2.0, d)
        hi = lo + rng.uniform(0.1, 3.0, d)
        box = VolatilityBox(lo, hi)
        row = rng.uniform(-5.0, 5.0, d)
        val = float(g_diag(DiagTensor(row[None, :]), box)[0])
        oracle = 0.5 * float(np.max(box.corners() @ row))
        worst_corner = max(worst_corner, abs(val - oracle))
        pts = grid_pts[d]
        sup = g_sym_bruteforce(np.diag(row), box, points_per_axis=pts)
        spacing = float(np.max((hi - lo) / (pts - 1)))
        tol = 0.5 * float(np.sum(np.abs(row))) * spacing
        if not (-1e-9 <= val - sup <= tol):
            grid_violations += 1
    elapsed = time.time() - t0
    ok = worst_corner <= 1e-12 and grid_violations == 0 and elapsed < 5.0
    verdict("AC1", ok,
            f"1000 draws d<=3: corner gap {worst_corner:.1e} (<=1e-12), "
            f"{grid_violations} grid-sup violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC2: second-moment anchors at desk scale
# ---------------------------------------------------------------------------

def test_ac2_anchor_moments(verdict):
    t0 = time.time()
    lat = desk_lattice()
    upper = float(sublinear_expectation(lat, quad_payoff())[0])
    lower = -float(sublinear_expectation(lat, quad_payoff(-1.0))[0])
    elapsed = time.time() - t0
    ok = abs(upper - 4.0) <= 0.05 and abs(lower - 1.0) <= 0.05 and elapsed < 10.0
    verdict("AC2", ok,
            f"box [1,4], N=200, 401 pts: upper {upper:.6f} (target 4), "
            f"lower {lower:.6f} (target 1), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC3: pathwise bracket-integral bounds
# ---------------------------------------------------------------------------

def test_ac3_bracket_bound_suite(verdict):
    rng = np.random.default_rng(2718)
    violations = 0
    t0 = time.time()
    for _ in range(1000):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        steps = int(rng.integers(8, 41))
        lo = rng.uniform(0.2, 2.0, d)
        hi = lo + rng.uniform(0.1, 2.5, d)
        box = VolatilityBox(lo, hi)
        grid = TimeGrid(horizon=float(rng.uniform(0.5, 2.0)), steps=steps)
        table = rng.uniform(lo, hi, (steps, d))
        path = simulate_path(grid, box, lambda k, x: table[k],
                             seed=int(rng.integers(1 << 31)))
        eta = rng.uniform(-3.0, 3.0, (steps, n, d))
        rep = lemma31_bounds(eta, path, n=n)
        if not (rep.ok_abs and rep.ok_sandwich):
            violations += 1
        if abs(rep.k_constant - math.sqrt(d) * box.sigma_max_sq) > 1e-12:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 30.0
    verdict("AC3", ok,
            f"1000 draws d,n in {{1,2}}: {violations} violations of the "
            f"absolute/sandwich bounds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC4: ratio decay for random two-step processes
# ---------------------------------------------------------------------------

def _random_step_fn(rng, positive_floor=None):
    a = float(rng.uniform(-2.0, 2.0))
    b = float(rng.uniform(-2.0, 2.0))
    kind = int(rng.integers(0, 3))
    if positive_floor is not None:
        c = float(rng.uniform(positive_floor, 2.0))
        if kind == 0:
            return lambda s: np.full(s.shape[:-1], c)
        return lambda s: np.abs(a * s[..., 0]) + c
    if kind == 0:
        return lambda s: a * s[..., 0] + b
    if kind == 1:
        return lambda s: np.abs(a * s[..., 0]) + b
    return lambda s: a * s[..., 0] ** 2 + b


def test_ac4_ratio_decay(verdict):
    lat = make_lattice(steps=20, points=121)
    rng = np.random.default_rng(99)
    windows = np.array([0.0, 0.5, 1.0])
    bad = []
    t0 = time.time()
    for trial in range(12):
        theta = StepProcess(times=windows,
                            state_fns=(_random_step_fn(rng), _random_step_fn(rng)))
        zeta = StepProcess(times=windows,
                           state_fns=(_random_step_fn(rng, positive_floor=0.3),
                                      _random_step_fn(rng, positive_floor=0.3)))
        rep = ratio_decay_report(theta, zeta, lat, n_max=20)
        if not np.all(rep.b_n <= 1.0 / rep.n_values * (1.0 + 1e-9) + 1e-12):
            bad.append(f"trial {trial}: bound broken")
        if not np.allclose(rep.beta_n, rep.n_values * rep.c_max / rep.d_min,
                           rtol=1e-12):
            bad.append(f"trial {trial}: beta(n) formula")
        if rep.b_n[-1] > 0.05 + 1e-12:
            bad.append(f"trial {trial}: final ratio {rep.b_n[-1]:.3f}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 10.0
    verdict("AC4", ok, "; ".join(bad) or
            f"12 random two-step pairs: ratio <= 1/n up to n=20, "
            f"final <= 0.05, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC5: martingale-representation invariants across the payoff catalog
# ---------------------------------------------------------------------------

AC5_PAYOFFS = ("constant", "linear", "quadratic", "neg-quadratic", "abs",
               "butterfly")


def test_ac5_representation_invariants(verdict):
    coarse = make_lattice(steps=200, points=401)
    fine = make_lattice(steps=400, points=801)
    failures = []
    summary = []
    t0 = time.time()
    for pid in AC5_PAYOFFS:
        payoff = make_payoff(pid, 1)
        params = GBsdeParams(terminal=payoff, f=zero_dt_driver(1),
                             g=zero_qv_driver(1, 1))
        sol = represent_martingale(payoff, coarse)
        k_min = float(sol.K_inc.min())
        if k_min < -1e-6:
            failures.append(f"{pid}: K increment floor {k_min:.2e}")
        r_coarse = residual_check(sol, params, n_paths=64, seed=11,
                                  n_controls=4).max_residual
        r_fine = residual_check(represent_martingale(payoff, fine), params,
                                n_paths=64, seed=11, n_controls=4).max_residual
        if r_coarse > 5e-3:
            failures.append(f"{pid}: residual {r_coarse:.2e} > 5e-3")
        if r_fine > 0.5 * r_coarse + 1e-9:
            failures.append(
                f"{pid}: residual not halving ({r_coarse:.2e} -> {r_fine:.2e})")
        mc = compensator_mc_check(sol, n_controls=64, n_paths=256, seed=977)
        if not mc.ok:
            failures.append(f"{pid}: MC sup {mc.sup_estimate:.2e} "
                            f"outside 3 SE ({3 * mc.sup_se:.2e})")
        summary.append(f"{pid} {r_coarse:.0e}")
    elapsed = time.time() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    verdict("AC5", not failures,
            "; ".join(failures) if failures else
            f"six payoffs: K >= 0, residuals halve, MC sup at 0 "
            f"({', '.join(summary)}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# AC6: closed-form field reproduction
# ---------------------------------------------------------------------------

def test_ac6_closed_form_fields(verdict):
    t0 = time.time()
    lat = make_lattice(steps=200, points=401)
    xs = lat.space.axes[0]
    times = lat.time.times()
    half = slice(100, 301)                    # central half of 401 points
    reports = []
    ok = True
    for sign, sig2, label in ((1.0, 4.0, "convex"), (-1.0, 1.0, "concave")):
        sol = represent_martingale(quad_payoff(sign), lat)
        truth = sign * (xs[None, :] ** 2 + sig2 * (1.0 - times[:, None]))
        err_y = float(np.abs(sol.Y[:, half, 0] - truth[:, half]).max())
        err_z = float(np.abs(sol.Z[:, half, 0, 0]
                             - sign * 2.0 * xs[None, half]).max())
        err_eta = float(np.abs(sol.eta[:, half, 0, 0] - sign * 2.0).max())
        ok = ok and err_y <= 0.05 and err_z <= 0.05 and err_eta <= 0.1
        reports.append(f"{label} Y {err_y:.1e}, Z {err_z:.1e}, eta {err_eta:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    verdict("AC6", ok, f"{'; '.join(reports)} (caps 0.05/0.05/0.1), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC7: contraction diagnostics and the classical oracle
# ---------------------------------------------------------------------------

def test_ac7_picard_contraction(verdict):
    t0 = time.time()
    lat = make_lattice()
    f = Driver(fn=lambda t, y, z, eta: -0.5 * y, lipschitz=0.5,
               name="linear-in-y")
    params = GBsdeParams(terminal=quad_payoff(), f=f, g=zero_qv_driver(1, 1))
    sol, rep = solve_gbsde(params, lat)
    problems = []
    if not rep.contraction_factors or max(rep.contraction_factors) >= 1.0:
        problems.append("contraction factor >= 1")
    ratios = [rep.distances[i + 1] / rep.distances[i]
              for i in range(len(rep.distances) - 1)]
    if len(ratios) < 5 or any(r > 0.7 for r in ratios):
        problems.append(f"no geometric decay over >= 5 iterations ({ratios})")
    warm = (sol.Y + 0.37, sol.Z.copy(), sol.eta.copy())
    sol2, _ = solve_gbsde(params, lat, initial=warm)
    gap = math.sqrt(triple_distance_sq(sol.Y - sol2.Y, sol.Z - sol2.Z,
                                       sol.eta - sol2.eta, lat, 0.0))
    y0_gap = abs(float(sol.y0[0]) - float(sol2.y0[0]))
    if gap > 2e-9 or y0_gap > 2e-9:
        problems.append(f"initialization dependence {gap:.1e}/{y0_gap:.1e}")
    lat_deg = make_lattice(lower=(4.0,), upper=(4.0,))
    sol_deg, _ = solve_gbsde(params, lat_deg)
    oracle = classical_oracle(params, lat_deg)
    oracle_gap = float(np.abs(sol_deg.Y - oracle.Y).max())
    if oracle_gap > 1e-8:
        problems.append(f"oracle gap {oracle_gap:.1e}")
    elapsed = time.time() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.0f}s")
    verdict("AC7", not problems,
            "; ".join(problems) if problems else
            f"factor {max(rep.contraction_factors):.3f} < 1 over "
            f"{rep.iterations} iterations, init gap {gap:.1e}, "
            f"oracle gap {oracle_gap:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# AC8: stability / representation / Cauchy estimate checks
# ---------------------------------------------------------------------------

def test_ac8_estimate_verification(verdict, capsys):
    t0 = time.time()
    lat = make_lattice(steps=20, points=121)
    linear = make_payoff("linear", 1)
    base = GBsdeParams(terminal=linear, f=zero_dt_driver(1),
                       g=zero_qv_driver(1, 1))
    shifted = TerminalFunctional(fn=lambda x: linear.fn(x) + 0.1)
    p_term = GBsdeParams(terminal=shifted, f=base.f, g=base.g)
    p_driver = GBsdeParams(terminal=linear,
                           f=make_driver("constant", 1, 1, {"c": 0.1}),
                           g=base.g)
    problems = []
    for label, other in (("terminal", p_term), ("driver", p_driver)):
        rep = apriori_check(base, other, lat, betas=BETA_GRID, mu=1.0, nu=1.0)
        if not (rep.ok and rep.beta0_conservative <= 1024.0):
            problems.append(f"{label}-perturbation stability bound fails")
            continue
        flagged = [r.beta for r in rep.rows if not r.all_printed]
        if flagged:
            _note(capsys, f"[AC8] note: printed-constant shortfall "
                          f"({label} case) at beta in {flagged}")
    for pid in ("linear", "quadratic"):
        if not representation_bound_check(make_payoff(pid, 1), lat).ok:
            problems.append(f"representation bound fails for {pid}")
    quad = make_payoff("quadratic", 1)
    truncations = [TerminalFunctional(
        fn=lambda x, c=c: np.clip(quad.fn(x), -c, c)) for c in (1.0, 2.0, 4.0, 8.0)]
    if not cauchy_sequence_check(truncations, lat, beta=1.0).ok:
        problems.append("Cauchy bound fails on the truncation sequence")
    elapsed = time.time() - t0
    if elapsed >= 180.0:
        problems.append(f"runtime {elapsed:.0f}s")
    verdict("AC8", not problems,
            "; ".join(problems) if problems else
            f"stability (terminal + driver), representation (linear + "
            f"quadratic), Cauchy truncations all pass, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# AC9: CLI byte determinism across every command
# ---------------------------------------------------------------------------

def test_ac9_cli_determinism(tmp_path, verdict):
    box = {"d": 1, "lower": [1.0], "upper": [4.0]}
    small = {"box": box, "time": {"horizon": 1.0, "steps": 20},
             "space": {"points": 121}}
    configs = {
        "expect": {**small, "payoff": {"id": "abs"}},
        "represent": {**small, "payoff": {"id": "quadratic"}},
        "solve": {**small, "payoff": {"id": "linear"},
                  "drivers": {"dt": {"id": "linear-in-y",
                                     "params": {"r": -0.5}}}},
        "verify-estimates": {**small, "payoff": {"id": "linear"},
                             "betas": [1.0]},
        "ratio-decay": {**small, "ratio": {
            "theta": [{"id": "linear", "params": {"weights": [0.5]}},
                      {"id": "linear", "params": {"weights": [0.5]}}],
            "zeta": [{"id": "constant", "params": {"c": 1.0}},
                     {"id": "constant", "params": {"c": 1.0}}]}},
        "capacity": {**small, "event": {"payoff": {"id": "linear"},
                                        "level": 1.0}},
    }
    problems = []
    t0 = time.time()
    for cmd, cfg in configs.items():
        cfg_path = tmp_path / f"{cmd}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{cmd}-{run}"
            rc = cli_main([cmd, "--config", str(cfg_path), "--out", str(out),
                           "--seed", "0"])
            if rc != 0:
                problems.append(f"{cmd}: exit {rc}")
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        if not csvs:
            problems.append(f"{cmd}: produced no CSV")
        for name in csvs:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                problems.append(f"{cmd}: {name} differs between runs")
    elapsed = time.time() - t0
    verdict("AC9", not problems,
            "; ".join(problems) if problems else
            f"all six commands byte-identical across repeat runs, "
            f"{elapsed:.0f}s")
