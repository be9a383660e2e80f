"""Backward equation solver: representation, fixed point, replay checks.

Closed-form anchors: quadratic payoffs have affine-in-time value fields with
constant curvature, linear payoffs are martingales with exact gradients, and
a y-only dt-driver reduces to a scalar implicit ODE with a known discrete
solution.
"""
import math

import numpy as np
import pytest

from gcalc import (Driver, GBsdeParams, TerminalFunctional, classical_oracle,
                   compensator_mc_check, extract_integrands, picard_step,
                   represent_martingale, residual_check, solve_gbsde)
from gcalc.catalog import make_driver
from gcalc.errors import (ConvergenceError, DegenerateBoxError, InputError)
from gcalc.solver import (BETA_SCAN, default_penalties, triple_distance_sq,
                          zero_dt_driver, zero_qv_driver)

from conftest import const_payoff, linear_payoff, make_lattice, quad_payoff


def no_driver_params(terminal, d=1):
    return GBsdeParams(terminal=terminal, f=zero_dt_driver(terminal.n),
                       g=zero_qv_driver(terminal.n, d))


CENTER = slice(60, 101)   # |x| <= 3 on the 161-point axis, far from edges


# ---------------------------------------------------------------------------
# representation without drivers
# ---------------------------------------------------------------------------

def test_represent_convex_quadratic(small_lat):
    sol = represent_martingale(quad_payoff(), small_lat)
    x = small_lat.space.axes[0]
    t = small_lat.time.times()
    # boundary clamping contaminates early layers; the cone shrinks forward
    for k, tol in ((0, 1e-4), (10, 1e-6), (20, 1e-9), (35, 1e-9)):
        want = x[CENTER] ** 2 + 4.0 * (1.0 - t[k])
        assert np.allclose(sol.Y[k, CENTER, 0], want, atol=tol)
        assert np.allclose(sol.Z[k, CENTER, 0, 0], 2.0 * x[CENTER], atol=tol)
        assert np.allclose(sol.eta[k, CENTER, 0, 0], 2.0, atol=tol)
    # positive curvature pins the policy to the top covariance (last combo)
    assert np.all(sol.policy_idx[:, CENTER, 0] == small_lat.combos.shape[0] - 1)
    assert np.all(sol.policy_sigma2()[:, CENTER, 0, 0] == 4.0)
    assert sol.K_inc.min() >= 0.0
    assert np.abs(sol.K_inc[:, CENTER, 0]).max() <= 1e-10


def test_represent_concave_quadratic(small_lat):
    sol = represent_martingale(quad_payoff(sign=-1.0), small_lat)
    x = small_lat.space.axes[0]
    want0 = -x[CENTER] ** 2 - 1.0
    assert np.allclose(sol.Y[0, CENTER, 0], want0, atol=1e-8)
    assert sol.y0[0] == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(sol.eta[0, CENTER, 0, 0], -2.0, atol=1e-8)
    # negative curvature pins the policy to the bottom covariance
    assert np.all(sol.policy_idx[:, CENTER, 0] == 0)
    assert sol.K_inc.min() >= 0.0


def test_represent_linear_is_martingale(small_lat):
    sol = represent_martingale(linear_payoff(), small_lat)
    x = small_lat.space.axes[0]
    assert np.allclose(sol.Y[:, CENTER, 0], x[None, CENTER], atol=1e-5)
    assert np.allclose(sol.Z[:, CENTER, 0, 0], 1.0, atol=1e-5)
    assert np.allclose(sol.eta[:, CENTER], 0.0, atol=1e-5)
    assert np.allclose(sol.K_inc[:, CENTER], 0.0, atol=1e-12)
    assert sol.K_inc.min() >= 0.0
    assert sol.n == 1
    assert sol.Y.shape == (41, 161, 1)
    assert sol.Z.shape == (41, 161, 1, 1)
    assert sol.eta.shape == (41, 161, 1, 1)
    assert sol.K_inc.shape == (40, 161, 1)


# ---------------------------------------------------------------------------
# integrand extraction
# ---------------------------------------------------------------------------

def test_extract_integrands_quadratic(small_lat):
    x = small_lat.space.axes[0]
    values = np.broadcast_to((x * x)[None, :, None], (41, 161, 1)).copy()
    z, eta = extract_integrands(values, small_lat)
    assert z.shape == (41, 161, 1, 1) and eta.shape == (41, 161, 1, 1)
    assert np.allclose(z[:, 1:-1, 0, 0], 2.0 * x[1:-1], atol=1e-9)
    assert np.allclose(eta[..., 0, 0], 2.0, atol=1e-9)
    # bracket coefficients shift the curvature integrand by twice their value
    g_field = np.full((41, 161, 1, 1), 0.25)
    _, eta_g = extract_integrands(values, small_lat, g_field=g_field)
    assert np.allclose(eta_g, eta + 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# driver plumbing and validation
# ---------------------------------------------------------------------------

def test_driver_validation():
    with pytest.raises(InputError):
        Driver(fn=lambda t, y, z, eta: y, lipschitz=-1.0)
    with pytest.raises(InputError):
        Driver(fn=lambda t, y, z, eta: y, lipschitz=math.inf)
    zf = zero_dt_driver(2)
    assert np.array_equal(zf.fn(0.0, np.zeros((5, 2)), None, None), np.zeros((5, 2)))
    zg = zero_qv_driver(2, 1)
    assert zg.fn(0.0, np.zeros((5, 2)), None, None).shape == (5, 2, 1)


def test_non_finite_driver_values_rejected(small_lat):
    def filled(v, tail=()):
        return Driver(fn=lambda t, y, z, eta: np.full(y.shape + tail, v), lipschitz=0.0)

    for f, g in ((filled(np.inf), zero_qv_driver(1, 1)),
                 (zero_dt_driver(1), filled(-np.inf, (1,)))):
        params = GBsdeParams(terminal=const_payoff(1.0), f=f, g=g)
        with pytest.raises(InputError):
            solve_gbsde(params, small_lat)


def test_spot_check_rejects_understated_lipschitz(small_lat):
    liar = Driver(fn=lambda t, y, z, eta: 5.0 * y, lipschitz=1.0, name="liar")
    params = GBsdeParams(terminal=const_payoff(1.0), f=liar, g=zero_qv_driver(1, 1))
    with pytest.raises(InputError):
        solve_gbsde(params, small_lat)


def test_default_penalties_and_theoretical_factor(small_lat):
    f = make_driver("linear-in-y", 1, 1, params={"r": -0.5})
    params = GBsdeParams(terminal=const_payoff(1.0), f=f, g=zero_qv_driver(1, 1))
    mu2, nu2 = default_penalties(params, small_lat)
    assert mu2 == pytest.approx(20.0 * 0.5 * 4.0 / 1.0)   # 20 C sbar2 / slo2
    assert nu2 == mu2
    _, rep = solve_gbsde(params, small_lat)
    assert rep.theoretical_factor == pytest.approx(
        5.0 * 0.5 / 1.0 * (1.0 / mu2 + 1.0 / nu2))
    assert rep.theoretical_factor < 1.0
    # zero drivers keep the penalties at their floor
    assert default_penalties(no_driver_params(const_payoff(1.0)), small_lat) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# fixed point with drivers
# ---------------------------------------------------------------------------

def test_ode_reduction_exact_discrete(small_lat):
    f = make_driver("linear-in-y", 1, 1, params={"r": -0.5})
    params = GBsdeParams(terminal=const_payoff(1.0), f=f, g=zero_qv_driver(1, 1))
    sol, rep = solve_gbsde(params, small_lat)
    dt = small_lat.dt
    exact_discrete = 1.0 / (1.0 + 0.5 * dt) ** small_lat.steps
    assert sol.y0[0] == pytest.approx(exact_discrete, abs=1e-9)
    assert sol.y0[0] == pytest.approx(math.exp(-0.5), abs=0.01)
    assert rep.converged and rep.iterations >= 3
    assert rep.beta0_empirical in BETA_SCAN
    assert max(rep.contraction_factors) <= rep.theoretical_factor
    # geometric decay of successive distances
    d = rep.distances
    assert all(d[i + 1] <= 0.6 * d[i] for i in range(1, len(d) - 1))


def test_qv_constant_driver_closed_form(small_lat):
    for gamma, want in ((0.5, 0.5 * 4.0), (-0.5, -0.5 * 1.0)):
        g = make_driver("qv-constant", 1, 1, params={"gamma": gamma}, role="qv")
        params = GBsdeParams(terminal=const_payoff(0.0), f=zero_dt_driver(1), g=g)
        sol, _ = solve_gbsde(params, small_lat)
        assert sol.y0[0] == pytest.approx(want, abs=1e-9)
        # flat value field, curvature integrand equals twice the coefficient
        assert np.allclose(sol.eta, 2.0 * gamma, atol=1e-9)
        assert np.abs(sol.K_inc).max() <= 1e-12
        assert np.allclose(sol.g_field, gamma, atol=1e-12)


def test_initial_guess_does_not_move_fixed_point(small_lat):
    f = make_driver("linear-in-y", 1, 1, params={"r": -0.5})
    params = GBsdeParams(terminal=const_payoff(1.0), f=f, g=zero_qv_driver(1, 1))
    sol_a, _ = solve_gbsde(params, small_lat)
    warm = (np.ones((41, 161, 1)), np.zeros((41, 161, 1, 1)),
            np.zeros((41, 161, 1, 1)))
    sol_b, _ = solve_gbsde(params, small_lat, initial=warm)
    assert abs(sol_a.y0[0] - sol_b.y0[0]) <= 2e-9
    sol_c, _ = solve_gbsde(params, small_lat, initial=sol_a)
    assert abs(sol_a.y0[0] - sol_c.y0[0]) <= 2e-9


def test_divergence_raises_with_trace(small_lat):
    stiff = Driver(fn=lambda t, y, z, eta: 50.0 * y, lipschitz=50.0, name="stiff")
    params = GBsdeParams(terminal=const_payoff(1.0), f=stiff, g=zero_qv_driver(1, 1))
    with pytest.raises(ConvergenceError) as err:
        solve_gbsde(params, small_lat, max_iter=2)
    assert len(err.value.trace) == 2
    assert all(v >= 0.0 for v in err.value.trace)


def test_fixed_beta_and_overflow_guard(small_lat):
    params = no_driver_params(quad_payoff())
    sol, rep = solve_gbsde(params, small_lat, beta=4.0)
    assert rep.beta == 4.0
    assert sol.y0[0] == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(InputError):
        solve_gbsde(params, small_lat, beta=1e6)


def test_two_components_solve_independently(small_lat):
    t2 = TerminalFunctional(
        fn=lambda x: np.concatenate([x * x, -(x * x)], axis=-1),
        lipschitz=60.0, n=2)
    params = GBsdeParams(terminal=t2, f=zero_dt_driver(2), g=zero_qv_driver(2, 1))
    sol, _ = solve_gbsde(params, small_lat)
    assert sol.y0[0] == pytest.approx(4.0, abs=1e-9)
    assert sol.y0[1] == pytest.approx(-1.0, abs=1e-9)
    up = represent_martingale(quad_payoff(), small_lat)
    dn = represent_martingale(quad_payoff(sign=-1.0), small_lat)
    assert np.allclose(sol.Y[..., 0], up.Y[..., 0], atol=1e-9)
    assert np.allclose(sol.Y[..., 1], dn.Y[..., 0], atol=1e-9)


def test_zero_driver_solve_matches_representation(small_lat):
    sol, rep = solve_gbsde(no_driver_params(quad_payoff()), small_lat)
    rep_only = represent_martingale(quad_payoff(), small_lat)
    assert np.array_equal(sol.Y, rep_only.Y)
    assert np.array_equal(sol.K_inc, rep_only.K_inc)
    assert rep.iterations == 2   # second sweep confirms the fixed point


# ---------------------------------------------------------------------------
# replay and compensator checks
# ---------------------------------------------------------------------------

def test_residual_replay_smooth_payoff(small_lat):
    params = no_driver_params(quad_payoff())
    sol, _ = solve_gbsde(params, small_lat)
    rc = residual_check(sol, params, n_paths=48, seed=5, n_controls=6)
    assert rc.max_residual <= 1e-6
    assert rc.terminal_gap <= 1e-9
    assert rc.off_policy_max_residual <= 1e-6
    assert rc.off_policy_min_margin >= -1e-9
    with pytest.raises(InputError):
        residual_check(sol, params, n_paths=0)


def test_residual_replay_with_drivers(small_lat):
    f = make_driver("linear-in-y", 1, 1, params={"r": -0.5})
    g = make_driver("qv-constant", 1, 1, params={"gamma": 0.25}, role="qv")
    params = GBsdeParams(terminal=quad_payoff(), f=f, g=g)
    sol, _ = solve_gbsde(params, small_lat)
    rc = residual_check(sol, params, n_paths=32, seed=9, n_controls=4)
    assert rc.max_residual <= 1e-6
    assert rc.off_policy_max_residual <= 1e-6
    assert rc.off_policy_min_margin >= -1e-8


def test_compensator_supremum_mc(small_lat):
    params = no_driver_params(quad_payoff())
    sol, _ = solve_gbsde(params, small_lat)
    cm = compensator_mc_check(sol, n_controls=24, n_paths=128, seed=7)
    assert cm.ok
    assert cm.sup_estimate <= 3.0 * cm.sup_se + 1e-9
    assert len(cm.estimates) == 24                # policy + corner + 22 tables
    assert len(cm.standard_errors) == len(cm.estimates)


# ---------------------------------------------------------------------------
# degenerate-box oracle
# ---------------------------------------------------------------------------

def test_classical_oracle_agrees_on_degenerate_box():
    lat = make_lattice(lower=(2.0,), upper=(2.0,))
    f = make_driver("linear-in-y", 1, 1, params={"r": -0.5})
    params = GBsdeParams(terminal=quad_payoff(), f=f, g=zero_qv_driver(1, 1))
    direct = classical_oracle(params, lat)
    iterated, _ = solve_gbsde(params, lat)
    assert np.abs(direct.Y - iterated.Y).max() <= 1e-8
    assert np.abs(direct.y0[0] - iterated.y0[0]) <= 1e-8
    assert np.all(direct.policy_idx == 0)


def test_classical_oracle_requires_degenerate_box(small_lat):
    params = no_driver_params(quad_payoff())
    with pytest.raises(DegenerateBoxError):
        classical_oracle(params, small_lat)


# ---------------------------------------------------------------------------
# distance diagnostics
# ---------------------------------------------------------------------------

def test_triple_distance_zero_and_scaling(small_lat):
    dy = np.zeros((41, 161, 1))
    dz = np.zeros((41, 161, 1, 1))
    de = np.zeros((41, 161, 1, 1))
    assert triple_distance_sq(dy, dz, de, small_lat, 0.0) == 0.0
    dy1 = np.ones((41, 161, 1))
    base = triple_distance_sq(dy1, dz, de, small_lat, 0.0)
    # constant fields integrate exactly: |dy|^2 * T
    assert base == pytest.approx(1.0, rel=1e-12)
    assert triple_distance_sq(2.0 * dy1, dz, de, small_lat, 0.0) == \
        pytest.approx(4.0 * base, rel=1e-12)


def test_distances_by_beta_match_per_beta_recomputation(small_lat):
    f = make_driver("linear-in-y", 1, 1, params={"r": -0.5})
    g = make_driver("qv-constant", 1, 1, params={"gamma": 0.25}, role="qv")
    params = GBsdeParams(terminal=linear_payoff(), f=f, g=g)
    _, rep = solve_gbsde(params, small_lat)
    assert rep.iterations >= 3
    fields = (np.zeros((41, 161, 1)), np.zeros((41, 161, 1, 1)),
              np.zeros((41, 161, 1, 1)))
    for i in range(rep.iterations):
        step = picard_step(fields, params, small_lat)
        delta = (step.Y - fields[0], step.Z - fields[1], step.eta - fields[2])
        assert rep.distances[i] == math.sqrt(triple_distance_sq(*delta, small_lat, 0.0))
        for b in BETA_SCAN:
            assert rep.distances_by_beta[b][i] == triple_distance_sq(*delta, small_lat, b)
        fields = (step.Y, step.Z, step.eta)
