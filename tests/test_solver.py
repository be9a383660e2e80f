"""Backward equation solver: representation, fixed point, replay checks.

Closed-form anchors: quadratic payoffs have affine-in-time value fields with
constant curvature, linear payoffs are martingales with exact gradients, and
a y-only dt-driver reduces to a scalar implicit ODE with a known discrete
solution.
"""
import gc
import math
import tracemalloc

import numpy as np
import pytest

from gcalc import (Driver, GBsdeParams, StepProcess, TerminalFunctional, TimeGrid,
                   apriori_check, cauchy_sequence_check, classical_oracle,
                   compensator_mc_check, extract_integrands, lemma31_bounds, picard_step,
                   ratio_decay_report, represent_martingale, residual_check,
                   simulate_path, solve_gbsde)
from gcalc import calculus, solver
from gcalc.calculus import MAX_EXPONENT, MAX_RATIO_N, _layerwise_norms, weighted_norms
from gcalc.catalog import make_driver, make_payoff
from gcalc.errors import (ConvergenceError, DegenerateBoxError, InputError)
from gcalc.gtensor import g_corner
from gcalc.scenario import evaluate_field, nearest_index
from gcalc.solver import (BETA_SCAN, CompensatorReport, ResidualReport,
                          _triple_sq, _zero_fields, default_penalties,
                          triple_distance_sq, zero_dt_driver, zero_qv_driver)

from conftest import (const_payoff, desk_lattice, linear_payoff, make_lattice,
                      quad_payoff, sweep_budget)
from test_scenario import assert_same_bits


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
    assert np.all(small_lat.combos[sol.policy_idx][:, CENTER, 0, 0] == 4.0)
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


def test_spot_check_rejects_understated_bracket_lipschitz(small_lat):
    liar = Driver(fn=lambda t, y, z, eta: 5.0 * eta, lipschitz=1.0, name="liar")
    params = GBsdeParams(terminal=const_payoff(1.0), f=zero_dt_driver(1), g=liar)
    with pytest.raises(InputError, match="bracket driver 'liar'"):
        solve_gbsde(params, small_lat)


def test_spot_check_probes_are_seeded_and_in_range(small_lat_2d):
    # the probes are the driver calls on single arguments, y of shape (n,);
    # the Picard steps call it on whole layers
    probes = []

    def record(t, y, z, eta):
        if y.ndim == 1:
            probes.append((t, y.copy(), z.copy(), eta.copy()))
        return np.zeros(y.shape)

    d, n = small_lat_2d.d, 2
    terminal = TerminalFunctional(fn=lambda x: np.zeros(x.shape[:-1] + (n,)), n=n)
    params = GBsdeParams(terminal=terminal, f=Driver(fn=record, lipschitz=0.0),
                         g=zero_qv_driver(n, d))
    runs = []
    for _ in range(2):
        probes.clear()
        solve_gbsde(params, small_lat_2d)
        runs.append(list(probes))
    first, second = runs
    assert len(first) == 64                     # 32 probes, two argument sets each
    for (t, y, z, eta), again in zip(first, second):
        assert (t, y.tolist(), z.tolist(), eta.tolist()) == (
            again[0], again[1].tolist(), again[2].tolist(), again[3].tolist())
        assert 0.0 <= t <= 1.0
        assert (y.shape, z.shape, eta.shape) == ((n,), (d, n), (n, d))
        for a in (y, z, eta):
            assert np.all((-4.0 <= a) & (a <= 4.0))
    # both arguments of a probe share its time, and the probes differ
    assert all(first[i][0] == first[i + 1][0] for i in range(0, 64, 2))
    assert len({t for t, *_ in first}) == 32


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
    sol_c, _ = solve_gbsde(params, small_lat, initial=(sol_a.Y, sol_a.Z, sol_a.eta))
    assert abs(sol_a.y0[0] - sol_c.y0[0]) <= 2e-9


def test_divergence_raises_with_trace(small_lat):
    stiff = Driver(fn=lambda t, y, z, eta: 50.0 * y, lipschitz=50.0, name="stiff")
    params = GBsdeParams(terminal=const_payoff(1.0), f=stiff, g=zero_qv_driver(1, 1))
    with pytest.raises(ConvergenceError) as err:
        solve_gbsde(params, small_lat, max_iter=2)
    assert len(err.value.trace) == 2
    assert all(v >= 0.0 for v in err.value.trace)


def test_max_iter_below_one_raises_input_error(small_lat):
    params = no_driver_params(quad_payoff())
    for max_iter in (0, -1):
        with pytest.raises(InputError, match="max_iter"):
            solve_gbsde(params, small_lat, max_iter=max_iter)


def test_malformed_initial_fields_raise_input_error(small_lat):
    params = no_driver_params(quad_payoff())
    good = (np.zeros((41, 161, 1)), np.zeros((41, 161, 1, 1)), np.zeros((41, 161, 1, 1)))
    for initial in ((np.zeros((3, 3)),) * 3, good[:2], good + good[:1],
                    (good[0], good[1][:-1], good[2]), (good[0][..., 0],) + good[1:]):
        with pytest.raises(InputError, match=r"\(41, 161, 1\), \(41, 161, 1, 1\)"):
            solve_gbsde(params, small_lat, initial=initial)


def test_non_finite_distance_stops_at_first_iteration():
    lat = make_lattice(horizon=2.0, steps=16, points=101)
    huge = make_driver("constant", 1, 1, {"c": 1e308})
    params = GBsdeParams(terminal=const_payoff(1.0), f=huge, g=zero_qv_driver(1, 1))
    with pytest.raises(ConvergenceError) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            solve_gbsde(params, lat)
    assert len(err.value.trace) == 1
    assert not math.isfinite(err.value.trace[0])


def test_fixed_beta_and_overflow_guard(small_lat):
    params = no_driver_params(quad_payoff())
    sol, rep = solve_gbsde(params, small_lat, beta=4.0)
    assert rep.beta == 4.0
    assert sol.y0[0] == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(InputError):
        solve_gbsde(params, small_lat, beta=1e6)


@pytest.mark.parametrize("key", ["mu", "nu"])
@pytest.mark.parametrize("weight", [1e-200, 1e200, 0.0, -1.0])
def test_penalty_weight_without_a_finite_nonzero_square_raises(small_lat, key, weight):
    # 1e-200 squares to 0 and 1e200 squares past the float range
    with pytest.raises(InputError, match=f"^{key}:"):
        solve_gbsde(no_driver_params(quad_payoff()), small_lat, **{key: weight})


def test_two_components_solve_independently(small_lat):
    t2 = TerminalFunctional(
        fn=lambda x: np.concatenate([x * x, -(x * x)], axis=-1), n=2)
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


def test_replay_checks_reject_bad_sizes(small_lat):
    payoff = make_payoff("abs", 1)
    sol = represent_martingale(payoff, small_lat)
    params = no_driver_params(payoff)
    for kwargs in ({"n_paths": 0}, {"n_paths": -4}, {"n_controls": -1},
                   {"comp": 1}, {"comp": -1}):
        with pytest.raises(InputError):
            compensator_mc_check(sol, **kwargs)
    with pytest.raises(InputError):
        residual_check(sol, params, n_controls=-3)
    # the smallest valid sizes still run: policy and curvature-corner groups,
    # and two paths per control give every standard error; with no control
    # no path is off the policy, and both off-policy fields read 0.0
    cm = compensator_mc_check(sol, n_controls=0, n_paths=2, seed=2)
    assert cm.estimates.shape == (2,) and np.all(np.isfinite(cm.standard_errors))
    rep = residual_check(sol, params, n_paths=1, n_controls=0)
    assert rep.off_policy_min_margin == rep.off_policy_max_residual == 0.0


def _abs_case():
    lat = make_lattice(steps=8, points=81)
    payoff = make_payoff("abs", 1)
    return lat, no_driver_params(payoff), represent_martingale(payoff, lat)


def _two_component_payoff():
    return TerminalFunctional(fn=lambda x: np.concatenate([x, x], -1), n=2)


def _ratio(lat, scale=1.0, **kwargs):
    theta = StepProcess(times=np.array([0.0, 0.5, 1.0]),
                        state_fns=(lambda s: scale * s[..., 0],) * 2)
    zeta = StepProcess(times=np.array([0.0, 0.5, 1.0]),
                       state_fns=(lambda s: np.ones(s.shape[:-1]),) * 2)
    return ratio_decay_report(theta, zeta, lat, **kwargs)


def _path(lat, seed=0):
    return simulate_path(lat.time, lat.box, lambda k, x: lat.box.upper, seed)


MALFORMED_CALLS = {
    "solve tol=0": lambda lat, p, sol: solve_gbsde(p, lat, tol=0.0),
    "solve tol=-1": lambda lat, p, sol: solve_gbsde(p, lat, tol=-1.0),
    "solve tol=nan": lambda lat, p, sol: solve_gbsde(p, lat, tol=math.nan),
    "solve max_iter=2.5": lambda lat, p, sol: solve_gbsde(p, lat, max_iter=2.5),
    "TimeGrid steps=2.5": lambda lat, p, sol: TimeGrid(horizon=1.0, steps=2.5),
    "compensator n_paths=1": lambda lat, p, sol: compensator_mc_check(sol, n_paths=1),
    "compensator n_paths=2.5": lambda lat, p, sol: compensator_mc_check(sol, n_paths=2.5),
    "compensator seed=-1": lambda lat, p, sol: compensator_mc_check(sol, seed=-1),
    "residual seed=-1": lambda lat, p, sol: residual_check(sol, p, seed=-1),
    "simulate_path seed=-1": lambda lat, p, sol: _path(lat, -1),
    "simulate_path seed=1.5": lambda lat, p, sol: _path(lat, 1.5),
    "simulate_path seed='x'": lambda lat, p, sol: _path(lat, "x"),
    "residual n_paths=2.5": lambda lat, p, sol: residual_check(sol, p, n_paths=2.5),
    "residual n_controls=1.5": lambda lat, p, sol: residual_check(sol, p, n_controls=1.5),
    "weighted_norms no fields": lambda lat, p, sol: weighted_norms([], lat, [1.0]),
    "weighted_norms no betas": lambda lat, p, sol: weighted_norms([sol.Y], lat, []),
    "weighted_norms beta=nan": lambda lat, p, sol: weighted_norms([sol.Y], lat, [math.nan]),
    "evaluate_field x=nan": lambda lat, p, sol: evaluate_field(lat.space, sol.Y[0],
                                                               [[math.nan]]),
    "nearest_index x=nan": lambda lat, p, sol: nearest_index(lat.space, [[0.0], [math.nan]]),
    "cauchy n=1 and n=2": lambda lat, p, sol: cauchy_sequence_check(
        [p.terminal, _two_component_payoff()], lat, 1.0),
    "apriori n=1 and n=2": lambda lat, p, sol: apriori_check(
        p, no_driver_params(_two_component_payoff()), lat),
    "ratio n_max=0": lambda lat, p, sol: _ratio(lat, n_max=0),
    "ratio n_max=-3": lambda lat, p, sol: _ratio(lat, n_max=-3),
    "ratio n_max=2.5": lambda lat, p, sol: _ratio(lat, n_max=2.5),
    "ratio n_max=True": lambda lat, p, sol: _ratio(lat, n_max=True),
    # a small theta keeps beta_n at n_max below the weight limit
    "ratio n_max past the cap": lambda lat, p, sol: _ratio(lat, 1e-6, n_max=MAX_RATIO_N + 1),
    "ratio beta=0": lambda lat, p, sol: _ratio(lat, betas=[0.0]),
    # a subnormal beta: its weights are positive, but the denominator
    # beta E[int exp(beta s) zeta^2 ds] underflows below the normal floats
    "ratio beta=5e-324": lambda lat, p, sol: _ratio(lat, betas=[5e-324]),
    "partition time=nan": lambda lat, p, sol: StepProcess(
        times=np.array([0.0, math.nan, 1.0]), state_fns=(np.sin,) * 2),
    "partition time=inf": lambda lat, p, sol: StepProcess(
        times=np.array([0.0, 0.5, math.inf]), state_fns=(np.sin,) * 2),
    "TimeGrid.index_of nan": lambda lat, p, sol: lat.time.index_of(math.nan),
    "lemma31 t=nan": lambda lat, p, sol: lemma31_bounds(
        np.zeros((lat.steps, 1, 1)), _path(lat), t=math.nan),
    "lemma31 s=inf": lambda lat, p, sol: lemma31_bounds(
        np.zeros((lat.steps, 1, 1)), _path(lat), s=math.inf),
    "lemma31 eta=nan": lambda lat, p, sol: lemma31_bounds(
        np.full((lat.steps, 1, 1), math.nan), _path(lat)),
    "lemma31 eta=1e200": lambda lat, p, sol: lemma31_bounds(
        np.full((lat.steps, 1, 1), 1e200), _path(lat)),
    "cauchy rhs overflow": lambda lat, p, sol: cauchy_sequence_check(
        [make_payoff("abs", 1), linear_payoff((100.0,))], lat, 700.0),
}


@pytest.mark.parametrize("call", MALFORMED_CALLS.values(), ids=MALFORMED_CALLS)
def test_malformed_library_arguments_raise_input_error(call):
    # a tolerance is positive and finite, sizes are integers, seeds are valid
    # for default_rng, a Monte Carlo check has two paths to estimate its
    # error from, a norm sweep has a field and a beta that is not NaN, a
    # query state, a time and an integrand are finite, compared payoffs have
    # equal component counts, a ratio report has an n_max in [1, MAX_RATIO_N]
    # and betas whose denominators are positive normal floats, and an
    # integral or a bound's right side does not overflow
    with pytest.raises(InputError):
        call(*_abs_case())


# The per-control replay that residual_check and compensator_mc_check ran
# before they batched their controls, kept as the reference: one forward
# loop and one set of suffix sums per (control, component).

def _ref_replay_component(solution, params, comp, control, n_paths, rng):
    lat = solution.lattice
    space, box, dt = lat.space, lat.box, lat.dt
    times = lat.time.times()
    m, d, steps = n_paths, lat.d, lat.steps
    x = np.zeros((m, d))
    y_path = np.empty((m, steps + 1))
    f_int = np.zeros((m, steps))
    gqv_int = np.zeros((m, steps))
    z_db = np.zeros((m, steps))
    g_term = np.zeros((m, steps))
    eta_qv = np.zeros((m, steps))
    for k in range(steps):
        y_all = evaluate_field(space, solution.Y[k], x)
        z_all = evaluate_field(space, solution.Z[k], x)
        eta_all = evaluate_field(space, solution.eta[k], x)
        y_path[:, k] = y_all[:, comp]
        idx = nearest_index(space, x)
        if control is None:
            sig2 = lat.combos[solution.policy_idx[(k,) + idx + (comp,)]]
        else:
            sig2 = np.broadcast_to(np.asarray(control(k, x, idx), dtype=float), (m, d))
        f_val = np.asarray(params.f.fn(times[k], y_all, z_all, eta_all),
                           dtype=float)[:, comp]
        g_val = np.asarray(params.g.fn(times[k], y_all, z_all, eta_all),
                           dtype=float)[:, comp, :]
        z_k = evaluate_field(space, solution.Z[k + 1], x)[:, :, comp]
        # a representation has no bracket shift (g_field None)
        shift = 0.0 if solution.g_field is None else 2.0 * solution.g_field[k + 1]
        curv_next = evaluate_field(space, solution.eta[k + 1] - shift, x)
        eta_k = curv_next[:, comp, :] + 2.0 * g_val
        signs = rng.integers(0, 2, size=(m, d)) * 2.0 - 1.0
        db = np.sqrt(sig2 * dt) * signs
        dqv = sig2 * dt
        f_int[:, k] = f_val * dt
        gqv_int[:, k] = np.sum(g_val * dqv, axis=1)
        z_db[:, k] = np.sum(z_k * db, axis=1)
        g_term[:, k] = g_corner(eta_k, box) * dt
        eta_qv[:, k] = 0.5 * np.sum(eta_k * dqv, axis=1)
        x = x + db
    y_path[:, steps] = evaluate_field(space, solution.Y[steps][..., comp], x)
    xi = params.terminal.evaluate(x)[:, comp]
    return y_path, xi, f_int, gqv_int, z_db, g_term, eta_qv


def _ref_suffix_sum(a):
    out = np.zeros((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    return out


def _ref_residual_check(solution, params, n_paths, seed, n_controls):
    lat = solution.lattice
    rng = np.random.default_rng(seed)
    S = _ref_suffix_sum
    max_resid = terminal_gap = 0.0
    for comp in range(solution.n):
        y_path, xi, f_int, gqv, z_db, g_term, eta_qv = _ref_replay_component(
            solution, params, comp, None, n_paths, rng)
        rhs = (xi[:, None] + S(f_int) + S(gqv) - S(z_db) + S(g_term) - S(eta_qv))
        resid = np.abs(y_path - rhs)
        max_resid = max(max_resid, float(resid[:, :-1].max()))
        terminal_gap = max(terminal_gap, float(resid[:, -1].max()))
    off_max = 0.0
    off_margin = np.inf
    for _ in range(n_controls):
        table = rng.uniform(lat.box.lower, lat.box.upper, size=(lat.steps, lat.d))
        for comp in range(solution.n):
            y_path, xi, f_int, gqv, z_db, g_term, eta_qv = _ref_replay_component(
                solution, params, comp, lambda k, x, idx: table[k], n_paths, rng)
            rhs_full = (xi[:, None] + S(f_int) + S(gqv) - S(z_db) + S(g_term)
                        - S(eta_qv))
            off_max = max(off_max, float(np.abs(y_path - rhs_full)[:, :-1].max()))
            rhs_free = xi[:, None] + S(f_int) + S(gqv) - S(z_db)
            off_margin = min(off_margin, float((y_path - rhs_free)[:, :-1].min()))
    return ResidualReport(max_residual=max_resid, terminal_gap=terminal_gap,
                          off_policy_max_residual=off_max,    # no control reads 0.0
                          off_policy_min_margin=off_margin if n_controls else 0.0)


def _ref_compensator_mc_check(solution, n_controls, n_paths, seed, comp):
    lat = solution.lattice
    rng = np.random.default_rng(seed)
    steps, d, m = lat.steps, lat.d, n_paths
    corners = lat.box.corners()

    def run(kind, table=None):
        x = np.zeros((m, d))
        k_total = np.zeros(m)
        for k in range(steps):
            idx = nearest_index(lat.space, x)
            eta_k = solution.eta[(k,) + idx + (comp,)]
            if kind == "policy":
                sig2 = lat.combos[solution.policy_idx[(k,) + idx + (comp,)]]
            elif kind == "eta-corner":
                sig2 = np.where(eta_k > 0.0, lat.box.upper, lat.box.lower)
            else:
                sig2 = np.broadcast_to(table[k], (m, d))
            g_val = g_corner(eta_k, lat.box)
            k_total += (g_val - 0.5 * np.sum(eta_k * sig2, axis=1)) * lat.dt
            signs = rng.integers(0, 2, size=(m, d)) * 2.0 - 1.0
            x = x + np.sqrt(sig2 * lat.dt) * signs
        est = float(np.mean(-k_total))
        return est, float(np.std(-k_total, ddof=1) / math.sqrt(m))

    runs = [run("policy"), run("eta-corner")]
    for _ in range(max(0, n_controls - 2)):
        picks = rng.integers(0, corners.shape[0], size=steps)
        runs.append(run("table", table=corners[picks]))
    estimates = np.array([r[0] for r in runs])
    ses = np.array([r[1] for r in runs])
    top = int(np.argmax(estimates))
    sup_est, sup_se = float(estimates[top]), float(ses[top])
    return CompensatorReport(sup_estimate=sup_est, sup_se=sup_se,
                             estimates=estimates, standard_errors=ses,
                             ok=abs(sup_est) <= 3.0 * sup_se + 1e-9)


def _assert_reports_equal(got, want, label):
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and bool(np.all(a == b)), (label, name, a, b)
        else:
            assert a == b, (label, name, a, b)


def _two_component_payoff():
    return TerminalFunctional(
        fn=lambda x: np.concatenate([np.abs(x), np.clip(x - 0.5, 0.0, None)], axis=-1), n=2)


def _two_component_payoff_2d():
    return TerminalFunctional(
        fn=lambda x: np.stack([np.abs(x @ np.array([1.0, -0.5])),
                               np.clip(x[..., 1] - 0.5, 0.0, None)], axis=-1), n=2)


def _replay_case(name, small_lat):
    """(solution, params) of one equivalence case."""
    if name in ("desk abs", "desk butterfly"):
        payoff = make_payoff(name.split()[1], 1)
        return represent_martingale(payoff, desk_lattice()), no_driver_params(payoff)
    if name == "call, linear-in-z dt, linear-in-y qv":
        params = GBsdeParams(
            terminal=make_payoff("call", 1),
            f=make_driver("linear-in-z", 1, 1, {"a": [0.3]}),
            g=make_driver("linear-in-y", 1, 1, {"r": -0.4}, role="qv"))
        lat = small_lat
    elif name == "butterfly, clamped-custom-affine":
        params = GBsdeParams(
            terminal=make_payoff("butterfly", 1),
            f=make_driver("clamped-custom-affine", 1, 1, {"coef_eta": 0.03}),
            g=zero_qv_driver(1, 1))
        lat = small_lat
    elif name == "2-d abs, linear-in-z dt and qv":
        params = GBsdeParams(
            terminal=make_payoff("abs", 2),
            f=make_driver("linear-in-z", 1, 2, {"a": [0.3, -0.2]}),
            g=make_driver("linear-in-z", 1, 2, {"a": [0.1, 0.2]}, role="qv"))
        lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=6, points=45,
                           grid_points=3)
    elif name == "2-d two components":
        # n = d = 2 is the only shape where Z's (d, n) and eta's (n, d)
        # trailing layouts differ, so a transposed field cannot pass; the
        # dt-driver reads eta too, which linear-in-z does not
        params = GBsdeParams(
            terminal=_two_component_payoff_2d(),
            f=make_driver("clamped-custom-affine", 2, 2,
                          {"coef_z": [0.3, -0.2], "coef_eta": [0.03, -0.01]}),
            g=make_driver("linear-in-z", 2, 2, {"a": [0.1, 0.2]}, role="qv"))
        lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=6, points=45,
                           grid_points=3)
    else:
        params = GBsdeParams(
            terminal=_two_component_payoff(),
            f=make_driver("linear-in-y", 2, 1, {"r": -0.3}),
            g=make_driver("linear-in-z", 2, 1, {"a": [0.2]}, role="qv"))
        lat = small_lat
    return solve_gbsde(params, lat)[0], params


# name, residual (n_paths, n_controls) sizes, MC (n_paths, n_controls) sizes,
# MC component
REPLAY_CASES = [
    ("desk abs", [(64, 8), (1, 1)], [(256, 64), (2, 3)], 0),
    ("desk butterfly", [(17, 5)], [(64, 8), (300, 0)], 0),
    ("call, linear-in-z dt, linear-in-y qv", [(64, 8), (300, 2), (2, 0)],
     [(64, 8), (2, 1)], 0),
    ("butterfly, clamped-custom-affine", [(64, 8), (33, 3)], [(64, 8)], 0),
    ("2-d abs, linear-in-z dt and qv", [(64, 8), (17, 5), (1, 2)],
     [(256, 64), (17, 3), (2, 0)], 0),
    ("two components", [(64, 8), (17, 5), (300, 1), (1, 0)],
     [(64, 8), (2, 5)], 1),
    ("2-d two components", [(64, 8), (17, 3), (1, 1)], [(64, 8), (2, 3)], 1),
]


@pytest.mark.parametrize("name, residual_sizes, mc_sizes, comp", REPLAY_CASES,
                         ids=[c[0] for c in REPLAY_CASES])
def test_batched_replay_matches_per_control_reference(small_lat, name, residual_sizes,
                                                      mc_sizes, comp):
    sol, params = _replay_case(name, small_lat)
    for n_paths, n_controls in residual_sizes:
        label = (name, "residual", n_paths, n_controls)
        _assert_reports_equal(
            residual_check(sol, params, n_paths=n_paths, seed=3, n_controls=n_controls),
            _ref_residual_check(sol, params, n_paths, 3, n_controls), label)
    for n_paths, n_controls in mc_sizes:
        label = (name, "mc", n_paths, n_controls)
        got = compensator_mc_check(sol, n_controls=n_controls, n_paths=n_paths,
                                   seed=3, comp=comp)
        _assert_reports_equal(got, _ref_compensator_mc_check(sol, n_controls, n_paths,
                                                             3, comp), label)
        assert got.estimates.shape == (max(2, n_controls),)


def test_replay_reads_each_field_once_per_step(small_lat, monkeypatch):
    payoff = make_payoff("abs", 1)
    sol, params = represent_martingale(payoff, small_lat), no_driver_params(payoff)
    interpolated, g_shapes = [], []

    def counting_evaluate(space, layer, x):
        interpolated.append(layer.shape)
        return evaluate_field(space, layer, x)

    def recording_g(eta, box):
        g_shapes.append(eta.shape)
        return g_corner(eta, box)

    monkeypatch.setattr(solver, "evaluate_field", counting_evaluate)
    monkeypatch.setattr(solver, "g_corner", recording_g)
    # 1 policy group + 3 controls of 64 paths share one loop
    residual_check(sol, params, n_paths=64, n_controls=3)
    assert len(interpolated) == small_lat.steps + 1
    # so do the desk replay's 9 groups: one walk, one backward pass
    interpolated.clear()
    residual_check(sol, params, n_paths=64, n_controls=8)
    assert len(interpolated) == small_lat.steps + 1
    g_shapes.clear()
    compensator_mc_check(sol, n_controls=8, n_paths=16)
    assert g_shapes == [small_lat.space.shape + (small_lat.d,)] * small_lat.steps


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


def layerwise_oracle(params, lattice):
    """Value field of the one-pass backward solve, an independent route to
    the Picard fixed point: per layer, form the child means once, then
    iterate y <- max_c [C_c + (f + g : sigma2_c) dt] on that layer alone,
    with the integrands read from y itself."""
    times = lattice.time.times()
    y = params.terminal.evaluate(lattice.states)
    layers = [y]
    for k in range(lattice.steps - 1, -1, -1):
        means = np.stack(list(lattice.child_means(y)))       # (combos, *grid, n)
        y = means.max(axis=0)
        g = np.zeros(y.shape + (lattice.d,))
        for _ in range(200):
            z, eta = extract_integrands(y[None], lattice, g_field=g[None])
            f = np.asarray(params.f.fn(times[k], y, z[0], eta[0]), dtype=float)
            g = np.asarray(params.g.fn(times[k], y, z[0], eta[0]), dtype=float)
            cost = np.stack([f + g @ s2 for s2 in lattice.combos]) * lattice.dt
            y_new = (means + cost).max(axis=0)
            gap = np.max(np.abs(y_new - y))
            y = y_new
            if gap < 1e-13:
                break
        else:
            raise AssertionError(f"layer {k}: inner iteration did not converge")
        layers.append(y)
    return np.stack(layers[::-1])


LAYERWISE_CASES = [
    # (payoff, dt driver, qv driver): every one converges under Picard
    ("quadratic", ("linear-in-y", {"r": -0.5}), None),
    ("abs", ("linear-in-z", {"a": [0.3]}), None),
    ("call", ("constant", {"c": 0.5}), ("qv-constant", {"gamma": 0.25})),
    ("quadratic", None, ("linear-in-y", {"r": 0.2})),
    ("call", None, ("linear-in-z", {"a": [0.2]})),
    ("butterfly", ("clamped-custom-affine", {"coef_eta": 0.03, "coef_y": 0.2}), None),
]


@pytest.mark.parametrize("payoff, dt_driver, qv_driver", LAYERWISE_CASES)
def test_picard_matches_layerwise_oracle(payoff, dt_driver, qv_driver):
    lat = make_lattice(steps=16, points=101)
    f = make_driver(dt_driver[0], 1, 1, dt_driver[1]) if dt_driver else zero_dt_driver(1)
    g = (make_driver(qv_driver[0], 1, 1, qv_driver[1], role="qv") if qv_driver
         else zero_qv_driver(1, 1))
    params = GBsdeParams(terminal=make_payoff(payoff, 1), f=f, g=g)
    sol, _ = solve_gbsde(params, lat)
    want = layerwise_oracle(params, lat)
    assert np.max(np.abs(sol.Y - want)) <= 1e-8
    # the package's layer solve runs this recursion with the same expressions
    assert_same_bits(solver._layer_solve(params, lat).Y, want)


def test_picard_matches_layerwise_oracle_2d():
    lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=8, points=51,
                       grid_points=3)
    params = GBsdeParams(
        terminal=make_payoff("abs", 2),
        f=make_driver("linear-in-z", 1, 2, {"a": [0.3, -0.2]}),
        g=make_driver("linear-in-z", 1, 2, {"a": [0.1, 0.2]}, role="qv"))
    sol, _ = solve_gbsde(params, lat)
    want = layerwise_oracle(params, lat)
    assert np.max(np.abs(sol.Y - want)) <= 1e-8
    assert_same_bits(solver._layer_solve(params, lat).Y, want)


@pytest.mark.parametrize("lattice_kwargs", [
    {"steps": 16, "points": 101},
    {"lower": (1.0, 1.0), "upper": (2.0, 2.0), "steps": 8, "points": 51, "grid_points": 3},
])
@pytest.mark.parametrize("payoff", ["quadratic", "butterfly"])
def test_layer_solve_keeps_the_picard_bits_without_drivers(lattice_kwargs, payoff):
    # zero drivers settle each layer in one scan, the scan of picard_step, so
    # verify-estimates keeps the Y bits that solve_gbsde gave it
    lat = make_lattice(**lattice_kwargs)
    params = no_driver_params(make_payoff(payoff, lat.d), lat.d)
    want, _ = solve_gbsde(params, lat)
    got = solver._layer_solve(params, lat)
    assert_same_bits(got.Y, want.Y)
    assert np.array_equal(got.policy_idx, want.policy_idx)
    assert got.g_field.strides == want.g_field.strides == (0,) * got.g_field.ndim


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
    assert BETA_SCAN[0] in rep.distances_by_beta
    for i in range(rep.iterations):
        step = picard_step(fields, params, small_lat)
        delta = (step.Y - fields[0], step.Z - fields[1], step.eta - fields[2])
        assert rep.distances[i] == math.sqrt(triple_distance_sq(*delta, small_lat, 0.0))
        for b, trace in rep.distances_by_beta.items():
            assert trace[i] == triple_distance_sq(*delta, small_lat, b)
        fields = (step.Y, step.Z, step.eta)


# ---------------------------------------------------------------------------
# lazy beta scan against the full scan
# ---------------------------------------------------------------------------

def full_scan_solve(params, lattice, beta=None, tol=1e-9, max_iter=60, initial=None):
    """The Picard loop that measured every BETA_SCAN weight at every
    iteration, which solve_gbsde's lazy scan replaced. Returns the solution
    and (iterations, distances, distances_by_beta, beta0, beta, factors)."""
    mu2, nu2 = default_penalties(params, lattice)
    theoretical = 5.0 * params.lipschitz / lattice.box.sigma_min_sq * (1.0 / mu2 + 1.0 / nu2)
    scan = BETA_SCAN if beta is None else (float(beta),)
    scan = tuple(b for b in scan if b * lattice.time.horizon <= MAX_EXPONENT)
    fields = (_zero_fields(lattice, params.terminal.n) if initial is None
              else tuple(np.asarray(a, dtype=float) for a in initial))
    distances, by_beta = [], {b: [] for b in scan}
    for _ in range(max_iter):
        sol = picard_step(fields, params, lattice)
        delta = (sol.Y - fields[0], sol.Z - fields[1], sol.eta - fields[2])
        sq0, *sq_scan = _triple_sq(weighted_norms(delta, lattice, (0.0,) + scan))[0]
        distances.append(math.sqrt(sq0))
        if not math.isfinite(distances[-1]):
            raise ConvergenceError("not finite", trace=distances)
        for b, sq in zip(scan, sq_scan):
            by_beta[b].append(sq)
        fields = (sol.Y, sol.Z, sol.eta)
        if distances[-1] < tol:
            break
    else:
        raise ConvergenceError("did not converge", trace=distances)

    def factors_at(b):
        sq, floor = by_beta[b], max(tol * tol, 1e-28)
        return tuple(sq[i + 1] / sq[i] for i in range(len(sq) - 1)
                     if sq[i] > floor * 100.0)

    beta0 = None
    for b in scan:
        fac = factors_at(b)
        if fac and max(fac) <= theoretical:
            beta0 = b
            break
        if not fac:
            break
    report_beta = beta0 if beta0 is not None else scan[0]
    return sol, (len(distances), tuple(distances), by_beta, beta0, report_beta,
                 factors_at(report_beta))


def affine_params(payoff, coef_y, coef_eta):
    f = make_driver("clamped-custom-affine", 1, 1,
                    {"coef_y": coef_y, "coef_eta": [coef_eta]})
    return GBsdeParams(terminal=make_payoff(payoff, 1), f=f, g=zero_qv_driver(1, 1))


def warm_start(lattice):
    """Starting fields off the zero fields: the quadratic payoff's
    representation, shifted up by 0.1."""
    rep = represent_martingale(make_payoff("quadratic", 1), lattice)
    return rep.Y + 0.1, rep.Z, rep.eta


LAZY_SCAN_CASES = {
    # beta0 = 1; 128 and 256 would fail late
    "abs, beta0 1": (affine_params("abs", 0.5, 0.02), {}, 1.0),
    "butterfly, beta0 16": (affine_params("butterfly", 0.5, 0.02), {}, 16.0),
    # 1..16 fail, 32 passes, 64..256 fail
    "quadratic, beta0 32": (affine_params("quadratic", 0.2, 0.03), {}, 32.0),
    # scan[0] fails, so the restart has to start from these fields again
    "quadratic, warm start": (affine_params("quadratic", 0.2, 0.03),
                              {"initial": warm_start}, 32.0),
    "butterfly, every beta fails": (affine_params("butterfly", 0.2, 0.03), {}, None),
    # the first iterate is the fixed point: no measurable factors
    "zero drivers": (no_driver_params(const_payoff(0.0)), {}, None),
    "explicit beta": (affine_params("quadratic", 0.2, 0.03), {"beta": 4.0}, None),
}


@pytest.mark.parametrize("case", list(LAZY_SCAN_CASES))
def test_lazy_beta_scan_matches_full_scan(small_lat, case):
    params, kwargs, want_beta0 = LAZY_SCAN_CASES[case]
    if "initial" in kwargs:
        kwargs = {**kwargs, "initial": kwargs["initial"](small_lat)}
    sol, rep = solve_gbsde(params, small_lat, **kwargs)
    ref_sol, (iterations, distances, by_beta, beta0, beta, factors) = \
        full_scan_solve(params, small_lat, **kwargs)
    assert rep.beta0_empirical == beta0 == want_beta0
    assert rep.beta == beta
    assert rep.contraction_factors == factors
    assert rep.distances == distances
    assert rep.iterations == iterations
    assert np.array_equal(sol.Y, ref_sol.Y)
    for b, trace in rep.distances_by_beta.items():
        assert trace == tuple(by_beta[b])


def test_lazy_beta_scan_keeps_the_divergence_trace(small_lat):
    params = affine_params("butterfly", 0.2, 0.03)
    with pytest.raises(ConvergenceError) as want:
        full_scan_solve(params, small_lat, max_iter=8)
    with pytest.raises(ConvergenceError) as got:
        solve_gbsde(params, small_lat, max_iter=8)
    assert got.value.trace == want.value.trace
    assert len(got.value.trace) == 8


def test_restart_costs_the_steps_of_a_rerun(small_lat, monkeypatch):
    # scan[0] fails at iteration i: rerunning the first i iterates and
    # restarting from iteration 1 both make iterations + i Picard steps
    calls = []
    original = solver.picard_step

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, "picard_step", counting)
    params, _, _ = LAZY_SCAN_CASES["quadratic, beta0 32"]
    tol = 1e-9
    _, rep = solve_gbsde(params, small_lat, tol=tol)
    trace = list(rep.distances_by_beta[BETA_SCAN[0]])
    fails_at = next(i for i in range(2, len(trace) + 1)
                    if max(solver._factors(trace[:i], tol), default=0.0)
                    > rep.theoretical_factor)
    assert 1 < fails_at < rep.iterations
    assert len(calls) == rep.iterations + fails_at


def test_passing_first_beta_measures_only_two_columns(small_lat, monkeypatch):
    asked = []

    def recording(layers, count, lattice, betas, width):
        asked.append(tuple(betas))
        return _layerwise_norms(layers, count, lattice, betas, width)

    monkeypatch.setattr(solver, "_layerwise_norms", recording)
    _, rep = solve_gbsde(affine_params("abs", 0.5, 0.02), small_lat)
    assert rep.beta0_empirical == BETA_SCAN[0]
    assert asked == [(0.0, BETA_SCAN[0])] * rep.iterations


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_in_column_groups_keeps_every_bit(small_lat, monkeypatch, dim):
    # in 1-d the beta scan restarts and measures 30 distance columns; groups
    # of one column and of three give the one-sweep solve's bits
    lat = small_lat if dim == 1 else make_lattice(
        lower=(1.0, 1.0), upper=(2.0, 2.0), steps=4, points=41, grid_points=3)
    f = make_driver("clamped-custom-affine", 1, dim, {"coef_y": 0.2, "coef_eta": [0.03] * dim})
    params = GBsdeParams(terminal=make_payoff("quadratic", dim), f=f, g=zero_qv_driver(1, dim))
    sol, rep = solve_gbsde(params, lat)
    assert rep.beta0_empirical > BETA_SCAN[0] or dim == 2
    for columns in (1, 3):
        monkeypatch.setattr(calculus, "SWEEP_BUDGET_BYTES", sweep_budget(lat, columns))
        got, got_rep = solve_gbsde(params, lat)
        assert repr(got_rep) == repr(rep), columns
        assert np.array_equal(got.Y, sol.Y) and np.array_equal(got.policy_idx, sol.policy_idx)


def test_restart_solve_peak_stays_within_two_iterates_and_the_sweep_budget(monkeypatch):
    # the beta scan restarts, so a distance sweep measures 30 columns; with
    # one-layer blocks and a budget of 3 columns they run as 10 sweeps. The
    # rest covers a layer's transients and the freed tuples that Python keeps
    # in its free lists, which tracemalloc still counts (gc.collect() empties
    # them; up to about 120 KB here). One sweep of all 30 columns reads 15.9
    # stacks.
    lat = make_lattice(steps=16, points=401)
    params = affine_params("butterfly", 1.0, 0.0)
    monkeypatch.setattr(calculus, "BLOCK_VALUES", 1)
    budget = sweep_budget(lat, 3)
    monkeypatch.setattr(calculus, "SWEEP_BUDGET_BYTES", budget)
    stack = (lat.steps + 1) * lat.states[..., 0].size * 8
    iterate = 1.25 * stack                 # Y and its int16 policy
    rest = 256 * 1024
    gc.collect()
    tracemalloc.start()
    try:
        _, rep = solve_gbsde(params, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.beta0_empirical > BETA_SCAN[0]     # scan[0] failed: the scan restarted
    assert peak <= 2 * iterate + budget + rest, f"{peak / stack:.2f} stacks"


def test_compensator_is_computed_once_on_first_read(small_lat, monkeypatch):
    calls = []
    original = solver._compensator_increments

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, "_compensator_increments", counting)
    # scan[0] fails here, so the lazy beta scan restarts its Picard steps too
    sol, rep = solve_gbsde(affine_params("quadratic", 0.2, 0.03), small_lat)
    assert rep.iterations > 1 and rep.beta0_empirical == 32.0 and calls == []
    first = sol.K_inc
    assert sol.K_inc is first and len(calls) == 1
