"""Lattice construction, backward maximization, and forward simulation."""
import math
import os
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import (SpaceGrid, TerminalFunctional, TimeGrid, VolatilityBox,
                   build_lattice, capacity_estimate,
                   conditional_expectation_field, control_monte_carlo,
                   evaluate_field, nearest_index, sublinear_expectation)
from gcalc.errors import DimensionError, GridResolutionError, InputError
from gcalc.gtensor import DiagTensor, g_diag
from gcalc.harness import _running_max_dp
from gcalc.scenario import _axis_allocation, _expectation_monitored, _sweep

from conftest import const_payoff, linear_payoff, make_lattice, quad_payoff


# ---------------------------------------------------------------------------
# grids and validation
# ---------------------------------------------------------------------------

def test_time_grid():
    tg = TimeGrid(horizon=1.0, steps=4)
    assert tg.dt == 0.25
    assert np.allclose(tg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert tg.index_of(0.5) == 2
    with pytest.raises(InputError):
        tg.index_of(0.3)
    with pytest.raises(InputError):
        TimeGrid(horizon=0.0, steps=4)
    with pytest.raises(InputError):
        TimeGrid(horizon=1.0, steps=401)


def test_space_grid_validation():
    box = VolatilityBox(np.array([1.0]), np.array([4.0]))
    with pytest.raises(InputError):
        SpaceGrid.build(box, 1.0, points_per_axis=160)     # even
    with pytest.raises(InputError):
        SpaceGrid.build(box, 1.0, points_per_axis=1027)    # over the cap
    with pytest.raises(InputError):
        SpaceGrid.build(box, 1.0, points_per_axis=161, span_factor=4.0)
    with pytest.raises(DimensionError):
        SpaceGrid.build(box, 1.0, points_per_axis=(161, 161))
    grid = SpaceGrid.build(box, 1.0, points_per_axis=161)
    assert grid.shape == (161,)
    assert grid.axes[0][-1] == pytest.approx(6.0 * 2.0)    # span * sigma_max
    assert grid.origin_index == (80,)
    assert grid.axes[0][80] == 0.0
    assert grid.states().shape == (161, 1)


def test_resolution_guard():
    # h = 0.12 exceeds the smallest admissible jump sqrt(1 * 1/100) = 0.1
    with pytest.raises(GridResolutionError):
        make_lattice(steps=100, points=201)
    make_lattice(steps=100, points=241)  # fine once the grid is refined


def test_terminal_functional_validation(small_lat):
    with pytest.raises(InputError):
        TerminalFunctional(fn=lambda x: x, lipschitz=-1.0)
    with pytest.raises(InputError):
        TerminalFunctional(fn=lambda x: x, lipschitz=1.0, n=3)
    bad_shape = TerminalFunctional(fn=lambda x: x[..., 0], lipschitz=1.0)
    with pytest.raises(DimensionError):
        bad_shape.evaluate(np.zeros((5, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        non_finite = TerminalFunctional(
            fn=lambda x, v=bad: np.full(x.shape[:-1] + (1,), v), lipschitz=0.0)
        with pytest.raises(InputError):
            non_finite.evaluate(np.zeros((5, 1)))
    # declared slope is half the true one -> the sampler must notice
    liar = TerminalFunctional(fn=lambda x: 2.0 * x, lipschitz=1.0)
    with pytest.raises(InputError):
        liar.spot_check_lipschitz(small_lat.space, np.random.default_rng(3))


# ---------------------------------------------------------------------------
# branch allocation
# ---------------------------------------------------------------------------

@given(st.floats(min_value=1e-3, max_value=0.999))
@settings(max_examples=200, deadline=None)
def test_axis_allocation_matches_second_moment(ratio):
    h = 0.125
    pairs = _axis_allocation(ratio * h, h)
    assert len(pairs) == 2
    (m, w_lo), (m1, w_hi) = pairs
    assert m1 == m + 1
    assert 0.0 <= w_lo <= 1.0 and 0.0 <= w_hi <= 1.0
    assert w_lo + w_hi == pytest.approx(1.0, abs=1e-14)
    second = w_lo * (m * h) ** 2 + w_hi * ((m + 1) * h) ** 2
    assert second == pytest.approx((ratio * h) ** 2, rel=1e-12)


def test_axis_allocation_grid_aligned():
    (m, w_lo), (_, w_hi) = _axis_allocation(0.5, 0.25)
    assert (m, w_lo, w_hi) == (2, 1.0, 0.0)


# ---------------------------------------------------------------------------
# worst-case expectations: closed-form anchors
# ---------------------------------------------------------------------------

def test_second_moment_anchors(small_lat):
    up = sublinear_expectation(small_lat, quad_payoff())[0]
    lo = -sublinear_expectation(small_lat, quad_payoff(sign=-1.0))[0]
    assert up == pytest.approx(4.0, abs=1e-9)    # sigma_max^2 * T
    assert lo == pytest.approx(1.0, abs=1e-9)    # sigma_min^2 * T


def test_single_step_matches_worst_case_form():
    lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 3.0), steps=1, points=25)
    a = np.array([2.0, -3.0])
    payoff = TerminalFunctional(
        fn=lambda x: np.sum(a * x * x, axis=-1)[..., None], lipschitz=200.0)
    got = sublinear_expectation(lat, payoff)[0]
    want = 2.0 * g_diag(DiagTensor(a[None, :]), lat.box)[0] * lat.dt
    assert got == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(2.0 * 2.0 - 3.0 * 1.0)


def test_martingale_property(small_lat):
    assert sublinear_expectation(small_lat, linear_payoff())[0] == \
        pytest.approx(0.0, abs=1e-9)


def test_cash_invariance_and_sublinearity(small_lat):
    absf = TerminalFunctional(fn=lambda x: np.abs(x[..., 0])[..., None],
                              lipschitz=1.0)
    shifted = TerminalFunctional(
        fn=lambda x: np.abs(x[..., 0])[..., None] + 2.5, lipschitz=1.0)
    base = sublinear_expectation(small_lat, absf)[0]
    assert sublinear_expectation(small_lat, shifted)[0] == \
        pytest.approx(base + 2.5, abs=1e-12)
    combo = TerminalFunctional(
        fn=lambda x: (np.abs(x[..., 0]) + x[..., 0])[..., None], lipschitz=2.0)
    lin = sublinear_expectation(small_lat, linear_payoff())[0]
    assert sublinear_expectation(small_lat, combo)[0] <= base + lin + 1e-9


def test_absolute_value_expectation(small_lat):
    # kinked payoff: worst case is constant top volatility
    absf = TerminalFunctional(fn=lambda x: np.abs(x[..., 0])[..., None],
                              lipschitz=1.0)
    got = sublinear_expectation(small_lat, absf)[0]
    assert got == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=0.01)


def test_monitored_increment_and_record(small_lat):
    inc = TerminalFunctional(
        fn=lambda u, x: ((x[..., 0] - u[..., 0]) ** 2)[..., None],
        lipschitz=240.0, monitor_time=0.5)
    rec = TerminalFunctional(fn=lambda u, x: (u[..., 0] ** 2)[..., None],
                             lipschitz=120.0, monitor_time=0.5)
    assert sublinear_expectation(small_lat, inc)[0] == pytest.approx(2.0, abs=1e-9)
    assert sublinear_expectation(small_lat, rec)[0] == pytest.approx(2.0, abs=1e-9)


def test_monitor_restrictions(small_lat, small_lat_2d):
    mon = TerminalFunctional(fn=lambda u, x: (u[..., 0] * x[..., 0])[..., None],
                             lipschitz=500.0, monitor_time=0.5)
    with pytest.raises(InputError):
        conditional_expectation_field(small_lat, mon)
    with pytest.raises(InputError):
        sublinear_expectation(small_lat_2d, mon)     # d = 2 unsupported
    for bad_time in (0.0, 1.0, 0.333):
        bad = TerminalFunctional(
            fn=lambda u, x: (u[..., 0] ** 2)[..., None],
            lipschitz=120.0, monitor_time=bad_time)
        with pytest.raises(InputError):
            sublinear_expectation(small_lat, bad)


def test_running_cost_shifts_by_total_time(small_lat):
    field = conditional_expectation_field(
        small_lat, quad_payoff(),
        running_cost=lambda k, states, sig2: np.full(states.shape[:-1] + (1,), 3.0))
    assert field.value_at_origin()[0] == pytest.approx(4.0 + 3.0 * 1.0, abs=1e-9)


def test_policy_tie_break_is_lowest_combo(small_lat, small_lat_2d):
    # an identically-zero payoff keeps every candidate bitwise equal, so the
    # scan must keep the first (lexicographically smallest) covariance
    field = conditional_expectation_field(small_lat, const_payoff(0.0))
    assert np.all(field.policy_idx == 0)
    assert np.all(field.values == 0.0)
    assert field.policy_sigma2(0).shape == (161, 1, 1)
    assert np.all(field.policy_sigma2(0) == 1.0)
    field = conditional_expectation_field(small_lat_2d, const_payoff(0.0))
    assert np.all(field.policy_idx == 0)
    assert np.all(field.values == 0.0)


def test_field_matches_expectation_and_layers(small_lat):
    field = conditional_expectation_field(small_lat, quad_payoff())
    assert field.values.shape == (41, 161, 1)
    assert field.n == 1
    assert field.value_at_origin()[0] == pytest.approx(
        sublinear_expectation(small_lat, quad_payoff())[0], abs=1e-12)
    # interior policy for convex payoff: top volatility
    mid = slice(40, 121)
    assert np.all(field.policy_sigma2(0)[mid] == 4.0)


def test_two_dim_anchor(small_lat_2d):
    val = sublinear_expectation(small_lat_2d, quad_payoff())[0]
    assert val == pytest.approx(2.0 * 2.0 * 1.0, abs=1e-8)   # sum_i sbar_i^2 T


# ---------------------------------------------------------------------------
# separable transition operator against the per-combo stencil it replaced
# ---------------------------------------------------------------------------

def stencil_terms(lattice, combo_index):
    """(per-axis clamped child indices, weight) for each of the 4^d branch
    picks of one covariance: up/down sign patterns in product order, then the
    two bracketing nodes per axis."""
    sigma2 = lattice.combos[combo_index]
    per_axis = []
    for a in range(lattice.d):
        up = _axis_allocation(math.sqrt(sigma2[a] * lattice.dt), lattice.space.spacing[a])
        per_axis.append((up, [(-off, w) for off, w in up]))
    terms = []
    for signs in product((0, 1), repeat=lattice.d):
        for picks in product(*(per_axis[a][s] for a, s in enumerate(signs))):
            weight = 0.5 ** lattice.d
            idx = []
            for a, (off, w) in enumerate(picks):
                weight *= w
                p = lattice.space.shape[a]
                idx.append(np.clip(np.arange(p) + off, 0, p - 1))
            terms.append((tuple(idx), weight))
    return terms


def stencil_child_mean(lattice, values, combo_index):
    out = None
    for idx, weight in stencil_terms(lattice, combo_index):
        if weight == 0.0:
            continue
        if lattice.d == 1:
            gathered = values[idx[0]]
        else:
            gathered = values[idx[0][:, None], idx[1][None, :]]
        out = weight * gathered if out is None else out + weight * gathered
    return out


def stencil_sweep(lattice, terminal_values, step_cost=None, start_layer=None):
    """Backward scan over gathered stencil child means; strict improvement
    keeps the first covariance on ties."""
    n_layers = lattice.steps if start_layer is None else start_layer
    values = terminal_values
    layers, policy = [values], []
    for k in range(n_layers - 1, -1, -1):
        best = best_idx = None
        for c in range(lattice.combos.shape[0]):
            cand = stencil_child_mean(lattice, values, c)
            if step_cost is not None:
                cand = cand + step_cost(k, c)
            if best is None:
                best, best_idx = cand, np.zeros(cand.shape, dtype=np.int16)
            else:
                improved = cand > best
                best = np.where(improved, cand, best)
                best_idx = np.where(improved, np.int16(c), best_idx)
        values = best
        layers.append(values)
        policy.append(best_idx)
    return np.stack(layers[::-1]), np.stack(policy[::-1])


OPERATOR_CASES = [
    # (lower, upper, steps, points, grid_points)
    ((1.0,), (4.0,), 8, 69, 2),
    ((1.0,), (4.0,), 8, 81, 3),
    ((1.0,), (4.0,), 16, 97, 5),     # sigma^2 = 1 and 4 land on nodes: zero weights
    ((1.0, 1.0), (2.0, 2.0), 4, 35, 2),
    ((1.0, 1.0), (2.0, 3.0), 4, (45, 53), 3),
    ((1.0, 1.0), (2.0, 2.0), 4, (35, 41), 5),
]


@pytest.mark.parametrize("lower,upper,steps,points,grid_points", OPERATOR_CASES)
def test_separable_operator_matches_stencil(lower, upper, steps, points, grid_points):
    lat = make_lattice(lower=lower, upper=upper, steps=steps, points=points,
                       grid_points=grid_points)
    rng = np.random.default_rng(len(lower) * 100 + grid_points)
    nc = lat.combos.shape[0]
    for tail in ((), (2,), (2, 3)):
        terminal = rng.standard_normal(lat.space.shape + tail)
        cost = 0.1 * rng.standard_normal((steps, nc) + lat.space.shape + tail)
        for step_cost, start in ((None, None), (lambda k, c: cost[k, c], None),
                                 (lambda k, c: cost[k, c], steps // 2)):
            want_v, want_p = stencil_sweep(lat, terminal, step_cost, start)
            got_v, got_p = _sweep(lat, terminal, step_cost, store=True, start_layer=start)
            plain = _sweep(lat, terminal, step_cost, start_layer=start)
            assert np.array_equal(plain, got_v[0])
            if lat.d == 1:
                assert np.array_equal(got_v, want_v)
                assert np.array_equal(got_p, want_p)
            else:
                assert np.max(np.abs(got_v - want_v)) <= 1e-12 * np.max(np.abs(want_v))
            # the policy is the first maximizer of the operator's own candidates
            for k in range(got_p.shape[0]):
                cands = np.stack(list(lat.child_means(got_v[k + 1])))
                if step_cost is not None:
                    cands = cands + np.stack([step_cost(k, c) for c in range(nc)])
                assert np.array_equal(got_p[k], np.argmax(cands, axis=0))
        for c in range(nc):
            got = lat.child_mean(terminal, c)
            want = stencil_child_mean(lat, terminal, c)
            if lat.d == 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def stencil_monitored(lattice, terminal):
    """Monitored expectation with the stencil applied along the current-state axis."""
    k_mon = lattice.time.index_of(terminal.monitor_time)
    axis = lattice.space.axes[0]
    p = axis.shape[0]
    recorded = np.broadcast_to(axis[:, None, None], (p, p, 1))
    current = np.broadcast_to(axis[None, :, None], (p, p, 1))
    values = terminal.evaluate(current, recorded=recorded)
    for k in range(lattice.steps - 1, k_mon - 1, -1):
        best = None
        for c in range(lattice.combos.shape[0]):
            cand = None
            for idx, weight in stencil_terms(lattice, c):
                part = weight * values[:, idx[0], :]
                cand = part if cand is None else cand + part
            best = cand if best is None else np.maximum(best, cand)
        values = best
    diag = values[np.arange(p), np.arange(p), :]
    return stencil_sweep(lattice, diag, start_layer=k_mon)[0][0]


def stencil_running_max_dp(phi, lattice, levels=257):
    """Running-maximum recursion gathering children through the stencil."""
    steps = lattice.steps
    grid = np.unique(np.quantile(phi, np.linspace(0.0, 1.0, levels)))
    grid[-1] = phi.max()
    m = grid.shape[0]
    lev = np.minimum(np.searchsorted(grid, phi, side="left"), m - 1)
    p = lattice.space.shape[0]
    values = np.maximum(grid[None, :], phi[steps][:, None])
    level_ids = np.arange(m)[None, :]
    for k in range(steps - 1, -1, -1):
        best = None
        for c in range(lattice.combos.shape[0]):
            acc = np.zeros((p, m))
            for idx, w in stencil_terms(lattice, c):
                child_x = idx[0]
                j = np.maximum(level_ids, lev[k + 1][child_x][:, None])
                acc += w * values[child_x[:, None], j]
            best = acc if best is None else np.maximum(best, acc)
        values = np.maximum(best, np.maximum(grid[None, :], phi[k][:, None]))
    return float(values[lattice.origin_index[0], lev[0][lattice.origin_index[0]]])


@pytest.mark.parametrize("steps,points,grid_points", [(8, 81, 3), (16, 97, 5)])
def test_monitored_and_running_max_match_stencil(steps, points, grid_points):
    lat = make_lattice(steps=steps, points=points, grid_points=grid_points)
    for fn in (lambda u, x: np.abs(x - 0.5 * u), lambda u, x: np.maximum(u, x) ** 2):
        mon = TerminalFunctional(fn=fn, lipschitz=1e3, monitor_time=0.5)
        assert np.array_equal(_expectation_monitored(lat, mon), stencil_monitored(lat, mon))
    rng = np.random.default_rng(grid_points)
    phi = rng.uniform(0.0, 2.0, (steps + 1,) + lat.space.shape)
    assert _running_max_dp(phi, lat) == stencil_running_max_dp(phi, lat)
    assert _running_max_dp(phi, lat, levels=17) == stencil_running_max_dp(phi, lat, levels=17)


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------

def test_capacity_basics(small_lat):
    sure = TerminalFunctional(
        fn=lambda x: np.ones(x.shape[:-1] + (1,)), lipschitz=0.0)
    assert capacity_estimate(small_lat, sure) == 1.0
    lvl1 = TerminalFunctional(
        fn=lambda x: (x[..., 0] >= 1.0).astype(float)[..., None], lipschitz=0.0)
    lvl2 = TerminalFunctional(
        fn=lambda x: (x[..., 0] >= 2.0).astype(float)[..., None], lipschitz=0.0)
    c1, c2 = capacity_estimate(small_lat, lvl1), capacity_estimate(small_lat, lvl2)
    assert 0.0 <= c2 <= c1 <= 1.0
    assert c1 == pytest.approx(0.4025, abs=5e-3)
    with pytest.raises(InputError):
        capacity_estimate(small_lat, quad_payoff())          # not an indicator


# ---------------------------------------------------------------------------
# controlled Monte Carlo
# ---------------------------------------------------------------------------

def test_control_mc_reproducible_and_thread_invariant(small_lat):
    ctrl = lambda k, x: np.where(x > 0.0, 4.0, 1.0)
    est1, se1 = control_monte_carlo(small_lat, quad_payoff(), ctrl, 1500, seed=42)
    est2, _ = control_monte_carlo(small_lat, quad_payoff(), ctrl, 1500, seed=42)
    assert np.array_equal(est1, est2)
    old = os.environ.get("GCALC_THREADS")
    os.environ["GCALC_THREADS"] = "4"
    try:
        est3, _ = control_monte_carlo(small_lat, quad_payoff(), ctrl, 1500, seed=42)
    finally:
        if old is None:
            os.environ.pop("GCALC_THREADS", None)
        else:
            os.environ["GCALC_THREADS"] = old
    assert np.array_equal(est1, est3)
    assert np.all(se1 > 0.0)
    est4, _ = control_monte_carlo(small_lat, quad_payoff(), ctrl, 1500, seed=43)
    assert not np.array_equal(est1, est4)


def test_control_mc_bounds_and_errors(small_lat):
    # any admissible control is dominated by the worst-case expectation
    top = sublinear_expectation(small_lat, quad_payoff())[0]
    est, se = control_monte_carlo(small_lat, quad_payoff(),
                                  lambda k, x: 2.5, 4000, seed=7)
    assert est[0] <= top + 3.0 * se[0]
    with pytest.raises(InputError):
        control_monte_carlo(small_lat, quad_payoff(), lambda k, x: 5.0, 10, seed=1)
    with pytest.raises(InputError):
        control_monte_carlo(small_lat, quad_payoff(), lambda k, x: 2.0, 0, seed=1)


def test_control_mc_constant_top_hits_anchor(small_lat):
    est, se = control_monte_carlo(small_lat, quad_payoff(),
                                  lambda k, x: 4.0, 4000, seed=11)
    assert abs(est[0] - 4.0) <= 4.0 * se[0] + 1e-9


# ---------------------------------------------------------------------------
# field evaluation off the grid
# ---------------------------------------------------------------------------

def test_evaluate_field_quadratic_exact(small_lat):
    layer = (small_lat.states[..., 0] ** 2)[..., None]
    xs = np.array([[0.317], [-1.234], [2.0], [11.9], [-12.0]])
    got = evaluate_field(small_lat.space, layer, xs)
    assert np.allclose(got[:, 0], xs[:, 0] ** 2, atol=1e-9)


def test_evaluate_field_clamps_far_outside(small_lat):
    layer = (small_lat.states[..., 0] ** 2)[..., None]
    edge = evaluate_field(small_lat.space, layer, np.array([[12.0]]))[0, 0]
    outside = evaluate_field(small_lat.space, layer, np.array([[500.0]]))[0, 0]
    # queries beyond the grid are pinned to the boundary value
    assert outside == pytest.approx(edge, abs=1e-9)
    assert outside == 144.0


def test_nearest_index(small_lat):
    assert nearest_index(small_lat.space, np.array([0.0])) == (80,)
    h = small_lat.space.spacing[0]
    assert nearest_index(small_lat.space, np.array([0.4 * h])) == (80,)
    assert nearest_index(small_lat.space, np.array([0.6 * h])) == (81,)
    assert nearest_index(small_lat.space, np.array([1e6])) == (160,)


def test_evaluate_field_2d(small_lat_2d):
    states = small_lat_2d.states
    layer = (states[..., 0] ** 2 + 0.5 * states[..., 1])[..., None]
    xs = np.array([[0.2, -0.3], [1.1, 0.7]])
    got = evaluate_field(small_lat_2d.space, layer, xs)
    want = xs[:, 0] ** 2 + 0.5 * xs[:, 1]
    assert np.allclose(got[:, 0], want, atol=1e-9)
