"""Path simulation, pathwise integrals, weighted norms, ratio diagnostics."""
import math
import tracemalloc

import numpy as np
import pytest

from gcalc import (PathBundle, StepProcess, TimeGrid, VolatilityBox,
                   exp_cell_weights, lemma31_bounds, ratio_decay_report,
                   simulate_path, weighted_norm)
from gcalc import calculus
from gcalc.calculus import (NORM_SWEEP_ARRAYS, _layerwise_norms,
                            _square_integral_expectation, weighted_norms)
from gcalc.errors import (DegenerateDenominatorError, DimensionError,
                          InputError, WeightOverflowError)
from gcalc.scenario import _sweep

from conftest import make_lattice, sweep_budget


def box2():
    return VolatilityBox(np.array([1.0, 0.5]), np.array([4.0, 2.0]))


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_simulate_path_structure():
    tg = TimeGrid(horizon=2.0, steps=16)
    path = simulate_path(tg, box2(), lambda k, x: [2.0, 1.0], seed=5)
    assert path.steps == 16
    assert path.positions.shape == (17, 2)
    assert np.all(path.positions[0] == 0.0)
    dt = tg.dt
    # every move has magnitude sqrt(sigma^2 dt) per axis
    assert np.allclose(np.abs(np.diff(path.positions, axis=0)),
                       np.sqrt(np.array([2.0, 1.0]) * dt))
    assert np.allclose(path.quad_var[-1], np.array([2.0, 1.0]) * 2.0)
    again = simulate_path(tg, box2(), lambda k, x: [2.0, 1.0], seed=5)
    assert np.array_equal(path.positions, again.positions)
    with pytest.raises(InputError):
        simulate_path(tg, box2(), lambda k, x: [5.0, 1.0], seed=5)


def test_path_bundle_validation():
    tg = TimeGrid(horizon=1.0, steps=4)
    path = simulate_path(tg, box2(), lambda k, x: [1.0, 0.5], seed=1)
    with pytest.raises(DimensionError):
        PathBundle(times=path.times, positions=path.positions[:-1],
                   quad_var=path.quad_var, control=path.control, box=box2())
    with pytest.raises(InputError):
        PathBundle(times=path.times, positions=path.positions,
                   quad_var=path.quad_var * 1.5, control=path.control, box=box2())


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def test_bracket_bounds_randomized():
    rng = np.random.default_rng(31)
    tg = TimeGrid(horizon=1.0, steps=20)
    for trial in range(25):
        box = box2()
        lo, up = box.lower, box.upper

        def ctrl(k, x):
            u = rng.uniform(0.0, 1.0, 2)
            return lo + u * (up - lo)

        path = simulate_path(tg, box, ctrl, seed=100 + trial)
        eta = rng.normal(0.0, 3.0, (20, 2, 2))
        rep = lemma31_bounds(eta, path, n=2)
        assert rep.ok_abs and rep.ok_sandwich
        # the printed constant and bound follow the stated formulas
        assert rep.k_constant == pytest.approx(math.sqrt(2.0) * 4.0)
        frob = np.sqrt(np.sum(eta ** 2, axis=(1, 2)))
        assert rep.abs_bound == pytest.approx(rep.k_constant * frob.sum() * tg.dt,
                                              rel=1e-12)
        assert np.all(rep.lower <= rep.integral + 1e-10)
        assert np.all(rep.integral <= rep.upper + 1e-10)


def test_bracket_bounds_subwindow_and_errors():
    tg = TimeGrid(horizon=1.0, steps=20)
    path = simulate_path(tg, box2(), lambda k, x: [2.0, 1.0], seed=3)
    eta = np.ones((20, 1, 2))
    rep = lemma31_bounds(eta, path, t=0.25, s=0.75)
    # constant control: integral is exactly (2 + 1) * 0.5
    assert rep.integral[0] == pytest.approx(1.5, abs=1e-12)
    assert rep.lower[0] == pytest.approx((1.0 + 0.5) * 0.5, abs=1e-12)
    assert rep.upper[0] == pytest.approx((4.0 + 2.0) * 0.5, abs=1e-12)
    with pytest.raises(InputError):
        lemma31_bounds(eta, path, t=0.75, s=0.25)
    with pytest.raises(InputError):
        lemma31_bounds(eta, path, t=0.33)   # off the grid


# ---------------------------------------------------------------------------
# exponential weights and weighted norms
# ---------------------------------------------------------------------------

def test_exp_cell_weights():
    tg = TimeGrid(horizon=1.0, steps=10)
    assert np.allclose(exp_cell_weights(tg, 0.0), np.full(10, 0.1))
    beta = 3.0
    w = exp_cell_weights(tg, beta)
    assert w.sum() == pytest.approx((math.exp(beta) - 1.0) / beta, rel=1e-14)
    t = tg.times()
    assert np.allclose(w, (np.exp(beta * t[1:]) - np.exp(beta * t[:-1])) / beta)
    with pytest.raises(WeightOverflowError):
        exp_cell_weights(tg, 800.0)
    for beta in (-1.0, math.nan):
        with pytest.raises(InputError):
            exp_cell_weights(tg, beta)


def test_weighted_norm_constant_field(small_lat):
    c = 1.7
    field = np.full((41, 161, 1), c)
    beta = 2.0
    got = weighted_norm(field, small_lat, beta)
    want = math.sqrt(c * c * (math.exp(beta) - 1.0) / beta)
    assert got == pytest.approx(want, rel=1e-12)
    # beta = 0 reduces to the plain time integral
    assert weighted_norm(field, small_lat, 0.0) == pytest.approx(abs(c), rel=1e-12)
    # tail axes and no-tail layouts agree
    assert weighted_norm(field[..., 0], small_lat, beta) == pytest.approx(got)


def test_weighted_norm_state_field_degenerate_box():
    lat = make_lattice(lower=(2.0,), upper=(2.0,))
    field = lat.states[None, ..., 0] * np.ones((41, 1))
    beta = 1.5
    w = exp_cell_weights(lat.time, beta)
    t = lat.time.times()
    want_sq = float(np.sum(w * 2.0 * t[:-1]))   # E[x_k^2] = sigma^2 t_k exactly
    assert weighted_norm(field, lat, beta) == pytest.approx(math.sqrt(want_sq),
                                                            rel=1e-9)


def test_weighted_norm_layout_and_params(small_lat):
    with pytest.raises(DimensionError):
        weighted_norm(np.zeros((40, 161)), small_lat, 1.0)
    with pytest.raises(WeightOverflowError):
        weighted_norm(np.zeros((41, 161)), small_lat, 800.0)


def reference_weighted_norm(field, lattice, beta):
    """The one-sweep-per-norm implementation that weighted_norms replaced."""
    tail_axes = tuple(range(1 + lattice.d, field.ndim))
    sq = np.sum(field * field, axis=tail_axes) if tail_axes else field * field
    weights = exp_cell_weights(lattice.time, beta)

    def step_cost(k, _c):
        return (weights[k] * sq[k])[..., None]

    zero = np.zeros(lattice.space.shape + (1,))
    total = _sweep(lattice, zero, step_cost)[lattice.origin_index]
    return float(math.sqrt(max(total[0], 0.0)))


@pytest.mark.parametrize("dim", [1, 2])
def test_weighted_norms_equal_per_entry_norms(small_lat, dim):
    lat = small_lat if dim == 1 else make_lattice(
        lower=(1.0, 1.0), upper=(2.0, 2.0), steps=4, points=41, grid_points=3)
    rng = np.random.default_rng(5)
    layout = (lat.steps + 1,) + lat.space.shape
    fields = [rng.normal(size=layout),                    # no trailing axis
              rng.normal(size=layout + (2,)),             # rank-1 tail
              rng.normal(size=layout + (lat.d, 2)),       # rank-2 tail
              np.zeros(layout + (1,))]
    betas = (0.0, 1.5, 4.0, 64.0)
    got = weighted_norms(fields, lat, betas)
    want = np.array([[reference_weighted_norm(f, lat, b) for b in betas]
                     for f in fields])
    assert got.shape == (len(fields), len(betas))
    assert np.array_equal(got, want)
    assert weighted_norm(fields[2], lat, 4.0) == want[2, 2]


def test_weighted_norms_layout_and_overflow(small_lat):
    good = np.zeros((41, 161))
    with pytest.raises(DimensionError):
        weighted_norms([good, np.zeros((40, 161))], small_lat, (1.0,))
    with pytest.raises(WeightOverflowError):
        weighted_norms([good], small_lat, (1.0, 800.0))


@pytest.mark.parametrize("dim", [1, 2])
def test_weighted_norms_in_column_groups_keep_every_bit(small_lat, monkeypatch, dim):
    # 4 fields x 4 betas: groups of single columns, of beta slices, of one
    # row and of two rows give the unsplit sweep's bits
    lat = small_lat if dim == 1 else make_lattice(
        lower=(1.0, 1.0), upper=(2.0, 2.0), steps=4, points=41, grid_points=3)
    rng = np.random.default_rng(11)
    layout = (lat.steps + 1,) + lat.space.shape
    fields = [rng.normal(size=layout), rng.normal(size=layout + (2,)),
              rng.normal(size=layout + (lat.d, 2)), rng.normal(size=layout + (1,))]
    betas = (0.0, 1.5, 4.0, 64.0)
    whole = weighted_norms(fields, lat, betas)
    sweeps = []
    original = calculus._sweep

    def counting(*args, **kwargs):
        sweeps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(calculus, "_sweep", counting)
    for columns, groups in ((1, 16), (3, 8), (4, 4), (9, 2)):
        monkeypatch.setattr(calculus, "SWEEP_BUDGET_BYTES", sweep_budget(lat, columns))
        sweeps.clear()
        assert np.array_equal(weighted_norms(fields, lat, betas), whole), columns
        assert len(sweeps) == groups


@pytest.mark.parametrize("lattice_args", [
    {"points": 401},
    {"lower": (1.0, 1.0), "upper": (2.0, 2.0), "points": 41},
    {"lower": (0.5, 0.5), "upper": (4.0, 4.0), "points": 81, "steps": 2, "grid_points": 9},
])
def test_norm_sweep_arrays_per_column_stay_within_the_rule(lattice_args):
    # tracemalloc peak of a norm sweep at 2 and 12 betas: the arrays it adds
    # per value column, in units of one layer of float64 nodes; a 2-d lattice
    # keeping 7 levels per axis must not hold more than one keeping 2
    lat = make_lattice(**{"steps": 4, **lattice_args})
    nodes = lat.states[..., 0].size
    count = 5

    def layers(ks):
        return [np.zeros((len(range(*ks.indices(lat.steps + 1))),) + lat.space.shape)
                for _ in range(count)]

    peaks = []
    for n_betas in (2, 12):
        betas = [0.1 * (i + 1) for i in range(n_betas)]
        tracemalloc.start()
        try:
            _layerwise_norms(layers, count, lat, betas, count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_column = (peaks[1] - peaks[0]) / (count * 10 * 8 * nodes)
    assert per_column <= NORM_SWEEP_ARRAYS, f"{per_column:.2f} arrays per column"


# ---------------------------------------------------------------------------
# ratio decay of weighted norms
# ---------------------------------------------------------------------------

def test_step_process_validation():
    with pytest.raises(InputError):
        StepProcess(times=np.array([0.5, 0.5]), state_fns=(lambda s: s,))
    with pytest.raises(DimensionError):
        StepProcess(times=np.array([0.0, 0.5, 1.0]), state_fns=(lambda s: s,))


def test_ratio_decay_identical_processes(small_lat):
    proc = StepProcess(times=np.array([0.5, 1.0]),
                       state_fns=(lambda s: s[..., 0],))
    rep = ratio_decay_report(proc, proc, small_lat, betas=(1.0,), n_max=8)
    # theta == zeta makes each ratio exactly 1 / beta_n
    assert np.allclose(rep.b_n, 1.0 / rep.beta_n, rtol=1e-12)
    assert np.all(rep.b_n <= 1.0 / rep.n_values + 1e-12)
    assert rep.beta_rows[0]["ratio"] == pytest.approx(
        rep.beta_rows[0]["numerator"] / rep.beta_rows[0]["denominator"])


def test_ratio_decay_exact_two_process_case(small_lat):
    theta = StepProcess(times=np.array([0.5, 1.0]),
                        state_fns=(lambda s: s[..., 0],))
    zeta = StepProcess(times=np.array([0.5, 1.0]),
                       state_fns=(lambda s: np.ones(s.shape[:-1]),))
    rep = ratio_decay_report(theta, zeta, small_lat, n_max=20)
    assert rep.c_max == pytest.approx(2.0, abs=1e-9)   # top second moment at 0.5
    assert rep.d_min == pytest.approx(1.0, abs=1e-12)  # unit denominator
    assert np.allclose(rep.beta_n, 2.0 * rep.n_values, rtol=1e-9)
    # closed form: ratio_n = c_max / beta_n = 1 / n on the nose
    assert np.allclose(rep.b_n, 1.0 / rep.n_values, rtol=1e-8)
    assert rep.window == (0.5, 1.0)


def test_ratio_decay_rejections(small_lat):
    at_origin = StepProcess(times=np.array([0.0, 1.0]),
                            state_fns=(lambda s: s[..., 0],))
    ok = StepProcess(times=np.array([0.0, 1.0]),
                     state_fns=(lambda s: np.ones(s.shape[:-1]),))
    with pytest.raises(DegenerateDenominatorError):
        ratio_decay_report(ok, at_origin, small_lat)
    outside = StepProcess(times=np.array([0.0, 2.0]),
                          state_fns=(lambda s: np.ones(s.shape[:-1]),))
    with pytest.raises(InputError):
        ratio_decay_report(outside, ok, small_lat)


def test_square_integral_overflow_guard(small_lat):
    proc = StepProcess(times=np.array([0.0, 1.0]),
                       state_fns=(lambda s: np.ones(s.shape[:-1]),))
    with pytest.raises(WeightOverflowError):
        _square_integral_expectation(proc, small_lat, 801.0)
