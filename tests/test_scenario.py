"""Lattice construction, backward maximization, and forward simulation."""
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import (SpaceGrid, TerminalFunctional, TimeGrid, VolatilityBox,
                   build_lattice, conditional_expectation_field,
                   evaluate_field, nearest_index, sublinear_expectation)
from gcalc.errors import DimensionError, GridResolutionError, InputError
from gcalc.gtensor import DiagTensor, g_diag
from gcalc.calculus import (StepProcess, _square_integral_expectation,
                            exp_cell_weights, simulate_path, weighted_norms)
from gcalc.scenario import _axis_allocation, _sweep

from conftest import (const_payoff, desk_lattice, linear_payoff, make_lattice,
                      quad_payoff)


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


def test_terminal_functional_validation():
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


def test_policy_tie_break_is_lowest_combo(small_lat, small_lat_2d):
    # an identically-zero payoff keeps every candidate bitwise equal, so the
    # scan must keep the first (lexicographically smallest) covariance
    field = conditional_expectation_field(small_lat, const_payoff(0.0))
    assert np.all(field.policy_idx == 0)
    assert np.all(field.values == 0.0)
    assert small_lat.combos[field.policy_idx[0]].shape == (161, 1, 1)
    assert np.all(small_lat.combos[field.policy_idx[0]] == 1.0)
    field = conditional_expectation_field(small_lat_2d, const_payoff(0.0))
    assert np.all(field.policy_idx == 0)
    assert np.all(field.values == 0.0)


def test_field_matches_expectation_and_layers(small_lat):
    field = conditional_expectation_field(small_lat, quad_payoff())
    assert field.values.shape == (41, 161, 1)
    assert field.values.shape[-1] == 1
    assert field.values[(0,) + small_lat.origin_index][0] == pytest.approx(
        sublinear_expectation(small_lat, quad_payoff())[0], abs=1e-12)
    # interior policy for convex payoff: top volatility
    mid = slice(40, 121)
    assert np.all(small_lat.combos[field.policy_idx[0]][mid] == 4.0)


def test_two_dim_anchor(small_lat_2d):
    val = sublinear_expectation(small_lat_2d, quad_payoff())[0]
    assert val == pytest.approx(2.0 * 2.0 * 1.0, abs=1e-8)   # sum_i sbar_i^2 T


# ---------------------------------------------------------------------------
# separable transition operator against the per-combo stencil it replaced
# ---------------------------------------------------------------------------

def stencil_terms(lattice, sigma2):
    """(per-axis clamped child indices, weight) for each of the 4^d branch
    picks of one covariance diagonal: up/down sign patterns in product order,
    then the two bracketing nodes per axis."""
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


def stencil_child_mean(lattice, values, sigma2):
    out = None
    for idx, weight in stencil_terms(lattice, sigma2):
        if weight == 0.0:
            continue
        if lattice.d == 1:
            gathered = values[idx[0]]
        else:
            gathered = values[idx[0][:, None], idx[1][None, :]]
        out = weight * gathered if out is None else out + weight * gathered
    return out


def stencil_sweep(lattice, terminal_values, step_cost=None, start_layer=None,
                  combos=None):
    """Backward scan over gathered stencil child means of every row of
    `combos` (default lattice.combos); strict improvement keeps the first
    covariance on ties."""
    combos = lattice.combos if combos is None else combos
    n_layers = lattice.steps if start_layer is None else start_layer
    values = terminal_values
    layers, policy = [values], []
    for k in range(n_layers - 1, -1, -1):
        best = best_idx = None
        for c, sigma2 in enumerate(combos):
            cand = stencil_child_mean(lattice, values, sigma2)
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
    ((1.0, 1.0), (9.0, 9.0), 2, (53, 55), 5),   # levels 1, 3 | 5, 7 | 9: three brackets
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
            got = list(lat.child_means(terminal))[c]
            want = stencil_child_mean(lat, terminal, lat.combos[c])
            if lat.d == 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# dominated box-grid levels
# ---------------------------------------------------------------------------

def bracket(lattice, a, s2):
    """The bracket m = floor(sigma sqrt(dt) / h) of one level of axis a."""
    return _axis_allocation(math.sqrt(s2 * lattice.dt), lattice.space.spacing[a])[0][0]


def pieces(lattice, a, s2):
    """The affine pieces of the child mean in sigma^2 that hold one level of
    axis a: its bracket m, and bracket m - 1 as well when the level's move
    lands on node m exactly (no weight on node m + 1)."""
    (m, _), (_, w_hi) = _axis_allocation(math.sqrt(s2 * lattice.dt),
                                         lattice.space.spacing[a])
    return {m - 1, m} if w_hi == 0.0 else {m}


PRUNE_CASES = [
    # (lower, upper, steps, points, grid_points); kept levels in the comments
    ((1.0,), (6.0,), 8, 101, 11),                # 1, 2.5 | 3, 6: straddles m = 1, 2
    ((1.0,), (4.0,), 16, 97, 9),                 # 1 | 4: 1 and 4 land on nodes
    ((1.0, 1.0), (3.0, 4.0), 4, (49, 53), 7),    # 1, 3 x 1, 3 | 3.5, 4
    ((1.0, 2.0), (3.0, 2.0), 4, (49, 45), 5),    # 1, 2.5 | 3 x 2: degenerate axis
]


def test_kept_levels():
    assert desk_lattice().combos.ravel().tolist() == [1.0, 2.5, 3.25, 4.0]
    desk_2d = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=40, points=121)
    assert np.array_equal(desk_2d.combos, desk_2d.box.corners())
    # h^2 / dt = 1, so the levels 1, 7, 13, 19, 25 sit in brackets 1 to 5
    spread = make_lattice(upper=(25.0,), steps=4, points=121)
    assert [bracket(spread, 0, s2) for s2 in spread.combos[:, 0]] == [1, 2, 3, 4, 5]
    assert np.array_equal(spread.combos, spread.box.sigma2_combos())
    # 4 lands on node 2, so it closes bracket 1, which runs from 1 to 3.625
    closed = make_lattice(steps=16, points=97, grid_points=9)
    assert [bracket(closed, 0, s2) for s2 in closed.box.axis_grid(0)] == [1] * 8 + [2]
    assert closed.combos.ravel().tolist() == [1.0, 4.0]
    for lower, upper, steps, points, grid_points in OPERATOR_CASES + PRUNE_CASES:
        lat = make_lattice(lower=lower, upper=upper, steps=steps, points=points,
                           grid_points=grid_points)
        rows = [tuple(r) for r in lat.combos.tolist()]
        assert rows == sorted(set(rows))                    # lexicographic, distinct
        for a in range(lat.d):
            kept = sorted(set(lat.combos[:, a].tolist()))
            assert kept[0] == lat.box.lower[a] and kept[-1] == lat.box.upper[a]
            # per affine piece, the smallest and the largest grid level stay
            runs = {}
            for s2 in lat.box.axis_grid(a).tolist():
                for piece in pieces(lat, a, s2):
                    runs.setdefault(piece, set()).add(s2)
            assert kept == sorted(set().union(*({min(r), max(r)} for r in runs.values())))
        assert rows == list(product(*(sorted(set(lat.combos[:, a].tolist()))
                                      for a in range(lat.d))))


@pytest.mark.parametrize("lower,upper,steps,points,grid_points", PRUNE_CASES)
def test_pruned_maximum_equals_full_grid_maximum(lower, upper, steps, points, grid_points):
    lat = make_lattice(lower=lower, upper=upper, steps=steps, points=points,
                       grid_points=grid_points)
    full = lat.box.sigma2_combos()
    assert lat.combos.shape[0] < full.shape[0]
    rng = np.random.default_rng(len(lower) * 100 + grid_points)
    for tail in ((), (2,)):
        shape = lat.space.shape + tail
        terminal = rng.standard_normal(shape)
        f = 0.1 * rng.standard_normal((steps,) + shape)
        g = 0.1 * rng.standard_normal((steps,) + shape + (lat.d,))

        def affine(combos):
            return lambda k, c: f[k] + g[k] @ combos[c]

        cases = [({}, {}),
                 ({"step_cost": affine(lat.combos)}, {"step_cost": affine(full)}),
                 ({"layer_cost": lambda k: f[k]}, {"step_cost": lambda k, c: f[k]})]
        for kwargs, ref_kwargs in cases:
            want = stencil_sweep(lat, terminal, combos=full, **ref_kwargs)[0]
            got = _sweep(lat, terminal, store=(slice(None),) * lat.d, **kwargs)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def scan_sweep(lattice, terminal_values, step_cost=None, start_layer=None):
    """Every layer (first to last) of the argmax scan the policy-free sweep
    replaced: each candidate gets its own cost, and a strict improvement
    test keeps the earliest covariance on ties."""
    n_layers = lattice.steps if start_layer is None else start_layer
    values = terminal_values
    layers = [values]
    for k in range(n_layers - 1, -1, -1):
        best = None
        for c, cand in enumerate(lattice.child_means(values)):
            if step_cost is not None:
                cand = cand + step_cost(k, c)
            best = cand if best is None else np.where(cand > best, cand, best)
        values = best
        layers.append(values)
    return np.stack(layers[::-1])


def per_slice_axis_mean(lattice, padded, a, level):
    """Lattice._axis_mean as it was, with a fresh product array per slice."""
    lead = (slice(None),) * a
    out = None
    for rows, w in lattice.moves[a][level]:
        if w != 0.0:
            part = w * padded[lead + (rows,)]
            out = part if out is None else out + part
    return out


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def signed_zeros(rng, shape, share=0.5):
    """Random values where a share of the entries are +0.0 or -0.0."""
    vals = rng.standard_normal(shape)
    zero = rng.random(shape) < share
    return np.where(zero, np.where(rng.random(shape) < 0.5, -0.0, 0.0), vals)


@pytest.mark.parametrize("lower,upper,steps,points,grid_points", OPERATOR_CASES)
def test_policy_free_sweep_matches_argmax_scan(lower, upper, steps, points, grid_points):
    lat = make_lattice(lower=lower, upper=upper, steps=steps, points=points,
                       grid_points=grid_points)
    rng = np.random.default_rng(7 + len(lower) * 10 + grid_points)
    nc = lat.combos.shape[0]
    for a in range(lat.d):
        values = rng.standard_normal(lat.space.shape + (3,))
        padded = lat.edge_pad(values, a)
        for level in range(len(lat.moves[a])):
            assert_same_bits(lat._axis_mean(padded, a, level),
                             per_slice_axis_mean(lat, padded, a, level))
    for tail in ((), (2,), (2, 3)):
        shape = lat.space.shape + tail
        # a terminal layer of signed zeros makes every candidate tie at +-0.0
        for terminal in (rng.standard_normal(shape), signed_zeros(rng, shape, 1.0),
                         signed_zeros(rng, shape)):
            layer = signed_zeros(rng, (steps,) + shape)
            combo = signed_zeros(rng, (steps, nc) + shape)
            cases = [
                ({}, {}),
                ({"layer_cost": lambda k: layer[k]}, {"step_cost": lambda k, c: layer[k]}),
                ({"step_cost": lambda k, c: combo[k, c]}, {"step_cost": lambda k, c: combo[k, c]}),
                ({"start_layer": steps // 2}, {"start_layer": steps // 2}),
                ({"layer_cost": lambda k: layer[k], "start_layer": steps - 1},
                 {"step_cost": lambda k, c: layer[k], "start_layer": steps - 1}),
            ]
            for kwargs, ref_kwargs in cases:
                want = scan_sweep(lat, terminal, **ref_kwargs)
                assert_same_bits(_sweep(lat, terminal, **kwargs), want[0])
                every = _sweep(lat, terminal, store=(slice(None),) * lat.d, **kwargs)
                assert_same_bits(every, want)
                origin = _sweep(lat, terminal, store=lat.origin_index, **kwargs)
                assert_same_bits(origin, want[(slice(None),) + lat.origin_index])


def scan_weighted_norms(fields, lattice, betas):
    """weighted_norms through the argmax scan, the squared fields added to
    every candidate."""
    weights = np.stack([exp_cell_weights(lattice.time, b) for b in betas], axis=-1)

    def squared(f):
        tail = tuple(range(1 + lattice.d, f.ndim))
        return np.sum(f * f, axis=tail) if tail else f * f

    sq = np.stack([squared(f) for f in fields], axis=-1)       # (layers, *grid, F)
    grid = lattice.space.shape

    def cost(k, _c):
        return (sq[k][..., None] * weights[k]).reshape(grid + (-1,))

    zero = np.zeros(grid + (len(fields) * len(betas),))
    total = scan_sweep(lattice, zero, cost)[0][lattice.origin_index]
    return np.sqrt(np.maximum(total, 0.0)).reshape(len(fields), -1)


@pytest.mark.parametrize("lower,upper,steps,points,grid_points",
                         [OPERATOR_CASES[2], OPERATOR_CASES[4]])
def test_weighted_norms_match_argmax_scan(lower, upper, steps, points, grid_points):
    lat = make_lattice(lower=lower, upper=upper, steps=steps, points=points,
                       grid_points=grid_points)
    rng = np.random.default_rng(3)
    layout = (lat.steps + 1,) + lat.space.shape
    fields = [rng.normal(size=layout), signed_zeros(rng, layout + (2,)),
              rng.normal(size=layout + (lat.d, 2)), np.zeros(layout)]
    betas = (0.0, 1.5, 64.0)
    assert_same_bits(weighted_norms(fields, lat, betas),
                     scan_weighted_norms(fields, lat, betas))
    proc = StepProcess(times=np.array([0.0, 0.5, 1.0]),
                       state_fns=(lambda x: x[..., 0], lambda x: 1.0 + x[..., -1] ** 2))
    for beta in (0.0, 2.0):
        want = scan_sweep(lat, np.zeros(lat.space.shape + (1,)), lambda k, c: (
            reference_square_cost(proc, lat, beta, k)))[0][lat.origin_index][0]
        assert _square_integral_expectation(proc, lat, beta) == want


def reference_square_cost(proc, lat, beta, k):
    """Running cost of _square_integral_expectation at layer k."""
    for i, fn in enumerate(proc.state_fns):
        if lat.time.index_of(proc.times[i]) == k:
            t0, t1 = proc.times[i], proc.times[i + 1]
            w = t1 - t0 if beta == 0.0 else (math.exp(beta * t1) - math.exp(beta * t0)) / beta
            vals = np.asarray(fn(lat.states), dtype=float)
            return (w * vals * vals)[..., None]
    return 0.0


# ---------------------------------------------------------------------------
# controlled Monte Carlo
# ---------------------------------------------------------------------------

def loop_control_mc(lattice, terminal, control, n_paths, seed):
    """Single-measure Monte Carlo of the payoff under `control`: a lattice
    oracle, (estimate, standard error) over n_paths paths in up to eight
    seed-stream chunks."""
    def chunk(m, seed_seq):
        rng = np.random.default_rng(seed_seq)
        x = np.zeros((m, lattice.d))
        for k in range(lattice.steps):
            sig2 = np.broadcast_to(np.asarray(control(k, x), dtype=float),
                                   (m, lattice.d))
            signs = rng.integers(0, 2, size=(m, lattice.d)) * 2.0 - 1.0
            x = x + np.sqrt(sig2 * lattice.dt) * signs
        return terminal.evaluate(x)

    chunk_count = min(8, n_paths)
    sizes = [n_paths // chunk_count + (1 if i < n_paths % chunk_count else 0)
             for i in range(chunk_count)]
    seeds = np.random.SeedSequence(seed).spawn(chunk_count)
    vals = np.concatenate([chunk(m, s) for m, s in zip(sizes, seeds)], axis=0)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(n_paths)


def test_control_mc_bounds_and_errors(small_lat):
    # any admissible control is dominated by the worst-case expectation
    top = sublinear_expectation(small_lat, quad_payoff())[0]
    est, se = loop_control_mc(small_lat, quad_payoff(), lambda k, x: 2.5, 4000, seed=7)
    assert est[0] <= top + 3.0 * se[0]
    with pytest.raises(InputError, match="step 0"):
        simulate_path(small_lat.time, small_lat.box, lambda k, x: 5.0, seed=1)


def test_control_of_the_wrong_shape_names_the_step(small_lat_2d):
    tg = small_lat_2d.time
    box = small_lat_2d.box
    bad = lambda k, x: [1.0, 1.5, 2.0] if k == 3 else 1.5
    with pytest.raises(DimensionError, match=r"step 3.*\(1, 2\)"):
        simulate_path(tg, box, bad, seed=1)


def test_control_mc_constant_top_hits_anchor(small_lat):
    est, se = loop_control_mc(small_lat, quad_payoff(), lambda k, x: 4.0, 4000, seed=11)
    assert abs(est[0] - 4.0) <= 4.0 * se[0] + 1e-9


# The per-caller loop that `scenario._walk` replaced in simulate_path, kept
# as the reference: it must draw the same coin flips and do the same
# arithmetic.

def loop_simulate_path(time, box, control, seed):
    rng = np.random.default_rng(seed)
    d = box.d
    dt = time.dt
    x = np.zeros((time.steps + 1, d))
    qv = np.zeros((time.steps + 1, d))
    applied = np.zeros((time.steps, d))
    for k in range(time.steps):
        sig2 = np.broadcast_to(np.asarray(control(k, x[k]), dtype=float), (d,))
        signs = rng.integers(0, 2, size=d) * 2.0 - 1.0
        x[k + 1] = x[k] + np.sqrt(sig2 * dt) * signs
        qv[k + 1] = qv[k] + sig2 * dt
        applied[k] = sig2
    return x, qv, applied


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def smooth_control(box):
    """A state-dependent control inside the box."""
    lo, up = box.lower, box.upper
    return lambda k, x: lo + (up - lo) * 0.5 * (1.0 + np.tanh(x - 0.1 * k))


def test_simulate_path_matches_loop_reference(small_lat, small_lat_2d):
    for lat in (small_lat, small_lat_2d):
        box = lat.box
        table = np.random.default_rng(3).uniform(box.lower, box.upper,
                                                 (lat.steps, lat.d))
        for control in (lambda k, x: box.upper, lambda k, x: table[k],
                        smooth_control(box)):
            for seed in (0, 7):
                path = simulate_path(lat.time, box, control, seed=seed)
                x, qv, applied = loop_simulate_path(lat.time, box, control, seed)
                assert_bits_equal(path.positions, x)
                assert_bits_equal(path.quad_var, qv)
                assert_bits_equal(path.control, applied)


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


def test_queries_at_the_float_range_clamp_without_overflow(small_lat):
    # (q - axis[0]) / h overflows for |q| near the largest float
    layer = (small_lat.states[..., 0] ** 2)[..., None]
    far = np.array([[1e308], [-1e308], [np.finfo(float).max]])
    assert evaluate_field(small_lat.space, layer, far)[:, 0].tolist() == [144.0] * 3
    assert nearest_index(small_lat.space, far)[0].tolist() == [160, 0, 160]


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


def clip_and_sum_evaluate(space, layer, x):
    """evaluate_field as it was written first: np.clip for the clamps and
    sum() over generators, which starts from 0, for the three-point sums."""
    def weights(axis, q):
        p, h = axis.shape[0], axis[1] - axis[0]
        u = np.clip((q - axis[0]) / h, 0.0, p - 1.0)
        i = np.clip(np.rint(u).astype(int), 1, p - 2)
        t = u - i
        return i, np.stack([0.5 * t * (t - 1.0), 1.0 - t * t, 0.5 * t * (t + 1.0)])

    pad = (1,) * (layer.ndim - space.d)
    i0, w0 = weights(space.axes[0], x[:, 0])
    if space.d == 1:
        return sum(w0[j].reshape((-1,) + pad) * layer[i0 + j - 1] for j in range(3))
    i1, w1 = weights(space.axes[1], x[:, 1])
    rows = sum(w0[j].reshape((-1, 1) + pad) * layer[i0 + j - 1] for j in range(3))
    m = np.arange(x.shape[0])
    return sum(w1[j].reshape((-1,) + pad) * rows[m, i1 + j - 1] for j in range(3))


@pytest.mark.parametrize("dim", [1, 2])
def test_evaluate_field_keeps_the_clip_and_sum_bits(small_lat, small_lat_2d, dim):
    lat = small_lat if dim == 1 else small_lat_2d
    space = lat.space
    rng = np.random.default_rng(40 + dim)
    half = np.array([a[-1] for a in space.axes])
    m = 400
    # inside and far outside the span, on nodes and midpoints, and signed zeros
    x = rng.uniform(-1.5, 1.5, (m, dim)) * half
    x[:50] = rng.choice([-1e6, -0.0, 0.0, 1e6], (50, dim))
    nodes = [rng.choice(a, m) for a in space.axes]
    x[50:100] = np.stack(nodes, axis=-1)[50:100]
    x[100:150] = x[50:100] + 0.5 * np.array(space.spacing)
    layer = signed_zeros(rng, space.shape + (3, 2))
    layer[..., 0, 0] = -0.0        # every three-point term -0.0 at some queries
    for trailing in (layer, layer[..., 0], layer[..., 1, ::-1]):
        assert_same_bits(evaluate_field(space, trailing, x),
                         clip_and_sum_evaluate(space, trailing, x))
    want = tuple(np.rint(np.clip((x[:, a] - ax[0]) / (ax[1] - ax[0]), 0.0,
                                 ax.shape[0] - 1.0)).astype(int)
                 for a, ax in enumerate(space.axes))
    for got, w in zip(nearest_index(space, x), want):
        assert np.array_equal(got, w)
