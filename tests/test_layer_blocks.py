"""Solutions keep Y, the policy and the bracket coefficients; Z and eta are
derived from them a block of layers at a time.

The block readers must give the bits of the stacked extraction, signed
zeros included, and no reader may hold a full stack of derived fields: the
memory guards count the traced peak of a run in (steps + 1) x nodes float64
stacks, with blocks of one layer so that the stacks dominate. The one-block
guards count it in blocks of many layers: a reader lets one block go before
it reads the next.
"""
import tracemalloc

import numpy as np
import pytest

from gcalc import (BsdeSolution, GBsdeParams, TerminalFunctional, apriori_check,
                   calculus, cauchy_sequence_check, cli, compensator_mc_check,
                   extract_integrands, make_driver, make_payoff,
                   representation_bound_check, residual_check, solve_gbsde)
from gcalc.calculus import _layer_reader
from gcalc.gtensor import g_corner
from gcalc.solver import (BETA_SCAN, _compensator_increments, represent_martingale,
                          zero_dt_driver, zero_qv_driver)

from conftest import make_lattice
from test_scenario import assert_same_bits, signed_zeros


def stacked_integrands(values, lattice, g_field):
    """The stacked extraction as it was: np.gradient for Z, a second
    difference with copied edges for eta, then the bracket shift."""
    def second_diff(h, axis):
        w = np.moveaxis(values, axis, 0)
        out = np.empty_like(w)
        out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
        out[0], out[-1] = out[1], out[-2]
        return np.moveaxis(out, 0, axis)

    spacing = lattice.space.spacing
    z = np.stack([np.gradient(values, h, axis=1 + a, edge_order=1)
                  for a, h in enumerate(spacing)], axis=-2)
    eta = np.stack([second_diff(h, 1 + a) for a, h in enumerate(spacing)], axis=-1)
    return z, (eta if g_field is None else eta + 2.0 * g_field)


def g_fields(rng, shape):
    """Bracket fields as solutions hold them: none (a representation), the
    zero-stride +0.0 of a zero driver, and signed zeros among values."""
    return {"none": None, "zero": np.broadcast_to(0.0, shape),
            "signed": signed_zeros(rng, shape)}


@pytest.mark.parametrize("lattice_kwargs", [
    {"steps": 12, "points": 97},
    {"lower": (1.0, 1.0), "upper": (2.0, 2.0), "steps": 6, "points": (45, 47),
     "grid_points": 2},
])
@pytest.mark.parametrize("g_kind", ["none", "zero", "signed"])
def test_block_integrands_equal_stacked_extraction(monkeypatch, lattice_kwargs, g_kind):
    lat = make_lattice(**lattice_kwargs)
    rng = np.random.default_rng(5 + lat.d)
    n, d = 2, lat.d
    layers = (lat.steps + 1,) + lat.space.shape
    y = signed_zeros(rng, layers + (n,))
    g = g_fields(rng, layers + (n, d))[g_kind]
    policy = rng.integers(0, lat.combos.shape[0], (lat.steps,) + lat.space.shape + (n,))
    sol = BsdeSolution(lattice=lat, Y=y, policy_idx=policy.astype(np.int16), g_field=g)
    z_want, eta_want = stacked_integrands(y, lat, g)
    for got, want in zip(extract_integrands(y, lat, g), (z_want, eta_want)):
        assert_same_bits(got, want)
    # blocks of 1, 3 and 5 layers: none of them divides the layer count
    nodes = int(np.prod(lat.space.shape))
    for size in (1, 3, 5):
        read = _layer_reader(sol.integrands, size, lat.steps + 1)
        for k in list(range(lat.steps + 1)) + list(range(lat.steps, -1, -1)):
            z, eta = read(k)
            assert_same_bits(z, z_want[k])
            assert_same_bits(eta, eta_want[k])
        monkeypatch.setattr(calculus, "BLOCK_VALUES", size * nodes * 3 * d * n)
        sol.__dict__.pop("K_inc", None)
        eta_steps = eta_want[:lat.steps]
        assert_same_bits(sol.K_inc, _compensator_increments(
            g_corner(eta_steps, lat.box), eta_steps, lat.combos[sol.policy_idx], lat))
    assert_same_bits(sol.Z, z_want)
    assert_same_bits(sol.eta, eta_want)


@pytest.mark.parametrize("lattice_kwargs", [
    {"steps": 6, "points": 61},
    {"lower": (1.0, 1.0), "upper": (2.0, 2.0), "steps": 6, "points": (45, 47),
     "grid_points": 2},
])
@pytest.mark.parametrize("n", [1, 2])
def test_in_place_integrands_keep_the_expression_bits(lattice_kwargs, n):
    lat = make_lattice(**lattice_kwargs)
    rng = np.random.default_rng(11 + 2 * lat.d + n)
    layers = (lat.steps + 1,) + lat.space.shape
    y = signed_zeros(rng, layers + (n,))
    wide = signed_zeros(rng, layers + (3 * n,))
    # a contiguous block, a strided view and a block of reversed layers
    for values in (y, wide[..., ::3], y[::-1]):
        for g in g_fields(rng, layers + (n, lat.d)).values():
            for got, want in zip(extract_integrands(values, lat, g),
                                 stacked_integrands(values, lat, g)):
                assert_same_bits(got, want)


def test_solutions_keep_no_integrand_stacks():
    lat = make_lattice(steps=8, points=81)
    qv = make_driver("linear-in-z", 1, 1, {"a": [0.2]}, role="qv")
    for g, kept in ((zero_qv_driver(1, 1), 0), (qv, 1)):
        params = GBsdeParams(terminal=make_payoff("call", 1), f=zero_dt_driver(1), g=g)
        sol, _ = solve_gbsde(params, lat)
        assert set(vars(sol)) == {"lattice", "Y", "policy_idx", "g_field"}
        assert sum(s != 0 for s in sol.g_field.strides) == sol.g_field.ndim * kept
    assert represent_martingale(make_payoff("abs", 1), lat).g_field is None


def test_no_reader_builds_the_full_integrand_stacks(monkeypatch):
    def refuse(self):
        raise AssertionError("a package reader built the full Z and eta stacks")

    monkeypatch.setattr(BsdeSolution, "_stacks", property(refuse))
    lat = make_lattice(steps=8, points=81)
    payoff = make_payoff("abs", 1)
    params = GBsdeParams(terminal=payoff, f=zero_dt_driver(1),
                         g=make_driver("linear-in-z", 1, 1, {"a": [0.2]}, role="qv"))
    sol, _ = solve_gbsde(params, lat)
    assert sol.K_inc.shape == (lat.steps,) + lat.space.shape + (1,)
    residual_check(sol, params, n_paths=8, n_controls=1)
    compensator_mc_check(represent_martingale(payoff, lat), n_controls=3, n_paths=8)
    representation_bound_check(payoff, lat)
    cauchy_sequence_check([payoff, make_payoff("quadratic", 1)], lat, 1.0)
    # equal solutions: the curvature-mismatch flag reads the eta deltas too
    assert not apriori_check(params, params, lat, solutions=(sol, sol)).eta_mismatch


def traced_peak(run):
    run()                      # first run: lazy imports and caches settle untraced
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# desk box [1, 4] with 101 layers, so a layer is 1% of a stack
GUARD = {"steps": 100, "points": 241}


def assert_solve_peak(monkeypatch, f, bracket, betas):
    """Trace solve_gbsde on GUARD with one-layer blocks and return its report.
    The peak holds at most two iterates, each Y, the int16 policy and, for a
    bracket driver that is not zero, d coefficient stacks; the distance
    sweep's value columns, three for each of the `betas` it measures at
    once, about 7.1 layer arrays each in 1-d; and half a stack for the rest."""
    monkeypatch.setattr(calculus, "BLOCK_VALUES", 1, raising=False)   # one-layer blocks
    lat = make_lattice(**GUARD)
    g = (zero_qv_driver(1, 1) if bracket == "zero"
         else make_driver("linear-in-z", 1, 1, {"a": [0.05]}, role="qv"))
    params = GBsdeParams(terminal=make_payoff("quadratic", 1), f=f, g=g)
    reports = []
    peak = traced_peak(lambda: reports.append(solve_gbsde(params, lat)[1]))
    stack = (lat.steps + 1) * lat.space.shape[0] * 8
    iterate = 1.25 + (0 if bracket == "zero" else lat.d)
    columns = 3 * betas * 7.1 / (lat.steps + 1)
    assert peak < (2 * iterate + columns + 0.5) * stack, f"{peak / stack:.2f} stacks"
    return reports[-1]


@pytest.mark.parametrize("bracket", ["zero", "linear-in-z"])
def test_solve_memory_holds_iterates_only(monkeypatch, bracket):
    # BETA_SCAN[0] passes, so every sweep measures beta 0 and BETA_SCAN[0] only
    rep = assert_solve_peak(monkeypatch, make_driver("linear-in-y", 1, 1, {"r": -0.5}),
                            bracket, 2)
    assert rep.beta0_empirical == BETA_SCAN[0]


def test_solve_memory_holds_two_iterates_through_a_restart(monkeypatch):
    # BETA_SCAN[0] fails, so the scan restarts from iteration 1 and measures
    # beta 0 and every scan beta until each fails
    f = make_driver("clamped-custom-affine", 1, 1, {"coef_y": 0.2, "coef_eta": [0.03]})
    rep = assert_solve_peak(monkeypatch, f, "linear-in-z", 1 + len(BETA_SCAN))
    assert rep.beta == BETA_SCAN[0] and max(rep.contraction_factors) > rep.theoretical_factor


def test_replay_memory_holds_positions_only(monkeypatch):
    monkeypatch.setattr(calculus, "BLOCK_VALUES", 1, raising=False)
    lat = make_lattice(steps=400, points=481)
    payoff = make_payoff("abs", 1)
    sol = represent_martingale(payoff, lat)
    params = GBsdeParams(terminal=payoff, f=zero_dt_driver(1), g=zero_qv_driver(1, 1))
    m, groups = 64, 9
    peak = traced_peak(lambda: residual_check(sol, params, n_paths=m, n_controls=groups - 1))
    # the paths' positions, (steps + 1) d floats per path; one group's
    # coin-flip draw, steps x m x d int32; and 32 packed layers, (1 + 4 d) n
    # floats per node, for the one-layer blocks, the packed layer's
    # interpolation and the per-step path arrays
    store = (lat.steps + 1) * lat.d * groups * m * 8
    draw = lat.steps * m * lat.d * 4
    layers = 32 * (1 + 4 * lat.d) * lat.space.shape[0] * 8
    assert peak < store + draw + layers, f"{(peak - store - draw) / layers * 32:.1f} layers"


def test_compensator_memory_holds_the_flips_once(monkeypatch):
    monkeypatch.setattr(calculus, "BLOCK_VALUES", 1, raising=False)
    lat = make_lattice(steps=400, points=481)
    sol = represent_martingale(make_payoff("abs", 1), lat)
    groups, m = 2000, 2
    # the fewest paths per group, so the packed flips, one byte per group and
    # step, outweigh the per-step path arrays
    peak = traced_peak(lambda: compensator_mc_check(sol, n_controls=groups, n_paths=m))
    # the flips once, the random controls' (steps, d) corner tables, and
    # 16 path arrays of groups * m floats and 32 node layers for the walk
    flips = lat.steps * groups
    tables = (groups - 2) * lat.steps * lat.d * 8
    walk = 8 * (16 * groups * m * lat.d + 32 * lat.space.shape[0])
    assert peak < flips + tables + walk, f"{(peak - tables) / flips:.2f} flips"


@pytest.mark.parametrize("reader", ["residual_check", "fields_csv"])
def test_block_readers_hold_one_block(monkeypatch, reader):
    lat = make_lattice(steps=400, points=481)
    payoff = make_payoff("abs", 1)
    sol = represent_martingale(payoff, lat)
    params = GBsdeParams(terminal=payoff, f=zero_dt_driver(1), g=zero_qv_driver(1, 1))
    run = {"residual_check": lambda: residual_check(sol, params, n_paths=4, n_controls=1),
           "fields_csv": lambda: sum(map(len, cli._fields_csv(sol)[1]))}[reader]
    # blocks of Z and eta of 200 layers, so each reader crosses a boundary
    # between two full blocks
    width = 200 * lat.space.shape[0] * 2
    monkeypatch.setattr(calculus, "BLOCK_VALUES", width)
    block = width * 8
    peak = traced_peak(run)
    # one block, and a quarter block for the rest: numpy's ufunc buffers
    # (three of 8,192 floats), the writer's CSV text of one layer, the
    # replay's positions and per-step arrays
    assert peak < 1.25 * block, f"{peak / block:.2f} blocks"


def test_cauchy_memory_holds_value_stacks_only(monkeypatch):
    monkeypatch.setattr(calculus, "BLOCK_VALUES", 1, raising=False)
    lat = make_lattice(**GUARD)
    caps = [TerminalFunctional(fn=lambda x, c=c: np.minimum(x * x, c), lipschitz=60.0)
            for c in (1.0, 2.0, 4.0, 8.0)]
    stack = (lat.steps + 1) * lat.space.shape[0] * 8
    peak = traced_peak(lambda: cauchy_sequence_check(caps, lat, 4.0))
    # four Y stacks, no policy (the bounds read none), and two stacks for
    # the sweeps, whose 18 value columns (6 pairs x 3 fields) make their
    # per-layer arrays large
    assert peak < (4 + 2) * stack, f"{peak / stack:.2f} stacks"
