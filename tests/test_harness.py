"""Stability, representation, and Cauchy-sequence checks.

Cash shifts give exact closed forms: shifting the payoff by a constant c
shifts the value field by c and nothing else, and shifting the dt-driver by
c tilts the value field by c * (T - t). Both make every norm in the
inequalities computable by hand.
"""
import math

import numpy as np
import pytest

from gcalc import calculus
from gcalc import (Driver, GBsdeParams, TerminalFunctional, apriori_check,
                   cauchy_sequence_check, exp_cell_weights,
                   represent_martingale, representation_bound_check, solve_gbsde)
from gcalc.calculus import _state_expectation, weighted_norms
from gcalc.catalog import make_driver
from gcalc.errors import InputError, WeightOverflowError
from gcalc.harness import BETA_GRID, admissible_betas
from gcalc.solver import zero_dt_driver, zero_qv_driver

from conftest import const_payoff, linear_payoff, make_lattice, quad_payoff, sweep_budget


def plain(terminal, d=1):
    return GBsdeParams(terminal=terminal, f=zero_dt_driver(terminal.n),
                       g=zero_qv_driver(terminal.n, d))


def shifted_quad(c):
    return TerminalFunctional(
        fn=lambda x: np.sum(x * x, axis=-1)[..., None] + c, lipschitz=60.0)


def capped_quad(cap):
    return TerminalFunctional(
        fn=lambda x: np.minimum(np.sum(x * x, axis=-1), cap)[..., None],
        lipschitz=60.0)


# ---------------------------------------------------------------------------
# beta grid
# ---------------------------------------------------------------------------

def test_admissible_betas(small_lat):
    scan = admissible_betas(small_lat)
    assert scan == tuple(float(2 ** i) for i in range(10))   # 1024 overflows
    assert 1024.0 in BETA_GRID and 1024.0 not in scan
    assert admissible_betas(small_lat, (2.0, 800.0)) == (2.0,)
    with pytest.raises(WeightOverflowError):
        admissible_betas(small_lat, (800.0,))
    # a NaN or negative beta is rejected, not dropped as an overflow
    for betas in ((2.0, math.nan), (2.0, -1.0)):
        with pytest.raises(InputError) as err:
            admissible_betas(small_lat, betas)
        assert not isinstance(err.value, WeightOverflowError)


# ---------------------------------------------------------------------------
# parameter-stability inequalities
# ---------------------------------------------------------------------------

def test_identical_params_trivial(small_lat):
    p = plain(quad_payoff())
    rep = apriori_check(p, p, small_lat, betas=(1.0, 4.0))
    assert rep.ok and rep.beta0_conservative == 1.0 and rep.beta0_printed == 1.0
    assert not rep.eta_mismatch
    for row in rep.rows:
        assert row.lhs_y == 0.0 and row.lhs_z == 0.0 and row.lhs_eta == 0.0
        assert row.bracket == 0.0
        assert row.c_diag is None
        assert row.all_printed and row.all_conservative


def test_terminal_cash_shift_exact(small_lat):
    rep = apriori_check(plain(quad_payoff()), plain(shifted_quad(0.1)),
                        small_lat, betas=(1.0, 2.0))
    assert rep.ok and not rep.eta_mismatch
    assert rep.constants_printed == (1.0, 3.0, 1.0)
    assert rep.constant_conservative == 5.0
    for row in rep.rows:
        b = row.beta
        want_y = 0.01 * (math.exp(b) - 1.0) / b
        assert row.lhs_y == pytest.approx(want_y, rel=1e-9)
        assert row.lhs_z <= 1e-12 and row.lhs_eta <= 1e-12
        assert row.term_terminal == pytest.approx(math.exp(b) * 0.01, rel=1e-9)
        assert row.term_f == 0.0 and row.term_g == 0.0
        assert row.all_printed and row.all_conservative
    assert rep.beta0_printed == 1.0 and rep.beta0_conservative == 1.0


def test_driver_cash_shift_exact(small_lat):
    f_shift = make_driver("constant", 1, 1, params={"c": 0.1})
    p1 = plain(quad_payoff())
    p2 = GBsdeParams(terminal=quad_payoff(), f=f_shift, g=zero_qv_driver(1, 1))
    rep = apriori_check(p1, p2, small_lat, betas=(1.0,))
    row = rep.rows[0]
    w = exp_cell_weights(small_lat.time, 1.0)
    t = small_lat.time.times()[:-1]
    want_y = float(np.sum(w * (0.1 * (1.0 - t)) ** 2))
    assert row.lhs_y == pytest.approx(want_y, rel=1e-6)
    assert row.term_f == pytest.approx(0.01 * (math.e - 1.0), rel=1e-9)
    assert row.term_terminal <= 1e-12 and row.term_g == 0.0
    assert row.lhs_z <= 1e-10 and row.lhs_eta <= 1e-8
    assert row.all_conservative
    assert rep.beta0_conservative == 1.0
    # the sharp-set verdict can only be stricter than the conservative one
    assert (not row.all_printed) or row.all_conservative


def test_eta_mismatch_flag(small_lat):
    # same value field from two different mechanisms: dt drift 2.0 versus
    # bracket coefficient 0.5 against the top covariance 4.0
    f_version = GBsdeParams(
        terminal=const_payoff(0.0),
        f=make_driver("constant", 1, 1, params={"c": 2.0}),
        g=zero_qv_driver(1, 1))
    g_version = GBsdeParams(
        terminal=const_payoff(0.0),
        f=zero_dt_driver(1),
        g=make_driver("qv-constant", 1, 1, params={"gamma": 0.5}, role="qv"))
    s1, _ = solve_gbsde(f_version, small_lat)
    s2, _ = solve_gbsde(g_version, small_lat)
    assert np.abs(s1.Y - s2.Y).max() <= 1e-12
    assert np.abs(s1.eta - s2.eta).max() == pytest.approx(1.0, abs=1e-9)
    rep = apriori_check(f_version, g_version, small_lat, betas=(1.0,),
                        solutions=(s1, s2))
    assert rep.eta_mismatch
    assert rep.rows[0].lhs_eta == pytest.approx((math.e - 1.0), rel=1e-6)
    assert rep.ok   # the bracket absorbs the driver gap


@pytest.mark.parametrize("check", [apriori_check], ids=["apriori"])
@pytest.mark.parametrize("key", ["mu", "nu"])
@pytest.mark.parametrize("weight", [1e-200, 1e200, 0.0])
def test_penalty_weights_are_checked_before_solving(small_lat, check, key, weight):
    # the same rule as solve_gbsde's
    p = plain(quad_payoff())
    with pytest.raises(InputError, match=f"^{key}:"):
        check(p, p, small_lat, **{key: weight})


def test_non_finite_driver_delta_rejected(small_lat):
    sol, _ = solve_gbsde(plain(linear_payoff()), small_lat)
    inf_f = Driver(fn=lambda t, y, z, eta: np.full(y.shape, np.inf), lipschitz=0.0)
    params2 = GBsdeParams(terminal=linear_payoff(), f=inf_f, g=zero_qv_driver(1, 1))
    with pytest.raises(InputError):
        apriori_check(plain(linear_payoff()), params2, small_lat, solutions=(sol, sol))


# ---------------------------------------------------------------------------
# representation bound
# ---------------------------------------------------------------------------

def test_representation_bound_linear(small_lat):
    rep = representation_bound_check(linear_payoff(), small_lat, betas=(1.0, 4.0))
    assert rep.ok and rep.beta0 == 1.0
    assert rep.payoff_second_moment == pytest.approx(4.0, abs=1e-9)
    for row in rep.rows:
        assert row.ok
        assert row.rhs == pytest.approx(
            20.0 * math.exp(row.beta), rel=1e-9)
        assert 0.0 < row.lhs <= row.rhs


def test_representation_bound_quadratic(small_lat):
    rep = representation_bound_check(quad_payoff(), small_lat)
    assert rep.ok
    # worst-case fourth moment of the terminal state exceeds (sbar^2 T)^2
    assert rep.payoff_second_moment >= 16.0


# ---------------------------------------------------------------------------
# Cauchy property of payoff approximations
# ---------------------------------------------------------------------------

def test_cauchy_cash_pair_exact(small_lat):
    shifted = TerminalFunctional(fn=lambda x: x @ np.ones(1) + 0.25,
                                 lipschitz=1.0)
    # fn returns (...,) for 1-component? keep explicit trailing axis
    shifted = TerminalFunctional(
        fn=lambda x: (x[..., 0] + 0.25)[..., None], lipschitz=1.0)
    rep = cauchy_sequence_check([linear_payoff(), shifted], small_lat, beta=1.0)
    assert rep.ok and len(rep.pairs) == 1
    pair = rep.pairs[0]
    assert pair.delta_moment == pytest.approx(0.0625, rel=1e-9)
    assert pair.rhs == pytest.approx(5.0 * math.e * 0.0625, rel=1e-9)
    assert pair.lhs == pytest.approx(0.0625 * (math.e - 1.0), rel=1e-6)


def test_cauchy_capped_sequence_bound(small_lat):
    caps = [capped_quad(c) for c in (1.0, 2.0, 4.0, 8.0)]
    rep = cauchy_sequence_check(caps, small_lat, beta=2.0)
    assert rep.ok and len(rep.pairs) == 6
    assert all(p.lhs <= p.rhs for p in rep.pairs)
    with pytest.raises(InputError):
        cauchy_sequence_check([capped_quad(1.0)], small_lat, beta=1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_apriori_check_in_column_groups_keeps_every_bit(small_lat, monkeypatch, dim):
    # the stability norms (5 rows) and the curvature cross terms (1 row) at
    # the 10 admissible default betas, in groups of one column and of three,
    # plus the sweep of the terminal moment
    lat = small_lat if dim == 1 else make_lattice(
        lower=(1.0, 1.0), upper=(2.0, 2.0), steps=4, points=41, grid_points=3)
    f = make_driver("linear-in-y", 1, dim, params={"r": -0.5})
    g = make_driver("linear-in-z", 1, dim, params={"a": [0.1] * dim}, role="qv")
    p1 = GBsdeParams(terminal=quad_payoff(), f=f, g=g)
    p2 = GBsdeParams(terminal=shifted_quad(0.1), f=zero_dt_driver(1), g=g)
    sols = (solve_gbsde(p1, lat)[0], solve_gbsde(p2, lat)[0])
    whole = repr(apriori_check(p1, p2, lat, solutions=sols))
    sweeps = []
    original = calculus._sweep

    def counting(*args, **kwargs):
        sweeps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(calculus, "_sweep", counting)
    for columns, groups in ((1, 61), (3, 25)):
        monkeypatch.setattr(calculus, "SWEEP_BUDGET_BYTES", sweep_budget(lat, columns))
        sweeps.clear()
        assert repr(apriori_check(p1, p2, lat, solutions=sols)) == whole, columns
        assert len(sweeps) == groups


def test_cauchy_two_component_payoffs_match_separate_solutions(small_lat):
    # one sweep carries both components of every payoff; each pair's
    # distance and moment keep the bits of separately solved payoffs
    lat = small_lat
    terms = [TerminalFunctional(fn=lambda x, c=c: np.concatenate(
                 [capped_quad(c).fn(x), np.tanh(c * x)], axis=-1), lipschitz=60.0, n=2)
             for c in (1.0, 2.0, 4.0)]
    rep = cauchy_sequence_check(terms, lat, beta=2.0)
    sols = [represent_martingale(t, lat) for t in terms]
    for p in rep.pairs:
        a, b = sols[p.m], sols[p.n]
        norms = weighted_norms([a.Y - b.Y, a.Z - b.Z, a.eta - b.eta], lat, (2.0,))
        y, z, e = norms[:, 0].tolist()
        assert p.lhs == y ** 2 + z ** 2 + e ** 2
        gap_sq = np.sum((a.Y[-1] - b.Y[-1]) ** 2, axis=-1)
        assert p.delta_moment == _state_expectation(lat, gap_sq, lat.steps)


def test_cauchy_shrinking_cash_sequence(small_lat):
    def with_shift(c):
        return TerminalFunctional(
            fn=lambda x: (x[..., 0] + c)[..., None], lipschitz=1.0)

    terms = [with_shift(1.0 / (i + 1)) for i in range(4)]
    rep = cauchy_sequence_check(terms, small_lat, beta=1.0)
    assert rep.ok
    by_pair = {(p.m, p.n): p for p in rep.pairs}
    for m in range(3):
        gap = 1.0 / (m + 1) - 1.0 / (m + 2)
        pair = by_pair[(m, m + 1)]
        assert pair.delta_moment == pytest.approx(gap ** 2, rel=1e-9)
        assert pair.lhs == pytest.approx(gap ** 2 * (math.e - 1.0), rel=1e-6)
    # adjacent payoff gaps shrink, and so do the solution distances
    assert by_pair[(2, 3)].lhs < by_pair[(1, 2)].lhs < by_pair[(0, 1)].lhs
