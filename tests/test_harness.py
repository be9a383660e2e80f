"""Stability, running-max, representation, and Cauchy-sequence checks.

Cash shifts give exact closed forms: shifting the payoff by a constant c
shifts the value field by c and nothing else, and shifting the dt-driver by
c tilts the value field by c * (T - t). Both make every norm in the
inequalities computable by hand.
"""
import math

import numpy as np
import pytest

from gcalc import (Driver, GBsdeParams, TerminalFunctional, apriori_check,
                   cauchy_sequence_check, exp_cell_weights,
                   representation_bound_check, solve_gbsde, sup_estimate_check)
from gcalc.catalog import make_driver
from gcalc.errors import InputError, WeightOverflowError
from gcalc.harness import BETA_GRID, admissible_betas
from gcalc.solver import zero_dt_driver, zero_qv_driver

from conftest import const_payoff, linear_payoff, make_lattice, quad_payoff


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


# ---------------------------------------------------------------------------
# running-maximum estimate
# ---------------------------------------------------------------------------

def test_non_finite_driver_delta_rejected(small_lat):
    sol, _ = solve_gbsde(plain(linear_payoff()), small_lat)
    inf_f = Driver(fn=lambda t, y, z, eta: np.full(y.shape, np.inf), lipschitz=0.0)
    params2 = GBsdeParams(terminal=linear_payoff(), f=inf_f, g=zero_qv_driver(1, 1))
    with pytest.raises(InputError):
        apriori_check(plain(linear_payoff()), params2, small_lat, solutions=(sol, sol))


def test_sup_estimate_cash_shift(small_lat):
    rep = sup_estimate_check(plain(quad_payoff()), plain(shifted_quad(0.1)),
                             small_lat, beta=1.0)
    assert rep.exact_dp and rep.ok
    want = math.e * 0.01
    assert rep.lhs_upper == pytest.approx(want, rel=1e-9)
    assert rep.lhs_lower == pytest.approx(want, rel=1e-9)
    assert rep.rhs == pytest.approx(3.0 * want, rel=1e-9)


def test_sup_estimate_identical_and_2d(small_lat, small_lat_2d):
    p = plain(quad_payoff())
    rep = sup_estimate_check(p, p, small_lat, beta=2.0)
    assert rep.ok and rep.lhs_upper == 0.0
    p2 = plain(quad_payoff(), d=2)
    q2 = GBsdeParams(terminal=TerminalFunctional(
        fn=lambda x: np.sum(x * x, axis=-1)[..., None] + 0.1, lipschitz=60.0),
        f=zero_dt_driver(1), g=zero_qv_driver(1, 2))
    rep2 = sup_estimate_check(p2, q2, small_lat_2d, beta=1.0)
    assert not rep2.exact_dp
    assert rep2.ok
    assert rep2.lhs_upper == pytest.approx(math.e * 0.01, rel=1e-9)


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
