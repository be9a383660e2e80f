"""Library fuzz: every public entry point ends in finite results or a GcalcError.

Each example draws one entry point and its arguments on tiny lattices: valid
and malformed sizes, seeds, tolerances, betas, query states and payoffs,
including payoffs whose component counts differ. A call must either return
only finite numbers or raise a GcalcError; any other exception, and any
RuntimeWarning (the suite turns those into errors), fails the test.
"""
import dataclasses
import functools
import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from gcalc import (GBsdeParams, GcalcError, TerminalFunctional, TimeGrid, apriori_check,
                   cauchy_sequence_check, compensator_mc_check, evaluate_field,
                   exp_cell_weights, make_driver, make_payoff, nearest_index,
                   represent_martingale, representation_bound_check, residual_check,
                   solve_gbsde)
from gcalc.calculus import admissible_betas, weighted_norms

from conftest import make_lattice

# 1-d: the spacing must stay below the smallest one-step move
LATTICES = {1: functools.partial(make_lattice, steps=4, points=51),
            2: functools.partial(make_lattice, lower=(1.0, 1.0), upper=(2.0, 2.0),
                                 steps=4, points=41, grid_points=3)}


@functools.lru_cache(maxsize=None)
def lattice(d):
    return LATTICES[d]()


@functools.lru_cache(maxsize=None)
def representation(d, payoff_id):
    return represent_martingale(make_payoff(payoff_id, d), lattice(d))


def params(d, payoff, driver_id):
    return GBsdeParams(terminal=payoff, f=make_driver(driver_id, payoff.n, d, {}),
                       g=make_driver("zero", payoff.n, d, {}, role="qv"))


ODD_FLOATS = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 2.5])
SIZES = st.one_of(st.integers(-2, 6), st.sampled_from([2.5, math.nan, None, "3"]))
SEEDS = st.one_of(st.integers(-3, 2 ** 64 + 1), st.sampled_from([1.5, "seed", math.nan]))
TOLS = st.one_of(st.floats(1e-9, 1e-3), ODD_FLOATS)
BETAS = st.lists(st.one_of(st.floats(0.0, 50.0), ODD_FLOATS, st.just(800.0)), max_size=4)
PAYOFF_IDS = ("abs", "quadratic", "linear", "butterfly")


def payoffs(draw, d):
    """A catalog payoff, a 2-component payoff, or one that returns a wrong
    shape or a non-finite value."""
    kind = draw(st.sampled_from(["catalog", "two", "shape", "nan"]))
    if kind == "catalog":
        return make_payoff(draw(st.sampled_from(PAYOFF_IDS)), d)
    if kind == "two":
        return TerminalFunctional(fn=lambda x: np.concatenate([x[..., :1], x[..., :1] ** 2], -1),
                                  lipschitz=100.0, n=2)
    if kind == "shape":
        return TerminalFunctional(fn=lambda x: x[..., 0], lipschitz=1.0)
    return TerminalFunctional(fn=lambda x: np.where(x[..., :1] > 0, np.nan, 0.0),
                              lipschitz=1.0)


@st.composite
def calls(draw):
    """(name, function, args, kwargs) of one entry-point call, and whether
    it compares payoffs whose component counts differ, which must raise."""
    d = draw(st.sampled_from([1, 2]))
    lat = lattice(d)
    sol = representation(d, draw(st.sampled_from(PAYOFF_IDS)))
    abs_payoff = make_payoff("abs", d)
    p = params(d, abs_payoff, draw(st.sampled_from(["zero", "linear-in-y", "constant"])))
    name = draw(st.sampled_from([
        "weighted_norms", "solve_gbsde", "residual_check", "compensator_mc_check",
        "evaluate_field", "nearest_index", "admissible_betas", "exp_cell_weights",
        "TimeGrid", "apriori_check", "representation_bound_check",
        "cauchy_sequence_check"]))
    if name == "weighted_norms":
        fields = draw(st.sampled_from([[], [sol.Y], [sol.Y, sol.Z, sol.eta], [sol.Y[1:]]]))
        return name, weighted_norms, (fields, lat, draw(BETAS)), {}, False
    if name == "solve_gbsde":
        kwargs = {"tol": draw(TOLS), "max_iter": draw(SIZES),
                  "beta": draw(st.one_of(st.none(), st.floats(0.0, 50.0), ODD_FLOATS))}
        return name, solve_gbsde, (params(d, payoffs(draw, d), "linear-in-y"), lat), kwargs, False
    if name == "residual_check":
        kwargs = {"n_paths": draw(SIZES), "n_controls": draw(SIZES), "seed": draw(SEEDS)}
        return name, residual_check, (sol, p), kwargs, False
    if name == "compensator_mc_check":
        kwargs = {"n_paths": draw(SIZES), "n_controls": draw(SIZES), "seed": draw(SEEDS),
                  "comp": draw(st.integers(-1, 2))}
        return name, compensator_mc_check, (sol,), kwargs, False
    if name in ("evaluate_field", "nearest_index"):
        m, k = draw(st.integers(0, 3)), draw(st.sampled_from([d, d + 1]))
        x = draw(st.lists(st.one_of(st.floats(-20.0, 20.0), ODD_FLOATS),
                          min_size=m * k, max_size=m * k))
        x = np.array(x, dtype=float).reshape(m, k)
        if name == "nearest_index":
            return name, nearest_index, (lat.space, x), {}, False
        return name, evaluate_field, (lat.space, sol.Y[0], x), {}, False
    if name == "admissible_betas":
        return name, admissible_betas, (lat, draw(BETAS)), {}, False
    if name == "exp_cell_weights":
        beta = draw(st.one_of(st.floats(0.0, 800.0), ODD_FLOATS))
        return name, exp_cell_weights, (lat.time, beta), {}, False
    if name == "TimeGrid":
        horizon = draw(st.one_of(st.floats(0.1, 5.0), ODD_FLOATS))
        steps = draw(SIZES)
        return name, lambda h, n: TimeGrid(horizon=h, steps=n).times(), (horizon, steps), {}, False
    if name == "apriori_check":
        kwargs = {"betas": draw(st.one_of(st.none(), BETAS)),
                  "mu": draw(st.one_of(st.floats(0.1, 10.0), ODD_FLOATS)),
                  "nu": draw(st.one_of(st.floats(0.1, 10.0), ODD_FLOATS))}
        p2 = params(d, payoffs(draw, d), "constant")
        return name, apriori_check, (p, p2, lat), kwargs, p2.terminal.n != 1
    if name == "representation_bound_check":
        kwargs = {"betas": draw(st.one_of(st.none(), BETAS))}
        return name, representation_bound_check, (payoffs(draw, d), lat), kwargs, False
    terms = [abs_payoff] + [payoffs(draw, d) for _ in range(draw(st.integers(0, 3)))]
    beta = draw(st.one_of(st.floats(0.0, 50.0), ODD_FLOATS))
    return name, cauchy_sequence_check, (terms, lat, beta), {}, any(t.n != 1 for t in terms)


def assert_finite(value, where):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if hasattr(value, "lattice"):       # a solution: its value field
            value = value.Y
        else:
            value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, tuple)):
        for v in value:
            assert_finite(v, where)
    elif isinstance(value, (float, np.floating, np.ndarray)):     # ints are finite
        assert np.all(np.isfinite(value)), (where, value)


@given(calls())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_library_fuzz_ends_in_finite_results_or_a_gcalc_error(call):
    name, fn, args, kwargs, must_raise = call
    try:
        result = fn(*args, **kwargs)
    except GcalcError:
        return
    assert not must_raise, f"{name} compared payoffs with different component counts"
    assert_finite(result, name)
