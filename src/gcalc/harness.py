"""Numerical verification of the stability and representation estimates.

Each check evaluates both sides of an inequality that the solver's fixed
point should satisfy, on its lattice, with worst-case exponentially weighted
L2 norms. Two constant sets are evaluated: the sharp {1/s_min, 3/s_min,
1/s_min^2} (s_min the smallest lower volatility), whose failure is reported
but not fatal, and the conservative 5/s_min^2 that acceptance rides on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# BETA_GRID is re-exported: `from gcalc.harness import BETA_GRID` keeps working
from .calculus import (BETA_GRID, _block_layers, _exp_weights, _grouped_sweeps,
                       _layer_reader, _layerwise_norms, _state_expectation,
                       admissible_betas)
from .errors import InputError
from .gtensor import g_corner
from .scenario import Lattice, TerminalFunctional, _sweep
from .solver import (BsdeSolution, GBsdeParams, _driver_fields, _fields_at, _layer_solve,
                     _penalty_sq, _triple_sq)


def _bracket_terms(beta: float, term_y_t: float, n_f: float, n_g: float,
                   squares: tuple, lattice: Lattice) -> tuple:
    """The right-side bracket's three terms: exp(beta T) E|dY_T|^2,
    |df|^2 / mu^2 and s_max^2 |dg|^2 / nu^2. A term that overflows raises
    InputError instead of making the inequality hold trivially."""
    mu2, nu2 = squares
    terms = (math.exp(beta * lattice.time.horizon) * term_y_t, n_f ** 2 / mu2,
             lattice.box.sigma_max_sq * n_g ** 2 / nu2)
    for name, value in zip(("exp(beta T) E|dY_T|^2", "|df|^2/mu^2",
                            "s_max^2 |dg|^2/nu^2"), terms):
        if not math.isfinite(value):
            raise InputError(f"bracket term {name} is not finite at beta={beta:g}")
    return terms


def _curvature_cross_terms(sol1, sol2, lattice: Lattice, betas: Sequence[float]) -> list:
    """Worst case of the weighted time integral of the curvature cross terms
    2 dY . (G(eta1) - G(eta2)) dt - dY . dEta : d<bracket>, one per beta,
    from sweeps with the betas on the trailing axis (_grouped_sweeps)."""
    def cross_fields(ks):
        (y1, _, eta1), (y2, _, eta2) = _fields_at(sol1, ks), _fields_at(sol2, ks)
        delta_y = y1 - y2
        g_gap = g_corner(eta1, lattice.box) - g_corner(eta2, lattice.box)
        return (2.0 * np.sum(delta_y * g_gap, axis=-1),         # (len, *grid)
                np.einsum("...i,...ij->...j", delta_y, eta1 - eta2))

    width = sol1.n * (3 + 6 * lattice.d)

    def group_costs(_, weights):
        read = _layer_reader(cross_fields, _block_layers(lattice, width), lattice.steps)

        def step_cost(k, c):
            a_k, b_k = read(k)
            return (a_k - b_k @ lattice.combos[c])[..., None] * weights[k]

        return {"step_cost": step_cost}

    weights = _exp_weights(lattice.time.times(), betas)
    return _grouped_sweeps(lattice, 1, weights, group_costs)[0].tolist()


@dataclass(frozen=True)
class AprioriRow:
    """Both sides of the three stability inequalities at one exponent."""

    beta: float
    lhs_y: float
    lhs_z: float
    lhs_eta: float
    term_terminal: float      # exp(beta T) * worst-case E |dY_T|^2
    term_f: float             # (1/mu^2) * squared weighted norm of delta f
    term_g: float             # (s_max^2/nu^2) * squared weighted norm of delta g
    c_diag: Optional[float]   # curvature-ratio diagnostic, None if dY == 0
    pass_printed: tuple       # (y, z, eta) verdicts under the sharp constants
    pass_conservative: tuple  # verdicts under the uniform 5/s_min^2

    @property
    def all_printed(self) -> bool:
        return all(self.pass_printed)

    @property
    def all_conservative(self) -> bool:
        return all(self.pass_conservative)


@dataclass(frozen=True)
class AprioriReport:
    rows: tuple                      # AprioriRow per scanned beta
    beta0_printed: Optional[float]   # smallest beta passing all three (sharp)
    beta0_conservative: Optional[float]

    @property
    def ok(self) -> bool:
        """Conservative-constant verdict: some scanned beta passes."""
        return self.beta0_conservative is not None


def apriori_check(params1: GBsdeParams, params2: GBsdeParams, lattice: Lattice,
                  betas: Optional[Sequence[float]] = None, mu: float = 1.0,
                  nu: float = 1.0, solutions: Optional[tuple] = None) -> AprioriReport:
    """Evaluate the three parameter-stability inequalities on a beta grid.

    Compares each squared weighted norm of the field deltas of both
    solutions (the fixed points of a layer solve each, or `solutions`)
    against the shared right-side bracket under both constant sets and
    reports the smallest passing beta of each; the conservative verdict is
    the operative one.
    """
    squares = _penalty_sq("mu", mu), _penalty_sq("nu", nu)
    if params1.terminal.n != params2.terminal.n:
        raise InputError("payoffs must have the same number of components")
    sol1, sol2 = solutions or (_layer_solve(params1, lattice), _layer_solve(params2, lattice))
    scan = admissible_betas(lattice, betas)

    def deltas(ks):
        """The Y, Z, eta and driver deltas over a slice of layers."""
        fields1, fields2 = _fields_at(sol1, ks), _fields_at(sol2, ks)
        f1, g1 = _driver_fields(params1, lattice, ks, *fields1)
        f2, g2 = _driver_fields(params2, lattice, ks, *fields2)
        d_f, d_g = f1 - f2, g1 - g2
        if not (np.isfinite(d_f).all() and np.isfinite(d_g).all()):
            raise InputError("driver produced non-finite values")
        return tuple(a - b for a, b in zip(fields1, fields2)) + (d_f, d_g)

    width = sol1.n * (4 + 9 * lattice.d)
    deltas(slice(lattice.steps, None))   # no norm reads the last layer's drivers
    d_y_t = sol1.Y[-1] - sol2.Y[-1]
    term_y_t = _state_expectation(lattice, np.sum(d_y_t ** 2, axis=-1), lattice.steps)
    s_min = math.sqrt(lattice.box.sigma_min_sq)
    c_printed = (1.0 / s_min, 3.0 / s_min, 1.0 / (s_min * s_min))
    c_cons = 5.0 / (s_min * s_min)

    norms = _layerwise_norms(deltas, 5, lattice, scan, width).tolist()
    cross = _curvature_cross_terms(sol1, sol2, lattice, scan)
    rows = []
    for b, n_y, n_z, n_eta, n_f, n_g, cross_b in zip(scan, *norms, cross):
        lhs_y = n_y ** 2
        lhs_z = n_z ** 2
        lhs_eta = n_eta ** 2
        t_term, t_f, t_g = _bracket_terms(b, term_y_t, n_f, n_g, squares, lattice)
        bracket = t_term + t_f + t_g
        slack = 1e-12 * (1.0 + bracket)
        printed = tuple(lhs <= c * bracket + slack
                        for lhs, c in zip((lhs_y, lhs_z, lhs_eta), c_printed))
        cons = tuple(lhs <= c_cons * bracket + slack
                     for lhs in (lhs_y, lhs_z, lhs_eta))
        # curvature-ratio diagnostic: cross terms plus s_min^2 |dEta|^2 over |dY|^2
        c_diag = ((cross_b + lattice.box.sigma_min_sq * lhs_eta) / lhs_y
                  if lhs_y > 0.0 else None)
        rows.append(AprioriRow(beta=b, lhs_y=lhs_y, lhs_z=lhs_z, lhs_eta=lhs_eta,
                               term_terminal=t_term, term_f=t_f, term_g=t_g,
                               c_diag=c_diag, pass_printed=printed,
                               pass_conservative=cons))

    def first_pass(key):
        for r in rows:
            if key(r):
                return r.beta
        return None

    return AprioriReport(rows=tuple(rows),
                         beta0_printed=first_pass(lambda r: r.all_printed),
                         beta0_conservative=first_pass(lambda r: r.all_conservative))


# ---------------------------------------------------------------------------
# Representation and Cauchy-sequence bounds
# ---------------------------------------------------------------------------

def _bound_rhs(beta: float, moment: float, lattice: Lattice) -> float:
    """The right side (5/s_min^2) exp(beta T) moment of the representation
    and Cauchy bounds. A side that overflows raises InputError instead of
    making the bound hold trivially."""
    rhs = 5.0 / lattice.box.sigma_min_sq * math.exp(beta * lattice.time.horizon) * moment
    if not math.isfinite(rhs):
        raise InputError(f"bound right side (5/s_min^2) exp(beta T) moment is not "
                         f"finite at beta={beta:g}")
    return rhs


def _value_solution(terminals: Sequence[TerminalFunctional], lattice: Lattice) -> BsdeSolution:
    """represent_martingale's Y bits of payoffs with equal component counts,
    side by side on the trailing axis, from one no-policy sweep: no bound
    reads a policy."""
    if len({t.n for t in terminals}) > 1:
        raise InputError("payoffs must have the same number of components")
    values = np.concatenate([t.evaluate(lattice.states) for t in terminals], axis=-1)
    y = _sweep(lattice, values, store=(slice(None),) * lattice.d)
    return BsdeSolution(lattice=lattice, Y=y, policy_idx=None, g_field=None)


@dataclass(frozen=True)
class RepresentationRow:
    beta: float
    lhs: float    # squared weighted norms of (value, gradient, curvature)
    rhs: float    # (5/s_min^2) exp(beta T) E[payoff^2]
    ok: bool


@dataclass(frozen=True)
class RepresentationReport:
    rows: tuple
    beta0: Optional[float]

    @property
    def ok(self) -> bool:
        return self.beta0 is not None


def representation_bound_check(terminal: TerminalFunctional, lattice: Lattice,
                               betas: Optional[Sequence[float]] = None) -> RepresentationReport:
    """Check the decomposition-norm bound for a worst-case martingale.

    The squared weighted norms of the value, gradient, and curvature fields
    must together stay below (5/s_min^2) exp(beta T) times the worst-case
    second moment of the payoff, for every large-enough exponent.
    """
    sol = _value_solution([terminal], lattice)
    scan = admissible_betas(lattice, betas)
    xi_sq = np.sum(sol.Y[-1] ** 2, axis=-1)
    moment = _state_expectation(lattice, xi_sq, lattice.steps)
    (lhs_by_beta,) = _triple_sq(_layerwise_norms(
        lambda ks: _fields_at(sol, ks), 3, lattice, scan, 2 * sol.n * lattice.d))
    rows = []
    beta0 = None
    for b, lhs in zip(scan, lhs_by_beta):
        rhs = _bound_rhs(b, moment, lattice)
        ok = lhs <= rhs + 1e-12 * (1.0 + rhs)
        rows.append(RepresentationRow(beta=b, lhs=lhs, rhs=rhs, ok=ok))
        if ok and beta0 is None:
            beta0 = b
    return RepresentationReport(rows=tuple(rows), beta0=beta0)


@dataclass(frozen=True)
class CauchyPair:
    m: int
    n: int
    lhs: float          # squared weighted triple distance of the solutions
    rhs: float          # (5/s_min^2 (1 + negligible)) exp(beta T) E[(xi_m - xi_n)^2]
    delta_moment: float # worst-case E[(xi_m - xi_n)^2]
    ok: bool


@dataclass(frozen=True)
class CauchyReport:
    beta: float
    pairs: tuple

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)


def cauchy_sequence_check(terminals: Sequence[TerminalFunctional], lattice: Lattice,
                          beta: float) -> CauchyReport:
    """Pairwise solution distances against payoff distances at a shared beta.

    Every pair of payoffs must satisfy the representation bound with the
    worst-case second moment of the payoff difference on the right, so
    shrinking payoff gaps pull the solution triples together.
    """
    if len(terminals) < 2:
        raise InputError("need at least two payoffs to compare")
    (beta,) = admissible_betas(lattice, (beta,))
    sol = _value_solution(terminals, lattice)
    count = len(terminals)
    index_pairs = [(m, n) for m in range(count) for n in range(m + 1, count)]

    def pair_gaps(ks):   # one difference at a time: each is squared and let go
        y, z, eta = _fields_at(sol, ks)    # each payoff's columns in turn
        fields = list(zip(np.split(y, count, -1), np.split(z, count, -1),
                          np.split(eta, count, -2)))
        return (a - b for m, n in index_pairs for a, b in zip(fields[m], fields[n]))

    lhs_by_pair = _triple_sq(_layerwise_norms(
        pair_gaps, 3 * len(index_pairs), lattice, (beta,),
        (count + 1) * terminals[0].n * (1 + 2 * lattice.d)))
    y_t = np.split(sol.Y[-1], count, axis=-1)
    gap_sq = np.stack([np.sum((y_t[m] - y_t[n]) ** 2, axis=-1)
                       for m, n in index_pairs], axis=-1)
    moments = _sweep(lattice, gap_sq)[lattice.origin_index].tolist()
    pairs = []
    for (m, n), (lhs,), moment in zip(index_pairs, lhs_by_pair, moments):
        rhs = _bound_rhs(beta, moment, lattice)
        ok = lhs <= rhs + 1e-12 * (1.0 + rhs)
        pairs.append(CauchyPair(m=m, n=n, lhs=lhs, rhs=rhs,
                                delta_moment=moment, ok=ok))
    return CauchyReport(beta=beta, pairs=tuple(pairs))
