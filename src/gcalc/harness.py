"""Numerical verification of the stability and representation estimates.

Every check here evaluates both sides of an inequality that the solver's
fixed point is supposed to satisfy, on the same lattice the solution was
computed on.  Norm-type quantities use the worst-case exponentially weighted
L2 norm; plain expectations are worst-case lattice expectations.  Two
constant conventions are evaluated side by side: the sharp per-inequality
constants {1/s_min, 3/s_min, 1/s_min^2} (s_min the smallest lower volatility)
and a uniform conservative 5/s_min^2.  The sharp set is dimensionally
awkward, so a sharp-set failure is reported but never treated as fatal; the
conservative set is the one acceptance rides on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import (MAX_EXPONENT, _layerwise_norms, _state_expectation,
                       exp_cell_weights, weighted_norms)
from .errors import InputError, WeightOverflowError
from .scenario import Lattice, TerminalFunctional, _sweep
from .solver import (BsdeSolution, GBsdeParams, _g_corner_value, _triple_sq,
                     represent_martingale, solve_gbsde)

#: Default exponent grid for the stability estimates.
BETA_GRID = tuple(float(2 ** i) for i in range(11))  # 1 .. 1024


def admissible_betas(lattice: Lattice, betas: Optional[Sequence[float]] = None) -> tuple:
    """Filter an exponent grid down to weights that stay representable."""
    src = BETA_GRID if betas is None else tuple(float(b) for b in betas)
    keep = tuple(b for b in src if b * lattice.time.horizon <= MAX_EXPONENT)
    if not keep:
        raise WeightOverflowError("every requested beta overflows the weight range")
    return keep


def _driver_delta_fields(params1: GBsdeParams, params2: GBsdeParams,
                         sol1: BsdeSolution, sol2: BsdeSolution, lattice: Lattice):
    """delta-f and delta-g step processes: each driver on its own solution."""
    times = lattice.time.times()
    df = np.empty_like(sol1.Y)
    dg = np.empty_like(sol1.eta)
    for k in range(lattice.steps + 1):
        f1 = np.asarray(params1.f.fn(times[k], sol1.Y[k], sol1.Z[k], sol1.eta[k]), dtype=float)
        f2 = np.asarray(params2.f.fn(times[k], sol2.Y[k], sol2.Z[k], sol2.eta[k]), dtype=float)
        g1 = np.asarray(params1.g.fn(times[k], sol1.Y[k], sol1.Z[k], sol1.eta[k]), dtype=float)
        g2 = np.asarray(params2.g.fn(times[k], sol2.Y[k], sol2.Z[k], sol2.eta[k]), dtype=float)
        df[k] = f1 - f2
        dg[k] = g1 - g2
    if not (np.isfinite(df).all() and np.isfinite(dg).all()):
        raise InputError("driver produced non-finite values")
    return df, dg


def _curvature_cross_terms(delta_y: np.ndarray, delta_eta: np.ndarray,
                           eta1: np.ndarray, eta2: np.ndarray,
                           lattice: Lattice, betas: Sequence[float]) -> list:
    """Worst case of the weighted time integral of the curvature cross terms
    2 dY . (G(eta1) - G(eta2)) dt - dY . dEta : d<bracket>, one per beta,
    from one sweep with the betas on the trailing axis."""
    weights = np.stack([exp_cell_weights(lattice.time, b) for b in betas], axis=-1)
    g_gap = _g_corner_value(eta1, lattice) - _g_corner_value(eta2, lattice)
    a_field = 2.0 * np.sum(delta_y * g_gap, axis=-1)          # (layers, *grid)
    b_field = np.einsum("...i,...ij->...j", delta_y, delta_eta)

    def step_cost(k, c):
        return (a_field[k] - b_field[k] @ lattice.combos[c])[..., None] * weights[k]

    zero = np.zeros(lattice.space.shape + (len(betas),))
    return _sweep(lattice, zero, step_cost)[lattice.origin_index].tolist()


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
    def bracket(self) -> float:
        return self.term_terminal + self.term_f + self.term_g

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
    mu: float
    nu: float
    constants_printed: tuple         # (1/s_min, 3/s_min, 1/s_min^2)
    constant_conservative: float     # 5/s_min^2
    eta_mismatch: bool               # equal Y fields but diverging curvature

    @property
    def ok(self) -> bool:
        """Conservative-constant verdict: some scanned beta passes."""
        return self.beta0_conservative is not None


def apriori_check(params1: GBsdeParams, params2: GBsdeParams, lattice: Lattice,
                  betas: Optional[Sequence[float]] = None, mu: float = 1.0,
                  nu: float = 1.0, tol: float = 1e-10,
                  solutions: Optional[tuple] = None) -> AprioriReport:
    """Evaluate the three parameter-stability inequalities on a beta grid.

    Solves both equations (or reuses `solutions`), forms the field deltas,
    and compares each squared weighted norm against the shared right-side
    bracket under both constant conventions. The smallest passing beta per
    convention is reported; the conservative verdict is the operative one.
    """
    if mu <= 0.0 or nu <= 0.0:
        raise InputError("penalty weights mu, nu must be positive")
    if solutions is None:
        sol1, _ = solve_gbsde(params1, lattice, tol=tol)
        sol2, _ = solve_gbsde(params2, lattice, tol=tol)
    else:
        sol1, sol2 = solutions
    scan = admissible_betas(lattice, betas)
    d_y = sol1.Y - sol2.Y
    d_z = sol1.Z - sol2.Z
    d_eta = sol1.eta - sol2.eta
    d_f, d_g = _driver_delta_fields(params1, params2, sol1, sol2, lattice)

    s_min = math.sqrt(lattice.box.sigma_min_sq)
    c_printed = (1.0 / s_min, 3.0 / s_min, 1.0 / (s_min * s_min))
    c_cons = 5.0 / (s_min * s_min)
    s_max_sq = lattice.box.sigma_max_sq
    term_y_t = _state_expectation(lattice, np.sum(d_y[-1] ** 2, axis=-1), lattice.steps)

    norms = weighted_norms((d_y, d_z, d_eta, d_f, d_g), lattice, scan).tolist()
    cross = _curvature_cross_terms(d_y, d_eta, sol1.eta, sol2.eta, lattice, scan)
    rows = []
    for b, n_y, n_z, n_eta, n_f, n_g, cross_b in zip(scan, *norms, cross):
        lhs_y = n_y ** 2
        lhs_z = n_z ** 2
        lhs_eta = n_eta ** 2
        t_term = math.exp(b * lattice.time.horizon) * term_y_t
        t_f = n_f ** 2 / mu ** 2
        t_g = s_max_sq * n_g ** 2 / nu ** 2
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

    mismatch = (float(np.max(np.abs(d_y))) < 1e-12
                and float(np.max(np.abs(d_eta))) > 1e-8)
    return AprioriReport(rows=tuple(rows),
                         beta0_printed=first_pass(lambda r: r.all_printed),
                         beta0_conservative=first_pass(lambda r: r.all_conservative),
                         mu=mu, nu=nu, constants_printed=c_printed,
                         constant_conservative=c_cons, eta_mismatch=mismatch)


# ---------------------------------------------------------------------------
# Running-maximum estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupEstimateReport:
    beta: float
    lhs_upper: float      # certified upper estimate of E[sup exp(beta t)|dY|^2]
    lhs_lower: float      # Monte Carlo realized-sup lower estimate
    rhs: float            # 3 * bracket
    exact_dp: bool        # True when the running-max recursion was used
    ok: bool


def _running_max_dp(phi: np.ndarray, lattice: Lattice, levels: int = 257) -> float:
    """Worst-case expected running maximum of a layer-indexed grid field.

    One-dimensional state only. The running maximum is tracked on a level
    grid; level assignment rounds up, so the result is a certified upper
    estimate that becomes exact as the level grid refines.
    """
    steps = lattice.steps
    grid = np.unique(np.quantile(phi, np.linspace(0.0, 1.0, levels)))
    grid[-1] = phi.max()
    m = grid.shape[0]
    lev = np.searchsorted(grid, phi, side="left")     # smallest level >= value
    lev = np.minimum(lev, m - 1)
    values = np.maximum(grid[None, :], phi[steps][:, None])   # (p, m)
    level_ids = np.arange(m)[None, :]
    for k in range(steps - 1, -1, -1):
        padded = lattice.edge_pad(values, 0)
        padded_lev = lattice.edge_pad(lev[k + 1], 0)
        best = None
        for moves in lattice.moves[0]:
            acc = np.zeros(values.shape)
            for rows, w in moves:
                j = np.maximum(level_ids, padded_lev[rows][:, None])
                acc += w * np.take_along_axis(padded[rows], j, axis=1)
            best = acc if best is None else np.maximum(best, acc)
        own = np.maximum(grid[None, :], phi[k][:, None])
        values = np.maximum(best, own)
    j0 = lev[0][lattice.origin_index[0]]
    return float(values[lattice.origin_index[0], j0])


def _realized_sup_mc(phi, lattice: Lattice, n_paths: int = 512, seed: int = 31) -> float:
    """Expected path maximum under upper-corner covariance; a lower estimate."""
    rng = np.random.default_rng(seed)
    d = lattice.d
    dt = lattice.dt
    sig2 = lattice.box.upper
    x = np.zeros((n_paths, d))
    from .scenario import nearest_index
    best = np.full(n_paths, -np.inf)
    for k in range(lattice.steps + 1):
        idx = nearest_index(lattice.space, x)
        best = np.maximum(best, phi[(k,) + idx])
        if k < lattice.steps:
            signs = rng.integers(0, 2, size=(n_paths, d)) * 2.0 - 1.0
            x = x + np.sqrt(sig2 * dt) * signs
    return float(np.mean(best))


def sup_estimate_check(params1: GBsdeParams, params2: GBsdeParams, lattice: Lattice,
                       beta: float, mu: float = 1.0, nu: float = 1.0,
                       tol: float = 1e-10,
                       solutions: Optional[tuple] = None) -> SupEstimateReport:
    """Check the running-maximum estimate E[sup exp(bt)|dY_t|^2] <= 3 bracket.

    For one-dimensional state the left side is evaluated by an exact-in-the-
    limit running-max recursion (certified upper estimate); otherwise by the
    global field maximum, which is cruder but still an upper bound. A Monte
    Carlo realized-sup lower estimate is reported alongside.
    """
    if solutions is None:
        sol1, _ = solve_gbsde(params1, lattice, tol=tol)
        sol2, _ = solve_gbsde(params2, lattice, tol=tol)
    else:
        sol1, sol2 = solutions
    (beta,) = admissible_betas(lattice, (beta,))
    d_y = sol1.Y - sol2.Y
    d_f, d_g = _driver_delta_fields(params1, params2, sol1, sol2, lattice)
    times = lattice.time.times()
    weights_t = np.exp(beta * times).reshape((-1,) + (1,) * lattice.d)
    phi = weights_t * np.sum(d_y ** 2, axis=-1)     # (layers, *grid)

    if lattice.d == 1:
        lhs_upper = _running_max_dp(phi, lattice)
        exact = True
    else:
        lhs_upper = float(phi.max())
        exact = False
    lhs_lower = _realized_sup_mc(phi, lattice)

    term_y_t = _state_expectation(lattice, np.sum(d_y[-1] ** 2, axis=-1), lattice.steps)
    (n_f,), (n_g,) = weighted_norms((d_f, d_g), lattice, (beta,)).tolist()
    bracket = (math.exp(beta * lattice.time.horizon) * term_y_t
               + n_f ** 2 / mu ** 2
               + lattice.box.sigma_max_sq * n_g ** 2 / nu ** 2)
    rhs = 3.0 * bracket
    ok = lhs_upper <= rhs + 1e-12 * (1.0 + rhs)
    return SupEstimateReport(beta=beta, lhs_upper=lhs_upper, lhs_lower=lhs_lower,
                             rhs=rhs, exact_dp=exact, ok=ok)


# ---------------------------------------------------------------------------
# Representation and Cauchy-sequence bounds
# ---------------------------------------------------------------------------

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
    payoff_second_moment: float

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
    sol = represent_martingale(terminal, lattice)
    scan = admissible_betas(lattice, betas)
    xi_sq = np.sum(sol.Y[-1] ** 2, axis=-1)
    moment = _state_expectation(lattice, xi_sq, lattice.steps)
    factor = 5.0 / lattice.box.sigma_min_sq
    (lhs_by_beta,) = _triple_sq(weighted_norms((sol.Y, sol.Z, sol.eta), lattice, scan))
    rows = []
    beta0 = None
    for b, lhs in zip(scan, lhs_by_beta):
        rhs = factor * math.exp(b * lattice.time.horizon) * moment
        ok = lhs <= rhs + 1e-12 * (1.0 + rhs)
        rows.append(RepresentationRow(beta=b, lhs=lhs, rhs=rhs, ok=ok))
        if ok and beta0 is None:
            beta0 = b
    return RepresentationReport(rows=tuple(rows), beta0=beta0,
                                payoff_second_moment=moment)


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

    Every pair of payoffs in the sequence must satisfy the same bound the
    representation check uses, with the right side driven by the worst-case
    second moment of the payoff difference. Shrinking payoff gaps must pull
    the solution triples together (the Cauchy property on the lattice).
    """
    if len(terminals) < 2:
        raise InputError("need at least two payoffs to compare")
    (beta,) = admissible_betas(lattice, (beta,))
    sols = [represent_martingale(t, lattice) for t in terminals]
    factor = 5.0 / lattice.box.sigma_min_sq
    horizon = lattice.time.horizon
    index_pairs = [(m, n) for m in range(len(sols)) for n in range(m + 1, len(sols))]

    def pair_gaps(k):
        # formed per layer: all pair differences at once would add
        # 3 * len(index_pairs) full fields to the peak memory
        return [getattr(sols[m], f)[k] - getattr(sols[n], f)[k]
                for m, n in index_pairs for f in ("Y", "Z", "eta")]

    lhs_by_pair = _triple_sq(_layerwise_norms(pair_gaps, 3 * len(index_pairs),
                                              lattice, (beta,)))
    pairs = []
    for (m, n), (lhs,) in zip(index_pairs, lhs_by_pair):
        gap_sq = np.sum((sols[m].Y[-1] - sols[n].Y[-1]) ** 2, axis=-1)
        moment = _state_expectation(lattice, gap_sq, lattice.steps)
        rhs = factor * math.exp(beta * horizon) * moment
        ok = lhs <= rhs + 1e-12 * (1.0 + rhs)
        pairs.append(CauchyPair(m=m, n=n, lhs=lhs, rhs=rhs,
                                delta_moment=moment, ok=ok))
    return CauchyReport(beta=beta, pairs=tuple(pairs))
