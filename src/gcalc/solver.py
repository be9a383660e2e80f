"""Second-order BSDE engine under volatility uncertainty.

A worst-case value field Y is decomposed into a gradient integrand Z, a
curvature integrand eta (shifted by twice the bracket driver so the pathwise
budget identity closes under every admissible control) and a nondecreasing
compensator K that vanishes under the argmax policy. A Picard loop solves
the coupled equation and reports its contraction; a layer solve finds the
same fixed point one layer at a time for callers that need no report, and
its single-control case is the degenerate-box oracle.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DegenerateBoxError, InputError
from .gtensor import g_corner
from .scenario import (Lattice, TerminalFunctional, _increment, _sweep, _walk,
                       conditional_expectation_field, evaluate_field,
                       nearest_index)
from .calculus import (_block_layers, _layer_reader, _layerwise_norms, _rng,
                       admissible_betas, weighted_norms)

#: Default grid scanned for the smallest weight exponent with certified
#: per-iteration contraction.
BETA_SCAN = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: A residual_check loop stores (steps + 1) d floats per path, its positions,
#: and at most 2 steps REPLAY_BATCH_PATHS floats: about 2 REPLAY_BATCH_PATHS
#: paths in 1-d.
REPLAY_BATCH_PATHS = 768


@dataclass(frozen=True)
class Driver:
    """One BSDE driver term. fn(t, y, z, eta) must broadcast over state
    layers: y (..., n), z (..., d, n), eta (..., n, d). A dt-driver returns
    (..., n); a bracket driver returns diagonal coefficients (..., n, d)."""

    fn: Callable
    lipschitz: float
    name: str = "custom"

    def __post_init__(self):
        if self.lipschitz < 0 or not math.isfinite(self.lipschitz):
            raise InputError("driver Lipschitz constant must be finite and nonnegative")


def zero_dt_driver(n: int) -> Driver:
    return Driver(fn=lambda t, y, z, eta: np.zeros(y.shape[:-1] + (n,)),
                  lipschitz=0.0, name="zero")


def zero_qv_driver(n: int, d: int) -> Driver:
    return Driver(fn=lambda t, y, z, eta: np.zeros(y.shape[:-1] + (n, d)),
                  lipschitz=0.0, name="zero")


@dataclass(frozen=True)
class GBsdeParams:
    """Terminal payoff plus the two Lipschitz drivers of the equation."""

    terminal: TerminalFunctional
    f: Driver
    g: Driver

    @property
    def lipschitz(self) -> float:
        return max(self.f.lipschitz, self.g.lipschitz)

    def spot_check(self, d: int) -> None:
        """Probe 32 random argument pairs in [-4, 4] against the declared
        Lipschitz bounds, with relative slack 1e-6."""
        n, scale, rtol = self.terminal.n, 4.0, 1e-6
        rng = random.Random(0)   # numpy.random's import would add ~6 MB to a run's peak RSS
        draw = lambda *s: np.reshape([rng.uniform(-scale, scale) for _ in range(math.prod(s))], s)
        for _ in range(32):
            y1, y2 = draw(2, n)
            z1, z2 = draw(2, d, n)
            e1, e2 = draw(2, n, d)
            dist = (np.linalg.norm(y1 - y2) + np.linalg.norm(z1 - z2)
                    + np.linalg.norm(e1 - e2))
            t = rng.uniform(0.0, 1.0)
            args = ((y1, z1, e1), (y2, z2, e2))
            f1, f2 = (np.asarray(self.f.fn(t, *a), dtype=float) for a in args)
            g1, g2 = (np.asarray(self.g.fn(t, *a), dtype=float) for a in args)
            if not all(np.isfinite(v).all() for v in (f1, f2, g1, g2)):
                raise InputError("driver produced non-finite values")
            df = np.linalg.norm(f1 - f2)
            dg = np.linalg.norm(g1 - g2)
            if df > self.f.lipschitz * dist * (1 + rtol) + 1e-12:
                raise InputError(f"dt-driver '{self.f.name}' violates its Lipschitz bound")
            if dg > self.g.lipschitz * dist * (1 + rtol) + 1e-12:
                raise InputError(f"bracket driver '{self.g.name}' violates its Lipschitz bound")


@dataclass
class BsdeSolution:
    """Lattice solution fields. Shapes: Y (steps+1, *grid, n); policy_idx
    and K_inc (steps, *grid, n); g_field, the bracket coefficients,
    (steps+1, *grid, n, d) or None (no curvature shift). Z (.., d, n) and
    eta (.., n, d) are derived: package readers take blocks of layers from
    integrands(ks); the full stacks are built on first read."""

    lattice: Lattice
    Y: np.ndarray
    policy_idx: np.ndarray
    g_field: Optional[np.ndarray]

    @property
    def n(self) -> int:
        return self.Y.shape[-1]

    @property
    def y0(self) -> np.ndarray:
        return self.Y[(0,) + self.lattice.origin_index]

    def integrands(self, ks: slice) -> tuple:
        """(Z, eta) over the layers ks."""
        g = None if self.g_field is None else self.g_field[ks]
        return extract_integrands(self.Y[ks], self.lattice, g)

    _stacks = functools.cached_property(lambda self: self.integrands(slice(None)))
    Z = property(lambda self: self._stacks[0])
    eta = property(lambda self: self._stacks[1])

    @functools.cached_property
    def K_inc(self) -> np.ndarray:
        """Per-step compensator increments under the argmax policy, derived
        from eta a block of layers at a time on first read; nonnegative
        because the policy stays inside the box."""
        lat = self.lattice
        steps = self.policy_idx.shape[0]
        out = np.empty(self.policy_idx.shape)
        size = _block_layers(lat, 3 * lat.d * self.n)
        for ks in (slice(k, min(k + size, steps)) for k in range(0, steps, size)):
            eta = self.integrands(ks)[1]
            out[ks] = _compensator_increments(g_corner(eta, lat.box), eta,
                                              lat.combos[self.policy_idx[ks]], lat)
        return out


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    converged: bool
    distances: tuple             # stopping-norm (unweighted) distance trace
    distances_by_beta: dict      # beta -> tuple of squared triple distances, for
                                 # the betas measured at every iteration: scan[0]
                                 # and, once it fails, each later one that never fails
    contraction_factors: tuple   # squared-distance ratios at reporting beta
    beta: Optional[float]        # reporting beta (empirical beta0 when found)
    beta0_empirical: Optional[float]
    theoretical_factor: float


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float            # on-policy reconstruction residual
    terminal_gap: float            # field-vs-payoff gap at the final layer
    off_policy_max_residual: float
    off_policy_min_margin: float   # min of Y_t minus the K-free right side


@dataclass(frozen=True)
class CompensatorReport:
    """Worst-case Monte Carlo estimate of minus the terminal compensator."""

    sup_estimate: float
    sup_se: float
    estimates: np.ndarray
    standard_errors: np.ndarray
    ok: bool


# ---------------------------------------------------------------------------
# Field extraction
# ---------------------------------------------------------------------------

def extract_integrands(values: np.ndarray, lattice: Lattice,
                       g_field: Optional[np.ndarray] = None):
    """Gradient and curvature integrands of a value field (layers, *grid, n):
    central differences, one-sided at the edges (np.gradient, edge_order=1),
    and second differences, the edges copied from the adjacent interior node,
    plus twice the bracket-driver coefficients, which the bracket picks up
    in the budget identity."""
    z = np.empty(values.shape[:-1] + (lattice.d, values.shape[-1]))
    eta = np.empty(values.shape + (lattice.d,))
    for a, h in enumerate(lattice.space.spacing):
        lead = (slice(None),) * (1 + a)    # index tuples along grid axis a
        hi, lo, mid, first, second, last, penult = (lead + (i,) for i in (
            slice(2, None), slice(None, -2), slice(1, -1), 0, 1, -1, -2))
        v, dz, de = values, z[..., a, :], eta[..., a]
        # in place: (v[hi] - v[lo]) / (2 h), ((v[hi] - 2 v[mid]) + v[lo]) / h^2
        for out, i, j, step in ((dz[mid], hi, lo, 2.0 * h), (dz[first], second, first, h),
                                (dz[last], last, penult, h)):
            np.subtract(v[i], v[j], out=out)
            out /= step
        curv = np.multiply(2.0, v[mid], out=de[mid])
        np.subtract(v[hi], curv, out=curv)
        curv += v[lo]
        curv /= h * h
        de[first], de[last] = de[second], de[penult]
    if g_field is not None:
        eta += 2.0 * g_field
    return z, eta


def _compensator_increments(g: np.ndarray, eta: np.ndarray, sig2: np.ndarray,
                            lattice: Lattice) -> np.ndarray:
    """Compensator increments (G - half eta : sig2) * dt per trailing (d,)
    row of eta and of the covariance diagonals sig2, given G = G(eta)."""
    return (g - 0.5 * np.sum(eta * sig2, axis=-1)) * lattice.dt


def _fields_at(fields, ks: slice) -> tuple:
    """(Y, Z, eta) over the layers ks of a solution or of a (Y, Z, eta)
    tuple of stacks, whose blocks are made contiguous like a solution's."""
    if isinstance(fields, BsdeSolution):
        return (fields.Y[ks],) + fields.integrands(ks)
    return tuple(np.ascontiguousarray(a[ks]) for a in fields)


def represent_martingale(terminal: TerminalFunctional, lattice: Lattice) -> BsdeSolution:
    """Decompose the worst-case conditional expectation of a payoff."""
    fld = conditional_expectation_field(lattice, terminal)
    return BsdeSolution(lattice=lattice, Y=fld.values, policy_idx=fld.policy_idx,
                        g_field=None)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def _driver_fields(params: GBsdeParams, lattice: Lattice, ks: slice,
                   y: np.ndarray, z: np.ndarray, eta: np.ndarray):
    """Evaluate both drivers layer by layer over the layers ks, given the
    frozen input fields on them."""
    times = lattice.time.times()[ks]
    f_vals = np.empty(y.shape)
    g_vals = np.empty(y.shape + (lattice.d,))
    for i, t in enumerate(times):
        f_vals[i] = np.asarray(params.f.fn(t, y[i], z[i], eta[i]), dtype=float)
        g_vals[i] = np.asarray(params.g.fn(t, y[i], z[i], eta[i]), dtype=float)
    if not (np.isfinite(f_vals).all() and np.isfinite(g_vals).all()):
        raise InputError("driver produced non-finite values")
    return f_vals, g_vals


def picard_step(inputs, params: GBsdeParams, lattice: Lattice) -> BsdeSolution:
    """One contraction-map application on frozen input fields: a (y, z, eta)
    tuple of stacks, or the previous iterate. The drivers enter the backward
    maximization as running cost (f + g : sigma2) * dt; the new g_field is a
    zero-stride +0.0 field while every bracket coefficient is +0.0."""
    terminal_values = params.terminal.evaluate(lattice.states)
    dt, steps = lattice.dt, lattice.steps
    kept = None   # the bracket coefficients, once one is not +0.0

    def drivers(ks):
        nonlocal kept
        f_vals, g_vals = _driver_fields(params, lattice, ks, *_fields_at(inputs, ks))
        if kept is None and (g_vals.any() or np.signbit(g_vals).any()):
            kept = np.zeros((steps + 1,) + g_vals.shape[1:])
        if kept is not None:
            kept[ks] = g_vals
        return f_vals, g_vals

    n, d = params.terminal.n, lattice.d
    read = _layer_reader(drivers, _block_layers(lattice, n * (2 + 3 * d)), steps + 1)
    read(steps)   # the last layer's drivers are checked and kept like the others

    def step_cost(k, c):
        f_k, g_k = read(k)
        return (f_k + g_k @ lattice.combos[c]) * dt

    values, policy = _sweep(lattice, terminal_values, step_cost, store=True)
    if kept is None:
        kept = np.broadcast_to(0.0, values.shape + (d,))
    return BsdeSolution(lattice=lattice, Y=values, policy_idx=policy, g_field=kept)


def _zero_fields(lattice: Lattice, n: int):
    """Zero (Y, Z, eta) fields as zero-stride views."""
    shape = (lattice.steps + 1,) + lattice.space.shape
    return tuple(np.broadcast_to(0.0, shape + tail)
                 for tail in ((n,), (lattice.d, n), (n, lattice.d)))


def default_penalties(params: GBsdeParams, lattice: Lattice) -> tuple:
    """Default squared penalty weights scaled off the contraction budget."""
    c = params.lipschitz
    if c == 0.0:
        return 1.0, 1.0
    m2 = 20.0 * c * max(1.0, lattice.box.sigma_max_sq) / lattice.box.sigma_min_sq
    return m2, m2


def _triple_sq(norms: np.ndarray) -> list:
    """Squared triple norms from a weighted-norm table whose rows come in
    (Y, Z, eta) threes: one list per triple with one entry per beta, each
    the three squared norms summed as Python floats in that order."""
    rows = norms.tolist()
    return [[y ** 2 + z ** 2 + e ** 2 for y, z, e in zip(*rows[i:i + 3])]
            for i in range(0, len(rows), 3)]


def triple_distance_sq(delta_y, delta_z, delta_eta, lattice: Lattice, beta: float) -> float:
    """Squared weighted norm of a (Y, Z, eta) field triple difference."""
    return _triple_sq(weighted_norms((delta_y, delta_z, delta_eta), lattice, (beta,)))[0][0]


def _distance_sq(step: BsdeSolution, fields, lattice: Lattice, betas: tuple) -> list:
    """Squared weighted triple distance between an iterate and its input
    fields, one entry per beta, formed a block of layers at a time."""
    def deltas(ks):
        return [a - b for a, b in zip(_fields_at(step, ks), _fields_at(fields, ks))]

    width = 3 * step.n * (1 + 2 * lattice.d)
    return _triple_sq(_layerwise_norms(deltas, 3, lattice, betas, width))[0]


def _factors(sq: list, tol: float) -> tuple:
    """Squared contraction factors of one beta's squared distance trace:
    ratios of successive entries whose earlier entry clears the noise floor."""
    floor = max(tol * tol, 1e-28) * 100.0
    return tuple(sq[i + 1] / sq[i] for i in range(len(sq) - 1) if sq[i] > floor)


def _penalty_sq(name: str, value: float) -> float:
    """The square of the penalty weight `name`, which must be positive with
    a square and a reciprocal square that are finite and nonzero floats."""
    try:
        sq = float(value) ** 2
    except OverflowError:
        sq = math.inf
    if not (value > 0.0 and 0.0 < sq < math.inf and math.isfinite(1.0 / sq)):
        raise InputError(f"{name}: must be positive with {name}^2 and 1/{name}^2 "
                         f"finite and nonzero, got {value!r}")
    return sq


def solve_gbsde(params: GBsdeParams, lattice: Lattice, beta: Optional[float] = None,
                mu: Optional[float] = None, nu: Optional[float] = None,
                tol: float = 1e-9, max_iter: int = 60,
                initial: Optional[tuple] = None) -> tuple:
    """Iterate the contraction map to its fixed point.

    Starts from `initial`, a (Y, Z, eta) tuple of fields, or from zero.
    Stops when the unweighted triple distance between successive iterates
    falls below tol. Without beta, BETA_SCAN is searched for the smallest
    weight whose measured squared contraction stays within the theoretical
    factor (beta0_empirical). Raises InputError for a max_iter that is not
    an integer >= 1, a tol that is not positive and finite, an initial tuple
    without the (Y, Z, eta) shapes, or a mu or nu without a finite nonzero
    square and reciprocal square, and ConvergenceError (with the distance
    trace) at max_iter or at a distance that is not finite.

    The scan is lazy: a failed beta can never become beta0, and no later
    beta matters while scan[0] passes. Each iteration measures beta 0 (the
    stopping test) and scan[0]; once scan[0] fails, the iteration restarts
    from the starting fields and measures every scan beta, each until it
    fails. Every reported number equals the full scan's.
    """
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise InputError("max_iter must be an integer of at least 1")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    want = tuple(a.shape for a in _zero_fields(lattice, params.terminal.n))
    if initial is not None and tuple(map(np.shape, initial)) != want:
        raise InputError(f"initial must be (Y, Z, eta) fields of shapes {want}")
    params.spot_check(lattice.d)
    mu2, nu2 = default_penalties(params, lattice)
    if mu is not None:
        mu2 = _penalty_sq("mu", mu)
    if nu is not None:
        nu2 = _penalty_sq("nu", nu)
    c = params.lipschitz
    theoretical = 5.0 * c / lattice.box.sigma_min_sq * (1.0 / mu2 + 1.0 / nu2)

    scan = admissible_betas(lattice, BETA_SCAN if beta is None else (beta,))

    def starting_fields():
        # rebuilt for the restart rather than kept alive through the iteration
        if initial is None:
            return _zero_fields(lattice, params.terminal.n)
        return tuple(np.asarray(a, dtype=float) for a in initial)

    def failed(sq: list) -> bool:
        fac = _factors(sq, tol)
        return bool(fac) and not max(fac) <= theoretical

    lazy = len(scan) > 1         # scan[1:] is measured only after a restart
    distances, sq_by_beta = [], {scan[0]: []}
    fields = starting_fields()
    while len(distances) < max_iter:
        solution = picard_step(fields, params, lattice)
        betas = tuple(sq_by_beta)
        sq0, *sq_betas = _distance_sq(solution, fields, lattice, (0.0,) + betas)
        dist0 = math.sqrt(sq0)
        distances.append(dist0)
        if not math.isfinite(dist0):
            raise ConvergenceError(
                f"Picard distance is not finite ({dist0}) at iteration "
                f"{len(distances)}", trace=distances)
        for b, sq in zip(betas, sq_betas):
            sq_by_beta[b].append(sq)
        fields = solution
        if lazy and failed(sq_by_beta[scan[0]]):
            # the iterates do not depend on beta, so they repeat bit for bit
            lazy, distances, sq_by_beta = False, [], {b: [] for b in scan}
            del solution
            fields = starting_fields()
            continue
        for b in betas[1:]:   # scan[0] stays for the fallback report
            if failed(sq_by_beta[b]):
                del sq_by_beta[b]
        if dist0 < tol:
            break
    else:
        raise ConvergenceError(
            f"Picard did not converge within {max_iter} iterations (last distance "
            f"{distances[-1]:.3g}, tol {tol:.3g})", trace=distances)

    # beta0 is the first held beta that has not failed, if it has factors
    # (a trace without factors, from a trivial fixed point, certifies none)
    first = next((b for b, sq in sq_by_beta.items() if not failed(sq)), None)
    beta0 = first if first is not None and _factors(sq_by_beta[first], tol) else None
    report_beta = beta0 if beta0 is not None else scan[0]
    report = PicardReport(
        iterations=len(distances), converged=True, distances=tuple(distances),
        distances_by_beta={b: tuple(v) for b, v in sq_by_beta.items()},
        contraction_factors=_factors(sq_by_beta[report_beta], tol),
        beta=report_beta, beta0_empirical=beta0,
        theoretical_factor=theoretical)
    return solution, report


# ---------------------------------------------------------------------------
# Pathwise replay checks
# ---------------------------------------------------------------------------

def _coin_flips(rng: np.random.Generator, steps: int, m: int, d: int) -> np.ndarray:
    """Coin flips of one path group as packed bits, shape (steps, bytes):
    one (steps, m * d) draw reads the stream as `steps` (m, d) draws would.
    int32 reads the same stream as the default int64, at half the transient."""
    return np.packbits(rng.integers(0, 2, size=(steps, m * d), dtype=np.int32), axis=1)


def _signs(flips_k: np.ndarray, m: int, d: int) -> np.ndarray:
    """Increment signs of one step, (groups, bytes) bits -> (groups * m, d)."""
    bits = np.unpackbits(flips_k, axis=-1, count=m * d)
    return bits.reshape(-1, d) * 2.0 - 1.0


def _replay_rng(seed, n_paths: int, min_paths: int, n_controls: int):
    """The generator of a replay check, after its sizes: integers, with
    n_paths >= min_paths and n_controls >= 0, and a seed that _rng takes."""
    if not (isinstance(n_paths, numbers.Integral) and n_paths >= min_paths):
        raise InputError(f"n_paths must be an integer of at least {min_paths}")
    if not (isinstance(n_controls, numbers.Integral) and n_controls >= 0):
        raise InputError("n_controls must be a nonnegative integer")
    return _rng(seed)


def _residual_groups(rng: np.random.Generator, lat: Lattice, n: int,
                     n_paths: int, n_controls: int):
    """Path groups of residual_check as (comp, table, flips), drawn lazily
    in stream order: one argmax-policy group per component (table None),
    then per random control its (steps, d) covariance table followed by
    one group per component."""
    for comp in range(n):
        yield comp, None, _coin_flips(rng, lat.steps, n_paths, lat.d)
    for _ in range(n_controls):
        table = rng.uniform(lat.box.lower, lat.box.upper, size=(lat.steps, lat.d))
        for comp in range(n):
            yield comp, table, _coin_flips(rng, lat.steps, n_paths, lat.d)


def _replay(solution: BsdeSolution, params: GBsdeParams, groups: list,
            m: int) -> list:
    """Replay path groups (comp, table, flips) of m paths, driven by comp's
    argmax policy at the nearest node when table is None (such groups come
    first), else by the covariances table[k]. Drivers see all n components;
    the budget identity is summed for comp. Returns per group (largest
    |Y_t - right side|, smallest Y_t minus the K-free right side, both over
    t < T, and the terminal gap). A forward walk stores positions only; a
    backward pass re-forms each step's increments and reads one packed layer
    per step, holding one block of integrands at a time."""
    lat = solution.lattice
    space, dt, steps, d, n = lat.space, lat.dt, lat.steps, lat.d, solution.n
    times = lat.time.times()
    n_groups = len(groups)
    rows = np.arange(n_groups * m)
    comp_of = np.repeat([comp for comp, _, _ in groups], m)
    tables = np.array([t for _, t, _ in groups if t is not None]).reshape(-1, steps, d)
    n_pol = n_groups - tables.shape[0]
    pol_rows = n_pol * m
    flips = np.stack([f for _, _, f in groups], axis=1)     # (steps, groups, bytes)
    sig2 = np.empty((n_groups, m, d))

    def control(k, x):
        if n_pol:
            idx = nearest_index(space, x[:pol_rows])
            sig2[:n_pol] = lat.combos[solution.policy_idx[
                (k,) + idx + (comp_of[:pol_rows],)]].reshape(n_pol, m, d)
        sig2[n_pol:] = tables[:, k, None]
        return sig2.reshape(-1, d)

    xs = np.zeros((steps + 1, rows.size, d))
    walk = _walk(lat.time, lat.box, control, lambda k: _signs(flips[k], m, d), rows.size)
    for k, (_, _, x) in enumerate(walk):
        xs[k + 1] = x
    cuts = np.cumsum([n, d * n, n * d, d * n])
    read = _layer_reader(solution.integrands, _block_layers(lat, 2 * d * n), steps + 1)
    g_field = solution.g_field
    xi = params.terminal.evaluate(xs[steps])[rows, comp_of]
    gap = np.abs(evaluate_field(space, solution.Y[steps], xs[steps])[rows, comp_of] - xi)
    # suffix sums of f dt, g : bracket, Z^T dB, G(eta) dt, half eta : bracket,
    # with the additions of a cumulative sum of the reversed terms
    acc = np.zeros((5, rows.size))
    resid = np.zeros(rows.size)
    margin = np.full(rows.size, np.inf)
    for k in range(steps - 1, -1, -1):
        # Y, Z, eta at layer k, and the integrands that close the budget
        # identity from layer k + 1 (the field being incremented; copied
        # before layer k is read); the bracket shift stays at layer k, as in
        # the backward step
        z_next, curv_next = [a.copy() for a in read(k + 1)]
        if g_field is not None:
            curv_next -= 2.0 * g_field[k + 1]
        packed = np.concatenate(
            [a.reshape(space.shape + (-1,)) for a in (
                solution.Y[k], *read(k), z_next, curv_next)], axis=-1)
        y_all, z_all, eta_all, z_next, curv_next = np.split(
            evaluate_field(space, packed, xs[k]), cuts, axis=-1)
        z_all = z_all.reshape(-1, d, n)
        eta_all = eta_all.reshape(-1, n, d)
        y_k = y_all[rows, comp_of]
        f_val = np.asarray(params.f.fn(times[k], y_all, z_all, eta_all),
                           dtype=float)[rows, comp_of]
        g_val = np.asarray(params.g.fn(times[k], y_all, z_all, eta_all),
                           dtype=float)[rows, comp_of]
        z_k = z_next.reshape(-1, d, n)[rows, :, comp_of]
        eta_k = curv_next.reshape(-1, n, d)[rows, comp_of] + 2.0 * g_val
        sig2_k = control(k, xs[k])
        dqv = sig2_k * dt
        acc[0] += f_val * dt
        acc[1] += np.sum(g_val * dqv, axis=1)
        acc[2] += np.sum(z_k * _increment(sig2_k, dt, _signs(flips[k], m, d)), axis=1)
        acc[3] += g_corner(eta_k, lat.box) * dt
        acc[4] += 0.5 * np.sum(eta_k * dqv, axis=1)
        free = xi + acc[0] + acc[1] - acc[2]
        np.minimum(margin, y_k - free, out=margin)
        np.maximum(resid, np.abs(y_k - (free + acc[3] - acc[4])), out=resid)
    return [(float(r.max()), float(mg.min()), float(gp.max()))
            for r, mg, gp in zip(resid.reshape(n_groups, m),
                                 margin.reshape(n_groups, m),
                                 gap.reshape(n_groups, m))]


def residual_check(solution: BsdeSolution, params: GBsdeParams,
                   n_paths: int = 64, seed: int = 20240, n_controls: int = 8) -> ResidualReport:
    """Reconstruct the budget identity along replayed paths.

    Along argmax-policy paths it must close: max_residual is the largest gap
    between Y_t and the reconstructed right side over all paths, times and
    components. Under random box controls Y_t must dominate the
    compensator-free right side (off_policy_min_margin, at least a small
    negative tolerance). Random numbers come per group of n_paths paths: the
    n policy groups, then per control its uniform (steps, d) table and its n
    groups, each group's flips one (steps, n_paths * d) draw. Groups share
    loops of up to 2 steps REPLAY_BATCH_PATHS stored positions, and the
    loops hold one block of integrands at a time; no bit changes. Without
    controls both off-policy fields read 0.0.
    """
    rng = _replay_rng(seed, n_paths, 1, n_controls)
    lat = solution.lattice
    groups = _residual_groups(rng, lat, solution.n, n_paths, n_controls)
    per_loop = max(1, 2 * lat.steps * REPLAY_BATCH_PATHS
                   // ((lat.steps + 1) * lat.d * n_paths))
    max_resid = terminal_gap = off_max = 0.0
    off_margin = np.inf
    while batch := list(itertools.islice(groups, per_loop)):
        for (_, table, _), (resid, margin, gap) in zip(
                batch, _replay(solution, params, batch, n_paths)):
            if table is None:
                max_resid = max(max_resid, resid)
                terminal_gap = max(terminal_gap, gap)
            else:
                off_max = max(off_max, resid)
                off_margin = min(off_margin, margin)

    return ResidualReport(max_residual=max_resid, terminal_gap=terminal_gap,
                          off_policy_max_residual=off_max,
                          off_policy_min_margin=off_margin if n_controls else 0.0)


def compensator_mc_check(solution: BsdeSolution, n_controls: int = 64,
                         n_paths: int = 256, seed: int = 977,
                         comp: int = 0) -> CompensatorReport:
    """Monte Carlo worst case of E[-K_T] over corner controls.

    Paths read every field at the nearest node, so the increments match the
    corner algebra exactly. The controls are the argmax policy, the
    curvature-corner rule (the discrete worst-case measure, under which K_T
    vanishes) and random time-dependent corners; the supremum must sit
    within three standard errors of zero. Random numbers come per control of
    n_paths paths: the flips of the first two, then per random control its
    (steps,) corner picks and its flips, each one (steps, n_paths * d) draw.
    All controls share one forward loop, with G computed once per layer.
    Two paths per control at least, so every standard error is finite.
    """
    rng = _replay_rng(seed, n_paths, 2, n_controls)
    if not 0 <= comp < solution.n:
        raise InputError(f"comp must be in [0, {solution.n})")
    lat = solution.lattice
    steps, d, m = lat.steps, lat.d, n_paths
    corners = lat.box.corners()
    up, lo = lat.box.upper, lat.box.lower

    n_tables = max(0, n_controls - 2)
    n_groups = n_tables + 2
    flips = np.empty((steps, n_groups, -(-m * d // 8)), dtype=np.uint8)
    flips[:, 0], flips[:, 1] = _coin_flips(rng, steps, m, d), _coin_flips(rng, steps, m, d)
    tables = np.empty((n_tables, steps, d))
    for j in range(n_tables):
        tables[j] = corners[rng.integers(0, corners.shape[0], size=steps)]
        flips[:, 2 + j] = _coin_flips(rng, steps, m, d)
    sig2 = np.empty((n_groups, m, d))
    idx = eta_k = None   # set by the control: each step's nearest nodes, their curvature
    read = _layer_reader(solution.integrands, _block_layers(lat, 2 * d * solution.n),
                         steps)

    def control(k, x):
        nonlocal idx, eta_k
        idx = nearest_index(lat.space, x)
        eta_k = read(k)[1][idx + (comp,)].reshape(n_groups, m, d)
        sig2[0] = lat.combos[solution.policy_idx[
            (k,) + tuple(i[:m] for i in idx) + (comp,)]]
        sig2[1] = np.where(eta_k[1] > 0.0, up, lo)
        sig2[2:] = tables[:, k, None]
        return sig2.reshape(-1, d)

    k_total = np.zeros((n_groups, m))
    for k, _ in enumerate(_walk(lat.time, lat.box, control,
                                lambda k: _signs(flips[k], m, d), n_groups * m)):
        g_node = g_corner(read(k)[1][..., comp, :], lat.box)
        k_total += _compensator_increments(g_node[idx].reshape(n_groups, m),
                                           eta_k, sig2, lat)
    estimates = np.mean(-k_total, axis=1)
    ses = np.std(-k_total, axis=1, ddof=1) / math.sqrt(m)
    top = int(np.argmax(estimates))
    sup_est, sup_se = float(estimates[top]), float(ses[top])
    ok = abs(sup_est) <= 3.0 * sup_se + 1e-9
    return CompensatorReport(sup_estimate=sup_est, sup_se=sup_se,
                             estimates=estimates, standard_errors=ses, ok=ok)


# ---------------------------------------------------------------------------
# Layer solve and the degenerate-box oracle
# ---------------------------------------------------------------------------

def _layer_solve(params: GBsdeParams, lattice: Lattice) -> BsdeSolution:
    """The fixed point of the contraction map, solved one layer at a time.

    Layer k iterates y <- max_c [E_c Y_{k+1} + (f + g : sigma2_c) dt] from
    the largest child mean, with (Z, eta) read from y and the previous
    iterate's bracket shift, until a sup-norm step below 1e-13; the last
    layer's bracket coefficients settle the same way with the payoff held
    fixed. Each iteration is a one-layer _sweep, so ties keep the smallest
    covariance and zero drivers give picard_step's bits. Raises
    ConvergenceError naming a layer that does not settle in 200 iterations.
    """
    params.spot_check(lattice.d)
    steps, dt = lattice.steps, lattice.dt
    values = np.empty((steps + 1,) + lattice.space.shape + (params.terminal.n,))
    values[steps] = params.terminal.evaluate(lattice.states)
    policy = np.empty((steps,) + values.shape[1:], dtype=np.int16)
    kept = None   # the bracket coefficients, once one is not +0.0
    for k in range(steps, -1, -1):
        y = values[k] if k == steps else _sweep(lattice, values[k + 1], start_layer=1)
        g = np.broadcast_to(0.0, y.shape + (lattice.d,))
        for _ in range(200):
            (f,), (g_new,) = _driver_fields(params, lattice, slice(k, k + 1), y[None],
                                            *extract_integrands(y[None], lattice, g[None]))
            if k == steps:
                moved = g_new - g
            else:
                (y_new, _), (policy[k],) = _sweep(
                    lattice, values[k + 1], lambda _, c: (f + g_new @ lattice.combos[c]) * dt,
                    store=True, start_layer=1)
                moved, y = y_new - y, y_new
            g, size = g_new, float(np.max(np.abs(moved)))
            if size < 1e-13:
                break
        else:
            raise ConvergenceError(f"layer {k} of the layer solve did not settle within "
                                   f"200 iterations (last step {size:.3g})")
        values[k] = y
        if kept is None and (g.any() or np.signbit(g).any()):
            kept = np.zeros((steps + 1,) + g.shape)
        if kept is not None:
            kept[k] = g
    if kept is None:
        kept = np.broadcast_to(0.0, values.shape + (lattice.d,))
    return BsdeSolution(lattice=lattice, Y=values, policy_idx=policy, g_field=kept)


def classical_oracle(params: GBsdeParams, lattice: Lattice) -> BsdeSolution:
    """Single-control backward solver for a collapsed volatility box: the
    one-combo case of _layer_solve, an independent route to the contraction
    solver's zero-width fixed point."""
    if not lattice.box.is_degenerate:
        raise DegenerateBoxError("classical oracle requires a zero-width box")
    return _layer_solve(params, lattice)
