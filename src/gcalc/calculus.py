"""Pathwise integrals on lattice paths and weighted process norms.

Paths move by +/- sigma_j sqrt(dt) per axis under an admissible covariance
control, carry their quadratic variation exactly, and feed the integral
bounds and the exponential-weight norm diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DegenerateDenominatorError, DimensionError, InputError,
                     WeightOverflowError)
from .gtensor import VolatilityBox
from .scenario import Lattice, TimeGrid, _sweep

# Largest exponent allowed in exponential time weights.
MAX_EXPONENT = 700.0


@dataclass(frozen=True)
class PathBundle:
    """One simulated path: positions, quadratic variation, applied control.

    positions has shape (steps + 1, d), quad_var the running diagonal of the
    bracket process (same shape), control the per-step covariance diagonals
    (steps, d).
    """

    times: np.ndarray
    positions: np.ndarray
    quad_var: np.ndarray
    control: np.ndarray
    box: VolatilityBox

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        qv = np.asarray(self.quad_var, dtype=float)
        c = np.asarray(self.control, dtype=float)
        steps = t.shape[0] - 1
        d = self.box.d
        if x.shape != (steps + 1, d) or qv.shape != (steps + 1, d) or c.shape != (steps, d):
            raise DimensionError("inconsistent path array shapes")
        dt = np.diff(t)[:, None]
        if np.max(np.abs(np.diff(qv, axis=0) - c * dt), initial=0.0) > 1e-10:
            raise InputError("quadratic variation does not match the control")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "quad_var", qv)
        object.__setattr__(self, "control", c)

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.positions, axis=0)


def simulate_path(time: TimeGrid, box: VolatilityBox, control: Callable,
                  seed: int) -> PathBundle:
    """Simulate one path with independent +/- signs per axis and step.

    control(k, x) -> covariance diagonal, broadcastable to (d,), validated
    against the box at every step.
    """
    rng = np.random.default_rng(seed)
    d = box.d
    dt = time.dt
    x = np.zeros((time.steps + 1, d))
    qv = np.zeros((time.steps + 1, d))
    applied = np.zeros((time.steps, d))
    for k in range(time.steps):
        sig2 = np.broadcast_to(np.asarray(control(k, x[k]), dtype=float), (d,))
        if not box.contains(sig2):
            raise InputError(f"control leaves the volatility box at step {k}")
        signs = rng.integers(0, 2, size=d) * 2.0 - 1.0
        x[k + 1] = x[k] + np.sqrt(sig2 * dt) * signs
        qv[k + 1] = qv[k] + sig2 * dt
        applied[k] = sig2
    return PathBundle(times=time.times(), positions=x, quad_var=qv,
                      control=applied, box=box)


def _process_values(process, path: PathBundle, shape_tail: tuple) -> np.ndarray:
    """Materialize a step process as an array (steps, *shape_tail)."""
    if callable(process):
        vals = np.stack([np.asarray(process(k, path.positions[k]), dtype=float)
                         for k in range(path.steps)])
    else:
        vals = np.asarray(process, dtype=float)
    if vals.shape != (path.steps,) + shape_tail:
        raise DimensionError(
            f"process has shape {vals.shape}, expected {(path.steps,) + shape_tail}")
    return vals


def ito_integral(z_process, path: PathBundle, n: int = 1) -> np.ndarray:
    """Forward sum of z_k^T dB_k over the path; z has shape (steps, d, n)."""
    z = _process_values(z_process, path, (path.box.d, n))
    return np.einsum("kdn,kd->n", z, path.increments)


def qv_integral(eta_process, path: PathBundle, n: int = 1) -> np.ndarray:
    """Forward sum of (eta_k : d<B>_k) over the path; eta is (steps, n, d)
    diagonal entries paired against the bracket increments."""
    eta = _process_values(eta_process, path, (n, path.box.d))
    return np.einsum("knd,kd->n", eta, np.diff(path.quad_var, axis=0))


@dataclass(frozen=True)
class QvBoundsReport:
    """Pathwise bracket-integral bounds over one window."""

    integral: np.ndarray
    abs_value: float
    abs_bound: float
    k_constant: float
    lower: np.ndarray
    upper: np.ndarray
    ok_abs: bool
    ok_sandwich: bool


def lemma31_bounds(eta_process, path: PathBundle, t: float = 0.0,
                   s: Optional[float] = None, n: int = 1,
                   tol: float = 1e-10) -> QvBoundsReport:
    """Check the two structural bounds on a bracket integral over [t, s].

    The absolute bound uses K = sqrt(d) * sigma_max^2; the sandwich pairs the
    positive part of the integrand with one box corner and the negative part
    with the other, componentwise.
    """
    grid = TimeGrid(horizon=float(path.times[-1]), steps=path.steps)
    k_lo = grid.index_of(t)
    k_hi = path.steps if s is None else grid.index_of(s)
    if k_hi < k_lo:
        raise InputError("window end precedes window start")
    eta = _process_values(eta_process, path, (n, path.box.d))
    dqv = np.diff(path.quad_var, axis=0)
    dt = grid.dt
    sl = slice(k_lo, k_hi)

    integral = np.einsum("knd,kd->n", eta[sl], dqv[sl])
    abs_value = float(np.linalg.norm(integral))
    k_const = math.sqrt(path.box.d) * path.box.sigma_max_sq
    frob = np.sqrt(np.sum(eta[sl] ** 2, axis=(1, 2)))
    abs_bound = float(k_const * np.sum(frob) * dt)

    plus = np.clip(eta[sl], 0.0, None)
    minus = np.clip(-eta[sl], 0.0, None)
    lo, up = path.box.lower, path.box.upper
    lower = (np.einsum("knd,d->n", plus, lo) - np.einsum("knd,d->n", minus, up)) * dt
    upper = (np.einsum("knd,d->n", plus, up) - np.einsum("knd,d->n", minus, lo)) * dt

    return QvBoundsReport(
        integral=integral,
        abs_value=abs_value,
        abs_bound=abs_bound,
        k_constant=k_const,
        lower=lower,
        upper=upper,
        ok_abs=bool(abs_value <= abs_bound + tol),
        ok_sandwich=bool(np.all(lower - tol <= integral) and np.all(integral <= upper + tol)),
    )


# ---------------------------------------------------------------------------
# Exponentially weighted norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedNormParams:
    """Weight/penalty parameters shared by the estimate checks."""

    beta: float
    mu: float
    nu: float
    t_start: float = 0.0

    def __post_init__(self):
        if self.beta < 0.0:
            raise InputError("beta must be nonnegative")
        if self.mu <= 0.0 or self.nu <= 0.0:
            raise InputError("mu and nu must be positive")
        if self.t_start < 0.0:
            raise InputError("t_start must be nonnegative")


def exp_cell_weights(time: TimeGrid, beta: float, t_start: float = 0.0) -> np.ndarray:
    """Exact integrals of exp(beta * s) over each grid cell in [t_start, T].

    Cells before t_start get weight zero; t_start must lie on the grid.
    """
    if beta < 0.0:
        raise InputError("beta must be nonnegative")
    if beta * time.horizon > MAX_EXPONENT:
        raise WeightOverflowError(
            f"beta * horizon = {beta * time.horizon:.3g} exceeds {MAX_EXPONENT}")
    k_lo = time.index_of(t_start)
    t = time.times()
    if beta == 0.0:
        w = np.diff(t)
    else:
        w = np.diff(np.exp(beta * t)) / beta
    w[:k_lo] = 0.0
    return w


def weighted_norms(fields: Sequence[np.ndarray], lattice: Lattice,
                   betas: Sequence[float], t_start: float = 0.0) -> np.ndarray:
    """weighted_norm of every field at every beta, shape (len(fields), len(betas)).

    All norms come from one backward sweep: each (field, beta) pair owns a
    trailing value column. This is exact because the sweep maximizes every
    column independently and the running cost does not depend on the
    covariance.
    """
    fields = [np.asarray(f, dtype=float) for f in fields]
    for f in fields:
        if f.shape[0] != lattice.steps + 1 or f.shape[1:1 + lattice.d] != lattice.space.shape:
            raise DimensionError("field does not match the lattice layout")
    return _layerwise_norms(lambda k: [f[k] for f in fields], len(fields),
                            lattice, betas, t_start)


def _layerwise_norms(layers: Callable[[int], list], count: int, lattice: Lattice,
                     betas: Sequence[float], t_start: float = 0.0) -> np.ndarray:
    """weighted_norms of `count` fields given layer by layer: layers(k) lists
    their (*grid, *trailing) values at layer k, so a caller can form derived
    fields (differences) one layer at a time. The per-layer cost is built on
    demand (the sweep asks once per covariance), so no
    (layers, *grid, count * betas) array is ever formed.
    """
    grid = lattice.space.shape
    weights = np.stack([exp_cell_weights(lattice.time, b, t_start) for b in betas],
                       axis=-1)                                  # (steps, B)
    columns = count * weights.shape[1]
    cached = {}

    def squared(layer: np.ndarray) -> np.ndarray:
        tail_axes = tuple(range(lattice.d, layer.ndim))
        return np.sum(layer * layer, axis=tail_axes) if tail_axes else layer * layer

    def step_cost(k, _c):
        if k not in cached:
            cached.clear()
            sq = np.stack([squared(layer) for layer in layers(k)], axis=-1)
            cached[k] = (sq[..., None] * weights[k]).reshape(grid + (columns,))
        return cached[k]

    zero = np.zeros(grid + (columns,))
    total = _sweep(lattice, zero, step_cost)[lattice.origin_index]
    return np.sqrt(np.maximum(total, 0.0)).reshape(count, -1)


def weighted_norm(field: np.ndarray, lattice: Lattice, beta: float,
                  t_start: float = 0.0) -> float:
    """Worst-case exponentially weighted L2 norm of a lattice process.

    field has shape (steps + 1, *grid, *trailing); trailing axes are squared
    and summed pointwise. Returns the square root of the worst-case expected
    time integral of exp(beta s) |field_s|^2 over [t_start, horizon].
    """
    return float(weighted_norms([field], lattice, [beta], t_start)[0, 0])


def _state_expectation(lattice: Lattice, values: np.ndarray, layer: int) -> float:
    """Worst-case expectation of a scalar function observed at one layer."""
    return float(_sweep(lattice, values[..., None], start_layer=layer)[lattice.origin_index][0])


# ---------------------------------------------------------------------------
# Ratio decay of exponentially weighted step-process norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepProcess:
    """Piecewise-constant process: value on [times[i], times[i+1]) is
    state_fns[i] applied to the state at times[i]."""

    times: np.ndarray
    state_fns: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.shape[0] < 2 or np.any(np.diff(t) <= 0.0):
            raise InputError("partition must be strictly increasing with >= 2 points")
        if len(self.state_fns) != t.shape[0] - 1:
            raise DimensionError("need exactly one state function per interval")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "state_fns", tuple(self.state_fns))


@dataclass(frozen=True)
class RatioDecayReport:
    """Numerator/denominator data for the weighted-norm ratio diagnostics."""

    c_max: float
    d_min: float
    n_values: np.ndarray
    beta_n: np.ndarray
    b_n: np.ndarray
    t_n: np.ndarray
    l_n: np.ndarray
    m_n: np.ndarray
    beta_rows: tuple
    window: tuple


def _square_integral_expectation(proc: StepProcess, lattice: Lattice, beta: float) -> float:
    """Worst-case E of the exp(beta s)-weighted time integral of proc^2."""
    if beta * lattice.time.horizon > MAX_EXPONENT:
        raise WeightOverflowError(
            f"beta * horizon = {beta * lattice.time.horizon:.3g} exceeds {MAX_EXPONENT}")
    states = lattice.states
    t = proc.times
    costs = {}
    for i, fn in enumerate(proc.state_fns):
        k = lattice.time.index_of(t[i])
        if beta == 0.0:
            w = t[i + 1] - t[i]
        else:
            w = (math.exp(beta * t[i + 1]) - math.exp(beta * t[i])) / beta
        vals = np.asarray(fn(states), dtype=float)
        costs[k] = (w * vals * vals)[..., None]

    def step_cost(k, _c):
        return costs.get(k, 0.0)

    zero = np.zeros(lattice.space.shape + (1,))
    return float(_sweep(lattice, zero, step_cost)[lattice.origin_index][0])


def ratio_decay_report(theta: StepProcess, zeta: StepProcess, lattice: Lattice,
                       betas: Sequence[float] = (), n_max: int = 20) -> RatioDecayReport:
    """Weighted-norm ratio of two step processes across a scale of weights.

    c_max is the largest worst-case mean square of the numerator values at
    their observation times; d_min the smallest guaranteed mean square of the
    denominator values (via the expectation of minus the square). For each n,
    beta_n = n * c_max / d_min and b_n is the ratio

        E[int exp(beta_n s) theta_s^2 ds] / (beta_n E[int exp(beta_n s) zeta_s^2 ds])

    which is bounded by 1/n. The supplied processes are elementary, hence
    equal to their own step approximations: the approximation diagnostics
    t_n, l_n, m_n reduce to b_n, 1, 1.
    """
    horizon = lattice.time.horizon
    for proc in (theta, zeta):
        if proc.times[0] < -1e-12 or proc.times[-1] > horizon + 1e-12:
            raise InputError("step process partition leaves [0, horizon]")

    c_max = -np.inf
    for i, fn in enumerate(theta.state_fns):
        k = lattice.time.index_of(theta.times[i])
        vals = np.asarray(fn(lattice.states), dtype=float)
        c_max = max(c_max, _state_expectation(lattice, vals * vals, k))
    d_min = np.inf
    for i, fn in enumerate(zeta.state_fns):
        k = lattice.time.index_of(zeta.times[i])
        vals = np.asarray(fn(lattice.states), dtype=float)
        d_min = min(d_min, -_state_expectation(lattice, -vals * vals, k))
    if d_min <= 0.0:
        raise DegenerateDenominatorError(
            f"denominator mean square is not bounded away from zero (d_min={d_min:.3g})")

    def ratio_at(beta: float) -> tuple:
        num = _square_integral_expectation(theta, lattice, beta)
        den = beta * _square_integral_expectation(zeta, lattice, beta)
        return num, den, num / den

    n_values = np.arange(1, n_max + 1)
    beta_n = n_values * c_max / d_min
    b_n = np.array([ratio_at(b)[2] for b in beta_n])

    beta_rows = []
    for beta in betas:
        num, den, ratio = ratio_at(float(beta))
        beta_rows.append({"beta": float(beta), "numerator": num,
                          "denominator": den, "ratio": ratio})

    return RatioDecayReport(
        c_max=float(c_max), d_min=float(d_min),
        n_values=n_values, beta_n=beta_n, b_n=b_n,
        t_n=b_n.copy(), l_n=np.ones_like(b_n), m_n=np.ones_like(b_n),
        beta_rows=tuple(beta_rows),
        window=(float(theta.times[0]), float(theta.times[-1])),
    )
