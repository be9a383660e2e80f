"""Pathwise integrals on lattice paths and weighted process norms.

Paths move by +/- sigma_j sqrt(dt) per axis under an admissible covariance
control, carry their quadratic variation exactly, and feed the integral
bounds and the exponential-weight norm diagnostics.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DegenerateDenominatorError, DimensionError, InputError,
                     WeightOverflowError)
from .gtensor import VolatilityBox, g_corner
from .scenario import Lattice, TimeGrid, _sweep, _walk

# Largest exponent allowed in exponential time weights.
MAX_EXPONENT = 700.0
#: Default exponent grid for the stability estimates.
BETA_GRID = tuple(float(2 ** i) for i in range(11))  # 1 .. 1024
#: Most float64 values one block of derived layers holds: no derived field
#: costs a full stack, yet one numpy call covers many small layers.
BLOCK_VALUES = 1 << 16
#: Working memory of one norm sweep, an eighth of the CLI's layer-stack
#: budget: value columns past it run as further sweeps.
SWEEP_BUDGET_BYTES = 2 ** 28
#: Layer-sized float64 arrays per value column of a norm sweep in 2-d (7.1 in
#: 1-d), measured with tracemalloc.
NORM_SWEEP_ARRAYS = 9.25


def admissible_betas(lattice: Lattice, betas: Optional[Sequence[float]] = None) -> tuple:
    """Filter an exponent grid (BETA_GRID by default) down to the weights
    with beta * horizon <= MAX_EXPONENT, which stay representable. A NaN or
    negative beta raises InputError."""
    src = BETA_GRID if betas is None else tuple(float(b) for b in betas)
    if not all(b >= 0.0 for b in src):
        raise InputError("every beta must be nonnegative")
    keep = tuple(b for b in src if b * lattice.time.horizon <= MAX_EXPONENT)
    if not keep:
        raise WeightOverflowError("every requested beta overflows the weight range")
    return keep


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


def simulate_path(time: TimeGrid, box: VolatilityBox, control: Callable,
                  seed: int) -> PathBundle:
    """Simulate one path with independent +/- signs per axis and step.

    control(k, x) -> covariance diagonal, broadcastable to (d,), validated
    against the box at every step.
    """
    rng = np.random.default_rng(seed)
    walk = _walk(time, box, lambda k, x: control(k, x[0]),
                 lambda k: rng.integers(0, 2, size=(1, box.d)) * 2.0 - 1.0, 1)
    steps = [(sig2.copy(), x) for sig2, _, x in walk]
    applied = np.concatenate([sig2 for sig2, _ in steps])
    zero = np.zeros((1, box.d))
    x = np.concatenate([zero] + [x for _, x in steps])
    qv = np.concatenate([zero, np.cumsum(applied * time.dt, axis=0)])
    return PathBundle(times=time.times(), positions=x, quad_var=qv,
                      control=applied, box=box)


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
                   s: Optional[float] = None, n: int = 1) -> QvBoundsReport:
    """Check the two structural bounds on a bracket integral over [t, s].

    eta_process is the integrand per step, (steps, n, d). The absolute bound
    uses K = sqrt(d) * sigma_max^2, the sandwich [-2 G(-eta), 2 G(eta)] dt
    summed over the window with G = `g_corner`; both hold up to 1e-10.
    """
    grid = TimeGrid(horizon=float(path.times[-1]), steps=path.steps)
    k_lo = grid.index_of(t)
    k_hi = path.steps if s is None else grid.index_of(s)
    if k_hi < k_lo:
        raise InputError("window end precedes window start")
    eta = np.asarray(eta_process, dtype=float)
    if eta.shape != (path.steps, n, path.box.d):
        raise DimensionError(
            f"process has shape {eta.shape}, expected {(path.steps, n, path.box.d)}")
    tol = 1e-10
    dqv = np.diff(path.quad_var, axis=0)
    dt = grid.dt
    sl = slice(k_lo, k_hi)

    integral = np.einsum("knd,kd->n", eta[sl], dqv[sl])
    abs_value = float(np.linalg.norm(integral))
    k_const = math.sqrt(path.box.d) * path.box.sigma_max_sq
    frob = np.sqrt(np.sum(eta[sl] ** 2, axis=(1, 2)))
    abs_bound = float(k_const * np.sum(frob) * dt)

    upper = 2.0 * np.sum(g_corner(eta[sl], path.box), axis=0) * dt
    lower = -2.0 * np.sum(g_corner(-eta[sl], path.box), axis=0) * dt

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

def exp_cell_weights(time: TimeGrid, beta: float) -> np.ndarray:
    """Exact integrals of exp(beta * s) over each grid cell of [0, T]."""
    if not beta >= 0.0:                    # NaN too
        raise InputError("beta must be nonnegative")
    if beta * time.horizon > MAX_EXPONENT:
        raise WeightOverflowError(
            f"beta * horizon = {beta * time.horizon:.3g} exceeds {MAX_EXPONENT}")
    t = time.times()
    if beta == 0.0:
        return np.diff(t)
    return np.diff(np.exp(beta * t)) / beta


def _block_layers(lattice: Lattice, width: int) -> int:
    """Layers per block of a reader that forms `width` float64 values per
    node and layer: BLOCK_VALUES in whole layers, at least one."""
    return max(1, BLOCK_VALUES // (width * math.prod(lattice.space.shape)))


def _layer_reader(load: Callable[[slice], tuple], size: int, stop: int) -> Callable:
    """read(k): layer k of what load(ks) forms over aligned blocks of `size`
    layers below `stop`; the last block is kept. The old block is let go
    before the next one forms, so one block is alive at a time as long as
    no caller keeps a view of a read layer across the next read."""
    held = [None, ()]

    def read(k):
        start = k - k % size
        if held[0] != start:
            held[:] = None, ()    # let the old block go before the new one forms
            held[:] = start, load(slice(start, min(start + size, stop)))
        return [a[k - start] for a in held[1]]

    return read


def weighted_norms(fields: Sequence[np.ndarray], lattice: Lattice,
                   betas: Sequence[float]) -> np.ndarray:
    """weighted_norm of every field at every beta, shape (len(fields), len(betas)),
    from backward sweeps in which each (field, beta) pair owns a value
    column (_grouped_sweeps): a sweep maximizes every column independently.
    """
    fields = [np.asarray(f, dtype=float) for f in fields]
    if not (fields and len(betas)):
        raise InputError("weighted_norms needs at least one field and one beta")
    for f in fields:
        if f.shape[0] != lattice.steps + 1 or f.shape[1:1 + lattice.d] != lattice.space.shape:
            raise DimensionError("field does not match the lattice layout")
    return _layerwise_norms(lambda ks: [f[ks] for f in fields], len(fields),
                            lattice, betas, 0)


def _grouped_sweeps(lattice: Lattice, count: int, betas: Sequence[float],
                    group_costs: Callable[[slice, np.ndarray], dict]) -> np.ndarray:
    """Origin values, (count, len(betas)), of a sweep from zero with a value
    column per (row, beta), in groups of whole rows or of one row's betas
    that hold at most SWEEP_BUDGET_BYTES at NORM_SWEEP_ARRAYS layers per
    column. group_costs(rows, weights) gives a group's _sweep cost keywords
    at its (steps, betas) cell weights, reading its layers anew."""
    weights = np.stack([exp_cell_weights(lattice.time, b) for b in betas],
                       axis=-1)                                  # (steps, B)
    nodes = math.prod(lattice.space.shape)
    most = max(1, int(SWEEP_BUDGET_BYTES // (8 * NORM_SWEEP_ARRAYS * nodes)))
    per_row, per_beta = max(1, most // len(betas)), min(most, len(betas))
    origin = []
    for r, b in itertools.product(range(0, count, per_row), range(0, len(betas), per_beta)):
        rows, w = slice(r, min(r + per_row, count)), weights[:, b:b + per_beta]
        zero = np.zeros(lattice.space.shape + ((rows.stop - r) * w.shape[1],))
        origin.append(_sweep(lattice, zero, **group_costs(rows, w))[lattice.origin_index])
    return np.concatenate(origin).reshape(count, -1)


def _layerwise_norms(layers: Callable[[slice], list], count: int, lattice: Lattice,
                     betas: Sequence[float], width: int) -> np.ndarray:
    """weighted_norms of `count` fields that layers(ks) yields over a slice
    of layers, holding `width` values per node and layer at once, by
    _grouped_sweeps. The running cost does not depend on the covariance: it
    is added once, to the maximum."""
    grid = lattice.space.shape

    def squared(block: np.ndarray) -> np.ndarray:
        tail_axes = tuple(range(1 + lattice.d, block.ndim))
        return np.sum(block * block, axis=tail_axes) if tail_axes else block * block

    def squares(ks):
        return (np.stack([squared(block) for block in layers(ks)], axis=-1),)

    def group_costs(rows: slice, weights: np.ndarray) -> dict:
        read = _layer_reader(squares, _block_layers(lattice, width + count), lattice.steps)
        return {"layer_cost": lambda k: (read(k)[0][..., rows, None]
                                         * weights[k]).reshape(grid + (-1,))}

    total = _grouped_sweeps(lattice, count, betas, group_costs)
    return np.sqrt(np.maximum(total, 0.0))


def weighted_norm(field: np.ndarray, lattice: Lattice, beta: float) -> float:
    """Worst-case exponentially weighted L2 norm of a lattice process.

    field is (steps + 1, *grid, *trailing): the square root of the worst-case
    expected integral of exp(beta s) |field_s|^2 over [0, horizon].
    """
    return float(weighted_norms([field], lattice, [beta])[0, 0])


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
    beta_rows: tuple
    window: tuple


def _square_integral_expectation(proc: StepProcess, lattice: Lattice, beta: float) -> float:
    """Worst-case E of the exp(beta s)-weighted time integral of proc^2."""
    admissible_betas(lattice, (beta,))    # WeightOverflowError past MAX_EXPONENT
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

    zero = np.zeros(lattice.space.shape + (1,))
    total = _sweep(lattice, zero, layer_cost=lambda k: costs.get(k, 0.0))
    return float(total[lattice.origin_index][0])


def ratio_decay_report(theta: StepProcess, zeta: StepProcess, lattice: Lattice,
                       betas: Sequence[float] = (), n_max: int = 20) -> RatioDecayReport:
    """Weighted-norm ratio of two step processes across a scale of weights.

    c_max is the largest worst-case mean square of theta at its observation
    times, d_min the smallest guaranteed one of zeta. For each n,
    beta_n = n * c_max / d_min and b_n, bounded by 1/n, is

        E[int exp(beta_n s) theta_s^2 ds] / (beta_n E[int exp(beta_n s) zeta_s^2 ds])

    The processes are elementary, so the approximation diagnostics t_n, l_n,
    m_n reduce to b_n, 1, 1 and are not kept.
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
    if c_max == 0.0:
        raise InputError("ratio.theta mean square is identically zero, so every "
                         "beta_n is 0 and each ratio would be 0/0")

    def ratio_at(beta: float) -> tuple:
        num = _square_integral_expectation(theta, lattice, beta)
        den = beta * _square_integral_expectation(zeta, lattice, beta)
        return num, den, num / den

    # beta_n grows with n: check the last one before allocating n_max rows
    beta_last = float(n_max) * c_max / d_min
    if beta_last * horizon > MAX_EXPONENT:
        raise WeightOverflowError(
            f"beta_n at n_max = {n_max}: beta * horizon = {beta_last * horizon:.3g} "
            f"exceeds {MAX_EXPONENT}")
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
        beta_rows=tuple(beta_rows),
        window=(float(theta.times[0]), float(theta.times[-1])),
    )
