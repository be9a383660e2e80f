"""Worst-case expectation engine on a recombining state lattice.

States live on a uniform grid per axis. One backward step branches each node
into per-axis up/down moves of size sigma_j * sqrt(dt) for every covariance
diagonal in the box grid, takes expected child values, and keeps the largest
result over the covariance grid. Off-grid children are written onto the two
bracketing nodes with nonnegative weights chosen so the branch second moment
is exact; this keeps quadratic payoffs bias-free, which plain linear
interpolation does not (its convexity bias at desk-scale grids is an order of
magnitude above the acceptance tolerances). The branch weights are a product
over axes, so expected child values are formed one axis at a time from shifted
slices of the edge-padded layer, sharing each leading-axis partial sum.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, GridResolutionError, InputError
from .gtensor import VolatilityBox

# Desk-scale caps. The engine is meant for small, fully checkable runs.
MAX_DIM = 2
MAX_COMPONENTS = 2
MAX_STEPS = 400
MAX_POINTS_PER_AXIS = 1025
MIN_SPAN_FACTOR = 6.0

_MC_CHUNKS = 8  # fixed chunk count so results do not depend on thread count


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise InputError("horizon must be positive and finite")
        if not (1 <= int(self.steps) <= MAX_STEPS):
            raise InputError(f"steps must be in [1, {MAX_STEPS}]")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Grid index of a time that must sit on the grid."""
        k = round(t / self.dt)
        if not (0 <= k <= self.steps) or abs(k * self.dt - t) > tol * max(1.0, self.horizon):
            raise InputError(f"time {t} is not on the grid")
        return int(k)


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform symmetric grid per axis, always containing the origin."""

    axes: tuple
    span_factor: float

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if not 1 <= len(axes) <= MAX_DIM:
            raise DimensionError(f"state dimension must be in [1, {MAX_DIM}]")
        for a in axes:
            if a.ndim != 1 or a.shape[0] < 3 or a.shape[0] % 2 == 0:
                raise InputError("each axis needs an odd number (>= 3) of points")
            if a.shape[0] > MAX_POINTS_PER_AXIS:
                raise InputError(f"points per axis capped at {MAX_POINTS_PER_AXIS}")
        if self.span_factor < MIN_SPAN_FACTOR:
            raise InputError(f"span_factor must be at least {MIN_SPAN_FACTOR}")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def build(cls, box: VolatilityBox, horizon: float, points_per_axis,
              span_factor: float = MIN_SPAN_FACTOR) -> "SpaceGrid":
        """Symmetric grid with half-width span_factor * sigma_max * sqrt(T)."""
        if np.isscalar(points_per_axis):
            points = (int(points_per_axis),) * box.d
        else:
            points = tuple(int(p) for p in points_per_axis)
        if len(points) != box.d:
            raise DimensionError("points_per_axis length does not match box dimension")
        half_width = span_factor * math.sqrt(box.sigma_max_sq * horizon)
        axes = tuple(np.linspace(-half_width, half_width, p) for p in points)
        return cls(axes=axes, span_factor=span_factor)

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.shape[0] for a in self.axes)

    @property
    def spacing(self) -> tuple:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    @property
    def origin_index(self) -> tuple:
        return tuple(p // 2 for p in self.shape)

    def states(self) -> np.ndarray:
        """Full mesh of grid states, shape (*shape, d)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)


@dataclass(frozen=True)
class TerminalFunctional:
    """Payoff of the terminal state, optionally also of one recorded
    intermediate state (monitor_time). fn maps (..., d) state arrays to
    (..., n) values; with monitoring it takes (recorded, terminal)."""

    fn: Callable
    lipschitz: float
    n: int = 1
    monitor_time: Optional[float] = None

    def __post_init__(self):
        if self.lipschitz < 0 or not math.isfinite(self.lipschitz):
            raise InputError("lipschitz constant must be finite and nonnegative")
        if not 1 <= self.n <= MAX_COMPONENTS:
            raise InputError(f"value components must be in [1, {MAX_COMPONENTS}]")

    def evaluate(self, x: np.ndarray, recorded: Optional[np.ndarray] = None) -> np.ndarray:
        if self.monitor_time is None:
            vals = self.fn(x)
        else:
            if recorded is None:
                raise InputError("payoff expects the recorded monitoring state")
            vals = self.fn(recorded, x)
        vals = np.asarray(vals, dtype=float)
        expected = x.shape[:-1] + (self.n,)
        if vals.shape != expected:
            raise DimensionError(f"payoff returned {vals.shape}, expected {expected}")
        if not np.isfinite(vals).all():
            raise InputError("payoff produced non-finite values")
        return vals

    def spot_check_lipschitz(self, space: SpaceGrid, rng: np.random.Generator,
                             probes: int = 64, rtol: float = 1e-6) -> None:
        """Sample state pairs on the grid span and verify the declared bound."""
        if self.monitor_time is not None:
            return
        half = np.array([a[-1] for a in space.axes])
        a = rng.uniform(-half, half, size=(probes, space.d))
        b = rng.uniform(-half, half, size=(probes, space.d))
        gap = np.linalg.norm(self.evaluate(a) - self.evaluate(b), axis=-1)
        dist = np.linalg.norm(a - b, axis=-1)
        if np.any(gap > self.lipschitz * dist * (1.0 + rtol) + 1e-12):
            raise InputError("payoff violates its declared Lipschitz constant")


def _axis_allocation(jump: float, h: float) -> list:
    """Split a +jump move onto the two bracketing nodes.

    Returns [(offset, weight), (offset + 1, weight)] with nonnegative weights
    summing to one and branch second moment exactly jump^2. Reduces to the
    grid-aligned move when jump is a multiple of h.
    """
    ratio = jump / h
    m = int(math.floor(ratio))
    r = ratio - m
    w_hi = (2.0 * m * r + r * r) / (2.0 * m + 1.0)
    return [(m, 1.0 - w_hi), (m + 1, w_hi)]


class Lattice:
    """Time/space grids plus the separable one-step transition operator.

    moves[a][level] holds, per distinct sigma^2 level of axis a in ascending
    order, the four `_axis_allocation` moves (up first, then down) as (child
    slice of the axis padded by edge_pad, 0.5 * weight).
    """

    def __init__(self, time: TimeGrid, space: SpaceGrid, box: VolatilityBox):
        if space.d != box.d:
            raise DimensionError("space grid and box dimensions differ")
        self.time = time
        self.space = space
        self.box = box
        self.combos = box.sigma2_combos()
        dt = time.dt
        floor_jump = math.sqrt(box.sigma_min_sq * dt)
        for h in space.spacing:
            if h > floor_jump * (1.0 + 1e-12):
                raise GridResolutionError(
                    f"grid spacing {h:.6g} exceeds the smallest jump "
                    f"{floor_jump:.6g}; refine the space grid or coarsen time")
        self._states = space.states()
        self._pad_index = []
        self.moves = []
        level_table = []
        for a, (h, p) in enumerate(zip(space.spacing, space.shape)):
            levels, level_of_combo = np.unique(self.combos[:, a], return_inverse=True)
            ups = [_axis_allocation(math.sqrt(s2 * dt), h) for s2 in levels]
            reach = max(off for up in ups for off, _ in up)
            self._pad_index.append(np.clip(np.arange(-reach, p + reach), 0, p - 1))
            self.moves.append([
                [(slice(reach + off, reach + off + p), 0.5 * w)
                 for off, w in up + [(-off, w) for off, w in up]]
                for up in ups])
            level_table.append(level_of_combo)
        self._combo_levels = list(zip(*(lv.tolist() for lv in level_table)))

    # -- grid conveniences -------------------------------------------------
    @property
    def d(self) -> int:
        return self.space.d

    @property
    def steps(self) -> int:
        return self.time.steps

    @property
    def dt(self) -> float:
        return self.time.dt

    @property
    def states(self) -> np.ndarray:
        return self._states

    @property
    def origin_index(self) -> tuple:
        return self.space.origin_index

    # -- transition operator -----------------------------------------------
    def edge_pad(self, values: np.ndarray, a: int, axis: int = 0) -> np.ndarray:
        """Repeat the boundary nodes of array axis `axis` out to lattice axis a's reach."""
        return np.take(values, self._pad_index[a], axis=axis)

    def _axis_mean(self, padded: np.ndarray, a: int, level: int, axis: int) -> np.ndarray:
        """Weighted sum of the shifted slices of one axis level's moves."""
        lead = (slice(None),) * axis
        out = None
        for rows, w in self.moves[a][level]:
            if w == 0.0:
                continue
            part = w * padded[lead + (rows,)]
            out = part if out is None else np.add(out, part, out=out)
        return out

    def child_means(self, values: np.ndarray, axis: int = 0):
        """Yield the expected next-layer values under every covariance, in
        combo order. Lattice axis a is array axis `axis + a`; the partial
        means over leading axes are formed once per level prefix and shared
        by every combo with that prefix."""
        d = self.d
        padded = {(): self.edge_pad(values, 0, axis)}
        for levels in self._combo_levels:
            for a in range(1, d):
                if levels[:a] not in padded:
                    part = self._axis_mean(padded[levels[:a - 1]], a - 1,
                                           levels[a - 1], axis + a - 1)
                    padded[levels[:a]] = self.edge_pad(part, a, axis + a)
            yield self._axis_mean(padded[levels[:-1]], d - 1, levels[-1], axis + d - 1)

    def child_mean(self, values: np.ndarray, combo_index: int) -> np.ndarray:
        """Expected next-layer values (*grid, n) under one covariance choice."""
        return next(islice(self.child_means(values), combo_index, None))


def build_lattice(time: TimeGrid, space: SpaceGrid, box: VolatilityBox) -> Lattice:
    return Lattice(time, space, box)


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------

def _sweep(lattice: Lattice, terminal_values: np.ndarray,
           step_cost: Optional[Callable[[int, int], np.ndarray]] = None,
           store: bool = False, start_layer: Optional[int] = None):
    """Backward induction from `start_layer` (default last) down to 0.

    step_cost(k, combo_index), when given, must return the cost contribution
    of layer k under that covariance, already carrying its own time weight.
    Ties across the covariance grid keep the lexicographically smallest
    covariance (candidates are scanned in ascending order with a strict
    improvement test).
    """
    n_layers = lattice.steps if start_layer is None else start_layer
    values = np.asarray(terminal_values, dtype=float)
    if store:
        all_values = np.empty((n_layers + 1,) + values.shape)
        all_values[n_layers] = values
        policy = np.empty((n_layers,) + values.shape, dtype=np.int16)
    for k in range(n_layers - 1, -1, -1):
        best = None
        best_idx = None
        for c, cand in enumerate(lattice.child_means(values)):
            if step_cost is not None:
                cand = cand + step_cost(k, c)
            if best is None:
                best = cand
                if store:
                    best_idx = np.zeros(cand.shape, dtype=np.int16)
            else:
                # candidates are fresh arrays, so the running best is updated in place
                improved = cand > best
                np.copyto(best, cand, where=improved)
                if store:
                    best_idx[improved] = c
        values = best
        if store:
            all_values[k] = values
            policy[k] = best_idx
    if store:
        return all_values, policy
    return values


@dataclass
class ScenarioField:
    """Value field of a backward maximization plus its argmax covariances."""

    lattice: Lattice
    values: np.ndarray      # (steps + 1, *grid, n)
    policy_idx: np.ndarray  # (steps, *grid, n) indices into lattice.combos

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def value_at_origin(self) -> np.ndarray:
        return self.values[(0,) + self.lattice.origin_index]

    def policy_sigma2(self, k: int) -> np.ndarray:
        """Argmax covariance diagonals at layer k, shape (*grid, n, d)."""
        return self.lattice.combos[self.policy_idx[k]]


def conditional_expectation_field(lattice: Lattice, terminal: TerminalFunctional,
                                  running_cost: Optional[Callable] = None) -> ScenarioField:
    """Full worst-case conditional expectation field of a terminal payoff.

    running_cost(k, states, sigma2) -> (*grid, n), interpreted per unit time,
    is added as cost * dt inside the per-covariance maximization.
    """
    if terminal.monitor_time is not None:
        raise InputError("field extraction supports terminal-state payoffs only; "
                         "monitored payoffs are limited to plain expectations")
    values = terminal.evaluate(lattice.states)
    step_cost = None
    if running_cost is not None:
        dt = lattice.dt
        states = lattice.states

        def step_cost(k, c):
            return np.asarray(running_cost(k, states, lattice.combos[c]), dtype=float) * dt

    all_values, policy = _sweep(lattice, values, step_cost, store=True)
    return ScenarioField(lattice=lattice, values=all_values, policy_idx=policy)


def _expectation_monitored(lattice: Lattice, terminal: TerminalFunctional) -> np.ndarray:
    """Streaming expectation for payoffs of (recorded state, terminal state)."""
    if lattice.d != 1:
        raise InputError("monitored payoffs are supported in dimension 1 only")
    k_mon = lattice.time.index_of(terminal.monitor_time)
    if not 0 < k_mon < lattice.steps:
        raise InputError("monitor time must be strictly inside (0, horizon)")
    axis = lattice.space.axes[0]
    p = axis.shape[0]
    recorded = np.broadcast_to(axis[:, None, None], (p, p, 1))
    current = np.broadcast_to(axis[None, :, None], (p, p, 1))
    values = terminal.evaluate(current, recorded=recorded)  # (p_u, p_x, n)
    for k in range(lattice.steps - 1, k_mon - 1, -1):
        best = None
        for cand in lattice.child_means(values, axis=1):
            best = cand if best is None else np.maximum(best, cand)
        values = best
    diag = values[np.arange(p), np.arange(p), :]  # recorded state equals current
    return _sweep(lattice, diag, start_layer=k_mon)


def sublinear_expectation(lattice: Lattice, terminal: TerminalFunctional) -> np.ndarray:
    """Worst-case expectation of the payoff at the lattice origin, shape (n,)."""
    if terminal.monitor_time is not None:
        values = _expectation_monitored(lattice, terminal)
    else:
        values = _sweep(lattice, terminal.evaluate(lattice.states))
    return values[lattice.origin_index]


def check_indicator(values: np.ndarray) -> np.ndarray:
    """Return event indicator values after checking that they lie in [0, 1]."""
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        raise InputError("event indicator must take values in [0, 1]")
    return values


def capacity_estimate(lattice: Lattice, event: TerminalFunctional) -> float:
    """Worst-case probability of an event given by a 0/1 indicator payoff."""
    values = event.evaluate(lattice.states) if event.monitor_time is None else None
    if values is not None:
        top = _sweep(lattice, check_indicator(values))[lattice.origin_index]
    else:
        top = _expectation_monitored(lattice, event)[lattice.origin_index]
    return float(np.clip(top[0], 0.0, 1.0))


# ---------------------------------------------------------------------------
# Forward Monte Carlo under a fixed admissible control
# ---------------------------------------------------------------------------

def _worker_count() -> int:
    raw = os.environ.get("GCALC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _mc_chunk(lattice: Lattice, terminal: TerminalFunctional, control: Callable,
              m: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    rng = np.random.default_rng(seed_seq)
    dt = lattice.dt
    x = np.zeros((m, lattice.d))
    recorded = None
    k_mon = None
    if terminal.monitor_time is not None:
        k_mon = lattice.time.index_of(terminal.monitor_time)
    lo, up = lattice.box.lower, lattice.box.upper
    for k in range(lattice.steps):
        sig2 = np.asarray(control(k, x), dtype=float)
        sig2 = np.broadcast_to(sig2, (m, lattice.d))
        if np.any(sig2 < lo - 1e-9) or np.any(sig2 > up + 1e-9):
            raise InputError(f"control leaves the volatility box at step {k}")
        signs = rng.integers(0, 2, size=(m, lattice.d)) * 2.0 - 1.0
        x = x + np.sqrt(sig2 * dt) * signs
        if k_mon is not None and k + 1 == k_mon:
            recorded = x.copy()
    return terminal.evaluate(x, recorded=recorded)


def control_monte_carlo(lattice: Lattice, terminal: TerminalFunctional,
                        control: Callable, n_paths: int, seed: int):
    """Estimate the single-measure expectation of the payoff under `control`.

    control(k, x_batch) must return covariance diagonals inside the box,
    broadcastable to the batch. Returns (estimate, standard_error), each of
    shape (n,). Results are reproducible for a given seed and do not depend
    on GCALC_THREADS (the path set is split into fixed chunks).
    """
    if n_paths <= 0:
        raise InputError("n_paths must be positive")
    chunk_count = min(_MC_CHUNKS, n_paths)
    sizes = [n_paths // chunk_count + (1 if i < n_paths % chunk_count else 0)
             for i in range(chunk_count)]
    seeds = np.random.SeedSequence(seed).spawn(chunk_count)
    workers = min(_worker_count(), chunk_count)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda args: _mc_chunk(lattice, terminal, control, *args),
                zip(sizes, seeds)))
    else:
        parts = [_mc_chunk(lattice, terminal, control, m, s)
                 for m, s in zip(sizes, seeds)]
    vals = np.concatenate(parts, axis=0)
    est = vals.mean(axis=0)
    if n_paths > 1:
        se = vals.std(axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        se = np.full(est.shape, np.inf)
    return est, se


# ---------------------------------------------------------------------------
# Field evaluation at off-grid states
# ---------------------------------------------------------------------------

def _axis_weights(axis: np.ndarray, q: np.ndarray):
    """Three-point quadratic interpolation nodes/weights along one axis.

    Queries beyond the span clamp to the boundary value. Exact for fields
    that are quadratic in the state.
    """
    p = axis.shape[0]
    h = axis[1] - axis[0]
    u = np.clip((q - axis[0]) / h, 0.0, p - 1.0)
    i = np.clip(np.rint(u).astype(int), 1, p - 2)
    t = u - i
    w = np.stack([0.5 * t * (t - 1.0), 1.0 - t * t, 0.5 * t * (t + 1.0)], axis=0)
    return i, w


def evaluate_field(space: SpaceGrid, layer: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interpolate one stored layer (*grid, *trailing) at query states (m, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != space.d:
        raise DimensionError(f"queries are {x.shape}, expected (m, {space.d})")
    trailing = layer.shape[space.d:]
    pad = (1,) * len(trailing)
    i0, w0 = _axis_weights(space.axes[0], x[:, 0])
    if space.d == 1:
        out = sum(w0[j].reshape((-1,) + pad) * layer[i0 + j - 1] for j in range(3))
        return out
    i1, w1 = _axis_weights(space.axes[1], x[:, 1])
    rows = sum(w0[j].reshape((-1, 1) + pad) * layer[i0 + j - 1] for j in range(3))
    m = np.arange(x.shape[0])
    out = sum(w1[j].reshape((-1,) + pad) * rows[m, i1 + j - 1] for j in range(3))
    return out


def nearest_index(space: SpaceGrid, x: np.ndarray) -> tuple:
    """Grid indices of the nodes nearest to query states (m, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = []
    for a in range(space.d):
        axis = space.axes[a]
        h = axis[1] - axis[0]
        u = np.clip((x[:, a] - axis[0]) / h, 0.0, axis.shape[0] - 1.0)
        out.append(np.rint(u).astype(int))
    return tuple(out)
