"""Worst-case expectation engine on a recombining state lattice.

One backward step branches each node of a uniform grid into per-axis up/down
moves of sigma_j * sqrt(dt) for every covariance of the box grid that is not
dominated (see Lattice) and keeps the largest expected child value. Off-grid
children go onto the two bracketing nodes with nonnegative weights that make
the branch second moment exact, so quadratic payoffs stay bias-free. The
weights are a product over axes, so child means are formed one axis at a
time from shifted slices of the edge-padded layer.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise InputError("horizon must be positive and finite")
        if not (isinstance(self.steps, numbers.Integral) and 1 <= self.steps <= MAX_STEPS):
            raise InputError(f"steps must be an integer in [1, {MAX_STEPS}]")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of a time that must sit on the grid, to within 1e-9
        times max(1, horizon)."""
        k = round(t / self.dt)
        if not (0 <= k <= self.steps) or abs(k * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise InputError(f"time {t} is not on the grid")
        return int(k)


def _check_axis_points(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise InputError("each axis needs an odd number (>= 3) of points")
    if p > MAX_POINTS_PER_AXIS:
        raise InputError(f"points per axis capped at {MAX_POINTS_PER_AXIS}")


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
            if a.ndim != 1:
                raise InputError("each axis needs an odd number (>= 3) of points")
            _check_axis_points(a.shape[0])
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
        for p in points:
            _check_axis_points(p)       # before any axis is allocated
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
    """Payoff of the terminal state: fn maps (..., d) state arrays to
    (..., n) values."""

    fn: Callable
    lipschitz: float
    n: int = 1

    def __post_init__(self):
        if self.lipschitz < 0 or not math.isfinite(self.lipschitz):
            raise InputError("lipschitz constant must be finite and nonnegative")
        if not 1 <= self.n <= MAX_COMPONENTS:
            raise InputError(f"value components must be in [1, {MAX_COMPONENTS}]")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(x), dtype=float)
        expected = x.shape[:-1] + (self.n,)
        if vals.shape != expected:
            raise DimensionError(f"payoff returned {vals.shape}, expected {expected}")
        if not np.isfinite(vals).all():
            raise InputError("payoff produced non-finite values")
        return vals


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

    Lattice axis a is array axis a of every layer it acts on; trailing axes
    ride along. combos is the box grid (`box.sigma2_combos()`) without its
    dominated levels, lexicographically ascending. A move's weights are
    affine in sigma^2 within a bracket m = floor(sigma sqrt(dt) / h), and a
    level landing on node m + 1 exactly ends bracket m's affine piece too.
    So a level strictly inside its run of equal m, or the last of the run
    when the next level lands on a node, is a convex combination of its
    neighbours and never beats both; each axis drops it. moves[a][level]
    holds per kept level of axis a, ascending, the four `_axis_allocation`
    moves (up, then down) as (slice of the edge-padded axis, 0.5 * weight).
    """

    def __init__(self, time: TimeGrid, space: SpaceGrid, box: VolatilityBox):
        if space.d != box.d:
            raise DimensionError("space grid and box dimensions differ")
        self.time = time
        self.space = space
        self.box = box
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
        kept_levels = []
        for a, (h, p) in enumerate(zip(space.spacing, space.shape)):
            levels = sorted(set(box.axis_grid(a).tolist()))
            ups = [_axis_allocation(math.sqrt(s2 * dt), h) for s2 in levels]
            # dominated: the left neighbour shares bracket m and the right one
            # closes it, sharing it or landing on node m + 1 (w_hi == 0)
            m = [up[0][0] for up in ups]
            closes = [mi - (up[1][1] == 0.0) for mi, up in zip(m, ups)]
            kept = [i for i in range(len(ups)) if i in (0, len(ups) - 1)
                    or not m[i - 1] == m[i] == closes[i + 1]]
            kept_levels.append([levels[i] for i in kept])
            ups = [ups[i] for i in kept]
            reach = max(off for up in ups for off, _ in up)
            self._pad_index.append(np.clip(np.arange(-reach, p + reach), 0, p - 1))
            self.moves.append([
                [(slice(reach + off, reach + off + p), 0.5 * w)
                 for off, w in up + [(-off, w) for off, w in up]]
                for up in ups])
        self.combos = np.array(list(itertools.product(*kept_levels)))

    # -- grid conveniences
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

    # -- transition operator
    def edge_pad(self, values: np.ndarray, a: int) -> np.ndarray:
        """Repeat the boundary nodes of axis a out to that axis's reach."""
        return np.take(values, self._pad_index[a], axis=a)

    def _axis_mean(self, padded: np.ndarray, a: int, level: int) -> np.ndarray:
        """Weighted sum of the shifted slices of one axis level's moves."""
        lead = (slice(None),) * a
        out = buf = None
        for rows, w in self.moves[a][level]:
            if w == 0.0:
                continue
            if out is None:
                out = w * padded[lead + (rows,)]
                continue
            if buf is None:
                buf = np.empty_like(out)
            np.multiply(w, padded[lead + (rows,)], out=buf)
            np.add(out, buf, out=out)
        return out

    def child_means(self, values: np.ndarray, a: int = 0):
        """Yield the expected next-layer values under every covariance, in
        combo order. Below the top call, values is already averaged over the
        axes before a, so each partial mean is formed once per level prefix
        and shared by every combo with that prefix."""
        padded = self.edge_pad(values, a)
        for level in range(len(self.moves[a])):
            if a == self.d - 1:
                yield self._axis_mean(padded, a, level)
            else:
                yield from self.child_means(self._axis_mean(padded, a, level), a + 1)


def build_lattice(time: TimeGrid, space: SpaceGrid, box: VolatilityBox) -> Lattice:
    return Lattice(time, space, box)


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------

def _sweep(lattice: Lattice, terminal_values: np.ndarray,
           step_cost: Optional[Callable[[int, int], np.ndarray]] = None,
           store=False, start_layer: Optional[int] = None,
           layer_cost: Optional[Callable[[int], np.ndarray]] = None):
    """Backward induction from `start_layer` (default last), the layer
    terminal_values sits on, down to layer 0.

    The package's only worst-case backward-induction loop. Every trailing
    axis of terminal_values (*grid, *trailing) is an independent value
    column.

    step_cost(k, combo_index), time weight included, is added to every
    candidate of layer k; it must be affine in sigma^2 within a bracket, or
    the levels that Lattice drops could have won. layer_cost(k) does not
    depend on sigma^2 and is added once, to the maximum: rounding is
    monotone, so max_c fl(a_c + b) == fl(max_c a_c + b).

    store=False returns layer 0; a grid index (such as
    lattice.origin_index) returns values[index] of every layer, first layer
    first; True returns (every layer, policy). The policy scans the combos
    in order with a strict improvement test, so ties keep the smallest
    covariance, and ranks without layer_cost. Without a policy,
    np.maximum(candidate, best) keeps `best` on ties, signed zeros
    included, so the values carry the scan's bits (but propagate NaN).
    """
    n_layers = lattice.steps if start_layer is None else start_layer
    values = np.asarray(terminal_values, dtype=float)
    track = store is True
    keep = ... if track else store
    if keep is not False:
        kept = np.empty((n_layers + 1,) + values[keep].shape)
        kept[n_layers] = values[keep]
    if track:
        best_policy = np.empty((n_layers,) + values.shape, dtype=np.int16)
    for k in range(n_layers - 1, -1, -1):
        best = None
        for c, cand in enumerate(lattice.child_means(values)):
            if step_cost is not None:
                cand = cand + step_cost(k, c)
            # candidates are fresh arrays, so the running best is updated in place
            if best is None:
                best = cand
                if track:
                    best_idx = np.zeros(cand.shape, dtype=np.int16)
            elif track:
                improved = cand > best
                np.copyto(best, cand, where=improved)
                best_idx[improved] = c
            else:
                np.maximum(cand, best, out=best)
        if layer_cost is not None:
            best += layer_cost(k)
        values = best
        if keep is not False:
            kept[k] = values[keep]
        if track:
            best_policy[k] = best_idx
    if track:
        return kept, best_policy
    return values if keep is False else kept


@dataclass
class ScenarioField:
    """Value field of a backward maximization plus its argmax covariances."""

    lattice: Lattice
    values: np.ndarray      # (steps + 1, *grid, n)
    policy_idx: np.ndarray  # (steps, *grid, n) indices into lattice.combos


def conditional_expectation_field(lattice: Lattice, terminal: TerminalFunctional) -> ScenarioField:
    """Full worst-case conditional expectation field of a terminal payoff,
    the maximum over the whole box grid; policy_idx indexes lattice.combos,
    not box.sigma2_combos()."""
    values = terminal.evaluate(lattice.states)
    all_values, policy = _sweep(lattice, values, store=True)
    return ScenarioField(lattice=lattice, values=all_values, policy_idx=policy)


def sublinear_expectation(lattice: Lattice, terminal: TerminalFunctional) -> np.ndarray:
    """Worst-case expectation of the payoff at the lattice origin, shape (n,)."""
    return _sweep(lattice, terminal.evaluate(lattice.states))[lattice.origin_index]


def check_indicator(values: np.ndarray) -> np.ndarray:
    """Return event indicator values after checking that they lie in [0, 1]."""
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        raise InputError("event indicator must take values in [0, 1]")
    return values


# ---------------------------------------------------------------------------
# Controlled forward walk
# ---------------------------------------------------------------------------

def _increment(sig2: np.ndarray, dt: float, signs: np.ndarray) -> np.ndarray:
    """One step's path increments sqrt(sig2 * dt) * signs."""
    return np.sqrt(sig2 * dt) * signs


def _walk(time: TimeGrid, box: VolatilityBox, control: Callable,
          signs: Callable, m: int):
    """Walk m paths from the origin under a covariance control.

    Per step k, control(k, x) gives covariance diagonals inside the box,
    broadcastable to (m, d); each axis moves by sqrt(sig2 * dt) times the
    +/-1 entries of signs(k) (`_increment`). Yields (sig2_k, dx_k, x_{k+1}).
    """
    d = box.d
    x = np.zeros((m, d))
    for k in range(time.steps):
        raw = np.asarray(control(k, x), dtype=float)
        try:
            sig2 = np.broadcast_to(raw, (m, d))
        except ValueError:
            raise DimensionError(f"control returned shape {raw.shape} at step {k}, "
                                 f"expected one broadcastable to {(m, d)}") from None
        if not box.contains(sig2):
            raise InputError(f"control leaves the volatility box at step {k}")
        dx = _increment(sig2, time.dt, signs(k))
        x = x + dx
        yield sig2, dx, x


# ---------------------------------------------------------------------------
# Field evaluation at off-grid states
# ---------------------------------------------------------------------------

def _unit_position(axis: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Queries in grid steps from the axis start, clamped like np.clip; a
    query more than a step off the axis moves to one step off first, so
    none overflows."""
    h = axis[1] - axis[0]
    q = np.minimum(np.maximum(axis[0] - h, q), axis[-1] + h)
    return np.minimum(np.maximum(0.0, (q - axis[0]) / h), axis.shape[0] - 1.0)


def _axis_weights(axis: np.ndarray, q: np.ndarray):
    """Three-point quadratic interpolation nodes/weights along one axis.

    Queries beyond the span clamp to the boundary value. Exact for fields
    that are quadratic in the state.
    """
    u = _unit_position(axis, q)
    i = np.minimum(np.maximum(1, np.rint(u).astype(int)), axis.shape[0] - 2)
    t = u - i
    return i, np.array((0.5 * t * (t - 1.0), 1.0 - t * t, 0.5 * t * (t + 1.0)))


def evaluate_field(space: SpaceGrid, layer: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interpolate one stored layer (*grid, *trailing) at query states (m, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise InputError("query states must be finite")
    if x.shape[1] != space.d:
        raise DimensionError(f"queries are {x.shape}, expected (m, {space.d})")
    vals, lead = layer, ()
    for a, axis in enumerate(space.axes):
        i, w = _axis_weights(axis, x[:, a])
        w = w.reshape((3, -1) + (1,) * (vals.ndim - 1 - len(lead)))
        # from 0.0, as sum() adds: a -0.0 first term reads +0.0
        out = 0.0 + w[0] * vals[lead + (i - 1,)]
        out += w[1] * vals[lead + (i,)]
        out += w[2] * vals[lead + (i + 1,)]
        vals, lead = out, (np.arange(x.shape[0]),)
    return vals


def nearest_index(space: SpaceGrid, x: np.ndarray) -> tuple:
    """Grid indices of the nodes nearest to query states (m, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise InputError("query states must be finite")
    return tuple(np.rint(_unit_position(axis, x[:, a])).astype(int)
                 for a, axis in enumerate(space.axes))
