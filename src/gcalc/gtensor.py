"""Volatility boxes and the worst-case generator over them.

A "diagonal tensor" stacks n diagonal d x d matrices as their diagonals.
The worst-case quadratic form over a box of diagonal covariances has a
closed corner form (`g_corner`, the one kernel every caller uses), with a
brute-force grid version as its cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError

# Absolute tolerance for exact algebraic identities.
ALGEBRA_TOL = 1e-12

# Largest covariance grid: lattice policies store combo indices as int16.
MAX_COMBOS = int(np.iinfo(np.int16).max)


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    return m


def check_symmetric(a) -> np.ndarray:
    """Return `a` as an ndarray after checking square symmetry within
    ALGEBRA_TOL."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix is {m.shape}, expected square")
    if np.max(np.abs(m - m.T), initial=0.0) > ALGEBRA_TOL:
        raise InputError("matrix is not symmetric within tolerance")
    return m


@dataclass(frozen=True)
class DiagTensor:
    """Stack of n diagonal d x d matrices, stored as an (n, d) diagonal array."""

    diag: np.ndarray

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.diag, dtype=float))
        if d.ndim != 2:
            raise DimensionError(f"diag must be (n, d), got ndim={d.ndim}")
        if not np.all(np.isfinite(d)):
            raise InputError("tensor entries must be finite")
        object.__setattr__(self, "diag", d)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def d(self) -> int:
        return self.diag.shape[1]


@dataclass(frozen=True)
class VolatilityBox:
    """Axis-aligned box of diagonal covariance matrices.

    lower/upper hold the per-axis variance bounds. grid_points_per_axis sets
    the candidate variance grid of lattice maximizations (which skip its
    dominated levels) and of brute-force checks.
    """

    lower: np.ndarray
    upper: np.ndarray
    grid_points_per_axis: int = 5

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != up.shape or lo.ndim != 1:
            raise DimensionError("lower/upper must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise InputError("box bounds must be finite")
        if np.any(lo <= 0.0):
            raise InputError("variance lower bounds must be strictly positive")
        if np.any(up < lo):
            raise InputError("upper bounds must dominate lower bounds")
        if self.grid_points_per_axis < 2:
            raise InputError("grid_points_per_axis must be at least 2")
        if self.grid_points_per_axis ** lo.shape[0] > MAX_COMBOS:
            raise InputError(f"grid_points_per_axis ** d must not exceed {MAX_COMBOS}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def sigma_min_sq(self) -> float:
        return float(np.min(self.lower))

    @property
    def sigma_max_sq(self) -> float:
        return float(np.max(self.upper))

    @property
    def is_degenerate(self) -> bool:
        return bool(np.all(self.upper == self.lower))

    def axis_grid(self, j: int) -> np.ndarray:
        return np.linspace(self.lower[j], self.upper[j], self.grid_points_per_axis)

    def sigma2_combos(self) -> np.ndarray:
        """All grid covariance diagonals, lexicographically ascending."""
        axes = [self.axis_grid(j) for j in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def corners(self) -> np.ndarray:
        """The 2^d corner diagonals, lexicographically ascending."""
        axes = [np.array([self.lower[j], self.upper[j]]) for j in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, sigma2) -> bool:
        """Whether sigma2 lies in the box, up to 1e-9 per bound."""
        s = np.asarray(sigma2, dtype=float)
        return bool(np.all(s >= self.lower - 1e-9) and np.all(s <= self.upper + 1e-9))


def g_corner(eta: np.ndarray, box: VolatilityBox) -> np.ndarray:
    """Worst-case half quadratic form over the box, per trailing (d,) row.

    The supremum of 0.5 * (sigma2 : eta) over the box is attained at a
    corner: upper bound where the diagonal entry is positive, lower bound
    where it is negative. eta has shape (..., d); the result has shape (...).
    """
    return 0.5 * (np.clip(eta, 0.0, None) @ box.upper
                  - np.clip(-eta, 0.0, None) @ box.lower)


def g_diag(eta: DiagTensor, box: VolatilityBox) -> np.ndarray:
    """g_corner of each block of a diagonal tensor, shape (n,)."""
    if eta.d != box.d:
        raise DimensionError(f"tensor d={eta.d} does not match box d={box.d}")
    return g_corner(eta.diag, box)


def g_sym_bruteforce(a, box: VolatilityBox, points_per_axis: int | None = None) -> float:
    """Grid supremum of 0.5 * tr(a sigma2) over diagonal sigma2 in the box.

    `a` must be symmetric; only its diagonal couples to diagonal covariances.
    The grid holds every corner, where a linear function's maximum over a
    box sits, so the result is the exact supremum.
    """
    m = check_symmetric(a)
    if m.shape[0] != box.d:
        raise DimensionError(f"matrix is {m.shape}, box d={box.d}")
    pts = box.grid_points_per_axis if points_per_axis is None else int(points_per_axis)
    if pts < 2:
        raise InputError("points_per_axis must be at least 2")
    diag_a = np.diag(m)
    axes = [np.linspace(box.lower[j], box.upper[j], pts) for j in range(box.d)]
    # max of sum_j a_jj sigma_j separates across axes; no need to materialize
    # the full product grid.
    total = 0.0
    for j in range(box.d):
        total += np.max(diag_a[j] * axes[j])
    return 0.5 * float(total)
