"""Matrix and block-diagonal tensor algebra for volatility uncertainty.

The state dimension is d and the value dimension is n (both small). A
"diagonal tensor" is a stack of n diagonal d x d matrices, stored as its
diagonals only. The worst-case quadratic form over a box of diagonal
covariance matrices has a closed corner form, implemented here next to a
brute-force grid version used as its cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError

# Absolute tolerance for exact algebraic identities.
ALGEBRA_TOL = 1e-12

# Condition number beyond which a mixing matrix is treated as singular.
_COND_LIMIT = 1e12

# Largest covariance grid: lattice policies store combo indices as int16.
MAX_COMBOS = int(np.iinfo(np.int16).max)


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    return m


def check_symmetric(a, tol: float = ALGEBRA_TOL) -> np.ndarray:
    """Return `a` as an ndarray after checking square symmetry within tol."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix is {m.shape}, expected square")
    if np.max(np.abs(m - m.T), initial=0.0) > tol:
        raise InputError("matrix is not symmetric within tolerance")
    return m


def colon_product(a, b) -> float:
    """Frobenius pairing tr(a^T b) of two equal-shaped matrices."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return float(np.sum(ma * mb))


def matrix_norm(a) -> float:
    """Norm induced by the colon product (Frobenius norm)."""
    m = _as_matrix(a)
    return float(np.sqrt(np.sum(m * m)))


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

    @property
    def norm(self) -> float:
        """sqrt(sum_i block_i : block_i)."""
        return float(np.sqrt(np.sum(self.diag * self.diag)))

    def blocks(self) -> np.ndarray:
        """Materialize the (n, d, d) stack of diagonal matrices."""
        out = np.zeros((self.n, self.d, self.d))
        idx = np.arange(self.d)
        out[:, idx, idx] = self.diag
        return out

    @classmethod
    def from_blocks(cls, mats) -> "DiagTensor":
        """Build from an (n, d, d) stack, rejecting off-diagonal content."""
        a = np.asarray(mats, dtype=float)
        if a.ndim == 2:
            a = a[None]
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionError(f"expected (n, d, d) blocks, got {a.shape}")
        idx = np.arange(a.shape[1])
        diags = a[:, idx, idx]
        rebuilt = np.zeros_like(a)
        rebuilt[:, idx, idx] = diags
        if np.max(np.abs(a - rebuilt), initial=0.0) > ALGEBRA_TOL:
            raise InputError("blocks have off-diagonal entries")
        return cls(diags)

    def __add__(self, other: "DiagTensor") -> "DiagTensor":
        self._check_like(other)
        return DiagTensor(self.diag + other.diag)

    def __sub__(self, other: "DiagTensor") -> "DiagTensor":
        self._check_like(other)
        return DiagTensor(self.diag - other.diag)

    def __rmul__(self, scalar: float) -> "DiagTensor":
        return DiagTensor(float(scalar) * self.diag)

    def _check_like(self, other):
        if not isinstance(other, DiagTensor) or other.diag.shape != self.diag.shape:
            raise DimensionError("tensors have different (n, d) shapes")


def pos_neg_split(eta: DiagTensor) -> tuple[DiagTensor, DiagTensor]:
    """Entrywise split eta = plus - minus with both parts nonnegative."""
    return DiagTensor(np.clip(eta.diag, 0.0, None)), DiagTensor(np.clip(-eta.diag, 0.0, None))


def tensor_contract(eta: DiagTensor, gamma) -> np.ndarray:
    """Componentwise pairing (block_i : gamma) against one symmetric matrix.

    Only the diagonal of gamma survives because the blocks are diagonal.
    """
    g = check_symmetric(gamma)
    if g.shape[0] != eta.d:
        raise DimensionError(f"gamma is {g.shape}, tensor axis is d={eta.d}")
    return eta.diag @ np.diag(g)


def tensor_dot(lhs, rhs: DiagTensor, gamma=None):
    """Contractions between vectors / diagonal tensors.

    tensor_dot(eta, theta)        -> d x d diagonal matrix sum_i eta_i^T theta_i
    tensor_dot(xi, eta)           -> d x d diagonal matrix sum_i xi_i eta_i
    tensor_dot(xi, eta, gamma)    -> scalar sum_i xi_i (eta_i : gamma)
    """
    if not isinstance(rhs, DiagTensor):
        raise DimensionError("second operand must be a DiagTensor")
    if isinstance(lhs, DiagTensor):
        if gamma is not None:
            raise DimensionError("gamma form takes a vector on the left")
        lhs._check_like(rhs)
        return np.diag(np.sum(lhs.diag * rhs.diag, axis=0))
    xi = np.asarray(lhs, dtype=float)
    if xi.ndim != 1 or xi.shape[0] != rhs.n:
        raise DimensionError(f"vector length {xi.shape} does not match n={rhs.n}")
    if gamma is None:
        return np.diag(xi @ rhs.diag)
    return float(xi @ tensor_contract(rhs, gamma))


@dataclass(frozen=True)
class VolatilityBox:
    """Axis-aligned box of diagonal covariance matrices.

    lower/upper hold the per-axis variance bounds (the diagonals of the two
    corner matrices). grid_points_per_axis controls the finite variance grid
    used by lattice maximizations and brute-force checks.
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

    def contains(self, sigma2, tol: float = 1e-9) -> bool:
        s = np.asarray(sigma2, dtype=float)
        return bool(np.all(s >= self.lower - tol) and np.all(s <= self.upper + tol))


def g_diag(eta: DiagTensor, box: VolatilityBox) -> np.ndarray:
    """Worst-case half quadratic form, componentwise over the block stack.

    For each block the supremum of 0.5 * (sigma2 : block) over the box is
    attained at a corner: upper bound where the diagonal entry is positive,
    lower bound where it is negative.
    """
    if eta.d != box.d:
        raise DimensionError(f"tensor d={eta.d} does not match box d={box.d}")
    plus, minus = pos_neg_split(eta)
    return 0.5 * (plus.diag @ box.upper - minus.diag @ box.lower)


def g_argmax_sigma(eta: DiagTensor, box: VolatilityBox) -> np.ndarray:
    """Corner covariance diagonals attaining g_diag, shape (n, d).

    Zero entries resolve to the lower bound, matching the lattice tie rule.
    """
    if eta.d != box.d:
        raise DimensionError(f"tensor d={eta.d} does not match box d={box.d}")
    return np.where(eta.diag > 0.0, box.upper, box.lower)


def g_sym_bruteforce(a, box: VolatilityBox, points_per_axis: int | None = None) -> float:
    """Grid supremum of 0.5 * tr(a sigma2) over diagonal sigma2 in the box.

    `a` must be symmetric; only its diagonal couples to diagonal covariances.
    The grid contains both corner values per axis, so for any matrix the
    returned value equals the true supremum exactly (the maximizer of a
    linear function over a box sits at a corner, and corners are on the grid).
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


@dataclass(frozen=True)
class CorrelationSpec:
    """Linear mixing y = P x of an uncorrelated box-volatility state x."""

    mixing: np.ndarray
    box: VolatilityBox

    def __post_init__(self):
        p = _as_matrix(self.mixing)
        if p.shape != (self.box.d, self.box.d):
            raise DimensionError(f"mixing is {p.shape}, box d={self.box.d}")
        if np.linalg.cond(p) > _COND_LIMIT:
            raise InputError("mixing matrix is singular or near-singular")
        object.__setattr__(self, "mixing", p)


def correlated_bounds(spec: CorrelationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise covariance envelope (q_low, q_high) of the mixed state.

    q_high[i, j] = sup over the box of sum_l p_il p_jl sigma2_l, and q_low the
    infimum; both are attained corner-by-corner through the sign of p_il p_jl.
    """
    p = spec.mixing
    w = np.einsum("il,jl->ijl", p, p)
    wp = np.clip(w, 0.0, None)
    wm = np.clip(-w, 0.0, None)
    q_high = wp @ spec.box.upper - wm @ spec.box.lower
    q_low = wp @ spec.box.lower - wm @ spec.box.upper
    return q_low, q_high
