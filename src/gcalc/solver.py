"""Second-order BSDE engine under volatility uncertainty.

The value field of a worst-case conditional expectation is decomposed into a
gradient integrand Z (spatial central differences), a curvature integrand eta
(second differences, shifted by twice the bracket driver so the pathwise
budget identity closes under every admissible control), and a nondecreasing
compensator K that vanishes under the argmax covariance policy. A damped
fixed-point driver loop produces the coupled solution; an independent
layerwise-implicit single-control solver serves as the degenerate-box oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DegenerateBoxError, InputError
from .scenario import (Lattice, TerminalFunctional, _sweep,
                       conditional_expectation_field, evaluate_field,
                       nearest_index)
from .calculus import weighted_norms

#: Default grid scanned for the smallest weight exponent with certified
#: per-iteration contraction.
BETA_SCAN = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


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

    def spot_check(self, d: int, rng: np.random.Generator, probes: int = 32,
                   scale: float = 4.0, rtol: float = 1e-6) -> None:
        """Probe random argument pairs against the declared Lipschitz bounds."""
        n = self.terminal.n
        for _ in range(probes):
            y1, y2 = rng.uniform(-scale, scale, (2, n))
            z1, z2 = rng.uniform(-scale, scale, (2, d, n))
            e1, e2 = rng.uniform(-scale, scale, (2, n, d))
            dist = (np.linalg.norm(y1 - y2) + np.linalg.norm(z1 - z2)
                    + np.linalg.norm(e1 - e2))
            t = float(rng.uniform(0.0, 1.0))
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
    """Lattice solution fields. Shapes: Y (steps+1, *grid, n);
    Z (steps+1, *grid, d, n); eta (steps+1, *grid, n, d);
    K_inc (steps, *grid, n); policy_idx (steps, *grid, n)."""

    lattice: Lattice
    Y: np.ndarray
    Z: np.ndarray
    eta: np.ndarray
    K_inc: np.ndarray
    policy_idx: np.ndarray
    g_field: np.ndarray

    @property
    def n(self) -> int:
        return self.Y.shape[-1]

    @property
    def y0(self) -> np.ndarray:
        return self.Y[(0,) + self.lattice.origin_index]

    def policy_sigma2(self) -> np.ndarray:
        """Argmax covariance diagonals, shape (steps, *grid, n, d)."""
        return self.lattice.combos[self.policy_idx]


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    converged: bool
    distances: tuple             # stopping-norm (unweighted) distance trace
    distances_by_beta: dict      # beta -> tuple of squared triple distances
    contraction_factors: tuple   # squared-distance ratios at reporting beta
    beta: Optional[float]        # reporting beta (empirical beta0 when found)
    beta0_empirical: Optional[float]
    theoretical_factor: float
    mu: float
    nu: float
    tol: float


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float            # on-policy reconstruction residual
    terminal_gap: float            # field-vs-payoff gap at the final layer
    off_policy_max_residual: float
    off_policy_min_margin: float   # min of Y_t minus the K-free right side
    n_paths: int
    n_controls: int
    seed: int


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

def _second_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    w = np.moveaxis(values, axis, 0)
    out = np.empty_like(w)
    out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
    out[0] = out[1]      # one-sided: reuse the adjacent interior estimate
    out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


def extract_integrands(values: np.ndarray, lattice: Lattice,
                       g_field: Optional[np.ndarray] = None):
    """Gradient and curvature integrands of a value field.

    values has shape (layers, *grid, n). The curvature integrand is the
    spatial second difference plus twice the bracket-driver coefficients,
    which is the coefficient the bracket picks up in the budget identity.
    """
    spacing = lattice.space.spacing
    grads = [np.gradient(values, spacing[a], axis=1 + a, edge_order=1)
             for a in range(lattice.d)]
    z = np.stack(grads, axis=-2)
    curv = [_second_diff(values, spacing[a], 1 + a) for a in range(lattice.d)]
    eta = np.stack(curv, axis=-1)
    if g_field is not None:
        eta = eta + 2.0 * g_field
    return z, eta


def _g_corner_value(eta: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Componentwise worst-case half quadratic form of (..., n, d) diagonals."""
    plus = np.clip(eta, 0.0, None)
    minus = np.clip(-eta, 0.0, None)
    return 0.5 * (plus @ lattice.box.upper - minus @ lattice.box.lower)


def _compensator_increments(eta: np.ndarray, policy_idx: np.ndarray,
                            lattice: Lattice) -> np.ndarray:
    """Per-step compensator (G(eta) - half eta : policy covariance) * dt.

    Nonnegative by construction because the policy stays inside the box.
    """
    steps = policy_idx.shape[0]
    sigma_star = lattice.combos[policy_idx]              # (steps, *grid, n, d)
    g_val = _g_corner_value(eta[:steps], lattice)         # (steps, *grid, n)
    pinned = 0.5 * np.sum(eta[:steps] * sigma_star, axis=-1)
    return (g_val - pinned) * lattice.dt


def represent_martingale(terminal: TerminalFunctional, lattice: Lattice) -> BsdeSolution:
    """Decompose the worst-case conditional expectation of a payoff."""
    fld = conditional_expectation_field(lattice, terminal)
    g_zero = np.zeros(fld.values.shape + (lattice.d,))
    z, eta = extract_integrands(fld.values, lattice)
    k_inc = _compensator_increments(eta, fld.policy_idx, lattice)
    return BsdeSolution(lattice=lattice, Y=fld.values, Z=z, eta=eta,
                        K_inc=k_inc, policy_idx=fld.policy_idx, g_field=g_zero)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def _driver_fields(params: GBsdeParams, lattice: Lattice, y: np.ndarray,
                   z: np.ndarray, eta: np.ndarray):
    """Evaluate both drivers layer by layer on frozen input fields."""
    times = lattice.time.times()
    n = params.terminal.n
    f_vals = np.empty(y.shape)
    g_vals = np.empty(y.shape + (lattice.d,))
    for k in range(lattice.steps + 1):
        f_vals[k] = np.asarray(params.f.fn(times[k], y[k], z[k], eta[k]), dtype=float)
        g_vals[k] = np.asarray(params.g.fn(times[k], y[k], z[k], eta[k]), dtype=float)
    if not (np.isfinite(f_vals).all() and np.isfinite(g_vals).all()):
        raise InputError("driver produced non-finite values")
    return f_vals, g_vals


def picard_step(inputs, params: GBsdeParams, lattice: Lattice) -> BsdeSolution:
    """One contraction-map application on frozen (y, z, eta) input fields.

    The drivers enter the backward maximization as running cost
    (f + g : sigma2) * dt; the output integrands are then read off the new
    value field, with the curvature shifted by the bracket coefficients.
    """
    y_in, z_in, eta_in = inputs
    f_vals, g_vals = _driver_fields(params, lattice, y_in, z_in, eta_in)
    terminal_values = params.terminal.evaluate(lattice.states)
    dt = lattice.dt

    def step_cost(k, c):
        return (f_vals[k] + g_vals[k] @ lattice.combos[c]) * dt

    values, policy = _sweep(lattice, terminal_values, step_cost, store=True)
    z, eta = extract_integrands(values, lattice, g_field=g_vals)
    k_inc = _compensator_increments(eta, policy, lattice)
    return BsdeSolution(lattice=lattice, Y=values, Z=z, eta=eta, K_inc=k_inc,
                        policy_idx=policy, g_field=g_vals)


def _zero_fields(lattice: Lattice, n: int):
    shape = (lattice.steps + 1,) + lattice.space.shape
    return (np.zeros(shape + (n,)),
            np.zeros(shape + (lattice.d, n)),
            np.zeros(shape + (n, lattice.d)))


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


def solve_gbsde(params: GBsdeParams, lattice: Lattice, beta: Optional[float] = None,
                mu: Optional[float] = None, nu: Optional[float] = None,
                tol: float = 1e-9, max_iter: int = 60,
                initial=None) -> tuple:
    """Iterate the contraction map to its fixed point.

    Stops when the unweighted triple distance between successive iterates
    falls below tol. When beta is not given, the BETA_SCAN grid is searched
    for the smallest weight whose measured per-iteration squared contraction
    stays within the theoretical factor; it is reported as beta0_empirical.
    Raises ConvergenceError (with the distance trace) when max_iter is hit.
    """
    params.spot_check(lattice.d, np.random.default_rng(0))
    mu2, nu2 = default_penalties(params, lattice)
    if mu is not None:
        mu2 = float(mu) ** 2
    if nu is not None:
        nu2 = float(nu) ** 2
    c = params.lipschitz
    theoretical = 5.0 * c / lattice.box.sigma_min_sq * (1.0 / mu2 + 1.0 / nu2)

    scan = BETA_SCAN if beta is None else (float(beta),)
    max_beta_t = 0.99 * 700.0
    scan = tuple(b for b in scan if b * lattice.time.horizon <= max_beta_t)
    if not scan:
        raise InputError("all candidate betas overflow the weight range")

    if initial is None:
        fields = _zero_fields(lattice, params.terminal.n)
    elif isinstance(initial, BsdeSolution):
        fields = (initial.Y, initial.Z, initial.eta)
    else:
        fields = tuple(np.asarray(a, dtype=float) for a in initial)

    distances = []
    dist_by_beta = {b: [] for b in scan}
    solution = None
    converged = False
    for _ in range(max_iter):
        solution = picard_step(fields, params, lattice)
        delta = (solution.Y - fields[0], solution.Z - fields[1],
                 solution.eta - fields[2])
        sq0, *sq_scan = _triple_sq(weighted_norms(delta, lattice, (0.0,) + scan))[0]
        dist0 = math.sqrt(sq0)
        distances.append(dist0)
        for b, sq in zip(scan, sq_scan):
            dist_by_beta[b].append(sq)
        fields = (solution.Y, solution.Z, solution.eta)
        if dist0 < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"no fixed point within {max_iter} iterations (last distance "
            f"{distances[-1]:.3g}, tol {tol:.3g})", trace=distances)

    def factors_at(b: float) -> tuple:
        sq = dist_by_beta[b]
        out = []
        floor = max(tol * tol, 1e-28)
        for i in range(len(sq) - 1):
            if sq[i] > floor * 100.0:
                out.append(sq[i + 1] / sq[i])
        return tuple(out)

    beta0 = None
    for b in scan:
        fac = factors_at(b)
        if fac and max(fac) <= theoretical:
            beta0 = b
            break
        if not fac:
            break  # trivially converged; no measurable factors at any beta
    report_beta = beta0 if beta0 is not None else scan[0]
    report = PicardReport(
        iterations=len(distances), converged=True, distances=tuple(distances),
        distances_by_beta={b: tuple(v) for b, v in dist_by_beta.items()},
        contraction_factors=factors_at(report_beta),
        beta=report_beta, beta0_empirical=beta0,
        theoretical_factor=theoretical, mu=math.sqrt(mu2), nu=math.sqrt(nu2),
        tol=tol)
    return solution, report


# ---------------------------------------------------------------------------
# Pathwise replay checks
# ---------------------------------------------------------------------------

def _replay_component(solution: BsdeSolution, params: GBsdeParams, comp: int,
                      control, n_paths: int, rng: np.random.Generator):
    """Replay n_paths forward paths, evaluating all fields along the way.

    The path is driven by `control(k, x_batch, nearest_idx) -> (m, d)`
    covariance diagonals, or by component `comp`'s argmax policy at the
    nearest node when control is None. Drivers see the full n-component
    field values; the budget identity is accumulated for `comp` alone.
    """
    lat = solution.lattice
    space, box, dt = lat.space, lat.box, lat.dt
    times = lat.time.times()
    m, d, steps = n_paths, lat.d, lat.steps
    x = np.zeros((m, d))
    y_path = np.empty((m, steps + 1))
    f_int = np.zeros((m, steps))     # f dt terms
    gqv_int = np.zeros((m, steps))   # g : bracket increments
    z_db = np.zeros((m, steps))      # Z^T dB terms
    g_term = np.zeros((m, steps))    # G(eta) dt terms
    eta_qv = np.zeros((m, steps))    # half eta : bracket increments
    up, lo = box.upper, box.lower
    for k in range(steps):
        y_all = evaluate_field(space, solution.Y[k], x)        # (m, n)
        z_all = evaluate_field(space, solution.Z[k], x)        # (m, d, n)
        eta_all = evaluate_field(space, solution.eta[k], x)    # (m, n, d)
        y_path[:, k] = y_all[:, comp]
        idx = nearest_index(space, x)
        if control is None:
            sig2 = lat.combos[solution.policy_idx[(k,) + idx + (comp,)]]
        else:
            sig2 = np.broadcast_to(np.asarray(control(k, x, idx), dtype=float), (m, d))
        f_val = np.asarray(params.f.fn(times[k], y_all, z_all, eta_all),
                           dtype=float)[:, comp]
        g_val = np.asarray(params.g.fn(times[k], y_all, z_all, eta_all),
                           dtype=float)[:, comp, :]
        # the integrands that close the discrete budget identity are read
        # from the *next* layer's field (the field being incremented); the
        # bracket-driver shift stays at layer k to match the backward step
        z_k = evaluate_field(space, solution.Z[k + 1], x)[:, :, comp]
        curv_next = evaluate_field(
            space, solution.eta[k + 1] - 2.0 * solution.g_field[k + 1], x)
        eta_k = curv_next[:, comp, :] + 2.0 * g_val
        signs = rng.integers(0, 2, size=(m, d)) * 2.0 - 1.0
        db = np.sqrt(sig2 * dt) * signs
        dqv = sig2 * dt
        f_int[:, k] = f_val * dt
        gqv_int[:, k] = np.sum(g_val * dqv, axis=1)
        z_db[:, k] = np.sum(z_k * db, axis=1)
        plus = np.clip(eta_k, 0.0, None)
        minus = np.clip(-eta_k, 0.0, None)
        g_term[:, k] = 0.5 * (plus @ up - minus @ lo) * dt
        eta_qv[:, k] = 0.5 * np.sum(eta_k * dqv, axis=1)
        x = x + db
    y_path[:, steps] = evaluate_field(space, solution.Y[steps][..., comp], x)
    xi = params.terminal.evaluate(x)[:, comp]
    return y_path, xi, f_int, gqv_int, z_db, g_term, eta_qv


def _suffix_sum(a: np.ndarray) -> np.ndarray:
    """Suffix sums with a trailing zero column: out[:, k] = sum a[:, k:]."""
    out = np.zeros((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    return out


def residual_check(solution: BsdeSolution, params: GBsdeParams,
                   n_paths: int = 64, seed: int = 20240, n_controls: int = 8) -> ResidualReport:
    """Reconstruct the budget identity along replayed paths.

    Along argmax-policy paths the identity must close: the report's headline
    max_residual is the largest gap between Y_t and the reconstructed right
    side over all paths, grid times, and components. Under random box
    controls Y_t must dominate the compensator-free right side (reported as
    off_policy_min_margin, which should be no less than a small negative
    tolerance).
    """
    if n_paths <= 0:
        raise InputError("n_paths must be positive")
    lat = solution.lattice
    rng = np.random.default_rng(seed)
    max_resid = 0.0
    terminal_gap = 0.0
    for comp in range(solution.n):
        y_path, xi, f_int, gqv, z_db, g_term, eta_qv = _replay_component(
            solution, params, comp, None, n_paths, rng)
        rhs = (xi[:, None] + _suffix_sum(f_int) + _suffix_sum(gqv)
               - _suffix_sum(z_db) + _suffix_sum(g_term) - _suffix_sum(eta_qv))
        resid = np.abs(y_path - rhs)
        max_resid = max(max_resid, float(resid[:, :-1].max()))
        terminal_gap = max(terminal_gap, float(resid[:, -1].max()))

    off_max = 0.0
    off_margin = np.inf
    for j in range(n_controls):
        sig2_steps = rng.uniform(lat.box.lower, lat.box.upper,
                                 size=(lat.steps, lat.d))

        def control(k, x, idx, table=sig2_steps):
            return table[k]

        for comp in range(solution.n):
            y_path, xi, f_int, gqv, z_db, g_term, eta_qv = _replay_component(
                solution, params, comp, control, n_paths, rng)
            rhs_full = (xi[:, None] + _suffix_sum(f_int) + _suffix_sum(gqv)
                        - _suffix_sum(z_db) + _suffix_sum(g_term) - _suffix_sum(eta_qv))
            off_max = max(off_max, float(np.abs(y_path - rhs_full)[:, :-1].max()))
            rhs_free = xi[:, None] + _suffix_sum(f_int) + _suffix_sum(gqv) - _suffix_sum(z_db)
            off_margin = min(off_margin, float((y_path - rhs_free)[:, :-1].min()))

    return ResidualReport(max_residual=max_resid, terminal_gap=terminal_gap,
                          off_policy_max_residual=off_max,
                          off_policy_min_margin=off_margin,
                          n_paths=n_paths, n_controls=n_controls, seed=seed)


def compensator_mc_check(solution: BsdeSolution, n_controls: int = 64,
                         n_paths: int = 256, seed: int = 977,
                         comp: int = 0) -> CompensatorReport:
    """Monte Carlo worst case of E[-K_T] over corner controls.

    Paths read all fields at the nearest node so compensator increments match
    the stored corner algebra exactly. The control family holds the argmax
    policy, the curvature-corner rule (the discrete worst-case measure, under
    which K_T vanishes identically), plus random time-dependent corner
    controls. The supremum must sit within three standard errors of zero.
    """
    lat = solution.lattice
    rng = np.random.default_rng(seed)
    dt = lat.dt
    steps, d = lat.steps, lat.d
    corners = lat.box.corners()
    up, lo = lat.box.upper, lat.box.lower

    def run(control_kind, table=None):
        m = n_paths
        x = np.zeros((m, d))
        k_total = np.zeros(m)
        for k in range(steps):
            idx = nearest_index(lat.space, x)
            eta_k = solution.eta[(k,) + idx + (comp,)]        # (m, d)
            if control_kind == "policy":
                sig2 = lat.combos[solution.policy_idx[(k,) + idx + (comp,)]]
            elif control_kind == "eta-corner":
                sig2 = np.where(eta_k > 0.0, up, lo)
            else:
                sig2 = np.broadcast_to(table[k], (m, d))
            plus = np.clip(eta_k, 0.0, None)
            minus = np.clip(-eta_k, 0.0, None)
            g_val = 0.5 * (plus @ up - minus @ lo)
            k_total += (g_val - 0.5 * np.sum(eta_k * sig2, axis=1)) * dt
            signs = rng.integers(0, 2, size=(m, d)) * 2.0 - 1.0
            x = x + np.sqrt(sig2 * dt) * signs
        est = float(np.mean(-k_total))
        se = float(np.std(-k_total, ddof=1) / math.sqrt(m)) if m > 1 else float("inf")
        return est, se

    runs = [run("policy"), run("eta-corner")]
    for _ in range(max(0, n_controls - 2)):
        picks = rng.integers(0, corners.shape[0], size=steps)
        runs.append(run("table", table=corners[picks]))
    estimates = np.array([r[0] for r in runs])
    ses = np.array([r[1] for r in runs])
    top = int(np.argmax(estimates))
    sup_est, sup_se = float(estimates[top]), float(ses[top])
    ok = abs(sup_est) <= 3.0 * sup_se + 1e-9
    return CompensatorReport(sup_estimate=sup_est, sup_se=sup_se,
                             estimates=estimates, standard_errors=ses, ok=ok)


# ---------------------------------------------------------------------------
# Degenerate-box oracle
# ---------------------------------------------------------------------------

def classical_oracle(params: GBsdeParams, lattice: Lattice,
                     inner_tol: float = 1e-13, max_inner: int = 200) -> BsdeSolution:
    """Single-control backward solver for a collapsed volatility box.

    Solves each layer's implicit equation y = E[y_next] + (f + g : sigma2) dt
    by fixed-point iteration with integrands read from the layer itself. This
    is an independent route to the same fixed point the contraction solver
    reaches when the box has zero width.
    """
    if not lattice.box.is_degenerate:
        raise DegenerateBoxError("classical oracle requires a zero-width box")
    sigma2 = lattice.box.lower
    dt = lattice.dt
    times = lattice.time.times()
    n = params.terminal.n
    shape = (lattice.steps + 1,) + lattice.space.shape
    values = np.empty(shape + (n,))
    g_field = np.zeros(shape + (n, lattice.d))
    values[-1] = params.terminal.evaluate(lattice.states)
    spacing = lattice.space.spacing

    def layer_integrands(y_layer, g_prev):
        grads = [np.gradient(y_layer, spacing[a], axis=a, edge_order=1)
                 for a in range(lattice.d)]
        z = np.stack(grads, axis=-2)
        curv = [_second_diff(y_layer, spacing[a], a) for a in range(lattice.d)]
        eta = np.stack(curv, axis=-1) + 2.0 * g_prev
        return z, eta

    for k in range(lattice.steps - 1, -1, -1):
        anchor = lattice.child_mean(values[k + 1], 0)
        y = anchor.copy()
        g_prev = np.zeros(anchor.shape + (lattice.d,))
        for _ in range(max_inner):
            z, eta = layer_integrands(y, g_prev)
            f_val = np.asarray(params.f.fn(times[k], y, z, eta), dtype=float)
            g_val = np.asarray(params.g.fn(times[k], y, z, eta), dtype=float)
            y_new = anchor + (f_val + g_val @ sigma2) * dt
            gap = float(np.max(np.abs(y_new - y)))
            y, g_prev = y_new, g_val
            if gap < inner_tol:
                break
        else:
            raise ConvergenceError(f"layer {k} implicit step did not converge")
        values[k] = y
        g_field[k] = g_prev

    # The final layer's bracket coefficients satisfy the same implicit
    # curvature shift with the payoff held fixed.
    g_prev = np.zeros(values[-1].shape + (lattice.d,))
    for _ in range(max_inner):
        z_l, eta_l = layer_integrands(values[-1], g_prev)
        g_new = np.asarray(params.g.fn(times[-1], values[-1], z_l, eta_l), dtype=float)
        gap = float(np.max(np.abs(g_new - g_prev)))
        g_prev = g_new
        if gap < inner_tol:
            break
    else:
        raise ConvergenceError("final-layer bracket coefficients did not converge")
    g_field[-1] = g_prev

    z, eta = extract_integrands(values, lattice, g_field=g_field)
    policy = np.zeros((lattice.steps,) + lattice.space.shape + (n,), dtype=np.int16)
    k_inc = _compensator_increments(eta, policy, lattice)
    return BsdeSolution(lattice=lattice, Y=values, Z=z, eta=eta, K_inc=k_inc,
                        policy_idx=policy, g_field=g_field)
