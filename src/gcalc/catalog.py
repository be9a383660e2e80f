"""Built-in payoff and driver catalog.

The CLI accepts only this closed catalog: the contraction diagnostics need
a declared Lipschitz constant per driver. Library users can build
TerminalFunctional / Driver instances directly.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .scenario import TerminalFunctional
from .solver import Driver

PAYOFF_IDS = ("constant", "linear", "quadratic", "neg-quadratic", "abs",
              "call", "butterfly")
DRIVER_IDS = ("zero", "constant", "linear-in-y", "linear-in-z",
              "qv-constant", "clamped-custom-affine")


def _weights(params: dict, d: int) -> np.ndarray:
    w = np.asarray(params.get("weights", np.ones(d)), dtype=float)
    if w.shape != (d,):
        raise ConfigError(f"payoff weights must have length {d}")
    return w


def make_payoff(payoff_id: str, d: int, params: dict | None = None) -> TerminalFunctional:
    """Build a catalog payoff for a d-dimensional terminal state.

    Scalar payoffs act on u = weights . x (weights default to ones). The
    quadratic entries are smooth but not globally Lipschitz; they declare
    100 sqrt(d), the Lipschitz constant of |x|^2 on the cube [-50, 50]^d.
    """
    params = dict(params or {})
    if payoff_id == "constant":
        c = float(params.get("c", 1.0))
        return TerminalFunctional(fn=lambda x: np.full(x.shape[:-1] + (1,), c),
                                  lipschitz=0.0)
    if payoff_id == "linear":
        w = _weights(params, d)
        return TerminalFunctional(fn=lambda x: (x @ w)[..., None],
                                  lipschitz=float(np.linalg.norm(w)))
    if payoff_id == "quadratic":
        return TerminalFunctional(fn=lambda x: np.sum(x * x, axis=-1)[..., None],
                                  lipschitz=100.0 * math.sqrt(d))
    if payoff_id == "neg-quadratic":
        return TerminalFunctional(fn=lambda x: -np.sum(x * x, axis=-1)[..., None],
                                  lipschitz=100.0 * math.sqrt(d))
    if payoff_id == "abs":
        w = _weights(params, d)
        return TerminalFunctional(fn=lambda x: np.abs(x @ w)[..., None],
                                  lipschitz=float(np.linalg.norm(w)))
    if payoff_id == "call":
        strike = float(params.get("strike", 0.0))
        w = _weights(params, d)
        return TerminalFunctional(
            fn=lambda x: np.clip((x @ w) - strike, 0.0, None)[..., None],
            lipschitz=float(np.linalg.norm(w)))
    if payoff_id == "butterfly":
        a = float(params.get("a", -1.0))
        b = float(params.get("b", 1.0))
        if not b > a:
            raise ConfigError("butterfly needs b > a")
        mid = 0.5 * (a + b)
        w = _weights(params, d)

        def fn(x):
            u = x @ w
            v = (np.clip(u - a, 0.0, None) - 2.0 * np.clip(u - mid, 0.0, None)
                 + np.clip(u - b, 0.0, None))
            return v[..., None]

        return TerminalFunctional(fn=fn, lipschitz=float(np.linalg.norm(w)))
    raise ConfigError(f"unknown payoff id {payoff_id!r}; choose from {PAYOFF_IDS}")


def _coef_vector(params: dict, key: str, d: int) -> np.ndarray:
    v = np.asarray(params.get(key, np.zeros(d)), dtype=float)
    if v.shape == ():
        v = np.full(d, float(v))
    if v.shape != (d,):
        raise ConfigError(f"driver coefficient {key!r} must have length {d}")
    return v


def make_driver(driver_id: str, n: int, d: int, params: dict | None = None,
                role: str = "dt") -> Driver:
    """Build a catalog driver for the dt role (values (..., n)) or the
    quadratic-variation role (diagonal coefficients (..., n, d))."""
    params = dict(params or {})
    if role not in ("dt", "qv"):
        raise ConfigError("driver role must be 'dt' or 'qv'")
    qv = role == "qv"

    def shaped(y, fill):
        shape = y.shape[:-1] + ((n, d) if qv else (n,))
        return np.broadcast_to(fill, shape).astype(float)

    if driver_id == "zero":
        return Driver(fn=lambda t, y, z, eta: shaped(y, 0.0), lipschitz=0.0,
                      name="zero")
    if driver_id == "constant":
        c = float(params.get("c", 1.0))
        return Driver(fn=lambda t, y, z, eta: shaped(y, c), lipschitz=0.0,
                      name=f"constant({c})")
    if driver_id == "qv-constant":
        if not qv:
            raise ConfigError("qv-constant only makes sense as a bracket driver")
        gamma = float(params.get("gamma", 1.0))
        return Driver(fn=lambda t, y, z, eta: shaped(y, gamma), lipschitz=0.0,
                      name=f"qv-constant({gamma})")
    if driver_id == "linear-in-y":
        r = float(params.get("r", -0.5))
        lip = abs(r) * (math.sqrt(d) if qv else 1.0)
        if qv:
            fn = lambda t, y, z, eta: np.repeat(r * y[..., None], d, axis=-1)
        else:
            fn = lambda t, y, z, eta: r * y
        return Driver(fn=fn, lipschitz=lip, name=f"linear-in-y({r})")
    if driver_id == "linear-in-z":
        a = _coef_vector(params, "a", d)
        if qv:
            # g_{ij} = a_j z_{ji}: one bracket coefficient per axis
            fn = lambda t, y, z, eta: np.swapaxes(z, -1, -2) * a
            lip = float(np.max(np.abs(a))) if a.size else 0.0
        else:
            fn = lambda t, y, z, eta: np.einsum("...dn,d->...n", z, a)
            lip = float(np.linalg.norm(a))
        return Driver(fn=fn, lipschitz=lip, name="linear-in-z")
    if driver_id == "clamped-custom-affine":
        alpha = float(params.get("alpha", 0.0))
        cy = float(params.get("coef_y", 0.0))
        cz = _coef_vector(params, "coef_z", d)
        ce = _coef_vector(params, "coef_eta", d)
        lo = float(params.get("lo", -1.0))
        hi = float(params.get("hi", 1.0))
        if not hi >= lo:
            raise ConfigError("clamp bounds need hi >= lo")
        lip = math.sqrt(cy * cy + float(cz @ cz) + float(ce @ ce))

        def affine(t, y, z, eta):
            raw = (alpha + cy * y + np.einsum("...dn,d->...n", z, cz)
                   + np.einsum("...nd,d->...n", eta, ce))
            return np.clip(raw, lo, hi)

        if qv:
            fn = lambda t, y, z, eta: np.repeat(affine(t, y, z, eta)[..., None], d, axis=-1)
            lip = lip * math.sqrt(d)
        else:
            fn = affine
        return Driver(fn=fn, lipschitz=lip, name="clamped-custom-affine")
    raise ConfigError(f"unknown driver id {driver_id!r}; choose from {DRIVER_IDS}")
