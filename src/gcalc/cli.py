"""Batch experiment runner: JSON config in, deterministic CSV/JSON out.

Every run first validates the whole config against module preconditions
(field-level error messages, exit code 2, no output files), then computes,
then writes. Identical config and seed produce byte-identical output files.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 verification
check failed.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .calculus import MAX_EXPONENT, StepProcess, ratio_decay_report
from .catalog import DRIVER_IDS, PAYOFF_IDS, make_driver, make_payoff
from .errors import (ConfigError, DimensionError, GcalcError,
                     GridResolutionError, InputError)
from .gtensor import VolatilityBox
from .harness import (BETA_GRID, apriori_check, cauchy_sequence_check,
                      representation_bound_check)
from .scenario import (SpaceGrid, TerminalFunctional, TimeGrid, build_lattice,
                       check_indicator, conditional_expectation_field)
from .solver import Driver, GBsdeParams, represent_martingale, solve_gbsde

SCHEMA_VERSION = 1
COMMANDS = ("expect", "represent", "solve", "verify-estimates", "ratio-decay",
            "capacity")
_TOP_KEYS = {"command", "box", "time", "space", "payoff", "drivers", "beta",
             "betas", "mu", "nu", "tol", "max_iter", "seed", "out", "event",
             "perturbation", "ratio"}
_MISSING = object()


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def _get(cfg: dict, key: str, kinds, where: str, default=_MISSING):
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"{where}.{key}: required field is missing")
        return default
    val = cfg[key]
    if kinds is not None and not isinstance(val, kinds):
        names = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        raise ConfigError(f"{where}.{key}: expected {names}, got {type(val).__name__}")
    if isinstance(val, bool) and kinds in ((int, float), float, int):
        raise ConfigError(f"{where}.{key}: expected a number, got a boolean")
    return val


def _number(cfg, key, where, default=_MISSING, positive=False):
    val = _get(cfg, key, (int, float), where, default)
    if val is default and default is not _MISSING:
        return val
    val = float(val)
    if not math.isfinite(val):
        raise ConfigError(f"{where}.{key}: must be finite")
    if positive and val <= 0.0:
        raise ConfigError(f"{where}.{key}: must be positive")
    return val


@dataclass
class Experiment:
    command: str
    config: dict
    lattice: object
    payoff: Optional[TerminalFunctional]
    params: Optional[GBsdeParams]
    beta: Optional[float]
    betas: tuple
    mu: Optional[float]
    nu: Optional[float]
    tol: float
    max_iter: int
    seed: int
    out_dir: str
    event: Optional[TerminalFunctional] = None
    perturb: dict = field(default_factory=dict)
    ratio: Optional[dict] = None


def _build_payoff(cfg: dict, d: int, where: str) -> TerminalFunctional:
    pid = _get(cfg, "id", str, where)
    if pid not in PAYOFF_IDS:
        raise ConfigError(f"{where}.id: unknown payoff {pid!r}; choose from {PAYOFF_IDS}")
    params = _get(cfg, "params", dict, where, default={})
    try:
        return make_payoff(pid, d, params)
    except (ConfigError, InputError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_driver(cfg: dict, n: int, d: int, role: str, where: str) -> Driver:
    did = _get(cfg, "id", str, where)
    if did not in DRIVER_IDS:
        raise ConfigError(f"{where}.id: unknown driver {did!r}; choose from {DRIVER_IDS}")
    params = _get(cfg, "params", dict, where, default={})
    try:
        return make_driver(did, n, d, params, role=role)
    except (ConfigError, InputError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_event(cfg: dict, d: int) -> TerminalFunctional:
    payoff = _build_payoff(_get(cfg, "payoff", dict, "event"), d, "event.payoff")
    level = _number(cfg, "level", "event")
    op = _get(cfg, "op", str, "event", default=">=")
    ops = {">=": np.greater_equal, "<=": np.less_equal,
           ">": np.greater, "<": np.less}
    if op not in ops:
        raise ConfigError(f"event.op: must be one of {sorted(ops)}")

    def fn(x, _p=payoff, _op=ops[op], _lvl=level):
        return _op(_p.fn(x)[..., 0], _lvl).astype(float)[..., None]

    # Indicators are not Lipschitz; the constant is never spot-checked here.
    return TerminalFunctional(fn=fn, lipschitz=0.0)


def _build_ratio(cfg: dict, lattice, d: int) -> dict:
    horizon = lattice.time.horizon
    partition = _get(cfg, "partition", list, "ratio",
                     default=[0.0, horizon / 2.0, horizon])
    times = []
    for i, t in enumerate(partition):
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise ConfigError(f"ratio.partition[{i}]: expected a number")
        try:
            lattice.time.index_of(float(t))
        except InputError as exc:
            raise ConfigError(f"ratio.partition[{i}]: {exc}") from exc
        times.append(float(t))

    def state_fns(key):
        specs = _get(cfg, key, list, "ratio")
        if len(specs) != len(times) - 1:
            raise ConfigError(f"ratio.{key}: need exactly {len(times) - 1} payoff entries")
        fns = []
        for i, spec in enumerate(specs):
            if not isinstance(spec, dict):
                raise ConfigError(f"ratio.{key}[{i}]: expected an object")
            p = _build_payoff(spec, d, f"ratio.{key}[{i}]")
            fns.append(lambda states, _p=p: _p.fn(states)[..., 0])
        return tuple(fns)

    n_max = _get(cfg, "n_max", int, "ratio", default=20)
    if n_max < 1:
        raise ConfigError("ratio.n_max: must be >= 1")
    extra = _get(cfg, "betas", list, "ratio", default=[])
    try:
        theta = StepProcess(times=np.array(times), state_fns=state_fns("theta"))
        zeta = StepProcess(times=np.array(times), state_fns=state_fns("zeta"))
    except (InputError, DimensionError) as exc:
        raise ConfigError(f"ratio: {exc}") from exc
    return {"theta": theta, "zeta": zeta, "n_max": int(n_max),
            "betas": [float(b) for b in extra]}


def build_experiment(raw: dict, command: str, seed_override: Optional[int],
                     out_override: Optional[str]) -> Experiment:
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")
    cfg_command = _get(raw, "command", str, "config", default=command)
    if cfg_command != command:
        raise ConfigError(f"config.command: {cfg_command!r} does not match "
                          f"requested command {command!r}")

    box_cfg = _get(raw, "box", dict, "config")
    d = _get(box_cfg, "d", int, "box")
    lower = _get(box_cfg, "lower", list, "box")
    upper = _get(box_cfg, "upper", list, "box")
    grid_points = _get(box_cfg, "grid_points", int, "box", default=5)
    try:
        box = VolatilityBox(np.asarray(lower, dtype=float),
                            np.asarray(upper, dtype=float),
                            grid_points_per_axis=grid_points)
    except (InputError, DimensionError, ValueError) as exc:
        raise ConfigError(f"box: {exc}") from exc
    if box.d != d:
        raise ConfigError(f"box.d: {d} does not match bound vectors of length {box.d}")

    time_cfg = _get(raw, "time", dict, "config")
    horizon = _number(time_cfg, "horizon", "time", positive=True)
    steps = _get(time_cfg, "steps", int, "time")
    space_cfg = _get(raw, "space", dict, "config")
    points = _get(space_cfg, "points", int, "space")
    span = _number(space_cfg, "span_factor", "space", default=6.0)
    try:
        time = TimeGrid(horizon=horizon, steps=steps)
        space = SpaceGrid.build(box, horizon, points_per_axis=points,
                                span_factor=float(span))
        lattice = build_lattice(time, space, box)
    except (InputError, DimensionError, GridResolutionError) as exc:
        raise ConfigError(f"grids: {exc}") from exc

    payoff = None
    if "payoff" in raw:
        payoff = _build_payoff(_get(raw, "payoff", dict, "config"), d, "payoff")
    params = None
    if command in ("solve", "verify-estimates"):
        if payoff is None:
            raise ConfigError("payoff: required for this command")
        drivers = _get(raw, "drivers", dict, "config", default={})
        f_cfg = _get(drivers, "dt", dict, "drivers", default={"id": "zero"})
        g_cfg = _get(drivers, "qv", dict, "drivers", default={"id": "zero"})
        n = payoff.n
        params = GBsdeParams(terminal=payoff,
                             f=_build_driver(f_cfg, n, d, "dt", "drivers.dt"),
                             g=_build_driver(g_cfg, n, d, "qv", "drivers.qv"))
    elif command in ("expect", "represent") and payoff is None:
        raise ConfigError("payoff: required for this command")

    beta = None
    if "beta" in raw:
        beta = _number(raw, "beta", "config", positive=True)
        if beta * horizon > MAX_EXPONENT:
            raise ConfigError(f"beta: beta * horizon = {beta * horizon:.3g} "
                              f"overflows the weight range ({MAX_EXPONENT:.0f})")
    betas_raw = _get(raw, "betas", list, "config", default=list(BETA_GRID))
    betas = []
    for i, b in enumerate(betas_raw):
        if not isinstance(b, (int, float)) or isinstance(b, bool) or b <= 0:
            raise ConfigError(f"betas[{i}]: must be a positive number")
        if float(b) * horizon <= MAX_EXPONENT:
            betas.append(float(b))
    if not betas:
        raise ConfigError("betas: every entry overflows the weight range")

    mu = _number(raw, "mu", "config", default=None, positive=True) if "mu" in raw else None
    nu = _number(raw, "nu", "config", default=None, positive=True) if "nu" in raw else None
    tol = _number(raw, "tol", "config", default=1e-9, positive=True)
    max_iter = _get(raw, "max_iter", int, "config", default=60)
    if max_iter < 1:
        raise ConfigError("max_iter: must be >= 1")
    seed = _get(raw, "seed", int, "config", default=0)
    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed: must fit an unsigned 64-bit integer")
    out_dir = out_override or _get(raw, "out", str, "config", default="gcalc-out")

    event = None
    if command == "capacity":
        event = _build_event(_get(raw, "event", dict, "config"), d)
    ratio = None
    if command == "ratio-decay":
        ratio = _build_ratio(_get(raw, "ratio", dict, "config"), lattice, d)
    perturb = _get(raw, "perturbation", dict, "config", default={})
    shift = _number(perturb, "payoff_shift", "perturbation", default=0.1)
    f_shift = _number(perturb, "f_shift", "perturbation", default=0.0)

    return Experiment(command=command, config=raw, lattice=lattice,
                      payoff=payoff, params=params, beta=beta,
                      betas=tuple(betas), mu=mu, nu=nu, tol=tol,
                      max_iter=int(max_iter), seed=int(seed), out_dir=out_dir,
                      event=event, perturb={"payoff_shift": shift,
                                            "f_shift": f_shift}, ratio=ratio)


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _scalar_or_list(arr: np.ndarray):
    vals = [float(v) for v in np.atleast_1d(arr)]
    return vals[0] if len(vals) == 1 else vals


# ---------------------------------------------------------------------------
# Command runners: each returns (outputs, {csv name: (header, rows)}, failed)
# ---------------------------------------------------------------------------

def _origin_series(fld) -> np.ndarray:
    origin = fld.lattice.origin_index
    return fld.values[(slice(None),) + origin]          # (layers, n)


def _negated(payoff: TerminalFunctional) -> TerminalFunctional:
    return TerminalFunctional(fn=lambda x: -payoff.fn(x),
                              lipschitz=payoff.lipschitz, n=payoff.n)


def _run_expect(ctx: Experiment):
    fld = conditional_expectation_field(ctx.lattice, ctx.payoff)
    fld_low = conditional_expectation_field(ctx.lattice, _negated(ctx.payoff))
    series = _origin_series(fld)
    series_low = -_origin_series(fld_low)
    times = ctx.lattice.time.times()
    n = ctx.payoff.n
    header = ["t"] + [f"value_{i + 1}" for i in range(n)] + \
             [f"lower_{i + 1}" for i in range(n)]
    rows = [[_fmt(times[k])] + [_fmt(series[k, i]) for i in range(n)]
            + [_fmt(series_low[k, i]) for i in range(n)]
            for k in range(times.shape[0])]
    outputs = {"expectation": _scalar_or_list(series[0]),
               "lower_expectation": _scalar_or_list(series_low[0])}
    return outputs, {"expectation.csv": (header, rows)}, False


def _run_capacity(ctx: Experiment):
    fld = conditional_expectation_field(ctx.lattice, ctx.event)
    check_indicator(fld.values[-1])
    series = np.clip(_origin_series(fld)[:, 0], 0.0, 1.0)
    times = ctx.lattice.time.times()
    rows = [[_fmt(times[k]), _fmt(series[k])] for k in range(times.shape[0])]
    return {"capacity": float(series[0])}, {"capacity.csv": (["t", "capacity"], rows)}, False


def _fields_csv(sol) -> tuple:
    lat = sol.lattice
    d, n = lat.d, sol.n
    times = lat.time.times()
    header = (["t"] + [f"state_{a + 1}" for a in range(d)]
              + [f"Y_{i + 1}" for i in range(n)]
              + [f"Z_{a + 1}{i + 1}" for a in range(d) for i in range(n)]
              + [f"eta_{i + 1}{a + 1}" for i in range(n) for a in range(d)]
              + [f"K_{i + 1}" for i in range(n)])
    nodes = math.prod(lat.space.shape)
    states = lat.states.reshape(nodes, d)
    zeros = np.zeros((nodes, n))

    def rows():
        # One layer at a time, nodes in C order; repr of a Python float is
        # the same text _fmt writes for a numpy float.
        for k in range(lat.steps + 1):
            layer = np.concatenate(
                [np.full((nodes, 1), times[k]), states,
                 sol.Y[k].reshape(nodes, n), sol.Z[k].reshape(nodes, d * n),
                 sol.eta[k].reshape(nodes, n * d),
                 sol.K_inc[k].reshape(nodes, n) if k < lat.steps else zeros],
                axis=1)
            for row in layer.tolist():
                yield list(map(repr, row))

    return header, rows()


def _run_represent(ctx: Experiment):
    sol = represent_martingale(ctx.payoff, ctx.lattice)
    outputs = {"y0": _scalar_or_list(sol.y0),
               "min_k_increment": float(sol.K_inc.min())}
    return outputs, {"fields.csv": _fields_csv(sol)}, False


def _run_solve(ctx: Experiment):
    sol, report = solve_gbsde(ctx.params, ctx.lattice, beta=ctx.beta,
                              mu=ctx.mu, nu=ctx.nu, tol=ctx.tol,
                              max_iter=ctx.max_iter)
    outputs = {"y0": _scalar_or_list(sol.y0),
               "iterations": report.iterations,
               "converged": report.converged,
               "beta0_empirical": report.beta0_empirical,
               "theoretical_factor": report.theoretical_factor,
               "max_contraction_factor": (max(report.contraction_factors)
                                          if report.contraction_factors else None),
               "min_k_increment": float(sol.K_inc.min())}
    return outputs, {"fields.csv": _fields_csv(sol)}, False


def _shifted_params(params: GBsdeParams, payoff_shift: float, f_shift: float) -> GBsdeParams:
    base = params.terminal
    shifted = TerminalFunctional(fn=lambda x: base.fn(x) + payoff_shift,
                                 lipschitz=base.lipschitz, n=base.n)
    f0 = params.f
    f2 = Driver(fn=lambda t, y, z, eta: f0.fn(t, y, z, eta) + f_shift,
                lipschitz=f0.lipschitz, name=f0.name + "+shift")
    return GBsdeParams(terminal=shifted, f=f2, g=params.g)


def _clamped(payoff: TerminalFunctional, cap: float) -> TerminalFunctional:
    return TerminalFunctional(fn=lambda x: np.clip(payoff.fn(x), -cap, cap),
                              lipschitz=payoff.lipschitz, n=payoff.n)


def _run_verify(ctx: Experiment):
    params1 = ctx.params
    params2 = _shifted_params(params1, ctx.perturb["payoff_shift"],
                              ctx.perturb["f_shift"])
    mu = ctx.mu if ctx.mu is not None else 1.0
    nu = ctx.nu if ctx.nu is not None else 1.0
    apriori = apriori_check(params1, params2, ctx.lattice, betas=ctx.betas,
                            mu=mu, nu=nu, tol=ctx.tol)
    repr_rep = representation_bound_check(params1.terminal, ctx.lattice,
                                          betas=ctx.betas)
    caps = (1.0, 2.0, 4.0, 8.0)
    cauchy = cauchy_sequence_check(
        [_clamped(params1.terminal, c) for c in caps],
        ctx.lattice, beta=ctx.betas[-1])

    est_header = ["beta", "lhs_y", "lhs_z", "lhs_eta", "term_terminal",
                  "term_f", "term_g", "c_diag", "pass_printed_y",
                  "pass_printed_z", "pass_printed_eta", "pass_conservative_y",
                  "pass_conservative_z", "pass_conservative_eta"]
    est_rows = [[_fmt(r.beta), _fmt(r.lhs_y), _fmt(r.lhs_z), _fmt(r.lhs_eta),
                 _fmt(r.term_terminal), _fmt(r.term_f), _fmt(r.term_g),
                 _fmt(r.c_diag)] + [_fmt(p) for p in r.pass_printed]
                + [_fmt(p) for p in r.pass_conservative]
                for r in apriori.rows]
    rep_header = ["beta", "lhs", "rhs", "pass"]
    rep_rows = [[_fmt(r.beta), _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ok)]
                for r in repr_rep.rows]
    cau_header = ["m", "n", "lhs", "rhs", "delta_moment", "pass"]
    cau_rows = [[_fmt(p.m), _fmt(p.n), _fmt(p.lhs), _fmt(p.rhs),
                 _fmt(p.delta_moment), _fmt(p.ok)] for p in cauchy.pairs]

    ok = apriori.ok and repr_rep.ok and cauchy.ok
    outputs = {"apriori_beta0_printed": apriori.beta0_printed,
               "apriori_beta0_conservative": apriori.beta0_conservative,
               "apriori_ok": apriori.ok,
               "representation_beta0": repr_rep.beta0,
               "representation_ok": repr_rep.ok,
               "cauchy_ok": cauchy.ok,
               "ok": ok}
    files = {"estimates.csv": (est_header, est_rows),
             "representation.csv": (rep_header, rep_rows),
             "cauchy.csv": (cau_header, cau_rows)}
    return outputs, files, not ok


def _run_ratio(ctx: Experiment):
    rep = ratio_decay_report(ctx.ratio["theta"], ctx.ratio["zeta"], ctx.lattice,
                             betas=ctx.ratio["betas"], n_max=ctx.ratio["n_max"])
    bounds = 1.0 / rep.n_values
    passes = rep.b_n <= bounds + 1e-12
    header = ["n", "beta_n", "ratio", "bound", "t_n", "l_n", "m_n", "pass"]
    rows = [[_fmt(int(rep.n_values[i])), _fmt(rep.beta_n[i]), _fmt(rep.b_n[i]),
             _fmt(bounds[i]), _fmt(rep.t_n[i]), _fmt(rep.l_n[i]),
             _fmt(rep.m_n[i]), _fmt(passes[i])]
            for i in range(rep.n_values.shape[0])]
    all_ok = bool(np.all(passes))
    outputs = {"c_max": rep.c_max, "d_min": rep.d_min,
               "final_ratio": float(rep.b_n[-1]),
               "all_within_bound": all_ok}
    return outputs, {"ratio.csv": (header, rows)}, not all_ok


_RUNNERS = {"expect": _run_expect, "represent": _run_represent,
            "solve": _run_solve, "verify-estimates": _run_verify,
            "ratio-decay": _run_ratio, "capacity": _run_capacity}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _write_outputs(ctx: Experiment, outputs: dict, files: dict) -> list:
    os.makedirs(ctx.out_dir, exist_ok=True)
    written = []
    for name, (header, rows) in sorted(files.items()):
        path = os.path.join(ctx.out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)
    summary = {"schema_version": SCHEMA_VERSION,
               "package_version": __version__,
               "command": ctx.command,
               "seed": ctx.seed,
               "config": _sanitize(ctx.config),
               "outputs": _sanitize(outputs),
               "files": [os.path.basename(p) for p in written]}
    path = os.path.join(ctx.out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gcalc",
        description="Worst-case volatility lattice calculator: expectations, "
                    "martingale decompositions, BSDE solving, and estimate "
                    "verification.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (unsigned 64-bit)")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        ctx = build_experiment(raw, args.command, args.seed, args.out)
    except (ConfigError, InputError, DimensionError, GridResolutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        # float overflow ends the run here, not as numpy warnings and inf/NaN outputs
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outputs, files, failed = _RUNNERS[ctx.command](ctx)
    except (GcalcError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    try:
        _write_outputs(ctx, outputs, files)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    if failed:
        print("verification check failed; see summary.json", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
