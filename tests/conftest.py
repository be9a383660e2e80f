import os
import subprocess
import sys

import numpy as np
import pytest

import gcalc
from gcalc import calculus
from gcalc import (SpaceGrid, TerminalFunctional, TimeGrid, VolatilityBox,
                   build_lattice)
from gcalc.solver import zero_dt_driver, zero_qv_driver


def make_lattice(lower=(1.0,), upper=(4.0,), horizon=1.0, steps=40,
                 points=161, span=6.0, grid_points=5):
    box = VolatilityBox(np.asarray(lower, dtype=float),
                        np.asarray(upper, dtype=float),
                        grid_points_per_axis=grid_points)
    time = TimeGrid(horizon=horizon, steps=steps)
    space = SpaceGrid.build(box, horizon, points_per_axis=points,
                            span_factor=span)
    return build_lattice(time, space, box)


def sweep_budget(lattice, columns):
    """A calculus.SWEEP_BUDGET_BYTES that holds `columns` value columns of a
    norm sweep on the lattice."""
    return columns * 8 * calculus.NORM_SWEEP_ARRAYS * lattice.states[..., 0].size


def desk_lattice(steps=200, points=401):
    """The reference 1-d configuration: box [1, 4], T = 1."""
    return make_lattice(steps=steps, points=points)


def quad_payoff(sign=1.0):
    return TerminalFunctional(
        fn=lambda x: sign * np.sum(x * x, axis=-1)[..., None], lipschitz=60.0)


def linear_payoff(weights=(1.0,)):
    w = np.asarray(weights, dtype=float)
    return TerminalFunctional(fn=lambda x: (x @ w)[..., None],
                              lipschitz=float(np.linalg.norm(w)))


def const_payoff(c=1.0):
    return TerminalFunctional(fn=lambda x: np.full(x.shape[:-1] + (1,), c),
                              lipschitz=0.0)


@pytest.fixture(scope="session")
def small_lat():
    return make_lattice()


@pytest.fixture(scope="session")
def small_lat_2d():
    return make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=20, points=77)


def run_fresh(code: str, cwd=None) -> str:
    """stdout of `code` run in a fresh interpreter, with the tested package
    first on its path."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gcalc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_modules(statement: str) -> set:
    """The gcalc modules in sys.modules after a fresh interpreter runs
    `statement`."""
    return set(run_fresh(f"{statement}\nimport sys\n"
                         "print(*(k for k in sys.modules if k.split('.')[0] == 'gcalc'))\n"
                         ).split())
