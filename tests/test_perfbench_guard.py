"""The benchmark's traced mode must still find what it wraps and counts.

perfbench/child.py wraps the layer entries it lists by name and reads the
node-update count of every `_sweep` call from the arguments `lattice`,
`terminal_values` and `start_layer`. A refactor that renames any of them
would silently zero per-layer metrics, so these tests load child.py
(without writing bytecode next to it) and check both against gcalc. The
wrapping reads each layer's module from sys.modules after `import
gcalc.cli`, so that import must load every one.
"""
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gcalc import scenario

from conftest import loaded_modules, make_lattice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def child():
    path, no_bytecode = str(PERFBENCH), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_child",
                                                      PERFBENCH / "child.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = no_bytecode
        sys.path.remove(path)
        sys.modules.pop("workloads", None)
    return module


def test_the_cli_import_loads_every_layer_module(child):
    # install() runs `import gcalc.cli` and then reads each layer's module
    # from sys.modules, so a CLI that imported lazily would break it
    loaded = loaded_modules("import gcalc.cli")
    assert {f"gcalc.{name}" for name in child.LAYER_ENTRIES} <= loaded


def test_every_layer_entry_exists(child):
    for mod_name, attrs in child.LAYER_ENTRIES.items():
        module = importlib.import_module(f"gcalc.{mod_name}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"gcalc.{mod_name}.{attr}"


def test_sweep_binds_what_the_node_counter_reads(child):
    params = inspect.signature(scenario._sweep).parameters
    assert {"lattice", "terminal_values", "start_layer"} <= set(params)
    lat = make_lattice(lower=(1.0, 1.0), upper=(2.0, 2.0), steps=4, points=35,
                       grid_points=2)
    values = np.zeros(lat.space.shape + (3,))
    recorder = child.Recorder("guard")
    sweep = recorder.wrap("scenario.sweep", scenario._sweep)
    sweep(lat, values)                                   # every layer
    sweep(lat, values, start_layer=1)
    sweep(lattice=lat, terminal_values=values, store=lat.origin_index)
    per_layer = math.prod(lat.space.shape) * lat.combos.shape[0] * 3
    assert recorder.counters["scenario.sweep.node_updates"] == (4 + 1 + 4) * per_layer
    assert [span[0] for span in recorder.spans] == ["scenario.sweep"] * 3
