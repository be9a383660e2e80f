"""The package exports load lazily: a name imports only the module it lives
in (with that module's imports), and resolves to that module's object."""
import importlib

import pytest

import gcalc

from conftest import loaded_modules

# what a fresh interpreter loads for the library lattice build and for the
# replay pipeline (perfbench/child.py's `setup` and `replay`)
LOADS = {
    "from gcalc import SpaceGrid, TimeGrid, VolatilityBox, build_lattice":
        {"gcalc", "gcalc.errors", "gcalc.gtensor", "gcalc.scenario"},
    "from gcalc import (GBsdeParams, compensator_mc_check, make_payoff,\n"
    "                   represent_martingale, residual_check, zero_dt_driver,\n"
    "                   zero_qv_driver)":
        {"gcalc", "gcalc.errors", "gcalc.gtensor", "gcalc.scenario",
         "gcalc.calculus", "gcalc.solver", "gcalc.catalog"},
}


@pytest.mark.parametrize("statement", LOADS, ids=["lattice", "replay"])
def test_an_import_loads_only_the_modules_its_names_need(statement):
    assert loaded_modules(statement) == LOADS[statement]


def test_every_export_is_its_modules_object():
    for module, names in gcalc._EXPORTS.items():
        owner = importlib.import_module(f"gcalc.{module}")
        for name in names:
            assert getattr(gcalc, name) is getattr(owner, name), name
    assert len(gcalc.__all__) == len(set(gcalc.__all__))
    assert set(gcalc.__all__) <= set(dir(gcalc))


def test_star_import_binds_every_name_and_unknown_names_raise():
    namespace = {}
    exec("from gcalc import *", namespace)
    assert set(gcalc.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        gcalc.no_such_name
    with pytest.raises(ImportError):
        exec("from gcalc import no_such_name", {})
