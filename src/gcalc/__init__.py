"""Lattice calculator for worst-case (sublinear) expectations under
volatility uncertainty, with a second-order BSDE solver, pathwise
decomposition checks, and an estimate-verification harness. A name loads
on first access, with only the module it lives in and that module's imports."""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "DegenerateBoxError",
               "DegenerateDenominatorError", "DimensionError", "GcalcError",
               "GridResolutionError", "InputError", "WeightOverflowError"),
    "gtensor": ("DiagTensor", "VolatilityBox", "g_corner", "g_diag", "g_sym_bruteforce"),
    "scenario": ("Lattice", "SpaceGrid", "TerminalFunctional", "TimeGrid", "build_lattice",
                 "conditional_expectation_field", "evaluate_field", "nearest_index",
                 "sublinear_expectation"),
    "calculus": ("PathBundle", "StepProcess", "exp_cell_weights", "lemma31_bounds",
                 "ratio_decay_report", "simulate_path", "weighted_norm"),
    "solver": ("BsdeSolution", "Driver", "GBsdeParams", "PicardReport", "ResidualReport",
               "classical_oracle", "compensator_mc_check", "extract_integrands",
               "picard_step", "represent_martingale", "residual_check", "solve_gbsde",
               "zero_dt_driver", "zero_qv_driver"),
    "harness": ("AprioriReport", "apriori_check", "cauchy_sequence_check",
                "representation_bound_check"),
    "catalog": ("DRIVER_IDS", "PAYOFF_IDS", "make_driver", "make_payoff"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Import the module that owns `name` and cache the name in the package."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
