"""Lattice calculator for worst-case (sublinear) expectations under
volatility uncertainty, with a second-order BSDE solver, pathwise
decomposition checks, and an estimate-verification harness."""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, DegenerateBoxError,
                     DegenerateDenominatorError, DimensionError, GcalcError,
                     GridResolutionError, InputError, WeightOverflowError)
from .gtensor import (DiagTensor, VolatilityBox, g_corner, g_diag,
                      g_sym_bruteforce)
from .scenario import (Lattice, SpaceGrid, TerminalFunctional, TimeGrid,
                       build_lattice, conditional_expectation_field,
                       evaluate_field, nearest_index, sublinear_expectation)
from .calculus import (PathBundle, StepProcess, exp_cell_weights, lemma31_bounds,
                       ratio_decay_report, simulate_path, weighted_norm)
from .solver import (BsdeSolution, Driver, GBsdeParams, PicardReport,
                     ResidualReport, classical_oracle, compensator_mc_check,
                     extract_integrands, picard_step, represent_martingale,
                     residual_check, solve_gbsde, zero_dt_driver,
                     zero_qv_driver)
from .harness import (AprioriReport, apriori_check, cauchy_sequence_check,
                      representation_bound_check)
from .catalog import DRIVER_IDS, PAYOFF_IDS, make_driver, make_payoff
