"""Complex bump potentials whose non-real eigenvalues accumulate at
prescribed points of the positive half-axis, with independent oracle
verification of every constructed eigenvalue."""

from .bump import (BumpParams, PlacedBump, boundary_wavenumber, design_bump,
                   eigenfunction_eval, norm_inf, norm_p, potential_eval,
                   radius_for_index, solve_eta)
from .construct import (ConstructionLedger, LedgerEntry, Target, budgets,
                        build, choose_shift, enumerate_targets, estimate_gamma,
                        step_potential, target_index)
from .eigensolve import (EigenResult, SecularProblem, StepPotential1D,
                         grid_oracle_1d, refine_eigen, secular_residual,
                         transfer_eigen_1d)
from .ltreport import aad_check, emit_cloud, lt_partial_sum, norm_budget_check
from .specfun import BesselQuery, bessel_j, bessel_j_ratio, gamma_real

__version__ = "0.1.0"

__all__ = [
    "BesselQuery", "bessel_j", "bessel_j_ratio", "gamma_real",
    "BumpParams", "PlacedBump", "radius_for_index", "solve_eta",
    "boundary_wavenumber", "design_bump", "norm_p", "norm_inf",
    "potential_eval", "eigenfunction_eval",
    "SecularProblem", "EigenResult", "StepPotential1D", "secular_residual",
    "refine_eigen", "transfer_eigen_1d", "grid_oracle_1d",
    "Target", "LedgerEntry", "ConstructionLedger", "enumerate_targets",
    "target_index", "budgets", "choose_shift", "estimate_gamma", "build",
    "step_potential",
    "lt_partial_sum", "norm_budget_check", "aad_check", "emit_cloud",
    "__version__",
]
