"""Balanced-truncation model reduction for the nonlinear cable-mass system.

A 1D damped wave equation with second-order oscillator dynamic boundary
conditions is discretized by finite differences, reduced by square-root
balanced truncation, and simulated by fixed-step ETDRK4 in the
eigenvector coordinates of each model's linear part, checked by step
doubling.
The right-boundary cubic spring survives the reduction exactly through
an O(r) evaluation of the projected nonlinearity.

The presets, config loader and command line live in ``cablemass.cli``,
which the package does not import: ``python -m cablemass.cli`` runs it
as __main__.
"""

from .analysis import (EnergyReport, ErrorMetrics, compute_energy,
                       energy_decay, output_error, stability_margin)
from .balance import (BalanceResult, ReducedSystem, error_bound, gramians,
                      hankel_values, reduce, square_root_transform,
                      transfer_function)
from .model import (Grid, PhysicalParams, QuadraticForms, StateSpaceSystem,
                    build_system, eval_nonlinearity, fom_jacobian, fom_rhs,
                    quadratic_forms, sample_initial_data)
from .rom import (OutputSeries, rom_jacobian, rom_nonlinear, rom_rhs,
                  simulate_fom, simulate_rom)
from .signals import (InputSpec, eval_input, input2_frequencies, input_preset,
                      resolve_input)

__version__ = "0.1.0"

__all__ = [
    "BalanceResult", "EnergyReport", "ErrorMetrics", "Grid", "InputSpec",
    "OutputSeries", "PhysicalParams", "QuadraticForms", "ReducedSystem",
    "StateSpaceSystem", "build_system", "compute_energy", "energy_decay",
    "error_bound", "eval_input", "eval_nonlinearity", "fom_jacobian",
    "fom_rhs", "gramians", "hankel_values", "input2_frequencies",
    "input_preset", "output_error", "quadratic_forms", "reduce",
    "resolve_input", "rom_jacobian", "rom_nonlinear", "rom_rhs",
    "sample_initial_data", "simulate_fom", "simulate_rom",
    "square_root_transform", "stability_margin", "transfer_function",
]
