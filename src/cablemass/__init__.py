"""Balanced-truncation model reduction for the nonlinear cable-mass system.

A 1D damped wave equation with second-order oscillator dynamic boundary
conditions is discretized by finite differences, reduced by square-root
balanced truncation, and simulated by fixed-step ETDRK4 in the
eigenvector coordinates of each model's linear part, checked by step
doubling.
The right-boundary cubic spring survives the reduction exactly through
an O(r) evaluation of the projected nonlinearity.
"""

from .analysis import (EnergyReport, ErrorMetrics, compute_energy,
                       energy_decay, output_error, stability_margin)
from .balance import (BalanceResult, ReducedSystem, error_bound, gramians,
                      hankel_values, reduce, square_root_transform,
                      transfer_function)
from .model import (Grid, PhysicalParams, QuadraticForms, StateSpaceSystem,
                    build_system, eval_nonlinearity, fom_jacobian, fom_rhs,
                    quadratic_forms, sample_initial_data)
from .ode import Samples, integrate
from .rom import (OutputSeries, rom_jacobian, rom_nonlinear, rom_rhs,
                  simulate_fom, simulate_rom)
from .signals import (InputSpec, eval_input, input2_frequencies, input_preset,
                      resolve_input)

__version__ = "0.1.0"

# Loaded on first access (PEP 562): importing cli here would put
# cablemass.cli in sys.modules before ``python -m cablemass.cli`` runs it
# as __main__, and runpy warns about that on every run.
_CLI_NAMES = frozenset({"PRESETS", "ExperimentConfig", "Preset", "get_preset",
                        "load_config"})


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BalanceResult", "EnergyReport", "ErrorMetrics", "ExperimentConfig",
    "Grid", "InputSpec", "OutputSeries", "PRESETS", "PhysicalParams",
    "Preset", "QuadraticForms", "ReducedSystem", "Samples",
    "StateSpaceSystem", "build_system", "compute_energy", "energy_decay",
    "error_bound", "eval_input", "eval_nonlinearity", "fom_jacobian",
    "fom_rhs", "get_preset", "gramians", "hankel_values",
    "input2_frequencies", "input_preset", "integrate", "load_config",
    "output_error", "quadratic_forms", "reduce", "resolve_input",
    "rom_jacobian", "rom_nonlinear", "rom_rhs", "sample_initial_data",
    "simulate_fom", "simulate_rom", "square_root_transform",
    "stability_margin", "transfer_function",
]
