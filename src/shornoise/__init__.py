"""Simulation of order-finding readout spectra under miscalibrated gates.

The package computes the probability distribution of the final register
measurement in the order-finding pipeline (the quantum core of integer
factoring) when the Fourier-readout gates carry calibration errors.  Three
routes are provided: an analytic closed form for constant phase errors and
direct summation over the period-state support for arbitrary per-term
errors, which evaluate the same effective model, and a gate-level
state-vector simulation, which puts an error on every gate and agrees
with the other two only at zero error.  On top of those sit ensemble
averaging, peak-shift reports, order-recovery success rates,
error-threshold sweeps, and the end-to-end factoring run.

`import shornoise` loads neither numpy nor a submodule: each public name
and each submodule is imported on first use (PEP 562), so the command
line can parse its arguments, and print its help, without them.
"""
from __future__ import annotations

import importlib

# Defaults the command-line parser shows before it loads the library;
# the library modules take them from here.
ERROR_MODES = ("none", "systematic", "uniform", "gaussian")
DEFAULT_ETA = 0.5
DEFAULT_MULTIPLIER_BOUND = 64

# Each public name, by the submodule that defines it.
_HOMES = {
    "ShorInstance": "numth",
    "recover_orders": "numth",
    "ErrorMode": "errmodel",
    "ErrorModel": "errmodel",
    "Spectrum": "spectrum",
    "SpectrumMethod": "spectrum",
    "direct_spectrum": "spectrum",
    "model_spectrum": "spectrum",
    "systematic_spectrum_closed_form": "spectrum",
    "total_variation_distance": "spectrum",
    "circuit_spectrum": "qcircuit",
    "ensemble_spectrum": "experiment",
    "factor": "experiment",
    "peak_report": "experiment",
    "success_probability": "experiment",
    "threshold_sweep": "experiment",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES.values(), *__all__})
