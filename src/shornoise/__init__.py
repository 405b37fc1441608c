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
"""
from __future__ import annotations

from .numth import ShorInstance, recover_orders
from .errmodel import ErrorMode, ErrorModel
from .spectrum import (
    Spectrum,
    SpectrumMethod,
    direct_spectrum,
    model_spectrum,
    systematic_spectrum_closed_form,
    total_variation_distance,
)
from .qcircuit import circuit_spectrum
from .experiment import (
    ensemble_spectrum,
    factor,
    peak_report,
    success_probability,
    threshold_sweep,
)

__all__ = [
    "ShorInstance",
    "recover_orders",
    "ErrorMode",
    "ErrorModel",
    "Spectrum",
    "SpectrumMethod",
    "direct_spectrum",
    "model_spectrum",
    "systematic_spectrum_closed_form",
    "total_variation_distance",
    "circuit_spectrum",
    "ensemble_spectrum",
    "factor",
    "peak_report",
    "success_probability",
    "threshold_sweep",
]

__version__ = "0.1.0"
