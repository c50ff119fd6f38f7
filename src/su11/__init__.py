"""SU(1,1) interferometer with multiphoton subtraction: sensitivity, QFI, limits.

Closed-form calculators (Laguerre formulas, and a power-series engine for the
QFI), an independent brute-force Fock-space oracle and a sweep/figure CLI.
"""

from su11.limits import LimitsReport, internal_photon_number
from su11.model import Params, kernels
from su11.qfi import QfiReport, cq_alpha, qcrb, qfi_ideal, qfi_lossy
from su11.sensitivity import (
    SensitivityReport,
    optimal_phase,
    sensitivity_ideal,
    sensitivity_lossy,
)

__all__ = [
    "Params",
    "kernels",
    "SensitivityReport",
    "sensitivity_ideal",
    "sensitivity_lossy",
    "optimal_phase",
    "QfiReport",
    "qfi_ideal",
    "qfi_lossy",
    "cq_alpha",
    "qcrb",
    "LimitsReport",
    "internal_photon_number",
]
