"""Numerical laboratory for phase transitions on two butterfly subshifts.

Computes the pressure functions of the full system, of the subsystem without
the 1-family, and of the wing full shift; locates the two transition inverse
temperatures; counts equilibrium states through the finite-return-time
criterion; and verifies every closed form against exhaustive return-word
enumeration over the transition graph.
"""

from .critical import (
    CriticalSet,
    EquilibriumReport,
    PressureSample,
    critical_set,
    equilibrium_report,
    pressure_full,
    pressure_mid,
    pressure_sample,
)
from .model import ModelParams, REFERENCE, TransitionGraph, build_graph, wing_pressure
from .oracle import (
    Check,
    check_Ln,
    enumerate_returns_to_1,
    enumerate_returns_to_32,
    incidence_entropy,
    periodic_orbit_pressure,
)
from .series import SeriesEval, riemann_zeta, sigma1, sigma3, tail_sum
from .spectral import (AbscissaReport, SpectralValue, abscissa, composition_boundary,
                       lambda_1, lambda_32)

__version__ = "0.1.0"

__all__ = [
    "AbscissaReport",
    "Check",
    "CriticalSet",
    "EquilibriumReport",
    "ModelParams",
    "PressureSample",
    "REFERENCE",
    "SeriesEval",
    "SpectralValue",
    "TransitionGraph",
    "abscissa",
    "build_graph",
    "check_Ln",
    "composition_boundary",
    "critical_set",
    "enumerate_returns_to_1",
    "enumerate_returns_to_32",
    "equilibrium_report",
    "incidence_entropy",
    "lambda_1",
    "lambda_32",
    "periodic_orbit_pressure",
    "pressure_full",
    "pressure_mid",
    "pressure_sample",
    "riemann_zeta",
    "sigma1",
    "sigma3",
    "tail_sum",
    "wing_pressure",
]
