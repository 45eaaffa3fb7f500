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
    GateauxReport,
    PressureSample,
    beta_hi,
    beta_lo,
    critical_set,
    equilibrium_report,
    gateaux_check,
    pressure_34,
    pressure_full,
    pressure_mid,
    pressure_sample,
    ztilde_c,
)
from .model import ModelParams, REFERENCE, TransitionGraph, build_graph
from .oracle import (
    Check,
    check_Ln,
    enumerate_returns_to_1,
    enumerate_returns_to_32,
    incidence_entropy,
    periodic_orbit_pressure,
)
from .series import SeriesEval, riemann_zeta, sigma1, sigma2, sigma3
from .spectral import AbscissaReport, SpectralValue, abscissa, lambda_1, lambda_32

__version__ = "0.1.0"

__all__ = [
    "AbscissaReport",
    "Check",
    "CriticalSet",
    "EquilibriumReport",
    "GateauxReport",
    "ModelParams",
    "PressureSample",
    "REFERENCE",
    "SeriesEval",
    "SpectralValue",
    "TransitionGraph",
    "abscissa",
    "beta_hi",
    "beta_lo",
    "build_graph",
    "check_Ln",
    "critical_set",
    "enumerate_returns_to_1",
    "enumerate_returns_to_32",
    "equilibrium_report",
    "gateaux_check",
    "incidence_entropy",
    "lambda_1",
    "lambda_32",
    "periodic_orbit_pressure",
    "pressure_34",
    "pressure_full",
    "pressure_mid",
    "pressure_sample",
    "riemann_zeta",
    "sigma1",
    "sigma2",
    "sigma3",
    "ztilde_c",
]
