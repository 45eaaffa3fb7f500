"""Spectral radii of the induced operators and the convergence abscissa.

Because the induced operator applied to the indicator of its cylinder is
constant on that cylinder, its spectral radius is that constant, assembled
from the three series:

    lambda_[1]  = Sigma1 + Sigma2 e^(-alpha*beta - Z) / (1 - m Sigma2 Sigma3)
    lambda_[32] = Sigma2 Sigma3            (single pair of wings)
                = Sigma2 Sigma3 / (1 - Sigma2 Sigma3)   (doubled wings)

with m = 1 for variant A and m = 2 for variant B (a 2-string can be followed
by either wing family).

The root solves for the pressure and the composition boundary take these
maps with their Z-derivatives (every term of a series in e^(-nZ) gains a
factor -n), evaluated together from two paired series passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams, wing_pressure
from .roots import newton_log_offset
from .series import (
    SeriesEval,
    dsigma_dZ,
    sigma1,
    sigma2,
    sigma3,
    single_block_correction,
    tail_sum_pair,
    wing_prefactor,
)

GEOMETRIC_ONE_FAMILY = "GeometricOneFamily"
WING_COMPOSITION = "WingComposition"
PRESSURE_FLOOR = "PressureFloor"


def wing_multiplicity(params: ModelParams) -> int:
    """How many wing families an excursion from a 2-string can enter."""
    return 2 if params.variant == "B" else 1


@dataclass(frozen=True)
class SpectralValue:
    """Induced-operator spectral radius with its series constituents.

    ``defined`` is False when a constituent diverges or the geometric
    composition condition fails; the constituents stay available so callers
    can see which one failed.
    """

    value: float
    defined: bool
    sigma1: SeriesEval
    sigma2: SeriesEval
    sigma3: SeriesEval


@dataclass(frozen=True)
class AbscissaReport:
    Z_c: float
    binding: str
    converges_at_Zc: bool


def lambda_1(params: ModelParams, beta: float, Z: float) -> SpectralValue:
    """Spectral radius of the operator induced on the cylinder [1]."""
    s1 = sigma1(params, beta, Z)
    s2 = sigma2(params, beta, Z)
    s3 = sigma3(params, beta, Z)
    m = wing_multiplicity(params)
    if s1.divergent or s2.divergent or s3.divergent or m * s2.value * s3.value >= 1.0:
        return SpectralValue(math.nan, False, s1, s2, s3)
    value = s1.value + (s2.value * math.exp(-params.alpha * beta - Z)
                        / (1.0 - m * s2.value * s3.value))
    return SpectralValue(value, True, s1, s2, s3)


def lambda_32(params: ModelParams, beta: float, Z: float) -> SpectralValue:
    """Spectral radius of the operator induced on the cylinder [32].

    Variant A return words hold exactly one wing block, so the value is
    Sigma2*Sigma3; variant B words may weave through the mirrored wing any
    number of times first, giving the geometric composition.
    """
    s1 = SeriesEval(0.0, 0.0, 0, False)  # the 1-family plays no role here
    s2 = sigma2(params, beta, Z)
    s3 = sigma3(params, beta, Z)
    if s2.divergent or s3.divergent:
        return SpectralValue(math.nan, False, s1, s2, s3)
    z = s2.value * s3.value
    if params.variant == "A":
        return SpectralValue(z, True, s1, s2, s3)
    if z >= 1.0:
        return SpectralValue(math.nan, False, s1, s2, s3)
    return SpectralValue(z / (1.0 - z), True, s1, s2, s3)


def _wing_series_dZ(params: ModelParams, beta: float,
                    Z: float) -> tuple[float, float, float, float] | None:
    """(Sigma2, dSigma2/dZ, Sigma3, dSigma3/dZ), or None if Sigma2 or Sigma3 diverges.

    Two paired series passes, T(s, .) and T(s-1, .) for each of the two
    series, since n (n+1)^(-s) = (n+1)^(1-s) - (n+1)^(-s).  A derivative
    series that diverges (at W = 0 with s <= 2) gives a slope of -inf.
    """
    t2, t2m = tail_sum_pair(beta, Z)
    t3, t3m = tail_sum_pair(params.epsilon * beta, Z - wing_pressure(params, beta))
    if t2.divergent or t3.divergent:
        return None
    pref = wing_prefactor(params, beta)
    corr = single_block_correction(params, beta, Z)
    s3 = t3.value * pref + corr  # sigma3
    # Sigma3 = pref * T(s, W) + corr, so d/dZ = -pref * (T(s-1, W) - T(s, W)) - corr
    d2 = -math.inf if t2m.divergent else t2.value - t2m.value
    d3 = -math.inf if t3m.divergent else (s3 - corr) - pref * t3m.value - corr
    return t2.value, d2, s3, d3


def lambda_1_dZ(params: ModelParams, beta: float, Z: float) -> tuple[float, float]:
    """lambda_[1] at (beta, Z) and its Z-derivative, from two paired series passes.

    The value is that of `lambda_1`, or +inf where `lambda_1` is undefined
    (the slope is then NaN).
    """
    s1 = sigma1(params, beta, Z)
    if s1.divergent:
        return math.inf, math.nan
    wings = _wing_series_dZ(params, beta, Z)
    m = wing_multiplicity(params)
    if wings is None or m * wings[0] * wings[2] >= 1.0:
        return math.inf, math.nan
    s2, d2, s3, d3 = wings
    a = math.exp(-params.alpha * beta - Z)
    den = 1.0 - m * s2 * s3
    value = s1.value + (s2 * a / den)
    slope = (dsigma_dZ("S1", params, beta, Z).value + a * (d2 - s2) / den
             + s2 * a * m * (d2 * s3 + s2 * d3) / den ** 2)
    return value, slope


def composition_dZ(params: ModelParams, beta: float, Z: float) -> tuple[float, float]:
    """m * Sigma2 * Sigma3 at (beta, Z) and its Z-derivative (+inf, NaN when divergent)."""
    wings = _wing_series_dZ(params, beta, Z)
    if wings is None:
        return math.inf, math.nan
    s2, d2, s3, d3 = wings
    m = wing_multiplicity(params)
    return m * s2 * s3, m * (d2 * s3 + s2 * d3)


def _composition(params: ModelParams, beta: float, Z: float) -> float:
    """m * Sigma2 * Sigma3 at (beta, Z), +inf when a series diverges."""
    s2 = sigma2(params, beta, Z)
    s3 = sigma3(params, beta, Z)
    if s2.divergent or s3.divergent:
        return math.inf
    return wing_multiplicity(params) * s2.value * s3.value


def composition_value_at_floor(params: ModelParams, beta: float) -> float:
    """m * Sigma2 * Sigma3 evaluated at Z = P34(beta) (+inf when divergent)."""
    return _composition(params, beta, wing_pressure(params, beta))


def composition_boundary(params: ModelParams, beta: float) -> float | None:
    """The Z above P34(beta) where m*Sigma2*Sigma3 crosses 1, if it does.

    The map is strictly decreasing in Z, +inf-or-large at the floor for small
    beta and below 1 there once beta passes the small transition; in the
    second case None is returned.  The root is solved by safeguarded Newton
    steps on the map and its Z-derivative.  A root closer to the floor than the solver
    can resolve (floor value within 1e-11 of 1) also counts as absent.
    """
    if composition_value_at_floor(params, beta) <= 1.0 + 1e-11:
        return None
    z0 = wing_pressure(params, beta)
    return z0 + newton_log_offset(
        lambda z: composition_dZ(params, beta, z), z0).offset


def abscissa(params: ModelParams, beta: float) -> AbscissaReport:
    """Infimum Z_c of the lambda_[1] convergence domain, with the active bound.

    Z_c = max(log L - alpha*beta, composition boundary, P34(beta)); the report
    names which of the three binds and whether the operator still converges at
    Z_c itself (it does only on the pressure floor past the small transition).
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    geo = math.log(params.L) - params.alpha * beta
    floor = wing_pressure(params, beta)
    wing = composition_boundary(params, beta)
    candidates = [(geo, GEOMETRIC_ONE_FAMILY), (floor, PRESSURE_FLOOR)]
    if wing is not None:
        candidates.append((wing, WING_COMPOSITION))
    z_c, binding = max(candidates, key=lambda c: c[0])
    if binding == PRESSURE_FLOOR:
        converges = composition_value_at_floor(params, beta) < 1.0 and geo < floor
    else:
        # Sigma1 diverges at its own boundary; Sigma2*Sigma3 hits 1 at the
        # composition boundary: either way the operator diverges at Z_c.
        converges = False
    return AbscissaReport(z_c, binding, converges)
