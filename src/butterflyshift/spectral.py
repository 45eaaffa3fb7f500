"""Spectral radii of the induced operators and the convergence abscissa.

Because the induced operator applied to the indicator of its cylinder is
constant on that cylinder, its spectral radius is that constant, assembled
from the three series:

    lambda_[1]  = Sigma1 + Sigma2 e^(-alpha*beta - Z) / (1 - m Sigma2 Sigma3)
    lambda_[32] = Sigma2 Sigma3            (single pair of wings)
                = Sigma2 Sigma3 / (1 - Sigma2 Sigma3)   (doubled wings)

with m = 1 for variant A and m = 2 for variant B (a 2-string can be followed
by either wing family).

The series and their Z-slopes come from `series` (`sigma1`, `wing_sums`);
this module binds no closed-form ingredient and only assembles them.  Each
map has one evaluator: `lambda_1` for lambda_[1] and `composition` for
m Sigma2 Sigma3, and both, with `lambda_32`, read m Sigma2 Sigma3 and its
slope from one helper.  Asked for its slope, an evaluator also returns the
Z-derivative, from two paired series passes instead of two single ones; the
root solves for the pressure and the composition boundary ask for it.

The composition m Sigma2 Sigma3 reads only the wing parameters (gamma,
delta, eps, variant), never alpha or L.  Its boundary Z~_c and its floor
value at P34 are therefore solved once per (wing parameters, beta) and
memoized on `model.wing_params`: every alpha and L of one wing set, and
`abscissa`, `critical.pressure_mid` and `oracle.abscissa_32`, share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps

from .model import ModelParams, wing_params, wing_pressure
from .roots import newton_log_offset
from .series import SeriesEval, sigma1, wing_sums

GEOMETRIC_ONE_FAMILY = "GeometricOneFamily"
WING_COMPOSITION = "WingComposition"
PRESSURE_FLOOR = "PressureFloor"
MEMO_SIZE = 256


def wing_multiplicity(params: ModelParams) -> int:
    """How many wing families an excursion from a 2-string can enter."""
    return 2 if params.variant == "B" else 1


@dataclass(frozen=True)
class SpectralValue:
    """Induced-operator spectral radius with its series constituents.

    ``defined`` is False when a constituent diverges or the geometric
    composition condition fails; ``value`` is +inf then, the value of the
    diverging positive series, and the constituents stay available so
    callers can see which one failed.  Where Sigma1 diverges, Sigma2 and
    Sigma3 are not evaluated and read None.  ``slope`` is dvalue/dZ (-inf
    where its series diverges) when the caller asked for it and the value is
    defined, NaN otherwise.
    """

    value: float
    defined: bool
    sigma1: SeriesEval
    sigma2: SeriesEval | None
    sigma3: SeriesEval | None
    slope: float = math.nan


@dataclass(frozen=True)
class AbscissaReport:
    Z_c: float
    binding: str
    converges_at_Zc: bool


def _product(params: ModelParams, s2: SeriesEval, s3: SeriesEval) -> tuple[float, float]:
    """m * Sigma2 * Sigma3 and its Z-slope (NaN unless both series carry one);
    +inf and NaN where a series diverges."""
    if s2.divergent or s3.divergent:
        return math.inf, math.nan
    m = wing_multiplicity(params)
    return m * s2.value * s3.value, m * (s2.slope * s3.value + s2.value * s3.slope)


def lambda_1(params: ModelParams, beta: float, Z: float,
             slope: bool = False) -> SpectralValue:
    """Spectral radius of the operator induced on the cylinder [1].

    With `slope`, the result also carries its Z-derivative, from two paired
    series passes.
    """
    s1 = sigma1(params, beta, Z)
    if s1.divergent:
        return SpectralValue(math.inf, False, s1, None, None)
    s2, s3 = wing_sums(params, beta, Z, slope)
    comp, dcomp = _product(params, s2, s3)
    if comp >= 1.0:
        return SpectralValue(math.inf, False, s1, s2, s3)
    a = math.exp(-params.alpha * beta - Z)
    den = 1.0 - comp
    value = s1.value + (s2.value * a / den)
    # the wing slopes are NaN without `slope`, and so is dvalue then
    dvalue = (s1.slope + a * (s2.slope - s2.value) / den
              + s2.value * a * dcomp / den ** 2)
    return SpectralValue(value, True, s1, s2, s3, dvalue)


def lambda_32(params: ModelParams, beta: float, Z: float) -> SpectralValue:
    """Spectral radius of the operator induced on the cylinder [32].

    Variant A return words hold exactly one wing block, so the value is
    Sigma2*Sigma3; variant B words may weave through the mirrored wing any
    number of times first, giving the geometric composition.
    """
    s1 = SeriesEval(0.0, 0.0, 0, False)  # the 1-family plays no role here
    s2, s3 = wing_sums(params, beta, Z)
    if s2.divergent or s3.divergent:
        return SpectralValue(math.inf, False, s1, s2, s3)
    # m is 1 or 2, so dividing it out is exact: z = Sigma2 * Sigma3
    z = _product(params, s2, s3)[0] / wing_multiplicity(params)
    if params.variant == "A":
        return SpectralValue(z, True, s1, s2, s3)
    if z >= 1.0:
        return SpectralValue(math.inf, False, s1, s2, s3)
    return SpectralValue(z / (1.0 - z), True, s1, s2, s3)


def composition(params: ModelParams, beta: float, Z: float,
                slope: bool = False) -> tuple[float, float]:
    """m * Sigma2 * Sigma3 at (beta, Z) and, with `slope`, its Z-derivative.

    The value is +inf when a series diverges; the slope is NaN then and
    when it is not asked for.
    """
    return _product(params, *wing_sums(params, beta, Z, slope))


def _memo_per_point(solve):
    """A bounded memo of a wing-only solve(params, beta, start), keyed on
    (wing_params(params), beta).

    The solve runs on the wing parameters, so every alpha and L of one wing
    set is handed the same result.  The start offset only says where the
    Newton solve begins, not which root it finds, so it stays out of the key:
    a later call with another start, or none, is handed the root already
    found.  The least recently used of MEMO_SIZE entries leaves first, as
    with `functools.lru_cache`.
    """
    memo: dict = {}

    @wraps(solve)
    def memoized(params: ModelParams, beta: float, start: float = 1.0):
        params = wing_params(params)
        key = (params, beta)
        hit = memo.pop(key, None)
        if hit is None:
            hit = solve(params, beta, start)
            if len(memo) >= MEMO_SIZE:
                del memo[next(iter(memo))]
        memo[key] = hit
        return hit

    memoized.cache_clear = memo.clear
    return memoized


@_memo_per_point
def _floor_and_boundary(params: ModelParams, beta: float,
                        start: float) -> tuple[float, float, float | None]:
    """(P34, m*Sigma2*Sigma3 at P34, the composition boundary or None).

    The floor evaluation carries its slope, so it doubles as the Newton
    solve's first evaluation (P34 + 1e-300 == P34) and no point is evaluated
    twice.  The solve's first upper end is `start` above P34.  The memo solves
    each (wing parameters, beta) once for all callers.
    """
    z0 = wing_pressure(params, beta)
    at_floor = composition(params, beta, z0, slope=True)
    if at_floor[0] <= 1.0 + 1e-11:
        return z0, at_floor[0], None

    def F(z: float) -> tuple[float, float]:
        return at_floor if z == z0 else composition(params, beta, z, slope=True)

    return z0, at_floor[0], z0 + newton_log_offset(F, z0, start=start).offset


def composition_boundary(params: ModelParams, beta: float,
                         start: float = 1.0) -> float | None:
    """The Z above P34(beta) where m*Sigma2*Sigma3 crosses 1, if it does.

    The map is strictly decreasing in Z, +inf-or-large at the floor for small
    beta and below 1 there once beta passes the small transition; in the
    second case None is returned.  The root is solved by safeguarded Newton
    steps on the map and its Z-derivative, starting at the floor P34, whose
    evaluation (with its slope) is the floor check itself.  A root closer to
    the floor than the solver can resolve (floor value within 1e-11 of 1)
    also counts as absent.  `start` is the solve's first upper end above P34
    (`roots.newton_log_offset`); it is read only by the first call for
    (wing parameters, beta), since the root is kept for later calls.
    """
    return _floor_and_boundary(params, beta, start)[2]


def abscissa(params: ModelParams, beta: float) -> AbscissaReport:
    """Infimum Z_c of the lambda_[1] convergence domain, with the active bound.

    Z_c = max(log L - alpha*beta, composition boundary, P34(beta)); the report
    names which of the three binds and whether the operator still converges at
    Z_c itself (it does only on the pressure floor past the small transition).
    The floor value of m*Sigma2*Sigma3 comes from the composition-boundary
    solve, which evaluates it first.
    """
    geo = math.log(params.L) - params.alpha * beta
    floor, at_floor, wing = _floor_and_boundary(params, beta)
    candidates = [(geo, GEOMETRIC_ONE_FAMILY), (floor, PRESSURE_FLOOR)]
    if wing is not None:
        candidates.append((wing, WING_COMPOSITION))
    z_c, binding = max(candidates, key=lambda c: c[0])
    if binding == PRESSURE_FLOOR:
        converges = at_floor < 1.0 and geo < floor
    else:
        # Sigma1 diverges at its own boundary; Sigma2*Sigma3 hits 1 at the
        # composition boundary: either way the operator diverges at Z_c.
        converges = False
    return AbscissaReport(z_c, binding, converges)
