"""Transition parameters, pressure functions, and equilibrium-count reports.

The two critical inverse temperatures of either variant are roots of strictly
monotone maps:

  * beta_lo (the small transition) solves  m*Sigma2*Sigma3 = 1  at the wing
    pressure floor Z = P34(beta); at that floor the wing series is a zeta
    value, so each evaluation is closed-form fast.
  * beta_hi (the main transition) solves  lambda_[1] = 1  at Z = P34(beta).

Both roots can sit exponentially close to their lower bracket (the zeta pole
at eps*beta = 1, respectively beta_lo), hence the log-offset bisection.

The full pressure is the Z where lambda_[1] = 1, a decreasing convex sum of
e^(-nZ); it is solved by safeguarded Newton steps in the same log-offset
bracket, with the Z-derivative evaluated alongside the value.  Each solve
starts at the convergence abscissa Z_c = max(P34, log L - alpha*beta, Z~_c),
below which lambda_[1] is +inf, so no step is spent there.  From beta_hi on
lambda_[1] <= 1 already at the floor Z_c = P34, which the solver then returns,
so only results that read beta_lo or beta_hi solve them.  The composition
boundary Z~_c is its own Newton solve, from P34 up, made once per
(wing parameters, beta): `spectral` keeps it, so P_mid and the pressure's
Z_c share it.  beta_lo, Z~_c and P_mid read only the wing parameters
(gamma, delta, eps, variant), so they are memoized per `model.wing_params`
(and beta): sets that differ only in alpha or L, as on an L-scan, share
them, and only beta_hi and P are solved per full parameter set.

Each solve's first upper end is w = 1 above its floor, unless the caller
passes another.  On a beta-grid (`pressure_curve`) it is predicted from the
roots at the two grid points before, by log-linear extrapolation of the
offset of the root above its floor, and the Newton steps start next to the
root: about 5 evaluations per solve in place of about 8.  The prediction
restarts cold (w = 1) at beta_lo and at beta_hi, where P is not smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .model import ModelParams, wing_params, wing_pressure
from .roots import RootResult, bisect_log_offset, newton_log_offset
from .series import riemann_zeta
from .spectral import abscissa, composition, composition_boundary, lambda_1

BELOW_LO = "below_lo"
BETWEEN = "between"
ABOVE_HI = "above_hi"
PREDICTOR_MARGIN = 1.02


@dataclass(frozen=True)
class CriticalSet:
    """The two transition parameters with solver diagnostics.

    beta_lo is beta_1 (variant A) or beta_2 (variant B): the unique root of
    m*Sigma2*Sigma3(P34(beta), beta) = 1.  That map is strictly decreasing,
    +inf below eps*beta = 1 (the zeta pole) and -> 0 as beta grows, so the
    root exists for every parameter set.  beta_hi is beta_c or beta_c': the
    unique root of lambda_[1](P34(beta), beta) = 1 above beta_lo.  Residuals
    are the defining-equation values at the returned roots; brackets are the
    final bisection brackets.
    """

    beta_lo: float
    beta_hi: float
    residual_lo: float
    residual_hi: float
    bracket_lo: tuple[float, float]
    bracket_hi: tuple[float, float]


@dataclass(frozen=True)
class PressureSample:
    beta: float
    p34: float
    p_mid: float
    p_full: float
    ztilde: float | None
    regime: str


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of the finite-return-time criterion at a transition point.

    ``weight_on_cylinder`` answers whether some equilibrium state gives
    positive weight to the inducing cylinder ([1] at beta_hi, [32] at
    beta_lo); it can only be True when the return-time expectation is finite,
    i.e. when eps*beta > 2.
    """

    beta_star: float
    eps_beta: float
    return_time_derivative_finite: bool
    count_lower_bound: int
    weight_on_cylinder: bool


@lru_cache(maxsize=256)
def _small_transition(wing: ModelParams) -> RootResult:
    """The bisection for beta_lo of the wing parameters `wing`, in the offset
    u = eps*beta - 1 above the zeta pole (cached per wing parameter set)."""
    eps = wing.epsilon

    def f_lo(u: float) -> float:
        b = (1.0 + u) / eps
        return composition(wing, b, wing_pressure(wing, b))[0] - 1.0

    return bisect_log_offset(f_lo)


@lru_cache(maxsize=256)
def critical_set(params: ModelParams) -> CriticalSet:
    """Both transition parameters of the system: beta_hi cached per parameter
    set, beta_lo per wing parameter set (`model.wing_params`), which it shares
    with every alpha and L."""
    eps = params.epsilon
    lo = _small_transition(wing_params(params))
    b_lo = (1.0 + lo.offset) / eps

    def f_hi(v: float) -> float:
        b = b_lo + v
        return lambda_1(params, b, wing_pressure(params, b)).value - 1.0

    hi = bisect_log_offset(f_hi, hi0=max(1.0, b_lo))
    v_hi, residual_hi = hi.offset, hi.residual
    if residual_hi == math.inf:
        # the root lies within an ulp or two of beta_lo, and beta_lo plus the
        # bracket midpoint rounds onto a beta where lambda_1 still diverges:
        # take the upper bracket end instead, where f <= 0
        v_hi = hi.bracket[1]
        residual_hi = f_hi(v_hi)
    b_hi = b_lo + v_hi
    return CriticalSet(
        beta_lo=b_lo,
        beta_hi=b_hi,
        residual_lo=lo.residual,
        residual_hi=residual_hi,
        bracket_lo=((1.0 + lo.bracket[0]) / eps, (1.0 + lo.bracket[1]) / eps),
        bracket_hi=(b_lo + hi.bracket[0], b_lo + hi.bracket[1]),
    )


def pressure_full(params: ModelParams, beta: float, start: float = 1.0) -> float:
    """Pressure of the full system: the Z with lambda_[1] = 1 above the
    convergence abscissa Z_c = max(P34, log L - alpha*beta, Z~_c), by
    safeguarded Newton steps on the decreasing map and its Z-derivative
    (divergent evaluations count as above 1, and are bisected past).
    `start` is the solve's first upper end above Z_c.

    From beta_hi on lambda_[1] <= 1 at Z_c = P34, and the solver's floor
    rule returns P34 after one evaluation.
    """
    z_c = abscissa(params, beta).Z_c

    def F(z: float) -> tuple[float, float]:
        lam = lambda_1(params, beta, z, slope=True)
        return lam.value, lam.slope

    return z_c + newton_log_offset(F, z_c, start=start).offset


def pressure_mid(params: ModelParams, beta: float) -> float:
    """Pressure of the subsystem without the 1-family.

    Equals the composition boundary Z~_c below beta_lo and P34 from beta_lo
    on; the two branches agree in the limit.
    """
    zt = composition_boundary(params, beta)
    return zt if zt is not None else wing_pressure(params, beta)


def _regime(crit: CriticalSet, beta: float) -> str:
    """The regime label of beta: below beta_lo, between the two, or above."""
    if beta < crit.beta_lo:
        return BELOW_LO
    return BETWEEN if beta < crit.beta_hi else ABOVE_HI


def pressure_sample(params: ModelParams, beta: float, pressure_start: float = 1.0,
                    boundary_start: float = 1.0) -> PressureSample:
    """One beta-grid point with all three pressures and its regime label.

    The starts are the first upper ends of the two Newton solves: the
    pressure's above Z_c and the composition boundary's above P34.
    """
    regime = _regime(critical_set(params), beta)
    p34 = wing_pressure(params, beta)
    zt = composition_boundary(params, beta, start=boundary_start)
    return PressureSample(
        beta=beta,
        p34=p34,
        p_mid=zt if zt is not None else p34,
        # from beta_hi on P = P34: the solve would only confirm the floor
        p_full=(p34 if regime == ABOVE_HI
                else pressure_full(params, beta, start=pressure_start)),
        ztilde=zt,
        regime=regime,
    )


def _predicted_offset(roots: list[tuple[float, float, float]], beta: float) -> float:
    """First upper end at beta from the (beta, offset, root) solves before it.

    log(offset) is extrapolated linearly in beta through the last two roots,
    kept between the spacing of doubles at the last root (a smaller offset
    reads the floor itself) and the cold start w = 1, and raised by
    PREDICTOR_MARGIN, so that it lands just above the root and the solver
    takes Newton steps from there at once.  Without two roots the solve
    starts cold, at w = 1.
    """
    if len(roots) < 2:
        return 1.0
    (b0, w0, _), (b1, w1, z1) = roots[-2:]
    slope = (math.log(w1) - math.log(w0)) / (b1 - b0) if b1 != b0 else 0.0
    t = min(math.log(w1) + slope * (beta - b1), 0.0)
    return max(math.exp(t), math.ulp(z1)) * PREDICTOR_MARGIN


def pressure_curve(params: ModelParams, betas: list[float]) -> list[PressureSample]:
    """`pressure_sample` at each beta, each solve started near its root.

    Between the transitions P and Z~_c are analytic in beta, so the roots at
    the grid points before beta predict the root at beta: the offset of P
    above Z_c and of Z~_c above P34 are each extrapolated from the last two
    roots solved in the same regime (`_predicted_offset`), and the Newton
    solves start there instead of at w = 1.  At beta_lo and beta_hi, where P
    is not smooth, the history is dropped and the solves restart cold.  The
    starts move where a solve begins, not its root.
    """
    crit = critical_set(params)
    samples: list[PressureSample] = []
    regime = None
    pressure_roots: list[tuple[float, float, float]] = []
    boundary_roots: list[tuple[float, float, float]] = []
    for beta in betas:
        previous, regime = regime, _regime(crit, beta)
        if regime != previous:
            pressure_roots, boundary_roots = [], []
        # a call through the module's namespace, so that a wrapper installed
        # on critical.pressure_sample sees each grid point
        sample = pressure_sample(params, beta,
                                 pressure_start=_predicted_offset(pressure_roots, beta),
                                 boundary_start=_predicted_offset(boundary_roots, beta))
        # a root on its floor counts one spacing of doubles above it
        if sample.ztilde is not None:
            z = sample.ztilde
            boundary_roots.append((beta, max(z - sample.p34, math.ulp(z)), z))
        if regime != ABOVE_HI:
            z = sample.p_full
            pressure_roots.append((beta, max(z - abscissa(params, beta).Z_c, math.ulp(z)), z))
        samples.append(sample)
    return samples


def equilibrium_report(params: ModelParams, which: str,
                       beta_star: float | None = None) -> EquilibriumReport:
    """Equilibrium count and cylinder-weight verdict at a transition.

    which is "at_beta_lo" or "at_beta_hi"; beta_star, finite and >= 0,
    overrides the transition point, which is then not solved.

    The decisive quantity is eps*beta at the transition: the Z-derivative of
    the wing series converges there iff eps*beta > 2, which is exactly the
    finite-return-time-expectation criterion for the induced equilibrium to
    open out to a global one.
    """
    if which not in ("at_beta_lo", "at_beta_hi"):
        raise ValueError(f"which must be 'at_beta_lo' or 'at_beta_hi', got {which!r}")
    if beta_star is not None and not 0.0 <= beta_star < math.inf:
        raise ValueError(f"beta_star must be finite and >= 0, got {beta_star!r}")
    b = beta_star
    if b is None:
        crit = critical_set(params)
        b = crit.beta_lo if which == "at_beta_lo" else crit.beta_hi
    eps_beta = params.epsilon * b
    # at the floor Z = P34 the wing slope series is T(eps*beta - 1, 0), which
    # converges iff eps*beta - 1 > 1, i.e. eps*beta > 2
    finite = eps_beta > 2.0
    # a second equilibrium needs weight on the inducing cylinder (finite return
    # time), except with doubled wings, where the two mirrored wing
    # equilibria always coexist
    count = 2 if finite or params.variant == "B" else 1
    return EquilibriumReport(
        beta_star=b,
        eps_beta=eps_beta,
        return_time_derivative_finite=finite,
        count_lower_bound=count,
        weight_on_cylinder=finite,
    )


def zeta_at_beta_lo(params: ModelParams) -> float:
    """zeta(eps * beta_lo); the defining equation forces this above 5."""
    eb = params.epsilon * critical_set(params).beta_lo
    return riemann_zeta(eb) if eb > 1.0 else math.inf
