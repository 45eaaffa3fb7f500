"""Certified evaluation of the three return-word series and their Z-derivatives.

Everything here reduces to sums of the shape

    T(s, W) = sum_{n>=1} (n+1)^(-s) e^(-n W),

evaluated with an explicit bound on the discarded tail.  Three regimes:

  * W = 0: the sum is zeta(s) - 1 (divergent for s <= 1), taken from the
    internal Euler-Maclaurin zeta;
  * W >= 0.02: direct chunked summation; geometric and integral tail bounds;
  * 0 < W < 0.02: the expansion of the polylogarithm Li_s(e^-W) around W = 0
    (leading Gamma(1-s) W^(s-1) term plus a zeta power series), which stays
    accurate where direct summation would need >> 10^7 terms.

Divergence is always reported through an explicit flag, never by overflow:
the phase structure downstream branches on convergence boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, wing_pressure

DEFAULT_TOL = 1e-13
TERM_CAP = 10_000_000

_ASYMPTOTIC_W = 0.02
_EM_N = 64

# B_2, B_4, ..., B_24
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
)


@dataclass(frozen=True)
class SeriesEval:
    """Value of a truncated series with a certificate for the discarded tail.

    When ``divergent`` is set the other fields are meaningless and must not
    be consumed.
    """

    value: float
    tail_bound: float
    terms_used: int
    divergent: bool


_DIVERGENT = SeriesEval(math.nan, math.nan, 0, True)


def _zeta_any(s: float) -> float:
    """Riemann zeta for any real s != 1 (reflection below 1/2, EM above)."""
    if s == 1.0:
        raise ValueError("zeta has a pole at s=1")
    if abs(s) < 1e-12:
        # series at 0; also keeps the reflection below from rounding 1-s to 1
        return -0.5 - 0.9189385332046727 * s
    if s < 0.5:
        return (2.0 ** s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0)
                * math.gamma(1.0 - s) * _zeta_any(1.0 - s))
    if s > 55.0:
        return 1.0 + 2.0 ** -s + 3.0 ** -s
    N = _EM_N
    total = math.fsum(n ** -s for n in range(1, N))
    total += N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** -s
    poch = 1.0
    for j, b2j in enumerate(_BERNOULLI, start=1):
        poch = s if j == 1 else poch * (s + 2 * j - 3) * (s + 2 * j - 2)
        total += b2j / math.factorial(2 * j) * poch * N ** (1.0 - s - 2 * j)
    return total


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1, to absolute error below 1e-12.

    Direct summation to N with an Euler-Maclaurin tail (integral term plus
    half-term and Bernoulli corrections).
    """
    if not s > 1.0:
        raise ValueError(f"riemann_zeta requires s > 1, got {s!r}")
    return _zeta_any(s)


def _harmonic(m: int) -> float:
    return sum(1.0 / i for i in range(1, m + 1))


def _li_expansion(s: float, W: float) -> tuple[float, float]:
    """Li_s(e^-W) for 0 < W < 1 via the expansion around W = 0.

    Returns (value, absolute error estimate).  Positive integer s uses the
    logarithmic variant of the expansion; near-integer s goes through the
    integer branch with the offset folded into the error estimate.
    """
    nearest = round(s)
    kmax = 60
    if abs(s - nearest) < 1e-9 and nearest >= 1:
        n = int(nearest)
        drift = abs(s - nearest) * (4.0 + abs(math.log(W)))
        if n == 1:
            v = -math.log(-math.expm1(-W))
            return v, 4e-16 * (1.0 + abs(math.log(W))) + drift * max(1.0, v)
        lead = (-W) ** (n - 1) / math.factorial(n - 1) * (_harmonic(n - 1) - math.log(W))
        total = lead
        mags = abs(lead)
        term_pow = 1.0
        for k in range(kmax):
            if k != n - 1:
                t = _zeta_any(n - k) * term_pow / math.factorial(k)
                total += t
                mags = max(mags, abs(t))
                if k > 6 and abs(t) < 1e-19 * mags:
                    break
            term_pow *= -W
        return total, mags * 5e-16 + drift * max(1.0, abs(total))
    lead = math.gamma(1.0 - s) * W ** (s - 1.0)
    total = lead
    mags = abs(lead)
    term_pow = 1.0
    for k in range(kmax):
        t = _zeta_any(s - k) * term_pow / math.factorial(k)
        total += t
        mags = max(mags, abs(t))
        if k > 6 and abs(t) < 1e-19 * mags:
            break
        term_pow *= -W
    return total, mags * 5e-16


def tail_sum(s: float, W: float, tol: float = DEFAULT_TOL) -> SeriesEval:
    """T(s, W) = sum_{n>=1} (n+1)^(-s) e^(-nW) with a certified tail bound.

    Divergent iff W < 0, or W = 0 with s <= 1.
    """
    if W < 0.0 or not math.isfinite(W):
        return _DIVERGENT
    if W == 0.0:
        if s <= 1.0:
            return _DIVERGENT
        return SeriesEval(_zeta_any(s) - 1.0, 3e-13, _EM_N, False)
    if W < _ASYMPTOTIC_W:
        li, err = _li_expansion(s, W)
        value = math.exp(W) * (li - math.exp(-W))
        return SeriesEval(value, err * math.exp(W) + 2e-16 * abs(value), 0, False)
    q = math.exp(-W)
    total = 0.0
    n0, chunk = 1, 4096
    while True:
        n = np.arange(n0, n0 + chunk, dtype=float)
        total += float(((n + 1.0) ** (-s) * np.exp(-n * W)).sum())
        N = n0 + chunk - 1
        if s >= 0.0:
            # terms decrease: geometric envelope at rate q
            geo = (N + 2.0) ** (-s) * math.exp(-(N + 1) * W) / (1.0 - q)
        else:
            # polynomially growing prefactor: envelope at the first-step ratio
            r = ((N + 3.0) / (N + 2.0)) ** (-s) * q
            geo = ((N + 2.0) ** (-s) * math.exp(-(N + 1) * W) / (1.0 - r)
                   if r < 1.0 else math.inf)
        poly = (N + 1.0) ** (1.0 - s) / (s - 1.0) if s > 1.0 else math.inf
        tail = min(geo, poly)
        if tail <= tol or N >= TERM_CAP:
            return SeriesEval(total, tail, N, False)
        n0 += chunk
        chunk = min(chunk * 2, 1 << 20)


def _one_family_ratio(params: ModelParams, beta: float, Z: float) -> float:
    return params.L * math.exp(-params.alpha * beta - Z)


def sigma1(params: ModelParams, beta: float, Z: float) -> SeriesEval:
    """sum_{n>=1} e^(-n*alpha*beta - nZ + (n-1) log L): the 1-family excursions.

    Geometric, so taken in closed form; divergent iff Z <= log L - alpha*beta.
    """
    r = _one_family_ratio(params, beta, Z)
    if r >= 1.0:
        return _DIVERGENT
    return SeriesEval(math.exp(-params.alpha * beta - Z) / (1.0 - r), 0.0, 0, False)


def sigma2(params: ModelParams, beta: float, Z: float) -> SeriesEval:
    """sum_{n>=1} (n+1)^(-beta) e^(-nZ): the weight of maximal 2-strings."""
    return tail_sum(beta, Z)


def wing_prefactor(params: ModelParams, beta: float) -> float:
    """(1 + e^(delta*beta))^(-2), overflow-safe."""
    u = params.delta * beta
    if u > 350.0:
        return math.exp(-2.0 * u)
    return (1.0 + math.exp(u)) ** -2


def _sigmoid(u: float) -> float:
    """e^u / (1 + e^u)."""
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    return math.exp(u) / (1.0 + math.exp(u))


def single_block_correction(params: ModelParams, beta: float, Z: float) -> float:
    """Weight adjustment for the length-1 wing block (the word 2,3,2).

    The closed form e^(n*P34) / (1+e^(delta*beta))^2 used for the block series
    is exact for blocks of length >= 2 but undercounts the single-symbol block
    3 by the factor 1 + e^(delta*beta); this term restores the exact value so
    that the series equals the brute-force sum over return words.
    """
    return (2.0 ** (-params.epsilon * beta)
            * math.exp(params.gamma * beta - Z)
            * _sigmoid(params.delta * beta))


def sigma3(params: ModelParams, beta: float, Z: float) -> SeriesEval:
    """Weight of maximal wing blocks between consecutive 2-strings.

    With W = Z - P34(beta):

        sigma3 = (1+e^(delta*beta))^-2 * sum_{n>=1} (n+1)^(-eps*beta) e^(-nW)
                 + single_block_correction

    Divergent iff W < 0, or W = 0 with eps*beta <= 1.
    """
    W = Z - wing_pressure(params, beta)
    base = tail_sum(params.epsilon * beta, W)
    if base.divergent:
        return _DIVERGENT
    pref = wing_prefactor(params, beta)
    corr = single_block_correction(params, beta, Z)
    value = base.value * pref + corr
    return SeriesEval(value, base.tail_bound * pref + 4e-16 * abs(value),
                      base.terms_used, False)


def dsigma_dZ(which: str, params: ModelParams, beta: float, Z: float) -> SeriesEval:
    """Term-wise d/dZ of sigma1 / sigma2 / sigma3 (every term gains -n).

    For S3 at W = 0 the derivative series is sum n (n+1)^(-eps*beta), finite
    iff eps*beta > 2; that boundary decides whether the induced return time
    has finite expectation.
    """
    if which == "S1":
        r = _one_family_ratio(params, beta, Z)
        if r >= 1.0:
            return _DIVERGENT
        first = math.exp(-params.alpha * beta - Z)
        return SeriesEval(-first / (1.0 - r) ** 2, 0.0, 0, False)
    if which == "S2":
        # n (n+1)^(-s) = (n+1)^(1-s) - (n+1)^(-s)
        hi = tail_sum(beta - 1.0, Z)
        lo = tail_sum(beta, Z)
        if hi.divergent or lo.divergent:
            return _DIVERGENT
        return SeriesEval(-(hi.value - lo.value), hi.tail_bound + lo.tail_bound,
                          max(hi.terms_used, lo.terms_used), False)
    if which == "S3":
        W = Z - wing_pressure(params, beta)
        s = params.epsilon * beta
        hi = tail_sum(s - 1.0, W)
        lo = tail_sum(s, W)
        if hi.divergent or lo.divergent:
            return _DIVERGENT
        pref = wing_prefactor(params, beta)
        value = -pref * (hi.value - lo.value) - single_block_correction(params, beta, Z)
        return SeriesEval(value, pref * (hi.tail_bound + lo.tail_bound) + 4e-16 * abs(value),
                          max(hi.terms_used, lo.terms_used), False)
    raise ValueError(f"which must be one of 'S1', 'S2', 'S3', got {which!r}")
