"""Certified evaluation of the three return-word series and their Z-slopes.

Sigma1, Sigma2 and Sigma3 and their Z-slopes are stated here alone (`sigma1`,
`wing_sums`); everything reduces to sums of the shape

    T(s, W) = sum_{n>=1} (n+1)^(-s) e^(-n W),

evaluated with an explicit bound on the discarded tail.  Four regimes:

  * W = 0: the sum is zeta(s) - 1 (divergent for s <= 1), taken from the
    internal Euler-Maclaurin zeta; the bound grows with |zeta(s)|;
  * s = 0, W > 0: the sum is geometric, T(0, W) = g = 1/(e^W - 1), and so is
    the pair's T(-1, W) = g (g + 2) (Li_0 and Li_-1 are rational; L. Lewin,
    "Polylogarithms and Associated Functions", 1981); the bound covers
    rounding alone.  Every sum at beta = 0, where the pressure is the
    topological entropy, lands here;
  * W >= 0.02: direct chunked summation; geometric and integral tail bounds,
    which bound the truncated tail alone;
  * 0 < W < 0.02: the expansion of the polylogarithm Li_s(e^-W) around W = 0
    (leading Gamma(1-s) W^(s-1) term plus a zeta power series), which stays
    accurate where direct summation would need >> 10^7 terms; the bound
    includes the rounding of the leading term and of the final step.

`tail_sum_pair` gives T(s, W) and T(s-1, W) from one pass, the pair that
every Z-derivative needs: direct summation computes each term once for both
sums.  Both read one regime switch, `_sums`, and the polylog expansion
(convergent for W < 2 pi; D. C. Wood, "The computation of polylogarithms",
Univ. of Kent TR 15-92, 1992) reads zeta from one bounded memo.

Divergence is always reported through an explicit flag, never by overflow:
the phase structure downstream branches on convergence boundaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, wing_pressure

DEFAULT_TOL = 1e-13
TERM_CAP = 10_000_000

_EPS = 2.0 ** -52
_TINY = 2.0 ** -1074  # one subnormal step

_ASYMPTOTIC_W = 0.02
_EM_N = 64
_ZETA_MEMO = 1024

# B_2, B_4, ..., B_24
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
)


@dataclass(frozen=True)
class SeriesEval:
    """Value of a truncated series with a certificate for the discarded tail.

    ``slope`` is dvalue/dZ where asked for (`sigma1` always gives it), else
    NaN.  When ``divergent`` is set the other fields are meaningless and must
    not be consumed.
    """

    value: float
    tail_bound: float
    terms_used: int
    divergent: bool
    slope: float = math.nan


_DIVERGENT = SeriesEval(math.nan, math.nan, 0, True)


@functools.lru_cache(maxsize=_ZETA_MEMO)
def _zeta_any(s: float) -> float:
    """Riemann zeta for any real s != 1 (reflection below 1/2, EM above)."""
    if s == 1.0:
        raise ValueError("zeta has a pole at s=1")
    if abs(s) < 1e-12:
        # series at 0; also keeps the reflection below from rounding 1-s to 1
        return -0.5 - 0.9189385332046727 * s
    if s < 0.5:
        if abs(s) < 0.25:
            # 1 - s is rounded, and the pole of zeta(1 - s) ~ -1/s would
            # magnify that by 1/|s|: take the pole from s itself
            z1 = _zeta_em(1.0 - s, regular=True) - 1.0 / s
        else:
            z1 = _zeta_any(1.0 - s)
        return (2.0 ** s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0)
                * math.gamma(1.0 - s) * z1)
    if s > 55.0:
        return 1.0 + 2.0 ** -s + 3.0 ** -s
    return _zeta_em(s)


def _zeta_em(s: float, regular: bool = False) -> float:
    """Euler-Maclaurin zeta(s) for s >= 0.5, s != 1; with `regular`, the
    part zeta(s) - 1/(s-1) that stays smooth through the pole."""
    N = _EM_N
    total = math.fsum(n ** -s for n in range(1, N))
    if regular:
        # N^(1-s)/(s-1) - 1/(s-1), without the cancellation
        total += math.expm1((1.0 - s) * math.log(N)) / (s - 1.0) + 0.5 * N ** -s
    else:
        total += N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** -s
    poch = 1.0
    for j, b2j in enumerate(_BERNOULLI, start=1):
        poch = s if j == 1 else poch * (s + 2 * j - 3) * (s + 2 * j - 2)
        total += b2j / math.factorial(2 * j) * poch * N ** (1.0 - s - 2 * j)
    return total


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1, to absolute error below 3e-13 + 4 eps |zeta(s)|,
    the bound `tail_sum(s, 0)` certifies (it grows like 1/(s-1) at the pole).

    Direct summation to N with an Euler-Maclaurin tail (integral term plus
    half-term and Bernoulli corrections).
    """
    if not s > 1.0:
        raise ValueError(f"riemann_zeta requires s > 1, got {s!r}")
    return _zeta_any(s)


def _li_expansion(s: float, W: float) -> tuple[float, float]:
    """Li_s(e^-W) for 0 < W < 1 via the expansion around W = 0.

    Returns (value, absolute error estimate).  Positive integer s uses the
    logarithmic variant of the expansion; near-integer s goes through the
    integer branch with the offset folded into the error estimate.

    The estimate covers the rounding of the leading term Gamma(1-s) W^(s-1).
    For s < 1/2 both s - 1 and 1 - s may be rounded, by up to half an ulp of
    |s - 1|; W^(s-1) turns an exponent error e into a relative error
    e |log W|, and Gamma(1-s) turns it into e |psi(1-s)| <= e (2 + log(1+|s|)).
    """
    nearest = round(s)
    if abs(s - nearest) < 1e-9 and nearest >= 1:
        n = int(nearest)
        drift = abs(s - nearest) * (4.0 + abs(math.log(W)))
        if n == 1:
            v = -math.log(-math.expm1(-W))
            return v, 4e-16 * (1.0 + abs(math.log(W))) + drift * max(1.0, v)
        # the log term takes the place of the k = n-1 zeta term
        order, skip, lead_err = n, n - 1, 0.0
        harmonic = sum(1.0 / i for i in range(1, n))
        lead = (-W) ** (n - 1) / math.factorial(n - 1) * (harmonic - math.log(W))
    else:
        order, skip, drift = s, -1, 0.0
        lead = math.gamma(1.0 - s) * W ** (s - 1.0)
        lead_err = abs(lead) * _EPS * (
            4.0 + abs(s - 1.0) * (abs(math.log(W)) + 2.0 + math.log1p(abs(s))))
    total = lead
    mags = abs(lead)
    term_pow = 1.0
    for k in range(60):
        if k != skip:
            t = _zeta_any(order - k) * term_pow / math.factorial(k)
            total += t
            mags = max(mags, abs(t))
            if k > 6 and abs(t) < 1e-19 * mags:
                break
        term_pow *= -W
    err = mags * 5e-16 + lead_err
    if drift:
        err += drift * max(1.0, abs(total))
    return total, err


def _at_zero(s: float) -> SeriesEval:
    """T(s, 0) = zeta(s) - 1; the bound scales with |zeta(s)|, which nears
    1/(s-1) at the pole."""
    if s <= 1.0:
        return _DIVERGENT
    z = _zeta_any(s)
    return SeriesEval(z - 1.0, 3e-13 + 4.0 * _EPS * abs(z), _EM_N, False)


def _polylog(s: float, W: float) -> SeriesEval:
    """T(s, W) = e^W (Li_s(e^-W) - e^-W) for 0 < W < 0.02; the bound adds the
    rounding of that last step to the expansion's error."""
    li, err = _li_expansion(s, W)
    e_w = math.exp(W)
    value = e_w * (li - math.exp(-W))
    # e^-W is rounded (half an ulp, times e^W) and so are the two operations
    return SeriesEval(value, err * e_w + _EPS * (1.0 + 2.0 * abs(value)), 0, False)


def _geometric(W: float, paired: bool) -> tuple[SeriesEval, ...]:
    """T(0, W) = g, and T(-1, W) = g (g + 2) when `paired`, g = 1/expm1(W).

    Both stay exact to rounding for every W > 0, where the form
    q (2 - q) / (1 - q)^2 in q = e^-W cancels in 1 - q: it keeps only 4
    digits at W = 1e-12 and divides by zero below W = 1e-16.  Past W = 700,
    g = e^-W to within a relative e^-W (and expm1 would overflow); e^-W goes
    subnormal from W = 708, so the bound adds a subnormal step.
    """
    g = math.exp(-W) if W > 700.0 else 1.0 / math.expm1(W)
    out = (SeriesEval(g, 4.0 * _EPS * g + 2.0 * _TINY, 0, False),)
    if paired:
        v = g * (g + 2.0)
        out += (SeriesEval(v, 8.0 * _EPS * v + 2.0 * _TINY, 0, False),)
    return out


def _direct_tail(s: float, W: float, N: int) -> float:
    """Bound on sum_{n>N} (n+1)^(-s) e^(-nW) for W > 0."""
    q = math.exp(-W)
    if s >= 0.0:
        # terms decrease: geometric envelope at rate q
        geo = (N + 2.0) ** (-s) * math.exp(-(N + 1) * W) / (1.0 - q)
    else:
        # polynomially growing prefactor: envelope at the first-step ratio
        r = ((N + 3.0) / (N + 2.0)) ** (-s) * q
        geo = ((N + 2.0) ** (-s) * math.exp(-(N + 1) * W) / (1.0 - r)
               if r < 1.0 else math.inf)
    poly = (N + 1.0) ** (1.0 - s) / (s - 1.0) if s > 1.0 else math.inf
    return min(geo, poly)


def _direct(s: float, W: float, paired: bool) -> tuple[SeriesEval, ...]:
    """T(s, W), and T(s-1, W) when `paired`, by chunked direct summation.

    The terms a_n = (n+1)^(-s) e^(-nW) are computed once per chunk; the s-1
    sum adds (n+1) a_n.  The chunks start at 4096 terms and double (up to
    2^20) until every reported tail is within DEFAULT_TOL.
    """
    exponents = (s, s - 1.0) if paired else (s,)
    totals = [0.0] * len(exponents)
    n0, chunk = 1, 4096
    while True:
        n = np.arange(n0, n0 + chunk, dtype=float)
        m = n + 1.0
        a = m ** (-s) * np.exp(-n * W)
        totals[0] += float(a.sum())
        if paired:
            totals[1] += float((m * a).sum())
        N = n0 + chunk - 1
        tails = [_direct_tail(e, W, N) for e in exponents]
        if max(tails) <= DEFAULT_TOL or N >= TERM_CAP:
            return tuple(SeriesEval(t, b, N, False) for t, b in zip(totals, tails))
        n0 += chunk
        chunk = min(chunk * 2, 1 << 20)


def _sums(s: float, W: float, paired: bool) -> tuple[SeriesEval, ...]:
    """T(s, W), and T(s-1, W) when `paired`: the one place that picks the
    regime (divergent, zeta at W = 0, geometric at s = 0, polylog below the
    seam, direct above)."""
    exponents = (s, s - 1.0) if paired else (s,)
    if W < 0.0 or not math.isfinite(W):
        return (_DIVERGENT,) * len(exponents)
    if W == 0.0:
        return tuple(_at_zero(e) for e in exponents)
    if s == 0.0:
        return _geometric(W, paired)
    if W < _ASYMPTOTIC_W:
        return tuple(_polylog(e, W) for e in exponents)
    return _direct(s, W, paired)


def tail_sum(s: float, W: float) -> SeriesEval:
    """T(s, W) = sum_{n>=1} (n+1)^(-s) e^(-nW) with a certified tail bound.

    Divergent iff W < 0, or W = 0 with s <= 1.  The weight of maximal
    2-strings, Sigma2, is T(beta, Z).
    """
    return _sums(s, W, False)[0]


def tail_sum_pair(s: float, W: float) -> tuple[SeriesEval, SeriesEval]:
    """(T(s, W), T(s-1, W)) from one pass, each with its own certificate.

    The Z-derivatives of the 2-string and wing series need this pair, since
    n (n+1)^(-s) = (n+1)^(1-s) - (n+1)^(-s).  Each member equals what
    `tail_sum` reports for it up to rounding, and a member is divergent
    exactly when `tail_sum` would say so: at W = 0, T(s-1, W) diverges for
    s <= 2.  Direct summation shares its terms between the two sums and runs
    until both tails are within DEFAULT_TOL.
    """
    return _sums(s, W, True)


def sigma1(params: ModelParams, beta: float, Z: float) -> SeriesEval:
    """sum_{n>=1} e^(-n*alpha*beta - nZ + (n-1) log L): the 1-family excursions.

    Geometric, in closed form with its Z-slope; divergent iff Z <= log L - alpha*beta.
    """
    a = math.exp(-params.alpha * beta - Z)
    r = params.L * a
    if r >= 1.0:
        return _DIVERGENT
    return SeriesEval(a / (1.0 - r), 0.0, 0, False, -a / (1.0 - r) ** 2)


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


def _wing_blocks(params: ModelParams, beta: float, Z: float, base: SeriesEval,
                 shifted: SeriesEval | None = None) -> SeriesEval:
    """Sigma3 from T(eps*beta, W), and its Z-slope from T(eps*beta - 1, W) if given."""
    if base.divergent:
        return _DIVERGENT
    pref = wing_prefactor(params, beta)
    corr = single_block_correction(params, beta, Z)
    value = base.value * pref + corr
    # Sigma3 = pref * T(s, W) + corr, so d/dZ = -pref * (T(s-1, W) - T(s, W)) - corr
    slope = (math.nan if shifted is None else -math.inf if shifted.divergent
             else (value - corr) - pref * shifted.value - corr)
    return SeriesEval(value, base.tail_bound * pref + 4e-16 * abs(value),
                      base.terms_used, False, slope)


def sigma3(params: ModelParams, beta: float, Z: float) -> SeriesEval:
    """Weight of maximal wing blocks between consecutive 2-strings.

    With W = Z - P34(beta):

        sigma3 = (1+e^(delta*beta))^-2 * sum_{n>=1} (n+1)^(-eps*beta) e^(-nW)
                 + single_block_correction

    Divergent iff W < 0, or W = 0 with eps*beta <= 1.
    """
    return _wing_blocks(params, beta, Z,
                        tail_sum(params.epsilon * beta, Z - wing_pressure(params, beta)))


def wing_sums(params: ModelParams, beta: float, Z: float,
              slope: bool = False) -> tuple[SeriesEval, SeriesEval]:
    """(Sigma2, Sigma3) = (`tail_sum(beta, Z)`, `sigma3`), one pass each; with
    `slope`, each also carries its Z-slope from one `tail_sum_pair` pass, since
    n (n+1)^(-s) = (n+1)^(1-s) - (n+1)^(-s).  A derivative series that
    diverges (at W = 0 with s <= 2) gives a slope of -inf.
    """
    if not slope:
        return tail_sum(beta, Z), sigma3(params, beta, Z)
    t2, t2m = tail_sum_pair(beta, Z)
    t3, t3m = tail_sum_pair(params.epsilon * beta, Z - wing_pressure(params, beta))
    d2 = -math.inf if t2m.divergent else t2.value - t2m.value
    s2 = SeriesEval(t2.value, t2.tail_bound, t2.terms_used, t2.divergent, d2)
    return s2, _wing_blocks(params, beta, Z, t3, t3m)
