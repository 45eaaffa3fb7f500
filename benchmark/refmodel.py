"""The model restated from its definitions, apart from the program.

Everything here is written from the definitions of the two butterfly
subshifts (alphabet, allowed edges, grid potential and the return-word
series), not from the program's modules.  It uses only mpmath, numpy and the
standard library, and serves two purposes:

  * locating beta_lo and beta_hi in double precision, so that the benchmark
    can place a curve grid with a point in every regime before the program
    runs (no call into the program, so nothing is cached for it);
  * high-precision evaluation of the defining maps, used by the checks.

Series, with s = eps*beta, W = Z - P34(beta) and x = e^(-alpha*beta - Z):

  sigma1 = sum_{n>=1} x^n L^(n-1)                    = x / (1 - L x)
  sigma2 = sum_{n>=1} (n+1)^(-beta) e^(-nZ)          (maximal 2-strings)
  sigma3 = sum_{m>=1} (m+1)^(-s) A_m e^(-mZ)         (maximal wing blocks)

where A_1 = e^(gamma*beta) and A_m = e^(m*gamma*beta) (1+e^(delta*beta))^(m-2)
for m >= 2 is the weight of the wing words of length m that start and end
with 3.  With m_w = 1 (variant A) or 2 (variant B) wing families,

  lambda_1 = sigma1 + sigma2 x / (1 - m_w sigma2 sigma3).

Divergent series and a composition m_w sigma2 sigma3 >= 1 make the maps +inf.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 30


def wing_pressure(gamma, delta, beta):
    """P34(beta) = gamma*beta + log(1 + e^(delta*beta)) in mpmath."""
    beta = mpmath.mpf(beta)
    return gamma * beta + mpmath.log1p(mpmath.exp(delta * beta))


def _shifted_polylog(s, W):
    """sum_{k>=2} k^(-s) e^(-(k-1)W), i.e. e^W (Li_s(e^-W) - e^-W); +inf if divergent."""
    if W < 0:
        return mpmath.inf
    if W == 0:
        return mpmath.zeta(s) - 1 if s > 1 else mpmath.inf
    x = mpmath.exp(-W)
    return (mpmath.polylog(s, x) - x) / x


def sigma2(beta, Z):
    return _shifted_polylog(beta, Z)


def sigma3(p, beta, Z, W):
    """The wing-block series at Z, with W = Z - P34(beta) passed exactly."""
    s = p["epsilon"] * beta
    tail = _shifted_polylog(s, W)  # sum_{m>=1} (m+1)^-s e^{-mW}
    if tail == mpmath.inf:
        return mpmath.inf
    # blocks of length >= 2 in closed form; the length-1 block is the word 3
    first = mpmath.mpf(2) ** (-s) * mpmath.exp(-W)
    pref = (1 + mpmath.exp(p["delta"] * beta)) ** -2
    return (mpmath.mpf(2) ** (-s) * mpmath.exp(p["gamma"] * beta - Z)
            + pref * (tail - first))


def multiplicity(p):
    return 2 if p["variant"] == "B" else 1


def _point(p, beta, Z):
    """(beta, Z, W) as mpf; Z=None stands for the pressure floor Z = P34 (W = 0)."""
    beta = mpmath.mpf(beta)
    floor = wing_pressure(p["gamma"], p["delta"], beta)
    if Z is None:
        return beta, floor, mpmath.mpf(0)
    Z = mpmath.mpf(Z)
    return beta, Z, Z - floor


def composition_minus_one(p, beta, Z=None, dps=DPS):
    """m_w sigma2 sigma3 - 1 (+inf when a series diverges)."""
    with mpmath.workdps(dps):
        beta, Z, W = _point(p, beta, Z)
        s2, s3 = sigma2(beta, Z), sigma3(p, beta, Z, W)
        if s2 == mpmath.inf or s3 == mpmath.inf:
            return mpmath.inf
        return multiplicity(p) * s2 * s3 - 1


def lambda1_minus_one(p, beta, Z=None, dps=DPS):
    """lambda_1 - 1 (+inf when lambda_1 is undefined)."""
    with mpmath.workdps(dps):
        beta, Z, W = _point(p, beta, Z)
        x = mpmath.exp(-p["alpha"] * beta - Z)
        if p["L"] * x >= 1:
            return mpmath.inf
        s2, s3 = sigma2(beta, Z), sigma3(p, beta, Z, W)
        if s2 == mpmath.inf or s3 == mpmath.inf:
            return mpmath.inf
        comp = multiplicity(p) * s2 * s3
        if comp >= 1:
            return mpmath.inf
        return x / (1 - p["L"] * x) + s2 * x / (1 - comp) - 1


def brackets_root(f, x, rel_step):
    """True iff the decreasing map f changes sign across x*(1 -/+ rel_step)."""
    lo = f(x * (1 - rel_step))
    hi = f(x * (1 + rel_step))
    return lo > 0 and hi < 0


# ---------------------------------------------------------------------------
# transitions in double precision (input generation)

def _bisect_log(f, lo, hi, iters=40):
    """Root of a decreasing map f on w > lo, bisected in log(w); hi grows
    until f(hi) <= 0.  40 halvings leave the root 3e-11 wide in log(w)."""
    while f(hi) > 0:
        hi *= 4.0
    lo_t, hi_t = math.log(lo), math.log(hi)
    for _ in range(iters):
        mid = 0.5 * (lo_t + hi_t)
        if f(math.exp(mid)) > 0:
            lo_t = mid
        else:
            hi_t = mid
    return math.exp(hi_t)


def transitions(p):
    """(beta_lo, beta_hi) from the two maps at the pressure floor, in doubles.

    beta_lo is the root of the composition map above the zeta pole at
    eps*beta = 1, searched in the log of the offset from the pole; beta_hi is
    the root of the lambda_1 map above beta_lo.
    """
    eps = p["epsilon"]
    u = _bisect_log(lambda u: composition_minus_one(p, (1.0 + u) / eps, dps=20), 1e-16, 1.0)
    b_lo = (1.0 + u) / eps
    v = _bisect_log(lambda v: lambda1_minus_one(p, b_lo + v, dps=20),
                    1e-16 * b_lo, max(1.0, b_lo))
    return b_lo, b_lo + v


# ---------------------------------------------------------------------------
# the transition graph from its definition

def incidence(p, with_one_family=True):
    """0/1 incidence matrix of the butterfly graph (or its 1-free subsystem)."""
    syms = ["2", "3", "4"] + (["3'", "4'"] if p["variant"] == "B" else [])
    if with_one_family:
        syms = ["1"] + syms + [f"1_{i}" for i in range(1, p["L"] + 1)]
    idx = {s: i for i, s in enumerate(syms)}
    M = np.zeros((len(syms), len(syms)))

    def edge(a, b):
        if a in idx and b in idx:
            M[idx[a], idx[b]] = 1.0

    # 1 and the auxiliaries form a full shift; only 1 leads into the body
    head = ["1"] + [f"1_{i}" for i in range(1, p["L"] + 1)]
    for a in head:
        for b in head:
            edge(a, b)
    edge("1", "2")
    for a, b in (("2", "1"), ("2", "2"), ("2", "3"),
                 ("3", "2"), ("3", "3"), ("3", "4"), ("4", "3"), ("4", "4")):
        edge(a, b)
    if p["variant"] == "B":
        for a, b in (("2", "3'"), ("3'", "2"), ("3'", "3'"), ("3'", "4'"),
                     ("4'", "3'"), ("4'", "4'")):
            edge(a, b)
    return M


def topological_entropy(p, with_one_family=True):
    """log of the spectral radius of the incidence matrix (numpy eigvals)."""
    return float(np.log(np.max(np.abs(np.linalg.eigvals(incidence(p, with_one_family))))))
