import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflyshift import series
from butterflyshift.critical import equilibrium_report, pressure_full
from butterflyshift.model import ModelParams, REFERENCE, wing_pressure
from butterflyshift.series import (
    DEFAULT_TOL,
    riemann_zeta,
    sigma1,
    sigma3,
    single_block_correction,
    tail_sum,
    tail_sum_pair,
    wing_sums,
)
from butterflyshift.spectral import composition_boundary, lambda_1

from conftest import assert_close

EPS = 2.0 ** -52


def brute_tail_sum(s, W):
    """T(s, W) summed term by term over n = 1 .. 2^22 (W > 0)."""
    n = np.arange(1, 2 ** 22 + 1, dtype=float)
    return float(((n + 1.0) ** -s * np.exp(-n * W)).sum())


def assert_within_certificate(s, W):
    ev = tail_sum(s, W)
    err = abs(ev.value - brute_tail_sum(s, W))
    assert err <= ev.tail_bound + 8 * EPS * abs(ev.value), (s, W, err, ev.tail_bound)


def brute_wing_block_series(params, beta, Z, n_terms=400_000):
    """Independent oracle for sigma3: the exact block weights, term by term.

    A_1 = e^(gamma*beta); A_n = e^(n*gamma*beta) (1+e^(delta*beta))^(n-2).
    Accumulated in log space so large n cannot overflow.
    """
    eb = params.epsilon * beta
    log_g = params.gamma * beta
    log_q = math.log(1.0 + math.exp(params.delta * beta))
    rate = log_g + log_q - Z  # per-symbol log growth of A_n e^(-nZ), n >= 2
    total = math.exp(log_g - Z - eb * math.log(2.0))
    for n in range(2, n_terms + 1):
        total += math.exp(n * rate - 2.0 * log_q - eb * math.log(n + 1.0))
    return total


class TestSigma1:
    def test_geometric_value(self):
        # L=1 and alpha*beta + Z = log 2: sum 2^-n = 1
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=1)
        beta = 0.25
        Z = math.log(2.0) - p.alpha * beta
        ev = sigma1(p, beta, Z)
        assert not ev.divergent
        assert_close(ev.value, 1.0, 1e-14)
        assert ev.tail_bound == 0.0 and ev.terms_used == 0

    def test_divergence_boundary(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=3)
        beta = 0.7
        z_bad = math.log(p.L) - p.alpha * beta
        assert sigma1(p, beta, z_bad).divergent
        assert sigma1(p, beta, z_bad - 0.5).divergent
        assert not sigma1(p, beta, z_bad + 1e-9).divergent

    def test_closed_vs_summation(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=3)
        beta, Z = 2.0, 0.5
        closed = sigma1(p, beta, Z)
        # explicit geometric summation; the tail after term n is term*r/(1-r)
        r = p.L * math.exp(-p.alpha * beta - Z)
        summed, term = 0.0, math.exp(-p.alpha * beta - Z)
        for n in range(1, 1000):
            summed += term
            tail = term * r / (1.0 - r)
            if tail <= DEFAULT_TOL:
                break
            term *= r
        assert n > 1 and tail <= DEFAULT_TOL
        assert abs(closed.value - summed) <= max(tail, 1e-15)

    def test_decreasing_in_Z(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=2)
        vals = [sigma1(p, 0.8, z).value for z in (0.2, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSigma2:
    def test_geometric_at_beta_zero(self):
        ev = tail_sum(0.0, math.log(2.0))
        assert_close(ev.value, 1.0, 1e-12)

    def test_zeta_path_at_Z_zero(self):
        beta = 1.7
        ev = tail_sum(beta, 0.0)
        assert not ev.divergent
        assert_close(ev.value, riemann_zeta(beta) - 1.0, 1e-11)

    def test_divergence(self):
        assert tail_sum(2.0, -0.1).divergent
        assert tail_sum(1.0, 0.0).divergent
        assert tail_sum(0.5, 0.0).divergent
        assert not tail_sum(1.0 + 1e-9, 0.0).divergent

    # Sigma2 is tail_sum(beta, Z): its value against a 2^22-term sum
    def test_refinement_stability(self):
        assert_within_certificate(1.5, 0.1)

    def test_tail_certificate(self):
        assert_within_certificate(1.2, 0.35)


class TestSigma3:
    def test_brute_force_oracle_moderate_W(self):
        beta, Z = 0.8, wing_pressure(REFERENCE, 0.8) + 0.25
        ev = sigma3(REFERENCE, beta, Z)
        brute = brute_wing_block_series(REFERENCE, beta, Z, n_terms=3000)
        assert_close(ev.value, brute, 1e-12)

    def test_brute_force_oracle_small_W(self):
        beta = 1.4
        Z = wing_pressure(REFERENCE, beta) + 5e-4
        ev = sigma3(REFERENCE, beta, Z)
        brute = brute_wing_block_series(REFERENCE, beta, Z, n_terms=400_000)
        # brute truncation at 4e5 terms with eps*beta=1.4 leaves ~O(1e-3) of
        # polynomial tail * e^{-n W}; compare where both are solid
        assert abs(ev.value - brute) <= 2e-6

    def test_zeta_identity_at_floor(self):
        # at Z = P34 the series part collapses to (zeta(eps*beta)-1) over the
        # squared normalization, plus the single-block correction
        beta = 1.6
        z0 = wing_pressure(REFERENCE, beta)
        ev = sigma3(REFERENCE, beta, z0)
        pref = (1.0 + math.exp(REFERENCE.delta * beta)) ** -2
        expect = (riemann_zeta(REFERENCE.epsilon * beta) - 1.0) * pref \
            + single_block_correction(REFERENCE, beta, z0)
        assert_close(ev.value, expect, 1e-11)

    def test_divergence(self):
        beta = 0.5
        z0 = wing_pressure(REFERENCE, beta)
        assert sigma3(REFERENCE, beta, z0 - 1e-9).divergent
        assert sigma3(REFERENCE, beta, z0).divergent       # eps*beta = 0.5 <= 1
        assert sigma3(REFERENCE, 1.0, wing_pressure(REFERENCE, 1.0)).divergent
        assert not sigma3(REFERENCE, 1.5, wing_pressure(REFERENCE, 1.5)).divergent

    def test_vanishes_at_large_Z(self):
        ev = sigma3(REFERENCE, 0.7, 60.0)
        assert 0.0 < ev.value < 1e-20

    @given(beta=st.floats(0.1, 3.0), w=st.floats(1e-4, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_decreasing_in_Z(self, beta, w):
        z = wing_pressure(REFERENCE, beta) + w
        a = sigma3(REFERENCE, beta, z)
        b = sigma3(REFERENCE, beta, z + 0.05)
        assert b.value < a.value

    def test_refinement_stability(self):
        # the series part of sigma3, tail_sum(eps*beta, Z - P34(beta))
        beta = 1.1
        z = wing_pressure(REFERENCE, beta) + 0.04
        assert_within_certificate(REFERENCE.epsilon * beta, z - wing_pressure(REFERENCE, beta))

    def test_asymptotic_matches_direct_across_switchover(self):
        # the polylog-expansion regime and direct summation agree near W=0.02
        for beta in (0.3, 0.9, 1.5, 2.0, 2.5):
            for w in (0.019, 0.021):
                z = wing_pressure(REFERENCE, beta) + w
                ev = sigma3(REFERENCE, beta, z)
                brute = brute_wing_block_series(REFERENCE, beta, z, n_terms=40_000)
                assert_close(ev.value, brute, 5e-10, f"beta={beta} w={w}")


class TestSigma2Monotonicity:
    @given(beta=st.floats(0.0, 4.0), z=st.floats(0.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_decreasing_in_Z(self, beta, z):
        assert tail_sum(beta, z + 0.1).value < tail_sum(beta, z).value


class TestDsigma:
    """Z-slopes of the three series as the evaluators of `spectral` report them:
    every term of a series in e^(-nZ) gains a factor -n."""

    def test_s1_closed_form(self):
        # at r = L e^(-alpha beta - Z) = 1/2 the 1-family slope is
        # -(sum n 2^-n) / L = -2 / L; the wing part of the lambda_[1] slope is
        # taken by central differences (it is about 3e-4 of the whole here)
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=1000)
        beta = 0.25
        Z = math.log(2.0 * p.L) - p.alpha * beta
        lam = lambda_1(p, beta, Z, slope=True)
        h = 1e-4
        hi, lo = lambda_1(p, beta, Z + h), lambda_1(p, beta, Z - h)
        wing_fd = ((hi.value - hi.sigma1.value) - (lo.value - lo.sigma1.value)) / (2 * h)
        assert_close(p.L * (lam.slope - wing_fd), -2.0, 1e-9)

    def test_s2_matches_finite_differences(self):
        # includes beta < 1, where the derivative series has a polynomially
        # growing prefactor and needs the ratio-envelope tail bound; the wings
        # are nearly flat, so that Z just above log 2 still lies above P34
        p = ModelParams(1.0, 0.01, 0.01, 1.0, L=1)
        h = 1e-5
        for beta, Z in [(0.3, 0.8), (0.7, 0.9), (1.4, 0.75), (2.2, 1.3)]:
            d2 = wing_sums(p, beta, Z, slope=True)[0].slope
            fd = (tail_sum(beta, Z + h).value - tail_sum(beta, Z - h).value) / (2 * h)
            assert_close(d2, fd, 1e-6, f"beta={beta} Z={Z}")

    def test_s3_divergence_boundary(self):
        # at the pressure floor the derivative series converges iff eps*beta > 2
        p19 = ModelParams(1.0, 0.5, 1.0, 1.9, L=1)
        assert wing_sums(p19, 1.0, wing_pressure(p19, 1.0), slope=True)[1].slope == -math.inf
        assert not equilibrium_report(p19, "at_beta_hi", 1.0).return_time_derivative_finite
        p25 = ModelParams(1.0, 0.5, 1.0, 2.5, L=1)
        assert math.isfinite(wing_sums(p25, 1.0, wing_pressure(p25, 1.0), slope=True)[1].slope)
        assert equilibrium_report(p25, "at_beta_hi", 1.0).return_time_derivative_finite

    def test_s3_value_against_termwise_sum(self):
        # termwise oracle on the exact block series; the tail decays only like
        # N^(-1/2) at eps*beta = 2.5, so it is bracketed by integrals
        p25 = ModelParams(1.0, 0.5, 1.0, 2.5, L=1)
        beta = 1.0
        z0 = wing_pressure(p25, beta)
        d3 = wing_sums(p25, beta, z0, slope=True)[1].slope
        log_g = p25.gamma * beta
        log_q = math.log(1.0 + math.exp(p25.delta * beta))
        rate = log_g + log_q - z0
        N = 2_000_000
        total = -math.exp(log_g - z0) * 2.0 ** -2.5
        for n in range(2, N + 1):
            total += -n * (n + 1.0) ** (-2.5) * math.exp(n * rate - 2.0 * log_q)
        # beyond N the terms equal -pref * n (n+1)^(-2.5); integral bracket
        pref = (1.0 + math.exp(p25.delta * beta)) ** -2
        hi_tail = pref * 2.0 * N ** -0.5          # int_N x^(-1.5) dx upper
        lo_tail = pref * 2.0 * (N + 2) ** -0.5 * 0.9
        assert total - hi_tail - 1e-9 <= d3 <= total - lo_tail + 1e-9

    def test_s3_matches_finite_differences(self):
        h = 1e-6
        beta = 1.1
        z = wing_pressure(REFERENCE, beta) + 0.4
        d3 = wing_sums(REFERENCE, beta, z, slope=True)[1].slope
        fd = (sigma3(REFERENCE, beta, z + h).value
              - sigma3(REFERENCE, beta, z - h).value) / (2 * h)
        assert_close(d3, fd, 1e-5)


class TestZeta:
    def test_basel(self):
        assert_close(riemann_zeta(2.0), math.pi ** 2 / 6.0, 1e-12)

    def test_memo_spans_solves(self, monkeypatch):
        # pressure_full and composition_boundary at one beta expand the same
        # zeta(s - k): with the memo the second solve needs no new
        # Euler-Maclaurin zeta
        series._zeta_any.cache_clear()
        calls = []
        zeta_em = series._zeta_em
        monkeypatch.setattr(series, "_zeta_em",
                            lambda *a, **kw: calls.append(a) or zeta_em(*a, **kw))
        pressure_full(REFERENCE, 1.0)
        assert calls
        calls.clear()
        composition_boundary(REFERENCE, 1.0)
        assert calls == []

    def test_large_s(self):
        assert_close(riemann_zeta(60.0), 1.0, 1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            riemann_zeta(1.0)
        with pytest.raises(ValueError):
            riemann_zeta(0.5)

    def test_brute_force_at_low_s(self):
        # direct summation of 1e8 terms plus integral-bracket midpoint
        s = 1.2
        N = 100_000_000
        total = 0.0
        for start in range(1, N + 1, 10_000_000):
            n = np.arange(start, min(start + 10_000_000, N + 1), dtype=float)
            total += float((n ** -s).sum())
        upper = N ** (1 - s) / (s - 1)          # integral from N
        lower = (N + 1) ** (1 - s) / (s - 1)    # integral from N+1
        brute = total + 0.5 * (upper + lower)
        assert_close(riemann_zeta(s), brute, 1e-10)

    def test_against_tail_sum_consistency(self):
        # the kernel approaches zeta(s) - 1 as W -> 0 at the known rate
        # Gamma(1-s) W^(s-1) (for non-integer s; faster log rate at s = 2)
        w = 1e-9
        for s in (1.3, 3.7):
            a = tail_sum(s, 0.0).value
            b = tail_sum(s, w).value
            lead = abs(math.gamma(1.0 - s)) * w ** (s - 1.0)
            assert abs(a - b) <= 3.0 * lead + 1e-8
        assert abs(tail_sum(2.0, 0.0).value - tail_sum(2.0, w).value) \
            <= 3.0 * w * abs(math.log(w)) + 1e-8


# (s, W) over the zeta, polylog and direct regimes, both sides of the
# W = 0.02 seam, negative s and s next to the integers (1 - 1.8e-10 puts the
# pair's s - 1 next to 0); s = 0, the geometric regime, has its own test
BOUND_S = (-0.9, -0.3, 1e-10, 0.3, 1.0 - 1.8e-10, 1.0 + 1e-10, 1.5, 2.0 - 1e-10,
           2.0 + 3e-9, 2.5, 3.0 + 1e-10, 3.7)
BOUND_W = (0.0, 1e-8, 1e-4, 0.0199, 0.0201, 0.5)


def _regime(s, W):
    """The regime `tail_sum(s, W)` and `tail_sum_pair(s, W)` answer from."""
    if W == 0.0:
        return "zeta"
    if s == 0.0:
        return "geometric"
    return "polylog" if W < 0.02 else "direct"


class TestTailSumPair:
    def test_matches_two_tail_sums(self):
        # within the two bounds; direct summation also rounds its terms
        # differently ((n+1) a_n against (n+1)^(1-s) e^(-nW)).  At s = 0 the
        # pair's closed-form T(-1, W) meets the summed tail_sum(-1, W)
        for s in (0.0,) + BOUND_S:
            for W in BOUND_W:
                pair = tail_sum_pair(s, W)
                for got, ref, x in zip(pair, (tail_sum(s, W), tail_sum(s - 1.0, W)),
                                       (s, s - 1.0)):
                    assert got.divergent == ref.divergent, (s, W)
                    if ref.divergent:
                        continue
                    allow = got.tail_bound + ref.tail_bound
                    if "direct" in (_regime(s, W), _regime(x, W)):
                        allow += 8 * EPS * abs(ref.value)
                    assert abs(got.value - ref.value) <= allow, (s, W)

    def test_divergence(self):
        for s, first, second in [(0.5, True, True), (1.0, True, True), (1.5, False, True),
                                 (2.0, False, True), (2.0 + 1e-9, False, False)]:
            a, b = tail_sum_pair(s, 0.0)
            assert (a.divergent, b.divergent) == (first, second), s
        for W in (-1e-9, math.inf, math.nan):
            assert all(e.divergent for e in tail_sum_pair(1.5, W))
        assert not any(e.divergent for e in tail_sum_pair(-0.5, 1e-6))

    def test_direct_pair_sums_to_both_tolerances(self):
        # T(s - 1) needs a second chunk where T(s) needs one: the pair runs on
        s, W = -5.5, 0.0201
        a, b = tail_sum_pair(s, W)
        assert tail_sum(s, W).terms_used < a.terms_used == b.terms_used \
            == tail_sum(s - 1.0, W).terms_used
        assert a.tail_bound <= DEFAULT_TOL and b.tail_bound <= DEFAULT_TOL


@pytest.mark.parametrize("s", BOUND_S)
def test_tail_bounds_hold_against_mpmath(s):
    # |value - truth| <= tail_bound; only direct summation, whose bound is the
    # truncated tail alone, gets a rounding allowance of 8 eps |value|
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def truth(x, W):
        if W == 0.0:
            return mp.zeta(x) - 1
        return mp.exp(mp.mpf(W)) * mp.polylog(x, mp.exp(-mp.mpf(W))) - 1

    for W in BOUND_W:
        first, second = tail_sum_pair(s, W)
        for ev, x in ((tail_sum(s, W), mp.mpf(s)), (first, mp.mpf(s)),
                      (second, mp.mpf(s) - 1)):
            if ev.divergent:
                continue
            regime = _regime(s, W)
            allow = ev.tail_bound + (8 * EPS * abs(ev.value) if regime == "direct" else 0.0)
            err = abs(mp.mpf(ev.value) - truth(x, W))
            assert err <= allow, f"s={x} W={W} ({regime}): error {float(err):.3e} > {allow:.3e}"


@pytest.mark.parametrize("W", (1e-12, 1e-8, 1e-4, 0.0199, 0.0201, 0.5, math.log(2.0),
                               40.0, 700.0, 720.0))
def test_geometric_sums_within_rounding_bound(W, monkeypatch):
    # at s = 0 both sums are closed forms in g = 1/(e^W - 1): no pass, no
    # expansion, and |value - truth| <= tail_bound, a bound on rounding alone.
    # At W = 720 expm1 would overflow and g = e^-W is subnormal.
    # The truth is taken at 40 digits, where q (2 - q) / (1 - q)^2 loses at
    # most 12 of them (at W = 1e-12)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for name in ("_direct", "_polylog"):
        monkeypatch.setattr(series, name, lambda *a, name=name: pytest.fail(f"{name}{a}"))
    q = mp.exp(-mp.mpf(W))
    truth = (q / (1 - q), q * (2 - q) / (1 - q) ** 2)  # T(0, W), T(-1, W)
    first, second = tail_sum_pair(0.0, W)
    for ev, x in ((tail_sum(0.0, W), truth[0]), (first, truth[0]), (second, truth[1])):
        assert not ev.divergent and ev.terms_used == 0
        err = abs(mp.mpf(ev.value) - x)
        assert err <= ev.tail_bound, f"W={W}: error {float(err):.3e} > {ev.tail_bound:.3e}"
