import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflyshift import critical, spectral
from butterflyshift.critical import (
    critical_set,
    equilibrium_report,
    pressure_full,
    pressure_mid,
    pressure_sample,
    zeta_at_beta_lo,
)
from butterflyshift.model import ModelParams, REFERENCE, build_graph, wing_params, wing_pressure
from butterflyshift.oracle import abscissa_32, incidence_entropy, no_one_family
from butterflyshift.series import riemann_zeta, sigma3, tail_sum
from butterflyshift.spectral import (abscissa, composition, composition_boundary, lambda_1,
                                     lambda_32)

from conftest import NEAR_SWITCH_ABOVE, NEAR_SWITCH_BELOW, assert_close, clear_solve_memos
from reference_engines import gateaux_check

PARAMS_B = ModelParams(1.0, 0.5, 1.0, 1.0, 1, "B")
# well-separated transitions: the one-family subshift is large enough that the
# main transition detaches from the zeta pole (eps*beta_c - 1 is order one)
WIDE = ModelParams(1.0, 0.5, 1.0, 1.0, L=50)


class TestPressure34:
    def test_at_zero(self):
        assert_close(wing_pressure(REFERENCE, 0.0), math.log(2.0), 1e-15)

    def test_closed_form_instance(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0)
        assert_close(wing_pressure(p, 1.0), 0.5 + math.log(1.0 + math.e), 1e-14)

    def test_two_by_two_eigenvalue_oracle(self):
        # rows of the one-step weight matrix on {3,4} are identical, so the
        # top eigenvalue is e^(gamma*beta) + e^((gamma+delta)*beta)
        for beta in (0.0, 0.4, 1.3, 2.7):
            M = np.array([[math.exp(0.5 * beta), math.exp(1.5 * beta)],
                          [math.exp(0.5 * beta), math.exp(1.5 * beta)]])
            top = max(abs(np.linalg.eigvals(M)))
            assert_close(wing_pressure(REFERENCE, beta), math.log(top), 1e-12)

    def test_always_above_log2(self):
        for beta in np.linspace(0.0, 5.0, 23):
            assert wing_pressure(REFERENCE, float(beta)) >= math.log(2.0) - 1e-15

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            wing_pressure(REFERENCE, -0.1)


@pytest.mark.parametrize("fn", [pressure_full, pressure_mid, pressure_sample,
                                composition_boundary, abscissa, wing_pressure],
                         ids=lambda fn: fn.__name__)
def test_every_pressure_rejects_negative_beta(fn):
    # wing_pressure holds the one check; every other pressure goes through it
    with pytest.raises(ValueError, match="beta must be >= 0"):
        fn(REFERENCE, -0.1)


class TestBetaLo:
    def test_reference_value_brackets(self):
        b1 = critical_set(REFERENCE).beta_lo
        assert 1.0 < b1 < 1.05
        crit = critical_set(REFERENCE)
        assert abs(crit.residual_lo) < 1e-9

    def test_eps_beta_window_and_zeta(self):
        b1 = critical_set(REFERENCE).beta_lo
        eb = REFERENCE.epsilon * b1
        assert 1.0 < eb < 2.0
        assert riemann_zeta(eb) > 5.0

    def test_grid_scan_cross_check(self):
        # the defining map changes sign across the computed root on a fine grid
        b1 = critical_set(REFERENCE).beta_lo
        grid = np.linspace(1.0 + 1e-6, 1.1, 10_000)
        vals = [composition(REFERENCE, float(b), wing_pressure(REFERENCE, float(b)))[0] - 1.0
                for b in grid]
        crossings = [i for i in range(len(vals) - 1) if vals[i] > 0 >= vals[i + 1]]
        assert len(crossings) == 1
        lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
        assert lo <= b1 <= hi

    def test_independent_of_alpha_and_L(self):
        b1 = critical_set(REFERENCE).beta_lo
        assert_close(critical_set(ModelParams(3.7, 0.5, 1.0, 1.0, L=7)).beta_lo, b1, 1e-12)


class TestBetaHi:
    def test_order_and_residual(self):
        crit = critical_set(REFERENCE)
        assert crit.beta_lo < crit.beta_hi
        assert abs(crit.residual_hi) < 1e-9

    def test_root_within_ulps_of_beta_lo_has_finite_residual(self):
        # beta_hi lies an ulp or two above beta_lo, so beta_lo plus the
        # bracket midpoint rounds onto a beta where lambda_1 still diverges;
        # the upper bracket end is returned instead
        p = ModelParams(162.4003371438256, 0.07871000039241646, 1.1178542454390377,
                        4.0197516627129835, L=152, variant="B")
        crit = critical_set(p)
        assert crit.beta_hi > crit.beta_lo
        assert math.isfinite(crit.residual_hi) and crit.residual_hi <= 0.0
        assert crit.beta_hi == crit.bracket_hi[1]

    def test_lambda_equals_one(self):
        b_c = critical_set(WIDE).beta_hi
        lam = lambda_1(WIDE, b_c, wing_pressure(WIDE, b_c))
        assert lam.defined
        assert_close(lam.value, 1.0, 1e-9)

    def test_wide_config_value(self):
        # the Sigma1 pole at log L = alpha*beta + P34 pins the transition
        b_c = critical_set(WIDE).beta_hi
        u = WIDE.alpha * b_c + wing_pressure(WIDE, b_c)
        assert abs((WIDE.L + 1) * math.exp(-u) - 1.0) < 5e-3
        assert 1.4 < b_c < 1.6


class TestZtilde:
    def test_exists_below_absent_above(self):
        b1 = critical_set(REFERENCE).beta_lo
        assert composition_boundary(REFERENCE, 0.5) is not None
        assert composition_boundary(REFERENCE, b1) is None
        assert composition_boundary(REFERENCE, b1 + 0.3) is None

    def test_above_wing_pressure(self):
        zt = composition_boundary(REFERENCE, 0.4)
        assert zt > wing_pressure(REFERENCE, 0.4)

    def test_merges_at_transition(self):
        b1 = critical_set(REFERENCE).beta_lo
        zt = composition_boundary(REFERENCE, b1 - 1e-7)
        assert zt is not None
        assert zt - wing_pressure(REFERENCE, b1) < 1e-6

    def test_fine_grid_scan_cross_check(self):
        beta = 0.5
        zt = composition_boundary(REFERENCE, beta)
        z0 = wing_pressure(REFERENCE, beta)

        def comp(z):
            return tail_sum(beta, z).value * sigma3(REFERENCE, beta, z).value

        grid = np.linspace(z0 + 1e-4, z0 + 0.2, 4000)
        vals = [comp(float(z)) - 1.0 for z in grid]
        crossings = [i for i in range(len(vals) - 1) if vals[i] > 0 >= vals[i + 1]]
        assert len(crossings) == 1
        assert grid[crossings[0]] <= zt <= grid[crossings[0] + 1]

    def test_exists_at_small_beta(self):
        # at beta -> 0 the boundary approaches the no-1-family entropy
        zt = composition_boundary(REFERENCE, 0.01)
        assert zt is not None
        assert zt > wing_pressure(REFERENCE, 0.01) > math.log(2.0)
        assert abs(zt - math.log(1.0 + math.sqrt(2.0))) < 0.05


class TestPressureFull:
    def test_entropy_at_beta_zero(self):
        graph = build_graph(REFERENCE)
        h = incidence_entropy(graph)
        assert_close(pressure_full(REFERENCE, 0.0), h, 1e-8)

    def test_above_wing_pressure_below_transition(self):
        for beta in (0.0, 0.3, 0.7, 1.0, 1.3):
            gap = pressure_full(WIDE, beta) - wing_pressure(WIDE, beta)
            assert gap > 1e-6, f"beta={beta}"

    def test_sticks_to_wing_pressure_after(self):
        b_c = critical_set(REFERENCE).beta_hi
        for beta in (b_c, b_c + 0.2, b_c + 2.0):
            assert pressure_full(REFERENCE, beta) == wing_pressure(REFERENCE, beta)

    def test_continuity_at_transition(self):
        b_c = critical_set(WIDE).beta_hi
        assert abs(pressure_full(WIDE, b_c - 1e-6) - wing_pressure(WIDE, b_c)) < 1e-4

    def test_residual_at_root(self):
        for beta in (0.2, 0.6, 1.0):
            P = pressure_full(WIDE, beta)
            lam = lambda_1(WIDE, beta, P)
            assert lam.defined and abs(lam.value - 1.0) < 1e-9


def log_uniform_sets(seed, n):
    """n seeded draws, each in variant A and B: alpha, gamma and delta
    log-uniform on [1e-2, 1e2], eps log-uniform on [0.2, 20], L in 1..399."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        a, g, d = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=3))
        e = math.exp(rng.uniform(math.log(0.2), math.log(20.0)))
        L = int(rng.integers(1, 400))
        sets += [ModelParams(float(a), float(g), float(d), e, L, v) for v in "AB"]
    return sets


TRANSITION_SCAN = log_uniform_sets(17, 20) + [NEAR_SWITCH_ABOVE, NEAR_SWITCH_BELOW]


class TestNoUnreadTransition:
    """Results that do not read beta_lo or beta_hi solve neither."""

    def test_pressure_full_solves_none(self, transition_solves):
        for params in (REFERENCE, PARAMS_B, WIDE):
            for beta in (0.0, 0.5, 1.0, 1.5, 3.0):
                pressure_full(params, beta)
        assert transition_solves == {"critical_set": 0, "bisect_log_offset": 0}

    def test_equilibrium_report_solves_only_without_beta_star(self, transition_solves):
        for params in (REFERENCE, PARAMS_B):
            for which in ("at_beta_lo", "at_beta_hi"):
                equilibrium_report(params, which, beta_star=2.5)
        assert transition_solves == {"critical_set": 0, "bisect_log_offset": 0}
        # without beta_star the report reads a transition: one set, two roots
        equilibrium_report(REFERENCE, "at_beta_hi")
        assert transition_solves == {"critical_set": 1, "bisect_log_offset": 2}

    def test_lambda_1_at_0_6_tells_beta_hi_above_0_6(self):
        # the oracle table's probe-beta switch
        assert 0.0 < critical_set(NEAR_SWITCH_ABOVE).beta_hi - 0.6 < 1e-9
        assert 0.0 < 0.6 - critical_set(NEAR_SWITCH_BELOW).beta_hi < 1e-9
        for p in TRANSITION_SCAN:
            above = lambda_1(p, 0.6, wing_pressure(p, 0.6)).value > 1.0
            assert above == (critical_set(p).beta_hi > 0.6), p

    def test_pressure_full_is_p34_from_beta_hi_on(self):
        for p in TRANSITION_SCAN:
            b_hi = critical_set(p).beta_hi
            for beta in (b_hi * (1.0 + 1e-9), 1.2 * b_hi):
                assert pressure_full(p, beta) == wing_pressure(p, beta), (p, beta)
            # where lambda_[1](beta_hi, P34) still reads a hair above 1 (the
            # bisection's residual_hi > 0), its root lies an ulp or so above P34
            p34 = wing_pressure(p, b_hi)
            assert 0.0 <= pressure_full(p, b_hi) - p34 <= 1e-15 * p34, p


class TestPressureMid:
    def test_entropy_at_beta_zero(self):
        graph = build_graph(REFERENCE)
        h = incidence_entropy(graph, restrict_to=no_one_family(graph))
        assert_close(pressure_mid(REFERENCE, 0.0), h, 1e-8)
        assert_close(h, math.log(1.0 + math.sqrt(2.0)), 1e-10)

    def test_above_wing_pressure_below_lo(self):
        for beta in (0.0, 0.2, 0.5, 0.7):
            assert pressure_mid(REFERENCE, beta) > wing_pressure(REFERENCE, beta)

    def test_continuity_at_beta_lo(self):
        b1 = critical_set(REFERENCE).beta_lo
        left = pressure_mid(REFERENCE, b1 - 1e-8)
        right = pressure_mid(REFERENCE, b1)
        assert abs(left - right) < 1e-6
        assert right == wing_pressure(REFERENCE, b1)


class TestSandwichAndSamples:
    def test_sandwich_on_grid(self):
        for beta in np.arange(0.0, 1.4, 0.05):
            s = pressure_sample(REFERENCE, float(beta))
            assert s.p_full >= s.p_mid - 1e-10
            assert s.p_mid >= s.p34 - 1e-10

    def test_sample_solves_each_root_once(self, newton_solves):
        # the sample's own Z~_c is the pressure solve's floor Z_c
        for params in (REFERENCE, PARAMS_B):
            for beta in (0.5, 0.9):
                s = pressure_sample(params, beta)
                assert newton_solves == {"spectral": [wing_pressure(params, beta)],
                                         "critical": [s.ztilde]}
                assert s.p_full == pressure_full(params, beta)
                newton_solves["spectral"].clear()
                newton_solves["critical"].clear()

    def test_regimes(self):
        crit = critical_set(WIDE)
        assert pressure_sample(WIDE, 0.5).regime == "below_lo"
        assert pressure_sample(WIDE, (crit.beta_lo + crit.beta_hi) / 2).regime == "between"
        assert pressure_sample(WIDE, crit.beta_hi + 0.1).regime == "above_hi"

    def test_convexity_coarse(self):
        crit = critical_set(WIDE)
        grid = np.arange(0.0, crit.beta_hi - 0.05, 0.02)
        ps = [pressure_full(WIDE, float(b)) for b in grid]
        second = [ps[i - 1] - 2 * ps[i] + ps[i + 1] for i in range(1, len(ps) - 1)]
        assert min(second) > 0.0

    def test_kink_detector_localizes_transition(self):
        # P is C^2-smooth on either side of beta_hi; the jump in the second
        # difference localizes the unique breakpoint within grid resolution
        crit = critical_set(WIDE)
        h = 0.01
        grid = np.arange(max(0.0, crit.beta_hi - 0.5), crit.beta_hi + 0.5, h)
        ps = [pressure_full(WIDE, float(b)) for b in grid]
        second = np.array([ps[i - 1] - 2 * ps[i] + ps[i + 1]
                           for i in range(1, len(ps) - 1)])
        jumps = np.abs(np.diff(second))
        kink_at = float(grid[1 + int(np.argmax(jumps))])
        assert abs(kink_at - crit.beta_hi) <= 2 * h


class TestEquilibria:
    def test_variant_a_small_transition_unique(self):
        rep = equilibrium_report(REFERENCE, "at_beta_lo")
        assert rep.count_lower_bound == 1
        assert not rep.weight_on_cylinder
        assert not rep.return_time_derivative_finite
        assert 1.0 < rep.eps_beta < 2.0

    def test_large_delta_drives_eps_beta_down(self):
        p = ModelParams(1.0, 0.5, 20.0, 1.0, L=1)
        rep = equilibrium_report(p, "at_beta_hi")
        assert rep.eps_beta < 2.0
        assert not rep.weight_on_cylinder

    def test_large_L_realizes_two_states(self):
        # the mechanism: a large one-family subshift pushes the transition up;
        # L = 250 puts eps*beta_c above 2 at the otherwise-reference set
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=250)
        rep = equilibrium_report(p, "at_beta_hi")
        assert rep.eps_beta > 2.0
        assert rep.count_lower_bound == 2
        assert rep.weight_on_cylinder

    def test_weight_implies_finite(self):
        for p in (REFERENCE, WIDE, PARAMS_B, ModelParams(1.0, 0.5, 1.0, 3.0, L=50)):
            for which in ("at_beta_lo", "at_beta_hi"):
                rep = equilibrium_report(p, which)
                assert (not rep.weight_on_cylinder) or rep.return_time_derivative_finite

    def test_variant_b_two_states(self):
        hi = equilibrium_report(PARAMS_B, "at_beta_hi")
        lo = equilibrium_report(PARAMS_B, "at_beta_lo")
        assert hi.count_lower_bound == 2 and lo.count_lower_bound == 2
        # at beta_2 the return time has infinite expectation, yet the two
        # mirrored wing equilibria remain
        assert not lo.return_time_derivative_finite

    def test_verdict_matches_composition_slope(self):
        # the report reads eps*beta > 2; the numeric path it replaced is the
        # finiteness of the composition's Z-slope at the wing pressure floor
        for variant in ("A", "B"):
            for eps in (0.7, 1.0, 1.9, 2.5, 3.5):
                p = ModelParams(1.0, 0.5, 1.0, eps, 1, variant)
                b2 = 2.0 / eps
                betas = [0.0, b2, math.nextafter(b2, 0.0), math.nextafter(b2, math.inf),
                         *np.linspace(0.4 * b2, 1.6 * b2, 25)]
                for beta in map(float, betas):
                    slope = composition(p, beta, wing_pressure(p, beta), slope=True)[1]
                    verdict = equilibrium_report(p, "at_beta_hi", beta)
                    assert (math.isfinite(slope) == (eps * beta > 2.0)
                            == verdict.return_time_derivative_finite), (variant, eps, beta)

    def test_rejects_bad_beta_star(self):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="beta_star"):
                equilibrium_report(REFERENCE, "at_beta_lo", bad)

    def test_zeta_at_beta_lo(self):
        assert zeta_at_beta_lo(REFERENCE) > 5.0


class TestRandomizedBetaLoBounds:
    def test_thirty_random_sets(self):
        rng = np.random.default_rng(12345)
        for _ in range(30):
            a, g, d, e = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=4))
            L = int(rng.integers(1, 21))
            p = ModelParams(float(a), float(g), float(d), float(e), L=L)
            b1 = critical_set(p).beta_lo
            eb = p.epsilon * b1
            assert 1.0 < eb < 2.0, p
            assert riemann_zeta(eb) > 5.0, p


class TestGateaux:
    def test_requires_variant_b_above_transition(self):
        with pytest.raises(ValueError):
            gateaux_check(REFERENCE, 2.0, [-1e-4, 1e-4])
        with pytest.raises(ValueError):
            gateaux_check(PARAMS_B, 0.1, [-1e-4, 1e-4])
        with pytest.raises(ValueError):
            gateaux_check(PARAMS_B, 2.0, [1e-4, 1e-3])  # one-sided t grid

    def test_symmetric_direction_differentiable(self):
        beta = critical_set(PARAMS_B).beta_hi + 0.5
        rep = gateaux_check(PARAMS_B, beta, [-1e-4, -1e-5, 1e-5, 1e-4])
        left, right = rep.symmetric_slopes
        assert_close(left, right, 1e-8)
        assert_close(right, beta, 1e-6)

    def test_asymmetric_direction_kinks(self):
        beta = critical_set(PARAMS_B).beta_hi + 0.5
        rep = gateaux_check(PARAMS_B, beta, [-1e-4, -1e-5, 1e-5, 1e-4])
        left, right = rep.asymmetric_slopes
        assert_close(right - left, beta, 1e-6)
        assert_close(left, 0.0, 1e-9)

    def test_zero_excluded(self):
        beta = critical_set(PARAMS_B).beta_hi + 0.5
        rep = gateaux_check(PARAMS_B, beta, [-1e-4, 0.0, 1e-4])
        assert 0.0 not in rep.t_values


class TestVariantB:
    def test_transitions_exist_and_ordered(self):
        crit = critical_set(PARAMS_B)
        assert crit.beta_lo < crit.beta_hi
        assert abs(crit.residual_lo) < 1e-9
        assert abs(crit.residual_hi) < 1e-9

    def test_beta2_below_beta1_counterpart(self):
        # the doubled wing reaches the 1/2 threshold later in Z but earlier in
        # beta than the single wing reaches 1... the defining map is larger,
        # so the root moves up: beta_2 > beta_1 for the same numbers
        assert critical_set(PARAMS_B).beta_lo > critical_set(REFERENCE).beta_lo

    def test_entropy_match_at_zero(self):
        graph = build_graph(PARAMS_B)
        assert_close(pressure_full(PARAMS_B, 0.0), incidence_entropy(graph), 1e-8)
        h_mid = incidence_entropy(graph, restrict_to=no_one_family(graph))
        assert_close(pressure_mid(PARAMS_B, 0.0), h_mid, 1e-8)
        assert_close(h_mid, math.log(1.0 + math.sqrt(3.0)), 1e-10)


def _hex(*values):
    """Each float as float.hex, each None as None, tuples flattened."""
    flat = []
    for v in values:
        flat.extend(v if isinstance(v, tuple) else (v,))
    return [None if v is None else float.hex(v) for v in flat]


def _wing_quantities(params, beta):
    """Everything memoized per wing parameter set, each solved cold on `params`."""
    clear_solve_memos()
    z0 = wing_pressure(params, beta)
    crit = critical_set(params)
    z32 = abscissa_32(params, beta)
    lam = lambda_32(params, beta, z32 + 0.2)
    return _hex(*(composition(params, beta, z, slope=True) for z in (z0, z0 + 0.1, z0 + 1.0)),
                composition_boundary(params, beta), pressure_mid(params, beta), z32,
                lam.value, crit.beta_lo, crit.residual_lo, crit.bracket_lo)


_log_uniform = st.floats(math.log(1e-2), math.log(1e2)).map(math.exp)


class TestWingMemoKey:
    """The wing-only solves read neither alpha nor L, so memoizing them per
    `wing_params` hands every set the bits its own solve would give."""

    @given(alpha=_log_uniform, gamma=_log_uniform, delta=_log_uniform,
           epsilon=st.floats(math.log(0.2), math.log(20.0)).map(math.exp),
           L=st.integers(1, 400), variant=st.sampled_from("AB"), beta=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_alpha_and_L_unread(self, alpha, gamma, delta, epsilon, L, variant, beta):
        params = ModelParams(alpha, gamma, delta, epsilon, L, variant)
        wing = wing_params(params)
        assert wing == replace(params, alpha=1.0, L=1)
        assert _wing_quantities(params, beta) == _wing_quantities(wing, beta)
        # the memoized solves themselves, run on the full set past their memos
        solve_boundary = spectral._floor_and_boundary.__wrapped__
        assert (_hex(*solve_boundary(params, beta, 1.0))
                == _hex(*solve_boundary(wing, beta, 1.0)))
        solve_lo = critical._small_transition.__wrapped__
        lo, lo_wing = solve_lo(params), solve_lo(wing)
        assert (_hex(lo.offset, lo.residual, lo.bracket)
                == _hex(lo_wing.offset, lo_wing.residual, lo_wing.bracket))
