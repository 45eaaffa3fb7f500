import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflyshift import critical, spectral
from butterflyshift.critical import (
    critical_set,
    pressure_curve,
    pressure_full,
    pressure_mid,
    pressure_sample,
)
from butterflyshift.model import ModelParams, REFERENCE, wing_pressure
from butterflyshift.roots import OFFSET_FLOOR, bisect_log_offset, newton_log_offset
from butterflyshift.spectral import composition, composition_boundary, lambda_1
from butterflyshift.series import sigma3, tail_sum, wing_sums

from conftest import clear_solve_memos

PARAMS_B = ModelParams(1.0, 0.5, 1.0, 1.0, 1, "B")
REFERENCE_GRID = [round(0.01 * k, 12) for k in range(121)]
# a log-uniform draw where P lies within an ulp of the composition boundary
# from beta ~ 1.55 up to beta_lo ~ 1.8154; solved from P34 the pressure took
# up to 61 evaluations here
NEAR_BOUNDARY = ModelParams(213.16, 0.02266, 0.005589, 0.6001, 321, "B")
NEAR_BOUNDARY_GRID = [round(0.01 * k, 12) for k in range(182)]


def below_beta_lo(params):
    """30 betas approaching beta_lo from below, at offsets 1e-2 down to 1e-9."""
    b_lo = critical_set(params).beta_lo
    return [b_lo - 10.0 ** -x for x in np.linspace(2.0, 9.0, 30)]


def _criterion_7_sets():
    """The eleven parameter sets of acceptance criterion 7 (same generator)."""
    rng = np.random.default_rng(7)
    configs = [REFERENCE]
    while len(configs) < 11:
        a, g, d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=3))
        e = float(np.exp(rng.uniform(np.log(1.0), np.log(10.0))))
        configs.append(ModelParams(float(a), float(g), float(d), e, L=int(rng.integers(1, 21))))
    return configs


# the bisection route the Newton solves replaced, on the same maps

def bisected_pressure_full(params, beta):
    if beta >= critical_set(params).beta_hi:
        return wing_pressure(params, beta)
    z0 = max(wing_pressure(params, beta), math.log(params.L) - params.alpha * beta)

    def f(w):
        lam = lambda_1(params, beta, z0 + w)
        return (lam.value if lam.defined else math.inf) - 1.0

    return z0 + bisect_log_offset(f).offset


def pressure_full_from_p34(params, beta):
    """The Newton solve from max(P34, log L - alpha*beta), below Z~_c."""
    z0 = max(wing_pressure(params, beta), math.log(params.L) - params.alpha * beta)

    def F(z):
        lam = lambda_1(params, beta, z, slope=True)
        return lam.value, lam.slope

    return z0 + newton_log_offset(F, z0).offset


def assert_pressure_agrees(params, beta):
    """pressure_full within 1e-13 of the bisection and 2 ulp of the solve
    from P34, and never below the composition boundary."""
    p = pressure_full(params, beta)
    assert abs(p - bisected_pressure_full(params, beta)) <= 1e-13, (params, beta)
    assert abs(p - pressure_full_from_p34(params, beta)) <= 2 * math.ulp(p), (params, beta)
    zt = composition_boundary(params, beta)
    assert zt is None or p >= zt, (params, beta)


def bisected_composition_boundary(params, beta):
    if composition(params, beta, wing_pressure(params, beta))[0] <= 1.0 + 1e-11:
        return None
    z0 = wing_pressure(params, beta)

    m = 2 if params.variant == "B" else 1

    def f(w):
        s2, s3 = tail_sum(beta, z0 + w), sigma3(params, beta, z0 + w)
        if s2.divergent or s3.divergent:
            return math.inf
        return m * s2.value * s3.value - 1.0

    return z0 + bisect_log_offset(f).offset


class TestNaN:
    @staticmethod
    def nan_inside(w):
        return math.nan if 1e-3 < w < 1e-1 else 0.01 / w - 1.0

    def test_bisection_raises(self):
        with pytest.raises(ArithmeticError, match="NaN"):
            bisect_log_offset(self.nan_inside)

    def test_bisection_raises_at_floor(self):
        with pytest.raises(ArithmeticError, match="NaN"):
            bisect_log_offset(lambda w: math.nan)

    def test_newton_raises(self):
        def F(z):
            return (math.inf if z == 2.0 else self.nan_inside(z - 2.0) + 1.0), -1.0

        with pytest.raises(ArithmeticError, match="NaN"):
            newton_log_offset(F, 2.0)

    def test_nan_slope_only_bisects(self):
        r = newton_log_offset(lambda z: (math.exp(-(z - 2.5)), math.nan), 2.0)
        assert abs(2.0 + r.offset - 2.5) <= 4e-16


class TestNewtonLogOffset:
    def test_exponential_root(self):
        # F = e^(-k (Z - c)): the root is c for every decay rate k
        for k in (1e-3, 0.7, 40.0):
            for c in (0.75, 1.3, 5.0):
                r = newton_log_offset(lambda z: (math.exp(-k * (z - c)),
                                                 -k * math.exp(-k * (z - c))), 0.5)
                # F rounds to 1 within 1.2e-16/k of c: no map can place it closer
                assert abs(0.5 + r.offset - c) <= 2 * math.ulp(c) + 1.2e-16 / k, (k, c)
                assert r.bracket[0] <= r.offset <= r.bracket[1]

    def test_root_a_sub_ulp_offset_above_floor(self):
        # the offset is below one ulp of the floor: the root is the next double
        floor = 1.25
        r = newton_log_offset(lambda z: (math.inf, math.nan) if z == floor else (0.5, -1.0),
                              floor)
        assert floor + r.offset == math.nextafter(floor, 2.0)
        assert r.residual == -0.5

    def test_floor_already_below_one(self):
        r = newton_log_offset(lambda z: (0.5, -1.0), 1.0)
        assert r.offset == OFFSET_FLOOR and r.residual == -0.5

    def test_infinite_left_of_a_pole(self):
        # F = +inf up to a pole at p, then a power law dropping through 1 at p + 0.01
        p = 1.0 + 3e-9

        def F(z):
            if z <= p:
                return math.inf, math.nan
            return (0.01 / (z - p)) ** 1.5, -1.5 * (0.01 / (z - p)) ** 1.5 / (z - p)

        r = newton_log_offset(F, 1.0)
        assert abs(1.0 + r.offset - (p + 0.01)) <= 2 * math.ulp(p + 0.01)

    def test_expands_past_first_upper_end(self):
        r = newton_log_offset(lambda z: (math.exp(-(z - 200.0)), -math.exp(-(z - 200.0))),
                              0.0)
        assert abs(r.offset - 200.0) <= 2 * math.ulp(200.0)
        assert r.bracket[1] > 1.0

    def test_any_start_brackets_the_root(self):
        # the first upper end may lie below the root (grown by 4x), just above
        # it, or far above it: each ends in the same bracketed root
        def F(z):
            return math.exp(-3.0 * (z - 0.8)), -3.0 * math.exp(-3.0 * (z - 0.8))

        for start in (1e-12, 1e-6, 0.3 * 1.02, 1.0, 1e6):
            r = newton_log_offset(F, 0.5, start=start)
            assert abs(0.5 + r.offset - 0.8) <= 2 * math.ulp(0.8) + 1.2e-16 / 3.0, start
            assert r.bracket[0] <= r.offset <= r.bracket[1]

    def test_start_outside_the_bracket_range_raises(self):
        for start in (0.0, -1.0, math.nan, math.inf, 2e9):
            with pytest.raises(ValueError, match="start"):
                newton_log_offset(lambda z: (math.exp(-z), -math.exp(-z)), 0.0, start=start)

    def test_no_sign_change_raises(self):
        with pytest.raises(ArithmeticError, match="bracket cap"):
            newton_log_offset(lambda z: (2.0, 0.0), 0.0)

    def test_stalled_step_returns_its_own_point(self):
        # the root sits a few ulps above P34, where lambda_1 falls from +inf
        # steeply; the last Newton step from the lower end rounds onto the
        # same Z, and that point, not the far upper end (w = 0.0342, residual
        # -0.919), is the pressure
        p = ModelParams(0.9858710416781561, 0.4921512295616759, 1.0004853161882896,
                        1.0035326687476418, 1, "A")
        beta = 0.932906843559
        P = pressure_full(p, beta)
        assert P - wing_pressure(p, beta) < 1e-14
        above = spectral.lambda_1(p, beta, P * (1.0 - 1e-10))
        below = spectral.lambda_1(p, beta, P * (1.0 + 1e-10))
        assert not above.defined or above.value > 1.0
        assert below.defined and below.value < 1.0


class TestDerivatives:
    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_slopes_match_dsigma_and_differences(self, params):
        for beta, w in ((0.3, 0.2), (0.8, 0.05), (1.5, 0.4)):
            z = wing_pressure(params, beta) + w
            value, slope = composition(params, beta, z, slope=True)
            s2, s3 = tail_sum(beta, z), sigma3(params, beta, z)
            d2, d3 = (e.slope for e in wing_sums(params, beta, z, slope=True))
            m = 2 if params.variant == "B" else 1
            assert value == m * s2.value * s3.value
            assert abs(slope - m * (d2 * s3.value + s2.value * d3)) <= 1e-12 * abs(slope)
            lam = lambda_1(params, beta, z, slope=True)
            ref = lambda_1(params, beta, z)
            if not ref.defined:
                assert not lam.defined and math.isnan(lam.slope)
                continue
            assert lam.value == ref.value and math.isnan(ref.slope)
            h = 1e-6
            fd = (lambda_1(params, beta, z + h).value - lambda_1(params, beta, z - h).value) / (2 * h)
            assert abs(lam.slope - fd) <= 1e-6 * abs(fd)

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    @pytest.mark.parametrize("w", [1e-3, 0.019, 0.021], ids=["polylog", "below_seam", "above_seam"])
    def test_slopes_across_series_regimes(self, params, w):
        # W = Z - P34 = 1e-3 puts Sigma3 in the polylog expansion, and 0.019 and
        # 0.021 on either side of its seam with direct summation at W = 0.02;
        # the steps keep Z +- h inside one regime
        beta = 1.5
        z = wing_pressure(params, beta) + w
        h = 1e-6

        def central(f):
            return (f(z + h) - f(z - h)) / (2 * h)

        lam = lambda_1(params, beta, z, slope=True)
        assert lam.defined
        fd = central(lambda x: lambda_1(params, beta, x).value)
        assert abs(lam.slope - fd) <= 1e-6 * abs(fd)
        slope = composition(params, beta, z, slope=True)[1]
        fd = central(lambda x: composition(params, beta, x)[0])
        assert abs(slope - fd) <= 1e-6 * abs(fd)

    def test_undefined_is_infinite(self, monkeypatch):
        # far below the pressure floor everything wing-related diverges; the
        # Newton solves must see +inf there, which counts as above the root
        seen = []

        def spy(F, floor, start=1.0):
            seen.append(F(0.2))
            return newton_log_offset(F, floor, start=start)

        clear_solve_memos()
        monkeypatch.setattr(critical, "newton_log_offset", spy)
        monkeypatch.setattr(spectral, "newton_log_offset", spy)
        pressure_full(REFERENCE, 0.5)
        composition_boundary(REFERENCE, 0.5)
        # pressure_full solves the composition boundary first, and the memo
        # hands it to composition_boundary: two solves, not three
        assert len(seen) == 2
        assert all(value == math.inf for value, _ in seen)


class TestAgreesWithBisection:
    """The Newton solves land within 1e-13 of the bisection on the same maps."""

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_reference_grid(self, params):
        for beta in REFERENCE_GRID:
            assert_pressure_agrees(params, beta)
            zt, zt_ref = composition_boundary(params, beta), bisected_composition_boundary(params, beta)
            assert (zt is None) == (zt_ref is None), beta
            if zt is not None:
                assert abs(zt - zt_ref) <= 1e-13, beta

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B, NEAR_BOUNDARY],
                             ids=["A", "B", "near_boundary"])
    def test_approaching_beta_lo(self, params):
        # P nears Z~_c from above as beta nears beta_lo, where both meet P34
        for beta in below_beta_lo(params):
            assert_pressure_agrees(params, beta)

    def test_near_boundary_grid(self):
        # every fourth point, and every point from 1.5 on, where P is Z~_c to
        # the ulp: there the solver's floor rule answers at Z_c = Z~_c
        near = [b for b in NEAR_BOUNDARY_GRID if 1.5 <= b]
        for beta in NEAR_BOUNDARY_GRID[::4] + near:
            assert_pressure_agrees(NEAR_BOUNDARY, beta)
        assert pressure_full(NEAR_BOUNDARY, 1.55) == composition_boundary(NEAR_BOUNDARY, 1.55)

    def test_criterion_7_sets(self):
        # every eighth point of each set's grid, and the grid's last point
        for params in _criterion_7_sets():
            grid = np.arange(0.0, critical_set(params).beta_hi - 0.05 + 1e-12, 0.01)
            for beta in [float(b) for b in grid[::8]] + [float(grid[-1])]:
                assert abs(pressure_full(params, beta)
                           - bisected_pressure_full(params, beta)) <= 1e-13, (params, beta)
                zt = composition_boundary(params, beta)
                zt_ref = bisected_composition_boundary(params, beta)
                assert (zt is None) == (zt_ref is None), (params, beta)
                if zt is not None:
                    assert abs(zt - zt_ref) <= 1e-13, (params, beta)


class TestWarmStart:
    """The warm-started grid lands within 1e-13 of the cold solves, point by point."""

    @pytest.mark.parametrize("params,grid", [
        (REFERENCE, REFERENCE_GRID), (PARAMS_B, REFERENCE_GRID),
        (NEAR_BOUNDARY, NEAR_BOUNDARY_GRID), *[(p, None) for p in _criterion_7_sets()]],
        ids=["A", "B", "near_boundary", *[f"criterion_7_{i}" for i in range(11)]])
    def test_agrees_with_cold_solves(self, params, grid):
        if grid is None:  # a criterion 7 set: on to 20 % past beta_hi
            grid = [round(0.01 * k, 12) for k in range(int(120 * critical_set(params).beta_hi) + 1)]
        clear_solve_memos()
        warm = pressure_curve(params, grid)
        clear_solve_memos()
        cold = [pressure_sample(params, beta) for beta in grid]
        assert [s.beta for s in warm] == grid
        for w, c in zip(warm, cold):
            assert w.regime == c.regime and w.p34 == c.p34, w.beta
            assert (w.ztilde is None) == (c.ztilde is None), w.beta
            if c.ztilde is not None:
                assert abs(w.ztilde - c.ztilde) <= 1e-13, w.beta
            assert abs(w.p_full - c.p_full) <= 1e-13, w.beta
            assert abs(w.p_mid - c.p_mid) <= 1e-13, w.beta


class TestEvaluationCount:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Map evaluations of every Newton solve, counted through a wrapper,
        by module: "spectral" solves composition boundaries and "critical"
        pressures.  Every solve memo starts empty."""
        seen = {"spectral": [], "critical": []}
        clear_solve_memos()
        for name, module in (("spectral", spectral), ("critical", critical)):
            def counted_solver(F, floor, start=1.0, solves=seen[name]):
                calls = [0]

                def counted(z):
                    calls[0] += 1
                    return F(z)

                result = newton_log_offset(counted, floor, start=start)
                solves.append(calls[0])
                return result

            monkeypatch.setattr(module, "newton_log_offset", counted_solver)
        return seen

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_reference_grid_ceiling(self, params, counts):
        for beta in REFERENCE_GRID:
            pressure_full(params, beta)
            pressure_mid(params, beta)
        # measured: at most 10 and a mean of 7.5 (A) and 7.7 (B) per solve
        solves = counts["spectral"] + counts["critical"]
        assert solves and max(solves) <= 12
        assert sum(solves) <= 9 * len(solves)

    def test_near_boundary_ceiling(self, counts):
        # solved from P34 instead of Z_c, the pressure took up to 61 here
        for beta in NEAR_BOUNDARY_GRID + below_beta_lo(NEAR_BOUNDARY):
            pressure_full(NEAR_BOUNDARY, beta)
            pressure_mid(NEAR_BOUNDARY, beta)
        solves = counts["spectral"] + counts["critical"]
        assert solves and max(solves) <= 13
        assert sum(solves) <= 9 * len(solves)

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_warm_started_grid(self, params, counts):
        # measured: means of 5.11 (A) and 5.23 (B) per pressure solve and
        # 4.93 (A) and 5.22 (B) per boundary solve, at most 8; cold, each
        # mean is about 8
        pressure_curve(params, REFERENCE_GRID)
        for solves in counts.values():
            assert solves and max(solves) <= 12
            assert sum(solves) <= 5.5 * len(solves)


_log_uniform = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


@given(alpha=_log_uniform, gamma=_log_uniform, delta=_log_uniform,
       epsilon=st.floats(math.log(0.1), math.log(50.0)).map(math.exp),
       L=st.integers(1, 400), variant=st.sampled_from("AB"),
       frac=st.floats(0.0, 1.2))
@settings(max_examples=60, deadline=None)
def test_pressures_ordered_on_log_uniform_sets(alpha, gamma, delta, epsilon, L, variant, frac):
    params = ModelParams(alpha, gamma, delta, epsilon, L, variant)
    crit = critical_set(params)
    # the residuals are not asserted: where eps*beta_lo - 1 falls below double
    # resolution, both roots land on 1/eps with residuals near -1, a known defect
    assert not any(math.isnan(x) for x in (crit.beta_lo, crit.beta_hi, *crit.bracket_lo,
                                           *crit.bracket_hi))
    assert epsilon * crit.beta_lo >= 1.0
    assert crit.beta_lo <= crit.beta_hi
    assert crit.bracket_lo[0] <= crit.beta_lo <= crit.bracket_lo[1]
    assert crit.bracket_hi[0] <= crit.beta_hi <= crit.bracket_hi[1]
    beta = frac * crit.beta_hi
    p_full, p_mid, p34 = pressure_full(params, beta), pressure_mid(params, beta), wing_pressure(params, beta)
    assert not any(math.isnan(p) for p in (p_full, p_mid, p34))
    assert p_full >= p_mid >= p34
    ztilde = composition_boundary(params, beta)
    assert ztilde is None or p_full >= ztilde
