import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflyshift import critical, spectral
from butterflyshift.critical import beta_hi, critical_set, pressure_34, pressure_full, pressure_mid
from butterflyshift.model import ModelParams, REFERENCE, wing_pressure
from butterflyshift.roots import OFFSET_FLOOR, bisect_log_offset, newton_log_offset
from butterflyshift.spectral import (
    composition_boundary,
    composition_dZ,
    composition_value_at_floor,
    lambda_1,
    lambda_1_dZ,
)
from butterflyshift.series import dsigma_dZ, sigma2, sigma3

PARAMS_B = ModelParams(1.0, 0.5, 1.0, 1.0, 1, "B")
REFERENCE_GRID = [round(0.01 * k, 12) for k in range(121)]


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


def bisected_composition_boundary(params, beta):
    if composition_value_at_floor(params, beta) <= 1.0 + 1e-11:
        return None
    z0 = wing_pressure(params, beta)

    m = 2 if params.variant == "B" else 1

    def f(w):
        s2, s3 = sigma2(params, beta, z0 + w), sigma3(params, beta, z0 + w)
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
        assert P - pressure_34(p, beta) < 1e-14
        above = spectral.lambda_1(p, beta, P * (1.0 - 1e-10))
        below = spectral.lambda_1(p, beta, P * (1.0 + 1e-10))
        assert not above.defined or above.value > 1.0
        assert below.defined and below.value < 1.0


class TestDerivatives:
    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_slopes_match_dsigma_and_differences(self, params):
        for beta, w in ((0.3, 0.2), (0.8, 0.05), (1.5, 0.4)):
            z = pressure_34(params, beta) + w
            value, slope = composition_dZ(params, beta, z)
            s2, s3 = sigma2(params, beta, z), sigma3(params, beta, z)
            d2, d3 = dsigma_dZ("S2", params, beta, z), dsigma_dZ("S3", params, beta, z)
            m = 2 if params.variant == "B" else 1
            assert value == m * s2.value * s3.value
            assert abs(slope - m * (d2.value * s3.value + s2.value * d3.value)) <= 1e-12 * abs(slope)
            lam, lam_slope = lambda_1_dZ(params, beta, z)
            ref = lambda_1(params, beta, z)
            if not ref.defined:
                assert lam == math.inf
                continue
            assert lam == ref.value
            h = 1e-6
            fd = (lambda_1(params, beta, z + h).value - lambda_1(params, beta, z - h).value) / (2 * h)
            assert abs(lam_slope - fd) <= 1e-6 * abs(fd)

    def test_undefined_is_infinite(self):
        # far below the pressure floor everything wing-related diverges
        assert lambda_1_dZ(REFERENCE, 0.5, 0.2)[0] == math.inf
        assert composition_dZ(REFERENCE, 0.5, 0.2)[0] == math.inf


class TestAgreesWithBisection:
    """The Newton solves land within 1e-13 of the bisection on the same maps."""

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_reference_grid(self, params):
        for beta in REFERENCE_GRID:
            assert abs(pressure_full(params, beta) - bisected_pressure_full(params, beta)) <= 1e-13
            zt, zt_ref = composition_boundary(params, beta), bisected_composition_boundary(params, beta)
            assert (zt is None) == (zt_ref is None), beta
            if zt is not None:
                assert abs(zt - zt_ref) <= 1e-13, beta

    def test_criterion_7_sets(self):
        # every eighth point of each set's grid, and the grid's last point
        for params in _criterion_7_sets():
            grid = np.arange(0.0, beta_hi(params) - 0.05 + 1e-12, 0.01)
            for beta in [float(b) for b in grid[::8]] + [float(grid[-1])]:
                assert abs(pressure_full(params, beta)
                           - bisected_pressure_full(params, beta)) <= 1e-13, (params, beta)
                zt = composition_boundary(params, beta)
                zt_ref = bisected_composition_boundary(params, beta)
                assert (zt is None) == (zt_ref is None), (params, beta)
                if zt is not None:
                    assert abs(zt - zt_ref) <= 1e-13, (params, beta)


class TestEvaluationCount:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Map evaluations of every Newton solve, counted through a wrapper."""
        seen = []

        def counted_solver(F, floor):
            calls = [0]

            def counted(z):
                calls[0] += 1
                return F(z)

            result = newton_log_offset(counted, floor)
            seen.append(calls[0])
            return result

        monkeypatch.setattr(critical, "newton_log_offset", counted_solver)
        monkeypatch.setattr(spectral, "newton_log_offset", counted_solver)
        return seen

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_reference_grid_ceiling(self, params, counts):
        for beta in REFERENCE_GRID:
            pressure_full(params, beta)
            pressure_mid(params, beta)
        assert counts and max(counts) <= 24
        assert sum(counts) <= 12 * len(counts)


_log_uniform = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


@given(alpha=_log_uniform, gamma=_log_uniform, delta=_log_uniform,
       epsilon=st.floats(math.log(0.1), math.log(50.0)).map(math.exp),
       L=st.integers(1, 400), variant=st.sampled_from("AB"),
       frac=st.floats(0.0, 1.2))
@settings(max_examples=60, deadline=None)
def test_pressures_ordered_on_log_uniform_sets(alpha, gamma, delta, epsilon, L, variant, frac):
    params = ModelParams(alpha, gamma, delta, epsilon, L, variant)
    beta = frac * beta_hi(params)
    p_full, p_mid, p34 = pressure_full(params, beta), pressure_mid(params, beta), pressure_34(params, beta)
    assert not any(math.isnan(p) for p in (p_full, p_mid, p34))
    assert p_full >= p_mid >= p34
