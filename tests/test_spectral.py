import importlib
import math
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import butterflyshift
from butterflyshift import series
from butterflyshift.critical import critical_set, pressure_mid
from butterflyshift.model import ModelParams, REFERENCE, wing_pressure
from butterflyshift.series import sigma3, tail_sum
from butterflyshift.spectral import (
    GEOMETRIC_ONE_FAMILY,
    PRESSURE_FLOOR,
    WING_COMPOSITION,
    abscissa,
    composition,
    composition_boundary,
    lambda_1,
    lambda_32,
)

from conftest import assert_close

PARAMS_B = ModelParams(1.0, 0.5, 1.0, 1.0, 1, "B")

_log_uniform = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


class TestLambda1:
    def test_vanishes_at_large_Z(self):
        v = lambda_1(REFERENCE, 0.7, 50.0)
        assert v.defined and 0.0 < v.value < 1e-18

    def test_decreasing_in_Z(self):
        zs = [1.4, 1.6, 2.0, 3.0, 5.0]
        vals = [lambda_1(REFERENCE, 0.5, z).value for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_undefined_flags_constituent(self):
        # far below the pressure floor everything wing-related diverges
        v = lambda_1(REFERENCE, 0.5, 0.2)
        assert not v.defined
        assert v.sigma3.divergent
        assert v.value == math.inf

    def test_wings_skipped_where_one_family_diverges(self):
        # below log L - alpha*beta the 1-family alone diverges; the wing series
        # are not evaluated, with or without the slope
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=50)
        for slope in (False, True):
            v = lambda_1(p, 0.5, 3.0, slope=slope)
            assert not v.defined and v.sigma1.divergent
            assert v.sigma2 is None and v.sigma3 is None and math.isnan(v.slope)

    def test_defined_implies_constituents_converge(self):
        for z in (1.5, 2.5, 4.0):
            v = lambda_1(REFERENCE, 0.6, z)
            if v.defined:
                assert not (v.sigma1.divergent or v.sigma2.divergent or v.sigma3.divergent)

    def test_one_at_transition(self):
        b_c = critical_set(REFERENCE).beta_hi
        v = lambda_1(REFERENCE, b_c, wing_pressure(REFERENCE, b_c))
        assert v.defined
        assert_close(v.value, 1.0, 1e-9)


class TestLambda32:
    def test_variant_a_is_product(self):
        beta, z = 0.5, wing_pressure(REFERENCE, 0.5) + 0.4
        v = lambda_32(REFERENCE, beta, z)
        expect = tail_sum(beta, z).value * sigma3(REFERENCE, beta, z).value
        assert v.defined
        assert_close(v.value, expect, 1e-14)

    def test_equals_one_at_ztilde(self):
        beta = 0.5
        zt = composition_boundary(REFERENCE, beta)
        assert zt is not None
        v = lambda_32(REFERENCE, beta, zt)
        assert_close(v.value, 1.0, 1e-9)

    def test_vanishes_at_large_Z(self):
        v = lambda_32(REFERENCE, 0.5, 40.0)
        assert v.defined and 0.0 < v.value < 1e-15

    @given(beta=st.floats(0.1, 2.0), w=st.floats(0.05, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_variant_b_identity(self, beta, w):
        # variant B's lambda_32 < 1 exactly when Sigma2*Sigma3 < 1/2
        z = wing_pressure(PARAMS_B, beta) + w
        v = lambda_32(PARAMS_B, beta, z)
        if not v.defined:
            return
        prod = tail_sum(beta, z).value * sigma3(PARAMS_B, beta, z).value
        assert (v.value < 1.0) == (prod < 0.5)

    def test_decreasing_in_Z(self):
        zs = [wing_pressure(REFERENCE, 0.5) + w for w in (0.1, 0.3, 0.7, 1.5)]
        vals = [lambda_32(REFERENCE, 0.5, z).value for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAbscissa:
    def test_L1_never_geometric(self):
        # log L - alpha*beta = -alpha*beta < log 2 <= P34 when L = 1
        for beta in (0.0, 0.3, 0.8, 1.2, 3.0):
            rep = abscissa(REFERENCE, beta)
            assert rep.binding != GEOMETRIC_ONE_FAMILY

    def test_wing_composition_below_transition(self):
        b1 = critical_set(REFERENCE).beta_lo
        rep = abscissa(REFERENCE, 0.5)
        assert 0.5 < b1
        assert rep.binding == WING_COMPOSITION
        assert rep.Z_c > wing_pressure(REFERENCE, 0.5)
        assert not rep.converges_at_Zc

    def test_pressure_floor_above_transition(self):
        b1 = critical_set(REFERENCE).beta_lo
        beta = b1 + 0.5
        rep = abscissa(REFERENCE, beta)
        assert rep.binding == PRESSURE_FLOOR
        assert_close(rep.Z_c, wing_pressure(REFERENCE, beta), 1e-14)
        assert rep.converges_at_Zc

    def test_geometric_binding_for_large_L(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=50)
        # at beta = 1.2: log 50 - 1.2 = 2.71 > P34(1.2) = 2.06 and beta > beta_1
        rep = abscissa(p, 1.2)
        assert rep.binding == GEOMETRIC_ONE_FAMILY
        assert_close(rep.Z_c, math.log(50.0) - 1.2, 1e-12)
        assert not rep.converges_at_Zc

    @given(alpha=_log_uniform, gamma=_log_uniform, delta=_log_uniform,
           epsilon=st.floats(math.log(0.1), math.log(50.0)).map(math.exp),
           L=st.integers(1, 400), variant=st.sampled_from("AB"), beta=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_Zc_is_p_mid_or_geometric(self, alpha, gamma, delta, epsilon, L, variant, beta):
        # Z_c = max(P34, log L - alpha*beta, Z~_c) = max(P_mid, log L - alpha*beta),
        # bit for bit: the pressure solves read Z_c and P_mid from one boundary
        params = ModelParams(alpha, gamma, delta, epsilon, L, variant)
        for b in (0.0, beta):
            assert abscissa(params, b).Z_c == max(pressure_mid(params, b),
                                                  math.log(L) - alpha * b), b

    def test_floor_evaluated_once_on_the_floor(self, composition_points):
        # past beta_lo the composition-boundary check's floor value is the
        # one the convergence verdict reads
        beta = critical_set(REFERENCE).beta_lo + 0.5
        assert abscissa(REFERENCE, beta).binding == PRESSURE_FLOOR
        assert composition_points == [wing_pressure(REFERENCE, beta)]

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_boundary_solve_evaluates_no_point_twice(self, params, composition_points):
        # the floor check is the Newton solve's first evaluation
        for beta in (0.1, 0.5, 0.9):
            composition_points.clear()
            assert abscissa(params, beta).binding == WING_COMPOSITION
            assert composition_points[0] == wing_pressure(params, beta)
            assert len(set(composition_points)) == len(composition_points) > 1

    def test_composition_value_matches_sigmas(self):
        beta = 1.5
        z0 = wing_pressure(REFERENCE, beta)
        v = composition(REFERENCE, beta, wing_pressure(REFERENCE, beta))[0]
        expect = tail_sum(beta, z0).value * sigma3(REFERENCE, beta, z0).value
        assert_close(v, expect, 1e-13)


class TestSeriesStatedOnce:
    """`series` states Sigma1, Sigma2 and Sigma3 and their Z-slopes; `spectral`
    only assembles them, so one name per closed-form ingredient reaches both
    the value and the slope of every map."""

    INGREDIENTS = ("sigma3", "single_block_correction", "tail_sum", "tail_sum_pair",
                   "wing_prefactor")

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    @pytest.mark.parametrize("name", ["wing_prefactor", "single_block_correction"])
    def test_patched_ingredient_moves_value_and_slope_alike(self, monkeypatch, name, params):
        # with the ingredient stated twice, a patch moved the slope 1e-6 to
        # 1e-2 away from the differences of the value; clean, they agree to
        # 2e-10 for lambda_1 and 2e-9 for the composition
        real = getattr(series, name)
        monkeypatch.setattr(series, name, lambda *args: 1.01 * real(*args))
        h = 1e-5
        for beta, w in ((0.5, 0.2), (1.2, 0.5)):
            z = abscissa(params, beta).Z_c + w
            fd = (lambda_1(params, beta, z + h).value
                  - lambda_1(params, beta, z - h).value) / (2 * h)
            slope = lambda_1(params, beta, z, slope=True).slope
            assert abs(slope - fd) <= 1e-8 * abs(fd), (beta, slope, fd)
            fd = (composition(params, beta, z + h)[0]
                  - composition(params, beta, z - h)[0]) / (2 * h)
            slope = composition(params, beta, z, slope=True)[1]
            assert abs(slope - fd) <= 1e-8 * abs(fd), (beta, slope, fd)

    def test_no_other_module_binds_a_series_ingredient(self):
        # the package namespace re-exports sigma3 as a public name; it is not
        # among the submodules, and __main__ is skipped since importing it runs
        # the command line
        ingredients = [getattr(series, n) for n in self.INGREDIENTS] + [series]
        for info in pkgutil.iter_modules(butterflyshift.__path__):
            if info.name in ("series", "__main__"):
                continue
            module = importlib.import_module(f"butterflyshift.{info.name}")
            bound = sorted(k for k, v in vars(module).items()
                           if k in self.INGREDIENTS or any(v is i for i in ingredients))
            assert bound == [], f"{info.name} binds {bound}"
