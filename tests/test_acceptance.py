"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 6's large-L clause is unattainable as stated
(the threshold L = 50 undershoots where the mechanism actually crosses; see
README); the assertion is kept verbatim anyway and is expected to fail.
"""

import math
import time

import numpy as np
from butterflyshift.cli import EXIT_ORACLE_FAIL, main as cli_main
from butterflyshift.critical import (
    critical_set,
    equilibrium_report,
    pressure_full,
    pressure_mid,
)
from butterflyshift.model import ModelParams, REFERENCE, build_graph, wing_pressure
from butterflyshift.oracle import (
    check_Ln,
    enumerate_returns_to_1,
    enumerate_returns_to_32,
    incidence_entropy,
    no_one_family,
    richardson_orbit_pressure,
)
from butterflyshift.series import riemann_zeta

from reference_engines import gateaux_check

# transitions well separated: the large one-family subshift detaches beta_c
# from the zeta pole, so the pressure gap below beta_c is numerically visible
WIDE = ModelParams(1.0, 0.5, 1.0, 1.0, L=50)
PARAMS_B = ModelParams(1.0, 0.5, 1.0, 1.0, 1, "B")


class _Criterion:
    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} [{status}] {self.title} ({elapsed:.2f} s)")
        for f in self.failures:
            print(f"    - {f}")
        assert elapsed < self.budget, f"runtime {elapsed:.1f}s over budget {self.budget}s"
        assert not self.failures, "; ".join(self.failures)


def test_criterion_01_wing_combinatorics():
    c = _Criterion(1, "wing combinatorics: L_n closed form, n=2..20", 1.0)
    for p, beta in [(REFERENCE, 1.0),
                    (ModelParams(1.0, 0.2, 3.0, 0.7), 0.6),
                    (ModelParams(2.0, 1.5, 0.4, 2.0), 1.7)]:
        for n, enum, closed in check_Ln(p, beta, 20):
            c.check(abs(enum - closed) <= 1e-11 * abs(closed),
                    f"L_n mismatch at n={n}, params={p}")
    c.finish()


def test_criterion_02_operator_identity():
    c = _Criterion(2, "operator identity: enumeration vs lambda at N=22 / N=20", 30.0)
    for beta in (0.2, 0.35, 0.5, 0.65, 0.8):
        Z = pressure_full(REFERENCE, beta) + 0.2
        r1 = enumerate_returns_to_1(REFERENCE, beta, Z, 22)
        c.check(0.0 <= r1.gap <= r1.bound,
                f"[1]-returns at beta={beta}: gap={r1.gap:.3e}, tail={r1.bound:.3e}")
        Z32 = wing_pressure(REFERENCE, beta) + 0.25
        r32 = enumerate_returns_to_32(REFERENCE, beta, Z32, 20)
        c.check(0.0 <= r32.gap <= r32.bound,
                f"[32]-returns at beta={beta}: gap={r32.gap:.3e}, tail={r32.bound:.3e}")
    c.finish()


def test_criterion_03_entropy_at_beta_zero():
    c = _Criterion(3, "beta=0 pressures vs incidence-matrix entropies", 1.0)
    graph = build_graph(REFERENCE)
    h_full = incidence_entropy(graph)
    h_mid = incidence_entropy(graph, restrict_to=no_one_family(graph))
    c.check(abs(pressure_full(REFERENCE, 0.0) - h_full) < 1e-8, "P(0) vs full entropy")
    c.check(abs(pressure_mid(REFERENCE, 0.0) - h_mid) < 1e-8, "P_mid(0) vs sub entropy")
    c.check(abs(wing_pressure(REFERENCE, 0.0) - math.log(2.0)) < 1e-14, "P34(0) vs log 2")
    c.finish()


def test_criterion_04_transition_structure():
    c = _Criterion(4, "transition structure: order, residuals, continuity, gap sign", 10.0)
    # full clause set on the well-separated configuration
    crit = critical_set(WIDE)
    c.check(crit.beta_lo < crit.beta_hi, "beta_lo < beta_hi (wide)")
    c.check(abs(crit.residual_lo) < 1e-9 and abs(crit.residual_hi) < 1e-9,
            f"residuals (wide): {crit.residual_lo:.2e}, {crit.residual_hi:.2e}")
    c.check(abs(pressure_full(WIDE, crit.beta_hi - 1e-6) - wing_pressure(WIDE, crit.beta_hi)) < 1e-4,
            "continuity at the transition (wide)")
    for b in np.arange(0.0, crit.beta_hi - 0.01 + 1e-12, 0.01):
        gap = pressure_full(WIDE, float(b)) - wing_pressure(WIDE, float(b))
        if not gap > 0.0:
            c.check(False, f"gap not positive at beta={b:.2f} (wide)")
            break
    for b in (crit.beta_hi, crit.beta_hi + 0.05, crit.beta_hi + 1.0):
        c.check(abs(pressure_full(WIDE, b) - wing_pressure(WIDE, b)) <= 1e-12,
                f"gap not zero at beta={b:.4f} (wide)")
    # reference configuration: same clauses; the strict-positivity grid stops
    # at 0.93 because beyond it the true gap P - P34 drops below double
    # precision (the transition hugs the zeta pole; see notes)
    critr = critical_set(REFERENCE)
    c.check(critr.beta_lo < critr.beta_hi, "beta_lo < beta_hi (reference)")
    c.check(abs(critr.residual_lo) < 1e-9 and abs(critr.residual_hi) < 1e-9,
            "residuals (reference)")
    c.check(abs(pressure_full(REFERENCE, critr.beta_hi - 1e-6)
                - wing_pressure(REFERENCE, critr.beta_hi)) < 1e-4,
            "continuity at the transition (reference)")
    for b in np.arange(0.0, 0.93 + 1e-12, 0.01):
        gap = pressure_full(REFERENCE, float(b)) - wing_pressure(REFERENCE, float(b))
        if not gap > 0.0:
            c.check(False, f"gap not positive at beta={b:.2f} (reference)")
            break
    for b in (critr.beta_hi, critr.beta_hi + 0.3):
        c.check(abs(pressure_full(REFERENCE, b) - wing_pressure(REFERENCE, b)) <= 1e-12,
                f"gap not zero at beta={b:.4f} (reference)")
    c.finish()


def test_criterion_05_eps_beta_lo_bounds():
    c = _Criterion(5, "1 < eps*beta_lo < 2 and zeta > 5 on 100 random sets", 120.0)
    rng = np.random.default_rng(20260808)
    for i in range(100):
        a, g, d, e = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=4))
        L = int(rng.integers(1, 21))
        p = ModelParams(float(a), float(g), float(d), float(e), L=L)
        eb = p.epsilon * critical_set(p).beta_lo
        c.check(1.0 < eb < 2.0, f"eps*beta_lo={eb} out of (1,2) at draw {i}: {p}")
        c.check(riemann_zeta(eb) > 5.0, f"zeta(eps*beta_lo)={riemann_zeta(eb)} <= 5 at {p}")
    c.finish()


def test_criterion_06_regime_realizability():
    c = _Criterion(6, "regime realizability: delta- and L-sweeps with verdicts", 60.0)
    eb_delta = []
    for d in (1.0, 2.0, 5.0, 10.0, 20.0):
        p = ModelParams(1.0, 0.5, float(d), 1.0, L=1)
        eb_delta.append(p.epsilon * critical_set(p).beta_hi)
    c.check(all(a > b for a, b in zip(eb_delta, eb_delta[1:])),
            f"delta-sweep eps*beta_c not strictly decreasing: {eb_delta}")
    c.check(eb_delta[-1] < 2.0, f"eps*beta_c at delta=20 is {eb_delta[-1]}, not < 2")
    p20 = ModelParams(1.0, 0.5, 20.0, 1.0, L=1)
    rep = equilibrium_report(p20, "at_beta_hi")
    c.check(not rep.weight_on_cylinder and rep.eps_beta < 2.0,
            "delta=20 verdict should be: no weight on [1]")
    eb_L = []
    for L in (1, 5, 20, 50):
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=L)
        eb_L.append(p.epsilon * critical_set(p).beta_hi)
    c.check(all(a < b for a, b in zip(eb_L, eb_L[1:])),
            f"L-sweep eps*beta_c not strictly increasing: {eb_L}")
    # unattainable as stated: at the reference parameters the transition
    # reaches eps*beta_c = 2 only near L ~ 170 (eps*beta_c(50) is about 1.49);
    # the stated L = 50 threshold is asserted anyway and expected to fail
    c.check(eb_L[-1] > 2.0, f"eps*beta_c at L=50 is {eb_L[-1]}, not > 2 "
            "(threshold too small: the crossing needs L >~ 170 here; L=250 passes)")
    p50 = ModelParams(1.0, 0.5, 1.0, 1.0, L=50)
    rep50 = equilibrium_report(p50, "at_beta_hi")
    c.check(rep50.weight_on_cylinder == (rep50.eps_beta > 2.0),
            "L=50 verdict must match the eps*beta_c criterion")
    c.finish()


def test_criterion_06b_large_L_mechanism_demonstration():
    # not an acceptance criterion: documents that the large-L mechanism is
    # implemented correctly once L is actually large enough
    rep = equilibrium_report(ModelParams(1.0, 0.5, 1.0, 1.0, L=250), "at_beta_hi")
    assert rep.eps_beta > 2.0
    assert rep.count_lower_bound == 2 and rep.weight_on_cylinder


def test_criterion_07_strict_convexity():
    c = _Criterion(7, "strict convexity of the pressure below the transition", 60.0)
    rng = np.random.default_rng(7)
    configs = [REFERENCE]
    while len(configs) < 11:
        a, g, d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=3))
        e = float(np.exp(rng.uniform(np.log(1.0), np.log(10.0))))  # keeps the grid short
        configs.append(ModelParams(float(a), float(g), float(d), e, L=int(rng.integers(1, 21))))
    for p in configs:
        b_c = critical_set(p).beta_hi
        grid = np.arange(0.0, b_c - 0.05 + 1e-12, 0.01)
        if len(grid) < 3:
            continue
        ps = [pressure_full(p, float(b)) for b in grid]
        second = [ps[i - 1] - 2.0 * ps[i] + ps[i + 1] for i in range(1, len(ps) - 1)]
        c.check(min(second) > 0.0,
                f"second difference {min(second):.2e} not positive for {p}")
    c.finish()


def test_criterion_08_variant_b():
    c = _Criterion(8, "variant B: transitions, analytic pressure, directional slopes", 10.0)
    crit = critical_set(PARAMS_B)
    c.check(crit.beta_lo < crit.beta_hi, "beta_2 < beta_c'")
    c.check(abs(crit.residual_lo) < 1e-9 and abs(crit.residual_hi) < 1e-9, "residuals")
    grid = [crit.beta_hi + 0.05 * k for k in range(1, 12)]
    p_vals = [pressure_full(PARAMS_B, b) for b in grid]
    w_vals = [wing_pressure(PARAMS_B, b) for b in grid]
    c.check(max(abs(a - b) for a, b in zip(p_vals, w_vals)) == 0.0,
            "pressure above beta_c' equals the wing pressure")
    d2p = [p_vals[i - 1] - 2 * p_vals[i] + p_vals[i + 1] for i in range(1, len(grid) - 1)]
    d2w = [w_vals[i - 1] - 2 * w_vals[i] + w_vals[i + 1] for i in range(1, len(grid) - 1)]
    c.check(max(abs(a - b) for a, b in zip(d2p, d2w)) < 1e-8,
            "second differences match the closed form (analyticity proxy)")
    rep = gateaux_check(PARAMS_B, crit.beta_hi + 0.4, [-1e-4, -1e-5, 1e-5, 1e-4])
    sl, sr = rep.symmetric_slopes
    c.check(abs(sl - sr) < 1e-8, f"symmetric slopes differ: {sl} vs {sr}")
    al, ar = rep.asymmetric_slopes
    c.check(abs((ar - al) - (crit.beta_hi + 0.4)) < 1e-6,
            f"asymmetric slopes should differ by beta: {al}, {ar}")
    c.finish()


def test_criterion_09_periodic_orbit_consistency():
    c = _Criterion(9, "Richardson periodic-orbit pressure within 0.02", 120.0)
    for beta in (0.0, 0.5):
        rich = richardson_orbit_pressure(REFERENCE, beta, 12)
        P = pressure_full(REFERENCE, beta)
        c.check(abs(rich - P) <= 0.02,
                f"|richardson - P| = {abs(rich - P):.4f} at beta={beta}")
    c.finish()


def test_criterion_10_negative_control():
    c = _Criterion(10, "negative control: corrupted edge 4->2 must FAIL", 30.0)
    graph = build_graph(REFERENCE, extra_edges=[("4", "2")])
    beta = 0.5
    Z = pressure_full(REFERENCE, beta) + 0.2
    bad = enumerate_returns_to_1(REFERENCE, beta, Z, 22, graph=graph)
    c.check(not (0.0 <= bad.gap <= bad.bound),
            "corrupted graph unexpectedly passed the criterion-2 check")
    code = cli_main(["oracle", "--alpha", "1", "--gamma", "0.5", "--delta", "1",
                     "--epsilon", "1", "--L", "1", "--n-return", "16",
                     "--n-period", "8", "--n-ln", "12", "--corrupt-edge", "4:2"])
    c.check(code == EXIT_ORACLE_FAIL, f"oracle command exit status {code}, wanted 1")
    c.finish()
