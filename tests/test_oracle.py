import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflyshift.critical import pressure_full, pressure_mid
from butterflyshift import oracle, series
from butterflyshift.model import (
    ModelParams,
    ONE,
    REFERENCE,
    THREE,
    TransitionGraph,
    build_graph,
    wing_pressure,
)
from butterflyshift.oracle import (
    RAW_HORIZON_CAP,
    abscissa_32,
    check_Ln,
    enumerate_returns_to_1,
    enumerate_returns_to_32,
    incidence_entropy,
    incidence_matrix,
    no_one_family,
    periodic_orbit_pressure,
    richardson_orbit_pressure,
    verification_table,
)

from conftest import NEAR_SWITCH_ABOVE, NEAR_SWITCH_BELOW, assert_close, clear_solve_memos
from reference_engines import (
    compressed_gap_returns_to_1,
    compressed_partial_returns_to_1,
    concatenated_Ln,
    dict_return_walk,
    edge_graph,
    mp_periodic_orbit_pressure,
    periodic_point_sums,
    return_words_to_1,
    return_words_to_32,
)

PARAMS_B = ModelParams(1.0, 0.5, 1.0, 1.0, 1, "B")

_log_uniform = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


class TestCheckLn:
    # every weight is scaled by e^-(n*beta*gamma + (n-2)*beta*delta)

    def test_n2_single_word(self):
        rows = check_Ln(REFERENCE, 1.3, 2)
        n, enum, closed = rows[0]
        assert n == 2
        assert_close(enum, 1.0, 1e-13)
        assert_close(enum, closed, 1e-13)

    def test_n3_two_words(self):
        rows = check_Ln(REFERENCE, 0.9, 3)
        _, enum, closed = rows[-1]
        expect = math.exp(-0.9 * 1.0) + 1.0
        assert_close(enum, expect, 1e-12)
        assert_close(enum, closed, 1e-12)

    def test_n10_exact(self):
        p = ModelParams(1.0, 0.5, 1.0, 1.0)
        rows = check_Ln(p, 1.0, 10)
        n, enum, closed = rows[-1]
        assert n == 10
        assert abs(enum - closed) <= 1e-11 * abs(closed)

    def test_guard(self):
        with pytest.raises(ValueError):
            check_Ln(REFERENCE, 1.0, 21)

    def test_matches_word_by_word_weights(self):
        # reference: one exp per word, from the popcount of its interior 3/4
        # pattern; the weights are now products of per-symbol factors, so the
        # sums may differ by rounding (about 2e-16 per factor, 20 factors)
        for p, beta in [(REFERENCE, 1.0), (ModelParams(1.0, 0.2, 3.0, 0.7), 0.6),
                        (ModelParams(2.0, 1.5, 0.4, 2.0), 1.7)]:
            for n, enum, _ in check_Ln(p, beta, 16):
                ones = np.array([bin(i).count("1") for i in range(1 << (n - 2))], dtype=float)
                ref = math.fsum(np.exp(-beta * p.delta * (n - 2 - ones)))
                assert abs(enum - ref) <= 1e-13 * ref, (p, n)

    @pytest.mark.parametrize("params", [ModelParams(1.0, 0.5, 200.0, 1.0),
                                        ModelParams(1.0, 800.0, 1.0, 1.0)],
                             ids=["delta=200", "gamma=800"])
    def test_large_weights_do_not_overflow(self, params):
        # unscaled, the heaviest n = 20 word weighs e^(20*gamma + 18*delta)
        for n, enum, closed in check_Ln(params, 1.0, 20):
            assert math.isfinite(enum) and abs(enum - closed) <= 1e-11 * closed, n

    @pytest.mark.parametrize("n_max", [2, 3, 10, 20])
    def test_buffer_matches_concatenation(self, n_max):
        # the in-place buffer holds the very array the concatenations built
        for p, beta in [(REFERENCE, 1.0), (ModelParams(1.0, 0.2, 3.0, 0.7), 0.6)]:
            assert check_Ln(p, beta, n_max) == concatenated_Ln(p, beta, n_max)

    def test_row_count_at_full_horizon(self):
        rows = check_Ln(REFERENCE, 1.0, 20)
        assert len(rows) == 19  # n = 2..20
        assert all(abs(e - c) <= 1e-11 * abs(c) for _, e, c in rows)


class TestEnginesAgree:
    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B,
                                        ModelParams(0.7, 0.3, 2.0, 1.4, L=3)])
    def test_dp_matches_literal_returns_to_1(self, params):
        graph = build_graph(params)
        beta, Z = 0.6, pressure_full(params, 0.6) + 0.3
        N = 9
        lit = [0.0] * (N + 1)
        for rw in return_words_to_1(graph, params, beta, Z, N):
            lit[rw.tau] += rw.weight
        dp = oracle._return_walk(graph, params, beta, Z, N, ONE)
        for t in range(1, N + 1):
            assert_close(dp[t], lit[t], 1e-14 * max(1.0, abs(lit[t])), f"tau={t}")

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B])
    def test_dp_matches_literal_returns_to_32(self, params):
        graph = build_graph(params)
        beta, Z = 0.6, wing_pressure(params, 0.6) + 0.35
        N = 10
        lit = [0.0] * (N + 1)
        for rw in return_words_to_32(graph, params, beta, Z, N):
            lit[rw.tau] += rw.weight
        dp = oracle._return_walk(graph, params, beta, Z, N, THREE)
        for t in range(1, N + 1):
            assert_close(dp[t], lit[t], 1e-14 * max(1.0, abs(lit[t])), f"tau={t}")

    def test_dp_matches_literal_on_corrupted_graph(self):
        # an extra body edge, and (at L = 1, where the auxiliary state is
        # exact) the auxiliary's way back to 1 removed
        for extra, drop in [([("4", "2")], []), ([], [("1_1", "1")])]:
            graph = (edge_graph(REFERENCE, drop_edges=drop) if drop
                     else build_graph(REFERENCE, extra_edges=extra))
            beta, Z = 0.5, pressure_full(REFERENCE, 0.5) + 0.4
            N = 9
            lit = [0.0] * (N + 1)
            for rw in return_words_to_1(graph, REFERENCE, beta, Z, N):
                lit[rw.tau] += rw.weight
            dp = oracle._return_walk(graph, REFERENCE, beta, Z, N, ONE)
            for t in range(1, N + 1):
                assert_close(dp[t], lit[t], 1e-14 * max(1.0, abs(lit[t])),
                             f"extra={extra} drop={drop} tau={t}")

    def test_compressed_matches_dp(self):
        graph = build_graph(REFERENCE)
        beta, Z = 0.5, pressure_full(REFERENCE, 0.5) + 0.25
        dp = oracle._return_walk(graph, REFERENCE, beta, Z, 30, ONE)
        comp = compressed_partial_returns_to_1(REFERENCE, beta, Z, 30)
        for t in range(1, 31):
            assert_close(dp[t], comp[t], 1e-13 * max(1.0, abs(dp[t])), f"tau={t}")

    def test_compressed_deep_horizon_closes_gap(self):
        beta, Z = 0.5, pressure_full(REFERENCE, 0.5) + 0.25
        gap_deep = compressed_gap_returns_to_1(REFERENCE, beta, Z, 600)
        assert abs(gap_deep) < 1e-12  # fully converged up to float roundoff


WALK_GRAPHS = (
    [(f"{v}-L{L}", ModelParams(1.0, 0.5, 1.0, 1.0, L, v), {}) for v in "AB" for L in (1, 7, 300)]
    + [("extra 4:2", REFERENCE, {"extra_edges": [("4", "2")]}),
       ("extra 4:1", REFERENCE, {"extra_edges": [("4", "1")]}),
       ("extra 3:1+1:4", REFERENCE, {"extra_edges": [("3", "1"), ("1", "4")]}),
       ("extra 1_2:2", ModelParams(1.0, 0.5, 1.0, 1.0, L=3), {"extra_edges": [("1_2", "2")]}),
       ("drop 3:3", REFERENCE, {"drop_edges": [("3", "3")]}),
       ("drop 2:2", REFERENCE, {"drop_edges": [("2", "2")]}),
       ("drop 3:2", REFERENCE, {"drop_edges": [("3", "2")]}),
       ("drop 1_1:1", REFERENCE, {"drop_edges": [("1_1", "1")]})])


class TestArrayWalk:
    """The transfer-matrix walk against the dict-keyed walk, at the table's
    probe points and horizons, at beta = 0 and at the horizon cap."""

    @pytest.mark.parametrize("params,corrupt", [g[1:] for g in WALK_GRAPHS],
                             ids=[g[0] for g in WALK_GRAPHS])
    def test_matches_dict_walk(self, params, corrupt):
        # same factors but the wing steps, which are one exponential each:
        # a few ulps per step, agreeing to 4e-15 relative over 22 steps and
        # in proportion over more
        graph = (edge_graph if "drop_edges" in corrupt else build_graph)(params, **corrupt)
        for beta in (0.0, 0.25, 0.5, 0.9):
            z32 = max(wing_pressure(params, beta) + 0.3, abscissa_32(params, beta) + 0.2)
            for target, Z, horizon in ((ONE, pressure_full(params, beta) + 0.2, 22),
                                       (THREE, z32, 20)):
                for N in (horizon, RAW_HORIZON_CAP):
                    walk = oracle._return_walk(graph, params, beta, Z, N, target)
                    ref = dict_return_walk(graph, params, beta, Z, N, target)
                    assert len(walk) == len(ref) == N + 1
                    rtol = 4e-15 * max(1.0, N / 22)
                    for tau, (a, b) in enumerate(zip(walk, ref)):
                        assert abs(a - b) <= rtol * abs(b), (beta, target, N, tau, a, b)

    def test_large_delta_stays_in_range(self):
        # e^((gamma+delta)*beta) alone overflows once (gamma+delta)*beta > 709;
        # at delta = 1400 the [32] masses near 1e-305 survive, where the dict
        # walk's separate factors lost them to underflow
        p = ModelParams(1.0, 0.5, 1400.0, 1.0)
        cmp = enumerate_returns_to_32(p, 0.25, max(wing_pressure(p, 0.25) + 0.3,
                                                   abscissa_32(p, 0.25) + 0.2), 20)
        assert cmp.ok and cmp.oracle > 0.0
        assert abs(cmp.gap) <= 1e-3 * cmp.analytic
        p = ModelParams(1.0, 0.5, 1500.0, 1.0)
        for target in (ONE, THREE):
            walk = oracle._return_walk(build_graph(p), p, 0.5, wing_pressure(p, 0.5) + 0.3,
                                       20, target)
            assert all(math.isfinite(v) and v >= 0.0 for v in walk)

    def test_overflowed_masses_read_inf(self):
        # at Z = P34 < Z_c the masses grow past the double range from about
        # tau = 284; a step that met inf * 0 read NaN there, with a warning
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=250)
        beta = 1.0833
        Z, graph = wing_pressure(p, beta), build_graph(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk = oracle._return_walk(graph, p, beta, Z, 400, ONE)
        first = walk.index(math.inf)
        assert 200 < first < 400
        assert all(v == math.inf for v in walk[first:])
        # the dict walk's separate factors overflow a step or so earlier
        ref = dict_return_walk(graph, p, beta, Z, 400, ONE)
        for tau in range(first):
            assert math.isfinite(walk[tau]), tau
            if math.isfinite(ref[tau]):
                assert abs(walk[tau] - ref[tau]) <= 4e-15 * 400 / 22 * ref[tau], tau


def word_count(params, N):
    """Number of first-return words to [1] with tau <= N: the weight DP at beta = Z = 0."""
    return round(math.fsum(oracle._return_walk(build_graph(params), params, 0.0, 0.0, N, ONE)))


class TestReturnExamples:
    def test_n1_single_word(self):
        beta, Z = 0.8, pressure_full(REFERENCE, 0.8) + 0.5
        cmp1 = enumerate_returns_to_1(REFERENCE, beta, Z, 1)
        assert_close(cmp1.oracle,
                     math.exp(-REFERENCE.alpha * beta - Z), 1e-15)
        assert word_count(REFERENCE, 1) == 1

    def test_n2_three_words(self):
        beta, Z = 0.8, pressure_full(REFERENCE, 0.8) + 0.5
        cmp2 = enumerate_returns_to_1(REFERENCE, beta, Z, 2)
        a, al = beta * REFERENCE.alpha, REFERENCE.alpha
        expect = (math.exp(-al * beta - Z)
                  + math.exp(-2 * al * beta - 2 * Z)
                  + math.exp(-al * beta) * 2.0 ** -beta * math.exp(-2 * Z))
        assert_close(cmp2.oracle, expect, 1e-15)
        assert word_count(REFERENCE, 2) == 3

    def test_shortest_32_return(self):
        beta, Z = 0.7, wing_pressure(REFERENCE, 0.7) + 0.4
        words = return_words_to_32(build_graph(REFERENCE), REFERENCE, beta, Z, 2)
        assert len(words) == 1
        rw = words[0]
        assert rw.tau == 2 and rw.word.symbols == ("3", "2")
        g, eps = REFERENCE.gamma, REFERENCE.epsilon
        expect = math.exp(beta * (g - eps * math.log(2.0) - math.log(2.0)) - 2 * Z)
        assert_close(rw.weight, expect, 1e-15)

    def test_variant_b_mirror_pairs(self):
        # in [1]-return words either wing can host the excursions, and the
        # mirrored word carries exactly the same weight
        graph = build_graph(PARAMS_B)
        beta, Z = 0.6, pressure_full(PARAMS_B, 0.6) + 0.4
        words = return_words_to_1(graph, PARAMS_B, beta, Z, 8)
        by_symbols = {rw.word.symbols: rw.weight for rw in words}
        from reference_engines import mirror_symbol
        primed = [rw for rw in words if any(s in ("3'", "4'") for s in rw.word.symbols)]
        assert primed, "expected primed-wing excursions"
        for rw in primed:
            mirrored = tuple(mirror_symbol(s) for s in rw.word.symbols)
            assert mirrored in by_symbols
            assert_close(by_symbols[mirrored], rw.weight, 1e-14)

    def test_variant_b_doubles_wing_mass(self):
        beta, Z = 0.6, wing_pressure(REFERENCE, 0.6) + 0.4
        a = oracle._return_walk(build_graph(REFERENCE), REFERENCE, beta, Z, 6, THREE)
        b = oracle._return_walk(build_graph(PARAMS_B), PARAMS_B, beta, Z, 6, THREE)
        # tau = 2 words never leave the unprimed wing; longer words gain the
        # mirrored excursions
        assert_close(b[2], a[2], 1e-15)
        assert b[4] > a[4]


class TestOracleComparisons:
    def test_gap_within_certificate_returns_1(self):
        for beta in (0.3, 0.6):
            Z = pressure_full(REFERENCE, beta) + 0.2
            cmp1 = enumerate_returns_to_1(REFERENCE, beta, Z, 22)
            assert cmp1.ok
            assert 0.0 <= cmp1.gap <= cmp1.bound

    def test_gap_within_certificate_returns_32(self):
        for params in (REFERENCE, PARAMS_B):
            Z = wing_pressure(params, 0.5) + 0.3
            cmp2 = enumerate_returns_to_32(params, 0.5, Z, 20)
            assert cmp2.ok

    def test_slack_scales_with_a_tiny_analytic_value(self):
        # a walk that returned nothing against lambda = 3.4e-305, a gap 14x its
        # certificate, must not hide inside an absolute slack
        lam = 3.37663541005968e-305
        empty = oracle._certified("returns_to_32 beta=0.25", lam, 0.0, 2.331e-306)
        assert empty.gap == lam and not empty.ok
        # the same row walked in full, and a row where both sides underflow
        full = oracle._certified("returns_to_32 beta=0.25", lam, lam + 5.059e-321, 2.331e-306)
        assert full.gap < 0.0 and full.ok
        assert oracle._certified("returns_to_32 beta=0.25", 0.0, 0.0, 0.0).ok

    def test_partial_sums_monotone_and_bounded(self):
        beta, Z = 0.5, pressure_full(REFERENCE, 0.5) + 0.25
        prev = 0.0
        for N in (2, 5, 9, 14, 20, 26):
            c = enumerate_returns_to_1(REFERENCE, beta, Z, N)
            assert c.oracle >= prev
            assert c.oracle <= c.analytic + 1e-12
            prev = c.oracle

    def test_gap_shrinks_geometrically(self):
        beta, Z = 0.5, pressure_full(REFERENCE, 0.5) + 0.25
        gaps = [enumerate_returns_to_1(REFERENCE, beta, Z, N).gap
                for N in (10, 16, 22, 28)]
        assert all(g > 0 for g in gaps)
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert max(ratios) < 0.5

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            enumerate_returns_to_1(REFERENCE, 0.5, wing_pressure(REFERENCE, 0.5) - 0.5, 10)

    def test_horizon_guard(self):
        Z = pressure_full(REFERENCE, 0.5) + 0.3
        with pytest.raises(ValueError):
            enumerate_returns_to_1(REFERENCE, 0.5, Z, 31)
        # past the cap the compressed reference still closes in on lambda_1
        gap_31 = compressed_gap_returns_to_1(REFERENCE, 0.5, Z, 31)
        assert 0.0 <= gap_31 < enumerate_returns_to_1(REFERENCE, 0.5, Z, 30).gap

    def test_negative_control_corrupted_edge(self):
        graph = build_graph(REFERENCE, extra_edges=[("4", "2")])
        beta = 0.5
        Z = pressure_full(REFERENCE, beta) + 0.2
        bad = enumerate_returns_to_1(REFERENCE, beta, Z, 22, graph=graph)
        assert bad.gap < -1e-4
        assert not bad.ok

    @given(beta=st.floats(0.05, 0.9), w=st.floats(0.05, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_oracle_identity_random_points_returns_1(self, beta, w):
        Z = pressure_full(REFERENCE, beta) + w
        c = enumerate_returns_to_1(REFERENCE, beta, Z, 12)
        assert 0.0 <= c.gap <= c.bound

    @given(beta=st.floats(0.05, 1.5), w=st.floats(0.05, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_oracle_identity_random_points_returns_32(self, beta, w):
        from butterflyshift.oracle import abscissa_32
        Z = max(wing_pressure(REFERENCE, beta), abscissa_32(REFERENCE, beta)) + w
        c = enumerate_returns_to_32(REFERENCE, beta, Z, 12)
        assert 0.0 <= c.gap <= c.bound


class TestIncidenceEntropy:
    def test_pure_wing_full_shift(self):
        g = TransitionGraph(("3", "4"), np.ones((2, 2), dtype=bool))
        assert_close(incidence_entropy(g), math.log(2.0), 1e-12)

    def test_full_graph_matches_pressure(self):
        graph = build_graph(REFERENCE)
        assert_close(incidence_entropy(graph), pressure_full(REFERENCE, 0.0), 1e-8)

    def test_mid_graph_matches_pressure(self):
        graph = build_graph(REFERENCE)
        h = incidence_entropy(graph, restrict_to=no_one_family(graph))
        assert_close(h, pressure_mid(REFERENCE, 0.0), 1e-8)

    def test_variant_b_strictly_larger(self):
        h_a = incidence_entropy(build_graph(REFERENCE))
        h_b = incidence_entropy(build_graph(PARAMS_B))
        assert h_b > h_a + 0.01

    def test_matrix_matches_allowed(self):
        for params, extra in [(REFERENCE, []), (PARAMS_B, [("4", "2")]),
                              (ModelParams(1.0, 0.5, 1.0, 1.0, L=7), [("4", "1")])]:
            graph = build_graph(params, extra_edges=extra)
            for restrict in (None, no_one_family(graph)):
                syms = [s for s in graph.alphabet if restrict is None or s in restrict]
                ref = np.array([[1.0 if graph.allowed(a, b) else 0.0 for b in syms]
                                for a in syms])
                assert np.array_equal(incidence_matrix(graph, restrict), ref)


class TestPeriodicOrbits:
    def test_wing_only_cycles_reproduce_p34(self):
        g = TransitionGraph(("3", "4"), np.ones((2, 2), dtype=bool))
        for n in (4, 7, 10):
            est = periodic_orbit_pressure(REFERENCE, 1.1, n, graph=g)
            assert_close(est, wing_pressure(REFERENCE, 1.1), 1e-12, f"n={n}")

    def test_all_two_fixed_point(self):
        g = TransitionGraph(("2",), np.ones((1, 1), dtype=bool))
        for n in (3, 6):
            assert periodic_orbit_pressure(REFERENCE, 2.0, n, graph=g) == 0.0

    def test_estimates_approach_pressure(self):
        P = pressure_full(REFERENCE, 0.5)
        est = [periodic_orbit_pressure(REFERENCE, 0.5, n) for n in (8, 10, 12)]
        gaps = [abs(e - P) for e in est]
        assert gaps[2] < gaps[0]

    def test_richardson_smoke(self):
        P = pressure_full(REFERENCE, 0.0)
        assert abs(richardson_orbit_pressure(REFERENCE, 0.0, 10) - P) < 0.05

    def test_period_guard(self):
        with pytest.raises(ValueError):
            periodic_orbit_pressure(REFERENCE, 0.5, 15)

    def test_aux_multiplicity(self):
        # the count of period-2 points must match the incidence-matrix trace
        p3 = ModelParams(1.0, 0.5, 1.0, 1.0, L=3)
        g = build_graph(p3)
        import numpy as np
        from butterflyshift.oracle import incidence_matrix
        M = incidence_matrix(g)
        expect = float(np.trace(M @ M))
        est = periodic_orbit_pressure(p3, 0.0, 2, graph=g)
        assert_close(math.exp(2 * est), expect, 1e-9)

    @pytest.mark.parametrize("extra", [(), (("4", "2"),), (("4", "1"),),
                                       (("3", "1"), ("1", "4"))],
                             ids=["clean", "4:2", "4:1", "3:1+1:4"])
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_trace_matches_enumeration(self, variant, extra):
        # every period-n point enumerated and weighted from its own wrapped
        # run lengths, against the transfer-matrix trace
        betas = (0.0, 0.5, 1.1)
        for L in (1, 3):
            p = ModelParams(1.0, 0.5, 1.0, 1.0, L, variant)
            g = build_graph(p, extra_edges=extra)
            for n in range(2, 11):
                sums = periodic_point_sums(p, g, n, betas)
                for beta, expect in sums.items():
                    got = math.exp(n * periodic_orbit_pressure(p, beta, n, graph=g))
                    assert_close(got, expect, 1e-13 * expect, f"L={L} n={n} beta={beta}")

    # unscaled, e^(beta*phi) overflows the trace once gamma + delta >~ 118
    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B, ModelParams(1.0, 0.5, 200.0, 1.0),
                                        ModelParams(1.0, 800.0, 1.0, 1.0, 3, "B")],
                             ids=["A", "B", "delta=200", "gamma=800"])
    def test_trace_matches_mpmath_at_n12(self, params):
        pytest.importorskip("mpmath")
        g = build_graph(params)
        expect = mp_periodic_orbit_pressure(params, 0.5, 12, g)
        got = periodic_orbit_pressure(params, 0.5, 12, graph=g)
        assert_close(got, expect, 1e-14 * abs(expect))

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("L", [1, 7, 300])
    def test_point_count_matches_incidence_trace(self, variant, L):
        # at beta = 0 the trace counts period-n points on the full alphabet,
        # every one of the L auxiliaries included
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L, variant)
        g = build_graph(p)
        A = incidence_matrix(g)
        for n in (3, 8, 14):
            expect = float(np.trace(np.linalg.matrix_power(A, n)))
            got = math.exp(n * periodic_orbit_pressure(p, 0.0, n, graph=g))
            assert_close(got, expect, 1e-12 * expect, f"n={n}")


REFERENCE_ROWS = ([f"L_n n={n}" for n in range(2, 21)]
                  + ["returns_to_1 beta=0.25", "returns_to_32 beta=0.25",
                     "returns_to_1 beta=0.5", "returns_to_32 beta=0.5",
                     "entropy vs P(0)", "entropy vs P_mid(0)", "periodic orbits beta=0.5"])


# (analytic, oracle) of the reference table's named rows: they pin the probe
# betas, the Z offsets and the horizons of each row
REFERENCE_VALUES = {
    "returns_to_1 beta=0.25": (0.397857984697116, 0.397567331954415),
    "returns_to_32 beta=0.25": (0.177082177591691, 0.176770434195023),
    "returns_to_1 beta=0.5": (0.203754749998175, 0.203722714880305),
    "returns_to_32 beta=0.5": (0.0627371763217946, 0.062679517075179),
    "entropy vs P(0)": (1.00505253874238, 1.00505253874235),
    "entropy vs P_mid(0)": (0.881373587019543, 0.881373587019524),
    "periodic orbits beta=0.5": (1.22899938739848, 1.23153981594217),
}


class TestVerificationTable:
    def test_reference_rows_all_ok_in_printed_order(self):
        rows = verification_table(REFERENCE, build_graph(REFERENCE), 22, 12, 20)
        assert [r.name for r in rows] == REFERENCE_ROWS
        for r in rows:
            assert r.ok, r
            assert r.gap == r.analytic - r.oracle
            assert abs(r.gap) <= r.bound
            if r.name in REFERENCE_VALUES:
                analytic, oracle = REFERENCE_VALUES[r.name]
                assert_close(r.analytic, analytic, 1e-14 * analytic, r.name)
                assert_close(r.oracle, oracle, 1e-14 * oracle, r.name)

    def test_negative_control_fails_every_certified_row(self):
        graph = build_graph(REFERENCE, extra_edges=[("4", "2")])
        rows = verification_table(REFERENCE, graph, 22, 12, 20)
        assert [r.name for r in rows] == REFERENCE_ROWS
        certified = [r for r in rows if r.name.startswith(("returns_to_", "entropy"))]
        assert len(certified) == 6
        for r in certified:
            assert not r.ok, r
        # the wing words never touch a 2: the extra 4 -> 2 edge leaves them exact
        assert all(r.ok for r in rows if r.name.startswith("L_n"))

    def test_each_32_floor_solved_once(self, newton_solves):
        # in variant B each [32] floor is a composition-boundary solve (of
        # variant A), made once per probe beta right after the beta's Z_c;
        # the last solve is P_mid(0)
        rows = verification_table(PARAMS_B, build_graph(PARAMS_B), 16, 8, 12)
        assert all(r.ok for r in rows if r.name.startswith("returns_to_32"))
        floors = [wing_pressure(PARAMS_B, b) for b in (0.25, 0.25, 0.5, 0.5, 0.0)]
        assert newton_solves["spectral"] == floors

    @pytest.mark.parametrize("params, boundaries", [(REFERENCE, 3), (PARAMS_B, 5)],
                             ids=["A", "B"])
    def test_each_boundary_solved_once(self, params, boundaries, newton_solves):
        # one composition-boundary solve per probe beta gives Z_c to both its
        # pressure and its [1] row, and the P_mid(0) row's gives Z_c(0);
        # variant B adds one per [32] floor
        verification_table(params, build_graph(params), 16, 8, 12)
        assert len(newton_solves["spectral"]) == boundaries
        assert newton_solves["critical"][-1] == max(pressure_mid(params, 0.0),
                                                    math.log(params.L))
        assert len(newton_solves["critical"]) == 3

    def test_new_L_solves_no_boundary(self, newton_solves):
        # the composition boundaries read only the wing parameters: after the
        # L = 1 table, an L = 299 table solves its three pressures and no
        # boundary
        solved = verification_table(REFERENCE, build_graph(REFERENCE), 16, 8, 12)
        assert len(newton_solves["spectral"]) == 3
        newton_solves["spectral"].clear()
        newton_solves["critical"].clear()
        p = ModelParams(1.0, 0.5, 1.0, 1.0, 299)
        rows = verification_table(p, build_graph(p), 16, 8, 12)
        assert newton_solves["spectral"] == []
        assert len(newton_solves["critical"]) == 3
        assert [r.name for r in rows] == [r.name for r in solved]

    def test_low_beta_hi_probes_half_of_it(self, transition_solves):
        # beta_hi <= 0.6: one probe beta at beta_hi / 2, the periodic row there
        # too, and beta_hi is solved once
        p = ModelParams(3.0, 0.2, 0.5, 3.5, 2)
        rows = verification_table(p, build_graph(p), 16, 8, 12)
        assert transition_solves == {"critical_set": 1, "bisect_log_offset": 2}
        names = [r.name for r in rows if not r.name.startswith("L_n")]
        assert len(rows) - len(names) == 11
        assert names[0].startswith("returns_to_1 beta=") and len(names) == 5
        assert names[0].split("=")[1] == names[-1].split("=")[1]

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B, ModelParams(1.0, 0.5, 1.0, 1.0, 299)],
                             ids=["A", "B", "L=299"])
    def test_table_solves_no_transition(self, params, transition_solves):
        # beta_hi > 0.6 here: one lambda_1 evaluation at 0.6 tells so
        verification_table(params, build_graph(params), 16, 8, 12)
        assert transition_solves == {"critical_set": 0, "bisect_log_offset": 0}

    @pytest.mark.parametrize("params, most", [(REFERENCE, 85), (PARAMS_B, 114)],
                             ids=["A", "B"])
    def test_beta_zero_makes_no_direct_pass(self, params, most, monkeypatch):
        # every sum at beta = 0 is geometric (s = 0), so the P(0) and P_mid(0)
        # solves make no direct pass.  Summed directly, those two solves took
        # 31 of the table's 116 passes in A and 29 of 143 in B
        exponents = []
        clear_solve_memos()  # every solve shows its passes
        real = series._direct
        monkeypatch.setattr(series, "_direct", lambda s, W, paired:
                            exponents.append(s) or real(s, W, paired))
        verification_table(params, build_graph(params), 22, 12, 20)
        assert 0.0 not in exponents
        assert len(exponents) <= most

    @pytest.mark.parametrize("params, probes", [(NEAR_SWITCH_ABOVE, ["0.25", "0.5"]),
                                                (NEAR_SWITCH_BELOW, ["0.3"])],
                             ids=["above", "below"])
    def test_probe_betas_beside_beta_hi_0_6(self, params, probes):
        rows = verification_table(params, build_graph(params), 16, 8, 12)
        assert [r.name.split("=")[1] for r in rows
                if r.name.startswith("returns_to_1")] == probes

    @pytest.mark.parametrize("params", [REFERENCE, PARAMS_B], ids=["A", "B"])
    def test_return_rows_are_the_enumerations(self, params, monkeypatch):
        # each returns_to_* row is the very record enumerate_returns_to_1/32
        # give for the beta, Z, N and graph the table passes them
        calls = []
        for name in ("enumerate_returns_to_1", "enumerate_returns_to_32"):
            real = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda *a, real=real, **k:
                                calls.append((real, a, k)) or real(*a, **k))
        graph = build_graph(params)
        rows = [r for r in verification_table(params, graph, 22, 12, 20)
                if r.name.startswith("returns_to_")]
        assert len(rows) == len(calls) == 4
        for row, (real, args, kwargs) in zip(rows, calls):
            assert kwargs["graph"] is graph
            assert row == real(*args, **kwargs)

    @given(alpha=_log_uniform, gamma=_log_uniform, delta=_log_uniform,
           epsilon=st.floats(math.log(0.1), math.log(50.0)).map(math.exp),
           L=st.integers(1, 400), variant=st.sampled_from("AB"))
    @settings(max_examples=30, deadline=None)
    def test_table_on_log_uniform_sets(self, alpha, gamma, delta, epsilon, L, variant):
        params = ModelParams(alpha, gamma, delta, epsilon, L, variant)
        rows = verification_table(params, build_graph(params), 22, 12, 20)
        for r in rows:
            assert not any(map(math.isnan, (r.analytic, r.oracle, r.gap, r.bound))), r
            # the periodic row's fixed 0.02 is no error bound: it fails on
            # some sets (25 of 600 random ones), so its verdict is not asserted
            assert r.ok or r.name.startswith("periodic orbits"), r
