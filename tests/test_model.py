import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterflyshift.model import (
    ModelParams,
    ONE,
    REFERENCE,
    THREE,
    TWO,
    TransitionGraph,
    aux_symbol,
    build_graph,
    wing_pressure,
)
from butterflyshift.oracle import incidence_matrix, no_one_family

from conftest import assert_close, random_admissible_word
from reference_engines import (
    ALL_TWOS,
    INTO_ONE,
    INTO_THREE_TWO,
    STAY_IN_WING,
    LookaheadError,
    Word,
    alphabet_for,
    birkhoff_sum,
    birkhoff_weight,
    class_members,
    continuation_consistent,
    edge_graph,
    edge_set,
    expanded_graph,
    is_admissible,
    is_irreducible,
    mirror_word,
    phi_at,
)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=-1.0, gamma=0.5, delta=1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, gamma=0.5, delta=1.0, epsilon=1.0, L=0)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, gamma=0.5, delta=1.0, epsilon=1.0, variant="C")

    def test_variant_b_alphabet(self, params_b):
        g = build_graph(params_b)
        assert "3'" in g.alphabet and "4'" in g.alphabet
        g_a = build_graph(REFERENCE)
        assert "3'" not in g_a.alphabet


class TestGraph:
    def test_variant_a_edges(self, graph):
        a1 = aux_symbol(1)
        present = [(ONE, ONE), (ONE, a1), (ONE, TWO), (a1, ONE), (a1, a1),
                   (TWO, ONE), (TWO, TWO), (TWO, THREE), (THREE, TWO),
                   (THREE, THREE), (THREE, "4"), ("4", THREE), ("4", "4")]
        for e in present:
            assert graph.allowed(*e), e
        absent = [("4", TWO), (THREE, ONE), ("4", ONE), (ONE, THREE),
                  (a1, TWO), (TWO, "4")]
        for e in absent:
            assert not graph.allowed(*e), e

    def test_variant_b_edges(self, graph_b):
        for e in [(TWO, "3'"), ("3'", TWO), ("3'", "3'"), ("3'", "4'"),
                  ("4'", "3'"), ("4'", "4'")]:
            assert graph_b.allowed(*e), e
        for e in [("4'", TWO), (THREE, "3'"), ("3'", THREE), ("4'", "4"),
                  (ONE, "3'")]:
            assert not graph_b.allowed(*e), e

    @pytest.mark.parametrize("variant,L", [("A", 1), ("A", 3), ("B", 1), ("B", 5)])
    def test_irreducible(self, variant, L):
        p = ModelParams(1.0, 0.5, 1.0, 1.0, L=L, variant=variant)
        assert is_irreducible(build_graph(p))

    def test_corrupted_graph_hook(self, params):
        g = build_graph(params, extra_edges=[("4", TWO)])
        assert g.allowed("4", TWO)
        g2 = edge_graph(params, drop_edges=[(THREE, THREE)])
        assert not g2.allowed(THREE, THREE)

    def test_is_admissible_examples(self, graph):
        assert is_admissible(graph, (THREE, TWO, ONE))
        assert not is_admissible(graph, ("4", TWO))
        assert not is_admissible(graph, (THREE, ONE))

    def test_continuation_consistency(self, graph):
        assert continuation_consistent(graph, Word((TWO,), INTO_ONE))
        assert not continuation_consistent(graph, Word((THREE,), INTO_ONE))
        assert continuation_consistent(graph, Word((THREE,), ALL_TWOS))
        assert not continuation_consistent(graph, Word(("4",), ALL_TWOS))
        assert continuation_consistent(graph, Word(("4",), STAY_IN_WING))
        assert continuation_consistent(graph, Word((TWO,), INTO_THREE_TWO))
        assert not continuation_consistent(graph, Word((aux_symbol(1),), INTO_THREE_TWO))


class TestAdjacencyMatchesEdgeSet:
    """The block-filled adjacency matrix against the graph added edge by edge."""

    @staticmethod
    def corruption(name, L):
        aux = aux_symbol(min(L, 2))  # 1_2, or 1_1 at L = 1
        return {
            "clean": ((), ()),
            "4:2": ((("4", TWO),), ()),
            "4:1": ((("4", ONE),), ()),
            "aux:2": (((aux, TWO),), ()),
            "drop 3:3": ((), ((THREE, THREE),)),
            "drop aux:1": ((), ((aux, ONE),)),
        }[name]

    @pytest.mark.parametrize("name", ["clean", "4:2", "4:1", "aux:2", "drop 3:3", "drop aux:1"])
    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("L", [1, 7, 300])
    def test_same_graph(self, L, variant, name):
        params = ModelParams(1.0, 0.5, 1.0, 1.0, L, variant)
        extra, drop = self.corruption(name, L)
        classes = build_graph(params, extra_edges=extra)
        edges = edge_set(params, extra, drop)
        alphabet = alphabet_for(params)
        members = class_members(classes, params)
        assert [len(members[c]) for c in classes.alphabet] == classes.multiplicity.tolist()
        assert sorted(sum(members.values(), [])) == sorted(alphabet)
        graph = expanded_graph(classes, params)
        if drop:
            # a hole in the block fill: the views of an adjacency no build makes
            adj = graph.adjacency.copy()
            for a, b in drop:
                adj[alphabet.index(a), alphabet.index(b)] = False
            graph = TransitionGraph(alphabet, adj)
        else:
            # the classes are equitable: each symbol of class i steps to as
            # many symbols of class j as the count matrix says
            count = incidence_matrix(classes)
            for i, c in enumerate(classes.alphabet):
                for a in members[c]:
                    assert [sum((a, b) in edges for b in members[d])
                            for d in classes.alphabet] == count[i].tolist(), a
        assert graph.alphabet == alphabet
        assert graph.edges == edges
        for s in alphabet:
            assert graph.successors(s) == tuple(t for t in alphabet if (s, t) in edges), s
        for restrict in (None, no_one_family(graph)):
            syms = [s for s in alphabet if restrict is None or s in restrict]
            ref = np.array([[1.0 if (a, b) in edges else 0.0 for b in syms] for a in syms])
            assert np.array_equal(incidence_matrix(graph, restrict), ref)

    @pytest.mark.parametrize("variant, n_classes", [("A", 5), ("B", 7)])
    def test_classes_do_not_grow_with_L(self, variant, n_classes):
        # the auxiliaries no edge names are one class, however many there are
        params = ModelParams(1.0, 0.5, 1.0, 1.0, 3000, variant)
        graph = build_graph(params)
        assert len(graph.alphabet) == n_classes
        assert graph.multiplicity.sum() == len(alphabet_for(params))
        assert graph.multiplicity.tolist() == [1] * (n_classes - 1) + [3000]
        named = build_graph(params, extra_edges=[("1_2", TWO), ("1_3000", "1")])
        assert named.alphabet[-3:] == ("1_1", "1_2", "1_3000")
        assert named.multiplicity.tolist()[-3:] == [2998, 1, 1]

    def test_unknown_symbol_raises(self, params):
        for edge in (("5", TWO), (TWO, aux_symbol(2))):
            with pytest.raises(ValueError, match="outside the alphabet"):
                build_graph(params, extra_edges=[edge])

    def test_adjacency_of_wrong_shape_raises(self):
        for adj in (np.ones((3, 3)), np.ones((2, 3)), np.ones(4), np.ones((2, 2, 1))):
            with pytest.raises(ValueError, match="over 2 symbols"):
                TransitionGraph((THREE, "4"), adj)
        for mult in ([1], [1, 0], [[1, 1]]):
            with pytest.raises(ValueError, match="over 2 symbols"):
                TransitionGraph((THREE, "4"), np.ones((2, 2)), mult)
        assert TransitionGraph((THREE, "4"), np.ones((2, 2))).edges == {
            (THREE, THREE), (THREE, "4"), ("4", THREE), ("4", "4")}


class TestPotential:
    def test_two_run_telescoping(self, params):
        # one maximal 2-run of length n followed by a non-2: sums to -log(n+1)
        for n in (1, 2, 5, 17):
            w = Word((TWO,) * n + (THREE,), STAY_IN_WING)
            run_sum = math.fsum(phi_at(params, w, i) for i in range(n))
            assert_close(run_sum, -math.log(n + 1), 1e-12, f"run n={n}")

    def test_all_twos_word_is_zero(self, params):
        w = Word((TWO, TWO, TWO), ALL_TWOS)
        for i in range(3):
            assert phi_at(params, w, i) == 0.0

    def test_wing_stay_in_wing_values(self, params):
        w = Word((THREE, "4", THREE), STAY_IN_WING)
        values = [phi_at(params, w, i) for i in range(3)]
        assert values == [params.gamma, params.gamma + params.delta, params.gamma]

    def test_wing_telescoping(self, params):
        # maximal {3,4}-block of length m followed by a 2: epsilon-corrections
        # sum to -epsilon*log(m+1)
        rng = random.Random(7)
        for m in (1, 2, 3, 8):
            block = [THREE]
            for _ in range(m - 2):
                block.append(rng.choice([THREE, "4"]))
            if m >= 2:
                block.append(THREE)
            w = Word(tuple(block) + (TWO,), ALL_TWOS)
            base = sum(params.gamma + (params.delta if s == "4" else 0.0) for s in block)
            corr = math.fsum(phi_at(params, w, i) for i in range(m)) - base
            assert_close(corr, -params.epsilon * math.log(m + 1), 1e-12, f"block m={m}")

    def test_one_family(self, params):
        w = Word((ONE, aux_symbol(1)), INTO_ONE)
        assert phi_at(params, w, 0) == -params.alpha
        assert phi_at(params, w, 1) == -params.alpha

    def test_lookahead_error(self, params):
        w = Word((THREE,), INTO_ONE)  # a wing symbol cannot be followed by 1
        with pytest.raises(LookaheadError):
            phi_at(params, w, 0)

    def test_into_three_two_resolves_wing_tail(self, params):
        # trailing wing block continued by 3,2: the block ends one symbol later
        w = Word((TWO, THREE), INTO_THREE_TWO)
        # the 3 sits at distance 2 from the next 2 (suffix is 3 then 2)
        expect = params.gamma - params.epsilon * math.log(3 / 2)
        assert_close(phi_at(params, w, 1), expect, 1e-15)


class TestBirkhoffWeight:
    def test_single_one(self, params):
        w = Word((ONE,), INTO_ONE)
        beta, Z = 0.7, 0.3
        assert_close(birkhoff_weight(params, w, beta, Z),
                     math.exp(-params.alpha * beta - Z), 1e-15)

    def test_one_two(self, params):
        w = Word((ONE, TWO), INTO_ONE)
        beta, Z = 0.7, 0.3
        expect = math.exp(-params.alpha * beta) * 2.0 ** -beta * math.exp(-2 * Z)
        assert_close(birkhoff_weight(params, w, beta, Z), expect, 1e-15)

    def test_one_aux(self, params):
        w = Word((ONE, aux_symbol(1)), INTO_ONE)
        beta, Z = 0.7, 0.3
        expect = math.exp(-2 * params.alpha * beta - 2 * Z)
        assert_close(birkhoff_weight(params, w, beta, Z), expect, 1e-15)

    def test_positive(self, graph, params):
        rng = random.Random(3)
        for _ in range(50):
            w = random_admissible_word(graph, rng, rng.randint(1, 12))
            assert birkhoff_weight(params, w, 0.8, 1.1) > 0.0


class TestMirrorSymmetry:
    @given(seed=st.integers(0, 10_000), length=st.integers(1, 14))
    @settings(max_examples=60, deadline=None)
    def test_mirror_preserves_weight_and_admissibility(self, seed, length):
        params_b = ModelParams(1.0, 0.5, 1.0, 1.0, 1, "B")
        graph = build_graph(params_b)
        rng = random.Random(seed)
        w = random_admissible_word(graph, rng, length)
        mw = mirror_word(w)
        assert is_admissible(graph, mw.symbols)
        try:
            direct = birkhoff_sum(params_b, w)
        except LookaheadError:
            return
        assert_close(birkhoff_sum(params_b, mw), direct, 1e-12)


class TestWingPressure:
    def test_at_zero(self, params):
        assert_close(wing_pressure(params, 0.0), math.log(2.0), 1e-15)

    def test_overflow_safe(self, params):
        p = ModelParams(1.0, 0.5, 20.0, 1.0)
        v = wing_pressure(p, 50.0)
        assert math.isfinite(v)
        assert_close(v, 0.5 * 50 + 20.0 * 50, 1e-9)
