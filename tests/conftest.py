import math
import random

import pytest

from butterflyshift.model import ModelParams, ONE, REFERENCE, TWO, build_graph

from reference_engines import ALL_TWOS, INTO_ONE, INTO_THREE_TWO, STAY_IN_WING, Word


@pytest.fixture
def params():
    return REFERENCE


@pytest.fixture
def params_b():
    return ModelParams(alpha=1.0, gamma=0.5, delta=1.0, epsilon=1.0, L=1, variant="B")


@pytest.fixture
def graph(params):
    return build_graph(params)


@pytest.fixture
def graph_b(params_b):
    return build_graph(params_b)


def random_admissible_word(graph, rng: random.Random, length: int) -> Word:
    """Uniform-ish random walk on the graph, with a continuation that fits."""
    sym = rng.choice(graph.alphabet)
    symbols = [sym]
    while len(symbols) < length:
        sym = rng.choice(graph.successors(sym))
        symbols.append(sym)
    last = symbols[-1]
    options = []
    if graph.allowed(last, ONE):
        options.append(INTO_ONE)
    if graph.allowed(last, "3"):
        options.append(INTO_THREE_TWO)
    if graph.allowed(last, TWO):
        options.append(ALL_TWOS)
    if any(graph.allowed(last, w) for w in ("3", "4", "3'", "4'") if w in graph.alphabet):
        options.append(STAY_IN_WING)
    return Word(tuple(symbols), rng.choice(options))


def assert_close(a, b, tol, msg=""):
    assert math.isfinite(a) and math.isfinite(b), f"{msg}: non-finite {a}, {b}"
    assert abs(a - b) <= tol, f"{msg}: |{a} - {b}| = {abs(a-b)} > {tol}"
