import math
import random

import pytest

from butterflyshift import critical, oracle, roots, spectral
from butterflyshift.model import ModelParams, ONE, REFERENCE, TWO, build_graph

from reference_engines import ALL_TWOS, INTO_ONE, INTO_THREE_TWO, STAY_IN_WING, Word


# beta_hi within 1e-9 of 0.6, where the oracle table switches its probe
# betas: the known-fault set (alpha 3, gamma 0.2, delta 0.5, L 2) with eps at
# the two ends of a bisection of eps over [1, 3.5] (the reference and the
# known-fault eps) for beta_hi = 0.6, rounded to 10 digits.  beta_hi is
# 0.6 + 2.2e-10 above and 0.6 - 8.8e-11 below.
NEAR_SWITCH_ABOVE = ModelParams(3.0, 0.2, 0.5, 1.77902036, 2)
NEAR_SWITCH_BELOW = ModelParams(3.0, 0.2, 0.5, 1.779020361, 2)


def clear_solve_memos():
    """Empty every memo of solved roots: the critical sets, the beta_lo
    bisections and the composition boundaries, so that the next solve of any
    set shows all of its work."""
    critical.critical_set.cache_clear()
    critical._small_transition.cache_clear()
    spectral._floor_and_boundary.cache_clear()


@pytest.fixture
def transition_solves(monkeypatch):
    """Calls of critical.critical_set and of roots.bisect_log_offset from here
    on, by name; every solve memo starts empty, so that every set solved
    shows its bisections."""
    counts = {"critical_set": 0, "bisect_log_offset": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    clear_solve_memos()
    monkeypatch.setattr(critical, "critical_set",
                        counted("critical_set", critical.critical_set))
    bisect = counted("bisect_log_offset", roots.bisect_log_offset)
    monkeypatch.setattr(roots, "bisect_log_offset", bisect)
    monkeypatch.setattr(critical, "bisect_log_offset", bisect)
    return counts


@pytest.fixture
def composition_points(monkeypatch):
    """The Z of every spectral.composition call from here on, in call order;
    every solve memo starts empty."""
    points = []
    clear_solve_memos()
    real = spectral.composition

    def counted(params, beta, Z, slope=False):
        points.append(Z)
        return real(params, beta, Z, slope)

    monkeypatch.setattr(spectral, "composition", counted)
    return points


@pytest.fixture
def newton_solves(monkeypatch):
    """The floor of every Newton solve from here on, by module: "spectral"
    solves composition boundaries and "critical" pressures.  Every solve memo
    starts empty, so every boundary shows its solve."""
    floors = {"spectral": [], "critical": []}
    clear_solve_memos()
    for name, module in (("spectral", spectral), ("critical", critical)):
        def counted(F, floor, start=1.0, seen=floors[name]):
            seen.append(floor)
            return roots.newton_log_offset(F, floor, start=start)
        monkeypatch.setattr(module, "newton_log_offset", counted)
    return floors


@pytest.fixture
def lambda_evaluations(monkeypatch):
    """The Z of every lambda_1 and lambda_32 evaluation the oracle module
    makes from here on, by cylinder: "1" and "32"."""
    points = {"1": [], "32": []}
    for cyl, name in (("1", "_lambda_1"), ("32", "_lambda_32")):
        def counted(params, beta, Z, *args, real=getattr(oracle, name), seen=points[cyl]):
            seen.append(Z)
            return real(params, beta, Z, *args)
        monkeypatch.setattr(oracle, name, counted)
    return points


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
