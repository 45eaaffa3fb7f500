"""Independent brute-force verifiers for the analytic formulas.

Return-word enumeration runs on one engine, "dp": a walk over the transition
graph with weight-equivalent paths aggregated by (symbol kind, current run
length).  It is exact, linear in the horizon, and driven edge-by-edge by the
graph, so a corrupted edge set changes its output; the acceptance suite and
the `oracle` command run it.  The test suite keeps the rawer reference
engines it is checked against (literal word enumeration, run-length
convolution, depth-first periodic-point enumeration).

Plus wing-block counting against the closed form, incidence-matrix entropy,
and periodic-orbit pressure as the trace of a run-length transfer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FOUR,
    FOUR_P,
    ModelParams,
    ONE,
    THREE,
    THREE_P,
    TransitionGraph,
    TWO,
    build_graph,
    is_aux,
    is_one_family,
    wing_pressure,
)
from .spectral import (
    abscissa,
    composition_boundary,
    lambda_1 as _lambda_1,
    lambda_32 as _lambda_32,
)

RAW_HORIZON_CAP = 30
# the periodic-orbit transfer matrix has n * |alphabet| states (auxiliaries
# lumped into one): n <= 14 keeps it under 100 states in variant B.  The cap
# also bounds the accepted n_period range (3..14).
PERIOD_CAP = 14
POWER_TOL = 1e-12
POWER_MAX_ITER = 20000


@dataclass(frozen=True)
class OracleComparison:
    """Analytic value vs. enumerated partial sum, with a certified tail.

    All weights are positive, so the enumeration approaches the analytic
    value from below: 0 <= gap <= certified_tail whenever the analytic
    formula and the graph agree.
    """

    analytic: float
    enumerated_partial: float
    gap: float
    certified_tail: float

    @property
    def consistent(self) -> bool:
        return -1e-10 <= self.gap <= self.certified_tail + 1e-10


# ---------------------------------------------------------------------------
# aggregated graph-walk engine

def _weights(params: ModelParams, beta: float):
    return (math.exp(-params.alpha * beta),
            math.exp(params.gamma * beta),
            math.exp((params.gamma + params.delta) * beta))


def _wing_family(sym: str) -> tuple[str, str]:
    return (THREE, FOUR) if sym in (THREE, FOUR) else (THREE_P, FOUR_P)


def _two_step_flags(graph: TransitionGraph) -> tuple[bool, bool, tuple[str, ...]]:
    """allowed(2, 1), allowed(2, 2), and the wing entries 3 / 3' a 2 may step to."""
    return (graph.allowed(TWO, ONE), graph.allowed(TWO, TWO),
            tuple(w for w in (THREE, THREE_P) if graph.allowed(TWO, w)))


def dp_partial_returns_to_1(graph: TransitionGraph, params: ModelParams,
                            beta: float, Z: float, N: int) -> list[float]:
    """Per-tau first-return mass to [1]; exact aggregation of the literal walk.

    State = (kind, current run length); the stored mass carries the weight
    the paths would have if their current run closed right here, so each
    edge multiplies by an exact incremental potential factor.  The auxiliary
    symbols share one state, stepped through the first of them.
    """
    eZ = math.exp(-Z)
    w_one, w3, w4 = _weights(params, beta)
    eb = params.epsilon * beta
    n_aux = sum(1 for s in graph.successors(ONE) if is_aux(s))
    aux = next((s for s in graph.alphabet if is_aux(s)), None)
    aux_to_one = aux is not None and graph.allowed(aux, ONE)
    n_a = 0 if aux is None else sum(1 for s in graph.successors(aux) if is_aux(s))
    two_to_one, two_to_two, two_to_wings = _two_step_flags(graph)
    out = [0.0] * (N + 1)
    start = w_one * eZ
    if graph.allowed(ONE, ONE):
        out[1] += start
    cur: dict[tuple, float] = {}
    if n_aux:
        cur[("aux",)] = start * n_aux * w_one * eZ
    if graph.allowed(ONE, TWO):
        cur[("two", 1)] = start * 2.0 ** (-beta) * eZ
    for tau in range(2, N + 1):
        nxt: dict[tuple, float] = {}

        def put(state: tuple, v: float) -> None:
            nxt[state] = nxt.get(state, 0.0) + v

        for state, v in cur.items():
            kind = state[0]
            if kind == "aux":
                if aux_to_one:
                    out[tau] += v
                if n_a:
                    put(("aux",), v * n_a * w_one * eZ)
            elif kind == "two":
                n = state[1]
                if two_to_one:
                    out[tau] += v
                if two_to_two:
                    put(("two", n + 1), v * ((n + 2.0) / (n + 1.0)) ** (-beta) * eZ)
                for wsym in two_to_wings:
                    put(("wing", 1, wsym), v * w3 * 2.0 ** (-eb) * eZ)
            else:
                m, sym = state[1], state[2]
                lo, hi = _wing_family(sym)
                ratio = ((m + 1.0) / (m + 2.0)) ** eb
                for tgt in graph.successors(sym):
                    if tgt == lo:
                        put(("wing", m + 1, tgt), v * w3 * ratio * eZ)
                    elif tgt == hi:
                        put(("wing", m + 1, tgt), v * w4 * ratio * eZ)
                    elif tgt == TWO:
                        put(("two", 1), v * 2.0 ** (-beta) * eZ)
        cur = nxt
    return out


def dp_partial_returns_to_32(graph: TransitionGraph, params: ModelParams,
                             beta: float, Z: float, N: int) -> list[float]:
    """Per-tau first-return mass to [32]; the walk stays off the 1-family.

    A path standing on an unprimed 3 is one admissible step away from the
    re-entry pattern 3,2, so it finalizes there (with the head factor of the
    next cylinder divided back out); the unprimed 3 -> 2 edge is consumed by
    that return and never continues a path.
    """
    eZ = math.exp(-Z)
    _, w3, w4 = _weights(params, beta)
    eb = params.epsilon * beta
    _, two_to_two, two_to_wings = _two_step_flags(graph)
    out = [0.0] * (N + 1)
    finalize = math.exp(-params.gamma * beta) * 2.0 ** eb * math.exp(Z)
    cur: dict[tuple, float] = {}
    if graph.allowed(THREE, TWO):
        head = w3 * 2.0 ** (-eb) * eZ
        cur[("two", 1)] = head * 2.0 ** (-beta) * eZ
    for t in range(3, N + 2):
        nxt: dict[tuple, float] = {}

        def put(state: tuple, v: float) -> None:
            nxt[state] = nxt.get(state, 0.0) + v

        for state, v in cur.items():
            if state[0] == "two":
                n = state[1]
                if two_to_two:
                    put(("two", n + 1), v * ((n + 2.0) / (n + 1.0)) ** (-beta) * eZ)
                for wsym in two_to_wings:
                    put(("wing", 1, wsym), v * w3 * 2.0 ** (-eb) * eZ)
            else:
                m, sym = state[1], state[2]
                lo, hi = _wing_family(sym)
                ratio = ((m + 1.0) / (m + 2.0)) ** eb
                for tgt in graph.successors(sym):
                    if tgt == lo:
                        put(("wing", m + 1, tgt), v * w3 * ratio * eZ)
                    elif tgt == hi:
                        put(("wing", m + 1, tgt), v * w4 * ratio * eZ)
                    elif tgt == TWO and sym != THREE:
                        put(("two", 1), v * 2.0 ** (-beta) * eZ)
        if t - 1 <= N:
            for state, v in nxt.items():
                if state[0] == "wing" and state[2] == THREE:
                    out[t - 1] += v * finalize
        cur = nxt
    return out


def _renewal_tail_bound(params: ModelParams, beta: float, Z: float, N: int,
                        z_floor: float, lam_of) -> float:
    """Bound on the mass of return words longer than N.

    For any Z' between the convergence abscissa and Z the per-length masses
    satisfy R_t <= lam(Z') e^(t Z'), giving the geometric bound
    lam(Z') e^{-(N+1)(Z-Z')} / (1 - e^{-(Z-Z')}); the minimum over a few
    probe points is still a valid certificate.
    """
    best = math.inf
    for frac in (0.25, 0.5, 0.75):
        z_probe = z_floor + frac * (Z - z_floor)
        lam = lam_of(z_probe)
        if lam is None or not math.isfinite(lam):
            continue
        dz = Z - z_probe
        best = min(best, lam * math.exp(-(N + 1) * dz) / (1.0 - math.exp(-dz)))
    return best


def enumerate_returns_to_1(params: ModelParams, beta: float, Z: float, N: int,
                           graph: TransitionGraph | None = None) -> OracleComparison:
    """Exhaustive first-return enumeration to [1] vs. the analytic lambda.

    The (beta, Z) point must lie strictly inside the convergence domain.
    Runs on the graph-walk ("dp") engine, N <= 30.
    """
    if graph is None:
        graph = build_graph(params)
    rep = abscissa(params, beta)
    if Z <= rep.Z_c:
        raise ValueError(f"Z={Z} is not inside the convergence domain (Z_c={rep.Z_c})")
    if N > RAW_HORIZON_CAP:
        raise ValueError(f"graph-walk enumeration capped at N={RAW_HORIZON_CAP}")
    per_tau = dp_partial_returns_to_1(graph, params, beta, Z, N)
    lam = _lambda_1(params, beta, Z)
    if not lam.defined:
        raise ValueError("lambda_1 undefined at the requested point")
    partial = math.fsum(per_tau)
    tail = _renewal_tail_bound(
        params, beta, Z, N, rep.Z_c,
        lambda z: (lambda s: s.value if s.defined else None)(_lambda_1(params, beta, z)))
    return OracleComparison(lam.value, partial, lam.value - partial, tail)


def enumerate_returns_to_32(params: ModelParams, beta: float, Z: float, N: int,
                            graph: TransitionGraph | None = None) -> OracleComparison:
    """Exhaustive first-return enumeration to [32] vs. the analytic lambda.

    Runs on the graph-walk ("dp") engine only.
    """
    if graph is None:
        graph = build_graph(params)
    z_floor = abscissa_32(params, beta)
    if Z <= z_floor:
        raise ValueError(f"Z={Z} is not inside the [32] convergence domain (Z_c={z_floor})")
    if N > RAW_HORIZON_CAP:
        raise ValueError(f"graph-walk enumeration capped at N={RAW_HORIZON_CAP}")
    per_tau = dp_partial_returns_to_32(graph, params, beta, Z, N)
    lam = _lambda_32(params, beta, Z)
    if not lam.defined:
        raise ValueError("lambda_32 undefined at the requested point")
    partial = math.fsum(per_tau)
    tail = _renewal_tail_bound(
        params, beta, Z, N, z_floor,
        lambda z: (lambda s: s.value if s.defined else None)(_lambda_32(params, beta, z)))
    return OracleComparison(lam.value, partial, lam.value - partial, tail)


def abscissa_32(params: ModelParams, beta: float) -> float:
    floor = wing_pressure(params, beta)
    if params.variant == "A":
        return floor
    one_wing = ModelParams(params.alpha, params.gamma, params.delta,
                           params.epsilon, params.L, "A")
    boundary = composition_boundary(one_wing, beta)  # Sigma2*Sigma3 = 1
    return boundary if boundary is not None else floor


# ---------------------------------------------------------------------------
# wing-block counting, incidence entropy, periodic orbits

def check_Ln(params: ModelParams, beta: float, n_max: int) -> list[tuple[int, float, float]]:
    """Enumerate all wing words w in {3,4}^n with w_0 = w_{n-1} = 3 and compare
    the per-symbol weight sum against e^(n*beta*gamma) (1+e^(beta*delta))^(n-2).

    Exact for every n >= 2 (this pins the wing combinatorics and the
    normalization of the block series).  The length-n weights are built from
    the length-(n-1) ones, one entry per word and no word counted by a
    binomial shortcut.
    """
    if n_max > 20:
        raise ValueError("check_Ln capped at n_max=20")
    rows = []
    g, d = params.gamma, params.delta
    e3, e4 = math.exp(beta * g), math.exp(beta * (g + d))
    weights = np.array([e3 * e3])  # the word 3,3
    for n in range(2, n_max + 1):
        if n > 2:
            # each length-(n-1) word with a 3 or a 4 put in before its last 3
            weights = np.concatenate([weights * e3, weights * e4])
        enumerated = float(weights.sum())
        closed = math.exp(n * beta * g) * (1.0 + math.exp(beta * d)) ** (n - 2)
        rows.append((n, enumerated, closed))
    return rows


def incidence_matrix(graph: TransitionGraph, restrict_to=None) -> np.ndarray:
    """The 0/1 adjacency matrix (as floats), on the symbols of `restrict_to`
    if given, in alphabet order."""
    keep = None if restrict_to is None else set(restrict_to)
    sel = [i for i, s in enumerate(graph.alphabet) if keep is None or s in keep]
    return graph.adjacency[np.ix_(sel, sel)].astype(float)


def incidence_entropy(graph: TransitionGraph, restrict_to=None) -> float:
    """log of the spectral radius of the 0/1 incidence matrix, by power iteration."""
    M = incidence_matrix(graph, restrict_to)
    v = np.ones(M.shape[0]) / math.sqrt(M.shape[0])
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        w = M @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return -math.inf
        v_new = w / nrm
        lam_new = float(v_new @ (M @ v_new))
        if abs(lam_new - lam) < POWER_TOL * max(1.0, lam_new):
            return math.log(lam_new)
        v, lam = v_new, lam_new
    return math.log(lam)


def no_one_family(graph: TransitionGraph) -> tuple[str, ...]:
    return tuple(s for s in graph.alphabet if not is_one_family(s))


def _state_potential(params: ModelParams, sym: str, d: int) -> float:
    """phi at `sym` when its run-length distance is d (0: the run never ends).

    The distance is to the next 2 for a symbol other than 2, and to the next
    symbol that is not a 2 for a 2; an unbounded run has no logarithmic
    correction.
    """
    if is_one_family(sym):
        return -params.alpha
    correction = math.log1p(1.0 / d) if d else 0.0
    if sym == TWO:
        return -correction
    base = params.gamma + (params.delta if sym in (FOUR, FOUR_P) else 0.0)
    return base - params.epsilon * correction


def periodic_orbit_pressure(params: ModelParams, beta: float, n: int,
                            graph: TransitionGraph | None = None) -> float:
    """(1/n) log sum over admissible period-n points of exp(beta * S_n phi).

    Run lengths wrap around the period; a run that never terminates (the
    all-2 cycle, cycles without a 2) uses the infinite-run convention of a
    vanishing logarithmic correction.  Points, not orbits, are counted: every
    admissible cyclic n-tuple contributes once.

    The sum is trace(M^n) for a transfer matrix M on states (symbol, d).  For
    a symbol other than 2, d in 1..n-1 is the distance to the next 2 (counted
    through any non-2 symbols, the 1-family included); for a 2 it is the
    distance to the next symbol that is not a 2; d = 0 marks a run that never
    ends.  Along each allowed edge, d > 1 steps to d - 1 in the same class
    (2 or not 2), d = 1 enters the other class at any d' in 1..n-1, and d = 0
    stays at d' = 0 in the same class.  A closed walk of length n therefore
    fixes every distance of its cyclic word, and each period-n point has
    exactly one such walk: the trace equals the sum over points.  Entering a
    state multiplies by exp(beta * phi(symbol, d)); the weight-identical
    auxiliary symbols are lumped into one state of multiplicity L.
    """
    if n > PERIOD_CAP:
        raise ValueError(f"periodic_orbit_pressure capped at n={PERIOD_CAP}")
    if graph is None:
        graph = build_graph(params)
    rep = [s for s in graph.alphabet if not is_aux(s)]
    aux = next((s for s in graph.alphabet if is_aux(s)), None)
    if aux is not None:
        rep.append(aux)
    index = {s: i for i, s in enumerate(rep)}
    k = len(rep)
    M = np.zeros((k, n, k, n))
    for i, a in enumerate(rep):
        for b in graph.successors(a):
            j = index.get(b)
            if j is None:  # an auxiliary lumped into `aux`
                continue
            if (a == TWO) == (b == TWO):
                M[i, 0, j, 0] = 1.0
                for d in range(2, n):
                    M[i, d, j, d - 1] = 1.0
            else:
                M[i, 1:2, j, 1:] = 1.0  # a slice: at n = 1 there is no d = 1
    weight = np.array([[(params.L if s == aux else 1.0)
                        * math.exp(beta * _state_potential(params, s, d))
                        for d in range(n)] for s in rep])
    M *= weight  # over the last two axes: the state entered
    M = M.reshape(k * n, k * n)
    return math.log(float(np.trace(np.linalg.matrix_power(M, n)))) / n


def richardson_orbit_pressure(params: ModelParams, beta: float, n: int,
                              graph: TransitionGraph | None = None) -> float:
    """Richardson extrapolation of the period-n and period-(n-2) estimates."""
    p_n = periodic_orbit_pressure(params, beta, n, graph)
    p_m = periodic_orbit_pressure(params, beta, n - 2, graph)
    return (n * p_n - (n - 2) * p_m) / 2.0
