"""Independent brute-force verifiers for the analytic formulas, and
`verification_table`: every check of the `oracle` command, with its probe
points, horizons and tolerances; the command only prints its records.

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
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import critical
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
RETURN_32_HORIZON = 20  # the table's [32] rows enumerate at most this many steps
LN_CAP = 20
# the periodic-orbit transfer matrix has n * |alphabet| states (auxiliaries
# lumped into one): n <= 14 keeps it under 100 states in variant B.  The cap
# also bounds the accepted n_period range (3..14).
PERIOD_CAP = 14
POWER_TOL = 1e-12
POWER_MAX_ITER = 20000

# tolerances of the verification table: the slack around a certified gap,
# the relative L_n check, the entropy identities and the periodic-orbit row
CONSISTENCY_SLACK = 1e-10
LN_RTOL = 1e-11
ENTROPY_TOL = 1e-8
PERIODIC_TOL = 0.02


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
        return -CONSISTENCY_SLACK <= self.gap <= self.certified_tail + CONSISTENCY_SLACK


@dataclass(frozen=True)
class Check:
    """One row of the verification table: gap = analytic - oracle."""

    name: str
    analytic: float
    oracle: float
    gap: float
    bound: float
    ok: bool


# ---------------------------------------------------------------------------
# aggregated graph-walk engine

def _return_walk(graph: TransitionGraph, params: ModelParams, beta: float,
                 Z: float, N: int, target: str) -> list[float]:
    """Per-tau first-return mass to [1] (target ONE) or [32] (target THREE).

    State = (kind, current run length); the stored mass carries the weight
    the paths would have if their current run closed right here, so each
    edge multiplies by an exact incremental potential factor.  The 2-runs
    and the wing runs step alike for both targets.

    [1]: the walk leaves 1 and returns on a step from an auxiliary or a 2
    into 1; the auxiliary symbols share one state, stepped through the first
    of them.

    [32]: the walk starts on the head 3,2 and stays off the 1-family.  A path
    standing on an unprimed 3 is one admissible step away from the re-entry
    pattern 3,2, so it finalizes there (with the head factor of the next
    cylinder divided back out); the unprimed 3 -> 2 edge is consumed by that
    return and never continues a path.
    """
    eZ = math.exp(-Z)
    w_one, w3, w4 = (math.exp(-params.alpha * beta), math.exp(params.gamma * beta),
                     math.exp((params.gamma + params.delta) * beta))
    eb = params.epsilon * beta
    two_to_two = graph.allowed(TWO, TWO)
    two_to_wings = tuple(w for w in (THREE, THREE_P) if graph.allowed(TWO, w))
    out = [0.0] * (N + 1)
    cur: dict[tuple, float] = {}
    two_to_one, blocked, finalize = False, None, None
    if target == ONE:
        start = w_one * eZ
        if graph.allowed(ONE, ONE):
            out[1] += start
        n_aux = sum(1 for s in graph.successors(ONE) if is_aux(s))
        aux = next((s for s in graph.alphabet if is_aux(s)), None)
        aux_to_one = aux is not None and graph.allowed(aux, ONE)
        n_a = 0 if aux is None else sum(1 for s in graph.successors(aux) if is_aux(s))
        two_to_one = graph.allowed(TWO, ONE)
        if n_aux:
            cur[("aux",)] = start * n_aux * w_one * eZ
        if graph.allowed(ONE, TWO):
            cur[("two", 1)] = start * 2.0 ** (-beta) * eZ
    else:  # no auxiliary state is ever entered
        blocked = THREE
        finalize = math.exp(-params.gamma * beta) * 2.0 ** eb * math.exp(Z)
        if graph.allowed(THREE, TWO):
            head = w3 * 2.0 ** (-eb) * eZ
            cur[("two", 1)] = head * 2.0 ** (-beta) * eZ
    for tau in range(2, N + 1):
        nxt: defaultdict[tuple, float] = defaultdict(float)
        for state, v in cur.items():
            kind = state[0]
            if kind == "aux":
                if aux_to_one:
                    out[tau] += v
                if n_a:
                    nxt[("aux",)] += v * n_a * w_one * eZ
            elif kind == "two":
                n = state[1]
                if two_to_one:
                    out[tau] += v
                if two_to_two:
                    nxt[("two", n + 1)] += v * ((n + 2.0) / (n + 1.0)) ** (-beta) * eZ
                for wsym in two_to_wings:
                    nxt[("wing", 1, wsym)] += v * w3 * 2.0 ** (-eb) * eZ
            else:
                m, sym = state[1], state[2]
                lo, hi = (THREE, FOUR) if sym in (THREE, FOUR) else (THREE_P, FOUR_P)
                ratio = ((m + 1.0) / (m + 2.0)) ** eb
                for tgt in graph.successors(sym):
                    if tgt == lo:
                        nxt[("wing", m + 1, tgt)] += v * w3 * ratio * eZ
                    elif tgt == hi:
                        nxt[("wing", m + 1, tgt)] += v * w4 * ratio * eZ
                    elif tgt == TWO and sym != blocked:
                        nxt[("two", 1)] += v * 2.0 ** (-beta) * eZ
        if finalize is not None:
            for state, v in nxt.items():
                if state[0] == "wing" and state[2] == THREE:
                    out[tau] += v * finalize
        cur = nxt
    return out


def dp_partial_returns_to_1(graph: TransitionGraph, params: ModelParams,
                            beta: float, Z: float, N: int) -> list[float]:
    """Per-tau first-return mass to [1]; exact aggregation of the literal walk."""
    return _return_walk(graph, params, beta, Z, N, ONE)


def dp_partial_returns_to_32(graph: TransitionGraph, params: ModelParams,
                             beta: float, Z: float, N: int) -> list[float]:
    """Per-tau first-return mass to [32]; the walk stays off the 1-family."""
    return _return_walk(graph, params, beta, Z, N, THREE)


def _renewal_tail_bound(lam_fn, params: ModelParams, beta: float, Z: float,
                        N: int, z_floor: float) -> float:
    """Bound on the mass of return words longer than N.

    For any Z' between the convergence abscissa and Z the per-length masses
    satisfy R_t <= lam(Z') e^(t Z'), giving the geometric bound
    lam(Z') e^{-(N+1)(Z-Z')} / (1 - e^{-(Z-Z')}); the minimum over a few
    probe points is still a valid certificate.
    """
    best = math.inf
    for frac in (0.25, 0.5, 0.75):
        z_probe = z_floor + frac * (Z - z_floor)
        lam = lam_fn(params, beta, z_probe)
        if not lam.defined or not math.isfinite(lam.value):
            continue
        dz = Z - z_probe
        best = min(best, lam.value * math.exp(-(N + 1) * dz) / (1.0 - math.exp(-dz)))
    return best


def _compare_returns(params: ModelParams, beta: float, Z: float, N: int,
                     graph: TransitionGraph | None, target: str) -> OracleComparison:
    """The dp walk's first-return mass to [1] or [32] against the analytic lambda."""
    if graph is None:
        graph = build_graph(params)
    if target == ONE:
        cyl, z_floor, lam_fn = "1", abscissa(params, beta).Z_c, _lambda_1
    else:
        cyl, z_floor, lam_fn = "32", abscissa_32(params, beta), _lambda_32
    if Z <= z_floor:
        raise ValueError(f"Z={Z} is not inside the [{cyl}] convergence domain (Z_c={z_floor})")
    if N > RAW_HORIZON_CAP:
        raise ValueError(f"graph-walk enumeration capped at N={RAW_HORIZON_CAP}")
    per_tau = _return_walk(graph, params, beta, Z, N, target)
    lam = lam_fn(params, beta, Z)
    if not lam.defined:
        raise ValueError(f"lambda_{cyl} undefined at the requested point")
    partial = math.fsum(per_tau)
    tail = _renewal_tail_bound(lam_fn, params, beta, Z, N, z_floor)
    return OracleComparison(lam.value, partial, lam.value - partial, tail)


def enumerate_returns_to_1(params: ModelParams, beta: float, Z: float, N: int,
                           graph: TransitionGraph | None = None) -> OracleComparison:
    """First-return enumeration to [1] (dp engine, N <= 30) vs. lambda_1 at a
    (beta, Z) strictly inside its convergence domain."""
    return _compare_returns(params, beta, Z, N, graph, ONE)


def enumerate_returns_to_32(params: ModelParams, beta: float, Z: float, N: int,
                            graph: TransitionGraph | None = None) -> OracleComparison:
    """First-return enumeration to [32] (dp engine, N <= 30) vs. lambda_32."""
    return _compare_returns(params, beta, Z, N, graph, THREE)


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
    the per-symbol weight sum against the closed form.

    Every word weight is scaled by e^-(n*beta*gamma + (n-2)*beta*delta), the
    weight of the heaviest word, so the closed form is (1+e^(-beta*delta))^(n-2)
    and no weight overflows at large gamma or delta.  Exact for every n >= 2
    (this pins the wing combinatorics and the normalization of the block
    series).  The length-n weights are built from the length-(n-1) ones, one
    entry per word and no word counted by a binomial shortcut.
    """
    if n_max > LN_CAP:
        raise ValueError(f"check_Ln capped at n_max={LN_CAP}")
    rows = []
    e3 = math.exp(-beta * params.delta)  # a 3 where the heaviest word has a 4
    weights = np.array([1.0])  # the word 3,3
    for n in range(2, n_max + 1):
        if n > 2:
            # each length-(n-1) word with a 3 or a 4 put in before its last 3
            weights = np.concatenate([weights * e3, weights])
        enumerated = float(weights.sum())
        closed = (1.0 + e3) ** (n - 2)
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
    state multiplies by exp(beta * (phi(symbol, d) - top)), where top is the
    largest state potential (gamma + delta once a 4 is present), and
    beta * top is added back to the logarithm, so no weight overflows; the
    weight-identical auxiliary symbols are lumped into one state of
    multiplicity L.
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
    phi = [[_state_potential(params, s, d) for d in range(n)] for s in rep]
    top = max(map(max, phi))
    weight = np.array([[(params.L if s == aux else 1.0) * math.exp(beta * (p - top))
                        for p in row] for s, row in zip(rep, phi)])
    M *= weight  # over the last two axes: the state entered
    M = M.reshape(k * n, k * n)
    return math.log(float(np.trace(np.linalg.matrix_power(M, n)))) / n + beta * top


def richardson_orbit_pressure(params: ModelParams, beta: float, n: int,
                              graph: TransitionGraph | None = None) -> float:
    """Richardson extrapolation of the period-n and period-(n-2) estimates."""
    p_n = periodic_orbit_pressure(params, beta, n, graph)
    p_m = periodic_orbit_pressure(params, beta, n - 2, graph)
    return (n * p_n - (n - 2) * p_m) / 2.0


# ---------------------------------------------------------------------------
# the verification table

def _check(name: str, analytic: float, oracle: float, bound: float) -> Check:
    """A row whose oracle must match the analytic value to within +-bound."""
    gap = analytic - oracle
    return Check(name, analytic, oracle, gap, bound, abs(gap) <= bound)


def _certified(name: str, cmp: OracleComparison) -> Check:
    return Check(name, cmp.analytic, cmp.enumerated_partial, cmp.gap,
                 cmp.certified_tail, cmp.consistent)


def verification_table(params: ModelParams, graph: TransitionGraph, n_return: int,
                        n_period: int, n_ln: int) -> list[Check]:
    """Every check of the `oracle` command, in the order it prints them.

    The wing-word counts at beta = 1 (rows "L_n n=..."); the return masses to
    [1] and [32] on `graph` at beta = 0.25 and 0.5, or at beta_hi / 2 alone
    when beta_hi <= 0.6; the beta = 0 entropies; and the Richardson
    periodic-orbit estimate at the last of those betas.
    """
    rows = [_check(f"L_n n={n}", closed, enum, LN_RTOL * abs(closed))
            for n, enum, closed in check_Ln(params, 1.0, n_ln)]
    crit = critical.critical_set(params)
    betas = [0.25, 0.5] if crit.beta_hi > 0.6 else [0.5 * crit.beta_hi]
    pressures = {b: critical.pressure_full(params, b) for b in betas}
    for b in betas:
        cmp1 = enumerate_returns_to_1(params, b, pressures[b] + 0.2, n_return, graph=graph)
        rows.append(_certified(f"returns_to_1 beta={b:g}", cmp1))
        Z32 = max(critical.pressure_34(params, b) + 0.3, abscissa_32(params, b) + 0.2)
        cmp2 = enumerate_returns_to_32(params, b, Z32, min(n_return, RETURN_32_HORIZON),
                                       graph=graph)
        rows.append(_certified(f"returns_to_32 beta={b:g}", cmp2))
    rows.append(_check("entropy vs P(0)", critical.pressure_full(params, 0.0),
                       incidence_entropy(graph), ENTROPY_TOL))
    rows.append(_check("entropy vs P_mid(0)", critical.pressure_mid(params, 0.0),
                       incidence_entropy(graph, restrict_to=no_one_family(graph)),
                       ENTROPY_TOL))
    b = betas[-1]
    rows.append(_check(f"periodic orbits beta={b:g}", pressures[b],
                       richardson_orbit_pressure(params, b, n_period, graph=graph),
                       PERIODIC_TOL))
    return rows
