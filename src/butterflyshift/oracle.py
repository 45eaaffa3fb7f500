"""Independent brute-force verifiers for the analytic formulas.

Three return-word engines, in decreasing order of rawness:

  * "literal": depth-first enumeration of actual words over the transition
    graph, each weighted through the model's per-position potential.  Fully
    independent of every closed form; exponential, so capped at small
    horizons.  This is the ground truth the other engines are tested against.
  * "dp": the same walk with weight-equivalent paths aggregated by
    (symbol kind, current run length).  Exact, linear in the horizon, and
    still driven edge-by-edge by the graph, so a corrupted edge set changes
    its output; the acceptance suite runs this engine.
  * "compressed": renewal convolution over (2-string, wing-block) run
    lengths; shares the block counting with the analytic formula and exists
    for deep-horizon confidence only.

Plus wing-block counting against the closed form, incidence-matrix entropy,
and periodic-orbit pressure estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FOUR,
    FOUR_P,
    INTO_ONE,
    INTO_THREE_TWO,
    ModelParams,
    ONE,
    THREE,
    THREE_P,
    TransitionGraph,
    TWO,
    Word,
    birkhoff_weight,
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
    wing_multiplicity,
)

RAW_HORIZON_CAP = 30
LITERAL_HORIZON_CAP = 14
PERIOD_CAP = 14
POWER_TOL = 1e-12
POWER_MAX_ITER = 20000


@dataclass(frozen=True)
class ReturnWord:
    word: Word
    tau: int
    weight: float


@dataclass(frozen=True)
class OracleComparison:
    """Analytic value vs. enumerated partial sum, with a certified tail.

    All weights are positive, so the enumeration approaches the analytic
    value from below: 0 <= gap <= certified_tail whenever the analytic
    formula and the graph agree.
    """

    analytic: float
    enumerated_partial: float
    horizon_N: int
    enumeration_count: int
    gap: float
    certified_tail: float

    @property
    def consistent(self) -> bool:
        return -1e-10 <= self.gap <= self.certified_tail + 1e-10


# ---------------------------------------------------------------------------
# literal engine

def return_words_to_1(graph: TransitionGraph, params: ModelParams, beta: float,
                      Z: float, N: int) -> list[ReturnWord]:
    """Every first-return word to [1] with tau <= N, explicitly, with weights."""
    if N > LITERAL_HORIZON_CAP:
        raise ValueError(f"literal enumeration capped at N={LITERAL_HORIZON_CAP}")
    out: list[ReturnWord] = []

    def rec(symbols: list[str]) -> None:
        tau = len(symbols)
        last = symbols[-1]
        if graph.allowed(last, ONE):
            w = Word(tuple(symbols), INTO_ONE)
            out.append(ReturnWord(w, tau, birkhoff_weight(params, w, beta, Z)))
        if tau == N:
            return
        for nxt in graph.successors(last):
            if nxt != ONE:
                rec(symbols + [nxt])

    rec([ONE])
    return out


def return_words_to_32(graph: TransitionGraph, params: ModelParams, beta: float,
                       Z: float, N: int) -> list[ReturnWord]:
    """First-return words to [32] (inside the subsystem without the 1-family).

    A word returns when the pattern 3,2 recurs; the return word therefore
    ends just before that unprimed 3, and its trailing run lengths resolve
    through the into_three_two continuation.
    """
    if N > LITERAL_HORIZON_CAP:
        raise ValueError(f"literal enumeration capped at N={LITERAL_HORIZON_CAP}")
    out: list[ReturnWord] = []

    def rec(symbols: list[str]) -> None:
        t = len(symbols)
        last = symbols[-1]
        for nxt in graph.successors(last):
            if is_one_family(nxt):
                continue
            if last == THREE and nxt == TWO and t >= 2:
                tau = t - 1
                if tau <= N:
                    w = Word(tuple(symbols[:-1]), INTO_THREE_TWO)
                    out.append(ReturnWord(w, tau, birkhoff_weight(params, w, beta, Z)))
                continue
            if t <= N:
                rec(symbols + [nxt])

    rec([THREE, TWO])
    return out


# ---------------------------------------------------------------------------
# aggregated graph-walk engine

def _weights(params: ModelParams, beta: float):
    return (math.exp(-params.alpha * beta),
            math.exp(params.gamma * beta),
            math.exp((params.gamma + params.delta) * beta))


def _wing_family(sym: str) -> tuple[str, str]:
    return (THREE, FOUR) if sym in (THREE, FOUR) else (THREE_P, FOUR_P)


def dp_partial_returns_to_1(graph: TransitionGraph, params: ModelParams,
                            beta: float, Z: float, N: int) -> list[float]:
    """Per-tau first-return mass to [1]; exact aggregation of the literal walk.

    State = (kind, current run length); the stored mass carries the weight
    the paths would have if their current run closed right here, so each
    edge multiplies by an exact incremental potential factor.
    """
    eZ = math.exp(-Z)
    w_one, w3, w4 = _weights(params, beta)
    eb = params.epsilon * beta
    succ_one = graph.successors(ONE)
    n_aux = sum(1 for s in succ_one if is_aux(s))
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
                a = next(s for s in graph.alphabet if is_aux(s))
                if graph.allowed(a, ONE):
                    out[tau] += v
                n_a = sum(1 for s in graph.successors(a) if is_aux(s))
                if n_a:
                    put(("aux",), v * n_a * w_one * eZ)
            elif kind == "two":
                n = state[1]
                if graph.allowed(TWO, ONE):
                    out[tau] += v
                if graph.allowed(TWO, TWO):
                    put(("two", n + 1), v * ((n + 2.0) / (n + 1.0)) ** (-beta) * eZ)
                for wsym in (THREE, THREE_P):
                    if wsym in graph.alphabet and graph.allowed(TWO, wsym):
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
                if graph.allowed(TWO, TWO):
                    put(("two", n + 1), v * ((n + 2.0) / (n + 1.0)) ** (-beta) * eZ)
                for wsym in (THREE, THREE_P):
                    if wsym in graph.alphabet and graph.allowed(TWO, wsym):
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


# ---------------------------------------------------------------------------
# compressed (run-length composition) engine

def _block_weights(params: ModelParams, beta: float, Z: float, N: int) -> np.ndarray:
    """blk[m] = (m+1)^(-eps*beta) * A_m * e^(-mZ) for one wing family.

    A_m is the exact per-symbol block sum: e^(gamma*beta) for m = 1 and
    e^(m*gamma*beta) (1+e^(delta*beta))^(m-2) for m >= 2.
    """
    eb = params.epsilon * beta
    blk = np.zeros(N + 1)
    log_g = params.gamma * beta
    log_q = math.log(1.0 + math.exp(-abs(params.delta * beta))) + max(params.delta * beta, 0.0)
    rate = log_g + log_q - Z  # per-symbol log growth for m >= 2
    if N >= 1:
        blk[1] = math.exp(log_g - Z - eb * math.log(2.0))
    for m in range(2, N + 1):
        blk[m] = math.exp(m * rate - 2.0 * log_q - eb * math.log(m + 1.0))
    return blk


def compressed_partial_returns_to_1(params: ModelParams, beta: float, Z: float,
                                    N: int) -> list[float]:
    """Per-tau return mass to [1] by convolving run-length weights (O(N^2))."""
    m = wing_multiplicity(params)
    two = np.zeros(N + 1)
    for n in range(1, N + 1):
        two[n] = (n + 1.0) ** (-beta) * math.exp(-n * Z)
    exc = np.convolve(m * _block_weights(params, beta, Z, N), two)[: N + 1]
    # chain = two + chain * exc  (renewal over excursion+2-string pairs)
    chain = two.copy()
    for t in range(2, N + 1):
        chain[t] += float(np.dot(exc[1:t], chain[t - 1:0:-1]))
    r1 = params.L * math.exp(-params.alpha * beta - Z)
    w_one = math.exp(-params.alpha * beta - Z)
    out = [0.0] * (N + 1)
    aux_run = w_one
    for tau in range(1, N + 1):
        out[tau] = aux_run  # 1 followed by tau-1 auxiliaries
        aux_run *= r1
        if tau >= 2:
            out[tau] += w_one * chain[tau - 1]
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
                           graph: TransitionGraph | None = None,
                           engine: str = "dp") -> OracleComparison:
    """Exhaustive first-return enumeration to [1] vs. the analytic lambda.

    The (beta, Z) point must lie strictly inside the convergence domain.
    engine="dp" (default, N <= 30) walks the graph; "compressed" allows deep
    horizons via run-length compression.
    """
    if graph is None:
        graph = build_graph(params)
    rep = abscissa(params, beta)
    if Z <= rep.Z_c:
        raise ValueError(f"Z={Z} is not inside the convergence domain (Z_c={rep.Z_c})")
    if engine == "dp":
        if N > RAW_HORIZON_CAP:
            raise ValueError(f"graph-walk enumeration capped at N={RAW_HORIZON_CAP}; "
                             "use engine='compressed' for deeper horizons")
        per_tau = dp_partial_returns_to_1(graph, params, beta, Z, N)
        count = _count_returns_to_1(graph, params, N)
    elif engine == "compressed":
        per_tau = compressed_partial_returns_to_1(params, beta, Z, N)
        count = -1
    else:
        raise ValueError(f"unknown engine {engine!r}")
    lam = _lambda_1(params, beta, Z)
    if not lam.defined:
        raise ValueError("lambda_1 undefined at the requested point")
    partial = math.fsum(per_tau)
    tail = _renewal_tail_bound(
        params, beta, Z, N, rep.Z_c,
        lambda z: (lambda s: s.value if s.defined else None)(_lambda_1(params, beta, z)))
    return OracleComparison(lam.value, partial, N, count, lam.value - partial, tail)


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
    return OracleComparison(lam.value, partial, N, _count_returns_to_32(graph, params, N),
                            lam.value - partial, tail)


def abscissa_32(params: ModelParams, beta: float) -> float:
    floor = wing_pressure(params, beta)
    if params.variant == "A":
        return floor
    one_wing = ModelParams(params.alpha, params.gamma, params.delta,
                           params.epsilon, params.L, "A")
    boundary = composition_boundary(one_wing, beta)  # Sigma2*Sigma3 = 1
    return boundary if boundary is not None else floor


def _count_returns_to_1(graph: TransitionGraph, params: ModelParams, N: int) -> int:
    """Number of first-return words with tau <= N (the weight DP at beta=Z=0)."""
    return round(math.fsum(dp_partial_returns_to_1(graph, params, 0.0, 0.0, N)))


def _count_returns_to_32(graph: TransitionGraph, params: ModelParams, N: int) -> int:
    return round(math.fsum(dp_partial_returns_to_32(graph, params, 0.0, 0.0, N)))


# ---------------------------------------------------------------------------
# wing-block counting, incidence entropy, periodic orbits

def check_Ln(params: ModelParams, beta: float, n_max: int) -> list[tuple[int, float, float]]:
    """Enumerate all wing words w in {3,4}^n with w_0 = w_{n-1} = 3 and compare
    the per-symbol weight sum against e^(n*beta*gamma) (1+e^(beta*delta))^(n-2).

    Exact for every n >= 2 (this pins the wing combinatorics and the
    normalization of the block series).
    """
    if n_max > 20:
        raise ValueError("check_Ln capped at n_max=20")
    rows = []
    g, d = params.gamma, params.delta
    for n in range(2, n_max + 1):
        mid = n - 2
        ints = np.arange(1 << mid, dtype=np.int64)
        # each bit pattern = one choice of 3/4 on the interior positions
        ones = np.zeros(len(ints), dtype=np.int64)
        v = ints.copy()
        while v.any():
            ones += v & 1
            v >>= 1
        weights = np.exp(beta * (n * g + d * ones.astype(float)))
        enumerated = float(weights.sum())
        closed = math.exp(n * beta * g) * (1.0 + math.exp(beta * d)) ** (n - 2)
        rows.append((n, enumerated, closed))
    return rows


def incidence_matrix(graph: TransitionGraph, restrict_to=None) -> np.ndarray:
    syms = [s for s in graph.alphabet if restrict_to is None or s in restrict_to]
    M = np.zeros((len(syms), len(syms)))
    for i, a in enumerate(syms):
        for j, b in enumerate(syms):
            if graph.allowed(a, b):
                M[i, j] = 1.0
    return M


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


def periodic_orbit_pressure(params: ModelParams, beta: float, n: int,
                            graph: TransitionGraph | None = None) -> float:
    """(1/n) log sum over admissible period-n points of exp(beta * S_n phi).

    Run lengths wrap around the period; a run that never terminates (the
    all-2 cycle, wing-only cycles) uses the infinite-run convention of a
    vanishing logarithmic correction.  Points, not orbits, are counted: every
    admissible cyclic n-tuple contributes once.
    """
    if n > PERIOD_CAP:
        raise ValueError(f"periodic_orbit_pressure capped at n={PERIOD_CAP}")
    if graph is None:
        graph = build_graph(params)
    # auxiliary symbols are weight-identical: enumerate one representative and
    # multiply by L^(number of aux positions)
    rep = [s for s in graph.alphabet if not is_aux(s)]
    aux = next((s for s in graph.alphabet if is_aux(s)), None)
    if aux is not None:
        rep.append(aux)
    L = params.L

    def cycle_weight(w: list[str]) -> float:
        s = 0.0
        for i, c in enumerate(w):
            if is_one_family(c):
                s += -params.alpha
            elif c == TWO:
                for k in range(1, n + 1):
                    if w[(i + k) % n] != TWO:
                        s += -math.log1p(1.0 / k)
                        break
            else:
                s += params.gamma + (params.delta if c in (FOUR, FOUR_P) else 0.0)
                for k in range(1, n + 1):
                    if w[(i + k) % n] == TWO:
                        s += -params.epsilon * math.log1p(1.0 / k)
                        break
        mult = L ** sum(1 for c in w if is_aux(c))
        return mult * math.exp(beta * s)

    total = 0.0
    stack: list[str] = []

    def rec() -> None:
        nonlocal total
        if len(stack) == n:
            if graph.allowed(stack[-1], stack[0]):
                total += cycle_weight(stack)
            return
        for nxt in graph.successors(stack[-1]):
            if is_aux(nxt) and nxt != aux:
                continue
            stack.append(nxt)
            rec()
            stack.pop()

    for s0 in rep:
        stack = [s0]
        rec()
    return math.log(total) / n


def richardson_orbit_pressure(params: ModelParams, beta: float, n: int,
                              graph: TransitionGraph | None = None) -> float:
    """Richardson extrapolation of the period-n and period-(n-2) estimates."""
    p_n = periodic_orbit_pressure(params, beta, n, graph)
    p_m = periodic_orbit_pressure(params, beta, n - 2, graph)
    return (n * p_n - (n - 2) * p_m) / 2.0
