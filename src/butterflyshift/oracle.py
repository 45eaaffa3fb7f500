"""Independent brute-force verifiers for the analytic formulas, and
`verification_table`: every check of the `oracle` command, with its probe
points, horizons and tolerances; the command only prints its records.

Every engine reads the graph's classes of twin symbols through a matrix, so
no cost grows with L.  Return-word enumeration runs on one engine, "dp": a
walk over the transition graph with weight-equivalent paths aggregated by
(symbol kind, current run length).  Its transfer matrix on those states is
filled edge-by-edge from the graph, so a corrupted edge set changes its
output, and each step is one matrix-vector product; it is exact, and the
acceptance suite and the `oracle` command run it.  It reads every edge but
one from a wing into the 1-family or the other wing, and a return row on a
graph with such an edge FAILs.  The test suite keeps the rawer reference
engines it is checked against, on the full alphabet (literal word
enumeration, run-length convolution, depth-first periodic-point enumeration,
literal wing words).

Plus the wing words counted on the transfer matrix of the graph's wing
block against the closed form, the entropy of the class count matrix, and
periodic-orbit pressure as the trace of a run-length transfer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    lambda_1 as _lambda_1,
    lambda_32 as _lambda_32,
    wing_multiplicity,
)

RAW_HORIZON_CAP = 30
RETURN_32_HORIZON = 20  # the table's [32] rows enumerate at most this many steps
LN_CAP = 20
# the periodic-orbit transfer matrix has n states per class of the graph, and
# a clean graph has at most 7 classes (variant B, its auxiliaries one class):
# n <= 14 keeps it under 100 states.  The cap also bounds the accepted
# n_period range (3..14).
PERIOD_CAP = 14

# tolerances of the verification table: the slack around a certified gap,
# the relative L_n check, the entropy identities and the periodic-orbit row
CONSISTENCY_SLACK = 1e-10
LN_RTOL = 1e-11
ENTROPY_TOL = 1e-8
PERIODIC_TOL = 0.02


@dataclass(frozen=True)
class Check:
    """One row of the verification table: gap = analytic - oracle."""

    name: str
    analytic: float
    oracle: float
    gap: float
    bound: float
    ok: bool


def _certified(name: str, analytic: float, partial: float, tail: float) -> Check:
    """A row whose enumerated partial sum approaches the analytic value from
    below, within the certified tail bound.

    All weights are positive, so 0 <= gap <= tail whenever the analytic
    formula and the graph agree.  The rounding slack shrinks with the
    analytic value below 1, so a tiny value still has to be matched.  An
    infinite tail (no probe gave a finite lambda) certifies nothing: the row
    fails.
    """
    gap = analytic - partial
    slack = CONSISTENCY_SLACK * min(1.0, abs(analytic))
    ok = math.isfinite(tail) and -slack <= gap <= tail + slack
    return Check(name, analytic, partial, gap, tail, ok)


# ---------------------------------------------------------------------------
# aggregated graph-walk engine

# the wing of each wing symbol: 0 the unprimed one, 1 the mirrored one of
# variant B
_WING_OF = {THREE: 0, FOUR: 0, THREE_P: 1, FOUR_P: 1}


def _return_walk(graph: TransitionGraph, params: ModelParams, beta: float,
                 Z: float, N: int, target: str) -> list[float]:
    """Per-tau first-return mass to [1] (target ONE) or [32] (target THREE).

    The walk's states are (row, run length): one row for the 2-runs and one
    for the runs on each wing symbol of the alphabet, run lengths 1..N, plus
    one state for each auxiliary class of the graph.  The stored mass carries
    the weight the paths would have if their current run closed right here,
    so each edge multiplies by an exact incremental potential factor.  Those
    factors fill one transfer matrix T, built once per walk from the graph's
    edges; each step is then mass <- T mass, and out[tau] is one dot product
    of the mass with a read-out vector.  Below the convergence abscissa the
    masses can overflow: they read +inf, never NaN.  The 2-runs and the wing
    runs step alike for both targets.  A wing step factor is a single
    exponential, e^(gamma*beta-Z) onto a 3 and e^((gamma+delta)*beta-Z) onto a
    4, which stays in range where e^((gamma+delta)*beta) alone would overflow.
    No run outgrows the N lengths: at step tau it is at most tau - 1 long.  An
    edge from a wing into the 1-family or the other wing is not read
    (`_skips_an_edge`).

    [1]: the walk leaves 1 and returns on a step from an auxiliary or a 2
    into 1.  A step from 1, an auxiliary or a 2-run onto an auxiliary class j
    multiplies by multiplicity[j] e^(-alpha*beta-Z), and one from 1 or an
    auxiliary onto a 2 or a wing starts a run there.

    [32]: the walk starts on the head 3,2 and stays off the 1-family.  A path
    that steps onto an unprimed 3 is one admissible step away from the
    re-entry pattern 3,2, so it finalizes there, with the head factor
    e^(gamma*beta-Z) 2^(-eps*beta) of the next cylinder divided back out of
    that step.  That leaves (2(m+1)/(m+2))^(eps*beta) on a step from a wing
    run of length m and 1 on a step from a 2, so e^Z never stands alone.
    The unprimed 3 -> 2 edge is consumed by that return and never continues
    a path.
    """
    eb = params.epsilon * beta
    eZ, w_one = math.exp(-Z), math.exp(-params.alpha * beta)
    step3 = math.exp(params.gamma * beta - Z)
    step4 = math.exp((params.gamma + params.delta) * beta - Z)
    into_wing = step3 * 2.0 ** (-eb)
    into_two = 2.0 ** (-beta) * eZ
    m = np.arange(1.0, N + 1.0)           # the run lengths 1..N
    n = m[:-1]                            # the run length a growing run steps from
    syms = [TWO] + [w for w in (THREE, FOUR, THREE_P, FOUR_P) if w in graph.alphabet]
    auxes = [a for a in graph.alphabet if is_aux(a)] if target == ONE else []
    # a run of s of length m is state[s] + m - 1; an auxiliary class is one state
    state = {s: i * N for i, s in enumerate(syms)}
    state.update((a, len(syms) * N + i) for i, a in enumerate(auxes))
    T = np.zeros((len(syms) * N + len(auxes),) * 2)
    mass, read = np.zeros((2, len(T)))    # out[tau] = read . mass
    # the factor of a step onto a 2 or a wing that starts a run there
    first_run = {TWO: into_two, THREE: into_wing, THREE_P: into_wing,
                 FOUR: step4 * 2.0 ** (-eb), FOUR_P: step4 * 2.0 ** (-eb)}

    def runs(s: str) -> slice:
        return slice(state[s], state[s] + N)

    def grow(s: str, t: str, factor: np.ndarray) -> None:
        # a run of s of length m steps onto t at length m + 1
        i = np.arange(N - 1)
        T[state[t] + i + 1, state[s] + i] += factor

    def enter(col: np.ndarray, b: str, scale: float = 1.0) -> None:
        # paths of weight `scale`, their run closed, step onto b (not onto 1)
        if b in first_run:
            col[state[b]] += scale * first_run[b]
        elif b in state:
            col[state[b]] += scale * graph.multiplicity[graph.alphabet.index(b)] * w_one * eZ

    out = [0.0] * (N + 1)
    if target == ONE:
        start = w_one * eZ
        out[1] = start * graph.allowed(ONE, ONE)
        for a in (ONE, *auxes):
            # the steps out of the first 1 make the mass at tau = 2
            col, scale = (mass, start) if a == ONE else (T[:, state[a]], 1.0)
            for b in graph.successors(a):
                enter(col, b, scale)
        read[[state[a] for a in auxes]] = [graph.allowed(a, ONE) for a in auxes]
        read[runs(TWO)] = graph.allowed(TWO, ONE)
    elif graph.allowed(THREE, TWO):  # no auxiliary state is ever entered
        mass[0] = into_wing * into_two
    blocked = THREE if target == THREE else None
    two_grows = ((n + 2.0) / (n + 1.0)) ** (-beta) * eZ
    wing_grows = ((n + 1.0) / (n + 2.0)) ** eb
    for sym in syms:
        lo, hi = (THREE, FOUR) if sym in (THREE, FOUR) else (THREE_P, FOUR_P)
        for b in graph.successors(sym):
            if sym == TWO == b:
                grow(TWO, TWO, two_grows)
            elif sym != TWO and b in (lo, hi):
                grow(sym, b, (step3 if b == lo else step4) * wing_grows)
            elif sym == TWO or (b == TWO and sym != blocked):
                enter(T[:, runs(sym)], b)  # the run closes onto b
    if target == THREE:
        # a step onto an unprimed 3 finalizes, from a wing run of length m
        finalize = (2.0 * (m + 1.0) / (m + 2.0)) ** eb
        for sym in (THREE, FOUR):
            if graph.allowed(sym, THREE):
                read[runs(sym)] += finalize
        if graph.allowed(TWO, THREE):
            read[runs(TWO)] += 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        tail = _walk_steps(T, read, mass, N, np.matmul)
        if any(map(math.isnan, tail)):
            # a mass overflowed to inf and met a zero factor: step again,
            # reading inf * 0 as 0
            tail = _walk_steps(T, read, mass, N, _saturating_product)
    out[2:] = tail
    return out


def _walk_steps(T: np.ndarray, read: np.ndarray, mass: np.ndarray, N: int,
                product) -> list[float]:
    """read . mass at the steps tau = 2..N of the walk mass <- T mass."""
    tail = []
    for _ in range(2, N + 1):
        tail.append(float(product(read, mass)))
        mass = product(T, mass)
    return tail


def _saturating_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for nonnegative a and x, where an infinite x_j counts inf against
    a positive a_ij and 0 against a zero one (IEEE inf * 0 is NaN)."""
    infinite = np.isinf(x)
    y = a @ np.where(infinite, 0.0, x)
    return np.where((a[..., infinite] > 0.0).any(axis=-1), np.inf, y)


def _skips_an_edge(graph: TransitionGraph, target: str) -> bool:
    """Whether `graph` has an edge that the walk to `target` does not read:
    one from a wing symbol into the other wing or, for [1], into the
    1-family.  The words through such an edge weigh nothing in the walk, and
    the literal words cannot weigh them either (a wing run's distance to the
    next 2 would run past the return).  The walk to [32] stays off the
    1-family by design, so an edge into it is out of that row's scope."""
    return any(a in _WING_OF and b != TWO and _WING_OF.get(b) != _WING_OF[a]
               and (target == ONE or not is_one_family(b))
               for a, b in graph.edges)


def _renewal_tail_bound(lam_fn, params: ModelParams, beta: float, Z: float,
                        N: int, z_floor: float, lam_at_Z: float) -> float:
    """Bound on the mass of return words longer than N.

    For any Z' between the convergence abscissa and Z the per-length masses
    satisfy R_t <= lam(Z') e^(t Z'), giving the geometric bound
    lam(Z') e^{-(N+1)(Z-Z')} / (1 - e^{-(Z-Z')}); the minimum over a few
    probe points is still a valid certificate.

    A probe is evaluated only where it can lower the bound.  Every term of
    lambda_[1] and lambda_[32] has a positive coefficient and a factor e^(-nZ)
    with n >= 1, so lam(Z') >= lam(Z) = `lam_at_Z` for Z' < Z.  A probe whose
    bound with lam(Z) in place of lam(Z') already reaches the best so far
    therefore cannot give a smaller one, and it is skipped.  The test rounds
    through the probe's own expression, which is monotone in lam, so wherever
    the computed lam(Z') >= lam(Z) the minimum is the same float as over all
    three probes.  A probe that rounds onto Z gives no bound and is skipped.
    """
    best = math.inf
    for frac in (0.25, 0.5, 0.75):
        z_probe = z_floor + frac * (Z - z_floor)
        dz = Z - z_probe
        decay, spread = math.exp(-(N + 1) * dz), 1.0 - math.exp(-dz)
        if spread == 0.0 or lam_at_Z * decay / spread >= best:
            continue
        lam = lam_fn(params, beta, z_probe).value
        if math.isfinite(lam):
            best = min(best, lam * decay / spread)
    return best


def _compare_returns(params: ModelParams, beta: float, Z: float, N: int,
                     graph: TransitionGraph | None, target: str) -> Check:
    """The dp walk's first-return mass to [1] or [32] against the analytic
    lambda, above that lambda's convergence abscissa.

    The row's own lambda(Z) is handed to the tail bound, which skips every
    probe that this lower bound of lambda(Z') shows cannot tighten it: on the
    reference table that leaves one probe, two lambda evaluations per row.
    On a graph with an edge the walk does not read, the tail is infinite, so
    the row FAILs and prints an infinite bound."""
    if not 1 <= N <= RAW_HORIZON_CAP:
        raise ValueError(f"graph-walk enumeration needs N in 1..{RAW_HORIZON_CAP}, got {N}")
    if graph is None:
        graph = build_graph(params)
    if target == ONE:
        cyl, lam_fn, z_floor = "1", _lambda_1, abscissa(params, beta).Z_c
    else:
        cyl, lam_fn, z_floor = "32", _lambda_32, abscissa_32(params, beta)
    if Z <= z_floor:
        raise ValueError(f"Z={Z} is not inside the [{cyl}] convergence domain (Z_c={z_floor})")
    per_tau = _return_walk(graph, params, beta, Z, N, target)
    lam = lam_fn(params, beta, Z)
    if not lam.defined:
        raise ValueError(f"lambda_{cyl} undefined at the requested point")
    tail = (math.inf if _skips_an_edge(graph, target)
            else _renewal_tail_bound(lam_fn, params, beta, Z, N, z_floor, lam.value))
    return _certified(f"returns_to_{cyl} beta={beta:g}", lam.value, math.fsum(per_tau), tail)


def enumerate_returns_to_1(params: ModelParams, beta: float, Z: float, N: int,
                           graph: TransitionGraph | None = None) -> Check:
    """First-return enumeration to [1] (dp engine, N <= 30) vs. lambda_1 at a
    (beta, Z) strictly inside its convergence domain."""
    return _compare_returns(params, beta, Z, N, graph, ONE)


def enumerate_returns_to_32(params: ModelParams, beta: float, Z: float, N: int,
                            graph: TransitionGraph | None = None) -> Check:
    """First-return enumeration to [32] (dp engine, N <= 30) vs. lambda_32."""
    return _compare_returns(params, beta, Z, N, graph, THREE)


def abscissa_32(params: ModelParams, beta: float) -> float:
    """Infimum of the lambda_[32] convergence domain: P34 for one pair of
    wings; in variant B, where Sigma2*Sigma3 must stay below 1, the one-wing
    composition boundary, which is P_mid of variant A.  That boundary is
    solved once per (wing parameters, beta) and shared with every alpha and L
    (`spectral` memoizes it)."""
    if params.variant == "A":
        return wing_pressure(params, beta)
    return critical.pressure_mid(replace(params, variant="A"), beta)


# ---------------------------------------------------------------------------
# wing-block counting, incidence entropy, periodic orbits

def check_Ln(params: ModelParams, beta: float, n_max: int,
             graph: TransitionGraph | None = None) -> list[tuple[int, float, float]]:
    """The weight of the wing words of length n = 2..n_max on `graph`, each
    running from a 3-head (3, or 3' in variant B) through wing symbols back
    to that same head, against the closed form.

    Every word weight is scaled by e^-(n*beta*gamma + (n-2)*beta*delta), the
    weight of the heaviest word, so a step onto a 3 or 3' weighs
    e^(-beta*delta), a step onto a 4 or 4' weighs 1, and no weight overflows
    at large gamma or delta.  The closed form is m (1+e^(-beta*delta))^(n-2)
    for m wings: each wing is a full shift on its 3 and 4, exact for every
    n >= 2 (this pins the wing combinatorics and the normalization of the
    block series).  The enumerated side is read off the transfer matrix of
    the graph's own edges among the wing symbols, the count matrix weighted
    by the symbol each step enters, so a dropped or added wing edge changes
    it.  `graph` defaults to `build_graph(params)`.
    """
    if not 2 <= n_max <= LN_CAP:
        raise ValueError(f"check_Ln needs n_max in 2..{LN_CAP}, got {n_max}")
    if graph is None:
        graph = build_graph(params)
    e3 = math.exp(-beta * params.delta)  # a 3 where the heaviest word has a 4
    wing = [s for s in graph.alphabet if s in _WING_OF]
    count = incidence_matrix(graph, restrict_to=wing)
    step = count * [e3 if s in (THREE, THREE_P) else 1.0 for s in wing]
    heads = [i for i, s in enumerate(wing) if s in (THREE, THREE_P)]
    paths = np.eye(len(wing))[heads]  # from each head, the words without their last 3
    closing = count[:, heads].T       # the last step, back onto that head, weighs 1
    m = wing_multiplicity(params)
    rows = []
    for n in range(2, n_max + 1):
        if n > 2:
            paths = paths @ step
        enumerated = float((paths * closing).sum())
        rows.append((n, enumerated, m * (1.0 + e3) ** (n - 2)))
    return rows


def incidence_matrix(graph: TransitionGraph, restrict_to=None) -> np.ndarray:
    """The count matrix adjacency * multiplicity (as floats): (i, j) counts the
    symbols of class j a symbol of class i steps to.  On the classes of
    `restrict_to` if given, in alphabet order."""
    sel = [i for i, s in enumerate(graph.alphabet) if restrict_to is None or s in restrict_to]
    return graph.adjacency[np.ix_(sel, sel)] * graph.multiplicity[sel].astype(float)


def incidence_entropy(graph: TransitionGraph, restrict_to=None) -> float:
    """log of the spectral radius of the count matrix, from its eigenvalues:
    the twin classes are an equitable partition, so this is the Perron root
    of the full alphabet's 0/1 incidence matrix."""
    rho = float(np.abs(np.linalg.eigvals(incidence_matrix(graph, restrict_to))).max())
    return math.log(rho) if rho > 0.0 else -math.inf


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
    beta * top is added back to the logarithm, so no weight overflows.  The
    states of a class of twins (same steps, same potential) are entered with
    its multiplicity as a factor.
    """
    if not 1 <= n <= PERIOD_CAP:
        raise ValueError(f"periodic_orbit_pressure needs n in 1..{PERIOD_CAP}, got {n}")
    if graph is None:
        graph = build_graph(params)
    syms, k = graph.alphabet, len(graph.alphabet)
    M = np.zeros((k, n, k, n))
    for i, j in zip(*np.nonzero(graph.adjacency)):
        if (syms[i] == TWO) == (syms[j] == TWO):
            M[i, 0, j, 0] = 1.0
            for d in range(2, n):
                M[i, d, j, d - 1] = 1.0
        else:
            M[i, 1:2, j, 1:] = 1.0  # a slice: at n = 1 there is no d = 1
    phi = [[_state_potential(params, s, d) for d in range(n)] for s in syms]
    top = max(map(max, phi))
    weight = np.array([[c * math.exp(beta * (p - top)) for p in row]
                       for c, row in zip(graph.multiplicity.tolist(), phi)])
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


def verification_table(params: ModelParams, graph: TransitionGraph, n_return: int,
                        n_period: int, n_ln: int) -> list[Check]:
    """Every check of the `oracle` command, in the order it prints them.

    The wing-word counts at beta = 1 (rows "L_n n=..."); the return masses to
    [1] and [32] on `graph` at beta = 0.25 and 0.5, or at beta_hi / 2 alone
    when beta_hi <= 0.6; the beta = 0 entropies; and the Richardson
    periodic-orbit estimate at the last of those betas.  beta_hi is solved
    only in the second case: it is the root of the decreasing map
    beta -> lambda_[1](beta, P34), +inf below beta_lo, so 0.6 < beta_hi
    exactly when that map exceeds 1 at 0.6.
    """
    rows = [_check(f"L_n n={n}", closed, enum, LN_RTOL * abs(closed))
            for n, enum, closed in check_Ln(params, 1.0, n_ln, graph)]
    above = _lambda_1(params, 0.6, wing_pressure(params, 0.6)).value > 1.0
    betas = [0.25, 0.5] if above else [0.5 * critical.critical_set(params).beta_hi]
    pressures = {}
    for b in betas:
        pressures[b] = critical.pressure_full(params, b)
        rows.append(enumerate_returns_to_1(params, b, pressures[b] + 0.2, n_return, graph=graph))
        Z32 = max(wing_pressure(params, b) + 0.3, abscissa_32(params, b) + 0.2)
        rows.append(enumerate_returns_to_32(params, b, Z32, min(n_return, RETURN_32_HORIZON),
                                            graph=graph))
    p_mid0 = critical.pressure_mid(params, 0.0)
    rows.append(_check("entropy vs P(0)", critical.pressure_full(params, 0.0),
                       incidence_entropy(graph), ENTROPY_TOL))
    rows.append(_check("entropy vs P_mid(0)", p_mid0,
                       incidence_entropy(graph, restrict_to=no_one_family(graph)),
                       ENTROPY_TOL))
    b = betas[-1]
    rows.append(_check(f"periodic orbits beta={b:g}", pressures[b],
                       richardson_orbit_pressure(params, b, n_period, graph=graph),
                       PERIODIC_TOL))
    return rows
