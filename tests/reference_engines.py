"""Reference engines the oracle module is tested against.

Each computes a quantity that `butterflyshift.oracle` also computes, by a
route that is slower or shares less with the fast code:

  * literal return words: depth-first enumeration of actual words over the
    transition graph, each weighted through the per-position potential
    `phi_at` below.  Fully independent of every closed form; exponential, so
    capped at small horizons.  This is the ground truth for the "dp" engine.
  * compressed returns to [1]: renewal convolution over (2-string,
    wing-block) run lengths.  It shares the block counting with the analytic
    formula and exists for deep-horizon confidence only.
  * the dict-keyed return walk: the first-return masses over states
    (kind, run length) kept in a dict, the reference for the array walk of
    `oracle._return_walk`; and the wing-word weights of `check_Ln` built by
    concatenation, the reference for its in-place buffer.
  * periodic points: depth-first enumeration of every admissible cyclic
    n-tuple, each weighted from its own wrapped run lengths, as the reference
    for the transfer-matrix trace; and that trace again in mpmath arithmetic.

The literal engine rests on the finite-word machinery kept here as well
(`Word`, its continuation tags, the per-position potential `phi_at` and the
Birkhoff weights), and `edge_set` lists the butterfly graph's edges pair by
pair as the reference for `build_graph`'s block-filled adjacency matrix;
`edge_graph` builds the graph of that set, the one source of graphs with
dropped edges, and `is_irreducible` checks that graph's reachability.
`gateaux_check` forms the one-sided difference quotients of the variant B
pressure above beta_hi, from the closed-form wing pressure, for the
directional-slope checks.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from butterflyshift.model import (
    FOUR,
    FOUR_P,
    ModelParams,
    ONE,
    THREE,
    THREE_P,
    TransitionGraph,
    TWO,
    alphabet_for,
    aux_symbol,
    is_aux,
    is_one_family,
    wing_pressure,
)
from butterflyshift.critical import critical_set
from butterflyshift.spectral import lambda_1, wing_multiplicity

LITERAL_HORIZON_CAP = 14

# continuation tags: which cylinder the infinite suffix of a finite word enters
INTO_ONE = "into_one"            # suffix starts 1...
INTO_THREE_TWO = "into_three_two"  # suffix starts 3,2,...
ALL_TWOS = "all_twos"            # suffix is 2,2,2,...
STAY_IN_WING = "stay_in_wing"    # suffix never meets a 2 (wing symbols forever)

CONTINUATIONS = (INTO_ONE, INTO_THREE_TWO, ALL_TWOS, STAY_IN_WING)

WINGS = (THREE, FOUR, THREE_P, FOUR_P)


class LookaheadError(ValueError):
    """Run-length lookahead cannot be resolved from the word plus its continuation."""


# ---------------------------------------------------------------------------
# the graph, edge by edge

def edge_set(params: ModelParams, extra_edges=(), drop_edges=()) -> frozenset[tuple[str, str]]:
    """The butterfly graph's edges, added one (from, to) pair at a time."""
    auxes = [aux_symbol(i) for i in range(1, params.L + 1)]
    edges: set[tuple[str, str]] = set()
    # head: 1 and the auxiliaries form a full shift on L+1 symbols, but only 1
    # opens the door to the body
    edges.add((ONE, ONE))
    edges.add((ONE, TWO))
    for a in auxes:
        edges.add((ONE, a))
        edges.add((a, ONE))
        for b in auxes:
            edges.add((a, b))
    # body and unprimed wing
    edges.update({(TWO, ONE), (TWO, TWO), (TWO, THREE)})
    edges.update({(THREE, TWO), (THREE, THREE), (THREE, FOUR)})
    edges.update({(FOUR, THREE), (FOUR, FOUR)})
    if params.variant == "B":
        edges.add((TWO, THREE_P))
        edges.update({(THREE_P, TWO), (THREE_P, THREE_P), (THREE_P, FOUR_P)})
        edges.update({(FOUR_P, THREE_P), (FOUR_P, FOUR_P)})
    edges.update(extra_edges)
    edges.difference_update(drop_edges)
    return frozenset(edges)


def edge_graph(params: ModelParams, drop_edges) -> TransitionGraph:
    """The graph of `edge_set` less `drop_edges`, its adjacency matrix set one
    edge at a time.

    The negative controls that drop an edge read this graph: `build_graph`
    only adds edges, and this one shares nothing with its block fill.
    """
    alphabet = alphabet_for(params)
    index = {s: i for i, s in enumerate(alphabet)}
    adj = np.zeros((len(alphabet), len(alphabet)), dtype=bool)
    for a, b in edge_set(params, drop_edges=drop_edges):
        adj[index[a], index[b]] = True
    return TransitionGraph(alphabet, adj)


def is_irreducible(graph: TransitionGraph) -> bool:
    """Every symbol reaches every other symbol through allowed edges."""
    for start in graph.alphabet:
        seen = {start}
        stack = [start]
        while stack:
            for t in graph.successors(stack.pop()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != len(graph.alphabet):
            return False
    return True


# ---------------------------------------------------------------------------
# finite words and their potential

def is_admissible(graph: TransitionGraph, symbols: Sequence[str]) -> bool:
    """True iff every adjacent pair of symbols is an allowed edge."""
    return all(graph.allowed(a, b) for a, b in zip(symbols, symbols[1:]))


@dataclass(frozen=True)
class Word:
    """Finite admissible word together with the cylinder class of its suffix.

    The continuation tag is what makes run-length lookahead at the right edge
    of the word well defined: return-word enumeration always knows which
    cylinder it re-enters, so no infinite words are ever needed.
    """

    symbols: tuple[str, ...]
    continuation: str

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("empty word")
        if self.continuation not in CONTINUATIONS:
            raise ValueError(f"unknown continuation {self.continuation!r}")

    def __len__(self) -> int:
        return len(self.symbols)


def continuation_consistent(graph: TransitionGraph, word: Word) -> bool:
    """Does the declared suffix class attach admissibly to the last symbol?"""
    last = word.symbols[-1]
    if word.continuation == INTO_ONE:
        return graph.allowed(last, ONE)
    if word.continuation == INTO_THREE_TWO:
        return graph.allowed(last, THREE)
    if word.continuation == ALL_TWOS:
        return graph.allowed(last, TWO)
    return any(graph.allowed(last, w) for w in (THREE, FOUR, THREE_P, FOUR_P)
               if w in graph.alphabet)


_MIRROR = {THREE: THREE_P, THREE_P: THREE, FOUR: FOUR_P, FOUR_P: FOUR}


def mirror_symbol(sym: str) -> str:
    """Swap 3<->3' and 4<->4'; other symbols are fixed."""
    return _MIRROR.get(sym, sym)


def mirror_word(word: Word) -> Word:
    return Word(tuple(mirror_symbol(s) for s in word.symbols), word.continuation)


def _log_ratio(dist: int) -> float:
    # log((n+1)/n) for run distance n
    return math.log1p(1.0 / dist)


def phi_at(params: ModelParams, word: Word, position: int) -> float:
    """Potential at one position of a finite word.

    Values:
      * -alpha on the 1-family;
      * -log((n+1)/n) on a 2 whose distance to the first non-2 is n;
      * gamma - epsilon*log((n+1)/n) on 3/3' and gamma + delta - (same
        correction) on 4/4', with n the distance to the next 2;
      * when that distance is infinite the logarithmic correction is 0.

    Distances are resolved inside the word when possible and through the
    declared continuation otherwise.
    """
    n = len(word.symbols)
    if not 0 <= position < n:
        raise IndexError(position)
    sym = word.symbols[position]
    if is_one_family(sym):
        return -params.alpha

    if sym == TWO:
        dist = None
        for j in range(position + 1, n):
            if word.symbols[j] != TWO:
                dist = j - position
                break
        if dist is None:
            if word.continuation == ALL_TWOS:
                return 0.0  # infinite run: -log((n+1)/n) -> 0
            # INTO_ONE, INTO_THREE_TWO, STAY_IN_WING all start with a non-2
            dist = n - position
        return -_log_ratio(dist)

    if sym in WINGS:
        base = params.gamma + (params.delta if sym in (FOUR, FOUR_P) else 0.0)
        dist = None
        for j in range(position + 1, n):
            if word.symbols[j] == TWO:
                dist = j - position
                break
        if dist is None:
            if word.continuation == STAY_IN_WING:
                return base  # never meets a 2: correction vanishes
            if word.continuation == ALL_TWOS:
                dist = n - position
            elif word.continuation == INTO_THREE_TWO:
                dist = n + 1 - position  # suffix is 3,2,...: the 2 sits one past the 3
            else:
                raise LookaheadError(
                    f"wing symbol at position {position} cannot be followed by the "
                    f"{word.continuation!r} suffix"
                )
        return base - params.epsilon * _log_ratio(dist)

    raise ValueError(f"unknown symbol {sym!r}")


def birkhoff_sum(params: ModelParams, word: Word) -> float:
    """Sum of phi over all positions of the word."""
    return math.fsum(phi_at(params, word, i) for i in range(len(word.symbols)))


def birkhoff_weight(params: ModelParams, word: Word, beta: float, Z: float) -> float:
    """exp(beta * S_tau(phi) - Z * tau) with tau = len(word); strictly positive."""
    tau = len(word.symbols)
    return math.exp(beta * birkhoff_sum(params, word) - Z * tau)




@dataclass(frozen=True)
class ReturnWord:
    word: Word
    tau: int
    weight: float


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
# the dict-keyed return walk and the concatenated wing-word weights

def dict_return_walk(graph: TransitionGraph, params: ModelParams, beta: float,
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


def concatenated_Ln(params: ModelParams, beta: float, n_max: int) -> list[tuple[int, float, float]]:
    """`oracle.check_Ln` with each length's weights a new array, concatenated
    from the previous length's."""
    rows = []
    e3 = math.exp(-beta * params.delta)
    weights = np.array([1.0])
    for n in range(2, n_max + 1):
        if n > 2:
            weights = np.concatenate([weights * e3, weights])
        rows.append((n, float(weights.sum()), (1.0 + e3) ** (n - 2)))
    return rows


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


def compressed_gap_returns_to_1(params: ModelParams, beta: float, Z: float,
                                N: int) -> float:
    """lambda_1 minus the compressed return mass up to tau = N (any depth)."""
    lam = lambda_1(params, beta, Z)
    if not lam.defined:
        raise ValueError("lambda_1 undefined at the requested point")
    return lam.value - math.fsum(compressed_partial_returns_to_1(params, beta, Z, N))


# ---------------------------------------------------------------------------
# periodic points

def _lumped_alphabet(graph: TransitionGraph) -> tuple[list[str], str | None]:
    """Non-auxiliary symbols plus the first auxiliary, which stands for all L."""
    rep = [s for s in graph.alphabet if not is_aux(s)]
    aux = next((s for s in graph.alphabet if is_aux(s)), None)
    if aux is not None:
        rep.append(aux)
    return rep, aux


def periodic_points(graph: TransitionGraph, n: int) -> list[tuple[str, ...]]:
    """Every admissible cyclic n-tuple, depth-first; auxiliaries lumped into
    the first one (each stands for L weight-identical points)."""
    rep, aux = _lumped_alphabet(graph)
    out: list[tuple[str, ...]] = []
    stack: list[str] = []

    def rec() -> None:
        if len(stack) == n:
            if graph.allowed(stack[-1], stack[0]):
                out.append(tuple(stack))
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
    return out


def cycle_birkhoff_sums(params: ModelParams, W: np.ndarray) -> np.ndarray:
    """S_n phi of each periodic point (one row of W), from its own wrapped
    run lengths.

    A symbol other than 2 sees the distance to the next 2, a 2 the distance
    to the next symbol that is not a 2, both read cyclically; a run that
    never terminates (the all-2 cycle, cycles without a 2) has a vanishing
    logarithmic correction.
    """
    n = W.shape[1]
    two = W == TWO
    one = np.isin(W, [s for s in np.unique(W) if is_one_family(s)])
    wing = ~two & ~one

    def distance(to: np.ndarray) -> np.ndarray:
        d = np.zeros(W.shape, dtype=int)  # 0: never
        for k in range(n, 0, -1):
            d = np.where(np.roll(to, -k, axis=1), k, d)
        return d

    def correction(d: np.ndarray) -> np.ndarray:
        return np.where(d > 0, np.log1p(1.0 / np.maximum(d, 1)), 0.0)

    phi = np.where(one, -params.alpha, 0.0)
    phi += np.where(two, -correction(distance(~two)), 0.0)
    base = params.gamma + params.delta * np.isin(W, (FOUR, FOUR_P))
    phi += np.where(wing, base - params.epsilon * correction(distance(two)), 0.0)
    return phi.sum(axis=1)


def periodic_point_sums(params: ModelParams, graph: TransitionGraph, n: int,
                        betas) -> dict[float, float]:
    """sum over period-n points of exp(beta * S_n phi), for each beta.

    The points are enumerated once on the lumped alphabet, where each
    auxiliary position carries a factor L.  Each sum is taken with math.fsum.
    """
    W = np.array(periodic_points(graph, n))
    S = cycle_birkhoff_sums(params, W)
    n_aux = np.isin(W, [s for s in graph.alphabet if is_aux(s)]).sum(axis=1)
    mult = float(params.L) ** n_aux
    return {beta: math.fsum(mult * np.exp(beta * S)) for beta in betas}


def mp_periodic_orbit_pressure(params: ModelParams, beta: float, n: int,
                               graph: TransitionGraph, dps: int = 40) -> float:
    """The transfer-matrix trace (1/n) log trace(M^n), built again from the
    state rules and evaluated in mpmath at `dps` digits."""
    import mpmath

    rep, aux = _lumped_alphabet(graph)

    def steps(sym: str, d: int, nxt: str) -> list[tuple[str, int]]:
        same = (sym == TWO) == (nxt == TWO)
        if d == 0:
            return [(nxt, 0)] if same else []
        if d > 1:
            return [(nxt, d - 1)] if same else []
        return [] if same else [(nxt, e) for e in range(1, n)]

    with mpmath.workdps(dps):
        def weight(sym: str, d: int):
            if is_one_family(sym):
                phi = -mpmath.mpf(params.alpha)
            else:
                corr = mpmath.log1p(mpmath.mpf(1) / d) if d else mpmath.mpf(0)
                if sym == TWO:
                    phi = -corr
                else:
                    base = mpmath.mpf(params.gamma)
                    if sym in (FOUR, FOUR_P):
                        base += mpmath.mpf(params.delta)
                    phi = base - mpmath.mpf(params.epsilon) * corr
            return (params.L if sym == aux else 1) * mpmath.exp(mpmath.mpf(beta) * phi)

        states = [(s, d) for s in rep for d in range(n)]
        succ = {st: [(t, weight(*t)) for b in graph.successors(st[0]) if b in rep
                     for t in steps(st[0], st[1], b)]
                for st in states}
        trace = mpmath.mpf(0)
        for start in states:
            vec = {start: mpmath.mpf(1)}
            for _ in range(n):
                nxt: dict = defaultdict(mpmath.mpf)
                for st, v in vec.items():
                    for t, w in succ[st]:
                        nxt[t] += v * w
                vec = nxt
            trace += vec.get(start, 0)
        return float(mpmath.log(trace) / n)


# ---------------------------------------------------------------------------
# directional slopes of the variant B pressure above beta_hi

@dataclass(frozen=True)
class GateauxReport:
    t_values: tuple[float, ...]
    symmetric_quotients: tuple[float, ...]
    asymmetric_quotients: tuple[float, ...]
    symmetric_slopes: tuple[float, float]   # (left, right)
    asymmetric_slopes: tuple[float, float]


def gateaux_check(params: ModelParams, beta: float, t_values: list[float]) -> GateauxReport:
    """One-sided difference quotients of the pressure under wing perturbations.

    Variant B above beta_hi only, where the pressure is the maximum of the two
    wing pressures.  The symmetric family shifts gamma on BOTH wings: the
    quotients agree from both sides (slope beta; the pressure stays analytic
    despite the two coexisting equilibria).  The asymmetric family shifts only
    the unprimed wing: the max of the two closed forms has one-sided slopes
    beta and 0, exhibiting why the symmetry requirement matters.
    """
    if params.variant != "B":
        raise ValueError("gateaux_check requires variant B")
    crit = critical_set(params)
    if not beta > crit.beta_hi:
        raise ValueError(f"gateaux_check requires beta > beta_hi = {crit.beta_hi}")
    ts = tuple(t for t in t_values if t != 0.0)
    if not ts or not any(t > 0 for t in ts) or not any(t < 0 for t in ts):
        raise ValueError("t_values must contain nonzero values on both sides of 0")
    p0 = wing_pressure(params, beta)
    sym, asym = [], []
    for t in ts:
        # both wings shifted: still two mirrored wings with pressure P34(gamma+t)
        p_t = wing_pressure(replace(params, gamma=params.gamma + t), beta)
        sym.append((p_t - p0) / t)
        # only the unprimed wing shifted: pressure is the larger wing pressure
        asym.append((max(p_t, p0) - p0) / t)
    def one_sided(qs):
        left = min(((t, q) for t, q in zip(ts, qs) if t < 0), key=lambda p: abs(p[0]))
        right = min(((t, q) for t, q in zip(ts, qs) if t > 0), key=lambda p: abs(p[0]))
        return (left[1], right[1])
    return GateauxReport(
        t_values=ts,
        symmetric_quotients=tuple(sym),
        asymmetric_quotients=tuple(asym),
        symmetric_slopes=one_sided(sym),
        asymmetric_slopes=one_sided(asym),
    )
