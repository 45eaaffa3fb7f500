"""Symbolic model: parameter space, butterfly transition graphs, and the potential.

The systems are one-sided subshifts on the alphabet {1, 2, 3, 4, 1_1..1_L}
(variant A) or the same plus the mirrored wing symbols {3', 4'} (variant B).
A transition graph is a boolean adjacency matrix over classes of twin
symbols, each class with its number of symbols; the auxiliaries that no edge
tells apart form one class.  The potential is a grid function: it depends on
the head symbol and on the length of the homogeneous run the head symbol
sits in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

ONE = "1"
TWO = "2"
THREE = "3"
FOUR = "4"
THREE_P = "3'"
FOUR_P = "4'"


def aux_symbol(i: int) -> str:
    return f"1_{i}"


def is_aux(sym: str) -> bool:
    return sym.startswith("1_")


def is_one_family(sym: str) -> bool:
    return sym == ONE or is_aux(sym)


@dataclass(frozen=True)
class ModelParams:
    """Potential parameters, number of auxiliary 1-symbols, and graph variant.

    alpha:   depth of the potential on the 1-family (phi = -alpha there)
    gamma:   per-symbol weight on the wings
    delta:   extra per-symbol weight on 4 / 4'
    epsilon: exponent of the logarithmic run-length correction on the wings
    L:       number of auxiliary symbols 1_1 .. 1_L
    variant: "A" (single pair of wings) or "B" (doubled, mirrored wings)
    """

    alpha: float
    gamma: float
    delta: float
    epsilon: float
    L: int = 1
    variant: str = "A"

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "delta", "epsilon"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a strictly positive real, got {v!r}")
        if not (isinstance(self.L, int) and self.L >= 1):
            raise ValueError(f"L must be an integer >= 1, got {self.L!r}")
        if self.variant not in ("A", "B"):
            raise ValueError(f"variant must be 'A' or 'B', got {self.variant!r}")


#: small generic parameter set used throughout the test-suite and docs
REFERENCE = ModelParams(alpha=1.0, gamma=0.5, delta=1.0, epsilon=1.0, L=1, variant="A")


@lru_cache(maxsize=256)
def wing_params(params: ModelParams) -> ModelParams:
    """`params` with the 1-family's alpha and L set to 1: the wing parameters.

    The wings and 2-strings never see the 1-family, so P34, m*Sigma2*Sigma3,
    its boundary Z~_c, P_mid and beta_lo depend on (gamma, delta, epsilon,
    variant) alone.  Their solves key on, and run on, this set, so that sets
    differing only in alpha or L share them and no solve can read the
    caller's alpha or L.  Cached, so that equal sets map to one object and a
    memo hit looks two keys up instead of building a new set.
    """
    return replace(params, alpha=1.0, L=1)


class TransitionGraph:
    """Directed graph of allowed one-step transitions between classes of twin
    symbols: a boolean adjacency matrix over the class names, rows indexed by
    the source, and `multiplicity[j]` symbols in class j (default 1 each).
    Each symbol of class i steps to each of class j where adjacency[i, j] is
    set.  Successor tuples and the edge set over the class names are derived
    from it on first use."""

    def __init__(self, alphabet: Sequence[str], adjacency: np.ndarray,
                 multiplicity: Sequence[int] | None = None):
        self._alphabet = tuple(alphabet)
        self._index = {s: i for i, s in enumerate(self._alphabet)}
        k = len(self._alphabet)
        self._adj = np.array(adjacency, dtype=bool)
        self._mult = np.array([1] * k if multiplicity is None else multiplicity, dtype=int)
        if self._adj.shape != (k, k) or self._mult.shape != (k,) or (self._mult < 1).any():
            raise ValueError(f"adjacency {self._adj.shape} or multiplicity over {k} symbols")
        self._adj.flags.writeable = self._mult.flags.writeable = False
        self._succ: dict[str, tuple[str, ...]] = {}
        self._edges: frozenset[tuple[str, str]] | None = None

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._alphabet

    @property
    def adjacency(self) -> np.ndarray:
        """The read-only boolean adjacency matrix, in alphabet order."""
        return self._adj

    @property
    def multiplicity(self) -> np.ndarray:
        return self._mult

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        if self._edges is None:
            a = self._alphabet
            rows, cols = np.nonzero(self._adj)
            self._edges = frozenset((a[i], a[j]) for i, j in zip(rows.tolist(), cols.tolist()))
        return self._edges

    def allowed(self, a: str, b: str) -> bool:
        i, j = self._index.get(a), self._index.get(b)
        return i is not None and j is not None and bool(self._adj[i, j])

    def successors(self, a: str) -> tuple[str, ...]:
        succ = self._succ.get(a)
        if succ is None:
            row = self._adj[self._index[a]]
            succ = self._succ[a] = tuple(self._alphabet[j] for j in np.flatnonzero(row).tolist())
        return succ


_BODY = {"A": (ONE, TWO, THREE, FOUR), "B": (ONE, TWO, THREE, FOUR, THREE_P, FOUR_P)}


def _aux_number(params: ModelParams, sym: str) -> int:
    """i for the auxiliary 1_i of the alphabet, else 0."""
    i = int(sym[2:]) if is_aux(sym) and sym[2:].isdecimal() else 0
    return i if sym == aux_symbol(i) and i <= params.L else 0


# the body and the unprimed wing, and the mirrored wing of variant B
_BODY_EDGES = ((ONE, ONE), (ONE, TWO),
               (TWO, ONE), (TWO, TWO), (TWO, THREE),
               (THREE, TWO), (THREE, THREE), (THREE, FOUR),
               (FOUR, THREE), (FOUR, FOUR))
_MIRRORED_WING_EDGES = ((TWO, THREE_P),
                        (THREE_P, TWO), (THREE_P, THREE_P), (THREE_P, FOUR_P),
                        (FOUR_P, THREE_P), (FOUR_P, FOUR_P))


def build_graph(params: ModelParams,
                extra_edges: Iterable[tuple[str, str]] = ()) -> TransitionGraph:
    """Butterfly graph of the given variant, plus `extra_edges`, by classes:
    each symbol but the auxiliaries, each auxiliary an extra edge names, and
    one class of the other auxiliaries (twins), named by its first member.
    That is at most 7 + k classes for k named auxiliaries, whatever L is: an
    equitable partition, with the full graph's Perron root and closed walks.

    This is the one place where edge lists become a graph.  `extra_edges` is
    the CLI's `--corrupt-edge` negative control, the only corruption hook
    here; production runs pass none.  An extra edge on a symbol outside the
    alphabet raises ValueError.  Tests build graphs with dropped edges from
    their own edge-by-edge reference set.
    """
    extra_edges = tuple(extra_edges)
    named = sorted({_aux_number(params, s) for e in extra_edges for s in e} - {0})
    twins = params.L - len(named)
    first = next((i for i in range(1, params.L + 1) if i not in named), 0)
    aux = sorted(named + [first] * (twins > 0))
    body = _BODY[params.variant]
    alphabet = body + tuple(map(aux_symbol, aux))
    multiplicity = [1] * len(body) + [twins if i == first else 1 for i in aux]
    index = {s: i for i, s in enumerate(alphabet)}
    k = len(alphabet)
    adj = np.zeros((k, k), dtype=bool)
    # head: 1 and the auxiliaries (the last classes) form a full shift on
    # L+1 symbols, but only 1 opens the door to the body
    one, head = index[ONE], slice(len(body), k)
    adj[head, head] = adj[one, head] = adj[head, one] = True
    edges = _BODY_EDGES + (_MIRRORED_WING_EDGES if params.variant == "B" else ())
    for a, b in (*edges, *extra_edges):
        if a not in index or b not in index:
            raise ValueError(f"edge ({a!r}, {b!r}) uses a symbol outside the alphabet")
        adj[index[a], index[b]] = True
    return TransitionGraph(alphabet, adj, multiplicity)


def wing_pressure(params: ModelParams, beta: float) -> float:
    """Pressure of the wing full shift: gamma*beta + log(1 + e^(delta*beta)).

    Equals the log of the top eigenvalue of the 2x2 one-step weight matrix on
    {3,4}; always >= log 2. Evaluated in overflow-safe form.  This is the
    one place that rejects beta < 0: every pressure goes through it.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    u = params.delta * beta
    if u > 36.0:
        return params.gamma * beta + u + math.log1p(math.exp(-u))
    return params.gamma * beta + math.log1p(math.exp(u))
