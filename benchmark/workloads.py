"""The three workloads: their inputs, how an item runs, and how it is checked.

An item is one beta point (`curves`), one parameter set (`sweep`) or one
verification table (`oracle`).  Every input comes from a generator seeded by
the benchmark's --seed, and no input is fed twice to one process while
timing: `critical_set` is cached per parameter set, so a repeated input would
time a cache hit rather than the work.

The log-uniform sets of `curves` and `sweep` form a fixed design, drawn once
from a constant seed; --seed scales each of their parameters by its own
factor within 2 %, afresh every time a set is fed.  An item's cost varies
several-fold over the design, so a design drawn anew from every seed made the
mix of cheap and dear items, and with it the figures, move from seed to seed.

Items run in-process through `butterflyshift.cli.main`, the way the repo's
scripts call it; CSV outputs go to files under the work directory and are
read back outside the timed window.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
from dataclasses import dataclass, field

import checks
import refmodel

REFERENCE = {"alpha": 1.0, "gamma": 0.5, "delta": 1.0, "epsilon": 1.0, "L": 1, "variant": "A"}
GRID_POINTS = 121          # as in configs/reference.cfg: 0 .. 1.2 step 0.01
GRID_STOP_FACTOR = 1.2     # the grid ends 20 % past beta_hi
CURVE_PROBES = 16          # grid points per curve bracketed in mpmath
DESIGN_POINTS = 31         # design curves are shorter, so that a round holds more of them
JITTER = 0.02              # seeded factors on a design set lie in exp(+-JITTER)


@dataclass
class Item:
    """One operation: the CLI commands it runs and what its check needs."""

    kind: str
    params: dict
    commands: list
    points: int = 1                 # items this operation counts for
    round_end: bool = True          # a run may stop after this operation
    role: str = "reference"         # oracle: reference / negative / known_fault
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    item_seconds: list
    failed: bool
    outputs: list


def _flags(p, base=REFERENCE):
    """CLI flags that turn the reference config into parameter set p."""
    out = []
    for key in ("alpha", "gamma", "delta", "epsilon", "L", "variant"):
        if p[key] != base[key]:
            out += [f"--{key}", repr(p[key]) if isinstance(p[key], float) else str(p[key])]
    return out


def latin_hypercube(rng, ranges, n):
    """n parameter sets, log-uniform over ranges, one per stratum of each key.

    L is the integer part of its draw; the variants alternate A, B.
    """
    strata = {key: rng.sample(range(n), n) for key in ranges}
    for j in range(n):
        p = {key: lo * (hi / lo) ** ((strata[key][j] + rng.random()) / n)
             for key, (lo, hi) in ranges.items()}
        p["L"] = int(p["L"])
        p["variant"] = "AB"[j % 2]
        yield p


def design(name, ranges, n):
    """The fixed log-uniform design of a workload: the same n sets for every seed."""
    return list(latin_hypercube(random.Random(f"{name}:design"), ranges, n))


def jittered(p, rng):
    """p with alpha, gamma, delta and epsilon each scaled by a seeded factor."""
    q = dict(p)
    for key in ("alpha", "gamma", "delta", "epsilon"):
        q[key] = p[key] * math.exp(rng.uniform(-JITTER, JITTER))
    return q


class Workload:
    """Input stream, execution and checks shared by the three workloads."""

    name = ""

    def __init__(self, root, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = os.path.join(root, "configs", "reference.cfg")
        self.rng = random.Random(f"{self.name}:{seed}")

    def out(self, tag):
        return os.path.join(self.workdir, f"{self.name}-{tag}.csv")

    # subclasses: stream(), warmup(), trace_items(), read(), check()

    def execute(self, item, main, stamps):
        """Run the item's commands; returns the outcome with its raw outputs."""
        stamps.clear()
        texts, codes = [], []
        t0 = time.perf_counter()
        for argv in item.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(main(argv))
            texts.append(buf.getvalue())
        t1 = time.perf_counter()
        return Outcome(t1 - t0, self.item_seconds(item, t0, t1, stamps),
                       any(codes) and item.role != "negative", (codes, texts))

    def item_seconds(self, item, t0, t1, stamps):
        return [t1 - t0]


# ---------------------------------------------------------------------------

class Curves(Workload):
    """`curves` on the reference set of both variants, then the design sets.

    A round is the two reference curves followed by the design curves.  The
    first round feeds the reference sets as they are; every later one, and
    every design set, carries fresh seeded factors.  A run stops only at the
    end of a round, so it times the same mix of curves whatever its length
    and seed.

    Every grid runs from 0 to 20 % past beta_hi, with its step chosen so that
    one grid point falls midway between beta_lo and beta_hi: all three regime
    labels occur on every curve, even where the two transitions lie 4e-5
    apart (the reference set).
    """

    name = "curves"
    # within a factor 1.5 of the reference set; a curve's cost still varies
    # about 2x over these ranges, mostly with epsilon and delta
    RANGES = {"alpha": (1 / 1.5, 1.5), "gamma": (0.5 / 1.5, 0.5 * 1.5),
              "delta": (1 / 1.5, 1.5), "epsilon": (1 / 1.5, 1.5), "L": (1, 9)}
    DESIGN_SETS = 8

    def _item(self, p, tag, points=GRID_POINTS, round_end=True):
        b_lo, b_hi = refmodel.transitions(p)
        mid = 0.5 * (b_lo + b_hi)
        h0 = GRID_STOP_FACTOR * b_hi / (points - 1)
        step = mid / max(1, round(mid / h0))
        grid = [round(k * step, 12) for k in range(points)]
        out = self.out(tag)
        argv = (["curves", "--config", self.config] + _flags(p)
                + ["--beta-start", "0", "--beta-stop", repr(grid[-1]),
                   "--beta-step", repr(step), "--out", out])
        probes = sorted(self.rng.sample(range(1, points), min(CURVE_PROBES, points - 1)))
        return Item("curves", p, [argv], points=points, round_end=round_end,
                    extra={"grid": grid, "transitions": (b_lo, b_hi),
                           "probes": probes, "out": out})

    def stream(self):
        refs = [dict(REFERENCE), dict(REFERENCE, variant="B")]
        sets = design(self.name, self.RANGES, self.DESIGN_SETS)
        first = True
        while True:
            curves = ([(p if first else jittered(p, self.rng), "ref" + p["variant"], GRID_POINTS)
                       for p in refs]
                      + [(jittered(p, self.rng), f"s{k}", DESIGN_POINTS)
                         for k, p in enumerate(sets)])
            for i, (p, tag, points) in enumerate(curves):
                yield self._item(p, tag, points, round_end=i == len(curves) - 1)
            first = False

    def warmup(self):
        rng = random.Random(f"warmup:{self.seed}")
        p = next(latin_hypercube(rng, self.RANGES, self.DESIGN_SETS))
        return [self._item(p, "warmup", points=21)]

    def trace_items(self):
        stream = self.stream()
        return [next(stream) for _ in range(3)]

    def item_seconds(self, item, t0, t1, stamps):
        # one stamp per returned pressure_sample; without them the command
        # time is split evenly over its points
        if len(stamps) != item.points:
            return [(t1 - t0) / item.points] * item.points
        edges = [t0] + stamps
        return [b - a for a, b in zip(edges, edges[1:])]

    def read(self, item, outcome):
        return checks.read_csv(item.extra["out"])

    def check(self, item, outcome, rows):
        return checks.check_curve(item.params, item.extra["grid"], rows,
                                  item.extra["transitions"], item.extra["probes"])


# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Critical set plus both equilibrium verdicts per parameter set.

    A round is the delta and L values of scripts/sweep_regimes.py followed by
    the design sets, both variants with L up to 400.  The first round feeds
    the script sets as they are; every later one, and every design set,
    carries fresh seeded factors.  A run stops only at the end of a round, so
    it times the same mix of sets whatever its length and seed.
    """

    name = "sweep"

    SCRIPT_SETS = ([("delta", v) for v in (2.0, 5.0, 10.0, 20.0)]
                   + [("L", v) for v in (1, 5, 20, 50, 100, 175, 250)])
    # epsilon stays below 1.5: item times fall in clusters, a set being fast
    # mostly when epsilon or L is large, and these ranges keep the median
    # item inside a cluster rather than in the gap between two
    RANGES = {"alpha": (0.3, 3.0), "gamma": (0.2, 2.0), "delta": (0.3, 3.0),
              "epsilon": (0.5, 1.5), "L": (1, 401)}
    DESIGN_SETS = 37

    def _item(self, p, param, round_end=True):
        value = p[param]
        value_arg = repr(value) if isinstance(value, float) else str(value)
        base = dict(p)
        base[param] = REFERENCE[param]
        s_out, e_out = self.out("sweep"), self.out("equilibria")
        sweep = (["sweep", "--config", self.config] + _flags(base)
                 + ["--param", param, "--values", value_arg, "--out", s_out])
        equilibria = ["equilibria", "--config", self.config] + _flags(p) + ["--out", e_out]
        return Item("sweep", p, [sweep, equilibria], round_end=round_end,
                    extra={"out": (s_out, e_out)})

    def stream(self):
        script = [(dict(REFERENCE, **{param: value}), param) for param, value in self.SCRIPT_SETS]
        sets = design(self.name, self.RANGES, self.DESIGN_SETS)
        first = True
        while True:
            items = ([(p if first else jittered(p, self.rng), param) for p, param in script]
                     + [(jittered(p, self.rng), "L") for p in sets])
            for i, (p, param) in enumerate(items):
                yield self._item(p, param, round_end=i == len(items) - 1)
            first = False

    def warmup(self):
        rng = random.Random(f"warmup:{self.seed}")
        return [self._item(p, "L") for p in latin_hypercube(rng, self.RANGES, 5)]

    def trace_items(self):
        stream = self.stream()
        return [next(stream) for _ in range(3 * (len(self.SCRIPT_SETS) + self.DESIGN_SETS))]

    def read(self, item, outcome):
        s_out, e_out = item.extra["out"]
        return checks.read_csv(s_out), checks.read_csv(e_out)

    def check(self, item, outcome, rows):
        return checks.check_sweep(item.params, *rows)


# ---------------------------------------------------------------------------

class Oracle(Workload):
    """Rounds of verification tables: both reference variants, variant A at
    one large and three small seeded L, the negative control, and the known
    periodic-orbit fault.

    A table takes seconds, so a run holds one round.  A table's time grows
    with L, and the median table is one of the small-L ones, so each seeded L
    comes from a narrow window: a window per slot keeps the median table
    steady from seed to seed.  Every L of these windows passes today, so no
    seed can make a reference table fail; L = 4 and 5 are left out because
    their periodic-orbit row fails.  The windows hold WINDOW values each and
    no L repeats, so the stream ends after WINDOW rounds.
    """

    name = "oracle"

    KNOWN_FAULT = {"alpha": 3.0, "gamma": 0.2, "delta": 0.5, "epsilon": 3.5, "L": 2,
                   "variant": "A"}
    LARGE_L = 298
    SMALL_L = (8, 18, 28)
    WINDOW = 3

    def _item(self, p, role, extra_flags=(), round_end=False):
        argv = ["oracle", "--config", self.config] + _flags(p) + list(extra_flags)
        return Item("oracle", p, [argv], role=role, round_end=round_end)

    def stream(self):
        windows = [self.rng.sample(range(lo, lo + self.WINDOW), self.WINDOW)
                   for lo in (self.LARGE_L,) + self.SMALL_L]
        for ls in zip(*windows):
            yield self._item(dict(REFERENCE), "reference")
            yield self._item(dict(REFERENCE, variant="B"), "reference")
            for L in ls:
                yield self._item(dict(REFERENCE, L=L), "reference")
            yield self._item(dict(REFERENCE), "negative", ["--corrupt-edge", "4:2"])
            yield self._item(dict(self.KNOWN_FAULT), "known_fault", round_end=True)

    def warmup(self):
        small = ["--n-return", "8", "--n-period", "6", "--n-ln", "6"]
        return [self._item(dict(REFERENCE, L=45), "reference", small)]

    def trace_items(self):
        stream = self.stream()
        return [next(stream) for _ in range(3 + len(self.SMALL_L) + 2)]

    def read(self, item, outcome):
        return outcome.outputs[1][0]

    def check(self, item, outcome, text):
        return checks.check_oracle(item.params, text, outcome.outputs[0][0], item.role)


WORKLOADS = {w.name: w for w in (Curves, Sweep, Oracle)}
