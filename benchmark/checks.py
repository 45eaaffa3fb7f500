"""Correctness checks on the program's outputs, made apart from the program.

Each check takes parsed outputs and returns a list of problems (empty when
the output is correct).  The truth they compare against comes from
``refmodel`` (mpmath, numpy and the model's definitions), from properties the
method guarantees (monotone maps, convexity, ordering), or from the design of
the run itself (the negative control must fail); never from a stored copy of
an earlier output.
"""

from __future__ import annotations

import csv
import math

import mpmath

import refmodel

# relative step of the sign-change probes around a reported root; a root
# that is off by more than this fails the check
ROOT_STEP = 1e-10
# printed floats carry 15 significant digits
PRINT_REL = 5e-15


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _ambiguous(beta, transition):
    return abs(beta - transition) <= 1e-9 * max(1.0, abs(transition))


# ---------------------------------------------------------------------------
# curves

def check_curve(p, grid, rows, transitions, probe_idx):
    """Check one `curves` CSV (rows as dicts of strings) for the set p.

    transitions: (beta_lo, beta_hi) from refmodel; probe_idx: grid indices
    where the two pressures are bracketed in mpmath.
    """
    problems = []
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    beta = [float(r["beta"]) for r in rows]
    p34 = [float(r["p34"]) for r in rows]
    pmid = [float(r["p_mid"]) for r in rows]
    pfull = [float(r["p_full"]) for r in rows]
    regime = [r["regime"] for r in rows]
    b_lo, b_hi = transitions

    for i, b in enumerate(beta):
        if abs(b - grid[i]) > 1e-12:
            problems.append(f"row {i}: beta {b} is not grid point {grid[i]}")
        if not pfull[i] >= pmid[i] >= p34[i]:
            problems.append(f"beta={b}: P_full >= P_mid >= P34 fails "
                            f"({pfull[i]!r}, {pmid[i]!r}, {p34[i]!r})")
        ref = refmodel.wing_pressure(p["gamma"], p["delta"], b)
        if abs(p34[i] - ref) > 1e-14 * abs(ref):
            problems.append(f"beta={b}: P34 {p34[i]!r} differs from mpmath {ref}")
        want = ("below_lo" if b < b_lo else "between" if b < b_hi else "above_hi")
        if regime[i] != want and not (_ambiguous(b, b_lo) or _ambiguous(b, b_hi)):
            problems.append(f"beta={b}: regime {regime[i]} where {want} is expected")
        if regime[i] != "below_lo" and pmid[i] != p34[i]:
            problems.append(f"beta={b}: P_mid != P34 at or past beta_lo")
        if regime[i] == "above_hi" and pfull[i] != p34[i]:
            problems.append(f"beta={b}: P_full != P34 at or past beta_hi")
    if set(regime) != {"below_lo", "between", "above_hi"}:
        problems.append(f"regimes on the grid: {sorted(set(regime))}")

    for name, curve in (("P34", p34), ("P_mid", pmid), ("P_full", pfull)):
        for i in range(1, len(curve) - 1):
            if not curve[i + 1] - 2.0 * curve[i] + curve[i - 1] > 0.0:
                problems.append(f"{name} not strictly convex at beta={beta[i]}")
                break

    if beta[0] == 0.0:
        for name, got, full in (("P_full", pfull[0], True), ("P_mid", pmid[0], False)):
            h = refmodel.topological_entropy(p, with_one_family=full)
            if abs(got - h) > 1e-10:
                problems.append(f"{name}(0) = {got!r} but log spectral radius is {h!r}")

    for i in probe_idx:
        b = beta[i]
        if not refmodel.brackets_root(
                lambda z: refmodel.lambda1_minus_one(p, b, z), pfull[i], ROOT_STEP):
            problems.append(f"beta={b}: lambda_1 - 1 keeps its sign across P_full={pfull[i]!r}")
        if not refmodel.brackets_root(
                lambda z: refmodel.composition_minus_one(p, b, z), pmid[i], ROOT_STEP):
            problems.append(f"beta={b}: m*s2*s3 - 1 keeps its sign across P_mid={pmid[i]!r}")
    return problems


# ---------------------------------------------------------------------------
# sweep (critical set + equilibria)

def _zeta_bounds(s_printed):
    """Interval of zeta over every s that prints as s_printed (zeta decreases on s > 1)."""
    u = PRINT_REL * abs(s_printed)
    lo_s, hi_s = s_printed - u, s_printed + u
    with mpmath.workdps(refmodel.DPS):
        upper = mpmath.zeta(lo_s) if lo_s > 1 else mpmath.inf
        lower = mpmath.zeta(hi_s) if hi_s > 1 else mpmath.inf
    return float(lower), float(upper)


def check_sweep(p, sweep_rows, eq_rows):
    """Check one `sweep` CSV (one value) and the `equilibria` CSV of the same set."""
    problems = []
    if len(sweep_rows) != 1 or len(eq_rows) != 2:
        return [f"expected 1 sweep row and 2 equilibria rows, got "
                f"{len(sweep_rows)} and {len(eq_rows)}"]
    r = sweep_rows[0]
    b_lo, b_hi = float(r["beta_lo"]), float(r["beta_hi"])
    eps = p["epsilon"]
    if not b_lo <= b_hi:
        problems.append(f"beta_lo {b_lo!r} > beta_hi {b_hi!r}")
    if not refmodel.brackets_root(
            lambda b: refmodel.composition_minus_one(p, b), b_lo, ROOT_STEP):
        problems.append(f"m*s2*s3 - 1 at the floor keeps its sign across beta_lo={b_lo!r}")
    if not refmodel.brackets_root(
            lambda b: refmodel.lambda1_minus_one(p, b), b_hi, ROOT_STEP):
        problems.append(f"lambda_1 - 1 at the floor keeps its sign across beta_hi={b_hi!r}")
    for key, b in (("eps_beta_lo", b_lo), ("eps_beta_hi", b_hi)):
        if abs(float(r[key]) - eps * b) > 4 * PRINT_REL * eps * b:
            problems.append(f"{key} {r[key]} != eps*beta {eps * b!r}")
    zl = float(r["zeta_eps_beta_lo"])
    lower, upper = _zeta_bounds(float(r["eps_beta_lo"]))
    if not lower * (1 - 1e-11) <= zl <= upper * (1 + 1e-11):
        problems.append(f"zeta_eps_beta_lo {zl!r} outside mpmath [{lower!r}, {upper!r}]")

    for row, which, b in zip(eq_rows, ("at_beta_lo", "at_beta_hi"), (b_lo, b_hi)):
        if row["which"] != which or float(row["beta_star"]) != b:
            problems.append(f"equilibria row {row['which']} at {row['beta_star']} "
                            f"is not {which} at {b!r}")
            continue
        eb = eps * b
        if abs(eb - 2.0) <= 1e-12:
            continue  # the criterion is undecidable in double precision here
        finite = eb > 2.0
        count = 2 if finite or p["variant"] == "B" else 1
        got = (row["return_time_derivative_finite"], row["count_lower_bound"],
               row["weight_on_cylinder"])
        if got != (str(finite), str(count), str(finite)):
            problems.append(f"{which}: verdict {got} where eps*beta={eb!r} gives "
                            f"({finite}, {count}, {finite})")
    return problems


# ---------------------------------------------------------------------------
# oracle

CERTIFIED = ("returns_to_1", "returns_to_32", "entropy vs P(0)", "entropy vs P_mid(0)")


def parse_oracle_table(text):
    """{row name: (analytic, oracle, status)} and the trailing verdict line."""
    rows = {}
    lines = text.strip().splitlines()
    for line in lines[1:]:
        if line.startswith("L_n closed form"):
            rows["L_n"] = (None, None, "ok" if line.endswith("all exact (<=1e-11 relative)")
                           else "FAIL")
            continue
        parts = line.rsplit(None, 5)
        if len(parts) == 6 and parts[5] in ("ok", "FAIL"):
            rows[parts[0]] = (float(parts[1]), float(parts[2]), parts[5])
    return rows, (lines[-1] if lines else "")


def check_oracle(p, text, rc, role):
    """Check one oracle table.

    role "reference": every row ok, exit 0.  role "negative": exit 1 with
    every certified row FAIL.  role "known_fault": only the certified rows are
    judged (the command itself is counted as failed by the caller).
    """
    rows, verdict = parse_oracle_table(text)
    problems = []
    if not any(name.startswith("periodic orbits") for name in rows):
        return [f"no periodic-orbit row in the table (exit {rc})"]
    certified = {n: v for n, v in rows.items() if n.startswith(CERTIFIED)}
    if len(certified) < 4:
        problems.append(f"only {len(certified)} certified rows")
    if role == "negative":
        if rc != 1:
            problems.append(f"negative control exited {rc}, expected 1")
        bad = [n for n, v in certified.items() if v[2] != "FAIL"]
        if bad:
            problems.append(f"negative control passes {bad}")
        return problems
    if role == "reference":
        if rc != 0 or verdict != "PASS":
            problems.append(f"exit {rc}, verdict {verdict!r}")
        bad = [n for n, v in rows.items() if v[2] != "ok"]
    else:
        bad = [n for n, v in certified.items() if v[2] != "ok"]
    if bad:
        problems.append(f"rows not ok: {bad}")
    for name, full in (("entropy vs P(0)", True), ("entropy vs P_mid(0)", False)):
        if name in rows:
            h = refmodel.topological_entropy(p, with_one_family=full)
            for got in rows[name][:2]:
                if abs(got - h) > 1e-9:
                    problems.append(f"{name}: {got!r} but log spectral radius is {h!r}")
    return problems
