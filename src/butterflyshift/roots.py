"""Root solvers on certified-monotone maps, in the log-offset bracket.

All implicit equations in this package (the composition boundary, beta_1,
beta_c, the pressure itself) are roots of maps proved monotone.  Roots
routinely sit a sub-double-precision distance above a known floor (a pole or
a convergence boundary), so both solvers search in t = log(w), the logarithm
of the offset w from that floor.

  * `bisect_log_offset` needs only the sign of the map; the transition
    parameters use it.
  * `newton_log_offset` solves F = 1 for a positive decreasing F that comes
    with its derivative (the pressure and the composition boundary, whose
    maps are convex sums of e^(-nZ)).  It takes Newton steps on log F
    against t and bisects in t whenever a step is not usable, so it keeps
    the bracket of the bisection and converges in a handful of evaluations.

A map that returns NaN raises ArithmeticError in both: NaN compares as "not
above the root" and would otherwise move the bracket silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

OFFSET_FLOOR = 1e-300
HI_CAP = 1e9
MAX_ITER = 240


@dataclass(frozen=True)
class RootResult:
    offset: float          # root position above the floor
    residual: float        # f at the returned offset
    bracket: tuple[float, float]


def _not_nan(v: float, w: float) -> float:
    if math.isnan(v):
        raise ArithmeticError(f"map returned NaN at offset {w!r}")
    return v


def bisect_log_offset(f: Callable[[float], float], hi0: float = 1.0) -> RootResult:
    """Root of a decreasing map f(w) on w > 0, bisected in log(w).

    f may return +inf to signal "still above the root" (e.g. a divergent
    series left of a convergence boundary).  If f is already <= 0 at the
    floor the root is numerically indistinguishable from the floor and the
    floor is returned.
    """
    def g(w: float) -> float:
        return _not_nan(f(w), w)

    f_floor = g(OFFSET_FLOOR)
    if f_floor <= 0.0:
        return RootResult(OFFSET_FLOOR, f_floor, (OFFSET_FLOOR, OFFSET_FLOOR))
    hi = hi0
    while g(hi) > 0.0:
        hi *= 4.0
        if hi > HI_CAP:
            raise ArithmeticError("no sign change up to the bracket cap")
    t_lo, t_hi = math.log(OFFSET_FLOOR), math.log(hi)
    for _ in range(MAX_ITER):
        t_mid = 0.5 * (t_lo + t_hi)
        if g(math.exp(t_mid)) > 0.0:
            t_lo = t_mid
        else:
            t_hi = t_mid
        if t_hi - t_lo < 1e-15:
            break
    w = math.exp(0.5 * (t_lo + t_hi))
    return RootResult(w, g(w), (math.exp(t_lo), math.exp(t_hi)))


def newton_log_offset(F: Callable[[float], tuple[float, float]], floor: float,
                      start: float = 1.0) -> RootResult:
    """Root of F(Z) = 1 on Z = floor + w > floor, for F positive and decreasing.

    F(Z) returns (value, dvalue/dZ); the value may be +inf ("still above the
    root") and the slope need not be finite.  The search keeps a bracket
    [w_lo, w_hi] with F > 1 at w_lo and F <= 1 at w_hi.  From the last point
    it takes the Newton step on log F against t = log(w),

        dt = -log(F) / (dF/dZ * w / F),    w' = w * e^dt,

    and bisects in t instead when F is +inf, the slope is not a finite
    negative number, or the step leaves the open bracket.  When a Newton step
    no longer moves Z it returns the point the step was taken from, with that
    point's residual.  Otherwise it stops when floor + w_lo and floor + w_hi
    are adjacent doubles and returns the end nearer F = 1.  A bisection
    midpoint that rounds to the Z of a bracket end takes that end's place
    without a new evaluation.

    The floor rule, the growth of the first upper end by 4x until F <= 1 and
    the residual (value - 1) are those of `bisect_log_offset`; the bracket is
    returned as offsets.  The first upper end is `start` (w = 1 by default):
    a grid solve passes the offset predicted from its neighbours' roots, and
    any positive start still ends in a bracketed root.
    """
    if not 0.0 < start <= HI_CAP:
        raise ValueError(f"start must lie in (0, {HI_CAP:g}], got {start!r}")

    def at(w: float) -> tuple[float, float, float, float]:
        value, slope = F(floor + w)
        return w, floor + w, _not_nan(value, w), slope

    w, z, value, _ = at(OFFSET_FLOOR)
    if value <= 1.0:
        return RootResult(OFFSET_FLOOR, value - 1.0, (OFFSET_FLOOR, OFFSET_FLOOR))
    lo = (w, z, value)                        # (w, Z, F) with F > 1
    w, z, value, slope = at(start)
    while value > 1.0:
        lo = (w, z, value)
        if w * 4.0 > HI_CAP:
            raise ArithmeticError("no sign change up to the bracket cap")
        w, z, value, slope = at(w * 4.0)
    hi = (w, z, value)                        # (w, Z, F) with F <= 1
    for _ in range(MAX_ITER):
        if value == 1.0 or math.nextafter(lo[1], math.inf) >= hi[1]:
            break
        w_new = math.nan
        if 0.0 < value < math.inf and math.isfinite(slope):
            dlog = slope * w / value          # d log F / dt
            if dlog < 0.0:
                w_new = w * math.exp(min(-math.log(value) / dlog, 700.0))
        if lo[0] <= w_new <= hi[0] and floor + w_new == z:
            # the step no longer moves Z: this point is the root
            return RootResult(w, value - 1.0, (lo[0], hi[0]))
        if not lo[0] < w_new < hi[0]:
            w_new = math.exp(0.5 * (math.log(lo[0]) + math.log(hi[0])))
            if w_new in (lo[0], hi[0]):
                break
        if floor + w_new == lo[1]:            # a known point: no evaluation
            lo = (w_new, lo[1], lo[2])
            continue
        if floor + w_new == hi[1]:
            hi = (w_new, hi[1], hi[2])
            continue
        w, z, value, slope = at(w_new)
        if value > 1.0:
            lo = (w, z, value)
        else:
            hi = (w, z, value)
    best = min(lo, hi, key=lambda end: abs(end[2] - 1.0))
    return RootResult(best[0], best[2] - 1.0, (lo[0], hi[0]))
