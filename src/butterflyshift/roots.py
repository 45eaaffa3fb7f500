"""Bisection on certified-monotone maps.

All implicit equations in this package (the composition boundary, beta_1,
beta_c, the pressure itself) are roots of maps proved monotone, so bisection
is the whole story.  Roots routinely sit a sub-double-precision distance above
a known floor (a pole or a convergence boundary), so the search runs in the
logarithm of the offset from that floor.
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


def bisect_log_offset(f: Callable[[float], float], hi0: float = 1.0) -> RootResult:
    """Root of a decreasing map f(w) on w > 0, bisected in log(w).

    f may return +inf to signal "still above the root" (e.g. a divergent
    series left of a convergence boundary).  If f is already <= 0 at the
    floor the root is numerically indistinguishable from the floor and the
    floor is returned.
    """
    f_floor = f(OFFSET_FLOOR)
    if f_floor <= 0.0:
        return RootResult(OFFSET_FLOOR, f_floor, (OFFSET_FLOOR, OFFSET_FLOOR))
    hi = hi0
    while f(hi) > 0.0:
        hi *= 4.0
        if hi > HI_CAP:
            raise ArithmeticError("no sign change up to the bracket cap")
    t_lo, t_hi = math.log(OFFSET_FLOOR), math.log(hi)
    for _ in range(MAX_ITER):
        t_mid = 0.5 * (t_lo + t_hi)
        if f(math.exp(t_mid)) > 0.0:
            t_lo = t_mid
        else:
            t_hi = t_mid
        if t_hi - t_lo < 1e-15:
            break
    w = math.exp(0.5 * (t_lo + t_hi))
    return RootResult(w, f(w), (math.exp(t_lo), math.exp(t_hi)))
