"""Real Lambert W, lower branch: the solution w <= -1 of w * exp(w) = x on [-1/e, 0).

It gives the boundary-branch support point of the exponential-moment solver.
An asymptotic initial guess is refined by Halley steps, with a bracketed
search as fallback, so results are deterministic for any admissible input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .rootfind import brent

BRANCH_POINT = -math.exp(-1.0)  # -1/e, where the two real branches meet

_BRANCH_WINDOW = 1e-12  # inputs this close to -1/e return w = -1 outright
_REL_STEP_TOL = 1e-15
_MAX_HALLEY = 100


@dataclass(frozen=True)
class WValue:
    w: float
    residual: float  # |w * exp(w) - x|


def _residual(w: float, x: float) -> float:
    return abs(w * math.exp(w) - x)


def _halley(x: float, w: float) -> float:
    """Iterate w <- w - f/(f' - f*f''/(2f')) for f(w) = w e^w - x."""
    for _ in range(_MAX_HALLEY):
        if w == -1.0:
            break  # derivative vanishes at the branch point
        e = math.exp(w)
        fw = w * e - x
        denom = e * (w + 1.0) - (w + 2.0) * fw / (2.0 * (w + 1.0))
        if denom == 0.0:
            break
        step = fw / denom
        w_next = w - step
        if not math.isfinite(w_next):
            break
        if abs(step) <= _REL_STEP_TOL * max(abs(w_next), 1e-300):
            return w_next
        w = w_next
    return w


def lambert_w_minus1(x: float) -> WValue:
    """Lower real branch: the solution w <= -1 of w * exp(w) = x, x in [-1/e, 0)."""
    if not (BRANCH_POINT <= x < 0.0):
        raise DomainError(f"W_-1 needs x in [-1/e, 0), got {x}")
    if x <= BRANCH_POINT + _BRANCH_WINDOW:
        return WValue(w=-1.0, residual=_residual(-1.0, x))

    lx = math.log(-x)  # < -1 on this domain
    w = lx - math.log(-lx)
    w = _halley(x, w)
    if not (w <= -1.0 and _residual(w, x) <= 1e-13 * max(1.0, abs(x))):
        # Halley drifted toward the upper branch or stalled; fall back to a
        # guaranteed bracket: g(-1) < 0, and g(lo) > 0 as lo is below the bound
        # W_-1(x) > -1 - sqrt(2u) - u, u = -1 - lx (Chatzigeorgiou 2013).
        lo = min(2.0 * (lx - math.log(-lx)), -2.0)
        g = lambda v: v * math.exp(v) - x
        w = _halley(x, brent(g, lo, -1.0, g(lo), g(-1.0))[0])
        w = min(w, -1.0)
    return WValue(w=w, residual=_residual(w, x))
