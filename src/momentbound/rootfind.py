"""Scalar root search: open-interval bisection and guarded Newton polish.

Every search in the package is a root of a monotone or sign-changing scalar
function on a known bracket: the solvers' support-point equations, and the
newsvendor's optimality condition.  The bisection variant accepts a bracket
whose left endpoint is itself a root, provided the function leaves that root
with the sign opposite to f(b).  That case arises naturally when a solve
bracket starts exactly on a known zero of the root function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import BracketError, DomainError, NonFiniteError

_ZERO_FLOOR = 1e-300  # |f| at or below this counts as an exact zero

EXACT_ZERO = "exact_zero"
TOLERANCE_REACHED = "tolerance_reached"


@dataclass(frozen=True)
class BisectResult:
    root: float
    iterations: int
    status: str  # EXACT_ZERO or TOLERANCE_REACHED
    # the bracket (a, b) that held the root when the search stopped,
    # a < root <= b; root is its midpoint unless the search stopped at b
    bracket: tuple[float, float]


def _checked(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise NonFiniteError(f"f({x}) = {v}")
    return float(v)


def bisect(
    f: Callable[[float], float],
    a: float,
    b: float,
    eps: float,
    *,
    assume_left_root: bool = False,
) -> BisectResult:
    """Find a root of f in the open interval (a, b).

    Requires either a sign change between the endpoints, or f(a) = 0 with f
    taking the sign opposite to f(b) immediately right of a.  The latter is
    detected by probing f(a + delta) with delta = min(eps, (b-a)*1e-6), or
    asserted outright via ``assume_left_root`` when the caller knows it
    analytically (a float evaluation of f(a) may then be tiny but nonzero).

    The returned point is always strictly greater than a.
    """
    if not a < b:
        raise DomainError(f"need a < b, got ({a}, {b})")
    if not eps > 0.0:
        raise DomainError("eps must be positive")

    fb = _checked(f, b)
    if abs(fb) <= _ZERO_FLOOR:
        return BisectResult(root=b, iterations=0, status=EXACT_ZERO, bracket=(a, b))
    sb = 1.0 if fb > 0.0 else -1.0

    if not assume_left_root:
        fa = _checked(f, a)
        if abs(fa) <= _ZERO_FLOOR:
            delta = min(eps, (b - a) * 1e-6)
            fp = _checked(f, a + delta)
            sa = math.copysign(1.0, fp) if abs(fp) > _ZERO_FLOOR else -sb
        else:
            sa = 1.0 if fa > 0.0 else -1.0
        if sa == sb:
            raise BracketError(f"f({a}) and f({b}) do not bracket a root")

    iterations = 0
    while True:
        c = 0.5 * (a + b)
        if c <= a or c >= b:
            # interval has collapsed to float resolution; b keeps the
            # open-interval guarantee root > a
            return BisectResult(
                root=b, iterations=iterations, status=TOLERANCE_REACHED, bracket=(a, b)
            )
        fc = float(f(c))
        if not math.isfinite(fc):
            raise NonFiniteError(f"f({c}) = {fc}")
        iterations += 1
        if abs(fc) <= _ZERO_FLOOR:
            return BisectResult(root=c, iterations=iterations, status=EXACT_ZERO, bracket=(a, b))
        if 0.5 * (b - a) <= eps:
            return BisectResult(
                root=c, iterations=iterations, status=TOLERANCE_REACHED, bracket=(a, b)
            )
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
        else:
            a = c


def polish_root(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    x0: float,
    lo: float,
    hi: float,
) -> float:
    """Guarded Newton refinement of an already-localized root.

    Keeps the iterate inside (lo, hi), keeps the point with the smallest |f|
    seen, and stops once |f| no longer improves.  Used by solvers to push a
    bisection root to float resolution so certificate residuals vanish.
    """
    x = x0
    fx = _checked(f, x)
    best_x, best_f = x, abs(fx)
    for _ in range(8):  # Newton steps at most
        d = fprime(x)
        if not math.isfinite(d) or d == 0.0:
            break
        x_next = x - fx / d
        if not math.isfinite(x_next) or not (lo < x_next < hi):
            break
        fx = float(f(x_next))
        if not math.isfinite(fx):
            raise NonFiniteError(f"f({x_next}) = {fx}")
        x = x_next
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        else:
            break
    return best_x

