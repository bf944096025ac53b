"""Scalar root search on a known bracket: Brent's method.

The solvers' root equations are searched with ``brent``, from the values of
the root function at both bracket ends, which the caller supplies.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketError, NonFiniteError

_EPS = 2.0**-52  # ulp(x) <= _EPS*|x|, so Brent's least step _EPS*|x| always moves x
_TINY = 5e-324  # the least positive float: keeps that step nonzero at x = 0


def _checked(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise NonFiniteError(f"f({x}) = {v}")
    return float(v)


def brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> tuple[float, int]:
    """A root of f in [a, b] from fa = f(a) and fb = f(b), and the evaluations of f it made.

    fa and fb differ in sign, or one of them is 0 and that end is the root.
    Brent's method (*Algorithms for Minimization without Derivatives*, 1973,
    ch. 4) interpolates inside the sign change, bisecting wherever that
    shrinks it too slowly, until it is 2 to 4 ulp wide, and returns the end
    with the smaller |f|.
    """
    for x, v in ((a, fa), (b, fb)):
        if not math.isfinite(v):
            raise NonFiniteError(f"f({x}) = {v}")
    if fa == 0.0 or fb == 0.0:
        return (b if fb == 0.0 else a), 0
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"f({a}) and f({b}) do not bracket a root")
    evals = 0
    c, fc = a, fa  # b is the best point so far, a the previous one; c keeps the sign change
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = _EPS * abs(b) + _TINY
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, evals
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = _checked(f, b)
        evals += 1

