"""Scalar root search on a known bracket: Brent's method.

The solvers' root equations are searched with ``brent``, from the values of
the root function at both bracket ends, which the caller supplies.  The
root functions are closures that each solve builds once, with the instance's
constants bound, so an evaluation costs its arithmetic and one call.  The
loop itself checks each value inline and takes |x| and min(x, y) as
conditional expressions, which give the same float as ``abs`` and ``min``
for every input, NaN included, without a call.
"""

from __future__ import annotations

from math import copysign, isfinite
from typing import Callable

from .errors import BracketError, NonFiniteError

_EPS = 2.0**-52  # ulp(x) <= _EPS*|x|, so Brent's least step _EPS*|x| always moves x
_TINY = 5e-324  # the least positive float: keeps that step nonzero at x = 0


def _non_finite(x: float, v: float) -> NonFiniteError:
    return NonFiniteError(f"f({x}) = {v}")


def brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> tuple[float, int]:
    """A root of f in [a, b] from fa = f(a) and fb = f(b), and the evaluations of f it made.

    fa and fb differ in sign, or one of them is 0 and that end is the root.
    Brent's method (*Algorithms for Minimization without Derivatives*, 1973,
    ch. 4) interpolates inside the sign change, bisecting wherever that
    shrinks it too slowly, until it is 2 to 4 ulp wide, and returns the end
    with the smaller |f|.  Every value of f must be finite (NonFiniteError
    otherwise), and is taken as a float.
    """
    if not isfinite(fa):
        raise _non_finite(a, fa)
    if not isfinite(fb):
        raise _non_finite(b, fb)
    if fa == 0.0 or fb == 0.0:
        return (b if fb == 0.0 else a), 0
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"f({a}) and f({b}) do not bracket a root")
    eps, tiny = _EPS, _TINY
    evals = 0
    c, fc = a, fa  # b is the best point so far, a the previous one; c keeps the sign change
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        # |x| below is (x if x > 0.0 else 0.0 - x): abs(x) for every float
        if (fc if fc > 0.0 else 0.0 - fc) < (fb if fb > 0.0 else 0.0 - fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = eps * (b if b > 0.0 else 0.0 - b) + tiny
        m = 0.5 * (c - b)
        if (m if m > 0.0 else 0.0 - m) <= tol or fb == 0.0:
            return b, evals
        if (e if e > 0.0 else 0.0 - e) < tol or (fa if fa > 0.0 else 0.0 - fa) <= (
            fb if fb > 0.0 else 0.0 - fb
        ):
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
            else:
                p = 0.0 - p
            # min(x, y) is (y if y < x else x), the first of equals kept
            x, y = tol * q, e * q
            x = 3.0 * m * q - (x if x > 0.0 else 0.0 - x)
            y = y if y > 0.0 else 0.0 - y
            if 2.0 * p < (y if y < x else x):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if (d if d > 0.0 else 0.0 - d) > tol else copysign(tol, m)
        fb = f(b)
        if not isfinite(fb):
            raise _non_finite(b, fb)
        fb = float(fb)
        evals += 1
