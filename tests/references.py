"""Independent references the tests compare the package against.

None of these is part of the package: each is a closed form or a plain
definition that a solver result must reproduce, or an earlier version of a
package loop that its faster successor must match bit for bit.
"""

import math
from dataclasses import dataclass
from math import log, sqrt
from typing import Callable

import mpmath as mp
import numpy as np

from momentbound.core import (
    DiscreteDistribution,
    DualCertificate,
    GmpInstance,
    MomentFunction,
    VerificationReport,
    _power,
)
from momentbound.errors import (
    BracketError,
    BranchError,
    DimensionError,
    DomainError,
    NonFiniteError,
    RangeError,
    RootBracketError,
)
from momentbound import exp_moment
from momentbound.newsvendor import _MAX_OFFSET, OrderDecision
from momentbound.oracle import (
    _DEGENERATE_RUN,
    _PHASE1_TOL,
    _PIVOT_TOL,
    _RC_TOL,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    GridSpec,
    OracleResult,
    RefineOutcome,
)
from momentbound.partial_moment import solve_partial_moment
from momentbound.power_moment import _takes_boundary
from momentbound.rootfind import brent


def power_threshold(inst) -> float:
    """Largest q (original units) for which the mp1t closed-form branch applies."""
    M1, t, edge = inst.M1, inst.t, inst.edge_scaled
    q = M1 * (t - 1.0) / t * edge  # can round to either side of the branch's last order
    while not _takes_boundary(q / M1, t, edge):
        q = math.nextafter(q, -math.inf)
    while (up := math.nextafter(q, math.inf)) < math.inf and _takes_boundary(up / M1, t, edge):
        q = up
    return q


def exp_threshold(inst) -> float:
    """Largest q (original units) for which the mp1e closed-form branch applies."""
    t, m1, me = inst.t, inst.m1_scaled, inst.Me
    takes_boundary = lambda q: exp_moment._takes_boundary(t * q, m1, me)
    q = (exp_moment.compute_v1(m1, me) + m1 / (me - 1.0) - 1.0) / t  # within ulps of the last order
    while not takes_boundary(q):
        q = math.nextafter(q, -math.inf)
    while takes_boundary(up := math.nextafter(q, math.inf)):
        q = up
    return q


def scarf_value(M1: float, M2: float, q: float) -> float:
    """Mean-variance bound 0.5*(sqrt(sigma^2 + (q-mu)^2) - (q-mu)) (Scarf 1958).

    The worst-case E[(X - q)_+] given the mean and the second moment, i.e. the
    power-moment problem at t = 2.
    """
    sigma2 = M2 - M1 * M1
    return 0.5 * (np.sqrt(sigma2 + (q - M1) ** 2) - (q - M1))


def theta(y: float, inst) -> float:
    """The mp1t interior root function in its original form, in mean-scaled units.

    With mt = Mt/M1^t and qs = q/M1 of a ``PowerMomentInstance``:

      theta(y) = (y^t - mt)/(y - 1) * (1 - u(y)) + u(y)^t - mt,
      u(y) = (t*qs/(t-1)) * (y^(t-1) - mt) / (y^t - mt).

    Defined for y > 1 away from the pole y^t = mt.  The solver searches
    psi (built in ``power_moment._candidate``), which has theta's root right
    of the edge without its cancelling terms; the sign conditions of the
    paper are stated on theta.
    """
    if y <= 1.0:
        raise DomainError(f"theta needs y > 1, got {y}")
    t, mt, qs = inst.t, inst.mt_scaled, inst.q_scaled
    try:
        yt = y**t
    except OverflowError:
        raise RangeError(f"y^t overflows at y={y:g}, t={t:g}") from None
    if yt == mt:
        raise NonFiniteError(f"theta pole at y={y}: y^t equals the scaled moment")
    u = (t * qs / (t - 1.0)) * (y ** (t - 1.0) - mt) / (yt - mt)
    # u is nonnegative right of the edge; roundoff can push it a few ulp
    # negative right at the edge, where an odd extension of u^t keeps the
    # expression real and continuous
    u_pow = abs(u) ** t if u >= 0.0 else -(abs(u) ** t)
    return (yt - mt) / (y - 1.0) * (1.0 - u) + u_pow - mt


def mean_variance_order(M1: float, M2: float, eta: float) -> float:
    """Robust newsvendor order mu + sigma/2 * (sqrt(eta/(1-eta)) - sqrt((1-eta)/eta)).

    The minimizer of the Scarf bound plus (1 - eta) * q over q, given the mean
    and the second moment (Scarf 1958; Gallego & Moon 1993), wherever it is
    positive.
    """
    sigma = sqrt(M2 - M1 * M1)
    return M1 + 0.5 * sigma * (sqrt(eta / (1.0 - eta)) - sqrt((1.0 - eta) / eta))


@dataclass(frozen=True)
class ExponentialDemand:
    """Exponential demand with rate lam (mean 1/lam)."""

    lam: float

    def quantile(self, eta: float) -> float:
        """The classical newsvendor order for this known demand."""
        return -log(1.0 - eta) / self.lam


def worst_case_objective(inst, q: float) -> float:
    """f(q) = worst-case E[(X - q)_+] + (1 - eta) * q, as optimize_order evaluates it.

    At q = 0 every feasible law is a worst case, with E[(X - 0)_+] = M1.
    """
    amb = inst.ambiguity
    return (amb.M1 if q == 0.0 else amb.solve(q).value) + (1.0 - inst.eta) * q


def chernoff_tail_bound(Me: float, t: float, q: float) -> float:
    """Me * exp(-(t*q + 1)) / t, an upper bound on E[(X - q)_+] given E[exp(t*X)] = Me.

    (x - q)_+ <= exp(t*(x - q) - 1)/t for every x, so every feasible law
    has E[(X - q)_+] <= Me * exp(-(t*q + 1))/t.
    """
    return Me * math.exp(-(t * q + 1.0)) / t


def exp_moment_value_50(M1: float, Me: float, t: float, q: float) -> float:
    """The interior mp1e worst case at 50 digits, from phi's root bisected in log g.

    phi in the gap g = t*M1 - u of the lower support point u is positive
    toward g = t*M1 - min(t*M1, t*q) and negative at g = t*M1.  When the
    root hugs the pole it lies above (Me - e^(t*M1)) * (t*q + 1 - t*M1) /
    e^(t*q + 1), where phi's first term reaches e^(t*q + 1).
    """
    with mp.workdps(50):
        t_ = mp.mpf(t)
        m1, me, qs = t_ * mp.mpf(M1), mp.mpf(Me), t_ * mp.mpf(q)

        def phi_gap(g):
            eu = mp.exp(m1 - g)
            den = me - eu
            return den / g * (qs + 1 - m1) - eu - mp.exp(qs + 1 - eu * g / den) + me

        if qs < m1:
            lo = mp.log(m1 - qs)
        else:
            lo = mp.log((me - mp.exp(m1)) * (qs + 1 - m1)) - (qs + 1) - 1
        hi = mp.log(m1)
        for _ in range(400):
            mid = (lo + hi) / 2
            if phi_gap(mp.exp(mid)) > 0:
                lo = mid
            else:
                hi = mid
        g = mp.exp(hi)
        eu = mp.exp(m1 - g)
        ratio = eu * g / (me - eu)
        return float((1 - ratio) * g / (((qs + 1 - m1) + g - ratio) * t_))


def power_moment_value_50(M1: float, Mt: float, t: float, q: float) -> float:
    """The interior mp1t worst case at 50 digits, from psi's root bisected, float inputs exact.

    In mean-scaled units, with c = t*qs/(t-1), G = y^(t-1) - mt and
    D = y^t - mt, the lower point is u(y) = c*G/D and psi(y) =
    (y - c) + c*(y - 1)*u^(t-1)/D (``power_moment._candidate``) is negative
    at max(edge, qs) and positive at c.  The value is
    M1*(v - qs)*(1 - u)/(v - u) at psi's root v.
    """
    with mp.workdps(50):
        m1, tt = mp.mpf(M1), mp.mpf(t)
        mt, qs = mp.mpf(Mt) / m1**tt, mp.mpf(q) / m1
        c = tt * qs / (tt - 1)

        def lower(y):
            return c * (y ** (tt - 1) - mt) / (y**tt - mt)

        def psi(y):
            return (y - c) + c * (y - 1) * lower(y) ** (tt - 1) / (y**tt - mt)

        lo, hi = max(mt ** (1 / (tt - 1)), qs), c
        for _ in range(400):
            mid = (lo + hi) / 2
            if psi(mid) < 0:
                lo = mid
            else:
                hi = mid
        u = lower(hi)
        return float(m1 * (hi - qs) * (1 - u) / (hi - u))


def boundary_point_50(m1: float, Me: float) -> float:
    """The mp1e boundary point v1 at 50 digits, from the rate-scaled float inputs taken as exact.

    v1 > 0 solves (e^v - 1)/v = a = (Me - 1)/m1, which lies between e^(v/2)
    and e^v, so log a <= v1 <= 2*log a; at 50 digits the equation is searched
    in its plain form.
    """
    with mp.workdps(50):
        m1_, me = mp.mpf(m1), mp.mpf(Me)
        log_a = mp.log((me - 1) / m1_)
        f = lambda v: mp.log(mp.expm1(v) / v) - log_a
        return float(mp.findroot(f, (log_a, 2 * log_a), solver="anderson"))


def verified_order_search(inst) -> tuple[float, float, int]:
    """(q*, objective, iterations) of the order search on verified solves.

    The envelope-theorem bisection of p_hi(q) - (1 - eta) on (0, hi], hi the
    moment-bound tail cutoff, with every midpoint read from the public,
    verified `ambiguity.solve`: an independent search for the order that
    the closed form must land within eps of.
    """
    amb = inst.ambiguity
    mass = 1.0 - inst.eta
    hi = amb.tail_cutoff(mass)

    def excess(q: float) -> float:
        return -mass if q >= hi else amb.solve(q).dist.points[-1][1] - mass

    res = reference_bisect(excess, 0.0, hi, inst.eps, assume_left_root=True)
    value = amb.solve(res.root).value
    return res.root, value + mass * res.root, res.iterations


def reference_optimize_order(inst) -> OrderDecision:
    """The two-end `optimize_order`: verified worst cases at q* - eps and q* + eps.

    Both ends are solved, stepping out as the package's solved end does, and
    then the worst case at q* is certified.  The package certifies q* first
    and takes it as the end on its own side of 1 - eta, so it solves the
    other end alone (both where q*'s gap is too wide for a left end).
    """
    amb = inst.ambiguity
    mass = 1.0 - inst.eta
    hi = amb.tail_cutoff(mass)
    if not math.isfinite(hi):
        raise RangeError(f"no finite q brings the moment bound on P(X > q) down to {mass:g}")
    q, worst_case = amb._order_at_mass(mass)
    if not 0.0 <= q < hi:
        raise RootBracketError(f"closed-form order {q:g} lies outside [0, tail cutoff {hi:g})")
    cap = max(inst.eps, _MAX_OFFSET * q)
    solves = doublings = 0

    def end(side: float):
        nonlocal solves, doublings
        offset = inst.eps
        while offset <= cap:
            x = min(max(q + side * offset, 0.0), hi)
            if x in (0.0, hi):
                return x, None
            if x != q:
                solves += 1
                report = amb.solve(x)
                if side * (report.dist.points[-1][1] - mass) <= 0.0:
                    return x, report
            offset *= 2.0
            doublings += 1
        raise RootBracketError(
            f"p_hi within {cap:g} on the {'left' if side < 0.0 else 'right'} of the "
            f"closed-form order {q:g} is on the wrong side of 1 - eta = {mass:g}"
        )

    (a, lo), (b, up) = end(-1.0), end(1.0)
    if q == 0.0 and up is not None:
        report = up
    else:
        solves += 1
        report = worst_case(q or b)
    return OrderDecision(
        q_star=q,
        objective=report.value + mass * q if q > 0.0 else amb.M1,
        iterations=doublings,
        inner_solves=solves,
        report=report,
        bracket=(a, b),
        bracket_reports=(lo, up),
    )


def evaluate(f: MomentFunction, x):
    """f(x) on scalars or numpy arrays, from the family's textbook definition."""
    x = np.asarray(x, dtype=float)
    family, p = f.family, f.param
    if family == "monomial":
        return x + 0.0 if p == 1.0 else np.power(x, p)
    if family == "positive_part":
        return np.maximum(x - p, 0.0)
    if family == "squared_positive_part":
        return np.maximum(x - p, 0.0) ** 2
    if family == "exponential":
        return np.exp(p * x)
    return np.ones_like(x)


def moments_of(dist, hs) -> np.ndarray:
    """Moment vector of a discrete distribution: component i is sum_j h_i(x_j) p_j."""
    xs, ps = dist.xs, dist.ps
    return np.array([float(np.dot(evaluate(h, xs), ps)) for h in hs])


def h_function(cert, inst, x: float) -> float:
    """H(x; z) = sum_i z_i h_i(x) - g(x), from `evaluate`."""
    if len(cert.z) != len(inst.hs):
        raise DimensionError(f"certificate length {len(cert.z)} vs {len(inst.hs)} functions")
    if not x >= 0.0:
        raise DomainError(f"x={x} outside [0, inf)")
    return float(sum(z * evaluate(h, x) for z, h in zip(cert.z, inst.hs)) - evaluate(inst.g, x))


def _h_on(cert, inst, xs):
    total = -evaluate(inst.g, xs)
    for z, h in zip(cert.z, inst.hs):
        if z != 0.0:
            total = total + z * evaluate(h, xs)
    return total


def dual_scan(inst, dist, cert, hi: float, grid_points: int = 10_000) -> tuple[float, float]:
    """Sampled minimum of H (of -H for "min" instances) and where it lies.

    The grid is uniform on [0, hi], plus the support and the kinks.
    """
    grid = np.concatenate(
        [
            np.linspace(0.0, hi, grid_points),
            dist.xs,
            np.asarray(nondiff_points(inst)),
        ]
    )
    hg = _h_on(cert, inst, grid)
    signed = hg if inst.sense == "max" else -hg
    j = int(np.argmin(signed))
    return float(signed[j]), float(grid[j])


def scan_verification(inst, dist, cert, tol, hi: float) -> VerificationReport:
    """The optimality check with dual feasibility sampled by `dual_scan` on [0, hi], in numpy.

    A sampled scan proves nothing about H between or beyond its grid points;
    it is here to show what the exact check catches that a scan would pass.
    """
    xs, ps = dist.xs, dist.ps
    ms = np.asarray(inst.ms, dtype=float)
    primal_residual = float(np.max(np.abs(moments_of(dist, inst.hs) - ms)))
    slack_residual = float(np.max(np.abs(_h_on(cert, inst, xs))))
    dual_min, _ = dual_scan(inst, dist, cert, hi)
    primal_value = float(np.dot(evaluate(inst.g, xs), ps))
    dual_value = float(np.dot(np.asarray(cert.z, dtype=float), ms))
    duality_gap = abs(primal_value - dual_value)
    passed = (
        primal_residual <= tol.primal * max(1.0, float(np.max(np.abs(ms))))
        and dual_min >= -tol.dual
        and duality_gap <= tol.gap * max(1.0, abs(primal_value))
        and math.isfinite(primal_value)
    )
    return VerificationReport(
        primal_residual=primal_residual,
        slack_residual=slack_residual,
        dual_min_on_grid=dual_min,
        duality_gap=duality_gap,
        passed=passed,
        primal_value=primal_value,
        dual_value=dual_value,
    )


def grid_points(spec) -> np.ndarray:
    """A GridSpec's points as the sorted union of the uniform grid and the extras at or above lo."""
    base = np.linspace(spec.lo, spec.hi, spec.n_points)
    if spec.refine_around:
        extra = np.asarray([p for p in spec.refine_around if p >= spec.lo], dtype=float)
        base = np.unique(np.concatenate([base, extra]))
    return base


# The oracle's simplex loop as numpy array operations throughout.  The oracle
# must take exactly these pivots: a faster loop that stops at another vertex
# within the reduced-cost tolerance changes its distribution and duals.


def simplex_pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def simplex_run(T: np.ndarray, basis: list[int], n_enter: int) -> tuple[str, int]:
    """Minimize the last tableau row over the first n_enter columns.

    Returns the status and the number of pivots taken.  The most negative
    reduced cost enters (Dantzig); after _DEGENERATE_RUN pivots in a row that
    leave the objective where it was, the first eligible column enters
    instead (Bland), until a pivot moves the objective again.
    """
    pivots = 0
    stalled = 0
    while True:
        rc = T[-1, :n_enter]
        candidates = np.flatnonzero(rc < -_RC_TOL)
        if candidates.size == 0:
            return OPTIMAL, pivots
        j = int(np.argmin(rc) if stalled < _DEGENERATE_RUN else candidates[0])
        col = T[:-1, j]
        eligible = np.flatnonzero(col > _PIVOT_TOL)
        if eligible.size == 0:
            return UNBOUNDED, pivots
        ratios = T[:-1, -1][eligible] / col[eligible]
        best = np.min(ratios)
        tied = eligible[ratios == best]
        row = int(min(tied, key=lambda r: basis[r]))
        objective = T[-1, -1]
        simplex_pivot(T, basis, row, j)
        pivots += 1
        stalled = stalled + 1 if T[-1, -1] == objective else 0
        rhs = T[:-1, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0  # scrub roundoff-degenerate rows


def nondiff_points(inst) -> tuple[float, ...]:
    """The sorted kinks of the positive_part functions among g and the h_i."""
    fs = (inst.g, *inst.hs)
    return tuple(sorted({f.param for f in fs if f.family == "positive_part"}))


# The verifier's evaluation before it became one pass: every function
# evaluated through a dispatch on its family name, the kinks rebuilt per
# use, H summed once per kind of point.  The package's pass must return the
# same residuals, bit for bit, signed zeros, NaN and -inf included.


def _exp(y: float) -> float:
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def _value(f: MomentFunction, x: float) -> float:
    """f(x) in scalar arithmetic."""
    family, p = f.family, f.param
    if family == "monomial":
        return x if p == 1.0 else _power(x, p)
    if family == "positive_part":
        return max(x - p, 0.0)
    if family == "squared_positive_part":
        try:
            return max(x - p, 0.0) ** 2
        except OverflowError:
            return math.inf
    if family == "exponential":
        return _exp(p * x)
    return 1.0


def _largest(values) -> float:
    """max |v| (0 when there are none), NaN as soon as any v is NaN."""
    out = 0.0
    for v in values:
        a = abs(v)
        if a != a:
            return a
        if a > out:
            out = a
    return out


def critical_points(
    inst: GmpInstance, terms: tuple[tuple[float, MomentFunction], ...], sign: float
) -> tuple[list[float], bool]:
    """Where sign*H can reach its minimum over [0, inf), for H = sum of c*f over terms.

    Returns the piece ends and the stationary point of every piece, plus
    whether sign*H falls without bound as x -> inf or reaches its minimum
    beyond float range.  Raises DomainError when an exponential decays or
    when H' on some piece has more than one nonlinear term: the stationary
    points then have no closed form, and sampling H would prove nothing.
    """
    nonlinear: dict[tuple[str, float], float] = {}
    for c, f in terms:
        family, p = f.family, f.param
        if family == "exponential" and p < 0.0:
            raise DomainError(f"cannot decide H >= 0 with the decaying exponential e^({p:g}x)")
        if (family == "monomial" and p not in (1.0, 2.0)) or (family == "exponential" and p > 0.0):
            nonlinear[family, p] = nonlinear.get((family, p), 0.0) + c
    curved = [(key, gamma) for key, gamma in nonlinear.items() if gamma != 0.0]
    if len(curved) > 1:
        raise DomainError("cannot decide H >= 0: two nonlinear terms in H'")

    knots = [f.param for f in (inst.g, *inst.hs) if f.family == "squared_positive_part"]
    starts = sorted({0.0, *(k for k in (*nondiff_points(inst), *knots) if k > 0.0)})
    points = list(starts)
    for a, b in zip(starts, starts[1:] + [math.inf]):
        # H' = alpha + beta*x + gamma*psi'(x) on (a, b)
        alpha = beta = 0.0
        for c, f in terms:
            family, p = f.family, f.param
            if family == "monomial" and p == 1.0 or family == "positive_part" and a >= p:
                alpha += c
            elif family == "monomial" and p == 2.0:
                beta += 2.0 * c
            elif family == "squared_positive_part" and a >= p:
                alpha -= 2.0 * c * p
                beta += 2.0 * c
        if curved:
            if beta != 0.0:
                raise DomainError(f"cannot decide H >= 0: two nonlinear terms in H' past x = {a:g}")
            (family, p), gamma = curved[0]
            ratio = -alpha / gamma / p  # x^(p-1) or e^(px) at the stationary point
            if not ratio > 0.0:
                continue
            x = _power(ratio, 1.0 / (p - 1.0)) if family == "monomial" else math.log(ratio) / p
        elif beta != 0.0:
            x = -alpha / beta
        else:
            continue
        if x == math.inf == b:
            return points, True
        if a < x < b:
            points.append(x)
    # the leading term of the last piece decides the limit at infinity
    lead = curved[0][1] if curved else (beta or alpha)
    return points, sign * lead < 0.0


def exact_residuals(
    inst: GmpInstance, dist: DiscreteDistribution, cert: DualCertificate
) -> tuple[float, ...]:
    """The residuals in scalar arithmetic, with the exact minimum of H over [0, inf)."""
    terms = ((-1.0, inst.g),) + tuple((z, h) for z, h in zip(cert.z, inst.hs) if z != 0.0)
    sign = 1.0 if inst.sense == "max" else -1.0
    points, unbounded = critical_points(inst, terms, sign)
    xs = [x for x, _ in dist.points]
    ps = [p for _, p in dist.points]
    g_xs = [_value(inst.g, x) for x in xs]
    rows = [[_value(h, x) for x in xs] for h in inst.hs]
    primal_residual = _largest(
        sum(v * p for v, p in zip(row, ps)) - m for row, m in zip(rows, inst.ms)
    )
    h_xs = []
    for j, g in enumerate(g_xs):
        total = -g
        for z, row in zip(cert.z, rows):
            if z != 0.0:
                total += z * row[j]
        h_xs.append(total)
    slack_residual = _largest(h_xs)

    signed = [sign * v for v in h_xs]
    signed += [sign * sum(c * _value(f, x) for c, f in terms) for x in points]
    if unbounded or any(v != v for v in signed):
        dual_min_on_grid = -math.inf
    else:
        dual_min_on_grid = min(signed)

    primal_value = sum(g * p for g, p in zip(g_xs, ps))
    dual_value = sum(z * m for z, m in zip(cert.z, inst.ms))
    return (
        primal_residual,
        slack_residual,
        dual_min_on_grid,
        primal_value,
        dual_value,
    )


def absolute_verdict(inst, residuals, tol) -> bool:
    """``passed`` from exact_residuals' output under the absolute dual rule.

    Weak duality: the rows, dual feasibility without a float-error
    allowance, the gap and a finite E[g].
    """
    primal, _, dual_min, primal_value, dual_value = residuals
    m_scale = max(1.0, max(abs(m) for m in inst.ms))
    return (
        primal <= tol.primal * m_scale
        and dual_min >= -tol.dual
        and abs(primal_value - dual_value) <= tol.gap * max(1.0, abs(primal_value))
        and math.isfinite(primal_value)
    )


# The package's bisection as it was before it became the mp1t re-solve's
# collapse; the order search above reads it too.  And its Brent loop as it
# was before its checks were inlined.

_ZERO_FLOOR = 1e-300  # |f| at or below this counts as an exact zero
_BRENT_EPS = 2.0**-52
_BRENT_TINY = 5e-324
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


def reference_brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> tuple[float, int]:
    """The package's Brent loop before its checks were inlined and abs/min became expressions.

    ``rootfind.brent`` must return the same (root, evals) or raise the same
    exception type with the same message; ``_checked`` above is the helper
    it called once per evaluation.
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
        tol = _BRENT_EPS * abs(b) + _BRENT_TINY
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


def reference_bisect(
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
        fc = _checked(f, c)
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


# The package's real Lambert W on its lower branch, the solution w <= -1 of
# w * exp(w) = x on [-1/e, 0), as it gave the mp1e boundary point
# v1 = -W_-1(-r*e^-r) - r, r = m1/(Me - 1), before v1 was searched in its own
# equation.  An asymptotic initial guess is refined by Halley steps, with a
# bracketed search as fallback.

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


def enumerate_family(inst, v1_list: list[float]) -> list:
    """One report per requested v1 (the largest support point) of the degenerate family."""
    if inst.is_two_point():
        raise BranchError("instance is on the two-point branch; there is no family")
    return [solve_partial_moment(inst, v1_choice=v1) for v1 in v1_list]


# The oracle's solve path before its pivots ran one row at a time, in place,
# each round evaluated into one [A | b] buffer and a warm round without a
# pivot kept the last round's law.  ``oracle_solve``, ``refine_until`` and
# ``_two_phase_simplex`` must return what these return, bit for bit, or raise
# the same exception with the same message.


def _ref_evaluate(f: MomentFunction, xs: np.ndarray) -> np.ndarray:
    """f on every grid point."""
    family, p = f.family, f.param
    if family == "monomial":
        return xs + 0.0 if p == 1.0 else np.power(xs, p)
    if family == "positive_part":
        return np.maximum(xs - p, 0.0)
    if family == "squared_positive_part":
        return np.maximum(xs - p, 0.0) ** 2
    if family == "exponential":
        return np.exp(p * xs)
    return np.ones_like(xs)


def _ref_pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    basis[row] = col


def _ref_scrub(T: np.ndarray) -> bool:
    """Zero the rhs entries of T that are negative by roundoff only (> -1e-11).

    Returns False when an entry is left negative beyond roundoff.
    """
    clean = True
    for i, r in enumerate(T[:-1, -1].tolist()):
        if r < 0.0:
            if r > -1e-11:
                T[i, -1] = 0.0
            else:
                clean = False
    return clean


def _ref_run(T: np.ndarray, basis: list[int], n_enter: int) -> tuple[str, int]:
    """Minimize the last tableau row over the first n_enter columns.

    Returns the status and the number of pivots taken.  The most negative
    reduced cost enters (Dantzig); after _DEGENERATE_RUN pivots in a row that
    leave the objective where it was, the first eligible column enters
    instead (Bland), until a pivot moves the objective again.
    """
    pivots = 0
    stalled = 0
    while True:
        rc = T[-1, :n_enter]
        if stalled < _DEGENERATE_RUN:
            j = int(rc.argmin())
            if not rc[j] < -_RC_TOL:
                return OPTIMAL, pivots
        else:
            candidates = np.flatnonzero(rc < -_RC_TOL)
            if candidates.size == 0:
                return OPTIMAL, pivots
            j = int(candidates[0])
        # ratio test in Python floats: on m <= 4 rows numpy's per-call
        # overhead costs more than the divisions; lowest basis index on ties
        row, best = -1, 0.0
        for i, (a, r) in enumerate(zip(T[:-1, j].tolist(), T[:-1, -1].tolist())):
            if a > _PIVOT_TOL:
                ratio = r / a
                if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row < 0:
            return UNBOUNDED, pivots
        objective = T[-1, -1]
        _ref_pivot(T, basis, row, j)
        pivots += 1
        stalled = stalled + 1 if T[-1, -1] == objective else 0
        _ref_scrub(T)


def reference_two_phase_simplex(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, pivots: list[int] | None = None
) -> tuple[str, np.ndarray | None, list[int], np.ndarray | None]:
    """min c.x s.t. A x = b, x >= 0.  Returns (status, x, basis, duals).

    The phase-1 and phase-2 pivot counts are appended to ``pivots`` when it
    is given (phase 2 counts 0 when phase 1 finds no feasible point).
    """
    counts = [] if pivots is None else pivots
    m, n = A.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    A1 = A * sign[:, None]
    b1 = b * sign

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A1
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b1
    T[-1, :n] = -A1.sum(axis=0)
    T[-1, -1] = -b1.sum()
    basis = list(range(n, n + m))

    status, phase1 = _ref_run(T, basis, n)
    counts.append(phase1)
    if status != OPTIMAL or -T[-1, -1] > _PHASE1_TOL:
        counts.append(0)
        return INFEASIBLE, None, basis, None

    # pivot leftover artificials out; a row with no real pivot is redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            real = np.flatnonzero(np.abs(T[i, :n]) > _PIVOT_TOL)
            if real.size:
                _ref_pivot(T, basis, i, int(real[0]))
            else:
                keep[i] = False
    rows = np.flatnonzero(keep)
    basis2 = [basis[i] for i in rows]

    T2 = np.zeros((rows.size + 1, n + 1))
    T2[:-1, :n] = T[rows, :n]
    T2[:-1, -1] = T[rows, -1]
    T2[-1, :n] = c
    for i, bi in enumerate(basis2):
        T2[-1] -= T2[-1, bi] * T2[i]
    return _ref_phase_two(A, b, c, T2, basis2, rows, counts)


def _ref_warm_tableau(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int]
) -> np.ndarray | None:
    """The phase-2 tableau of a basis, or None if the basis cannot be trusted.

    The tableau is B^-1 [A | b] with reduced costs c - c_B B^-1 A.  It is
    None unless ``basis`` holds one distinct column per row of A, B is
    nonsingular and the basic solution B^-1 b is nonnegative up to roundoff.
    """
    m, n = A.shape
    if len(basis) != m or len(set(basis)) != m:
        return None
    T = np.empty((m + 1, n + 1))
    try:
        # the m x m inverse times [A | b]: np.linalg.solve with thousands of
        # right-hand sides is over an order of magnitude slower
        np.matmul(np.linalg.inv(A[:, basis]), np.column_stack([A, b]), out=T[:-1])
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(T[:-1]).all() and _ref_scrub(T)):
        return None
    T[:-1, basis] = np.eye(m)
    T[-1, :n] = c - c[basis] @ T[:-1, :n]
    T[-1, basis] = 0.0
    T[-1, -1] = -c[basis] @ T[:-1, -1]
    return T


def _ref_phase_two(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    T2: np.ndarray,
    basis2: list[int],
    rows: np.ndarray,
    counts: list[int],
) -> tuple[str, np.ndarray | None, list[int], np.ndarray | None]:
    """Run phase 2 from a feasible tableau on ``rows`` of A, then re-solve."""
    m, n = A.shape
    status, phase2 = _ref_run(T2, basis2, n)
    counts.append(phase2)
    if status != OPTIMAL:
        return status, None, basis2, None

    x = np.zeros(n)
    B = A[np.ix_(rows, basis2)]
    # re-solve on the final basis with one refinement step for clean residuals
    xb = np.linalg.solve(B, b[rows])
    xb += np.linalg.solve(B, b[rows] - B @ xb)
    cols, Bc = np.asarray(basis2), B
    while np.any(xb < 0.0):
        # a degenerate basic variable can come out a hair below zero; drop it
        # and refit the rest, so the masses left still meet every row
        pos = xb > 0.0
        cols, Bc = cols[pos], Bc[:, pos]
        xb = np.linalg.lstsq(Bc, b[rows], rcond=None)[0]
        xb += np.linalg.lstsq(Bc, b[rows] - Bc @ xb, rcond=None)[0]
    x[cols] = xb

    y = np.zeros(m)
    y[rows] = np.linalg.solve(B.T, c[basis2])
    return OPTIMAL, x, basis2, y


def reference_oracle_solve(
    inst: GmpInstance, grid: GridSpec, *, start: tuple[float, ...] = ()
) -> OracleResult:
    """Solve the moment problem restricted to the grid's point masses.

    ``start`` is the ``basis`` of an earlier result whose grid points all lie
    on this grid.  Phase 2 then starts from that basis and phase 1 is
    skipped (``pivots[0] == 0``).  A start that is off the grid, short of
    one point per constraint, singular or infeasible here is ignored, and
    the LP is solved from the artificial basis as without one.
    """
    if grid.n_points < len(inst.hs) + 1:
        raise DomainError(
            f"grid needs at least {len(inst.hs) + 1} points for {len(inst.hs)} constraints"
        )
    xs = grid.points()
    with np.errstate(over="ignore"):  # an overflow is refused just below
        Ag = np.vstack([_ref_evaluate(f, xs) for f in (*inst.hs, inst.g)])
    if not np.isfinite(Ag).all():
        raise DomainError("moment functions are not finite on the grid")
    A, g = Ag[:-1], Ag[-1]
    b = np.asarray(inst.ms, dtype=float)

    c = -g if inst.sense == "max" else g
    basis = xs.searchsorted(start).tolist() if start else []
    if not all(j < xs.size and xs[j] == p for j, p in zip(basis, start)):
        basis = []  # off the grid
    T = _ref_warm_tableau(A, b, c, basis)
    if T is not None:
        counts = [0]
        status, x, basis, duals = _ref_phase_two(A, b, c, T, basis, np.arange(b.size), counts)
    else:
        counts = []
        status, x, basis, duals = reference_two_phase_simplex(A, b, c, counts)
    pivots = (counts[0], counts[1])
    if status != OPTIMAL:
        return OracleResult(
            value=math.nan, dist=None, status=status, grid=grid, duals=None, pivots=pivots
        )

    support = np.flatnonzero(x > 0.0)
    dist = DiscreteDistribution(points=tuple(zip(xs[support].tolist(), x[support].tolist())))
    value = float(g[support] @ x[support])
    return OracleResult(
        value=value,
        dist=dist,
        status=OPTIMAL,
        grid=grid,
        duals=tuple(duals.tolist()),
        pivots=pivots,
        basis=tuple(xs[basis].tolist()),
    )


def reference_refine_until(
    inst: GmpInstance, base_grid: GridSpec, target_tol: float, max_rounds: int
) -> RefineOutcome:
    """Re-solve on ever denser grids until successive values stabilize.

    Density roughly doubles each round.  The doubled grid keeps every point
    of the last one, so each round after the first starts phase 2 from the
    last round's optimal basis (``oracle_solve``'s ``start``); only the new
    points can price in, and a start that cannot be trusted falls back to
    the full two-phase solve.  Hitting max_rounds without meeting
    target_tol is reported through ``converged=False``, not an error.
    """
    if not target_tol > 0.0:
        raise DomainError("target_tol must be positive")
    grid = base_grid
    result = reference_oracle_solve(inst, grid)
    values = [result.value]
    rounds = 0
    converged = False
    while rounds < max_rounds and result.status == OPTIMAL:
        grid = grid.doubled()
        result = reference_oracle_solve(inst, grid, start=result.basis)
        values.append(result.value)
        rounds += 1
        if abs(values[-1] - values[-2]) <= target_tol:
            converged = True
            break
    return RefineOutcome(
        result=result, values=tuple(values), converged=converged, rounds=rounds
    )
