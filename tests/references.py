"""Independent references the tests compare the package against.

None of these is part of the package: each is a closed form or a plain
definition that a solver result must reproduce.
"""

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from momentbound.core import MomentFunction, VerificationReport
from momentbound.errors import DimensionError, DomainError, NonDifferentiableError
from momentbound.rootfind import bisect


def scarf_value(M1: float, M2: float, q: float) -> float:
    """Mean-variance bound 0.5*(sqrt(sigma^2 + (q-mu)^2) - (q-mu)) (Scarf 1958).

    The worst-case E[(X - q)_+] given the mean and the second moment, i.e. the
    power-moment problem at t = 2.
    """
    sigma2 = M2 - M1 * M1
    return 0.5 * (np.sqrt(sigma2 + (q - M1) ** 2) - (q - M1))


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
    """f(q) = worst-case E[(X - q)_+] + (1 - eta) * q, as optimize_order evaluates it."""
    return inst.ambiguity.worst_case(q) + (1.0 - inst.eta) * q


def verified_order_search(inst) -> tuple[float, float, int, int]:
    """(q*, objective, iterations, inner solves) of the order search on verified solves.

    The envelope-theorem bisection of p_hi(q) - (1 - eta) on (0, hi], hi the
    moment-bound tail cutoff, with every midpoint read from the public,
    verified `ambiguity.solve`: the search as it ran before midpoints were
    left unverified.
    """
    amb = inst.ambiguity
    mass = 1.0 - inst.eta
    hi = amb.tail_cutoff(mass)

    def excess(q: float) -> float:
        return -mass if q >= hi else amb.solve(q).dist.points[-1][1] - mass

    res = bisect(excess, 0.0, hi, inst.eps, assume_left_root=True)
    value = amb.solve(res.root).value
    return res.root, value + mass * res.root, res.iterations, res.iterations + 1


def moments_of(dist, hs) -> np.ndarray:
    """Moment vector of a discrete distribution: component i is sum_j h_i(x_j) p_j."""
    xs, ps = dist.xs, dist.ps
    return np.array([float(np.dot(np.asarray(h.eval(xs), dtype=float), ps)) for h in hs])


def deriv(f: MomentFunction, x):
    """f'(x) on scalars or numpy arrays, from the family's textbook derivative."""
    x = np.asarray(x, dtype=float)
    family, p = f.family, f.param
    if family == "monomial":
        return np.ones_like(x) if p == 1.0 else p * np.power(x, p - 1.0)
    if family == "positive_part":
        return np.where(x > p, 1.0, 0.0)
    if family == "squared_positive_part":
        return 2.0 * np.maximum(x - p, 0.0)
    if family == "exponential":
        return p * np.exp(p * x)
    return np.zeros_like(x)


def h_function(cert, inst, x: float) -> float:
    """H(x; z) = sum_i z_i h_i(x) - g(x), from the functions' own `eval`."""
    if len(cert.z) != len(inst.hs):
        raise DimensionError(f"certificate length {len(cert.z)} vs {len(inst.hs)} functions")
    if not (0.0 <= x <= inst.support_hi):
        raise DomainError(f"x={x} outside [0, {inst.support_hi}]")
    return float(sum(z * h.eval(x) for z, h in zip(cert.z, inst.hs)) - inst.g.eval(x))


def h_derivative(cert, inst, x: float) -> float:
    """d/dx H(x; z) where defined; raises within 1e-12 of any declared kink."""
    if len(cert.z) != len(inst.hs):
        raise DimensionError(f"certificate length {len(cert.z)} vs {len(inst.hs)} functions")
    if not (0.0 <= x <= inst.support_hi):
        raise DomainError(f"x={x} outside [0, {inst.support_hi}]")
    for pt in inst.nondiff_points():
        if abs(x - pt) <= 1e-12:
            raise NonDifferentiableError(f"H is not differentiable at x={pt}")
    return float(sum(z * deriv(h, x) for z, h in zip(cert.z, inst.hs)) - deriv(inst.g, x))


def _h_on(cert, inst, xs):
    total = -np.asarray(inst.g.eval(xs), dtype=float)
    for z, h in zip(cert.z, inst.hs):
        if z != 0.0:
            total = total + z * np.asarray(h.eval(xs), dtype=float)
    return total


def dual_scan(inst, dist, cert, grid_points: int = 10_000) -> tuple[float, float]:
    """Sampled minimum of H (of -H for "min" instances) and where it lies.

    The grid is uniform on [0, support_hi], plus the support and the kinks.
    """
    grid = np.concatenate(
        [
            np.linspace(0.0, inst.support_hi, grid_points),
            dist.xs,
            np.asarray(inst.nondiff_points()),
        ]
    )
    hg = _h_on(cert, inst, grid)
    signed = hg if inst.sense == "max" else -hg
    j = int(np.argmin(signed))
    return float(signed[j]), float(grid[j])


def scan_verification(inst, dist, cert, tol) -> VerificationReport:
    """The optimality check with dual feasibility sampled by `dual_scan`, in numpy.

    A sampled scan proves nothing about H between or beyond its grid points;
    it is here to show what the exact check catches that a scan would pass.
    """
    xs, ps = dist.xs, dist.ps
    ms = np.asarray(inst.ms, dtype=float)
    primal_residual = float(np.max(np.abs(moments_of(dist, inst.hs) - ms)))
    slack_residual = float(np.max(np.abs(_h_on(cert, inst, xs))))
    kinks = inst.nondiff_points()
    interior = [
        x for x in xs if 0.0 < x < inst.support_hi and all(abs(x - k) > 1e-12 for k in kinks)
    ]
    tangent_residual = 0.0
    if interior:
        slope = -deriv(inst.g, interior)
        for z, h in zip(cert.z, inst.hs):
            if z != 0.0:
                slope = slope + z * deriv(h, interior)
        tangent_residual = float(np.max(np.abs(slope)))
    dual_min, _ = dual_scan(inst, dist, cert)
    primal_value = float(np.dot(np.asarray(inst.g.eval(xs), dtype=float), ps))
    dual_value = float(np.dot(np.asarray(cert.z, dtype=float), ms))
    duality_gap = abs(primal_value - dual_value)
    passed = (
        primal_residual <= tol.primal * max(1.0, float(np.max(np.abs(ms))))
        and slack_residual <= tol.slack
        and tangent_residual <= tol.tangent
        and dual_min >= -tol.dual
        and duality_gap <= tol.gap * max(1.0, abs(primal_value))
    )
    return VerificationReport(
        primal_residual=primal_residual,
        slack_residual=slack_residual,
        tangent_residual=tangent_residual,
        dual_min_on_grid=dual_min,
        duality_gap=duality_gap,
        passed=passed,
        primal_value=primal_value,
        dual_value=dual_value,
    )
