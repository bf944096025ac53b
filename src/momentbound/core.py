"""Domain types for moment problems and the generic primal-dual optimality verifier.

A problem instance pairs an objective function g with moment functions
(h_0, ..., h_n) and target moments (m_0, ..., m_n), m_0 = 1.  A candidate
answer is a finitely supported distribution plus a dual coefficient vector z
inducing H(x; z) = sum_i z_i h_i(x) - g(x).  The pair is optimal exactly when

  * the distribution reproduces every target moment,
  * H vanishes at every support point (complementary slackness),
  * H' vanishes at every differentiable interior support point (tangency),
  * H has the feasible sign on the whole support domain [0, inf).

``verify_optimality`` measures all four as residuals and applies explicit
tolerances, so every solver in this package can certify its own output.
``certify`` is the step every public solve ends with: it turns a solver's
unverified candidate into a ``Report``, the one answer type of all three
problems, which carries its verification.

The sign condition is decided exactly, not sampled.  Every function is one
of the families built here (``constant``, ``monomial``, ``positive_part``,
``squared_positive_part``, ``exponential``), so between consecutive kinks
and knots H' is alpha + beta*x + gamma*psi'(x), psi a power x^p (p not 1
or 2) or an exponential e^(rx).  When at most one of beta and gamma is
nonzero, H' is monotone on the piece, so H has at most one stationary point
there and its closed form is the inverse of psi' (the Chebyshev-system
argument behind two- and three-point optima; Karlin & Studden,
*Tchebycheff Systems*, 1966).  The minimum of H over [0, inf) is a minimum
over the piece ends, the support and those points, and the sign of the
leading coefficient settles x -> inf.  An instance outside that rule (a
decaying exponential, or two nonlinear terms in H' on one piece) is refused
with DomainError: a sampled scan could only pass it without proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DimensionError, DomainError

Array = np.ndarray

_NONDIFF_SNAP = 1e-12  # support points this close to a kink skip the tangent check
_FAMILIES = ("constant", "monomial", "positive_part", "squared_positive_part", "exponential")


@dataclass(frozen=True)
class MomentFunction:
    """One of this module's function families on [0, inf), with its parameter.

    ``family`` names the family and ``param`` holds its power, kink or rate
    (unused by ``constant``).  ``eval`` evaluates the function on scalars or
    numpy arrays; the verifier evaluates it and its derivative in scalar
    arithmetic and inverts the derivative in closed form.  Build these with
    the constructors below.
    """

    family: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown function family {self.family!r}")

    @property
    def nondiff_points(self) -> tuple[float, ...]:
        """Where the derivative does not exist: the kink of ``positive_part``."""
        return (self.param,) if self.family == "positive_part" else ()

    def eval(self, x: Array | float) -> Array:
        """f(x), elementwise on a scalar or a numpy array."""
        x = np.asarray(x, dtype=float)
        family, p = self.family, self.param
        if family == "monomial":
            return x + 0.0 if p == 1.0 else np.power(x, p)
        if family == "positive_part":
            return np.maximum(x - p, 0.0)
        if family == "squared_positive_part":
            return np.maximum(x - p, 0.0) ** 2
        if family == "exponential":
            return np.exp(p * x)
        return np.ones_like(x)


def constant() -> MomentFunction:
    """The normalization function h_0 = 1."""
    return MomentFunction("constant")


def monomial(power: float) -> MomentFunction:
    """x**power on [0, inf); power >= 1 so the derivative exists at 0."""
    if power < 1.0:
        raise DomainError(f"monomial power must be >= 1, got {power}")
    return MomentFunction("monomial", float(power))


def positive_part(kink: float) -> MomentFunction:
    """(x - kink)_+, non-differentiable exactly at the kink."""
    return MomentFunction("positive_part", float(kink))


def squared_positive_part(kink: float) -> MomentFunction:
    """(x - kink)_+^2; its derivative 2(x - kink)_+ is continuous everywhere."""
    return MomentFunction("squared_positive_part", float(kink))


def exponential(rate: float) -> MomentFunction:
    """exp(rate * x)."""
    return MomentFunction("exponential", float(rate))


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite support with strictly positive probabilities summing to one."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise DomainError("distribution needs at least one support point")
        xs = [x for x, _ in self.points]
        ps = [p for _, p in self.points]
        if any(x < 0.0 for x in xs):
            raise DomainError("support points must be nonnegative")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("support points must be strictly increasing")
        if any(p <= 0.0 for p in ps):
            raise DomainError("probabilities must be strictly positive")
        if abs(math.fsum(ps) - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {math.fsum(ps)!r}, not 1")

    @property
    def xs(self) -> Array:
        return np.array([x for x, _ in self.points], dtype=float)

    @property
    def ps(self) -> Array:
        return np.array([p for _, p in self.points], dtype=float)


@dataclass(frozen=True)
class DualCertificate:
    """Coefficients z aligned with (h_0, ..., h_n)."""

    z: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.z):
            raise DomainError("certificate entries must be finite")


@dataclass(frozen=True)
class GmpInstance:
    """One moment problem: optimize E[g(X)] subject to E[h_i(X)] = m_i.

    Candidate support must lie in [0, ``support_hi``]; solvers choose it large
    enough to cover any optimum.  Dual feasibility is decided on all of
    [0, inf), not only on that interval.
    """

    g: MomentFunction
    hs: tuple[MomentFunction, ...]
    ms: tuple[float, ...]
    sense: str  # "max" or "min"
    support_hi: float

    def __post_init__(self) -> None:
        if len(self.hs) != len(self.ms):
            raise DimensionError(f"{len(self.hs)} moment functions vs {len(self.ms)} targets")
        if self.ms[0] != 1.0:
            raise DomainError("first target moment must be 1 (normalization)")
        if self.sense not in ("max", "min"):
            raise DomainError(f"sense must be 'max' or 'min', got {self.sense!r}")
        if not (self.support_hi > 0.0):
            raise DomainError("support_hi must be positive")

    def nondiff_points(self) -> tuple[float, ...]:
        pts: list[float] = list(self.g.nondiff_points)
        for h in self.hs:
            pts.extend(h.nondiff_points)
        return tuple(sorted(set(pts)))


@dataclass(frozen=True)
class ToleranceSet:
    """Residual tolerances for certification.

    ``primal`` is relative to max(1, |m|_inf) and ``gap`` to max(1, |value|);
    the others are absolute.
    """

    primal: float = 1e-9
    slack: float = 1e-8
    tangent: float = 1e-6
    dual: float = 1e-7
    gap: float = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the four optimality conditions plus the duality gap.

    ``dual_min_on_grid`` is the minimum of H for maximization instances and
    of -H for minimization instances, so feasibility always reads
    ``dual_min_on_grid >= -tol.dual``.  It is always the exact minimum over
    [0, inf), found by the closed-form rule of this module (the name is the
    CLI envelope's key): ``-inf`` when that function falls without bound as
    x -> inf, or reaches its minimum beyond float range, or evaluates to NaN.
    """

    primal_residual: float
    slack_residual: float
    tangent_residual: float
    dual_min_on_grid: float
    duality_gap: float
    passed: bool
    primal_value: float
    dual_value: float


def _power(x: float, p: float) -> float:
    try:
        return x**p
    except OverflowError:
        return math.inf


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
        return max(x - p, 0.0) ** 2
    if family == "exponential":
        return _exp(p * x)
    return 1.0


def _slope(f: MomentFunction, x: float) -> float:
    """f'(x) in scalar arithmetic."""
    family, p = f.family, f.param
    if family == "monomial":
        return 1.0 if p == 1.0 else p * _power(x, p - 1.0)
    if family == "positive_part":
        return 1.0 if x > p else 0.0
    if family == "squared_positive_part":
        return 2.0 * max(x - p, 0.0)
    if family == "exponential":
        return p * _exp(p * x)
    return 0.0


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


def _critical_points(
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
    starts = sorted({0.0, *(k for k in (*inst.nondiff_points(), *knots) if k > 0.0)})
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


def _exact_residuals(
    inst: GmpInstance, dist: DiscreteDistribution, cert: DualCertificate
) -> tuple[float, ...]:
    """The residuals in scalar arithmetic, with the exact minimum of H over [0, inf)."""
    terms = ((-1.0, inst.g),) + tuple((z, h) for z, h in zip(cert.z, inst.hs) if z != 0.0)
    sign = 1.0 if inst.sense == "max" else -1.0
    points, unbounded = _critical_points(inst, terms, sign)
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

    kinks = inst.nondiff_points()
    tangent_residual = _largest(
        sum(c * _slope(f, x) for c, f in terms)
        for x in xs
        if 0.0 < x < inst.support_hi and all(abs(x - k) > _NONDIFF_SNAP for k in kinks)
    )

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
        tangent_residual,
        dual_min_on_grid,
        primal_value,
        dual_value,
    )


def verify_optimality(
    inst: GmpInstance,
    dist: DiscreteDistribution,
    cert: DualCertificate,
    tol: ToleranceSet = ToleranceSet(),
) -> VerificationReport:
    """Check the full optimality condition for a candidate primal-dual pair.

    Tangency is tested only at support points strictly inside
    (0, support_hi) and farther than 1e-12 from every declared kink.  Dual
    feasibility is the exact minimum of H over [0, inf) (see the module
    docstring), and every residual is computed in scalar arithmetic.  An
    instance whose H' has a decaying exponential, or more than one nonlinear
    term on some piece, has no closed-form stationary points and raises
    DomainError.
    """
    if len(cert.z) != len(inst.hs):
        raise DimensionError(f"certificate length {len(cert.z)} vs {len(inst.hs)} functions")
    if dist.points[0][0] < 0.0 or dist.points[-1][0] > inst.support_hi:
        raise DomainError("distribution support exceeds [0, support_hi]")

    primal_residual, slack_residual, tangent_residual, dual_min, primal_value, dual_value = (
        _exact_residuals(inst, dist, cert)
    )
    duality_gap = abs(primal_value - dual_value)

    m_scale = max(1.0, max(abs(m) for m in inst.ms))
    v_scale = max(1.0, abs(primal_value))
    passed = (
        primal_residual <= tol.primal * m_scale
        and slack_residual <= tol.slack
        and tangent_residual <= tol.tangent
        and dual_min >= -tol.dual
        and duality_gap <= tol.gap * v_scale
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


@dataclass(frozen=True)
class Report:
    """A solver's answer: the optimal value, the primal-dual pair behind it, and its check.

    ``branch`` names the regime the solver took.  ``root`` is the scalar that
    fixes the answer on that branch, in the solver's scaled units: the
    bisected upper (mp1t) or lower (mp1e) support point on the interior
    branch, the degenerate family's parameter v1, its largest support point
    (upm), and None on the closed-form branches.  ``bisect_iters`` counts
    the bisection steps behind ``root``, 0 where nothing was bisected.
    """

    value: float
    dist: DiscreteDistribution
    cert: DualCertificate
    branch: str
    root: float | None
    bisect_iters: int
    verification: VerificationReport


def certify(
    inst: Any,
    candidate: dict[str, Any],
    gmp_instance: Callable[[Any, DiscreteDistribution], GmpInstance],
    tol: ToleranceSet = ToleranceSet(),
) -> Report:
    """Verify a solver's candidate answer and build its report, once.

    ``candidate`` holds every field of ``Report`` except ``verification``,
    among them ``dist`` and ``cert``; ``gmp_instance(inst, dist)`` is the
    generic moment problem the pair must be optimal for.
    """
    dist, cert = candidate["dist"], candidate["cert"]
    verification = verify_optimality(gmp_instance(inst, dist), dist, cert, tol)
    return Report(**candidate, verification=verification)
