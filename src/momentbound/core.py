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
Slackness and the sign condition pass within a float-error allowance
proportional to S(x) = |g(x)| + sum |z_i h_i(x)|, the size of the terms
that cancel in H(x) (see ``ToleranceSet``); the residuals are reported raw.
One scalar pass evaluates every function once per support point and every
term of H once per candidate minimum, with the family dispatch on a small
integer code.  ``certify`` is the step every public solve ends with: it
turns a solver's unverified candidate into a ``Report``, the one answer
type of all three problems, which carries its verification.

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
from typing import Any

from .errors import DimensionError, DomainError

_NONDIFF_SNAP = 1e-12  # support points this close to a kink skip the tangent check
_FAMILIES = ("constant", "monomial", "positive_part", "squared_positive_part", "exponential")
_CODE = {family: code for code, family in enumerate(_FAMILIES)}  # the verifier's dispatch key
_CONSTANT, _MONOMIAL, _KINK, _SQUARED, _EXPONENTIAL = range(len(_FAMILIES))


@dataclass(frozen=True)
class MomentFunction:
    """One of this module's function families on [0, inf), with its parameter.

    ``family`` names the family and ``param`` holds its power, kink or rate
    (unused by ``constant``).  The verifier evaluates it and its derivative
    in scalar arithmetic and inverts the derivative in closed form.  Build
    these with the constructors below.
    """

    family: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown function family {self.family!r}")


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
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def ps(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.points)


@dataclass(frozen=True)
class DualCertificate:
    """Coefficients z aligned with (h_0, ..., h_n)."""

    z: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.z):
            raise DomainError("certificate entries must be finite")


@dataclass(frozen=True)
class GmpInstance:
    """One moment problem on [0, inf): optimize E[g(X)] subject to E[h_i(X)] = m_i."""

    g: MomentFunction
    hs: tuple[MomentFunction, ...]
    ms: tuple[float, ...]
    sense: str  # "max" or "min"

    def __post_init__(self) -> None:
        if len(self.hs) != len(self.ms):
            raise DimensionError(f"{len(self.hs)} moment functions vs {len(self.ms)} targets")
        if self.ms[0] != 1.0:
            raise DomainError("first target moment must be 1 (normalization)")
        if self.sense not in ("max", "min"):
            raise DomainError(f"sense must be 'max' or 'min', got {self.sense!r}")


@dataclass(frozen=True)
class ToleranceSet:
    """Residual tolerances for certification.

    ``primal`` is relative to max(1, |m|_inf) and ``gap`` to max(1, |value|);
    ``tangent`` is absolute.  ``slack`` and ``dual`` are absolute plus the
    float-error allowance ``gamma*S(x)``, S(x) = |g(x)| + sum |z_i h_i(x)|
    the size of the terms that cancel in H(x): slackness passes where
    |H(x)| <= slack + gamma*S(x) at every support point, dual feasibility
    where sign*H(x) >= -(dual + gamma*S(x)) at every point the minimum of H
    is taken over.  gamma = 16u bounds the rounding of such a sum (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 3.1).
    The reported residuals stay raw.
    """

    primal: float = 1e-9
    slack: float = 1e-8
    tangent: float = 1e-6
    dual: float = 1e-7
    gap: float = 1e-8
    gamma: float = 16 * 2**-53


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the four optimality conditions plus the duality gap.

    ``dual_min_on_grid`` is the minimum of H for maximization instances and
    of -H for minimization instances.  It is always the exact minimum over
    [0, inf), found by the closed-form rule of this module (the name is the
    CLI envelope's key): ``-inf`` when that function falls without bound as
    x -> inf, or reaches its minimum beyond float range, or evaluates to NaN.
    Every residual is raw; ``passed`` reads the slack and dual ones with the
    float-error allowance of ``ToleranceSet``, so a pass implies
    ``dual_min_on_grid >= -(tol.dual + tol.gamma*S)`` at the minimizing point.
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
    terms: list[tuple[float, int, float]], starts: list[float], sign: float
) -> tuple[list[float], bool]:
    """Where sign*H can reach its minimum over [0, inf), for H = sum of c*f over terms.

    ``terms`` holds (c, family code, param) triples and ``starts`` the sorted
    piece starts: 0 and every positive kink and knot.  Returns the piece
    ends and the stationary point of every piece, plus whether sign*H falls
    without bound as x -> inf or reaches its minimum beyond float range.
    Raises DomainError when an exponential decays or when H' on some piece
    has more than one nonlinear term: the stationary points then have no
    closed form, and sampling H would prove nothing.
    """
    nonlinear: dict[tuple[int, float], float] = {}
    for c, code, p in terms:
        if code == _EXPONENTIAL and p < 0.0:
            raise DomainError(f"cannot decide H >= 0 with the decaying exponential e^({p:g}x)")
        if code == _MONOMIAL and p != 1.0 and p != 2.0 or code == _EXPONENTIAL and p > 0.0:
            nonlinear[code, p] = nonlinear.get((code, p), 0.0) + c
    curved = [(key, gamma) for key, gamma in nonlinear.items() if gamma != 0.0]
    if len(curved) > 1:
        raise DomainError("cannot decide H >= 0: two nonlinear terms in H'")

    points = list(starts)
    for a, b in zip(starts, starts[1:] + [math.inf]):
        # H' = alpha + beta*x + gamma*psi'(x) on (a, b)
        alpha = beta = 0.0
        for c, code, p in terms:
            if code == _MONOMIAL and p == 1.0 or code == _KINK and a >= p:
                alpha += c
            elif code == _MONOMIAL and p == 2.0:
                beta += 2.0 * c
            elif code == _SQUARED and a >= p:
                alpha -= 2.0 * c * p
                beta += 2.0 * c
        if curved:
            if beta != 0.0:
                raise DomainError(f"cannot decide H >= 0: two nonlinear terms in H' past x = {a:g}")
            (code, p), gamma = curved[0]
            ratio = -alpha / gamma / p  # x^(p-1) or e^(px) at the stationary point
            if not ratio > 0.0:
                continue
            x = _power(ratio, 1.0 / (p - 1.0)) if code == _MONOMIAL else math.log(ratio) / p
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
    inst: GmpInstance, dist: DiscreteDistribution, cert: DualCertificate, tol: ToleranceSet
) -> tuple[float, float, float, float, float, float, bool]:
    """The residuals in one scalar pass, with the exact minimum of H over [0, inf).

    Each function is evaluated once per support point, and each term of H
    once per critical point; that pass yields the moment rows, H, H', S and
    E[g].  Returns the primal, slack and tangent residuals, the minimum of
    sign*H, the primal and dual values, and whether H meets slackness and
    dual feasibility within ``tol``'s float-error allowance.
    """
    fs = [(-1.0, _CODE[inst.g.family], inst.g.param)]
    fs += [(z, _CODE[h.family], h.param) for z, h in zip(cert.z, inst.hs)]
    terms = [f for f in fs if f[0] != 0.0]
    kinks = [p for _, code, p in fs if code == _KINK]
    starts = sorted({0.0, *(p for _, code, p in fs if code in (_KINK, _SQUARED) and p > 0.0)})
    sign = 1.0 if inst.sense == "max" else -1.0
    points, unbounded = _critical_points(terms, starts, sign)

    ps = [p for _, p in dist.points]
    n = len(ps)
    gamma, slack, dual = tol.gamma, tol.slack, tol.dual
    sums = [0.0] * len(fs)  # E[g], then E[h_i]
    h_xs, slopes = [], []
    dual_min = math.inf
    fits = not unbounded
    for j, x in enumerate([x for x, _ in dist.points] + points):
        support = j < n
        tangent = support and x > 0.0 and all(abs(x - k) > _NONDIFF_SNAP for k in kinks)
        h = -0.0 if support else 0.0  # H starts from -g(x) on the support, 0 - g(x) elsewhere
        s = d = 0.0
        for i, (c, code, p) in enumerate(fs if support else terms):
            if code == _MONOMIAL:
                if p == 1.0:
                    v, slope = x, 1.0
                else:
                    v = _power(x, p)
                    slope = p * _power(x, p - 1.0) if tangent else 0.0
            elif code == _EXPONENTIAL:
                v = _exp(p * x)
                slope = p * v
            elif code == _CONSTANT:
                v, slope = 1.0, 0.0
            else:
                u = x - p
                if u < 0.0:  # max(x - p, 0.0), NaN and -0.0 kept
                    u = 0.0
                v, slope = (u, 1.0 if x > p else 0.0) if code == _KINK else (u**2, 2.0 * u)
            if support:
                sums[i] += v * ps[j]
            if c != 0.0:
                cv = c * v
                h += cv
                s += cv if cv > 0.0 else -cv
                d += c * slope
        allowance = gamma * s
        if support:
            h_xs.append(h)
            fits = fits and abs(h) <= slack + allowance
            if tangent:
                slopes.append(d)
        h *= sign
        if h < dual_min:  # min(), first of equals kept; -inf once any is NaN
            dual_min = h
        elif h != h:
            dual_min = -math.inf
        fits = fits and h >= -(dual + allowance)

    return (
        _largest([e - m for e, m in zip(sums[1:], inst.ms)]),
        _largest(h_xs),
        _largest(slopes),
        -math.inf if unbounded else dual_min,
        sums[0],
        sum(z * m for z, m in zip(cert.z, inst.ms)),
        fits,
    )


def verify_optimality(
    inst: GmpInstance,
    dist: DiscreteDistribution,
    cert: DualCertificate,
    tol: ToleranceSet = ToleranceSet(),
) -> VerificationReport:
    """Check the full optimality condition for a candidate primal-dual pair.

    Tangency is tested only at support points x > 0 farther than 1e-12
    from every declared kink.  Dual feasibility is the exact minimum of H
    over [0, inf) (see the module docstring), and every residual is computed
    in scalar arithmetic, in one pass over the support and the critical
    points.  Slackness and dual feasibility pass within ``tol.gamma`` times
    the size of the terms of H (see ``ToleranceSet``).  An instance whose
    H' has a decaying exponential, or more than one nonlinear term on some
    piece, has no closed-form stationary points and raises DomainError.
    """
    if len(cert.z) != len(inst.hs):
        raise DimensionError(f"certificate length {len(cert.z)} vs {len(inst.hs)} functions")

    primal_residual, slack_residual, tangent_residual, dual_min, primal_value, dual_value, fits = (
        _exact_residuals(inst, dist, cert, tol)
    )
    duality_gap = abs(primal_value - dual_value)

    m_scale = max(1.0, max(abs(m) for m in inst.ms))
    v_scale = max(1.0, abs(primal_value))
    passed = (
        primal_residual <= tol.primal * m_scale
        and fits
        and tangent_residual <= tol.tangent
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
    searched upper (mp1t) or lower (mp1e) support point on the interior
    branch, the degenerate family's parameter v1, its largest support point
    (upm), and None on the closed-form branches.  ``bisect_iters`` counts
    the root-function evaluations of the interior search behind ``root``
    (psi for mp1t, whose retried answers keep that search's count;
    phi in the mean gap for mp1e), beyond the bracket ends' values, and is 0
    where nothing was searched.
    """

    value: float
    dist: DiscreteDistribution
    cert: DualCertificate
    branch: str
    root: float | None
    bisect_iters: int
    verification: VerificationReport


def certify(inst: GmpInstance, candidate: dict[str, Any]) -> Report:
    """Verify a solver's candidate answer for ``inst`` and build its report, once.

    ``candidate`` holds every field of ``Report`` except ``verification``,
    among them ``dist`` and ``cert``.
    """
    verification = verify_optimality(inst, candidate["dist"], candidate["cert"])
    return Report(**candidate, verification=verification)
