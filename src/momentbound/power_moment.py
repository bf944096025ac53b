"""Worst-case E[(X - q)_+] given the mean and one power moment E[X^t], t > 1.

After normalizing the mean to 1 the answer is a two-point distribution.  When
q is at most (t-1)/t * Mt^(1/(t-1)) the lower support point is 0 and
everything is in closed form.  Above that threshold the upper support point v
is a root of a scalar equation on a known open bracket, the lower point u and
the dual certificate follow from v.  ``_candidate`` builds that unverified
answer, and ``solve_power_moment`` passes it through ``core.certify``, which
checks it against the generic optimality conditions and returns a
``core.Report`` (``root`` is v on the interior branch).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import core
from .core import DiscreteDistribution, DualCertificate, GmpInstance, Report, ToleranceSet
from .errors import (
    BracketError,
    DomainError,
    InfeasibleError,
    NonFiniteError,
    RangeError,
    RootBracketError,
)
from .rootfind import BisectResult, bisect, polish_root

BOUNDARY = "boundary"
INTERIOR = "interior"


@dataclass(frozen=True)
class PowerMomentInstance:
    """Moment data (M1, Mt, t) and order quantity q, all in original units.

    ``mt_scaled`` = Mt/M1^t, the t-th moment of X/M1 (always > 1), and
    ``q_scaled`` = q/M1 are set once here: the root function reads both on
    every evaluation.
    """

    M1: float
    Mt: float
    t: float
    q: float

    def __post_init__(self) -> None:
        if not self.M1 > 0.0:
            raise InfeasibleError(f"M1 > 0 required, got {self.M1}")
        if not self.t > 1.0:
            raise InfeasibleError(f"t > 1 required, got {self.t}")
        if not self.q > 0.0:
            raise InfeasibleError(f"q > 0 required, got {self.q}")
        try:
            m1t = self.M1**self.t
        except OverflowError:
            raise RangeError(f"M1^t overflows at M1={self.M1:g}, t={self.t:g}") from None
        if not self.Mt > m1t:
            raise InfeasibleError(
                f"Mt > M1^t required (single-point family otherwise): {self.Mt} <= {m1t}"
            )
        if m1t < sys.float_info.min:  # 0 or subnormal, with too few digits to divide by
            raise RangeError(f"M1^t underflows to {m1t:g} at M1={self.M1:g}, t={self.t:g}")
        mt_scaled = self.Mt / m1t
        if not math.isfinite(mt_scaled):
            raise RangeError(f"Mt/M1^t overflows at M1={self.M1:g}, Mt={self.Mt:g}, t={self.t:g}")
        object.__setattr__(self, "mt_scaled", mt_scaled)
        object.__setattr__(self, "q_scaled", self.q / self.M1)

    @property
    def edge_scaled(self) -> float:
        """mt^(1/(t-1)), the scaled upper support point of the boundary branch."""
        try:
            return self.mt_scaled ** (1.0 / (self.t - 1.0))
        except OverflowError:
            raise RangeError(
                f"mt^(1/(t-1)) overflows at mt={self.mt_scaled:g}, t={self.t:g}"
            ) from None


@dataclass(frozen=True)
class PowerMomentAmbiguity:
    """The same moment data without an order quantity, for sweeps and outer loops."""

    M1: float
    Mt: float
    t: float

    def instance_at(self, q: float) -> PowerMomentInstance:
        return PowerMomentInstance(M1=self.M1, Mt=self.Mt, t=self.t, q=q)

    def solve(self, q: float, eps: float = 1e-10) -> Report:
        return solve_power_moment(self.instance_at(q), eps)

    def _candidate(self, q: float, eps: float = 1e-10) -> dict:
        """The unverified answer at q; `_certify` turns it into a report."""
        return _candidate(self.instance_at(q), eps)

    def _certify(self, q: float, candidate: dict) -> Report:
        return core.certify(self.instance_at(q), candidate, gmp_instance)

    def tail_cutoff(self, mass: float) -> float:
        """The q at which Markov's bound Mt/q^t on every feasible P(X > q) falls to mass."""
        return (self.Mt / mass) ** (1.0 / self.t)

    def worst_case(self, q: float, eps: float = 1e-10) -> float:
        self.instance_at(self.M1)  # infeasible moments raise before the q = 0 shortcut
        if q == 0.0:
            return self.M1  # E[(X - 0)_+] = E[X] for every feasible distribution
        return self.solve(q, eps).value


def theta(y: float, inst: PowerMomentInstance) -> float:
    """Root function for the interior upper support point, in mean-scaled units.

    With mt = Mt/M1^t and qs = q/M1:

      theta(y) = (y^t - mt)/(y - 1) * (1 - u(y)) + u(y)^t - mt,
      u(y) = (t*qs/(t-1)) * (y^(t-1) - mt) / (y^t - mt).

    Defined for y > 1 away from the pole y^t = mt; solve brackets stay right
    of both.
    """
    if y <= 1.0:
        raise DomainError(f"theta needs y > 1, got {y}")
    t, mt, qs = inst.t, inst.mt_scaled, inst.q_scaled
    yt = y**t
    if yt == mt:
        raise NonFiniteError(f"theta pole at y={y}: y^t equals the scaled moment")
    u = (t * qs / (t - 1.0)) * (y ** (t - 1.0) - mt) / (yt - mt)
    # u is nonnegative wherever solve brackets evaluate; roundoff can push it
    # a few ulp negative right at the bracket edge, where an odd extension of
    # u^t keeps the expression real and continuous
    u_pow = abs(u) ** t if u >= 0.0 else -(abs(u) ** t)
    return (yt - mt) / (y - 1.0) * (1.0 - u) + u_pow - mt


def _theta_prime(y: float, inst: PowerMomentInstance) -> float:
    t, mt, qs = inst.t, inst.mt_scaled, inst.q_scaled
    c = t * qs / (t - 1.0)
    yt, yt1 = y**t, y ** (t - 1.0)
    g2 = (yt - mt) / (y - 1.0)
    g2p = ((t - 1.0) * yt - t * yt1 + mt) / (y - 1.0) ** 2
    g3 = c * (yt1 - mt) / (yt - mt)
    g3p = c * ((t - 1.0) * y ** (t - 2.0) * (yt - mt) - (yt1 - mt) * t * yt1) / (yt - mt) ** 2
    return g2p * (1.0 - g3) - g2 * g3p + t * abs(g3) ** (t - 1.0) * g3p


def boundary_threshold(inst: PowerMomentInstance) -> float:
    """Largest q (original units) for which the closed-form branch applies."""
    t = inst.t
    return inst.M1 * (t - 1.0) / t * inst.edge_scaled


def _stable_power_gap(v: float, inst: PowerMomentInstance, edge: float) -> float:
    """v^(t-1) - mt at full relative precision.

    The plain subtraction cancels catastrophically when v sits near the
    branch edge, where this gap drives the lower support point; expm1/log1p
    around the edge keeps it accurate at any magnitude.
    """
    t, mt = inst.t, inst.mt_scaled
    return mt * math.expm1((t - 1.0) * math.log1p((v - edge) / edge))


def _u_from_v(v: float, inst: PowerMomentInstance, edge: float) -> float:
    """Lower support point induced by v via the moment conditions."""
    t, mt, qs = inst.t, inst.mt_scaled, inst.q_scaled
    num = _stable_power_gap(v, inst, edge)
    return (t * qs / (t - 1.0)) * num / (v * num + mt * (v - 1.0))


def _certificate_slack(w: float, ut: float, v: float, t: float, qs: float) -> float:
    """H(v; z) for the closed-form certificate, in mean-scaled units.

    w is the lower support point raised to t-1 and ut the same point raised
    to t; keeping both explicit lets the near-threshold path supply them at
    full precision even when the point itself underflows.
    """
    d = v ** (t - 1.0) - w
    return ((t - 1.0) * ut / t - w * v + v**t / t) / d - (v - qs)


def _det_consistent_w(v: float, inst: PowerMomentInstance) -> float:
    """Solve the dual tangency system for w = u^(t-1) at a given v.

    The system reads t*qs*w - (t-1)*w^(t/(t-1)) = v^(t-1) * (t*qs - (t-1)*v)
    and has exactly one root with u < qs; the left side is increasing there.
    Parametrizing by w rather than u keeps the equation solvable even when u
    itself is many orders of magnitude below ulp(v).
    """
    t, qs = inst.t, inst.q_scaled
    k = v ** (t - 1.0) * (t * qs - (t - 1.0) * v)
    if k <= 0.0:
        return 0.0  # roundoff at the far end of the bracket, where u -> 0
    whi = qs ** (t - 1.0)
    expo = t / (t - 1.0)

    def g(w: float) -> float:
        return t * qs * w - (t - 1.0) * w**expo - k

    if g(whi) <= 0.0:
        return whi
    res = bisect(g, 0.0, whi, whi * 1e-18)
    return polish_root(
        g, lambda w: t * (qs - w ** (1.0 / (t - 1.0))), res.root, 0.0, whi
    )


def _moment_mismatch(
    v: float, u: float, w: float, inst: PowerMomentInstance, edge: float
) -> float:
    """t-th moment violation (times v - u) of a support pair, w = u^(t-1).

    Written as a balance of two accurately computable terms so its root can
    be located to float resolution regardless of how small u is.
    """
    mt = inst.mt_scaled
    return (1.0 - u) * v * _stable_power_gap(v, inst, edge) - (v - 1.0) * u * (mt - w)


def _refine_near_threshold(
    inst: PowerMomentInstance, edge: float, a: float, b: float
) -> tuple[float, float] | None:
    """Joint re-solve of (support, tangency) when theta is noise-limited.

    Near the branch threshold theta flattens below float noise, so the
    certificate built from its root violates dual slackness.  The moment
    mismatch above keeps a clean sign change across (a, b) there; bisecting
    it and back-solving w gives a pair exact to float resolution.
    """
    t = inst.t

    def f(y: float) -> float:
        w = _det_consistent_w(y, inst)
        return _moment_mismatch(y, w ** (1.0 / (t - 1.0)), w, inst, edge)

    try:
        res = bisect(f, a, b, (b - a) * 1e-18)
    except (BracketError, NonFiniteError):
        return None
    v = res.root
    return v, _det_consistent_w(v, inst)


def _pair_score(
    v: float, u: float, w: float, ut: float, inst: PowerMomentInstance, edge: float
) -> float:
    """Worst certification residual of a candidate pair, in scaled units."""
    t, qs = inst.t, inst.q_scaled
    slack = _certificate_slack(w, ut, v, t, qs)
    mismatch = _moment_mismatch(v, u, w, inst, edge) / (v - u)
    return max(abs(slack), abs(mismatch))


def gmp_instance(inst: PowerMomentInstance, dist: DiscreteDistribution) -> GmpInstance:
    """The generic moment problem this instance describes, sized to a solution."""
    hi = 10.0 * max(dist.points[-1][0], inst.q, inst.M1)
    return GmpInstance(
        g=core.positive_part(inst.q),
        hs=(core.constant(), core.monomial(1.0), core.monomial(inst.t)),
        ms=(1.0, inst.M1, inst.Mt),
        sense="max",
        support_hi=hi,
    )


def solve_power_moment(
    inst: PowerMomentInstance, eps: float = 1e-10, tol: ToleranceSet = ToleranceSet()
) -> Report:
    """Solve the scaled problem, rescale, and certify the result."""
    return core.certify(inst, _candidate(inst, eps), gmp_instance, tol)


def _candidate(inst: PowerMomentInstance, eps: float) -> dict:
    """Every Report field but the verification, in original units."""
    M1, t = inst.M1, inst.t
    mt, qs = inst.mt_scaled, inst.q_scaled
    edge = inst.edge_scaled
    a = max(edge, qs)
    b = t * qs / (t - 1.0)

    # b <= a can only happen when q sits at the branch threshold to float
    # resolution, where the boundary construction is the exact limit
    if qs <= (t - 1.0) / t * edge or b <= a:
        p_hi = 1.0 / edge
        value = M1 * (1.0 - qs / edge)
        dist = DiscreteDistribution(points=((0.0, 1.0 - p_hi), (M1 * edge, p_hi)))
        z1 = 1.0 - (t * qs / (t - 1.0)) / edge
        zt = (qs / (t - 1.0)) * mt ** (-t / (t - 1.0))
        cert = DualCertificate(z=(0.0, z1, zt / M1 ** (t - 1.0)))
        branch, root, iters = BOUNDARY, None, 0
    else:
        # When qs <= edge, the bracket starts exactly on a zero of theta with
        # negative right slope, which bisect must be told about: a float
        # evaluation of theta(a) is merely tiny, not zero.  A q a few ulp
        # above the edge has the same fuzz-zero left endpoint, so a failed
        # sign check there falls back to the left-root semantics too.
        assume = qs <= edge
        try:
            res: BisectResult = bisect(
                lambda y: theta(y, inst), a, b, eps, assume_left_root=assume
            )
        except BracketError:
            if assume or qs > edge * (1.0 + 1e-12):
                raise RootBracketError(
                    f"theta sign conditions failed on ({a}, {b})"
                ) from None
            res = bisect(lambda y: theta(y, inst), a, b, eps, assume_left_root=True)
        # Newton steps push the root to float resolution so the t-th moment
        # row and the duality gap land well inside verification tolerances.
        v = polish_root(
            lambda y: theta(y, inst), lambda y: _theta_prime(y, inst), res.root, a, b
        )
        u = _u_from_v(v, inst, edge)
        w, ut = u ** (t - 1.0), u**t
        if qs <= edge and _pair_score(v, u, w, ut, inst, edge) > 1e-11 * max(1.0, v):
            # theta is noise-flat across the whole bracket here, so the root
            # it reports cannot support an accurate certificate.  Score the
            # alternative representable pairs and keep the best: the joint
            # tangency re-solve covers roots hugging the left endpoint, the
            # moment-consistent pair at the right endpoint covers roots that
            # sit within one ulp of it.
            candidates = [(v, u, w, ut)]
            refined = _refine_near_threshold(inst, edge, a, b)
            if refined is not None:
                v2, w2 = refined
                candidates.append(
                    (v2, w2 ** (1.0 / (t - 1.0)), w2, w2 ** (t / (t - 1.0)))
                )
            v3 = float(np.nextafter(b, a))
            u3 = _u_from_v(v3, inst, edge)
            candidates.append((v3, u3, u3 ** (t - 1.0), u3**t))
            v, u, w, ut = min(
                candidates, key=lambda c: _pair_score(c[0], c[1], c[2], c[3], inst, edge)
            )
        if not 0.0 <= u < v:
            raise RootBracketError(f"inconsistent support u={u}, v={v}")
        denom = v ** (t - 1.0) - w
        value = M1 * (v - qs) * (1.0 - u) / (v - u)
        dist = DiscreteDistribution(
            points=((M1 * u, (v - 1.0) / (v - u)), (M1 * v, (1.0 - u) / (v - u)))
        )
        cert = DualCertificate(
            z=(
                M1 * (t - 1.0) * ut / (t * denom),
                -w / denom,
                1.0 / (t * denom) / M1 ** (t - 1.0),
            )
        )
        branch, root, iters = INTERIOR, v, res.iterations

    return dict(value=value, dist=dist, cert=cert, branch=branch, root=root, bisect_iters=iters)
