"""Worst-case E[(X - q)_+] given the mean and an exponential moment E[exp(t*X)].

Rescaling X to t*X reduces everything to rate 1.  The boundary branch places
mass on {0, v1} where v1 solves exp(v) = ((Me-1)/M1) * v + 1, obtained
through the lower Lambert W branch.  Past the branch threshold the lower
support point u is a root of a scalar equation on (0, min(M1, q)) and the
upper point follows from it.  As with the power-moment solver,
``_candidate`` builds the unverified answer with its dual certificate, and
``solve_exp_moment`` passes it through ``core.certify``, which returns a
``core.Report`` (``root`` is u on the interior branch).  The boundary point
v1 is ``compute_v1(inst.m1_scaled, inst.Me)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import core
from .core import DiscreteDistribution, DualCertificate, GmpInstance, Report, ToleranceSet
from .errors import (
    DomainError,
    InfeasibleError,
    NonFiniteError,
    RangeError,
    RootBracketError,
)
from .lambertw import lambert_w_minus1
from .rootfind import bisect, polish_root

BOUNDARY = "boundary"
INTERIOR = "interior"

_EXP_ARG_LIMIT = 700.0  # exp(t*q), exp(t*M1) and exp(t*support_hi) stay finite
_POLE_BACKOFF = 1e-9  # right bracket endpoint is evaluated at M1*(1 - this)
_TAIL_FLOOR = 1e-10  # below this (times max(1, M1)) the tail escapes float resolution


@dataclass(frozen=True)
class ExpMomentInstance:
    """Moment data (M1, Me, t) and order quantity q, all in original units.

    ``m1_scaled`` = t*M1 and ``q_scaled`` = t*q are set once here: the root
    function reads both on every evaluation.
    """

    M1: float
    Me: float
    t: float
    q: float

    def __post_init__(self) -> None:
        if not self.M1 > 0.0:
            raise InfeasibleError(f"M1 > 0 required, got {self.M1}")
        if not self.t > 0.0:
            raise InfeasibleError(f"t > 0 required, got {self.t}")
        if not self.q > 0.0:
            raise InfeasibleError(f"q > 0 required, got {self.q}")
        if self.t * self.q > _EXP_ARG_LIMIT or self.t * self.M1 > _EXP_ARG_LIMIT:
            raise RangeError(
                f"t*q and t*M1 must stay below {_EXP_ARG_LIMIT:g} to avoid overflow"
            )
        if not self.Me > math.exp(self.t * self.M1):
            raise InfeasibleError(
                f"Me > exp(t*M1) required (single-point family otherwise): "
                f"{self.Me} <= {math.exp(self.t * self.M1)}"
            )
        object.__setattr__(self, "m1_scaled", self.t * self.M1)
        object.__setattr__(self, "q_scaled", self.t * self.q)


@dataclass(frozen=True)
class ExpMomentAmbiguity:
    """ExpMomentInstance without q, for sweeps and the newsvendor outer loop."""

    M1: float
    Me: float
    t: float

    @classmethod
    def from_exponential_demand(cls, lam: float, t: float) -> "ExpMomentAmbiguity":
        """Moments of an exponential(lam) demand: M1 = 1/lam, Me = lam/(lam-t)."""
        if not lam > 0.0:
            raise DomainError(f"rate must be positive, got {lam}")
        if not 0.0 < t < lam:
            raise DomainError(f"exponential moment exists only for 0 < t < {lam}, got {t}")
        return cls(M1=1.0 / lam, Me=lam / (lam - t), t=t)

    def instance_at(self, q: float) -> ExpMomentInstance:
        return ExpMomentInstance(M1=self.M1, Me=self.Me, t=self.t, q=q)

    def solve(self, q: float, eps: float = 1e-10) -> Report:
        return solve_exp_moment(self.instance_at(q), eps)

    def _candidate(self, q: float, eps: float = 1e-10) -> dict:
        """The unverified answer at q; `_certify` turns it into a report."""
        return _candidate(self.instance_at(q), eps)

    def _certify(self, q: float, candidate: dict) -> Report:
        return core.certify(self.instance_at(q), candidate, gmp_instance)

    def tail_cutoff(self, mass: float) -> float:
        """The q at which Chernoff's bound Me*exp(-t*q) on every feasible P(X > q) falls to mass."""
        return math.log(self.Me / mass) / self.t

    def tail_bound(self, q: float) -> float:
        """Exponential Markov bound Me * exp(-(t*q + 1)) / t on E[(X - q)_+].

        Valid for every feasible distribution since (x-q)_+ <= e^(t(x-q)-1)/t.
        """
        return self.Me * math.exp(-min(self.t * q + 1.0, 1e4)) / self.t

    def worst_case(self, q: float, eps: float = 1e-10) -> float:
        self.instance_at(self.M1)  # infeasible moments raise before either shortcut
        if q == 0.0:
            return self.M1  # E[(X - 0)_+] = E[X] for every feasible distribution
        bound = self.tail_bound(q)
        if bound < _TAIL_FLOOR * max(1.0, self.M1):
            # The interior root sits within one ulp of the scaled mean here,
            # so the semi-closed form is unrepresentable; the Markov bound
            # itself is the value to double precision.
            return bound
        try:
            return self.solve(q, eps).value
        except RangeError:
            return bound  # same underflow regime, caught by the solver instead


def compute_v1(m1_scaled: float, Me: float) -> float:
    """Boundary support point: the positive solution of exp(v) = ((Me-1)/m1)*v + 1.

    Expressed through the lower Lambert W branch; its argument lies strictly
    inside (-1/e, 0) whenever Me > exp(m1_scaled).
    """
    r = m1_scaled / (Me - 1.0)
    arg = -r * math.exp(-r)
    v1 = -lambert_w_minus1(arg).w - r
    if v1 > _EXP_ARG_LIMIT:
        raise RangeError(f"boundary support point {v1:g} overflows exp()")
    return v1


def phi(y: float, inst: ExpMomentInstance) -> float:
    """Root function for the interior lower support point, in rate-scaled units.

    With m1 = t*M1 and qs = t*q:

      phi(y) = (Me - e^y)/(m1 - y) * (qs + 1 - m1) - e^y
               - exp(qs + 1 - e^y * (m1 - y)/(Me - e^y)) + Me.

    Defined on [0, m1); the pole at y = m1 is approached from the left.
    """
    if y < 0.0:
        raise DomainError(f"phi needs y >= 0, got {y}")
    m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
    if y >= m1:
        raise NonFiniteError(f"phi pole at y = {m1} (scaled mean)")
    ey = math.exp(y)
    ratio = ey * (m1 - y) / (me - ey)
    return (me - ey) / (m1 - y) * (qs + 1.0 - m1) - ey - math.exp(qs + 1.0 - ratio) + me


def _phi_prime(y: float, inst: ExpMomentInstance) -> float:
    m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
    ey = math.exp(y)
    a = (me - ey) / (m1 - y)
    a_prime = (me - ey * (1.0 + m1 - y)) / (m1 - y) ** 2
    ratio = ey * (m1 - y) / (me - ey)
    ratio_prime = (ey * (m1 - y - 1.0) * (me - ey) + ey * ey * (m1 - y)) / (me - ey) ** 2
    return a_prime * (qs + 1.0 - m1) - ey + math.exp(qs + 1.0 - ratio) * ratio_prime


def _phi_gap(g: float, inst: ExpMomentInstance) -> float:
    """phi evaluated at y = m1 - g without ever forming that subtraction.

    When the root sits within a few ulp of the scaled mean, g is the only
    coordinate in which it is representable to full relative precision.
    """
    m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
    eu = math.exp(m1 - g)
    den = me - eu
    return (den / g) * (qs + 1.0 - m1) - eu - math.exp(qs + 1.0 - eu * g / den) + me


def _phi_gap_prime(g: float, inst: ExpMomentInstance) -> float:
    m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
    eu = math.exp(m1 - g)
    den = me - eu
    d_a = (eu * g - den) / (g * g)
    d_ratio = (eu * (1.0 - g) * den - eu * g * eu) / (den * den)
    return d_a * (qs + 1.0 - m1) + eu + math.exp(qs + 1.0 - eu * g / den) * d_ratio


def boundary_threshold(inst: ExpMomentInstance) -> float:
    """Largest q (original units) for which the closed-form branch applies."""
    m1 = inst.m1_scaled
    v1 = compute_v1(m1, inst.Me)
    return (v1 + m1 / (inst.Me - 1.0) - 1.0) / inst.t


def gmp_instance(inst: ExpMomentInstance, dist: DiscreteDistribution) -> GmpInstance:
    """The generic moment problem this instance describes, sized to a solution."""
    hi = min(10.0 * max(dist.points[-1][0], inst.q, inst.M1), (_EXP_ARG_LIMIT + 5.0) / inst.t)
    return GmpInstance(
        g=core.positive_part(inst.q),
        hs=(core.constant(), core.monomial(1.0), core.exponential(inst.t)),
        ms=(1.0, inst.M1, inst.Me),
        sense="max",
        support_hi=hi,
    )


def solve_exp_moment(
    inst: ExpMomentInstance, eps: float = 1e-10, tol: ToleranceSet = ToleranceSet()
) -> Report:
    """Solve the rate-scaled problem, rescale, and certify the result."""
    return core.certify(inst, _candidate(inst, eps), gmp_instance, tol)


def _candidate(inst: ExpMomentInstance, eps: float) -> dict:
    """Every Report field but the verification, in original units."""
    t = inst.t
    m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
    v1 = compute_v1(m1, me)
    threshold = v1 + m1 / (me - 1.0) - 1.0
    use_boundary = qs <= threshold

    if not use_boundary:
        b = min(m1, qs)
        if qs < m1:
            cap = b
            fb = phi(b, inst)
        else:
            # phi blows up at m1; probe just left of the pole, stepping
            # closer until the guaranteed positive side becomes visible
            cap, fb = m1 * (1.0 - _POLE_BACKOFF), -1.0
            for backoff in (_POLE_BACKOFF, 1e-11, 1e-13, 1e-15, 0.0):
                c_try = m1 * (1.0 - backoff) if backoff else math.nextafter(m1, 0.0)
                if not c_try < m1:
                    continue
                val = phi(c_try, inst)
                if val > 0.0:
                    cap, fb = c_try, val
                    break

        def f(y: float) -> float:
            return phi(min(y, cap), inst)

        f0 = f(0.0)
        if not (f0 < 0.0 < fb):
            if f0 >= 0.0 and qs <= threshold * (1.0 + 1e-9) + 1e-12:
                # q sits at the branch threshold to float resolution; the
                # boundary construction is the exact limit there
                use_boundary = True
            elif fb <= 0.0 and me * math.exp(-(qs + 1.0)) < _TAIL_FLOOR * max(1.0, m1):
                # The root lies within one ulp of the scaled mean: the
                # worst-case tail is below double-precision resolution.
                raise RangeError(
                    f"worst-case tail at q={inst.q:g} is unrepresentably small; "
                    "use ExpMomentAmbiguity.tail_bound"
                )
            else:
                raise RootBracketError(
                    f"phi sign conditions failed: phi(0)={f0}, phi(right)={fb}"
                )

    if use_boundary:
        p_hi = m1 / v1
        value = inst.M1 * (1.0 - qs / v1)
        dist = DiscreteDistribution(points=((0.0, 1.0 - p_hi), (v1 / t, p_hi)))
        ev1 = math.exp(v1)
        den = ev1 * (v1 - 1.0) + 1.0
        cert = DualCertificate(
            z=(-qs / den / t, (ev1 * (v1 - 1.0 - qs) + 1.0) / den, qs / den / t)
        )
        branch, root, iters = BOUNDARY, None, 0
    else:
        res = bisect(f, 0.0, b, eps)
        # Newton steps push the root to float resolution; the exponential
        # moment row residual is proportional to phi at the reported root.
        u = polish_root(f, lambda y: _phi_prime(min(y, cap), inst), res.root, 0.0, cap)
        u = min(u, cap)
        gap = m1 - u
        if 0.0 < gap < 1e-5 * m1:
            # the root hugs the pole: refine in the gap coordinate, where
            # Newton arithmetic preserves relative precision
            gap = polish_root(
                lambda x: _phi_gap(x, inst),
                lambda x: _phi_gap_prime(x, inst),
                gap,
                0.0,
                m1,
            )
            u = m1 - gap
        eu = math.exp(u)
        ratio = eu * gap / (me - eu)
        v2 = qs + 1.0 - ratio
        span = (qs + 1.0 - m1) + gap - ratio  # v2 - u at full precision
        if not (u < v2 and span > 0.0 and ratio < 1.0):
            raise RootBracketError(f"inconsistent support u={u}, v2={v2}")
        value = (1.0 - ratio) * gap / (span * t)
        p_hi = gap / span
        dist = DiscreteDistribution(points=((u / t, 1.0 - p_hi), (v2 / t, p_hi)))
        den = math.exp(v2) - eu
        cert = DualCertificate(z=((u - 1.0) * eu / den / t, -eu / den, 1.0 / den / t))
        branch, root, iters = INTERIOR, u, res.iterations

    return dict(value=value, dist=dist, cert=cert, branch=branch, root=root, bisect_iters=iters)
