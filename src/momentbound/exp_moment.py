"""Worst-case E[(X - q)_+] given the mean and an exponential moment E[exp(t*X)].

Rescaling X to t*X reduces everything to rate 1.  The boundary branch places
mass on {0, v1} where v1 > 0 solves exp(v) = ((Me-1)/M1) * v + 1, found by
one ``brent`` search of that equation in a form that does not cancel as v1
falls to 0.  Past the branch threshold the lower support point u is a root
of a scalar equation on (0, min(M1, q)), searched for in its gap
g = t*M1 - u, which keeps full relative precision where u rounds to t*M1;
the upper point follows from g.  As with the power-moment solver, ``_candidate``
builds the unverified answer with its dual certificate, and
``solve_exp_moment`` passes it through ``core.certify``, which returns a
``core.Report`` (``root`` is u on the interior branch).  ``_takes_boundary``
reads the branch from one evaluation of v1's equation, so only a boundary
answer searches for v1 (``compute_v1``, which keeps its last result).

RangeError is raised only where an exponent leaves float range (t*q, t*M1 or
v1 above 700); the deep tail has no floor.  The search works on g*phi, which
has no pole and whose exponents stay at most max(t*M1, t*q + 1), so no
exponential overflows.  On wide draws up to t*q = 700 no interior search was refused,
down to tails of 1e-313; below the normal float range (a tail under about
2.2e-308 * t) the value keeps only a subnormal's precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import exp
from typing import Callable

from . import core
from .core import DiscreteDistribution, DualCertificate, GmpInstance, Report
from .errors import (
    DomainError,
    InfeasibleError,
    NonFiniteError,
    RangeError,
    RootBracketError,
    UncertifiedError,
)
from .rootfind import brent

BOUNDARY = "boundary"
INTERIOR = "interior"

_EXP_ARG_LIMIT = 700.0  # exp(t*q) and exp(t*M1) stay finite
_ARG_RANGE = f"t*q and t*M1 must stay below {_EXP_ARG_LIMIT:g} to avoid overflow"


@dataclass(frozen=True)
class ExpMomentAmbiguity:
    """Moment data (M1, Me, t) in original units: every law on X >= 0 with these moments.

    The moments are checked here, and ``m1_scaled`` = t*M1 is set once, in
    the same step as the fields.
    """

    M1: float
    Me: float
    t: float

    def __init__(self, M1: float, Me: float, t: float) -> None:
        object.__setattr__(
            self, "__dict__", {"M1": M1, "Me": Me, "t": t, "m1_scaled": _m1_scaled(M1, Me, t)}
        )

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

    def solve(self, q: float) -> Report:
        return solve_exp_moment(self.instance_at(q))

    def tail_cutoff(self, mass: float) -> float:
        """The q at which Chernoff's bound Me*exp(-t*q) on every feasible P(X > q) falls to mass."""
        return math.log(self.Me / mass) / self.t

    def _order_at_mass(self, mass: float) -> float:
        """The order q whose worst case has upper mass `mass`; 0 where the boundary's is no more.

        The worst case at q is the two-point law {u, v} (rate-scaled) with
        upper mass p_hi(q), and p_hi falls as q rises past the branch
        threshold.  So the q with p_hi(q) = mass takes the law with that
        mass, u = m1 - g and v = m1 + g*(1 - mass)/mass, and the dual's
        tangency at u and at v gives it: ``_candidate``'s v2 relation read
        backwards, t*q = v - 1 + e^u*g/(Me - e^u).
        """
        m1, me = self.m1_scaled, self.Me
        v1 = compute_v1(m1, me)
        if mass >= m1 / v1:  # the boundary law's upper mass
            return 0.0
        gap = _gap_at_mass(mass, self, v1)
        eu = math.exp(m1 - gap)
        return (m1 + gap * (1.0 - mass) / mass - 1.0 + eu * gap / (me - eu)) / self.t


@dataclass(frozen=True)
class ExpMomentInstance(ExpMomentAmbiguity):
    """The ambiguity set at order quantity q; ``q_scaled`` = t*q is set once here."""

    q: float

    def __init__(self, M1: float, Me: float, t: float, q: float) -> None:
        m1_scaled = _m1_scaled(M1, Me, t)
        if not q > 0.0:
            raise InfeasibleError(f"q > 0 required, got {q}")
        if t * q > _EXP_ARG_LIMIT:
            raise RangeError(_ARG_RANGE)
        object.__setattr__(
            self,
            "__dict__",
            {"M1": M1, "Me": Me, "t": t, "q": q, "m1_scaled": m1_scaled, "q_scaled": t * q},
        )


def _m1_scaled(M1: float, Me: float, t: float) -> float:
    """t*M1 once the moments (M1, Me, t) are checked."""
    if not M1 > 0.0:
        raise InfeasibleError(f"M1 > 0 required, got {M1}")
    if not t > 0.0:
        raise InfeasibleError(f"t > 0 required, got {t}")
    if t * M1 > _EXP_ARG_LIMIT:
        raise RangeError(_ARG_RANGE)
    if not Me > math.exp(t * M1):
        raise InfeasibleError(
            f"Me > exp(t*M1) required (single-point family otherwise): "
            f"{Me} <= {math.exp(t * M1)}"
        )
    return t * M1


def _exp_tail(v: float) -> float:
    """e^v - 1 - v for v >= 0 at full relative precision: its series below 0.5, where expm1 cancels."""
    if v >= 0.5:
        return math.expm1(v) - v
    k, term, tail = 2, 0.5 * v * v, 0.0
    while tail + term != tail:
        tail += term
        k += 1
        term *= v / k
    return tail


@functools.lru_cache(maxsize=1)
def compute_v1(m1_scaled: float, Me: float) -> float:
    """Boundary support point: the positive solution v1 of exp(v) = ((Me-1)/m1)*v + 1.

    With a = (Me-1)/m1 and b = a - 1 = ((Me-1) - m1)/m1, which is > 0 on every
    admissible set (a DomainError otherwise), v1 is the root of
    log1p((e^v - 1 - v)/v) - log1p(b), a form that does not cancel as v1
    falls to 0.  (e^v - 1)/v lies between e^(v/2) and e^v, so the root lies
    in [log a, 2*log a], and one ``brent`` search finds it; a root above 700
    is a RangeError.  It is searched only for a boundary answer, the
    closed-form newsvendor order and the mp1e oracle grid's upper end; the
    last result is kept, so a newsvendor decision's order and its solves
    share one search.
    """
    log_a, hi, f, f_hi = _v1_bracket(m1_scaled, Me)
    return brent(f, log_a, hi, f(log_a), f_hi)[0]


def _v1_bracket(
    m1_scaled: float, Me: float
) -> tuple[float, float, Callable[[float], float], float]:
    """compute_v1's bracket [log a, hi], its root function f and f(hi), with its refusals."""
    if not 0.0 < m1_scaled < Me - 1.0:
        raise DomainError(f"v1 needs 0 < m1_scaled < Me - 1, got {m1_scaled} and Me={Me}")
    log_a = math.log1p(((Me - 1.0) - m1_scaled) / m1_scaled)
    f = lambda v: math.log1p(_exp_tail(v) / v) - log_a
    hi = min(2.0 * log_a, _EXP_ARG_LIMIT)
    f_hi = f(hi)  # before f(log_a), which is inf where b overflows
    if f_hi < 0.0:
        raise RangeError(f"boundary support point above {_EXP_ARG_LIMIT:g} overflows exp()")
    return log_a, hi, f, f_hi


def phi(y: float, inst: ExpMomentInstance) -> float:
    """Root function for the interior lower support point, in rate-scaled units.

    With m1 = t*M1 and qs = t*q:

      phi(y) = (Me - e^y)/(m1 - y) * (qs + 1 - m1) - e^y
               - exp(qs + 1 - e^y * (m1 - y)/(Me - e^y)) + Me.

    Defined on [0, m1); the pole at y = m1 is approached from the left.
    ``inst`` is read for ``m1_scaled``, ``Me`` and ``q_scaled`` only.
    """
    if y < 0.0:
        raise DomainError(f"phi needs y >= 0, got {y}")
    m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
    if y >= m1:
        raise NonFiniteError(f"phi pole at y = {m1} (scaled mean)")
    ey = math.exp(y)
    ratio = ey * (m1 - y) / (me - ey)
    return (me - ey) / (m1 - y) * (qs + 1.0 - m1) - ey - math.exp(qs + 1.0 - ratio) + me


def _gap_at_mass(p: float, inst: ExpMomentInstance, v1: float) -> float:
    """m1 - u for the rate-1 two-point law {u, v} with mean m1, E[e^X] = Me and mass p at v.

    Its lower point is u = (m1 - p*v)/(1 - p), so the mean is m1 for every v,
    and the exponential moment (1 - p)*e^u + p*e^v rises strictly with v: its
    slope is p*(e^v - e^u) > 0.  It is below Me at v = v1 and reaches Me by
    the point where u falls to 0 or p*e^v alone reaches Me, which also keeps
    every exp() finite.  Requires p < m1/v1, the boundary branch's upper mass.
    Where (1 - p)*e^u is below the rounding of p*e^v - Me at that point,
    the excess reads <= 0 there, and the root lies within a few ulp of it.
    """
    m1, me = inst.m1_scaled, inst.Me
    log_p = math.log(p)

    def excess(v: float) -> float:
        return (1.0 - p) * math.exp((m1 - p * v) / (1.0 - p)) + math.exp(v + log_p) - me

    hi = min(m1 / p, math.log(me) - log_p)
    v, f_hi = hi, excess(hi)
    if f_hi > 0.0:
        v = brent(excess, v1, hi, excess(v1), f_hi)[0]
    return p * (v - m1) / (1.0 - p)


def _takes_boundary(qs: float, m1: float, me: float) -> bool:
    """Whether ``_candidate`` answers with the boundary law {0, v1} at the rate-scaled order qs.

    It does at or below the branch threshold v1 + m1/(Me - 1) - 1, where
    s = qs + ((Me - 1) - m1)/(Me - 1) is at most v1.  compute_v1's root
    function f increases, so that is f(s) <= 0: one evaluation, no search,
    and ``_v1_bracket``'s refusals.
    """
    f = _v1_bracket(m1, me)[2]
    return f(qs + ((me - 1.0) - m1) / (me - 1.0)) <= 0.0


_MASS_AND_MEAN = (core.constant(), core.monomial(1.0))  # h_0 and h_1 of every instance


def gmp_instance(inst: ExpMomentInstance) -> GmpInstance:
    """The generic moment problem this instance describes."""
    return GmpInstance(
        g=core.positive_part(inst.q),
        hs=(*_MASS_AND_MEAN, core.exponential(inst.t)),
        ms=(1.0, inst.M1, inst.Me),
        sense="max",
    )


def solve_exp_moment(inst: ExpMomentInstance) -> Report:
    """Solve the rate-scaled problem, rescale, and certify the result."""
    return core.certify(gmp_instance(inst), _candidate(inst))


def _candidate(inst: ExpMomentInstance) -> dict:
    """Every Report field but the verification, in original units."""
    t = inst.t
    m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
    use_boundary = _takes_boundary(qs, m1, me)
    if not use_boundary:
        phi0 = phi(0.0, inst)
        q1 = qs + 1.0
        k = q1 - m1

        def gphi(g: float) -> float:
            """g * phi(m1 - g) with the division cleared.

            It is finite down to g = 0 and nearly linear near it.  When the
            root sits within a few ulp of the scaled mean, g is the only
            coordinate in which it is representable to full relative
            precision.
            """
            eu = exp(m1 - g)
            den = me - eu
            return den * k - g * (eu + exp(q1 - eu * g / den) - me)

        # g*phi in the gap g = m1 - u has no pole: it is positive at the
        # lower end of g's range (at y = qs, or at g = 0 where it is
        # (Me - e^m1)*(qs + 1 - m1)) and has phi(0)'s sign at g = m1
        g_end = gphi(m1) if phi0 < 0.0 else 0.0
        # phi(0) or g*phi at g = m1 reads 0 or above: the interior root is
        # u = 0 to float resolution, the boundary law {0, v1}
        use_boundary = not g_end < 0.0

    if use_boundary:
        v1 = compute_v1(m1, me)
        p_hi = m1 / v1
        value = inst.M1 * (1.0 - qs / v1)
        if p_hi >= 1.0:
            # v1 rounds to t*M1 (Me within rounding of e^(t*M1)): the law
            # left is the point mass, and a mass of 0 at 0 is not a point
            dist = DiscreteDistribution(points=((v1 / t, 1.0),))
        else:
            dist = DiscreteDistribution(points=((0.0, 1.0 - p_hi), (v1 / t, p_hi)))
        ev1 = math.exp(v1)
        if v1 < 0.5:
            # e^v1*(v1 - 1) + 1 cancels for small v1: take it as
            # v1*(e^v1 - 1) - (e^v1 - 1 - v1)
            den = v1 * math.expm1(v1) - _exp_tail(v1)
        else:
            den = ev1 * (v1 - 1.0) + 1.0
        cert = DualCertificate(z=(-qs / den / t, (den - qs * ev1) / den, qs / den / t))
        branch, root, iters = BOUNDARY, None, 0
    else:
        lo = m1 - min(m1, qs)
        g_lo = gphi(lo)
        if g_lo < 0.0:  # positive in exact arithmetic: g*phi is all rounding here
            raise UncertifiedError(
                f"g*phi reads {g_lo!r} at the far end of its bracket: at Me - e^(t*M1) = "
                f"{me - exp(m1)!r} the interior law is beyond double precision"
            )
        gap, iters = brent(gphi, lo, m1, g_lo, g_end)
        u = m1 - gap
        eu = math.exp(u)
        ratio = eu * gap / (me - eu)
        v2 = qs + 1.0 - ratio
        span = (qs + 1.0 - m1) + gap - ratio  # v2 - u at full precision
        if not (u < v2 and span > 0.0 and ratio < 1.0):
            raise RootBracketError(f"inconsistent support u={u}, v2={v2}")
        value = (1.0 - ratio) * gap / (span * t)
        p_hi = gap / span
        if p_hi >= 1.0:
            # the lower mass rounds to 0 (Me within rounding of e^(t*M1)):
            # the law left is the point mass at v2/t, as on the boundary
            dist = DiscreteDistribution(points=((v2 / t, 1.0),))
        else:
            # u <= t*M1, but u/t can round one ulp past M1
            dist = DiscreteDistribution(points=((min(u / t, inst.M1), 1.0 - p_hi), (v2 / t, p_hi)))
        den = math.exp(v2) - eu
        cert = DualCertificate(z=((u - 1.0) * eu / den / t, -eu / den, 1.0 / den / t))
        branch, root = INTERIOR, u

    return dict(value=value, dist=dist, cert=cert, branch=branch, root=root, bisect_iters=iters)
