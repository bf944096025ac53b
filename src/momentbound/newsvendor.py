"""Distributionally robust order quantities: min over q of the worst-case cost.

The objective f(q) = (worst-case E[(X - q)_+]) + (1 - eta) * q is convex.  By
the envelope theorem the worst case has slope -P(X > q) under its extremal
distribution, which is minus that distribution's upper support mass p_hi(q).
So the optimal order q* solves p_hi(q) = 1 - eta, and p_hi does not rise
with q.  The worst case at q* is the two-point law that matches the moments
with upper mass 1 - eta, and the dual's tangency conditions at its two
support points give q* in closed form (Scarf 1958 at t = 2).  The
ambiguity's ``_order_at_mass`` solves for that law once, for mp1e with the
v1 (one root search) that the solves share through ``compute_v1``'s memo, and
returns q*; it is 0 where the boundary branch's upper mass is already at most
1 - eta.

What is returned is certified by the subgradient condition on a bracket
a <= q* <= b: p_hi(a) >= 1 - eta >= p_hi(b) from verified worst cases at both
ends puts a minimizer of f in [a, b].  The ends are q* - eps and q* + eps,
clipped to 0 and to the tail cutoff, where the moment bound on P(X > q)
(Markov for a power moment, Chernoff for an exponential one) gives
p_hi <= 1 - eta without a solve.  An end that rounds to q* itself or whose
p_hi reads on the wrong side of 1 - eta (eps near the float resolution of
q*) steps outward, its offset doubling, while the offset stays within
max(eps, 1e-9*q*); past that, as for a wrong closed form, the decision is a
RootBracketError.  Every report here, at q*
and at the bracket ends, is a ``core.Report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import Report
from .errors import DomainError, RangeError, RootBracketError

if TYPE_CHECKING:  # annotations only: a decision loads its own ambiguity's module alone
    from .exp_moment import ExpMomentAmbiguity
    from .power_moment import PowerMomentAmbiguity

_MAX_OFFSET = 1e-9  # times q*: how far a bracket end may step out from q* past eps


@dataclass(frozen=True)
class NewsvendorInstance:
    """An ambiguity set, a critical ratio eta = 1 - c/p, and a bracket half-width."""

    ambiguity: PowerMomentAmbiguity | ExpMomentAmbiguity
    eta: float
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < 1.0:
            raise DomainError(f"eta must lie in (0, 1), got {self.eta}")
        if not self.eps > 0.0:
            raise DomainError("eps must be positive")


@dataclass(frozen=True)
class OrderDecision:
    """The robust order q_star, its worst-case cost, and what certifies them.

    ``report`` is the verified worst case at q_star, the distribution behind
    ``objective``; at q_star = 0 it is the worst case at b, which is a worst
    case at 0 too (every feasible law is: E[X] = M1 there).
    ``bracket`` is (a, b), a <= q_star <= b, and ``bracket_reports`` the
    verified worst cases at its ends.  Together they certify
    p_hi(a) >= 1 - eta >= p_hi(b), so a minimizer of the worst-case cost lies
    in [a, b].  An end's report is None where no solve is needed: a = 0 is
    the domain boundary, and at b = the tail cutoff the moment bound gives
    p_hi(b) <= 1 - eta.  Each end lies eps from q_star unless it is clipped
    there, or its p_hi rounded to the wrong side and it stepped out.
    """

    q_star: float
    objective: float
    iterations: int  # doublings of an end's offset from q_star, both ends together
    # worst-case solves made: one per end tried inside (0, tail cutoff),
    # plus the one behind ``report`` unless it is b's
    inner_solves: int
    report: Report  # the worst case at q_star
    bracket: tuple[float, float]
    bracket_reports: tuple[Report | None, Report | None]


def optimize_order(inst: NewsvendorInstance) -> OrderDecision:
    """q* in closed form, bracketed by verified worst cases within eps of it."""
    amb = inst.ambiguity
    mass = 1.0 - inst.eta
    hi = amb.tail_cutoff(mass)
    if not math.isfinite(hi):
        raise RangeError(f"no finite q brings the moment bound on P(X > q) down to {mass:g}")
    q = amb._order_at_mass(mass)
    if not 0.0 <= q < hi:
        raise RootBracketError(f"closed-form order {q:g} lies outside [0, tail cutoff {hi:g})")
    cap = max(inst.eps, _MAX_OFFSET * q)
    solves = doublings = 0

    def end(side: float) -> tuple[float, Report | None]:
        """The bracket end on `side` of q* (-1 or 1) and its verified worst case."""
        nonlocal solves, doublings
        offset = inst.eps
        while offset <= cap:
            x = min(max(q + side * offset, 0.0), hi)
            if x in (0.0, hi):
                return x, None
            if x != q:
                solves += 1
                report = amb.solve(x)
                # p_hi(a) >= 1 - eta >= p_hi(b)
                if side * (report.dist.points[-1][1] - mass) <= 0.0:
                    if not report.verification.passed:
                        raise RootBracketError(
                            f"worst case at order bracket end q={x:g} failed verification"
                        )
                    return x, report
            offset *= 2.0
            doublings += 1
        raise RootBracketError(
            f"p_hi within {cap:g} on the {'left' if side < 0.0 else 'right'} of the "
            f"closed-form order {q:g} is on the wrong side of 1 - eta = {mass:g}"
        )

    (a, lo), (b, up) = end(-1.0), end(1.0)
    if q == 0.0 and up is not None:
        report = up  # at q = 0 every feasible law is a worst case, so b's serves
    else:
        solves += 1
        report = amb.solve(q or b)
    return OrderDecision(
        q_star=q,
        objective=report.value + mass * q if q > 0.0 else amb.M1,
        iterations=doublings,
        inner_solves=solves,
        report=report,
        bracket=(a, b),
        bracket_reports=(lo, up),
    )
