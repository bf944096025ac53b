"""Distributionally robust order quantities: min over q of the worst-case cost.

The objective f(q) = (worst-case E[(X - q)_+]) + (1 - eta) * q is convex.  By
the envelope theorem the worst case has slope -P(X > q) under its extremal
distribution, which is minus that distribution's upper support mass p_hi(q).
So the optimal order is the root of the nonincreasing function
p_hi(q) - (1 - eta), and one bisection finds it.  The ambiguity set's moment
bound on P(X > q) (Markov for a power moment, Chernoff for an exponential
one) gives the right end of the bracket, where p_hi <= 1 - eta holds without
a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeError
from .exp_moment import ExpMomentAmbiguity, ExpMomentReport
from .power_moment import PowerMomentAmbiguity, PowerMomentReport
from .rootfind import bisect


@dataclass(frozen=True)
class NewsvendorInstance:
    """An ambiguity set, a critical ratio eta = 1 - c/p, and a search tolerance."""

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
    q_star: float
    objective: float
    iterations: int  # bisection steps
    inner_solves: int  # worst-case solves, the one at q_star included
    report: PowerMomentReport | ExpMomentReport  # the worst case at q_star


def optimize_order(inst: NewsvendorInstance) -> OrderDecision:
    """Bisect p_hi(q) - (1 - eta) on (0, hi] to inst.eps."""
    amb = inst.ambiguity
    amb.instance_at(amb.M1)  # rejects infeasible moments before the tail bound uses them
    mass = 1.0 - inst.eta
    hi = amb.tail_cutoff(mass)
    if not math.isfinite(hi):
        raise RangeError(f"no finite q brings the moment bound on P(X > q) down to {mass:g}")

    def excess(q: float) -> float:
        if q >= hi:
            return -mass  # p_hi(q) <= P(X > q) <= mass by the moment bound
        return amb.solve(q).dist.points[-1][1] - mass

    # q = 0 admits no solve.  Declaring it the left root keeps it unevaluated;
    # if p_hi < 1 - eta on all of (0, hi], the search closes in on q = 0.
    res = bisect(excess, 0.0, hi, inst.eps, assume_left_root=True)
    report = amb.solve(res.root)
    return OrderDecision(
        q_star=res.root,
        objective=report.value + mass * res.root,
        iterations=res.iterations,
        # each bisection step solves at its midpoint (all below hi), then q* once more
        inner_solves=res.iterations + 1,
        report=report,
    )
