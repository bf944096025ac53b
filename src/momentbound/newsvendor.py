"""Distributionally robust order quantities: min over q of the worst-case cost.

The objective f(q) = (worst-case E[(X - q)_+]) + (1 - eta) * q is convex.  By
the envelope theorem the worst case has slope -P(X > q) under its extremal
distribution, which is minus that distribution's upper support mass p_hi(q).
So the optimal order is the root of the nonincreasing function
p_hi(q) - (1 - eta), and one bisection finds it.  The ambiguity set's moment
bound on P(X > q) (Markov for a power moment, Chernoff for an exponential
one) gives the right end of the bracket, where p_hi <= 1 - eta holds without
a solve.

The bisection reads one bit per midpoint, the sign of p_hi(q) - (1 - eta),
and gets it without a worst-case solve.  Along the two-point laws that match
the moments the upper mass falls strictly as the support rises, so the bit
is the side of one fixed support point, the one whose law has upper mass
1 - eta, on which the midpoint's root lies.  The ambiguity's ``_order_side``
solves for that point once per decision, with the branch threshold and,
for mp1e, v1 (one Lambert W, which the solves at the bracket ends and at q*
share through ``compute_v1``'s memo); the ambiguity set holds its scaled
moments from construction.  It then decides each midpoint from q/M1 or t*q
with at most one evaluation of the solver's own root function (none on the
boundary branch, whose closed-form p_hi it returns), building no instance.

What the search returns is certified by the subgradient condition on its
final bracket a < q* <= b: p_hi(a) >= 1 - eta >= p_hi(b) from verified worst
cases at both ends, with b - a <= 2*eps, puts a minimizer of f within eps of
q*.  A wrong midpoint sign can only move the bracket; the verified ends
either catch it or prove it harmless.  Where the one-evaluation search fails
that certificate (with eps below about 1e-9*q the midpoint sign and a
candidate solve's p_hi can disagree) or refuses, the bisection runs once more
with each midpoint's p_hi read from an unverified candidate solve, and its
bracket is certified the same way.  An end that fails there is a
RootBracketError, never a decision.  Every report here, at q* and at the
bracket ends, is a ``core.Report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .core import Report
from .errors import DomainError, MomentBoundError, RangeError, RootBracketError
from .rootfind import EXACT_ZERO, bisect

if TYPE_CHECKING:  # annotations only: a decision loads its own ambiguity's module alone
    from .exp_moment import ExpMomentAmbiguity
    from .power_moment import PowerMomentAmbiguity


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
    """The robust order q_star, its worst-case cost, and what certifies them.

    ``report`` is the verified worst case at q_star, the distribution behind
    ``objective``.  ``bracket`` is the search's final bracket (a, b),
    a < q_star <= b, and ``bracket_reports`` the verified worst cases at its
    ends.  Together they certify p_hi(a) >= 1 - eta >= p_hi(b) with
    b - a <= 2*eps (or a and b adjacent floats), so a minimizer of the
    worst-case cost lies in [a, b].  An end's report is None where no solve is
    needed: a = 0 is the domain boundary, and at b >= the tail cutoff the
    moment bound gives p_hi(b) <= 1 - eta.  When p_hi(q_star) = 1 - eta
    exactly, q_star meets the subgradient condition itself and the bracket may
    be wider.
    """

    q_star: float
    objective: float
    iterations: int  # bisection steps
    # candidate worst-case solves made, the verified one at q_star included:
    # at most 3 (the bracket ends and q_star) unless the full-candidate search
    # ran, which adds one per bisection step and one more at q_star
    inner_solves: int
    report: Report  # the worst case at q_star
    bracket: tuple[float, float]
    bracket_reports: tuple[Report | None, Report | None]


def optimize_order(inst: NewsvendorInstance) -> OrderDecision:
    """Bisect p_hi(q) - (1 - eta) on (0, hi] to inst.eps, then certify the bracket."""
    amb = inst.ambiguity
    mass = 1.0 - inst.eta
    hi = amb.tail_cutoff(mass)
    if not math.isfinite(hi):
        raise RangeError(f"no finite q brings the moment bound on P(X > q) down to {mass:g}")
    solved: dict[float, dict] = {}  # every candidate solve, by q
    solves = 0  # candidate solves and solves at q*, across both searches

    def candidate(q: float) -> dict:
        nonlocal solves
        solves += 1
        solved[q] = out = amb._candidate(q)
        return out

    def search(side: Callable[[float], float]) -> OrderDecision:
        nonlocal solves

        def excess(q: float) -> float:
            # p_hi(q) <= P(X > q) <= mass by the moment bound at and past hi
            return -mass if q >= hi else side(q)

        # q = 0 admits no solve.  Declaring it the left root keeps it
        # unevaluated; if p_hi < 1 - eta on all of (0, hi], the search closes
        # in on q = 0.
        res = bisect(excess, 0.0, hi, inst.eps, assume_left_root=True)
        a, b = res.bracket
        ends = [solved.get(q) or candidate(q) if 0.0 < q < hi else None for q in (a, b)]
        # the cheaper test first: an end on the wrong side costs no verification
        if ends[0] is not None and not ends[0]["dist"].points[-1][1] >= mass:
            raise RootBracketError(f"p_hi at order bracket end {a:g} is below 1 - eta = {mass:g}")
        if ends[1] is not None and not ends[1]["dist"].points[-1][1] <= mass:
            raise RootBracketError(f"p_hi at order bracket end {b:g} is above 1 - eta = {mass:g}")
        lo, up = (_certified_end(amb, q, c) for q, c in zip((a, b), ends))
        solves += 1
        report = amb.solve(res.root)
        # the search stops at width 2*eps, at float resolution, or on an exact root
        exact = res.status == EXACT_ZERO and report.verification.passed
        if not (b - a <= 2.0 * inst.eps or not a < 0.5 * (a + b) < b or exact):
            raise RootBracketError(f"order bracket ({a:g}, {b:g}) is wider than 2*eps")
        return OrderDecision(
            q_star=res.root,
            objective=report.value + mass * res.root,
            iterations=res.iterations,
            inner_solves=solves,
            report=report,
            bracket=(a, b),
            bracket_reports=(lo, up),
        )

    try:
        return search(amb._order_side(mass))
    except MomentBoundError:
        # The full-candidate search: each midpoint's p_hi from a candidate
        # solve.  Its decision or refusal is final, so the one-evaluation
        # search never turns a decision this one returns into a refusal.
        return search(lambda q: candidate(q)["dist"].points[-1][1] - mass)


def _certified_end(amb, q: float, candidate: dict | None) -> Report | None:
    """The verified worst case at a bracket end; None at 0 and at the tail cutoff."""
    if candidate is None:
        return None
    report = amb._certify(q, candidate)
    if not report.verification.passed:
        raise RootBracketError(f"worst case at order bracket end q={q:g} failed verification")
    return report
