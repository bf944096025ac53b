"""Distributionally robust order quantities: min over q of the worst-case cost.

The objective f(q) = (worst-case E[(X - q)_+]) + (1 - eta) * q is convex, so
a doubling bracket from q = 0 followed by golden-section search finds the
global minimizer.  Inner worst-case evaluations run at 1/100 of the outer
tolerance so their noise cannot break unimodality at the search's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .exp_moment import ExpMomentAmbiguity
from .power_moment import PowerMomentAmbiguity
from .rootfind import expand_bracket, golden_section


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
    golden_iters: int
    inner_solves: int


def optimize_order(inst: NewsvendorInstance) -> OrderDecision:
    """Bracket from q = 0 by doubling, then golden-section to inst.eps."""
    counter = {"n": 0}
    inner_eps = inst.eps / 100.0

    def f(q: float) -> float:
        counter["n"] += 1
        return inst.ambiguity.worst_case(q, inner_eps) + (1.0 - inst.eta) * q

    a, b = expand_bracket(f, 0.0)
    res = golden_section(f, a, b, inst.eps)
    objective = f(res.minimizer)
    return OrderDecision(
        q_star=res.minimizer,
        objective=objective,
        golden_iters=res.iterations,
        inner_solves=counter["n"],
    )
