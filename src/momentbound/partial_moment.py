"""Minimal variance of (X - 1)_+ given mean, second moment, and E[(X - 1)_+].

Inputs are normalized so the threshold is 1 and the second moment is written
as gamma * M1^2.  Two regimes:

  * M1 <= 1/gamma + Mplus: the optimum is a unique two-point distribution
    straddling 1, with a strictly concave-quadratic dual certificate.
  * M1 >  1/gamma + Mplus: every feasible support inside {0} union [1, inf)
    attains the same objective; the solver returns a representative
    three-point member, and ``v1_choice`` picks another.

Everything here is closed form; no root-finding is needed.  ``_candidate``
builds the answer, and ``solve_partial_moment`` passes it through
``core.certify`` like the other two solvers.  The report's ``root`` is the
family's parameter v1, its largest support point, on the degenerate branch,
and None on the two-point branch, whose kappa is ``kappa(inst)``.
"""

from __future__ import annotations

import math

from . import core
from .core import DiscreteDistribution, DualCertificate, GmpInstance, Report, _Frozen
from .errors import BranchError, DomainError, FamilyParamError, InfeasibleError, UncertifiedError

TWO_POINT = "two_point"
DEGENERATE_FAMILY = "degenerate_family"
_ON_BOUNDARY = "moment vector sits on the feasibility boundary; the dual certificate is undefined"


class PartialMomentInstance(_Frozen):
    """Normalized data: mean M1, second moment gamma*M1^2, partial moment Mplus.

    Only necessary feasibility conditions are enforced here; a fully
    infeasible combination that slips through is caught by certificate
    verification after the solve.
    """

    M1: float
    gamma: float
    Mplus: float

    def __init__(self, M1: float, gamma: float, Mplus: float) -> None:
        if not M1 > 0.0:
            raise InfeasibleError(f"M1 > 0 required, got {M1}")
        if not gamma > 1.0:
            raise InfeasibleError(f"gamma > 1 required, got {gamma}")
        if not Mplus > 0.0:
            raise InfeasibleError(f"Mplus > 0 required, got {Mplus}")
        if M1 > 2.0 / gamma:
            raise InfeasibleError(f"feasibility requires M1 <= 2/gamma: {M1} > {2.0 / gamma}")
        if not Mplus > M1 - 1.0:
            raise InfeasibleError(f"feasibility requires Mplus > M1 - 1: {Mplus} <= {M1 - 1.0}")
        object.__setattr__(self, "__dict__", {"M1": M1, "gamma": gamma, "Mplus": Mplus})

    def is_two_point(self) -> bool:
        return self.M1 <= 1.0 / self.gamma + self.Mplus


def _radicand(inst: PartialMomentInstance) -> tuple[float, float]:
    """kappa^2 and how far rounding may have moved it off its exact value.

    The band holds the radicand's own rounding (8 ulp of the sum of its
    terms' magnitudes) and the first-order change of the bracket when each
    of M1, gamma and Mplus moves by 4 ulp, the rounding of moments computed
    in floating point.  On the feasibility boundary, where the moments are
    those of a two-point law symmetric about 1, the exact radicand is 0.
    """
    m1, g, mp = inst.M1, inst.gamma, inst.Mplus
    terms = ((g - 1.0) * m1 * m1, 4.0 * mp * (m1 - 1.0), -4.0 * mp * mp)
    # M1, gamma and Mplus times the bracket's partial derivatives in them
    moves = (
        m1 * (2.0 * (g - 1.0) * m1 + 4.0 * mp),
        g * m1 * m1,
        mp * (4.0 * (m1 - 1.0) - 8.0 * mp),
    )
    band = math.ulp(1.0) * (8.0 * sum(map(abs, terms)) + 4.0 * sum(map(abs, moves)))
    return (g - 1.0) * sum(terms), (g - 1.0) * band


def kappa(inst: PartialMomentInstance) -> float:
    """sqrt((gamma-1) * ((gamma-1)*M1^2 + 4*Mplus*(M1-1) - 4*Mplus^2))."""
    radicand, band = _radicand(inst)
    if radicand < 0.0:
        if radicand >= -band:
            return 0.0  # zero up to rounding: the feasibility boundary
        raise InfeasibleError(f"no two-point distribution matches these moments (radicand {radicand})")
    return math.sqrt(radicand)


# g and the h_i are the same for every instance; only the targets vary
_OBJECTIVE = core.squared_positive_part(1.0)
_MOMENTS = (core.constant(), core.monomial(1.0), core.monomial(2.0), core.positive_part(1.0))


def gmp_instance(inst: PartialMomentInstance) -> GmpInstance:
    """The generic moment problem this instance describes.

    Note the generic objective is E[(X-1)_+^2]; the reported optimal variance
    is that expectation minus Mplus^2.
    """
    return GmpInstance(
        g=_OBJECTIVE,
        hs=_MOMENTS,
        ms=(1.0, inst.M1, inst.gamma * inst.M1**2, inst.Mplus),
        sense="min",
    )


def _two_point_cert(inst: PartialMomentInstance, k: float) -> DualCertificate:
    m1, g, mp = inst.M1, inst.gamma, inst.Mplus
    z0 = -0.5 * (
        (2.0 * mp - m1) * m1
        + m1
        * (2.0 * (g - 2.0) * mp * mp + (g - 1.0) * m1 * m1 - 2.0 * mp * (1.0 + (g - 2.0) * m1))
        / k
    )
    z1 = mp - m1 - (2.0 * mp * mp - (g - 1.0) * m1 * m1 + mp * (2.0 + (g - 3.0) * m1)) / k
    z2 = -0.5 * (((g - 1.0) * m1 * m1 + 2.0 * mp * (m1 - 1.0) - 2.0 * mp * mp) / (m1 * k) - 1.0)
    z3 = (m1 - 1.0) - (g - 1.0) * m1 * (m1 - 1.0 - 2.0 * mp) / k
    return DualCertificate(z=(z0, z1, z2, z3))


def family_lower_bound(inst: PartialMomentInstance) -> float:
    """Smallest admissible v1 (the largest support point) on the degenerate branch."""
    return max(1.0, (inst.gamma * inst.M1**2 - inst.M1) / inst.Mplus)


def solve_partial_moment(inst: PartialMomentInstance, v1_choice: float | None = None) -> Report:
    """Build the closed-form answer and certify it.

    Within rounding of the feasibility boundary kappa is rounding noise, and
    the two-point certificate divides by it: an answer there that does not
    certify, or whose support or masses leave their range, is the boundary
    refusal.
    """
    try:
        return core.certify(gmp_instance(inst), _candidate(inst, v1_choice))
    except (DomainError, UncertifiedError):
        if not _near_boundary(inst):
            raise
    raise InfeasibleError(_ON_BOUNDARY)


def _near_boundary(inst: PartialMomentInstance) -> bool:
    radicand, band = _radicand(inst)
    return inst.is_two_point() and radicand <= band


def _candidate(inst: PartialMomentInstance, v1_choice: float | None) -> dict:
    """Every Report field but the verification."""
    m1, g, mp = inst.M1, inst.gamma, inst.Mplus

    if inst.is_two_point():
        if v1_choice is not None:
            raise BranchError("v1_choice only applies to the degenerate family branch")
        k = kappa(inst)
        if k <= 1e-14:
            raise InfeasibleError(_ON_BOUNDARY)
        u = m1 * (1.0 - ((g - 1.0) * m1 + k) / (2.0 * (1.0 - m1 + mp)))
        v = m1 * (1.0 + ((g - 1.0) * m1 - k) / (2.0 * mp))
        if -1e-12 < u < 0.0:
            u = 0.0  # closed form guarantees u >= 0; absorb roundoff
        p_hi = (m1 - u) / (v - u)
        try:
            dist = DiscreteDistribution(points=((u, 1.0 - p_hi), (v, p_hi)))
        except DomainError as exc:  # v or u rounds to M1, and a mass to 0
            raise UncertifiedError(f"two-point law on {u!r} and {v!r}: {exc}") from None
        cert = _two_point_cert(inst, k)
        value = 0.5 * (2.0 * mp * (m1 - 1.0) + m1 * ((g - 1.0) * m1 - k)) - mp * mp
        branch, root = TWO_POINT, None
    else:
        lb = family_lower_bound(inst)
        if v1_choice is None:
            v1 = lb + 1.0  # strictly interior default keeps all three masses away from 0
        else:
            if v1_choice < lb - 1e-12:
                raise FamilyParamError(f"v1 must be >= {lb}, got {v1_choice}")
            v1 = float(v1_choice)
        v2 = (m1 * v1 - g * m1 * m1) / ((m1 - mp) * v1 - m1)
        den = g * m1 * m1 - 2.0 * m1 * v1 + m1 * v1 * v1 - mp * v1 * v1
        p0 = 1.0 - m1 + mp
        p1 = m1 * m1 * (g * m1 - g * mp - 1.0) / den
        p2 = (m1 * v1 - mp * v1 - m1) ** 2 / den
        # v2 < v1 always on this branch, so the sorted support is (0, v2, v1); where
        # it meets the two-point branch p1 is 0 to rounding, and the law is on {0, v2}
        points = ((0.0, p0), (v2, p2), (v1, p1))
        dist = DiscreteDistribution(points=points if p1 > 0.0 else points[:2])
        cert = DualCertificate(z=(0.0, -1.0, 1.0, -1.0))
        value = m1 * (g * m1 - 1.0) - mp - mp * mp
        branch, root = DEGENERATE_FAMILY, v1

    return dict(value=value, dist=dist, cert=cert, branch=branch, root=root, bisect_iters=0)

