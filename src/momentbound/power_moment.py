"""Worst-case E[(X - q)_+] given the mean and one power moment E[X^t], t > 1.

After normalizing the mean to 1 the answer is a two-point distribution.  When
q is at most (t-1)/t * Mt^(1/(t-1)) the lower support point is 0 and
everything is in closed form.  Above that threshold the upper support point v
is the root of ``_candidate``'s psi on a known open bracket, found by one
``brent`` search; the lower point u and the dual certificate follow from v.
``_candidate`` builds that unverified answer, and ``solve_power_moment``
passes it through ``core.certify``, which checks it against the generic
optimality conditions and returns a ``core.Report`` (``root`` is v on the
interior branch) or refuses it.  Only an interior answer whose certificate
fails is retried; with t near 1 its dual can miss the duality gap.  v
stays, and w = u^(t-1) is back-solved from the dual's tangency equation by
``_det_consistent_w``; the retried pair is returned where it certifies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import expm1, log1p

from . import core
from .core import DiscreteDistribution, DualCertificate, GmpInstance, Report
from .errors import InfeasibleError, MomentBoundError, RangeError, RootBracketError, UncertifiedError
from .rootfind import brent

BOUNDARY = "boundary"
INTERIOR = "interior"


@dataclass(frozen=True)
class PowerMomentAmbiguity:
    """Moment data (M1, Mt, t) in original units: every law on X >= 0 with these moments.

    The moments are checked here, and ``mt_scaled`` = Mt/M1^t, the t-th
    moment of X/M1 (always > 1), is set once, in the same step as the fields.
    """

    M1: float
    Mt: float
    t: float

    def __init__(self, M1: float, Mt: float, t: float) -> None:
        object.__setattr__(
            self, "__dict__", {"M1": M1, "Mt": Mt, "t": t, "mt_scaled": _mt_scaled(M1, Mt, t)}
        )

    @property
    def edge_scaled(self) -> float:
        """mt^(1/(t-1)), the scaled upper support point of the boundary branch."""
        try:
            return self.mt_scaled ** (1.0 / (self.t - 1.0))
        except OverflowError:
            raise RangeError(
                f"mt^(1/(t-1)) overflows at mt={self.mt_scaled:g}, t={self.t:g}"
            ) from None

    def instance_at(self, q: float) -> PowerMomentInstance:
        return PowerMomentInstance(M1=self.M1, Mt=self.Mt, t=self.t, q=q)

    def solve(self, q: float) -> Report:
        return solve_power_moment(self.instance_at(q))

    def tail_cutoff(self, mass: float) -> float:
        """The q at which Markov's bound Mt/q^t on every feasible P(X > q) falls to mass."""
        return (self.Mt / mass) ** (1.0 / self.t)

    def _order_at_mass(self, mass: float) -> float:
        """The order q whose worst case has upper mass `mass`; 0 where the boundary's is no more.

        The worst case at q is the two-point law {u, v} (mean-scaled) with
        upper mass p_hi(q), and p_hi falls as q rises past the branch
        threshold.  So the q with p_hi(q) = mass takes the law with that
        mass, and the dual's tangency at u and at v gives it:
        q/M1 = (t-1)/t * (v^t - u^t)/(v^(t-1) - u^(t-1)), here with r = u/v
        so no power of v overflows.
        """
        t, edge = self.t, self.edge_scaled
        if mass >= 1.0 / edge:  # the boundary law's upper mass
            return 0.0
        v = _upper_point_at_mass(mass, self, edge)
        r = max((1.0 - mass * v) / (1.0 - mass), 0.0) / v
        return self.M1 * (t - 1.0) / t * v * (1.0 - r**t) / (1.0 - r ** (t - 1.0))


@dataclass(frozen=True)
class PowerMomentInstance(PowerMomentAmbiguity):
    """The ambiguity set at order quantity q; ``q_scaled`` = q/M1 is set once here."""

    q: float

    def __init__(self, M1: float, Mt: float, t: float, q: float) -> None:
        mt_scaled = _mt_scaled(M1, Mt, t)
        if not q > 0.0:
            raise InfeasibleError(f"q > 0 required, got {q}")
        object.__setattr__(
            self,
            "__dict__",
            {"M1": M1, "Mt": Mt, "t": t, "q": q, "mt_scaled": mt_scaled, "q_scaled": q / M1},
        )


def _mt_scaled(M1: float, Mt: float, t: float) -> float:
    """Mt/M1^t once the moments (M1, Mt, t) are checked."""
    if not M1 > 0.0:
        raise InfeasibleError(f"M1 > 0 required, got {M1}")
    if not t > 1.0:
        raise InfeasibleError(f"t > 1 required, got {t}")
    try:
        m1t = M1**t
    except OverflowError:
        raise RangeError(f"M1^t overflows at M1={M1:g}, t={t:g}") from None
    if not Mt > m1t:
        raise InfeasibleError(f"Mt > M1^t required (single-point family otherwise): {Mt} <= {m1t}")
    if m1t < sys.float_info.min:  # 0 or subnormal, with too few digits to divide by
        raise RangeError(f"M1^t underflows to {m1t:g} at M1={M1:g}, t={t:g}")
    mt_scaled = Mt / m1t
    if not math.isfinite(mt_scaled):
        raise RangeError(f"Mt/M1^t overflows at M1={M1:g}, Mt={Mt:g}, t={t:g}")
    return mt_scaled


def _upper_point_at_mass(p: float, inst: PowerMomentInstance, edge: float) -> float:
    """The upper point v of the two-point law with mean 1, t-th moment mt and mass p at v.

    Its lower point is u = (1 - p*v)/(1 - p), so the mean is 1 for every v,
    and the t-th moment (1 - p)*u^t + p*v^t rises strictly with v: its slope
    is p*t*(v^(t-1) - u^(t-1)) > 0.  It is below mt at v = edge and reaches
    mt by the point where u falls to 0 or p*v^t alone reaches mt.  Requires
    p < 1/edge, the boundary branch's upper mass.  Where (1 - p)*u^t is below
    the rounding of p*v^t - mt at that point, the excess reads <= 0 there, and
    the root lies within a few ulp of it.
    """
    t, mt = inst.t, inst.mt_scaled
    scale = p ** (1.0 / t)  # p*v^t as (scale*v)^t, finite wherever p*v^t <= mt is

    def lower(v: float) -> float:
        return max((1.0 - p * v) / (1.0 - p), 0.0)

    def excess(v: float) -> float:
        return (1.0 - p) * lower(v) ** t + (scale * v) ** t - mt

    hi = min(1.0 / p, mt ** (1.0 / t) / scale)
    f_hi = excess(hi)
    if not f_hi > 0.0:
        return hi
    return brent(excess, edge, hi, excess(edge), f_hi)[0]


def _takes_boundary(qs: float, t: float, edge: float) -> bool:
    """Whether ``_candidate`` answers with the closed form at the scaled order qs.

    It does at or below the branch threshold (t-1)/t * edge, and where psi's
    bracket (max(edge, qs), t*qs/(t-1)) is empty: there q sits at the
    threshold to float resolution, and the boundary construction is the
    exact limit.
    """
    return qs <= (t - 1.0) / t * edge or t * qs / (t - 1.0) <= max(edge, qs)


def _stable_power_gap(v: float, inst: PowerMomentInstance, edge: float) -> float:
    """v^(t-1) - mt at full relative precision.

    The plain subtraction cancels catastrophically when v sits near the
    branch edge, where this gap drives the lower support point; expm1/log1p
    around the edge keeps it accurate at any magnitude.
    """
    t, mt = inst.t, inst.mt_scaled
    return mt * math.expm1((t - 1.0) * math.log1p((v - edge) / edge))


def _u_from_v(v: float, inst: PowerMomentInstance, edge: float) -> float:
    """Lower support point induced by v via the moment conditions, at most the scaled mean 1."""
    t, mt, qs = inst.t, inst.mt_scaled, inst.q_scaled
    num = _stable_power_gap(v, inst, edge)
    return min((t * qs / (t - 1.0)) * num / (v * num + mt * (v - 1.0)), 1.0)


def _det_consistent_w(v: float, inst: PowerMomentInstance) -> float:
    """Solve the dual tangency system for w = u^(t-1) at a given v.

    This is the retry's lower point: with t near 1, the u that
    ``_u_from_v`` builds from psi's root can leave a dual that misses the
    duality gap, and the w solved here gives one that meets it.  The system
    reads t*qs*w - (t-1)*w^(t/(t-1)) = v^(t-1) * (t*qs - (t-1)*v)
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

    g_whi = g(whi)
    if g_whi <= 0.0:
        return whi
    return brent(g, 0.0, whi, -k, g_whi)[0]


_MASS_AND_MEAN = (core.constant(), core.monomial(1.0))  # h_0 and h_1 of every instance


def gmp_instance(inst: PowerMomentInstance) -> GmpInstance:
    """The generic moment problem this instance describes."""
    return GmpInstance(
        g=core.positive_part(inst.q),
        hs=(*_MASS_AND_MEAN, core.monomial(inst.t)),
        ms=(1.0, inst.M1, inst.Mt),
        sense="max",
    )


def solve_power_moment(inst: PowerMomentInstance) -> Report:
    """Solve the scaled problem, rescale, and certify the result.

    With t near 1, the lower point that ``_u_from_v`` builds from psi's
    root can miss the dual's tangency at u, though v itself is right.  The
    dual built from that pair then misses the duality gap by more than the
    verifier allows (by up to 2.6% of max(1, value) on the benchmark's wide
    probe draws), often with H below 0 near u.  So an interior answer whose
    certificate fails is retried once at the same v, with w = u^(t-1)
    back-solved from the tangency equation.  The retry is returned where it
    certifies; where it raises or is refused, the first answer's refusal
    stands.
    """
    gmp = gmp_instance(inst)
    first = _candidate(inst)
    try:
        return core.certify(gmp, first)
    except UncertifiedError as refusal:
        if first["branch"] == BOUNDARY:
            raise
        t, v = inst.t, first["root"]
        try:
            w = _det_consistent_w(v, inst)
            u, ut = w ** (1.0 / (t - 1.0)), w ** (t / (t - 1.0))
            return core.certify(gmp, _interior(inst, v, u, w, ut, first["bisect_iters"]))
        except (MomentBoundError, ArithmeticError):
            raise refusal from None


def _candidate(inst: PowerMomentInstance) -> dict:
    """Every Report field but the verification, in original units."""
    M1, t = inst.M1, inst.t
    mt, qs = inst.mt_scaled, inst.q_scaled
    edge = inst.edge_scaled
    if _takes_boundary(qs, t, edge):
        p_hi = 1.0 / edge
        value = M1 * (1.0 - qs / edge)
        upper = M1 * edge
        try:
            upper_t = upper**t
        except OverflowError:
            upper_t = math.inf
        if upper_t == math.inf:
            raise RangeError(
                f"upper support point M1*mt^(1/(t-1)) or its t-th power overflows "
                f"at M1={M1:g}, t={t:g}"
            )
        dist = DiscreteDistribution(points=((0.0, 1.0 - p_hi), (upper, p_hi)))
        z1 = 1.0 - (t * qs / (t - 1.0)) / edge
        zt = (qs / (t - 1.0)) * mt ** (-t / (t - 1.0))
        cert = DualCertificate(z=(0.0, z1, zt / M1 ** (t - 1.0)))
        return dict(value=value, dist=dist, cert=cert, branch=BOUNDARY, root=None, bisect_iters=0)

    tm1 = t - 1.0
    c = t * qs / tm1

    def psi(y: float) -> float:
        """theta(y) * (y - 1)/(y^(t-1) - mt): theta with its root at the edge divided out.

        With G = y^(t-1) - mt and D = y*G + mt*(y - 1) = y^t - mt, u = c*G/D
        and theta = G*(y - c)/(y - 1) + u^t, so

          psi(y) = (y - c) + c*(y - 1)*u^(t-1)/D.

        No term cancels: G takes ``_stable_power_gap``'s expm1/log1p form,
        and mt, which theta adds and subtracts, is gone.  The products are taken in ratios to y,
        r = (y - 1)/y, D/y = G + mt*r and u = (c/y)*G/(D/y), so every
        intermediate stays finite with G, up to y near the float maximum.
        psi has theta's sign right of the edge, psi(edge) = edge - c < 0 and
        psi(c) > 0.
        """
        gap = mt * expm1(tm1 * log1p((y - edge) / edge))
        r = (y - 1.0) / y
        d = gap + mt * r
        return (y - c) + c * r * (((c / y) * gap / d) ** tm1 / d)

    a, b = max(edge, qs), c  # psi's root lies in (a, b)
    try:
        fb = psi(b)
    except OverflowError:  # raised by expm1 in the power gap
        fb = math.inf
    if not math.isfinite(fb):  # the power gap, or mt times it, left float range
        raise RangeError(f"y^(t-1) overflows at the search's right end y={b:g}, t={t:g}")
    v, iters = brent(psi, a, b, psi(a), fb)
    u = _u_from_v(v, inst, edge)
    return _interior(inst, v, u, u ** (t - 1.0), u**t, iters)


def _interior(
    inst: PowerMomentInstance, v: float, u: float, w: float, ut: float, iters: int
) -> dict:
    """The interior answer on the scaled support pair {u, v}, with w = u^(t-1) and ut = u^t."""
    M1, t, mt, qs = inst.M1, inst.t, inst.mt_scaled, inst.q_scaled
    try:
        vt = v**t
    except OverflowError:
        vt = math.inf
    if M1 * v == math.inf or vt == math.inf:
        raise RangeError(
            f"upper support point M1*v or v^t overflows at M1={M1:g}, v={v:g}, t={t:g}"
        )
    if not 0.0 <= u < v:
        raise RootBracketError(f"inconsistent support u={u}, v={v}")
    denom = v ** (t - 1.0) - w
    if u > 0.5:
        # 1 - u cancels as u -> 1 in the deep tail; the t-th moment row
        # gives the upper mass at full relative precision
        p_hi = (mt - ut) / (vt - ut)
        p_lo = 1.0 - p_hi
    else:
        p_lo, p_hi = (v - 1.0) / (v - u), (1.0 - u) / (v - u)
    # past u = 0.9, 1 - u carries u's error times u/(1 - u) > 9: the value takes p_hi too
    value = M1 * (v - qs) * p_hi if u > 0.9 else M1 * (v - qs) * (1.0 - u) / (v - u)
    dist = DiscreteDistribution(points=((M1 * u, p_lo), (M1 * v, p_hi)))
    cert = DualCertificate(
        z=(
            M1 * (t - 1.0) * ut / (t * denom),
            -w / denom,
            1.0 / (t * denom) / M1 ** (t - 1.0),
        )
    )
    return dict(value=value, dist=dist, cert=cert, branch=INTERIOR, root=v, bisect_iters=iters)
