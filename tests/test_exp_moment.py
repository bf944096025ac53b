"""Mean plus exponential moment solver."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from momentbound import exp_moment
from momentbound.core import Report
from momentbound.errors import (
    DomainError,
    InfeasibleError,
    MomentBoundError,
    NonFiniteError,
    RangeError,
    RootBracketError,
)
from momentbound.exp_moment import (
    ExpMomentAmbiguity,
    ExpMomentInstance,
    compute_v1,
    phi,
    solve_exp_moment,
)
from references import (
    boundary_point_50,
    chernoff_tail_bound,
    exp_moment_value_50,
    exp_threshold,
    lambert_w_minus1,
)
from test_stream_pins import STREAM_OPS, STREAM_SEEDS, stream_ops


def _outcome(inst):
    """The solve's Report, or the type and message of its refusal."""
    try:
        return solve_exp_moment(inst)
    except MomentBoundError as exc:
        return type(exc).__name__, str(exc)


def _bisect_v1(m1: float, me: float) -> float:
    """Independent root of exp(v) = ((me-1)/m1) v + 1 on (m1, big)."""
    c = (me - 1.0) / m1
    g = lambda v: math.exp(v) - c * v - 1.0
    lo, hi = m1, m1 + 1.0
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _assert_deep_tail_answered(inst: ExpMomentInstance):
    """A certified interior answer within 1e-11 of the 50-digit value, under Chernoff's bound."""
    report = solve_exp_moment(inst)
    assert report.branch == exp_moment.INTERIOR and report.verification.passed
    ref = exp_moment_value_50(inst.M1, inst.Me, inst.t, inst.q)
    assert report.value == pytest.approx(ref, rel=1e-11, abs=0.0)
    # the bound is exact to about 1e-30 at the largest Me here; 1e-15 is its own rounding
    assert report.value <= chernoff_tail_bound(inst.Me, inst.t, inst.q) * (1.0 + 1e-15)
    return report


def _random_instances(rng, n):
    out = []
    while len(out) < n:
        t = float(rng.uniform(0.05, 2.0))
        M1 = float(rng.uniform(0.1, 4.5) / t)
        ratio = float(rng.uniform(1.05, 3.0))
        tq = float(rng.uniform(0.1, 20.0))
        out.append(
            ExpMomentInstance(M1=M1, Me=ratio * math.exp(t * M1), t=t, q=tq / t)
        )
    return out


def _wide_moment_sets(n):
    """(m1, Me) with m1 log-uniform on 1e-9..690 and Me/e^m1 - 1 on 1e-15..1e3."""
    rng = random.Random(1)
    out = []
    for _ in range(n):
        m1 = math.exp(rng.uniform(math.log(1e-9), math.log(690.0)))
        excess = math.exp(rng.uniform(math.log(1e-15), math.log(1e3)))
        out.append((m1, math.exp(m1) * (1.0 + excess)))
    return out


def _continuity_draws():
    """test_branch_continuity_at_threshold's 20 moment sets (M1, Me, t)."""
    rng = np.random.default_rng(109)
    out = []
    for _ in range(20):
        t = float(rng.uniform(0.1, 1.5))
        M1 = float(rng.uniform(0.2, 3.0) / t)
        out.append((M1, float(rng.uniform(1.1, 2.5)) * math.exp(t * M1), t))
    return out


def _threshold_draws(rng, n):
    """test_branch_continuity_at_threshold's moment sets (M1, Me, t)."""
    out = []
    for _ in range(n):
        t = float(rng.uniform(0.1, 1.5))
        M1 = float(rng.uniform(0.2, 3.0) / t)
        out.append((M1, float(rng.uniform(1.1, 2.5)) * math.exp(t * M1), t))
    return out


class TestComputeV1:
    def test_reference_instance(self):
        v1 = compute_v1(1.0, math.e**2)
        assert v1 == pytest.approx(3.0059341539036604, abs=1e-11)
        assert v1 == pytest.approx(_bisect_v1(1.0, math.e**2), abs=1e-10)

    def test_defining_identity_randomized(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            m1 = float(rng.uniform(0.05, 4.0))
            me = float(rng.uniform(1.05, 3.0)) * math.exp(m1)
            v1 = compute_v1(m1, me)
            assert v1 > m1
            resid = abs(math.exp(v1) - ((me - 1.0) / m1) * v1 - 1.0)
            assert resid <= 1e-9 * me

    def test_collapse_limit(self):
        m1 = 1.0
        v1 = compute_v1(m1, math.exp(m1) * (1.0 + 1e-8))
        assert v1 == pytest.approx(m1, rel=1e-3)

    def test_nontrivial_root_selected(self):
        # exp(v) = (2e-2) v + 1 also holds at v = 1, which is not the answer
        v1 = compute_v1(1.0, 2.0 * math.e - 1.0)
        assert v1 > 1.0 + 1e-6
        resid = abs(math.exp(v1) - (2.0 * math.e - 2.0) * v1 - 1.0)
        assert resid <= 1e-9 * (2.0 * math.e - 1.0)

    def test_matches_50_digits_across_the_domain(self):
        # v1 from near 0, where the Lambert W route cancels, to near 700
        worst = max(
            abs(compute_v1(m1, me) / boundary_point_50(m1, me) - 1.0)
            for m1, me in _wide_moment_sets(1000)
        )
        assert worst <= 1e-15

    def test_agrees_with_lambert_w_where_it_is_well_conditioned(self):
        # v1 = -W_-1(-r e^-r) - r with r = m1/(Me - 1) <= 1/2, away from the
        # branch point -1/e that r = 1 reaches
        checked = 0
        for m1, me in _wide_moment_sets(1000):
            r = m1 / (me - 1.0)
            if r <= 0.5:
                w = lambert_w_minus1(-r * math.exp(-r)).w
                assert compute_v1(m1, me) == pytest.approx(-w - r, rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 300

    @pytest.mark.parametrize(
        "M1,Me,q", [(1e-6, 1.0000010000005999, 5e-7), (1e-8, 1.0000000100000002, 5e-9)]
    )
    def test_small_boundary_point_near_the_branch_point(self, M1, Me, q):
        # r = m1/(Me - 1) within 1e-6 of 1: the Lambert W route refused the
        # first set (v1 = 1.19976e-6) and halved the second's (v1 = 3.2254e-8)
        report = solve_exp_moment(ExpMomentInstance(M1=M1, Me=Me, t=1.0, q=q))
        assert report.branch == exp_moment.BOUNDARY and report.verification.passed
        v1 = boundary_point_50(M1, Me)
        assert compute_v1(M1, Me) == pytest.approx(v1, rel=1e-15, abs=0.0)
        assert report.value == pytest.approx(M1 * (1.0 - q / v1), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m1,Me", [(1e-320, 1e10), (1.0, math.inf)])
    def test_boundary_point_past_float_range_is_a_range_error(self, m1, Me):
        # (Me - 1 - m1)/m1 overflows here
        with pytest.raises(RangeError):
            compute_v1(m1, Me)

    @pytest.mark.parametrize("m1,Me", [(0.0, 3.0), (1.0, 1.5), (1.0, 2.0), (math.nan, 3.0)])
    def test_inadmissible_moments_are_a_domain_error(self, m1, Me):
        with pytest.raises(DomainError):
            compute_v1(m1, Me)

    def test_solves_search_v1_at_most_once_and_not_above_the_bound(self):
        # the memo keeps one set's v1 and never stands in for another's; an
        # interior solve past the threshold's bound searches for none
        compute_v1.cache_clear()
        skipped = searched = 0
        for inst in _random_instances(np.random.default_rng(19), 40):
            misses = compute_v1.cache_info().misses
            report = solve_exp_moment(inst)
            ran = compute_v1.cache_info().misses - misses
            bound = exp_moment._threshold_bound(inst.m1_scaled, inst.Me)
            past = inst.q_scaled > bound * (1.0 + 1e-9) + 1e-12
            if past and report.branch == exp_moment.INTERIOR:
                assert ran == 0
                skipped += 1
            else:
                assert ran == 1
                searched += 1
        assert skipped >= 10 and searched >= 10


class TestPhi:
    def test_negative_at_zero_on_interior_instances(self):
        rng = np.random.default_rng(97)
        checked = 0
        for inst in _random_instances(rng, 200):
            if inst.q > exp_threshold(inst):
                assert phi(0.0, inst) < 0.0
                checked += 1
        assert checked >= 40

    def test_positive_at_q_when_mean_exceeds_q(self):
        # interior instances with q below the mean need a moment ratio close
        # to the feasibility floor, so sample those directly
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 10:
            m1 = float(rng.uniform(1.5, 4.0))
            me = float(rng.uniform(1.01, 1.08)) * math.exp(m1)
            probe = ExpMomentInstance(M1=m1, Me=me, t=1.0, q=m1)
            thr = exp_threshold(probe)
            if not thr < m1:
                continue
            q = 0.5 * (thr + m1)
            if not thr < q < m1:
                continue
            inst = ExpMomentInstance(M1=m1, Me=me, t=1.0, q=q)
            assert phi(inst.q_scaled, inst) > 0.0
            checked += 1

    def test_blows_up_at_scaled_mean(self):
        rng = np.random.default_rng(103)
        checked = 0
        for inst in _random_instances(rng, 200):
            if inst.q > exp_threshold(inst) and inst.m1_scaled <= inst.q_scaled:
                near = inst.m1_scaled * (1.0 - 1e-9)
                assert phi(near, inst) > 0.0
                checked += 1
        assert checked >= 20

    def test_domain_and_pole(self):
        inst = ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=5.0)
        with pytest.raises(DomainError):
            phi(-0.1, inst)
        with pytest.raises(NonFiniteError):
            phi(1.0, inst)  # scaled mean


class TestSolve:
    def test_boundary_reference(self):
        inst = ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=1.0)
        rep = solve_exp_moment(inst)
        assert rep.branch == exp_moment.BOUNDARY
        assert rep.value == pytest.approx(0.6673247154461622, abs=1e-11)
        v1 = compute_v1(inst.m1_scaled, inst.Me)
        assert v1 == pytest.approx(3.0059341539036604, abs=1e-11)
        assert rep.dist.points[-1][0] == v1 / inst.t  # the boundary support is {0, v1}
        assert rep.verification.passed

    def test_boundary_dual_with_small_v1_is_certified(self):
        # v1 = 0.0105: e^v1*(v1 - 1) + 1, the dual's denominator, is about
        # v1^2/2 and cancelled to 7 digits in that form, which failed slackness
        inst = ExpMomentInstance(
            M1=1352.5429369425033, Me=1.001876606395388, t=1.3802026336293119e-06, q=1.5839214958046188
        )
        rep = solve_exp_moment(inst)
        assert rep.branch == exp_moment.BOUNDARY and rep.verification.passed
        v1 = compute_v1(inst.m1_scaled, inst.Me)
        assert v1 < 0.5
        with mp.workdps(50):
            v1, qs, t = mp.mpf(v1), mp.mpf(inst.q_scaled), mp.mpf(inst.t)
            ev1 = mp.exp(v1)
            den = ev1 * (v1 - 1) + 1
            z = (-qs / den / t, (den - qs * ev1) / den, qs / den / t)
        for ours, ref in zip(rep.cert.z, z):
            assert ours == pytest.approx(float(ref), rel=1e-14, abs=0.0)

    def test_boundary_law_whose_upper_mass_rounds_to_one_is_the_point_mass(self):
        # Me within rounding of e^(t*M1): v1 rounds to t*M1, so p_hi = m1/v1
        # reads 1 (or a hair above), and the boundary law {0, v1} would put
        # no mass at 0.  It is the point mass at v1/t, and it certifies.
        inst = ExpMomentInstance(
            M1=434.43430508996187, Me=5977.416403209715, t=0.02001624552230272, q=6.966941768885823
        )
        rep = solve_exp_moment(inst)
        assert rep.branch == exp_moment.BOUNDARY and rep.verification.passed
        assert rep.dist.points == ((compute_v1(inst.m1_scaled, inst.Me) / inst.t, 1.0),)
        assert rep.value == pytest.approx(427.46736332107605, rel=1e-12, abs=0.0)
        rng = random.Random(30)
        point_masses = 0
        for _ in range(300):
            t = 10.0 ** rng.uniform(-3.0, 1.0)
            tm1 = 10.0 ** rng.uniform(0.5, math.log10(700.0))
            me = math.exp(tm1) * (1.0 + 10.0 ** rng.uniform(-15.0, -13.0))
            try:
                inst = ExpMomentInstance(M1=tm1 / t, Me=me, t=t, q=tm1 / t * rng.uniform(1e-3, 0.8))
            except InfeasibleError:
                continue  # Me rounds to e^(t*M1) or below it
            rep = solve_exp_moment(inst)
            assert rep.verification.passed, inst
            if len(rep.dist.points) == 1:
                assert rep.branch == exp_moment.BOUNDARY and rep.dist.points[0][1] == 1.0
                point_masses += 1
        assert point_masses > 50

    def test_interior_law_whose_lower_mass_rounds_to_zero_is_the_point_mass(self):
        # Me within rounding of e^(t*M1) and q past the branch threshold: the
        # interior root leaves p_hi = gap/span a hair above 1, and the law
        # {u, v2} would put no mass at u.  It is the point mass at v2/t.
        inst = ExpMomentInstance(
            M1=116.5738697915416, Me=1.3495327095821696, t=0.002571402939745268, q=111.71672614196096
        )
        rep = solve_exp_moment(inst)
        assert rep.branch == exp_moment.INTERIOR and rep.verification.passed
        assert len(rep.dist.points) == 1 and rep.dist.points[0][1] == 1.0
        assert rep.value == pytest.approx(inst.M1 - inst.q, rel=1e-12, abs=0.0)
        rng = random.Random(31)
        interior = 0
        for _ in range(400):
            t = 10.0 ** rng.uniform(-3.0, 1.0)
            tm1 = 10.0 ** rng.uniform(-2.0, math.log10(50.0))
            me = math.exp(tm1) * (1.0 + 10.0 ** rng.uniform(-16.0, -13.0))
            try:
                inst = ExpMomentInstance(M1=tm1 / t, Me=me, t=t, q=tm1 / t * rng.uniform(0.85, 0.999))
            except InfeasibleError:
                continue  # Me rounds to e^(t*M1) or below it
            try:
                rep = solve_exp_moment(inst)
            except MomentBoundError as exc:
                assert not isinstance(exc, DomainError), (inst, exc)
                continue
            assert rep.verification.passed, inst
            interior += rep.branch == exp_moment.INTERIOR
        assert interior > 100

    def test_boundary_threshold_reference(self):
        inst = ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=1.0)
        assert exp_threshold(inst) == pytest.approx(2.1624517966533261, abs=1e-10)

    def test_rate_scaling_identity(self):
        base = solve_exp_moment(ExpMomentInstance(M1=2.0, Me=math.e**2.5, t=0.5, q=3.0))
        scaled = solve_exp_moment(ExpMomentInstance(M1=1.0, Me=math.e**2.5, t=1.0, q=1.5))
        assert base.value == pytest.approx(scaled.value / 0.5, rel=1e-11)
        assert base.branch == scaled.branch

    def test_interior_ordering(self):
        inst = ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=5.0)
        rep = solve_exp_moment(inst)
        assert rep.branch == exp_moment.INTERIOR
        u, v2 = rep.dist.xs
        assert 0.0 < u < 5.0 < v2
        assert u < 1.0 < v2
        assert rep.verification.passed

    def test_duality_randomized(self):
        rng = np.random.default_rng(107)
        for inst in _random_instances(rng, 60):
            rep = solve_exp_moment(inst)
            assert rep.verification.passed
            z = rep.cert.z
            dual = z[0] + z[1] * inst.M1 + z[2] * inst.Me
            assert rep.value == pytest.approx(dual, rel=1e-8, abs=1e-12)

    def test_branch_continuity_at_threshold(self):
        for M1, me, t in _continuity_draws():
            probe = ExpMomentInstance(M1=M1, Me=me, t=t, q=M1)
            q_star = exp_threshold(probe)
            if q_star <= 0.0:
                continue
            at = solve_exp_moment(ExpMomentInstance(M1=M1, Me=me, t=t, q=q_star))
            assert at.branch == exp_moment.BOUNDARY
            above = solve_exp_moment(
                ExpMomentInstance(M1=M1, Me=me, t=t, q=q_star * (1.0 + 1e-9))
            )
            assert above.branch == exp_moment.INTERIOR
            assert above.value == pytest.approx(at.value, rel=1e-6)

    def test_threshold_is_the_largest_order_of_the_boundary_branch(self):
        for M1, me, t in _threshold_draws(np.random.default_rng(5), 1000):
            q = exp_threshold(ExpMomentInstance(M1=M1, Me=me, t=t, q=M1))
            threshold = exp_moment._v1_and_threshold(t * M1, me)[1]
            assert t * q <= threshold < t * math.nextafter(q, math.inf)

    def test_orders_within_ulps_of_the_threshold_are_answered(self):
        # g*phi at g = m1 can read 0 or above where phi(0) reads below 0;
        # the interior search then has no bracket, and u = 0 to float
        # resolution, so the boundary law is the answer
        inst = ExpMomentInstance(
            M1=3.886580508424807, Me=10.285169554178323, t=0.4514684297324705, q=4.275330282172113
        )
        report = solve_exp_moment(inst)
        assert report.branch == exp_moment.BOUNDARY and report.verification.passed
        for M1, me, t in _threshold_draws(np.random.default_rng(5), 4000):
            q = exp_threshold(ExpMomentInstance(M1=M1, Me=me, t=t, q=M1))
            for _ in range(3):
                q = math.nextafter(q, -math.inf)
            for _ in range(7):
                report = solve_exp_moment(ExpMomentInstance(M1=M1, Me=me, t=t, q=q))
                assert report.verification.passed, (M1, me, t, q)
                q = math.nextafter(q, math.inf)

    def test_phi_at_zero_rounding_to_zero_is_the_boundary_law(self):
        # Me within about 1e-9 of exp(t*M1): just above the branch threshold
        # (farther than its 1e-9 allowance) phi(0) rounds to 0, so the interior
        # root is u = 0 to float precision, and that law is the boundary's {0, v1}
        inst = ExpMomentInstance(
            M1=5.441104533302357, Me=1.0002286783569323, t=4.2023111705481786e-05, q=2.7279857228959643
        )
        assert inst.q > exp_threshold(inst) * (1.0 + 1e-9)
        assert exp_moment.phi(0.0, inst) == 0.0
        report = solve_exp_moment(inst)
        assert report.branch == exp_moment.BOUNDARY and report.verification.passed
        ref = exp_moment_value_50(inst.M1, inst.Me, inst.t, inst.q)  # 2.7204482480182524
        assert report.value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_positive_phi_at_zero_is_refused(self, monkeypatch):
        inst = ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=5.0)
        monkeypatch.setattr(exp_moment, "phi", lambda y, inst: 1e-300)
        with pytest.raises(RootBracketError, match="phi sign condition failed"):
            solve_exp_moment(inst)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            ExpMomentInstance(M1=1.0, Me=math.e, t=1.0, q=1.0)

    def test_range_guard(self):
        with pytest.raises(RangeError):
            ExpMomentInstance(M1=1.0, Me=10.0, t=1.0, q=800.0)

    def test_far_tail_is_answered(self):
        inst = ExpMomentInstance(M1=50.0, Me=2.0, t=0.01, q=5000.0)
        report = _assert_deep_tail_answered(inst)
        # the lower support point's gap to the scaled mean, about 1.3e-21, is
        # far below one ulp of it: u rounds to it, and the value is read from g
        assert report.root == inst.m1_scaled
        assert ExpMomentAmbiguity(M1=50.0, Me=2.0, t=0.01).solve(5000.0).value == report.value

    def test_tail_below_double_resolution_is_answered(self):
        # the tail is about 1e-17, and the lower support point lies three ulps
        # below the scaled mean: in u its gap would keep one significant digit
        inst = ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=40.0)
        report = _assert_deep_tail_answered(inst)
        assert 0.0 < inst.m1_scaled - report.root < 4e-16
        assert ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=1.0).solve(40.0).value == report.value

    def test_square_past_float_range_is_no_overflow(self):
        # Me above about 1.3e154 puts (Me - e^u)^2 past float range, where **
        # raises a bare OverflowError: the search in the gap never squares it
        inst = ExpMomentInstance(M1=300.0, Me=1e160, t=1.0, q=400.0)
        with pytest.raises(OverflowError):
            (inst.Me - math.exp(299.0)) ** 2
        searched, real = [], exp_moment.brent

        def brent(f, *args):
            searched.append(f)
            return real(f, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exp_moment, "brent", brent)
            _assert_deep_tail_answered(inst)
        (gphi,) = [f for f in searched if f.__name__ == "gphi"]
        assert math.isfinite(gphi(1e-12))

    def test_phi_overflow_beside_the_pole_is_answered(self):
        # Me = 1e297 puts phi past float range within 1e-9 of the pole, where
        # its root is not: the search in the gap never evaluates phi there
        inst = ExpMomentInstance(M1=1.0, Me=1e297, t=1.0, q=695.0)
        assert phi(inst.m1_scaled * (1.0 - 1e-9), inst) == math.inf
        report = solve_exp_moment(inst)
        assert (report.value, report.bisect_iters) == (5.383200992144691e-06, 1)
        assert report.branch == exp_moment.INTERIOR and report.verification.passed
        ref = exp_moment_value_50(1.0, 1e297, 1.0, 695.0)
        assert report.value == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_deep_tail_beside_a_large_mean_is_answered(self):
        inst = ExpMomentInstance(
            M1=1146.6390110688826, Me=44999.53680668756, t=0.009291836773182524, q=3452.944594472857
        )
        # the tail is below 1e-10 times the scaled mean
        assert inst.Me * math.exp(-(inst.q_scaled + 1.0)) < 1e-10 * inst.m1_scaled
        _assert_deep_tail_answered(inst)

    def test_deep_tail_with_a_tiny_rate_is_certified(self):
        # H reads 1.3e-8 at the upper point 1.59e8 (t*x = 208, terms of H near
        # 7.6e5), where the mass is 1.6e-90: the gap is 2.3e-98 of a value of
        # 1.2e-84, and weak duality certifies the pair
        inst = ExpMomentInstance(
            M1=2433468.2932496467,
            Me=28.022439911442532,
            t=1.3109344756466119e-06,
            q=157955895.46433008,
        )
        report = _assert_deep_tail_answered(inst)
        assert report.verification.slack_residual > 1e-8


class TestAmbiguity:
    def test_from_exponential_demand(self):
        amb = ExpMomentAmbiguity.from_exponential_demand(lam=0.02, t=0.01)
        assert amb.M1 == pytest.approx(50.0)
        assert amb.Me == pytest.approx(2.0)
        with pytest.raises(DomainError):
            ExpMomentAmbiguity.from_exponential_demand(lam=0.02, t=0.03)

    def test_chernoff_bound_dominates_worst_case(self):
        amb = ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=1.0)
        for q in (0.5, 2.0, 5.0, 9.0, 40.0):
            assert amb.solve(q).value <= chernoff_tail_bound(amb.Me, amb.t, q)

    @pytest.mark.parametrize("Me", [-1.0, 1.5, math.e])  # negative; below or at exp(t*M1)
    def test_rejects_infeasible_moments(self, Me):
        with pytest.raises(InfeasibleError):
            ExpMomentAmbiguity(M1=1.0, Me=Me, t=1.0)


def _values(amb, qs):
    return [solve_exp_moment(amb.instance_at(q)).value for q in qs]


class TestValueCurve:
    def test_boundary_branch_is_affine_in_q(self):
        amb = ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=1.0)
        v = _values(amb, [0.5, 1.0, 1.5])
        assert v[0] - 2.0 * v[1] + v[2] == pytest.approx(0.0, abs=1e-12)

    def test_monotone_nonincreasing_and_convex(self):
        amb = ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=1.0)
        vals = _values(amb, np.linspace(0.2, 8.0, 40))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        for i in range(1, len(vals) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


class TestV1OnlyWhereNeeded:
    """Past the threshold's bound, a solve answers or refuses as one that searches v1 does."""

    @staticmethod
    def _as_if_searched(inst):
        """The solve's outcome with the bound replaced by the searched threshold itself."""
        with pytest.MonkeyPatch.context() as patch:
            searched = lambda m1, me: exp_moment._v1_and_threshold(m1, me)[1]
            patch.setattr(exp_moment, "_threshold_bound", searched)
            return _outcome(inst)

    def _check(self, instances) -> int:
        """Asserts each instance's outcome; returns how many searched no v1."""
        skipped = 0
        for inst in instances:
            m1, me, qs = inst.m1_scaled, inst.Me, inst.q_scaled
            outcome = _outcome(inst)
            assert repr(outcome) == repr(self._as_if_searched(inst)), inst
            try:
                threshold = exp_moment._v1_and_threshold(m1, me)[1]
            except MomentBoundError:
                continue  # a refusal, the same on both sides
            if isinstance(outcome, Report):
                assert qs > threshold or outcome.branch == exp_moment.BOUNDARY, inst
            bound = exp_moment._threshold_bound(m1, me)
            assert threshold <= bound
            skipped += qs > bound * (1.0 + 1e-9) + 1e-12
        return skipped

    def test_stream_draws(self):
        for seed in STREAM_SEEDS:
            instances = [
                ExpMomentInstance(**op.params) for op in stream_ops(seed) if op.kind == "mp1e"
            ]
            skipped = self._check(instances)
            assert len(instances) > STREAM_OPS // 3 and skipped > len(instances) // 2

    def test_boundary_point_past_float_range_is_refused_past_the_bound(self):
        # v1 is about 702: compute_v1's bracket end 700 reads f(700) < 0, and a
        # solve past the bound 699 that searches no v1 still raises it
        inst = ExpMomentInstance(M1=1e-10, Me=1e292, t=1.0, q=699.5)
        bound = 700.0 + inst.m1_scaled / (inst.Me - 1.0) - 1.0  # at hi = 700
        assert inst.q_scaled > bound * (1.0 + 1e-9) + 1e-12
        with pytest.raises(RangeError, match="boundary support point above 700"):
            solve_exp_moment(inst)

    def test_orders_within_ulps_of_the_threshold(self):
        instances = []
        for M1, me, t in _continuity_draws():
            q = exp_threshold(ExpMomentInstance(M1=M1, Me=me, t=t, q=M1))
            if q <= 0.0:
                continue
            instances.append(ExpMomentInstance(M1=M1, Me=me, t=t, q=q * (1.0 + 1e-9)))
            for _ in range(3):
                q = math.nextafter(q, -math.inf)
            for _ in range(7):
                instances.append(ExpMomentInstance(M1=M1, Me=me, t=t, q=q))
                q = math.nextafter(q, math.inf)
        # all of them lie below the bound, and search v1 as every solve did
        assert self._check(instances) == 0 and len(instances) > 100
