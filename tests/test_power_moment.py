"""Mean plus t-th power moment solver."""

import math
from fractions import Fraction

import numpy as np
import pytest

from momentbound import power_moment
from momentbound.errors import DomainError, InfeasibleError, NonFiniteError, RangeError
from momentbound.problems import PROBLEMS
from momentbound.power_moment import (
    PowerMomentAmbiguity,
    PowerMomentInstance,
    boundary_threshold,
    solve_power_moment,
    theta,
)
from references import scarf_value


def _random_instances(rng, n, interior_only=False):
    ts = [1.5, 2.0, 2.5, 3.0, 5.0, math.pi]
    out = []
    while len(out) < n:
        t = ts[len(out) % len(ts)]
        M1 = float(rng.uniform(0.5, 5.0))
        ratio = float(rng.uniform(1.05, 3.0))
        qr = float(rng.uniform(0.1, 4.0))
        inst = PowerMomentInstance(M1=M1, Mt=ratio * M1**t, t=t, q=qr * M1)
        if interior_only and inst.q <= boundary_threshold(inst):
            continue
        out.append(inst)
    return out


class TestTheta:
    def test_hand_value_exact_rational(self):
        # independent evaluation: at t = 2 everything is rational
        y, mt, q, t = Fraction(7), Fraction(2), Fraction(6), 2
        u = (Fraction(t) * q / (t - 1)) * (y ** (t - 1) - mt) / (y**t - mt)
        expected = (y**t - mt) / (y - 1) * (1 - u) + u**t - mt
        assert expected == Fraction(-33625, 13254)
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=6.0)
        assert theta(7.0, inst) == pytest.approx(float(expected), abs=1e-12)

    def test_positive_at_right_endpoint(self):
        rng = np.random.default_rng(41)
        for inst in _random_instances(rng, 60, interior_only=True):
            t, qs = inst.t, inst.q_scaled
            assert theta(t * qs / (t - 1.0), inst) > 0.0

    def test_negative_at_q_when_q_large(self):
        rng = np.random.default_rng(43)
        checked = 0
        for inst in _random_instances(rng, 200, interior_only=True):
            edge = inst.mt_scaled ** (1.0 / (inst.t - 1.0))
            if inst.q_scaled > edge:
                assert theta(inst.q_scaled, inst) < 0.0
                checked += 1
        assert checked >= 20

    def test_zero_with_negative_right_slope_at_edge(self):
        rng = np.random.default_rng(47)
        checked = 0
        for inst in _random_instances(rng, 200, interior_only=True):
            edge = inst.mt_scaled ** (1.0 / (inst.t - 1.0))
            if inst.q_scaled <= edge:
                assert abs(theta(edge, inst)) <= 1e-10 * max(1.0, inst.mt_scaled)
                delta = 1e-7 * edge
                assert theta(edge + delta, inst) < 0.0
                checked += 1
        assert checked >= 20

    def test_domain_error_below_one(self):
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=6.0)
        with pytest.raises(DomainError):
            theta(1.0, inst)
        with pytest.raises(DomainError):
            theta(0.5, inst)

    def test_pole_detection(self):
        # y^t hits Mt exactly: 2^2 = 4
        inst = PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=6.0)
        with pytest.raises(NonFiniteError):
            theta(2.0, inst)


class TestBoundaryThreshold:
    def test_examples(self):
        assert boundary_threshold(
            PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0)
        ) == pytest.approx(2.0, abs=1e-14)
        delta = 1e-9
        assert boundary_threshold(
            PowerMomentInstance(M1=1.0, Mt=1.0 + delta, t=2.0, q=0.1)
        ) == pytest.approx((1.0 + delta) / 2.0, abs=1e-12)
        assert boundary_threshold(
            PowerMomentInstance(M1=2.0, Mt=32.0, t=2.0, q=1.0)
        ) == pytest.approx(8.0, abs=1e-12)


class TestSolve:
    def test_boundary_example(self):
        rep = solve_power_moment(PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0))
        assert rep.branch == power_moment.BOUNDARY
        assert rep.value == pytest.approx(0.75, abs=1e-12)
        assert rep.dist.points == ((0.0, 0.75), (4.0, 0.25))
        assert rep.cert.z == pytest.approx((0.0, 0.5, 1.0 / 16.0), abs=1e-14)
        assert rep.verification.passed

    def test_interior_example_matches_mean_variance_bound(self):
        rep = solve_power_moment(PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=6.0))
        assert rep.branch == power_moment.INTERIOR
        assert rep.value == pytest.approx((math.sqrt(26.0) - 5.0) / 2.0, rel=1e-11)
        assert rep.verification.passed
        assert 6.0 < rep.root < 12.0

    def test_scaling_identity(self):
        t = 2.0
        c = 1.7
        big = solve_power_moment(PowerMomentInstance(M1=50.0, Mt=c * 50.0**t, t=t, q=100.0))
        small = solve_power_moment(PowerMomentInstance(M1=1.0, Mt=c, t=t, q=2.0))
        assert big.value == pytest.approx(50.0 * small.value, rel=1e-12)
        assert big.branch == small.branch

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            PowerMomentInstance(M1=1.0, Mt=1.0, t=2.0, q=1.0)
        with pytest.raises(InfeasibleError):
            PowerMomentInstance(M1=2.0, Mt=3.9, t=2.0, q=1.0)

    def test_scarf_equivalence_randomized(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 50:
            M1 = float(rng.uniform(0.5, 5.0))
            ratio = float(rng.uniform(1.05, 3.0))
            qr = float(rng.uniform(0.1, 4.0))
            inst = PowerMomentInstance(M1=M1, Mt=ratio * M1**2, t=2.0, q=qr * M1)
            if inst.q <= boundary_threshold(inst):
                continue
            rep = solve_power_moment(inst)
            ref = scarf_value(M1, inst.Mt, inst.q)
            assert rep.value == pytest.approx(ref, rel=1e-8)
            checked += 1

    def test_interior_invariants(self):
        rng = np.random.default_rng(59)
        for inst in _random_instances(rng, 40, interior_only=True):
            rep = solve_power_moment(inst)
            assert rep.verification.passed
            t, qs = inst.t, inst.q_scaled
            edge = inst.mt_scaled ** (1.0 / (t - 1.0))
            v = rep.root
            assert max(edge, qs) < v < t * qs / (t - 1.0)
            u = rep.dist.xs[0] / inst.M1
            assert 0.0 < u < qs < v
            assert u < 1.0 < v
            # duality in original units
            z = rep.cert.z
            dual = z[0] + z[1] * inst.M1 + z[2] * inst.Mt
            assert rep.value == pytest.approx(dual, rel=1e-8)

    def test_boundary_invariants(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 30:
            inst = _random_instances(rng, 1)[0]
            if inst.q > boundary_threshold(inst):
                continue
            rep = solve_power_moment(inst)
            assert rep.branch == power_moment.BOUNDARY
            assert rep.verification.passed
            z = rep.cert.z
            dual = z[0] + z[1] * inst.M1 + z[2] * inst.Mt
            assert rep.value == pytest.approx(dual, rel=1e-8)
            checked += 1

    def test_exact_tie_uses_boundary_branch(self):
        # threshold is exactly representable here: (t-1)/t * Mt^(1/(t-1)) = 2
        rep = solve_power_moment(PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=2.0))
        assert rep.branch == power_moment.BOUNDARY

    def test_branch_continuity_at_threshold(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            M1 = float(rng.uniform(0.5, 3.0))
            t = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
            ratio = float(rng.uniform(1.1, 2.5))
            probe = PowerMomentInstance(M1=M1, Mt=ratio * M1**t, t=t, q=M1)
            q_star = boundary_threshold(probe)
            below = solve_power_moment(
                PowerMomentInstance(M1=M1, Mt=probe.Mt, t=t, q=q_star * (1.0 - 1e-9))
            )
            assert below.branch == power_moment.BOUNDARY
            above = solve_power_moment(
                PowerMomentInstance(M1=M1, Mt=probe.Mt, t=t, q=q_star * (1.0 + 1e-9))
            )
            assert above.branch == power_moment.INTERIOR
            assert above.value == pytest.approx(below.value, rel=1e-6)
            assert above.verification.passed and below.verification.passed


class TestRange:
    # t - 1 = 1e-3 puts the boundary support point mt^(1/(t-1)) at 10^1000
    INST = PowerMomentInstance(M1=1.0, Mt=10.0, t=1.001, q=1.0)

    def test_solve_raises_range_error(self):
        with pytest.raises(RangeError):
            solve_power_moment(self.INST)

    def test_threshold_raises_range_error(self):
        with pytest.raises(RangeError):
            boundary_threshold(self.INST)

    def test_oracle_grid_raises_range_error(self):
        with pytest.raises(RangeError):
            PROBLEMS["mp1t"].grid_hi(self.INST, None)

    # M1^t overflows float range; underflows to 0 or to a subnormal with a few
    # digits left and would divide Mt by it; or Mt/M1^t overflows
    MEAN_POWER_OUT_OF_RANGE = [
        (1e200, 1e300, 1.0),
        (1e-200, 1.0, 1.0),
        (1e-160, 1.0, 1.0),
        (1e-150, 1e10, 1.0),
        (1e-160, 1e-319, 1e-160),
    ]

    @pytest.mark.parametrize(
        "M1,Mt,q", MEAN_POWER_OUT_OF_RANGE, ids=[f"{m1}-{mt}" for m1, mt, _ in MEAN_POWER_OUT_OF_RANGE]
    )
    def test_mean_power_out_of_range(self, M1, Mt, q):
        with pytest.raises(RangeError, match=r"M1\^t"):
            PowerMomentInstance(M1=M1, Mt=Mt, t=2.0, q=q)
        with pytest.raises(RangeError, match=r"M1\^t"):
            PowerMomentAmbiguity(M1=M1, Mt=Mt, t=2.0).worst_case(0.0)


class TestAmbiguity:
    # the q = 0 shortcut and the solve
    @pytest.mark.parametrize("q", [0.0, 6.0])
    @pytest.mark.parametrize("Mt", [-1.0, 0.5])  # negative; at most M1^t
    def test_worst_case_rejects_infeasible_moments(self, Mt, q):
        with pytest.raises(InfeasibleError):
            PowerMomentAmbiguity(M1=1.0, Mt=Mt, t=2.0).worst_case(q)


def _values(amb, qs):
    return [solve_power_moment(amb.instance_at(q)).value for q in qs]


class TestValueCurve:
    def test_boundary_pair(self):
        amb = PowerMomentAmbiguity(M1=1.0, Mt=4.0, t=2.0)
        assert _values(amb, [1.0, 2.0]) == [
            pytest.approx(0.75, abs=1e-12),
            pytest.approx(0.5, abs=1e-12),
        ]

    def test_monotone_and_continuous_across_threshold(self):
        amb = PowerMomentAmbiguity(M1=1.0, Mt=1.8, t=2.0)
        thr = boundary_threshold(amb.instance_at(1.0))
        vals = _values(amb, np.linspace(0.4 * thr, 2.5 * thr, 41))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        # no jump bigger than the local slope allows near the threshold
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(diffs) < 0.2
