"""Robust order-quantity optimization."""

import math

import numpy as np
import pytest

from momentbound.errors import DomainError, InfeasibleError, MomentBoundError
from momentbound.exp_moment import ExpMomentAmbiguity, boundary_threshold
from momentbound.newsvendor import NewsvendorInstance, optimize_order
from momentbound.power_moment import PowerMomentAmbiguity
from references import ExponentialDemand, mean_variance_order, worst_case_objective


def _exp_instance(eta: float, eps: float = 1e-6) -> NewsvendorInstance:
    amb = ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=1.0)
    return NewsvendorInstance(ambiguity=amb, eta=eta, eps=eps)


class TestWorstCaseObjective:
    def test_zero_order_costs_the_mean(self):
        inst = _exp_instance(0.5)
        assert worst_case_objective(inst, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_large_q_dominated_by_order_cost(self):
        inst = _exp_instance(0.5)
        q = 30.0
        assert worst_case_objective(inst, q) - (1.0 - 0.5) * q < 1e-6

    def test_midpoint_convexity(self):
        inst = _exp_instance(0.9)
        rng = np.random.default_rng(149)
        for _ in range(20):
            q1, q2 = sorted(rng.uniform(0.0, 12.0, size=2))
            mid = worst_case_objective(inst, 0.5 * (q1 + q2))
            assert mid <= 0.5 * (
                worst_case_objective(inst, q1) + worst_case_objective(inst, q2)
            ) + 1e-8


def _upper_mass(amb, q: float) -> float:
    return amb.solve(q).dist.points[-1][1]


class TestEnvelopeIdentity:
    """d/dq of the worst case is minus the extremal upper support mass."""

    @pytest.mark.parametrize(
        "amb",
        [
            PowerMomentAmbiguity(M1=1.0, Mt=2.0, t=1.5),
            PowerMomentAmbiguity(M1=1.0, Mt=2.0, t=2.0),
            PowerMomentAmbiguity(M1=1.0, Mt=4.0, t=3.0),
            ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=1.0),
        ],
        ids=["mp1t-1.5", "mp1t-2", "mp1t-3", "mp1e"],
    )
    def test_central_difference_matches_upper_mass(self, amb):
        if isinstance(amb, PowerMomentAmbiguity):
            mt = amb.Mt / amb.M1**amb.t
            threshold = amb.M1 * (amb.t - 1.0) / amb.t * mt ** (1.0 / (amb.t - 1.0))
        else:
            threshold = boundary_threshold(amb.instance_at(1.0))
        h = 1e-4
        branches = set()
        # the worst case is affine below the branch threshold and curved
        # above it; a central difference straddling the threshold is biased
        for ratio in (0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 10.0):
            q = ratio * threshold
            slope = (amb.worst_case(q + h) - amb.worst_case(q - h)) / (2.0 * h)
            assert abs(slope + _upper_mass(amb, q)) <= 1e-8, (q, slope)
            branches.add(amb.solve(q).branch)
        assert branches == {"boundary", "interior"}


class TestMeanVarianceOrder:
    """At t = 2 the robust order has a closed form (Scarf; Gallego & Moon)."""

    @pytest.mark.parametrize(
        "mu,cv", [(50.0, 1.0), (50.0, 0.5), (20.0, 0.25), (100.0, 0.9), (1.0, 1.0)]
    )
    @pytest.mark.parametrize("eta", [0.6, 0.9, 0.99, 0.999, 0.9999])
    def test_order_within_eps_of_closed_form(self, mu, cv, eta):
        M2 = mu * mu * (1.0 + cv * cv)
        inst = NewsvendorInstance(ambiguity=PowerMomentAmbiguity(M1=mu, Mt=M2, t=2.0), eta=eta)
        d = optimize_order(inst)
        assert abs(d.q_star - mean_variance_order(mu, M2, eta)) <= inst.eps
        assert d.report.verification.passed


class TestSubgradientCondition:
    """p_hi(q* - eps) >= 1 - eta >= p_hi(q* + eps), unless the answer says it is uncertified."""

    @pytest.mark.parametrize("eta", [0.9999, 0.99995, 0.99999, 1.0 - 1e-10])
    def test_exponential_demand(self, eta):
        amb = ExpMomentAmbiguity.from_exponential_demand(lam=1.0 / 50.0, t=0.01)
        inst = NewsvendorInstance(ambiguity=amb, eta=eta)
        try:
            d = optimize_order(inst)
        except MomentBoundError:
            return
        if not d.report.verification.passed:
            return
        mass = 1.0 - eta
        assert _upper_mass(amb, d.q_star - inst.eps) >= mass
        assert _upper_mass(amb, d.q_star + inst.eps) <= mass


class TestOptimizeOrder:
    def test_cheap_service_orders_nothing(self):
        decision = optimize_order(_exp_instance(0.01))
        assert decision.q_star <= 1e-5

    def test_eta_sweep_monotone(self):
        qs = [optimize_order(_exp_instance(eta)).q_star for eta in (0.9, 0.99, 0.999)]
        assert qs[0] <= qs[1] <= qs[2]

    def test_local_optimality(self):
        inst = _exp_instance(0.95)
        d = optimize_order(inst)
        f = lambda q: worst_case_objective(inst, max(q, 0.0))
        assert d.objective <= f(d.q_star + 10 * inst.eps) + 1e-12
        assert d.objective <= f(d.q_star - 10 * inst.eps) + 1e-12

    def test_objective_consistency(self):
        inst = _exp_instance(0.97)
        d = optimize_order(inst)
        again = worst_case_objective(inst, d.q_star)
        assert abs(again - d.objective) <= 1e-10

    def test_matches_dense_scan_argmin(self):
        # independent argmin oracle: coarse scan, then a 1e-5-step scan
        # around the coarse winner
        inst = _exp_instance(0.9, eps=1e-6)
        f = lambda q: worst_case_objective(inst, q)
        coarse = np.arange(0.0, 6.0, 1e-2)
        q0 = coarse[int(np.argmin([f(q) for q in coarse]))]
        fine = np.arange(max(q0 - 0.02, 0.0), q0 + 0.02, 1e-5)
        q_scan = fine[int(np.argmin([f(q) for q in fine]))]
        d = optimize_order(inst)
        assert abs(d.q_star - q_scan) <= 1e-4

    def test_power_moment_ambiguity(self):
        amb = PowerMomentAmbiguity(M1=1.0, Mt=2.0, t=2.0)
        inst = NewsvendorInstance(ambiguity=amb, eta=0.9, eps=1e-6)
        d = optimize_order(inst)
        assert d.q_star > 0.0
        assert d.inner_solves > d.iterations

    def test_exponential_ground_truth_shape(self):
        # the moment data comes from an exponential demand with rate 1/50
        amb = ExpMomentAmbiguity.from_exponential_demand(lam=1.0 / 50.0, t=0.01)
        qs = []
        for eta in (0.9999, 0.99995, 0.99999):
            inst = NewsvendorInstance(ambiguity=amb, eta=eta, eps=1e-6)
            d = optimize_order(inst)
            gt = ExponentialDemand(lam=1.0 / 50.0).quantile(eta)
            assert gt / 3.0 <= d.q_star <= gt * 3.0
            qs.append(d.q_star)
        assert qs[0] <= qs[1] <= qs[2]

    @pytest.mark.parametrize(
        "amb",
        [
            PowerMomentAmbiguity(M1=1.0, Mt=-1.0, t=2.0),
            ExpMomentAmbiguity(M1=1.0, Me=-1.0, t=1.0),
            ExpMomentAmbiguity(M1=1.0, Me=3.0, t=0.0),
        ],
        ids=["negative-Mt", "negative-Me", "zero-t"],
    )
    def test_infeasible_moments_are_typed(self, amb):
        with pytest.raises(InfeasibleError):
            optimize_order(NewsvendorInstance(ambiguity=amb, eta=0.9))

    def test_eta_validation(self):
        amb = ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=1.0)
        with pytest.raises(DomainError):
            NewsvendorInstance(ambiguity=amb, eta=1.0)
        with pytest.raises(DomainError):
            NewsvendorInstance(ambiguity=amb, eta=0.0)


class TestGroundTruthQuantile:
    """The exponential reference quantile in tests/references.py."""

    def test_unit_quantile(self):
        fam = ExponentialDemand(lam=1.0 / 50.0)
        assert fam.quantile(1.0 - math.exp(-1.0)) == pytest.approx(50.0, abs=1e-10)

    def test_small_eta_limit(self):
        fam = ExponentialDemand(lam=1.0 / 50.0)
        assert fam.quantile(1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_high_service_level(self):
        fam = ExponentialDemand(lam=1.0 / 50.0)
        assert fam.quantile(0.9999) == pytest.approx(-50.0 * math.log(1e-4), rel=1e-12)
