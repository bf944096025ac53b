"""Robust order-quantity optimization."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import momentbound
from momentbound import core, exp_moment, power_moment
from momentbound.cli import EXIT_SCHEMA, main
from momentbound.core import DiscreteDistribution
from momentbound.errors import (
    DomainError,
    InfeasibleError,
    MomentBoundError,
    RangeError,
    RootBracketError,
)
from momentbound.exp_moment import ExpMomentAmbiguity, boundary_threshold
from momentbound.newsvendor import NewsvendorInstance, optimize_order
from momentbound.power_moment import PowerMomentAmbiguity
from momentbound.rootfind import bisect
from references import (
    ExponentialDemand,
    mean_variance_order,
    parent_methods,
    verified_order_search,
    worst_case_objective,
)
from test_stream_pins import _workloads


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
    # in the deep tail the worst cases' lower point u nears 1, where the upper
    # mass (1 - u)/(v - u) cancels; its relative error moves q* by about q* times it
    @pytest.mark.parametrize("eta", [0.6, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-8, 1.0 - 1e-10])
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


# one fixed member of each ambiguity kind the benchmark's newsvendor stream draws
AMBIGUITIES = {
    "mp1t-1.5": PowerMomentAmbiguity(M1=50.0, Mt=2.0 * 50.0**1.5, t=1.5),
    "mp1t-2": PowerMomentAmbiguity(M1=50.0, Mt=1.25 * 50.0**2, t=2.0),
    "mp1t-3": PowerMomentAmbiguity(M1=50.0, Mt=1.5 * 50.0**3, t=3.0),
    "mp1e-expdemand": ExpMomentAmbiguity.from_exponential_demand(lam=1.0 / 50.0, t=0.004),
    "mp1e-general": ExpMomentAmbiguity(M1=3.0, Me=1.8 * math.exp(1.5), t=0.5),
}
ETAS = (0.5, 0.9, 0.99, 0.9999)
DEEP_ETAS = (1.0 - 1e-8, 1.0 - 1e-10)
CELLS = [(k, eta) for k in AMBIGUITIES for eta in ETAS]
# Every cell decides, the deep ones included: the mp1t t = 1.5 worst cases at
# p_hi = 1e-10, whose upper support near 2e8 puts float noise of 3e-8 in H,
# certify within the verifier's float-error allowance.
DEEP_CELLS = [(k, eta) for k in AMBIGUITIES for eta in DEEP_ETAS]


def _decision(kind: str, eta: float):
    return optimize_order(NewsvendorInstance(ambiguity=AMBIGUITIES[kind], eta=eta))


def _wrong_mass_above(monkeypatch):
    """Make every candidate solve at or above q = 2100 report an upper mass of 3.4e-10.

    On the lam = 1/50, t = 0.01 exponential-demand set the certified p_hi
    falls from 1.3e-10 to 6.5e-12 across q in 2075-2372, so right of the
    certified order for 1 - eta = 1e-10 (q = 2097.97) that wrong p_hi steers
    the full-candidate search further right, and the worst case it reports
    fails its certificate.
    """
    real = ExpMomentAmbiguity._candidate
    wrong = []

    def candidate(self, q):
        out = real(self, q)
        if q >= 2100.0:
            wrong.append(q)
            (u, _), (v, _) = out["dist"].points
            out = dict(out, dist=DiscreteDistribution(points=((u, 1.0 - 3.4e-10), (v, 3.4e-10))))
        return out

    monkeypatch.setattr(ExpMomentAmbiguity, "_candidate", candidate)
    return wrong


def _wrong_side_once(monkeypatch):
    """Make the first midpoint at or above q = 2100 read p_hi above 1 - eta.

    On the set of `_wrong_mass_above` at 1 - eta = 1e-10 that sends the
    one-evaluation search right of the certified order, q = 2097.97.
    """
    real = ExpMomentAmbiguity._order_side
    wrong = []

    def order_side(self, mass):
        side = real(self, mass)

        def wrong_side(q):
            if q >= 2100.0 and not wrong:
                wrong.append(q)
                return 1.0
            return side(q)

        return wrong_side

    monkeypatch.setattr(ExpMomentAmbiguity, "_order_side", order_side)
    return wrong


class TestCertifiedOrder:
    """Midpoints are unverified; the bracket ends and q* are certified."""

    @pytest.mark.parametrize("kind,eta", CELLS + DEEP_CELLS)
    def test_verification_budget(self, kind, eta, monkeypatch):
        calls, inside = [0], []
        real_verify, real_candidate = core.verify_optimality, type(AMBIGUITIES[kind])._candidate

        def verify(*args, **kwargs):
            calls[0] += 1
            return real_verify(*args, **kwargs)

        def candidate(self, q):
            before = calls[0]
            out = real_candidate(self, q)
            inside.append(calls[0] - before)
            return out

        monkeypatch.setattr(core, "verify_optimality", verify)
        monkeypatch.setattr(type(AMBIGUITIES[kind]), "_candidate", candidate)
        d = _decision(kind, eta)
        assert calls[0] == 1 + sum(r is not None for r in d.bracket_reports)
        # every candidate solve but the one inside the verified solve at q*
        assert len(inside) == d.inner_solves - 1
        assert calls[0] <= 3
        assert inside and not any(inside)

    @pytest.mark.parametrize("kind,eta", CELLS + DEEP_CELLS)
    def test_bit_identical_to_the_verified_search(self, kind, eta):
        inst = NewsvendorInstance(ambiguity=AMBIGUITIES[kind], eta=eta)
        d = optimize_order(inst)
        assert (d.q_star, d.objective, d.iterations) == verified_order_search(inst)
        # the bracket ends inside (0, tail cutoff), and q*
        assert d.inner_solves == 1 + sum(r is not None for r in d.bracket_reports)

    @pytest.mark.parametrize("kind,eta", CELLS + DEEP_CELLS)
    def test_subgradient_certificate(self, kind, eta):
        inst = NewsvendorInstance(ambiguity=AMBIGUITIES[kind], eta=eta)
        d = optimize_order(inst)
        (a, b), (lo, up) = d.bracket, d.bracket_reports
        mass = 1.0 - eta
        assert a < d.q_star <= b
        assert b - a <= 2.0 * inst.eps
        assert (lo is None) == (a == 0.0)
        assert (up is None) == (b >= inst.ambiguity.tail_cutoff(mass))
        if lo is not None:
            assert lo.verification.passed
            assert lo.dist.points[-1][1] >= mass
        if up is not None:
            assert up.verification.passed
            assert up.dist.points[-1][1] <= mass
        assert d.report.verification.passed

    def test_exact_root_needs_no_narrow_bracket(self):
        # at t = 2 and Mt = 2*M1^2 the boundary branch has p_hi = 1/2 for every
        # q up to the threshold 1: at eta = 1/2 the first midpoint is a root
        amb = PowerMomentAmbiguity(M1=1.0, Mt=2.0, t=2.0)
        d = optimize_order(NewsvendorInstance(ambiguity=amb, eta=0.5))
        assert (d.q_star, d.iterations, d.bracket, d.bracket_reports) == (1.0, 1, (0.0, 2.0), (None, None))
        assert d.report.dist.points[-1][1] == 0.5
        assert d.report.verification.passed

    def test_float_resolution_bracket(self):
        amb = AMBIGUITIES["mp1t-2"]
        d = optimize_order(NewsvendorInstance(ambiguity=amb, eta=0.9, eps=1e-15))
        a, b = d.bracket
        assert b == math.nextafter(a, math.inf) == d.q_star
        assert all(r.verification.passed for r in d.bracket_reports)

    def test_wrong_side_falls_back_to_the_honest_decision(self, monkeypatch):
        amb = ExpMomentAmbiguity.from_exponential_demand(lam=1.0 / 50.0, t=0.01)
        inst = NewsvendorInstance(ambiguity=amb, eta=1.0 - 1e-10)
        honest = optimize_order(inst)
        wrong = _wrong_side_once(monkeypatch)
        d = optimize_order(inst)
        # the wrong side sent the search right of the certified order, where
        # the bracket's p_hi test failed and the full-candidate search decided
        assert wrong and wrong[0] > honest.q_star
        assert (d.q_star, d.objective, d.iterations, d.bracket) == (
            honest.q_star,
            honest.objective,
            honest.iterations,
            honest.bracket,
        )
        assert d.inner_solves == 2 + d.iterations + 1
        assert d.report.verification.passed

    def test_wrong_midpoint_is_refused(self, monkeypatch):
        amb = ExpMomentAmbiguity.from_exponential_demand(lam=1.0 / 50.0, t=0.01)
        inst = NewsvendorInstance(ambiguity=amb, eta=1.0 - 1e-10)
        wrong_mass = _wrong_mass_above(monkeypatch)
        honest = optimize_order(inst)  # the one-evaluation bracket solves below q = 2100
        assert not wrong_mass
        wrong = _wrong_side_once(monkeypatch)
        with pytest.raises(RootBracketError):
            optimize_order(inst)
        assert wrong and wrong[0] > honest.q_star
        assert wrong[0] >= 2100.0  # so the candidate solve there reads the wrong p_hi
        assert amb._candidate(wrong[0])["dist"].points[-1][1] > 1e-10

    def test_cli_refusal_exit_code(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "order.json"
        params = {"ambiguity": "mp1e", "exponential_lambda": 0.02, "t": 0.01, "eta": 1.0 - 1e-10}
        path.write_text(json.dumps({"problem": "newsvendor", "params": params}), encoding="utf-8")
        _wrong_mass_above(monkeypatch)
        _wrong_side_once(monkeypatch)
        assert main(["solve", str(path)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[0])["error"] == "RootBracketError"


def _threshold(amb) -> float:
    """The order quantity at which the worst case leaves the boundary branch."""
    if isinstance(amb, PowerMomentAmbiguity):
        return power_moment.boundary_threshold(amb.instance_at(amb.M1))
    return boundary_threshold(amb.instance_at(amb.M1))


def _cheap_order(amb, eta: float, eps: float = 1e-6) -> float:
    """The root of the order bisection on the one-evaluation sides alone."""
    mass = 1.0 - eta
    hi = amb.tail_cutoff(mass)
    side = amb._order_side(mass)
    return bisect(lambda q: -mass if q >= hi else side(q), 0.0, hi, eps, assume_left_root=True).root


class TestOrderSide:
    """One root-function sign per midpoint in place of a full candidate solve."""

    @pytest.mark.parametrize("kind", AMBIGUITIES)
    def test_sign_matches_the_candidate_upper_mass(self, kind):
        amb = AMBIGUITIES[kind]
        threshold = _threshold(amb)
        branches = set()
        for eta in ETAS:
            mass = 1.0 - eta
            hi = amb.tail_cutoff(mass)
            side = amb._order_side(mass)
            grid = np.concatenate(
                [np.linspace(0.0, hi, 101)[1:-1], threshold * np.geomspace(0.1, 10.0, 41)]
            )
            for q in grid[grid < hi]:
                q = float(q)
                candidate = amb._candidate(q)
                branches.add(candidate["branch"])
                p_hi = candidate["dist"].points[-1][1]
                assert np.sign(side(q)) == np.sign(p_hi - mass), (eta, q, p_hi)
        assert branches == {"boundary", "interior"}

    def test_boundary_side_is_the_closed_form(self):
        # at t = 2, Mt = 2*M1^2 the boundary p_hi is exactly 1/2 up to q = 1
        side = PowerMomentAmbiguity(M1=1.0, Mt=2.0, t=2.0)._order_side(0.5)
        assert [side(q) for q in (0.25, 0.5, 1.0)] == [0.0, 0.0, 0.0]
        assert side(1.5) < 0.0

    @pytest.mark.parametrize(
        "mu,cv", [(50.0, 1.0), (50.0, 0.5), (20.0, 0.25), (100.0, 0.9), (1.0, 1.0)]
    )
    @pytest.mark.parametrize("eta", DEEP_ETAS)
    def test_deep_tail_order_within_eps_of_closed_form(self, mu, cv, eta):
        M2 = mu * mu * (1.0 + cv * cv)
        q = _cheap_order(PowerMomentAmbiguity(M1=mu, Mt=M2, t=2.0), eta)
        assert abs(q - mean_variance_order(mu, M2, eta)) <= 1e-6


    def test_pole_side_keeps_the_one_evaluation_bracket(self):
        # at 1 - eta = 1e-10 u* lies within 1e-5*m1 of the pole of phi, where
        # phi(u*) is too coarse to place the bracket: the gap coordinate does
        amb = ExpMomentAmbiguity.from_exponential_demand(lam=1.0 / 50.0, t=0.005)
        inst = amb.instance_at(amb.M1)
        v1 = exp_moment.compute_v1(inst.m1_scaled, amb.Me)
        assert exp_moment._gap_at_mass(1e-10, inst, v1) < 1e-5 * inst.m1_scaled
        d = optimize_order(NewsvendorInstance(ambiguity=amb, eta=1.0 - 1e-10))
        assert d.inner_solves == 3
        assert all(r.verification.passed for r in d.bracket_reports)


def _fresh(kind: str):
    """A new copy of a cell's ambiguity, with nothing computed on it yet."""
    return replace(AMBIGUITIES[kind])


def _parent_sides(patch) -> None:
    """Order sides that build and validate an instance per midpoint."""
    for cls, methods in parent_methods().items():
        for name, method in methods.items():
            patch.setattr(cls, name, method)


def _outcome(inst: NewsvendorInstance):
    """repr of everything a decision reports, or the type and message of what it raised."""
    try:
        d = optimize_order(inst)
    except Exception as exc:  # compared by the caller, not swallowed
        return type(exc).__name__, str(exc)
    fields = (d.q_star, d.objective, d.iterations, d.inner_solves, d.bracket)
    return repr(fields + (d.report, d.bracket_reports))


def _against_parent(monkeypatch, makers) -> tuple[list, list]:
    """The outcomes of fresh decisions here and under the parent's sides."""
    new = [_outcome(make()) for make in makers]
    with monkeypatch.context() as patch:
        _parent_sides(patch)
        old = [_outcome(make()) for make in makers]
    return new, old


PIN_SEEDS = (5, 6)
PIN_DECISIONS = 200  # the first decisions of each seed's benchmark stream


class TestParentPin:
    """Decisions are bit-identical to those of midpoints that built their own instances."""

    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_stream_decisions(self, seed, monkeypatch):
        workloads = _workloads()
        stream = workloads.make_stream("newsvendor", seed)
        runner = workloads.Runner("newsvendor", momentbound, "")
        ops = [stream.next() for _ in range(PIN_DECISIONS)]
        makers = [
            lambda op=op: NewsvendorInstance(ambiguity=runner.ambiguity(op), eta=op.eta)
            for op in ops
        ]
        new, old = _against_parent(monkeypatch, makers)
        assert [i for i, (a, b) in enumerate(zip(new, old)) if a != b] == []

    @pytest.mark.parametrize("kind,eta", CELLS + DEEP_CELLS)
    def test_cells(self, kind, eta, monkeypatch):
        make = lambda: NewsvendorInstance(ambiguity=_fresh(kind), eta=eta)
        new, old = _against_parent(monkeypatch, [make])
        assert new == old


class TestDecisionCost:
    """What q does not change is paid for once per decision."""

    @pytest.mark.parametrize("kind,eta", CELLS)
    def test_budget(self, kind, eta, monkeypatch):
        exp_moment.compute_v1.cache_clear()  # an earlier test's last v1 would be a free hit
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in (
            (exp_moment, "lambert_w_minus1"),
            (power_moment, "theta"),
            (exp_moment, "phi"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for cls in (power_moment.PowerMomentInstance, exp_moment.ExpMomentInstance):
            monkeypatch.setattr(cls, "__post_init__", counted("instances", cls.__post_init__))
        optimize_order(NewsvendorInstance(ambiguity=_fresh(kind), eta=eta))
        new = counts.copy()
        counts.clear()
        with monkeypatch.context() as patch:
            _parent_sides(patch)
            optimize_order(NewsvendorInstance(ambiguity=_fresh(kind), eta=eta))
        assert new["lambert_w_minus1"] == (1 if kind.startswith("mp1e") else 0)
        assert new["instances"] <= 7 < counts["instances"]
        assert (new["theta"], new["phi"]) == (counts["theta"], counts["phi"])

    def test_one_lambert_w_per_moment_set(self, monkeypatch):
        calls = []
        real = exp_moment.lambert_w_minus1
        monkeypatch.setattr(exp_moment, "lambert_w_minus1", lambda x: calls.append(x) or real(x))
        exp_moment.compute_v1.cache_clear()
        optimize_order(NewsvendorInstance(ambiguity=_fresh("mp1e-general"), eta=0.9))
        assert len(calls) == 1
        # an equal set is the memo's key: its decisions run none
        optimize_order(NewsvendorInstance(ambiguity=_fresh("mp1e-general"), eta=0.99))
        assert len(calls) == 1

    def test_midpoints_past_the_exponent_limit_are_refused(self, monkeypatch):
        # the Chernoff cutoff 704.5 puts midpoints past t*q = 700, where the
        # side refuses as an instance there would
        amb = ExpMomentAmbiguity(M1=690.0, Me=2.0 * math.exp(690.0), t=1.0)
        limit = ("RangeError", "t*q and t*M1 must stay below 700 to avoid overflow")
        with pytest.raises(RangeError) as refused:
            amb._order_side(1e-6)(701.0)
        assert (type(refused.value).__name__, str(refused.value)) == limit
        midpoints, real = [], ExpMomentAmbiguity._order_side

        def order_side(self, mass):
            side = real(self, mass)
            return lambda q: midpoints.append(q) or side(q)

        monkeypatch.setattr(ExpMomentAmbiguity, "_order_side", order_side)
        assert _outcome(NewsvendorInstance(ambiguity=amb, eta=1.0 - 1e-6)) == limit
        assert max(midpoints) > 700.0
        with monkeypatch.context() as patch:
            _parent_sides(patch)
            assert _outcome(NewsvendorInstance(ambiguity=replace(amb), eta=1.0 - 1e-6)) == limit

    @pytest.mark.parametrize(
        "moments,eta,q_star",
        [
            ((0.6879090472390929, 7.954349947865794e296, 1.0), 0.999999, 696.454),
            ((280.68208008413967, 1.152371179246346e302, 1.0), 0.9, 696.825),
        ],
    )
    def test_phi_overflow_beside_the_pole_decides(self, moments, eta, q_star):
        # phi overflows within 1e-9 of the pole for these Me; the bracket-end
        # and q* solves step back from it instead of refusing
        amb = ExpMomentAmbiguity(*moments)
        d = optimize_order(NewsvendorInstance(ambiguity=amb, eta=eta))
        assert d.q_star == pytest.approx(q_star, abs=1e-3)
        assert d.report.verification.passed
        assert all(r is None or r.verification.passed for r in d.bracket_reports)

    def test_huge_exponential_moment_decides(self):
        # Me = 2e^690 puts (Me - e^u)^2 past float range in the Newton polish
        inst = NewsvendorInstance(
            ambiguity=ExpMomentAmbiguity(M1=690.0, Me=2.0 * math.exp(690.0), t=1.0), eta=0.5
        )
        d = optimize_order(inst)
        assert d.q_star == 690.5206914464652
        assert d.report.verification.passed
        assert all(r.verification.passed for r in d.bracket_reports)


class TestMomentMatchingFamily:
    """Along the two-point laws matching the moments, upper mass falls as the upper point rises."""

    MASSES = np.geomspace(0.99, 1e-12, 60)

    @pytest.mark.parametrize("kind", ["mp1t-1.5", "mp1t-2", "mp1t-3"])
    def test_power_moment(self, kind):
        inst = AMBIGUITIES[kind].instance_at(1.0)
        t, mt, edge = inst.t, inst.mt_scaled, inst.edge_scaled
        masses = [float(p) for p in self.MASSES if p < 1.0 / edge]
        uppers = [power_moment._upper_point_at_mass(p, inst, edge) for p in masses]
        assert all(v0 < v1 for v0, v1 in zip(uppers, uppers[1:]))
        for p, v in zip(masses, uppers):
            u = (1.0 - p * v) / (1.0 - p)
            assert 0.0 <= u < 1.0 < v
            assert (1.0 - p) * u**t + p * v**t == pytest.approx(mt, rel=1e-12)

    @pytest.mark.parametrize("kind", ["mp1e-expdemand", "mp1e-general"])
    def test_exp_moment(self, kind):
        inst = AMBIGUITIES[kind].instance_at(1.0)
        m1, me = inst.m1_scaled, inst.Me
        v1 = exp_moment.compute_v1(m1, me)
        masses = [float(p) for p in self.MASSES if p < m1 / v1]
        gaps = [exp_moment._gap_at_mass(p, inst, v1) for p in masses]
        uppers = [m1 + (1.0 - p) * g / p for p, g in zip(masses, gaps)]
        assert all(v0 < v1 for v0, v1 in zip(uppers, uppers[1:]))
        assert all(g0 > g1 > 0.0 for g0, g1 in zip(gaps, gaps[1:]))
        for p, g, v in zip(masses, gaps, uppers):
            u = m1 - g
            assert 0.0 <= u < m1 < v
            assert (1.0 - p) * math.exp(u) + p * math.exp(v) == pytest.approx(me, rel=1e-12)


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
        # the two bracket ends and q*, where the search solved at every midpoint before
        assert d.inner_solves == 3 < d.iterations

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
        "build",
        [
            lambda: PowerMomentAmbiguity(M1=1.0, Mt=-1.0, t=2.0),
            lambda: ExpMomentAmbiguity(M1=1.0, Me=-1.0, t=1.0),
            lambda: ExpMomentAmbiguity(M1=1.0, Me=3.0, t=0.0),
        ],
        ids=["negative-Mt", "negative-Me", "zero-t"],
    )
    def test_infeasible_moments_are_typed(self, build):
        # an ambiguity set checks its moments when it is built
        with pytest.raises(InfeasibleError):
            optimize_order(NewsvendorInstance(ambiguity=build(), eta=0.9))

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
