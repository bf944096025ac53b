"""Robust order-quantity optimization."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import momentbound
from momentbound import core, exp_moment, power_moment
from momentbound.cli import EXIT_SCHEMA, main
from momentbound.errors import (
    DomainError,
    InfeasibleError,
    MomentBoundError,
    RangeError,
    RootBracketError,
    UncertifiedError,
)
from momentbound.exp_moment import ExpMomentAmbiguity
from momentbound.newsvendor import NewsvendorInstance, optimize_order
from momentbound.power_moment import PowerMomentAmbiguity
from references import (
    ExponentialDemand,
    exp_threshold,
    mean_variance_order,
    power_moment_value_50,
    reference_optimize_order,
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
            threshold = exp_threshold(amb.instance_at(1.0))
        h = 1e-4
        branches = set()
        # the worst case is affine below the branch threshold and curved
        # above it; a central difference straddling the threshold is biased
        for ratio in (0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 10.0):
            q = ratio * threshold
            slope = (amb.solve(q + h).value - amb.solve(q - h).value) / (2.0 * h)
            assert abs(slope + _upper_mass(amb, q)) <= 1e-8, (q, slope)
            branches.add(amb.solve(q).branch)
        assert branches == {"boundary", "interior"}


class TestMeanVarianceOrder:
    """At t = 2 the robust order has a closed form (Scarf; Gallego & Moon)."""

    @pytest.mark.parametrize(
        "mu,cv", [(50.0, 1.0), (50.0, 0.5), (20.0, 0.25), (100.0, 0.9), (1.0, 1.0)]
    )
    @pytest.mark.parametrize("eta", [0.6, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-8, 1.0 - 1e-10])
    def test_order_matches_the_closed_form(self, mu, cv, eta):
        M2 = mu * mu * (1.0 + cv * cv)
        inst = NewsvendorInstance(ambiguity=PowerMomentAmbiguity(M1=mu, Mt=M2, t=2.0), eta=eta)
        d = optimize_order(inst)
        ref = mean_variance_order(mu, M2, eta)
        assert abs(d.q_star - ref) <= 1e-12 * ref
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
STREAM_SEEDS = (5, 6, 7)
STREAM_DECISIONS = 200  # the first decisions of each seed's benchmark stream


def _decision(kind: str, eta: float, eps: float = 1e-6):
    return optimize_order(NewsvendorInstance(ambiguity=AMBIGUITIES[kind], eta=eta, eps=eps))


def _check_certificate(inst: NewsvendorInstance, d) -> None:
    """Verified ends a <= q* <= b with p_hi(a) >= 1 - eta >= p_hi(b), each within its offset of q*.

    At q* > 0, q* is itself the end on the side of 1 - eta its own upper mass
    is on (both ends at a tie), with ``d.report`` as that end's report; a
    left end also needs the gap at q* within p_hi times the largest offset.
    """
    (a, b), (lo, up) = d.bracket, d.bracket_reports
    mass = 1.0 - inst.eta
    hi = inst.ambiguity.tail_cutoff(mass)
    q = d.q_star
    assert 0.0 <= a <= q <= b <= hi
    assert (lo is None) == (a == 0.0)
    assert (up is None) == (b == hi)
    if lo is not None:
        assert lo.verification.passed
        assert lo.dist.points[-1][1] >= mass
    if up is not None:
        assert up.verification.passed
        assert up.dist.points[-1][1] <= mass
    cap = max(inst.eps, 1e-9 * q)  # the largest offset an end may take
    if q > 0.0:  # an end equal to q* carries d.report
        p = d.report.dist.points[-1][1]
        own = (p >= mass and d.report.verification.duality_gap <= p * cap, p <= mass)
        assert (a == q, b == q) == own
        assert (lo is d.report, up is d.report) == own
        left, right = (q if own[0] else q - inst.eps), (q if own[1] else q + inst.eps)
    else:
        left, right = 0.0, inst.eps
    if d.iterations == 0:
        assert (a, b) == (max(left, 0.0), min(right, hi))
    assert q - a <= cap + math.ulp(q) and b - q <= cap + math.ulp(q)
    assert d.report.verification.passed


class TestCertifiedOrder:
    """q* comes in closed form; the worst cases at the bracket ends and at q* are verified."""

    @pytest.mark.parametrize("kind,eta", CELLS + DEEP_CELLS)
    def test_solve_budget(self, kind, eta, monkeypatch):
        # The worst case at q*, then the end on the other side of 1 - eta from
        # its upper mass, each verified once: 1 at a tie, where q* is both
        # ends, and at q* = 0, whose report is the one at b.  Each is solved,
        # but an mp1t one at q* > 0: that is the law q* came from, certified.
        # One v1 search per mp1e set.
        exp_moment.compute_v1.cache_clear()  # an earlier test's last v1 would be a free hit
        counts = Counter()
        module = power_moment if kind.startswith("mp1t") else exp_moment

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(core, "verify_optimality", counted("verify", core.verify_optimality))
        monkeypatch.setattr(module, "_candidate", counted("solves", module._candidate))
        d = optimize_order(NewsvendorInstance(ambiguity=_fresh(kind), eta=eta))
        ends = sum(r is not None and r is not d.report for r in d.bracket_reports)
        assert counts["verify"] == d.inner_solves == 1 + ends
        from_law = kind.startswith("mp1t") and d.q_star > 0.0
        assert counts["solves"] == (ends if from_law else d.inner_solves)
        a, b = d.bracket
        assert d.inner_solves == (2 if 0.0 < d.q_star and a < b else 1)
        assert d.iterations == 0
        assert exp_moment.compute_v1.cache_info().misses == (1 if kind.startswith("mp1e") else 0)

    @pytest.mark.parametrize("kind,eta", CELLS + DEEP_CELLS)
    def test_within_eps_of_the_verified_search(self, kind, eta):
        inst = NewsvendorInstance(ambiguity=AMBIGUITIES[kind], eta=eta)
        q_ref, objective_ref, _ = verified_order_search(inst)
        d = optimize_order(inst)
        assert abs(d.q_star - q_ref) <= inst.eps
        assert d.objective <= objective_ref * (1.0 + 1e-12)
        _check_certificate(inst, d)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_stream_decisions(self, seed):
        workloads = _workloads()
        stream = workloads.make_stream("newsvendor", seed)
        runner = workloads.Runner("newsvendor", momentbound, "")
        far = []
        for i in range(STREAM_DECISIONS):
            op = stream.next()
            inst = NewsvendorInstance(ambiguity=runner.ambiguity(op), eta=op.eta)
            d = optimize_order(inst)
            _check_certificate(inst, d)
            if abs(d.q_star - verified_order_search(inst)[0]) > inst.eps:
                far.append(i)
            if op.kind == "mp1t-2":
                ref = mean_variance_order(op.params["M1"], op.params["Mt"], op.eta)
                assert abs(d.q_star - ref) <= 1e-12 * ref
        assert far == []

    def test_tie_orders_nothing(self):
        # at t = 2 and Mt = 2*M1^2 the boundary branch has p_hi = 1/2 for every
        # q up to the threshold 1: at eta = 1/2 every q in [0, 1] is optimal
        amb = PowerMomentAmbiguity(M1=1.0, Mt=2.0, t=2.0)
        inst = NewsvendorInstance(ambiguity=amb, eta=0.5)
        d = optimize_order(inst)
        assert (d.q_star, d.objective, d.iterations, d.inner_solves) == (0.0, 1.0, 0, 1)
        assert d.bracket == (0.0, inst.eps)
        assert d.bracket_reports == (None, d.report)
        assert d.report.dist.points[-1][1] == 0.5
        _check_certificate(inst, d)

    def test_tail_cutoff_inside_eps(self):
        # the Markov cutoff 2.01e-9 lies below eps: b is the cutoff, where no
        # end solve is needed, so q* = 0 takes its report from a solve there
        amb = PowerMomentAmbiguity(M1=1e-9, Mt=4e-18, t=2.0)
        inst = NewsvendorInstance(ambiguity=amb, eta=0.01)
        d = optimize_order(inst)
        assert (d.q_star, d.objective, d.inner_solves) == (0.0, amb.M1, 1)
        assert d.bracket == (0.0, amb.tail_cutoff(0.99))
        assert d.bracket_reports == (None, None)
        _check_certificate(inst, d)

    @pytest.mark.parametrize("eps", [1e-9, 1e-11, 1e-13, 1e-15])
    def test_eps_near_float_resolution(self, eps):
        # the end solved at q* -+ eps steps outward where it rounds to q*
        # itself or its p_hi rounds to the wrong side of 1 - eta; on these
        # cells that takes an eps below 1e-14*q*, a few dozen ulp of q*
        widened = []
        for kind, eta in CELLS + DEEP_CELLS:
            inst = NewsvendorInstance(ambiguity=AMBIGUITIES[kind], eta=eta, eps=eps)
            d = optimize_order(inst)
            _check_certificate(inst, d)
            assert d.q_star == _decision(kind, eta).q_star  # the closed form reads no eps
            if d.iterations:
                widened.append(d.q_star)
        assert widened
        assert all(eps < 1e-14 * q for q in widened)

    @pytest.mark.parametrize("eps", [1e-6, 1e-15])
    @pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
    @pytest.mark.parametrize("kind,eta", [c for c in CELLS + DEEP_CELLS if c[1] > 0.5])
    def test_wrong_closed_form_is_refused(self, kind, eta, factor, eps, monkeypatch):
        # q* is certified first.  An mp1t law built at a wrong order fails its
        # own certificate where the verifier sees it: its dual does not depend
        # on q, so left of the law's order H < 0 at the upper point, and right
        # of it the gap is p_hi*(q - q_law).  In the deepest cells that gap,
        # 1e-6*q*(1 - eta), is within the verifier's absolute floor and the law
        # certifies; the gap over p_hi exceeds the largest end offset, so q*
        # is no left end, and the end solved left of it reads p_hi on the
        # wrong side.  mp1e solves at q*, and the end it then solves reads
        # p_hi on q*'s side of 1 - eta out to the largest offset.
        amb = AMBIGUITIES[kind]
        q, worst_case = amb._order_at_mass(1.0 - eta)
        certified_at_q = isinstance(amb, ExpMomentAmbiguity) or _certifies(worst_case, q * factor)
        cls = type(amb)
        monkeypatch.setattr(cls, "_order_at_mass", _scaled_order(cls, factor))
        if certified_at_q:
            refusal = pytest.raises(RootBracketError, match="wrong side of 1 - eta")
        else:
            refusal = pytest.raises(UncertifiedError, match="fails its certificate")
        with refusal:
            _decision(kind, eta, eps)

    def test_cli_refuses_a_wrong_closed_form(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "order.json"
        params = {"ambiguity": "mp1e", "exponential_lambda": 0.02, "t": 0.01, "eta": 1.0 - 1e-10}
        path.write_text(json.dumps({"problem": "newsvendor", "params": params}), encoding="utf-8")
        scaled = _scaled_order(ExpMomentAmbiguity, 1.0 + 1e-6)
        monkeypatch.setattr(ExpMomentAmbiguity, "_order_at_mass", scaled)
        assert main(["solve", str(path)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[0])["error"] == "RootBracketError"

    @pytest.mark.parametrize(
        "amb,mass",
        [
            (PowerMomentAmbiguity(M1=1.0, Mt=1e15, t=3.0), 1e-8),
            (ExpMomentAmbiguity(M1=2.0, Me=math.exp(2.0) * 1e30, t=1.0), 1e-6),
            (ExpMomentAmbiguity(M1=10.0, Me=math.exp(10.0) * 1e60, t=1.0), 1e-2),
        ],
        ids=["mp1t", "mp1e-1e30", "mp1e-1e60"],
    )
    def test_law_at_the_moment_bound_end(self, amb, mass):
        # the law with upper mass `mass` puts all but a rounding error of the
        # moment on its upper point: the right end of that point's search,
        # where mass*v^t (or mass*e^v) alone reaches the moment, reads an
        # excess <= 0 and is the point to float resolution
        inst = NewsvendorInstance(ambiguity=amb, eta=1.0 - mass)
        d = optimize_order(inst)
        assert abs(d.q_star - verified_order_search(inst)[0]) <= inst.eps
        assert d.inner_solves == 2  # q* and the end across 1 - eta from it
        _check_certificate(inst, d)
        if isinstance(amb, PowerMomentAmbiguity):  # q*'s law, whose point took no search
            assert d.report.bisect_iters == 0

    def test_order_beside_the_pole(self):
        # at 1 - eta = 1e-10 the worst case's lower point lies within 1e-5*m1 of
        # the scaled mean, the pole of phi; the gap coordinate keeps q* exact
        amb = ExpMomentAmbiguity.from_exponential_demand(lam=1.0 / 50.0, t=0.005)
        v1 = exp_moment.compute_v1(amb.m1_scaled, amb.Me)
        assert exp_moment._gap_at_mass(1e-10, amb, v1) < 1e-5 * amb.m1_scaled
        inst = NewsvendorInstance(ambiguity=amb, eta=1.0 - 1e-10)
        d = optimize_order(inst)
        assert d.inner_solves == 2  # q* and the end across 1 - eta from it
        assert abs(d.q_star - verified_order_search(inst)[0]) <= inst.eps
        _check_certificate(inst, d)


def _scaled_order(cls, factor: float):
    """cls._order_at_mass with its order times factor and its certifier kept."""
    real = cls._order_at_mass

    def scaled(self, mass):
        q, worst_case = real(self, mass)
        return q * factor, worst_case

    return scaled


def _certifies(worst_case, order: float) -> bool:
    try:
        worst_case(order)
    except UncertifiedError:
        return False
    return True


def _fresh(kind: str):
    """A new copy of a cell's ambiguity, with nothing computed on it yet."""
    amb = AMBIGUITIES[kind]
    return type(amb)(**{name: getattr(amb, name) for name in amb.__match_args__})


def _decisions():
    """The cells, then the first STREAM_DECISIONS decisions of stream seed 5, as (amb, eta)."""
    cases = [(AMBIGUITIES[k], eta) for k, eta in CELLS + DEEP_CELLS]
    workloads = _workloads()
    stream = workloads.make_stream("newsvendor", STREAM_SEEDS[0])
    runner = workloads.Runner("newsvendor", momentbound, "")
    for _ in range(STREAM_DECISIONS):
        op = stream.next()
        cases.append((runner.ambiguity(op), op.eta))
    return cases


def _mp1t_decisions():
    """The mp1t decisions among ``_decisions()``."""
    return [(amb, eta) for amb, eta in _decisions() if isinstance(amb, PowerMomentAmbiguity)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


# (M1, Mt, t, 1 - eta) of a harsh mp1t draw near the degenerate law: solves
# right of q* read p_hi above 1 - eta out to the largest offset, while the
# law at q* has p_hi at most 1 - eta.  So q* is its own right end, and the end
# that fails is the one no longer solved.
HARSH_MP1T_ORDER = (1119.162613419641, 1837.5575869148968, 1.0706314549359526, 8.561707541902185e-07)


class TestOneEndSolved:
    """q* is one end of its own bracket; the two-end reference decides the same order."""

    def test_same_decision_as_both_ends(self):
        ties = 0
        for amb, eta in _decisions():
            inst = NewsvendorInstance(ambiguity=amb, eta=eta)
            d, ref = optimize_order(inst), reference_optimize_order(inst)
            assert (d.q_star, d.objective, d.report) == (ref.q_star, ref.objective, ref.report)
            solved = 0
            for x, r, x_ref, r_ref in zip(d.bracket, d.bracket_reports, ref.bracket, ref.bracket_reports):
                if x == d.q_star > 0.0:  # the end equal to q* carries the worst case at q*
                    assert r is d.report
                else:  # the end solved is the reference's end on that side
                    assert (x, r) == (x_ref, r_ref)
                    solved += r is not None and r is not d.report
            assert solved <= 1
            assert d.inner_solves == 1 + solved
            assert d.inner_solves < ref.inner_solves or d.q_star == 0.0
            ties += d.bracket == (d.q_star, d.q_star)
        assert ties > 0

    def test_harsh_mp1t_order_is_its_own_right_end(self):
        M1, Mt, t, mass = HARSH_MP1T_ORDER
        inst = NewsvendorInstance(ambiguity=PowerMomentAmbiguity(M1=M1, Mt=Mt, t=t), eta=1.0 - mass)
        with pytest.raises(RootBracketError, match="on the right of the closed-form order"):
            reference_optimize_order(inst)
        d = optimize_order(inst)
        assert d.bracket[1] == d.q_star and d.bracket_reports[1] is d.report
        assert (d.inner_solves, d.iterations) == (2, 0)
        _check_certificate(inst, d)


# (M1, Mt, t, eta) of a harsh draw near the degenerate law whose right end's
# first pair fails its certificate; the retry's support dual certifies it
HARSH_RETRIED_END = (408.0758896540931, 409.4718267174778, 1.0005680698794241, 0.5111364076061596)


def test_harsh_order_decides_on_a_retried_end():
    M1, Mt, t, eta = HARSH_RETRIED_END
    inst = NewsvendorInstance(ambiguity=PowerMomentAmbiguity(M1=M1, Mt=Mt, t=t), eta=eta)
    d = optimize_order(inst)
    assert d.q_star == 408.13487856244507 and d.bracket == (d.q_star, 408.13487956244506)
    assert d.bracket_reports[0] is d.report and (d.inner_solves, d.iterations) == (2, 0)
    _check_certificate(inst, d)
    # the mass law's value is 5.1e-9 from its 50-digit value, 3.7e-11 of the objective
    ref = power_moment_value_50(M1, Mt, t, d.q_star) + (1.0 - eta) * d.q_star
    assert d.objective == pytest.approx(ref, rel=1e-10, abs=0.0)


class TestWorstCaseAtTheOrder:
    """An mp1t worst case at q* > 0 is the law q* came from, certified; mp1e solves at q*."""

    def test_mp1t_law_is_the_solve_at_the_order(self, monkeypatch):
        searched, real = [], power_moment._candidate

        def candidate(inst):
            searched.append(inst.q)
            return real(inst)

        monkeypatch.setattr(power_moment, "_candidate", candidate)
        ordered = 0
        for amb, eta in _mp1t_decisions():
            d = optimize_order(NewsvendorInstance(ambiguity=amb, eta=eta))
            if d.q_star == 0.0:
                continue
            ordered += 1
            assert d.q_star not in searched
            report, solved = d.report, amb.solve(d.q_star)
            assert report.branch == solved.branch
            assert _close(report.value, solved.value)
            for (x, p), (x_ref, p_ref) in zip(report.dist.points, solved.dist.points, strict=True):
                assert _close(x, x_ref) and _close(p, p_ref)
            assert all(map(_close, report.cert.z, solved.cert.z))
            # root and bisect_iters are the order's upper point and its search's count
            law = power_moment._upper_point_at_mass(1.0 - eta, amb, amb.edge_scaled)
            assert (report.root, report.bisect_iters) == law
            assert report.dist.points[-1][0] == amb.M1 * report.root
        assert ordered >= 20

    def test_mp1e_solves_at_the_order(self):
        # The law q* came from (the gap from _gap_at_mass, built by
        # _candidate's interior code) was measured to fail its certificate
        # here, its dual falling to -2.7e-7, while the solve at q* certifies.
        # On a wide mp1e sample it failed 198 of 7 683 decisions with q* > 0
        # that the solve makes: moving mp1e onto the mass law is a choice to
        # measure again, not a free speedup.
        amb = ExpMomentAmbiguity(
            M1=0.011799054128866917, Me=1.0000146481195002, t=0.0012414357108126745
        )
        d = optimize_order(NewsvendorInstance(ambiguity=amb, eta=0.9999405536733701))
        assert d.q_star == 1.168185123324314
        assert d.report.branch == "interior"
        assert d.report.verification.passed
        assert d.report == amb.solve(d.q_star)


class TestDecisionCost:
    """What q does not change is paid for once per decision."""

    def test_one_v1_per_moment_set(self):
        exp_moment.compute_v1.cache_clear()
        optimize_order(NewsvendorInstance(ambiguity=_fresh("mp1e-general"), eta=0.9))
        assert exp_moment.compute_v1.cache_info().misses == 1
        # an equal set is the memo's key: its decisions run none
        optimize_order(NewsvendorInstance(ambiguity=_fresh("mp1e-general"), eta=0.99))
        assert exp_moment.compute_v1.cache_info().misses == 1

    def test_order_past_the_exponent_limit_is_refused(self):
        # the closed-form order lies past t*q = 700, below the Chernoff cutoff
        # 704.5, and is refused as a solve there would be
        amb = ExpMomentAmbiguity(M1=690.0, Me=2.0 * math.exp(690.0), t=1.0)
        assert 700.0 < amb._order_at_mass(1e-6)[0] < amb.tail_cutoff(1e-6)
        with pytest.raises(RangeError) as refused:
            optimize_order(NewsvendorInstance(ambiguity=amb, eta=1.0 - 1e-6))
        assert str(refused.value) == "t*q and t*M1 must stay below 700 to avoid overflow"

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
        assert d.q_star == 690.5206919926019
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
        uppers = [power_moment._upper_point_at_mass(p, inst, edge)[0] for p in masses]
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
        assert decision.q_star == 0.0
        assert decision.objective == 1.0  # M1
        # the worst case at b, whose boundary law is a worst case at q = 0 too
        assert decision.report is decision.bracket_reports[1]
        assert decision.report.branch == "boundary"

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
        # q* and the one end across 1 - eta from it, and no end stepped out
        assert (d.inner_solves, d.iterations) == (2, 0)
        assert d.report in d.bracket_reports

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
