"""Mean plus t-th power moment solver."""

import functools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from momentbound import core, power_moment
from momentbound.errors import (
    DomainError,
    InfeasibleError,
    MomentBoundError,
    NonFiniteError,
    RangeError,
    RootBracketError,
    UncertifiedError,
)
from momentbound.problems import PROBLEMS
from momentbound.power_moment import (
    PowerMomentAmbiguity,
    PowerMomentInstance,
    solve_power_moment,
)
from references import power_threshold, scarf_value, theta
from test_stream_pins import _workloads


def _random_instances(rng, n, interior_only=False):
    ts = [1.5, 2.0, 2.5, 3.0, 5.0, math.pi]
    out = []
    while len(out) < n:
        t = ts[len(out) % len(ts)]
        M1 = float(rng.uniform(0.5, 5.0))
        ratio = float(rng.uniform(1.05, 3.0))
        qr = float(rng.uniform(0.1, 4.0))
        inst = PowerMomentInstance(M1=M1, Mt=ratio * M1**t, t=t, q=qr * M1)
        if interior_only and inst.q <= power_threshold(inst):
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
        assert power_threshold(
            PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0)
        ) == pytest.approx(2.0, abs=1e-14)
        delta = 1e-9
        assert power_threshold(
            PowerMomentInstance(M1=1.0, Mt=1.0 + delta, t=2.0, q=0.1)
        ) == pytest.approx((1.0 + delta) / 2.0, abs=1e-12)
        assert power_threshold(
            PowerMomentInstance(M1=2.0, Mt=32.0, t=2.0, q=1.0)
        ) == pytest.approx(8.0, abs=1e-12)

    def test_threshold_is_the_largest_order_of_the_boundary_branch(self):
        # M1*(t-1)/t*edge rounds to either side of the solver's own branch test
        rng = np.random.default_rng(5)
        for i in range(4000):
            t = _T_VALUES[i % len(_T_VALUES)]
            M1 = float(rng.uniform(0.5, 5.0))
            probe = PowerMomentInstance(M1=M1, Mt=float(rng.uniform(1.05, 3.0)) * M1**t, t=t, q=M1)
            q = power_threshold(probe)
            at = solve_power_moment(PowerMomentInstance(M1=M1, Mt=probe.Mt, t=t, q=q))
            up = math.nextafter(q, math.inf)
            above = solve_power_moment(PowerMomentInstance(M1=M1, Mt=probe.Mt, t=t, q=up))
            assert (at.branch, above.branch) == (power_moment.BOUNDARY, power_moment.INTERIOR), (
                M1,
                probe.Mt,
                t,
            )


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
            if inst.q <= power_threshold(inst):
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
            if inst.q > power_threshold(inst):
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
            q_star = power_threshold(probe)
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


_T_VALUES = (1.5, 2.0, 2.5, 3.0, 5.0, math.pi)


def _near_threshold_instances(rng, n, lo, hi, t_near_one=False):
    """mp1t instances with q a relative 10^lo to 10^hi above the branch threshold.

    t cycles through _T_VALUES, or with ``t_near_one`` t - 1 is log-uniform
    on (0.01, 0.5).
    """
    out = []
    for i in range(n):
        if t_near_one:
            t = 1.0 + 10.0 ** float(rng.uniform(-2.0, math.log10(0.5)))
        else:
            t = _T_VALUES[i % len(_T_VALUES)]
        M1 = float(rng.uniform(0.5, 5.0))
        probe = PowerMomentInstance(M1=M1, Mt=float(rng.uniform(1.05, 3.0)) * M1**t, t=t, q=M1)
        q = power_threshold(probe) * (1.0 + 10.0 ** float(rng.uniform(lo, hi)))
        out.append(PowerMomentInstance(M1=M1, Mt=probe.Mt, t=t, q=q))
    return out


def _reference_value(inst):
    """The optimal value at 50 digits, from the float inputs taken as exact.

    Past the exact threshold, theta's root right of the edge is bisected
    with theta divided by v^(t-1) - mt, which removes its root at the edge;
    at 50 digits theta's cancellation costs nothing.  At or below the exact
    threshold the boundary closed form holds.  With t near 1 and a large
    edge, v^(t-1) - mt can cancel to 0 or below it at 50 digits, and the
    division or u^t of a negative u fails; such a draw is taken at 400.
    """
    try:
        return _reference_value_at(inst, 50)
    except (ZeroDivisionError, TypeError):
        return _reference_value_at(inst, 400)


def _reference_value_at(inst, digits):
    with mp.workdps(digits):
        M1, t = mp.mpf(inst.M1), mp.mpf(inst.t)
        mt, qs = mp.mpf(inst.Mt) / M1**t, mp.mpf(inst.q) / M1
        edge = mt ** (1 / (t - 1))
        if qs <= (t - 1) / t * edge:
            return M1 * (1 - qs / edge)
        c = t * qs / (t - 1)

        def lower(v):
            return c * (v ** (t - 1) - mt) / (v**t - mt)

        def theta(v):
            u = lower(v)
            return (v**t - mt) / (v - 1) * (1 - u) + u**t - mt

        lo, hi = edge, c  # the divided theta is negative at the edge and positive at c
        for _ in range(180):
            mid = (lo + hi) / 2
            if theta(mid) * (mid - 1) / (mid ** (t - 1) - mt) < 0:
                lo = mid
            else:
                hi = mid
        u = lower(hi)
        return M1 * (hi - qs) * (1 - u) / (hi - u)


class TestNearThreshold:
    """q from a few ulp to 1e-9 above the threshold, where theta is noise-flat.

    One ``brent`` search of psi locates the upper point v, and the pair
    built from it certifies with its 50-digit value.
    """

    def test_values_match_high_precision(self):
        # the t-near-1 draws include draws whose reference needs more than 50 digits
        rng = np.random.default_rng(2013)
        instances = _near_threshold_instances(rng, 60, -15.5, -9.0)
        instances += _near_threshold_instances(rng, 30, -15.5, -9.0, t_near_one=True)
        for inst in instances:
            rep = solve_power_moment(inst)
            assert rep.verification.passed, inst
            ref = _reference_value(inst)
            assert abs(rep.value - ref) <= 1e-12 * abs(ref), inst

    def test_boundary_answer_at_the_threshold_certifies(self):
        # q one ulp below the threshold with t near 1: the upper point is
        # 1.77e14 and H reads 0.656 there, on a mass of 2.3e-14, which puts
        # 1.4e-14 in the gap of a value of 3.85; the exact qs lies just past
        # the exact threshold, so the reference bisects the interior root
        inst = PowerMomentInstance(
            M1=4.102361664473614, Mt=35.51533933036764, t=1.0657898696147712, q=10929705124735.963
        )
        assert inst.q < power_threshold(inst)
        rep = solve_power_moment(inst)
        assert rep.branch == power_moment.BOUNDARY and rep.verification.passed
        assert rep.verification.slack_residual > 0.5
        ref = _reference_value(inst)
        assert abs(rep.value - ref) <= 1e-15 * abs(ref)

    # wide draws of the benchmark's solve_stream probe (seeds 7, 13 and 53)
    # with t near 1, where theta is float noise across hundreds of ulp
    # around its root
    @pytest.mark.parametrize(
        "M1, Mt, t, q",
        [
            (9391.679532775262, 9796.238817434021, 1.0046094452875527, 6438.166973922991),
            (6722.8281646879705, 15460.4119018824, 1.0944849176339675, 2374.0762855755065),
            (7.666832829851819, 7.736555520965843, 1.0011860985611671, 140.14481439657436),
        ],
    )
    def test_re_solve_threshold_follows_the_mean(self, M1, Mt, t, q):
        assert solve_power_moment(PowerMomentInstance(M1=M1, Mt=Mt, t=t, q=q)).verification.passed


@functools.lru_cache(maxsize=None)
def _probe_draws() -> tuple:
    """(instance, first candidate, its verification) for the wide mp1t probe draws, seeds 1-60.

    The draws are ``solve_stream``'s.  The first candidate is the answer
    before any retry, and its verification is ``verify_optimality``'s
    verdict on it, passed or not; the draws whose first answer the solver
    refuses before verification are left out.
    """
    workloads = _workloads()
    draws = []
    for seed in range(1, 61):
        for op in workloads.known_defect_ops("solve_stream", seed):
            if op.kind != "mp1t":
                continue
            try:
                inst = PowerMomentInstance(**op.params)
                c, gmp = power_moment._candidate(inst), power_moment.gmp_instance(inst)
                first = core.verify_optimality(gmp, c["dist"], c["cert"])
            except MomentBoundError:
                continue  # the probe's known refusals
            draws.append((inst, c, first))
    return tuple(draws)


def _retried_draws() -> tuple:
    """The ``_probe_draws`` whose first answer fails.

    Each first answer is interior, and its dual misses the gap (most also
    miss dual feasibility), with t below 1.15.  These are the draws that
    ``solve_power_moment`` retries: 382 of the 11 366 that it does not refuse.
    """
    return tuple(draw for draw in _probe_draws() if not draw[2].passed)


class TestRetry:
    """A first answer that fails its certificate is retried once.

    The retry keeps v and back-solves the tangency point w = u^(t-1) with
    one ``brent`` search of the tangency equation over all of [0, qs^(t-1)].
    The draws are ``_retried_draws``.
    """

    def test_fallback_cost(self):
        # a retry builds a second interior pair from exactly one back-solve,
        # a brent search of the tangency equation g; every evaluation of g
        # counts, the search's right end included.  A first answer that
        # certifies is returned with no retry.
        counts = {"_interior": 0, "_det_consistent_w": 0, "g": 0}

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == power_moment.__file__:
                if code.co_name in counts:
                    counts[code.co_name] += 1

        retries = kept = 0
        for inst, c, first in _probe_draws():
            for key in counts:
                counts[key] = 0
            sys.setprofile(profile)
            try:
                rep = solve_power_moment(inst)
            finally:
                sys.setprofile(None)
            if first.passed:
                interior = int(c["branch"] == power_moment.INTERIOR)
                assert counts["_interior"] == interior, inst
                assert counts["_det_consistent_w"] == 0 and counts["g"] == 0, inst
                assert repr(rep) == repr(core.Report(**c, verification=first)), inst
                kept += interior
                continue
            retries += 1
            assert rep.verification.passed, inst
            assert counts["_interior"] == 2 and counts["_det_consistent_w"] == 1, inst
            assert counts["g"] <= 10, inst
        assert retries >= 300 and kept >= 1000, (retries, kept)

    def test_back_solved_w_matches_high_precision(self, monkeypatch):
        # every w of the retries against g's root at 50 digits with the float k
        calls, real = [], power_moment._det_consistent_w

        def w_solve(v, inst):
            calls.append((v, inst, real(v, inst)))
            return calls[-1][2]

        monkeypatch.setattr(power_moment, "_det_consistent_w", w_solve)
        for inst, _, _ in _retried_draws():
            solve_power_moment(inst)
        checked = 0
        for v, inst, w in calls:
            t, qs = inst.t, inst.q_scaled
            k = v ** (t - 1.0) * (t * qs - (t - 1.0) * v)
            if k <= 0.0:
                continue  # w = 0 without a search
            with mp.workdps(50):
                mt, mq, mk, root = mp.mpf(t), mp.mpf(qs), mp.mpf(k), mp.mpf(w)
                for _ in range(8):  # Newton from w converges quadratically
                    g = mt * mq * root - (mt - 1) * root ** (mt / (mt - 1)) - mk
                    root -= g / (mt * (mq - root ** (1 / (mt - 1))))
                ulps = float(abs(w - root)) / math.ulp(float(root))
            assert ulps <= 4.0, (v, inst)
            checked += 1
        assert checked >= 300, checked


class TestRetryKeepsFirst:
    """A retry that raises or is refused leaves the first pair's refusal standing."""

    @pytest.fixture
    def draw(self, monkeypatch):
        """(instance, refusals raised after) for the first of ``_retried_draws``.

        Every ``UncertifiedError`` that ``core.certify`` raises from then on
        is kept, in order.
        """
        inst = _retried_draws()[0][0]
        refusals, real = [], core.certify

        def certify(gmp, candidate):
            try:
                return real(gmp, candidate)
            except UncertifiedError as refusal:
                refusals.append(refusal)
                raise

        monkeypatch.setattr(core, "certify", certify)
        return inst, refusals

    @pytest.mark.parametrize(
        "name, error",
        [
            ("_det_consistent_w", NonFiniteError("f(0.5) = nan")),
            ("_det_consistent_w", ZeroDivisionError("float division by zero")),
            ("_interior", RootBracketError("inconsistent support")),
        ],
    )
    def test_raising_retry_raises_the_first_refusal(self, monkeypatch, draw, name, error):
        inst, refusals = draw
        real, calls = getattr(power_moment, name), []

        def raising(*args):
            calls.append(args)
            if name == "_interior" and len(calls) == 1:
                return real(*args)  # the first answer's pair
            raise error

        monkeypatch.setattr(power_moment, name, raising)
        with pytest.raises(UncertifiedError) as refused:
            solve_power_moment(inst)
        assert len(refusals) == 1 and refused.value is refusals[0]
        assert refused.value.__cause__ is None and refused.value.__suppress_context__
        assert len(calls) == (2 if name == "_interior" else 1)

    def test_refused_retry_raises_the_first_refusal(self, monkeypatch, draw):
        # the retry rebuilds the first answer's pair, w = u^(t-1) at _u_from_v's u
        inst, refusals = draw

        def first_w(v, inst):
            return power_moment._u_from_v(v, inst, inst.edge_scaled) ** (inst.t - 1.0)

        monkeypatch.setattr(power_moment, "_det_consistent_w", first_w)
        with pytest.raises(UncertifiedError) as refused:
            solve_power_moment(inst)
        assert len(refusals) == 2 and refused.value is refusals[0]

    def test_refused_boundary_answer_is_not_retried(self, monkeypatch):
        # the boundary pair has no back-solve: its refusal is raised as it is
        real = power_moment._candidate

        def doubled_dual(inst):
            c = real(inst)
            return {**c, "cert": core.DualCertificate(z=tuple(2.0 * z for z in c["cert"].z))}

        def no_retry(v, inst):
            raise AssertionError("a boundary answer was retried")

        monkeypatch.setattr(power_moment, "_candidate", doubled_dual)
        monkeypatch.setattr(power_moment, "_det_consistent_w", no_retry)
        with pytest.raises(UncertifiedError, match="^boundary answer 0.75 "):
            solve_power_moment(PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0))


class TestRange:
    # t - 1 = 1e-3 puts the boundary support point mt^(1/(t-1)) at 10^1000
    INST = PowerMomentInstance(M1=1.0, Mt=10.0, t=1.001, q=1.0)

    def test_solve_raises_range_error(self):
        with pytest.raises(RangeError):
            solve_power_moment(self.INST)

    def test_upper_support_point_overflow_raises_range_error(self):
        # mt^(1/(t-1)) = 1e100 is finite, M1 times it is not
        inst = PowerMomentInstance(M1=1e300, Mt=1e308, t=1.02, q=1e300)
        with pytest.raises(RangeError, match="upper support point"):
            solve_power_moment(inst)

    # a wide fuzz draw on the boundary branch: M1 times the upper point
    # mt^(1/(t-1)) is about 2e306, and its t-th power, which the t-th moment
    # row takes, overflows
    BOUNDARY_POWER_OVERFLOW = (
        208.39960338468364,
        15002.964352317631,
        1.0060517443252834,
        507.2393697531986,
    )

    def test_upper_support_point_power_overflow_raises_range_error(self):
        inst = PowerMomentInstance(*self.BOUNDARY_POWER_OVERFLOW)
        assert inst.q <= power_threshold(inst)
        assert math.isfinite(inst.M1 * inst.edge_scaled)
        with pytest.raises(RangeError, match="upper support point .* t-th power overflows"):
            solve_power_moment(inst)

    # past the threshold: M1*v overflows though q/M1 = 1e297 and v (near
    # 5e299) do not; v^t overflows though M1*v (3e110) does not, where the
    # upper mass would underflow; y^(t-1) at the search's right end
    # 1.5*q/M1 overflows, once only as mt times expm1 and once in expm1
    INTERIOR_OUT_OF_RANGE = [
        (1e10, 1.5 * 1e10**1.001, 1.001, 1e307, r"upper support point M1\*v"),
        (1e-100, 2.0 * 1e-100**1.5, 1.5, 1e110, r"v\^t overflows"),
        (1.0, 2.0, 3.0, 1e154, r"y\^\(t-1\) overflows"),
        (1.0, 2.0, 3.0, 1e155, r"y\^\(t-1\) overflows"),
    ]

    @pytest.mark.parametrize("M1,Mt,t,q,match", INTERIOR_OUT_OF_RANGE)
    def test_interior_overflow_raises_range_error(self, M1, Mt, t, q, match):
        inst = PowerMomentInstance(M1=M1, Mt=Mt, t=t, q=q)
        assert inst.q > power_threshold(inst)
        with pytest.raises(RangeError, match=match):
            solve_power_moment(inst)

    def test_threshold_raises_range_error(self):
        with pytest.raises(RangeError):
            power_threshold(self.INST)

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
            PowerMomentAmbiguity(M1=M1, Mt=Mt, t=2.0)


class TestNearThresholdPowerOverflow:
    """q just above the threshold with t close to 1, where q/M1 passes 1e150.

    Squaring y - 1 or y^t - mt in theta's slope leaves float range there, and
    psi's products c*(y - 1) and y*(y^(t-1) - mt) do too unless they are
    taken in ratios to y.
    """

    # (M1, Mt, t, q); the slope's (y - 1)^2 or (y^t - mt)^2 overflows in the polish
    SLOPE_OVERFLOW = [
        (0.7605878737271132, 1.848105841335521, 1.0024504566107748, 5.462691530418538e154),
        (3.865399625286006, 11.060303893137206, 1.0029513132828953, 1.479988778702879e152),
        (2.920542241800814, 8.572613746648189, 1.0015497385115069, 8.91289626454005e298),
    ]
    # certified before the slope overflow was handled, and after
    CERTIFIED = [
        (4.536883074869121, 8.063275242416486, 1.0010522374519941, 2.380843519275736e234),
        (1.5159656061102316, 2.6511679924507328, 1.0011023201793023, 1.8082056391940842e217),
        (1.9863229470872676, 4.192123043449728, 1.0012121408895585, 4.9615310709694285e264),
        (0.7937694088186432, 1.7696575116067914, 1.001720278400348, 4.374882988873703e199),
        (4.421278893393854, 12.217941218891566, 1.001855571964497, 1.4887417761216375e235),
        (3.7208681061035542, 9.481113252659059, 1.0026433934334578, 1.2383038006504508e151),
        (4.2043995124154785, 7.390859166705805, 1.0010646923947324, 1.3541725582816184e227),
    ]

    @pytest.mark.parametrize("M1,Mt,t,q", SLOPE_OVERFLOW)
    def test_slope_overflow_ends_in_a_report(self, M1, Mt, t, q):
        rep = solve_power_moment(PowerMomentInstance(M1=M1, Mt=Mt, t=t, q=q))
        assert rep.branch == power_moment.INTERIOR
        assert 0.0 < rep.value < M1

    def test_slope_overflow_can_certify(self):
        rep = solve_power_moment(PowerMomentInstance(*self.SLOPE_OVERFLOW[2]))
        assert rep.verification.passed

    @pytest.mark.parametrize("M1,Mt,t,q", CERTIFIED)
    def test_large_q_stays_certified(self, M1, Mt, t, q):
        assert solve_power_moment(PowerMomentInstance(M1=M1, Mt=Mt, t=t, q=q)).verification.passed

    def test_theta_power_overflow_is_a_range_error(self):
        # the bracket's right end t*qs/(t-1) is about 1.6e308, and M1 times
        # the upper point found below it overflows
        inst = PowerMomentInstance(
            M1=4.1253095591400495,
            Mt=11.390850888585272,
            t=1.0014282806319683,
            q=9.700530357896013e305,
        )
        with pytest.raises(RangeError, match=r"upper support point M1\*v"):
            solve_power_moment(inst)


class TestLowerPointNearOne:
    """Wide draws with t near 10, where the lower point u rounds to 1.

    theta's (1 - u) and u^t - mt terms cancel there, and its sign at q/M1
    came out wrong, so these were refused; psi has neither term.  On the
    last draw u rounds to 1 + 2^-52, and is taken as 1: the lower point
    stays at the mean, and the value within 4e-11 of its 50-digit one.
    """

    @pytest.mark.parametrize(
        "M1, Mt, t, q",
        [
            (0.05357099723947925, 3.235239133708779e-11, 9.631247302827017, 17.434022353438294),
            (0.7113063327656711, 0.08548061429891077, 10.90008673191663, 107.26603634865559),
            (0.5831344234918705, 0.00764993443363204, 9.041056317730689, 88.90684502597726),
            (0.0010087197961654512, 1.211853684933705e-31, 10.318485552106779, 0.018984063745166802),
        ],
    )
    def test_certified_at_high_precision(self, M1, Mt, t, q):
        inst = PowerMomentInstance(M1=M1, Mt=Mt, t=t, q=q)
        rep = solve_power_moment(inst)
        assert rep.branch == power_moment.INTERIOR and rep.verification.passed
        assert rep.dist.points[0][0] <= M1
        ref = _reference_value(inst)
        assert abs(rep.value - ref) <= 1e-9 * abs(ref)


class TestAmbiguity:
    @pytest.mark.parametrize("Mt", [-1.0, 0.5, 1.0])  # negative; below or at M1^t
    def test_rejects_infeasible_moments(self, Mt):
        with pytest.raises(InfeasibleError):
            PowerMomentAmbiguity(M1=1.0, Mt=Mt, t=2.0)


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
        thr = power_threshold(amb.instance_at(1.0))
        vals = _values(amb, np.linspace(0.4 * thr, 2.5 * thr, 41))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        # no jump bigger than the local slope allows near the threshold
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(diffs) < 0.2
