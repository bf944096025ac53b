"""Brent's bracketed search, and the mp1t retry's back-solve that collapses a bracket with it."""

import math

import numpy as np
import pytest

from momentbound import power_moment
from momentbound.errors import BracketError, NonFiniteError
from momentbound.power_moment import PowerMomentInstance, _det_consistent_w
from momentbound.rootfind import brent
from references import theta


def _iteration_cap(width: float, eps: float) -> int:
    return math.ceil(math.log2(width / eps)) + 2


def _brent(f, a, b):
    return brent(f, a, b, f(a), f(b))


def _tangency(v, inst):
    """k and g of the back-solve at v: g(w) = t*qs*w - (t-1)*w^(t/(t-1)) - k."""
    t, qs = inst.t, inst.q_scaled
    k = v ** (t - 1.0) * (t * qs - (t - 1.0) * v)
    return k, lambda w: t * qs * w - (t - 1.0) * w ** (t / (t - 1.0)) - k


class TestCollapse:
    """The mp1t retry's back-solve: one brent search collapses [0, qs^(t-1)] onto w = u^(t-1)."""

    def test_linear(self):
        # t near 1 and v below c = t*qs/(t-1): the w^(t/(t-1)) term is 1e-20
        # of k at the root, so g is linear there and w = k/(t*qs) to the ulp
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=1.1, q=3.0)
        v = 0.99 * inst.t * inst.q_scaled / (inst.t - 1.0)
        k, _ = _tangency(v, inst)
        w = _det_consistent_w(v, inst)
        assert abs(w - k / (inst.t * inst.q_scaled)) <= math.ulp(w)

    def test_theta_bracket_recovers_mean_variance_bound(self):
        # scaled instance with t = 2 has the classical closed form as oracle:
        # w = u there, the lower point the moment conditions give at theta's root
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=6.0)
        v, _ = _brent(lambda y: theta(y, inst), 6.0, 12.0)
        u = _det_consistent_w(v, inst)
        assert u == pytest.approx((2.0 * 6.0 / 1.0) * (v - 2.0) / (v * v - 2.0), rel=1e-14)
        value = (v - 6.0) * (1.0 - u) / (v - u)
        assert value == pytest.approx((math.sqrt(26.0) - 5.0) / 2.0, rel=1e-14)

    def test_left_endpoint_root_converges_interior(self):
        # 1 to 8 ulp below c, g(0) = -k is about -1e-15: the search returns
        # the root, not the left end, though u = w^(1/(t-1)) lies far below
        # ulp(v)
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=1.5, q=2.0)
        v = inst.t * inst.q_scaled / (inst.t - 1.0)
        for _ in range(8):
            v = math.nextafter(v, 0.0)
            k, _ = _tangency(v, inst)
            w = _det_consistent_w(v, inst)
            assert 0.0 < w and abs(w - k / (inst.t * inst.q_scaled)) <= 2.0 * math.ulp(w), v
            assert w ** (1.0 / (inst.t - 1.0)) < 1e-10 * math.ulp(v)

    def test_bracket_error(self, monkeypatch):
        # where g's ends bracket nothing, no search runs: k <= 0 at and past c,
        # where roundoff can leave v, gives w = 0, and at v = qs, g's double
        # root, g(qs^(t-1)) <= 0 gives the right end
        def no_search(*args):
            raise BracketError("searched")

        monkeypatch.setattr(power_moment, "brent", no_search)
        for t in (1.01, 1.5, 2.0, 5.0):
            inst = PowerMomentInstance(M1=1.0, Mt=1.5 * 2.0**t, t=t, q=2.0)
            qs = inst.q_scaled
            c = t * qs / (t - 1.0)
            for v in (c, math.nextafter(c, math.inf), 2.0 * c):
                assert _det_consistent_w(v, inst) == 0.0, (t, v)
            assert _det_consistent_w(qs, inst) == qs ** (t - 1.0), t

    def test_non_finite(self):
        # both are errors the retry catches, keeping the first answer
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=3.0, q=2.0)
        with pytest.raises(NonFiniteError, match=r"^f\(0\.0\) = nan$"):
            _det_consistent_w(math.nan, inst)
        with pytest.raises(OverflowError):
            _det_consistent_w(1e300, inst)  # v^(t-1)

    def test_resolution_stall_terminates(self, monkeypatch):
        # v just above qs, by g's double root at w = qs^(t-1): g is float
        # noise over many ulp around its root, and the search still ends
        # there within twice bisection's count
        evals, real = [], power_moment.brent

        def counted(*args):
            root, n = real(*args)
            evals.append(n)
            return root, n

        monkeypatch.setattr(power_moment, "brent", counted)
        for t in (1.01, 1.1, 1.5):
            inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=t, q=1.5)
            qs, whi = inst.q_scaled, inst.q_scaled ** (t - 1.0)
            for rel in (1e-7, 1e-9, 1e-12):
                v = qs * (1.0 + rel)
                k, g = _tangency(v, inst)
                w = _det_consistent_w(v, inst)
                assert 0.0 <= w <= whi and abs(g(w)) <= 4.0 * 2.0**-52 * k, (t, rel)
            assert evals and max(evals) <= 2 * _iteration_cap(whi, math.ulp(whi)), t


class TestBracketedSearch:
    def test_linear(self):
        root, evals = _brent(lambda x: x - 1.1, 0.0, 2.0)
        assert abs(root - 1.1) <= 2.0 * math.ulp(1.1)
        assert evals <= 3  # the first secant step lands on the root

    def test_theta_bracket_recovers_mean_variance_bound(self):
        # scaled instance with t = 2 has the classical closed form as oracle
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=6.0)
        v, evals = _brent(lambda y: theta(y, inst), 6.0, 12.0)
        assert 6.0 < v < 12.0 and evals <= 12
        assert abs(theta(v, inst)) < 1e-13
        u = (2.0 * 6.0 / 1.0) * (v - 2.0) / (v * v - 2.0)
        value = (v - 6.0) * (1.0 - u) / (v - u)
        assert value == pytest.approx((math.sqrt(26.0) - 5.0) / 2.0, rel=1e-14)

    def test_end_values_are_taken_as_given(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3

        root, evals = brent(f, 0.0, 1.0, -0.3, 0.7)
        assert evals == len(calls) and 0.0 not in calls and 1.0 not in calls
        assert brent(f, 0.0, 1.0, -0.3, 0.0) == (1.0, 0)  # an exact zero at b
        assert brent(f, 0.0, 1.0, 0.0, 0.7) == (0.0, 0)  # or at a
        with pytest.raises(BracketError):
            brent(f, 0.0, 1.0, 0.3, 0.7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_message(self, bad):
        f = lambda x: bad if 0.2 < x < 0.3 else x - 0.25  # at the first secant step
        with pytest.raises(NonFiniteError, match=r"^f\(0\.25\) = (nan|inf|-inf)$"):
            brent(f, 0.0, 1.0, -0.25, 0.75)
        with pytest.raises(NonFiniteError, match=r"^f\(1\.0\) = "):
            brent(f, 0.0, 1.0, -0.25, bad)

    def test_resolution_stall_terminates(self):
        # the root is not a float and f jumps across it: the bracket closes
        # to a few ulp, and the search stops there
        r = 1e7 + 0.3
        root, evals = _brent(lambda x: -1.0 if x < r else 1.0, 1e7, 1e7 + 1.0)
        assert abs(root - r) <= 4.0 * math.ulp(r)
        assert evals <= 2 * _iteration_cap(1.0, math.ulp(r))
        root, _ = _brent(lambda x: x - 1e-310, 0.0, 1.0)  # subnormal root
        assert abs(root - 1e-310) <= 4.0 * math.ulp(1e-310)

    def test_random_brackets_within_bisection_bound(self):
        rng = np.random.default_rng(11)
        families = [
            lambda x, r: x - r,
            lambda x, r: x**3 - r**3,
            lambda x, r: math.exp(x) - math.exp(r),
            lambda x, r: math.tanh(20.0 * (x - r)),
            lambda x, r: (x - r) * (1.0 + 100.0 * (x - r) ** 2),
        ]
        for _ in range(200):
            f0 = families[rng.integers(len(families))]
            r = rng.uniform(0.2, 0.8)
            a, b = rng.uniform(-2.0, r - 1e-3), rng.uniform(r + 1e-3, 3.0)
            root, evals = _brent(lambda x: f0(x, r), a, b)
            assert abs(root - r) <= 4.0 * math.ulp(r)
            # no more evaluations than bisection would need to reach float
            # resolution of the root
            assert evals <= _iteration_cap(b - a, math.ulp(r))
