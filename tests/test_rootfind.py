"""Bisection."""

import math

import numpy as np
import pytest

from momentbound.errors import BracketError, NonFiniteError
from momentbound.power_moment import PowerMomentInstance, theta
from momentbound.rootfind import EXACT_ZERO, TOLERANCE_REACHED, bisect


def _iteration_cap(width: float, eps: float) -> int:
    return math.ceil(math.log2(width / eps)) + 2


class TestBisect:
    def test_linear(self):
        res = bisect(lambda x: x - 1.0, 0.0, 2.0, 1e-10)
        assert res.root == pytest.approx(1.0, abs=1e-10)
        assert res.iterations <= _iteration_cap(2.0, 1e-10)
        assert res.root > 0.0

    def test_theta_bracket_recovers_mean_variance_bound(self):
        # scaled instance with t = 2 has the classical closed form as oracle
        inst = PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=6.0)
        res = bisect(lambda y: theta(y, inst), 6.0, 12.0, 1e-12)
        v = res.root
        assert 6.0 < v < 12.0
        assert abs(theta(v, inst)) < 1e-9
        u = (2.0 * 6.0 / 1.0) * (v - 2.0) / (v * v - 2.0)
        value = (v - 6.0) * (1.0 - u) / (v - u)
        assert value == pytest.approx((math.sqrt(26.0) - 5.0) / 2.0, abs=1e-10)

    def test_left_endpoint_root_converges_interior(self):
        # f(a) = 0, f < 0 just right of a, and f(b) > 0: the probe rule must
        # send the search to the interior root, never return a itself
        a, b = 1.0, 3.0
        mid = 0.5 * (a + b)
        f = lambda x: (x - a) * (x - mid)
        res = bisect(f, a, b, 1e-10)
        assert res.root == pytest.approx(mid, abs=1e-9)
        assert res.root > a

    def test_assume_left_root_skips_probe(self):
        # f(a) is tiny but nonzero; the caller asserts the left-root case
        a, b = 1.0, 3.0
        f = lambda x: (x - a - 1e-18) * (x - 2.0)
        res = bisect(f, a, b, 1e-10, assume_left_root=True)
        assert res.root == pytest.approx(2.0, abs=1e-9)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x * x + 1.0, 0.0, 1.0, 1e-8)

    def test_left_zero_with_same_sign_interior_raises(self):
        # f(a) = 0 but f > 0 immediately right of a and f(b) > 0
        with pytest.raises(BracketError):
            bisect(lambda x: x * (x + 2.0), 0.0, 1.0, 1e-8)

    def test_non_finite(self):
        def f(x):
            return math.nan if 0.4 < x < 0.6 else x - 0.25

        with pytest.raises(NonFiniteError):
            bisect(f, 0.0, 1.0, 1e-10)

    def test_exact_zero_status(self):
        res = bisect(lambda x: x - 1.0, 0.0, 2.0, 1e-10)
        assert res.status == EXACT_ZERO  # midpoint hits 1.0 exactly
        res2 = bisect(lambda x: x - 1.1, 0.0, 2.0, 1e-6)
        assert res2.status == TOLERANCE_REACHED

    def test_iteration_bound_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = rng.uniform(0.2, 0.8)
            a, b = 0.0, 1.0
            eps = 10.0 ** rng.uniform(-12, -4)
            res = bisect(lambda x: x - r, a, b, eps)
            assert res.iterations <= _iteration_cap(b - a, eps)
            assert abs(res.root - r) <= eps or res.status == EXACT_ZERO

    def test_resolution_stall_terminates(self):
        # eps far below float resolution of the bracket must still terminate
        res = bisect(lambda x: x - 1e7 - 0.3, 1e7, 1e7 + 1.0, 1e-300)
        assert res.root == pytest.approx(1e7 + 0.3, rel=1e-12)

