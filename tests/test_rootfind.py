"""Brent's bracketed search on known brackets."""

import math

import numpy as np
import pytest

from momentbound.errors import BracketError, NonFiniteError
from momentbound.power_moment import PowerMomentInstance
from momentbound.rootfind import brent
from references import theta


def _iteration_cap(width: float, eps: float) -> int:
    return math.ceil(math.log2(width / eps)) + 2


def _brent(f, a, b):
    return brent(f, a, b, f(a), f(b))


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

    @pytest.mark.parametrize("delta", [1e-14, 1e-18, 1e-24])
    def test_noisy_root_terminates(self, delta):
        # delta - (x - 1)^2, its square expanded, has a near-double root at
        # 1 - sqrt(delta), where the computed f is float noise over millions
        # of ulp: the search still ends there within twice bisection's count
        f = lambda x: delta - (x * x - 2.0 * x + 1.0)
        root, evals = _brent(f, 0.0, 1.0)
        assert 0.0 <= root <= 1.0 and abs(f(root)) <= 4.0 * 2.0**-52, root
        assert evals <= 2 * _iteration_cap(1.0, math.ulp(1.0))

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
