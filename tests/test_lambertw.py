"""Lambert W branches against independent references."""

import math

import numpy as np
import pytest
import scipy.special

from momentbound.errors import DomainError
import references as lambertw
from references import BRANCH_POINT, lambert_w_minus1


def _bisect_lower_branch(x: float) -> float:
    """Independent root of w*exp(w) = x on (-50, -1), plain bisection."""
    lo, hi = -50.0, -1.0
    g = lambda w: w * math.exp(w) - x
    assert g(lo) > 0.0 > g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLowerBranch:
    def test_branch_point_exact(self):
        assert lambert_w_minus1(BRANCH_POINT).w == -1.0

    def test_minus_point_one(self):
        w = lambert_w_minus1(-0.1).w
        assert w == pytest.approx(_bisect_lower_branch(-0.1), abs=1e-12)
        assert w == pytest.approx(-3.577152063957297, abs=1e-12)

    def test_known_exact_value(self):
        # w = -2 gives x = -2 e^-2 exactly
        res = lambert_w_minus1(-2.0 * math.exp(-2.0))
        assert res.w == pytest.approx(-2.0, abs=1e-13)
        assert res.residual <= 1e-14

    def test_against_scipy(self):
        rng = np.random.default_rng(17)
        xs = rng.uniform(BRANCH_POINT + 1e-9, -1e-12, size=200)
        for x in xs:
            mine = lambert_w_minus1(float(x)).w
            ref = float(scipy.special.lambertw(float(x), -1).real)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        ws = rng.uniform(-20.0, -1.01, size=1000)
        for w in ws:
            x = float(w * math.exp(w))
            back = lambert_w_minus1(x)
            assert back.w == pytest.approx(float(w), rel=1e-10)
            assert back.residual <= 1e-12 * max(1.0, abs(x))

    def test_monotone_decreasing(self):
        xs = np.linspace(BRANCH_POINT + 1e-10, -1e-6, 500)
        ws = [lambert_w_minus1(float(x)).w for x in xs]
        assert all(b < a for a, b in zip(ws, ws[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w_minus1(-0.5)  # below -1/e
        with pytest.raises(DomainError):
            lambert_w_minus1(0.0)
        with pytest.raises(DomainError):
            lambert_w_minus1(0.1)

    # away from -1/e, where w*e^w - x is flat and 1e-12 is below its
    # double-precision resolution, and from subnormal x, where e^w is
    @pytest.mark.parametrize("x", [-0.35, -0.3, -0.1, -1e-5, -1e-100, -1e-300])
    def test_bisection_fallback(self, x, monkeypatch):
        # Halley's first pass lands on the upper branch W_0(x) > -1, so the
        # fallback must bracket the lower root and search it
        real_halley, real_brent = lambertw._halley, lambertw.brent
        upper = float(scipy.special.lambertw(x, 0).real)
        calls, brackets = [], []

        def halley(x_, w):
            calls.append(w)
            return upper if len(calls) == 1 else real_halley(x_, w)

        def brent(f, lo, hi, f_lo, f_hi):
            brackets.append((lo, hi))
            return real_brent(f, lo, hi, f_lo, f_hi)

        monkeypatch.setattr(lambertw, "_halley", halley)
        monkeypatch.setattr(lambertw, "brent", brent)
        w = lambert_w_minus1(x).w
        assert len(calls) == 2 and len(brackets) == 1
        (lo, hi), g = brackets[0], lambda v: v * math.exp(v) - x
        assert g(lo) > 0.0 > g(hi)
        assert w <= -1.0
        assert w == pytest.approx(float(scipy.special.lambertw(x, -1).real), rel=1e-12, abs=0.0)

    def test_at_most_minus_one(self):
        rng = np.random.default_rng(31)
        xs = rng.uniform(BRANCH_POINT, -1e-12, size=300)
        for x in xs:
            assert lambert_w_minus1(float(x)).w <= -1.0
