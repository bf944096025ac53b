"""Cross-check solver outputs against 50-digit solutions of the optimality systems.

The interior optimum of each problem satisfies a small nonlinear system in
the support points (equal-slope moment consistency plus the tangency
determinant); solving those systems with mpmath at 50 digits gives a fully
independent reference for the reported optimal values.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from momentbound.exp_moment import (
    ExpMomentInstance,
    boundary_threshold as exp_threshold,
    solve_exp_moment,
)
from momentbound.partial_moment import PartialMomentInstance, solve_partial_moment
from momentbound.power_moment import (
    PowerMomentInstance,
    boundary_threshold as power_threshold,
    solve_power_moment,
)
from references import exp_moment_value_50

mp.mp.dps = 50


def test_power_moment_matches_high_precision_system():
    rng = np.random.default_rng(161)
    checked = 0
    while checked < 5:
        t = float(rng.choice([1.5, 2.5, 3.0, math.pi]))
        M1 = float(rng.uniform(0.5, 4.0))
        ratio = float(rng.uniform(1.05, 3.0))
        inst = PowerMomentInstance(
            M1=M1, Mt=ratio * M1**t, t=t, q=float(rng.uniform(0.1, 4.0)) * M1
        )
        if inst.q <= power_threshold(inst):
            continue
        rep = solve_power_moment(inst)
        mtv, qs, tt = mp.mpf(ratio), mp.mpf(inst.q) / mp.mpf(M1), mp.mpf(t)
        c = tt * qs / (tt - 1)

        def eqs(u, v):
            e1 = (mtv - u**tt) * (1 - v) - (mtv - v**tt) * (1 - u)
            e2 = (v**tt - u**tt) - c * (v ** (tt - 1) - u ** (tt - 1))
            return e1, e2

        u_s, v_s = mp.findroot(
            eqs, (mp.mpf(max(rep.dist.xs[0] / M1, 1e-12)), mp.mpf(rep.root))
        )
        ref = M1 * float((v_s - qs) * (1 - u_s) / (v_s - u_s))
        assert rep.value == pytest.approx(ref, rel=1e-12)
        checked += 1


def test_power_moment_deep_tail_value_matches_scarf():
    # q = 1e5 puts the lower support point at u = 1 - 5e-6, where 1 - u
    # magnifies u's rounding error 2e5-fold; the value takes the upper mass
    # from the t-th moment row instead
    rep = solve_power_moment(PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=1e5))
    d = mp.mpf(1e5) - 1
    ref = (mp.sqrt(1 + d * d) - d) / 2  # Scarf's bound at mean 1, variance 1
    assert rep.dist.xs[0] > 0.9
    assert abs((rep.value - ref) / ref) <= 1e-14
    assert rep.verification.passed


def test_exp_moment_matches_high_precision_system():
    rng = np.random.default_rng(163)
    checked = 0
    while checked < 5:
        t = float(rng.uniform(0.1, 1.5))
        M1 = float(rng.uniform(0.3, 3.5) / t)
        me = float(rng.uniform(1.05, 2.8)) * math.exp(t * M1)
        tq = float(rng.uniform(0.5, 15.0))
        inst = ExpMomentInstance(M1=M1, Me=me, t=t, q=tq / t)
        if inst.q <= exp_threshold(inst):
            continue
        rep = solve_exp_moment(inst)
        m1s, mes, qss = mp.mpf(t) * mp.mpf(M1), mp.mpf(me), mp.mpf(tq)

        def eqs(u, v):
            e1 = (mes - mp.e**u) * (v - m1s) - (mp.e**v - mes) * (m1s - u)
            e2 = v * mp.e**v - u * mp.e**u - (qss + 1) * (mp.e**v - mp.e**u)
            return e1, e2

        u_s, v_s = mp.findroot(
            eqs, (mp.mpf(max(rep.root, 1e-12)), mp.mpf(rep.dist.xs[1] * t))
        )
        ref = float((v_s - qss) * (m1s - u_s) / (v_s - u_s)) / t
        assert rep.value == pytest.approx(ref, rel=1e-12)
        checked += 1


@pytest.mark.parametrize(
    "M1,Me,t,q,rel",
    [
        # the lower support point lies 2.2e-5 below t*M1 = 2.103: its gap
        # read off u would be good to 1e-11 only
        (9.502933861922534, 22.818063657826368, 0.22130073992893218, 68.03057712041037, 1e-13),
        # a tail of 1.2e-15 with Me only 2.2e-5 above exp(t*M1): rounding
        # exp(t*M1) to a double moves the answer by about 5e-12
        (102.14146300275411, 1.0579316136372, 5.511345951573997e-4, 54742.50786228612, 1e-11),
        # the lower support point rounds to t*M1: its gap is 1.3e-21
        (50.0, 2.0, 0.01, 5000.0, 1e-13),
        # (Me - e^u)^2 is past float range
        (300.0, 1e160, 1.0, 400.0, 1e-13),
    ],
)
def test_exp_moment_deep_and_near_pole_values_match_high_precision(M1, Me, t, q, rel):
    rep = solve_exp_moment(ExpMomentInstance(M1=M1, Me=Me, t=t, q=q))
    assert rep.verification.passed
    assert rep.value == pytest.approx(exp_moment_value_50(M1, Me, t, q), rel=rel, abs=0.0)


def test_exp_moment_50_digit_reference():
    # the reference's own values against the ones quoted for these instances
    assert exp_moment_value_50(
        9.502933861922534, 22.818063657826368, 0.22130073992893218, 68.03057712041037
    ) == pytest.approx(7.03874122074082e-6, rel=1e-14, abs=0.0)
    assert exp_moment_value_50(
        102.14146300275411, 1.0579316136372, 5.511345951573997e-4, 54742.50786228612
    ) == pytest.approx(1.22587977968e-15, rel=1e-11, abs=0.0)
    golden = exp_moment_value_50(1.0, math.e**2, 1.0, 5.0)
    assert golden == pytest.approx(0.0120595597450255343, rel=1e-15, abs=0.0)


def test_partial_moment_matches_high_precision_system():
    rng = np.random.default_rng(167)
    checked = 0
    while checked < 5:
        xs = np.unique(rng.uniform(0.0, 4.0, size=int(rng.integers(3, 6))))
        if len(xs) < 3:
            continue
        ps = rng.dirichlet(np.ones(len(xs)))
        if ps.min() < 0.02:
            continue
        M1 = float(xs @ ps)
        M2 = float((xs**2) @ ps)
        Mp = float(np.maximum(xs - 1.0, 0.0) @ ps)
        if M1 <= 1e-6 or Mp <= 1e-3 or M2 / M1**2 <= 1.02:
            continue
        try:
            inst = PartialMomentInstance(M1=M1, gamma=M2 / M1**2, Mplus=Mp)
        except Exception:
            continue
        if not inst.is_two_point():
            continue
        rep = solve_partial_moment(inst)
        m1m, m2m, mpm = mp.mpf(M1), mp.mpf(M2), mp.mpf(Mp)

        def eqs(u, v, p1, p2):
            return (
                p1 + p2 - 1,
                u * p1 + v * p2 - m1m,
                u * u * p1 + v * v * p2 - m2m,
                (v - 1) * p2 - mpm,
            )

        u0, v0 = rep.dist.xs
        p0 = rep.dist.ps
        u_s, v_s, p1_s, p2_s = mp.findroot(
            eqs, tuple(map(mp.mpf, (max(u0, 1e-9), v0, p0[0], p0[1])))
        )
        ref = float((v_s - 1) ** 2 * p2_s - mpm**2)
        assert rep.value == pytest.approx(ref, rel=1e-12, abs=1e-14)
        checked += 1
