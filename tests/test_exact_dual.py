"""The exact dual-feasibility minimum against the sampled scan it replaced.

Over the acceptance-sampler ranges of all three problems, the certified
verdict must equal the scan's, and the exact minimum of H over [0, inf) can
never lie above the scanned minimum by more than float cancellation allows:
1e-12 times |g| + sum |z_i h_i| at the scan's argmin.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from momentbound import exp_moment, partial_moment, power_moment
from momentbound.core import ToleranceSet
from momentbound.errors import InfeasibleError
from references import dual_scan, evaluate, scan_verification

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


def _unit(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _agrees_with_scan(module, inst, report):
    gmp = module.gmp_instance(inst)
    # scan ten times past the support, q and M1 (upm has no q; its kink is at 1)
    hi = 10.0 * max(report.dist.xs[-1], getattr(inst, "q", 1.0), inst.M1)
    tol = ToleranceSet()
    exact = report.verification
    assert exact.passed == scan_verification(gmp, report.dist, report.cert, tol, hi).passed
    scan_min, x = dual_scan(gmp, report.dist, report.cert, hi)
    scale = abs(float(evaluate(gmp.g, x))) + sum(
        abs(z * float(evaluate(h, x))) for z, h in zip(report.cert.z, gmp.hs)
    )
    assert exact.dual_min_on_grid <= scan_min + 1e-12 * scale


@SETTINGS
@given(
    t=st.sampled_from([1.5, 2.0, 2.5, 3.0, 5.0, math.pi]),
    M1=_unit(0.5, 5.0),
    ratio=_unit(1.05, 3.0),
    qr=_unit(0.1, 4.0),
)
def test_power_moment(t, M1, ratio, qr):
    inst = power_moment.PowerMomentInstance(M1=M1, Mt=ratio * M1**t, t=t, q=qr * M1)
    _agrees_with_scan(power_moment, inst, power_moment.solve_power_moment(inst))


@SETTINGS
@given(t=_unit(0.05, 2.0), m1=_unit(0.1, 4.5), ratio=_unit(1.05, 3.0), tq=_unit(0.1, 20.0))
def test_exp_moment(t, m1, ratio, tq):
    inst = exp_moment.ExpMomentInstance(M1=m1 / t, Me=ratio * math.exp(m1), t=t, q=tq / t)
    _agrees_with_scan(exp_moment, inst, exp_moment.solve_exp_moment(inst))


@SETTINGS
@given(
    xs=st.lists(_unit(0.0, 4.0), min_size=3, max_size=5, unique=True),
    weights=st.lists(_unit(0.05, 1.0), min_size=5, max_size=5),
)
# the moments of {0 w.p. 2/3, 2 w.p. 1/3}, on the feasibility boundary
@example(xs=[0.0, 2.0, 2.18e-243], weights=[0.5] * 5)
def test_partial_moment(xs, weights):
    """Moments of an explicit distribution, filtered as the acceptance sampler does.

    Moments on the feasibility boundary, where the two-point certificate is
    undefined, may only end in the solver's boundary refusal.
    """
    x = np.array(sorted(xs))
    p = np.array(weights[: len(x)])
    p = p / p.sum()
    M1 = float(x @ p)
    M2 = float((x**2) @ p)
    Mp = float(np.maximum(x - 1.0, 0.0) @ p)
    assume(M1 > 1e-6 and Mp > 1e-3 and M2 / M1**2 > 1.01)
    assume(M1 <= 2.0 * M1**2 / M2 and Mp > M1 - 1.0)
    inst = partial_moment.PartialMomentInstance(M1=M1, gamma=M2 / M1**2, Mplus=Mp)
    try:
        report = partial_moment.solve_partial_moment(inst)
    except InfeasibleError as exc:
        assert "sits on the feasibility boundary" in str(exc)
        assert inst.is_two_point() and partial_moment._near_boundary(inst)
        return
    _agrees_with_scan(partial_moment, inst, report)
