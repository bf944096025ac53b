"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Randomized suites use fixed seeds so the gate is deterministic.
"""

import math
import time

import numpy as np
import pytest

from momentbound.core import (
    DualCertificate,
    GmpInstance,
    ToleranceSet,
    verify_optimality,
)
from momentbound.exp_moment import (
    ExpMomentAmbiguity,
    ExpMomentInstance,
    phi,
    solve_exp_moment,
)
from momentbound.newsvendor import NewsvendorInstance, optimize_order
from momentbound.oracle import GridSpec, refine_until
from momentbound.partial_moment import (
    PartialMomentInstance,
    family_lower_bound,
    solve_partial_moment,
)
from momentbound.power_moment import (
    PowerMomentInstance,
    gmp_instance as power_gmp,
    solve_power_moment,
)
from references import (
    BRANCH_POINT,
    ExponentialDemand,
    enumerate_family,
    exp_threshold,
    lambert_w_minus1,
    power_threshold,
    scarf_value,
    theta,
    worst_case_objective,
)

T_VALUES = [1.5, 2.0, 2.5, 3.0, 5.0, math.pi]


def _report(number: int, label: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {state}{suffix}")
    assert passed, f"criterion {number} failed: {detail}"


def _sample_power_instances(rng, n):
    out = []
    while len(out) < n:
        t = T_VALUES[len(out) % len(T_VALUES)]
        M1 = float(rng.uniform(0.5, 5.0))
        ratio = float(rng.uniform(1.05, 3.0))
        qr = float(rng.uniform(0.1, 4.0))
        out.append(PowerMomentInstance(M1=M1, Mt=ratio * M1**t, t=t, q=qr * M1))
    return out


def _sample_exp_instances(rng, n):
    out = []
    while len(out) < n:
        t = float(rng.uniform(0.05, 2.0))
        M1 = float(rng.uniform(0.1, 4.5) / t)
        ratio = float(rng.uniform(1.05, 3.0))
        tq = float(rng.uniform(0.1, 20.0))
        out.append(ExpMomentInstance(M1=M1, Me=ratio * math.exp(t * M1), t=t, q=tq / t))
    return out


def _sample_upm_instances(rng, n):
    """Moments sampled from explicit distributions, so feasibility is built in."""
    out = []
    while len(out) < n:
        k = int(rng.integers(3, 6))
        xs = np.unique(rng.uniform(0.0, 4.0, size=k))
        if len(xs) < 3:
            continue
        ps = rng.dirichlet(np.ones(len(xs)))
        if ps.min() < 0.02:
            continue
        M1 = float(xs @ ps)
        M2 = float((xs**2) @ ps)
        Mp = float(np.maximum(xs - 1.0, 0.0) @ ps)
        if M1 <= 1e-6 or Mp <= 1e-3 or M2 / M1**2 <= 1.01:
            continue
        try:
            out.append(PartialMomentInstance(M1=M1, gamma=M2 / M1**2, Mplus=Mp))
        except Exception:
            continue
    return out


def test_criterion_1_certified_optimality_across_the_board():
    rng = np.random.default_rng(1001)
    power = _sample_power_instances(rng, 200)
    expo = _sample_exp_instances(rng, 200)
    upm = _sample_upm_instances(rng, 100)

    started = time.perf_counter()
    failures = []
    for inst in power:
        rep = solve_power_moment(inst)
        v = rep.verification
        if not v.passed or v.duality_gap > 1e-8 * max(1.0, abs(v.primal_value)):
            failures.append(("mp1t", inst))
    for inst in expo:
        rep = solve_exp_moment(inst)
        v = rep.verification
        if not v.passed or v.duality_gap > 1e-8 * max(1.0, abs(v.primal_value)):
            failures.append(("mp1e", inst))
    for inst in upm:
        rep = solve_partial_moment(inst)
        v = rep.verification
        if not v.passed or v.duality_gap > 1e-8 * max(1.0, abs(v.primal_value)):
            failures.append(("upm", inst))
    elapsed = time.perf_counter() - started

    _report(
        1,
        "certified optimality, 500 instances",
        not failures and elapsed < 2.0,
        f"failures={len(failures)}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_mean_variance_equivalence_at_t_2():
    rng = np.random.default_rng(1002)
    checked = 0
    worst = 0.0
    while checked < 50:
        M1 = float(rng.uniform(0.5, 5.0))
        ratio = float(rng.uniform(1.05, 3.0))
        qr = float(rng.uniform(0.1, 4.0))
        inst = PowerMomentInstance(M1=M1, Mt=ratio * M1**2, t=2.0, q=qr * M1)
        if inst.q <= power_threshold(inst):
            continue
        rep = solve_power_moment(inst)
        ref = scarf_value(M1, inst.Mt, inst.q)
        worst = max(worst, abs(rep.value - ref) / max(1e-300, abs(ref)))
        checked += 1
    _report(2, "closed-form equivalence at t=2", worst <= 1e-8, f"worst rel err={worst:.2e}")


def test_criterion_3_oracle_agreement_on_the_reference_sweep():
    started = time.perf_counter()
    M1, t = 50.0, 1.5
    Mt = 1.5 * M1**t
    worst = 0.0
    for q in range(60, 141, 10):
        inst = PowerMomentInstance(M1=M1, Mt=Mt, t=t, q=float(q))
        rep = solve_power_moment(inst)
        gmp = power_gmp(inst)
        hi = 1.05 * M1 * max(t * inst.q_scaled / (t - 1.0), inst.mt_scaled ** (1.0 / (t - 1.0)))
        grid = GridSpec(lo=0.0, hi=hi, n_points=2001, refine_around=tuple(rep.dist.xs))
        out = refine_until(gmp, grid, target_tol=1e-9, max_rounds=3)
        rel = abs(out.result.value - rep.value) / max(1.0, abs(rep.value))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    _report(
        3,
        "grid-LP agreement on the q sweep",
        worst <= 1e-7 and elapsed < 10.0,
        f"worst rel diff={worst:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_4_branch_continuity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        M1 = float(rng.uniform(0.5, 3.0))
        t = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        ratio = float(rng.uniform(1.1, 2.5))
        probe = PowerMomentInstance(M1=M1, Mt=ratio * M1**t, t=t, q=M1)
        thr = power_threshold(probe)
        at = solve_power_moment(PowerMomentInstance(M1=M1, Mt=probe.Mt, t=t, q=thr))
        above = solve_power_moment(
            PowerMomentInstance(M1=M1, Mt=probe.Mt, t=t, q=thr * (1.0 + 1e-9))
        )
        worst = max(worst, abs(above.value - at.value) / max(1e-300, abs(at.value)))
    for _ in range(20):
        t = float(rng.uniform(0.1, 1.5))
        M1 = float(rng.uniform(0.2, 3.0) / t)
        me = float(rng.uniform(1.1, 2.5)) * math.exp(t * M1)
        probe = ExpMomentInstance(M1=M1, Me=me, t=t, q=M1)
        thr = exp_threshold(probe)
        at = solve_exp_moment(ExpMomentInstance(M1=M1, Me=me, t=t, q=thr))
        above = solve_exp_moment(
            ExpMomentInstance(M1=M1, Me=me, t=t, q=thr * (1.0 + 1e-9))
        )
        worst = max(worst, abs(above.value - at.value) / max(1e-300, abs(at.value)))
    _report(4, "branch continuity at thresholds", worst <= 1e-6, f"worst rel gap={worst:.2e}")


def test_criterion_5_root_function_sign_conditions_and_iteration_bounds():
    rng = np.random.default_rng(1005)
    ok = True
    detail = ""

    checked = 0
    while checked < 100:
        inst = _sample_power_instances(rng, 1)[0]
        if inst.q <= power_threshold(inst):
            continue
        t, qs = inst.t, inst.q_scaled
        edge = inst.mt_scaled ** (1.0 / (t - 1.0))
        if theta(t * qs / (t - 1.0), inst) <= 0.0:
            ok, detail = False, "theta at right endpoint not positive"
            break
        if qs > edge:
            if theta(qs, inst) >= 0.0:
                ok, detail = False, "theta at q not negative"
                break
        else:
            if abs(theta(edge, inst)) > 1e-10 * max(1.0, inst.mt_scaled):
                ok, detail = False, "theta at the edge not zero"
                break
            if theta(edge + 1e-7 * edge, inst) >= 0.0:
                ok, detail = False, "theta right slope at the edge not negative"
                break
        rep = solve_power_moment(inst)
        width = t * qs / (t - 1.0) - max(edge, qs)
        cap = math.ceil(math.log2(width / 1e-10)) + 2
        if rep.bisect_iters > cap:
            ok, detail = False, f"iteration count {rep.bisect_iters} exceeds bound {cap}"
            break
        checked += 1

    if ok:
        checked = 0
        while checked < 100:
            inst = _sample_exp_instances(rng, 1)[0]
            if inst.q <= exp_threshold(inst):
                continue
            m1, qs = inst.m1_scaled, inst.q_scaled
            if phi(0.0, inst) >= 0.0:
                ok, detail = False, "phi(0) not negative"
                break
            if m1 > qs:
                if phi(qs, inst) <= 0.0:
                    ok, detail = False, "phi(q) not positive"
                    break
            else:
                if phi(m1 * (1.0 - 1e-12), inst) <= 0.0:
                    ok, detail = False, "phi near its pole not positive"
                    break
            rep = solve_exp_moment(inst)
            cap = math.ceil(math.log2(min(m1, qs) / 1e-10)) + 2
            if rep.bisect_iters > cap:
                ok, detail = False, f"iteration count {rep.bisect_iters} exceeds bound {cap}"
                break
            checked += 1

    _report(5, "root-function sign suites", ok, detail)


def test_criterion_6_degenerate_family_equality():
    rng = np.random.default_rng(1006)
    degenerate = [i for i in _sample_upm_instances(rng, 400) if not i.is_two_point()][:20]
    assert len(degenerate) == 20
    ok = True
    detail = ""
    for inst in degenerate:
        lb = family_lower_bound(inst)
        v1s = [lb + s for s in np.linspace(0.0, 4.0, 10)]
        reports = enumerate_family(inst, list(v1s))
        values = [r.value for r in reports]
        if max(values) - min(values) > 1e-10:
            ok, detail = False, f"family spread {max(values) - min(values):.2e}"
            break
        if not all(r.verification.passed for r in reports):
            ok, detail = False, "family member failed verification"
            break
    _report(6, "degenerate family equality", ok, detail)


def test_criterion_7_lambert_w_quality():
    assert lambert_w_minus1(BRANCH_POINT).w == -1.0
    rng = np.random.default_rng(1007)
    xs = np.sort(rng.uniform(BRANCH_POINT, -1e-300, size=1000))
    worst = 0.0
    ws = []
    for x in xs:
        res = lambert_w_minus1(float(x))
        ws.append(res.w)
        worst = max(worst, res.residual / max(1.0, abs(float(x))))
    monotone = all(b < a for a, b in zip(ws, ws[1:]))
    _report(
        7,
        "Lambert W residuals and monotonicity",
        worst <= 1e-12 and monotone,
        f"worst residual={worst:.2e}, monotone={monotone}",
    )


def test_criterion_8_newsvendor_reference_reproduction():
    lam = 1.0 / 50.0
    t = 0.01  # strictly below the exponential rate so the moment exists
    amb = ExpMomentAmbiguity.from_exponential_demand(lam=lam, t=t)
    demand = ExponentialDemand(lam=lam)

    q_stars = []
    ok = True
    detail = ""
    for eta in (0.9999, 0.99995, 0.99999):
        inst = NewsvendorInstance(ambiguity=amb, eta=eta, eps=1e-6)
        decision = optimize_order(inst)
        gt = demand.quantile(eta)
        if not (gt / 3.0 <= decision.q_star <= 3.0 * gt):
            ok, detail = False, f"q*={decision.q_star:.1f} vs quantile {gt:.1f}"
        q_stars.append(decision.q_star)
    if not (q_stars[0] <= q_stars[1] <= q_stars[2]):
        ok, detail = False, "order quantity not nondecreasing in eta"

    inst = NewsvendorInstance(ambiguity=amb, eta=0.9999, eps=1e-6)
    rng = np.random.default_rng(1008)
    for _ in range(20):
        q1, q2 = sorted(rng.uniform(0.0, 1500.0, size=2))
        mid = worst_case_objective(inst, 0.5 * (q1 + q2))
        if mid > 0.5 * (worst_case_objective(inst, q1) + worst_case_objective(inst, q2)) + 1e-8:
            ok, detail = False, f"midpoint convexity violated at ({q1:.1f}, {q2:.1f})"
            break
    _report(8, "robust newsvendor vs exponential ground truth", ok, detail)


def test_criterion_9_negative_controls():
    inst = PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0)
    rep = solve_power_moment(inst)
    gmp = power_gmp(inst)
    tol = ToleranceSet()

    ok = True
    detail = ""
    # corrupt each non-normalization moment target by 1e-3
    for i in range(1, len(gmp.ms)):
        ms = list(gmp.ms)
        ms[i] += 1e-3
        corrupted = GmpInstance(g=gmp.g, hs=gmp.hs, ms=tuple(ms), sense=gmp.sense)
        v = verify_optimality(corrupted, rep.dist, rep.cert, tol)
        if v.passed or v.primal_residual < 1e-3 / 2.0:
            ok, detail = False, f"corrupted moment {i} not caught on the primal residual"
    # the normalization row cannot even be corrupted: both container types
    # validate it at construction time
    with pytest.raises(Exception):
        GmpInstance(g=gmp.g, hs=gmp.hs, ms=(1.001,) + gmp.ms[1:], sense="max")

    # dual noise must break the duality gap or dual feasibility
    for i in range(len(rep.cert.z)):
        for sign in (+1.0, -1.0):
            z = list(rep.cert.z)
            z[i] += sign * 1e-3
            v = verify_optimality(gmp, rep.dist, DualCertificate(z=tuple(z)), tol)
            gap_broken = v.duality_gap > tol.gap * max(1.0, abs(v.primal_value))
            grid_broken = v.dual_min_on_grid < -tol.dual
            if v.passed or not (gap_broken or grid_broken):
                ok, detail = False, f"dual noise on z[{i}] not caught"
    _report(9, "negative controls", ok, detail)
