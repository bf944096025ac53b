"""Upper-partial-moment variance minimization."""

import json
import random

import numpy as np
import pytest

from momentbound import core, partial_moment
from momentbound.cli import EXIT_INFEASIBLE, main
from momentbound.core import DiscreteDistribution
from momentbound.errors import BranchError, FamilyParamError, InfeasibleError
from momentbound.partial_moment import (
    PartialMomentInstance,
    family_lower_bound,
    kappa,
    solve_partial_moment,
)
from references import enumerate_family, moments_of


def _upm_moments(dist: DiscreteDistribution):
    hs = (
        core.constant(),
        core.monomial(1.0),
        core.monomial(2.0),
        core.positive_part(1.0),
    )
    return moments_of(dist, hs)


def _random_feasible(rng, n):
    """Sample moments from actual distributions so feasibility is automatic."""
    out = []
    while len(out) < n:
        k = int(rng.integers(3, 6))
        xs = np.unique(np.round(rng.uniform(0.0, 4.0, size=k), 6))
        if len(xs) < 3:
            continue
        ps = rng.dirichlet(np.ones(len(xs)))
        if ps.min() < 0.02:
            continue
        M1 = float(xs @ ps)
        M2 = float((xs**2) @ ps)
        Mp = float(np.maximum(xs - 1.0, 0.0) @ ps)
        if M1 <= 1e-6 or Mp <= 1e-3:
            continue
        gamma = M2 / M1**2
        if gamma <= 1.01:
            continue
        try:
            out.append(PartialMomentInstance(M1=M1, gamma=gamma, Mplus=Mp))
        except InfeasibleError:
            continue
    return out


class TestKappa:
    def test_hand_example(self):
        inst = PartialMomentInstance(M1=0.5, gamma=2.0, Mplus=0.1)
        assert kappa(inst) == pytest.approx(0.1, abs=1e-13)

    def test_small_partial_moment_limit(self):
        inst = PartialMomentInstance(M1=0.5, gamma=2.0, Mplus=1e-9)
        assert kappa(inst) == pytest.approx((2.0 - 1.0) * 0.5, rel=1e-6)

    def test_second_hand_example(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        assert kappa(inst) == pytest.approx(np.sqrt(0.57), abs=1e-13)

    def test_boundary_moments_are_the_boundary_refusal(self, tmp_path, capsys):
        # the moments of {0 w.p. 2/3, 2 w.p. 1/3}, a law symmetric about 1: the
        # radicand evaluates to -1.1e-16, rounding error around its zero
        inst = PartialMomentInstance(M1=2.0 / 3.0, gamma=3.0, Mplus=1.0 / 3.0)
        assert kappa(inst) == 0.0
        with pytest.raises(InfeasibleError, match="sits on the feasibility boundary"):
            solve_partial_moment(inst)
        path = tmp_path / "boundary.json"
        params = {"M1": 2.0 / 3.0, "gamma": 3.0, "Mplus": 1.0 / 3.0}
        path.write_text(json.dumps({"problem": "upm", "params": params}), encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_INFEASIBLE
        assert "feasibility boundary" in capsys.readouterr().err

    def test_radicand_beyond_rounding_is_infeasible(self):
        # Mplus one percent above the boundary value: no two-point law exists
        inst = PartialMomentInstance(M1=2.0 / 3.0, gamma=3.0, Mplus=1.01 / 3.0)
        with pytest.raises(InfeasibleError, match="no two-point distribution"):
            kappa(inst)


def _symmetric_law_moments(d: float, p: float) -> PartialMomentInstance:
    """The moments of {1 - d w.p. 1 - p, 1 + d w.p. p}, rounded as a caller computes them."""
    lo, hi = 1.0 - d, 1.0 + d
    M1 = (1.0 - p) * lo + p * hi
    M2 = (1.0 - p) * lo * lo + p * hi * hi
    return PartialMomentInstance(M1=M1, gamma=M2 / M1**2, Mplus=p * d)


class TestFeasibilityBoundary:
    """Moments of two-point laws symmetric about 1 sit on the feasibility boundary.

    There kappa is rounding noise, so the certificate, which divides by it,
    may not hold: each such input ends in a certified answer or the
    boundary refusal, never an uncertified answer or a DomainError.
    """

    @staticmethod
    def _certified_or_boundary_refusal(inst):
        try:
            report = solve_partial_moment(inst)
        except InfeasibleError as exc:
            assert "sits on the feasibility boundary" in str(exc)
            return "refused"
        assert report.verification.passed, report.verification
        return "certified"

    @pytest.mark.parametrize(
        "moments",
        [
            # an uncertified answer (slack residual 1.3e-8) before the rounding band
            (1.1379436261094829, 1.3569134515124768, 0.41581517630889037),
            # DomainError: support points must be nonnegative, before the band
            (1.2464117960517858, 1.6046061232213373, 0.6232058980258929),
        ],
    )
    def test_pinned_boundary_moments_are_refused(self, moments):
        inst = PartialMomentInstance(*moments)
        assert self._certified_or_boundary_refusal(inst) == "refused"

    def test_symmetric_laws_certify_or_are_refused(self):
        rng = random.Random(12)
        outcomes = {"certified": 0, "refused": 0}
        for _ in range(2000):
            inst = _symmetric_law_moments(rng.uniform(0.01, 1.0), rng.uniform(0.01, 0.99))
            outcomes[self._certified_or_boundary_refusal(inst)] += 1
        # both outcomes occur: the band refuses only what does not certify
        assert min(outcomes.values()) > 0

    def test_moments_beyond_the_band_keep_their_refusal(self):
        # rounding of the inputs moves the bracket by at most a few ulp of its
        # terms; 1e-9 of Mplus is far outside that, and no two-point law exists
        inst = _symmetric_law_moments(0.5, 0.3)
        shifted = PartialMomentInstance(inst.M1, inst.gamma, inst.Mplus * (1.0 + 1e-9))
        with pytest.raises(InfeasibleError, match="no two-point distribution"):
            solve_partial_moment(shifted)


class TestInstanceValidation:
    def test_necessary_conditions(self):
        with pytest.raises(InfeasibleError):
            PartialMomentInstance(M1=0.5, gamma=0.9, Mplus=0.1)
        with pytest.raises(InfeasibleError):
            PartialMomentInstance(M1=0.5, gamma=2.0, Mplus=0.0)
        with pytest.raises(InfeasibleError):
            PartialMomentInstance(M1=1.5, gamma=2.0, Mplus=0.1)  # M1 > 2/gamma
        with pytest.raises(InfeasibleError):
            PartialMomentInstance(M1=0.9, gamma=2.0, Mplus=-0.2)

    def test_from_raw_normalization(self):
        # general (M1, M2, Mplus, q) = (1, 2, 0.2, 2) scaled down by q; the
        # normalized optimal variance is the raw one divided by q^2
        M1, M2, Mplus, q = 1.0, 2.0, 0.2, 2.0
        inst = PartialMomentInstance(M1=M1 / q, gamma=(M2 / q**2) / (M1 / q) ** 2, Mplus=Mplus / q)
        assert inst.M1 == pytest.approx(0.5)
        assert inst.gamma == pytest.approx(2.0)
        assert inst.Mplus == pytest.approx(0.1)


class TestTwoPointBranch:
    def test_hand_example_full(self):
        inst = PartialMomentInstance(M1=0.5, gamma=2.0, Mplus=0.1)
        rep = solve_partial_moment(inst)
        assert rep.branch == partial_moment.TWO_POINT
        assert rep.value == pytest.approx(0.04, abs=1e-12)
        assert kappa(inst) == pytest.approx(0.1, abs=1e-12)
        xs, ps = rep.dist.xs, rep.dist.ps
        assert xs == pytest.approx([0.25, 1.5], abs=1e-12)
        assert ps == pytest.approx([0.8, 0.2], abs=1e-12)
        # all four moments reproduced exactly
        assert _upm_moments(rep.dist) == pytest.approx([1.0, 0.5, 0.5, 0.1], abs=1e-12)
        assert rep.verification.passed

    def test_certificate_solves_tangency_system(self):
        # independent check: z must satisfy the 4x4 slackness/tangency system
        rng = np.random.default_rng(71)
        checked = 0
        for inst in _random_feasible(rng, 60):
            if not inst.is_two_point():
                continue
            rep = solve_partial_moment(inst)
            u, v = rep.dist.xs
            A = np.array(
                [
                    [1.0, u, u * u, 0.0],
                    [1.0, v, v * v, v - 1.0],
                    [0.0, 1.0, 2.0 * u, 0.0],
                    [0.0, 1.0, 2.0 * v, 1.0],
                ]
            )
            rhs = np.array([0.0, (v - 1.0) ** 2, 0.0, 2.0 * (v - 1.0)])
            z_ref = np.linalg.solve(A, rhs)
            assert np.allclose(rep.cert.z, z_ref, rtol=1e-8, atol=1e-10)
            checked += 1
        assert checked >= 10

    def test_support_ordering_and_dual_shape(self):
        rng = np.random.default_rng(73)
        checked = 0
        for inst in _random_feasible(rng, 80):
            if not inst.is_two_point():
                continue
            rep = solve_partial_moment(inst)
            u, v = rep.dist.xs
            assert 0.0 <= u < 1.0 < v
            z = rep.cert.z
            assert z[2] < 0.0
            # H(x) = z2 (x-u)^2 below the kink, (z2-1)(x-v)^2 above
            for x in np.linspace(0.0, 0.999, 23):
                h = z[0] + z[1] * x + z[2] * x * x
                assert h == pytest.approx(z[2] * (x - u) ** 2, abs=1e-9)
            for x in np.linspace(1.0, 3.0 * v, 23):
                h = z[0] + z[1] * x + z[2] * x * x + z[3] * (x - 1.0) - (x - 1.0) ** 2
                assert h == pytest.approx((z[2] - 1.0) * (x - v) ** 2, abs=2e-8 * max(1.0, x * x))
            checked += 1
        assert checked >= 10

    def test_duality(self):
        rng = np.random.default_rng(79)
        for inst in _random_feasible(rng, 40):
            rep = solve_partial_moment(inst)
            z = rep.cert.z
            dual = (
                z[0]
                + z[1] * inst.M1
                + z[2] * inst.gamma * inst.M1**2
                + z[3] * inst.Mplus
                - inst.Mplus**2
            )
            assert rep.value == pytest.approx(dual, rel=1e-8, abs=1e-10)


class TestOracleDominance:
    def test_grid_lp_lower_bounds_the_minimum(self):
        # the LP minimizes over a subset of distributions, so its value can
        # only exceed the true optimum; seeding the support closes the gap
        from momentbound.oracle import GridSpec, oracle_solve
        from momentbound.partial_moment import gmp_instance

        rng = np.random.default_rng(181)
        for inst in _random_feasible(rng, 6):
            rep = solve_partial_moment(inst)
            gmp = gmp_instance(inst)
            hi = 2.1 * max(float(rep.dist.xs[-1]), 1.0, inst.M1)
            coarse = oracle_solve(gmp, GridSpec(lo=0.0, hi=hi, n_points=301))
            target = rep.value + inst.Mplus**2  # LP optimizes the raw expectation
            assert coarse.value >= target - 1e-9
            assert len(coarse.dist.points) <= len(gmp.hs)  # basic solution
            seeded = oracle_solve(
                gmp,
                GridSpec(lo=0.0, hi=hi, n_points=301, refine_around=tuple(rep.dist.xs)),
            )
            assert seeded.value == pytest.approx(target, abs=1e-9 * max(1.0, abs(target)))


class TestDegenerateFamily:
    def test_branch_boundary_is_the_one_two_point_law(self):
        # the moments of {0 w.p. 6/7, x w.p. 1/7}, as hypothesis computed them:
        # rounding puts them 2.8e-17 inside this branch, where the mass at v1
        # computes to 0 and the family collapses to that law
        x = 1.517831187035585
        inst = PartialMomentInstance(
            M1=0.21683302671936927, gamma=7.000000000000002, Mplus=0.07397588386222642
        )
        assert not inst.is_two_point()
        rep = solve_partial_moment(inst)
        assert rep.branch == partial_moment.DEGENERATE_FAMILY
        assert rep.dist.xs == pytest.approx([0.0, x], rel=1e-14)
        assert rep.dist.ps == pytest.approx([6.0 / 7.0, 1.0 / 7.0], rel=1e-14)
        assert rep.verification.passed

    def test_hand_example_default_member(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        rep = solve_partial_moment(inst)
        assert rep.branch == partial_moment.DEGENERATE_FAMILY
        assert rep.value == pytest.approx(0.26, abs=1e-13)
        assert rep.root == pytest.approx(3.5)  # lower bound 2.5 plus 1
        assert rep.verification.passed

    def test_hand_example_chosen_member(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        rep = solve_partial_moment(inst, v1_choice=2.5)
        assert rep.value == pytest.approx(0.26, abs=1e-13)
        xs, ps = rep.dist.xs, rep.dist.ps
        assert xs == pytest.approx([0.0, 1.0, 2.5], abs=1e-12)
        assert ps == pytest.approx([0.7, 1.0 / 6.0, 2.0 / 15.0], abs=1e-12)
        assert _upm_moments(rep.dist) == pytest.approx([1.0, 0.5, 1.0, 0.2], abs=1e-12)
        assert rep.verification.passed

    def test_family_members_share_value(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        reports = enumerate_family(inst, [2.5, 3.0, 5.0])
        values = [r.value for r in reports]
        assert max(values) - min(values) <= 1e-10
        assert all(r.verification.passed for r in reports)

    def test_lower_bound_member_has_unit_point(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        lb = family_lower_bound(inst)
        rep = solve_partial_moment(inst, v1_choice=lb)
        assert rep.dist.xs[1] == pytest.approx(1.0, abs=1e-10)
        assert rep.verification.passed

    def test_empty_enumeration(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        assert enumerate_family(inst, []) == []

    def test_branch_error_on_two_point(self):
        inst = PartialMomentInstance(M1=0.5, gamma=2.0, Mplus=0.1)
        with pytest.raises(BranchError):
            enumerate_family(inst, [2.0])

    def test_family_param_error(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        with pytest.raises(FamilyParamError):
            solve_partial_moment(inst, v1_choice=2.0)  # below the 2.5 bound

    def test_degenerate_dual_is_closed_form(self):
        inst = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
        rep = solve_partial_moment(inst)
        assert rep.cert.z == (0.0, -1.0, 1.0, -1.0)
        for x in np.linspace(0.0, 0.999, 17):
            assert x * x - x <= 1e-15
        for x in np.linspace(1.0, 8.0, 17):
            h = -x + x * x - (x - 1.0) - (x - 1.0) ** 2
            assert h == pytest.approx(0.0, abs=1e-12)

    def test_moments_reproduced_across_family(self):
        rng = np.random.default_rng(83)
        checked = 0
        for inst in _random_feasible(rng, 120):
            if inst.is_two_point():
                continue
            lb = family_lower_bound(inst)
            for v1 in (lb, lb + 0.7, lb * 2.0 + 1.0):
                rep = solve_partial_moment(inst, v1_choice=v1)
                target = [1.0, inst.M1, inst.gamma * inst.M1**2, inst.Mplus]
                assert _upm_moments(rep.dist) == pytest.approx(target, rel=1e-10, abs=1e-12)
            checked += 1
            if checked >= 10:
                break
        assert checked >= 5
