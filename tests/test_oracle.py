"""Grid-LP oracle and the two-phase simplex behind it."""

import math

import numpy as np
import pytest
import scipy.optimize

from momentbound import core, exp_moment, power_moment
from momentbound.core import GmpInstance
from momentbound.errors import DomainError
from momentbound.oracle import (
    _DEGENERATE_RUN,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    GridSpec,
    _run,
    _two_phase_simplex,
    oracle_solve,
    refine_until,
)
from momentbound.problems import PROBLEMS
from references import moments_of


def _mean_instance(mean: float, hi: float, g=None) -> GmpInstance:
    return GmpInstance(
        g=g if g is not None else core.positive_part(0.5),
        hs=(core.constant(), core.monomial(1.0)),
        ms=(1.0, mean),
        sense="max",
        support_hi=hi,
    )


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(lo=2.0, hi=1.0, n_points=10)
        with pytest.raises(DomainError):
            GridSpec(lo=0.0, hi=1.0, n_points=1)

    def test_refine_points_are_exact(self):
        spec = GridSpec(lo=0.0, hi=8.0, n_points=11, refine_around=(4.0, 3.3333,))
        pts = spec.points()
        assert 4.0 in pts
        assert 3.3333 in pts
        assert np.all(np.diff(pts) > 0)

    def test_doubled_keeps_old_points(self):
        spec = GridSpec(lo=0.0, hi=1.0, n_points=5)
        fine = spec.doubled()
        assert fine.n_points == 9
        assert set(spec.points()).issubset(set(fine.points()))


class TestOracleSolve:
    def test_three_point_enumeration_example(self):
        # max sum (x-0.5)+ p over grid {0,1,2} with mean 1: vertices are
        # p = (0, 1, 0) and p = (0.5, 0, 0.5); the second wins with 0.75
        inst = _mean_instance(1.0, 2.0)
        res = oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=3))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.75, abs=1e-12)
        assert res.dist.points == ((0.0, 0.5), (2.0, 0.5))

    def test_infeasible_moments(self):
        inst = _mean_instance(5.0, 2.0)
        res = oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=21))
        assert res.status == INFEASIBLE
        assert res.dist is None
        assert math.isnan(res.value)
        assert res.pivots[0] > 0 and res.pivots[1] == 0  # phase 2 never ran

    def test_exact_when_support_on_grid(self):
        pm = power_moment.PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0)
        rep = power_moment.solve_power_moment(pm)
        gmp = power_moment.gmp_instance(pm, rep.dist)
        res = oracle_solve(gmp, GridSpec(lo=0.0, hi=8.0, n_points=4001, refine_around=(4.0,)))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.75, abs=1e-9)

    def test_constraints_and_own_dual_slackness(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            mean = float(rng.uniform(0.3, 1.7))
            inst = _mean_instance(mean, 2.0)
            grid = GridSpec(lo=0.0, hi=2.0, n_points=41)
            res = oracle_solve(inst, grid)
            assert res.status == OPTIMAL
            # equality constraints hold on the returned basic solution
            mom = moments_of(res.dist, inst.hs)
            assert np.allclose(mom, inst.ms, atol=1e-10)
            # complementary slackness against its own duals (minimization
            # form: c = -g), and dual feasibility of every column
            xs = grid.points()
            A = np.vstack([np.asarray(h.eval(xs), dtype=float) for h in inst.hs])
            c = -np.asarray(inst.g.eval(xs), dtype=float)
            y = np.asarray(res.duals)
            reduced = c - y @ A
            assert np.min(reduced) >= -1e-9
            for x, p in res.dist.points:
                j = int(np.argmin(np.abs(xs - x)))
                assert abs(reduced[j]) <= 1e-9

    def test_matches_scipy_linprog_on_random_lps(self):
        rng = np.random.default_rng(137)
        optimal_seen = 0
        for _ in range(20):
            n = 30
            # normalization row keeps the feasible set compact, as in a
            # discretized moment problem
            A = np.vstack([np.ones(n), rng.normal(size=(2, n))])
            p_feas = rng.dirichlet(np.ones(n))
            b = A @ p_feas
            c = rng.normal(size=n)
            status, x, basis, duals = _two_phase_simplex(A, b, c)
            ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            if status == UNBOUNDED:
                assert ref.status == 3  # scipy agrees the LP is unbounded
                continue
            assert status == OPTIMAL
            assert ref.status == 0
            assert c @ x == pytest.approx(ref.fun, rel=1e-8, abs=1e-9)
            optimal_seen += 1
        assert optimal_seen >= 5

    def test_unbounded_detection(self):
        A = np.array([[1.0, -1.0]])
        b = np.array([1.0])
        c = np.array([-1.0, 0.0])  # minimize -x1 with x1 - x2 = 1: unbounded
        status, _, _, _ = _two_phase_simplex(A, b, c)
        assert status == UNBOUNDED

    def test_deterministic(self):
        inst = _mean_instance(1.1, 2.0)
        grid = GridSpec(lo=0.0, hi=2.0, n_points=101)
        r1 = oracle_solve(inst, grid)
        r2 = oracle_solve(inst, grid)
        assert r1.value == r2.value
        assert r1.dist.points == r2.dist.points
        assert r1.duals == r2.duals

    def test_grid_too_small(self):
        inst = _mean_instance(1.0, 2.0)
        with pytest.raises(DomainError):
            oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=2))

    def test_min_sense(self):
        # minimize E[(x-0.5)+] with mean 1 on {0,1,2}: p=(0,1,0) gives 0.5
        inst = GmpInstance(
            g=core.positive_part(0.5),
            hs=(core.constant(), core.monomial(1.0)),
            ms=(1.0, 1.0),
            sense="min",
            support_hi=2.0,
        )
        res = oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=3))
        assert res.value == pytest.approx(0.5, abs=1e-12)


def _seeded(problem, params, n_points):
    """The moment LP `check` builds for a problem, on its grid seeded with the support."""
    entry = PROBLEMS[problem]
    inst = entry.instance(**params)
    rep = entry.solve(inst, 1e-10)
    grid = GridSpec(
        lo=0.0,
        hi=entry.grid_hi(inst, rep),
        n_points=n_points,
        refine_around=tuple(float(x) for x in rep.dist.xs),
    )
    return entry.gmp(inst, rep.dist), grid, rep


def _seeded_mp1t(M1, Mt, t, q, n_points):
    return _seeded("mp1t", {"M1": M1, "Mt": Mt, "t": t, "q": q}, n_points)


class TestPricing:
    def test_beale_cycling_lp_terminates(self):
        # Beale's LP: min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 from the slack basis
        # {x1, x2, x3}.  Most-negative pricing with lowest-index ties cycles
        # through six degenerate bases; the Bland fallback must break out.
        T = np.array(
            [
                [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0, 0.0],
                [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0, 0.0],
            ]
        )
        basis = [0, 1, 2]
        status, pivots = _run(T, basis, 7)
        assert status == OPTIMAL
        assert pivots > _DEGENERATE_RUN  # a full degenerate run came first
        assert T[-1, -1] == pytest.approx(1.25, abs=1e-12)  # minus the optimum -5/4
        assert sorted(basis) == [0, 3, 5]

    def test_pivot_budget(self):
        gmp, grid, _ = _seeded_mp1t(50.0, 1.5 * 50.0**1.5, 1.5, 100.0, 8001)
        res = oracle_solve(gmp, grid)
        assert res.status == OPTIMAL
        assert sum(res.pivots) <= 64, res.pivots

    def test_matches_highs_on_moment_lp(self):
        gmp, grid, rep = _seeded_mp1t(50.0, 1.5 * 50.0**1.5, 1.5, 100.0, 8001)
        xs = grid.points()
        A = np.vstack([np.asarray(h.eval(xs), dtype=float) for h in gmp.hs])
        c = -np.asarray(gmp.g.eval(xs), dtype=float)
        ref = scipy.optimize.linprog(c, A_eq=A, b_eq=gmp.ms, bounds=(0, None), method="highs")
        assert ref.status == 0
        res = oracle_solve(gmp, grid)
        assert res.value == pytest.approx(-ref.fun, rel=1e-9)
        assert res.value == pytest.approx(rep.value, rel=1e-9)

    def test_degenerate_basic_mass_is_dropped_and_refit(self):
        # on this grid the final basis [3525, 286, 287] re-solves one
        # degenerate mass to about -1.2e-12; dropping it alone would leave
        # probabilities summing to 1 + 1.2e-12
        gmp, grid, rep = _seeded_mp1t(1.0, 2.0, 2.0, 6.0, 4001)
        res = oracle_solve(gmp, grid)
        assert res.status == OPTIMAL
        assert np.allclose(moments_of(res.dist, gmp.hs), gmp.ms, rtol=0.0, atol=1e-12)
        assert res.value == pytest.approx(rep.value, rel=1e-9)


class TestMaxProblemBounds:
    def test_oracle_never_exceeds_analytic_value(self):
        rng = np.random.default_rng(139)
        for _ in range(8):
            M1 = float(rng.uniform(0.8, 2.0))
            inst = power_moment.PowerMomentInstance(
                M1=M1, Mt=float(rng.uniform(1.3, 2.5)) * M1**2, t=2.0, q=float(rng.uniform(0.5, 3.0)) * M1
            )
            rep = power_moment.solve_power_moment(inst)
            gmp = power_moment.gmp_instance(inst, rep.dist)
            hi = 1.05 * float(rep.dist.xs[-1]) + 2.0 * inst.q
            coarse = oracle_solve(gmp, GridSpec(lo=0.0, hi=hi, n_points=301))
            assert coarse.status == OPTIMAL
            assert coarse.value <= rep.value + 1e-9
            seeded = oracle_solve(
                gmp,
                GridSpec(lo=0.0, hi=hi, n_points=301, refine_around=tuple(rep.dist.xs)),
            )
            assert seeded.value == pytest.approx(rep.value, abs=1e-9 * max(1.0, rep.value))


class TestRefineUntil:
    def test_values_increase_toward_analytic_optimum(self):
        inst = power_moment.PowerMomentInstance(M1=1.0, Mt=2.0, t=2.0, q=6.0)
        rep = power_moment.solve_power_moment(inst)
        gmp = power_moment.gmp_instance(inst, rep.dist)
        out = refine_until(
            gmp, GridSpec(lo=0.0, hi=18.0, n_points=500), target_tol=1e-12, max_rounds=5
        )
        vals = out.values
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= rep.value + 1e-10
        assert rep.value - vals[-1] < 1e-4

    def test_seeded_grid_converges_immediately(self):
        inst = power_moment.PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0)
        rep = power_moment.solve_power_moment(inst)
        gmp = power_moment.gmp_instance(inst, rep.dist)
        out = refine_until(
            gmp,
            GridSpec(lo=0.0, hi=8.0, n_points=501, refine_around=(0.0, 4.0)),
            target_tol=1e-9,
            max_rounds=3,
        )
        assert out.converged
        assert out.rounds == 1
        assert out.result.value == pytest.approx(0.75, abs=1e-10)

    def test_zero_rounds_reports_no_convergence(self):
        inst = _mean_instance(1.0, 2.0)
        out = refine_until(inst, GridSpec(lo=0.0, hi=2.0, n_points=11), 1e-9, 0)
        assert not out.converged
        assert out.rounds == 0
        assert len(out.values) == 1

    def test_exp_instance_agreement(self):
        em = exp_moment.ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=5.0)
        rep = exp_moment.solve_exp_moment(em)
        gmp = exp_moment.gmp_instance(em, rep.dist)
        v1 = exp_moment.compute_v1(em.m1_scaled, em.Me)
        hi = 1.5 * max(em.q_scaled + 1.0 + math.log(em.Me), v1) / em.t
        out = refine_until(
            gmp,
            GridSpec(lo=0.0, hi=hi, n_points=1001, refine_around=tuple(rep.dist.xs)),
            target_tol=1e-10,
            max_rounds=3,
        )
        assert out.converged
        assert out.result.value == pytest.approx(rep.value, abs=1e-9)


# The `check` instances of the test suite: the q sweep of acceptance
# criterion 3, the check, oracle, exp-moment and partial-moment instances,
# and the two whose refined grid once ended on a negative degenerate mass.
_SWEEP = {"M1": 50.0, "Mt": 1.5 * 50.0**1.5, "t": 1.5}
CHECK_INSTANCES = [
    *(("mp1t", dict(_SWEEP, q=float(q))) for q in range(60, 141, 10)),
    ("mp1t", {"M1": 1.0, "Mt": 4.0, "t": 2.0, "q": 1.0}),
    ("mp1e", {"M1": 1.0, "Me": math.e**2, "t": 1.0, "q": 5.0}),
    ("mp1e", {"M1": 1.0, "Me": math.e**2, "t": 1.0, "q": 1.0}),
    ("upm", {"M1": 0.5, "gamma": 2.0, "Mplus": 0.1}),
    ("upm", {"M1": 0.5, "gamma": 4.0, "Mplus": 0.2}),
    ("mp1t", {"M1": 1.0, "Mt": 2.0, "t": 2.0, "q": 6.0}),
    ("mp1e", {"M1": 50.0, "Me": 2.0, "t": 0.01, "q": 60.0}),
]
CHECK_IDS = [f"{problem}-{i}" for i, (problem, _) in enumerate(CHECK_INSTANCES)]


class TestWarmStart:
    @pytest.mark.parametrize("problem, params", CHECK_INSTANCES, ids=CHECK_IDS)
    def test_second_round_matches_cold_solve(self, problem, params):
        gmp, grid, _ = _seeded(problem, params, 2001)
        coarse = oracle_solve(gmp, grid)
        fine = grid.doubled()
        warm = oracle_solve(gmp, fine, start=coarse.basis)
        cold = oracle_solve(gmp, fine)
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == pytest.approx(cold.value, rel=1e-11)
        assert warm.pivots[0] == 0 and warm.pivots[1] <= 3, warm.pivots
        # each basis is one grid point per row, and carries the masses
        for res, spec in ((coarse, grid), (warm, fine)):
            assert len(res.basis) == len(gmp.hs)
            assert set(res.basis) <= set(spec.points())
            assert set(res.dist.xs) <= set(res.basis)
            assert np.allclose(moments_of(res.dist, gmp.hs), gmp.ms, rtol=1e-12, atol=1e-12)

    def test_off_grid_start_solves_cold(self):
        gmp, grid, _ = _seeded("mp1t", dict(_SWEEP, q=100.0), 2001)
        coarse = oracle_solve(gmp, grid)
        off = (np.nextafter(coarse.basis[0], math.inf), *coarse.basis[1:])
        fine = grid.doubled()
        assert oracle_solve(gmp, fine, start=off) == oracle_solve(gmp, fine)

    def test_infeasible_start_solves_cold(self):
        # masses on {0, 0.5} with mean 1 need p(0) = -1
        inst = _mean_instance(1.0, 2.0)
        grid = GridSpec(lo=0.0, hi=2.0, n_points=21)
        res = oracle_solve(inst, grid, start=(0.0, 0.5))
        assert res == oracle_solve(inst, grid)
        assert res.pivots[0] > 0

    def test_start_short_of_a_row_solves_cold(self):
        # a repeated mean row is redundant: phase 1 drops it, so the final
        # basis has one point fewer than the LP has rows
        inst = GmpInstance(
            g=core.positive_part(0.5),
            hs=(core.constant(), core.monomial(1.0), core.monomial(1.0)),
            ms=(1.0, 1.1, 1.1),
            sense="max",
            support_hi=2.0,
        )
        grid = GridSpec(lo=0.0, hi=2.0, n_points=21)
        coarse = oracle_solve(inst, grid)
        assert len(coarse.basis) == 2
        fine = grid.doubled()
        assert oracle_solve(inst, fine, start=coarse.basis) == oracle_solve(inst, fine)
