"""Grid-LP oracle and the two-phase simplex behind it."""

import math

import numpy as np
import pytest
import scipy.optimize

import momentbound
import references
from momentbound import core, exp_moment, oracle, power_moment
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
from references import (
    evaluate,
    grid_points,
    moments_of,
    reference_oracle_solve,
    reference_refine_until,
    reference_two_phase_simplex,
    simplex_pivot,
    simplex_run,
)
from test_stream_pins import _workloads


def _mean_instance(mean: float, g=None) -> GmpInstance:
    return GmpInstance(
        g=g if g is not None else core.positive_part(0.5),
        hs=(core.constant(), core.monomial(1.0)),
        ms=(1.0, mean),
        sense="max",
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

    def test_points_are_the_sorted_union(self):
        # byte for byte against np.unique of the uniform points and the
        # extras, on grids with extras on the grid, below lo (dropped), above
        # hi (kept), repeated, and 0.0 with lo = 0; every 50th grid has 2001
        # points between an lo and hi too close for distinct uniform points
        rng = np.random.default_rng(14)
        for k in range(5000):
            n = (2, 3, 2001, 4001, int(rng.integers(4, 60)))[k % 5]
            lo = 0.0 if k % 2 else float(rng.uniform(0.0, 10.0))
            hi = lo * (1.0 + 1e-13) if k % 50 == 2 else lo + float(rng.uniform(1e-3, 1e3))
            uniform = np.linspace(lo, hi, n)
            extra = []
            for kind in rng.integers(0, 6, size=int(rng.integers(1, 7))):
                if kind == 0:
                    extra.append(float(uniform[rng.integers(n)]))
                elif kind == 1:
                    extra.append(lo - float(rng.uniform(0.0, 5.0)))
                elif kind == 2:
                    extra.append(hi + float(rng.uniform(0.0, 5.0)))
                elif kind == 3:
                    extra.append(0.0)
                elif kind == 4:
                    extra.append(extra[0] if extra else lo)
                else:
                    extra.append(float(rng.uniform(lo, hi)))
            spec = GridSpec(lo=lo, hi=hi, n_points=n, refine_around=tuple(extra))
            assert spec.points().tobytes() == grid_points(spec).tobytes(), spec

    def test_doubled_keeps_old_points(self):
        spec = GridSpec(lo=0.0, hi=1.0, n_points=5)
        fine = spec.doubled()
        assert fine.n_points == 9
        assert set(spec.points()).issubset(set(fine.points()))


class TestOracleSolve:
    def test_three_point_enumeration_example(self):
        # max sum (x-0.5)+ p over grid {0,1,2} with mean 1: vertices are
        # p = (0, 1, 0) and p = (0.5, 0, 0.5); the second wins with 0.75
        inst = _mean_instance(1.0)
        res = oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=3))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.75, abs=1e-12)
        assert res.dist.points == ((0.0, 0.5), (2.0, 0.5))

    def test_infeasible_moments(self):
        inst = _mean_instance(5.0)
        res = oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=21))
        assert res.status == INFEASIBLE
        assert res.dist is None
        assert math.isnan(res.value)
        assert res.pivots[0] > 0 and res.pivots[1] == 0  # phase 2 never ran

    def test_exact_when_support_on_grid(self):
        pm = power_moment.PowerMomentInstance(M1=1.0, Mt=4.0, t=2.0, q=1.0)
        rep = power_moment.solve_power_moment(pm)
        gmp = power_moment.gmp_instance(pm)
        res = oracle_solve(gmp, GridSpec(lo=0.0, hi=8.0, n_points=4001, refine_around=(4.0,)))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.75, abs=1e-9)

    def test_constraints_and_own_dual_slackness(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            mean = float(rng.uniform(0.3, 1.7))
            inst = _mean_instance(mean)
            grid = GridSpec(lo=0.0, hi=2.0, n_points=41)
            res = oracle_solve(inst, grid)
            assert res.status == OPTIMAL
            # equality constraints hold on the returned basic solution
            mom = moments_of(res.dist, inst.hs)
            assert np.allclose(mom, inst.ms, atol=1e-10)
            # complementary slackness against its own duals (minimization
            # form: c = -g), and dual feasibility of every column
            xs = grid.points()
            A = np.vstack([evaluate(h, xs) for h in inst.hs])
            c = -evaluate(inst.g, xs)
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
        inst = _mean_instance(1.1)
        grid = GridSpec(lo=0.0, hi=2.0, n_points=101)
        r1 = oracle_solve(inst, grid)
        r2 = oracle_solve(inst, grid)
        assert r1.value == r2.value
        assert r1.dist.points == r2.dist.points
        assert r1.duals == r2.duals

    def test_grid_too_small(self):
        inst = _mean_instance(1.0)
        with pytest.raises(DomainError):
            oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=2))

    def test_min_sense(self):
        # minimize E[(x-0.5)+] with mean 1 on {0,1,2}: p=(0,1,0) gives 0.5
        inst = GmpInstance(
            g=core.positive_part(0.5),
            hs=(core.constant(), core.monomial(1.0)),
            ms=(1.0, 1.0),
            sense="min",
        )
        res = oracle_solve(inst, GridSpec(lo=0.0, hi=2.0, n_points=3))
        assert res.value == pytest.approx(0.5, abs=1e-12)


def _seeded(problem, params, n_points):
    """The moment LP `check` builds for a problem, on its grid seeded with the support."""
    entry = PROBLEMS[problem]
    inst = entry.instance(**params)
    rep = entry.solve(inst)
    grid = GridSpec(
        lo=0.0,
        hi=entry.grid_hi(inst, rep),
        n_points=n_points,
        refine_around=rep.dist.xs,
    )
    return entry.gmp(inst), grid, rep


def _seeded_mp1t(M1, Mt, t, q, n_points):
    return _seeded("mp1t", {"M1": M1, "Mt": Mt, "t": t, "q": q}, n_points)


def _beale_tableau() -> np.ndarray:
    """Beale's cycling LP from the slack basis {x1, x2, x3}, as a tableau."""
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0, 0.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0, 0.0],
        ]
    )


class TestPricing:
    def test_beale_cycling_lp_terminates(self):
        # Beale's LP: min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 from the slack basis
        # {x1, x2, x3}.  Most-negative pricing with lowest-index ties cycles
        # through six degenerate bases; the Bland fallback must break out.
        T = _beale_tableau()
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
        A = np.vstack([evaluate(h, xs) for h in gmp.hs])
        c = -evaluate(gmp.g, xs)
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
            gmp = power_moment.gmp_instance(inst)
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
        gmp = power_moment.gmp_instance(inst)
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
        gmp = power_moment.gmp_instance(inst)
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
        inst = _mean_instance(1.0)
        out = refine_until(inst, GridSpec(lo=0.0, hi=2.0, n_points=11), 1e-9, 0)
        assert not out.converged
        assert out.rounds == 0
        assert len(out.values) == 1

    def test_exp_instance_agreement(self):
        em = exp_moment.ExpMomentInstance(M1=1.0, Me=math.e**2, t=1.0, q=5.0)
        rep = exp_moment.solve_exp_moment(em)
        gmp = exp_moment.gmp_instance(em)
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
        inst = _mean_instance(1.0)
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
        )
        grid = GridSpec(lo=0.0, hi=2.0, n_points=21)
        coarse = oracle_solve(inst, grid)
        assert len(coarse.basis) == 2
        fine = grid.doubled()
        assert oracle_solve(inst, fine, start=coarse.basis) == oracle_solve(inst, fine)


def _random_lps() -> list:
    """150 small LPs (A, b, c) that end optimal, infeasible or unbounded.

    A normalization row plus 1-4 random rows; b from a sparse mix of columns
    (degenerate vertices), a dense mix, or at random (mostly infeasible).
    Every fifth LP drops the normalization row, so its feasible set can be
    unbounded.
    """
    rng = np.random.default_rng(1414)
    lps = []
    for k in range(150):
        n = int(rng.integers(3, 60))
        A = np.vstack([np.ones(n), rng.normal(size=(int(rng.integers(1, 5)), n))])
        A = A[1:] if k % 5 == 4 else A
        if k % 3 == 0:
            p = np.zeros(n)
            p[rng.choice(n, size=min(n, 2), replace=False)] = 0.5
            b = A @ p
        elif k % 3 == 1:
            b = A @ rng.dirichlet(np.ones(n))
        else:
            b = rng.normal(size=A.shape[0])
        lps.append((A, b, rng.normal(size=n)))
    return lps


def _lp_outcome(A, b, c, simplex=_two_phase_simplex):
    counts = []
    status, x, basis, duals = simplex(A, b, c, counts)
    if x is None:
        return status, basis, counts
    return status, x.tobytes(), basis, duals.tobytes(), counts


class TestPivotPath:
    """The simplex takes the pivots of references.simplex_run, bit for bit.

    Every vertex within _RC_TOL of the optimum counts as optimal, so a loop
    that orders or rounds its tests differently can stop at another vertex
    and report another distribution and other duals.
    """

    @staticmethod
    def _use_reference_loop(monkeypatch):
        def reference_pivot(rows, col, basis, row, j):
            # the oracle hands _pivot the row views of its tableau; the
            # reference pivots a copy of that array, which is written back
            T = np.array(rows)
            simplex_pivot(T, basis, row, j)
            for view, pivoted in zip(rows, T):
                view[...] = pivoted

        monkeypatch.setattr(oracle, "_run", simplex_run)
        monkeypatch.setattr(oracle, "_pivot", reference_pivot)

    @pytest.mark.parametrize("problem, params", CHECK_INSTANCES, ids=CHECK_IDS)
    def test_check_instances_cold_and_warm(self, monkeypatch, problem, params):
        gmp, grid, _ = _seeded(problem, params, 2001)

        def cold_then_warm():
            cold = oracle_solve(gmp, grid)
            return cold, oracle_solve(gmp, grid.doubled(), start=cold.basis)

        ours = cold_then_warm()
        self._use_reference_loop(monkeypatch)
        assert cold_then_warm() == ours

    def test_random_lps(self, monkeypatch):
        lps = _random_lps()
        ours = [_lp_outcome(*lp) for lp in lps]
        assert {o[0] for o in ours} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
        self._use_reference_loop(monkeypatch)
        assert [_lp_outcome(*lp) for lp in lps] == ours

    def test_pivot_is_the_whole_tableau_update_bit_for_bit(self):
        # T -= f r^T with f[row] = 0, the broadcast of references._ref_pivot,
        # on tableaux full of signed zeros, infinities, nans and subnormals,
        # pivoting on every row (a pivot row done before the rows below it
        # flips the sign of zeros there)
        rng = np.random.default_rng(30)
        special = np.array([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, 5e-324, -1e-300])
        for _ in range(300):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 9)))
            T = rng.normal(size=shape)
            mask = rng.random(shape) < 0.4
            T[mask] = rng.choice(special, size=int(mask.sum()))
            row, col = int(rng.integers(shape[0])), int(rng.integers(shape[1]))
            ours, ref = T.copy(), T.copy()
            ours_basis, ref_basis = [0] * shape[0], [0] * shape[0]
            with np.errstate(all="ignore"):
                oracle._pivot(list(ours), ours[:, col].tolist(), ours_basis, row, col)
                references._ref_pivot(ref, ref_basis, row, col)
            assert ours.tobytes() == ref.tobytes() and ours_basis == ref_basis

    def test_run_is_the_array_loop_bit_for_bit(self, monkeypatch):
        # _run against references.simplex_run, each to termination, on
        # tableaux whose columns that never enter hold signed zeros,
        # infinities, nans and subnormals (the pivots carry them through),
        # whose priced columns hold signed zeros and subnormals, and whose
        # rhs holds zeros, subnormals and roundoff negatives for the scrub.
        # An all-zero rhs makes every pivot degenerate, and Beale's LP (with
        # never-entering columns spliced in) cycles under Dantzig's rule, so
        # its runs go on past _DEGENERATE_RUN into Bland's branch.
        class Runaway(Exception):
            pass

        def capped(pivot, objective):
            def counted(*args):
                calls.append(objective(*args))
                if len(calls) > 400:
                    raise Runaway
                pivot(*args)

            return counted

        calls = []  # the objective before each pivot
        monkeypatch.setattr(oracle, "_pivot", capped(oracle._pivot, lambda rows, *_: rows[-1][-1]))
        monkeypatch.setattr(
            references, "simplex_pivot", capped(references.simplex_pivot, lambda T, *_: T[-1, -1])
        )
        rng = np.random.default_rng(31)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.5])
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300])
        beale = _beale_tableau()
        cases = []
        for k in range(400):
            m, n_enter = int(rng.integers(1, 5)), int(rng.integers(2, 40 if k % 3 == 0 else 12))
            T = rng.normal(size=(m + 1, n_enter + int(rng.integers(1, 6)) + 1))
            if k % 25 == 0:  # Beale's LP with never-entering columns spliced in
                m, n_enter = 3, 7
                T = np.hstack([beale[:, :7], rng.normal(size=(4, 3)), beale[:, -1:]])
            else:
                priced = T[:, :n_enter]
                mask = rng.random(priced.shape) < 0.3
                priced[mask] = rng.choice(tiny, size=int(mask.sum()))
            never = T[:, n_enter:-1]
            mask = rng.random(never.shape) < 0.6
            never[mask] = rng.choice(special, size=int(mask.sum()))
            if k % 25:
                rhs = T[:-1, -1]
                rhs[:] = np.abs(rhs)
                if k % 3 == 0:
                    rhs[:] = 0.0
                mask = rng.random(m) < 0.3
                rhs[mask] = rng.choice([-0.0, 5e-324, -1e-13, -5e-12, 0.0], size=int(mask.sum()))
            labels = [0, 1, 2] if k % 25 == 0 else rng.permutation(T.shape[1] + m)[:m].tolist()
            cases.append((T, labels, n_enter))
        compared = bland = 0
        for T, basis, n_enter in cases:
            ref_T, ref_basis = T.copy(), list(basis)
            calls.clear()
            with np.errstate(all="ignore"):
                try:
                    ref_status = simplex_run(ref_T, ref_basis, n_enter)
                except Runaway:
                    continue
                # a pivot after _DEGENERATE_RUN that left the objective where it was is Bland's
                objectives = [*calls, ref_T[-1, -1]]
                stalled = [a == b for a, b in zip(objectives, objectives[1:])]
                bland += any(
                    all(stalled[p - _DEGENERATE_RUN : p])
                    for p in range(_DEGENERATE_RUN, len(stalled))
                )
                calls.clear()
                status = _run(T, basis, n_enter)
            assert status == ref_status and basis == ref_basis
            assert T.tobytes() == ref_T.tobytes()
            compared += 1
        assert compared > 350 and bland >= 16, (compared, bland)

    def test_bland_fallback_on_beale_lp(self):
        # the cycling LP of TestPricing, which needs the Bland branch
        T, ref_T, ref_basis = _beale_tableau(), _beale_tableau(), [0, 1, 2]
        ref_status = simplex_run(ref_T, ref_basis, 7)
        basis = [0, 1, 2]
        assert _run(T, basis, 7) == ref_status
        assert basis == ref_basis
        assert T.tobytes() == ref_T.tobytes()


def _same(fn, ref, *args, **kwargs):
    """Asserts that fn and its reference return the same, bit for bit, and returns fn's result.

    The same is the same ``repr`` and the same bytes of the duals and the
    basis, or the same exception type and message.
    """

    def outcome(solve):
        try:
            res = solve(*args, **kwargs)
        except Exception as exc:
            return None, (type(exc), str(exc))
        last = res.result if isinstance(res, oracle.RefineOutcome) else res
        duals = np.asarray(last.duals or (), dtype=float).tobytes()
        return res, (repr(res), duals, np.asarray(last.basis, dtype=float).tobytes())

    ours, seen = outcome(fn)
    assert seen == outcome(ref)[1], (args, kwargs)
    return ours


def _cold_warm_refined(gmp, grid):
    """oracle_solve cold and warm and refine_until with max_rounds 0-3, each against the reference."""
    cold = _same(oracle_solve, reference_oracle_solve, gmp, grid)
    if cold is not None and cold.status == OPTIMAL:
        _same(oracle_solve, reference_oracle_solve, gmp, grid.doubled(), start=cold.basis)
    for rounds in range(4):
        _same(refine_until, reference_refine_until, gmp, grid, 1e-9, rounds)


class TestAgainstReference:
    """The solve path returns what the previous one (references.reference_*) did, bit for bit."""

    @pytest.mark.parametrize("problem, params", CHECK_INSTANCES, ids=CHECK_IDS)
    def test_check_instances(self, problem, params):
        for n_points in (501, 2001, 8001):
            gmp, grid, _ = _seeded(problem, params, n_points)
            _cold_warm_refined(gmp, grid)

    def test_random_lps(self):
        lps = _random_lps()
        ours = [_lp_outcome(*lp) for lp in lps]
        assert [_lp_outcome(*lp, simplex=reference_two_phase_simplex) for lp in lps] == ours

    def test_check_envelopes(self, tmp_path, monkeypatch):
        # the sampler checks of the benchmark's oracle_check probe and the
        # wide draws of its solve_stream probe (seed 3): stdout, stderr and
        # exit code of `check`, with the oracle's refine_until and with the
        # reference's
        workloads = _workloads()
        ops = workloads.make_stream("oracle_check", 3).sampler_checks(100)
        ops += workloads.make_stream("solve_stream", 3).wide_solves(100)
        runner = workloads.Runner("oracle_check", momentbound, str(tmp_path))

        def envelopes():
            out = []
            for op in ops:
                runner.prepare(op)
                out.append(runner.run(op))
            return out

        ours = envelopes()
        monkeypatch.setattr(oracle, "refine_until", reference_refine_until)
        assert envelopes() == ours
        assert {code for code, _, _ in ours} == {0, 2, 3, 4, 6}

    def test_grids_of_a_few_ulp_and_extras_on_the_grid(self):
        # mean 1 on [1, 1 + k ulp]: 2001 points collapse to k + 1 distinct ones
        inst = _mean_instance(1.0)
        ulps = [1.0]
        for _ in range(6):
            ulps.append(math.nextafter(ulps[-1], math.inf))
        for hi in ulps[1:4]:
            for n_points in (3, 5, 2001):
                for extra in ((), (1.0,), (hi,), (ulps[1], ulps[5]), (0.5, 1.0, 2.0)):
                    grid = GridSpec(lo=1.0, hi=hi, n_points=n_points, refine_around=extra)
                    _cold_warm_refined(inst, grid)
        # seeded check grids with extras that are grid points already
        for problem, params in CHECK_INSTANCES[::3]:
            gmp, grid, _ = _seeded(problem, params, 2001)
            xs = np.linspace(grid.lo, grid.hi, grid.n_points)
            on_grid = (*grid.refine_around, float(xs[7]), float(xs[1000]), float(xs[-1]))
            _cold_warm_refined(gmp, GridSpec(grid.lo, grid.hi, grid.n_points, on_grid))


class TestWarmRoundReuse:
    """A warm round without a pivot keeps the last law only on byte-equal basis columns."""

    @staticmethod
    def _count_solves(monkeypatch) -> list:
        calls = []
        solve = np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        return calls

    @pytest.mark.parametrize("problem, params", CHECK_INSTANCES, ids=CHECK_IDS)
    def test_round_without_a_pivot_solves_nothing(self, monkeypatch, problem, params):
        gmp, grid, _ = _seeded(problem, params, 2001)
        cold = oracle_solve(gmp, grid)
        calls = self._count_solves(monkeypatch)
        warm = oracle_solve(gmp, grid.doubled(), start=cold.basis)
        assert warm.pivots[0] == 0
        if warm.pivots[1] == 0:
            assert not calls
            assert (warm.value, warm.dist, warm.duals) == (cold.value, cold.dist, cold.duals)
        else:
            assert calls
        assert warm == reference_oracle_solve(gmp, grid.doubled(), start=cold.basis)

    @pytest.mark.parametrize("row", [0, 1, 2, -1], ids=["h0", "h1", "h2", "g"])
    def test_basis_column_one_ulp_off_is_resolved(self, monkeypatch, row):
        # mp1t (50, 1.5 * 50^1.5, 1.5, 60): a check whose second round makes
        # no pivot.  One entry of one basis column on the doubled grid is
        # moved by one ulp, in the oracle's evaluation and the reference's.
        gmp, grid, _ = _seeded(*CHECK_INSTANCES[0], 2001)
        cold = oracle_solve(gmp, grid)
        fine = grid.doubled()
        xs = fine.points()
        column = int(xs.searchsorted(cold.basis[1]))
        target = (*gmp.hs, gmp.g)[row]
        evaluate, ref_evaluate = oracle._evaluate, references._ref_evaluate

        def nudge(f, xs, values):
            if f is target and xs.size == fine.points().size:
                values[column] = np.nextafter(values[column], np.inf)

        def nudged(f, xs, out):
            evaluate(f, xs, out)
            nudge(f, xs, out)

        def ref_nudged(f, xs):
            values = ref_evaluate(f, xs)
            nudge(f, xs, values)
            return values

        assert oracle_solve(gmp, fine, start=cold.basis).pivots == (0, 0)
        monkeypatch.setattr(oracle, "_evaluate", nudged)
        monkeypatch.setattr(references, "_ref_evaluate", ref_nudged)
        calls = self._count_solves(monkeypatch)
        warm = _same(oracle_solve, reference_oracle_solve, gmp, fine, start=cold.basis)
        assert warm.pivots == (0, 0) and calls
