"""Domain types and the generic optimality verifier."""

import dataclasses
import functools
import inspect
import io
import json
import math
import pickle
import tokenize

import numpy as np
import pytest

from momentbound import cli, core, oracle, power_moment, problems
from momentbound.core import (
    DiscreteDistribution,
    DualCertificate,
    GmpInstance,
    ToleranceSet,
    verify_optimality,
)
from momentbound.errors import DimensionError, DomainError
from momentbound.exp_moment import ExpMomentAmbiguity, ExpMomentInstance, solve_exp_moment
from momentbound.newsvendor import NewsvendorInstance, optimize_order
from momentbound.partial_moment import PartialMomentInstance, solve_partial_moment
from momentbound.power_moment import PowerMomentAmbiguity, PowerMomentInstance, solve_power_moment
from momentbound.problems import PROBLEMS, Problem
from references import (
    enumerate_family,
    h_function,
    moments_of,
    scan_verification,
)


def _mp1t_instance(M1=1.0, Mt=4.0, t=2.0, q=1.0):
    return GmpInstance(
        g=core.positive_part(q),
        hs=(core.constant(), core.monomial(1.0), core.monomial(t)),
        ms=(1.0, M1, Mt),
        sense="max",
    )


class TestMomentFunction:
    def test_unknown_family_is_rejected(self):
        with pytest.raises(DomainError, match="zero"):
            core.MomentFunction("zero")


def _value_objects(t: float, q: float, eta: float, optional: tuple[str, ...]) -> list:
    """One of each frozen value type of the package, built the way its callers build it."""
    amb = PowerMomentAmbiguity(M1=1.0, Mt=2.0, t=t)
    inst = amb.instance_at(q)
    rep = solve_power_moment(inst)
    gmp = power_moment.gmp_instance(inst)
    exp_amb = ExpMomentAmbiguity(M1=1.0, Me=math.e**2, t=t - 1.0)
    decision = NewsvendorInstance(ambiguity=amb, eta=eta)
    grid = oracle.GridSpec(lo=0.0, hi=4.0 * q, n_points=41, refine_around=rep.dist.xs)
    outcome = oracle.refine_until(gmp, grid, target_tol=1e-9, max_rounds=1)
    return [
        rep,
        rep.verification,
        rep.dist,
        rep.cert,
        core.positive_part(q),
        gmp,
        ToleranceSet(gap=q * 1e-8),
        amb,
        inst,
        exp_amb,
        exp_amb.instance_at(q),
        PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.1 * t),
        decision,
        optimize_order(decision),
        outcome.result.grid,
        outcome.result,
        outcome,
        # module-level functions only, so that it pickles
        Problem(
            instance=PowerMomentInstance,
            solve=solve_power_moment,
            gmp=power_moment.gmp_instance,
            grid_hi=problems._power_grid_hi,
            ambiguity=PowerMomentAmbiguity,
            optional=optional,
        ),
    ]


VALUE_PAIRS = list(zip(_value_objects(2.5, 3.0, 0.9, ()), _value_objects(2.0, 0.5, 0.5, ("v1",))))


def _frozen_types(cls: type) -> set[type]:
    return {cls, *(sub for direct in cls.__subclasses__() for sub in _frozen_types(direct))}


@functools.cache
def _twin(cls: type) -> type:
    """A frozen dataclass with cls's name and fields, each field's default its class attribute."""
    spec = [
        (name, object, dataclasses.field(default=getattr(cls, name)))
        if hasattr(cls, name)
        else (name, object)
        for name in cls.__match_args__
    ]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def test_value_samples_cover_every_frozen_type():
    types = [type(a) for a, _ in VALUE_PAIRS]
    assert [type(b) for _, b in VALUE_PAIRS] == types
    assert set(types) == _frozen_types(core._Frozen) - {core._Frozen}
    assert len(set(types)) == len(types) == 18


@pytest.mark.parametrize("pair", VALUE_PAIRS, ids=lambda pair: type(pair[0]).__name__)
def test_value_objects_keep_frozen_dataclass_semantics(pair):
    """Each __init__ takes the fields in order, and the objects behave as frozen dataclasses."""
    cls = type(pair[0])
    twin = _twin(cls)
    names = list(cls.__match_args__)
    assert [f.name for f in dataclasses.fields(twin)] == names
    # the signature: names, kinds and defaults, as a dataclass would generate it
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    expected = list(inspect.signature(twin.__init__).parameters.values())[1:]
    assert [(p.name, p.kind, p.default) for p in params] == [
        (p.name, p.kind, p.default) for p in expected
    ]
    twins = []
    for obj in pair:
        fields = {name: getattr(obj, name) for name in names}
        copy = cls(**fields)
        assert copy == obj and hash(copy) == hash(obj) and repr(copy) == repr(obj)
        unpickled = pickle.loads(pickle.dumps(obj))
        assert unpickled == obj and vars(unpickled) == vars(obj)
        assert vars(copy) == vars(obj)  # the scaled fields too
        same = twin(**fields)
        assert repr(same) == repr(obj) and hash(same) == hash(obj)
        assert (obj == same) is (same == obj) is False  # another class
        twins.append(same)
        for change in (
            lambda o: setattr(o, names[0], None),
            lambda o: delattr(o, names[-1]),
            lambda o: setattr(o, "extra", None),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError) as expected_error:
                change(same)
            with pytest.raises(AttributeError) as error:
                change(obj)
            assert str(error.value) == str(expected_error.value)
        assert vars(copy) == vars(obj)  # nothing was assigned
    a, b = pair
    assert a != b and (a == b) == (twins[0] == twins[1])
    assert (a != b) == (twins[0] != twins[1])


class TestDiscreteDistribution:
    def test_valid(self):
        d = DiscreteDistribution(points=((0.0, 0.75), (4.0, 0.25)))
        assert d.xs == (0.0, 4.0)
        assert d.ps == (0.75, 0.25)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(points=((0.0, 0.5), (1.0, 0.6)))

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(points=((1.0, 0.5), (0.5, 0.5)))

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(points=((0.0, 1.0), (1.0, 0.0)))

    def test_rejects_negative_support(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(points=((-0.5, 0.5), (1.0, 0.5)))


class TestMomentsOf:
    def test_two_point_power_moments(self):
        d = DiscreteDistribution(points=((0.0, 0.75), (4.0, 0.25)))
        hs = (core.constant(), core.monomial(1.0), core.monomial(2.0))
        assert np.allclose(moments_of(d, hs), [1.0, 1.0, 4.0], atol=1e-14)

    def test_single_point(self):
        c = 2.7
        d = DiscreteDistribution(points=((c, 1.0),))
        hs = (core.constant(), core.monomial(1.0))
        assert np.allclose(moments_of(d, hs), [1.0, c], atol=1e-14)

    def test_three_point_with_partial_moment(self):
        d = DiscreteDistribution(points=((0.0, 0.7), (1.0, 1.0 / 6.0), (2.5, 2.0 / 15.0)))
        hs = (
            core.constant(),
            core.monomial(1.0),
            core.monomial(2.0),
            core.positive_part(1.0),
        )
        assert np.allclose(moments_of(d, hs), [1.0, 0.5, 1.0, 0.2], atol=1e-14)

    def test_normalization_row_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.integers(1, 6)
            xs = np.sort(rng.uniform(0.0, 10.0, size=k))
            xs = np.unique(xs)
            ps = rng.dirichlet(np.ones(len(xs)))
            ps = ps / ps.sum()
            d = DiscreteDistribution(points=tuple(zip(xs.tolist(), ps.tolist())))
            assert abs(moments_of(d, (core.constant(),))[0] - 1.0) <= 1e-12


class TestHFunction:
    def test_boundary_certificate_touches_zero_at_support(self):
        inst = _mp1t_instance()
        cert = DualCertificate(z=(0.0, 0.5, 1.0 / 16.0))
        # z.h(4) - g(4) = (2 + 1) - 3
        assert h_function(cert, inst, 4.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_certificate(self):
        inst = _mp1t_instance()
        cert = DualCertificate(z=(0.0, 0.0, 0.0))
        assert h_function(cert, inst, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_constant_certificate_against_zero_objective(self):
        # g = 1 against z = (1,): H = 1 - 1 vanishes identically
        zero_h = GmpInstance(
            g=core.constant(),
            hs=(core.constant(),),
            ms=(1.0,),
            sense="max",
        )
        cert = DualCertificate(z=(1.0,))
        for x in (0.0, 1.0, 9.5):
            assert h_function(cert, zero_h, x) == 0.0

    def test_linearity_in_certificate(self):
        inst = _mp1t_instance()
        rng = np.random.default_rng(3)
        for _ in range(20):
            z1 = DualCertificate(z=tuple(rng.normal(size=3)))
            z2 = DualCertificate(z=tuple(rng.normal(size=3)))
            zs = DualCertificate(z=tuple(a + b for a, b in zip(z1.z, z2.z)))
            x = float(rng.uniform(0.0, 39.0))
            g = float(np.maximum(x - 1.0, 0.0))
            lhs = h_function(zs, inst, x) - h_function(z1, inst, x) - h_function(z2, inst, x)
            assert lhs == pytest.approx(g, abs=1e-9 * max(1.0, abs(g), x * x))

    def test_domain_and_dimension_errors(self):
        inst = _mp1t_instance()
        with pytest.raises(DomainError):
            h_function(DualCertificate(z=(0.0, 0.0, 0.0)), inst, -1.0)
        with pytest.raises(DimensionError):
            h_function(DualCertificate(z=(0.0, 0.0)), inst, 1.0)


class TestVerifyOptimality:
    def test_certified_pair_passes(self):
        inst = _mp1t_instance()
        dist = DiscreteDistribution(points=((0.0, 0.75), (4.0, 0.25)))
        cert = DualCertificate(z=(0.0, 0.5, 1.0 / 16.0))
        rep = verify_optimality(inst, dist, cert)
        assert rep.passed
        assert rep.duality_gap <= 1e-12
        assert rep.primal_value == pytest.approx(0.75, abs=1e-14)
        assert rep.dual_value == pytest.approx(0.75, abs=1e-14)

    def test_zero_objective_zero_certificate(self):
        # g = 1 against z = (1,): H = 1 - 1 vanishes identically
        inst = GmpInstance(
            g=core.constant(),
            hs=(core.constant(),),
            ms=(1.0,),
            sense="max",
        )
        dist = DiscreteDistribution(points=((0.5, 0.25), (2.0, 0.75)))
        rep = verify_optimality(inst, dist, DualCertificate(z=(1.0,)))
        assert rep.passed
        assert rep.primal_residual == 0.0
        assert rep.slack_residual == 0.0
        assert rep.duality_gap == 0.0

    def test_wrong_mean_fails_on_primal(self):
        inst = _mp1t_instance()
        dist = DiscreteDistribution(points=((0.0, 0.5), (4.0, 0.5)))
        cert = DualCertificate(z=(0.0, 0.5, 1.0 / 16.0))
        rep = verify_optimality(inst, dist, cert)
        assert not rep.passed
        mean_row = moments_of(dist, inst.hs)[1] - inst.ms[1]
        assert mean_row == pytest.approx(1.0, abs=1e-12)
        assert rep.primal_residual >= 1.0

    def test_min_sense_flips_dual_feasibility(self):
        # minimize E[x] with mean fixed: any H <= 0 certificate is feasible
        inst = GmpInstance(
            g=core.monomial(1.0),
            hs=(core.constant(), core.monomial(1.0)),
            ms=(1.0, 2.0),
            sense="min",
        )
        dist = DiscreteDistribution(points=((2.0, 1.0),))
        cert = DualCertificate(z=(0.0, 1.0))  # H(x) = x - x = 0
        rep = verify_optimality(inst, dist, cert)
        assert rep.passed
        loose = DualCertificate(z=(-1.0, 1.0))  # H(x) = -1 <= 0: feasible, with a gap of 1
        rep2 = verify_optimality(inst, dist, loose)
        assert rep2.dual_min_on_grid >= 0.0
        assert not rep2.passed

    def test_dimension_error(self):
        inst = _mp1t_instance()
        dist = DiscreteDistribution(points=((0.0, 0.75), (4.0, 0.25)))
        with pytest.raises(DimensionError):
            verify_optimality(inst, dist, DualCertificate(z=(0.0, 0.5)))

    def test_tolerances_are_explicit(self):
        inst = _mp1t_instance()
        dist = DiscreteDistribution(points=((0.0, 0.75), (4.0, 0.25)))
        # z_2 1e-5 high: H(4) = 1.6e-4 > 0 on mass 1/4, a gap of 4e-5
        over = DualCertificate(z=(0.0, 0.5, 1.0 / 16.0 + 1e-5))
        strict = verify_optimality(inst, dist, over)
        assert not strict.passed
        assert strict.duality_gap == pytest.approx(4e-5)
        assert strict.slack_residual == pytest.approx(1.6e-4)  # reported raw
        assert verify_optimality(inst, dist, over, ToleranceSet(gap=1e-4)).passed
        # z_2 1e-5 low: the same gap, and H(4) = -1.6e-4 against terms of
        # size S(4) = 6: beyond dual + 16u*S, within dual = 1e-3 or gamma = 1
        under = DualCertificate(z=(0.0, 0.5, 1.0 / 16.0 - 1e-5))
        assert ToleranceSet().gamma == 16 * 2.0**-53
        loose_gap = verify_optimality(inst, dist, under, ToleranceSet(gap=1e-4))
        assert not loose_gap.passed
        assert loose_gap.dual_min_on_grid == pytest.approx(-1.6e-4, rel=1e-3)
        assert verify_optimality(inst, dist, under, ToleranceSet(gap=1e-4, dual=1e-3)).passed
        assert verify_optimality(inst, dist, under, ToleranceSet(gap=1e-4, gamma=1.0)).passed

    @pytest.mark.parametrize("mass, passed", [(2.0**-30, True), (2.0**-20, False)])
    def test_slackness_counts_by_its_mass(self, mass, passed):
        # H = (x/4 - 1)^2 on [1, inf) is 1/4 at a support point x = 2 of
        # tiny mass, and E_P[g] = z.m - E_P[H] puts mass/4 in the gap: the
        # pair certifies while that is within tol.gap, whatever |H(2)| is.
        # The rows are the law's own moments, exact in floats.
        inst = _mp1t_instance(M1=1.0 + 2.0 * mass, Mt=4.0 + 4.0 * mass)
        dist = DiscreteDistribution(points=((0.0, 0.75 - mass), (2.0, mass), (4.0, 0.25)))
        rep = verify_optimality(inst, dist, DualCertificate(z=(0.0, 0.5, 1.0 / 16.0)))
        assert rep.primal_residual == 0.0 and rep.dual_min_on_grid == 0.0
        assert rep.slack_residual == 0.25
        assert rep.duality_gap == mass / 4.0
        assert rep.passed is passed


def _dip(x0, c, delta, kink=1.0):
    """A pair that is optimal except where H = c(x - x0)^2 - delta on [kink, inf).

    g = 1 and a point mass at 0 meet every moment with zero gap; on [0, kink]
    H = z1 x + c x^2 > 0, so H < 0 only within sqrt(delta/c) of x0.
    """
    z1 = (c * (x0 * x0 - 2.0 * x0 * kink) - delta) / kink
    inst = GmpInstance(
        g=core.constant(),
        hs=(core.constant(), core.monomial(1.0), core.monomial(2.0), core.positive_part(kink)),
        ms=(1.0, 0.0, 0.0, 0.0),
        sense="max",
    )
    dist = DiscreteDistribution(points=((0.0, 1.0),))
    return inst, dist, DualCertificate(z=(1.0, z1, c, -(z1 + 2.0 * c * x0)))


class TestExactDualFeasibility:
    # midway between two points of the sampled scan's 10 000-point grid of [0, 10]
    NARROW = (5000.5 * 10.0 / 9999.0, 1e6, 1e-4)

    @pytest.mark.parametrize(
        "x0, c, delta",
        [NARROW, (50.0, 1.0, 1.0)],  # a dip narrower than the grid; one beyond [0, 10]
        ids=["between-grid-points", "beyond-support-hi"],
    )
    def test_negative_dip_the_scan_misses(self, x0, c, delta):
        inst, dist, cert = _dip(x0, c, delta)
        tol = ToleranceSet()
        exact = verify_optimality(inst, dist, cert, tol)
        assert exact.dual_min_on_grid == pytest.approx(-delta, rel=1e-3)
        assert exact.dual_min_on_grid < -tol.dual
        assert not exact.passed
        scanned = scan_verification(inst, dist, cert, tol, 10.0)  # a sampled scan would pass it
        assert scanned.dual_min_on_grid >= -tol.dual
        assert scanned.passed

    def test_unbounded_tail_beyond_support_hi(self):
        # H = x - 1e-3 x^2 >= 0 on [0, 10], falling without bound past x = 1000
        inst, dist, _ = _dip(0.0, 0.0, 0.0)  # the instance and point mass only
        cert = DualCertificate(z=(1.0, 1.0, -1e-3, 0.0))
        exact = verify_optimality(inst, dist, cert)
        assert exact.dual_min_on_grid == -math.inf
        assert not exact.passed
        assert scan_verification(inst, dist, cert, ToleranceSet(), 10.0).passed  # so would a scan

    def test_stationary_minimum_beyond_float_range(self):
        # H = x^1.001 - 10.01 x decreases until x = 10^1000
        inst = GmpInstance(
            g=core.constant(),
            hs=(core.constant(), core.monomial(1.0), core.monomial(1.001)),
            ms=(1.0, 0.0, 0.0),
            sense="max",
        )
        dist = DiscreteDistribution(points=((0.0, 1.0),))
        rep = verify_optimality(inst, dist, DualCertificate(z=(1.0, -10.01, 1.0)))
        assert rep.dual_min_on_grid == -math.inf
        assert not rep.passed

    def test_support_value_beyond_float_range(self):
        inst = GmpInstance(
            g=core.constant(),
            hs=(core.constant(), core.monomial(400.0)),
            ms=(1.0, 1.0),
            sense="max",
        )
        dist = DiscreteDistribution(points=((10.0, 1.0),))
        rep = verify_optimality(inst, dist, DualCertificate(z=(1.0, 0.0)))
        assert rep.primal_residual == math.inf
        assert not rep.passed

    def test_squared_kink_beyond_float_range(self):
        # (x - p)_+^2 past 1.3e154 reads inf, as a monomial does: a failed
        # report, not a bare OverflowError
        inst = GmpInstance(
            g=core.squared_positive_part(1.0), hs=(core.constant(),), ms=(1.0,), sense="min"
        )
        dist = DiscreteDistribution(points=((1e200, 1.0),))
        rep = verify_optimality(inst, dist, DualCertificate(z=(0.0,)))
        assert rep.primal_value == rep.slack_residual == math.inf
        assert not rep.passed


def _undecidable_cases():
    """(instance, distribution, certificate) triples whose H' has no closed-form root."""
    spread = DiscreteDistribution(points=((0.2, 0.5), (1.7, 0.3), (3.1, 0.2)))
    two_curves = GmpInstance(
        g=core.positive_part(1.0),
        hs=(core.constant(), core.monomial(3.0), core.exponential(0.5)),
        ms=(1.0, 2.0, 1.5),
        sense="max",
    )
    decaying = GmpInstance(
        g=core.squared_positive_part(1.0),
        hs=(core.constant(), core.monomial(1.0), core.exponential(-1.0)),
        ms=(1.0, 0.5, 0.7),
        sense="min",
    )
    return [
        pytest.param(two_curves, spread, DualCertificate(z=(0.3, -0.01, 0.4)), id="two_curves"),
        pytest.param(decaying, spread, DualCertificate(z=(-0.2, 0.8, 0.1)), id="decaying"),
    ]


@pytest.mark.parametrize("inst, dist, cert", _undecidable_cases())
def test_undecidable_instance_is_refused(inst, dist, cert):
    with pytest.raises(DomainError, match="cannot decide"):
        verify_optimality(inst, dist, cert)


E2 = math.e**2
UPM_FAMILY = PartialMomentInstance(M1=0.5, gamma=4.0, Mplus=0.2)
# every public way to an answer, each returning one report or a list of them
ANSWERS = [
    pytest.param(lambda: solve_power_moment(PowerMomentInstance(1.0, 4.0, 2.0, 1.0)), id="mp1t"),
    pytest.param(lambda: solve_power_moment(PowerMomentInstance(1.0, 4.0, 2.0, 3.0)), id="mp1t-in"),
    pytest.param(lambda: solve_exp_moment(ExpMomentInstance(1.0, E2, 1.0, 1.0)), id="mp1e"),
    pytest.param(lambda: solve_exp_moment(ExpMomentInstance(1.0, E2, 1.0, 5.0)), id="mp1e-in"),
    pytest.param(
        lambda: solve_partial_moment(PartialMomentInstance(0.5, 2.0, 0.1)), id="upm-two-point"
    ),
    pytest.param(lambda: solve_partial_moment(UPM_FAMILY, v1_choice=3.0), id="upm-family"),
    pytest.param(lambda: enumerate_family(UPM_FAMILY, [2.5, 3.0, 4.0]), id="enumerate_family"),
    pytest.param(
        lambda: PROBLEMS["mp1t"].solve(PowerMomentInstance(1.0, 4.0, 2.0, 3.0)),
        id="problem-mp1t",
    ),
    pytest.param(
        lambda: PROBLEMS["mp1e"].solve(ExpMomentInstance(1.0, E2, 1.0, 5.0)),
        id="problem-mp1e",
    ),
    pytest.param(lambda: PROBLEMS["upm"].solve(UPM_FAMILY, v1=3.0), id="problem-upm"),
    pytest.param(lambda: PowerMomentAmbiguity(1.0, 4.0, 2.0).solve(3.0), id="ambiguity-mp1t"),
    pytest.param(lambda: ExpMomentAmbiguity(1.0, E2, 1.0).solve(5.0), id="ambiguity-mp1e"),
]


@pytest.mark.parametrize("answer", ANSWERS)
def test_every_answer_is_a_report_verified_once(answer, monkeypatch):
    real, verifications = core.verify_optimality, []

    def verify(*args, **kwargs):
        verifications.append(real(*args, **kwargs))
        return verifications[-1]

    monkeypatch.setattr(core, "verify_optimality", verify)
    out = answer()
    reports = out if isinstance(out, list) else [out]
    assert all(type(r) is core.Report for r in reports)
    assert len(verifications) == len(reports)
    assert all(r.verification is v for r, v in zip(reports, verifications))
    assert all(v.passed for v in verifications)


def test_compiled_passes_are_one_per_shape(tmp_path, monkeypatch, capsys):
    """The pass cache is bounded, holds one pass per shape, and its text holds no instance value."""
    real, sources = core._source, []

    def record(*shape):
        sources.append(real(*shape))
        return sources[-1]

    monkeypatch.setattr(core, "_source", record)
    core._plan.cache_clear()
    for answer in ANSWERS[:6]:  # boundary and interior mp1t and mp1e, both upm branches
        answer.values[0]()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"problem": "mp1e", "params": {"M1": 1, "Me": E2, "t": 1, "q": 5}}))
    assert cli.main(["check", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    info = core._plan.cache_info()
    assert info.maxsize is not None and info.currsize == info.misses == len(sources) == 3

    rng = np.random.default_rng(28)
    for i in range(1000):
        q = float(rng.uniform(0.5, 6.0))
        if i % 3 == 0:
            report = solve_power_moment(PowerMomentInstance(1.0, 4.0, 2.0, q))
        elif i % 3 == 1:
            report = solve_exp_moment(ExpMomentInstance(1.0, E2, 1.0, q))
        else:
            report = solve_partial_moment(PartialMomentInstance(0.5, 2.0 + (q - 0.5) / 2.75, 0.1))
        assert report.verification.passed
    assert core._plan.cache_info()[1:] == (info.misses, info.maxsize, info.currsize)

    # numbers in the text are the family codes and the constants of H's
    # arithmetic; every string is one of the refusals' messages
    numbers, strings = set(), set()
    for text in sources:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.NUMBER:
                numbers.add(token.string)
            elif token.type == tokenize.STRING:
                strings.add(token.string)
    assert numbers <= {"0", "1", "2", "3", "4", "0.0", "1.0", "2.0"}
    assert all(s.startswith(("f\"cannot decide H >= 0", "\"cannot decide H >= 0")) for s in strings)
