"""The verifier's one pass and the interior root searches against references.

`core._exact_residuals` evaluates every term once per point, in a pass
compiled per shape of the instance, and may not change a reported number:
the residuals, signed zeros, NaN and -inf included, must be those of
`references.exact_residuals`.  The only change allowed is the float-error
allowance of `ToleranceSet.gamma`, which can turn a failed verification
into a passed one and never the reverse.  The interior
searches' `rootfind.brent` is pinned to within 4 ulp of scipy's `brentq` on
the same bracket, and its cost to a median of 10 root-function evaluations
per interior solve.  The mp1t retry's back-solve runs `brent` where the
earlier re-solve collapsed a bracket by halving: on the same brackets
`brent` must find the root that collapse found, `references.reference_bisect`
with its tolerance below one ulp of the bracket, to within 4 ulp or as an
exact zero of f where both are, and raise what it raises.  And `brent`
itself must run the iterates of `references.reference_brent`, the loop
before its checks were inlined and its abs/min calls became expressions:
the same root and evaluation count, bit for bit, or the same exception.

The inputs are the candidates of two seeds of the benchmark's `solve_stream`
(its timed instances and its wide mp1t/mp1e probe draws), of the first
decisions of its `newsvendor` stream, one seeded draw for every shape the
pass is compiled for with up to three moment functions after h_0,
hypothesis-drawn certificates over all five function families and, for the
collapses and the Brent loop, random, hypothesis-drawn and edge-case
brackets of smooth functions.
"""

import importlib.util
import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import momentbound
from momentbound import core, exp_moment, power_moment, rootfind
from momentbound.core import DiscreteDistribution, DualCertificate, GmpInstance, ToleranceSet
from momentbound.errors import MomentBoundError
from references import absolute_verdict, exact_residuals, reference_bisect, reference_brent
from test_core import _undecidable_cases

# The reference adds its rows and values with sum(), which adds floats left
# to right only before Python 3.12; the one pass does on every version.
LEFT_TO_RIGHT_SUM = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="sum() of floats is compensated from Python 3.12 on"
)
STREAM_SEEDS = (5, 6)
STREAM_OPS = 1000  # timed-stream operations per seed, before the 400 wide probe draws
NEWSVENDOR_SEED, NEWSVENDOR_DECISIONS = 5, 200


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def stream_ops(seed: int) -> list:
    """The timed stream's first STREAM_OPS operations and its probe's wide draws."""
    workloads = _workloads()
    stream = workloads.make_stream("solve_stream", seed)
    ops = [stream.next() for _ in range(STREAM_OPS)]
    return ops + stream.wide_solves(workloads.PROBE_WIDE_SOLVES)


def _run_stream(seed: int) -> None:
    """Every solve of the timed stream's first STREAM_OPS operations and its probe."""
    runner = _workloads().Runner("solve_stream", momentbound, "")
    for op in stream_ops(seed):
        try:
            runner.run(op)
        except MomentBoundError:
            pass  # the probe's known refusals


def _outcome(call):
    """repr of call()'s result, or the type and message of what it raised."""
    try:
        return repr(call())
    except Exception as exc:  # compared by the caller, not swallowed
        return type(exc).__name__, str(exc)


def _assert_pinned(inst, dist, cert, tol=ToleranceSet()) -> bool:
    """The one pass reproduces the reference residuals, and passes where they passed.

    Returns whether only the float-error allowance passed the pair.
    """
    old = _outcome(lambda: exact_residuals(inst, dist, cert))
    assert _outcome(lambda: core._exact_residuals(inst, dist, cert, tol)[:5]) == old
    if not isinstance(old, str):
        return False
    passed = core.verify_optimality(inst, dist, cert, tol).passed
    was_passed = absolute_verdict(inst, exact_residuals(inst, dist, cert), tol)
    assert passed or not was_passed
    return passed and not was_passed


def _captured(run) -> list:
    """(instance, distribution, certificate) of every verification that run() makes."""
    captured, real = [], core._exact_residuals

    def capture(inst, dist, cert, tol):
        captured.append((inst, dist, cert))
        return real(inst, dist, cert, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_exact_residuals", capture)
        run()
    return captured


@pytest.fixture(scope="module")
def stream_candidates():
    """(instance, distribution, certificate) of every verification of both streams."""
    return _captured(lambda: [_run_stream(seed) for seed in STREAM_SEEDS])


def _run_newsvendor() -> None:
    """Every solve of the first NEWSVENDOR_DECISIONS decisions of the newsvendor stream."""
    workloads = _workloads()
    stream = workloads.make_stream("newsvendor", NEWSVENDOR_SEED)
    runner = workloads.Runner("newsvendor", momentbound, "")
    for _ in range(NEWSVENDOR_DECISIONS):
        runner.run(stream.next())


@LEFT_TO_RIGHT_SUM
def test_stream_residuals_bit_identical(stream_candidates):
    newly_passed = sum(_assert_pinned(*candidate) for candidate in stream_candidates)
    assert len(stream_candidates) > 2 * STREAM_OPS
    # the wide probe draws hold answers that only the allowance certifies
    assert newly_passed > 0


@LEFT_TO_RIGHT_SUM
def test_newsvendor_residuals_bit_identical():
    """The solves behind robust orders: bracket ends in deep tails, tiny duals, huge points."""
    candidates = _captured(_run_newsvendor)
    for candidate in candidates:
        _assert_pinned(*candidate)
    # at most 3 solves a decision: q* and each bracket end q* -+ eps that is not 0 or the cutoff
    assert 2 * NEWSVENDOR_DECISIONS < len(candidates) <= 3 * NEWSVENDOR_DECISIONS
    assert min(abs(z) for _, _, cert in candidates for z in cert.z if z != 0.0) < 1e-9
    assert max(dist.points[-1][0] for _, dist, _ in candidates) > 1e4


@pytest.mark.parametrize("inst, dist, cert", _undecidable_cases())
def test_same_refusal_on_undecidable_instances(inst, dist, cert):
    old = _outcome(lambda: exact_residuals(inst, dist, cert))
    assert old[0] == "DomainError" and "cannot decide" in old[1]
    assert _outcome(lambda: core._exact_residuals(inst, dist, cert, ToleranceSet())) == old


def _function(draw, kinks):
    family = draw(st.sampled_from(core._FAMILIES))
    if family == "constant":
        return core.constant()
    if family == "monomial":
        return core.monomial(draw(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 6.0)))
    if family == "exponential":
        return core.exponential(draw(st.sampled_from([0.0, 0.5]) | st.floats(-1.0, 2.0)))
    kink = draw(st.sampled_from([0.0, 1.0, math.inf]) | st.floats(0.0, 5.0))
    kinks.append(kink)
    build = core.positive_part if family == "positive_part" else core.squared_positive_part
    return build(kink)


@LEFT_TO_RIGHT_SUM
@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_drawn_certificates_bit_identical(data):
    """Any family mix, kinks on the support, signed-zero duals, huge and infinite points."""
    draw, kinks = data.draw, []
    g = _function(draw, kinks)
    hs = (core.constant(), *(_function(draw, kinks) for _ in range(draw(st.integers(1, 4)))))
    values = st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0])
    ms = (1.0, *(draw(values) for _ in hs[1:]))
    inst = GmpInstance(g=g, hs=hs, ms=ms, sense=draw(st.sampled_from(["max", "min"])))
    x = st.floats(0.0, 10.0) | st.sampled_from([0.0, 1e-13, 1e3, 1e200, math.inf, *kinks])
    xs = sorted(set(draw(st.lists(x, min_size=1, max_size=3))))
    weights = [draw(st.floats(0.1, 1.0)) for _ in xs]
    ps = [w / math.fsum(weights) for w in weights]
    try:
        dist = DiscreteDistribution(points=tuple(zip(xs, ps)))
    except MomentBoundError:
        return  # the normalized weights missed 1 by more than 1e-12
    cert = DualCertificate(z=tuple(draw(values) for _ in hs))
    _assert_pinned(inst, dist, cert)


def _shape_draw(rng, i: int, g_family: str, h_families: tuple[str, ...]):
    """One seeded (instance, distribution, certificate) of the shape, the i-th of the sweep.

    Parameters include the values the pass branches on (powers 1 and 2, rates
    0 and below, kinks at 0 and inf); the support includes, in turn, inf,
    1e200, 0, 1e-13 and a kink; a quarter of the duals are +0.0 and a
    quarter -0.0.
    """
    kinks = []

    def build(family):
        if family == "constant":
            return core.constant()
        if family == "monomial":
            return core.monomial(float(rng.choice([1.0, 2.0, rng.uniform(1.0, 6.0)])))
        if family == "exponential":
            return core.exponential(float(rng.choice([0.0, 0.5, -1.0, rng.uniform(0.0, 2.0)])))
        kinks.append(float(rng.choice([0.0, 1.0, math.inf, rng.uniform(0.0, 5.0)])))
        kinked = core.positive_part if family == "positive_part" else core.squared_positive_part
        return kinked(kinks[-1])

    def value():
        return float(rng.choice([0.0, -0.0, rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]))

    g = build(g_family)
    hs = (core.constant(), *map(build, h_families))
    ms = (1.0, *(value() for _ in h_families))
    inst = GmpInstance(g=g, hs=hs, ms=ms, sense=("max", "min")[i % 2])
    special = (math.inf, 1e200, 0.0, 1e-13, *kinks)[i % (4 + bool(kinks))]
    xs = sorted({special, *(float(x) for x in rng.uniform(0.0, 10.0, size=rng.integers(0, 3)))})
    weights = rng.uniform(0.1, 1.0, size=len(xs))
    ps = [float(w) / math.fsum(weights) for w in weights]
    dist = DiscreteDistribution(points=tuple(zip(xs, ps)))
    return inst, dist, DualCertificate(z=tuple(value() for _ in hs))


SHAPES = [
    (g, hs)
    for g in core._FAMILIES
    for n in (1, 2, 3)
    for hs in itertools.product(core._FAMILIES, repeat=n)
]


@LEFT_TO_RIGHT_SUM
def test_every_shape_bit_identical():
    """One seeded draw per shape the pass is compiled for: g's family, 1-3 h families, a sense.

    A refusal keeps its type and message (`_assert_pinned` compares them).
    """
    rng = np.random.default_rng(28)
    outcomes, kinds = Counter(), Counter()
    for i, (g, hs) in enumerate(SHAPES):
        inst, dist, cert = _shape_draw(rng, i, g, hs)
        _assert_pinned(inst, dist, cert)
        outcome = _outcome(lambda: exact_residuals(inst, dist, cert))
        outcomes[outcome[1].split(":")[0] if isinstance(outcome, tuple) else "residuals"] += 1
        kinds[outcome[0] if isinstance(outcome, tuple) else "residuals"] += 1
    assert len(SHAPES) == 775
    # a squared_positive_part past 1.3e154 reads inf, as a monomial does: no
    # draw raises OverflowError
    assert kinds == {"residuals": 564, "DomainError": 211}
    assert outcomes["cannot decide H >= 0"] > 0
    assert outcomes["cannot decide H >= 0 with the decaying exponential e^(-1x)"] > 0


def _reference_collapse(f, a, b):
    """reference_bisect as the earlier mp1t re-solve ran it: to collapse, below one ulp of (a, b)."""
    return reference_bisect(f, a, b, (b - a) * 1e-18).root


def _pin(f, a, b):
    """brent, from float end values as the package passes them, against the collapse."""
    expected = _outcome(lambda: _reference_collapse(f, a, b))
    try:
        root = rootfind.brent(f, a, b, float(f(a)), float(f(b)))[0]
    except Exception as exc:
        assert (type(exc).__name__, str(exc)) == expected
        return
    assert type(root) is float and not isinstance(expected, tuple), expected
    ref = float(expected)
    assert abs(root - ref) <= 4.0 * math.ulp(ref) or f(root) == 0.0 == f(ref), (a, b, root, ref)


@pytest.mark.parametrize(
    "family",
    [
        lambda x, r: x - r,
        lambda x, r: x**3 - r**3,
        lambda x, r: math.exp(x) - math.exp(r),
        lambda x, r: math.tanh(20.0 * (x / r - 1.0)),
    ],
    ids=["linear", "cubic", "exp", "tanh"],
)
def test_collapse_matches_reference_on_random_brackets(family):
    rng = np.random.default_rng(23)
    for _ in range(100):
        r = float(rng.uniform(0.2, 0.8) * 10.0 ** rng.integers(-3, 2))
        a, b = r * float(rng.uniform(0.1, 1.0)), r * float(rng.uniform(1.0, 10.0))
        sign = float(rng.choice([-1.0, 1.0]))
        _pin(lambda x: sign * family(x, r), a, b)


@pytest.mark.parametrize(
    "f,a,b",
    [
        # f(a) = 0 with f < 0 just right of a: brent takes a, the collapse
        # steps over it to 2.3, and both are exact zeros
        (lambda x: (x - 1.0) * (x - 2.3), 1.0, 3.0),
        (lambda x: x - 1.0, 0.0, 2.0),
        (lambda x: x - 0.375, 0.0, 1.0),
        (lambda x: x - 1.0, 0.0, 1.0),
        (lambda x: x * x + 1.0, 0.0, 1.0),  # BracketError from both
    ],
    ids=["left-end", "first-midpoint", "later-midpoint", "right-end", "same-sign"],
)
def test_collapse_matches_reference_at_bracket_edge_cases(f, a, b):
    _pin(f, a, b)


def test_stream_brent_roots_match_brentq(monkeypatch):
    """Every interior search's root is within 4 ulp of brentq's on the same bracket.

    Where f rounds to 0 over a run of floats, both searches stop at the
    first exact zero they meet, and those may lie further apart: there both
    roots must be exact zeros.
    """
    real, plateaus, calls = rootfind.brent, [], []

    def pinned(f, a, b, fa, fb):
        root, evals = real(f, a, b, fa, fb)
        calls.append(evals)
        ref = brentq(f, a, b, xtol=5e-324, rtol=4.0 * np.finfo(float).eps)
        if abs(root - ref) > 4.0 * math.ulp(ref):
            assert f(root) == 0.0 == f(ref), (a, b, root, ref)
            plateaus.append(root)
        return root, evals

    for module in (power_moment, exp_moment):
        monkeypatch.setattr(module, "brent", pinned)
    _run_stream(STREAM_SEEDS[0])
    assert len(calls) > STREAM_OPS // 2 and len(plateaus) < len(calls) // 100


def test_stream_interior_search_budget(monkeypatch):
    """A median of at most 10 root-function evaluations per interior mp1t and mp1e solve.

    The count is every evaluation of mp1e's phi and, for each search of
    mp1t's psi or mp1e's g*phi, the evaluations it made plus its bracket
    ends' values; the report's `bisect_iters` counts the evaluations the
    search itself made.
    """
    evals = [0]
    real_phi, real_brent = exp_moment.phi, rootfind.brent

    def phi(*args):
        evals[0] += 1
        return real_phi(*args)

    def brent(f, a, b, fa, fb):
        root, n = real_brent(f, a, b, fa, fb)
        if f.__name__ in ("psi", "gphi"):  # the interior searches' root functions
            evals[0] += n + 2
        return root, n

    monkeypatch.setattr(exp_moment, "phi", phi)
    for module in (power_moment, exp_moment):
        monkeypatch.setattr(module, "brent", brent)
    runner = _workloads().Runner("solve_stream", momentbound, "")
    counts = {"mp1t": [], "mp1e": []}
    for op in stream_ops(STREAM_SEEDS[0]):
        evals[0] = 0
        try:
            rep = runner.run(op)
        except MomentBoundError:
            continue
        if op.kind in counts and rep.branch == "interior":
            assert rep.bisect_iters <= evals[0]
            counts[op.kind].append(evals[0])
    for kind, n in counts.items():
        assert len(n) > STREAM_OPS // 10 and np.median(n) <= 10, kind


def _gap(x):
    return math.nan if 0.4 < x < 0.6 else x - 0.5


def _slow_tail(x):
    return -math.inf if 0.2 < x < 0.3 else x - 0.25


@pytest.mark.parametrize(
    "f",
    [
        _gap,  # NaN at brent's first step and the collapse's first midpoint
        _slow_tail,  # -inf at brent's first step and the collapse's second midpoint
        lambda x: np.float64(x * x - 0.09),  # numpy scalars
    ],
    ids=["nan-midpoint", "inf-midpoint", "numpy-values"],
)
def test_loop_checks_like_reference(f):
    """NonFiniteError text and the float coercion of f's values, inside the loop."""
    _pin(f, 0.0, 1.0)


def _same_as_reference(f, a, b, fa, fb):
    """rootfind.brent's (root, evals) or exception, asserted equal to reference_brent's."""
    try:
        expected = reference_brent(f, a, b, fa, fb)
    except Exception as exc:  # compared below, then raised again by brent
        expected = exc
    try:
        out = rootfind.brent(f, a, b, fa, fb)
    except Exception as exc:
        assert (type(exc), str(exc)) == (type(expected), str(expected))
        raise
    assert repr(out) == repr(expected) and type(out[0]) is type(expected[0])
    return out


@pytest.mark.parametrize(
    "f", [_gap, _slow_tail, lambda x: np.float64(x * x - 0.09)], ids=["nan", "inf", "numpy"]
)
def test_brent_loop_bit_identical_at_its_checks(f):
    """The inlined finiteness check: NonFiniteError texts, end values first, float(f(x))."""
    for fa, fb in ((f(0.0), f(1.0)), (math.nan, 1.0), (-1.0, -math.inf), (np.float64(-1.0), 1.0)):
        try:
            _same_as_reference(f, 0.0, 1.0, fa, fb)
        except MomentBoundError:
            pass


_SMOOTH = [
    lambda x, r: x - r,
    lambda x, r: x**3 - r**3,
    lambda x, r: math.exp(x) - math.exp(r),
    lambda x, r: math.tanh(20.0 * (x - r)),
    lambda x, r: (x - r) * (1.0 + 100.0 * (x - r) ** 2),
    lambda x, r: math.atan(1e6 * (x - r)) + 1e-3 * (x - r),
]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(range(len(_SMOOTH))),
    st.floats(-1e3, 1e3),
    st.floats(1e-300, 1e3),
    st.floats(1e-300, 1e3),
    st.sampled_from([1.0, -1.0]),
)
def test_brent_bit_identical_on_drawn_brackets(k, r, left, right, sign):
    """Same iterates as the reference loop: the same root and evaluation count, bit for bit."""
    a, b = r - left, r + right
    f = lambda x: sign * _SMOOTH[k](x, r)
    try:
        fa, fb = f(a), f(b)
    except OverflowError:
        return
    try:
        _same_as_reference(f, a, b, fa, fb)
    except MomentBoundError:
        pass


def test_stream_searches_bit_identical(monkeypatch):
    """Every brent search of a solve_stream seed and of newsvendor decisions, against the reference.

    Each module's `brent` runs both loops on the same arguments; the
    package's result is returned, and the two must be equal.
    """
    searches = Counter()

    def both(f, a, b, fa, fb):
        searches[getattr(f, "__name__", "")] += 1
        return _same_as_reference(f, a, b, fa, fb)

    for module in (power_moment, exp_moment):
        monkeypatch.setattr(module, "brent", both)
    exp_moment.compute_v1.cache_clear()
    _run_stream(STREAM_SEEDS[0])
    _run_newsvendor()
    # psi, g*phi, v1's f, the retry's g and the order's excess all ran
    assert searches["psi"] > STREAM_OPS // 10 and searches["gphi"] > STREAM_OPS // 10
    assert searches["<lambda>"] > 0 and searches["g"] > 0 and searches["excess"] > 0
