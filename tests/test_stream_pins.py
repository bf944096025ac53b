"""The verifier's one pass and the root searches against their earlier versions.

`core._exact_residuals` evaluates every term once per point, and `bisect` and
`polish_root` check finiteness inside their loops.  Neither may change a
reported number: the residuals, signed zeros, NaN and -inf included, must be
those of `references.exact_residuals`, and every root search must return
what `references.reference_bisect` and `reference_polish_root` return.  The
only change allowed is the float-error allowance of `ToleranceSet.gamma`,
which can turn a failed verification into a passed one and never the
reverse.

The inputs are the candidates of two seeds of the benchmark's `solve_stream`
(its timed instances and its wide mp1t/mp1e probe draws) and
hypothesis-drawn certificates over all five function families.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import momentbound
from momentbound import core, exp_moment, power_moment, rootfind
from momentbound.core import DiscreteDistribution, DualCertificate, GmpInstance, ToleranceSet
from momentbound.errors import MomentBoundError
from references import (
    absolute_verdict,
    exact_residuals,
    reference_bisect,
    reference_polish_root,
)
from test_core import _undecidable_cases

# The reference adds its rows and values with sum(), which adds floats left
# to right only before Python 3.12; the one pass does on every version.
LEFT_TO_RIGHT_SUM = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="sum() of floats is compensated from Python 3.12 on"
)
STREAM_SEEDS = (5, 6)
STREAM_OPS = 1000  # timed-stream operations per seed, before the 400 wide probe draws


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _run_stream(seed: int) -> None:
    """Every solve of the timed stream's first STREAM_OPS operations and its probe."""
    workloads = _workloads()
    stream = workloads.make_stream("solve_stream", seed)
    runner = workloads.Runner("solve_stream", momentbound, "")
    ops = [stream.next() for _ in range(STREAM_OPS)]
    for op in ops + stream.wide_solves(workloads.PROBE_WIDE_SOLVES):
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
    assert _outcome(lambda: core._exact_residuals(inst, dist, cert, tol)[:6]) == old
    if not isinstance(old, str):
        return False
    passed = core.verify_optimality(inst, dist, cert, tol).passed
    was_passed = absolute_verdict(inst, exact_residuals(inst, dist, cert), tol)
    assert passed or not was_passed
    return passed and not was_passed


@pytest.fixture(scope="module")
def stream_candidates():
    """(instance, distribution, certificate) of every verification of both streams."""
    captured, real = [], core._exact_residuals

    def capture(inst, dist, cert, tol):
        captured.append((inst, dist, cert))
        return real(inst, dist, cert, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_exact_residuals", capture)
        for seed in STREAM_SEEDS:
            _run_stream(seed)
    return captured


@LEFT_TO_RIGHT_SUM
def test_stream_residuals_bit_identical(stream_candidates):
    newly_passed = sum(_assert_pinned(*candidate) for candidate in stream_candidates)
    assert len(stream_candidates) > 2 * STREAM_OPS
    # the wide probe draws hold answers that only the allowance certifies
    assert newly_passed > 0


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


class _SearchPin:
    """Wraps a root search: the package's and the reference's must agree on every call."""

    def __init__(self, ours, reference):
        self.ours, self.reference, self.calls = ours, reference, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        expected = _outcome(lambda: self.reference(*args, **kwargs))
        try:
            result = self.ours(*args, **kwargs)
        except Exception as exc:
            assert (type(exc).__name__, str(exc)) == expected
            raise
        assert repr(result) == expected
        return result


def test_stream_root_searches_bit_identical(monkeypatch):
    bisects = _SearchPin(rootfind.bisect, reference_bisect)
    polishes = _SearchPin(rootfind.polish_root, reference_polish_root)
    for module in (power_moment, exp_moment):
        monkeypatch.setattr(module, "bisect", bisects)
        monkeypatch.setattr(module, "polish_root", polishes)
    _run_stream(STREAM_SEEDS[0])
    assert bisects.calls > STREAM_OPS and polishes.calls > STREAM_OPS // 2


def _gap(x):
    return math.nan if 0.4 < x < 0.6 else x - 0.25


def _slow_tail(x):
    return -math.inf if 0.2 < x < 0.31 else x - 0.3


@pytest.mark.parametrize(
    "f, fprime",
    [
        (_gap, lambda x: 1.0),  # NaN at the first midpoint
        (_slow_tail, lambda x: 1.0),  # -inf at the second midpoint and first Newton step
        (lambda x: np.float64(x * x - 0.09), lambda x: 2.0 * x),  # numpy scalars
    ],
    ids=["nan-midpoint", "inf-newton-step", "numpy-values"],
)
def test_loop_checks_like_reference(f, fprime):
    """NonFiniteError text and the float coercion of f's values, inside the loops."""
    assert _outcome(lambda: rootfind.bisect(f, 0.0, 1.0, 1e-10)) == _outcome(
        lambda: reference_bisect(f, 0.0, 1.0, 1e-10)
    )
    assert _outcome(lambda: rootfind.polish_root(f, fprime, 0.5, 0.0, 1.0)) == _outcome(
        lambda: reference_polish_root(f, fprime, 0.5, 0.0, 1.0)
    )
