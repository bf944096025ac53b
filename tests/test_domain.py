"""Every admissible input ends certified or refused, in the library and the CLI alike.

Draws are log-uniform over the wide domain of each problem:

  * mp1t: M1 on 1e-3..1e4, t - 1 on 1e-3..10, Mt/M1^t - 1 on 1e-6..1e3 and
    q/M1 on 1e-3..1e3;
  * mp1e: t on 1e-3..10, t*M1 on 1e-12..700, Me/e^(t*M1) - 1 on 1e-16..1e3
    and q/M1 on 1e-3..1e3;
  * upm: the moments of a law on 3 to 5 support points in 1e-3..2.5, at
    least one of them above 1, with weights on 1e-6..1 before they are
    normalized.

Each draw must come back as a ``Report`` whose verification passed, or as a
``MomentBoundError``.  ``momentbound solve`` on the same draw must exit with
the code ``cli._fail`` gives that error's class (0 for a report, whose
envelope reads ``"verified": true``), and print nothing on stdout when it
refuses.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentbound import cli
from momentbound.cli import EXIT_DISAGREEMENT, EXIT_OK
from momentbound.errors import MomentBoundError, UncertifiedError
from momentbound.exp_moment import ExpMomentAmbiguity
from momentbound.newsvendor import NewsvendorInstance, optimize_order
from momentbound.problems import PROBLEMS
from references import reference_optimize_order
from test_stream_pins import _workloads

_DRAWS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

# (M1, Me, t, q) that fail their certificate: an interior and a boundary
# answer where t*M1 is near 1e-7 and Me is 1 plus a few times t*M1, and one
# whose Me - e^(t*M1) is 1 ulp, where the interior equation is rounding noise
REFUSED_MP1E = [
    (0.00018971070553332973, 1.0000003146622403, 0.0016586421662518982, 0.0002006879238794904),
    (1.6796908592003179e-07, 1.0000000003544678, 0.0021103147068632384, 8.536996777895465e-05),
    (2.5166806724617303e-07, 1.000000082717483, 0.3286768973086897, 1.6162634948596833e-07),
]
# (M1, gamma, Mplus): the two-point law's upper point rounds to M1, and its
# lower mass to 0
REFUSED_UPM = (0.6298592134266, 1.4619698943643444, 1.655394454358121e-17)
# (M1, Me, t, 1 - eta) of a wide mp1e decision: the solve at q* fails its
# certificate
REFUSED_ORDER = (2.8199324951700167, 1.0058282245080463, 0.0020607961787627144, 0.07176858527005486)
# (M1, Me, t, 1 - eta): the worst case at q* + eps fails its certificate, but
# q*'s own has p_hi at most 1 - eta, so q* is the right end and that end is
# not solved
DECIDED_ORDER = (38819.25751950423, 2.1949631622519174e219, 0.013010354469930397, 0.7)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _mp1t(draw) -> dict:
    M1 = draw(_log_uniform(1e-3, 1e4))
    t = 1.0 + draw(_log_uniform(1e-3, 10.0))
    Mt = (1.0 + draw(_log_uniform(1e-6, 1e3))) * M1**t
    return {"M1": M1, "Mt": Mt, "t": t, "q": draw(_log_uniform(1e-3, 1e3)) * M1}


@st.composite
def _mp1e(draw) -> dict:
    t = draw(_log_uniform(1e-3, 10.0))
    m1 = draw(_log_uniform(1e-12, 700.0))
    Me = (1.0 + draw(_log_uniform(1e-16, 1e3))) * math.exp(m1)
    return {"M1": m1 / t, "Me": Me, "t": t, "q": draw(_log_uniform(1e-3, 1e3)) * m1 / t}


@st.composite
def _upm(draw) -> dict:
    xs = draw(st.lists(_log_uniform(1e-3, 2.5), min_size=3, max_size=5, unique=True))
    ws = draw(st.lists(_log_uniform(1e-6, 1.0), min_size=len(xs), max_size=len(xs)))
    total = math.fsum(ws)
    ps = [w / total for w in ws]
    M1 = math.fsum(x * p for x, p in zip(xs, ps))
    M2 = math.fsum(x * x * p for x, p in zip(xs, ps))
    Mplus = math.fsum(max(x - 1.0, 0.0) * p for x, p in zip(xs, ps))
    assume(Mplus > 0.0)  # a support point above 1; a law without one is not in the domain
    return {"M1": M1, "gamma": M2 / M1**2, "Mplus": Mplus}


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("domain") / "instance.json"


def _run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_code(exc: MomentBoundError) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli._fail(exc)


def _certified_or_refused(problem: str, params: dict, path) -> None:
    entry = PROBLEMS[problem]
    try:
        report = entry.solve(entry.instance(**params))
    except MomentBoundError as exc:
        refusal, expected = exc, _exit_code(exc)
    else:
        assert report.verification.passed, params
        refusal, expected = None, EXIT_OK
    path.write_text(json.dumps({"problem": problem, "params": params}))
    code, out, err = _run(["solve", str(path)])
    assert code == expected, (params, err)
    if refusal is None:
        envelope = json.loads(out)
        assert envelope["verified"] and envelope["optimal_value"] == report.value, params
    else:
        assert out == "", params
        assert json.loads(err) == {"error": type(refusal).__name__, "message": str(refusal)}


@_DRAWS
@given(params=_mp1t())
def test_mp1t(instance_path, params):
    _certified_or_refused("mp1t", params, instance_path)


@_DRAWS
@given(params=_mp1e())
@example(params=dict(zip(("M1", "Me", "t", "q"), REFUSED_MP1E[0])))
@example(params=dict(zip(("M1", "Me", "t", "q"), REFUSED_MP1E[1])))
@example(params=dict(zip(("M1", "Me", "t", "q"), REFUSED_MP1E[2])))
def test_mp1e(instance_path, params):
    _certified_or_refused("mp1e", params, instance_path)


@_DRAWS
@given(params=_upm())
def test_upm(instance_path, params):
    _certified_or_refused("upm", params, instance_path)


@pytest.mark.parametrize("M1, Me, t, q", REFUSED_MP1E)
def test_uncertified_mp1e_is_refused(tmp_path, M1, Me, t, q):
    entry = PROBLEMS["mp1e"]
    with pytest.raises(UncertifiedError):
        entry.solve(entry.instance(M1=M1, Me=Me, t=t, q=q))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"problem": "mp1e", "params": {"M1": M1, "Me": Me, "t": t, "q": q}}))
    code, out, err = _run(["solve", str(path)])
    assert (code, out, json.loads(err)["error"]) == (EXIT_DISAGREEMENT, "", "UncertifiedError")


def _order_file(tmp_path, order) -> str:
    M1, Me, t, mass = order
    params = {"ambiguity": "mp1e", "M1": M1, "Me": Me, "t": t, "eta": 1.0 - mass}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"problem": "newsvendor", "params": params}))
    return str(path)


def test_uncertified_order_is_refused(tmp_path):
    M1, Me, t, mass = REFUSED_ORDER
    amb, eta = ExpMomentAmbiguity(M1=M1, Me=Me, t=t), 1.0 - mass
    with pytest.raises(UncertifiedError):  # at q* itself, which every decision certifies
        amb.solve(amb._order_at_mass(1.0 - eta)[0])
    code, out, err = _run(["solve", _order_file(tmp_path, REFUSED_ORDER)])
    assert (code, out, json.loads(err)["error"]) == (EXIT_DISAGREEMENT, "", "UncertifiedError")


def test_order_whose_failing_end_is_not_needed_decides(tmp_path):
    M1, Me, t, mass = DECIDED_ORDER
    inst = NewsvendorInstance(ambiguity=ExpMomentAmbiguity(M1=M1, Me=Me, t=t), eta=1.0 - mass)
    with pytest.raises(UncertifiedError):
        reference_optimize_order(inst)
    d = optimize_order(inst)
    assert d.bracket[1] == d.q_star and d.bracket_reports[1] is d.report
    code, out, err = _run(["solve", _order_file(tmp_path, DECIDED_ORDER)])
    assert code == EXIT_OK
    assert (json.loads(out)["root"], json.loads(out)["verified"]) == (d.q_star, True)


def test_upm_law_with_a_mass_rounding_to_zero_is_refused(tmp_path):
    # away from the feasibility boundary: the refusal of an uncertified
    # answer, not the schema code
    M1, gamma, Mplus = REFUSED_UPM
    entry = PROBLEMS["upm"]
    with pytest.raises(UncertifiedError, match="probabilities must be strictly positive"):
        entry.solve(entry.instance(M1=M1, gamma=gamma, Mplus=Mplus))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"problem": "upm", "params": {"M1": M1, "gamma": gamma, "Mplus": Mplus}}))
    code, out, err = _run(["solve", str(path)])
    assert (code, out, json.loads(err)["error"]) == (EXIT_DISAGREEMENT, "", "UncertifiedError")


def test_two_point_laws_straddle_the_mean():
    # u <= M1 <= v on every certified two-point answer of the benchmark's
    # wide probe draws: a lower point that rounds one ulp past M1 is M1
    workloads, answers = _workloads(), 0
    for seed in range(1, 61):
        for op in workloads.known_defect_ops("solve_stream", seed):
            entry = PROBLEMS[op.kind]
            try:
                points = entry.solve(entry.instance(**op.params)).dist.points
            except MomentBoundError:
                continue
            if len(points) == 2:
                assert points[0][0] <= op.params["M1"] <= points[1][0], op.params
                answers += 1
    assert answers > 20_000
