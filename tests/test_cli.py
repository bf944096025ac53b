"""Command-line front end: envelopes, sweeps, checks, exit codes."""

import argparse
import json
import math
import re

import pytest

from momentbound import cli
from momentbound.cli import (
    EXIT_DISAGREEMENT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_SCHEMA,
    EXIT_SWEEP_FAILED,
    main,
)
from momentbound.exp_moment import ExpMomentInstance, solve_exp_moment
from momentbound.partial_moment import PartialMomentInstance, solve_partial_moment
from momentbound.power_moment import PowerMomentInstance, solve_power_moment
from references import chernoff_tail_bound, exp_moment_value_50

GOLDEN_MP1T = (
    '{"problem": "mp1t", "optimal_value": 0.75, '
    '"distribution": [{"x": 0.0, "p": 0.75}, {"x": 4.0, "p": 0.25}], '
    '"dual": [0.0, 0.5, 0.0625], "branch": "boundary", "root": null, '
    '"iterations": 0, "verification": {"primal_residual": 0.0, '
    '"slack_residual": 0.0, "dual_min_on_grid": 0.0, '
    '"duality_gap": 0.0, "passed": true}, "verified": true, "timing_ms": 0.0}'
)


GOLDEN_MP1E_BOUNDARY = (
    '{"problem": "mp1e", "optimal_value": 0.6673247154461621, '
    '"distribution": [{"x": 0.0, "p": 0.6673247154461621}, '
    '{"x": 3.00593415390366, "p": 0.3326752845538379}], '
    '"dual": [-0.024078941976891862, 0.513483004352904, 0.024078941976891862], '
    '"branch": "boundary", "root": null, "iterations": 0, '
    '"verification": {"primal_residual": 2.6645352591003757e-15, '
    '"slack_residual": 0.0, '
    '"dual_min_on_grid": 0.0, "duality_gap": 0.0, '
    '"passed": true}, "verified": true, "timing_ms": 0.0}'
)

GOLDEN_MP1E_INTERIOR = (
    '{"problem": "mp1e", "optimal_value": 0.012059559745025542, '
    '"distribution": [{"x": 0.9372675420809182, "p": 0.9875273849068539}, '
    '{"x": 5.966883019716725, "p": 0.012472615093146133}], '
    '"dual": [-0.0004130553481205896, -0.006584396049862852, '
    '0.002579086000682405], "branch": "interior", "root": 0.9372675420809182, '
    '"iterations": 6, "verification": {"primal_residual": 8.881784197001252e-16, '
    '"slack_residual": 4.440892098500626e-16, '
    '"dual_min_on_grid": 0.0, "duality_gap": 3.469446951953614e-18, '
    '"passed": true}, "verified": true, "timing_ms": 0.0}'
)

GOLDEN_UPM_TWO_POINT = (
    '{"problem": "upm", "optimal_value": 0.040000000000000015, '
    '"distribution": [{"x": 0.25000000000000006, "p": 0.8}, '
    '{"x": 1.5000000000000002, "p": 0.19999999999999993}], '
    '"dual": [-0.050000000000000086, 0.40000000000000036, -0.8000000000000012, '
    '3.000000000000003], "branch": "two_point", "root": null, "iterations": 0, '
    '"verification": {"primal_residual": 0.0, '
    '"slack_residual": 8.881784197001252e-16, '
    '"dual_min_on_grid": 6.245004513516506e-17, '
    '"duality_gap": 2.0122792321330962e-16, "passed": true}, "verified": true, '
    '"timing_ms": 0.0}'
)

GOLDEN_UPM_FAMILY = (
    '{"problem": "upm", "optimal_value": 0.26, "distribution": [{"x": 0.0, '
    '"p": 0.7}, {"x": 1.3636363636363635, "p": 0.25744680851063817}, {"x": 3.5, '
    '"p": 0.0425531914893617}], "dual": [0.0, -1.0, 1.0, -1.0], '
    '"branch": "degenerate_family", "root": 3.5, "iterations": 0, '
    '"verification": {"primal_residual": 2.220446049250313e-16, '
    '"slack_residual": 0.0, "dual_min_on_grid": -0.0, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"timing_ms": 0.0}'
)

GOLDEN_UPM_FAMILY_V1 = (
    '{"problem": "upm", "optimal_value": 0.26, "distribution": [{"x": 0.0, '
    '"p": 0.7}, {"x": 1.2500000000000002, "p": 0.22857142857142854}, {"x": 3.0, '
    '"p": 0.07142857142857144}], "dual": [0.0, -1.0, 1.0, -1.0], '
    '"branch": "degenerate_family", "root": 3.0, "iterations": 0, '
    '"verification": {"primal_residual": 2.220446049250313e-16, '
    '"slack_residual": 0.0, "dual_min_on_grid": -0.0, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"timing_ms": 0.0}'
)

# the worst case at q* is the law the order was solved from, certified
GOLDEN_NEWSVENDOR = (
    '{"problem": "newsvendor", "optimal_value": 0.6196152422706631, '
    '"distribution": [{"x": 0.4226497308103743, "p": 0.9000000000000001}, '
    '{"x": 6.196152422706633, "p": 0.09999999999999998}], '
    '"dual": [0.015470053837925157, -0.07320508075688774, 0.08660254037844385], '
    '"branch": "closed_form", "root": 3.3094010767585034, "iterations": 0, '
    '"verification": {"primal_residual": 8.881784197001252e-16, '
    '"slack_residual": 4.440892098500626e-16, '
    '"dual_min_on_grid": -1.734723475976807e-18, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"timing_ms": 0.0}'
)

GOLDEN_CHECK_MP1T_INTERIOR = (
    '{"problem": "mp1t", "solver_value": 0.32287565553229525, '
    '"oracle_value": 0.3228756555322953, "difference": 5.551115123125783e-17, '
    '"oracle_status": "optimal", "oracle_rounds": 1, '
    '"verification": {"primal_residual": 4.440892098500626e-16, '
    '"slack_residual": 4.440892098500626e-16, '
    '"dual_min_on_grid": -4.440892098500626e-16, '
    '"duality_gap": 0.0, "passed": true}, "verified": true, '
    '"agree": true}'
)

GOLDEN_CHECK_MP1E_INTERIOR = (
    '{"problem": "mp1e", "solver_value": 0.012059559745025542, '
    '"oracle_value": 0.012059559745025535, "difference": 6.938893903907228e-18, '
    '"oracle_status": "optimal", "oracle_rounds": 1, '
    '"verification": {"primal_residual": 8.881784197001252e-16, '
    '"slack_residual": 4.440892098500626e-16, '
    '"dual_min_on_grid": 0.0, "duality_gap": 3.469446951953614e-18, '
    '"passed": true}, "verified": true, "agree": true}'
)

GOLDEN_CHECK_UPM_FAMILY = (
    '{"problem": "upm", "solver_value": 0.26, "oracle_value": 0.26, '
    '"difference": 0.0, "oracle_status": "optimal", "oracle_rounds": 1, '
    '"verification": {"primal_residual": 2.220446049250313e-16, '
    '"slack_residual": 0.0, "dual_min_on_grid": -0.0, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"agree": true}'
)

GOLDEN_ORACLE_MP1T = (
    '{"problem": "oracle", "optimal_value": 0.3228756555322953, '
    '"distribution": [{"x": 0.35424868893540945, "p": 0.8779644730092273}, '
    '{"x": 5.645751311064591, "p": 0.12203552699077277}], '
    '"dual": [-0.0118918735412721, 0.06704865402693042, -0.0945081090044884], '
    '"branch": "oracle", "root": null, "iterations": 0, "verification": null, '
    '"verified": false, "timing_ms": 0.0}'
)

GOLDEN_ORACLE_MP1E = (
    '{"problem": "oracle", "optimal_value": 0.012059559745025535, '
    '"distribution": [{"x": 0.936, "p": 2.790531943648837e-15}, '
    '{"x": 0.9372675420809182, "p": 0.9875273849068511}, {"x": 5.966883019716725, '
    '"p": 0.01247261509314613}], "dual": [0.00041695586588390515, '
    '0.00658008203632559, -0.00257903004011472], "branch": "oracle", "root": null, '
    '"iterations": 0, "verification": null, "verified": false, "timing_ms": 0.0}'
)

GOLDEN_ORACLE_UPM = (
    '{"problem": "oracle", "optimal_value": 0.26, "distribution": [{"x": 0.0, '
    '"p": 0.7000000000000001}, {"x": 1.0032750000000001, '
    '"p": 0.08649147973619464}, {"x": 1.8375000000000001, '
    '"p": 0.20971652848458952}, {"x": 7.3500000000000005, '
    '"p": 0.003791991779215784}], "dual": [0.0, -0.9999999999999991, 1.0, '
    '-1.000000000000001], "branch": "oracle", "root": null, "iterations": 0, '
    '"verification": null, "verified": false, "timing_ms": 0.0}'
)

GOLDEN_SWEEP = (
    'param,value,branch,root,iters\n'
    '0.5,0.875,boundary,,0\n'
    '1.0,0.75,boundary,,0\n'
    '1.5,0.625,boundary,,0\n'
    '2.0,0.5,boundary,,0\n'
    '2.5,0.39564392373895996,interior,4.79128784747792,6\n'
    '3.0,0.32287565553229525,interior,5.645751311064591,6\n'
    '3.5,0.27069063257455495,interior,6.54138126514911,6\n'
    '4.0,0.23205080756887728,interior,7.464101615137755,6\n'
)


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _mp1t(tmp_path, **overrides):
    params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
    params.update(overrides)
    return _write(tmp_path, {"problem": "mp1t", "params": params})


def _infeasible_grid_doc(command: str) -> dict:
    """An instance whose moments need mass above x = 1, on an oracle grid over [0, 1]."""
    params = {"M1": 50, "Mt": 530.33, "t": 1.5, "q": 100}
    grid = {"hi": 1.0, "refine_around": []}
    if command == "solve":
        return {"problem": "oracle", "params": dict(params, base="mp1t"), "oracle": grid}
    return {"problem": "mp1t", "params": params, "oracle": grid}


def _reject_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def _normalize_timing(line: str) -> str:
    return re.sub(r'"timing_ms": [0-9eE+.\-]+', '"timing_ms": 0.0', line)


E2 = math.e**2
MP1T = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
MP1T_INTERIOR = dict(MP1T, q=3)
MP1E_INTERIOR = {"M1": 1, "Me": E2, "t": 1, "q": 5}
UPM_FAMILY = {"M1": 0.5, "gamma": 4, "Mplus": 0.2}
NEWSVENDOR = {"ambiguity": "mp1t", "M1": 1, "Mt": 4, "t": 2, "eta": 0.9}
SOLVE, CHECK = ["solve"], ["check"]
SWEEP_Q = ["sweep", "--param", "q", "--from", "0.5", "--to", "4", "--steps", "8"]

# (problem, params, command and its options, stdout with timing_ms zeroed).
# The strings pin the output byte for byte.
GOLDEN = [
    pytest.param("mp1t", MP1T, SOLVE, GOLDEN_MP1T, id="mp1t-boundary"),
    pytest.param(
        "mp1e", {"M1": 1, "Me": E2, "t": 1, "q": 1}, SOLVE, GOLDEN_MP1E_BOUNDARY, id="mp1e-boundary"
    ),
    pytest.param("mp1e", MP1E_INTERIOR, SOLVE, GOLDEN_MP1E_INTERIOR, id="mp1e-interior"),
    pytest.param(
        "upm", {"M1": 0.5, "gamma": 2, "Mplus": 0.1}, SOLVE, GOLDEN_UPM_TWO_POINT, id="upm-two-point"
    ),
    pytest.param("upm", UPM_FAMILY, SOLVE, GOLDEN_UPM_FAMILY, id="upm-family"),
    pytest.param("upm", dict(UPM_FAMILY, v1=3), SOLVE, GOLDEN_UPM_FAMILY_V1, id="upm-family-v1"),
    pytest.param("newsvendor", NEWSVENDOR, SOLVE, GOLDEN_NEWSVENDOR, id="newsvendor-mp1t"),
    pytest.param("mp1t", MP1T, SWEEP_Q, GOLDEN_SWEEP, id="sweep-mp1t-q"),
    pytest.param("mp1t", MP1T_INTERIOR, CHECK, GOLDEN_CHECK_MP1T_INTERIOR, id="check-mp1t-interior"),
    pytest.param("mp1e", MP1E_INTERIOR, CHECK, GOLDEN_CHECK_MP1E_INTERIOR, id="check-mp1e-interior"),
    pytest.param("upm", UPM_FAMILY, CHECK, GOLDEN_CHECK_UPM_FAMILY, id="check-upm-family"),
    pytest.param(
        "oracle", dict(MP1T_INTERIOR, base="mp1t"), SOLVE, GOLDEN_ORACLE_MP1T, id="oracle-mp1t"
    ),
    pytest.param(
        "oracle", dict(MP1E_INTERIOR, base="mp1e"), SOLVE, GOLDEN_ORACLE_MP1E, id="oracle-mp1e"
    ),
    pytest.param("oracle", dict(UPM_FAMILY, base="upm"), SOLVE, GOLDEN_ORACLE_UPM, id="oracle-upm"),
]


class TestSolve:
    @pytest.mark.parametrize("problem,params,command,golden", GOLDEN)
    def test_golden_envelope(self, tmp_path, capsys, problem, params, command, golden):
        path = _write(tmp_path, {"problem": problem, "params": params})
        code = main([command[0], path, *command[1:]])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert _normalize_timing(out).strip() == golden.strip()

    STRICT_JSON_RUNS = [
        pytest.param(problem, params, command, id=case.id)
        for case in GOLDEN
        for problem, params, command, _ in [case.values]
        if command != SWEEP_Q  # sweep writes CSV
    ] + [
        pytest.param("mp1t", MP1T, ["check", "--inject-dual-noise"], id="check-noise"),
        pytest.param(None, None, ["check"], id="check-infeasible-grid"),
    ]

    @pytest.mark.parametrize("problem,params,command", STRICT_JSON_RUNS)
    def test_stdout_is_strict_json(self, tmp_path, capsys, problem, params, command):
        if problem is None:
            doc = _infeasible_grid_doc(command[0])
        else:
            doc = {"problem": problem, "params": params}
        main([command[0], _write(tmp_path, doc), *command[1:]])
        for line in capsys.readouterr().out.splitlines():
            json.loads(line, parse_constant=_reject_constant)

    def test_envelope_round_trips(self, tmp_path, capsys):
        code = main(["solve", _mp1t(tmp_path)])
        out = capsys.readouterr().out.strip()
        assert code == EXIT_OK
        doc = json.loads(out)
        assert json.dumps(doc) == out  # field order survives a round trip

    def test_upm_degenerate(self, tmp_path, capsys):
        path = _write(
            tmp_path, {"problem": "upm", "params": {"M1": 0.5, "gamma": 4, "Mplus": 0.2}}
        )
        code = main(["solve", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["optimal_value"] == pytest.approx(0.26, abs=1e-12)
        assert doc["branch"] == "degenerate_family"
        assert doc["verified"] is True

    def test_infeasible_exit_and_message(self, tmp_path, capsys):
        path = _mp1t(tmp_path, Mt=1)
        code = main(["solve", path])
        captured = capsys.readouterr()
        assert code == EXIT_INFEASIBLE
        err = json.loads(captured.err.splitlines()[0])
        assert "Mt > M1^t" in err["message"]

    def test_infeasible_oracle_grid_exit_and_message(self, tmp_path, capsys):
        # solve and check refuse the grid alike
        for command in ("solve", "check"):
            code = main([command, _write(tmp_path, _infeasible_grid_doc(command))])
            captured = capsys.readouterr()
            assert code == EXIT_INFEASIBLE, command
            assert captured.out == ""
            err = json.loads(captured.err.splitlines()[0])
            assert err["error"] == "InfeasibleError"
            assert err["message"] == (
                "the grid LP is infeasible on the oracle grid of 2001 points over [0.0, 1.0]"
            )

    def test_theta_power_overflow_is_a_range_rejection(self, tmp_path, capsys):
        # just above the threshold at t near 1: y^t overflows at the bracket's right end
        params = {
            "M1": 4.1253095591400495,
            "Mt": 11.390850888585272,
            "t": 1.0014282806319683,
            "q": 9.700530357896013e305,
        }
        code = main(["solve", _write(tmp_path, {"problem": "mp1t", "params": params})])
        assert code == EXIT_RANGE
        assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "RangeError"

    def test_boundary_power_overflow_is_a_range_rejection(self, tmp_path, capsys):
        # on the boundary branch the upper support point's t-th power overflows
        params = {
            "M1": 208.39960338468364,
            "Mt": 15002.964352317631,
            "t": 1.0060517443252834,
            "q": 507.2393697531986,
        }
        code = main(["solve", _write(tmp_path, {"problem": "mp1t", "params": params})])
        assert code == EXIT_RANGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[0])["error"] == "RangeError"

    def test_range_rejection(self, tmp_path):
        path = _write(
            tmp_path,
            {"problem": "mp1e", "params": {"M1": 1, "Me": 10, "t": 1, "q": 800}},
        )
        assert main(["solve", path]) == EXIT_RANGE

    def test_power_overflow_is_a_range_rejection(self, tmp_path, capsys):
        code = main(["solve", _mp1t(tmp_path, Mt=10, t=1.001)])
        assert code == EXIT_RANGE
        assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "RangeError"

    # M1^t overflows, underflows to 0 or to a subnormal, or Mt/M1^t overflows
    OUT_OF_RANGE = [
        (1e200, 1e300, 1),
        (1e-200, 1, 1),
        (1e-160, 1, 1),
        (1e-150, 1e10, 1),
        (1e-160, 1e-319, 1e-160),
    ]

    @pytest.mark.parametrize(
        "M1,Mt,q", OUT_OF_RANGE, ids=[f"{m1}-{mt}" for m1, mt, _ in OUT_OF_RANGE]
    )
    def test_mean_power_out_of_range_is_a_range_rejection(self, tmp_path, capsys, M1, Mt, q):
        code = main(["solve", _mp1t(tmp_path, M1=M1, Mt=Mt, q=q)])
        assert code == EXIT_RANGE
        assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "RangeError"

    def test_upper_support_point_overflow_is_a_range_rejection(self, tmp_path, capsys):
        code = main(["solve", _mp1t(tmp_path, M1=1e300, Mt=1e308, t=1.02, q=1e300)])
        captured = capsys.readouterr()
        assert code == EXIT_RANGE
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[0])["error"] == "RangeError"

    def _assert_deep_tail_answered(self, tmp_path, capsys, params):
        code = main(["solve", _write(tmp_path, {"problem": "mp1e", "params": params})])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["verified"] is True and doc["branch"] == "interior"
        M1, Me, t, q = (params[k] for k in ("M1", "Me", "t", "q"))
        ref = exp_moment_value_50(M1, Me, t, q)
        assert doc["optimal_value"] == pytest.approx(ref, rel=1e-11, abs=0.0)
        # the bound's own rounding aside: at Me = 1e160 the value meets it
        assert doc["optimal_value"] <= chernoff_tail_bound(Me, t, q) * (1.0 + 1e-15)
        return doc

    def test_deep_tail_is_answered(self, tmp_path, capsys):
        # a tail of about 1e-17: the lower support point is three ulps below the mean
        self._assert_deep_tail_answered(tmp_path, capsys, {"M1": 1, "Me": E2, "t": 1, "q": 40})

    def test_phi_overflow_beside_the_pole_is_answered(self, tmp_path, capsys):
        path = _write(
            tmp_path, {"problem": "mp1e", "params": {"M1": 1, "Me": 1e297, "t": 1, "q": 695}}
        )
        code = main(["solve", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["verified"] is True
        assert doc["optimal_value"] == 5.383200992144691e-06

    def test_huge_exponential_moment_is_answered(self, tmp_path, capsys):
        # (Me - e^u)^2 passes float range, and the search in the gap never squares it
        params = {"M1": 300, "Me": 1e160, "t": 1, "q": 400}
        self._assert_deep_tail_answered(tmp_path, capsys, params)

    def test_unknown_param_key(self, tmp_path):
        path = _mp1t(tmp_path, bogus=3)
        assert main(["solve", path]) == EXIT_SCHEMA

    def test_unknown_top_level_key(self, tmp_path):
        path = _write(
            tmp_path,
            {"problem": "mp1t", "params": {"M1": 1, "Mt": 4, "t": 2, "q": 1}, "extra": 1},
        )
        assert main(["solve", path]) == EXIT_SCHEMA

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"problem": "mp1t", "params": {"M1": NaN, "Mt": 4, "t": 2, "q": 1}}')
        assert main(["solve", str(path)]) == EXIT_SCHEMA

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_SCHEMA

    def test_newsvendor(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {
                "problem": "newsvendor",
                "params": {
                    "ambiguity": "mp1e",
                    "exponential_lambda": 0.02,
                    "t": 0.01,
                    "eta": 0.9999,
                    "eps": 1e-4,
                },
            },
        )
        code = main(["solve", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["branch"] == "closed_form"
        assert 150.0 < doc["root"] < 1400.0  # order quantity
        assert doc["verified"] is True

    def test_oracle_problem(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {
                "problem": "oracle",
                "params": {"base": "mp1t", "M1": 1, "Mt": 4, "t": 2, "q": 1},
                "oracle": {"lo": 0, "hi": 8, "n_points": 2001, "refine_around": [4.0]},
            },
        )
        code = main(["solve", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["optimal_value"] == pytest.approx(0.75, abs=1e-9)
        assert doc["verified"] is False  # LP value carries no certificate
        assert doc["verification"] is None


class TestSweep:
    def test_figure_style_sweep_monotone(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {
                "problem": "mp1t",
                "params": {"M1": 50, "Mt": 1.5 * 50.0**1.5, "t": 1.5, "q": 100},
            },
        )
        code = main(
            ["sweep", path, "--param", "q", "--from", "60", "--to", "140", "--steps", "81"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert out[0] == "param,value,branch,root,iters"
        values = [float(line.split(",")[1]) for line in out[1:]]
        assert len(values) == 81
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_single_step_equals_solve(self, tmp_path, capsys):
        path = _mp1t(tmp_path)
        main(["solve", path])
        solve_doc = json.loads(capsys.readouterr().out)
        code = main(["sweep", path, "--param", "q", "--from", "1", "--to", "9", "--steps", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert len(out) == 2
        assert float(out[1].split(",")[1]) == solve_doc["optimal_value"]

    def test_branch_flip_is_continuous(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {"problem": "mp1e", "params": {"M1": 1, "Me": math.e**2, "t": 1, "q": 1}},
        )
        code = main(
            ["sweep", path, "--param", "q", "--from", "1.5", "--to", "3.0", "--steps", "61"]
        )
        rows = capsys.readouterr().out.splitlines()[1:]
        assert code == EXIT_OK
        branches = [r.split(",")[2] for r in rows]
        flips = sum(1 for a, b in zip(branches, branches[1:]) if a != b)
        assert flips == 1
        values = [float(r.split(",")[1]) for r in rows]
        gaps = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(gaps) < 0.02  # no jump at the branch switch

    def test_failed_rows_marked_nan_exit_5(self, tmp_path, capsys):
        path = _mp1t(tmp_path)
        code = main(
            ["sweep", path, "--param", "q", "--from", "-1", "--to", "1", "--steps", "3"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_SWEEP_FAILED
        assert out[1].split(",")[1] == "nan"  # q = -1 is invalid
        assert out[3].split(",")[1] != "nan"  # q = 1 solves

    def test_csv_file_output(self, tmp_path):
        path = _mp1t(tmp_path)
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "sweep", path, "--param", "q",
                "--from", "0.5", "--to", "2.5", "--steps", "5",
                "--csv", str(csv_path),
            ]
        )
        assert code == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "param,value,branch,root,iters"
        assert len(lines) == 6

    def test_bad_param_rejected(self, tmp_path):
        path = _mp1t(tmp_path)
        assert main(
            ["sweep", path, "--param", "zz", "--from", "0", "--to", "1", "--steps", "2"]
        ) == EXIT_SCHEMA


class TestCheck:
    def test_agreement(self, tmp_path, capsys):
        code = main(["check", _mp1t(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["agree"] is True
        assert doc["verified"] is True
        assert doc["difference"] <= 1e-9

    def test_exp_interior_seeded(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {"problem": "mp1e", "params": {"M1": 1, "Me": math.e**2, "t": 1, "q": 5}},
        )
        code = main(["check", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["difference"] <= 1e-9

    def test_grid_overflow_is_one_json_refusal(self, tmp_path, capsys):
        # the default grid reaches t*x of about 969, past exp()'s range: the
        # refusal is the only thing written, with no numpy warning before it
        path = _write(
            tmp_path, {"problem": "mp1e", "params": {"M1": 1, "Me": 1e150, "t": 1, "q": 300}}
        )
        code = main(["check", path])
        captured = capsys.readouterr()
        assert code == EXIT_SCHEMA
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "DomainError",
            "message": "moment functions are not finite on the grid",
        }

    def test_upm_agreement(self, tmp_path, capsys):
        path = _write(
            tmp_path, {"problem": "upm", "params": {"M1": 0.5, "gamma": 2, "Mplus": 0.1}}
        )
        code = main(["check", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["agree"] is True

    def test_injected_noise_fails(self, tmp_path, capsys):
        code = main(["check", _mp1t(tmp_path), "--inject-dual-noise"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_DISAGREEMENT
        assert doc["verified"] is False

    def test_unseeded_still_close(self, tmp_path, capsys):
        code = main(["check", _mp1t(tmp_path), "--no-seed-support", "--grid-points", "4001"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["difference"] <= 1e-6

    @pytest.mark.parametrize(
        "problem, params",
        [
            ("mp1t", {"M1": 1, "Mt": 2, "t": 2, "q": 6}),
            ("mp1e", {"M1": 50, "Me": 2, "t": 0.01, "q": 60}),
        ],
    )
    def test_degenerate_final_basis(self, tmp_path, capsys, problem, params):
        # a degenerate basic mass re-solves to about -1e-12 on the refined
        # grid; the oracle must still return a distribution, not a DomainError
        code = main(["check", _write(tmp_path, {"problem": problem, "params": params})])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["agree"] is True


# One instance per certified problem, with the library call and the report
# fields the CLI envelope must carry as `root` and `iterations`.
PROBLEM_CASES = [
    pytest.param(
        (
            "mp1t",
            {"M1": 1, "Mt": 4, "t": 2, "q": 3},
            lambda p: solve_power_moment(PowerMomentInstance(**p)),
            lambda rep: (rep.root, rep.bisect_iters),
        ),
        id="mp1t",
    ),
    pytest.param(
        (
            "upm",
            {"M1": 0.5, "gamma": 4, "Mplus": 0.2},
            lambda p: solve_partial_moment(PartialMomentInstance(**p)),
            lambda rep: (rep.root, 0),
        ),
        id="upm",
    ),
    pytest.param(
        (
            "mp1e",
            {"M1": 1, "Me": math.e**2, "t": 1, "q": 5},
            lambda p: solve_exp_moment(ExpMomentInstance(**p)),
            lambda rep: (rep.root, rep.bisect_iters),
        ),
        id="mp1e",
    ),
]


@pytest.fixture(params=PROBLEM_CASES)
def case(request):
    """(problem, params, library solve, report -> (root, iterations))"""
    return request.param


class TestEveryProblem:
    def test_solve_root_and_iterations(self, tmp_path, capsys, case):
        problem, params, solve, envelope_fields = case
        code = main(["solve", _write(tmp_path, {"problem": problem, "params": params})])
        doc = json.loads(capsys.readouterr().out)
        rep = solve(params)
        assert code == EXIT_OK
        assert doc["optimal_value"] == rep.value
        assert doc["branch"] == rep.branch
        assert (doc["root"], doc["iterations"]) == envelope_fields(rep)
        assert doc["root"] is not None

    def test_one_step_sweep_row_equals_solve(self, tmp_path, capsys, case):
        problem, params = case[:2]
        path = _write(tmp_path, {"problem": problem, "params": params})
        main(["solve", path])
        doc = json.loads(capsys.readouterr().out)
        key = next(iter(params))
        start = str(params[key])
        code = main(
            ["sweep", path, "--param", key, "--from", start, "--to", start, "--steps", "1"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert out[1] == (
            f"{float(params[key])!r},{doc['optimal_value']!r},{doc['branch']},"
            f"{doc['root']!r},{doc['iterations']}"
        )

    def test_check_agrees(self, tmp_path, capsys, case):
        problem, params = case[:2]
        code = main(["check", _write(tmp_path, {"problem": problem, "params": params})])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["problem"] == problem
        assert doc["agree"] is True and doc["verified"] is True

    def test_oracle_with_this_base(self, tmp_path, capsys, case):
        problem, params = case[:2]
        path = _write(tmp_path, {"problem": "oracle", "params": {"base": problem, **params}})
        code = main(["solve", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["problem"] == "oracle" and doc["branch"] == "oracle"
        assert doc["verification"] is None and doc["verified"] is False
        mean = sum(a["x"] * a["p"] for a in doc["distribution"])
        assert mean == pytest.approx(params["M1"], rel=1e-9)


class TestUpmV1:
    def test_v1_passes_through_to_the_family_member(self, tmp_path, capsys):
        params = {"M1": 0.5, "gamma": 4, "Mplus": 0.2, "v1": 3.0}
        code = main(["solve", _write(tmp_path, {"problem": "upm", "params": params})])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["branch"] == "degenerate_family"
        assert doc["root"] == 3.0
        assert doc["distribution"][-1]["x"] == 3.0
        assert doc["optimal_value"] == pytest.approx(0.26, abs=1e-12)

    def test_v1_on_two_point_instance_is_a_schema_error(self, tmp_path, capsys):
        params = {"M1": 0.5, "gamma": 2, "Mplus": 0.1, "v1": 3.0}
        code = main(["solve", _write(tmp_path, {"problem": "upm", "params": params})])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err["error"] == "SchemaError"
        assert "v1" in err["message"]

    def test_v1_is_not_sweepable(self, tmp_path):
        params = {"M1": 0.5, "gamma": 4, "Mplus": 0.2}
        path = _write(tmp_path, {"problem": "upm", "params": params})
        assert main(
            ["sweep", path, "--param", "v1", "--from", "2", "--to", "3", "--steps", "2"]
        ) == EXIT_SCHEMA


class TestOracleValue:
    def test_upm_oracle_reports_the_variance(self, tmp_path, capsys):
        params = {"M1": 0.5, "gamma": 4, "Mplus": 0.2}
        main(["solve", _write(tmp_path, {"problem": "upm", "params": params})])
        solved = json.loads(capsys.readouterr().out)
        oracle_path = _write(
            tmp_path, {"problem": "oracle", "params": {"base": "upm", **params}}, "oracle.json"
        )
        code = main(["solve", oracle_path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert solved["optimal_value"] == pytest.approx(0.26, abs=1e-12)
        assert doc["optimal_value"] == pytest.approx(solved["optimal_value"], abs=1e-9)


HUGE_INT = 10**400  # a JSON integer beyond float range
MP1E_DOC = {"problem": "mp1e", "params": {"M1": 1, "Me": 8, "t": 1, "q": 5}}
UPM_DOC = {"problem": "upm", "params": dict(UPM_FAMILY, v1=3)}
NEWSVENDOR_MP1E = {"ambiguity": "mp1e", "M1": 1, "Me": 8, "t": 1, "eta": 0.9}
NEWSVENDOR_LAMBDA = {"ambiguity": "mp1e", "exponential_lambda": 0.02, "t": 0.01, "eta": 0.9}
# (command, document, where the huge number goes: a params key, an oracle
# override key, or the one entry of refine_around)
HUGE_NUMBER_SITES = [
    *[("solve", {"problem": "mp1t", "params": MP1T}, ("params", k)) for k in MP1T],
    *[("solve", MP1E_DOC, ("params", k)) for k in MP1E_DOC["params"]],
    *[("solve", UPM_DOC, ("params", k)) for k in UPM_DOC["params"]],
    *[
        ("solve", {"problem": "newsvendor", "params": dict(NEWSVENDOR, eps=1e-9)}, ("params", k))
        for k in ("eta", "eps", "M1", "Mt", "t")
    ],
    *[
        ("solve", {"problem": "newsvendor", "params": NEWSVENDOR_MP1E}, ("params", k))
        for k in ("M1", "Me", "t")
    ],
    *[
        ("solve", {"problem": "newsvendor", "params": NEWSVENDOR_LAMBDA}, ("params", k))
        for k in ("exponential_lambda", "t")
    ],
    *[
        (command, doc, ("oracle", k))
        for k in ("lo", "hi", "n_points", "refine_around")
        for command, doc in [
            ("solve", {"problem": "oracle", "params": dict(MP1T, base="mp1t")}),
            ("check", {"problem": "mp1t", "params": MP1T}),
        ]
    ],
]




def _site_id(command: str, doc: dict, where: tuple[str, str]) -> str:
    params = doc["params"]
    variant = "lambda" if "exponential_lambda" in params else params.get("ambiguity")
    problem = doc["problem"] if variant is None else f"{doc['problem']}-{variant}"
    key = where[1] if where[0] == "params" else f"oracle.{where[1]}"
    return f"{command}-{problem}-{key}"


class TestSchemaGuards:
    @pytest.mark.parametrize("points", ["0", "1"])
    def test_grid_points_below_two_rejected(self, tmp_path, points):
        assert main(["check", _mp1t(tmp_path), "--grid-points", points]) == EXIT_SCHEMA

    def test_document_n_points_overrides_the_option(self, tmp_path, capsys):
        # the grid the document asks for is the one built: --grid-points 1
        # never becomes a grid of its own
        params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
        doc = {"problem": "mp1t", "params": params, "oracle": {"n_points": 2001}}
        assert main(["check", _write(tmp_path, doc), "--grid-points", "1"]) == EXIT_OK
        overridden = json.loads(capsys.readouterr().out)
        assert main(["check", _mp1t(tmp_path)]) == EXIT_OK  # 2001 points by default
        assert overridden["oracle_value"] == json.loads(capsys.readouterr().out)["oracle_value"]

    @pytest.mark.parametrize("points", ["1", "2001"])
    def test_bad_n_points_override_is_a_schema_error(self, tmp_path, capsys, points):
        params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
        doc = {"problem": "mp1t", "params": params, "oracle": {"n_points": 1}}
        code = main(["check", _write(tmp_path, doc), "--grid-points", points])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err == {"error": "SchemaError", "message": "n_points must be at least 2"}

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_non_integral_n_points_is_a_schema_error(self, tmp_path, capsys, command):
        # 2.9 is refused, not truncated to a 2-point grid; 2001.0 is 2001
        params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
        doc = {"problem": "mp1t", "params": params}
        if command == "solve":
            doc = {"problem": "oracle", "params": dict(params, base="mp1t")}
        code = main([command, _write(tmp_path, dict(doc, oracle={"n_points": 2.9}))])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err == {"error": "SchemaError", "message": "'n_points' must be an integer, got 2.9"}
        assert main([command, _write(tmp_path, dict(doc, oracle={"n_points": 2001.0}))]) == EXIT_OK
        integral = json.loads(capsys.readouterr().out)
        assert main([command, _write(tmp_path, doc)]) == EXIT_OK  # 2001 points by default
        default = json.loads(capsys.readouterr().out)
        integral.pop("timing_ms", None)
        default.pop("timing_ms", None)
        assert integral == default

    @pytest.mark.parametrize(
        "command,size,via",
        [
            ("check", "100000000000000000000", "option"),
            ("check", 1e20, "document"),
            ("solve", 1e20, "document"),
            ("check", str(2**63), "option"),
        ],
    )
    def test_grid_too_large_to_build_is_a_range_error(self, tmp_path, capsys, command, size, via):
        # numpy refuses these sizes before it allocates; the refusal is typed
        params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
        doc = {"problem": "mp1t", "params": params}
        if command == "solve":
            doc = {"problem": "oracle", "params": dict(params, base="mp1t")}
        if via == "option":
            code = main([command, _write(tmp_path, doc), "--grid-points", size])
        else:
            code = main([command, _write(tmp_path, dict(doc, oracle={"n_points": size}))])
        out, err = capsys.readouterr()
        assert code == EXIT_RANGE and out == ""
        assert json.loads(err) == {
            "error": "RangeError",
            "message": f"a grid of {int(float(size)) if via == 'document' else size} points "
            "is too large to build",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["sweep", "--param", "q", "--from", "1", "--to", "2", "--steps", "2"],
            ["check"],
        ],
        ids=["solve", "sweep", "check"],
    )
    def test_non_string_problem(self, tmp_path, capsys, argv):
        params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
        path = _write(tmp_path, {"problem": ["mp1t"], "params": params})
        code = main([argv[0], path, *argv[1:]])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err["error"] == "SchemaError"

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_non_finite_refine_around(self, tmp_path, capsys, command):
        # 1e400 parses as inf; a non-finite extra point is a schema error, as
        # a non-finite lo, hi or n_points is
        params = {"M1": 50, "Mt": 530.33, "t": 1.5, "q": 100}
        if command == "solve":
            doc = {"problem": "oracle", "params": dict(params, base="mp1t")}
        else:
            doc = {"problem": "mp1t", "params": params}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(dict(doc, oracle={"refine_around": [1]})).replace("[1]", "[1e400]"))
        code = main([command, str(path)])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err == {"error": "SchemaError", "message": "'refine_around' entries must be finite"}

    @pytest.mark.parametrize(
        "command,doc,where",
        HUGE_NUMBER_SITES,
        ids=[_site_id(*site) for site in HUGE_NUMBER_SITES],
    )
    def test_integer_beyond_float_range(self, tmp_path, capsys, command, doc, where):
        section, key = where
        doc = json.loads(json.dumps(doc))
        if section == "params":
            doc["params"][key] = HUGE_INT
        else:
            doc["oracle"] = {key: [HUGE_INT] if key == "refine_around" else HUGE_INT}
        code = main([command, _write(tmp_path, doc)])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err["error"] == "SchemaError"
        assert "must be finite" in err["message"]

    def test_non_string_oracle_base(self, tmp_path, capsys):
        params = {"base": ["upm"], "M1": 0.5, "gamma": 4, "Mplus": 0.2}
        code = main(["solve", _write(tmp_path, {"problem": "oracle", "params": params})])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err["error"] == "SchemaError"

    def test_newsvendor_rate_on_a_power_moment_set(self, tmp_path, capsys):
        # mp1t has no exponential-demand form: the rate would be ignored
        params = {"ambiguity": "mp1t", "M1": 50, "Mt": 5000, "t": 2, "eta": 0.9}
        doc = {"problem": "newsvendor", "params": dict(params, exponential_lambda=0.02)}
        code = main(["solve", _write(tmp_path, doc)])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err == {
            "error": "SchemaError",
            "message": "unknown keys for 'newsvendor': ['exponential_lambda']",
        }

    def test_newsvendor_moments_beside_a_rate(self, tmp_path, capsys):
        # the rate sets M1 and Me; infeasible ones given beside it would be ignored
        params = {"M1": 1e9, "Me": -5, "exponential_lambda": 0.02}
        doc = {"problem": "newsvendor", "params": dict(NEWSVENDOR_LAMBDA, **params)}
        code = main(["solve", _write(tmp_path, doc)])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err == {
            "error": "SchemaError",
            "message": "unknown keys for 'newsvendor': ['M1', 'Me']",
        }

    @pytest.mark.parametrize(
        "start,stop", [("10", "nan"), ("10", "inf"), ("-inf", "10")], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_sweep_range(self, tmp_path, capsys, start, stop):
        argv = ["sweep", _mp1t(tmp_path), "--param", "q", f"--from={start}", f"--to={stop}"]
        code = main([*argv, "--steps", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_SCHEMA
        assert captured.out == ""  # refused before any row is solved
        assert json.loads(captured.err.splitlines()[0]) == {
            "error": "SchemaError",
            "message": "--from and --to must be finite",
        }


class TestOptionSurface:
    """Every option and instance key there is: adding one means changing this test."""

    def test_subcommand_options(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: sorted(o for action in p._actions for o in action.option_strings)
            for name, p in sub.choices.items()
        }
        assert options == {
            "solve": ["--grid-points", "--help", "-h"],
            "sweep": ["--csv", "--from", "--help", "--param", "--steps", "--to", "-h"],
            "check": [
                "--grid-points",
                "--help",
                "--inject-dual-noise",
                "--no-seed-support",
                "--seed-support",
                "-h",
            ],
        }

    def test_top_level_keys(self):
        assert cli._TOP_KEYS == {"problem", "params", "oracle"}

    @pytest.mark.parametrize("argv", [["solve"], SWEEP_Q, ["check"]], ids=["solve", "sweep", "check"])
    def test_root_tolerance_is_not_an_option(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], _mp1t(tmp_path), *argv[1:], "--tol", "1e-8"])
        assert exc.value.code == EXIT_SCHEMA
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_root_tolerance_is_not_an_instance_key(self, tmp_path, capsys):
        params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
        path = _write(tmp_path, {"problem": "mp1t", "params": params, "tolerance": 1e-10})
        assert main(["solve", path]) == EXIT_SCHEMA
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert err == {"error": "SchemaError", "message": "unknown top-level keys: ['tolerance']"}


class TestOneProcess:
    def test_repeated_commands_give_the_same_output(self, tmp_path, capsys):
        # the parser is built once per process; reusing it, also after a
        # rejected command line, must not change any later command's output
        path = _mp1t(tmp_path)
        runs = []
        for argv in (["check", path], ["solve", path], ["solve"], ["check", path], ["solve", path]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            runs.append((code, _normalize_timing(captured.out), captured.err))
        check, solve, bad, check_again, solve_again = runs
        assert check[0] == solve[0] == EXIT_OK
        assert bad[0] == EXIT_SCHEMA and "instance" in bad[2]
        assert check_again == check
        assert solve_again == solve
        assert json.loads(solve[1])["optimal_value"] == 0.75


class TestOraclePivots:
    def test_check_pivot_budget(self, tmp_path, capsys, monkeypatch):
        # both rounds of the seeded acceptance-sweep check: 19 + 22 pivots
        # solved cold, 19 + 1 with the second round warm-started
        from momentbound import oracle

        pivots = []
        solve = oracle.oracle_solve

        def counting(*args, **kwargs):
            result = solve(*args, **kwargs)
            pivots.append(result.pivots)
            return result

        monkeypatch.setattr(oracle, "oracle_solve", counting)
        params = {"M1": 50, "Mt": 1.5 * 50.0**1.5, "t": 1.5, "q": 100}
        code = main(["check", _write(tmp_path, {"problem": "mp1t", "params": params})])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK and doc["oracle_rounds"] == 1
        assert len(pivots) == 2 and pivots[1][0] == 0  # round 2 skips phase 1
        assert sum(map(sum, pivots)) <= 30, pivots
