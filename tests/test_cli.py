"""Command-line front end: envelopes, sweeps, checks, exit codes."""

import json
import math
import re

import pytest

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

GOLDEN_MP1T = (
    '{"problem": "mp1t", "optimal_value": 0.75, '
    '"distribution": [{"x": 0.0, "p": 0.75}, {"x": 4.0, "p": 0.25}], '
    '"dual": [0.0, 0.5, 0.0625], "branch": "boundary", "root": null, '
    '"iterations": 0, "verification": {"primal_residual": 0.0, '
    '"slack_residual": 0.0, "tangent_residual": 0.0, "dual_min_on_grid": 0.0, '
    '"duality_gap": 0.0, "passed": true}, "verified": true, "timing_ms": 0.0}'
)


GOLDEN_MP1E_BOUNDARY = (
    '{"problem": "mp1e", "optimal_value": 0.6673247154461621, '
    '"distribution": [{"x": 0.0, "p": 0.6673247154461621}, '
    '{"x": 3.0059341539036604, "p": 0.3326752845538378}], '
    '"dual": [-0.02407894197689184, 0.5134830043529041, 0.02407894197689184], '
    '"branch": "boundary", "root": null, "iterations": 0, '
    '"verification": {"primal_residual": 8.881784197001252e-16, '
    '"slack_residual": 1.6653345369377348e-16, '
    '"tangent_residual": 5.551115123125783e-17, '
    '"dual_min_on_grid": -1.6653345369377348e-16, "duality_gap": 0.0, '
    '"passed": true}, "verified": true, "timing_ms": 0.0}'
)

GOLDEN_MP1E_INTERIOR = (
    '{"problem": "mp1e", "optimal_value": 0.012059559745025546, '
    '"distribution": [{"x": 0.9372675420809182, "p": 0.9875273849068539}, '
    '{"x": 5.966883019716725, "p": 0.012472615093146134}], '
    '"dual": [-0.0004130553481205896, -0.006584396049862852, '
    '0.002579086000682405], "branch": "interior", "root": 0.9372675420809182, '
    '"iterations": 34, "verification": {"primal_residual": 1.7763568394002505e-15, '
    '"slack_residual": 4.440892098500626e-16, "tangent_residual": 0.0, '
    '"dual_min_on_grid": 0.0, "duality_gap": 1.734723475976807e-18, '
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
    '"tangent_residual": 8.881784197001252e-16, '
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
    '"slack_residual": 0.0, "tangent_residual": 0.0, "dual_min_on_grid": -0.0, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"timing_ms": 0.0}'
)

GOLDEN_UPM_FAMILY_V1 = (
    '{"problem": "upm", "optimal_value": 0.26, "distribution": [{"x": 0.0, '
    '"p": 0.7}, {"x": 1.2500000000000002, "p": 0.22857142857142854}, {"x": 3.0, '
    '"p": 0.07142857142857144}], "dual": [0.0, -1.0, 1.0, -1.0], '
    '"branch": "degenerate_family", "root": 3.0, "iterations": 0, '
    '"verification": {"primal_residual": 2.220446049250313e-16, '
    '"slack_residual": 0.0, "tangent_residual": 0.0, "dual_min_on_grid": -0.0, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"timing_ms": 0.0}'
)

GOLDEN_NEWSVENDOR = (
    '{"problem": "newsvendor", "optimal_value": 0.6196152422706787, '
    '"distribution": [{"x": 0.42264958971778804, "p": 0.8999999560116818}, '
    '{"x": 6.196151152873665, "p": 0.10000004398831827}], '
    '"dual": [0.015470046533682018, -0.0732050706307875, 0.08660255730955288], '
    '"branch": "envelope_bisection", "root": 3.3094003712957276, "iterations": 23, '
    '"verification": {"primal_residual": 0.0, '
    '"slack_residual": 8.881784197001252e-16, "tangent_residual": 0.0, '
    '"dual_min_on_grid": 1.734723475976807e-18, '
    '"duality_gap": 1.1102230246251565e-16, "passed": true}, "verified": true, '
    '"timing_ms": 0.0}'
)

GOLDEN_CHECK_MP1T_INTERIOR = (
    '{"problem": "mp1t", "solver_value": 0.3228756555322953, '
    '"oracle_value": 0.3228756555322953, "difference": 0.0, '
    '"oracle_status": "optimal", "oracle_rounds": 1, '
    '"verification": {"primal_residual": 8.881784197001252e-16, '
    '"slack_residual": 4.440892098500626e-16, "tangent_residual": 0.0, '
    '"dual_min_on_grid": -4.440892098500626e-16, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"agree": true}'
)

GOLDEN_CHECK_MP1E_INTERIOR = (
    '{"problem": "mp1e", "solver_value": 0.012059559745025546, '
    '"oracle_value": 0.012059559745025535, "difference": 1.0408340855860843e-17, '
    '"oracle_status": "optimal", "oracle_rounds": 1, '
    '"verification": {"primal_residual": 1.7763568394002505e-15, '
    '"slack_residual": 4.440892098500626e-16, "tangent_residual": 0.0, '
    '"dual_min_on_grid": 0.0, "duality_gap": 1.734723475976807e-18, '
    '"passed": true}, "verified": true, "agree": true}'
)

GOLDEN_CHECK_UPM_FAMILY = (
    '{"problem": "upm", "solver_value": 0.26, "oracle_value": 0.26, '
    '"difference": 0.0, "oracle_status": "optimal", "oracle_rounds": 1, '
    '"verification": {"primal_residual": 2.220446049250313e-16, '
    '"slack_residual": 0.0, "tangent_residual": 0.0, "dual_min_on_grid": -0.0, '
    '"duality_gap": 5.551115123125783e-17, "passed": true}, "verified": true, '
    '"agree": true}'
)

GOLDEN_ORACLE_MP1T = (
    '{"problem": "oracle", "optimal_value": 0.3228756555322953, '
    '"distribution": [{"x": 0.3542486889354095, "p": 0.8779644730092273}, '
    '{"x": 5.644800000000001, "p": 6.109946335176915e-14}, '
    '{"x": 5.645751311064592, "p": 0.12203552699071164}], '
    '"dual": [-0.011891873541241401, 0.06704865402683832, -0.09450810900447305], '
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
    '2.5,0.39564392373895996,interior,4.79128784747792,34\n'
    '3.0,0.3228756555322953,interior,5.645751311064592,35\n'
    '3.5,0.2706906325745549,interior,6.541381265149108,35\n'
    '4.0,0.2320508075688773,interior,7.464101615137754,36\n'
)


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _mp1t(tmp_path, **overrides):
    params = {"M1": 1, "Mt": 4, "t": 2, "q": 1}
    params.update(overrides)
    return _write(tmp_path, {"problem": "mp1t", "params": params})


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
        assert doc["branch"] == "envelope_bisection"
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


class TestSchemaGuards:
    @pytest.mark.parametrize("points", ["0", "1"])
    def test_grid_points_below_two_rejected(self, tmp_path, points):
        assert main(["check", _mp1t(tmp_path), "--grid-points", points]) == EXIT_SCHEMA

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

    def test_non_string_oracle_base(self, tmp_path, capsys):
        params = {"base": ["upm"], "M1": 0.5, "gamma": 4, "Mplus": 0.2}
        code = main(["solve", _write(tmp_path, {"problem": "oracle", "params": params})])
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert code == EXIT_SCHEMA
        assert err["error"] == "SchemaError"


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
