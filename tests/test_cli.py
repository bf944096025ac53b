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


class TestSolve:
    def test_golden_envelope(self, tmp_path, capsys):
        code = main(["solve", _mp1t(tmp_path)])
        out = capsys.readouterr().out.strip()
        assert code == EXIT_OK
        assert _normalize_timing(out) == GOLDEN_MP1T

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
            lambda rep: (rep.family_v1, 0),
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
