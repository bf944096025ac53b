"""The public namespace, and what importing it costs."""

import ast
import dataclasses
import inspect
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import momentbound
from momentbound import core, exp_moment, partial_moment, power_moment, rootfind
from momentbound.problems import PROBLEMS
from references import exp_threshold, power_threshold


def _fresh_interpreter(code: str) -> str:
    """The last line that `code` prints, run in a new interpreter on this source tree."""
    src = str(Path(momentbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


def test_every_exported_name_resolves():
    missing = [name for name in momentbound.__all__ if not hasattr(momentbound, name)]
    assert missing == []
    assert len(set(momentbound.__all__)) == len(momentbound.__all__)


def test_runtime_imports_stay_numpy_only():
    # scipy, mpmath and hypothesis are test dependencies; no module of the
    # package, its command-line front end included, may load them.  Modules
    # load on first use, so each is imported here by name.
    code = (
        "import importlib, pkgutil, sys, momentbound; "
        "names = [m.name for m in pkgutil.iter_modules(momentbound.__path__)]; "
        "[importlib.import_module(f'momentbound.{name}') for name in names]; "
        "assert 'cli' in names and 'oracle' in names, names; "
        "print(sorted(m for m in ('scipy', 'mpmath', 'hypothesis') if m in sys.modules))"
    )
    assert _fresh_interpreter(code) == "[]"


def _loaded_after(code: str) -> list[str]:
    """The package's modules in sys.modules once `code` has run in a new interpreter."""
    report = (
        "; import sys; print(sorted(m.partition('.')[2] for m in sys.modules "
        "if m.startswith('momentbound.')))"
    )
    return ast.literal_eval(_fresh_interpreter(code + report))


SOLVE_MODULES = ["core", "errors", "power_moment", "rootfind"]


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import momentbound") == []


def test_library_solve_loads_its_modules_alone():
    code = (
        "import momentbound as mb; "
        "mb.solve_power_moment(mb.PowerMomentInstance(M1=1, Mt=4, t=2, q=1.5))"
    )
    assert _loaded_after(code) == SOLVE_MODULES


def test_mp1e_library_solve_loads_its_modules_alone():
    code = "import momentbound as mb; mb.solve_exp_moment(mb.ExpMomentInstance(M1=1, Me=7.5, t=1, q=1))"
    assert _loaded_after(code) == ["core", "errors", "exp_moment", "rootfind"]


def test_module_table_names_the_module_files():
    # a stale entry would surface only as a ModuleNotFoundError on lookup
    package = Path(momentbound.__file__).resolve().parent
    assert momentbound._MODULES == {path.stem for path in package.glob("*.py")} - {"__init__"}


def test_newsvendor_decision_loads_its_ambiguity_alone():
    code = (
        "import momentbound as mb; "
        "amb = mb.PowerMomentAmbiguity(M1=1, Mt=4, t=2); "
        "mb.optimize_order(mb.NewsvendorInstance(ambiguity=amb, eta=0.9))"
    )
    assert _loaded_after(code) == sorted([*SOLVE_MODULES, "newsvendor"])


@pytest.mark.parametrize(
    "command,extra", [("solve", []), ("check", ["oracle"])], ids=["solve", "check"]
)
def test_cli_loads_the_modules_its_command_runs(tmp_path, command, extra):
    path = tmp_path / "mp1t.json"
    path.write_text('{"problem": "mp1t", "params": {"M1": 1, "Mt": 4, "t": 2, "q": 1.5}}')
    code = f"import momentbound.cli; assert momentbound.cli.main([{command!r}, {str(path)!r}]) == 0"
    assert _loaded_after(code) == sorted([*SOLVE_MODULES, "cli", "problems", *extra])


def test_problem_table_builds_an_entry_on_lookup():
    # membership, key iteration and length read the names alone
    code = (
        "from momentbound.problems import PROBLEMS; "
        "assert 'mp1e' in PROBLEMS and 'oracle' not in PROBLEMS; "
        "assert list(PROBLEMS) == ['mp1t', 'upm', 'mp1e'] and len(PROBLEMS) == 3; "
        "PROBLEMS['upm']"
    )
    assert _loaded_after(code) == ["core", "errors", "partial_moment", "problems"]


def test_exported_names_are_their_home_objects():
    # each name resolves to the object its defining module holds, the star
    # import binds every name, and dir() lists every name and module
    code = (
        "import importlib, pkgutil, momentbound as mb; "
        "homes = {n: importlib.import_module(getattr(mb, n).__module__) for n in mb.__all__}; "
        "wrong = [n for n, m in homes.items() "
        "if not m.__name__.startswith('momentbound.') or getattr(m, n) is not getattr(mb, n)]; "
        "star = {}; exec('from momentbound import *', star); "
        "modules = [m.name for m in pkgutil.iter_modules(mb.__path__)]; "
        "print(wrong, sorted(set(mb.__all__) - set(star)), "
        "sorted(set(mb.__all__ + modules) - set(dir(mb))))"
    )
    assert _fresh_interpreter(code) == "[] [] []"


def test_dir_lists_names_before_they_load():
    code = (
        "import sys, momentbound as mb; names = dir(mb); "
        "print('oracle_solve' in names, 'cli' in names, 'momentbound.oracle' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "True True False"


def test_solve_loads_no_numpy(tmp_path):
    # numpy is the oracle's alone, and the oracle loads on first use: a solve
    # through the command line never imports it
    path = tmp_path / "mp1t.json"
    path.write_text('{"problem": "mp1t", "params": {"M1": 1, "Mt": 4, "t": 2, "q": 1.5}}')
    code = (
        "import sys, momentbound, momentbound.cli; "
        f"code = momentbound.cli.main(['solve', {str(path)!r}]); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "0 False"


def test_oracle_names_load_on_first_use():
    code = (
        "import sys, momentbound; before = 'numpy' in sys.modules; "
        "from momentbound import GridSpec, oracle; "
        "print(before, 'numpy' in sys.modules, GridSpec is oracle.GridSpec, "
        "momentbound.refine_until is oracle.refine_until)"
    )
    assert _fresh_interpreter(code) == "False True True True"


def test_only_the_oracle_imports_numpy():
    package = Path(momentbound.__file__).resolve().parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["oracle.py"]


def test_only_core_and_cli_read_a_verdict():
    # core.certify refuses a pair that fails verification, so every Report
    # is certified; no solver module decides again what a failed verdict means
    package = Path(momentbound.__file__).resolve().parent
    readers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "passed"
    }
    assert readers - {"core.py", "cli.py"} == set()


def test_one_branch_threshold_per_solver():
    # a solver's branch is its ``_takes_boundary`` alone: no function of the
    # package computes a threshold of its own, and the tests' thresholds are
    # the last orders the predicate takes: one ulp up, the branch test flips
    package = Path(momentbound.__file__).resolve().parent
    named = [
        node.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and "threshold" in node.name
    ]
    assert named == []
    rng = random.Random(35)
    for _ in range(200):
        t = rng.uniform(1.1, 4.0)
        M1 = rng.uniform(0.5, 5.0)
        amb = power_moment.PowerMomentAmbiguity(M1=M1, Mt=rng.uniform(1.05, 3.0) * M1**t, t=t)
        q = power_threshold(amb.instance_at(M1))
        at, above = amb.instance_at(q), amb.instance_at(math.nextafter(q, math.inf))
        branches = power_moment._candidate(at)["branch"], power_moment._candidate(above)["branch"]
        assert branches == (power_moment.BOUNDARY, power_moment.INTERIOR), amb
    for _ in range(200):
        t = rng.uniform(0.05, 2.0)
        M1 = rng.uniform(0.1, 4.5) / t
        amb = exp_moment.ExpMomentAmbiguity(M1=M1, Me=rng.uniform(1.05, 3.0) * math.exp(t * M1), t=t)
        q = exp_threshold(amb.instance_at(M1))
        at, above = amb.instance_at(q), amb.instance_at(math.nextafter(q, math.inf))
        assert exp_moment._candidate(at)["branch"] == exp_moment.BOUNDARY, amb
        # past the predicate the answer is interior, or the boundary law where
        # the interior root is u = 0 to float resolution
        assert not exp_moment._takes_boundary(above.q_scaled, above.m1_scaled, above.Me), amb


def test_newsvendor_imports_no_root_search():
    # the order comes in closed form: newsvendor.py searches for nothing
    path = Path(momentbound.__file__).resolve().parent / "newsvendor.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert [name for name in imported if "rootfind" in name.split(".")] == []


def test_solves_take_no_root_tolerance():
    # the interior root searches run Brent's method to a bracket of a few
    # ulp; no caller chooses a tolerance
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(power_moment.solve_power_moment) == ["inst"]
    assert params(exp_moment.solve_exp_moment) == ["inst"]
    assert params(partial_moment.solve_partial_moment) == ["inst", "v1_choice"]
    for amb in (power_moment.PowerMomentAmbiguity, exp_moment.ExpMomentAmbiguity):
        assert params(amb.solve) == ["self", "q"]
    assert {name: params(p.solve) for name, p in PROBLEMS.items()} == {
        "mp1t": ["inst"],
        "upm": ["inst", "v1"],
        "mp1e": ["inst"],
    }
    assert params(rootfind.brent) == ["f", "a", "b", "fa", "fb"]


def test_every_root_search_has_a_caller_in_the_package():
    # a search, a private helper of the solver modules or an ambiguity
    # method that only the tests call is dead code kept alive by its tests;
    # for the methods the benchmark's callers count
    def trees(directory):
        return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in directory.glob("*.py")}

    def functions(tree, private):
        return {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private
        }

    package = trees(Path(momentbound.__file__).resolve().parent)
    benchmark = trees(Path(__file__).resolve().parents[1] / "perfbench")
    calls, read = {}, set()
    for name, tree in [*package.items(), *(("perfbench", tree) for tree in benchmark.values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            if name == "perfbench" or not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                calls.setdefault(name, set()).add(node.func.attr)
            elif isinstance(node.func, ast.Name):
                calls.setdefault(name, set()).add(node.func.id)
    called = set().union(*calls.values())
    searches = functions(package["rootfind.py"], private=False)
    outside = set().union(*(names for name, names in calls.items() if name != "rootfind.py"))
    assert searches and sorted(searches - outside) == []
    solvers = ("power_moment.py", "exp_moment.py", "partial_moment.py", "newsvendor.py")
    for module in (*solvers, "rootfind.py", "oracle.py"):
        helpers = functions(package[module], private=True)
        # newsvendor.py has none today; a helper it gains must have a caller
        assert (helpers or module == "newsvendor.py") and sorted(helpers - called) == [], module
    for amb in (power_moment.PowerMomentAmbiguity, exp_moment.ExpMomentAmbiguity):
        methods = {name for name in vars(amb) if not name.startswith("__")}
        assert {"instance_at", "solve", "tail_cutoff", "_order_at_mass"} <= methods
        assert sorted(methods - read) == [], amb.__name__


@pytest.mark.parametrize(
    "problem, params",
    [
        ("mp1t", {"M1": 1.0, "Mt": 4.0, "t": 2.0, "q": 3.0}),
        ("mp1e", {"M1": 1.0, "Me": math.e**2, "t": 1.0, "q": 5.0}),
        ("upm", {"M1": 0.5, "gamma": 4.0, "Mplus": 0.2}),
    ],
)
def test_every_tolerance_is_read_by_the_verification_pass(problem, params):
    # a ToleranceSet field that the compiled pass never reads is a dead knob;
    # on a certified pair every check of the verdict runs and reads its own
    entry = PROBLEMS[problem]
    inst = entry.instance(**params)
    report = entry.solve(inst)
    default, read = core.ToleranceSet(), []

    class Recording:
        def __getattr__(self, name):
            read.append(name)
            return getattr(default, name)

    assert core.verify_optimality(entry.gmp(inst), report.dist, report.cert, Recording()).passed
    assert sorted(set(read)) == sorted(f.name for f in dataclasses.fields(core.ToleranceSet))


def test_every_bench_record_names_its_change_and_a_declared_claim():
    # each BENCH_*.json at the repository root parses and says what changed,
    # how and where it was measured, and what it claims; a claim names a
    # workload and an end-to-end metric that BENCHMARK.json declares
    root = Path(__file__).resolve().parents[1]
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        missing = {"change", "harness", "host", "method", "claim"} - set(record)
        assert not missing, (path.name, missing)
        claim = record["claim"]
        if claim is not None:
            assert claim.get("workload") in workloads, (path.name, claim)
            assert claim.get("metric") in metrics, (path.name, claim)
