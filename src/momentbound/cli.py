"""Command-line front end: solve instance files, sweep parameters, cross-check.

One JSON document per instance.  Every answer, the oracle's LP included, is a
``core.Report`` printed to stdout as a fixed-field-order JSON envelope (floats
serialized with shortest round-trip precision); a human summary goes to
stderr.  Exit codes: 0 success, 2 schema violation, 3 infeasible moments (or
an oracle grid LP with no optimum, for `solve` and `check` alike), 4
numeric-range rejection, 5 sweep row failure, 6 solver/oracle disagreement or
failed verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import fields, replace
from typing import TYPE_CHECKING

from .core import DualCertificate, Report, ToleranceSet, VerificationReport, verify_optimality
from .errors import InfeasibleError, MomentBoundError, RangeError, SchemaError
from .problems import PROBLEMS, Problem

if TYPE_CHECKING:
    from .newsvendor import OrderDecision
    from .oracle import GridSpec, RefineOutcome

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_RANGE = 4
EXIT_SWEEP_FAILED = 5
EXIT_DISAGREEMENT = 6

_TOP_KEYS = {"problem", "params", "oracle"}


def _one_of(names, conjunction: str) -> str:
    """'a' or 'b'; 'a', 'b', and 'c' -- for error messages."""
    quoted = [repr(n) for n in names]
    comma = "," if len(quoted) > 2 else ""
    return f"{', '.join(quoted[:-1])}{comma} {conjunction} {quoted[-1]}"


def _reject_constant(token: str) -> float:
    raise SchemaError(f"non-finite number {token!r} not allowed in instance files")


def _parse_int(token: str) -> int | float:
    """An int beyond float range reads +-inf, as a float literal beyond it does."""
    x = float(token)
    return int(token) if math.isfinite(x) else x


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant, parse_int=_parse_int)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("instance file must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    if "problem" not in doc or "params" not in doc:
        raise SchemaError("instance file needs 'problem' and 'params'")
    if not isinstance(doc["problem"], str):
        raise SchemaError(f"'problem' must be a string, got {doc['problem']!r}")
    if not isinstance(doc["params"], dict):
        raise SchemaError("'params' must be an object")
    return doc


def _number(params: dict, key: str) -> float:
    if key not in params:
        raise SchemaError(f"missing parameter {key!r}")
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"parameter {key!r} must be a number, got {v!r}")
    if not math.isfinite(float(v)):
        raise SchemaError(f"parameter {key!r} must be finite")
    return float(v)


def _check_keys(params: dict, allowed: set[str], problem: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise SchemaError(f"unknown keys for {problem!r}: {sorted(unknown)}")


def _solve_moment_problem(name: str, params: dict):
    problem = PROBLEMS[name]
    _check_keys(params, {*problem.keys, *problem.optional}, name)
    inst = problem.instance(**{k: _number(params, k) for k in problem.keys})
    extra = {k: _number(params, k) for k in problem.optional if k in params}
    return inst, problem.solve(inst, **extra)


def _newsvendor_decision(params: dict) -> OrderDecision:
    from . import newsvendor  # loads with the first newsvendor document

    kind = params.get("ambiguity")
    amb_type = PROBLEMS[kind].ambiguity if isinstance(kind, str) and kind in PROBLEMS else None
    if amb_type is None:
        kinds = [name for name, p in PROBLEMS.items() if p.ambiguity is not None]
        raise SchemaError(f"newsvendor 'ambiguity' must be {_one_of(kinds, 'or')}")
    # the ambiguity's moments, or an exponential demand's rate and t: never both
    from_demand = getattr(amb_type, "from_exponential_demand", None)
    if from_demand is not None and "exponential_lambda" in params:
        keys, build = ("exponential_lambda", "t"), from_demand
    else:
        keys, build = tuple(f.name for f in fields(amb_type)), amb_type
    _check_keys(params, {"ambiguity", "eta", "eps", *keys}, "newsvendor")
    eta = _number(params, "eta")
    search = {"eps": _number(params, "eps")} if "eps" in params else {}
    amb = build(*(_number(params, k) for k in keys))
    try:
        inst = newsvendor.NewsvendorInstance(ambiguity=amb, eta=eta, **search)
    except MomentBoundError as exc:
        raise SchemaError(str(exc)) from exc
    return newsvendor.optimize_order(inst)


def _verification_block(v: VerificationReport | None) -> dict | None:
    if v is None:
        return None
    return {
        "primal_residual": v.primal_residual,
        "slack_residual": v.slack_residual,
        "tangent_residual": v.tangent_residual,
        "dual_min_on_grid": v.dual_min_on_grid,
        "duality_gap": v.duality_gap,
        "passed": v.passed,
    }


def _envelope(problem: str, report: Report, started: float) -> dict:
    verification = report.verification
    return {
        "problem": problem,
        "optimal_value": report.value,
        "distribution": [{"x": float(x), "p": float(p)} for x, p in report.dist.points],
        "dual": [float(z) for z in report.cert.z],
        "branch": report.branch,
        "root": report.root,
        "iterations": report.bisect_iters,
        "verification": _verification_block(verification),
        "verified": verification is not None and verification.passed,
        "timing_ms": (time.perf_counter() - started) * 1000.0,
    }


def _emit(doc: dict, stream) -> None:
    print(json.dumps(doc), file=stream)


def _fail(exc: MomentBoundError) -> int:
    _emit({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    if isinstance(exc, InfeasibleError):
        return EXIT_INFEASIBLE
    if isinstance(exc, RangeError):
        return EXIT_RANGE
    return EXIT_SCHEMA


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        doc = _load_instance(args.instance)
        problem = doc["problem"]
        started = time.perf_counter()
        if problem in PROBLEMS:
            _, report = _solve_moment_problem(problem, doc["params"])
            summary = f"{problem}: value {report.value:.12g} [{report.branch}]"
        elif problem == "newsvendor":
            decision = _newsvendor_decision(doc["params"])
            report = replace(
                decision.report,
                value=decision.objective,
                branch="closed_form",
                root=decision.q_star,
                bisect_iters=decision.iterations,
            )
            summary = (
                f"newsvendor: order {decision.q_star:.12g}, "
                f"worst-case cost {decision.objective:.12g}"
            )
        elif problem == "oracle":
            report, summary = _solve_oracle_problem(doc, args)
        else:
            raise SchemaError(f"unknown problem type {doc['problem']!r}")
        env = _envelope(problem, report, started)
    except MomentBoundError as exc:
        return _fail(exc)
    _emit(env, sys.stdout)
    print(summary, file=sys.stderr)
    return EXIT_OK


def _solve_oracle_problem(doc: dict, args: argparse.Namespace) -> tuple[Report, str]:
    params = dict(doc["params"])
    base = params.pop("base", None)
    if not isinstance(base, str) or base not in PROBLEMS:
        raise SchemaError(f"oracle 'params.base' must be {_one_of(PROBLEMS, 'or')}")
    entry = PROBLEMS[base]
    inst, report = _solve_moment_problem(base, params)
    # max_rounds=0: one cold solve on the requested grid
    outcome, value = _run_oracle(doc, args, entry, inst, report, entry.gmp(inst), max_rounds=0)
    lp = outcome.result
    cert = DualCertificate(z=lp.duals)
    answer = Report(value, lp.dist, cert, "oracle", root=None, bisect_iters=0, verification=None)
    return answer, f"oracle[{base}]: LP value {value:.12g} ({lp.status})"


def _run_oracle(
    doc: dict, args, problem: Problem, inst, report: Report, gmp, max_rounds: int
) -> tuple[RefineOutcome, float]:
    """The grid LP refined up to max_rounds times; a final LP that is not optimal is refused."""
    grid = _grid_spec_from(doc.get("oracle"), problem, inst, report, args)
    from . import oracle

    outcome = oracle.refine_until(gmp, grid, target_tol=1e-9, max_rounds=max_rounds)
    result = outcome.result
    if result.status != oracle.OPTIMAL:
        raise InfeasibleError(
            f"the grid LP is {result.status} on the oracle grid of {result.grid.n_points} "
            f"points over [{result.grid.lo!r}, {result.grid.hi!r}]"
        )
    return outcome, result.value - problem.oracle_offset(inst)


def _grid_spec_from(overrides, problem: Problem, inst, report, args) -> GridSpec:
    from . import oracle  # numpy loads with the first command that runs the oracle

    # the document's overrides first, then the defaults: one grid is built
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise SchemaError("'oracle' must be an object")
    _check_keys(overrides, {"lo", "hi", "n_points", "refine_around"}, "oracle")
    lo = _number(overrides, "lo") if "lo" in overrides else 0.0
    hi = _number(overrides, "hi") if "hi" in overrides else problem.grid_hi(inst, report)
    n = int(_number(overrides, "n_points")) if "n_points" in overrides else args.grid_points
    seeded = report.dist.xs if getattr(args, "seed_support", True) else ()
    extra = overrides.get("refine_around", list(seeded))
    if not isinstance(extra, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in extra
    ):
        raise SchemaError("'refine_around' must be a list of numbers")
    if not all(math.isfinite(v) for v in extra):
        raise SchemaError("'refine_around' entries must be finite")
    try:
        return oracle.GridSpec(
            lo=lo, hi=hi, n_points=n, refine_around=tuple(float(v) for v in extra)
        )
    except MomentBoundError as exc:
        raise SchemaError(str(exc)) from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        doc = _load_instance(args.instance)
        problem = doc["problem"]
        if problem not in PROBLEMS:
            raise SchemaError(f"sweep supports {_one_of(PROBLEMS, 'and')} instances")
        entry = PROBLEMS[problem]
        if args.param not in entry.keys:
            raise SchemaError(f"cannot sweep {args.param!r} for {problem!r}")
        if args.steps < 1:
            raise SchemaError("--steps must be at least 1")
        if not (math.isfinite(args.start) and math.isfinite(args.stop)):
            raise SchemaError("--from and --to must be finite")
    except MomentBoundError as exc:
        return _fail(exc)

    if args.steps == 1:
        values = [args.start]
    else:  # the points of numpy.linspace, bit for bit
        step = (args.stop - args.start) / (args.steps - 1)
        values = [args.start + i * step for i in range(args.steps - 1)] + [args.stop]
    lines = ["param,value,branch,root,iters"]
    any_failed = False
    for v in values:
        try:
            _, report = _solve_moment_problem(problem, {**doc["params"], args.param: v})
        except MomentBoundError:
            any_failed = True
            lines.append(f"{v!r},nan,,,0")
            continue
        root = "" if report.root is None else repr(float(report.root))
        lines.append(f"{v!r},{report.value!r},{report.branch},{root},{report.bisect_iters}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(values)} rows to {args.csv}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_SWEEP_FAILED if any_failed else EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    try:
        doc = _load_instance(args.instance)
        problem = doc["problem"]
        if problem not in PROBLEMS:
            raise SchemaError(f"check supports {_one_of(PROBLEMS, 'and')} instances")
        entry = PROBLEMS[problem]
        inst, report = _solve_moment_problem(problem, doc["params"])
        gmp = entry.gmp(inst)

        verification = report.verification
        if args.inject_dual_noise:
            noisy = DualCertificate(z=tuple(z + 1e-3 for z in report.cert.z))
            verification = verify_optimality(gmp, report.dist, noisy, ToleranceSet())

        outcome, oracle_value = _run_oracle(doc, args, entry, inst, report, gmp, max_rounds=3)
        diff = abs(oracle_value - report.value)
        last_step = outcome.values[-2:]  # the last refinement's change, 0 without one
        agree = diff <= max(1e-6, abs(last_step[-1] - last_step[0]))
    except MomentBoundError as exc:
        return _fail(exc)

    result = {
        "problem": problem,
        "solver_value": report.value,
        "oracle_value": oracle_value,
        "difference": diff,
        "oracle_status": outcome.result.status,
        "oracle_rounds": outcome.rounds,
        "verification": _verification_block(verification),
        "verified": verification.passed,
        "agree": bool(agree),
    }
    _emit(result, sys.stdout)
    print(
        f"{problem}: solver {report.value:.12g}, oracle {oracle_value:.12g}, "
        f"|diff| {diff:.3g}, verification {'pass' if verification.passed else 'FAIL'}",
        file=sys.stderr,
    )
    return EXIT_OK if agree and verification.passed else EXIT_DISAGREEMENT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="momentbound",
        description="Solve moment-constrained worst-case expectation problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance")
    solve.add_argument("--grid-points", type=int, default=2001, help="oracle grid size")
    solve.set_defaults(fn=cmd_solve)

    sweep = sub.add_parser("sweep", help="solve along a parameter grid, emit CSV")
    sweep.add_argument("instance")
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--csv", default=None, help="output path (default stdout)")
    sweep.set_defaults(fn=cmd_sweep)

    check = sub.add_parser("check", help="solver vs grid-LP oracle vs verifier")
    check.add_argument("instance")
    check.add_argument("--grid-points", type=int, default=2001)
    check.add_argument(
        "--seed-support", dest="seed_support", action="store_true", default=True
    )
    check.add_argument("--no-seed-support", dest="seed_support", action="store_false")
    check.add_argument(
        "--inject-dual-noise", action="store_true", help=argparse.SUPPRESS
    )
    check.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
