"""Command-line front end: solve instance files, sweep parameters, cross-check.

One JSON document per instance.  Results go to stdout as a fixed-field-order
JSON envelope (floats serialized with shortest round-trip precision); a human
summary goes to stderr.  Exit codes: 0 success, 2 schema violation, 3
infeasible moments, 4 numeric-range rejection, 5 sweep row failure, 6
solver/oracle disagreement or failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from . import newsvendor, oracle
from .core import DualCertificate, ToleranceSet, VerificationReport, verify_optimality
from .errors import (
    InfeasibleError,
    MomentBoundError,
    RangeError,
    SchemaError,
)
from .oracle import GridSpec
from .problems import PROBLEMS, Problem

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_RANGE = 4
EXIT_SWEEP_FAILED = 5
EXIT_DISAGREEMENT = 6

_TOP_KEYS = {"problem", "params", "tolerance", "oracle"}
_AMBIGUITY_KINDS = [name for name, p in PROBLEMS.items() if p.ambiguity is not None]
_NEWSVENDOR_KEYS = {"ambiguity", "eta", "eps", "exponential_lambda"}.union(
    *({f.name for f in fields(PROBLEMS[name].ambiguity)} for name in _AMBIGUITY_KINDS)
)


def _one_of(names, conjunction: str) -> str:
    """'a' or 'b'; 'a', 'b', and 'c' -- for error messages."""
    quoted = [repr(n) for n in names]
    comma = "," if len(quoted) > 2 else ""
    return f"{', '.join(quoted[:-1])}{comma} {conjunction} {quoted[-1]}"


def _reject_constant(token: str) -> float:
    raise SchemaError(f"non-finite number {token!r} not allowed in instance files")


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
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


def _tolerance(doc: dict) -> float:
    if "tolerance" not in doc:
        return 1e-10
    v = doc["tolerance"]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < float(v) < 1.0:
        raise SchemaError(f"'tolerance' must be a number in (0, 1), got {v!r}")
    return float(v)


def _solve_moment_problem(name: str, params: dict, eps: float):
    problem = PROBLEMS[name]
    _check_keys(params, {*problem.keys, *problem.optional}, name)
    inst = problem.instance(**{k: _number(params, k) for k in problem.keys})
    extra = {k: _number(params, k) for k in problem.optional if k in params}
    return inst, problem.solve(inst, eps, **extra)


def _newsvendor_instance(params: dict, eps: float) -> newsvendor.NewsvendorInstance:
    _check_keys(params, _NEWSVENDOR_KEYS, "newsvendor")
    kind = params.get("ambiguity")
    if kind not in _AMBIGUITY_KINDS:
        raise SchemaError(f"newsvendor 'ambiguity' must be {_one_of(_AMBIGUITY_KINDS, 'or')}")
    amb_type = PROBLEMS[kind].ambiguity
    eta = _number(params, "eta")
    search_eps = _number(params, "eps") if "eps" in params else eps
    from_demand = getattr(amb_type, "from_exponential_demand", None)
    if from_demand is not None and "exponential_lambda" in params:
        amb = from_demand(lam=_number(params, "exponential_lambda"), t=_number(params, "t"))
    else:
        amb = amb_type(**{f.name: _number(params, f.name) for f in fields(amb_type)})
    try:
        return newsvendor.NewsvendorInstance(ambiguity=amb, eta=eta, eps=search_eps)
    except MomentBoundError as exc:
        raise SchemaError(str(exc)) from exc


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


def _envelope(
    problem: str,
    value: float,
    dist,
    dual,
    branch: str,
    root: float | None,
    iterations: int,
    verification: VerificationReport | None,
    started: float,
) -> dict:
    return {
        "problem": problem,
        "optimal_value": value,
        "distribution": (
            [{"x": float(x), "p": float(p)} for x, p in dist.points] if dist else []
        ),
        "dual": [float(z) for z in dual] if dual is not None else [],
        "branch": branch,
        "root": root,
        "iterations": iterations,
        "verification": _verification_block(verification),
        "verified": bool(verification.passed) if verification is not None else False,
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
        eps = args.tol if args.tol is not None else _tolerance(doc)
        problem = doc["problem"]
        started = time.perf_counter()
        if problem in PROBLEMS:
            entry = PROBLEMS[problem]
            _, report = _solve_moment_problem(problem, doc["params"], eps)
            env = _envelope(
                problem,
                report.value,
                report.dist,
                report.cert.z,
                report.branch,
                entry.root(report),
                entry.iterations(report),
                report.verification,
                started,
            )
            summary = f"{problem}: value {report.value:.12g} [{report.branch}]"
        elif problem == "newsvendor":
            decision = newsvendor.optimize_order(_newsvendor_instance(doc["params"], eps=1e-6))
            env = _envelope(
                "newsvendor",
                decision.objective,
                decision.report.dist,
                decision.report.cert.z,
                "envelope_bisection",
                decision.q_star,
                decision.iterations,
                decision.report.verification,
                started,
            )
            summary = (
                f"newsvendor: order {decision.q_star:.12g}, "
                f"worst-case cost {decision.objective:.12g}"
            )
        elif problem == "oracle":
            env, summary = _solve_oracle_problem(doc, args, eps, started)
        else:
            raise SchemaError(f"unknown problem type {doc['problem']!r}")
    except MomentBoundError as exc:
        return _fail(exc)
    _emit(env, sys.stdout)
    print(summary, file=sys.stderr)
    return EXIT_OK


def _solve_oracle_problem(doc: dict, args: argparse.Namespace, eps: float, started: float):
    params = dict(doc["params"])
    base = params.pop("base", None)
    if not isinstance(base, str) or base not in PROBLEMS:
        raise SchemaError(f"oracle 'params.base' must be {_one_of(PROBLEMS, 'or')}")
    entry = PROBLEMS[base]
    inst, report = _solve_moment_problem(base, params, eps)
    grid = _grid_spec_from(doc.get("oracle"), entry, inst, report, args)
    result = oracle.oracle_solve(entry.gmp(inst, report.dist), grid)
    value = result.value - entry.oracle_offset(inst)
    env = _envelope(
        "oracle",
        value,
        result.dist,
        result.duals,
        "oracle",
        None,
        0,
        None,
        started,
    )
    return env, f"oracle[{base}]: LP value {value:.12g} ({result.status})"


def _grid_spec_from(overrides, problem: Problem, inst, report, args) -> GridSpec:
    n_points = getattr(args, "grid_points", None)
    seeds = report.dist.xs if getattr(args, "seed_support", True) else ()
    grid = GridSpec(
        lo=0.0,
        hi=problem.grid_hi(inst, report),
        n_points=2001 if n_points is None else n_points,
        refine_around=tuple(float(x) for x in seeds),
    )
    if overrides is None:
        return grid
    if not isinstance(overrides, dict):
        raise SchemaError("'oracle' must be an object")
    _check_keys(overrides, {"lo", "hi", "n_points", "refine_around"}, "oracle")
    lo = _number(overrides, "lo") if "lo" in overrides else grid.lo
    hi = _number(overrides, "hi") if "hi" in overrides else grid.hi
    n = int(_number(overrides, "n_points")) if "n_points" in overrides else grid.n_points
    extra = overrides.get("refine_around", list(grid.refine_around))
    if not isinstance(extra, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in extra
    ):
        raise SchemaError("'refine_around' must be a list of numbers")
    try:
        return GridSpec(lo=lo, hi=hi, n_points=n, refine_around=tuple(float(v) for v in extra))
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
        eps = args.tol if args.tol is not None else _tolerance(doc)
    except MomentBoundError as exc:
        return _fail(exc)

    values = (
        [args.start]
        if args.steps == 1
        else list(np.linspace(args.start, args.stop, args.steps))
    )
    rows = []
    any_failed = False
    for v in values:
        params = dict(doc["params"])
        params[args.param] = float(v)
        try:
            _, report = _solve_moment_problem(problem, params, eps)
            root, iters = entry.root(report), entry.iterations(report)
            rows.append((float(v), report.value, report.branch, root, iters))
        except MomentBoundError:
            any_failed = True
            rows.append((float(v), math.nan, "", None, 0))

    lines = ["param,value,branch,root,iters"]
    for pv, val, branch, root, iters in rows:
        root_s = "" if root is None else repr(float(root))
        lines.append(f"{pv!r},{val!r},{branch},{root_s},{iters}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
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
        eps = args.tol if args.tol is not None else _tolerance(doc)
        inst, report = _solve_moment_problem(problem, doc["params"], eps)
        gmp = entry.gmp(inst, report.dist)

        verification = report.verification
        if args.inject_dual_noise:
            noisy = DualCertificate(z=tuple(z + 1e-3 for z in report.cert.z))
            verification = verify_optimality(gmp, report.dist, noisy, ToleranceSet())

        grid = _grid_spec_from(doc.get("oracle"), entry, inst, report, args)
        outcome = oracle.refine_until(gmp, grid, target_tol=1e-9, max_rounds=3)
        oracle_value = outcome.result.value - entry.oracle_offset(inst)
        diff = abs(oracle_value - report.value)
        grid_bound = (
            abs(outcome.values[-1] - outcome.values[-2]) if len(outcome.values) > 1 else 1e-9
        )
        agree = diff <= max(1e-6, grid_bound)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentbound",
        description="Solve moment-constrained worst-case expectation problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance")
    solve.add_argument("--tol", type=float, default=None, help="root-finder tolerance")
    solve.add_argument("--grid-points", type=int, default=None, help="oracle grid size")
    solve.set_defaults(fn=cmd_solve)

    sweep = sub.add_parser("sweep", help="solve along a parameter grid, emit CSV")
    sweep.add_argument("instance")
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--csv", default=None, help="output path (default stdout)")
    sweep.add_argument("--tol", type=float, default=None)
    sweep.set_defaults(fn=cmd_sweep)

    check = sub.add_parser("check", help="solver vs grid-LP oracle vs verifier")
    check.add_argument("instance")
    check.add_argument("--tol", type=float, default=None)
    check.add_argument("--grid-points", type=int, default=None)
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
