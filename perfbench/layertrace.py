"""Outside-in layer tracing: spans around the names each layer calls through.

The package's modules call each other through module-level names
(`core.verify_optimality`, `power_moment.bisect`, `newsvendor.golden_section`,
...).  Replacing those names with wrappers records one span per call: name,
start, end, parent span and operation id.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
durations of its child spans.

Root-function evaluations (`theta`, `phi`) are only counted: they run tens of
times per solve, and a span each would distort the very times being measured.

A name a later version of the package no longer has is skipped, and the
metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np


def _iterations(args, kwargs, result):
    return result.iterations


def _inner_solves(args, kwargs, result):
    return result.inner_solves


def _grid_points(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return int(grid.points().size)


# (module, attribute, span name, note taken from the result, note taken from the arguments)
SPANNED = (
    ("core", "verify_optimality", "core.verify", None, None),
    ("power_moment", "bisect", "rootfind.bisect", _iterations, None),
    ("exp_moment", "bisect", "rootfind.bisect", _iterations, None),
    ("power_moment", "polish_root", "rootfind.polish", None, None),
    ("exp_moment", "polish_root", "rootfind.polish", None, None),
    ("newsvendor", "expand_bracket", "rootfind.expand", None, None),
    ("newsvendor", "golden_section", "rootfind.golden", _iterations, None),
    ("exp_moment", "lambert_w_minus1", "lambertw.w_minus1", None, None),
    ("power_moment", "solve_power_moment", "power_moment.solve", None, None),
    ("exp_moment", "solve_exp_moment", "exp_moment.solve", None, None),
    ("partial_moment", "solve_partial_moment", "partial_moment.solve", None, None),
    ("newsvendor", "optimize_order", "newsvendor.optimize", _inner_solves, None),
    ("oracle", "oracle_solve", "oracle.solve", None, _grid_points),
    ("oracle", "refine_until", "oracle.refine", None, None),
    ("cli", "main", "cli.main", None, None),
)
COUNTED = (("power_moment", "theta"), ("exp_moment", "phi"))

LAYER_OF = {
    "core.verify": "core",
    "rootfind.bisect": "rootfind",
    "rootfind.polish": "rootfind",
    "rootfind.expand": "rootfind",
    "rootfind.golden": "rootfind",
    "lambertw.w_minus1": "lambertw",
    "power_moment.solve": "power_moment",
    "exp_moment.solve": "exp_moment",
    "partial_moment.solve": "partial_moment",
    "newsvendor.optimize": "newsvendor",
    "oracle.solve": "oracle",
    "oracle.refine": "oracle",
    "cli.main": "cli",
}


class Tracer:
    """Installs the wrappers, records spans, and reduces them to per-layer metrics."""

    def __init__(self, package) -> None:
        self._package = package
        self.op = -1
        self.root_evals = 0
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.excs: list[str | None] = []
        self.notes: list[float | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span, post, pre in SPANNED:
            self._replace(mod_name, attr, lambda fn, s=span, a=post, b=pre: self._span(fn, s, a, b))
        for mod_name, attr in COUNTED:
            self._replace(mod_name, attr, self._counter)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _replace(self, mod_name: str, attr: str, make) -> None:
        module = getattr(self._package, mod_name, None)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.root_evals += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str, post, pre):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, excs, notes, stack = self.starts, self.ends, self.excs, self.notes, self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            excs.append(None)
            notes.append(pre(args, kwargs) if pre is not None else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf()
                excs[idx] = type(exc).__name__
                raise
            finally:
                stack.pop()
            ends[idx] = perf()
            if post is not None:
                notes[idx] = post(args, kwargs, result)
            return result

        return spanned

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def _owner(self, idx: int, owner_names: tuple[str, ...]) -> int:
        """Nearest enclosing span whose name is one of `owner_names`, or -1."""
        p = self.parents[idx]
        while p >= 0 and self.names[p] not in owner_names:
            p = self.parents[p]
        return p

    def metrics(self, n_ops: int, busy_s: float) -> dict[str, float]:
        """Per-operation means over `n_ops` traced operations taking `busy_s`."""
        self_s = self.self_times() if self.names else np.zeros(0)
        calls = Counter(self.names)
        self_by: defaultdict[str, float] = defaultdict(float)
        note_by: defaultdict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            self_by[name] += float(self_s[i])
            if self.notes[i] is not None:
                note_by[name] += float(self.notes[i])

        def per_op(x: float) -> float:
            return x / n_ops

        def ms(*names: str) -> float:
            return per_op(1e3 * sum(self_by[n] for n in names))

        def share(flags: list[bool]) -> float:
            return sum(flags) / len(flags) if flags else 0.0

        # fallbacks: bisect and polish calls made inside one solve, at any depth
        solve_names = ("power_moment.solve", "exp_moment.solve")
        inside: dict[str, Counter] = {"rootfind.bisect": Counter(), "rootfind.polish": Counter()}
        for i, name in enumerate(self.names):
            if name in inside:
                inside[name][self._owner(i, solve_names)] += 1
        spans_of = defaultdict(list)
        for i, name in enumerate(self.names):
            spans_of[name].append(i)
        power_fallback = share(
            [inside["rootfind.bisect"][i] > 1 for i in spans_of["power_moment.solve"]]
        )
        exp_fallback = share(
            [
                inside["rootfind.polish"][i] > 1 or self.excs[i] == "RangeError"
                for i in spans_of["exp_moment.solve"]
            ]
        )

        oracle_solves = spans_of["oracle.solve"]
        grid_points = sum(self.notes[i] or 0 for i in oracle_solves)
        per_refine = Counter(self.parents[j] for j in oracle_solves)
        refine_rounds = sum(max(per_refine[i] - 1, 0) for i in spans_of["oracle.refine"])

        return {
            "core.verify.calls": per_op(calls["core.verify"]),
            "core.verify.self_ms": ms("core.verify"),
            "core.verify.share": self_by["core.verify"] / busy_s,
            "rootfind.bisect.calls": per_op(calls["rootfind.bisect"]),
            "rootfind.bisect.iters": per_op(note_by["rootfind.bisect"]),
            "rootfind.bisect.self_ms": ms("rootfind.bisect"),
            "rootfind.polish.calls": per_op(calls["rootfind.polish"]),
            "rootfind.polish.self_ms": ms("rootfind.polish"),
            "rootfind.root_evals": per_op(self.root_evals),
            "rootfind.golden.iters": per_op(note_by["rootfind.golden"]),
            "rootfind.search.self_ms": ms("rootfind.expand", "rootfind.golden"),
            "newsvendor.inner_solves": per_op(note_by["newsvendor.optimize"]),
            "newsvendor.self_ms": ms("newsvendor.optimize"),
            "lambertw.calls": per_op(calls["lambertw.w_minus1"]),
            "lambertw.self_ms": ms("lambertw.w_minus1"),
            "power_moment.self_ms": ms("power_moment.solve"),
            "power_moment.fallback_frac": power_fallback,
            "exp_moment.self_ms": ms("exp_moment.solve"),
            "exp_moment.fallback_frac": exp_fallback,
            "partial_moment.self_ms": ms("partial_moment.solve"),
            "oracle.solve.calls": per_op(len(oracle_solves)),
            "oracle.solve.self_ms": ms("oracle.solve"),
            "oracle.us_per_grid_point": (
                1e6 * self_by["oracle.solve"] / grid_points if grid_points else 0.0
            ),
            "oracle.refine.rounds": per_op(refine_rounds),
            "trace.accounted_frac": float(np.sum(self_s)) / busy_s,
        }

    def layer_self_ms(self, n_ops: int) -> dict[str, float]:
        """Self time per operation of every layer, keyed by module name."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, s in zip(self.names, self.self_times() if self.names else ()):
            out[LAYER_OF[name]] += 1e3 * float(s) / n_ops
        return dict(out)

    def write(self, path: str) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        [
                            name,
                            self.parents[i],
                            self.ops[i],
                            round(self.starts[i] - t0, 9),
                            round(self.ends[i] - t0, 9),
                            self.excs[i],
                            self.notes[i],
                        ]
                    )
                )
                fh.write("\n")
