"""One table entry per certified moment problem, for the command-line front end.

Everything the CLI needs to know about a problem lives in its `Problem`
record: how to build and solve an instance from a parameter file, the generic
moment problem behind it, and the oracle grid.  Every solve returns a
``core.Report``, whose fields map onto the output envelope directly.
Solvers are looked up on their modules at call time, so wrapping a module
attribute also covers solves started from the CLI.  An entry, and its solver
module with it, is built the first time it is looked up; ``in`` and key
iteration build nothing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property
from typing import Any, Callable

from .core import _Frozen
from .errors import SchemaError


def _no_offset(inst) -> float:
    return 0.0


class Problem(_Frozen):
    instance: type
    solve: Callable[..., Any]  # (instance, **optional) -> report
    gmp: Callable[[Any], Any]  # instance -> GmpInstance
    grid_hi: Callable[[Any, Any], float]  # (instance, report) -> oracle grid upper end
    ambiguity: type | None = None  # newsvendor ambiguity set over the same moments
    optional: tuple[str, ...] = ()  # extra solve arguments, passed by keyword
    # LP objective value minus the reported value
    oracle_offset: Callable[[Any], float] = _no_offset

    def __init__(
        self,
        instance: type,
        solve: Callable[..., Any],
        gmp: Callable[[Any], Any],
        grid_hi: Callable[[Any, Any], float],
        ambiguity: type | None = ambiguity,
        optional: tuple[str, ...] = optional,
        oracle_offset: Callable[[Any], float] = oracle_offset,
    ) -> None:
        object.__setattr__(
            self,
            "__dict__",
            {
                "instance": instance,
                "solve": solve,
                "gmp": gmp,
                "grid_hi": grid_hi,
                "ambiguity": ambiguity,
                "optional": optional,
                "oracle_offset": oracle_offset,
            },
        )

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """The instance's parameters, in the order they are checked; all sweepable."""
        return self.instance.__match_args__


def _power_grid_hi(inst, report) -> float:
    t = inst.t
    return 1.05 * inst.M1 * max(t * inst.q_scaled / (t - 1.0), inst.edge_scaled)


def _mp1t() -> Problem:
    from . import power_moment

    return Problem(
        instance=power_moment.PowerMomentInstance,
        solve=lambda inst: power_moment.solve_power_moment(inst),
        gmp=power_moment.gmp_instance,
        grid_hi=_power_grid_hi,
        ambiguity=power_moment.PowerMomentAmbiguity,
    )


def _upm() -> Problem:
    from . import partial_moment

    def solve(inst, v1: float | None = None):
        if v1 is not None and inst.is_two_point():
            raise SchemaError("'v1' only applies to degenerate-family instances")
        return partial_moment.solve_partial_moment(inst, v1_choice=v1)

    return Problem(
        instance=partial_moment.PartialMomentInstance,
        solve=solve,
        gmp=partial_moment.gmp_instance,
        grid_hi=lambda inst, report: 2.1 * max(report.dist.xs[-1], 1.0, inst.M1),
        optional=("v1",),
        # the LP optimizes E[(X-1)_+^2]; the report is its variance
        oracle_offset=lambda inst: inst.Mplus**2,
    )


def _mp1e() -> Problem:
    from . import exp_moment

    def grid_hi(inst, report) -> float:
        v1 = exp_moment.compute_v1(inst.m1_scaled, inst.Me)
        return 1.5 * max(inst.q_scaled + 1.0 + math.log(inst.Me), v1) / inst.t

    return Problem(
        instance=exp_moment.ExpMomentInstance,
        solve=lambda inst: exp_moment.solve_exp_moment(inst),
        gmp=exp_moment.gmp_instance,
        grid_hi=grid_hi,
        ambiguity=exp_moment.ExpMomentAmbiguity,
    )


class _BuiltOnLookup(Mapping):
    """name -> Problem, each entry built by its builder on its first lookup."""

    def __init__(self, **builders: Callable[[], Problem]) -> None:
        self._builders = builders
        self._built: dict[str, Problem] = {}

    def __getitem__(self, name: str) -> Problem:
        if name not in self._built:
            self._built[name] = self._builders[name]()
        return self._built[name]

    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)


PROBLEMS = _BuiltOnLookup(mp1t=_mp1t, upm=_upm, mp1e=_mp1e)
