"""One table entry per certified moment problem, for the command-line front end.

Everything the CLI needs to know about a problem lives in its `Problem`
record: how to build and solve an instance from a parameter file, the generic
moment problem behind it, and the oracle grid.  Every solve returns a
``core.Report``, whose fields map onto the output envelope directly.
Solvers are looked up on their modules at call time, so wrapping a module
attribute also covers solves started from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Callable

from . import exp_moment, partial_moment, power_moment
from .errors import SchemaError


@dataclass(frozen=True)
class Problem:
    instance: type
    solve: Callable[..., Any]  # (instance, **optional) -> report
    gmp: Callable[[Any], Any]  # instance -> GmpInstance
    grid_hi: Callable[[Any, Any], float]  # (instance, report) -> oracle grid upper end
    ambiguity: type | None = None  # newsvendor ambiguity set over the same moments
    optional: tuple[str, ...] = ()  # extra solve arguments, passed by keyword
    # LP objective value minus the reported value
    oracle_offset: Callable[[Any], float] = lambda inst: 0.0

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """The instance's parameters, in the order they are checked; all sweepable."""
        return tuple(f.name for f in fields(self.instance))


def _power_grid_hi(inst, report) -> float:
    t = inst.t
    return 1.05 * inst.M1 * max(t * inst.q_scaled / (t - 1.0), inst.edge_scaled)


def _exp_grid_hi(inst, report) -> float:
    v1 = exp_moment.compute_v1(inst.m1_scaled, inst.Me)
    return 1.5 * max(inst.q_scaled + 1.0 + math.log(inst.Me), v1) / inst.t


def _solve_upm(inst, v1: float | None = None):
    if v1 is not None and inst.is_two_point():
        raise SchemaError("'v1' only applies to degenerate-family instances")
    return partial_moment.solve_partial_moment(inst, v1_choice=v1)


PROBLEMS = {
    "mp1t": Problem(
        instance=power_moment.PowerMomentInstance,
        solve=lambda inst: power_moment.solve_power_moment(inst),
        gmp=power_moment.gmp_instance,
        grid_hi=_power_grid_hi,
        ambiguity=power_moment.PowerMomentAmbiguity,
    ),
    "upm": Problem(
        instance=partial_moment.PartialMomentInstance,
        solve=_solve_upm,
        gmp=partial_moment.gmp_instance,
        grid_hi=lambda inst, report: 2.1 * max(report.dist.xs[-1], 1.0, inst.M1),
        optional=("v1",),
        # the LP optimizes E[(X-1)_+^2]; the report is its variance
        oracle_offset=lambda inst: inst.Mplus**2,
    ),
    "mp1e": Problem(
        instance=exp_moment.ExpMomentInstance,
        solve=lambda inst: exp_moment.solve_exp_moment(inst),
        gmp=exp_moment.gmp_instance,
        grid_hi=_exp_grid_hi,
        ambiguity=exp_moment.ExpMomentAmbiguity,
    ),
}
