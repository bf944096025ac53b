"""An instance is its ambiguity set at an order quantity.

The ambiguity set checks its moments and scales them once, when it is built;
the instance adds q, its check and its scaled value.  The refusals pinned
here are the ones an instance raised when the moment checks still ran in the
instance alone.
"""

import json
import math
from dataclasses import fields

import pytest

from momentbound.cli import EXIT_RANGE, main
from momentbound.errors import InfeasibleError, RangeError
from momentbound.exp_moment import ExpMomentAmbiguity, ExpMomentInstance
from momentbound.power_moment import PowerMomentAmbiguity, PowerMomentInstance

nan = math.nan
PAIRS = [
    (PowerMomentAmbiguity, PowerMomentInstance, {"M1": 2.0, "Mt": 9.0, "t": 2.5}),
    (ExpMomentAmbiguity, ExpMomentInstance, {"M1": 2.0, "Me": 3.0 * math.e, "t": 0.5}),
]
IDS = ["mp1t", "mp1e"]

_POINT = "required (single-point family otherwise)"
# (ambiguity class, moments, refusal type, message): one fault per moment set
SINGLE_FAULTS = [
    (PowerMomentAmbiguity, (0.0, 2.0, 2.0), InfeasibleError, "M1 > 0 required, got 0.0"),
    (PowerMomentAmbiguity, (-1.0, 2.0, 2.0), InfeasibleError, "M1 > 0 required, got -1.0"),
    (PowerMomentAmbiguity, (nan, 2.0, 2.0), InfeasibleError, "M1 > 0 required, got nan"),
    (PowerMomentAmbiguity, (1.0, 2.0, 1.0), InfeasibleError, "t > 1 required, got 1.0"),
    (PowerMomentAmbiguity, (1.0, 2.0, 0.5), InfeasibleError, "t > 1 required, got 0.5"),
    (PowerMomentAmbiguity, (1.0, 2.0, nan), InfeasibleError, "t > 1 required, got nan"),
    (PowerMomentAmbiguity, (1.0, 1.0, 2.0), InfeasibleError, f"Mt > M1^t {_POINT}: 1.0 <= 1.0"),
    (PowerMomentAmbiguity, (1.0, 0.5, 2.0), InfeasibleError, f"Mt > M1^t {_POINT}: 0.5 <= 1.0"),
    (PowerMomentAmbiguity, (1.0, -1.0, 2.0), InfeasibleError, f"Mt > M1^t {_POINT}: -1.0 <= 1.0"),
    (PowerMomentAmbiguity, (1.0, nan, 2.0), InfeasibleError, f"Mt > M1^t {_POINT}: nan <= 1.0"),
    (PowerMomentAmbiguity, (1e200, 1e300, 2.0), RangeError, "M1^t overflows at M1=1e+200, t=2"),
    (
        PowerMomentAmbiguity,
        (1e-200, 1.0, 2.0),
        RangeError,
        "M1^t underflows to 0 at M1=1e-200, t=2",
    ),
    (
        PowerMomentAmbiguity,
        (1e-150, 1e300, 2.0),
        RangeError,
        "Mt/M1^t overflows at M1=1e-150, Mt=1e+300, t=2",
    ),
    (ExpMomentAmbiguity, (0.0, 3.0, 1.0), InfeasibleError, "M1 > 0 required, got 0.0"),
    (ExpMomentAmbiguity, (-1.0, 3.0, 1.0), InfeasibleError, "M1 > 0 required, got -1.0"),
    (ExpMomentAmbiguity, (nan, 3.0, 1.0), InfeasibleError, "M1 > 0 required, got nan"),
    (ExpMomentAmbiguity, (1.0, 3.0, 0.0), InfeasibleError, "t > 0 required, got 0.0"),
    (ExpMomentAmbiguity, (1.0, 3.0, -1.0), InfeasibleError, "t > 0 required, got -1.0"),
    (ExpMomentAmbiguity, (1.0, 3.0, nan), InfeasibleError, "t > 0 required, got nan"),
    (
        ExpMomentAmbiguity,
        (701.0, 1e305, 1.0),
        RangeError,
        "t*q and t*M1 must stay below 700 to avoid overflow",
    ),
    (
        ExpMomentAmbiguity,
        (1.0, math.e, 1.0),
        InfeasibleError,
        f"Me > exp(t*M1) {_POINT}: 2.718281828459045 <= 2.718281828459045",
    ),
    (
        ExpMomentAmbiguity,
        (1.0, 1.0, 1.0),
        InfeasibleError,
        f"Me > exp(t*M1) {_POINT}: 1.0 <= 2.718281828459045",
    ),
    (
        ExpMomentAmbiguity,
        (1.0, nan, 1.0),
        InfeasibleError,
        f"Me > exp(t*M1) {_POINT}: nan <= 2.718281828459045",
    ),
]
INSTANCE_OF = {PowerMomentAmbiguity: PowerMomentInstance, ExpMomentAmbiguity: ExpMomentInstance}


@pytest.mark.parametrize("amb_cls,inst_cls,moments", PAIRS, ids=IDS)
class TestShape:
    def test_instance_subclasses_its_ambiguity(self, amb_cls, inst_cls, moments):
        assert issubclass(inst_cls, amb_cls)
        names = [f.name for f in fields(amb_cls)]
        assert [f.name for f in fields(inst_cls)] == [*names, "q"]

    def test_instance_at_is_the_keyword_instance(self, amb_cls, inst_cls, moments):
        amb = amb_cls(**moments)
        inst = amb.instance_at(1.5)
        assert inst == inst_cls(**moments, q=1.5)
        assert inst != amb and amb == amb_cls(**moments)
        scaled = "mt_scaled" if amb_cls is PowerMomentAmbiguity else "m1_scaled"
        assert getattr(inst, scaled) == getattr(amb, scaled)


@pytest.mark.parametrize(
    "amb_cls,moments,error,message",
    SINGLE_FAULTS,
    ids=[f"{cls.__name__[:3]}-{i}" for i, (cls, *_) in enumerate(SINGLE_FAULTS)],
)
def test_one_fault_is_refused_at_construction(amb_cls, moments, error, message):
    builds = [lambda: amb_cls(*moments)]
    builds += [lambda q=q: INSTANCE_OF[amb_cls](*moments, q=q) for q in (0.5, 3.0, 600.0)]
    for build in builds:
        with pytest.raises(error) as refused:
            build()
        assert (type(refused.value), str(refused.value)) == (error, message)


@pytest.mark.parametrize(
    "problem,params",
    [
        ("mp1t", {"M1": 1e200, "Mt": 1e300, "t": 2, "q": 0}),
        ("mp1e", {"M1": 701, "Me": 1e305, "t": 1, "q": 0}),
    ],
    ids=["mp1t", "mp1e"],
)
def test_moment_fault_is_reported_before_q(tmp_path, capsys, problem, params):
    # moments out of float range (exit 4) and q = 0 (exit 3): the moments come first
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"problem": problem, "params": params}))
    assert main(["solve", str(path)]) == EXIT_RANGE
    assert len(capsys.readouterr().err.splitlines()) == 1
