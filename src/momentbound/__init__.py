"""Tight worst/best-case expectation bounds over moment-constrained families.

Three solved problems, each returning a certified primal-dual pair as one
``Report`` type:

  * ``power_moment``: max E[(X-q)_+] given E[X] and E[X^t], t > 1
  * ``partial_moment``: min Var[(X-1)_+] given E[X], E[X^2], E[(X-1)_+]
  * ``exp_moment``: max E[(X-q)_+] given E[X] and E[exp(t X)]

plus a discretized-LP oracle for independent ground truth, a generic
optimality verifier, and a distributionally robust newsvendor optimizer.
"""

from .core import (
    DiscreteDistribution,
    DualCertificate,
    GmpInstance,
    MomentFunction,
    Report,
    ToleranceSet,
    VerificationReport,
    verify_optimality,
)
from .exp_moment import (
    ExpMomentAmbiguity,
    ExpMomentInstance,
    compute_v1,
    phi,
    solve_exp_moment,
)
from .lambertw import WValue, lambert_w_minus1
from .newsvendor import NewsvendorInstance, OrderDecision, optimize_order
from .oracle import GridSpec, OracleResult, RefineOutcome, oracle_solve, refine_until
from .partial_moment import (
    PartialMomentInstance,
    enumerate_family,
    kappa,
    solve_partial_moment,
)
from .power_moment import (
    PowerMomentAmbiguity,
    PowerMomentInstance,
    boundary_threshold,
    solve_power_moment,
    theta,
)
from .rootfind import BisectResult, bisect

__all__ = [
    "BisectResult",
    "DiscreteDistribution",
    "DualCertificate",
    "ExpMomentAmbiguity",
    "ExpMomentInstance",
    "GmpInstance",
    "GridSpec",
    "MomentFunction",
    "NewsvendorInstance",
    "OracleResult",
    "OrderDecision",
    "PartialMomentInstance",
    "PowerMomentAmbiguity",
    "PowerMomentInstance",
    "RefineOutcome",
    "Report",
    "ToleranceSet",
    "VerificationReport",
    "WValue",
    "bisect",
    "boundary_threshold",
    "compute_v1",
    "enumerate_family",
    "kappa",
    "lambert_w_minus1",
    "optimize_order",
    "oracle_solve",
    "phi",
    "refine_until",
    "solve_exp_moment",
    "solve_partial_moment",
    "solve_power_moment",
    "theta",
    "verify_optimality",
]

__version__ = "0.1.0"
