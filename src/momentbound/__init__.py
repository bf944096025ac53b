"""Tight worst/best-case expectation bounds over moment-constrained families.

Three solved problems, each returning a certified primal-dual pair as one
``Report`` type:

  * ``power_moment``: max E[(X-q)_+] given E[X] and E[X^t], t > 1
  * ``partial_moment``: min Var[(X-1)_+] given E[X], E[X^2], E[(X-1)_+]
  * ``exp_moment``: max E[(X-q)_+] given E[X] and E[exp(t X)]

plus a discretized-LP oracle for independent ground truth, a generic
optimality verifier, and a distributionally robust newsvendor optimizer.

Every module loads the first time one of its names, or the module itself, is
used: ``import momentbound`` loads no submodule, a solve loads only the
modules it runs, and numpy loads with the oracle alone.
"""

import importlib

# each public name by its home module; __all__ and the lazy lookup both read it
_EXPORTS = {
    "core": "DiscreteDistribution DualCertificate GmpInstance MomentFunction Report "
    "ToleranceSet VerificationReport verify_optimality",
    "exp_moment": "ExpMomentAmbiguity ExpMomentInstance compute_v1 phi solve_exp_moment",
    "newsvendor": "NewsvendorInstance OrderDecision optimize_order",
    "oracle": "GridSpec OracleResult RefineOutcome oracle_solve refine_until",
    "partial_moment": "PartialMomentInstance kappa solve_partial_moment",
    "power_moment": "PowerMomentAmbiguity PowerMomentInstance solve_power_moment",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULES = {*_EXPORTS, "cli", "errors", "problems", "rootfind"}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    value = module if name in _MODULES else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_MODULES})
