"""Independent references the tests compare the package against.

None of these is part of the package: each is a closed form or a plain
definition that a solver result must reproduce.
"""

from dataclasses import dataclass
from math import log, sqrt

import numpy as np


def scarf_value(M1: float, M2: float, q: float) -> float:
    """Mean-variance bound 0.5*(sqrt(sigma^2 + (q-mu)^2) - (q-mu)) (Scarf 1958).

    The worst-case E[(X - q)_+] given the mean and the second moment, i.e. the
    power-moment problem at t = 2.
    """
    sigma2 = M2 - M1 * M1
    return 0.5 * (np.sqrt(sigma2 + (q - M1) ** 2) - (q - M1))


def mean_variance_order(M1: float, M2: float, eta: float) -> float:
    """Robust newsvendor order mu + sigma/2 * (sqrt(eta/(1-eta)) - sqrt((1-eta)/eta)).

    The minimizer of the Scarf bound plus (1 - eta) * q over q, given the mean
    and the second moment (Scarf 1958; Gallego & Moon 1993), wherever it is
    positive.
    """
    sigma = sqrt(M2 - M1 * M1)
    return M1 + 0.5 * sigma * (sqrt(eta / (1.0 - eta)) - sqrt((1.0 - eta) / eta))


@dataclass(frozen=True)
class ExponentialDemand:
    """Exponential demand with rate lam (mean 1/lam)."""

    lam: float

    def quantile(self, eta: float) -> float:
        """The classical newsvendor order for this known demand."""
        return -log(1.0 - eta) / self.lam


def worst_case_objective(inst, q: float) -> float:
    """f(q) = worst-case E[(X - q)_+] + (1 - eta) * q, as optimize_order evaluates it."""
    return inst.ambiguity.worst_case(q) + (1.0 - inst.eta) * q
