"""Seeded instance streams, one operation per workload, and the correctness gate.

Every workload is a closed loop with one caller: operation i is issued only
after operation i-1 returned.  Instance i of a stream is a pure function of
(workload, seed, i), so a run that completes more operations sees a longer
prefix of the same stream.  No solve_stream or newsvendor instance repeats;
oracle_check cycles a fixed catalogue (see OracleCheckStream).

No operation of a timed stream is expected to fail.  The instances on which
the program is known to fail (the wide fuzz domain of mp1t and mp1e, and the
grid-LP probability-sum defect of `check`) run instead as a fixed-size probe
per run, outside the timed loop, whose failures are tallied and printed
(`known_defect_ops`).

Parameters come from randomly shifted Kronecker lattices rather than
independent draws: the shift is the seeded random part, and the lattice
spreads every run's instances evenly over the parameter box.  That keeps the
per-operation cost mix, and so the medians, nearly the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("solve_stream", "newsvendor", "oracle_check")

# t values of the acceptance sampler for the power-moment problem
_T_VALUES = (1.5, 2.0, 2.5, 3.0, 5.0, math.pi)
_FEW_ULP = 3.0 * 2.0**-52
_NEAR_REL_MAX = 1e-9

# The mp1e boundary instance on which `momentbound check` fails with
# "DomainError: probabilities sum to 1.0000000000012559, not 1" (raised from
# oracle_solve on the 4001-point refinement).  It runs in the oracle_check
# probe on every run, so the defect shows until the program is fixed.
KNOWN_DEFECT = {"M1": 50.0, "Me": 2.0, "t": 0.01, "q": 60.0}

# Fixed `check` instances of the test suite: the mp1t reference q sweep of
# acceptance criterion 3 and the single instances of the check, oracle,
# exp-moment and partial-moment tests.  At the code the benchmark was added
# at, `check` passes on each of them.  The test suite's other oracle instance,
# (1, 2, 2, 6), fails `check` and sits in CHECK_DEFECTS.
_SWEEP = {"M1": 50.0, "Mt": 1.5 * 50.0**1.5, "t": 1.5}
CHECK_CATALOGUE = tuple(("mp1t", dict(_SWEEP, q=float(q))) for q in range(60, 141, 10)) + (
    ("mp1t", {"M1": 1.0, "Mt": 4.0, "t": 2.0, "q": 1.0}),
    ("mp1e", {"M1": 1.0, "Me": math.e**2, "t": 1.0, "q": 5.0}),
    ("mp1e", {"M1": 1.0, "Me": math.e**2, "t": 1.0, "q": 1.0}),
    ("upm", {"M1": 0.5, "gamma": 2.0, "Mplus": 0.1}),
    ("upm", {"M1": 0.5, "gamma": 4.0, "Mplus": 0.2}),
)
# Instances on which `check` exits 2 with the same probability-sum DomainError.
CHECK_DEFECTS = (
    ("mp1e", KNOWN_DEFECT),
    ("mp1t", {"M1": 1.0, "Mt": 2.0, "t": 2.0, "q": 6.0}),
)
# Probe sizes: wide-domain solves per kind, and seeded sampler checks.
PROBE_WIDE_SOLVES = 200
PROBE_SAMPLER_CHECKS = 12


@dataclass
class Op:
    kind: str
    params: dict
    stratum: str = "sampler"
    eta: float | None = None

    def record(self) -> dict:
        doc = {"kind": self.kind, "params": self.params, "stratum": self.stratum}
        if self.eta is not None:
            doc["eta"] = self.eta
        return doc


class Lattice:
    """Randomly shifted Kronecker sequence on [0, 1)^dim (the R_d sequence)."""

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        g = 2.0
        for _ in range(64):
            g = (1.0 + g) ** (1.0 / (dim + 1))
        self._alpha = np.array([(1.0 / g) ** (k + 1) for k in range(dim)]) % 1.0
        self._shift = rng.random(dim)
        self._n = 0

    def next(self) -> np.ndarray:
        self._n += 1
        return (self._shift + self._n * self._alpha) % 1.0


def _lin(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def _log(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _spread(length: int, count: int, offset: int) -> set[int]:
    """`count` slot indices spread evenly over a cycle of `length` slots."""
    return {(offset + (i * length) // count) % length for i in range(count)}


# ---------------------------------------------------------------------------
# independent references (nothing here calls into the program)


def power_threshold(M1: float, Mt: float, t: float) -> float:
    """Largest q on the closed-form (boundary) branch of the mp1t problem."""
    return M1 * (t - 1.0) / t * (Mt / M1**t) ** (1.0 / (t - 1.0))


def exp_threshold(M1: float, Me: float, t: float) -> float:
    """Largest q on the boundary branch of the mp1e problem.

    v1 is the positive root of expm1(v) = a*v with a = (Me-1)/(t*M1) > 1;
    the function is convex, negative at log(a), so plain bisection finds it.
    """
    m1 = t * M1
    a = (Me - 1.0) / m1
    lo = math.log(a)
    hi = max(2.0 * lo, 1.0)
    while math.expm1(hi) - a * hi <= 0.0:
        hi *= 2.0
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if math.expm1(mid) - a * mid > 0.0:
            hi = mid
        else:
            lo = mid
    v1 = 0.5 * (lo + hi)
    return (v1 + m1 / (Me - 1.0) - 1.0) / t


def scarf_reference(M1: float, Mt: float, q: float) -> float:
    """max E[(X-q)_+] given mean and second moment, X >= 0.

    Above the branch threshold this is Scarf's bound
    0.5*(sqrt(s2 + d^2) - d), d = q - M1, written without cancellation;
    below it the two-point law on {0, Mt/M1} gives M1 - q*M1^2/Mt.
    """
    if q <= power_threshold(M1, Mt, 2.0):
        return M1 - q * M1 * M1 / Mt
    s2 = Mt - M1 * M1
    d = q - M1
    r = math.hypot(math.sqrt(s2), d)
    return 0.5 * s2 / (r + d) if d > 0.0 else 0.5 * (r - d)


def mean_variance_order(M1: float, Mt: float, eta: float) -> float:
    """Robust order quantity for mean and variance (Scarf; Gallego & Moon)."""
    sigma = math.sqrt(Mt - M1 * M1)
    return M1 + 0.5 * sigma * (math.sqrt(eta / (1.0 - eta)) - math.sqrt((1.0 - eta) / eta))


# ---------------------------------------------------------------------------
# instance streams


class _Stream:
    """Instance i of a workload, generated in order from (seed, workload)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self._lattices: dict[str, Lattice] = {}
        self._counts: dict[str, int] = {}
        self.issued = 0

    def _u(self, key: str, dim: int) -> np.ndarray:
        if key not in self._lattices:
            self._lattices[key] = Lattice(dim, self._rng)
        return self._lattices[key].next()

    def _count(self, key: str) -> int:
        n = self._counts.get(key, 0)
        self._counts[key] = n + 1
        return n

    def next(self) -> Op:
        op = self._make(self.issued)
        self.issued += 1
        return op

    def digest(self, n: int = 1000) -> str:
        """Digest of the first n instances, the same for every run of a seed."""
        fresh = make_stream(self.workload, self.seed)
        h = hashlib.sha256()
        for _ in range(n):
            h.update(json.dumps(fresh.next().record(), sort_keys=True).encode())
        return h.hexdigest()[:16]

    def _make(self, i: int) -> Op:
        raise NotImplementedError

    def _solve_params(self, kind: str, stratum: str) -> dict:
        """Parameters of one mp1t or mp1e instance of a stratum: sampler, near or wide."""
        return self._mp1t(stratum) if kind == "mp1t" else self._mp1e(stratum)

    def _near_q(self, thr: float, u: float) -> float:
        side = 1.0 if self._count("side") % 2 == 0 else -1.0
        return thr * (1.0 + side * _log(u, _FEW_ULP, _NEAR_REL_MAX))

    def _mp1t(self, stratum: str) -> dict:
        if stratum == "wide":
            u = self._u("mp1t-wide", 4)
            M1 = _log(u[0], 1e-3, 1e4)
            t = 1.0 + _log(u[1], 1e-3, 10.0)
            Mt = (1.0 + _log(u[2], 1e-6, 1e3)) * M1**t
            return {"M1": M1, "Mt": Mt, "t": t, "q": _log(u[3], 1e-3, 1e3) * M1}
        u = self._u("mp1t-" + stratum, 3)
        t = _T_VALUES[self._count("mp1t-t-" + stratum) % len(_T_VALUES)]
        M1 = _lin(u[0], 0.5, 5.0)
        Mt = _lin(u[1], 1.05, 3.0) * M1**t
        if stratum == "near":
            q = self._near_q(power_threshold(M1, Mt, t), u[2])
        else:
            q = _lin(u[2], 0.1, 4.0) * M1
        return {"M1": M1, "Mt": Mt, "t": t, "q": q}

    def _mp1e(self, stratum: str) -> dict:
        if stratum == "wide":
            # t*M1 and t*q stay below the documented overflow limit of 700;
            # the deep-tail RangeError can still answer, and is tallied
            u = self._u("mp1e-wide", 4)
            M1 = _log(u[0], 1e-3, 1e4)
            m1 = _log(u[1], 1e-3, 300.0)
            t = m1 / M1
            Me = (1.0 + _log(u[2], 1e-6, 1e3)) * math.exp(m1)
            q = _log(u[3], 1e-3, min(1e3, 690.0 / m1)) * M1
            return {"M1": M1, "Me": Me, "t": t, "q": q}
        u = self._u("mp1e-" + stratum, 4)
        t = _lin(u[0], 0.05, 2.0)
        M1 = _lin(u[1], 0.1, 4.5) / t
        Me = _lin(u[2], 1.05, 3.0) * math.exp(t * M1)
        if stratum == "near":
            q = self._near_q(exp_threshold(M1, Me, t), u[3])
        else:
            q = _lin(u[3], 0.1, 20.0) / t
        return {"M1": M1, "Me": Me, "t": t, "q": q}


class SolveStream(_Stream):
    """Certified library solves, mp1t : mp1e : upm = 2 : 2 : 1.

    In every cycle of 40 mp1t (and of 40 mp1e) instances, five sit within a
    few ulp to 1e-9 relative of the branch threshold, alternating sides; two
    in every 20 upm instances are drawn over the wide upm domain.  That makes
    10% near-threshold and 2% wide operations overall; the rest come from the
    acceptance-sampler ranges.  Wide mp1t and mp1e instances fail on 16-26%
    of draws, so they run in the probe (`wide_solves`), not here.
    """

    _PATTERN = ("mp1t", "mp1e", "mp1t", "mp1e", "upm")
    _NEAR = _spread(40, 5, 2)
    _UPM_WIDE = _spread(20, 2, 5)

    def _make(self, i: int) -> Op:
        kind = self._PATTERN[i % 5]
        j = self._count(kind)
        if kind == "upm":
            wide = (j % 20) in self._UPM_WIDE
            return Op("upm", upm_params(self._rng, wide), "wide" if wide else "sampler")
        stratum = "near" if (j % 40) in self._NEAR else "sampler"
        return Op(kind, self._solve_params(kind, stratum), stratum)

    def wide_solves(self, count: int) -> list[Op]:
        """`count` mp1t and `count` mp1e instances over the wide fuzz domain."""
        return [
            Op(kind, self._solve_params(kind, "wide"), "wide")
            for _ in range(count)
            for kind in ("mp1t", "mp1e")
        ]


def upm_params(rng: np.random.Generator, wide: bool) -> dict:
    """Moments of an explicit distribution, inside the documented domain.

    Draws that break the documented preconditions (M1 <= 2/gamma,
    Mplus > M1 - 1, gamma > 1, Mplus > 0) are re-drawn here, before the
    instance is issued; an issued instance is never skipped.
    """
    while True:
        k = int(rng.integers(3, 6))
        if wide:
            xs = np.unique(np.exp(rng.uniform(math.log(1e-3), math.log(2.5), size=k)))
            ps = rng.dirichlet(np.full(len(xs), float(np.exp(rng.uniform(-3.0, 1.5)))))
        else:
            xs = np.unique(rng.uniform(0.0, 4.0, size=k))
            ps = rng.dirichlet(np.ones(len(xs)))
            if ps.min() < 0.02:
                continue
        if len(xs) < 3 or ps.min() <= 0.0:
            continue
        M1 = float(xs @ ps)
        M2 = float((xs**2) @ ps)
        Mp = float(np.maximum(xs - 1.0, 0.0) @ ps)
        if M1 <= 1e-6 or Mp <= 1e-6 or M2 / M1**2 <= 1.01:
            continue
        gamma = M2 / M1**2
        if M1 > 2.0 / gamma or not Mp > M1 - 1.0:
            continue
        return {"M1": M1, "gamma": gamma, "Mplus": Mp}


class NewsvendorStream(_Stream):
    """optimize_order decisions over five ambiguities and four critical ratios."""

    KINDS = ("mp1t-1.5", "mp1t-2", "mp1t-3", "mp1e-expdemand", "mp1e-general")
    ETAS = (0.5, 0.9, 0.99, 0.9999)

    def _make(self, i: int) -> Op:
        kind = self.KINDS[i % 5]
        eta = self.ETAS[(i // 5) % 4]
        u = self._u(kind, 3)
        if kind.startswith("mp1t"):
            t = float(kind.split("-")[1])
            M1 = _lin(u[0], 20.0, 100.0)
            if t == 2.0:
                # cv < 1 keeps the mean-variance optimum strictly interior
                # at every eta used here, so the closed form applies
                Mt = M1 * M1 * (1.0 + _lin(u[1], 0.25, 0.9) ** 2)
            else:
                Mt = _lin(u[1], 1.05, 3.0) * M1**t
            return Op(kind, {"M1": M1, "Mt": Mt, "t": t}, eta=eta)
        if kind == "mp1e-expdemand":
            lam = 1.0 / _lin(u[0], 10.0, 100.0)
            return Op(kind, {"lam": lam, "t": lam * _lin(u[1], 0.05, 0.5)}, eta=eta)
        t = _lin(u[0], 0.1, 1.5)
        M1 = _lin(u[1], 0.2, 3.0) / t
        Me = _lin(u[2], 1.1, 2.5) * math.exp(t * M1)
        return Op(kind, {"M1": M1, "Me": Me, "t": t}, eta=eta)


class OracleCheckStream(_Stream):
    """`momentbound check` at its defaults on all three problems.

    The stream cycles CHECK_CATALOGUE, starting at a seeded offset: seeded
    sampler instances hit the probability-sum DomainError on about one check
    in fifteen, at random, so they run in the probe (`sampler_checks`).  The
    catalogue repeats, so a cache of check results would show a gain here
    that no user with distinct instances sees.
    """

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        self._offset = int(self._rng.integers(len(CHECK_CATALOGUE)))

    def _make(self, i: int) -> Op:
        kind, params = CHECK_CATALOGUE[(self._offset + i) % len(CHECK_CATALOGUE)]
        return Op(kind, dict(params), "catalogue")

    def sampler_checks(self, count: int) -> list[Op]:
        """`count` seeded acceptance-sampler instances, mp1t : mp1e : upm = 1 : 1 : 1."""
        ops = []
        for j in range(count):
            kind = ("mp1t", "mp1e", "upm")[j % 3]
            if kind == "upm":
                ops.append(Op(kind, upm_params(self._rng, wide=False)))
            else:
                ops.append(Op(kind, self._solve_params(kind, "sampler")))
        return ops

def known_defect_ops(workload: str, seed: int) -> list[Op]:
    """The untimed probe of a run: instances on which the program is known to fail.

    Its size is fixed, so its tally is the same on every run of a seed.
    """
    if workload == "solve_stream":
        return make_stream(workload, seed).wide_solves(PROBE_WIDE_SOLVES)
    if workload == "oracle_check":
        fixed = [Op(kind, dict(p), "known_defect") for kind, p in CHECK_DEFECTS]
        return fixed + make_stream(workload, seed).sampler_checks(PROBE_SAMPLER_CHECKS)
    return []


_STREAMS = {
    "solve_stream": SolveStream,
    "newsvendor": NewsvendorStream,
    "oracle_check": OracleCheckStream,
}


def make_stream(workload: str, seed: int) -> _Stream:
    return _STREAMS[workload](workload, seed)


# ---------------------------------------------------------------------------
# operations


class Runner:
    """Executes one operation of a workload against the imported program.

    Every call goes through a module attribute looked up at call time, so the
    tracer's wrappers (when installed) see it.
    """

    def __init__(self, workload: str, mb, workdir: str) -> None:
        self.workload = workload
        self.mb = mb
        self.check_path = f"{workdir}/check.json"

    def prepare(self, op: Op) -> None:
        """Untimed per-operation preparation: the instance file for `check`."""
        if self.workload == "oracle_check":
            with open(self.check_path, "w", encoding="utf-8") as fh:
                json.dump({"problem": op.kind, "params": op.params}, fh)

    def run(self, op: Op):
        mb = self.mb
        if self.workload == "solve_stream":
            p = op.params
            if op.kind == "mp1t":
                pm = mb.power_moment
                return pm.solve_power_moment(pm.PowerMomentInstance(**p))
            if op.kind == "mp1e":
                em = mb.exp_moment
                return em.solve_exp_moment(em.ExpMomentInstance(**p))
            um = mb.partial_moment
            return um.solve_partial_moment(um.PartialMomentInstance(**p))
        if self.workload == "newsvendor":
            return mb.newsvendor.optimize_order(
                mb.newsvendor.NewsvendorInstance(ambiguity=self.ambiguity(op), eta=op.eta)
            )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mb.cli.main(["check", self.check_path])
        return code, out.getvalue(), err.getvalue()

    def ambiguity(self, op: Op):
        p = op.params
        if op.kind.startswith("mp1t"):
            return self.mb.power_moment.PowerMomentAmbiguity(M1=p["M1"], Mt=p["Mt"], t=p["t"])
        em = self.mb.exp_moment
        if op.kind == "mp1e-expdemand":
            return em.ExpMomentAmbiguity.from_exponential_demand(lam=p["lam"], t=p["t"])
        return em.ExpMomentAmbiguity(M1=p["M1"], Me=p["Me"], t=p["t"])


# ---------------------------------------------------------------------------
# correctness gate and failure taxonomy

TYPED, BARE, UNCERTIFIED, WRONG = "typed", "bare", "uncertified", "wrong"

SCARF_RTOL = 1e-8
ORDER_RTOL = 1e-6  # golden-section q* lands within 2e-7 of the closed form


def classify_exception(exc: BaseException, mb) -> str:
    if isinstance(exc, mb.errors.MomentBoundError):
        return f"{TYPED}:{type(exc).__name__}"
    return f"{BARE}:{type(exc).__name__}"


def judge(runner: Runner, op: Op, result) -> str | None:
    """None when the operation passed its reference, else its failure class."""
    if runner.workload == "solve_stream":
        if not result.verification.passed:
            return UNCERTIFIED
        p = op.params
        if op.kind == "mp1t" and p["t"] == 2.0:
            ref = scarf_reference(p["M1"], p["Mt"], p["q"])
            if abs(result.value - ref) > SCARF_RTOL * max(abs(ref), 1e-300):
                return WRONG
        return None
    if runner.workload == "newsvendor":
        return _judge_order(runner, op, result)
    code, out, err = result
    if code == 0:
        return None
    if code == 6:
        doc = json.loads(out)
        return UNCERTIFIED if not doc["verified"] else WRONG
    try:
        return f"{TYPED}:{json.loads(err.splitlines()[0])['error']}"
    except (ValueError, IndexError, KeyError):
        return f"exit:{code}"


def _judge_order(runner: Runner, op: Op, decision) -> str | None:
    """Certify the worst case at q*, and at t = 2 match the closed-form q*."""
    p = op.params
    q = decision.q_star
    if op.kind == "mp1t-2":
        ref = mean_variance_order(p["M1"], p["Mt"], op.eta)
        if abs(q - ref) > ORDER_RTOL * ref:
            return WRONG
    if q <= 0.0:
        return None
    amb = runner.ambiguity(op)
    if op.kind.startswith("mp1t"):
        rep = runner.mb.power_moment.solve_power_moment(amb.instance_at(q))
    else:
        rep = runner.mb.exp_moment.solve_exp_moment(amb.instance_at(q))
    return None if rep.verification.passed else UNCERTIFIED
