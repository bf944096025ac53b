"""Domain types for moment problems and the generic primal-dual optimality verifier.

A problem instance pairs an objective function g with moment functions
(h_0, ..., h_n) and target moments (m_0, ..., m_n), m_0 = 1.  A candidate
answer is a finitely supported distribution plus a dual coefficient vector z
inducing H(x; z) = sum_i z_i h_i(x) - g(x).  The pair is optimal when

  * the distribution reproduces every target moment,
  * H has the feasible sign on the whole support domain [0, inf),
  * E[g] under the distribution is finite and equals the dual value z.m
    (no duality gap).

That is weak duality (Bertsimas & Popescu, SIAM J. Optim. 15, 2005): for a
max problem every law P that meets the moment rows has
E_P[g] = z.m - E_P[H] <= z.m once H >= 0, so a feasible law that attains
z.m is optimal, and so is z.  Complementary slackness (H = 0 on the
support) and tangency follow from the three conditions and are not tested;
the largest |H| on the support is still reported, as ``slack_residual``.

``verify_optimality`` measures the conditions as residuals and applies
explicit tolerances, so every solver in this package can certify its own
output.  The sign condition passes within a float-error allowance
proportional to S(x) = |g(x)| + sum |z_i h_i(x)|, the size of the terms
that cancel in H(x) (see ``ToleranceSet``); the residuals are reported raw.
One scalar pass evaluates every function once per support point and every
term of H once per candidate minimum.  The pass is compiled once per shape
of an instance (the sense and the families of g and the h_i; ``_source``)
into straight-line code, its terms unrolled in a fixed order, and cached
(``_plan``).  The shape alone writes the code: the instance's parameters,
duals and support arrive as arguments.  Each residual is the float that
plain scalar code gives, signed zeros, NaN and -inf included; the tests pin
this against ``tests/references.exact_residuals`` on every shape of up to
three moment functions after h_0.  ``certify`` is the step every public
solve ends with: it turns a solver's unverified candidate into a
``Report``, the one answer type of all three problems, which carries its
verification, or refuses it with ``UncertifiedError``: a ``Report`` is certified.

The sign condition is decided exactly, not sampled.  Every function is one
of the families built here (``constant``, ``monomial``, ``positive_part``,
``squared_positive_part``, ``exponential``), so between consecutive kinks
and knots H' is alpha + beta*x + gamma*psi'(x), psi a power x^p (p not 1
or 2) or an exponential e^(rx).  When at most one of beta and gamma is
nonzero, H' is monotone on the piece, so H has at most one stationary point
there and its closed form is the inverse of psi' (the Chebyshev-system
argument behind two- and three-point optima; Karlin & Studden,
*Tchebycheff Systems*, 1966).  The minimum of H over [0, inf) is a minimum
over the piece ends, the support and those points, and the sign of the
leading coefficient settles x -> inf.  An instance outside that rule (a
decaying exponential, or two nonlinear terms in H' on one piece) is refused
with DomainError: a sampled scan could only pass it without proof.
"""

from __future__ import annotations

import functools
import math
from typing import Any

from .errors import DimensionError, DomainError, UncertifiedError

_FAMILIES = ("constant", "monomial", "positive_part", "squared_positive_part", "exponential")
_CODE = {family: code for code, family in enumerate(_FAMILIES)}  # the verifier's dispatch key
_CONSTANT, _MONOMIAL, _KINK, _SQUARED, _EXPONENTIAL = range(len(_FAMILIES))


class _Frozen:
    """Frozen value semantics over a class's fields, with no generated code.

    The fields are the annotated names, a base's first, and ``__match_args__``
    holds them.  Equality (same class, equal field tuples), the hash and the
    repr read the fields alone and match a frozen dataclass's; setting or
    deleting an attribute raises ``AttributeError``.  Each subclass writes a
    keyword ``__init__`` that checks its arguments and fills ``__dict__`` in
    one step, any derived attributes with the fields.  A default is a class
    attribute, and the ``__init__`` default reads it by name in the class
    body.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = (*cls.__match_args__, *vars(cls).get("__annotations__", ()))

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MomentFunction(_Frozen):
    """One of this module's function families on [0, inf), with its parameter.

    ``family`` names the family and ``param`` holds its power, kink or rate
    (unused by ``constant``).  The verifier evaluates it and its derivative
    in scalar arithmetic and inverts the derivative in closed form.  Build
    these with the constructors below.
    """

    family: str
    param: float = 0.0

    def __init__(self, family: str, param: float = param) -> None:
        if family not in _FAMILIES:
            raise DomainError(f"unknown function family {family!r}")
        object.__setattr__(self, "__dict__", {"family": family, "param": param})


def constant() -> MomentFunction:
    """The normalization function h_0 = 1."""
    return MomentFunction("constant")


def monomial(power: float) -> MomentFunction:
    """x**power on [0, inf); power >= 1 so the derivative exists at 0."""
    if power < 1.0:
        raise DomainError(f"monomial power must be >= 1, got {power}")
    return MomentFunction("monomial", float(power))


def positive_part(kink: float) -> MomentFunction:
    """(x - kink)_+, non-differentiable exactly at the kink."""
    return MomentFunction("positive_part", float(kink))


def squared_positive_part(kink: float) -> MomentFunction:
    """(x - kink)_+^2; its derivative 2(x - kink)_+ is continuous everywhere."""
    return MomentFunction("squared_positive_part", float(kink))


def exponential(rate: float) -> MomentFunction:
    """exp(rate * x)."""
    return MomentFunction("exponential", float(rate))


class DiscreteDistribution(_Frozen):
    """Finite support with strictly positive probabilities summing to one."""

    points: tuple[tuple[float, float], ...]

    def __init__(self, points: tuple[tuple[float, float], ...]) -> None:
        if not points:
            raise DomainError("distribution needs at least one support point")
        negative = unsorted = nonpositive = False  # raised in this order
        last = -math.inf
        for x, p in points:
            if x < 0.0:
                negative = True
            if x <= last:
                unsorted = True
            if p <= 0.0:
                nonpositive = True
            last = x
        if negative:
            raise DomainError("support points must be nonnegative")
        if unsorted:
            raise DomainError("support points must be strictly increasing")
        if nonpositive:
            raise DomainError("probabilities must be strictly positive")
        total = math.fsum([p for _, p in points])
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "points", points)  # one field: cheaper than a new __dict__

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def ps(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.points)


class DualCertificate(_Frozen):
    """Coefficients z aligned with (h_0, ..., h_n)."""

    z: tuple[float, ...]

    def __init__(self, z: tuple[float, ...]) -> None:
        if not all(math.isfinite(v) for v in z):
            raise DomainError("certificate entries must be finite")
        object.__setattr__(self, "z", z)  # one field: cheaper than a new __dict__


class GmpInstance(_Frozen):
    """One moment problem on [0, inf): optimize E[g(X)] subject to E[h_i(X)] = m_i."""

    g: MomentFunction
    hs: tuple[MomentFunction, ...]
    ms: tuple[float, ...]
    sense: str  # "max" or "min"

    def __init__(
        self, g: MomentFunction, hs: tuple[MomentFunction, ...], ms: tuple[float, ...], sense: str
    ) -> None:
        if len(hs) != len(ms):
            raise DimensionError(f"{len(hs)} moment functions vs {len(ms)} targets")
        if ms[0] != 1.0:
            raise DomainError("first target moment must be 1 (normalization)")
        if sense not in ("max", "min"):
            raise DomainError(f"sense must be 'max' or 'min', got {sense!r}")
        object.__setattr__(self, "__dict__", {"g": g, "hs": hs, "ms": ms, "sense": sense})


class ToleranceSet(_Frozen):
    """Residual tolerances for certification.

    ``primal`` is relative to max(1, |m|_inf) and ``gap`` to max(1, |E[g]|).
    ``dual`` is absolute plus the float-error allowance ``gamma*S(x)``,
    S(x) = |g(x)| + sum |z_i h_i(x)| the size of the terms that cancel in
    H(x): dual feasibility passes where sign*H(x) >= -(dual + gamma*S(x)) at
    the support and at every point the minimum of H is taken over.
    gamma = 16u bounds the rounding of such a sum (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 3.1).  These three
    checks and a finite E[g] are the whole verdict: with the rows met and
    H >= 0, the gap |E[g] - z.m| is the mass-weighted slackness E[H], so a
    small gap bounds slackness where it matters.  The reported residuals
    stay raw.
    """

    primal: float = 1e-9
    dual: float = 1e-7
    gap: float = 1e-8
    gamma: float = 16 * 2**-53

    def __init__(
        self, primal: float = primal, dual: float = dual, gap: float = gap, gamma: float = gamma
    ) -> None:
        object.__setattr__(
            self, "__dict__", {"primal": primal, "dual": dual, "gap": gap, "gamma": gamma}
        )


class VerificationReport(_Frozen):
    """Residuals of the three optimality conditions, plus the largest |H| on the support.

    ``dual_min_on_grid`` is the minimum of H for maximization instances and
    of -H for minimization instances.  It is always the exact minimum over
    [0, inf), found by the closed-form rule of this module (the name is the
    CLI envelope's key): ``-inf`` when that function falls without bound as
    x -> inf, or reaches its minimum beyond float range, or evaluates to NaN.
    ``slack_residual`` is max |H| over the support, a diagnostic that
    ``passed`` does not read.  Every residual is raw; ``passed`` holds where
    the primal rows, the gap and dual feasibility (with the float-error
    allowance of ``ToleranceSet``) are within tolerance and E[g] is finite,
    so a pass implies ``dual_min_on_grid >= -(tol.dual + tol.gamma*S)`` at
    the minimizing point.
    """

    primal_residual: float
    slack_residual: float
    dual_min_on_grid: float
    duality_gap: float
    passed: bool
    primal_value: float
    dual_value: float

    def __init__(
        self,
        primal_residual: float,
        slack_residual: float,
        dual_min_on_grid: float,
        duality_gap: float,
        passed: bool,
        primal_value: float,
        dual_value: float,
    ) -> None:
        object.__setattr__(
            self,
            "__dict__",
            {
                "primal_residual": primal_residual,
                "slack_residual": slack_residual,
                "dual_min_on_grid": dual_min_on_grid,
                "duality_gap": duality_gap,
                "passed": passed,
                "primal_value": primal_value,
                "dual_value": dual_value,
            },
        )


def _power(x: float, p: float) -> float:
    try:
        return x**p
    except OverflowError:
        return math.inf


# What each family contributes to a verification pass, indexed by family
# code.  {k} is the function's index in its shape, 0 for g (coefficient c0 =
# -1) and i for h_i (coefficient c{i} = z_i), and p{k} is its parameter.
# _VALUE sets v{k} = f(x), _PIECE adds f's share to H' = alpha + beta*x on
# the piece starting at a, and _CURVED says when f is the nonlinear term psi
# of H' = alpha + beta*x + gamma*psi'(x).
_VALUE = (
    ("v{k} = 1.0",),
    (
        "if p{k} == 1.0:",
        "    v{k} = x",
        "else:",
        "    try:",
        "        v{k} = x ** p{k}",
        "    except OverflowError:",
        "        v{k} = inf",
    ),
    ("v{k} = x - p{k}", "if v{k} < 0.0:  # max(x - p, 0.0), NaN and -0.0 kept", "    v{k} = 0.0"),
    (
        "v{k} = x - p{k}",
        "if v{k} < 0.0:",
        "    v{k} = 0.0",
        "try:  # v**2, not v*v: the two round differently on some floats",
        "    v{k} = v{k} ** 2",
        "except OverflowError:",
        "    v{k} = inf",
    ),
    ("try:", "    v{k} = exp(p{k} * x)", "except OverflowError:", "    v{k} = inf"),
)
_PIECE = (
    (),
    ("if p{k} == 1.0:", "    alpha += c{k}", "elif p{k} == 2.0:", "    beta += 2.0 * c{k}"),
    ("if a >= p{k}:", "    alpha += c{k}"),
    ("if a >= p{k}:", "    alpha -= 2.0 * c{k} * p{k}", "    beta += 2.0 * c{k}"),
    (),
)
_CURVED = (None, "p{k} != 1.0 and p{k} != 2.0", None, None, "p{k} > 0.0")
# the refusals, as f-string literals of the pass
_DECAYING = 'f"cannot decide H >= 0 with the decaying exponential e^({{p{k}:g}}x)"'
_TWO_CURVES = '"cannot decide H >= 0: two nonlinear terms in H\'"'
_TWO_CURVES_PAST = 'f"cannot decide H >= 0: two nonlinear terms in H\' past x = {a:g}"'


def _source(sense: str, g: str, *hs: str) -> str:
    """The verification pass of one shape, as the source of a function ``run``.

    A shape is the sense and the families of g and of the h_i.  The text is
    built from the family tables above alone: every parameter, dual, target
    moment, support point and tolerance is an argument of ``run``, read
    when it runs.  ``run`` evaluates the terms of H one by one in a fixed
    order, g first, so each residual is the float that plain scalar code
    gives (pinned against ``tests/references.exact_residuals``).
    """
    codes = [_CODE[g], *(_CODE[h] for h in hs)]
    ks = range(len(codes))
    out: list[str] = []

    def emit(depth: int, lines, k: int | None = None) -> None:
        out.extend("    " * depth + (line if k is None else line.format(k=k)) for line in lines)

    def term(depth: int, k: int, lines) -> None:
        """lines for function k as a term of H: g always, h_k where z_k is not 0."""
        if k:
            emit(depth, ["if c{k} != 0.0:"], k)
        emit(depth + bool(k), lines, k)

    def largest(depth: int, name: str, value: str) -> None:
        """name = max(name, |value|), NaN once any |value| is NaN."""
        emit(depth, [f"r = abs({value})", f"if r > {name} or r != r:", f"    {name} = r"])

    def signed(depth: int) -> None:
        """sign*H into the minimum and the dual-feasibility verdict."""
        emit(
            depth,
            (["h = -h"] if sense == "min" else [])
            + [
                "if h < dual_min:  # min(), first of equals kept; -inf once any is NaN",
                "    dual_min = h",
                "elif h != h:",
                "    dual_min = -inf",
                "if not h >= -(dual + allowance):",
                "    fits = False",
            ],
        )

    add = ["cv = c{k} * v{k}", "h += cv", "size += cv if cv > 0.0 else -cv"]
    names = ", ".join("_" if codes[k] == _CONSTANT else f"h{k}" for k in ks[1:])
    emit(0, ["def run(g, hs, ms, points, zs, tol):", "    c0 = -1.0", f"    ({names},) = hs"])
    for k in ks:
        if codes[k] != _CONSTANT:
            emit(1, ["p{k} = " + ("g" if k == 0 else "h{k}") + ".param"], k)
    emit(1, [f"({', '.join(f'm{k}' for k in ks[1:])},) = ms"])
    emit(1, [f"({', '.join(f'c{k}' for k in ks[1:])},) = zs"])

    # the candidate minima of sign*H: the piece starts, and the stationary
    # point of each piece (see the module docstring)
    curving = [k for k in ks if _CURVED[codes[k]]]
    if curving:
        emit(1, ["nonlinear = {}"])
        for k in curving:
            decays = ["if p{k} < 0.0:", "    raise DomainError(" + _DECAYING + ")"]
            key = f"({codes[k]}, p{{k}})"
            add_curve = [
                f"if {_CURVED[codes[k]]}:",
                f"    nonlinear[{key}] = nonlinear.get({key}, 0.0) + c{{k}}",
            ]
            term(1, k, (decays if codes[k] == _EXPONENTIAL else []) + add_curve)
        emit(
            1,
            [
                "curved = [(key, gamma) for key, gamma in nonlinear.items() if gamma != 0.0]",
                "if len(curved) > 1:",
                "    raise DomainError(" + _TWO_CURVES + ")",
                "if curved:",
                "    (code, pc), gamma = curved[0]",
            ],
        )
    kinked = [f"p{k}" for k in ks if codes[k] in (_KINK, _SQUARED)]
    if len(kinked) > 1:
        emit(1, [f"starts = sorted({{0.0, *[p for p in ({', '.join(kinked)}) if p > 0.0]}})"])
    elif kinked:
        emit(1, [f"starts = [0.0, {kinked[0]}] if {kinked[0]} > 0.0 else [0.0]"])
    else:
        emit(1, ["starts = [0.0]"])
    emit(
        1,
        [
            "crit = list(starts)",
            "unbounded = False",
            "for a, b in zip(starts, starts[1:] + [inf]):",
            "    alpha = beta = 0.0",
        ],
    )
    for k in ks:
        if _PIECE[codes[k]]:
            term(2, k, _PIECE[codes[k]])
    if curving:
        emit(
            2,
            [
                "if curved:",
                "    if beta != 0.0:",
                "        raise DomainError(" + _TWO_CURVES_PAST + ")",
                "    ratio = -alpha / gamma / pc  # x^(p-1) or e^(px) at the stationary point",
                "    if not ratio > 0.0:",
                "        continue",
                f"    if code == {_MONOMIAL}:",
                "        x = _power(ratio, 1.0 / (pc - 1.0))",
                "    else:",
                "        x = log(ratio) / pc",
                "elif beta != 0.0:",
            ],
        )
    else:
        emit(2, ["if beta != 0.0:"])
    emit(
        2,
        [
            "    x = -alpha / beta",
            "else:",
            "    continue",
            "if x == inf == b:",
            "    unbounded = True",
            "    break",
            "if a < x < b:",
            "    crit.append(x)",
        ],
    )
    # the leading term of the last piece decides the limit at infinity
    lead = "(gamma if curved else beta or alpha)" if curving else "(beta or alpha)"
    emit(1, ["else:", f"    unbounded = {lead} {'>' if sense == 'min' else '<'} 0.0"])

    # the support: moment rows and |H|; then sign*H everywhere
    emit(
        1,
        [
            "dual, rounding = tol.dual, tol.gamma",
            " = ".join(f"e{k}" for k in ks) + " = 0.0  # E[g], then E[h_i]",
            "slack_res = 0.0",
            "dual_min = inf",
            "fits = not unbounded",
            "for x, pj in points:",
            "    h = -0.0  # H starts from -g(x) on the support, 0 - g(x) elsewhere",
            "    size = 0.0",
        ],
    )
    for k in ks:
        emit(2, [*_VALUE[codes[k]], "e{k} += v{k} * pj"], k)
        term(2, k, add)
    emit(2, ["allowance = rounding * size"])
    largest(2, "slack_res", "h")
    signed(2)
    emit(1, ["for x in crit:", "    h = 0.0", "    size = 0.0"])
    for k in ks:
        term(2, k, [*_VALUE[codes[k]], *add])
    emit(2, ["allowance = rounding * size"])
    signed(2)

    emit(1, ["primal = 0.0"])
    for k in ks[1:]:
        largest(1, "primal", f"e{k} - m{k}")
    emit(
        1,
        [
            f"dual_value = sum(({', '.join(f'c{k} * m{k}' for k in ks[1:])},))",
            "passed = (",
            f"    primal <= tol.primal * max(1.0, {', '.join(f'abs(m{k})' for k in ks[1:])})",
            "    and fits",
            "    and abs(e0 - dual_value) <= tol.gap * max(1.0, abs(e0))",
            "    and abs(e0) < inf",
            ")",
            "dual_min = -inf if unbounded else dual_min",
            "return primal, slack_res, dual_min, e0, dual_value, passed",
        ],
    )
    return "\n".join(out) + "\n"


@functools.lru_cache(maxsize=64)
def _plan(sense: str, g: str, *hs: str):
    """The compiled verification pass of one shape; see ``_source``."""
    namespace = {
        "inf": math.inf,
        "exp": math.exp,
        "log": math.log,
        "_power": _power,
        "DomainError": DomainError,
    }
    exec(compile(_source(sense, g, *hs), "<momentbound verification pass>", "exec"), namespace)
    return namespace["run"]


def _exact_residuals(
    inst: GmpInstance, dist: DiscreteDistribution, cert: DualCertificate, tol: ToleranceSet
) -> tuple[float, float, float, float, float, bool]:
    """The residuals in one scalar pass, with the exact minimum of H over [0, inf).

    Each function is evaluated once per support point, and each term of H
    once per critical point; that pass yields the moment rows, H, S and
    E[g].  Returns the primal and slack residuals, the minimum of sign*H,
    the primal and dual values, and whether the pair passes ``tol`` (dual
    feasibility within its float-error allowance).  The pass is compiled
    once per shape of ``inst`` (``_plan``).
    """
    run = _plan(inst.sense, inst.g.family, *[h.family for h in inst.hs])
    return run(inst.g, inst.hs, inst.ms, dist.points, cert.z, tol)


def verify_optimality(
    inst: GmpInstance,
    dist: DiscreteDistribution,
    cert: DualCertificate,
    tol: ToleranceSet = ToleranceSet(),
) -> VerificationReport:
    """Check weak duality for a candidate primal-dual pair: rows, sign of H, gap.

    Dual feasibility is the exact minimum of H over [0, inf) (see the module
    docstring), and every residual is computed in scalar arithmetic, in one
    pass over the support and the critical points.  Dual feasibility passes
    within ``tol.gamma`` times the size of the terms of H (see
    ``ToleranceSet``).  An instance whose H' has a decaying exponential, or
    more than one nonlinear term on some piece, has no closed-form
    stationary points and raises DomainError.
    """
    if len(cert.z) != len(inst.hs):
        raise DimensionError(f"certificate length {len(cert.z)} vs {len(inst.hs)} functions")

    primal, slack, dual_min, primal_value, dual_value, passed = _exact_residuals(
        inst, dist, cert, tol
    )
    return VerificationReport(
        primal_residual=primal,
        slack_residual=slack,
        dual_min_on_grid=dual_min,
        duality_gap=abs(primal_value - dual_value),
        passed=passed,
        primal_value=primal_value,
        dual_value=dual_value,
    )


class Report(_Frozen):
    """A solver's certified answer: the optimal value, its primal-dual pair, and their check.

    ``certify`` builds it only for a pair that passes, so ``verification.passed``
    holds on every solver's report; the CLI's oracle answer has no verification.

    ``branch`` names the regime the solver took.  ``root`` is the scalar that
    fixes the answer on that branch, in the solver's scaled units: the
    searched upper (mp1t) or lower (mp1e) support point on the interior
    branch, the degenerate family's parameter v1, its largest support point
    (upm), and None on the closed-form branches.  ``bisect_iters`` counts
    the root-function evaluations of the interior search behind ``root``
    (psi for mp1t, whose retried answers keep that search's count;
    phi in the mean gap for mp1e), beyond the bracket ends' values, and is 0
    where nothing was searched.  An mp1t newsvendor report at q* > 0 is the
    law q* came from: ``root`` is its scaled upper point, and
    ``bisect_iters`` counts the evaluations of ``_upper_point_at_mass``'s
    search, 0 where that point is the search's right end.
    """

    value: float
    dist: DiscreteDistribution
    cert: DualCertificate
    branch: str
    root: float | None
    bisect_iters: int
    verification: VerificationReport

    def __init__(
        self,
        value: float,
        dist: DiscreteDistribution,
        cert: DualCertificate,
        branch: str,
        root: float | None,
        bisect_iters: int,
        verification: VerificationReport,
    ) -> None:
        object.__setattr__(
            self,
            "__dict__",
            {
                "value": value,
                "dist": dist,
                "cert": cert,
                "branch": branch,
                "root": root,
                "bisect_iters": bisect_iters,
                "verification": verification,
            },
        )


def certify(inst: GmpInstance, candidate: dict[str, Any]) -> Report:
    """Verify a solver's candidate answer for ``inst`` and build its report, once.

    ``candidate`` holds every field of ``Report`` except ``verification``,
    among them ``dist`` and ``cert``.  A pair that fails verification is
    refused with ``UncertifiedError``, naming its branch, value and residuals.
    """
    v = verify_optimality(inst, candidate["dist"], candidate["cert"])
    if not v.passed:
        raise UncertifiedError(
            f"{candidate['branch']} answer {candidate['value']!r} fails its certificate: "
            f"primal {v.primal_residual!r}, dual min {v.dual_min_on_grid!r}, gap {v.duality_gap!r}"
        )
    return Report(**candidate, verification=v)
