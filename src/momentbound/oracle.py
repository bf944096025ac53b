"""Independent ground truth: discretize the support and solve the finite LP.

Restricting a moment problem to a finite grid gives an ordinary linear
program over the point masses.  For maximization the grid optimum is a lower
bound that becomes exact as soon as the true optimal support lies on the
grid, which is why callers can seed the grid with a solver's support points
and demand agreement to near machine precision.

The LP is solved by a dense two-phase simplex.  The column with the most
negative reduced cost enters (Dantzig; lowest index on ties), which reaches
the optimum in a few dozen pivots even on 10^5-point grids; after a run of
degenerate pivots the first eligible column enters instead (Bland), which
cannot cycle, until the objective moves again.  Ratio ties leave by lowest
basis index.  No step is random, so identical inputs give bit-identical
results.  The oracle shares no root functions or closed forms with the
analytic solvers, nor the verifier's scalar arithmetic: it evaluates the
instance's g and h_i on the grid with its own numpy code.

A pivot costs what its arithmetic costs.  Dividing the pivot row and
subtracting a multiple of it from every row of the (m+1) x (n+1) tableau
B^-1 [A | b] (reduced costs in the last row) takes about 20 us at 2001 grid
points on a 2-vCPU x86-64 host; pricing is one argmin, and the ratio test and
the rhs scrub run over the m <= 4 constraint rows in Python floats, about
5 us more.  They make the comparisons and divisions of the array version of
the loop (``simplex_run`` in the test suite's references), so the pivot
sequence, and with it every result, is the same bit for bit.

Refinement warm-starts.  A doubled grid keeps every point of the coarser one
bit for bit, so the coarser round's optimal basis is a feasible basis of the
finer LP: phase 2 starts from its tableau B^-1 [A | b], with reduced costs
c - c_B B^-1 A, phase 1 is skipped, and only the new points can price in.
A start that is off the grid, short of one point per row (phase 1 dropped a
redundant row), singular, or negative beyond roundoff falls back to the
cold two-phase solve.  Only the oracle's own earlier basis is ever used as
a start, never a solver's support or duals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteDistribution, GmpInstance, MomentFunction
from .errors import DomainError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RC_TOL = 1e-9  # reduced-cost threshold for entering columns
_PIVOT_TOL = 1e-11
_PHASE1_TOL = 1e-9  # leftover artificial mass that still counts as feasible
# pivots in a row that leave the objective unchanged (a zero step, or one
# that rounds away) before Bland's rule takes over; a simplex cycle is at
# least six pivots long, so Bland takes over by its second round
_DEGENERATE_RUN = 8


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [lo, hi] plus optional exact extra points."""

    lo: float
    hi: float
    n_points: int
    refine_around: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi):
            raise DomainError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")
        if self.n_points < 2:
            raise DomainError("n_points must be at least 2")

    def points(self) -> np.ndarray:
        base = np.linspace(self.lo, self.hi, self.n_points)
        if not self.refine_around:
            return base
        extra = sorted({p for p in self.refine_around if p >= self.lo})
        if not (base[1:] > base[:-1]).all():  # lo and hi a few ulp apart
            return np.unique(np.concatenate([base, extra]))
        # the sorted union without a sort: each extra not already on the grid
        # goes in at its searchsorted position
        pieces, prev = [], 0
        for i, p in zip(base.searchsorted(extra).tolist(), extra):
            if i == base.size or base[i] != p:
                pieces += (base[prev:i], (p,))
                prev = i
        return np.concatenate([*pieces, base[prev:]]) if pieces else base

    def doubled(self) -> "GridSpec":
        # 2n-1 keeps every existing uniform point on the refined grid
        return GridSpec(
            lo=self.lo,
            hi=self.hi,
            n_points=2 * self.n_points - 1,
            refine_around=self.refine_around,
        )


@dataclass(frozen=True)
class OracleResult:
    value: float
    dist: DiscreteDistribution | None
    status: str
    grid: GridSpec
    duals: tuple[float, ...] | None
    pivots: tuple[int, int]  # phase 1, phase 2
    basis: tuple[float, ...] = ()  # grid points of the final basis, one per row


@dataclass(frozen=True)
class RefineOutcome:
    """Last oracle result plus the observed value sequence across refinements."""

    result: OracleResult
    values: tuple[float, ...]
    converged: bool
    rounds: int


def _evaluate(f: MomentFunction, xs: np.ndarray) -> np.ndarray:
    """f on every grid point."""
    family, p = f.family, f.param
    if family == "monomial":
        return xs + 0.0 if p == 1.0 else np.power(xs, p)
    if family == "positive_part":
        return np.maximum(xs - p, 0.0)
    if family == "squared_positive_part":
        return np.maximum(xs - p, 0.0) ** 2
    if family == "exponential":
        return np.exp(p * xs)
    return np.ones_like(xs)


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    basis[row] = col


def _scrub(T: np.ndarray) -> bool:
    """Zero the rhs entries of T that are negative by roundoff only (> -1e-11).

    Returns False when an entry is left negative beyond roundoff.
    """
    clean = True
    for i, r in enumerate(T[:-1, -1].tolist()):
        if r < 0.0:
            if r > -1e-11:
                T[i, -1] = 0.0
            else:
                clean = False
    return clean


def _run(T: np.ndarray, basis: list[int], n_enter: int) -> tuple[str, int]:
    """Minimize the last tableau row over the first n_enter columns.

    Returns the status and the number of pivots taken.  The most negative
    reduced cost enters (Dantzig); after _DEGENERATE_RUN pivots in a row that
    leave the objective where it was, the first eligible column enters
    instead (Bland), until a pivot moves the objective again.
    """
    pivots = 0
    stalled = 0
    while True:
        rc = T[-1, :n_enter]
        if stalled < _DEGENERATE_RUN:
            j = int(rc.argmin())
            if not rc[j] < -_RC_TOL:
                return OPTIMAL, pivots
        else:
            candidates = np.flatnonzero(rc < -_RC_TOL)
            if candidates.size == 0:
                return OPTIMAL, pivots
            j = int(candidates[0])
        # ratio test in Python floats: on m <= 4 rows numpy's per-call
        # overhead costs more than the divisions; lowest basis index on ties
        row, best = -1, 0.0
        for i, (a, r) in enumerate(zip(T[:-1, j].tolist(), T[:-1, -1].tolist())):
            if a > _PIVOT_TOL:
                ratio = r / a
                if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row < 0:
            return UNBOUNDED, pivots
        objective = T[-1, -1]
        _pivot(T, basis, row, j)
        pivots += 1
        stalled = stalled + 1 if T[-1, -1] == objective else 0
        _scrub(T)


def _two_phase_simplex(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, pivots: list[int] | None = None
) -> tuple[str, np.ndarray | None, list[int], np.ndarray | None]:
    """min c.x s.t. A x = b, x >= 0.  Returns (status, x, basis, duals).

    The phase-1 and phase-2 pivot counts are appended to ``pivots`` when it
    is given (phase 2 counts 0 when phase 1 finds no feasible point).
    """
    counts = [] if pivots is None else pivots
    m, n = A.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    A1 = A * sign[:, None]
    b1 = b * sign

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A1
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b1
    T[-1, :n] = -A1.sum(axis=0)
    T[-1, -1] = -b1.sum()
    basis = list(range(n, n + m))

    status, phase1 = _run(T, basis, n)
    counts.append(phase1)
    if status != OPTIMAL or -T[-1, -1] > _PHASE1_TOL:
        counts.append(0)
        return INFEASIBLE, None, basis, None

    # pivot leftover artificials out; a row with no real pivot is redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            real = np.flatnonzero(np.abs(T[i, :n]) > _PIVOT_TOL)
            if real.size:
                _pivot(T, basis, i, int(real[0]))
            else:
                keep[i] = False
    rows = np.flatnonzero(keep)
    basis2 = [basis[i] for i in rows]

    T2 = np.zeros((rows.size + 1, n + 1))
    T2[:-1, :n] = T[rows, :n]
    T2[:-1, -1] = T[rows, -1]
    T2[-1, :n] = c
    for i, bi in enumerate(basis2):
        T2[-1] -= T2[-1, bi] * T2[i]
    return _phase_two(A, b, c, T2, basis2, rows, counts)


def _warm_tableau(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int]
) -> np.ndarray | None:
    """The phase-2 tableau of a basis, or None if the basis cannot be trusted.

    The tableau is B^-1 [A | b] with reduced costs c - c_B B^-1 A.  It is
    None unless ``basis`` holds one distinct column per row of A, B is
    nonsingular and the basic solution B^-1 b is nonnegative up to roundoff.
    """
    m, n = A.shape
    if len(basis) != m or len(set(basis)) != m:
        return None
    T = np.empty((m + 1, n + 1))
    try:
        # the m x m inverse times [A | b]: np.linalg.solve with thousands of
        # right-hand sides is over an order of magnitude slower
        np.matmul(np.linalg.inv(A[:, basis]), np.column_stack([A, b]), out=T[:-1])
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(T[:-1]).all() and _scrub(T)):
        return None
    T[:-1, basis] = np.eye(m)
    T[-1, :n] = c - c[basis] @ T[:-1, :n]
    T[-1, basis] = 0.0
    T[-1, -1] = -c[basis] @ T[:-1, -1]
    return T


def _phase_two(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    T2: np.ndarray,
    basis2: list[int],
    rows: np.ndarray,
    counts: list[int],
) -> tuple[str, np.ndarray | None, list[int], np.ndarray | None]:
    """Run phase 2 from a feasible tableau on ``rows`` of A, then re-solve."""
    m, n = A.shape
    status, phase2 = _run(T2, basis2, n)
    counts.append(phase2)
    if status != OPTIMAL:
        return status, None, basis2, None

    x = np.zeros(n)
    B = A[np.ix_(rows, basis2)]
    # re-solve on the final basis with one refinement step for clean residuals
    xb = np.linalg.solve(B, b[rows])
    xb += np.linalg.solve(B, b[rows] - B @ xb)
    cols, Bc = np.asarray(basis2), B
    while np.any(xb < 0.0):
        # a degenerate basic variable can come out a hair below zero; drop it
        # and refit the rest, so the masses left still meet every row
        pos = xb > 0.0
        cols, Bc = cols[pos], Bc[:, pos]
        xb = np.linalg.lstsq(Bc, b[rows], rcond=None)[0]
        xb += np.linalg.lstsq(Bc, b[rows] - Bc @ xb, rcond=None)[0]
    x[cols] = xb

    y = np.zeros(m)
    y[rows] = np.linalg.solve(B.T, c[basis2])
    return OPTIMAL, x, basis2, y


def oracle_solve(
    inst: GmpInstance, grid: GridSpec, *, start: tuple[float, ...] = ()
) -> OracleResult:
    """Solve the moment problem restricted to the grid's point masses.

    ``start`` is the ``basis`` of an earlier result whose grid points all lie
    on this grid.  Phase 2 then starts from that basis and phase 1 is
    skipped (``pivots[0] == 0``).  A start that is off the grid, short of
    one point per constraint, singular or infeasible here is ignored, and
    the LP is solved from the artificial basis as without one.
    """
    if grid.n_points < len(inst.hs) + 1:
        raise DomainError(
            f"grid needs at least {len(inst.hs) + 1} points for {len(inst.hs)} constraints"
        )
    xs = grid.points()
    with np.errstate(over="ignore"):  # an overflow is refused just below
        Ag = np.vstack([_evaluate(f, xs) for f in (*inst.hs, inst.g)])
    if not np.isfinite(Ag).all():
        raise DomainError("moment functions are not finite on the grid")
    A, g = Ag[:-1], Ag[-1]
    b = np.asarray(inst.ms, dtype=float)

    c = -g if inst.sense == "max" else g
    basis = xs.searchsorted(start).tolist() if start else []
    if not all(j < xs.size and xs[j] == p for j, p in zip(basis, start)):
        basis = []  # off the grid
    T = _warm_tableau(A, b, c, basis)
    if T is not None:
        counts = [0]
        status, x, basis, duals = _phase_two(A, b, c, T, basis, np.arange(b.size), counts)
    else:
        counts = []
        status, x, basis, duals = _two_phase_simplex(A, b, c, counts)
    pivots = (counts[0], counts[1])
    if status != OPTIMAL:
        return OracleResult(
            value=math.nan, dist=None, status=status, grid=grid, duals=None, pivots=pivots
        )

    support = np.flatnonzero(x > 0.0)
    dist = DiscreteDistribution(points=tuple(zip(xs[support].tolist(), x[support].tolist())))
    value = float(g[support] @ x[support])
    return OracleResult(
        value=value,
        dist=dist,
        status=OPTIMAL,
        grid=grid,
        duals=tuple(duals.tolist()),
        pivots=pivots,
        basis=tuple(xs[basis].tolist()),
    )


def refine_until(
    inst: GmpInstance, base_grid: GridSpec, target_tol: float, max_rounds: int
) -> RefineOutcome:
    """Re-solve on ever denser grids until successive values stabilize.

    Density roughly doubles each round.  The doubled grid keeps every point
    of the last one, so each round after the first starts phase 2 from the
    last round's optimal basis (``oracle_solve``'s ``start``); only the new
    points can price in, and a start that cannot be trusted falls back to
    the full two-phase solve.  Hitting max_rounds without meeting
    target_tol is reported through ``converged=False``, not an error.
    """
    if not target_tol > 0.0:
        raise DomainError("target_tol must be positive")
    grid = base_grid
    result = oracle_solve(inst, grid)
    values = [result.value]
    rounds = 0
    converged = False
    while rounds < max_rounds and result.status == OPTIMAL:
        grid = grid.doubled()
        result = oracle_solve(inst, grid, start=result.basis)
        values.append(result.value)
        rounds += 1
        if abs(values[-1] - values[-2]) <= target_tol:
            converged = True
            break
    return RefineOutcome(
        result=result, values=tuple(values), converged=converged, rounds=rounds
    )
