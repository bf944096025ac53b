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

A pivot costs what its arithmetic costs.  It divides the pivot row and
subtracts a multiple of it from each other row of the (m+1) x (n+1) tableau
B^-1 [A | b] (reduced costs in the last row), one row at a time and in
place, the pivot row itself last: bit for bit the whole-tableau update
T -= f r^T, without its (m+1) x (n+1) temporary.  The entering column is
read once, as Python floats, for the ratio test and as the row multipliers,
and the row views, the reduced-cost row and the rhs are sliced once per run.
With m <= 3 at 2001 grid points a phase-1 pivot takes about 13 us of that
arithmetic on a shared 2-vCPU x86-64 host, and pricing (one argmin), the
ratio test and the rhs scrub over the m <= 4 constraint rows about 3 us
more.  The ratio test and the scrub make the comparisons and divisions of
the array version of the loop (``simplex_run`` in the test suite's
references), so the pivot sequence, and with it every result, is the same
bit for bit; a test runs both loops to termination and compares them.

Each solve evaluates g and the h_i on the grid straight into one buffer,
[A | b] over [g | 0]; the cold tableau is built from it and the warm one is
B^-1 times its first m rows.

Refinement warm-starts.  A doubled grid keeps every point of the coarser one
bit for bit, so the coarser round's optimal basis is a feasible basis of the
finer LP: phase 2 starts from its tableau B^-1 [A | b], with reduced costs
c - c_B B^-1 A, phase 1 is skipped, and only the new points can price in.
A start that is off the grid, short of one point per row (phase 1 dropped a
redundant row), singular, or negative beyond roundoff falls back to the
cold two-phase solve.  A warm round that makes no pivot ends on the start's
points in the start's order.  Where their columns of [A | b] over [g | 0]
are byte-equal to those of the round the start came from (its ``basis``
keeps their bytes), B, b and c_B are too, and the round keeps that round's
value, law and duals instead of solving B again.  Comparing the bytes means
the reuse does not rest on numpy evaluating a point the same way in arrays
of different lengths.  Only the oracle's own earlier basis is ever used as
a start, never a solver's support or duals.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DiscreteDistribution, GmpInstance, MomentFunction, _Frozen
from .errors import DomainError, RangeError

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
_MAX_POINTS = np.iinfo(np.intp).max // 8  # numpy refuses larger arrays of 8-byte floats


class GridSpec(_Frozen):
    """Uniform grid on [lo, hi] plus optional exact extra points."""

    lo: float
    hi: float
    n_points: int
    refine_around: tuple[float, ...] = ()

    def __init__(
        self, lo: float, hi: float, n_points: int, refine_around: tuple[float, ...] = refine_around
    ) -> None:
        if not (0.0 <= lo < hi):
            raise DomainError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
        if n_points < 2:
            raise DomainError("n_points must be at least 2")
        object.__setattr__(
            self,
            "__dict__",
            {"lo": lo, "hi": hi, "n_points": n_points, "refine_around": refine_around},
        )

    def points(self) -> np.ndarray:
        n = self.n_points
        try:
            base = np.linspace(self.lo, self.hi, n) if n <= _MAX_POINTS else None
        except MemoryError:
            base = None
        if base is None:
            raise RangeError(f"a grid of {n} points is too large to build")
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


class OracleResult(_Frozen):
    value: float
    dist: DiscreteDistribution | None
    status: str
    grid: GridSpec
    duals: tuple[float, ...] | None
    pivots: tuple[int, int]  # phase 1, phase 2
    basis: tuple[float, ...] = ()  # grid points of the final basis, one per row

    def __init__(
        self,
        value: float,
        dist: DiscreteDistribution | None,
        status: str,
        grid: GridSpec,
        duals: tuple[float, ...] | None,
        pivots: tuple[int, int],
        basis: tuple[float, ...] = basis,
    ) -> None:
        object.__setattr__(
            self,
            "__dict__",
            {
                "value": value,
                "dist": dist,
                "status": status,
                "grid": grid,
                "duals": duals,
                "pivots": pivots,
                "basis": basis,
            },
        )


class RefineOutcome(_Frozen):
    """Last oracle result plus the observed value sequence across refinements."""

    result: OracleResult
    values: tuple[float, ...]
    converged: bool
    rounds: int

    def __init__(
        self, result: OracleResult, values: tuple[float, ...], converged: bool, rounds: int
    ) -> None:
        object.__setattr__(
            self,
            "__dict__",
            {"result": result, "values": values, "converged": converged, "rounds": rounds},
        )


def _evaluate(f: MomentFunction, xs: np.ndarray, out: np.ndarray) -> None:
    """f on every grid point, written into ``out``."""
    family, p = f.family, f.param
    if family == "monomial":
        if p == 1.0:
            np.add(xs, 0.0, out=out)
        else:
            np.power(xs, p, out=out)
    elif family == "exponential":
        np.multiply(p, xs, out=out)
        np.exp(out, out=out)
    elif family in ("positive_part", "squared_positive_part"):
        np.subtract(xs, p, out=out)
        np.maximum(out, 0.0, out=out)
        if family == "squared_positive_part":
            np.square(out, out=out)
    else:
        out.fill(1.0)


def _pivot(rows: list[np.ndarray], col: list[float], basis: list[int], row: int, j: int) -> None:
    """Pivot the tableau whose row views are ``rows`` on entry (row, j).

    ``col`` is column j read before the pivot: the pivot element and the
    multiplier of every other row.
    """
    r = rows[row]
    r /= col[row]
    for Ti, f in zip(rows, col):
        if Ti is not r:
            Ti -= f * r
    # the pivot row last, as r - 0*r: that is what T -= f r^T with f[row] = 0
    # makes of it, signed zeros, inf and nan included, and every other row
    # subtracts r as it was before this line
    r -= 0.0 * r
    basis[row] = j


def _scrub(rhs: np.ndarray) -> list[float]:
    """Zero the entries of the rhs view that are negative by roundoff only (> -1e-11).

    Returns the rhs after the scrub, as Python floats.
    """
    values = rhs.tolist()
    for i, r in enumerate(values):
        if -1e-11 < r < 0.0:
            rhs[i] = values[i] = 0.0
    return values


def _run(T: np.ndarray, basis: list[int], n_enter: int) -> tuple[str, int]:
    """Minimize the last tableau row over the first n_enter columns.

    Returns the status and the number of pivots taken.  The most negative
    reduced cost enters (Dantzig); after _DEGENERATE_RUN pivots in a row that
    leave the objective where it was, the first eligible column enters
    instead (Bland), until a pivot moves the objective again.
    """
    pivots = 0
    stalled = 0
    rows = list(T)
    rc = rows[-1][:n_enter]
    rhs_view = T[:-1, -1]
    rhs = rhs_view.tolist()
    objective = T.item(-1, -1)
    while True:
        if stalled < _DEGENERATE_RUN:
            j = int(rc.argmin())
        else:
            eligible = np.flatnonzero(rc < -_RC_TOL)
            if eligible.size == 0:
                return OPTIMAL, pivots
            j = int(eligible[0])
        col = T[:, j].tolist()  # the one read of the entering column
        if not col[-1] < -_RC_TOL:
            return OPTIMAL, pivots
        # ratio test in Python floats: on m <= 4 rows numpy's per-call
        # overhead costs more than the divisions; lowest basis index on ties
        row, best = -1, 0.0
        for i, (a, r) in enumerate(zip(col, rhs)):
            if a > _PIVOT_TOL:
                ratio = r / a
                if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row < 0:
            return UNBOUNDED, pivots
        _pivot(rows, col, basis, row, j)
        pivots += 1
        moved = T.item(-1, -1)
        stalled = stalled + 1 if moved == objective else 0
        objective = moved
        rhs = _scrub(rhs_view)


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
    b1 = b * sign

    # basis labels n..n+m-1 are the artificials; their columns are never
    # read, so the tableau has none
    T = np.empty((m + 1, n + 1))
    A1, obj = T[:m, :n], T[-1, :n]
    np.multiply(A, sign[:, None], out=A1)
    T[:m, -1] = b1
    np.sum(A1, axis=0, out=obj)
    np.negative(obj, out=obj)
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
                j = int(real[0])
                _pivot(list(T), T[:, j].tolist(), basis, i, j)
            else:
                keep[i] = False
    rows = np.flatnonzero(keep)
    basis2 = [basis[i] for i in rows]

    # phase 2 on the kept rows, under the reduced costs of c
    T2 = T if rows.size == m else T[[*rows, m]]
    obj = T2[-1]
    obj[:n] = c
    obj[-1] = 0.0
    for i, bi in enumerate(basis2):
        obj -= obj[bi] * T2[i]
    status, phase2 = _run(T2, basis2, n)
    counts.append(phase2)
    if status != OPTIMAL:
        return status, None, basis2, None
    x, y = _resolve(A, b, c, basis2, rows)
    return OPTIMAL, x, basis2, y


def _warm_tableau(Ab: np.ndarray, c: np.ndarray, basis: list[int]) -> np.ndarray | None:
    """The phase-2 tableau of a basis, or None if the basis cannot be trusted.

    ``Ab`` is [A | b].  The tableau is B^-1 [A | b] with reduced costs
    c - c_B B^-1 A.  It is None unless ``basis`` holds one distinct column
    per row of A, B is nonsingular and the basic solution B^-1 b is
    nonnegative up to roundoff.
    """
    m, n = Ab.shape[0], Ab.shape[1] - 1
    if len(basis) != m or len(set(basis)) != m:
        return None
    T = np.empty((m + 1, n + 1))
    BiAb, rc = T[:-1], T[-1, :n]
    try:
        # the m x m inverse times [A | b]: np.linalg.solve with thousands of
        # right-hand sides is over an order of magnitude slower
        np.matmul(np.linalg.inv(Ab.take(basis, axis=1)), Ab, out=BiAb)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(BiAb).all() or any(r < 0.0 for r in _scrub(T[:-1, -1])):
        return None
    BiAb[:, basis] = np.eye(m)
    cB = c.take(basis)
    np.matmul(cB, BiAb[:, :n], out=rc)
    np.subtract(c, rc, out=rc)
    rc[basis] = 0.0
    T[-1, -1] = -cB @ T[:-1, -1]
    return T


def _resolve(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The masses x and duals y of an optimal basis on ``rows`` of A.

    B is solved again, with one refinement step for clean residuals, rather
    than read off the tableau.
    """
    m, n = A.shape
    B = A.take(basis, axis=1)[rows]
    br = b[rows]
    xb = np.linalg.solve(B, br)
    xb += np.linalg.solve(B, br - B @ xb)
    cols, Bc = np.asarray(basis), B
    while np.any(xb < 0.0):
        # a degenerate basic variable can come out a hair below zero; drop it
        # and refit the rest, so the masses left still meet every row
        pos = xb > 0.0
        cols, Bc = cols[pos], Bc[:, pos]
        xb = np.linalg.lstsq(Bc, br, rcond=None)[0]
        xb += np.linalg.lstsq(Bc, br - Bc @ xb, rcond=None)[0]
    x = np.zeros(n)
    x[cols] = xb
    y = np.zeros(m)
    y[rows] = np.linalg.solve(B.T, c[basis])
    return x, y


class _Basis(tuple):
    """``OracleResult.basis``: the grid points of an optimal basis, one per row.

    It also keeps what a later round needs to reuse the law solved on it:
    ``key``, the sense and the bytes of the basis columns of [A | b] over
    [g | 0], and ``law``, the value, distribution and duals.
    """

    key: tuple[str, bytes] = ("", b"")
    law: tuple = ()


def oracle_solve(
    inst: GmpInstance, grid: GridSpec, *, start: tuple[float, ...] = ()
) -> OracleResult:
    """Solve the moment problem restricted to the grid's point masses.

    ``start`` is the ``basis`` of an earlier result whose grid points all lie
    on this grid.  Phase 2 then starts from that basis and phase 1 is
    skipped (``pivots[0] == 0``).  A start that is off the grid, short of
    one point per constraint, singular or infeasible here is ignored, and
    the LP is solved from the artificial basis as without one.  A start
    that no pivot leaves, on columns byte-equal to those of the result it
    came from, keeps that result's law.
    """
    m = len(inst.hs)
    if grid.n_points < m + 1:
        raise DomainError(f"grid needs at least {m + 1} points for {m} constraints")
    xs = grid.points()
    n = xs.size
    Ab = np.empty((m + 1, n + 1))  # [A | b] over [g | 0], the one array of the round
    with np.errstate(over="ignore"):  # an overflow is refused just below
        for f, row in zip((*inst.hs, inst.g), Ab):
            _evaluate(f, xs, row[:n])
    Ab[:, n] = 0.0  # the whole buffer is then one contiguous finiteness check
    if not np.isfinite(Ab).all():
        raise DomainError("moment functions are not finite on the grid")
    Ab[:m, n] = inst.ms
    A, g, b = Ab[:m, :n], Ab[m, :n], Ab[:m, n]

    c = -g if inst.sense == "max" else g
    basis = xs.searchsorted(start).tolist() if start else []
    if not all(j < n and xs[j] == p for j, p in zip(basis, start)):
        basis = []  # off the grid
    T = _warm_tableau(Ab[:m], c, basis)
    if T is None:
        counts = []
        status, x, basis, duals = _two_phase_simplex(A, b, c, counts)
        pivots = (counts[0], counts[1])
    else:
        status, phase2 = _run(T, basis, n)
        pivots = (0, phase2)
    if status != OPTIMAL:
        return OracleResult(
            value=math.nan, dist=None, status=status, grid=grid, duals=None, pivots=pivots
        )

    key = (inst.sense, Ab.take([*basis, n], axis=1).tobytes())
    if T is not None and phase2 == 0 and isinstance(start, _Basis) and start.key == key:
        # the same points in the same order, so B, b and c_B are the start's,
        # and re-solving them would repeat its law
        final = start
    else:
        if T is not None:
            x, duals = _resolve(A, b, c, basis, np.arange(m))
        support = np.flatnonzero(x > 0.0)
        dist = DiscreteDistribution(points=tuple(zip(xs[support].tolist(), x[support].tolist())))
        final = _Basis(xs[basis].tolist())
        final.key = key
        final.law = (float(g[support] @ x[support]), dist, tuple(duals.tolist()))
    value, dist, duals = final.law
    return OracleResult(
        value=value,
        dist=dist,
        status=OPTIMAL,
        grid=grid,
        duals=duals,
        pivots=pivots,
        basis=final,
    )


def refine_until(
    inst: GmpInstance, base_grid: GridSpec, target_tol: float, max_rounds: int
) -> RefineOutcome:
    """Re-solve on ever denser grids until successive values stabilize.

    Density roughly doubles each round.  The doubled grid keeps every point
    of the last one, so each round after the first starts phase 2 from the
    last round's optimal basis (``oracle_solve``'s ``start``); only the new
    points can price in, a round that makes no pivot keeps the last round's
    law, and a start that cannot be trusted falls back to the full two-phase
    solve.  Hitting max_rounds without meeting target_tol is reported
    through ``converged=False``, not an error.
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
