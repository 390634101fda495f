"""Dense two-phase simplex solver for small linear programs.

Solves ``max c.x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq``,
``x >= 0`` on a dense tableau with Bland's anti-cycling rule.  Problem sizes
in this package are tiny (tens of variables and constraints), so no effort
is spent on sparsity or revised-simplex bookkeeping; the point is exact
control of tolerances and a certificate for every exit status:

* ``optimal``: primal point and objective value,
* ``unbounded``: a feasible point plus an improving ray (``A_ub d <= 0``,
  ``A_eq d = 0``, ``c.d > 0``),
* ``infeasible``: phase one terminated with positive artificial residual.

Every LP needs at least one constraint row (``ValueError`` otherwise).

There is one pivot loop, ``_simplex``: it advances a batch of tableaux in
lockstep, each step choosing every entering column and leaving row by
Bland's rule.  Phase one does not depend on the objective, so ``solve_lps``
runs it once, as a batch of one tableau, and then runs one phase-two
tableau per objective.  ``solve_lp`` is ``solve_lps`` with one objective:
on a batch of one, the lockstep bookkeeping makes an LP about three times
slower than a scalar loop, and no workload solves LPs one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Entries smaller than this are never used as pivots.
PIVOT_TOL = 1e-11

#: Reduced-cost threshold for declaring optimality.
OPT_TOL = 1e-9

#: Iteration cap across both phases.
MAX_ITER = 10_000

#: Ratios closer than this tie in the ratio test.
TIE_TOL = 1e-15


class LPError(RuntimeError):
    """Raised when the solver exceeds its iteration budget."""


@dataclass(frozen=True)
class LPOutcome:
    """Terminal state of one solve."""

    status: str  # "optimal" | "unbounded" | "infeasible"
    value: float | None = None
    point: np.ndarray | None = None
    ray: np.ndarray | None = None
    iterations: int = 0


def _rows(A, b, n: int):
    """One constraint block as a ``(k, n)`` matrix and its ``(k,)`` rhs."""
    if A is None:
        return np.zeros((0, n)), np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape != (b.size, n):
        raise ValueError(f"constraint block of shape {A.shape} with {b.size} rhs entries "
                         f"for {n} variables")
    return A, b


def _phase_one(n: int, A_ub, b_ub, A_eq, b_eq):
    """The set-up and phase one shared by every objective.

    Columns are structural | slacks | artificials | rhs, with rows flipped to
    a nonnegative rhs; an inequality row whose slack kept its +1 starts on
    it, every other row on an artificial.  Returns ``(None, None,
    iterations)`` when the system is infeasible, and otherwise ``(T, basis,
    iterations)``: the tableau without its artificial columns, with a zero
    objective row last.  ``ValueError`` when there is no constraint row.
    """
    A_ub, b_ub = _rows(A_ub, b_ub, n)
    A_eq, b_eq = _rows(A_eq, b_eq, n)
    m_ub = b_ub.size
    m = m_ub + b_eq.size
    if m == 0:
        raise ValueError("an LP needs at least one constraint row")
    ns = n + m_ub  # structural and slack columns
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0.0
    on_slack = np.zeros(m, dtype=bool)
    on_slack[:m_ub] = ~flip[:m_ub]
    need_artificial = np.flatnonzero(~on_slack)
    n_art = need_artificial.size

    T = np.zeros((m + 1, ns + n_art + 1))
    T[:m_ub, :n] = A_ub
    T[m_ub:m, :n] = A_eq
    T[np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    T[:m, -1] = b
    T[np.flatnonzero(flip)] *= -1.0
    basis = np.where(on_slack, n + np.arange(m), -1)
    basis[need_artificial] = ns + np.arange(n_art)
    T[need_artificial, basis[need_artificial]] = 1.0

    iterations = 0
    if n_art:
        # Phase one: maximise -(sum of artificials), as a batch of one.
        T[m, ns:ns + n_art] = -1.0
        for i in need_artificial:
            T[m] += T[i]
        [(_, T, basis, _, _, iterations)] = _simplex(T[None], basis[None], 0)
        # The stored rhs tracks the negated phase-one objective: a positive
        # residual means some artificial variable could not be driven to 0.
        if T[0, m, -1] > OPT_TOL:
            return None, None, iterations
        # Drive any artificial still basic out of the basis.
        for i in range(m):
            if basis[0, i] >= ns:
                pivots = np.flatnonzero(np.abs(T[0, i, :ns]) > PIVOT_TOL)
                if pivots.size:
                    _pivot_rows(T, basis, np.array([i]), pivots[:1])
        T, basis = np.delete(T[0], np.s_[ns:ns + n_art], axis=1), basis[0]
    T[m] = 0.0
    return T, basis, iterations


def _simplex(T: np.ndarray, basis: np.ndarray, iterations: int):
    """Bland's-rule simplex on every tableau ``T[b]`` of a batch, in lockstep.

    The objective row of each tableau is its last row (stored as reduced
    costs for a maximisation: positive entries can still improve), and
    every column but the rhs may enter.  Each step pivots every unfinished
    tableau once, on its smallest-index improving column and its
    ``_leaving_rows`` row.  A tableau finishes when no reduced cost is
    positive (optimal) or its entering column has no leaving row
    (unbounded).  Each step that finishes some tableaux yields ``(which,
    T, basis, unbounded, col, iterations)`` for them: their indices in the
    batch, copies of their tableaux and bases, whether each is unbounded,
    its entering column, and the iteration count.  ``LPError`` is raised
    when the count reaches ``MAX_ITER``.
    """
    m = T.shape[1] - 1
    n_cols = T.shape[2] - 1
    lp_of = np.arange(len(T))  # which tableau of the batch each row of T is
    while lp_of.size:
        if iterations >= MAX_ITER:
            raise LPError(f"simplex exceeded {MAX_ITER} iterations")
        k = np.arange(lp_of.size)
        improving = T[:, m, :n_cols] > OPT_TOL
        col = np.argmax(improving, axis=1)
        row = _leaving_rows(T[k, :m, col], T[:, :m, -1], basis)
        more = improving[k, col]  # some reduced cost is still positive
        unbounded = more & (row < 0)
        done = np.flatnonzero(~more | unbounded)
        if done.size:
            yield lp_of[done], T[done], basis[done], unbounded[done], col[done], iterations
            go = np.flatnonzero(more & ~unbounded)
            T, basis, lp_of, row, col = T[go], basis[go], lp_of[go], row[go], col[go]
        _pivot_rows(T, basis, row, col)
        iterations += 1


def _outcomes(T: np.ndarray, basis: np.ndarray, C: np.ndarray, iterations: int,
              unbounded: np.ndarray, col: np.ndarray) -> list[LPOutcome]:
    """Read each final phase-two tableau ``T[b]`` of a batch: its point, and
    for an unbounded LP the ray of its entering column ``col[b]``."""
    B, m = basis.shape
    n = C.shape[1]
    ns = T.shape[2] - 1
    b, r = np.nonzero(basis < ns)
    points = np.zeros((B, ns))
    points[b, basis[b, r]] = T[b, r, -1]
    rays = np.zeros((B, ns))
    rays[np.arange(B), col] = 1.0
    rays[b, basis[b, r]] = -T[b, r, col[b]]
    return [LPOutcome(status="unbounded", point=x[:n], ray=ray[:n], iterations=iterations)
            if unb else
            LPOutcome(status="optimal", value=float(c @ x[:n]), point=x[:n], iterations=iterations)
            for c, x, ray, unb in zip(C, points, rays, unbounded.tolist())]


def solve_lp(
    c: np.ndarray,
    A_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    A_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
) -> LPOutcome:
    """Maximise ``c.x`` over ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0``:
    ``solve_lps`` with the one objective ``c``."""
    [out] = solve_lps(np.asarray(c, dtype=float)[None], A_ub, b_ub, A_eq, b_eq)
    return out


def solve_lps(
    C: np.ndarray,
    A_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    A_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
) -> list[LPOutcome]:
    """Maximise ``C[b].x`` over one constraint system for every row of a
    ``(B, n)`` objective matrix ``C``; entry ``b`` is the outcome of LP ``b``.

    Phase one runs once.  Phase two advances one tableau per objective
    through ``_simplex``; each LP is read off when it finishes, so it
    pivots, and ends, exactly as it would in a batch of its own.
    ``LPError`` is raised when any LP reaches ``MAX_ITER``.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"objectives must form a (B, n) array, got shape {C.shape}")
    B, n = C.shape
    if B == 0:
        return []
    T0, basis0, iterations = _phase_one(n, A_ub, b_ub, A_eq, b_eq)
    if T0 is None:
        return [LPOutcome(status="infeasible", iterations=iterations) for _ in range(B)]
    out: list[LPOutcome | None] = [None] * B
    steps = _simplex(_priced(T0, basis0, C), np.repeat(basis0[None], B, axis=0), iterations)
    for which, T, basis, unbounded, col, it in steps:
        for j, res in zip(which.tolist(), _outcomes(T, basis, C[which], it, unbounded, col)):
            out[j] = res
    return out


def _priced(T0: np.ndarray, basis: np.ndarray, C: np.ndarray) -> np.ndarray:
    """One copy of the phase-two tableau ``T0`` per row of ``C``, its
    objective row priced out against the basis, basic row by basic row."""
    m = T0.shape[0] - 1
    T = np.repeat(T0[None], len(C), axis=0)
    T[:, m, :C.shape[1]] = C
    objective = T[:, m]
    for i in range(m):
        if basis[i] < T0.shape[1] - 1:
            f = objective[:, basis[i], None].copy()
            hit = np.abs(f) > 0.0
            if hit.any():
                np.subtract(objective, f * T0[i], out=objective, where=hit)
    return T


def _leaving_rows(columns: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``_leaving_row`` for every tableau of a batch: row ``b`` of
    ``columns``/``rhs`` is one tableau's entering column and rhs.

    When no ratio lies just above the smallest ratio q (in ``(q, q + 4 *
    TIE_TOL]``), the scalar scan settles on q and keeps, of the rows with
    ratio exactly q, the one whose basic column is smallest; that is read
    off directly.  Any other tableau is scanned by ``_leaving_row``.
    """
    ok = columns > PIVOT_TOL
    ratio = np.divide(rhs, columns, out=np.full(columns.shape, np.inf), where=ok)
    q = ratio.min(axis=1, keepdims=True)
    at_min = ok & (ratio == q)
    row = np.argmin(np.where(at_min, basis, np.iinfo(basis.dtype).max), axis=1)
    row[~ok.any(axis=1)] = -1
    for b in np.flatnonzero(np.any((ratio > q) & (ratio <= q + 4 * TIE_TOL), axis=1)).tolist():
        row[b] = _leaving_row(columns[b], rhs[b], basis[b])
    return row


def _leaving_row(column, rhs, basis) -> int:
    """Ratio test over one column: the smallest ratio, ties within ``TIE_TOL``
    going to the smaller basic index (Bland); -1 when no entry can pivot."""
    row = -1
    best = np.inf
    for r in np.flatnonzero(column > PIVOT_TOL).tolist():
        ratio = rhs[r] / column[r]
        if ratio < best - TIE_TOL:
            best = ratio
            row = r
        elif row >= 0 and abs(ratio - best) <= TIE_TOL and basis[row] > basis[r]:
            row = r
    return row


def _pivot_rows(T: np.ndarray, basis: np.ndarray, row: np.ndarray, col: np.ndarray) -> None:
    """Pivot every tableau of a batch, tableau ``b`` on ``(row[b],
    col[b])``: its pivot row is divided by the pivot, and every other row
    with a non-zero entry in the pivot column loses its multiple of it."""
    k = np.arange(len(T))
    T[k, row] /= T[k, row, col][:, None]
    f = T[k, :, col]
    f[k, row] = 0.0
    hit = np.abs(f) > 0.0
    np.subtract(T, f[:, :, None] * T[k, row][:, None, :], out=T, where=hit[:, :, None])
    basis[k, row] = col
