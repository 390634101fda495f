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

Phase one does not depend on the objective.  ``solve_lps`` solves one
constraint system for a batch of objectives: it builds the tableau and runs
phase one once, then advances one phase-two tableau per objective in
lockstep, each step choosing every entering column and leaving row with the
same rules (and the same floating-point operations) as ``solve_lp``.  Each
LP of the batch therefore ends exactly as ``solve_lp`` ends it, pivots
included.  ``solve_lp`` keeps a scalar phase two: lockstep bookkeeping costs
more than it saves on a batch of one.
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


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    hit = np.abs(f) > 0.0
    T[hit] -= f[hit, None] * T[row]
    basis[row] = col


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


def _run_simplex(T: np.ndarray, basis: np.ndarray, n_cols: int, start_iter: int):
    """Drive the tableau to optimality or detect an unbounded column.

    The objective row is the last row of ``T`` (stored as reduced costs for a
    maximisation: positive entries can still improve).  Returns
    ``(status, iterations, unbounded_col)``.
    """
    it = start_iter
    m = T.shape[0] - 1
    while True:
        if it >= MAX_ITER:
            raise LPError(f"simplex exceeded {MAX_ITER} iterations")
        # Bland's rule: smallest-index column with strictly positive reduced cost.
        improving = np.flatnonzero(T[m, :n_cols] > OPT_TOL)
        if not improving.size:
            return "optimal", it, -1
        col = int(improving[0])
        row = _leaving_row(T[:m, col], T[:m, -1], basis)
        if row < 0:
            return "unbounded", it, col
        _pivot(T, basis, row, col)
        it += 1


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


def _unconstrained(c: np.ndarray) -> LPOutcome:
    """The LP with no constraint rows: unbounded along the first largest
    improving coordinate, otherwise optimal at 0."""
    n = c.size
    if np.any(c > OPT_TOL):
        ray = np.zeros(n)
        ray[int(np.argmax(c))] = 1.0
        return LPOutcome(status="unbounded", point=np.zeros(n), ray=ray)
    return LPOutcome(status="optimal", value=0.0, point=np.zeros(n))


def _phase_one(n: int, A_ub, b_ub, A_eq, b_eq):
    """The set-up and phase one shared by every objective.

    Columns are structural | slacks | artificials | rhs, with rows flipped to
    a nonnegative rhs; an inequality row whose slack kept its +1 starts on
    it, every other row on an artificial.  Returns ``None`` when there is no
    constraint row, ``(None, None, iterations)`` when the system is
    infeasible, and otherwise ``(T, basis, iterations)``: the tableau
    without its artificial columns, with a zero objective row last.
    """
    A_ub, b_ub = _rows(A_ub, b_ub, n)
    A_eq, b_eq = _rows(A_eq, b_eq, n)
    m_ub = b_ub.size
    m = m_ub + b_eq.size
    if m == 0:
        return None
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
        # Phase one: maximise -(sum of artificials).
        T[m, ns:ns + n_art] = -1.0
        for i in need_artificial:
            T[m] += T[i]
        _, iterations, _ = _run_simplex(T, basis, ns + n_art, 0)
        # The stored rhs tracks the negated phase-one objective: a positive
        # residual means some artificial variable could not be driven to 0.
        if T[m, -1] > OPT_TOL:
            return None, None, iterations
        # Drive any artificial still basic out of the basis.
        for i in range(m):
            if basis[i] >= ns:
                pivots = np.flatnonzero(np.abs(T[i, :ns]) > PIVOT_TOL)
                if pivots.size:
                    _pivot(T, basis, i, int(pivots[0]))
        T = np.delete(T, np.s_[ns:ns + n_art], axis=1)
    T[m] = 0.0
    return T, basis, iterations


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
    """Maximise ``c.x`` over ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0``."""
    c = np.asarray(c, dtype=float)
    start = _phase_one(c.size, A_ub, b_ub, A_eq, b_eq)
    if start is None:
        return _unconstrained(c)
    T, basis, iterations = start
    if T is None:
        return LPOutcome(status="infeasible", iterations=iterations)
    # Price the objective row out against the basis, basic row by basic row.
    m = T.shape[0] - 1
    T[m, :c.size] = c
    for i in range(m):
        if basis[i] < T.shape[1] - 1 and abs(T[m, basis[i]]) > 0.0:
            T[m] -= T[m, basis[i]] * T[i]
    status, iterations, col = _run_simplex(T, basis, T.shape[1] - 1, iterations)
    [out] = _outcomes(T[None], basis[None], c[None], iterations,
                      np.array([status == "unbounded"]), np.array([col]))
    return out


def solve_lps(
    C: np.ndarray,
    A_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    A_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
) -> list[LPOutcome]:
    """``solve_lp`` for every row of a ``(B, n)`` objective matrix ``C`` over
    one constraint system; entry ``b`` equals ``solve_lp(C[b], ...)``,
    iterations and every bit of the point, value and ray included.

    Phase one runs once.  Phase two advances the unfinished tableaux
    together, one pivot each per step; a tableau leaves the batch when it
    is optimal or unbounded.  ``LPError`` is raised when any LP reaches
    ``MAX_ITER``.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"objectives must form a (B, n) array, got shape {C.shape}")
    B, n = C.shape
    if B == 0:
        return []
    start = _phase_one(n, A_ub, b_ub, A_eq, b_eq)
    if start is None:
        return [_unconstrained(c) for c in C]
    T0, basis0, iterations = start
    if T0 is None:
        return [LPOutcome(status="infeasible", iterations=iterations) for _ in range(B)]
    m = T0.shape[0] - 1
    ns = T0.shape[1] - 1
    T = _priced(T0, basis0, C)
    basis = np.repeat(basis0[None], B, axis=0)
    lp_of = np.arange(B)  # which objective each tableau of the batch solves
    out: list[LPOutcome | None] = [None] * B
    while lp_of.size:
        if iterations >= MAX_ITER:
            raise LPError(f"simplex exceeded {MAX_ITER} iterations")
        k = np.arange(lp_of.size)
        improving = T[:, m, :ns] > OPT_TOL
        col = np.argmax(improving, axis=1)
        row = _leaving_rows(T[k, :m, col], T[:, :m, -1], basis)
        more = improving[k, col]  # some reduced cost is still positive
        unbounded = more & (row < 0)
        done = np.flatnonzero(~more | unbounded)
        if done.size:
            finished = _outcomes(T[done], basis[done], C[lp_of[done]], iterations,
                                 unbounded[done], col[done])
            for j, res in zip(lp_of[done].tolist(), finished):
                out[j] = res
            go = np.flatnonzero(more & ~unbounded)
            T, basis, lp_of, row, col = T[go], basis[go], lp_of[go], row[go], col[go]
        _pivot_rows(T, basis, row, col)
        iterations += 1
    return out


def _priced(T0: np.ndarray, basis: np.ndarray, C: np.ndarray) -> np.ndarray:
    """One copy of the phase-two tableau ``T0`` per row of ``C``, its
    objective row priced out as ``solve_lp`` prices it."""
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


def _pivot_rows(T: np.ndarray, basis: np.ndarray, row: np.ndarray, col: np.ndarray) -> None:
    """``_pivot`` on every tableau of a batch, tableau ``b`` on
    ``(row[b], col[b])``."""
    k = np.arange(len(T))
    T[k, row] /= T[k, row, col][:, None]
    f = T[k, :, col]
    f[k, row] = 0.0
    hit = np.abs(f) > 0.0
    np.subtract(T, f[:, :, None] * T[k, row][:, None, :], out=T, where=hit[:, :, None])
    basis[k, row] = col
