"""Minkowski gauges and cogauges of acceptance sets.

The gauge of a set ``A`` at a position ``x`` is
``inf { m > 0 : x / m in A }`` (infimum of the empty set is ``+inf``); the
cogauge is ``sup { m > 0 : x / m in A }`` (supremum of the empty set is 0).

For star-shaped sets the membership indicator along the ray ``m -> x / m``
switches at most once (non-member below the gauge, member above), so an
exponential bracket followed by bisection is exact up to tolerance.  The
cogauge is the same search with the membership test mirrored.  Sets without
the structure the search needs fall back to a geometric scan of the whole
scale range and the result is flagged approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deviations import AxiomFlags, DeviationFunctional, minimise_shift
from .market import MarketSpace, as_position, as_positions
from .sets import AcceptanceSet


class GaugeError(RuntimeError):
    """Raised when the solver cannot certify a value."""


class OracleBudgetError(GaugeError):
    """Raised when the membership-oracle budget is exhausted.

    Carries the best bracket known at the point of failure: ``(0, inf)``
    before any scale has been asked, then the bracket the ray search has
    narrowed it to.
    """

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class GaugeOptions:
    """Numerical controls shared by the gauge and cogauge solvers."""

    m_min: float = 1e-12
    m_cap: float = 1e12
    tol_rel: float = 1e-10
    tol_abs: float = 1e-12
    max_oracle_calls: int = 10_000


DEFAULT_OPTIONS = GaugeOptions()

#: Scales per decade of the grid-scan fallback.
RAY_GRID = 64

# ``shift_infimum_gauge``'s search: the size of its uniform scan on a set
# not declared convex, and the bracket width its golden sections stop at.
SHIFT_SCAN_POINTS = 129
SHIFT_TOL = 1e-9


@dataclass(frozen=True)
class GaugeResult:
    """Certified gauge value with bracket and diagnostics.

    ``value`` may be ``0.0`` (membership persisted down to ``m_min``),
    ``math.inf`` (no member up to ``m_cap``), or a finite positive number
    bracketed by ``bracket``.  ``attained`` is ``"yes"`` only when the set is
    declared closed; ``boundary_point`` is then ``x / value``.
    ``approximate`` marks grid-scan results on sets without a star-shape
    declaration.
    """

    value: float
    bracket: tuple[float, float]
    attained: str
    oracle_calls: int
    boundary_point: np.ndarray | None = None
    approximate: bool = False


class _Oracle:
    """Counts membership calls against a budget and keeps the live bracket
    ``[lo, hi]`` of the ray search; a call past the budget raises
    ``OracleBudgetError`` with that bracket."""

    def __init__(self, A: AcceptanceSet, opts: GaugeOptions):
        self._member = A.membership
        self._budget = opts.max_oracle_calls
        self.calls = 0
        self.bracket = [0.0, math.inf]

    def __call__(self, z: np.ndarray) -> bool:
        if self.calls >= self._budget:
            raise _budget_error(self._budget, tuple(self.bracket))
        self.calls += 1
        return bool(self._member(z))

    def ray(self, x: np.ndarray, cogauge: bool):
        """``past(m) = member(x / m) != cogauge`` as a function of the scale ``m``.

        ``past`` is false below the value and true above it: the gauge's
        members lie above the gauge, the cogauge's below the cogauge.  Each
        answer moves one end of the bracket to ``m``, the upper end when
        ``past``.  The searches only ask scales inside the current bracket,
        so it narrows as theirs does.
        """
        bracket = self.bracket

        def past(m: float) -> bool:
            beyond = self(x / m) != cogauge
            bracket[beyond] = m
            return beyond
        return past


def _budget_error(budget: int, bracket: tuple[float, float]) -> OracleBudgetError:
    return OracleBudgetError(f"oracle budget of {budget} calls exhausted", bracket=bracket)


def _tolerance(opts: GaugeOptions, scale: float) -> float:
    return max(opts.tol_abs, opts.tol_rel * scale)


def minkowski_gauge(A: AcceptanceSet, x, opts: GaugeOptions = DEFAULT_OPTIONS) -> GaugeResult:
    """Compute ``inf { m > 0 : x / m in A }``.

    ``x`` must be a finite position of ``A.space`` (``MarketError`` otherwise).
    """
    return _ray_search(A, x, opts, cogauge=False)


def cogauge(A: AcceptanceSet, x, opts: GaugeOptions = DEFAULT_OPTIONS) -> GaugeResult:
    """Compute ``sup { m > 0 : x / m in A }``.

    The search assumes membership along the scale ray is a single interval
    (true for star-shaped sets and their complements); the grid fallback
    handles undeclared structure approximately.
    ``x`` must be a finite position of ``A.space`` (``MarketError`` otherwise).
    """
    return _ray_search(A, x, opts, cogauge=True)


def _ray_search(A: AcceptanceSet, x, opts: GaugeOptions, cogauge: bool) -> GaugeResult:
    """The one solver behind the gauge and the cogauge.

    Both look for the switch of ``past`` (see ``_Oracle.ray``) along the ray:
    an exponential search or a grid scan brackets it, bisection narrows the
    bracket, and the value is its upper end for the gauge, its lower end for
    the cogauge.  A bracket ``(0, m_min)`` means the value is 0, and
    ``(m_cap, inf)`` that it is ``inf``.
    """
    x = as_position(A.space, x)
    oracle = _Oracle(A, opts)
    flags = A.flags
    if cogauge:
        approximate = flags.star_shaped is None and flags.convex is not True
    else:
        approximate = flags.star_shaped is not True
    if not np.any(x):
        # every scale asks the same point, so the value is 0 or inf
        hit = oracle(x)
        value = 0.0 if hit != cogauge else math.inf
        return GaugeResult(value=value, bracket=(value, value),
                           attained="yes" if hit else "no", oracle_calls=oracle.calls)
    past = oracle.ray(x, cogauge)
    lo, hi = _grid_scan(past, opts, cogauge) if approximate else _exponential_search(past, opts)
    if lo > 0.0 and hi < math.inf:
        lo, hi = _bisect(past, lo, hi, opts)
    return _result(A, x, lo, hi, oracle.calls, cogauge, approximate)


def _result(A: AcceptanceSet, x: np.ndarray, lo: float, hi: float, calls: int,
            cogauge: bool = False, approximate: bool = False) -> GaugeResult:
    """The ``GaugeResult`` of a final bracket: ``(0, m_min)`` means 0,
    ``(m_cap, inf)`` means inf, and otherwise the value is the bracket's
    upper end for the gauge, its lower end for the cogauge."""
    if lo == 0.0 or hi == math.inf:
        return GaugeResult(value=0.0 if lo == 0.0 else math.inf, bracket=(lo, hi),
                           attained="no", oracle_calls=calls, approximate=approximate)
    value = lo if cogauge else hi
    closed = A.flags.closed
    return GaugeResult(value=value, bracket=(lo, hi),
                       attained="yes" if closed is True else ("no" if closed is False else "unknown"),
                       oracle_calls=calls,
                       boundary_point=x / value if closed is True else None,
                       approximate=approximate)


def _exponential_search(past, opts: GaugeOptions):
    """Bracket the switch by halving the scale from 1 while ``past`` holds,
    or doubling it while it does not."""
    if past(1.0):
        lo, hi = 0.5, 1.0
        while lo >= opts.m_min:
            if not past(lo):
                return lo, hi
            lo, hi = lo / 2.0, lo
        return 0.0, opts.m_min
    lo, hi = 1.0, 2.0
    while hi <= opts.m_cap:
        if past(hi):
            return lo, hi
        lo, hi = hi, hi * 2.0
    return opts.m_cap, math.inf


def _grid_scan(past, opts: GaugeOptions, cogauge: bool):
    """Geometric-scan fallback for sets without the structure bisection needs.

    Scans ``RAY_GRID`` scales per decade across ``[m_min, m_cap]`` for the
    first member: upward for the gauge, downward for the cogauge.  That
    member and the non-member scanned just before it bracket the switch,
    which is only grid-accurate, hence flagged approximate.
    """
    decades = math.log10(opts.m_cap) - math.log10(opts.m_min)
    grid = np.geomspace(opts.m_min, opts.m_cap, max(2, int(RAY_GRID * decades)))
    scales = grid[::-1] if cogauge else grid
    # a member is where past(m) != cogauge
    i = next((i for i, m in enumerate(scales) if past(float(m)) != cogauge), grid.size)
    below = grid.size - i if cogauge else i  # grid scales before the switch
    if below == 0:
        return 0.0, opts.m_min
    if below == grid.size:
        return opts.m_cap, math.inf
    return float(grid[below - 1]), float(grid[below])


def _bisect(past, lo: float, hi: float, opts: GaugeOptions):
    """Shrink a bracket [lo, hi] with past(hi) and not past(lo)."""
    tol = _tolerance(opts, hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if past(mid):
            hi = mid
        else:
            lo = mid
        tol = _tolerance(opts, hi)
    return lo, hi


# ---------------------------------------------------------------------------
# Gauge table
# ---------------------------------------------------------------------------

def gauge_table(sets, X, opts: GaugeOptions = DEFAULT_OPTIONS) -> list[list[GaugeResult]]:
    """The gauge of every set at every row of ``X``: ``table[j][i]`` equals
    ``minkowski_gauge(sets[j], X[i], opts)`` field for field.

    The non-zero rows of sets that are row-wise and declare
    ``star_shaped`` are solved together (``_lockstep``); every other cell
    calls ``minkowski_gauge``.  ``X`` is a ``(B, n)`` array of finite
    positions (``MarketError`` otherwise).  If cells exhaust the oracle
    budget, the ``OracleBudgetError`` of the first of them in position-major
    order is raised, as solving the cells one by one in that order would.
    """
    X = _as_rows(sets, X)
    batched = [A.rowwise and A.flags.star_shaped is True for A in sets]
    solved = iter(_lockstep([A for A, b in zip(sets, batched) if b], X, opts))
    table = [next(solved) if b else [None] * len(X) for b in batched]
    for i, x in enumerate(X):
        for column, A in zip(table, sets):
            cell = column[i]
            if isinstance(cell, OracleBudgetError):
                raise cell
            if cell is None:
                column[i] = minkowski_gauge(A, x, opts)
    return table


def _as_rows(sets, X) -> np.ndarray:
    """``X`` as a ``(B, n)`` float array whose rows pass ``as_position``."""
    X = np.asarray(X, dtype=float)
    for A in sets:
        as_positions(A.space, X)
    return X


# What a lockstep cell asks next: ``lo`` while halving, ``hi`` while
# doubling, the midpoint while bisecting; nothing once done.
_HALVE, _DOUBLE, _BISECT, _DONE = range(4)


def _lockstep(sets, X: np.ndarray, opts: GaugeOptions) -> list[list]:
    """``_exponential_search`` then ``_bisect`` for every non-zero row of
    every set at once.

    Cell ``c`` is row ``c % B`` of set ``c // B``, with its own bracket
    ``[lo, hi]``, mode, call count and live bracket (what an
    ``OracleBudgetError`` carries).  Each step asks each set one batch: its
    unfinished rows, each divided by its cell's scale.  A cell starts
    halving at ``(lo, hi) = (1, 2)``, so it first asks m = 1: a hit there
    halves on, and a miss doubles on from ``(1, 2)``, as a miss while
    doubling does.  Returns, per set, a ``GaugeResult`` or
    ``OracleBudgetError`` per row, and ``None`` for the zero rows, which
    ask the same point at every scale and are left to ``minkowski_gauge``.
    """
    if not sets:
        return []
    B = len(X)
    nonzero = np.any(X, axis=1)
    row = np.tile(np.arange(B), len(sets))
    lo, hi = np.ones(row.size), np.full(row.size, 2.0)
    live = np.zeros((row.size, 2))
    live[:, 1] = math.inf
    calls = np.zeros(row.size, dtype=int)
    mode = np.where(nonzero[row], _HALVE, _DONE)
    exhausted = np.zeros(row.size, dtype=bool)
    starts = np.arange(len(sets) + 1) * B
    while True:
        act = np.flatnonzero(mode != _DONE)
        spent = calls[act] >= opts.max_oracle_calls
        if spent.any():
            exhausted[act[spent]] = True
            mode[act[spent]] = _DONE
            act = act[~spent]
        if not act.size:
            break
        md, l, h = mode[act], lo[act], hi[act]
        m = np.where(md == _HALVE, l, np.where(md == _DOUBLE, h, 0.5 * (l + h)))
        Z = X[row[act]] / m[:, None]
        past = np.empty(act.size, dtype=bool)
        cuts = np.searchsorted(act, starts)
        for A, a, b in zip(sets, cuts[:-1], cuts[1:]):
            if a < b:
                past[a:b] = A.row_membership(Z[a:b])
        calls[act] += 1
        live[act, past.astype(int)] = m
        h = np.where(past, m, h)
        l = np.where(past, l, m)
        shrink = past & (md == _HALVE)
        grow = ~past & ((md == _DOUBLE) | ((md == _HALVE) & (calls[act] == 1)))
        l[shrink] = m[shrink] / 2.0
        h[grow] = m[grow] * 2.0
        floor = shrink & (l < opts.m_min)
        cap = grow & (h > opts.m_cap)
        l[floor], h[floor] = 0.0, opts.m_min
        l[cap], h[cap] = opts.m_cap, math.inf
        md = np.where(shrink, _HALVE, np.where(grow, _DOUBLE, _BISECT))
        settled = (md == _BISECT) & (h - l <= np.maximum(opts.tol_abs, opts.tol_rel * h))
        md[floor | cap | settled] = _DONE
        mode[act], lo[act], hi[act] = md, l, h

    lo, hi, calls, live = lo.tolist(), hi.tolist(), calls.tolist(), live.tolist()
    exhausted, nonzero = exhausted.tolist(), nonzero.tolist()
    out = []
    for j, A in enumerate(sets):
        column = []
        for i, x in enumerate(X):
            c = j * B + i
            if exhausted[c]:
                column.append(_budget_error(opts.max_oracle_calls, tuple(live[c])))
            elif nonzero[i]:
                column.append(_result(A, x, lo[c], hi[c], calls[c]))
            else:
                column.append(None)
        out.append(column)
    return out


# ---------------------------------------------------------------------------
# Derived functionals
# ---------------------------------------------------------------------------

def deviation_from_set(A: AcceptanceSet, opts: GaugeOptions = DEFAULT_OPTIONS):
    """Wrap the gauge of ``A`` as a deviation-style functional.

    Axiom flags are propagated from the set flags via the standard
    correspondences: star-shaped + radially bounded at non-constants +
    stable under scalar addition yields a deviation measure; convexity of
    the set yields convexity (and with star-shapedness sub-linearity) of the
    gauge.
    """
    f = A.flags
    admissible = (
        f.star_shaped is True
        and f.radially_bounded_nonconst is True
        and f.stable_scalar_add is True
    )
    axioms = AxiomFlags(
        nonnegative=True if admissible else None,
        translation_insensitive=True if f.stable_scalar_add is True else None,
        positive_homogeneous=True,  # gauges are positively homogeneous by construction
        convex=True if f.convex is True else None,
        comonotone_additive=None,
        law_invariant=True if f.law_invariant is True else None,
        lower_range_dominated=None,
    )

    def evaluate(space: MarketSpace, x) -> float:
        return minkowski_gauge(A, x, opts).value

    return DeviationFunctional(
        label=f"gauge({A.label})" if A.label else "gauge",
        eval_fn=evaluate,
        axioms=axioms,
        homogeneity_degree=1.0,
    )


@dataclass(frozen=True)
class ShiftGaugeResult:
    """Result of minimising the gauge over scalar shifts of the position."""

    value: float
    shift: float
    gauge: GaugeResult


def shift_infimum_gauge(A: AcceptanceSet, x, opts: GaugeOptions = DEFAULT_OPTIONS) -> ShiftGaugeResult:
    """Compute ``inf_c gauge(A, x - c)``, the gauge of ``A + R`` evaluated
    through the shifted-position route.

    When ``A`` is declared convex, ``c -> gauge(A, x - c)`` is convex and a
    golden-section search is used; otherwise a uniform scan of
    ``SHIFT_SCAN_POINTS`` shifts with local golden refinement around the best
    cell.  Deterministic candidate shifts (entries, mean, median, midrange)
    are always probed as well, since they are exact minimisers for the
    quadratic and piecewise-linear families.
    ``x`` must be a finite position of ``A.space`` (``MarketError`` otherwise).
    """
    x = as_position(A.space, x)
    best_c, _ = minimise_shift(lambda c: minkowski_gauge(A, x - c, opts).value, A.space, x,
                               convex=A.flags.convex is True, tol=SHIFT_TOL,
                               grid_points=SHIFT_SCAN_POINTS)
    result = minkowski_gauge(A, x - best_c, opts)
    return ShiftGaugeResult(value=result.value, shift=best_c, gauge=result)
