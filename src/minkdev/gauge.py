"""Minkowski gauges and cogauges of acceptance sets.

The gauge of a set ``A`` at a position ``x`` is
``inf { m > 0 : x / m in A }`` (infimum of the empty set is ``+inf``); the
cogauge is ``sup { m > 0 : x / m in A }`` (supremum of the empty set is 0).

For star-shaped sets the membership indicator along the ray ``m -> x / m``
switches at most once (non-member below the gauge, member above), so one
step rule finds the switch up to tolerance: keep the live bracket
``[lo, hi]`` from ``(0, inf)``, ask 1, then ``2 lo`` while ``hi`` is
infinite and ``(lo + hi) / 2`` otherwise, and move one end to each scale
asked.  The cogauge walks the same rule with the membership test mirrored.
Sets without the structure the walk needs seed its bracket by a geometric
scan of the whole scale range, and the result is flagged approximate.

Two solvers walk the rule.  ``minkowski_gauge`` and ``cogauge`` walk one
cell, asking ``membership``.  ``gauge_table`` gives the gauge of many sets
at many positions, each cell equal to ``minkowski_gauge``; once a table is
large enough, its cells of star-shaped sets walk in lockstep, each step
asking every set one batch of its open cells.
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


#: The float64 machine epsilon: the least relative tolerance bisection meets.
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GaugeOptions:
    """The bisection tolerance shared by the gauge and cogauge solvers: a
    bracket ``[lo, hi]`` is final once ``hi - lo <= max(tol_abs, tol_rel * hi)``.

    Both are finite, ``tol_abs >= 0`` and ``tol_rel`` at least the float64
    machine epsilon, below which bisection cannot narrow a bracket any
    further (``ValueError`` otherwise).  The scale range ``[M_MIN, M_CAP]``
    and the oracle budget ``MAX_ORACLE_CALLS`` are module constants, read
    when a solver runs.
    """

    tol_rel: float = 1e-10
    tol_abs: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.tol_rel) and math.isfinite(self.tol_abs)
                and self.tol_abs >= 0.0 and self.tol_rel >= EPS):
            raise ValueError(f"gauge tolerances must be finite, tol_abs >= 0 and tol_rel at least "
                             f"machine epsilon ({EPS!r}), got {self}")


DEFAULT_OPTIONS = GaugeOptions()

#: The scale range of the ray search: a bracket ``(0, M_MIN)`` means the
#: value is 0, and ``(M_CAP, inf)`` that it is ``inf``.  It contains 1,
#: the scale every search asks first.
M_MIN = 1e-12
M_CAP = 1e12

#: Membership-oracle calls one cell may make before ``OracleBudgetError``.
MAX_ORACLE_CALLS = 10_000

#: Scales per decade of the grid-scan fallback.
RAY_GRID = 64

# ``shift_infimum_gauge``'s search: the size of its uniform scan on a set
# not declared convex, and the bracket width its golden sections stop at.
SHIFT_SCAN_POINTS = 129
SHIFT_TOL = 1e-9


@dataclass(frozen=True)
class GaugeResult:
    """Certified gauge value with bracket and diagnostics.

    ``value`` may be ``0.0`` (membership persisted down to ``M_MIN``),
    ``math.inf`` (no member up to ``M_CAP``), or a finite positive number
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


def _budget_error(budget: int, bracket: tuple[float, float]) -> OracleBudgetError:
    return OracleBudgetError(f"oracle budget of {budget} calls exhausted", bracket=bracket)


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
    """The one solver behind the gauge and the cogauge: ``_lockstep``'s walk
    for a single cell.

    ``past(m) = member(x / m) != cogauge`` is false below the value and true
    above it (the gauge's members lie above the gauge, the cogauge's below
    the cogauge), and each answer moves one end of the live bracket
    ``[lo, hi]`` to ``m``, the upper end when ``past``.  The bracket starts
    at ``(0, inf)``, or where ``_grid_scan`` leaves it on sets without the
    structure bisection needs.  The walk asks 1 first, then ``2 lo`` while
    ``hi`` is infinite and ``(lo + hi) / 2`` otherwise.  It ends at the
    floor, ``(0, M_MIN)`` and value 0; at the cap, ``(M_CAP, inf)`` and value
    ``inf``; or settled, a finite bracket within tolerance whose upper end
    is the gauge and lower end the cogauge.  A call past
    ``MAX_ORACLE_CALLS`` raises ``OracleBudgetError`` with the live bracket.
    """
    x = as_position(A.space, x)
    member, flags = A.membership, A.flags
    if cogauge:
        approximate = flags.star_shaped is None and flags.convex is not True
    else:
        approximate = flags.star_shaped is not True
    lo, hi, calls = 0.0, math.inf, 0

    def past(m: float) -> bool:
        nonlocal lo, hi, calls
        if calls >= MAX_ORACLE_CALLS:
            raise _budget_error(MAX_ORACLE_CALLS, (lo, hi))
        calls += 1
        beyond = bool(member(x / m)) != cogauge
        if beyond:
            hi = m
        else:
            lo = m
        return beyond

    if not np.any(x):
        # every scale asks the same point, so the value is 0 or inf
        hit = past(1.0) != cogauge
        value = 0.0 if hit != cogauge else math.inf
        return GaugeResult(value=value, bracket=(value, value),
                           attained="yes" if hit else "no", oracle_calls=calls)
    if approximate:
        lo, hi = _grid_scan(past, cogauge)
    while True:
        m = 0.5 * (lo + hi) if hi < math.inf else (2.0 * lo or 1.0)  # 1 while lo is still 0
        if lo == 0.0 and m < M_MIN:
            return _result(A, x, lo, M_MIN, calls, cogauge, approximate)
        if hi == math.inf and m > M_CAP:
            return _result(A, x, M_CAP, hi, calls, cogauge, approximate)
        if lo > 0.0 and hi < math.inf and hi - lo <= max(opts.tol_abs, opts.tol_rel * hi):
            return _result(A, x, lo, hi, calls, cogauge, approximate)
        past(m)


def _result(A: AcceptanceSet, x: np.ndarray, lo: float, hi: float, calls: int,
            cogauge: bool = False, approximate: bool = False) -> GaugeResult:
    """The ``GaugeResult`` of a final bracket: ``(0, M_MIN)`` means 0,
    ``(M_CAP, inf)`` means inf, and otherwise the value is the bracket's
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


def _grid_scan(past, cogauge: bool):
    """Geometric-scan fallback for sets without the structure bisection needs.

    Scans ``RAY_GRID`` scales per decade across ``[M_MIN, M_CAP]`` for the
    first member: upward for the gauge, downward for the cogauge.  That
    member and the non-member scanned just before it bracket the switch,
    which is only grid-accurate, hence flagged approximate.
    """
    decades = math.log10(M_CAP) - math.log10(M_MIN)
    grid = np.geomspace(M_MIN, M_CAP, max(2, int(RAY_GRID * decades)))
    scales = grid[::-1] if cogauge else grid
    # a member is where past(m) != cogauge
    i = next((i for i, m in enumerate(scales) if past(float(m)) != cogauge), grid.size)
    below = grid.size - i if cogauge else i  # grid scales before the switch
    if below == 0:
        return 0.0, M_MIN
    if below == grid.size:
        return M_CAP, math.inf
    return float(grid[below - 1]), float(grid[below])


# ---------------------------------------------------------------------------
# Gauge table
# ---------------------------------------------------------------------------

#: Fewest star-shaped non-zero cells a table must have before
#: ``gauge_table`` solves them in lockstep.  Measured on the tables of the
#: first 700 ``catalogue_eval`` requests (2-core machine, one BLAS thread):
#: lockstep costs 1.5-2 ms for one set at 1-12 rows and cell by cell about
#: 0.4 ms per cell.  Lockstep wins from about 6 rows for one set, 4 for
#: two, 3 for three to six and 2 for more, and never at one row (12 sets:
#: 7.3 against 5.3 ms).  Summed over those tables, 12 cells was 1-2 %
#: faster than 8 cells at seeds 0 and 8191; the best rule on rows (at
#: least 3) was 2-4 % slower at seed 0 and level at seed 8191.
LOCKSTEP_MIN_CELLS = 12


def gauge_table(sets, X, opts: GaugeOptions = DEFAULT_OPTIONS) -> list[list[GaugeResult]]:
    """The gauge of every set at every row of ``X``: ``table[j][i]`` equals
    ``minkowski_gauge(sets[j], X[i], opts)`` field for field.

    When the table has at least ``LOCKSTEP_MIN_CELLS`` cells of sets that
    declare ``star_shaped`` at non-zero rows, those cells are solved
    together (``_lockstep``), each set asked one ``row_membership`` batch of
    its open cells per step; every other cell (smaller tables, zero rows,
    grid fallbacks) calls ``minkowski_gauge``, which asks ``membership``.
    ``X`` is a ``(B, n)`` array of finite positions (``MarketError``
    otherwise).  If cells exhaust the oracle budget, the
    ``OracleBudgetError`` of the first of them in position-major order is
    raised, as solving the cells one by one in that order would.
    """
    X = _as_rows(sets, X)
    batched = [A.flags.star_shaped is True for A in sets]
    if sum(batched) * np.count_nonzero(np.any(X, axis=1)) < LOCKSTEP_MIN_CELLS:
        batched = [False] * len(sets)
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


def _lockstep(sets, X: np.ndarray, opts: GaugeOptions) -> list[list]:
    """``_ray_search``'s walk for every non-zero row of every set at once.

    Cell ``c`` is row ``c % B`` of set ``c // B``, and its only state is the
    live bracket ``[lo, hi]``, from ``(0, inf)``: what an
    ``OracleBudgetError`` carries.  A cell asks 1 first, then ``2 lo`` while
    ``hi`` is infinite (doubling) and ``(lo + hi) / 2`` otherwise (halving
    while ``lo`` is 0, bisecting after); each answer moves one end.  Before
    a step a cell ends, on the scalar walk's tests in its order, at the
    floor (it would halve below ``M_MIN``), at the cap (it would double past
    ``M_CAP``), settled (a finite bracket within tolerance) or, at
    ``MAX_ORACLE_CALLS`` calls, out of budget.  Step ``t`` asks each set one
    batch of its open cells' rows, each divided by its cell's scale, so every
    open cell has made ``t`` calls.  Returns, per set, a ``GaugeResult`` or
    ``OracleBudgetError`` per row, and ``None`` for the zero rows, which ask
    the same point at every scale and are left to ``minkowski_gauge``.
    """
    B = len(X)
    out = [[None] * B for _ in sets]
    cell = np.flatnonzero(np.tile(np.any(X, axis=1), len(sets)))   # the open cells, set-major
    rows, starts = X[cell % B], np.arange(len(sets) + 1) * B
    cuts = np.searchsorted(cell, starts)
    l, h, m = np.zeros(cell.size), np.full(cell.size, math.inf), np.ones(cell.size)
    t = 0
    while cell.size:
        unbounded = h == math.inf
        floor = (l == 0.0) & (m < M_MIN)
        cap = unbounded & (m > M_CAP)
        settled = (l > 0.0) & ~unbounded & (h - l <= np.maximum(opts.tol_abs, opts.tol_rel * h))
        done = floor | cap | settled
        ended = done | (t >= MAX_ORACLE_CALLS)
        if ended.any():
            for c, d, a, b in zip(cell[ended].tolist(), done[ended].tolist(),
                                  np.where(cap, M_CAP, l)[ended].tolist(),
                                  np.where(floor, M_MIN, h)[ended].tolist()):
                j, i = divmod(c, B)
                out[j][i] = (_result(sets[j], X[i], a, b, t) if d
                             else _budget_error(MAX_ORACLE_CALLS, (a, b)))
            keep = ~ended
            cell, rows, l, h, m = cell[keep], rows[keep], l[keep], h[keep], m[keep]
            if not cell.size:
                break
            cuts = np.searchsorted(cell, starts)
        Z = rows / m[:, None]
        past = np.empty(cell.size, dtype=bool)
        for A, a, b in zip(sets, cuts[:-1], cuts[1:]):
            if a < b:
                past[a:b] = A.row_membership(Z[a:b])
        h = np.where(past, m, h)
        l = np.where(past, l, m)
        m = np.where(h == math.inf, 2.0 * l, 0.5 * (l + h))
        t += 1
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
