"""Minkowski gauges of acceptance sets.

The gauge of a set ``A`` at a position ``x`` is
``inf { m > 0 : x / m in A }`` (infimum of the empty set is ``+inf``).

For star-shaped sets the membership indicator along the ray ``m -> x / m``
switches at most once (non-member below the gauge, member above), so one
step rule finds the switch up to tolerance: keep the live bracket
``[lo, hi]`` from ``(0, inf)``, ask 1, then ``2 lo`` while ``hi`` is
infinite and ``(lo + hi) / 2`` otherwise, and move one end to each scale
asked.  Sets without a star-shape declaration seed the bracket by a
geometric scan of the whole scale range, and the result is flagged
approximate.

The walk needs no call budget: whatever the oracle answers, its path
holds at most 92 scales on a star-shaped set and 1,585 after the grid
scan.  It asks 1 first.  It then doubles (or halves) at most
``ceil(log2 M_CAP) - 1 = 39`` times, and ends once the next scale would
pass ``M_CAP`` (or fall below ``M_MIN``) with the bracket still open.  A
finite bracket it bisects until ``hi - lo <= max(tol_abs, tol_rel * hi)``,
which one float gap meets because ``tol_rel >= EPS``.  Each step splits
the ``g = (hi - lo) / ulp(lo)`` gaps of the bracket about in half, so it
bisects at most ``ceil(log2 g)`` times: 52 from the power-of-two ends
``[2^(k-1), 2^k]`` (``g = 2^52``), and 49 from a cell of the grid scan,
whose ratio ``10^(24/1535)`` gives ``g < 2^48.3``.  The grid scan itself
asks at most its 1,536 scales.

Two solvers walk the rule.  ``minkowski_gauge`` walks one cell.  On a
star-shaped set whose ``membership`` is its ``row_membership`` (a one-call
set) it asks, in one call, every scale its next ``WALK_DEPTH`` steps could
ask, and reads the answers along its own path: a round of at most 15
rows, and at most 24 rounds a solve, 10 doubling the scale and 13
bisecting, or 1 asking 1 and 23 halving and bisecting (``_ask_round``).
Any other set it asks one position per ``membership`` call.
``gauge_table`` gives the gauge of many sets at many positions, each cell
equal to ``minkowski_gauge``; once a table is large enough, its cells of
star-shaped sets walk in lockstep, each step asking every set one batch of
its open cells.  ``shift_infimum_gauge`` minimises the gauge over constant
shifts of the position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deviations import AxiomFlags, DeviationFunctional
from .market import MarketError, MarketSpace, as_position, as_positions, expectation
from .sets import FLAG_AXIOMS, AcceptanceSet


#: The float64 machine epsilon: the least relative tolerance bisection meets.
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GaugeOptions:
    """The bisection tolerance of the gauge solvers: a bracket ``[lo, hi]``
    is final once ``hi - lo <= max(tol_abs, tol_rel * hi)``.

    Both are finite, ``tol_abs >= 0`` and ``tol_rel`` at least the float64
    machine epsilon, below which bisection cannot narrow a bracket any
    further (``ValueError`` otherwise).  The scale range ``[M_MIN, M_CAP]``
    is a module constant, read when a solver runs.
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

#: Scales per decade of the grid-scan fallback.
RAY_GRID = 64

#: Steps of the walk that ``minkowski_gauge`` asks a one-call set in one
#: round.  Measured in-process on the first 120 ``composite_eval`` requests
#: at seed 0 (2-core machine, one BLAS thread, each request the least of 5
#: passes, two runs): depth 3 took 0.119-0.127 s, depth 4 0.106-0.115 s
#: and depth 5 0.108-0.124 s.
WALK_DEPTH = 4

# A round's scales, from the scale ``m`` its first step asks: the next
# WALK_DEPTH doublings while the bracket is open above, and otherwise the
# 2^WALK_DEPTH - 1 points at multiples of ``(hi - lo) / 2^WALK_DEPTH``,
# written as offsets from the midpoint ``m``.  Built from Python floats:
# numpy's integer loops, run here first, added about 0.3 MB to the
# resident set at import.
_DOUBLINGS = np.array([2.0 ** i for i in range(WALK_DEPTH)])
_SPLITS = np.array([(j - 2 ** (WALK_DEPTH - 1)) / 2 ** WALK_DEPTH for j in range(1, 2 ** WALK_DEPTH)])

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
    ``oracle_calls`` counts the scales on the walk's path, the answers it
    read, whether they came one per oracle call or several per round
    (``minkowski_gauge``); the bound of the module docstring applies to it.
    ``approximate`` marks grid-scan results on sets without a star-shape
    declaration.
    """

    value: float
    bracket: tuple[float, float]
    attained: str
    oracle_calls: int
    boundary_point: np.ndarray | None = None
    approximate: bool = False


def minkowski_gauge(A: AcceptanceSet, x, opts: GaugeOptions = DEFAULT_OPTIONS) -> GaugeResult:
    """Compute ``inf { m > 0 : x / m in A }``: ``_lockstep``'s walk for a
    single cell.

    ``past(m) = member(x / m)`` is false below the gauge and true above it,
    and each answer moves one end of the live bracket ``[lo, hi]`` to ``m``,
    the upper end when ``past``.  The bracket starts at ``(0, inf)``, or
    where ``_grid_scan`` leaves it on sets not declared star-shaped.  The
    walk asks 1 first, then ``2 lo`` while ``hi`` is infinite and
    ``(lo + hi) / 2`` otherwise.  It ends at the floor, ``(0, M_MIN)`` and
    value 0; at the cap, ``(M_CAP, inf)`` and value ``inf``; or settled, a
    finite bracket within tolerance whose upper end is the gauge, within
    the number of calls the module docstring bounds.  ``x`` must be a
    finite position of ``A.space`` (``MarketError`` otherwise).

    A star-shaped set whose ``membership`` is its ``row_membership`` is
    asked in rounds (``_ask_round``): the walk looks each scale up in the
    answers of the last round, and asks a new round from a scale it does
    not find.  It so asks the scales one at a time would, and reads the
    same answers wherever the oracle answers a row of a batch as it answers
    the row alone, so every field of the result is the same.  Any other set
    (a fan-out, whose batch would multiply its inner rows, or one not
    declared star-shaped, whose scanned bracket is not dyadic) is asked one
    position per call.
    """
    x = as_position(A.space, x)
    member = A.membership
    approximate = A.flags.star_shaped is not True
    nonzero = bool(np.any(x))
    rounds = nonzero and not approximate and A.row_membership is member
    lo, hi, calls = 0.0, math.inf, 0
    answers: dict[float, bool] = {}

    def past(m: float) -> bool:
        nonlocal lo, hi, calls, answers
        calls += 1
        if not rounds:
            hit = bool(member(x / m))
        elif (hit := answers.get(m)) is None:
            answers = _ask_round(member, x, m, lo, hi)
            hit = answers[m]
        if hit:
            hi = m
        else:
            lo = m
        return hit

    if not nonzero:
        # every scale asks the same point, so the value is 0 or inf
        hit = past(1.0)
        value = 0.0 if hit else math.inf
        return GaugeResult(value=value, bracket=(value, value),
                           attained="yes" if hit else "no", oracle_calls=calls)
    if approximate:
        lo, hi = _grid_scan(past)
    while True:
        m = 0.5 * (lo + hi) if hi < math.inf else (2.0 * lo or 1.0)  # 1 while lo is still 0
        if lo == 0.0 and m < M_MIN:
            return _result(A, x, lo, M_MIN, calls, approximate)
        if hi == math.inf and m > M_CAP:
            return _result(A, x, M_CAP, hi, calls, approximate)
        if lo > 0.0 and hi < math.inf and hi - lo <= max(opts.tol_abs, opts.tol_rel * hi):
            return _result(A, x, lo, hi, calls, approximate)
        past(m)


def _ask_round(member, x: np.ndarray, m: float, lo: float, hi: float) -> dict[float, bool]:
    """``member``'s answers, asked in one call, at every scale the
    star-shaped walk could ask in its ``d = WALK_DEPTH`` steps from the
    bracket ``[lo, hi]``, whose next scale is ``m``: a dict from scale to
    answer, of at most ``2^d - 1`` rows.

    While ``hi`` is infinite the steps double: ``m, 2m, 4m, 8m``, read up
    to the first member or the cap.  Once it is finite they bisect, and the
    round asks the ``2^d - 1`` points ``lo + (hi - lo) j / 2^d``, computed
    as ``m + (hi - lo) (j - 2^(d-1)) / 2^d``, which hold every midpoint the
    next ``d`` steps could compute, bit for bit.  Proof: the walk asks 1,
    then doubles or halves, so it bisects first ``[0, 2^k]`` (halving) or
    ``[2^(k-1), 2^k]``.  In the first case every point is ``2^k j / 2^d``
    (exact, as ``m = 2^(k-1)``).  In the second, after ``t`` steps the
    ends are multiples of ``2^(k-1-t)`` in ``[2^(k-1), 2^k]``, so ``hi -
    lo = 2^(k-1-t)`` is exact (the ends are within a factor 2) and so is
    its product with ``(j - 2^(d-1)) / 2^d``.  The midpoint of step ``t +
    s`` (``s < d``) is a multiple of ``2^(k-2-t-s)`` in ``[2^(k-1),
    2^k]``, so its sum is exact wherever it is a float: a multiple of
    ``2^(k-53)``, which it is while ``t + s <= 51``.  The walk computes it
    as ``0.5 * (lo' + hi')``, whose sum (a multiple of ``2^(k-1-t-s)`` in
    ``[2^k, 2^(k+1)]``) and halving are exact there too.  And since
    ``tol_rel >= EPS``, the walk has settled by step 52, as the module
    docstring shows.  A scale it does not find (none, by this proof) it
    asks in a new round from there.
    """
    scales = m * _DOUBLINGS if hi == math.inf else m + (hi - lo) * _SPLITS
    hits = np.asarray(member(x / scales[:, None]), dtype=bool)
    return dict(zip(scales.tolist(), hits.tolist()))


def _result(A: AcceptanceSet, x: np.ndarray, lo: float, hi: float, calls: int,
            approximate: bool = False) -> GaugeResult:
    """The ``GaugeResult`` of a final bracket: ``(0, M_MIN)`` means 0,
    ``(M_CAP, inf)`` means inf, and otherwise the value is its upper end."""
    if lo == 0.0 or hi == math.inf:
        return GaugeResult(value=0.0 if lo == 0.0 else math.inf, bracket=(lo, hi),
                           attained="no", oracle_calls=calls, approximate=approximate)
    closed = A.flags.closed
    return GaugeResult(value=hi, bracket=(lo, hi),
                       attained="yes" if closed is True else ("no" if closed is False else "unknown"),
                       oracle_calls=calls,
                       boundary_point=x / hi if closed is True else None,
                       approximate=approximate)


def _grid_scan(past):
    """Geometric-scan fallback for sets not declared star-shaped.

    Scans ``RAY_GRID`` scales per decade upward across ``[M_MIN, M_CAP]``
    for the first member.  That member and the non-member scanned just
    before it bracket the switch, which is only grid-accurate, hence
    flagged approximate.
    """
    decades = math.log10(M_CAP) - math.log10(M_MIN)
    grid = np.geomspace(M_MIN, M_CAP, max(2, int(RAY_GRID * decades)))
    below = next((i for i, m in enumerate(grid) if past(float(m))), grid.size)
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
#: first 700 ``catalogue_eval`` requests at seeds 0 and 8191 (2-core
#: machine, one BLAS thread, each table the least of 9 runs): lockstep
#: costs 1.0-1.2 ms for one set at 1-7 rows, and cell by cell, walking in
#: rounds, about 0.19 ms per one-row cell.  Lockstep wins from about 8 rows
#: for one set, 4-5 for two and 3 for five to twelve, and never at one or
#: two rows for up to twelve sets (12 sets at one row: 4.3-6.6 against
#: 2.1-2.9 ms).  Summed over those tables, in two runs per seed, 16 cells
#: was 1.5-1.6 % faster than 12 at seed 8191 but only 0.1-0.3 % at seed 0,
#: inside the noise of the measurement, so the seeds do not agree on a gain
#: and the threshold stays at 12; 14 was level with 16, and 20 and 24
#: slower.
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
    otherwise).
    """
    X = _as_rows(sets, X)
    batched = [A.flags.star_shaped is True for A in sets]
    if sum(batched) * np.count_nonzero(np.any(X, axis=1)) < LOCKSTEP_MIN_CELLS:
        batched = [False] * len(sets)
    solved = iter(_lockstep([A for A, b in zip(sets, batched) if b], X, opts) if any(batched) else ())
    table = [next(solved) if b else [None] * len(X) for b in batched]
    for i, x in enumerate(X):
        for column, A in zip(table, sets):
            if column[i] is None:
                column[i] = minkowski_gauge(A, x, opts)
    return table


def _as_rows(sets, X) -> np.ndarray:
    """``X`` as a ``(B, n)`` float array whose rows pass ``as_position``."""
    X = np.asarray(X, dtype=float)
    for A in sets:
        as_positions(A.space, X)
    return X


def _lockstep(sets, X: np.ndarray, opts: GaugeOptions) -> list[list]:
    """``minkowski_gauge``'s walk for every non-zero row of every set at once.

    Cell ``c`` is row ``c % B`` of set ``c // B``, and its only state is the
    live bracket ``[lo, hi]``, from ``(0, inf)``.  A cell asks 1 first, then
    ``2 lo`` while ``hi`` is infinite (doubling) and ``(lo + hi) / 2``
    otherwise (halving while ``lo`` is 0, bisecting after); each answer
    moves one end.  Before a step a cell ends, on the scalar walk's tests in
    its order, at the floor (it would halve below ``M_MIN``), at the cap (it
    would double past ``M_CAP``) or settled (a finite bracket within
    tolerance), so no cell outlives the scalar walk's bound on calls.  Step
    ``t`` asks each set one batch of its open cells' rows, each divided by
    its cell's scale, so every open cell has made ``t`` calls.  Returns, per
    set, a ``GaugeResult`` per row, and ``None`` for the zero rows, which
    ask the same point at every scale and are left to ``minkowski_gauge``.
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
        if done.any():
            for c, a, b in zip(cell[done].tolist(), np.where(cap, M_CAP, l)[done].tolist(),
                               np.where(floor, M_MIN, h)[done].tolist()):
                j, i = divmod(c, B)
                out[j][i] = _result(sets[j], X[i], a, b, t)
            keep = ~done
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

#: The set flags that, declared together, make the gauge a deviation
#: measure: nonnegative, and zero exactly on the constants.
ADMISSIBLE_FLAGS = ("star_shaped", "radially_bounded_nonconst", "stable_scalar_add")


def deviation_from_set(A: AcceptanceSet, opts: GaugeOptions = DEFAULT_OPTIONS):
    """Wrap the gauge of ``A`` as a deviation-style functional.

    Its axioms are the set-to-measure correspondence: the gauge is
    positively homogeneous by construction, nonnegative when ``A`` declares
    every one of ``ADMISSIBLE_FLAGS``, and has the axiom of each
    ``sets.FLAG_AXIOMS`` flag ``A`` declares; every other axiom is unknown.
    The functional answers through ``gauge_table``, one position as a batch
    of one, validated as ``minkowski_gauge`` validates it, and only on
    ``A``'s space: another space is refused with ``MarketError``.
    """
    declared = lambda flag: getattr(A.flags, flag) is True
    axioms = AxiomFlags(
        nonnegative=True if all(map(declared, ADMISSIBLE_FLAGS)) else None,
        positive_homogeneous=True,
        **{axiom: True for flag, axiom in FLAG_AXIOMS.items() if declared(flag)},
    )

    def evaluate(space: MarketSpace, x: np.ndarray):
        if not space.same_as(A.space):
            raise MarketError("the gauge of a set evaluates on the set's own space")
        [column] = gauge_table([A], x if x.ndim > 1 else as_position(A.space, x)[None], opts)
        return np.array([res.value for res in column]).reshape(x.shape[:-1])

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
    through the shifted-position route: candidate shifts, then a
    golden-section search if ``A`` is declared convex and a scan with golden
    refinement otherwise (``_minimise_shift``).
    ``x`` must be a finite position of ``A.space`` (``MarketError`` otherwise).
    """
    x = as_position(A.space, x)
    solved: dict[float, GaugeResult] = {}

    def value(c: float) -> float:
        if c not in solved:
            solved[c] = minkowski_gauge(A, x - c, opts)
        return solved[c].value

    best_c = _minimise_shift(value, A.space, x, convex=A.flags.convex is True)
    result = solved[best_c]
    return ShiftGaugeResult(value=result.value, shift=best_c, gauge=result)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(f, a: float, b: float) -> float:
    """Golden-section minimiser of a unimodal function on [a, b], to ``SHIFT_TOL``."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > SHIFT_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _minimise_shift(f, space: MarketSpace, x: np.ndarray, convex: bool) -> float:
    """A shift ``c`` minimising ``f``, a function of ``x - c``.

    Candidate shifts (entries, mean, median, midrange) are probed exactly —
    they contain the minimiser for the piecewise-linear and quadratic
    families — and the first one that attains the least value is kept
    unless the search finds a smaller one.  The search runs over the data
    range padded by ``max(1, range)``: golden-section for a convex ``f``,
    otherwise a uniform scan of ``SHIFT_SCAN_POINTS`` shifts with golden
    refinement around the best cell.  ``f`` is asked again at shifts it
    has seen, so it should cache its values.
    """
    lo_x, hi_x = float(np.min(x)), float(np.max(x))
    pad = max(1.0, hi_x - lo_x)
    lo_c, hi_c = lo_x - pad, hi_x + pad

    candidates = {float(v) for v in x}
    candidates |= {expectation(space, x), float(np.median(x)), 0.5 * (lo_x + hi_x)}
    best = min(candidates, key=f)

    if convex:
        found = [_golden(f, lo_c, hi_c)]
    else:
        grid = np.linspace(lo_c, hi_c, SHIFT_SCAN_POINTS)
        i = int(np.argmin([f(float(c)) for c in grid]))
        a = float(grid[max(0, i - 1)])
        b = float(grid[min(SHIFT_SCAN_POINTS - 1, i + 1)])
        found = [_golden(f, a, b), float(grid[i])]
    for c in found:
        if f(c) < f(best):
            best = c
    return best
