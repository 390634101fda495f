"""Minkowski gauges and cogauges of acceptance sets.

The gauge of a set ``A`` at a position ``x`` is
``inf { m > 0 : x / m in A }`` (infimum of the empty set is ``+inf``); the
cogauge is ``sup { m > 0 : x / m in A }`` (supremum of the empty set is 0).

For star-shaped sets the membership indicator along the ray ``m -> x / m``
switches at most once (non-member below the gauge, member above), so an
exponential bracket followed by bisection is exact up to tolerance.  Sets
without a declared star-shape fall back to a geometric scan of the whole
scale range and the result is flagged approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .market import MarketSpace, as_position
from .sets import AcceptanceSet, SetFlags


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
    ray_grid: int = 64
    max_oracle_calls: int = 10_000


DEFAULT_OPTIONS = GaugeOptions()


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
    ``[lo, hi]`` of the ray search."""

    def __init__(self, A: AcceptanceSet, opts: GaugeOptions):
        self._member = A.membership
        self._budget = opts.max_oracle_calls
        self.calls = 0
        self.bracket = [0.0, math.inf]

    def __call__(self, z: np.ndarray) -> bool:
        if self.calls >= self._budget:
            raise _BudgetSignal()
        self.calls += 1
        return bool(self._member(z))

    def ray(self, x: np.ndarray, cogauge: bool = False):
        """Membership of ``x / m`` as a function of the scale ``m``.

        Each answer moves one end of the bracket to ``m``: for the gauge a
        member moves the upper end and a non-member the lower one; the
        cogauge mirrors this.  The searches only ask scales inside the
        current bracket, so it narrows as theirs does.
        """
        bracket = self.bracket

        def member(m: float) -> bool:
            hit = self(x / m)
            bracket[hit != cogauge] = m
            return hit
        return member

    def exhausted(self, opts: GaugeOptions) -> OracleBudgetError:
        return OracleBudgetError(f"oracle budget of {opts.max_oracle_calls} calls exhausted",
                                 bracket=tuple(self.bracket))


class _BudgetSignal(Exception):
    pass


def _tolerance(opts: GaugeOptions, scale: float) -> float:
    return max(opts.tol_abs, opts.tol_rel * scale)


def minkowski_gauge(A: AcceptanceSet, x, opts: GaugeOptions = DEFAULT_OPTIONS) -> GaugeResult:
    """Compute ``inf { m > 0 : x / m in A }``.

    ``x`` must be a finite position of ``A.space`` (``MarketError`` otherwise).
    """
    x = as_position(A.space, x)
    oracle = _Oracle(A, opts)
    try:
        return _gauge_impl(A, x, opts, oracle)
    except _BudgetSignal:
        raise oracle.exhausted(opts) from None


def _finish(A: AcceptanceSet, x: np.ndarray, value: float, bracket, oracle, approximate=False) -> GaugeResult:
    if value in (0.0, math.inf):
        return GaugeResult(value=value, bracket=bracket, attained="no",
                           oracle_calls=oracle.calls, approximate=approximate)
    closed = A.flags.closed
    attained = "yes" if closed is True else ("no" if closed is False else "unknown")
    boundary = x / value if closed is True else None
    return GaugeResult(value=value, bracket=bracket, attained=attained,
                       oracle_calls=oracle.calls, boundary_point=boundary,
                       approximate=approximate)


def _gauge_impl(A: AcceptanceSet, x: np.ndarray, opts: GaugeOptions, oracle: _Oracle) -> GaugeResult:
    if not np.any(x):
        hit = oracle(x)
        value = 0.0 if hit else math.inf
        return GaugeResult(value=value, bracket=(0.0, 0.0) if hit else (math.inf, math.inf),
                           attained="yes" if hit else "no", oracle_calls=oracle.calls)

    member = oracle.ray(x)

    if A.flags.star_shaped is not True:
        return _grid_gauge(A, x, opts, oracle)

    # Exponential search up from 1 for a member.
    hi = 1.0
    while not member(hi):
        hi *= 2.0
        if hi > opts.m_cap:
            return _finish(A, x, math.inf, (opts.m_cap, math.inf), oracle)
    # Exponential search down for a non-member.
    lo = hi / 2.0
    while lo >= opts.m_min:
        if not member(lo):
            break
        hi = lo
        lo /= 2.0
    else:
        return _finish(A, x, 0.0, (0.0, opts.m_min), oracle)

    lo, hi = _bisect(member, lo, hi, opts)
    return _finish(A, x, hi, (lo, hi), oracle)


def _bisect(member, lo: float, hi: float, opts: GaugeOptions):
    """Shrink a bracket [lo, hi] with member(hi) and not member(lo)."""
    tol = _tolerance(opts, hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
        tol = _tolerance(opts, hi)
    return lo, hi


def _grid_gauge(A: AcceptanceSet, x: np.ndarray, opts: GaugeOptions, oracle: _Oracle) -> GaugeResult:
    """Geometric-scan fallback for sets without a star-shape declaration.

    Scans ``ray_grid`` scales per decade across ``[m_min, m_cap]``, takes the
    smallest member, and sharpens it against the next-smaller grid point.
    The result is only grid-accurate, hence flagged approximate.
    """
    decades = math.log10(opts.m_cap) - math.log10(opts.m_min)
    count = max(2, int(opts.ray_grid * decades))
    grid = np.geomspace(opts.m_min, opts.m_cap, count)
    member = oracle.ray(x)
    hit_idx = None
    for i, m in enumerate(grid):
        if member(float(m)):
            hit_idx = i
            break
    if hit_idx is None:
        return _finish(A, x, math.inf, (opts.m_cap, math.inf), oracle, approximate=True)
    if hit_idx == 0:
        return _finish(A, x, 0.0, (0.0, float(grid[0])), oracle, approximate=True)
    lo, hi = _bisect(member, float(grid[hit_idx - 1]), float(grid[hit_idx]), opts)
    return _finish(A, x, hi, (lo, hi), oracle, approximate=True)


def cogauge(A: AcceptanceSet, x, opts: GaugeOptions = DEFAULT_OPTIONS) -> GaugeResult:
    """Compute ``sup { m > 0 : x / m in A }``.

    The mirror-image search assumes membership along the scale ray is a
    single interval (true for star-shaped sets and their complements); the
    grid fallback handles undeclared structure approximately.
    ``x`` must be a finite position of ``A.space`` (``MarketError`` otherwise).
    """
    x = as_position(A.space, x)
    oracle = _Oracle(A, opts)
    try:
        return _cogauge_impl(A, x, opts, oracle)
    except _BudgetSignal:
        raise oracle.exhausted(opts) from None


def _cogauge_impl(A: AcceptanceSet, x: np.ndarray, opts: GaugeOptions, oracle: _Oracle) -> GaugeResult:
    if not np.any(x):
        hit = oracle(x)
        value = math.inf if hit else 0.0
        return GaugeResult(value=value, bracket=(math.inf, math.inf) if hit else (0.0, 0.0),
                           attained="yes" if hit else "no", oracle_calls=oracle.calls)

    member = oracle.ray(x, cogauge=True)

    if A.flags.star_shaped is None and A.flags.convex is not True:
        return _grid_cogauge(A, x, opts, oracle)

    # Search up from 1 for the last member / first non-member.
    lo = 1.0
    if member(lo):
        hi = 2.0
        while member(hi):
            lo = hi
            hi *= 2.0
            if hi > opts.m_cap:
                return _finish(A, x, math.inf, (opts.m_cap, math.inf), oracle)
    else:
        hi = 1.0
        lo = 0.5
        while lo >= opts.m_min:
            if member(lo):
                break
            hi = lo
            lo /= 2.0
        else:
            return _finish(A, x, 0.0, (0.0, opts.m_min), oracle)

    # Now member(lo) and not member(hi); bisect toward the switch.
    tol = _tolerance(opts, hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
        tol = _tolerance(opts, hi)
    return _finish(A, x, lo, (lo, hi), oracle)


def _grid_cogauge(A: AcceptanceSet, x: np.ndarray, opts: GaugeOptions, oracle: _Oracle) -> GaugeResult:
    decades = math.log10(opts.m_cap) - math.log10(opts.m_min)
    count = max(2, int(opts.ray_grid * decades))
    grid = np.geomspace(opts.m_min, opts.m_cap, count)
    member = oracle.ray(x, cogauge=True)
    hit_idx = None
    for i in range(count - 1, -1, -1):
        if member(float(grid[i])):
            hit_idx = i
            break
    if hit_idx is None:
        return _finish(A, x, 0.0, (0.0, opts.m_min), oracle, approximate=True)
    if hit_idx == count - 1:
        return _finish(A, x, math.inf, (opts.m_cap, math.inf), oracle, approximate=True)
    lo, hi = float(grid[hit_idx]), float(grid[hit_idx + 1])
    tol = _tolerance(opts, hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
        tol = _tolerance(opts, hi)
    return _finish(A, x, lo, (lo, hi), oracle, approximate=True)


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
    from .deviations import AxiomFlags, DeviationFunctional  # late import: module DAG

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


def shift_infimum_gauge(
    A: AcceptanceSet,
    x,
    opts: GaugeOptions = DEFAULT_OPTIONS,
    grid_points: int = 129,
    shift_tol: float = 1e-9,
) -> ShiftGaugeResult:
    """Compute ``inf_c gauge(A, x - c)``, the gauge of ``A + R`` evaluated
    through the shifted-position route.

    When ``A`` is declared convex, ``c -> gauge(A, x - c)`` is convex and a
    golden-section search is used; otherwise a uniform grid scan with local
    golden refinement around the best cell.  Deterministic candidate shifts
    (entries, mean, median, midrange) are always probed as well, since they
    are exact minimisers for the quadratic and piecewise-linear families.
    ``x`` must be a finite position of ``A.space`` (``MarketError`` otherwise).
    """
    x = as_position(A.space, x)
    lo_x, hi_x = float(np.min(x)), float(np.max(x))
    pad = max(1.0, hi_x - lo_x)
    lo_c, hi_c = lo_x - pad, hi_x + pad

    cache: dict[float, float] = {}

    def f(c: float) -> float:
        if c not in cache:
            cache[c] = minkowski_gauge(A, x - c, opts).value
        return cache[c]

    candidates = {float(v) for v in x}
    candidates |= {float(A.space.probs @ x), float(np.median(x)), 0.5 * (lo_x + hi_x)}
    best_c = min(candidates, key=f)

    if A.flags.convex is True:
        c_star = _golden(f, lo_c, hi_c, shift_tol)
        if f(c_star) < f(best_c):
            best_c = c_star
    else:
        grid = np.linspace(lo_c, hi_c, grid_points)
        values = [f(float(c)) for c in grid]
        i = int(np.argmin(values))
        a = float(grid[max(0, i - 1)])
        b = float(grid[min(grid_points - 1, i + 1)])
        c_star = _golden(f, a, b, shift_tol)
        for cand in (c_star, float(grid[i])):
            if f(cand) < f(best_c):
                best_c = cand

    result = minkowski_gauge(A, x - best_c, opts)
    return ShiftGaugeResult(value=result.value, shift=best_c, gauge=result)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimiser of a unimodal function on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
