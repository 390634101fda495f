"""Polytopes, polar sets, and dual representations of gauges.

All dual objects live under the probability-weighted pairing
``<x, y> = sum_i p_i x_i y_i``.  The polar of a set ``A`` is
``A* = { y : <x, y> <= 1 for all x in A }``; for a polytope given by
vertices ``v_j`` this is exactly the halfspace system ``<v_j, y> <= 1``.
The support function of the polar equals the gauge of closed convex sets
containing the origin, which gives an LP route to the gauge that is fully
independent of the bisection solver — the two are compared, never merged:
``dual_representation_check`` compares them on sampled positions, and
``bipolar_check`` compares the bipolar with ``conv(P U {0})``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .gauge import GaugeOptions, gauge_table
from .market import SAMPLE_RANGE, MarketSpace, as_position, as_positions
from .sets import AcceptanceSet, SetFlags


class DualityError(ValueError):
    """Raised for malformed polytopes or unsupported dimensions."""


#: Largest dimension for which vertices are enumerated from halfspaces by
#: intersecting constraint subsets (combinatorial in the dimension).
MAX_ENUM_DIM = 4

#: Slack with which an enumerated corner must satisfy every halfspace.
VERTEX_TOL = 1e-9

# Tolerances of the dual-route checks: the largest gap between gauge and
# support function, and bipolar membership slack; CHECK_OPTS are their
# default gauge options.
DUAL_TOL = 1e-6
BIPOLAR_TOL = 1e-8
CHECK_OPTS = GaugeOptions(tol_rel=1e-9, tol_abs=1e-12)


@dataclass(frozen=True, eq=False)
class Polytope:
    """A polytope on a market space, in vertex and/or halfspace form.

    ``vertices`` is a ``(k, n)`` array of points; ``rows``/``rhs`` describe
    halfspaces ``<rows[i], y> <= rhs[i]`` in the probability-weighted
    pairing.  At least one form must be present, and every entry finite
    (``DualityError`` otherwise); conversions are computed on demand (vertex
    enumeration only for ``n <= 4``).
    """

    space: MarketSpace
    vertices: np.ndarray | None = None
    rows: np.ndarray | None = None
    rhs: np.ndarray | None = None

    def __post_init__(self):
        if self.vertices is None and self.rows is None:
            raise DualityError("polytope needs vertices or halfspaces")
        if self.vertices is not None:
            v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
            if v.shape[1] != self.space.n:
                raise DualityError(f"vertices have dimension {v.shape[1]}, space has {self.space.n}")
            object.__setattr__(self, "vertices", v)
        if self.rows is not None:
            r = np.atleast_2d(np.asarray(self.rows, dtype=float))
            b = np.atleast_1d(np.asarray(self.rhs, dtype=float))
            if r.shape[0] != b.size or r.shape[1] != self.space.n:
                raise DualityError("halfspace rows and rhs sizes disagree")
            object.__setattr__(self, "rows", r)
            object.__setattr__(self, "rhs", b)
        if not all(np.isfinite(d).all() for d in (self.vertices, self.rows, self.rhs) if d is not None):
            raise DualityError("polytope vertices, rows and rhs must be finite")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vertices(cls, space: MarketSpace, vertices) -> "Polytope":
        return cls(space=space, vertices=np.asarray(vertices, dtype=float))

    @classmethod
    def from_halfspaces(cls, space: MarketSpace, rows, rhs) -> "Polytope":
        return cls(space=space, rows=np.asarray(rows, dtype=float), rhs=np.asarray(rhs, dtype=float))

    # -- membership ---------------------------------------------------------

    def contains(self, x, tol: float = 1e-9):
        """Membership up to a tolerance scaled by the query's magnitude.

        The relative scaling matters for gauge queries: vertices at the
        origin put facets through 0, and a fixed absolute slack would admit
        every sufficiently shrunken point, silently turning infinite gauges
        into huge finite ones.  A ``(B, n)`` batch gives a ``(B,)`` bool
        array, each row with its own relative slack; a flat hull in vertex
        form answers it row by row through ``hull_membership_lp``.
        """
        x = np.asarray(x, dtype=float)
        slack = 1e-13 + tol * np.max(np.abs(x), axis=-1, initial=0.0)
        if self.rows is not None:
            lhs = x @ (self.rows * self.space.probs).T
            inside = np.all(lhs <= self.rhs + slack[..., None], axis=-1)
        elif self._hull_facets is not None:
            A, b = self._hull_facets
            inside = np.all(_facet_values(x, A) + b <= slack[..., None], axis=-1)
        elif x.ndim > 1:
            inside = np.array([hull_membership_lp(self.vertices, row) for row in x], dtype=bool)
        else:
            inside = hull_membership_lp(self.vertices, x)
        return inside if x.ndim > 1 else bool(inside)

    def _shift_interval(self, x):
        """The constants ``c`` with ``x - c`` in a halfspace-form polytope.

        Facet ``i`` holds at ``x - c`` iff ``c * s_i >= <row_i, x> - rhs_i -
        slack``, where ``s_i = <row_i, 1>`` and ``slack`` is ``contains``'s
        slack at its default tolerance, taken at ``x``.  Each facet bounds
        ``c`` from below (``s_i > 0``) or above (``s_i < 0``), or holds for
        every ``c`` or none (``s_i = 0``).  Returns ``(lo, hi)``, one bound
        per position of ``x`` (``(n,)`` or ``(B, n)``); the interval is empty
        when ``lo > hi``.  The pairings are summed as ``_facet_values`` sums
        them, so each row of a batch gets the bits it gets alone.
        """
        W, s = self._shift_rows
        x = np.asarray(x, dtype=float)
        slack = 1e-13 + 1e-9 * np.max(np.abs(x), axis=-1, initial=0.0)
        excess = _facet_values(x, W) - self.rhs - slack[..., None]
        bound = excess / np.where(s == 0.0, 1.0, s)
        lo = np.max(np.where(s > 0.0, bound, -math.inf), axis=-1)
        hi = np.min(np.where(s < 0.0, bound, math.inf), axis=-1)
        blocked = np.any((s == 0.0) & (excess > 0.0), axis=-1)
        return np.where(blocked, math.inf, lo), hi

    @functools.cached_property
    def _shift_rows(self):
        """Plain-coordinate facet normals ``W`` of the halfspace form and
        their sums ``s = W 1``, for ``_shift_interval``."""
        W = self.rows * self.space.probs
        return W, _facet_values(np.ones(self.space.n), W)

    @functools.cached_property
    def _hull_facets(self):
        """Facet form of conv(vertices) via the standard Euclidean hull.

        ``(A, b)`` with membership ``A x + b <= 0``, or None when the hull is
        degenerate (flat); callers then fall back to the LP route.  Computed
        on first use.
        """
        if self.vertices is None:
            return None
        try:
            from scipy.spatial import ConvexHull

            hull = ConvexHull(self.vertices)
        except Exception:
            return None
        return hull.equations[:, :-1].copy(), hull.equations[:, -1].copy()

    # -- conversions --------------------------------------------------------

    def vertex_form(self) -> np.ndarray:
        """Vertices of the polytope; enumerated from halfspaces if needed."""
        if self.vertices is not None:
            return self.vertices
        return enumerate_vertices(self.space, self.rows, self.rhs)

    def as_acceptance_set(self, label: str = "") -> AcceptanceSet:
        """View the polytope as a (closed convex) acceptance set; in both
        forms one function answers a position or a batch.  The halfspace
        form also gives the set its ``shift_interval``."""
        contains_zero = self.contains(np.zeros(self.space.n))
        flags = SetFlags(
            star_shaped=True if contains_zero else None,
            convex=True,
            closed=True,
            stable_scalar_add=None,
            radially_bounded_nonconst=None,
            law_invariant=None,
            contains_zero=contains_zero,
        )
        member = lambda x: self.contains(x)
        return AcceptanceSet(space=self.space, membership=member, flags=flags,
                             label=label or "polytope", row_membership=member,
                             shift_interval=self._shift_interval if self.rows is not None else None)


def _facet_values(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``x @ A.T`` for one position or a ``(B, n)`` batch, summed one
    coordinate at a time: each row of a batch gets the bits it gets alone,
    which BLAS matrix-vector and matrix-matrix products do not promise."""
    total = x[..., :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        total = total + x[..., j:j + 1] * A[:, j]
    return total


def hull_membership_lp(vertices: np.ndarray, x: np.ndarray) -> bool:
    """Convex-combination feasibility: is ``x`` in conv(vertices)?

    Solved as a pure phase-one LP over barycentric weights.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    k, n = V.shape
    A_eq = np.vstack([V.T, np.ones((1, k))])
    b_eq = np.concatenate([np.asarray(x, float), [1.0]])
    out = lp.solve_lp(np.zeros(k), A_eq=A_eq, b_eq=b_eq)
    return out.status == "optimal"


def enumerate_vertices(space: MarketSpace, rows, rhs) -> np.ndarray:
    """Vertices of ``{ y : <rows[i], y> <= rhs[i] }`` by intersecting all
    n-subsets of constraint hyperplanes (small dimensions only)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    n = space.n
    if n > MAX_ENUM_DIM:
        raise DualityError(f"vertex enumeration supports n <= {MAX_ENUM_DIM}, got n = {n}")
    W = rows * space.probs  # plain-coordinate normals of the weighted pairing
    found: list[np.ndarray] = []
    for combo in itertools.combinations(range(rows.shape[0]), n):
        M = W[list(combo)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        y = np.linalg.solve(M, rhs[list(combo)])
        if np.all(W @ y <= rhs + VERTEX_TOL):
            if not any(np.linalg.norm(y - z) <= 1e-8 * max(1.0, np.linalg.norm(y)) for z in found):
                found.append(y)
    if not found:
        raise DualityError("halfspace system has no vertices (empty or unbounded without corners)")
    return np.vstack(found)


# ---------------------------------------------------------------------------
# Polars and support functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarForm:
    """The polar of a polytope: halfspaces ``<v_j, y> <= 1`` (one per vertex),
    in the probability-weighted pairing."""

    space: MarketSpace
    rows: np.ndarray  # the primal vertices, acting as constraint normals
    rhs: np.ndarray


def polar(P: Polytope) -> PolarForm:
    """Polar of a polytope from its vertex form."""
    V = P.vertex_form()
    return PolarForm(space=P.space, rows=V, rhs=np.ones(V.shape[0]))


@dataclass(frozen=True)
class SupportValue:
    """Value of a support function together with the LP certificate."""

    value: float  # may be +inf
    maximiser: np.ndarray | None
    outcome: lp.LPOutcome


def support_function(F: PolarForm, x) -> SupportValue:
    """``h(x) = sup { <x, y> : y in polar }`` via the simplex solver.

    Free variables are split into positive and negative parts.  An unbounded
    LP certifies ``h(x) = +inf`` (the polar has a recession direction with
    positive pairing against ``x``).  ``x`` must be a finite position of
    ``F.space`` (``MarketError`` otherwise).
    """
    xp = as_position(F.space, x) * F.space.probs
    out = lp.solve_lp(np.concatenate([xp, -xp]), A_ub=_polar_rows(F), b_ub=F.rhs)
    return _support_value(F, out)


def support_values(F: PolarForm, X) -> list[SupportValue]:
    """``support_function(F, x)`` for every row ``x`` of a ``(B, n)`` batch,
    as one lockstep solve (``lp.solve_lps``); entry ``i`` equals
    ``support_function(F, X[i])``.  Every row must be a finite position of
    ``F.space`` (``MarketError`` otherwise)."""
    XP = as_positions(F.space, X) * F.space.probs
    outs = lp.solve_lps(np.hstack([XP, -XP]), A_ub=_polar_rows(F), b_ub=F.rhs)
    return [_support_value(F, out) for out in outs]


def _polar_rows(F: PolarForm) -> np.ndarray:
    """The polar's constraints on the split variables ``(y+, y-)``:
    ``<v_j, y> = (v_j * p) . y``."""
    W = F.rows * F.space.probs
    return np.hstack([W, -W])


def _support_value(F: PolarForm, out: lp.LPOutcome) -> SupportValue:
    if out.status == "unbounded":
        return SupportValue(value=math.inf, maximiser=None, outcome=out)
    if out.status != "optimal":
        raise DualityError(f"support-function LP ended {out.status}")
    n = F.space.n
    y = out.point[:n] - out.point[n:]
    return SupportValue(value=float(out.value), maximiser=y, outcome=out)


def polar_vertices(F: PolarForm) -> np.ndarray:
    """Extreme points of a bounded polar, by constraint-subset enumeration."""
    return enumerate_vertices(F.space, F.rows, F.rhs)


# ---------------------------------------------------------------------------
# Dual-route checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualCheckReport:
    trials: int
    max_gap: float
    infinite_agreements: int
    disagreements: int

    @property
    def passed(self) -> bool:
        return self.disagreements == 0


def dual_representation_check(
    P: Polytope,
    trials: int = 100,
    seed: int = 0,
    opts: GaugeOptions = CHECK_OPTS,
) -> DualCheckReport:
    """Compare the bisection gauge of ``P`` with the polar support function.

    For a closed convex polytope containing the origin the two agree exactly
    (including ``+inf`` on rays that never enter a scaled copy of ``P``).
    The report records the worst finite gap and any hard disagreement: an
    infinity on one side only, or a finite gap above ``DUAL_TOL``.
    """
    if not P.contains(np.zeros(P.space.n)):
        raise DualityError("dual representation requires 0 in the polytope")
    F = polar(P)
    X = _sample_positions(P.space, trials, seed)
    [gauges] = gauge_table([P.as_acceptance_set()], X, opts)
    max_gap = 0.0
    inf_agree = 0
    bad = 0
    for gauge, sup in zip(gauges, support_values(F, X)):
        g, h = gauge.value, sup.value
        if math.isinf(g) or math.isinf(h):
            if math.isinf(g) and math.isinf(h):
                inf_agree += 1
            else:
                bad += 1
            continue
        gap = abs(g - h)
        max_gap = max(max_gap, gap)
        if gap > DUAL_TOL:
            bad += 1
    return DualCheckReport(trials=trials, max_gap=max_gap, infinite_agreements=inf_agree, disagreements=bad)


def _sample_positions(space: MarketSpace, trials: int, seed: int) -> np.ndarray:
    """The ``(trials, n)`` positions of a sampled check, uniform on the
    sampling box; the same numbers as ``trials`` draws of one position."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=(trials, space.n))


def bipolar_check(P: Polytope, trials: int = 500, seed: int = 0) -> DualCheckReport:
    """Sampled agreement between the bipolar of ``P`` and ``conv(P U {0})``.

    Bipolar membership is decided through the polar support function
    (``h(x) <= 1``); hull membership through a convex-combination
    feasibility LP over the vertices plus the origin.  Samples landing
    within ``10 * BIPOLAR_TOL`` of the common boundary count as agreeing.
    """
    F = polar(P)
    V = np.vstack([P.vertex_form(), np.zeros((1, P.space.n))])
    hull = Polytope.from_vertices(P.space, V)
    X = _sample_positions(P.space, trials, seed)
    bad = 0
    max_gap = 0.0
    for sup, in_hull in zip(support_values(F, X), hull.contains(X, tol=BIPOLAR_TOL).tolist()):
        h = sup.value
        in_bipolar = h <= 1.0 + BIPOLAR_TOL
        if in_bipolar != in_hull:
            if abs(h - 1.0) <= 10 * BIPOLAR_TOL:
                continue  # boundary grazing within tolerance
            bad += 1
            max_gap = max(max_gap, abs(h - 1.0))
    return DualCheckReport(trials=trials, max_gap=max_gap, infinite_agreements=0, disagreements=bad)

