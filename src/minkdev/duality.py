"""Polytopes, polar sets, and dual representations of gauges.

All dual objects live under the probability-weighted pairing
``<x, y> = sum_i p_i x_i y_i``.  The polar of a set ``A`` is
``A* = { y : <x, y> <= 1 for all x in A }``; for a polytope given by
vertices ``v_j`` this is exactly the halfspace system ``<v_j, y> <= 1``,
which ``polar`` returns as a ``Polytope`` in halfspace form.  The support
function of the polar equals the gauge of closed convex sets containing the
origin, which gives an LP route to the gauge that is fully independent of
the bisection solver (the LP reads the polar's rows, bisection ``P``'s
facets) — the two are compared, never merged: ``dual_representation_check``
compares them on sampled positions, and ``bipolar_check`` compares the
bipolar with ``conv(P U {0})``.

A polytope answers membership and shift intervals from one facet system,
through one pairing (``market.dot``) and one slack rule: the halfspace form
from its rows, the vertex form from its hull facets.  For ``n <=
MAX_ENUM_DIM`` those come from ``enumerate_facets``, which works from the
vertices alone.  Above that dimension, or for more points than
``enumerate_facets`` takes (``FACET_POINTS_MAX``, ``FACET_SUBSETS_MAX``),
they come from qhull, the module's only use of scipy, imported on first
use; without scipy such a polytope warns and answers membership through an
LP, as does a flat hull.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import lp
from .gauge import GaugeOptions, gauge_table
from .market import Field, MarketSpace, as_position, as_positions, dot, sample_positions
from .sets import AcceptanceSet, SetFlags


class DualityError(ValueError):
    """Raised for malformed polytopes or unsupported dimensions."""


#: Largest dimension for which vertices are enumerated from halfspaces, and
#: facets from vertices, by trying constraint or point subsets
#: (combinatorial in the dimension).
MAX_ENUM_DIM = 4

#: Slack with which an enumerated corner must satisfy every halfspace.
VERTEX_TOL = 1e-9

# Tolerances of ``enumerate_facets``, relative to the largest distance of a
# vertex from the centroid.  A vertex set whose centroid lies within FLAT_TOL
# of a facet (or of every point subset's plane) is flat.  A hyperplane is a
# facet when no vertex lies beyond it by more than FACET_TOL, plus the
# rounding error of its normal; a point subset whose normal has a relative
# rounding error above NORMAL_ERR_MAX is skipped.  FACET_POINTS_MAX bounds
# the points taken (their pairings with the probe directions are held at
# once), FACET_SUBSETS_MAX the point subsets tried (about 0.1 s of work).
FLAT_TOL = 1e-7
FACET_TOL = 1e-10
NORMAL_ERR_MAX = 1e-6
FACET_POINTS_MAX = 4096
FACET_SUBSETS_MAX = 65536
_ROUNDING = 16.0 * np.finfo(float).eps  # see _normals

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

    @classmethod
    def from_json(cls, space: MarketSpace, doc) -> "Polytope":
        """A polytope from ``{"vertices": [[...], ...]}`` or ``{"rows": [[...],
        ...], "rhs": [...]}``, never both; an error names the polytope's path."""
        doc = Field.of(doc, "polytope")
        with doc.blame(DualityError):
            if "vertices" not in doc:
                return cls.from_halfspaces(space, doc["rows"].matrix(), doc["rhs"].numbers())
            doc.expect("rows" not in doc and "rhs" not in doc, '"vertices" or "rows" and "rhs", not both')
            return cls.from_vertices(space, doc["vertices"].matrix())

    # -- membership ---------------------------------------------------------

    def contains(self, x, tol: float = 1e-9):
        """Membership up to a slack of ``tol * max|x|`` on every facet.

        The slack has no absolute part: vertices at the origin put facets
        through 0, and any fixed slack would admit every far-shrunk point,
        turning infinite gauges into huge finite ones.  A ``(B, n)`` batch
        gives a ``(B,)`` bool array, each row with the bits it gets alone; a
        flat hull answers row by row through ``hull_membership_lp``, which
        may take a point ``1e-100 max|x|`` outside for a member.
        """
        x = np.asarray(x, dtype=float)
        if self._facets is None:
            return np.array(list(map(self._in_hull, x)), dtype=bool) if x.ndim > 1 else self._in_hull(x)
        inside = (self._excess(x, tol) <= 0.0).all(axis=-1)
        return inside if x.ndim > 1 else bool(inside)

    def _shift_interval(self, x):
        """The constants ``c`` with ``x - c`` in the polytope.

        Facet ``i`` of ``_facets`` holds at ``x - c`` iff ``c * s_i >=
        excess_i``, the excess of ``x`` over the facet less ``contains``'s
        slack at its default tolerance, taken at ``x``.  The excess is
        computed once and read through the cached partition
        (``_shift_partition``): ``lo`` is the largest ``excess_i / s_i`` over
        the facets with ``s_i > 0``, ``hi`` the smallest over those with
        ``s_i < 0``, and a facet with ``s_i = 0`` holds for every ``c`` or
        none, so one with positive excess sets ``lo`` to ``inf``.  Returns
        ``(lo, hi)``, one bound per position of ``x`` (``(n,)`` or ``(B,
        n)``); the interval is empty when ``lo > hi``.
        """
        up, down, s_up, s_down = self._shift_partition
        excess = self._excess(np.asarray(x, dtype=float))
        lo = (excess[..., :up] / s_up).max(axis=-1, initial=-math.inf)
        hi = (excess[..., down:] / s_down).min(axis=-1, initial=math.inf)
        if down > up:
            lo = np.where((excess[..., up:down] > 0.0).any(axis=-1), math.inf, lo)
        return lo, hi

    def _orbit_contains(self, x):
        """Whether every outcome permutation of ``x`` passes ``contains`` at
        its default tolerance, for one position or a ``(B, n)`` batch, each
        row with the bits it gets alone.

        By the rearrangement inequality the largest pairing of a facet
        normal ``W_i`` with a permutation of ``x`` is ``<sort(W_i),
        sort(x)>``, and the slack ``tol * max|x|`` is the same for every
        permutation, so one sorted pairing per facet decides the whole orbit
        (the sorted normals are cached, ``_sorted_normals``).  The pairing is
        summed in another order than the best permutation's own, so the
        answer can differ from asking each permutation only within
        rounding, at a facet.
        """
        x = np.asarray(x, dtype=float)
        inside = (self._excess(np.sort(x, axis=-1), normals=self._sorted_normals) <= 0.0).all(axis=-1)
        return inside if x.ndim > 1 else bool(inside)

    def _excess(self, x: np.ndarray, tol: float = 1e-9, normals=None) -> np.ndarray:
        """``<W_i, x> - r_i - tol * max|x|`` for every facet of ``_facets``,
        positive where ``x`` lies beyond the facet by more than the slack;
        ``normals``, when given, is paired with ``x`` in place of ``W``."""
        W, r, _ = self._facets
        slack = tol * np.abs(x).max(axis=-1, initial=0.0)
        return dot(x[..., None, :], W if normals is None else normals) - r - slack[..., None]

    @functools.cached_property
    def _facets(self):
        """The facets ``<W_i, y> <= r_i`` in plain coordinates and their sums
        ``s = W 1``, or None for a flat hull in vertex form.

        The halfspace form gives ``W = rows * probs``, ``r = rhs``; the vertex
        form its hull facets ``A y + b <= 0`` as ``W = A``, ``r = -b``, with an
        offset within ``1e-12 * max|v|`` of 0 taken as 0: a facet through a
        vertex at the origin then passes through it exactly, so no shrunken
        point beyond the facet is admitted.  The facets are stored in the
        order of the sign of ``s``, keeping their order within each sign:
        first those with ``s > 0``, then ``s = 0``, then ``s < 0``.
        """
        if self.rows is not None:
            W, r = self.rows * self.space.probs, self.rhs
        elif self._hull_facets is None:
            return None
        else:
            W, b = self._hull_facets
            r = np.where(np.abs(b) <= 1e-12 * np.abs(self.vertices).max(), 0.0, -b)
        s = dot(np.ones(self.space.n), W)
        order = np.argsort(-np.sign(s), kind="stable")
        return W[order], r[order], s[order]

    @functools.cached_property
    def _in_hull(self):
        """``hull_membership_lp`` of the vertices: one SVD per polytope."""
        return hull_membership_lp(self.vertices)

    @functools.cached_property
    def _sorted_normals(self):
        """The normals ``W`` of ``_facets``, each sorted ascending, for
        ``_orbit_contains``."""
        return np.sort(self._facets[0], axis=1)

    @functools.cached_property
    def _shift_partition(self):
        """``(up, down, s_up, s_down)``: the facets ``[:up]`` of ``_facets``
        have ``s > 0`` and bound a shift from below, ``[up:down]`` have ``s =
        0``, ``[down:]`` have ``s < 0`` and bound it from above; ``s_up`` and
        ``s_down`` are their sums."""
        s = self._facets[2]
        up, down = np.count_nonzero(s > 0.0), s.size - np.count_nonzero(s < 0.0)
        return up, down, s[:up], s[down:]

    @functools.cached_property
    def _hull_facets(self):
        """Facet form of conv(vertices): ``(A, b)`` with unit outward
        normals and membership ``A x + b <= 0``.

        For ``n <= MAX_ENUM_DIM`` from ``enumerate_facets``; above, or for
        more points than it takes, from qhull (scipy, imported here on first
        use).  None when the hull is flat, or when qhull is needed and scipy
        is missing (with a ``RuntimeWarning`` naming the ``hull`` extra);
        callers then fall back to the LP route.  Computed on first use.
        """
        if self.vertices is None:
            return None
        if self.space.n <= MAX_ENUM_DIM:
            try:
                return enumerate_facets(self.vertices)
            except DualityError:
                pass  # more points or subsets than enumerate_facets takes
        try:
            from scipy.spatial import ConvexHull
        except ImportError:
            warnings.warn(f"the facets of {len(self.vertices)} vertices on {self.space.n} outcomes need "
                          "scipy (pip install minkdev[hull]); membership falls back to one LP per query",
                          RuntimeWarning, stacklevel=3)
            return None
        try:
            hull = ConvexHull(self.vertices)
        except RuntimeError:  # QhullError: a flat set
            return None
        return hull.equations[:, :-1].copy(), hull.equations[:, -1].copy()

    # -- conversions --------------------------------------------------------

    def vertex_form(self) -> np.ndarray:
        """Vertices of the polytope; enumerated from halfspaces if needed."""
        if self.vertices is not None:
            return self.vertices
        return enumerate_vertices(self.space, self.rows, self.rhs)

    def as_acceptance_set(self) -> AcceptanceSet:
        """View the polytope as a (closed convex) acceptance set; in both
        forms one function answers a position or a batch.  A polytope with
        facets (any but a flat hull) also gives the set its
        ``shift_interval`` and its ``orbit_membership``."""
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
        faceted = self._facets is not None
        return AcceptanceSet(space=self.space, membership=member, flags=flags,
                             label="polytope", row_membership=member,
                             shift_interval=self._shift_interval if faceted else None,
                             orbit_membership=self._orbit_contains if faceted else None)


def hull_membership_lp(vertices: np.ndarray):
    """Convex-combination feasibility: the function that answers whether a
    point ``x`` is in conv(vertices).

    A point off the vertices' affine hull by more than ``1e-9 max|x|``, plus
    the spread of the vertices in the directions the hull is taken to be
    flat in, is outside.  The hull comes from one SVD of the centred
    vertices scaled by a power of two below 1; a point that needs a smaller
    power scales the centre and the spread by the exact power it adds.  A
    non-finite ``x`` is outside.  Any other point is decided by a pure
    phase-one LP over barycentric weights, with absolute tolerances, so huge
    coordinates hide small distances: against the vertices ``[[L, 0], [0,
    1], [-1, -1]]``, ``(L, -0.5)``, 0.5 outside (``0.5 / L`` relative to
    ``max|x|``, within ``Polytope.contains``'s slack), is answered inside
    for ``L >= 1e100`` (and at ``1e50``).
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    k, vmax = len(V), np.abs(V).max()
    e = -math.frexp(vmax)[1]
    U = np.ldexp(V, e)
    centre = U.sum(axis=0) / k
    _, s, W = np.linalg.svd(U - centre)
    flat = s <= FLAT_TOL * s[0]  # directions of the hull's rank cut
    W, spread = W[int(np.count_nonzero(~flat)):], math.sqrt(s[flat] @ s[flat])
    A_eq = np.vstack([V.T, np.ones((1, k))])

    def inside(x) -> bool:
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            return False
        d = -math.frexp(max(vmax, np.abs(x).max()))[1] - e
        y = np.ldexp(x, e + d)
        off = W @ (y - np.ldexp(centre, d))
        if math.sqrt(off @ off) > 1e-9 * np.abs(y).max() + math.ldexp(spread, d):
            return False
        return lp.solve_lp(np.zeros(k), A_eq=A_eq, b_eq=np.concatenate([x, [1.0]])).status == "optimal"
    return inside


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


def enumerate_facets(vertices) -> tuple[np.ndarray, np.ndarray] | None:
    """Facets of ``conv(vertices)`` (small dimensions only), the mirror of
    ``enumerate_vertices``.

    Returns ``(A, b)``: unit outward normals and offsets in plain
    coordinates, with membership ``A x + b <= 0`` (the form of qhull's
    ``equations``, one row per facet), or None when the vertices are flat:
    every plane through ``n`` of them has them all on both sides, or their
    centroid lies within ``FLAT_TOL`` (relative) of a facet.  Only the
    vertices are used:

    1. The points are scaled by a power of two, which is exact, to
       ``max|V|`` in ``[0.5, 1)``, so that no square or product of
       coordinates overflows, and centred.  The maximisers of fixed probe
       directions (the non-zero points of ``{-2, ..., 2}^n``) form the
       working set ``Q``; each lies on the hull's boundary.
    2. For each ``n``-subset of ``Q`` not tried before, the hyperplane
       through it (the generalised cross product of its edge vectors) is
       kept, outward, when every point of ``Q`` lies on one side of it
       within ``FACET_TOL`` plus the rounding error of its normal, which is
       bounded from the subset's own edges.
    3. The points strictly inside every kept plane lie in ``conv(Q)`` and
       are dropped.  If other points lie beyond a kept plane, the point
       furthest beyond each such plane (a vertex) joins ``Q``, the planes
       the newcomers cross are dropped, and step 2 runs on the subsets that
       contain a newcomer.  Otherwise the kept planes are the facets.

    A facet through more than ``n`` vertices is found once per subset;
    planes with the same vertices on them are kept once.  Each offset puts
    its facet through the outermost vertex.  The cost grows with the number
    of hull vertices as ``C(vertices, n)``: ``DualityError`` for more than
    ``FACET_POINTS_MAX`` points, when the search would try more than
    ``FACET_SUBSETS_MAX`` subsets, and above ``MAX_ENUM_DIM``.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    k, n = V.shape
    if n > MAX_ENUM_DIM:
        raise DualityError(f"facet enumeration supports n <= {MAX_ENUM_DIM}, got n = {n}")
    if k > FACET_POINTS_MAX:
        raise DualityError(f"facet enumeration takes at most {FACET_POINTS_MAX} points, got {k}")
    # every test below is relative, so the scaling changes no plane found
    # where nothing over- or underflows unscaled
    U = np.ldexp(V, -math.frexp(np.abs(V).max())[1])
    Y = U - U.sum(axis=0) / k
    scale = math.sqrt((Y * Y).sum(axis=1).max())
    if not scale > 0.0:
        return None
    h = Y @ _probe_directions(n)
    hit = (h == h.max(axis=0)).any(axis=1)
    Y = Y[np.argsort(~hit, kind="stable")]  # Q is Y[:q]
    q, lo, tried = int(hit.sum()), 0, 0
    while True:
        tried += math.comb(q, n) - math.comb(lo, n)
        if tried > FACET_SUBSETS_MAX:
            raise DualityError(f"facet enumeration would try more than {FACET_SUBSETS_MAX} point subsets")
        N2, off2, tol2, flat = _supporting_planes(Y[:q], lo, scale)
        if lo:  # the earlier planes that no newcomer crosses stay
            old = (Y[lo:q] @ N - off <= tol).all(axis=0)
            N = np.concatenate([N[:, old], N2], axis=1)
            off, tol = np.concatenate([off[old], off2]), np.concatenate([tol[old], tol2])
        else:
            N, off, tol = N2, off2, tol2
        if q == len(Y):
            if flat or not tol.size:
                return None
            break
        if flat or not tol.size:  # conv(Q) is flat: try every subset of every point
            lo, q = 0, len(Y)
            continue
        rest = Y[q:] @ N - off
        beyond = rest > tol
        if not beyond.any():
            break
        # the furthest point beyond each plane, each once and in order (a
        # bincount, since a 1-d np.unique imports numpy.ma)
        far = rest[:, beyond.any(axis=0)].argmax(axis=0)
        far = np.flatnonzero(np.bincount(far, minlength=len(rest)))
        inside = (rest < -tol).all(axis=1)
        inside[far] = True
        Y = np.concatenate([Y[:q], Y[q + far], Y[q:][~inside]])
        lo, q = q, q + far.size
    if off.min() <= FLAT_TOL * scale:  # the centroid (at 0) next to a facet
        return None
    # planes through one facet's vertices have normals equal up to rounding:
    # screen for such pairs, then keep one plane per set of vertices on it
    if np.count_nonzero(N.T @ N > 1.0 - 1e-9) > N.shape[1]:
        _, first = np.unique((Y @ N - off >= -tol).T, axis=0, return_index=True)
        N = N[:, np.sort(first)]
    return N.T, -(V @ N).max(axis=0)


def _supporting_planes(Y: np.ndarray, lo: int, scale: float):
    """The hyperplanes through the ``n``-subsets of the rows of ``Y`` whose
    last row is at least ``lo`` that have every row on one side.

    Returns unit outward normals ``N`` (``(n, F)``) and offsets ``off`` with
    ``y @ N <= off + tol`` for every row, the tolerances ``tol``, and
    whether some plane has every row on both sides (the rows are flat).

    A subset's normal is the cross product of ``n - 1`` edges that span the
    subset as a tree, the same for every such tree up to sign; each
    component, a minor of the edges ``D_r``, is computed with a rounding
    error below ``16 eps prod_r |D_r|_1`` (``_normals``).  The edges from
    the subset's first point are tried first.  Where that error is not small
    against ``FACET_TOL``, the tree with the least product is taken, so a
    subset with some points close together (a small facet, or a facet
    through a cluster) gets an error relative to its own size.  The pairing
    of a row with the normal then errs by at most ``4 scale`` times the
    bound (the rows lie within ``scale`` of 0, and ``n <= 4``).
    """
    q, n = Y.shape
    idx = _subsets(q, n, lo)
    M = idx.shape[1]
    P = Y.T.take(idx, axis=1)  # P[:, i, m]: point i of subset m
    N, err = _normals(P[:, 1:] - P[:, :1])
    norm = np.sqrt((N * N).sum(axis=0))
    redo = (err > FACET_TOL / 4.0 * norm).nonzero()[0]
    if redo.size:
        tail, head, trees = _spanning_trees(n)
        E = P.take(redo, axis=2)
        E = E[:, head] - E[:, tail]  # every edge of every subset redone
        best = np.abs(E).sum(axis=0)[trees].prod(axis=1).argmin(axis=0)
        N[:, redo], err[redo] = _normals(E[:, trees[best].T, np.arange(redo.size)])
        norm[redo] = np.sqrt((N[:, redo] ** 2).sum(axis=0))
    d = Y @ N
    off = d.ravel().take(idx[0] * M + np.arange(M))  # the pairing with the subset's first row
    d -= off
    tol = FACET_TOL * scale * norm + 4.0 * scale * err
    ahead, behind = d.max(axis=0), -d.min(axis=0)  # the furthest rows either side
    keep = ((np.minimum(ahead, behind) <= tol) & (err < NORMAL_ERR_MAX * norm)).nonzero()[0]
    ahead, behind, tol, norm = ahead[keep], behind[keep], tol[keep], norm[keep]
    f = np.where(ahead <= tol, 1.0, -1.0) / norm
    return N[:, keep] * f, off[keep] * f, tol / norm, bool((np.maximum(ahead, behind) <= tol).any())


@functools.lru_cache(maxsize=None)
def _spanning_trees(n: int):
    """The edges ``(tail, head)`` between ``n`` points, and the spanning
    trees of those points as rows of ``n - 1`` edge indices."""
    pairs = list(itertools.combinations(range(n), 2))
    trees = []
    for edges in itertools.combinations(range(len(pairs)), n - 1):
        reach = {0}  # n - 1 edges that reach every point from point 0 form a tree
        for _ in range(n):
            reach |= {b for e in edges for a, b in (pairs[e], pairs[e][::-1]) if a in reach}
        if len(reach) == n:
            trees.append(edges)
    tail, head = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return tail, head, np.array(trees, dtype=np.intp).reshape(len(trees), n - 1)


def _normals(D: np.ndarray):
    """The cross products of edges ``D`` (as ``_cross``) and a bound on the
    rounding error of each of their components."""
    return _cross(D), _ROUNDING * np.abs(D).sum(axis=0).prod(axis=0)


def _cross(D: np.ndarray) -> np.ndarray:
    """Generalised cross products: ``D[:, r, m]`` is edge ``r`` of subset
    ``m``; returns ``(n, M)`` normals, each orthogonal to its ``n - 1``
    edges, with norm the volume they span.  Component ``j`` is ``(-1)^j``
    times the minor without column ``j``, by Laplace expansion row by row."""
    n, _, M = D.shape
    if n == 1:
        return np.ones((1, M))
    levels, last, sign = _cross_plan(n)
    minors = D[:, 0]
    for r, (col, sub, sg) in enumerate(levels, start=1):
        minors = (D[col, r] * minors[sub] * sg).sum(axis=0)
    return minors[last] * sign


@functools.lru_cache(maxsize=None)
def _cross_plan(n: int):
    """For ``_cross``: per minor order ``r = 2 .. n-1`` (one array each), the
    column of row ``r`` and the sub-minor each term takes, with its sign;
    then the minor and sign of each component."""
    levels = []
    prev = {(a,): a for a in range(n)}
    for r in range(2, n):
        subs = list(itertools.combinations(range(n), r))
        col = np.array(subs, dtype=np.intp).T
        sub = np.array([[prev[S[:t] + S[t + 1:]] for S in subs] for t in range(r)], dtype=np.intp)
        sign = np.array([-1.0 if (r - 1 + t) % 2 else 1.0 for t in range(r)])[:, None, None]
        levels.append((col, sub, sign))
        prev = {S: i for i, S in enumerate(subs)}
    last = np.array([prev[tuple(c for c in range(n) if c != j)] for j in range(n)], dtype=np.intp)
    return levels, last, np.array([-1.0 if j % 2 else 1.0 for j in range(n)])[:, None]


@functools.lru_cache(maxsize=None)
def _probe_directions(n: int) -> np.ndarray:
    """The non-zero points of ``{-2, ..., 2}^n``, as columns."""
    steps = np.arange(-2.0, 3.0)
    return np.array([v for v in itertools.product(steps, repeat=n) if any(v)]).T


#: Per dimension ``n``, the ``n``-subsets of ``range(k)`` for the largest
#: ``k`` asked so far, as ``(n, C(k, n))`` member indices in colex order.
_SUBSETS: dict[int, np.ndarray] = {}


def _subsets(k: int, n: int, lo: int) -> np.ndarray:
    """The ``n``-subsets of ``range(k)`` whose largest member is at least
    ``lo``, as ``(n, M)`` member indices.  In colex order (by largest member
    first) they are the tail of the subsets of ``range(k)``, which are in
    turn the head of those of any larger range, so one table per ``n``
    serves every call; ``FACET_SUBSETS_MAX`` keeps it small."""
    table = _SUBSETS.get(n)
    if table is None or table.shape[1] < math.comb(k, n):
        rows = (c + (m,) for m in range(n - 1, k) for c in itertools.combinations(range(m), n - 1))
        table = np.fromiter(rows, dtype=(np.intp, n)).T.copy()
        table.setflags(write=False)
        _SUBSETS[n] = table
    return table[:, math.comb(lo, n):math.comb(k, n)]


# ---------------------------------------------------------------------------
# Polars and support functions
# ---------------------------------------------------------------------------

def polar(P: Polytope) -> Polytope:
    """Polar of a polytope, in halfspace form: ``<v_j, y> <= 1`` for each
    vertex ``v_j`` of ``P``.  A halfspace-form ``P`` must be bounded, which
    its support at the unit vectors and their negatives tells; an unbounded
    one raises ``DualityError``, as its vertices miss its recession cone."""
    V = P.vertex_form()
    if P.vertices is None:
        units = np.vstack([np.eye(P.space.n), -np.eye(P.space.n)])
        if any(math.isinf(h.value) for h in support_values(P, units)):
            raise DualityError("polar takes a bounded polytope, and these halfspaces are unbounded")
    return Polytope.from_halfspaces(P.space, V, np.ones(V.shape[0]))


@dataclass(frozen=True)
class SupportValue:
    """Value of a support function together with the LP certificate."""

    value: float  # may be +inf
    maximiser: np.ndarray | None
    outcome: lp.LPOutcome


def support_function(F: Polytope, x) -> SupportValue:
    """``h(x) = sup { <x, y> : y in F }`` via the simplex solver, for ``F`` in
    halfspace form (``DualityError`` otherwise), such as ``polar(P)``.

    Free variables are split into positive and negative parts.  An unbounded
    LP certifies ``h(x) = +inf`` (``F`` has a recession direction with
    positive pairing against ``x``).  ``x`` must be a finite position of
    ``F.space`` (``MarketError`` otherwise).
    """
    [h] = support_values(F, as_position(F.space, x)[None])
    return h


def support_values(F: Polytope, X) -> list[SupportValue]:
    """``support_function(F, x)`` for every row ``x`` of a ``(B, n)`` batch,
    as one lockstep solve (``lp.solve_lps``); entry ``i`` is what ``X[i]``
    gets in a batch of its own.  Every row must be a finite position of
    ``F.space`` (``MarketError`` otherwise)."""
    XP = as_positions(F.space, X) * F.space.probs
    outs = lp.solve_lps(np.hstack([XP, -XP]), A_ub=_polar_rows(F), b_ub=F.rhs)
    return [_support_value(F, out) for out in outs]


def _polar_rows(F: Polytope) -> np.ndarray:
    """The halfspaces of ``F`` on the split variables ``(y+, y-)``:
    ``<a_j, y> = (a_j * p) . y``."""
    if F.rows is None:
        raise DualityError("the support-function LP takes a polytope in halfspace form, such as polar(P)")
    W = F.rows * F.space.probs
    return np.hstack([W, -W])


def _support_value(F: Polytope, out: lp.LPOutcome) -> SupportValue:
    if out.status == "unbounded":
        return SupportValue(value=math.inf, maximiser=None, outcome=out)
    if out.status != "optimal":
        raise DualityError(f"support-function LP ended {out.status}")
    n = F.space.n
    y = out.point[:n] - out.point[n:]
    return SupportValue(value=float(out.value), maximiser=y, outcome=out)


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
    X = sample_positions(np.random.default_rng(seed), P.space, trials)
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
    X = sample_positions(np.random.default_rng(seed), P.space, trials)
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

