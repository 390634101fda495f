"""Polars, support functions, dual representations, and the quantile form
of the dual representation as a test oracle."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minkdev.duality import (
    CHECK_OPTS,
    FACET_POINTS_MAX,
    FLAT_TOL,
    MAX_ENUM_DIM,
    DualityError,
    Polytope,
    bipolar_check,
    dual_representation_check,
    enumerate_facets,
    enumerate_vertices,
    hull_membership_lp,
    polar,
    support_function,
    support_values,
)
from minkdev.gauge import GaugeOptions, minkowski_gauge
from minkdev.lp import solve_lp
from minkdev.market import SAMPLE_RANGE, MarketError, MarketSpace, dot, pairing
from minkdev.sets import scale_set

UNIFORM2 = MarketSpace(np.array([0.5, 0.5]))
BINARY = MarketSpace(np.array([0.25, 0.75]))

DIAMOND = Polytope.from_vertices(UNIFORM2, [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])


# --- membership and conversions ---------------------------------------------

def test_polytope_membership_both_forms():
    assert DIAMOND.contains([1.0, 0.9])
    assert not DIAMOND.contains([1.5, 0.6])
    # same diamond in halfspace form under the weighted pairing:
    # <(±1, ±1), x> = (±x0 ± x1)/2 <= 1
    rows = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    H = Polytope.from_halfspaces(UNIFORM2, rows, np.ones(4))
    for x in ([1.0, 0.9], [1.5, 0.6], [-1.9, 0.0], [0.0, 2.05]):
        assert H.contains(x) == DIAMOND.contains(x)


def test_batch_membership_equals_row_by_row_answers():
    rng = np.random.default_rng(5)
    space3 = MarketSpace(np.array([0.2, 0.3, 0.5]))
    polytopes = [
        DIAMOND,
        Polytope.from_vertices(space3, rng.uniform(-2, 2, size=(7, 3))),
        # flat hulls (a segment, a triangle in a plane) answer through the LP
        Polytope.from_vertices(UNIFORM2, [[1.0, 1.0], [-1.0, -1.0]]),
        Polytope.from_vertices(space3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]),
        Polytope.from_halfspaces(UNIFORM2, [[1, 1], [1, -1], [-1, 1], [-1, -1]], np.ones(4)),
    ]
    for P in polytopes:
        n = P.space.n
        X = np.vstack([rng.uniform(-2.5, 2.5, size=(40, n)), np.zeros((1, n)),
                       0.5 * P.vertex_form()[:1], 1e-14 * rng.uniform(-1, 1, size=(2, n))])
        X[:5, -1] = 0.0  # on the plane of the flat triangle
        for tol in (1e-9, 1e-8):
            got = P.contains(X, tol=tol)
            assert got.shape == (len(X),) and got.dtype == bool
            assert got.tolist() == [P.contains(x, tol=tol) for x in X]
        A = P.as_acceptance_set()
        assert A.row_membership is A.membership
        assert A.row_membership(X).tolist() == [A.membership(x) for x in X]


def weighted_space(n):
    return MarketSpace(np.arange(1.0, n + 1.0) / (n * (n + 1) / 2.0))


def hull_cases(n):
    """Named vertex sets on ``n`` outcomes, each full-dimensional."""
    rng = np.random.default_rng(n)
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    cross = np.vstack([np.eye(n), -np.eye(n)])
    random = rng.uniform(-3.0, 3.0, size=(n + 6, n))
    sphere = rng.normal(size=(40 if n < 4 else 30, n))
    # a cube with its corner (1, ..., 1) cut off: the cut facet's vertices
    # lie delta apart, far closer than the cube's
    corner = lambda delta: np.vstack([cube[:-1], 1.0 - delta * np.eye(n)])
    return {
        "random": np.vstack([random, 0.5 * np.eye(n), -0.5 * np.eye(n)]),
        "zero_vertex": np.vstack([rng.uniform(0.2, 3.0, size=(n + 4, n)), np.zeros((1, n))]),
        "duplicates": np.vstack([random, random[:3], random[:1]]),
        "cube": 1.5 * cube + 0.25,
        "cross": 2.0 * cross,
        "nearly_coplanar": cube * (1.0 + 1e-10 * rng.uniform(-1.0, 1.0, size=cube.shape)),
        # every point a vertex
        "sphere": sphere / np.linalg.norm(sphere, axis=1, keepdims=True),
        "corner": corner(1e-3),
        "tiny_corner": corner(1e-6),
    }


def slack(X):
    return 1e-13 + 1e-9 * np.max(np.abs(X), axis=-1)


@pytest.mark.parametrize("n", range(2, MAX_ENUM_DIM + 1))
def test_enumerate_facets_agrees_with_qhull(n):
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(10 + n)
    for name, V in hull_cases(n).items():
        P = Polytope.from_vertices(weighted_space(n), V)
        A, b = enumerate_facets(V)
        assert np.allclose(np.linalg.norm(A, axis=1), 1.0), name
        hull = ConvexHull(V)
        W, c = hull.equations[:, :-1], hull.equations[:, -1]
        # facet centroids of qhull's (triangulated) facets, on the boundary
        # and pushed 1e-6 and 1e-8 along their normal either way
        on = V[hull.simplices].mean(axis=1)
        size = np.max(np.abs(V))
        X = np.vstack([
            rng.uniform(-1.3 * size, 1.3 * size, size=(400, n)),
            on, *(on + push * size * W for push in (1e-6, -1e-6, 1e-8, -1e-8)),
            *(f * V for f in (0.5, 0.999, 1.0, 1.001, 2.0)),
        ])
        want = np.all(X @ W.T + c <= slack(X)[:, None], axis=1)
        assert P.contains(X).tolist() == want.tolist(), name
        assert np.all(V @ A.T + b <= slack(V)[:, None]), name
        if name in ("cube", "cross"):   # facets through more than n vertices, kept once
            assert len(A) == (2 * n if name == "cube" else 2 ** n), name


@pytest.mark.parametrize("n", range(2, MAX_ENUM_DIM + 1))
def test_enumerate_facets_commutes_with_scaling_by_powers_of_two(n):
    # the search scales the points to max|V| in [0.5, 1) first, so a hull
    # near the float limit, or far below 1, gets the planes of its copy at
    # unit size: the same normals and offsets scaled exactly.  Squares of
    # coordinates past about 1e154 used to overflow and leave NaN planes
    rng = np.random.default_rng(20 + n)
    for name, V in hull_cases(n).items():
        A, b = enumerate_facets(V)
        P = Polytope.from_vertices(weighted_space(n), V)
        size = np.abs(V).max()
        X = np.vstack([rng.uniform(-size, size, size=(100, n)), V, 1.001 * V])
        for e in (1020 - math.frexp(size)[1], 500, -600):  # pairings with X stay finite
            big = np.ldexp(V, e)
            got = enumerate_facets(big)
            assert got[0].tobytes() == A.tobytes() and got[1].tobytes() == np.ldexp(b, e).tobytes(), (name, e)
            Q = Polytope.from_vertices(P.space, big)
            assert Q.contains(np.ldexp(X, e)).tolist() == P.contains(X).tolist(), (name, e)


SPHERE60 = np.random.default_rng(6).normal(size=(60, 4))
SPHERE60 /= np.linalg.norm(SPHERE60, axis=1, keepdims=True)


@pytest.mark.parametrize("V", [
    [[1.0, 1.0], [-1.0, -1.0], [3.0, 3.0]],                                # a segment
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [2.0, 2.0, 0.0]],  # a plane in 3-space
    [[1.0, 2.0, 3.0, 6.0], [0.0, 1.0, 0.0, 1.0], [2.0, -1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 3.0],
     [-1.0, 0.0, 2.0, 1.0], [3.0, 3.0, -2.0, 4.0]],                       # x3 = x0 + x1 + x2
    [[0.5, 0.5, 0.5]] * 5,                                                 # one point
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],                   # too few points
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-12], [1.0, 1e-12]],                   # flat but for rounding
], ids=["segment", "plane", "hyperplane4", "point", "too_few", "sliver"])
def test_enumerate_facets_of_a_flat_set_is_none(V):
    assert enumerate_facets(V) is None
    V = np.asarray(V, dtype=float)
    P = Polytope.from_vertices(weighted_space(V.shape[1]), V)
    assert P._hull_facets is None
    assert P.contains(V).all()                 # the LP route answers instead


def test_a_flat_hull_refuses_points_off_its_plane():
    # the LP's absolute tolerances took (0.7, -0.4, 1e-3), 1e-3 above the
    # square, for a member of a shrunk copy: a gauge near 1e6 where it is inf
    P = Polytope.from_vertices(MarketSpace(np.array([0.2, 0.3, 0.5])),
                               [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    assert P._hull_facets is None
    x = np.array([0.7, -0.4, 1e-3])
    assert minkowski_gauge(P.as_acceptance_set(), x).value == math.inf
    assert not P.contains(1e-6 * x) and P.contains([0.5, -0.4, 0.0])
    assert not hull_membership_lp(P.vertices)([math.nan, 0.0, 0.0])
    report = dual_representation_check(P, trials=50)
    assert (report.disagreements, report.infinite_agreements) == (0, 50)


FLAT_SQUARE = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]


def per_query_hull_membership(V, x):
    """``hull_membership_lp`` as it was before a polytope kept the SVD of its
    vertices, kept verbatim: one SVD per query, of the vertices scaled with
    the point."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return False
    k, n = V.shape
    e = -math.frexp(max(np.abs(V).max(), np.abs(x).max()))[1]
    U, y = np.ldexp(V, e), np.ldexp(x, e)
    centre = U.sum(axis=0) / k
    _, s, W = np.linalg.svd(U - centre)
    flat = s <= FLAT_TOL * s[0]
    off = W[int(np.count_nonzero(~flat)):] @ (y - centre)
    if math.sqrt(off @ off) > 1e-9 * np.abs(y).max() + math.sqrt(s[flat] @ s[flat]):
        return False
    out = solve_lp(np.zeros(k), A_eq=np.vstack([V.T, np.ones((1, k))]), b_eq=np.concatenate([x, [1.0]]))
    return out.status == "optimal"


def test_a_flat_hull_takes_one_svd_for_a_batch(monkeypatch):
    P = Polytope.from_vertices(MarketSpace(np.array([0.2, 0.3, 0.5])), FLAT_SQUARE)
    assert P._hull_facets is None
    X = np.random.default_rng(10).uniform(-1.0, 1.0, size=(12, 3)) * [1.0, 1.0, 1e-10]
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    inside = P.contains(X)
    assert len(calls) == 1
    assert P.contains(X).tolist() == inside.tolist() and len(calls) == 1
    assert inside.tolist() == [per_query_hull_membership(P.vertices, x) for x in X]
    assert 0 < inside.sum() < len(X)


@pytest.mark.parametrize("V", [
    FLAT_SQUARE,
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-12], [1.0, 1e-12]],
    [[1e308, 0.0], [0.0, 1.0], [-1.0, -1.0]],
], ids=["square", "sliver", "float_limit"])
def test_a_hull_answers_as_with_one_svd_per_query(V):
    # points at many scales, near the vertices' plane and off it
    V = np.asarray(V, dtype=float)
    rng = np.random.default_rng(11)
    k, n = V.shape
    X = [V, V[:1] * 0.5 + V[1:2] * 0.5]
    for scale in (1e-12, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e12):
        X.append(scale * rng.uniform(-1.5, 1.5, size=(12, n)))
        X.append(rng.dirichlet(np.ones(k), size=8) @ V * rng.uniform(0.5, 1.5, size=(8, 1))
                 + scale * 1e-10 * rng.normal(size=(8, n)))
    X = np.vstack(X)
    P = Polytope.from_vertices(weighted_space(n), V)
    assert P._hull_facets is None
    # the LP's tableau overflows on a 1e308 vertex, in both versions alike
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [per_query_hull_membership(V, x) for x in X]
        assert list(map(hull_membership_lp(V), X)) == expected
        assert P.contains(X).tolist() == expected
    assert 0 < sum(expected) < len(X)


def test_enumerate_facets_caps_its_dimension_and_its_subsets():
    with pytest.raises(DualityError):
        enumerate_facets(np.eye(5))
    with pytest.raises(DualityError):
        enumerate_facets(np.zeros((FACET_POINTS_MAX + 1, 2)))
    # 60 points on the 3-sphere: every point a vertex, C(60, 4) subsets;
    # the polytope takes its facets from qhull instead
    V = SPHERE60
    with pytest.raises(DualityError):
        enumerate_facets(V)
    P = Polytope.from_vertices(weighted_space(4), V)
    assert P._hull_facets is not None
    X = np.vstack([np.random.default_rng(7).uniform(-1.1, 1.1, size=(300, 4)), V, 0.99 * V, 1.01 * V])
    assert P.contains(X).tolist() == list(map(hull_membership_lp(V), X))


@pytest.mark.parametrize("n, V", [
    (5, np.vstack([np.eye(5), -np.eye(5), np.full((1, 5), 0.3)])),          # above MAX_ENUM_DIM
    (4, SPHERE60),                                                            # past FACET_SUBSETS_MAX
], ids=["n5", "many_vertices"])
def test_vertex_form_without_scipy_warns_and_answers_through_the_lp(monkeypatch, n, V):
    monkeypatch.setitem(sys.modules, "scipy.spatial", None)  # makes the import fail
    P = Polytope.from_vertices(weighted_space(n), V)
    with pytest.warns(RuntimeWarning, match=r"minkdev\[hull\]"):
        assert P._hull_facets is None
    X = np.vstack([np.random.default_rng(9).uniform(-1.5, 1.5, size=(20, n)), 0.99 * V[:3], 1.01 * V[:3]])
    assert P.contains(X).tolist() == list(map(hull_membership_lp(V), X))


def test_vertex_form_answers_each_row_as_alone():
    # both forms of each hull: the vertex form, and its hull facets as a
    # halfspace system.  The facet centroids pushed out by the relative
    # slack, and 1e-13 beyond it, sit where rounding decides membership
    rng = np.random.default_rng(8)
    for n in range(2, MAX_ENUM_DIM + 1):
        for name, V in hull_cases(n).items():
            P = Polytope.from_vertices(weighted_space(n), V)
            A, b = P._hull_facets
            H = Polytope.from_halfspaces(P.space, A / P.space.probs, -b)
            on = np.abs(V @ A.T + b) <= 1e-9 * np.abs(V).max()
            C = (on.T @ V) / on.sum(axis=0)[:, None]
            X = np.vstack([rng.uniform(-3.0, 3.0, size=(30, n)), 1e-14 * rng.uniform(-1.0, 1.0, size=(2, n)),
                           np.zeros((1, n)), V, C,
                           *(C + (1e-9 * np.abs(C).max(axis=1, keepdims=True) + t) * A for t in (0.0, 1e-13))])
            for form, Q in (("vertices", P), ("halfspaces", H)):
                assert Q.contains(X).tolist() == [Q.contains(x) for x in X], (name, form)
                lo, hi = Q._shift_interval(X)
                alone = np.array([Q._shift_interval(x) for x in X])
                assert lo.tobytes() == alone[:, 0].tobytes() and hi.tobytes() == alone[:, 1].tobytes(), (name, form)


def masked_shift_interval(P, x):
    """The shift interval by the masked formula ``Polytope`` used before it
    cached its facet partition, kept verbatim, on the facets in the order
    the form gives them."""
    if P.rows is not None:
        W, r = P.rows * P.space.probs, P.rhs
    else:
        W, b = P._hull_facets
        r = np.where(np.abs(b) <= 1e-12 * np.abs(P.vertices).max(), 0.0, -b)
    s = dot(np.ones(P.space.n), W)
    x = np.asarray(x, dtype=float)
    excess = dot(x[..., None, :], W) - r - (1e-9 * np.abs(x).max(axis=-1, initial=0.0))[..., None]
    bound = excess / np.where(s == 0.0, 1.0, s)
    lo = np.max(np.where(s > 0.0, bound, -math.inf), axis=-1)
    hi = np.min(np.where(s < 0.0, bound, math.inf), axis=-1)
    blocked = np.any((s == 0.0) & (excess > 0.0), axis=-1)
    return np.where(blocked, math.inf, lo), hi


def partition_cases():
    """Polytopes in both forms whose facets have every mix of signs of
    ``s = W 1``, by name."""
    space3 = weighted_space(3)
    diamond_rows = [[1, 1], [1, -1], [-1, 1], [-1, -1]]      # two facets along e1 - e2: s = 0
    cases = {
        "vertices": Polytope.from_vertices(space3, hull_cases(3)["random"]),
        "zero_vertex": Polytope.from_vertices(space3, hull_cases(3)["zero_vertex"]),
        "vertex_diamond": DIAMOND,
        "halfspaces": Polytope.from_halfspaces(space3, np.random.default_rng(3).normal(size=(9, 3)), np.ones(9)),
        "flat_facets": Polytope.from_halfspaces(UNIFORM2, diamond_rows, np.ones(4)),
        "no_up": Polytope.from_halfspaces(UNIFORM2, [[-1, -1], [-3, 1], [1, -2]], [1.0, 2.0, 0.5]),
        "no_down": Polytope.from_halfspaces(UNIFORM2, [[1, 1], [3, -1], [-1, 2]], [1.0, 2.0, 0.5]),
        "flat_only": Polytope.from_halfspaces(UNIFORM2, [[1, -1], [-1, 1]], [0.5, 0.5]),
    }
    s = {name: P._facets[2] for name, P in cases.items()}
    assert (s["flat_facets"] == 0.0).sum() == 2 and (s["flat_only"] == 0.0).all()
    assert (s["no_up"] < 0.0).all() and (s["no_down"] > 0.0).all()
    return cases


@pytest.mark.parametrize("name", list(partition_cases()))
def test_shift_interval_has_the_bits_of_the_masked_formula(name):
    # lo and hi read from the cached partition equal, byte for byte, those
    # of the masked formula, for one position and a batch, alone and scaled
    P = partition_cases()[name]
    n = P.space.n
    X = np.vstack([np.random.default_rng(4).uniform(-3.0, 3.0, size=(40, n)), np.zeros((1, n)),
                   np.full((1, n), 1.5), np.full((1, n), -0.75)])
    A = P.as_acceptance_set()
    for lam in (1.0, 0.3):
        interval = A.shift_interval if lam == 1.0 else scale_set(A, lam).shift_interval
        for Z in (X, *X):
            want = [np.asarray(lam * v).tobytes() for v in masked_shift_interval(P, Z / lam)]
            assert [np.asarray(v).tobytes() for v in interval(Z)] == want, (lam, Z)


def test_vertex_form_work_never_imports_scipy():
    # a fresh process: dual and bipolar checks, minkdev eval and polar on a
    # vertex-form scenario with n <= MAX_ENUM_DIM, then scipy not imported
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(root / "tests" / "cold_start.py")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_enumerate_vertices_of_halfspace_diamond():
    rows = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    H = Polytope.from_halfspaces(UNIFORM2, rows, np.ones(4))
    V = H.vertex_form()
    got = {tuple(np.round(v, 9)) for v in V}
    assert got == {(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)}


def test_enumerate_vertices_dimension_cap():
    sp = MarketSpace(np.full(5, 0.2))
    with pytest.raises(DualityError):
        enumerate_vertices(sp, np.eye(5), np.ones(5))


# --- polar and support function ------------------------------------------------

def test_polar_of_diamond_is_box():
    F = polar(DIAMOND)
    V = F.vertex_form()
    got = {tuple(np.round(v, 8)) for v in V}
    assert got == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_polar_refuses_an_unbounded_halfspace_polytope():
    # y0 <= 2 and |y1| <= 2 leave y0 -> -inf open: the two corners alone
    # would give a polar containing (-1, 0), where the support of P is inf
    P = Polytope.from_halfspaces(UNIFORM2, [[1, 0], [0, 1], [0, -1]], [1, 1, 1])
    with pytest.raises(DualityError, match="bounded"):
        polar(P)
    box = Polytope.from_halfspaces(UNIFORM2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    F = polar(box)
    assert {tuple(np.round(r, 8)) for r in F.rows} == {(2.0, 2.0), (2.0, -2.0), (-2.0, 2.0), (-2.0, -2.0)}
    assert bipolar_check(box, trials=200).disagreements == 0


def test_support_function_closed_form():
    # h_polar(x) = max over the box [-1,1]^2 of (x0 y0 + x1 y1)/2
    #            = (|x0| + |x1|)/2, the gauge of the diamond.
    F = polar(DIAMOND)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-4, 4, size=2)
        want = (abs(x[0]) + abs(x[1])) / 2.0
        sup = support_function(F, x)
        assert sup.value == pytest.approx(want, abs=1e-10)
        assert pairing(UNIFORM2, x, sup.maximiser) == pytest.approx(want, abs=1e-10)


def test_support_function_unbounded_direction():
    # polar of a segment through 0 is an unbounded slab
    seg = Polytope.from_vertices(UNIFORM2, [[1.0, 1.0], [-1.0, -1.0]])
    sup = support_function(polar(seg), np.array([1.0, -1.0]))
    assert sup.value == math.inf


def test_support_values_equal_support_function_row_by_row():
    rng = np.random.default_rng(6)
    seg = Polytope.from_vertices(UNIFORM2, [[1.0, 1.0], [-1.0, -1.0]])
    X = np.vstack([rng.uniform(-4, 4, size=(30, 2)), [[0.0, 0.0], [1.0, 1.0], [1.0, -1.0]]])
    for F in (polar(DIAMOND), polar(seg)):
        batch = support_values(F, X)
        assert len(batch) == len(X)
        for x, got in zip(X, batch):
            want = support_function(F, x)
            assert got.value == want.value
            assert (got.maximiser is None) == (want.maximiser is None)
            if got.maximiser is not None:
                assert got.maximiser.tobytes() == want.maximiser.tobytes()
            assert got.outcome.iterations == want.outcome.iterations
    assert support_values(polar(seg), X)[-1].value == math.inf
    assert support_values(polar(DIAMOND), np.empty((0, 2))) == []


def test_support_lp_reads_the_polar_rows_alone():
    # the LP route never builds hull facets, so it stays independent of
    # bisection; a polytope in vertex form is not a halfspace system
    X = np.random.default_rng(7).uniform(-4, 4, size=(10, 2))
    P = Polytope.from_vertices(UNIFORM2, DIAMOND.vertices)
    F = polar(P)
    support_values(F, X)
    support_function(F, X[0])
    assert "_hull_facets" not in vars(F) and "_facets" not in vars(F)
    for call in (lambda: support_function(P, X[0]), lambda: support_values(P, X)):
        with pytest.raises(DualityError):
            call()
    assert "_hull_facets" not in vars(P)


def test_cone_gauge_is_infinite_where_the_polar_lp_is_unbounded():
    # 0 is a vertex: positions just outside the edge from 0 to (1, 0.5) meet
    # no scaled copy of the polytope, however far shrunk, in either form
    V = [[0.0, 0.0], [1.0, 0.5], [0.5, 1.0], [2.0, 2.0]]
    cone = Polytope.from_vertices(UNIFORM2, V)
    halfspaces = Polytope.from_halfspaces(UNIFORM2, [[2.0, -4.0], [-4.0, 2.0], [3.0, -2.0], [-2.0, 3.0]],
                                          [0.0, 0.0, 1.0, 1.0])
    for P in (cone, halfspaces):
        A = P.as_acceptance_set()
        assert A.flags.contains_zero
        for x in ([1.0, 0.49], [2.0, 0.99], [1.0, 0.45], [0.49, 1.0]):
            assert support_function(polar(cone), x).value == math.inf
            assert minkowski_gauge(A, np.array(x)).value == math.inf, x
        assert minkowski_gauge(A, np.array([0.3, 0.6])).value == pytest.approx(0.6, rel=1e-8)
        assert dual_representation_check(P, trials=200, seed=0).disagreements == 0


@pytest.mark.parametrize("x", [[math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf],
                               [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
def test_lp_route_rejects_bad_positions(x):
    F = polar(DIAMOND)
    with pytest.raises(MarketError):
        support_function(F, x)
    with pytest.raises(MarketError):
        support_values(F, [x])


# --- dual routes agree -----------------------------------------------------------

def test_dual_representation_on_diamond():
    rep = dual_representation_check(DIAMOND, trials=100, seed=0,
                                    opts=GaugeOptions(tol_rel=1e-11))
    assert rep.passed and rep.max_gap < 1e-8


def test_dual_representation_requires_zero():
    shifted = Polytope.from_vertices(UNIFORM2, [[2.0, 1.0], [3.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DualityError):
        dual_representation_check(shifted)


def test_bipolar_of_convex_set_with_zero_is_itself():
    rep = bipolar_check(DIAMOND, trials=300, seed=1)
    assert rep.passed


# --- quantile representation on uniform spaces ------------------------------------

QUANTILE_TOL = 1e-5


def quantile_rep_gap(P, trials, seed):
    """Largest gap between the gauge of ``P`` and its quantile form.

    On a uniform space, a law-invariant convex ``P`` with 0 inside has, as
    its gauge, the largest comonotone pairing ``(1/n) sum_k x_(k) y_(k)`` of
    the sorted position with a sorted extreme point ``y`` of the polar.  The
    pairing comes from the polar's vertices alone, independently of both the
    bisection and the support LP.
    """
    space = P.space
    if not space.is_uniform():
        raise DualityError("quantile representation requires a uniform space")
    ext_sorted = np.sort(polar(P).vertex_form(), axis=1)
    X = np.random.default_rng(seed).uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=(trials, space.n))
    A = P.as_acceptance_set()
    max_gap = 0.0
    for x in X:
        g = minkowski_gauge(A, x, CHECK_OPTS).value
        if math.isinf(g):
            continue
        max_gap = max(max_gap, abs(g - float(np.max(ext_sorted @ np.sort(x)) / space.n)))
    return max_gap


def test_quantile_representation_for_diamond():
    assert quantile_rep_gap(DIAMOND, trials=60, seed=3) <= QUANTILE_TOL


def test_quantile_representation_for_strip_with_ray_surrogate():
    # the strip { |x0 - x1| <= 2 }: segment between (1,-1) and (-1,1) plus
    # far vertices along the constants line standing in for its recession
    # directions; its gauge is |x0 - x1| / 2
    strip = Polytope.from_vertices(
        UNIFORM2, np.vstack([[[1.0, -1.0], [-1.0, 1.0]], 1e8 * np.array([[1.0, 1.0], [-1.0, -1.0]])]))
    assert quantile_rep_gap(strip, trials=60, seed=4) <= QUANTILE_TOL
    A = strip.as_acceptance_set()
    x = np.array([3.0, 0.5])
    g = minkowski_gauge(A, x, GaugeOptions(tol_rel=1e-11)).value
    assert g == pytest.approx(abs(x[0] - x[1]) / 2.0, abs=1e-6)


def test_quantile_representation_requires_uniform_space():
    P = Polytope.from_vertices(BINARY, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(DualityError):
        quantile_rep_gap(P, trials=1, seed=0)
