"""Polars, support functions, dual and quantile representations."""

import math

import numpy as np
import pytest

from minkdev.duality import (
    DualityError,
    Polytope,
    bipolar_check,
    discrete_quantile_rep_check,
    dual_representation_check,
    enumerate_vertices,
    polar,
    polar_vertices,
    risk_envelope,
    support_function,
    support_values,
    with_ray_surrogates,
)
from minkdev.gauge import GaugeOptions, minkowski_gauge
from minkdev.market import MarketError, MarketSpace, expectation, pairing

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
        assert A.rowwise
        assert A.row_membership(X).tolist() == [A.membership(x) for x in X]


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
    V = polar_vertices(F)
    got = {tuple(np.round(v, 8)) for v in V}
    assert got == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


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


@pytest.mark.parametrize("x", [[math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf],
                               [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
def test_lp_route_rejects_bad_positions(x):
    F = polar(DIAMOND)
    with pytest.raises(MarketError):
        support_function(F, x)
    with pytest.raises(MarketError):
        risk_envelope(F, x)
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


def test_risk_envelope_equals_support_value():
    F = polar(DIAMOND)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        env = risk_envelope(F, x)
        sup = support_function(F, x)
        assert env.value == pytest.approx(sup.value, abs=1e-10)
        # the attaining Q reproduces the envelope form E[x] - E[xQ]
        got = expectation(UNIFORM2, x) - pairing(UNIFORM2, x, env.attaining_q)
        assert got == pytest.approx(env.value, abs=1e-10)


# --- quantile representation on uniform spaces ------------------------------------

def test_quantile_representation_for_diamond():
    rep = discrete_quantile_rep_check(DIAMOND, trials=60, seed=3)
    assert rep.passed, rep


def test_quantile_representation_for_strip_with_ray_surrogate():
    # the strip { |x0 - x1| <= 2 }: segment between (1,-1) and (-1,1) plus
    # the constants line as recession directions; its gauge is |x0 - x1| / 2
    base = Polytope.from_vertices(UNIFORM2, [[1.0, -1.0], [-1.0, 1.0]])
    strip = with_ray_surrogates(base, [[1.0, 1.0], [-1.0, -1.0]])
    rep = discrete_quantile_rep_check(strip, trials=60, seed=4)
    assert rep.passed, rep
    A = strip.as_acceptance_set()
    x = np.array([3.0, 0.5])
    g = minkowski_gauge(A, x, GaugeOptions(tol_rel=1e-11)).value
    assert g == pytest.approx(abs(x[0] - x[1]) / 2.0, abs=1e-6)


def test_quantile_representation_requires_uniform_space():
    P = Polytope.from_vertices(BINARY, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(DualityError):
        discrete_quantile_rep_check(P)
