"""Row-wise membership oracles against scalar and exact references.

A composite without an exact answer fans one query out in a batched call
to its inner set.  The scalar references below answer the same query one
inner call per candidate shift, scale or permutation, so the batched route
is checked against an independent loop rather than against itself.  Where
the answer is exact (``add_constants`` over a set with a shift interval,
hulls of sets that are their own hull), the reference is the set's
definition: the standard deviation, the range, or the least value of the
piecewise-linear shift function of a polytope's facets.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from minkdev.deviations import builtin_deviation, builtin_error
from minkdev.duality import MAX_ENUM_DIM, Polytope
from minkdev.gauge import GaugeOptions, minkowski_gauge
from minkdev import sets
from minkdev.market import MarketSpace
from minkdev.sets import (
    SHIFT_GRID_POINTS,
    AcceptanceSet,
    SetError,
    SetFlags,
    add_constants,
    ball_set,
    combine,
    law_invariant_hull,
    scale_set,
    star_hull,
    sublevel_set,
)

UNIFORM3 = MarketSpace(np.full(3, 1.0 / 3.0))
UNIFORM4 = MarketSpace(np.full(4, 0.25))
SPACE4 = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))

CATALOGUE = [builtin_deviation(name) for name in ("variance", "std_dev", "lower_semidev", "lr", "ur", "frd")]
CATALOGUE += [builtin_deviation("esd", alpha=a) for a in (0.0, 0.1, 0.25, 1.0)]
CATALOGUE += [builtin_deviation("es", alpha=a) for a in (0.0, 0.3)]


# --- scalar references: one inner call per candidate --------------------------

def scalar_inner(A):
    """The inner set's own scalar oracle, one position per call."""
    return lambda z: bool(A.membership(z))


def ref_add_constants(A, x):
    inner = scalar_inner(A)
    x = x - float(A.space.probs @ x)
    lo, hi = float(np.min(x)), float(np.max(x))
    mid = 0.5 * (lo + hi)
    cands = [mid, float(A.space.probs @ x), float(np.median(x))] + [float(v) for v in x]
    if any(inner(x - c) for c in cands):
        return True
    radius = max(1.0, 2.0 * (hi - lo))
    grid = np.linspace(mid - radius, mid + radius, SHIFT_GRID_POINTS)
    return any(inner(x - float(c)) for c in grid)


def ref_star_hull(A, z, resolution=256, lam_min=1e-6):
    inner = scalar_inner(A)
    if not np.any(z):
        return inner(z)
    return any(inner(z / float(lam)) for lam in np.geomspace(lam_min, 1.0, resolution)[::-1])


def ref_law_invariant_hull(A, x):
    inner = scalar_inner(A)
    return all(inner(x[list(p)]) for p in itertools.permutations(range(x.size)))


def asymmetric_polytope(space, seed=5):
    """Unequal coordinate bounds plus random facets: 0 inside, no symmetry."""
    return replace(asymmetric_halfspaces(space, seed).as_acceptance_set(), label="asym")


def asymmetric_halfspaces(space, seed):
    rng = np.random.default_rng(seed)
    n = space.n
    rows = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(n, n))])
    rhs = rng.uniform(0.5, 2.0, size=rows.shape[0])
    return Polytope.from_halfspaces(space, rows, rhs)


def widening_halfspaces(space, seed):
    """A polytope around 0 that widens along the constants up to a far cap.

    Each side facet ``<g_i, y> - k_i E[y] <= b_i`` has ``<g_i, 1> = 0`` and
    a small random tilt ``k_i``; ``-1/2 <= E[y] <= cap`` closes the ends.
    The widest cross-section is at ``E[y] = cap``, so the best shift of a
    position lies near ``-cap``, far outside its own range.
    """
    rng = np.random.default_rng(seed)
    n = space.n
    g = rng.normal(size=(n + 1, n))
    g = np.vstack([g, -g.sum(axis=0)])         # sums to 0: the sides close around the axis
    g -= (g @ space.probs)[:, None]
    tilt = rng.uniform(0.02, 0.1, size=(n + 2, 1))
    rows = np.vstack([g - tilt, np.ones(n), -np.ones(n)])
    rhs = np.concatenate([rng.uniform(0.5, 2.0, size=n + 2), [rng.uniform(5.0, 40.0), 0.5]])
    return Polytope.from_halfspaces(space, rows, rhs)


def shift_lines(P, x):
    """The facets of ``P + R`` at ``x``, as lines in the shift.

    Facet ``i`` holds at ``x / m - c / m`` iff ``icept_i - c slope_i <= m``
    with ``icept_i = (<row_i, x> - 1e-9 max|x|) / rhs_i`` and ``slope_i =
    <row_i, 1> / rhs_i``, for ``x`` centred: the slack of
    ``Polytope.contains`` at its default tolerance, taken at the centred
    position as ``add_constants`` takes it.  Needs 0 inside ``P`` (every
    ``rhs_i > 0``).
    """
    probs = P.space.probs
    xc = x - probs @ x
    weights = P.rows * probs
    return (weights @ xc - 1e-9 * np.max(np.abs(xc))) / P.rhs, weights.sum(axis=1) / P.rhs


def ref_shift_minimum(P, x):
    """``gauge(P + R)(x)``: the least value of the convex piecewise-linear
    ``c -> max(0, max_i icept_i - c slope_i)``, found where two of its
    lines (0 included) cross."""
    icept, slope = (np.append(v, 0.0) for v in shift_lines(P, x))
    i, j = np.triu_indices(icept.size, k=1)
    cross = slope[i] != slope[j]
    shifts = (icept[i] - icept[j])[cross] / (slope[i] - slope[j])[cross]
    return float(np.max(icept[None, :] - shifts[:, None] * slope[None, :], axis=1).min())


def feasible_shifts(P, x, m):
    """The interval of shifts ``c`` with ``x_c / m - c`` in ``P``, ``x_c``
    the centred ``x``, from ``shift_lines``."""
    icept, slope = shift_lines(P, x)
    edge = (icept - m) / (m * slope)
    return float(np.max(edge[slope > 0], initial=-math.inf)), float(np.min(edge[slope < 0], initial=math.inf))


def positions(space, count=60, seed=0):
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(math.log(0.05), math.log(8.0), size=(count, 1)))
    return scales * rng.uniform(-1.0, 1.0, size=(count, space.n))


def assert_matches(C, reference, X):
    """Single queries of ``C`` equal the scalar reference, and
    ``row_membership`` answers the batch with the single answers."""
    single = np.array([bool(C.membership(x)) for x in X])
    want = np.array([reference(x) for x in X])
    assert np.array_equal(single, want)
    assert 0 < want.sum() < len(want)  # both answers occur
    assert np.array_equal(C.row_membership(X), single)


# --- leaves --------------------------------------------------------------------

def test_leaves_declare_row_oracles():
    # a leaf answers batches with the function that answers one position
    vertex_form = Polytope.from_vertices(UNIFORM3, np.vstack([np.eye(3), -np.eye(3)]))
    for A in (sublevel_set(SPACE4, builtin_deviation("std_dev"), 1.0),
              sublevel_set(SPACE4, builtin_error("kb", alpha=0.1), 1.0),
              ball_set(SPACE4, p=3.0), asymmetric_polytope(SPACE4),
              vertex_form.as_acceptance_set()):
        assert A.row_membership is A.membership


@pytest.mark.parametrize("make", [
    lambda: sublevel_set(SPACE4, builtin_deviation("esd", alpha=0.25), 1.0),
    lambda: sublevel_set(SPACE4, builtin_error("kb", alpha=0.1), 1.0),
    lambda: sublevel_set(SPACE4, builtin_error("sup_range"), 2.0),
    lambda: ball_set(SPACE4, p=2.0),
    lambda: ball_set(SPACE4, p=math.inf, center=[0.5, 0.0, 0.0, -0.5]),
    lambda: ball_set(SPACE4, p=1.5, radius=0.7),
    lambda: asymmetric_polytope(SPACE4),
], ids=["esd", "kb", "sup_range", "ball2", "ballinf", "ball1.5", "polytope"])
def test_leaf_batch_equals_single_queries(make):
    A = make()
    X = positions(SPACE4, 200)
    assert_matches(A, scalar_inner(A), X)


def test_polytope_slack_is_relative_per_row():
    # facet x0 <= 0 through the origin: a tiny positive x0 is outside at
    # small scale but inside at large scale, row by row
    P = Polytope.from_halfspaces(UNIFORM3, np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
    X = np.array([[1e-12, 0.0, 0.0], [1e-12, 1e6, 0.0], [-1.0, 5.0, 5.0]])
    assert P.contains(X).tolist() == [P.contains(x) for x in X] == [False, True, True]


# --- composites -----------------------------------------------------------------

def std_dev(space, x):
    return math.sqrt(float(space.probs @ (x - space.probs @ x) ** 2))


@pytest.mark.parametrize("make_inner, reference", [
    (lambda: ball_set(SPACE4, p=2.0, radius=1.0), lambda A, x: std_dev(SPACE4, x) <= 1.0),
    (lambda: ball_set(SPACE4, p=math.inf, radius=0.8), lambda A, x: np.ptp(x) <= 1.6),
    (lambda: asymmetric_polytope(SPACE4),
     lambda A, x: ref_shift_minimum(asymmetric_halfspaces(SPACE4, 5), x) <= 1.0),
    (lambda: ball_set(SPACE4, p=3.0, radius=0.8), ref_add_constants),
], ids=["ball2", "ballinf", "asymmetric_polytope", "ball3"])
def test_add_constants_matches_scalar_shift_loop(make_inner, reference):
    # exact sets against their definition; a base without a shift interval
    # (the p = 3 ball) against the scalar candidates-then-grid loop
    A = make_inner()
    AR = add_constants(A)
    X = positions(SPACE4, 80, seed=1)
    assert_matches(AR, lambda x: reference(A, x), X)


def test_add_constants_skips_grid_after_candidate_hit():
    calls = []
    ball = ball_set(SPACE4, p=2.0, radius=1.0)

    def member(z):
        calls.append(z.shape)
        return ball.membership(z)

    AR = add_constants(AcceptanceSet(SPACE4, member, ball.flags, row_membership=member))
    assert AR.membership(np.array([5.0, 5.0, 5.0, 5.0]))      # the mean shift hits
    assert calls == [(7, 4)]                                 # 3 + n candidates, one batch
    calls.clear()
    assert not AR.membership(np.array([-4.0, 4.0, -4.0, 4.0]))
    assert calls == [(7, 4), (256, 4)]


@pytest.mark.parametrize("make_inner", [
    lambda: sublevel_set(SPACE4, builtin_deviation("frd"), 1.0),
    lambda: ball_set(SPACE4, p=2.0, radius=0.5, center=[2.0, 0.0, 1.0, 0.0]),
    lambda: asymmetric_polytope(SPACE4),
], ids=["sublevel", "offset_ball", "polytope"])
def test_star_hull_matches_scalar_scale_loop(make_inner):
    A = make_inner()
    H = star_hull(A, resolution=64)
    X = np.vstack([positions(SPACE4, 60, seed=2), np.zeros((1, 4))])
    assert_matches(H, lambda z: ref_star_hull(A, z, resolution=64), X)


@pytest.mark.parametrize("make_inner", [
    lambda: asymmetric_polytope(UNIFORM4),
    lambda: sublevel_set(UNIFORM4, builtin_deviation("esd", alpha=0.25), 1.0),
], ids=["polytope", "sublevel"])
def test_law_invariant_hull_matches_scalar_permutation_loop(make_inner):
    A = make_inner()
    H = law_invariant_hull(A)
    X = positions(UNIFORM4, 60, seed=3)
    assert_matches(H, lambda x: ref_law_invariant_hull(A, x), X)


def test_law_invariant_hull_asks_a_batch_of_orbits_in_one_call():
    # the base is not law-invariant, so every row's whole orbit is asked
    A = asymmetric_polytope(UNIFORM4)
    assert A.flags.law_invariant is not True
    inner, asked = counted(A)
    H = law_invariant_hull(inner)
    X = positions(UNIFORM4, 40, seed=15)
    single = [H.membership(x) for x in X]
    assert 0 < sum(single) < len(X)
    asked.clear()
    assert H.row_membership(X).tolist() == single
    assert asked == [(40 * 24, 4)]
    asked.clear()
    empty = H.row_membership(np.empty((0, 4)))
    assert empty.shape == (0,) and empty.dtype == bool
    assert asked == [(0, 4)]


def test_law_invariant_hull_slices_a_large_batch_of_orbits(monkeypatch):
    # past ORBIT_ROWS_MAX rows the orbits go in slices of whole orbits
    monkeypatch.setattr(sets, "ORBIT_ROWS_MAX", 7 * 24 + 5)
    inner, asked = counted(asymmetric_polytope(UNIFORM4))
    H = law_invariant_hull(inner)
    X = positions(UNIFORM4, 40, seed=15)
    single = [H.membership(x) for x in X]
    asked.clear()
    assert H.row_membership(X).tolist() == single
    assert asked == [(7 * 24, 4)] * 5 + [(5 * 24, 4)]
    asked.clear()
    assert H.row_membership(X[:7]).tolist() == single[:7]
    assert asked == [(7 * 24, 4)]
    # an orbit larger than the cap is still asked whole
    monkeypatch.setattr(sets, "ORBIT_ROWS_MAX", 10)
    H = law_invariant_hull(inner)
    asked.clear()
    assert H.row_membership(X[:3]).tolist() == single[:3]
    assert asked == [(24, 4)] * 3


def test_scale_and_combine_pass_batches_through():
    A = ball_set(SPACE4, p=2.0, radius=1.0)
    B = sublevel_set(SPACE4, builtin_deviation("lr"), 1.5)
    X = positions(SPACE4, 120, seed=4)
    S = scale_set(A, 2.5)
    U = combine("union", A, B)
    I = combine("intersection", A, B)
    a, b = scalar_inner(A), scalar_inner(B)
    assert_matches(S, lambda x: a(x / 2.5), X)
    assert_matches(U, lambda x: a(x) or b(x), X)
    assert_matches(I, lambda x: a(x) and b(x), X)
    # over operands that answer both shapes with one function, so do they
    assert all(C.row_membership is C.membership for C in (S, U, I))
    fan_out = combine("union", A, star_hull(ball_set(SPACE4, p=2.0, center=[1.0, 0.0, 0.0, 0.0])))
    assert fan_out.row_membership is not fan_out.membership


def test_combine_asks_second_operand_only_undecided_rows():
    seen = []
    B = ball_set(SPACE4, p=2.0, radius=1.0)

    def member(z):
        seen.append(len(z))
        return B.membership(z)

    counted = AcceptanceSet(SPACE4, member, B.flags, row_membership=member)
    A = ball_set(SPACE4, p=2.0, radius=0.5)
    X = positions(SPACE4, 50, seed=5)
    inside_a = A.membership(X)
    combine("union", A, counted).row_membership(X)
    combine("intersection", A, counted).row_membership(X)
    assert seen == [int((~inside_a).sum()), int(inside_a.sum())]


def test_composite_nested_in_composite():
    base = ball_set(SPACE4, p=2.0, radius=0.5, center=[1.0, 0.0, 0.0, 0.0])
    H = star_hull(base, resolution=32)
    AR = add_constants(H)                      # the shift batch reaches a composite
    X = positions(SPACE4, 30, seed=6)
    assert_matches(AR, lambda x: ref_add_constants(H, x), X)
    # and the inner star hull itself still agrees with its scalar loop
    Z = np.vstack([x - float(SPACE4.probs @ x) for x in X])
    assert_matches(H, lambda z: ref_star_hull(base, z, resolution=32), Z)
    # scale and combine hand batches to composites, which answer row by row
    ball = ball_set(SPACE4, p=2.0)
    S = scale_set(add_constants(ball), 2.0)
    U = combine("union", ball_set(SPACE4, p=1.0, radius=0.3), H)
    assert_matches(S, lambda x: ref_add_constants(ball, x / 2.0), 2.0 * X)
    small, h = scalar_inner(ball_set(SPACE4, p=1.0, radius=0.3)), scalar_inner(H)
    assert_matches(U, lambda x: small(x) or h(x), 0.2 * X)


def test_scalar_only_user_oracle_goes_through_loop_adapter():
    calls = []

    def member(x):
        assert x.shape == (4,)                 # never handed a batch
        calls.append(1)
        return float(np.sum(np.abs(x) ** 3)) <= 2.0

    user = AcceptanceSet(SPACE4, member, SetFlags(star_shaped=True, convex=True))
    X = positions(SPACE4, 40, seed=7)
    answers = [member(x) for x in X]
    assert 3 < sum(answers) < len(X) - 3
    calls.clear()
    assert user.row_membership(X).tolist() == answers  # every row, one call each
    assert len(calls) == len(X)
    assert_matches(add_constants(user), lambda x: ref_add_constants(user, x), X)
    assert_matches(star_hull(user, resolution=16), lambda z: ref_star_hull(user, z, resolution=16), X)


@pytest.mark.parametrize("hull", [add_constants, star_hull, law_invariant_hull],
                         ids=["add_constants", "star_hull", "law_invariant_hull"])
def test_composites_over_a_replaced_membership_answer_as_over_the_set(hull):
    # a one-position wrapper put in with ``replace`` is never handed a batch
    ball = ball_set(UNIFORM4, p=2.0, radius=1.0)
    wrapped = replace(ball, membership=lambda x: bool(ball.membership(x)))
    X = positions(UNIFORM4, 40, seed=11)
    want = [hull(ball).membership(x) for x in X]
    assert 0 < sum(want) < len(X)
    assert [hull(wrapped).membership(x) for x in X] == want


# --- exact composites ------------------------------------------------------------

TIGHT = GaugeOptions(tol_rel=1e-12, tol_abs=0.0)
SPACE3 = MarketSpace(np.array([0.5, 0.3, 0.2]))


@pytest.mark.parametrize("space", [SPACE4, SPACE3], ids=["space4", "space3"])
@pytest.mark.parametrize("make", [asymmetric_halfspaces, widening_halfspaces],
                         ids=["asymmetric", "widening"])
def test_add_constants_gauge_over_halfspaces_is_the_exact_shift_minimum(make, space):
    far = 0
    for seed in range(3):
        P = make(space, seed)
        AR = add_constants(P.as_acceptance_set())
        for x in positions(space, 30, seed=10 + seed):
            g = minkowski_gauge(AR, x, TIGHT).value
            assert g == pytest.approx(ref_shift_minimum(P, x), rel=1e-9)
            if g == 0.0:                       # a direction in which P is unbounded
                continue
            # just above the gauge, the shifts that put x / m in P + R against
            # max(1, 2 range) about the midrange, where a shift grid would look
            m = g * (1.0 + 1e-6)
            lo, hi = feasible_shifts(P, x, m)
            z = (x - space.probs @ x) / m
            mid, radius = 0.5 * (z.min() + z.max()), max(1.0, 2.0 * np.ptp(z))
            assert lo <= hi
            far += hi < mid - radius or lo > mid + radius
    if make is widening_halfspaces:
        assert far >= 30                       # of 90 positions


def test_add_constants_gauge_through_vertex_form_and_scaling_is_the_halfspace_one():
    # the shift interval comes from the hull facets of the vertex form, and
    # lam * I(x / lam) for 2P; the vertex form's slack is measured along
    # unit normals, the halfspace form's along its rows, hence rel=1e-7
    P = widening_halfspaces(SPACE4, 0)
    exact = add_constants(P.as_acceptance_set())
    vertex_form = add_constants(Polytope.from_vertices(SPACE4, P.vertex_form()).as_acceptance_set())
    doubled = add_constants(scale_set(P.as_acceptance_set(), 2.0))
    for x in positions(SPACE4, 5, seed=10):
        want = minkowski_gauge(exact, x, TIGHT).value
        assert minkowski_gauge(vertex_form, x, TIGHT).value == pytest.approx(want, rel=1e-7)
        assert 2.0 * minkowski_gauge(doubled, x, TIGHT).value == pytest.approx(want, rel=1e-9)


def test_add_constants_over_a_convex_set_holding_zero_is_star_shaped():
    # a ball about a constant is not declared star-shaped, but its A + R is
    # the centred ball's, which holds 0, and it is convex
    x = np.array([0.3, -1.0, 0.5, 2.0])
    AR = add_constants(ball_set(SPACE4, 2.0, 1.0, np.full(4, 0.7)))
    assert (AR.flags.star_shaped, AR.flags.contains_zero) == (True, True)
    got = minkowski_gauge(AR, x)
    assert got.value == pytest.approx(minkowski_gauge(add_constants(ball_set(SPACE4, 2.0, 1.0)), x).value,
                                      abs=1e-9)
    assert got.oracle_calls <= 92 and got.approximate is False
    # a centre whose spread exceeds the radius: 0 is not in A + R
    far = add_constants(ball_set(SPACE4, 2.0, 1.0, [3.0, -3.0, 3.0, -3.0]))
    assert (far.flags.star_shaped, far.flags.contains_zero) == (None, None)


@pytest.mark.parametrize("center", [None, 2.5], ids=["origin", "constant_centre"])
@pytest.mark.parametrize("p, radius", [(2.0, 0.7), (math.inf, 1.6)], ids=["p2", "pinf"])
def test_add_constants_gauge_over_balls(p, radius, center):
    # a constant centre moves the ball along the constants: the same A + R,
    # declared star-shaped because it is convex and holds 0
    AR = add_constants(ball_set(SPACE4, p, radius, None if center is None else np.full(4, center)))
    for x in positions(SPACE4, 20, seed=12):
        want = std_dev(SPACE4, x) / radius if p == 2.0 else np.ptp(x) / (2.0 * radius)
        assert minkowski_gauge(AR, x, TIGHT).value == pytest.approx(want, rel=1e-9)


def interval_sets(space):
    centre = np.linspace(-0.5, 0.7, space.n)
    widening = widening_halfspaces(space, 8)
    sets = [ball_set(space, 2.0, 0.9), ball_set(space, math.inf, 0.6),
            ball_set(space, 2.0, 1.2, center=centre), ball_set(space, math.inf, 0.8, center=centre),
            asymmetric_halfspaces(space, 7).as_acceptance_set(),
            widening.as_acceptance_set(), scale_set(widening.as_acceptance_set(), 0.3)]
    if space.n <= MAX_ENUM_DIM:                # vertices from halfspaces, then hull facets
        sets.append(Polytope.from_vertices(space, widening.vertex_form()).as_acceptance_set())
    return sets


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("space", [MarketSpace(np.array([0.25, 0.75])), UNIFORM3, SPACE4,
                                   MarketSpace(np.arange(1.0, 10.0) / 45.0)],
                         ids=["binary", "uniform3", "space4", "space9"])
def test_shift_intervals_answer_each_row_as_alone(space):
    X = positions(space, 300, seed=13)
    X[0] = 0.0
    X[1] = 3.0                                 # a constant row
    centred = X - (X @ space.probs)[:, None]
    step = 1e-3 * (1.0 + np.max(np.abs(centred), axis=1))
    for A in interval_sets(space):
        lo, hi = A.shift_interval(X)
        alone = [A.shift_interval(x) for x in X]
        assert bits(lo) == bits([a for a, _ in alone]) and bits(hi) == bits([b for _, b in alone])
        AR = add_constants(A)
        single = [AR.membership(x) for x in X]
        assert all(type(v) is bool for v in single) and 0 < sum(single) < len(X)
        assert np.array_equal(AR.row_membership(X), single)
        # the interval is the set's own: its midpoint is a member, a step
        # past either end is not
        lo, hi = A.shift_interval(centred)
        wide = hi - lo > step
        assert wide.any()
        Z, lo, hi, s = centred[wide], lo[wide], hi[wide], step[wide]
        assert A.row_membership(Z - (0.5 * (lo + hi))[:, None]).all()
        assert not A.row_membership(Z - (lo - s)[:, None]).any()
        assert not A.row_membership(Z - (hi + s)[:, None]).any()


def counted(A):
    """A copy of ``A`` that logs the shape of every query to its oracles."""
    asked = []

    def one(x):
        asked.append(x.shape)
        return A.membership(x)

    def rows(X):
        asked.append(X.shape)
        return A.row_membership(X)
    return AcceptanceSet(A.space, one, A.flags, A.label, rows), asked


@pytest.mark.parametrize("hull, make", [
    (star_hull, lambda: sublevel_set(UNIFORM4, builtin_deviation("esd", alpha=0.25), 1.0)),
    (star_hull, lambda: ball_set(UNIFORM4, p=1.5)),
    (star_hull, lambda: asymmetric_polytope(UNIFORM4)),
    (law_invariant_hull, lambda: sublevel_set(UNIFORM4, builtin_deviation("std_dev"), 1.0)),
    (law_invariant_hull, lambda: ball_set(UNIFORM4, p=math.inf, radius=0.8)),
], ids=["star_hull(sublevel)", "star_hull(ball)", "star_hull(polytope)",
        "law_invariant_hull(sublevel)", "law_invariant_hull(ball)"])
def test_a_hull_of_a_set_that_is_its_own_hull_asks_each_query_once(hull, make):
    A = make()
    inner, asked = counted(A)
    H = hull(inner)
    X = positions(UNIFORM4, 40, seed=14)
    assert [H.membership(x) for x in X] == [A.membership(x) for x in X]
    assert asked == [(4,)] * 40                # one call, the query's own row
    asked.clear()
    assert np.array_equal(H.row_membership(X), A.row_membership(X))
    assert asked == [(40, 4)]
    # it declares what the scanning hull of a set without the declaration does
    undeclared = "star_shaped" if hull is star_hull else "law_invariant"
    scanning = hull(replace(A, flags=replace(A.flags, **{undeclared: None})))
    assert (H.flags, H.label) == (scanning.flags, scanning.label)


def test_star_hull_of_an_off_centre_ball_still_scans_its_grid():
    A = ball_set(SPACE4, p=2.0, radius=0.5, center=[1.0, 1.2, 0.9, 1.1])
    assert A.flags.star_shaped is None
    inner, asked = counted(A)
    H = star_hull(inner, resolution=64)
    H.membership(np.array([0.3, 0.4, 0.2, 0.5]))
    assert asked == [(64, 4)]


def test_law_invariant_hull_still_checks_its_space():
    not_uniform = sublevel_set(SPACE4, builtin_deviation("std_dev"), 1.0)
    above_the_cap = ball_set(MarketSpace(np.full(9, 1.0 / 9.0)), p=2.0)
    for A in (not_uniform, above_the_cap):
        assert A.flags.law_invariant is True
        with pytest.raises(SetError):
            law_invariant_hull(A)


# --- the law-invariant hull of a polytope, from sorted facets ---------------------

def near_a_facet(P, x):
    """Whether the best permutation of ``x`` lies within 1e-12 relative of a
    facet of ``P``: the sorted pairing's excess over the facet, summed
    exactly, against the size of its terms.  There the sorted pairing and
    the orbit's own sums may round to different answers."""
    W, r, _ = P._facets
    terms = np.sort(W, axis=1) * np.sort(x)
    slack = 1e-9 * np.max(np.abs(x))
    excess = np.array([math.fsum(t) for t in terms]) - r - slack
    return bool((np.abs(excess) < 1e-12 * (np.abs(terms).sum(axis=1) + np.abs(r) + slack)).any())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_law_invariant_hull_of_a_polytope_equals_the_permutation_loop(n):
    space = MarketSpace(np.full(n, 1.0 / n))
    rng = np.random.default_rng(30 + n)
    polytopes = [asymmetric_halfspaces(space, seed) for seed in (5, 6)]
    if n <= MAX_ENUM_DIM:
        vertices = np.vstack([rng.normal(size=(2 * n, n)), 1.5 * np.eye(n), -1.5 * np.eye(n)])
        polytopes.append(Polytope.from_vertices(space, vertices))
    count = 60 if n < 6 else 15                                    # 720 permutations each
    ties = rng.integers(-2, 3, size=(count, n)) * rng.uniform(0.2, 1.5, size=(count, 1))
    X = np.vstack([positions(space, count, seed=n), ties, np.zeros(n), np.full(n, 0.7), np.full(n, -3.0)])
    excluded = 0
    for P in polytopes:
        # a batch gets each row's excess bit for bit as the row alone
        sorted_rows = np.sort(X, axis=1)
        batch = P._excess(sorted_rows, normals=P._sorted_normals)
        assert all(batch[i].tobytes() == P._excess(row, normals=P._sorted_normals).tobytes()
                   for i, row in enumerate(sorted_rows))
        for lam in (1.0, 0.37):
            A = P.as_acceptance_set() if lam == 1.0 else scale_set(P.as_acceptance_set(), lam)
            H = law_invariant_hull(A)
            assert H.row_membership is H.membership              # one call for both shapes
            near = np.array([near_a_facet(P, x / lam) for x in X])
            assert not near[-3:].any()                           # zero and constant rows
            excluded += int(near.sum())
            kept = X[~near]
            want = [ref_law_invariant_hull(A, x) for x in kept]
            assert 0 < sum(want) < len(want)
            assert [H.membership(x) for x in kept] == want
            assert H.row_membership(X).tolist() == [H.membership(x) for x in X]
    assert excluded == 0


def test_law_invariant_hull_builds_permutations_only_to_ask_an_orbit(monkeypatch):
    built = []
    permutations = sets._permutations
    monkeypatch.setattr(sets, "_permutations", lambda n: built.append(n) or permutations(n))
    P = asymmetric_polytope(UNIFORM4)
    X = positions(UNIFORM4, 10, seed=16)
    for A in (P, scale_set(P, 2.0), sublevel_set(UNIFORM4, builtin_deviation("std_dev"), 1.0)):
        H = law_invariant_hull(A)
        H.row_membership(X)
        H.membership(X[0])
    assert built == []
    orbit, _ = counted(P)                       # no orbit_membership: the orbit is asked
    law_invariant_hull(orbit).membership(X[0])
    assert built == [4]
    # one read-only array per outcome count
    perms = permutations(4)
    assert perms is permutations(4) and perms.shape == (24, 4) and not perms.flags.writeable
    # the space is still checked, before any oracle is chosen
    for space in (SPACE4, MarketSpace(np.full(9, 1.0 / 9.0))):
        with pytest.raises(SetError):
            law_invariant_hull(asymmetric_polytope(space))


# --- closed forms over the last axis ---------------------------------------------

@pytest.mark.parametrize("D", CATALOGUE, ids=lambda D: D.label)
@pytest.mark.parametrize("space", [SPACE4, UNIFORM3, MarketSpace(np.array([0.25, 0.75]))],
                         ids=["space4", "uniform3", "binary"])
def test_closed_forms_row_by_row_equal_single_positions(D, space):
    X = positions(space, 100, seed=8)
    X[0] = 0.0                                 # a constant row and ties
    X[1] = X[1, 0]
    got = D.eval(space, X)
    assert isinstance(got, np.ndarray) and got.shape == (100,)
    want = np.array([D.eval(space, x) for x in X])
    assert np.array_equal(got, want)           # same summation order: exact
    assert isinstance(D.eval(space, X[2]), float)


@pytest.mark.parametrize("E", [builtin_error("kb", alpha=0.1), builtin_error("sup_range")]
                         + [builtin_error("lp_norm", p=p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)],
                         ids=lambda E: E.label)
def test_error_measures_row_by_row_equal_single_positions(E):
    X = positions(SPACE4, 100, seed=9)
    assert np.array_equal(E.eval(SPACE4, X), [E.eval(SPACE4, x) for x in X])


def test_batched_sublevel_set_still_bisects():
    # the gauge of a row-wise sub-level set comes from membership queries,
    # never from the closed form divided by the level
    D = builtin_deviation("std_dev")
    A = sublevel_set(SPACE4, D, 2.0)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    res = minkowski_gauge(A, x)
    assert res.oracle_calls > 20
    assert res.value == pytest.approx(D.eval(SPACE4, x) / 2.0, rel=1e-9)
