"""Row-wise membership oracles against scalar references.

Each composite answers one query with a batched call to its inner set.
The references below answer the same query the scalar way, one inner call
per candidate shift, scale or permutation, so the batched route is checked
against an independent loop rather than against itself.
"""

import itertools
import math

import numpy as np
import pytest

from minkdev.deviations import MeasureError, builtin_deviation, builtin_error, deviation_from_error
from minkdev.duality import Polytope
from minkdev.gauge import minkowski_gauge
from minkdev.market import MarketSpace
from minkdev.sets import (
    SHIFT_CAP,
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
    lo, hi = float(np.min(x)), float(np.max(x))
    mid = 0.5 * (lo + hi)
    cands = [mid, float(A.space.probs @ x), float(np.median(x))] + [float(v) for v in x]
    if any(abs(c) <= SHIFT_CAP and inner(x - c) for c in cands):
        return True
    radius = min(max(1.0, 2.0 * (hi - lo)), SHIFT_CAP)
    grid = np.linspace(mid - radius, mid + radius, SHIFT_GRID_POINTS)
    return any(abs(c) <= SHIFT_CAP and inner(x - float(c)) for c in grid)


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
    rng = np.random.default_rng(seed)
    n = space.n
    rows = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(n, n))])
    rhs = rng.uniform(0.5, 2.0, size=rows.shape[0])
    return Polytope.from_halfspaces(space, rows, rhs).as_acceptance_set(label="asym")


def positions(space, count=60, seed=0):
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(math.log(0.05), math.log(8.0), size=(count, 1)))
    return scales * rng.uniform(-1.0, 1.0, size=(count, space.n))


def assert_matches(C, reference, X):
    """Single queries of ``C`` equal the scalar reference; a row-wise ``C``
    answers the batch with the single answers, and ``any_row``/``all_rows``
    agree with them on the members, the non-members and the whole batch."""
    single = np.array([bool(C.membership(x)) for x in X])
    want = np.array([reference(x) for x in X])
    assert np.array_equal(single, want)
    assert 0 < want.sum() < len(want)  # both answers occur
    if C.rowwise:
        assert np.array_equal(C.membership(X), single)
    assert C.all_rows(X[single]) and not C.any_row(X[~single])
    assert C.any_row(X) and not C.all_rows(X)


# --- leaves --------------------------------------------------------------------

def test_leaves_declare_row_oracles():
    assert sublevel_set(SPACE4, builtin_deviation("std_dev"), 1.0).rowwise
    assert sublevel_set(SPACE4, builtin_error("kb", alpha=0.1), 1.0).rowwise
    assert ball_set(SPACE4, p=3.0).rowwise
    assert asymmetric_polytope(SPACE4).rowwise
    vertex_form = Polytope.from_vertices(UNIFORM3, np.vstack([np.eye(3), -np.eye(3)]))
    assert vertex_form.as_acceptance_set().rowwise
    projected = deviation_from_error(builtin_error("lp_norm", p=2.0))
    assert not sublevel_set(SPACE4, projected, 1.0).rowwise


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

@pytest.mark.parametrize("make_inner", [
    lambda: ball_set(SPACE4, p=2.0, radius=1.0),
    lambda: ball_set(SPACE4, p=math.inf, radius=0.8),
    lambda: asymmetric_polytope(SPACE4),
], ids=["ball2", "ballinf", "asymmetric_polytope"])
def test_add_constants_matches_scalar_shift_loop(make_inner):
    A = make_inner()
    AR = add_constants(A)
    X = positions(SPACE4, 80, seed=1)
    assert_matches(AR, lambda x: ref_add_constants(A, x), X)


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


def test_scale_and_combine_pass_batches_through():
    A = ball_set(SPACE4, p=2.0, radius=1.0)
    B = sublevel_set(SPACE4, builtin_deviation("lr"), 1.5)
    X = positions(SPACE4, 120, seed=4)
    S = scale_set(A, 2.5)
    U = combine("union", A, B)
    I = combine("intersection", A, B)
    assert S.rowwise and U.rowwise and I.rowwise
    a, b = scalar_inner(A), scalar_inner(B)
    assert_matches(S, lambda x: a(x / 2.5), X)
    assert_matches(U, lambda x: a(x) or b(x), X)
    assert_matches(I, lambda x: a(x) and b(x), X)


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
    combine("union", A, counted).membership(X)
    combine("intersection", A, counted).membership(X)
    assert seen == [int((~inside_a).sum()), int(inside_a.sum())]


def test_composite_nested_in_composite():
    base = ball_set(SPACE4, p=2.0, radius=0.5, center=[1.0, 0.0, 0.0, 0.0])
    H = star_hull(base, resolution=32)
    AR = add_constants(H)                      # the shift batch reaches a composite
    assert not H.rowwise and not AR.rowwise
    X = positions(SPACE4, 30, seed=6)
    assert_matches(AR, lambda x: ref_add_constants(H, x), X)
    # and the inner star hull itself still agrees with its scalar loop
    Z = np.vstack([x - float(SPACE4.probs @ x) for x in X])
    assert_matches(H, lambda z: ref_star_hull(base, z, resolution=32), Z)
    # scale and combine around composites are scalar-only too
    ball = ball_set(SPACE4, p=2.0)
    S = scale_set(add_constants(ball), 2.0)
    U = combine("union", ball_set(SPACE4, p=1.0, radius=0.3), H)
    assert not S.rowwise and not U.rowwise
    assert_matches(S, lambda x: ref_add_constants(ball, x / 2.0), 2.0 * X)


def test_scalar_only_user_oracle_goes_through_loop_adapter():
    calls = []

    def member(x):
        assert x.shape == (4,)                 # never handed a batch
        calls.append(1)
        return float(np.sum(np.abs(x) ** 3)) <= 2.0

    user = AcceptanceSet(SPACE4, member, SetFlags(star_shaped=True, convex=True))
    assert not user.rowwise
    X = positions(SPACE4, 40, seed=7)
    answers = np.array([member(x) for x in X])
    inside, outside = X[answers], X[~answers]
    assert len(inside) > 3 and len(outside) > 3
    calls.clear()
    assert user.any_row(np.vstack([outside[:3], inside]))   # asked up to the first member
    assert len(calls) == 4
    calls.clear()
    assert not user.all_rows(np.vstack([inside[:3], outside]))  # up to the first non-member
    assert len(calls) == 4
    assert_matches(add_constants(user), lambda x: ref_add_constants(user, x), X)
    assert_matches(star_hull(user, resolution=16), lambda z: ref_star_hull(user, z, resolution=16), X)


def test_composites_stop_at_first_deciding_inner_answer():
    # over a scalar-only set each composite asks only up to the first inner
    # answer that decides the query, like its scalar loop
    asked = []
    ball = ball_set(UNIFORM4, p=2.0, radius=1.0)

    def member(x):
        asked.append(x.copy())
        return ball.membership(x)

    user = AcceptanceSet(UNIFORM4, member, ball.flags)
    inside = np.array([0.3, -0.2, 0.1, 0.0])
    assert star_hull(user).membership(inside)
    assert len(asked) == 1 and np.array_equal(asked[0], inside)  # lam = 1 first
    asked.clear()
    assert add_constants(user).membership(inside + 7.0)
    assert len(asked) == 1                     # the midrange shift hits
    asked.clear()
    assert not law_invariant_hull(user).membership(np.array([3.0, 0.0, 0.0, 0.0]))
    assert len(asked) == 1                     # the identity permutation fails


def test_row_queries_reject_wrong_shapes():
    A = ball_set(SPACE4, p=2.0)
    for ask in (A.any_row, A.all_rows):
        with pytest.raises(SetError):
            ask(np.zeros(4))
        with pytest.raises(SetError):
            ask(np.zeros((3, 5)))


# --- closed forms over the last axis ---------------------------------------------

@pytest.mark.parametrize("D", CATALOGUE, ids=lambda D: D.label)
@pytest.mark.parametrize("space", [SPACE4, UNIFORM3, MarketSpace(np.array([0.25, 0.75]))],
                         ids=["space4", "uniform3", "binary"])
def test_closed_forms_row_by_row_equal_single_positions(D, space):
    assert D.rowwise
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


def test_scalar_only_functional_refuses_a_batch():
    D = deviation_from_error(builtin_error("kb", alpha=0.1))
    with pytest.raises(MeasureError):
        D.eval(SPACE4, np.zeros((2, 4)))


def test_batched_sublevel_set_still_bisects():
    # the gauge of a row-wise sub-level set comes from membership queries,
    # never from the closed form divided by the level
    D = builtin_deviation("std_dev")
    A = sublevel_set(SPACE4, D, 2.0)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    res = minkowski_gauge(A, x)
    assert res.oracle_calls > 20
    assert res.value == pytest.approx(D.eval(SPACE4, x) / 2.0, rel=1e-9)
