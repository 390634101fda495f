"""Acceptance-set constructors, flag propagation, and property falsifiers."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from minkdev import market
from minkdev.deviations import builtin_deviation, builtin_error
from minkdev.duality import Polytope
from minkdev.market import MarketSpace
from minkdev.sets import (
    FALSIFIERS,
    RAY_POINTS,
    SetError,
    SetFlags,
    add_constants,
    ball_set,
    check_property,
    combine,
    law_invariant_hull,
    scale_set,
    set_from_json,
    star_hull,
    sublevel_set,
)

BINARY = MarketSpace(np.array([0.25, 0.75]))
UNIFORM3 = MarketSpace(np.full(3, 1.0 / 3.0))
SPACE4 = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))


def member(A, x) -> bool:
    """``A``'s answer for one position given as a list or an array."""
    return bool(A.membership(np.asarray(x, dtype=float)))


# --- sub-level sets -----------------------------------------------------------

def test_sublevel_membership_and_flags():
    A = sublevel_set(BINARY, builtin_deviation("std_dev"), 1.0)
    assert member(A, [0.0, 4.0 / math.sqrt(3.0)])        # sigma exactly 1
    assert not member(A, [0.0, 4.0 / math.sqrt(3.0) + 1e-6])
    assert member(A, [7.0, 7.0])                          # constants always
    f = A.flags
    assert f.star_shaped and f.convex and f.closed
    assert f.stable_scalar_add and f.radially_bounded_nonconst and f.contains_zero


def test_sublevel_of_variance_is_star_shaped_degree_two():
    A = sublevel_set(BINARY, builtin_deviation("variance"), 1.0)
    assert A.flags.star_shaped is True
    assert A.flags.convex is True


def test_sublevel_rejects_bad_level():
    with pytest.raises(SetError):
        sublevel_set(BINARY, builtin_deviation("std_dev"), 0.0)


def test_sublevel_of_error_is_not_shift_stable():
    A = sublevel_set(SPACE4, builtin_error("kb", alpha=0.1), 1.0)
    assert A.flags.star_shaped is True
    assert A.flags.stable_scalar_add is None


# --- scaling and combination ----------------------------------------------------

def test_scale_set_membership():
    A = ball_set(UNIFORM3, p=2.0, radius=1.0)
    S = scale_set(A, 2.0)
    x = np.array([2.5, 0.0, 0.0])   # weighted norm 2.5/sqrt(3) ~ 1.44
    assert member(S, x) and not member(A, x)


def test_combine_flag_logic():
    A = sublevel_set(BINARY, builtin_deviation("std_dev"), 1.0)
    B = sublevel_set(BINARY, builtin_deviation("frd"), 1.0)
    U = combine("union", A, B)
    I = combine("intersection", A, B)
    assert U.flags.star_shaped is True
    assert U.flags.convex is None          # unions may lose convexity
    assert I.flags.convex is True
    x = np.array([0.0, 2.0])               # sigma = sqrt(3)/2 <= 1, range = 2 > 1
    assert member(U, x) and not member(I, x)
    with pytest.raises(SetError):
        combine("xor", A, B)



def test_a_union_declares_no_failure_it_cannot_know():
    # the ball lies in the second operand, so the union is that operand,
    # which is stable under scalar addition
    AR = add_constants(ball_set(UNIFORM3, 2.0, 2.0))
    U = combine("union", ball_set(UNIFORM3, 2.0, 1.0), AR)
    X = np.random.default_rng(0).uniform(-4.0, 4.0, size=(20_000, 3))
    assert np.array_equal(U.row_membership(X), AR.row_membership(X))
    assert check_property(U, "stable_scalar_add").passed
    assert U.flags.stable_scalar_add is None


# --- constants line ---------------------------------------------------------------

def test_add_constants_recovers_shift_stability():
    ball = ball_set(SPACE4, p=2.0, radius=1.0)
    AR = add_constants(ball)
    assert AR.flags.stable_scalar_add is True
    # x - c in ball for c = mean exactly when sigma(x) <= 1
    sd = builtin_deviation("std_dev")
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-4, 4, size=4)
        assert member(AR, x) == (sd.eval(SPACE4, x) <= 1.0)


def test_add_constants_grid_agreement():
    """41x41 grid on a two-outcome space: membership of ball + R matches the
    sigma sub-level set everywhere off the boundary."""
    ball = ball_set(BINARY, p=2.0, radius=1.0)
    AR = add_constants(ball)
    sd = builtin_deviation("std_dev")
    for x0 in np.linspace(-4, 4, 41):
        for x1 in np.linspace(-4, 4, 41):
            x = np.array([x0, x1])
            assert member(AR, x) == (sd.eval(BINARY, x) <= 1.0 + 1e-12)


# --- star hull ----------------------------------------------------------------------

def test_star_hull_of_offset_ball():
    # ball centred at (2, 0): not star-shaped about the origin
    A = ball_set(BINARY, p=2.0, radius=0.5, center=[2.0, 0.0])
    H = star_hull(A)
    assert H.flags.star_shaped is True
    inside = np.array([2.0, 0.0])
    assert member(H, inside) and member(H, inside * 0.3)
    assert not member(A, inside * 0.3)
    assert not member(H, np.array([-2.0, 0.0]))
    assert not member(H, inside * 1.8)      # beyond the set, not in [0,1]A
    with pytest.raises(SetError):
        star_hull(A, resolution=1)


# --- law-invariant hull ----------------------------------------------------------------

def test_law_invariant_hull_uniform_only():
    A = ball_set(BINARY, p=2.0, radius=1.0)
    with pytest.raises(SetError):
        law_invariant_hull(A)


def test_law_invariant_hull_membership():
    # halfspace x0 <= 1: its law-invariant core is max(x) <= 1
    from minkdev.sets import AcceptanceSet, SetFlags

    A = AcceptanceSet(space=UNIFORM3, membership=lambda x: x[0] <= 1.0,
                      flags=SetFlags(), label="halfspace")
    H = law_invariant_hull(A)
    assert H.flags.law_invariant is True
    assert member(H, [0.5, 0.9, -3.0])
    assert not member(H, [0.5, 2.0, 0.0])


# --- property falsifiers -------------------------------------------------------------------

def test_falsifier_finds_star_shape_violation():
    A = ball_set(UNIFORM3, p=2.0, radius=0.5, center=[2.0, 2.0, -1.0])
    report = check_property(A, "star_shaped", trials=100, seed=1)
    assert not report.passed
    assert report.counterexample is not None
    # counterexamples replay
    x = np.array(report.counterexample["x"])
    lam = report.counterexample["lam"]
    assert member(A, x) and not member(A, lam * x)


def test_falsifier_finds_shift_instability():
    A = ball_set(UNIFORM3, p=2.0, radius=1.0)
    report = check_property(A, "stable_scalar_add", trials=100, seed=1)
    assert not report.passed


def test_falsifier_passes_good_properties():
    A = sublevel_set(UNIFORM3, builtin_deviation("std_dev"), 1.0)
    for prop in ("star_shaped", "convex", "stable_scalar_add",
                 "radially_bounded_nonconst", "absorbing", "law_invariant",
                 "strongly_star_shaped", "anti_monotone_dispersive"):
        report = check_property(A, prop, trials=60, seed=2)
        assert report.passed, (prop, report.counterexample)


def test_a_report_counts_only_the_cases_that_ran():
    # the two balls are disjoint, so no draw finds a member of their
    # intersection: a pass of 0 trials, not of 200
    A = combine("intersection", ball_set(UNIFORM3, 2, 1.0), ball_set(UNIFORM3, 2, 0.5, center=[2, 2, -1]))
    report = check_property(A, "stable_scalar_add", trials=200)
    assert (report.passed, report.trials) == (True, 0)
    # a failing report counts the draws that made a case; its counterexample
    # keeps the draw index, so it replays
    B = ball_set(UNIFORM3, p=2.0, radius=0.5, center=[2.0, 2.0, -1.0])
    report = check_property(B, "star_shaped", trials=100, seed=1)
    t = report.counterexample["trial"]
    assert (report.trials, t) == (1, 2)  # draws 0 and 1 found no member
    rng = np.random.default_rng(1)
    for _ in range(t):
        FALSIFIERS["star_shaped"](B, rng)
    assert FALSIFIERS["star_shaped"](B, rng)["x"].tolist() == report.counterexample["x"]


def test_falsifier_strong_star_shape_annulus():
    from minkdev.sets import AcceptanceSet, SetFlags

    A = AcceptanceSet(space=UNIFORM3,
                      membership=lambda x: 1.0 <= float(np.linalg.norm(x)) <= 2.0,
                      flags=SetFlags(), label="annulus")
    report = check_property(A, "strongly_star_shaped", trials=200, seed=3)
    assert not report.passed


def test_falsifier_comonotone_convexity_of_ranges():
    A = sublevel_set(SPACE4, builtin_deviation("frd"), 1.0)
    assert check_property(A, "comonotone_convex", trials=100, seed=4).passed
    assert check_property(A, "complement_comonotone_convex", trials=100, seed=4).passed


def halfspaces(space, rows, rhs):
    return Polytope.from_halfspaces(space, rows, rhs).as_acceptance_set()


# One set per falsifier on which its property fails.  The mean slab
# {|E[x]| <= 1} and its complement fail the comonotone properties: a
# comonotone pair with means of opposite signs mixes into the slab.
NEGATIVE_CONTROLS = {
    "convex": combine("union", ball_set(UNIFORM3, 2.0, 1.0, center=[2.0, 0.0, 0.0]),
                      ball_set(UNIFORM3, 2.0, 1.0, center=[-2.0, 0.0, 0.0])),
    "radially_bounded_nonconst": halfspaces(UNIFORM3, [[1.0, 0.0, 0.0]], [1.0]),
    "absorbing": ball_set(UNIFORM3, 2.0, 0.5, center=[2.0, 2.0, 2.0]),
    "law_invariant": ball_set(UNIFORM3, 2.0, 1.0, center=[1.0, 0.0, 0.0]),
    "anti_monotone_dispersive": ball_set(UNIFORM3, 2.0, 1.0),
    "comonotone_convex": combine("union", halfspaces(SPACE4, [[1.0] * 4], [-1.0]),
                                 halfspaces(SPACE4, [[-1.0] * 4], [-1.0])),
    "complement_comonotone_convex": halfspaces(SPACE4, [[1.0] * 4, [-1.0] * 4], [1.0, 1.0]),
}


def replays(A, prop, ce):
    """Whether the counterexample ``ce`` shows ``prop`` failing on ``A``."""
    x = np.array(ce["x"])
    if prop == "radially_bounded_nonconst":
        return np.ptp(x) > 0.0 and member(A, x) and member(A, x * ce["scale"])
    if prop == "absorbing":
        return not any(member(A, x * s) for s in np.geomspace(1.0, 1e-10, 41))
    if prop == "law_invariant":
        return member(A, x) and not member(A, x[ce["perm"]])
    y = np.array(ce["y"])
    if prop == "anti_monotone_dispersive":
        return market.dispersive_leq(A.space, y, x) and member(A, x) and not member(A, y)
    inside = prop != "complement_comonotone_convex"
    z = ce["lam"] * x + (1 - ce["lam"]) * y
    comonotone = prop == "convex" or market.is_comonotone(x, y)
    return comonotone and (member(A, x), member(A, y), member(A, z)) == (inside, inside, not inside)


@pytest.mark.parametrize("prop", sorted(NEGATIVE_CONTROLS))
def test_falsifier_fires_on_a_known_false_set(prop):
    A = NEGATIVE_CONTROLS[prop]
    report = check_property(A, prop)
    assert report.passed is False
    assert replays(A, prop, report.counterexample), report.counterexample


def _declaring(A, **flags):
    return replace(A, flags=replace(A.flags, **flags))


# Leaves whose False flags are facts: the ball is not stable under scalar
# addition, the halfspace holds rays of non-constants, the two balls are
# not convex, and the off-centre ball and the far halfspace miss 0.
FLAG_LEAVES = [
    sublevel_set(UNIFORM3, builtin_deviation("std_dev"), 1.0),
    ball_set(UNIFORM3, 2.0, 1.0),
    ball_set(UNIFORM3, 2.0, 0.5, center=[2.0, 2.0, -1.0]),
    _declaring(halfspaces(UNIFORM3, [[1.0, 0.0, 0.0]], [1.0]), radially_bounded_nonconst=False),
    _declaring(NEGATIVE_CONTROLS["convex"], convex=False),
    halfspaces(UNIFORM3, [[1.0, 1.0, 1.0]], [-1.0]),
    add_constants(ball_set(UNIFORM3, 2.0, 2.0)),
]


@pytest.mark.parametrize("op", ["union", "intersection"])
def test_every_failure_a_combination_declares_is_shown(op):
    shown = 0
    for A, B in itertools.product(FLAG_LEAVES, repeat=2):
        C = combine(op, A, B)
        for flag in (f.name for f in fields(SetFlags) if getattr(C.flags, f.name) is False):
            if flag == "contains_zero":
                assert not member(C, np.zeros(3)), (A.label, B.label)
            else:
                report = check_property(C, flag)
                assert not report.passed, (op, flag, A.label, B.label)
            shown += 1
    assert shown > 0

def test_law_invariance_check_refuses_orbits_past_the_permutation_cap():
    n = market.MAX_PERMUTATION_OUTCOMES + 1
    A = sublevel_set(MarketSpace(np.full(n, 1.0 / n)), builtin_deviation("std_dev"), 1.0)
    with pytest.raises(SetError, match="permutations"):
        check_property(A, "law_invariant", trials=1)


def test_law_invariance_counterexample_is_the_first_failing_permutation():
    A = NEGATIVE_CONTROLS["law_invariant"]
    report = check_property(A, "law_invariant", seed=5)
    x = np.array(report.counterexample["x"])
    orbit = [list(p) for p in itertools.permutations(range(3))]
    first = next(p for p in orbit if not member(A, x[p]))
    assert member(A, x) and report.counterexample["perm"] == first


def recording(A):
    """``A`` with oracles that log each call: ``"one"`` for ``membership``,
    and the row count of each ``row_membership`` batch."""
    calls = []

    def one(x):
        calls.append("one")
        return A.membership(x)

    def rows(X):
        calls.append(len(X))
        return A.row_membership(X)

    return replace(A, membership=one, row_membership=rows), calls


@pytest.mark.parametrize("prop", list(FALSIFIERS))
def test_a_falsifier_asks_each_case_in_batches(prop):
    # a set where every case holds, and one where cases fail early: the
    # report is the same as the plain set's, and no case asks one position
    for A in (sublevel_set(UNIFORM3, builtin_deviation("std_dev"), 1.0),
              ball_set(UNIFORM3, 2.0, 0.5, center=[2.0, 2.0, -1.0])):
        R, calls = recording(A)
        assert check_property(R, prop, trials=20, seed=3) == check_property(A, prop, trials=20, seed=3)
        assert calls and "one" not in calls, (A.label, calls)


@pytest.mark.parametrize("prop, grid", [("strongly_star_shaped", RAY_POINTS), ("absorbing", 41)])
def test_a_ray_case_asks_its_whole_scale_grid_in_one_call(prop, grid):
    R, calls = recording(sublevel_set(UNIFORM3, builtin_deviation("std_dev"), 1.0))
    assert check_property(R, prop, trials=20, seed=3).trials == 20
    assert calls == [grid] * 20


def test_unknown_property_raises():
    A = sublevel_set(BINARY, builtin_deviation("std_dev"), 1.0)
    with pytest.raises(SetError):
        check_property(A, "frobnication")


# --- JSON set descriptions ---------------------------------------------------------------------

def test_set_from_json_kinds():
    doc = {"kind": "combine", "op": "union", "of": [
        {"kind": "sublevel", "measure": {"measure": "std_dev"}, "k": 1.0},
        {"kind": "ball", "p": 2, "radius": 0.5},
    ]}
    A = set_from_json(BINARY, doc)
    assert member(A, [0.1, 0.1])
    doc = {"kind": "add_constants", "of": {"kind": "ball", "p": 2, "radius": 1.0}}
    A = set_from_json(BINARY, doc)
    assert member(A, [5.0, 5.0])
    with pytest.raises(SetError):
        set_from_json(BINARY, {"kind": "mystery"})
