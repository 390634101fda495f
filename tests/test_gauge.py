"""Gauge solvers: extended-real semantics, brackets, the bound on oracle calls."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkdev import gauge, market, suite
from minkdev.deviations import AxiomFlags, builtin_deviation, builtin_error, check_axioms
from minkdev.gauge import (
    GaugeOptions,
    deviation_from_set,
    gauge_table,
    minkowski_gauge,
    shift_infimum_gauge,
)
from minkdev.duality import Polytope
from minkdev.market import MarketError, MarketSpace
from minkdev.suite import check_axiom_propagation
from minkdev.sets import (
    AcceptanceSet,
    SetFlags,
    add_constants,
    ball_set,
    combine,
    law_invariant_hull,
    scale_set,
    star_hull,
    sublevel_set,
)

BINARY = MarketSpace(np.array([0.25, 0.75]))
UNIFORM3 = MarketSpace(np.full(3, 1.0 / 3.0))
SPACE4 = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))

TIGHT = GaugeOptions(tol_rel=1e-11, tol_abs=1e-13)


def constants_line(space):
    return AcceptanceSet(
        space=space,
        membership=lambda x: float(np.ptp(x)) <= 1e-12,
        flags=SetFlags(star_shaped=True, convex=True, closed=True, stable_scalar_add=True),
        label="constants",
    )


def empty_set(space):
    return AcceptanceSet(space=space, membership=lambda x: False,
                         flags=SetFlags(star_shaped=True), label="empty")


def whole_space(space):
    return AcceptanceSet(space=space, membership=lambda x: True,
                         flags=SetFlags(star_shaped=True, convex=True, closed=True),
                         label="all")


# --- gauge of a ball equals the norm ---------------------------------------

def test_gauge_of_unit_ball_is_the_weighted_norm():
    A = ball_set(UNIFORM3, p=2.0, radius=1.0)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-4, 4, size=3)
        want = math.sqrt(float(UNIFORM3.probs @ (x * x)))
        got = minkowski_gauge(A, x, TIGHT)
        assert got.value == pytest.approx(want, rel=1e-9)
        lo, hi = got.bracket
        assert lo <= want <= hi or want == pytest.approx(hi, rel=1e-9)


def test_gauge_extended_real_cases():
    x = np.array([1.0, 2.0, 3.0])
    assert minkowski_gauge(empty_set(UNIFORM3), x).value == math.inf
    assert minkowski_gauge(whole_space(UNIFORM3), x).value == 0.0
    # constants line: infinite on non-constants, zero on constants
    line = constants_line(UNIFORM3)
    assert minkowski_gauge(line, x).value == math.inf
    assert minkowski_gauge(line, np.array([2.0, 2.0, 2.0])).value == 0.0


def test_gauge_at_zero_position():
    A = ball_set(UNIFORM3, p=2.0, radius=1.0)
    res = minkowski_gauge(A, np.zeros(3))
    assert res.value == 0.0 and res.attained == "yes"
    res = minkowski_gauge(empty_set(UNIFORM3), np.zeros(3))
    assert res.value == math.inf


def test_boundary_point_and_attainment():
    A = ball_set(UNIFORM3, p=2.0, radius=1.0)
    x = np.array([2.0, -1.0, 0.5])
    res = minkowski_gauge(A, x, TIGHT)
    assert res.attained == "yes"
    assert A.membership(res.boundary_point)
    # just inside the bracket on the non-member side
    assert not A.membership(x / (res.value * (1 - 1e-6)))
    assert A.membership(x / (res.value * (1 + 1e-6)))


@pytest.mark.parametrize("tols", [dict(tol_rel=math.nan), dict(tol_abs=math.nan),
                                  dict(tol_rel=math.inf), dict(tol_abs=math.inf),
                                  dict(tol_abs=-1e-12), dict(tol_rel=0.0, tol_abs=0.0),
                                  dict(tol_rel=gauge.EPS / 2)],
                         ids=["nan_rel", "nan_abs", "inf_rel", "inf_abs", "negative_abs",
                              "zero", "below_eps"])
def test_options_reject_tolerances_bisection_cannot_meet(tols):
    # with a NaN tolerance the scalar walk stops at once (max drops it)
    # and the table never stops (np.maximum keeps it); with 0 neither stops
    # once the bracket is two adjacent floats
    with pytest.raises(ValueError):
        GaugeOptions(**tols)


def test_options_accept_machine_epsilon_and_zero_absolute_tolerance():
    A = ball_set(UNIFORM3, p=2.0)
    x = np.array([3.0, 1.0, -2.0])
    for opts in (GaugeOptions(tol_rel=gauge.EPS, tol_abs=0.0),
                 GaugeOptions(tol_rel=gauge.EPS, tol_abs=gauge.EPS)):
        lo, hi = minkowski_gauge(A, x, opts).bracket
        assert 0.0 < hi - lo <= gauge.EPS * hi


BAD_POSITIONS = {
    "nan": [math.nan, 1.0, 2.0, 3.0],
    "inf": [1.0, math.inf, 2.0, 3.0],
    "short": [1.0, 2.0, 3.0],
    "long": [1.0, 2.0, 3.0, 4.0, 5.0],
    "matrix": [[1.0, 2.0, 3.0, 4.0]],
}


@pytest.mark.parametrize("bad", list(BAD_POSITIONS), ids=list(BAD_POSITIONS))
@pytest.mark.parametrize("solver", [minkowski_gauge, shift_infimum_gauge],
                         ids=["gauge", "shift_infimum"])
def test_solvers_reject_invalid_positions(solver, bad):
    A = ball_set(SPACE4, p=2.0, radius=1.0)
    with pytest.raises(MarketError):
        solver(A, BAD_POSITIONS[bad])


def test_grid_fallback_marks_approximate():
    # same ball but with no structural declarations: forces the grid scan
    ball = ball_set(UNIFORM3, p=2.0, radius=1.0)
    blank = AcceptanceSet(space=UNIFORM3, membership=ball.membership, flags=SetFlags())
    x = np.array([2.0, -1.0, 0.5])
    res = minkowski_gauge(blank, x)
    want = minkowski_gauge(ball, x, TIGHT).value
    assert res.approximate
    assert res.value == pytest.approx(want, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=3, max_size=3), st.floats(0.05, 20.0))
def test_gauge_positive_homogeneity(values, lam):
    A = ball_set(UNIFORM3, p=2.0, radius=1.0)
    x = np.array(values)
    gx = minkowski_gauge(A, x, TIGHT).value
    glx = minkowski_gauge(A, lam * x, TIGHT).value
    assert glx == pytest.approx(lam * gx, rel=1e-8, abs=1e-10)


def test_grid_fallback_ends():
    x = np.array([1.0, -1.0, 0.5])
    never = AcceptanceSet(space=UNIFORM3, membership=lambda z: False, flags=SetFlags())
    always = AcceptanceSet(space=UNIFORM3, membership=lambda z: True, flags=SetFlags())
    zero, inf = minkowski_gauge(always, x), minkowski_gauge(never, x)
    assert zero.approximate and zero.value == 0.0 and zero.bracket == (0.0, gauge.M_MIN)
    assert zero.oracle_calls == 1  # the scan starts at the bottom of the grid
    assert inf.approximate and inf.value == math.inf and inf.bracket == (gauge.M_CAP, math.inf)


def _recording(A, flags=None):
    """``A`` with its flags replaced by ``flags`` and every asked point recorded."""
    asked = []

    def member(z):
        asked.append(tuple(z))
        return A.membership(z)
    return AcceptanceSet(space=A.space, membership=member,
                         flags=A.flags if flags is None else flags), asked


@pytest.mark.parametrize("path", ["gauge", "gauge_grid"])
def test_no_solve_asks_the_same_scale_twice(path):
    A, asked = _recording(ball_set(UNIFORM3, p=2.0, radius=1.0),
                          SetFlags() if path.endswith("grid") else None)
    rng = np.random.default_rng(6)
    # [3, 1, -2] misses at m = 1 (gauge 2.16), [0.2, -0.1, 0.3] hits there
    positions = [np.array([3.0, 1.0, -2.0]), np.array([0.2, -0.1, 0.3])]
    for x in positions + [rng.uniform(-8, 8, size=3) for _ in range(8)]:
        asked.clear()
        res = minkowski_gauge(A, x, TIGHT)
        assert len(asked) == res.oracle_calls
        assert len(set(asked)) == len(asked)


# --- the bound on oracle calls ------------------------------------------------

#: The tightest tolerance ``GaugeOptions`` accepts, where bisection runs longest.
FINEST = GaugeOptions(tol_rel=gauge.EPS, tol_abs=0.0)

#: A direction of sup norm 1: with the oracle ``max|z| <= 1``, the gauge of
#: ``g * RAY`` is ``g``.
RAY = np.array([1.0, -0.5, 0.25])


def _most_calls(grid: bool) -> int:
    """The most membership calls one walk can make, from the module's
    constants (the ``gauge`` docstring derives it)."""
    steps = math.ceil(math.log2(gauge.M_CAP)) - 1                # doublings
    assert steps == math.ceil(-math.log2(gauge.M_MIN)) - 1       # and halvings
    if not grid:
        # ask 1, double or halve, then bisect [2^(k-1), 2^k]: 1 / EPS float gaps
        return 1 + steps + math.ceil(math.log2(1.0 / gauge.EPS))
    scales = int(gauge.RAY_GRID * (math.log10(gauge.M_CAP) - math.log10(gauge.M_MIN)))
    ratio = (gauge.M_CAP / gauge.M_MIN) ** (1.0 / (scales - 1))
    # scan every scale, then bisect a cell of fewer than 2 (ratio - 1) / EPS gaps
    return scales + math.ceil(math.log2(2.0 * (ratio - 1.0) / gauge.EPS))


def _hashed(seed):
    """Seeded coin flips, one per point asked, the same alone and in a batch."""
    def member(Z):
        rows = np.reshape(Z, (-1, Z.shape[-1]))
        bits = [hashlib.sha256(seed.to_bytes(2, "little") + z.tobytes()).digest()[0] & 1
                for z in rows]
        return np.array(bits, dtype=bool).reshape(Z.shape[:-1])
    return member


def _alternating():
    """Member on every other call, whatever is asked."""
    calls = []

    def member(Z):
        calls.append(1)
        return np.full(Z.shape[:-1], len(calls) % 2 == 0)
    return member


def _keeps_the_larger_half(lo, hi):
    """The slowest answers for the ray ``RAY``: a threshold at scale ``hi``
    until the walk brackets ``[lo, hi]``, then, at each midpoint, the answer
    that leaves the larger half open (the lower half on a tie)."""
    bracket = [None, None]

    def member(Z):
        z0 = np.ravel(Z)[0]                      # 1 / m, the scale asked
        if None in bracket:
            hit = bool(z0 <= 1.0 / hi)
            if z0 == 1.0 / (hi if hit else lo):
                bracket[hit] = hi if hit else lo
            return np.full(Z.shape[:-1], hit)
        a, b = bracket
        m = 0.5 * (a + b)
        assert z0 == 1.0 / m                     # the walk asks the midpoint
        hit = m - a >= b - m
        bracket[hit] = m
        return np.full(Z.shape[:-1], hit)
    return member


def _adversaries(grid: bool, pure: bool = False):
    """``(oracle, X)`` pairs: threshold sets whose gauges sweep past both ends
    of ``[M_MIN, M_CAP]``, always and never members, alternating and
    seeded-random answers, and the slowest answers in the cell bisected
    last.  ``pure`` leaves out the two that answer by the count of calls
    (alternating and slowest), so each oracle left answers a point the same
    whatever else it is asked."""
    k = np.arange(-40, 41, 13 if grid else 1)
    rng = np.random.default_rng(24)
    gauges = np.concatenate([1.5 * 2.0 ** k, 2.0 ** k * (1.0 + 2.0 ** -40),
                             [gauge.M_MIN, gauge.M_CAP], np.exp(rng.uniform(-30.0, 30.0, 8))])
    yield (lambda Z: np.max(np.abs(Z), axis=-1) <= 1.0), np.outer(gauges, RAY)
    X = np.outer(np.exp(rng.uniform(-30.0, 30.0, 6)), RAY)
    yield (lambda Z: np.ones(Z.shape[:-1], dtype=bool)), X
    yield (lambda Z: np.zeros(Z.shape[:-1], dtype=bool)), X
    if not pure:
        yield _alternating(), X
    for seed in range(4):
        yield _hashed(seed), X
    if pure:
        return
    # the cell bisected last: the scan's top cell, or the last doubling's
    scanned = []
    gauge._grid_scan(lambda m: scanned.append(m))
    cell = tuple(scanned[-2:]) if grid else (2.0 ** 38, 2.0 ** 39)
    yield _keeps_the_larger_half(*cell), RAY[None, :]


@pytest.mark.parametrize("engine", ["scalar", "lockstep_one_row", "lockstep", "scalar_grid"])
def test_every_walk_ends_within_the_call_bound(engine):
    grid = engine.endswith("grid")
    assert _most_calls(grid) == (1585 if grid else 92)          # the figures the docstring gives
    flags = SetFlags() if grid else SetFlags(star_shaped=True)
    calls = []
    for member, X in _adversaries(grid):
        A = AcceptanceSet(space=UNIFORM3, membership=member, flags=flags, row_membership=member)
        if engine == "lockstep":
            [column] = gauge._lockstep([A], X, FINEST)
        elif engine == "lockstep_one_row":
            column = [gauge._lockstep([A], x[None, :], FINEST)[0][0] for x in X]
        else:
            column = [minkowski_gauge(A, x, FINEST) for x in X]
        calls += [res.oracle_calls for res in column]
    assert max(calls) == _most_calls(grid)      # within the bound, which is reached


# --- the walk in rounds ----------------------------------------------------------

def sequential_gauge(A, x, opts):
    """The reference walk: ``minkowski_gauge``'s step rule, asking one scale
    per ``membership`` call."""
    x = np.asarray(x, dtype=float)
    member = A.membership
    approximate = A.flags.star_shaped is not True
    lo, hi, calls = 0.0, math.inf, 0

    def past(m):
        nonlocal lo, hi, calls
        calls += 1
        hit = bool(member(x / m))
        if hit:
            hi = m
        else:
            lo = m
        return hit

    if not np.any(x):
        hit = past(1.0)
        value = 0.0 if hit else math.inf
        return gauge.GaugeResult(value=value, bracket=(value, value),
                                 attained="yes" if hit else "no", oracle_calls=calls)
    if approximate:
        lo, hi = gauge._grid_scan(past)
    while True:
        m = 0.5 * (lo + hi) if hi < math.inf else (2.0 * lo or 1.0)
        if lo == 0.0 and m < gauge.M_MIN:
            return gauge._result(A, x, lo, gauge.M_MIN, calls, approximate)
        if hi == math.inf and m > gauge.M_CAP:
            return gauge._result(A, x, gauge.M_CAP, hi, calls, approximate)
        if lo > 0.0 and hi < math.inf and hi - lo <= max(opts.tol_abs, opts.tol_rel * hi):
            return gauge._result(A, x, lo, hi, calls, approximate)
        past(m)


def _bits(res):
    """Every field of a ``GaugeResult``, ``boundary_point`` as its bytes."""
    point = None if res.boundary_point is None else res.boundary_point.tobytes()
    return (res.value, res.bracket, res.attained, res.oracle_calls, point, res.approximate)


def _parity_sets(space, rng):
    """The catalogue's sets and the composite kinds, on ``space``."""
    n = space.n
    sets = [sublevel_set(space, builtin_deviation(name, **kw), k)
            for (name, kw), k in zip(CATALOGUE, (0.5, 2.0, 1.0, 0.7, 1.3, 1.0, 0.9, 1.6))]
    sets += [ball_set(space, p, 1.3) for p in (1.0, 2.0, 3.0, math.inf)]
    halfspaces = _halfspace_polytope(space, rng).as_acceptance_set()
    sublevel = sublevel_set(space, builtin_deviation("lr"), 1.0)
    sets += [halfspaces, add_constants(ball_set(space, 2.0, 0.8)),
             add_constants(ball_set(space, math.inf, 1.2)), add_constants(halfspaces),
             star_hull(sublevel), star_hull(ball_set(space, 3.0)),
             combine("union", ball_set(space, 1.0, 0.5), star_hull(sublevel)),
             scale_set(add_constants(ball_set(space, 2.0, 1.1)), 2.5),
             scale_set(star_hull(halfspaces), 0.4)]
    if space.is_uniform():
        sets += [law_invariant_hull(halfspaces),
                 combine("intersection", halfspaces, law_invariant_hull(sublevel))]
    return sets


def _parity_rows(rng, n):
    """Random rows over many decades, the zero row, constant rows, and one
    direction at scales from 1e-15 to 1e14."""
    d = rng.uniform(-1.0, 1.0, size=n)
    return np.vstack([_positions(rng, 4, n), np.zeros(n), np.full(n, 2.5), np.full(n, -1e-3),
                      np.outer(10.0 ** np.array([-15, -11, -7, -3, 0, 3, 7, 11, 14]), d)])


@pytest.mark.parametrize("n", range(2, 9))
def test_walk_in_rounds_has_the_bits_of_the_sequential_walk(n):
    rng = np.random.default_rng(40 + n)
    spaces = [MarketSpace(np.full(n, 1.0 / n))]
    if n <= 4:
        w = rng.uniform(0.5, 1.5, size=n)
        spaces.append(MarketSpace(w / w.sum()))
    batched = 0
    for space in spaces:
        X = _parity_rows(rng, n)
        for A in _parity_sets(space, rng):
            batched += A.row_membership is A.membership and A.flags.star_shaped is True
            for opts in (gauge.DEFAULT_OPTIONS, GaugeOptions(tol_rel=1e-6, tol_abs=1e-3), FINEST):
                for x in X:
                    assert _bits(minkowski_gauge(A, x, opts)) == _bits(sequential_gauge(A, x, opts)), \
                        (A.label, x, opts)
    assert batched >= 16 * len(spaces)            # most of them walk in rounds


@pytest.mark.parametrize("scale_range", [(0.3, 1.5), (0.125, 8.0), (1e-3, 1e5)])
def test_walk_in_rounds_has_the_bits_of_the_sequential_walk_in_other_scale_ranges(scale_range,
                                                                                   monkeypatch):
    monkeypatch.setattr(gauge, "M_MIN", scale_range[0])
    monkeypatch.setattr(gauge, "M_CAP", scale_range[1])
    rng = np.random.default_rng(47)
    space = MarketSpace(np.full(4, 0.25))
    X = _parity_rows(rng, 4)
    for A in _parity_sets(space, rng):
        for opts in (gauge.DEFAULT_OPTIONS, FINEST):
            for x in X:
                assert _bits(minkowski_gauge(A, x, opts)) == _bits(sequential_gauge(A, x, opts))


def test_walk_in_rounds_has_the_bits_of_the_sequential_walk_on_adversaries():
    # the oracles that answer each point the same whatever else is asked:
    # thresholds past both ends of the scale range, always, never, and
    # seeded coin flips (not monotone along the ray)
    for member, X in _adversaries(grid=False, pure=True):
        A = AcceptanceSet(space=UNIFORM3, membership=member, flags=SetFlags(star_shaped=True),
                          row_membership=member)
        for x in X:
            assert _bits(minkowski_gauge(A, x, FINEST)) == _bits(sequential_gauge(A, x, FINEST))


def _logged(A, one_call=False):
    """A copy of ``A`` that logs the shape of every query to its oracles,
    answering both shapes with one function when ``one_call``."""
    asked = []

    def member(Z):
        asked.append(np.shape(Z))
        return A.membership(Z)

    def rows(Z):
        asked.append(Z.shape)
        return A.row_membership(Z)
    return AcceptanceSet(A.space, member, A.flags, A.label, member if one_call else rows), asked


def test_walk_asks_in_rounds_only_a_one_call_set():
    # a fan-out would multiply its inner rows by a round's, and a set whose
    # membership is not its row oracle may answer one position only: each is
    # asked one position per call
    rng = np.random.default_rng(48)
    space = MarketSpace(np.full(4, 0.25))
    ball = ball_set(space, 2.0)
    off_centre, asked_scan = _logged(ball_set(space, 2.0, 0.5, center=[0.3, 0.0, -0.2, 0.1]))
    polytope, asked_orbit = _logged(_halfspace_polytope(space, rng).as_acceptance_set())
    ball3, asked_shifts = _logged(ball_set(space, 3.0, 0.8))
    assert polytope.orbit_membership is None and ball3.shift_interval is None
    fan_outs = [(star_hull(off_centre, resolution=32), asked_scan, {(32, 4)}),
                (law_invariant_hull(polytope), asked_orbit, {(24, 4)}),
                (add_constants(ball3), asked_shifts, {(7, 4), (256, 4)})]
    asked_one = []

    def one(x):
        asked_one.append(x.shape)
        return bool(ball.membership(x))
    single = [AcceptanceSet(space, one, ball.flags),                     # membership alone
              replace(ball, membership=one),                             # replaced membership
              AcceptanceSet(space, one, SetFlags(), row_membership=one)]  # not star-shaped
    X = _positions(rng, 6, 4)
    for C, asked, shapes in fan_outs:
        assert C.flags.star_shaped is True and C.row_membership is not C.membership
        for x in X:
            asked.clear()
            res = minkowski_gauge(C, x)
            # one fan-out per position asked: its batch, and the shift grid
            # only after the candidates
            assert set(asked) <= shapes and asked.count(min(shapes)) == res.oracle_calls
    for A in single:
        for x in X:
            asked_one.clear()
            res = minkowski_gauge(A, x)
            assert asked_one == [(4,)] * res.oracle_calls
    # a one-call set is asked rounds of at most 15 rows; at the finest
    # tolerance the adversaries' walks reach the bound of 92 scales on their
    # path, in at most 24 rounds
    most_rounds = 0
    for member, X in _adversaries(grid=False, pure=True):
        A, asked = _logged(AcceptanceSet(UNIFORM3, member, SetFlags(star_shaped=True),
                                         row_membership=member), one_call=True)
        for x in X:
            asked.clear()
            res = minkowski_gauge(A, x, FINEST)
            assert all(len(shape) == 2 and 1 <= shape[0] <= 15 for shape in asked)
            assert len(asked) <= res.oracle_calls
            most_rounds = max(most_rounds, len(asked))
    assert most_rounds == 24


# --- gauge table ---------------------------------------------------------------

SUITE = GaugeOptions(tol_rel=1e-9, tol_abs=1e-13)

CATALOGUE = [("variance", {}), ("std_dev", {}), ("lower_semidev", {}), ("lr", {}),
             ("ur", {}), ("frd", {}), ("esd", {"alpha": 0.1}), ("esd", {"alpha": 0.5})]


def _same(a, b):
    """``GaugeResult``s equal field for field, ``boundary_point`` bit for bit."""
    if (a.boundary_point is None) != (b.boundary_point is None):
        return False
    return (a.value == b.value and a.bracket == b.bracket and a.attained == b.attained
            and a.oracle_calls == b.oracle_calls and a.approximate == b.approximate
            and (a.boundary_point is None or np.array_equal(a.boundary_point, b.boundary_point)))


def _assert_table_equals_cells(sets, X, opts):
    table = gauge_table(sets, X, opts)
    assert len(table) == len(sets) and all(len(column) == len(X) for column in table)
    for A, column in zip(sets, table):
        for x, res in zip(X, column):
            assert _same(res, minkowski_gauge(A, x, opts)), (A.label, x)
    return table


def _halfspace_polytope(space, rng):
    n = space.n
    rows = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(n, n))])
    return Polytope.from_halfspaces(space, rows, rng.uniform(0.5, 2.0, size=len(rows)))


def _positions(rng, count, n):
    """Positions over several decades of scale, so cells halve, double and
    bisect for different numbers of steps."""
    return rng.uniform(-1.0, 1.0, size=(count, n)) * np.exp(rng.uniform(-6.0, 6.0, size=(count, 1)))


@pytest.mark.parametrize("opts, scale_range",
                         [(GaugeOptions(), None), (SUITE, None), (GaugeOptions(), (0.3, 1.5))],
                         ids=["default", "suite", "narrow_range"])
def test_table_equals_each_cell_over_the_catalogue(opts, scale_range, monkeypatch):
    if scale_range is not None:
        monkeypatch.setattr(gauge, "M_MIN", scale_range[0])
        monkeypatch.setattr(gauge, "M_CAP", scale_range[1])
    rng = np.random.default_rng(11)
    for n in (2, 5):
        w = rng.uniform(0.5, 1.5, size=n)
        space = MarketSpace(w / w.sum())
        sets = [sublevel_set(space, builtin_deviation(name, **kw), k)
                for name, kw in CATALOGUE for k in (0.5, 2.0)]
        sets += [ball_set(space, p, 1.3) for p in (1.0, 2.0, 3.0, math.inf)]
        sets.append(_halfspace_polytope(space, rng).as_acceptance_set())
        assert all(A.flags.star_shaped is True for A in sets)
        _assert_table_equals_cells(sets, _positions(rng, 25, n), opts)


def test_suite_sets_answer_batches_row_by_row_and_tabulate_cell_by_cell():
    rng = np.random.default_rng(21)
    uniform4 = MarketSpace(np.full(4, 0.25))
    admissible = [suite._admissible_set(rng, uniform4, convex=convex, law_invariant=law)
                  for convex in (True, False) for law in (True, False)]
    bodies = [suite._star_body(rng, UNIFORM3) for _ in range(6)]
    assert [A.flags.law_invariant for A in admissible] == [True, None, True, None]
    assert [A.flags.convex for A in admissible] == [True, True, None, None]
    assert {A.flags.convex for A in bodies} == {True, None}      # one norm and two
    for A in admissible + bodies:
        assert A.flags.star_shaped is True
        X = _positions(rng, 30, A.space.n)
        assert A.row_membership(X).tolist() == [bool(A.membership(x)) for x in X]
        _assert_table_equals_cells([A], X, SUITE)


def test_table_mixes_batched_scalar_only_and_grid_cells():
    rng = np.random.default_rng(12)
    ball = ball_set(UNIFORM3, p=2.0, radius=1.0)
    user = AcceptanceSet(space=UNIFORM3, membership=lambda x: bool(ball.membership(x)),
                         flags=ball.flags, label="user")           # scalar-only
    blank = AcceptanceSet(space=UNIFORM3, membership=ball.membership, flags=SetFlags(),
                          row_membership=ball.membership, label="blank")  # grid fallback
    sd = sublevel_set(UNIFORM3, builtin_deviation("std_dev"), 1.0)
    table = _assert_table_equals_cells([sd, user, blank, ball], _positions(rng, 12, 3), SUITE)
    assert all(res.approximate for res in table[2])
    assert not any(res.approximate for res in table[0] + table[1] + table[3])


def test_table_zero_constant_and_infinite_rows():
    on_line = lambda x: np.ptp(x, axis=-1) <= 1e-12
    line = AcceptanceSet(space=BINARY, membership=on_line,
                         flags=SetFlags(star_shaped=True, closed=True), row_membership=on_line)
    cone = Polytope.from_halfspaces(BINARY, np.array([[3.0, -1.0], [-3.0, 1.0]]),
                                    np.zeros(2)).as_acceptance_set()
    sets = [sublevel_set(BINARY, builtin_deviation("std_dev"), 1.0), line, cone,
            ball_set(BINARY, 2.0), empty_set(BINARY)]
    X = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, -1.0], [-3.0, -3.0], [0.5, 4.0]])
    table = _assert_table_equals_cells(sets, X, SUITE)
    sd, line, cone, ball, empty = table
    assert [r.value for r in sd[:2]] == [0.0, 0.0]                 # zero and constant rows
    assert line[2].value == cone[2].value == math.inf              # off the constants line
    assert line[1].value == cone[1].value == 0.0
    assert ball[0].value == 0.0 and ball[0].attained == "yes"
    assert all(r.value == math.inf for r in empty)


def test_table_validates_rows():
    A = ball_set(SPACE4, p=2.0)
    for bad in ([[1.0, 2.0, math.nan, 0.0]], [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(MarketError):
            gauge_table([A], bad)
    assert gauge_table([A], np.empty((0, 4))) == [[]]
    assert gauge_table([], np.ones((2, 4))) == []


def test_table_never_asks_a_finished_row_again():
    ball = ball_set(UNIFORM3, p=2.0)
    batches = []

    def member(X):
        if X.ndim == 2:
            batches.append(len(X))
        return ball.membership(X)
    A = AcceptanceSet(space=UNIFORM3, membership=member, flags=ball.flags, row_membership=member)
    X = _positions(np.random.default_rng(14), 40, 3)
    [column] = gauge_table([A], X, SUITE)
    calls = np.array([res.oracle_calls for res in column])
    # step t asks exactly the rows whose solve needs a t-th call
    assert batches == [int(np.sum(calls >= t)) for t in range(1, calls.max() + 1)]


def test_table_keeps_halving_below_a_large_absolute_tolerance():
    # the gauges are about 1e-6, far below tol_abs: a cell halving from 1
    # has hi < tol_abs long before it first misses, and must not stop there
    rng = np.random.default_rng(22)
    opts = GaugeOptions(tol_rel=1e-10, tol_abs=1e-3)
    sets = [sublevel_set(SPACE4, builtin_deviation(name, **kw), 1.0) for name, kw in CATALOGUE]
    X = rng.uniform(-1.0, 1.0, size=(4, 4)) * 1e-6
    table = _assert_table_equals_cells(sets + [ball_set(SPACE4, p=2.0)], X, opts)
    for res in (res for column in table for res in column):
        lo, hi = res.bracket
        assert 0.0 < lo < hi < 1e-3 and res.value == hi


def test_table_at_machine_epsilon_as_the_cli_builds_it():
    eps = gauge.EPS
    opts = GaugeOptions(tol_rel=eps, tol_abs=min(eps, 1e-12))
    rng = np.random.default_rng(23)
    space = MarketSpace(np.array([0.15, 0.25, 0.6]))
    sets = [sublevel_set(space, builtin_deviation(name, **kw), 2.0) for name, kw in CATALOGUE]
    sets += [ball_set(space, p, 1.3) for p in (1.0, 2.0, math.inf)]
    table = _assert_table_equals_cells(sets, _positions(rng, 6, 3), opts)
    for res in (res for column in table for res in column):
        lo, hi = res.bracket
        assert 0.0 < hi - lo <= max(opts.tol_abs, eps * hi)


def test_table_cells_floor_cap_settle_and_run_out_on_one_step(monkeypatch):
    # scale range [1/8, 8]: after 4 scales the 0.01 row would halve below
    # the floor, the 100 row double past the cap, and the 1.3 row has
    # narrowed to [1.25, 1.5], within tol_abs
    monkeypatch.setattr(gauge, "M_MIN", 0.125)
    monkeypatch.setattr(gauge, "M_CAP", 8.0)
    opts = GaugeOptions(tol_rel=1e-10, tol_abs=0.25)
    ball = ball_set(UNIFORM3, p=2.0)
    d = np.array([3.0, 1.0, -2.0])
    d /= math.sqrt(float(UNIFORM3.probs @ (d * d)))             # gauge 1
    X = np.outer([0.01, 100.0, 1.3], d)
    [column] = gauge._lockstep([ball], X, opts)
    for res, x in zip(column, X):
        assert res.oracle_calls == 4 and _same(res, minkowski_gauge(ball, x, opts))
    assert [res.bracket for res in column] == [(0.0, 0.125), (8.0, math.inf), (1.25, 1.5)]


@pytest.mark.parametrize("scale", [1e-14, 1e-3, 1.0, 7.5, 1e13])   # floor, bisect, cap
def test_scalar_walk_asks_the_scales_of_a_one_row_lockstep_table(scale):
    # the scalar walk asks a one-call set in rounds, so its calls are not
    # the lockstep's one row per step: the lockstep asks exactly the scales
    # on the walk's path, which the reference walk asks one per call, in
    # its order, each a row of one of the scalar walk's rounds
    ball = ball_set(UNIFORM3, p=2.0)
    asked = []

    def member(Z):
        asked.append(np.reshape(Z, (-1, Z.shape[-1])).tolist())
        return ball.membership(Z)
    A = AcceptanceSet(space=UNIFORM3, membership=member, flags=ball.flags, row_membership=member)
    x = scale * np.array([3.0, 1.0, -2.0])
    for opts in (SUITE, GaugeOptions(tol_rel=1e-6, tol_abs=1e-3)):
        asked.clear()
        res = minkowski_gauge(A, x, opts)
        rounds = list(asked)
        asked.clear()
        sequential_gauge(A, x, opts)
        path = list(asked)
        asked.clear()
        [[cell]] = gauge._lockstep([A], x[None, :], opts)
        assert asked == path and len(path) == res.oracle_calls and _same(cell, res)
        b = 0                                    # each step in the current round or a later one
        for [row] in path:
            b = next(k for k in range(b, len(rounds)) if row in rounds[k])
        assert len(rounds) < len(path)


K = gauge.LOCKSTEP_MIN_CELLS


def test_table_asks_the_constructor_oracle_not_a_replaced_membership():
    ball = ball_set(UNIFORM3, p=2.0)
    asked = []

    def one_position(x):
        asked.append(x.shape)
        return bool(ball.membership(x))
    watched = replace(ball, membership=one_position)
    rng = np.random.default_rng(15)
    for rows in (K - 1, K):
        asked.clear()
        X = _positions(rng, rows, 3)
        [column] = gauge_table([watched], X, SUITE)
        assert all(_same(a, minkowski_gauge(ball, x, SUITE)) for a, x in zip(column, X))
        if rows < K:   # cell by cell: the wrapper, one position per call
            assert asked and set(asked) == {(3,)}
        else:          # lockstep: only the constructor's row oracle
            assert asked == []


@pytest.mark.parametrize("cells", sorted({1, 7, 8, 9, K - 1, K, K + 1}))
def test_table_equals_cells_on_both_sides_of_the_lockstep_size(cells):
    rng = np.random.default_rng(16)
    sd = sublevel_set(SPACE4, builtin_deviation("std_dev"), 1.0)
    ball = ball_set(SPACE4, p=3.0, radius=0.5)
    _assert_table_equals_cells([sd], _positions(rng, cells, 4), SUITE)          # one set
    _assert_table_equals_cells([(sd, ball)[j % 2] for j in range(cells)],       # one row
                               _positions(rng, 1, 4), SUITE)


def test_table_below_the_lockstep_size_hands_row_membership_no_batch(monkeypatch):
    ball = ball_set(UNIFORM3, p=2.0)
    batches, entered, lockstep = [], [], gauge._lockstep

    def watched(sets, X, opts):
        entered.append(len(sets))
        return lockstep(sets, X, opts)
    monkeypatch.setattr(gauge, "_lockstep", watched)

    def rows(X):
        batches.append(len(X))
        return ball.membership(X)
    A = AcceptanceSet(space=UNIFORM3, membership=ball.membership, flags=ball.flags,
                      row_membership=rows)
    grid = AcceptanceSet(space=UNIFORM3, membership=ball.membership, flags=SetFlags(),
                         row_membership=rows)                 # not star-shaped: never counted
    rng = np.random.default_rng(18)
    X = _positions(rng, K, 3)
    below = [([A], X[:-1]), ([A] * (K - 1), X[:1]), ([A, grid], X[:-1]),
             ([A], np.vstack([X[:-1], np.zeros(3)]))]         # a zero row is no cell
    for sets, Y in below:
        _assert_table_equals_cells(sets, Y, SUITE)
        assert batches == [] and entered == []     # nor is the lockstep entered
    _assert_table_equals_cells([A], X, SUITE)
    assert batches and batches[0] == K and entered == [1]


def test_composites_in_a_lockstep_table_equal_each_cell():
    rng = np.random.default_rng(19)
    ball = ball_set(UNIFORM3, p=2.0)
    composites = [
        add_constants(ball),
        star_hull(sublevel_set(UNIFORM3, builtin_deviation("lr"), 1.0), resolution=32),
        law_invariant_hull(_halfspace_polytope(UNIFORM3, rng).as_acceptance_set()),
        add_constants(star_hull(ball_set(UNIFORM3, p=1.0, center=[0.5, 0.0, 0.0]), resolution=2)),
        # exact: a shift interval of the centred rows, or the hull's own base
        add_constants(ball_set(UNIFORM3, p=math.inf, radius=0.8)),
        add_constants(_halfspace_polytope(UNIFORM3, np.random.default_rng(20)).as_acceptance_set()),
        star_hull(ball_set(UNIFORM3, p=3.0)),
        law_invariant_hull(sublevel_set(UNIFORM3, builtin_deviation("esd", alpha=0.25), 1.0)),
    ]
    X = _positions(rng, K, 3)

    def refuse(x):
        raise AssertionError("a lockstep table asks only row_membership")
    for C in composites:
        assert C.flags.star_shaped is True
        [column] = gauge_table([replace(C, membership=refuse)], X, SUITE)
        assert all(_same(a, minkowski_gauge(C, x, SUITE)) for a, x in zip(column, X))


# --- derived functionals ---------------------------------------------------------

def test_deviation_from_set_propagates_axioms():
    A = sublevel_set(SPACE4, builtin_deviation("std_dev"), 1.0)
    D = deviation_from_set(A, TIGHT)
    assert D.axioms.nonnegative is True
    assert D.axioms.translation_insensitive is True
    assert D.axioms.convex is True
    sd = builtin_deviation("std_dev")
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-4, 4, size=4)
        assert D.eval(SPACE4, x) == pytest.approx(sd.eval(SPACE4, x), abs=1e-8)
        assert D.eval(SPACE4, x) == minkowski_gauge(A, x, TIGHT).value
    for rows in (3, K + 4):                           # cell by cell, and lockstep
        X = rng.uniform(-4, 4, size=(rows, 4))
        got = D.eval(SPACE4, X)
        assert isinstance(got, np.ndarray) and got.tolist() == [D.eval(SPACE4, x) for x in X]


@pytest.mark.parametrize("bad", [np.zeros(3), np.array([0.0, 1.0, np.nan, 0.0]), 1.0, np.zeros((2, 3))],
                         ids=["length", "nan", "scalar", "batch-length"])
def test_the_gauge_functional_refuses_a_malformed_position_as_the_gauge_does(bad):
    A = ball_set(SPACE4, 2.0)
    gauge_of = minkowski_gauge if np.ndim(bad) < 2 else lambda A, X: gauge_table([A], X)
    with pytest.raises(MarketError) as expected:
        gauge_of(A, bad)
    with pytest.raises(MarketError) as got:
        deviation_from_set(A).eval(SPACE4, bad)
    assert str(got.value) == str(expected.value)


def test_the_gauge_functional_refuses_a_space_other_than_its_sets():
    # on another space the set's answer would be the wrong measure's value
    A = ball_set(MarketSpace(np.full(2, 0.5)), 2.0)
    D = deviation_from_set(A)
    assert D.eval(MarketSpace(np.array([0.5, 0.5])), [1.0, 3.0]) == minkowski_gauge(A, [1.0, 3.0]).value
    for bad in ([1.0, 3.0], np.array([[1.0, 3.0]])):
        with pytest.raises(MarketError, match="own space"):
            D.eval(MarketSpace(np.array([0.9, 0.1])), bad)


def _audited(A, space):
    """``check_axioms``' reports on the gauge of ``A``."""
    return check_axioms(deviation_from_set(A), space, trials=30)


@pytest.mark.parametrize("space", [MarketSpace(np.full(4, 0.25)), SPACE4], ids=["uniform", "weighted"])
def test_every_axiom_the_correspondence_declares_is_audited_and_holds(space):
    catalogue = [builtin_deviation(name, alpha=0.25 if name == "esd" else None)
                 for name in ("variance", "std_dev", "lower_semidev", "lr", "ur", "frd", "esd")]
    sets = [sublevel_set(space, D, 1.0) for D in catalogue if D.homogeneity_degree == 1.0]
    sets.append(add_constants(ball_set(space, 2.0)))
    for A in sets:
        D = deviation_from_set(A)
        declared = {name for name, value in vars(D.axioms).items() if value is True}
        if not space.is_uniform():
            declared.discard("law_invariant")
        reports = _audited(A, space)
        assert {r.axiom for r in reports} == declared, A.label
        assert all(r.passed for r in reports), (A.label, [r for r in reports if not r.passed])


def test_an_over_declared_set_fails_the_audit_of_its_gauge():
    ball = ball_set(SPACE4, 2.0)
    lying = replace(ball, flags=replace(ball.flags, stable_scalar_add=True))
    failed = {r.axiom for r in _audited(lying, SPACE4) if not r.passed}
    assert {"nonnegative", "translation_insensitive"} <= failed
    assert all(r.passed for r in _audited(ball, SPACE4))


def test_criterion_7_fails_when_the_correspondence_drops_convexity(monkeypatch):
    assert check_axiom_propagation(seed=0)["failures"] == 0
    monkeypatch.setattr(gauge, "FLAG_AXIOMS", {k: v for k, v in gauge.FLAG_AXIOMS.items() if k != "convex"})
    report = check_axiom_propagation(seed=0)
    assert report["passed"] is False and report["failures"] == 10      # the ten convex sets


def test_criterion_7_fails_when_a_set_drops_the_centring_but_declares_translation(monkeypatch):
    def uncentred(rng, space, convex, law_invariant):
        """``suite._admissible_set`` over norms of the position itself, not
        of the centred position, still declared translation insensitive."""
        def make(pick: int):
            p = [1.0, 2.0, math.inf][pick % 3]
            if law_invariant:
                w = np.full(space.n, float(rng.uniform(0.5, 2.0)))
            else:
                w = rng.uniform(0.5, 2.0, size=space.n)
            return lambda sp, x: market.lp_norm(sp, w * x, p)

        norms = [make(int(rng.integers(0, 3))) for _ in range(1 if convex else 2)]
        return suite._unit_set(space, norms, AxiomFlags(nonnegative=True, translation_insensitive=True,
                                                        positive_homogeneous=True, convex=True,
                                                        law_invariant=law_invariant))

    monkeypatch.setattr(suite, "_admissible_set", uncentred)
    report = check_axiom_propagation(seed=0)
    # each set fails zero on the constants and translation insensitivity
    assert report["passed"] is False and report["failures"] == 40
    assert report["max_translation_gap"] > 1e-3

def test_shift_infimum_matches_add_constants_route():
    A = sublevel_set(SPACE4, builtin_error("kb", alpha=0.1), 1.0)
    AR = add_constants(A)
    rng = np.random.default_rng(3)
    for _ in range(15):
        x = rng.uniform(-4, 4, size=4)
        via_set = minkowski_gauge(AR, x, TIGHT).value
        via_shift = shift_infimum_gauge(A, x, TIGHT).value
        assert via_shift == pytest.approx(via_set, abs=1e-6)


def test_add_constants_of_a_shift_stable_set_is_that_set():
    A = replace(sublevel_set(SPACE4, builtin_deviation("std_dev"), 1.0), label="sd")
    AR = add_constants(A)                             # A + R = A
    assert (AR.membership, AR.row_membership, AR.flags, AR.label) == \
        (A.membership, A.row_membership, A.flags, "(sd)+R")
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-4, 4, size=4)
        res = minkowski_gauge(AR, x, TIGHT)
        assert res.attained == "yes" and _same(res, minkowski_gauge(A, x, TIGHT))


def test_add_constants_gauge_vanishes_at_constants_whatever_their_level():
    AR = add_constants(ball_set(UNIFORM3, p=2.0))
    for level in (1.5, -2.0, 1e7):
        res = minkowski_gauge(AR, np.full(3, level))
        assert res.value == 0.0 and res.bracket == (0.0, gauge.M_MIN)
    # off the constants by 1e-9: the gauge is the L2 deviation, 4.71e-10,
    # within the default absolute tolerance of 1e-12
    x = np.array([1.5, 1.5, 1.5 + 1e-9])
    want = builtin_deviation("std_dev").eval(UNIFORM3, x)
    assert minkowski_gauge(AR, x).value == pytest.approx(want, rel=0.0, abs=2e-12)


def test_shift_infimum_of_ball_is_std_dev():
    ball = ball_set(SPACE4, p=2.0, radius=1.0)
    sd = builtin_deviation("std_dev")
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(-4, 4, size=4)
        res = shift_infimum_gauge(ball, x, TIGHT)
        assert res.value == pytest.approx(sd.eval(SPACE4, x), abs=1e-8)
        # the optimal shift for the L2 ball is the mean
        assert res.shift == pytest.approx(float(SPACE4.probs @ x), abs=1e-4)


def test_shift_search_solves_each_shifted_position_once(monkeypatch):
    solved = []

    def recording(A, x, opts=gauge.DEFAULT_OPTIONS):
        solved.append(x.tobytes())
        return minkowski_gauge(A, x, opts)
    monkeypatch.setattr(gauge, "minkowski_gauge", recording)
    ball = ball_set(SPACE4, p=2.0, radius=1.0)
    scanned = replace(ball, flags=replace(ball.flags, convex=None))   # scan, then golden
    rng = np.random.default_rng(25)
    for A in (ball, scanned):
        for _ in range(5):
            solved.clear()
            res = shift_infimum_gauge(A, rng.uniform(-4, 4, size=4), TIGHT)
            assert len(solved) > 30 and len(set(solved)) == len(solved)
            assert res.value == res.gauge.value
