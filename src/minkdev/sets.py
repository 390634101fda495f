"""Acceptance sets: membership oracles with structural flags.

An acceptance set is a subset of the position space of a fixed market,
represented by a membership predicate plus tri-state structural flags
(``True`` = known to hold, ``False`` = known to fail, ``None`` = unknown).
Flags are trusted by downstream numerics — e.g. the gauge solver only uses
bisection when ``star_shaped`` is declared — so constructors propagate them
conservatively, and a composite declares ``False`` only where it inherits it.
``FALSIFIERS`` holds one sampling falsifier per property: ``check_property``
runs one, and ``audit_flags`` those of the flags declared ``True``.  A
falsifier asks only ``row_membership``, each case as one batch.
``FLAG_AXIOMS`` pairs set flags with measure axioms: ``sublevel_set``
reads it from measure to set, ``gauge.deviation_from_set`` from set to gauge.

Set constructors cover sub-level sets of functionals, scalar scaling,
unions/intersections, the Minkowski sum with the constants line
(``add_constants``), star hulls, and law-invariant hulls on uniform spaces.

Membership oracles.  Every set answers one position ``(n,)`` through
``membership(x)``, a bool, and a ``(B, n)`` batch through
``row_membership(X)``, a ``(B,)`` bool array.  The leaves (sub-level sets
of row-wise functionals, balls, polytopes in either form) pass one
function that answers both shapes in one call, and so do the exact
``add_constants``, the hulls that answer with such an oracle, and
``scale_set`` and ``combine`` over such sets; any other set, a user-built one or a
composite that fans one query out, is given at construction a
``row_membership`` that asks ``membership`` row by row.  ``scale_set``
and ``combine`` pass batches through to their operands'
``row_membership``, and ``law_invariant_hull`` its batch's orbits.
``gauge.minkowski_gauge`` asks a set whose ``membership`` is its
``row_membership`` the scales of several steps of its walk in one batch,
and any other set one position per call; ``gauge.gauge_table`` asks
``row_membership`` one batch of rows per bisection step when its table
is large enough.

The fan-out composites — ``add_constants``, ``star_hull`` and
``law_invariant_hull`` — answer exactly, with no fan-out, where the
geometry allows.  ``star_hull`` of a set declared star-shaped and
``law_invariant_hull`` of a set declared law-invariant are that set, so
they answer with its own oracles.  ``law_invariant_hull`` of a set with
an ``orbit_membership`` (a polytope with facets, and scalings of one)
answers with it.  ``add_constants`` over a set with a
``shift_interval`` (polytopes in halfspace form or with hull facets,
balls with ``p = 2`` or ``p = inf``, and scalings of these) answers a
position or a batch with one call to it.
Otherwise each query is one batch to the inner set's ``row_membership``:
the scale grid, the permutation orbit, or the candidate shifts, followed
by the shift grid only if no candidate is a member.  ``law_invariant_hull``
asks the orbits of a whole batch as one batch (sliced past
``ORBIT_ROWS_MAX`` rows); the other two, nested in a
fan-out, are asked every row of its batch, one at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import market
from .deviations import measure_from_json
from .market import MarketSpace


class SetError(ValueError):
    """Raised for invalid set constructions or arguments."""


@dataclass(frozen=True)
class SetFlags:
    """Tri-state structural knowledge about an acceptance set."""

    star_shaped: bool | None = None
    convex: bool | None = None
    closed: bool | None = None
    stable_scalar_add: bool | None = None
    radially_bounded_nonconst: bool | None = None
    law_invariant: bool | None = None
    contains_zero: bool | None = None


#: Each set flag that carries over to the gauge, and the ``AxiomFlags``
#: field it gives: ``gauge.deviation_from_set`` reads it forwards, and
#: ``sublevel_set`` backwards.
FLAG_AXIOMS = {
    "stable_scalar_add": "translation_insensitive",
    "convex": "convex",
    "law_invariant": "law_invariant",
}


def _and3(a: bool | None, b: bool | None) -> bool | None:
    """Conjunction in three-valued logic (unknown-propagating)."""
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _or3(a: bool | None, b: bool | None) -> bool | None:
    """Disjunction in three-valued logic (unknown-propagating)."""
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


@dataclass(frozen=True, eq=False)
class AcceptanceSet:
    """A membership oracle over positions of one market space.

    ``membership`` answers one position and ``row_membership`` a batch
    (see the module docstring).  A set built without a ``row_membership``
    gets one that asks ``membership`` row by row, so after construction it
    is never ``None``.  A copy made with ``dataclasses.replace`` keeps the
    ``row_membership`` it was built with: replacing ``membership`` alone (a
    wrapper written for one position, say) never hands the wrapper a batch.
    Replace both, and ``shift_interval`` and ``orbit_membership``, to change
    what the set contains.

    ``shift_interval``, when given, answers a position ``(n,)`` or a batch
    ``(B, n)`` with ``(lo, hi)``, per row the closed interval of constants
    ``c`` with ``x - c`` in the set (empty when ``lo > hi``); it is how
    ``add_constants`` answers exactly.  ``orbit_membership``, when given,
    answers a position or a batch, as ``membership`` and ``row_membership``
    do, with whether every outcome permutation of it is in the set; it is
    how ``law_invariant_hull`` answers exactly.

    Each constructor derives ``label`` from its parts, and
    ``dataclasses.replace(A, label=...)`` is the one way to override it.
    """

    space: MarketSpace
    membership: Callable[[np.ndarray], bool]
    flags: SetFlags = field(default_factory=SetFlags)
    label: str = ""
    row_membership: Callable[[np.ndarray], np.ndarray] | None = None
    shift_interval: Callable[[np.ndarray], tuple] | None = None
    orbit_membership: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.row_membership is None:
            member = self.membership
            object.__setattr__(self, "row_membership",
                               lambda X: np.array([bool(member(x)) for x in X], dtype=bool))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def sublevel_set(space: MarketSpace, functional, k: float) -> AcceptanceSet:
    """Sub-level set ``{ x : D(x) <= k }`` of a ``DeviationFunctional`` at
    level ``k > 0``.

    The functional's axioms decide the flags via the standard sub-level
    correspondences: the axiom of each ``FLAG_AXIOMS`` flag gives that flag,
    nonnegativity with a positive homogeneity degree star-shapedness, and
    nonnegativity radial boundedness at non-constants and ``0`` membership.
    Non-finite functional values are treated as non-membership.  Membership
    is always decided by evaluating the functional, which answers a batch of
    rows in one call.
    """
    if not (k > 0.0) or not math.isfinite(k):
        raise SetError(f"sub-level threshold must be finite and positive, got {k}")
    ax = functional.axioms
    degree = functional.homogeneity_degree

    def member(x: np.ndarray):
        v = functional.eval(space, x)
        return (v > -math.inf) & (v <= k)  # finite and at most k; NaN compares false

    flags = SetFlags(
        star_shaped=True if (ax.nonnegative and degree is not None and degree > 0) else None,
        closed=True,
        radially_bounded_nonconst=True if ax.nonnegative else None,
        contains_zero=True if ax.nonnegative else None,
        **{flag: True if getattr(ax, axiom) else None for flag, axiom in FLAG_AXIOMS.items()},
    )
    return AcceptanceSet(
        space=space,
        membership=member,
        flags=flags,
        label=f"sublevel({functional.label}, {k:g})",
        row_membership=member,
    )


def scale_set(A: AcceptanceSet, lam: float) -> AcceptanceSet:
    """The scaled set ``lam * A`` (membership: ``x / lam in A``), ``lam > 0``.

    Each oracle of ``A`` is passed on, asked at ``x / lam``: when ``A``
    answers both shapes with one function, so does ``lam * A``, and
    ``A``'s ``orbit_membership`` becomes ``lam * A``'s (permutations commute
    with scaling).  When ``A`` has a ``shift_interval`` ``I``, so does ``lam
    * A``: ``x - c`` is in ``lam * A`` iff ``x / lam - c / lam`` is in
    ``A``, so its interval is ``lam * I(x / lam)``.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise SetError(f"scaling factor must be finite and positive, got {lam}")
    inner, inner_rows = A.membership, A.row_membership
    interval, orbit = A.shift_interval, A.orbit_membership
    member = lambda x: inner(x / lam)

    def scaled_interval(x):
        lo, hi = interval(x / lam)
        return lam * lo, lam * hi

    return AcceptanceSet(
        space=A.space,
        membership=member,
        flags=A.flags,
        label=f"{lam:g}*({A.label})" if A.label else "",
        row_membership=member if inner_rows is inner else lambda X: inner_rows(X / lam),
        shift_interval=None if interval is None else scaled_interval,
        orbit_membership=None if orbit is None else lambda x: orbit(x / lam),
    )


def combine(op: str, A: AcceptanceSet, B: AcceptanceSet) -> AcceptanceSet:
    """Union or intersection of two sets on the same space.

    A flag holds where both operands declare it: intersections of convex
    sets stay convex, and unions of star-shaped sets stay star-shaped.  An
    intersection is also radially bounded, and a union contains 0, where
    one operand is.  A flag is declared to fail only where the failure is
    inherited: a union holds every ray of each operand, so it is not
    radially bounded where either is not, and misses 0 where both do; an
    intersection misses 0 where either does.  Every other flag is unknown,
    the convexity of a union always.  The second operand is only asked
    about positions the first leaves undecided, one at a time or as the
    undecided rows of a batch.  When each operand answers both shapes with
    one function, so does the combination.
    """
    if not A.space.same_as(B.space):
        raise SetError("combine requires sets over the same market space")
    fa, fb = A.flags, B.flags
    flags = {name: True if a is True and getattr(fb, name) is True else None for name, a in vars(fa).items()}
    if op == "union":
        flags.update(convex=None,
                     radially_bounded_nonconst=_and3(fa.radially_bounded_nonconst, fb.radially_bounded_nonconst),
                     contains_zero=_or3(fa.contains_zero, fb.contains_zero))
        member = lambda x: A.membership(x) or B.membership(x)
        union = True
        tag = "|"
    elif op == "intersection":
        flags.update(radially_bounded_nonconst=True if _or3(fa.radially_bounded_nonconst,
                                                            fb.radially_bounded_nonconst) else None,
                     contains_zero=_and3(fa.contains_zero, fb.contains_zero))
        member = lambda x: A.membership(x) and B.membership(x)
        union = False
        tag = "&"
    else:
        raise SetError(f"unknown combine op {op!r}")

    def rows(X: np.ndarray) -> np.ndarray:
        out = np.array(A.row_membership(X), dtype=bool)
        open_rows = ~out if union else out  # rows the second operand decides
        if open_rows.any():
            out[open_rows] = B.row_membership(X[open_rows])
        return out

    def either(X: np.ndarray):
        return rows(X) if np.ndim(X) > 1 else member(X)

    one_call = A.row_membership is A.membership and B.row_membership is B.membership
    return AcceptanceSet(
        space=A.space,
        membership=either if one_call else member,
        flags=SetFlags(**flags),
        label=f"({A.label}){tag}({B.label})" if A.label and B.label else "",
        row_membership=either if one_call else rows,
    )


#: Shifts in ``add_constants``'s uniform grid.
SHIFT_GRID_POINTS = 256


def add_constants(A: AcceptanceSet) -> AcceptanceSet:
    """The Minkowski sum ``A + R`` of a set with the constants line.

    The membership question "is there a constant ``c`` with ``x - c in A``"
    has the same answer for ``x`` and for its centred ``x - E[x]``, so it is
    asked of the centred position, whatever the level of ``x``; constants
    are members at every scale.

    A set declared ``stable_scalar_add`` already contains every shift of its
    members, so ``A + R = A``: it is returned with its own oracles and flags,
    relabelled.  Over a set with a ``shift_interval`` the answer is exact:
    ``x`` is a member iff the interval ``(lo, hi)`` of its centred position
    is not empty (``lo <= hi``), one call for a position or a whole batch.
    Nothing is cached here: a polytope reads the interval from the facet
    partition it caches with its facets, and a ball from ``max``/``min`` or
    mean and variance of the position.  Such a sum contains 0
    iff the interval at 0 is not empty, and then, over a set declared
    convex, it is star-shaped too (a convex set holding 0 is), whatever
    ``A`` declares.

    Over any other set the search probes deterministic candidate shifts (the
    entries, mean, median and midrange — exact minimisers for the
    piecewise-linear and quadratic families) followed by a uniform grid of
    ``SHIFT_GRID_POINTS`` shifts centred on the midrange, of radius
    ``max(1, 2 * range of x)``.  One query asks ``A`` about all candidate
    shifts in one batch, and about the shift grid in a second batch only
    when no candidate is a member.
    """
    label = f"({A.label})+R" if A.label else ""
    if A.flags.stable_scalar_add is True:
        return replace(A, label=label)
    space = A.space
    interval = A.shift_interval
    contains_zero = A.flags.contains_zero is True
    if interval is not None:
        lo, hi = interval(np.zeros(space.n))
        contains_zero = bool(lo <= hi)
    flags = replace(
        A.flags,
        star_shaped=True if A.flags.star_shaped is True or (contains_zero and A.flags.convex is True)
        else None,
        closed=None,
        stable_scalar_add=True,
        radially_bounded_nonconst=None,
        contains_zero=True if contains_zero else None,
    )

    if interval is not None:
        def exact(X: np.ndarray):
            lo, hi = interval(market.centred(space, X))
            inside = lo <= hi
            return inside if np.ndim(inside) else bool(inside)

        return AcceptanceSet(space=space, membership=exact, flags=flags, label=label,
                             row_membership=exact)

    def any_member(x: np.ndarray, shifts: np.ndarray) -> bool:
        return bool(A.row_membership(x - shifts[:, None]).any())

    def member(x: np.ndarray) -> bool:
        x = market.centred(space, x)
        lo, hi = float(np.min(x)), float(np.max(x))
        mid = 0.5 * (lo + hi)
        cands = np.concatenate(([mid, market.expectation(space, x), float(np.median(x))], x))
        if any_member(x, cands):
            return True
        radius = max(1.0, 2.0 * (hi - lo))
        return any_member(x, np.linspace(mid - radius, mid + radius, SHIFT_GRID_POINTS))

    return AcceptanceSet(space=space, membership=member, flags=flags, label=label)


#: Smallest scale ``lam`` of the star hull's search grid.
STAR_HULL_LAM_MIN = 1e-6

#: Largest star-hull ``"resolution"`` a scenario may ask for.
MAX_RESOLUTION = 65_536


def star_hull(A: AcceptanceSet, resolution: int = 256) -> AcceptanceSet:
    """The star hull ``st(A) = [0, 1] A``.

    A set declared star-shaped is its own star hull, so ``st(A)`` answers
    with ``A``'s own ``membership`` and ``row_membership``.  Otherwise
    membership of ``z != 0`` holds iff some ``lam in (0, 1]`` has
    ``z / lam in A``; the search scans a geometric grid of ``resolution``
    points on ``[STAR_HULL_LAM_MIN, 1]``, asked of ``A`` as one batch.
    Membership of ``0`` falls back to ``0 in A``.
    """
    if resolution < 2:
        raise SetError(f"star hull resolution must be at least 2, got {resolution}")
    if A.flags.star_shaped is True:
        member, rows = A.membership, A.row_membership
    else:
        grid = np.geomspace(STAR_HULL_LAM_MIN, 1.0, resolution)[:, None]
        rows = None

        def member(z: np.ndarray) -> bool:
            if not np.any(z):
                return A.membership(z)
            return bool(A.row_membership(z / grid).any())

    flags = replace(
        A.flags,
        star_shaped=True,
        convex=A.flags.convex if A.flags.convex is True and A.flags.contains_zero is True else None,
        closed=None,
        stable_scalar_add=None,
    )
    return AcceptanceSet(
        space=A.space,
        membership=member,
        flags=flags,
        label=f"st({A.label})" if A.label else "",
        row_membership=rows,
    )


def _check_permutable(space: MarketSpace, what: str) -> None:
    """``SetError`` unless ``what`` may enumerate the outcome permutations of
    ``space``: it must be uniform, with at most
    ``market.MAX_PERMUTATION_OUTCOMES`` outcomes."""
    if not space.is_uniform():
        raise SetError(f"{what} requires a uniform space")
    if space.n > market.MAX_PERMUTATION_OUTCOMES:
        raise SetError(
            f"{what} enumerates n! permutations; n={space.n} exceeds "
            f"the cap of {market.MAX_PERMUTATION_OUTCOMES}"
        )


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """Every permutation of ``n`` outcomes, as a read-only ``(n!, n)`` index
    array in ``itertools.permutations`` order, built once per ``n``."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    perms.flags.writeable = False
    return perms


#: Most rows ``law_invariant_hull`` asks of its base in one batch: a batch
#: whose orbits hold more is asked in slices of whole orbits, at least one.
ORBIT_ROWS_MAX = 16_384


def law_invariant_hull(A: AcceptanceSet) -> AcceptanceSet:
    """Largest law-invariant subset of ``A`` on a uniform space.

    A position belongs iff every outcome permutation of it belongs to ``A``.
    Requires uniform probabilities (permutations preserve the law only then)
    and at most ``market.MAX_PERMUTATION_OUTCOMES`` outcomes (``SetError``
    otherwise), checked whichever way the hull answers:

    * a set declared law-invariant is its own hull, so the hull answers
      with ``A``'s own ``membership`` and ``row_membership``;
    * a set with an ``orbit_membership`` (a polytope with facets, or a
      scaling of one) answers both shapes with it, in one call;
    * otherwise the orbit is asked of ``A`` as one ``(n!, n)`` batch, and
      the orbits of a ``(B, n)`` batch as one ``(B n!, n)`` batch, in slices
      of at most ``ORBIT_ROWS_MAX`` rows or one orbit, so memory stays
      bounded at any batch size.  Only this way builds the permutations.
    """
    space = A.space
    _check_permutable(space, "law-invariant hull")
    if A.flags.law_invariant is True:
        member, rows = A.membership, A.row_membership
    elif A.orbit_membership is not None:
        member = rows = A.orbit_membership
    else:
        perms = _permutations(space.n)

        def member(x: np.ndarray) -> bool:
            return bool(A.row_membership(x[perms]).all())

        def orbits(X: np.ndarray) -> np.ndarray:
            return A.row_membership(X[:, perms].reshape(-1, space.n)).reshape(len(X), len(perms)).all(axis=1)

        step = max(1, ORBIT_ROWS_MAX // len(perms))

        def rows(X: np.ndarray) -> np.ndarray:
            if len(X) <= step:
                return orbits(X)
            return np.concatenate([orbits(X[i:i + step]) for i in range(0, len(X), step)])

    return AcceptanceSet(
        space=space,
        membership=member,
        flags=replace(A.flags, law_invariant=True),
        label=f"lawhull({A.label})" if A.label else "",
        row_membership=rows,
    )


def ball_set(space: MarketSpace, p: float, radius: float = 1.0, center=None) -> AcceptanceSet:
    """Probability-weighted ``L^p`` ball ``{ x : ||x - center||_p <= radius }``.

    For ``p = inf`` and ``p = 2`` the ball has a ``shift_interval``: with
    ``y = x - center``, the shifts ``c`` with ``||y - c||_p <= radius`` are
    ``[max(y) - radius, min(y) + radius]`` and
    ``E[y] +- sqrt(radius^2 - Var(y))``.
    """
    if not (radius > 0.0) or not math.isfinite(radius):
        raise SetError(f"radius must be finite and positive, got {radius}")
    c = np.zeros(space.n) if center is None else market.as_position(space, center)
    centered_at_zero = not np.any(c)

    def member(x: np.ndarray):
        return market.lp_norm(space, x if centered_at_zero else x - c, p) <= radius

    def sup_interval(x: np.ndarray):
        y = x if centered_at_zero else x - c
        return y.max(axis=-1) - radius, y.min(axis=-1) + radius

    def l2_interval(x: np.ndarray):
        y = x if centered_at_zero else x - c
        mean = market.dot(y, space.probs)
        room = radius * radius - market.dot((y - mean[..., None]) ** 2, space.probs)
        half = np.sqrt(np.maximum(room, 0.0))
        return np.where(room < 0.0, math.inf, mean - half), mean + half

    flags = SetFlags(
        star_shaped=True if centered_at_zero else None,
        convex=True,
        closed=True,
        stable_scalar_add=False,
        radially_bounded_nonconst=True if centered_at_zero else None,
        law_invariant=True if (centered_at_zero and space.is_uniform()) else None,
        contains_zero=bool(market.lp_norm(space, -c, p) <= radius),
    )
    return AcceptanceSet(space=space, membership=member, flags=flags,
                         label=f"ball(p={p:g}, r={radius:g})", row_membership=member,
                         shift_interval={math.inf: sup_interval, 2.0: l2_interval}.get(p))


# ---------------------------------------------------------------------------
# Property falsifiers
# ---------------------------------------------------------------------------

# What the falsifiers sample, besides positions from
# ``market.sample_positions``: ``star_shaped`` scales members by a grid of
# LAMBDA_POINTS on [0, 1] (0 skipped); ``stable_scalar_add`` adds each of
# SHIFT_VALUES; ``radially_bounded_nonconst`` scales by RAY_CAP, and
# ``strongly_star_shaped`` by RAY_POINTS geometric scales on
# [1 / RAY_CAP, RAY_CAP]; ``_sample_member`` gives up after SAMPLE_ATTEMPTS.
LAMBDA_POINTS = 9
SHIFT_VALUES = (-10.0, -1.0, -0.25, 0.25, 1.0, 10.0)
RAY_CAP = 1e6
RAY_POINTS = 64
SAMPLE_ATTEMPTS = 60


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one sampled property check."""

    property: str
    passed: bool
    trials: int
    counterexample: dict | None = None


def _first(answers, answer: bool = True) -> int | None:
    """The index of the first row a ``row_membership`` batch answered
    ``answer``, or None."""
    hits = np.asarray(answers, dtype=bool) == answer
    return int(np.argmax(hits)) if hits.any() else None


def _sample_member(A: AcceptanceSet, rng: np.random.Generator):
    """Rejection-sample one member of ``A`` (or None)."""
    for _ in range(SAMPLE_ATTEMPTS):
        # each draw is asked with its pulls toward the origin; they help small sets
        Z = market.sample_positions(rng, A.space) * np.array([[1.0], [0.25], [0.05]])
        i = _first(A.row_membership(Z))
        if i is not None:
            return Z[i]
    return None


def _star_shaped(A, rng):
    x = _sample_member(A, rng)
    if x is None:
        return False
    lams = np.linspace(0.0, 1.0, LAMBDA_POINTS)[1:, None]
    i = _first(A.row_membership(lams * x), False)
    if i is not None:
        return {"x": x, "lam": float(lams[i, 0])}


def _strongly_star_shaped(A, rng):
    # Star-shapedness about 0 forces membership to be non-increasing along
    # every ray: once a scale of the geometric grid leaves the set, larger
    # scales stay out.
    x = market.sample_positions(rng, A.space)
    if np.any(x):
        scales = np.geomspace(1.0 / RAY_CAP, RAY_CAP, RAY_POINTS)[:, None]
        pattern = np.asarray(A.row_membership(scales * x), dtype=bool)
        if np.any(~pattern[:-1] & pattern[1:]):
            return {"x": x, "pattern": pattern.astype(int).tolist()}


def _mix(A, x, y, answer: bool = False):
    """The first mix ``lam x + (1 - lam) y`` that ``A`` answers ``answer``."""
    lams = np.array([0.25, 0.5, 0.75])[:, None]
    i = _first(A.row_membership(lams * x + (1 - lams) * y), answer)
    if i is not None:
        return {"x": x, "y": y, "lam": float(lams[i, 0])}


def _convex(A, rng):
    x = _sample_member(A, rng)
    y = _sample_member(A, rng)
    if x is None or y is None:
        return False
    return _mix(A, x, y)


def _stable_scalar_add(A, rng):
    x = _sample_member(A, rng)
    if x is None:
        return False
    i = _first(A.row_membership(x + np.array(SHIFT_VALUES)[:, None]), False)
    if i is not None:
        return {"x": x, "c": SHIFT_VALUES[i]}


def _radially_bounded_nonconst(A, rng):
    x = _sample_member(A, rng)
    if x is None:
        return False
    if np.ptp(x) >= 1e-9 and A.row_membership(x[None] * RAY_CAP)[0]:
        return {"x": x, "scale": RAY_CAP}


def _absorbing(A, rng):
    x = market.sample_positions(rng, A.space)
    if _first(A.row_membership(np.geomspace(1.0, 1e-10, 41)[:, None] * x)) is None:
        return {"x": x}


def _law_invariant(A, rng):
    # the member's whole orbit is one batch; the first non-member in
    # enumeration order is the counterexample
    _check_permutable(A.space, "the law-invariance check")
    perms = _permutations(A.space.n)
    x = _sample_member(A, rng)
    if x is None:
        return False
    i = _first(A.row_membership(x[perms]), False)
    if i is not None:
        return {"x": x, "perm": perms[i].tolist()}


def _comonotone_mix(A, rng, inside: bool):
    """A comonotone pair, scaled jointly into ``A`` (out of it when not
    ``inside``), that mixes out of it (into it)."""
    x, y = market.sample_comonotone_pair(rng, A.space, scale=market.SAMPLE_RANGE)
    scales = np.geomspace(4.0, 1e-4, 25)[:, None]
    hits = np.asarray(A.row_membership(np.vstack([scales * x, scales * y])), dtype=bool) == inside
    j = _first(hits[:len(scales)] & hits[len(scales):])
    if j is None:
        return False
    return _mix(A, x * scales[j], y * scales[j], not inside)


def _anti_monotone_dispersive(A, rng):
    # If x is accepted, anything less dispersed than x must be accepted.
    x = _sample_member(A, rng)
    if x is None:
        return False
    lam = rng.uniform(0.0, 1.0)
    shift = rng.uniform(-1.0, 1.0)
    mean = market.expectation(A.space, x)
    y = shift + mean + lam * (x - mean)
    if market.dispersive_leq(A.space, y, x) and not A.row_membership(y[None])[0]:
        return {"x": x, "y": y, "lam": float(lam), "shift": float(shift)}


#: One falsifier per property ``check_property`` knows, in the order
#: ``audit_flags`` runs them: each draws one sampled case (a member, a pair,
#: a ray) and returns a counterexample to its property, None when the case
#: holds, or False when the draw found no member to make a case of.
FALSIFIERS: dict[str, Callable[[AcceptanceSet, np.random.Generator], dict | bool | None]] = {
    "star_shaped": _star_shaped,
    "strongly_star_shaped": _strongly_star_shaped,
    "convex": _convex,
    "stable_scalar_add": _stable_scalar_add,
    "radially_bounded_nonconst": _radially_bounded_nonconst,
    "absorbing": _absorbing,
    "law_invariant": _law_invariant,
    "comonotone_convex": lambda A, rng: _comonotone_mix(A, rng, True),
    "complement_comonotone_convex": lambda A, rng: _comonotone_mix(A, rng, False),
    "anti_monotone_dispersive": _anti_monotone_dispersive,
}


def check_property(A: AcceptanceSet, prop: str, trials: int = 200, seed: int = 0) -> PropertyReport:
    """Search for a counterexample to ``prop`` on sampled positions.

    ``trials`` draws are made, each of a sampled case (a member, a pair, a
    ray), and ``seed`` seeds the sampler, so a report replays.  The report's
    ``trials`` counts the cases that ran: a draw that finds no member is not
    one, so a set the sampler never hits passes with 0 trials.  A passing
    report means no counterexample was found within the sampling budget; it
    is evidence, not proof.  A failing report carries a replayable
    counterexample (positions and scalars) and its draw index ``trial``.

    A case asks ``A`` only through ``row_membership``: each draw with its
    shrinks toward 0 as one batch, then the case's scales, shifts or mixes
    as one batch (a comonotone case its scales, then its mixes), every row
    of a batch even past the first refusal.  The counterexample is the
    first refused row in probe order.
    """
    falsify = FALSIFIERS.get(prop)
    if falsify is None:
        raise SetError(f"unknown property {prop!r}; known: {tuple(FALSIFIERS)}")
    rng = np.random.default_rng(seed)
    ran = 0
    for t in range(trials):
        found = falsify(A, rng)
        ran += found is not False
        if found:
            ce = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in found.items()}
            return PropertyReport(property=prop, passed=False, trials=ran,
                                  counterexample=dict(ce, trial=t, seed=seed))
    return PropertyReport(property=prop, passed=True, trials=ran)


def audit_flags(A: AcceptanceSet, trials: int = 200, seed: int = 0) -> list[PropertyReport]:
    """Run the falsifier of every flag declared ``True`` on ``A``, in
    ``FALSIFIERS`` order and each with ``check_property``'s ``trials`` and
    ``seed``; law invariance only on a uniform space."""
    return [check_property(A, prop, trials, seed) for prop in FALSIFIERS
            if getattr(A.flags, prop, None) is True
            and (prop != "law_invariant" or A.space.is_uniform())]


# ---------------------------------------------------------------------------
# JSON set descriptions
# ---------------------------------------------------------------------------

def set_from_json(space: MarketSpace, doc) -> AcceptanceSet:
    """Build an acceptance set from a JSON description.

    Supported kinds::

        {"kind": "sublevel", "measure": {...}, "k": 1.0}
        {"kind": "ball", "p": 2, "radius": 1.0, "center": [...]}
        {"kind": "halfspaces", "rows": [[...], ...], "rhs": [...]}
        {"kind": "vertices", "vertices": [[...], ...]}
        {"kind": "scale", "of": {...}, "factor": 2.0}
        {"kind": "combine", "op": "union"|"intersection", "of": [{...}, {...}]}
        {"kind": "add_constants", "of": {...}}
        {"kind": "star_hull", "of": {...}, "resolution": 256}
        {"kind": "law_invariant_hull", "of": {...}}

    Every kind takes an optional ``"label"`` string; without one, a set is
    labelled from its parts, and a member its kind does not read is
    refused.  Fields follow ``market.Field``'s rules;
    ``"p": "inf"``, the default, is the one spelling of infinity, and
    ``"resolution"`` is a whole number from 2 to ``MAX_RESOLUTION``.  An
    error raised building a set names the set's path, as in ``sets[0]:
    radius must be finite and positive, got -1.0``.
    """
    doc = market.Field.of(doc, "set")
    from .duality import DualityError, Polytope  # local: avoids a module cycle
    with doc.blame(SetError, market.MarketError, DualityError):
        kind = doc["kind"].string()
        if kind == "sublevel":
            A = sublevel_set(space, measure_from_json(doc["measure"]), doc.get("k", 1.0).number())
        elif kind == "ball":
            p = doc.get("p", "inf")
            A = ball_set(space, math.inf if p.value == "inf" else p.number(), doc.get("radius", 1.0).number(),
                         doc["center"].numbers() if "center" in doc else None)
        elif kind in ("halfspaces", "vertices"):
            P = (Polytope.from_halfspaces(space, doc["rows"].matrix(), doc["rhs"].numbers())
                 if kind == "halfspaces" else Polytope.from_vertices(space, doc["vertices"].matrix()))
            A = P.as_acceptance_set()
        elif kind == "scale":
            A = scale_set(set_from_json(space, doc["of"]), doc["factor"].number())
        elif kind == "combine":
            parts = [set_from_json(space, d) for d in doc["of"].items()]
            doc["of"].expect(len(parts) >= 2, "at least two operands")
            op = doc["op"].string()
            A = parts[0]
            for part in parts[1:]:
                A = combine(op, A, part)
        elif kind == "add_constants":
            A = add_constants(set_from_json(space, doc["of"]))
        elif kind == "star_hull":
            resolution = doc.get("resolution", 256).whole(2, MAX_RESOLUTION, "grid points")
            A = star_hull(set_from_json(space, doc["of"]), resolution)
        elif kind == "law_invariant_hull":
            A = law_invariant_hull(set_from_json(space, doc["of"]))
        else:
            raise SetError(f"unknown set kind {kind!r}")
    label = doc.get("label", "").string()
    doc.done()
    return replace(A, label=label) if label else A
