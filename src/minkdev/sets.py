"""Acceptance sets: membership oracles with structural flags.

An acceptance set is a subset of the position space of a fixed market,
represented by a membership predicate plus tri-state structural flags
(``True`` = known to hold, ``False`` = known to fail, ``None`` = unknown).
Flags are trusted by downstream numerics — e.g. the gauge solver only uses
bisection when ``star_shaped`` is declared — so constructors propagate them
conservatively and ``check_property`` provides sampling falsifiers to audit
declarations.

Set constructors cover sub-level sets of functionals, scalar scaling,
unions/intersections, the Minkowski sum with the constants line
(``add_constants``), star hulls, and law-invariant hulls on uniform spaces.

Row-wise oracles.  ``membership(x)`` answers one position of shape
``(n,)`` with a bool.  A row-wise set, a set with a ``row_membership``,
also answers a ``(B, n)`` batch with a ``(B,)`` bool array in one call;
the leaves (sub-level sets of row-wise functionals, balls, polytopes in
either form) are row-wise, and ``scale_set`` and ``combine`` are when
their operands are.  ``AcceptanceSet.any_row`` and
``AcceptanceSet.all_rows`` ask a batch of every set: a row-wise oracle
answers it in one call, and a scalar-only one (user-built oracles,
nested composites) is asked row by row, in order,
up to the first row that decides the answer (the loop adapter).  The
composites that fan one query out to many inner positions —
``add_constants``, ``star_hull`` and ``law_invariant_hull`` — answer
each query with one batch to their inner set (two for ``add_constants``:
the candidate shifts, then the shift grid only if no candidate is a
member).  They are themselves scalar-only, so a composite nested inside
one of them is reached through the loop adapter and no batch grows
beyond one fan-out.  ``minkowski_gauge`` and ``cogauge`` ask single
positions; ``gauge.gauge_table`` asks the ``row_membership`` of each
row-wise star-shaped set one batch of rows per bisection step.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import market
from .market import MarketSpace, MarketError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .duality import Polytope


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


def _and3(a: bool | None, b: bool | None) -> bool | None:
    """Conjunction in three-valued logic (unknown-propagating)."""
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


@dataclass(frozen=True, eq=False)
class AcceptanceSet:
    """A membership oracle over positions of one market space.

    ``row_membership``, when set, maps a ``(B, n)`` batch to a ``(B,)``
    bool array in one call (see the module docstring); ``membership`` of
    such a set takes batches too.  A copy whose ``membership`` was replaced
    through ``dataclasses.replace`` (a wrapper written for one position,
    say) keeps the constructor's ``row_membership``, so ``gauge_table``
    never hands the wrapper a batch; ``any_row`` and ``all_rows`` still
    ask ``membership``.  Replace both to change what the set contains.
    """

    space: MarketSpace
    membership: Callable[[np.ndarray], bool]
    flags: SetFlags = field(default_factory=SetFlags)
    exact_form: "Polytope | None" = None
    label: str = ""
    row_membership: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def rowwise(self) -> bool:
        """Whether the set answers a batch of rows in one call."""
        return self.row_membership is not None

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.space.n,):
            raise SetError(f"position has shape {x.shape}, space has {self.space.n} outcomes")
        return bool(self.membership(x))

    def any_row(self, X) -> bool:
        """Whether some row of a ``(B, n)`` batch is a member."""
        X = self._batch(X)
        if self.rowwise:
            return bool(np.any(self.membership(X)))
        return any(map(self.membership, X))

    def all_rows(self, X) -> bool:
        """Whether every row of a ``(B, n)`` batch is a member."""
        X = self._batch(X)
        if self.rowwise:
            return bool(np.all(self.membership(X)))
        return all(map(self.membership, X))

    def _batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.space.n:
            raise SetError(f"batch has shape {X.shape}, expected (B, {self.space.n})")
        return X


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def sublevel_set(space: MarketSpace, functional, k: float, label: str = "") -> AcceptanceSet:
    """Sub-level set ``{ x : D(x) <= k }`` of a functional at level ``k > 0``.

    ``functional`` is any object with ``eval(space, x) -> float`` and an
    ``axioms`` record (see :mod:`minkdev.deviations`); its axioms decide the
    flags via the standard sub-level correspondences: positive homogeneity
    (any positive degree) gives star-shapedness, translation insensitivity
    gives stability under scalar addition, nonnegativity of the functional
    gives radial boundedness at non-constants and ``0`` membership.
    Non-finite functional values are treated as non-membership.  The set is
    row-wise when the functional declares ``rowwise``; membership is always
    decided by evaluating the functional.
    """
    if not (k > 0.0) or not math.isfinite(k):
        raise SetError(f"sub-level threshold must be finite and positive, got {k}")
    ax = functional.axioms
    degree = getattr(functional, "homogeneity_degree", None)

    def member(x: np.ndarray):
        v = functional.eval(space, x)
        return (v > -math.inf) & (v <= k)  # finite and at most k; NaN compares false

    flags = SetFlags(
        star_shaped=True if (ax.nonnegative and degree is not None and degree > 0) else None,
        convex=True if ax.convex else None,
        closed=True,
        stable_scalar_add=True if ax.translation_insensitive else None,
        radially_bounded_nonconst=True if ax.nonnegative else None,
        law_invariant=True if ax.law_invariant else None,
        contains_zero=True if ax.nonnegative else None,
    )
    return AcceptanceSet(
        space=space,
        membership=member,
        flags=flags,
        label=label or f"sublevel({getattr(functional, 'label', 'D')}, {k:g})",
        row_membership=member if getattr(functional, "rowwise", False) else None,
    )


def scale_set(A: AcceptanceSet, lam: float) -> AcceptanceSet:
    """The scaled set ``lam * A`` (membership: ``x / lam in A``), ``lam > 0``."""
    if not (lam > 0.0) or not math.isfinite(lam):
        raise SetError(f"scaling factor must be finite and positive, got {lam}")
    inner = A.membership
    return AcceptanceSet(
        space=A.space,
        membership=lambda x: inner(x / lam),
        flags=A.flags,
        label=f"{lam:g}*({A.label})" if A.label else "",
        row_membership=(lambda X: A.row_membership(X / lam)) if A.rowwise else None,
    )


def combine(op: str, A: AcceptanceSet, B: AcceptanceSet) -> AcceptanceSet:
    """Union or intersection of two sets on the same space.

    Intersections of convex sets stay convex; unions of star-shaped sets
    stay star-shaped but convexity may be lost, so it degrades to unknown.
    The second operand is only asked about positions the first leaves
    undecided, one at a time or as the undecided rows of a batch.
    """
    if A.space is not B.space and not np.array_equal(A.space.probs, B.space.probs):
        raise SetError("combine requires sets over the same market space")
    fa, fb = A.flags, B.flags
    if op == "union":
        flags = SetFlags(
            star_shaped=_and3(fa.star_shaped, fb.star_shaped),
            convex=None if _and3(fa.convex, fb.convex) is not False else False,
            closed=_and3(fa.closed, fb.closed),
            stable_scalar_add=_and3(fa.stable_scalar_add, fb.stable_scalar_add),
            radially_bounded_nonconst=_and3(fa.radially_bounded_nonconst, fb.radially_bounded_nonconst),
            law_invariant=_and3(fa.law_invariant, fb.law_invariant),
            contains_zero=True if (fa.contains_zero is True or fb.contains_zero is True) else _and3(fa.contains_zero, fb.contains_zero),
        )
        union = True
        tag = "|"
    elif op == "intersection":
        flags = SetFlags(
            star_shaped=_and3(fa.star_shaped, fb.star_shaped),
            convex=_and3(fa.convex, fb.convex),
            closed=_and3(fa.closed, fb.closed),
            stable_scalar_add=_and3(fa.stable_scalar_add, fb.stable_scalar_add),
            radially_bounded_nonconst=True
            if (fa.radially_bounded_nonconst is True or fb.radially_bounded_nonconst is True)
            else _and3(fa.radially_bounded_nonconst, fb.radially_bounded_nonconst),
            law_invariant=_and3(fa.law_invariant, fb.law_invariant),
            contains_zero=_and3(fa.contains_zero, fb.contains_zero),
        )
        union = False
        tag = "&"
    else:
        raise SetError(f"unknown combine op {op!r}")

    def both(ma, mb):
        def member(x: np.ndarray):
            if x.ndim == 1:
                return (ma(x) or mb(x)) if union else (ma(x) and mb(x))
            out = np.array(ma(x), dtype=bool)
            open_rows = ~out if union else out  # rows the second operand decides
            if open_rows.any():
                out[open_rows] = mb(x[open_rows])
            return out
        return member

    return AcceptanceSet(
        space=A.space,
        membership=both(A.membership, B.membership),
        flags=flags,
        label=f"({A.label}){tag}({B.label})" if A.label and B.label else "",
        row_membership=both(A.row_membership, B.row_membership) if A.rowwise and B.rowwise else None,
    )


# ``add_constants``'s shift search: the size of its uniform grid, and the
# largest shift magnitude it reaches.
SHIFT_GRID_POINTS = 256
SHIFT_CAP = 1e6


def add_constants(A: AcceptanceSet) -> AcceptanceSet:
    """The Minkowski sum ``A + R`` of a set with the constants line.

    The membership question "is there a constant ``c`` with ``x - c in A``"
    is decided by probing deterministic candidate shifts (the entries of
    ``x``, its mean, median and midrange — exact minimisers for the
    piecewise-linear and quadratic families) followed by a uniform grid of
    ``SHIFT_GRID_POINTS`` shifts centred on the midrange, of radius
    ``max(1, 2 * range of x)``, both capped at ``SHIFT_CAP`` in magnitude.
    One query asks ``A`` about all candidate shifts in one batch, and about
    the shift grid in a second batch only when no candidate is a member.
    """
    space = A.space

    def any_member(x: np.ndarray, shifts: np.ndarray) -> bool:
        shifts = shifts[np.abs(shifts) <= SHIFT_CAP]
        return shifts.size > 0 and A.any_row(x - shifts[:, None])

    def member(x: np.ndarray) -> bool:
        lo, hi = float(np.min(x)), float(np.max(x))
        mid = 0.5 * (lo + hi)
        cands = np.concatenate(([mid, market.expectation(space, x), float(np.median(x))], x))
        if any_member(x, cands):
            return True
        radius = min(max(1.0, 2.0 * (hi - lo)), SHIFT_CAP)
        return any_member(x, np.linspace(mid - radius, mid + radius, SHIFT_GRID_POINTS))

    flags = SetFlags(
        star_shaped=A.flags.star_shaped if A.flags.star_shaped is True else None,
        convex=A.flags.convex,
        closed=None,
        stable_scalar_add=True,
        radially_bounded_nonconst=None,
        law_invariant=A.flags.law_invariant,
        contains_zero=True if A.flags.contains_zero is True else None,
    )
    return AcceptanceSet(
        space=space,
        membership=member,
        flags=flags,
        label=f"({A.label})+R" if A.label else "",
    )


#: Smallest scale ``lam`` of the star hull's search grid.
STAR_HULL_LAM_MIN = 1e-6


def star_hull(A: AcceptanceSet, resolution: int = 256) -> AcceptanceSet:
    """The star hull ``st(A) = [0, 1] A``.

    Membership of ``z != 0`` holds iff some ``lam in (0, 1]`` has
    ``z / lam in A``; the search scans a geometric grid of ``resolution``
    points on ``[STAR_HULL_LAM_MIN, 1]``, asked of ``A`` as one batch.
    Membership of ``0`` falls back to ``0 in A``.
    """
    if resolution < 2:
        raise SetError(f"star hull resolution must be at least 2, got {resolution}")
    inner = A.membership
    # lam = 1 first: a scalar-only A is asked up to the first hit
    grid = np.geomspace(STAR_HULL_LAM_MIN, 1.0, resolution)[::-1, None]

    def member(z: np.ndarray) -> bool:
        if not np.any(z):
            return inner(z)
        return A.any_row(z / grid)

    flags = SetFlags(
        star_shaped=True,
        convex=A.flags.convex if A.flags.convex is True and A.flags.contains_zero is True else None,
        closed=None,
        stable_scalar_add=None,
        radially_bounded_nonconst=A.flags.radially_bounded_nonconst,
        law_invariant=A.flags.law_invariant,
        contains_zero=A.flags.contains_zero,
    )
    return AcceptanceSet(
        space=A.space,
        membership=member,
        flags=flags,
        label=f"st({A.label})" if A.label else "",
    )


def law_invariant_hull(A: AcceptanceSet) -> AcceptanceSet:
    """Largest law-invariant subset of ``A`` on a uniform space.

    A position belongs iff every outcome permutation of it belongs to ``A``.
    Requires uniform probabilities (permutations preserve the law only then)
    and a small outcome count so the full orbit can be enumerated; the orbit
    is asked of ``A`` as one ``(n!, n)`` batch.
    """
    space = A.space
    if not space.is_uniform():
        raise SetError("law-invariant hull requires a uniform space")
    if space.n > market.MAX_PERMUTATION_OUTCOMES:
        raise SetError(
            f"law-invariant hull enumerates n! permutations; n={space.n} exceeds "
            f"the cap of {market.MAX_PERMUTATION_OUTCOMES}"
        )
    perms = np.array(list(itertools.permutations(range(space.n))), dtype=int)

    def member(x: np.ndarray) -> bool:
        return A.all_rows(x[perms])

    flags = SetFlags(
        star_shaped=A.flags.star_shaped,
        convex=A.flags.convex,
        closed=A.flags.closed,
        stable_scalar_add=A.flags.stable_scalar_add,
        radially_bounded_nonconst=A.flags.radially_bounded_nonconst,
        law_invariant=True,
        contains_zero=A.flags.contains_zero,
    )
    return AcceptanceSet(
        space=space,
        membership=member,
        flags=flags,
        label=f"lawhull({A.label})" if A.label else "",
    )


def ball_set(space: MarketSpace, p: float, radius: float = 1.0, center=None, label: str = "") -> AcceptanceSet:
    """Probability-weighted ``L^p`` ball ``{ x : ||x - center||_p <= radius }``."""
    if not (radius > 0.0) or not math.isfinite(radius):
        raise SetError(f"radius must be finite and positive, got {radius}")
    c = np.zeros(space.n) if center is None else market.as_position(space, center)
    centered_at_zero = not np.any(c)

    def member(x: np.ndarray):
        return market.lp_norm(space, x - c, p) <= radius

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
                         label=label or f"ball(p={p:g}, r={radius:g})", row_membership=member)


# ---------------------------------------------------------------------------
# Property falsifiers
# ---------------------------------------------------------------------------

# What the falsifiers sample, besides positions in the box of
# ``market.SAMPLE_RANGE``: ``star_shaped`` scales members by a grid of
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


PROPERTY_NAMES = (
    "star_shaped",
    "strongly_star_shaped",
    "convex",
    "stable_scalar_add",
    "radially_bounded_nonconst",
    "absorbing",
    "law_invariant",
    "comonotone_convex",
    "complement_comonotone_convex",
    "anti_monotone_dispersive",
)


def _sample_member(A: AcceptanceSet, rng: np.random.Generator):
    """Rejection-sample one member of ``A`` (or None)."""
    n = A.space.n
    for _ in range(SAMPLE_ATTEMPTS):
        x = rng.uniform(-market.SAMPLE_RANGE, market.SAMPLE_RANGE, size=n)
        if A.membership(x):
            return x
        # Pull random points toward the origin; helps small sets.
        for shrink in (0.25, 0.05):
            if A.membership(x * shrink):
                return x * shrink
    return None


def check_property(A: AcceptanceSet, prop: str, trials: int = 200, seed: int = 0) -> PropertyReport:
    """Search for a counterexample to ``prop`` on sampled positions.

    ``trials`` counts the sampled cases (a member, a pair, a ray) and
    ``seed`` seeds the sampler, so a report replays.  A passing report means
    no counterexample was found within the sampling budget; it is evidence,
    not proof.  A failing report carries a replayable counterexample
    (positions and scalars).
    """
    rng = np.random.default_rng(seed)
    n = A.space.n
    lam_grid = np.linspace(0.0, 1.0, LAMBDA_POINTS)[1:]  # skip 0

    def fail(trial: int, **kw) -> PropertyReport:
        ce = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in kw.items()}
        ce["trial"] = trial
        ce["seed"] = seed
        return PropertyReport(property=prop, passed=False, trials=trial + 1, counterexample=ce)

    if prop == "star_shaped":
        for t in range(trials):
            x = _sample_member(A, rng)
            if x is None:
                continue
            for lam in lam_grid:
                if not A.membership(lam * x):
                    return fail(t, x=x, lam=float(lam))
    elif prop == "strongly_star_shaped":
        # Along every sampled ray membership must be a single interval:
        # at most one switch in each direction over a geometric scale grid.
        scales = np.geomspace(1.0 / RAY_CAP, RAY_CAP, RAY_POINTS)
        for t in range(trials):
            x = rng.uniform(-market.SAMPLE_RANGE, market.SAMPLE_RANGE, size=n)
            if not np.any(x):
                continue
            pattern = [A.membership(s * x) for s in scales]
            # Star-shapedness about 0 forces membership to be non-increasing
            # along the ray: once a scale leaves the set, larger scales stay out.
            if any(not pattern[i] and pattern[i + 1] for i in range(len(pattern) - 1)):
                return fail(t, x=x, pattern=[int(b) for b in pattern])
    elif prop == "convex":
        for t in range(trials):
            x = _sample_member(A, rng)
            y = _sample_member(A, rng)
            if x is None or y is None:
                continue
            for lam in (0.25, 0.5, 0.75):
                if not A.membership(lam * x + (1 - lam) * y):
                    return fail(t, x=x, y=y, lam=lam)
    elif prop == "stable_scalar_add":
        for t in range(trials):
            x = _sample_member(A, rng)
            if x is None:
                continue
            for c in SHIFT_VALUES:
                if not A.membership(x + c):
                    return fail(t, x=x, c=c)
    elif prop == "radially_bounded_nonconst":
        for t in range(trials):
            x = _sample_member(A, rng)
            if x is None or np.ptp(x) < 1e-9:
                continue
            if A.membership(x * RAY_CAP):
                return fail(t, x=x, scale=RAY_CAP)
    elif prop == "absorbing":
        for t in range(trials):
            x = rng.uniform(-market.SAMPLE_RANGE, market.SAMPLE_RANGE, size=n)
            if not any(A.membership(x * s) for s in np.geomspace(1.0, 1e-10, 41)):
                return fail(t, x=x)
    elif prop == "law_invariant":
        if not A.space.is_uniform():
            raise SetError("law invariance is only checked on uniform spaces")
        perms = [np.asarray(p, dtype=int) for p in itertools.permutations(range(n))]
        for t in range(trials):
            x = _sample_member(A, rng)
            if x is None:
                continue
            for p in perms:
                if not A.membership(x[p]):
                    return fail(t, x=x, perm=[int(i) for i in p])
    elif prop in ("comonotone_convex", "complement_comonotone_convex"):
        if prop == "comonotone_convex":
            member = A.membership
        else:
            member = lambda z: not A.membership(z)
        for t in range(trials):
            x, y = market.sample_comonotone_pair(rng, A.space, scale=market.SAMPLE_RANGE)
            # scale the pair jointly until both land in the target region
            found = None
            for s in np.geomspace(4.0, 1e-4, 25):
                if member(x * s) and member(y * s):
                    found = s
                    break
            if found is None:
                continue
            xs, ys = x * found, y * found
            for lam in (0.25, 0.5, 0.75):
                z = lam * xs + (1 - lam) * ys
                if not member(z):
                    return fail(t, x=xs, y=ys, lam=lam)
    elif prop == "anti_monotone_dispersive":
        # If x is accepted, anything less dispersed than x must be accepted.
        for t in range(trials):
            x = _sample_member(A, rng)
            if x is None:
                continue
            lam = rng.uniform(0.0, 1.0)
            shift = rng.uniform(-1.0, 1.0)
            mean = market.expectation(A.space, x)
            y = shift + mean + lam * (x - mean)
            if not market.dispersive_leq(A.space, y, x):
                continue
            if not A.membership(y):
                return fail(t, x=x, y=y, lam=float(lam), shift=float(shift))
    else:
        raise SetError(f"unknown property {prop!r}; known: {PROPERTY_NAMES}")

    return PropertyReport(property=prop, passed=True, trials=trials)


def audit_flags(A: AcceptanceSet, trials: int = 200, seed: int = 0) -> list[PropertyReport]:
    """Run falsifiers for every flag declared ``True`` on ``A``, each with
    ``check_property``'s ``trials`` and ``seed``."""
    mapping = {
        "star_shaped": "star_shaped",
        "convex": "convex",
        "stable_scalar_add": "stable_scalar_add",
        "radially_bounded_nonconst": "radially_bounded_nonconst",
        "law_invariant": "law_invariant",
    }
    reports = []
    for flag, prop in mapping.items():
        if getattr(A.flags, flag) is True:
            if prop == "law_invariant" and not A.space.is_uniform():
                continue
            reports.append(check_property(A, prop, trials, seed))
    return reports


# ---------------------------------------------------------------------------
# JSON set descriptions
# ---------------------------------------------------------------------------

def set_from_json(space: MarketSpace, doc, measure_parser=None) -> AcceptanceSet:
    """Build an acceptance set from a JSON description.

    Supported kinds::

        {"kind": "sublevel", "measure": {...}, "k": 1.0}
        {"kind": "ball", "p": 2, "radius": 1.0, "center": [...]}
        {"kind": "halfspaces", "rows": [[...], ...], "rhs": [...]}
        {"kind": "scale", "of": {...}, "factor": 2.0}
        {"kind": "combine", "op": "union"|"intersection", "of": [{...}, {...}]}
        {"kind": "add_constants", "of": {...}}
        {"kind": "star_hull", "of": {...}, "resolution": 256}
        {"kind": "law_invariant_hull", "of": {...}}

    Every kind takes an optional ``"label"``; without one, a set is labelled
    from its parts.  ``measure_parser`` maps a measure description to a
    functional; by default the builtin deviation measures are used.
    """
    if measure_parser is None:
        from .deviations import measure_from_json as measure_parser  # local: avoids cycle
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SetError('set description must be an object with a "kind"')
    A = _set_from_json(space, doc, measure_parser)
    label = str(doc.get("label", ""))
    return replace(A, label=label) if label else A


def _set_from_json(space: MarketSpace, doc: dict, measure_parser) -> AcceptanceSet:
    kind = doc["kind"]
    if kind == "sublevel":
        D = measure_parser(doc["measure"])
        return sublevel_set(space, D, float(doc.get("k", 1.0)))
    if kind == "ball":
        p = math.inf if doc.get("p") in ("inf", None) else float(doc["p"])
        return ball_set(space, p, float(doc.get("radius", 1.0)), doc.get("center"))
    if kind == "halfspaces":
        from .duality import Polytope  # local: avoids a module cycle
        P = Polytope.from_halfspaces(space, np.asarray(doc["rows"], float), np.asarray(doc["rhs"], float))
        return P.as_acceptance_set()
    if kind == "scale":
        return scale_set(set_from_json(space, doc["of"], measure_parser), float(doc["factor"]))
    if kind == "combine":
        parts = [set_from_json(space, d, measure_parser) for d in doc["of"]]
        if len(parts) < 2:
            raise SetError("combine needs at least two operands")
        out = parts[0]
        for part in parts[1:]:
            out = combine(doc["op"], out, part)
        return out
    if kind == "add_constants":
        return add_constants(set_from_json(space, doc["of"], measure_parser))
    if kind == "star_hull":
        return star_hull(set_from_json(space, doc["of"], measure_parser), int(doc.get("resolution", 256)))
    if kind == "law_invariant_hull":
        return law_invariant_hull(set_from_json(space, doc["of"], measure_parser))
    raise SetError(f"unknown set kind {kind!r}")
