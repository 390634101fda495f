"""Finite probability spaces and random positions.

A market space is a finite outcome set ``{0, ..., n-1}`` carrying strictly
positive probabilities that sum to one.  A position is a real payoff vector
indexed by outcomes; internally positions are plain 1-d numpy arrays so the
hot paths (membership oracles, gauge bisection) stay allocation-light.

Conventions used throughout the package:

* expectation, norms and pairings are probability-weighted:
  ``<x, y> = sum_i p_i x_i y_i``;
* every weighted sum over outcomes, in any module, is ``dot(x, w)``: one
  1-d dot product per row of the last axis, so every module rounds alike
  and a batch row gets the bits of the same position alone, which BLAS
  matrix products do not promise (``pairing`` sums another way, as a check);
* every sampled check draws its positions with ``sample_positions``,
  uniformly from the box ``[-SAMPLE_RANGE, SAMPLE_RANGE]^n``;
* ``left_quantile(*sorted_distribution(space, x), t)`` is the lower
  quantile ``inf { q : P(X <= q) >= t }`` for ``t in (0, 1]``;
* comonotonicity is the exact pairwise condition
  ``(x_i - x_j) (y_i - y_j) >= 0`` for all outcome pairs;
* the dispersive order compares quantile spreads on a merged breakpoint
  grid, which is exact for finitely supported laws.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

#: Tolerance for probability normalisation and distribution comparisons.
PROB_TOL = 1e-12

#: Slack used by the exact comonotonicity check to absorb float round-off
#: from prior arithmetic on the positions.
COMONOTONE_TOL = 1e-12

#: Tolerance of ``dispersive_leq`` in the differences of quantile spreads.
LAW_TOL = 1e-9

#: ``sample_positions`` draws from the box ``[-SAMPLE_RANGE, SAMPLE_RANGE]^n``.
SAMPLE_RANGE = 4.0

#: Largest outcome count for which ``sets.law_invariant_hull`` enumerates
#: the permutation orbit of a position.
MAX_PERMUTATION_OUTCOMES = 8


class MarketError(ValueError):
    """Raised for malformed spaces, positions, or invalid arguments."""


@dataclass(frozen=True, eq=False)
class MarketSpace:
    """A finite probability space given by strictly positive probabilities."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise MarketError("probabilities must form a non-empty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise MarketError("probabilities must be finite")
        if np.any(p <= 0.0):
            raise MarketError("probabilities must be strictly positive")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise MarketError(f"probabilities sum to {p.sum()!r}, expected 1")
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.size

    def is_uniform(self) -> bool:
        return bool(np.all(np.abs(self.probs - 1.0 / self.n) <= PROB_TOL))

    def same_as(self, other: "MarketSpace") -> bool:
        """Whether ``other`` is this space: the same object, or equal probabilities."""
        return other is self or np.array_equal(self.probs, other.probs)


def as_position(space: MarketSpace, values) -> np.ndarray:
    """Validate ``values`` as a position on ``space`` and return it as an array."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size != space.n:
        raise MarketError(f"position must have {space.n} entries, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise MarketError("position entries must be finite")
    return x


def as_positions(space: MarketSpace, values) -> np.ndarray:
    """Validate ``values`` as a ``(B, n)`` batch of positions on ``space``,
    each row as ``as_position`` would, and return it as an array."""
    X = np.asarray(values, dtype=float)
    if X.ndim != 2:
        raise MarketError(f"positions must form a (B, n) array, got shape {X.shape}")
    if X.shape[1] != space.n:
        raise MarketError(f"position must have {space.n} entries, got shape {X.shape[1:]}")
    if not np.isfinite(X).all():
        raise MarketError("position entries must be finite")
    return X


def dot(x: np.ndarray, w: np.ndarray):
    """``sum_i x_i w_i`` over the last axis, one 1-d dot product per row."""
    return np.vecdot(x, w)


def expectation(space: MarketSpace, x: np.ndarray):
    """``E[x]``: a float for one position, a ``(B,)`` array for a batch."""
    return float_or_rows(dot(np.asarray(x, dtype=float), space.probs))


def centred(space: MarketSpace, x: np.ndarray) -> np.ndarray:
    """``x - E[x]``, row by row."""
    return x - dot(x, space.probs)[..., None]


def pairing(space: MarketSpace, x: np.ndarray, y: np.ndarray) -> float:
    """Probability-weighted bilinear pairing ``sum_i p_i x_i y_i``."""
    return float(np.sum(space.probs * np.asarray(x, float) * np.asarray(y, float)))


def float_or_rows(v):
    """A value computed over the last axis: a float for one position, the
    ``(B,)`` array itself for a ``(B, n)`` batch."""
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def lp_norm(space: MarketSpace, x: np.ndarray, p: float):
    """Probability-weighted L^p norm over the last axis, ``p in [1, inf]``."""
    if p == math.inf:
        return float_or_rows(np.abs(x).max(axis=-1))
    if not p >= 1:  # NaN fails this test too
        raise MarketError(f"lp_norm requires p >= 1, got {p}")
    # np.power takes the root by the same route for one position and for a
    # batch; the scalar ``**`` of a numpy float may differ in the last bit.
    return float_or_rows(np.power(dot(np.abs(x) ** p, space.probs), 1.0 / p))


def sorted_distribution(space: MarketSpace, x: np.ndarray):
    """Return ``(values, cumprobs)`` of the law of ``x``, values ascending.

    Works over the last axis, so a ``(B, n)`` batch gives one law per row.
    Duplicate values are not merged; cumulative probabilities are exact
    partial sums, ending at 1 (up to float round-off).
    """
    x = np.asarray(x, float)
    order = np.argsort(x, axis=-1, kind="stable")
    # a stable sort gives the values in ``order``; it is cheaper than
    # gathering them with np.take_along_axis, alone or in a batch
    values = np.sort(x, axis=-1, kind="stable")
    cum = np.cumsum(space.probs[order], axis=-1)
    return values, cum


def left_quantile(values: np.ndarray, cum: np.ndarray, t):
    """Lower quantile ``inf { q : P(x <= q) >= t }`` for ``t in (0, 1]``,
    read from the law ``(values, cum) = sorted_distribution(space, x)`` of
    one position: a float for one level, an array for an array of levels."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t <= 1.0)):
        raise MarketError(f"quantile level must lie in (0, 1], got {t}")
    idx = np.searchsorted(cum, t - PROB_TOL, side="left")
    return float_or_rows(values[np.minimum(idx, values.size - 1)])


def is_comonotone(x: np.ndarray, y: np.ndarray) -> bool:
    """Exact pairwise comonotonicity check (O(n^2))."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    scale = max(1.0, float(np.max(np.abs(dx))) * float(np.max(np.abs(dy))))
    return bool(np.all(dx * dy >= -COMONOTONE_TOL * scale))


def dispersive_leq(space: MarketSpace, y: np.ndarray, x: np.ndarray) -> bool:
    """Whether ``y`` precedes ``x`` in the dispersive order.

    ``y <= x`` dispersively iff ``F_x^{-1}(u) - F_x^{-1}(v) >=
    F_y^{-1}(u) - F_y^{-1}(v)`` for all ``0 < v < u < 1``.  On finitely
    supported laws both quantile functions are step functions, so checking
    the midpoints of the merged breakpoint grid is exact; the pairwise
    condition reduces to ``F_x^{-1} - F_y^{-1}`` being non-decreasing there.
    """
    law_x, law_y = sorted_distribution(space, x), sorted_distribution(space, y)
    breaks = np.unique(np.concatenate(([0.0], law_x[1], law_y[1], [1.0])))
    breaks = breaks[(breaks > -PROB_TOL) & (breaks < 1.0 + PROB_TOL)]
    breaks = np.clip(breaks, 0.0, 1.0)
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    mids = mids[(mids > 0.0) & (mids < 1.0)]
    diff = left_quantile(*law_x, mids) - left_quantile(*law_y, mids)
    return bool(np.all(np.diff(diff) >= -LAW_TOL))


def sample_positions(rng: np.random.Generator, space: MarketSpace, size: int | None = None) -> np.ndarray:
    """Positions drawn uniformly from the box ``[-SAMPLE_RANGE, SAMPLE_RANGE]^n``:
    one ``(n,)`` position, or a ``(size, n)`` batch whose rows are the
    numbers of ``size`` single draws, in order."""
    return rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=space.n if size is None else (size, space.n))


def sample_comonotone_pair(
    rng: np.random.Generator,
    space: MarketSpace,
    scale: float = 1.0,
):
    """Draw a comonotone pair of positions with entries in ``[-scale, scale]``.

    Both positions are sampled sorted and then subjected to one common
    outcome permutation, which preserves comonotonicity by construction.
    """
    n = space.n
    x = np.sort(rng.uniform(-scale, scale, size=n))
    y = np.sort(rng.uniform(-scale, scale, size=n))
    perm = rng.permutation(n)
    return x[perm], y[perm]


class Field:
    """A scenario value and its JSON path, such as ``sets[0].of.radius``.
    Its accessors alone decide what is well formed, and each error is a
    ``MarketError`` whose message starts with the path: a member is present
    or absent, and ``null`` is no value; a number is a finite JSON number,
    not a bool or a string; a whole number is a JSON integer.  A
    description's members are read through ``get``, and ``done`` refuses
    one that no accessor read."""

    def __init__(self, value, path: str = ""):
        self.value, self.path, self.read = value, path, set()

    @classmethod
    def of(cls, doc, path: str) -> "Field":
        """``doc`` if it is a ``Field``, else the plain JSON value ``doc`` at ``path``."""
        return doc if isinstance(doc, Field) else cls(doc, path)

    def expect(self, ok: bool, expected: str):
        """The value if ``ok``, else an error that it is not what was ``expected``."""
        if not ok:
            shown = json.dumps(self.value, default=repr)
            shown = shown if len(shown) <= 60 else shown[:57] + "..."
            raise MarketError(f"{self.path or 'scenario'}: expected {expected}, got {shown}")
        return self.value

    @contextlib.contextmanager
    def blame(self, *errors: type[ValueError]):
        """Raise each of ``errors`` raised inside again with this field's
        path in front, unless it already names this field or one of its
        members, as the accessors' errors do."""
        try:
            yield
        except errors as exc:
            if str(exc).startswith(tuple(self.path + c for c in ":.[")):
                raise
            raise type(exc)(f"{self.path}: {exc}") from exc

    def object(self) -> dict:
        return self.expect(type(self.value) is dict, "an object")

    def __contains__(self, key: str) -> bool:
        return key in self.object()

    def get(self, key: str, default=None) -> "Field":
        """The member ``key``; only one with a ``default`` may be absent."""
        path = f"{self.path}.{key}" if self.path else key
        value = self.object().get(key, default)
        if value is None and key not in self.value:
            raise MarketError(f"{path}: missing")
        self.read.add(key)
        return Field(value, path)

    def done(self):
        """Refuse the first member that no accessor has read: a misspelt
        member would otherwise change the answer without a word."""
        unread = [key for key in self.object() if key not in self.read]
        if unread:
            raise MarketError(f"{self.path}.{unread[0]}: not a member this description reads")

    __getitem__ = get

    def items(self) -> list["Field"]:
        entries = self.expect(type(self.value) is list, "a list")
        return [Field(v, f"{self.path}[{i}]") for i, v in enumerate(entries)]

    def string(self) -> str:
        return self.expect(type(self.value) is str, "a string")

    def number(self) -> float:
        return float(self.expect(_is_number(self.value), "a number"))

    def whole(self, lo: int, hi: int, noun: str) -> int:
        """A JSON integer from ``lo`` to ``hi``, a count of ``noun``."""
        v = self.expect(type(self.value) is int, "a whole number")
        return self.expect(lo <= v <= hi, f"at least {lo} {noun}" if v < lo else f"at most {hi} {noun}")

    def numbers(self) -> np.ndarray:
        """A list of numbers, as a 1-d float array."""
        ok = type(self.value) is list and all(map(_is_number, self.value))
        return np.array(self.expect(ok, "a list of numbers"), dtype=float)

    def matrix(self) -> np.ndarray:
        """A list of equal-length lists of numbers, as a 2-d float array."""
        rows = [row.numbers() for row in self.items()]
        self.expect(len({row.size for row in rows}) < 2, "a list of equal-length lists of numbers")
        return np.array(rows, dtype=float)


def _is_number(v) -> bool:
    """A JSON number of finite float value: not a bool, NaN or a huge integer."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def space_from_json(doc) -> MarketSpace:
    """Build a space from ``{"probs": [...]}`` or a bare probability list."""
    doc = Field.of(doc, "space")
    with doc.blame(MarketError):
        return MarketSpace((doc["probs"] if type(doc.value) is dict else doc).numbers())


def positions_from_json(space: MarketSpace, doc) -> dict[str, np.ndarray]:
    """Parse ``{"name": [values...], ...}`` into validated positions; an
    error names the position's path."""
    doc = Field.of(doc, "positions")
    positions = {}
    for name in doc.object():
        with doc[name].blame(MarketError):
            positions[name] = as_position(space, doc[name].numbers())
    return positions
