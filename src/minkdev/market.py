"""Finite probability spaces and random positions.

A market space is a finite outcome set ``{0, ..., n-1}`` carrying strictly
positive probabilities that sum to one.  A position is a real payoff vector
indexed by outcomes; internally positions are plain 1-d numpy arrays so the
hot paths (membership oracles, gauge bisection) stay allocation-light.

Conventions used throughout the package:

* expectation, norms and pairings are probability-weighted:
  ``<x, y> = sum_i p_i x_i y_i``;
* ``left_quantile(space, x, t)`` is the lower quantile
  ``inf { q : P(X <= q) >= t }`` for ``t in (0, 1]``;
* comonotonicity is the exact pairwise condition
  ``(x_i - x_j) (y_i - y_j) >= 0`` for all outcome pairs;
* the dispersive order compares quantile spreads on a merged breakpoint
  grid, which is exact for finitely supported laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Tolerance for probability normalisation and distribution comparisons.
PROB_TOL = 1e-12

#: Slack used by the exact comonotonicity check to absorb float round-off
#: from prior arithmetic on the positions.
COMONOTONE_TOL = 1e-12

#: Tolerance of the law comparisons (``equal_in_distribution``,
#: ``dispersive_leq``) in support values and atom probabilities.
LAW_TOL = 1e-9

#: The sampled checks draw positions from the box ``[-SAMPLE_RANGE,
#: SAMPLE_RANGE]^n``.
SAMPLE_RANGE = 4.0

#: Largest outcome count for which permutation-orbit constructions
#: (law-invariant hulls, distributional equality on uniform spaces) are
#: enumerated exhaustively.
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


def expectation(space: MarketSpace, x: np.ndarray) -> float:
    return float(space.probs @ np.asarray(x, dtype=float))


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
        return float_or_rows(np.max(np.abs(x), axis=-1))
    if p < 1:
        raise MarketError(f"lp_norm requires p >= 1, got {p}")
    # np.power takes the root by the same route for one position and for a
    # batch; the scalar ``**`` of a numpy float may differ in the last bit.
    return float_or_rows(np.power(np.sum(space.probs * np.abs(x) ** p, axis=-1), 1.0 / p))


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


def left_quantile(space: MarketSpace, x: np.ndarray, t: float) -> float:
    """Lower quantile ``inf { q : P(x <= q) >= t }`` for ``t in (0, 1]``."""
    if not 0.0 < t <= 1.0:
        raise MarketError(f"quantile level must lie in (0, 1], got {t}")
    values, cum = sorted_distribution(space, x)
    idx = int(np.searchsorted(cum, t - PROB_TOL, side="left"))
    idx = min(idx, values.size - 1)
    return float(values[idx])


def _merged_law(space: MarketSpace, x: np.ndarray):
    """Collapse the sorted law of ``x`` to (value, prob) atoms, merging values
    that differ by at most ``LAW_TOL``."""
    values, cum = sorted_distribution(space, x)
    probs = np.diff(cum, prepend=0.0)
    atoms: list[tuple[float, float]] = []
    for v, p in zip(values, probs):
        if atoms and v - atoms[-1][0] <= LAW_TOL:
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + p)
        else:
            atoms.append((float(v), float(p)))
    return atoms


def equal_in_distribution(space_x: MarketSpace, x: np.ndarray,
                          space_y: MarketSpace, y: np.ndarray) -> bool:
    """Whether ``x`` and ``y`` induce the same law, up to ``LAW_TOL`` in both
    the support values and the atom probabilities."""
    ax = _merged_law(space_x, x)
    ay = _merged_law(space_y, y)
    if len(ax) != len(ay):
        return False
    return all(
        abs(vx - vy) <= LAW_TOL and abs(px - py) <= LAW_TOL
        for (vx, px), (vy, py) in zip(ax, ay)
    )


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
    _, cum_x = sorted_distribution(space, x)
    _, cum_y = sorted_distribution(space, y)
    breaks = np.unique(np.concatenate(([0.0], cum_x, cum_y, [1.0])))
    breaks = breaks[(breaks > -PROB_TOL) & (breaks < 1.0 + PROB_TOL)]
    breaks = np.clip(breaks, 0.0, 1.0)
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    mids = mids[(mids > 0.0) & (mids < 1.0)]
    qx = np.array([left_quantile(space, x, float(t)) for t in mids])
    qy = np.array([left_quantile(space, y, float(t)) for t in mids])
    diff = qx - qy
    return bool(np.all(np.diff(diff) >= -LAW_TOL))


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


def space_from_json(doc) -> MarketSpace:
    """Build a space from ``{"probs": [...]}`` (or a bare probability list)."""
    if isinstance(doc, dict):
        if "probs" not in doc:
            raise MarketError('space object must contain "probs"')
        doc = doc["probs"]
    if not isinstance(doc, (list, tuple)):
        raise MarketError("probabilities must be a list")
    return MarketSpace(np.asarray(doc, dtype=float))


def positions_from_json(space: MarketSpace, doc) -> dict[str, np.ndarray]:
    """Parse ``{"name": [values...], ...}`` into validated positions."""
    if not isinstance(doc, dict):
        raise MarketError("positions must be an object of name -> values")
    return {str(name): as_position(space, vals) for name, vals in doc.items()}


def load_market(text: str):
    """Parse a JSON document ``{"probs": [...], "positions": {...}}``."""
    doc = json.loads(text)
    space = space_from_json(doc)
    positions = positions_from_json(space, doc.get("positions", {}))
    return space, positions
