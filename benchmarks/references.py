"""Independent numpy references for every response the benchmark checks.

Nothing here imports ``minkdev``: each value is recomputed from its
definition so that a defect in a library route cannot hide behind itself.

* Catalogue measures use their textbook closed forms; the shortfall
  deviation goes through the Rockafellar-Uryasev minimum
  ``ES_a(X) = min_c { c + E[(-X - c)+] / a }`` rather than the library's
  step-quantile integral.
* Gauges of set descriptions (the JSON ``kind`` tree of ``minkdev eval``)
  follow the exact gauge algebra: ``D/k`` on sub-level sets, the weighted
  norm over the radius on balls, the largest normalised facet pairing on
  halfspace systems, ``min`` over unions, ``max`` over intersections,
  ``g/t`` under scaling, the base gauge under the star hull of a
  star-shaped base, the largest permuted gauge under the law-invariant hull,
  and exact shift minima under ``add_constants``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def measure(name: str, alpha: float | None, probs: np.ndarray, x: np.ndarray) -> float:
    """Closed form of a catalogue deviation measure."""
    mean = float(probs @ x)
    if name == "variance":
        return float(probs @ (x - mean) ** 2)
    if name == "std_dev":
        return math.sqrt(float(probs @ (x - mean) ** 2))
    if name == "lower_semidev":
        return math.sqrt(float(probs @ np.maximum(mean - x, 0.0) ** 2))
    if name == "lr":
        return mean - float(x.min())
    if name == "ur":
        return float(x.max()) - mean
    if name == "frd":
        return float(x.max() - x.min())
    if name == "esd":
        # ES of the centred position; the minimising c is minus one of its atoms.
        losses = mean - x
        shortfalls = losses + np.maximum(losses[None, :] - losses[:, None], 0.0) @ probs / alpha
        return float(shortfalls.min())
    raise ValueError(f"no closed form for measure {name!r}")


def weighted_norm(probs: np.ndarray, x: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(np.abs(x).max())
    return float(probs @ np.abs(x) ** p) ** (1.0 / p)


def _ball_p(doc) -> float:
    return math.inf if doc.get("p") in ("inf", None) else float(doc["p"])


def _facet_pairings(doc, probs: np.ndarray, x: np.ndarray):
    """``(<row_i, x>, <row_i, 1>, rhs_i)`` of a halfspace description."""
    weights = np.asarray(doc["rows"], float) * probs
    return weights @ x, weights.sum(axis=1), np.asarray(doc["rhs"], float)


def _shift_minimum(doc, probs: np.ndarray, x: np.ndarray) -> float:
    """``min_c gauge(base, x - c)``, the gauge of ``base + R``."""
    base = doc["of"]
    kind = base["kind"]
    if kind == "ball" and not base.get("center"):
        radius = float(base.get("radius", 1.0))
        p = _ball_p(base)
        if p == 2.0:
            return measure("std_dev", None, probs, x) / radius
        if p == math.inf:
            return float(x.max() - x.min()) / (2.0 * radius)
    if kind == "halfspaces":
        # c -> max(0, max_i (a_i - c s_i) / b_i) is convex piecewise linear;
        # its minimum sits where two of its lines (0 included) cross.
        a, s, b = _facet_pairings(base, probs, x)
        icept = np.concatenate([a / b, [0.0]])
        slope = np.concatenate([s / b, [0.0]])
        i, j = np.triu_indices(icept.size, k=1)
        crossing = slope[i] != slope[j]
        shifts = (icept[i] - icept[j])[crossing] / (slope[i] - slope[j])[crossing]
        return float(np.max(icept[None, :] - shifts[:, None] * slope[None, :], axis=1).min())
    raise ValueError(f"no exact shift minimum for add_constants over {kind!r}")


def gauge(doc, probs: np.ndarray, x: np.ndarray) -> float:
    """Exact gauge of the set described by ``doc`` at position ``x``."""
    kind = doc["kind"]
    if kind == "sublevel":
        m = doc["measure"]
        value = measure(m["measure"], m.get("alpha"), probs, x) / float(doc.get("k", 1.0))
        return math.sqrt(value) if m["measure"] == "variance" else value
    if kind == "ball":
        if doc.get("center"):
            raise ValueError("balls are referenced only about the origin")
        return weighted_norm(probs, x, _ball_p(doc)) / float(doc.get("radius", 1.0))
    if kind == "halfspaces":
        a, _, b = _facet_pairings(doc, probs, x)
        return max(0.0, float(np.max(a / b)))
    if kind == "scale":
        return gauge(doc["of"], probs, x) / float(doc["factor"])
    if kind == "combine":
        parts = [gauge(d, probs, x) for d in doc["of"]]
        return min(parts) if doc["op"] == "union" else max(parts)
    if kind == "star_hull":
        return gauge(doc["of"], probs, x)  # every base built here is star-shaped
    if kind == "law_invariant_hull":
        return max(gauge(doc["of"], probs, x[list(p)]) for p in itertools.permutations(range(x.size)))
    if kind == "add_constants":
        return _shift_minimum(doc, probs, x)
    raise ValueError(f"no reference for set kind {kind!r}")


def boundary_gauges(doc, probs: np.ndarray, rays: int) -> list[float]:
    """Gauge of the set at each unit direction of a ``minkdev boundary`` profile.

    The boundary point along direction ``d`` is ``d / gauge``; the known
    landmarks of the unit sets on the (1/4, 3/4) market (the standard
    deviation strip of half-width ``4/sqrt(3)``, the range strip of
    half-width 1, the lower-range vertex at ``(0, 4/3)``) are rays of it.
    """
    out = []
    for j in range(rays):
        theta = 2.0 * math.pi * j / rays
        out.append(gauge(doc, probs, np.array([math.cos(theta), math.sin(theta)])))
    return out
