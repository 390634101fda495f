"""Deviation measures, error measures, and their closed forms.

A deviation measure is a functional on positions that is nonnegative (zero
exactly on constants) and insensitive to the addition of constants; the
generalized (sub-linear) ones are additionally positively homogeneous and
convex.  This module provides the standard catalogue in closed form:

* ``variance``, ``std_dev`` (probability-weighted), ``lower_semidev``,
* lower/upper range ``lr`` / ``ur`` and full range ``frd``,
* expected shortfall ``es(alpha)`` and the shortfall deviation
  ``esd(alpha) = es(alpha) applied to the centred position``,

together with error measures (``lp_norm(p)``, the asymmetric piecewise
linear ``kb(alpha)``, and ``sup_range = 2 ||.||_inf``), whose sub-level
sets criterion 3 shifts along the constants.  ``CATALOGUE`` declares each
measure once: its closed form, axioms, homogeneity degree and parameter.
``builtin_deviation``, ``builtin_error`` and ``measure_from_json`` (the
measure descriptions of scenario files) build from it: they check a level
when the measure is built, and refuse a parameter the measure does not
take.  ``check_axioms`` audits the axioms a functional declares on sampled
positions: one ``WITNESSES`` entry per axiom draws a case, and each
axiom's cases are asked of the functional as one batch.  It is the
library's one sampled axiom audit; ``minkdev check`` and suite criteria 6
and 7 audit through it.

Quantile integrals are evaluated exactly on the step quantile function, so
shortfall values carry no quadrature error.  Identities between measures
and their acceptance sets are checked through gauges, in ``suite``:
``k * gauge(Acc_k(D)) = D`` by ``check_closed_form_gauges``, and union,
intersection and scaling by ``check_gauge_algebra``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import market
from .market import MarketSpace


class MeasureError(ValueError):
    """Raised for invalid measure parameters or descriptions."""


@dataclass(frozen=True)
class AxiomFlags:
    """Tri-state axiom record for a functional on positions."""

    nonnegative: bool | None = None
    translation_insensitive: bool | None = None
    positive_homogeneous: bool | None = None
    convex: bool | None = None
    comonotone_additive: bool | None = None
    law_invariant: bool | None = None
    lower_range_dominated: bool | None = None


@dataclass(frozen=True)
class DeviationFunctional:
    """A named functional on positions with declared axioms: a deviation
    measure, or an error measure.

    ``homogeneity_degree`` is the exponent ``d`` with
    ``D(lam x) = lam^d D(x)`` when one exists (2 for variance, 1 for the
    positively homogeneous measures, None when unknown); sub-level-set
    constructions use it to justify star-shapedness.  ``eval_fn`` works
    over the last axis, so ``eval`` accepts one position or a ``(B, n)``
    batch and returns one value per row.
    """

    label: str
    eval_fn: Callable[[MarketSpace, np.ndarray], float | np.ndarray]
    axioms: AxiomFlags
    homogeneity_degree: float | None = 1.0

    def eval(self, space: MarketSpace, x):
        """A float for one position; a ``(B,)`` array for a batch of rows."""
        return market.float_or_rows(self.eval_fn(space, np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

# Each closed form works over the last axis: one position ``(n,)`` or a
# batch ``(B, n)``, one value per row.

def _variance(space: MarketSpace, x: np.ndarray):
    centred = market.centred(space, x)
    return market.dot(centred * centred, space.probs)


def _std_dev(space: MarketSpace, x: np.ndarray):
    return np.sqrt(_variance(space, x))


def _lower_semidev(space: MarketSpace, x: np.ndarray):
    neg = np.maximum(-market.centred(space, x), 0.0)
    return np.sqrt(market.dot(neg * neg, space.probs))


def _lower_range(space: MarketSpace, x: np.ndarray):
    return market.dot(x, space.probs) - x.min(axis=-1)


def _upper_range(space: MarketSpace, x: np.ndarray):
    return x.max(axis=-1) - market.dot(x, space.probs)


def _full_range(space: MarketSpace, x: np.ndarray):
    return x.max(axis=-1) - x.min(axis=-1)


def expected_shortfall(space: MarketSpace, x: np.ndarray, alpha: float):
    """``ES_alpha(x) = -(1/alpha) * integral_0^alpha F_x^{-1}(t) dt``.

    ``alpha = 0`` is read as the limit ``-ess inf x``; ``alpha = 1`` gives
    ``-E[x]``.  The integral is evaluated exactly on the step quantile.
    A ``(B, n)`` batch gives one value per row.
    """
    if not 0.0 <= alpha <= 1.0:
        raise MeasureError(f"shortfall level must lie in [0, 1], got {alpha}")
    x = np.asarray(x, dtype=float)
    if alpha == 0.0:
        return market.float_or_rows(-x.min(axis=-1))
    values, cum = market.sorted_distribution(space, x)
    # Exact step integral: each atom contributes its value times the overlap
    # of its cumulative segment with (0, alpha].
    # np.diff(capped, prepend=0.0) gives the same segments, but its
    # concatenation makes it about 5x slower on a handful of outcomes.
    capped = np.minimum(cum, alpha)
    seg = capped.copy()
    seg[..., 1:] -= capped[..., :-1]
    total = market.dot(values, np.maximum(seg, 0.0))
    return market.float_or_rows(-total / alpha)


def shortfall_deviation(space: MarketSpace, x: np.ndarray, alpha: float):
    """``ESD_alpha(x) = ES_alpha(x - E[x])``; ``alpha = 0`` is the lower range."""
    return expected_shortfall(space, market.centred(space, np.asarray(x, dtype=float)), alpha)


def _sup_range(space: MarketSpace, x: np.ndarray):
    return 2.0 * np.abs(x).max(axis=-1)


def _kb(a: float):
    """The closed form of ``kb(a)``: ``E[((1 - a) / a) x^- + x^+]``."""
    ratio = (1.0 - a) / a

    def kb(space: MarketSpace, x: np.ndarray):
        return market.dot(ratio * np.maximum(-x, 0.0) + np.maximum(x, 0.0), space.probs)

    return kb


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

_SUBLINEAR = AxiomFlags(
    nonnegative=True,
    translation_insensitive=True,
    positive_homogeneous=True,
    convex=True,
    comonotone_additive=False,
    law_invariant=True,
    lower_range_dominated=False,
)

_ERROR = replace(_SUBLINEAR, translation_insensitive=False, comonotone_additive=None, lower_range_dominated=None)

#: A level ``alpha``: the name its error gives it, and whether its interval
#: is ``[0, 1]`` (closed) or ``(0, 1)``.
_SHORTFALL_LEVEL = ("shortfall", True)
_KB_LEVEL = ("kb", False)

#: Every catalogue measure by name: its kind (``"deviation"`` for
#: ``builtin_deviation``, ``"error"`` for ``builtin_error``), its closed
#: form, its axioms, its homogeneity degree, and its parameter: None, a
#: level, or ``"p"``, the exponent of ``lp_norm``, which ``market.lp_norm``
#: checks when it is evaluated.  A parameterised closed form is a factory:
#: given the parameter, it returns the function of ``(space, x)``.  Axioms
#: that depend on the parameter are a factory too.
CATALOGUE = {
    "variance": ("deviation", _variance, replace(_SUBLINEAR, positive_homogeneous=False), 2.0, None),
    "std_dev": ("deviation", _std_dev, _SUBLINEAR, 1.0, None),
    "lower_semidev": ("deviation", _lower_semidev, replace(_SUBLINEAR, lower_range_dominated=True), 1.0, None),
    "lr": ("deviation", _lower_range,
           replace(_SUBLINEAR, comonotone_additive=True, lower_range_dominated=True), 1.0, None),
    "ur": ("deviation", _upper_range, replace(_SUBLINEAR, comonotone_additive=True), 1.0, None),
    "frd": ("deviation", _full_range, replace(_SUBLINEAR, comonotone_additive=True), 1.0, None),
    # not itself a deviation: it shifts by -c under constant addition
    "es": ("deviation", lambda a: lambda space, x: expected_shortfall(space, x, a),
           replace(_SUBLINEAR, nonnegative=False, translation_insensitive=False, comonotone_additive=True),
           1.0, _SHORTFALL_LEVEL),
    # alpha = 0 coincides with lr; alpha = 1 is identically 0, so not positive off the constants
    "esd": ("deviation", lambda a: lambda space, x: shortfall_deviation(space, x, a),
            lambda a: replace(_SUBLINEAR, nonnegative=a < 1.0, comonotone_additive=True, lower_range_dominated=True),
            1.0, _SHORTFALL_LEVEL),
    "lp_norm": ("error", lambda p: lambda space, x: market.lp_norm(space, x, p), _ERROR, 1.0, "p"),
    "kb": ("error", _kb, _ERROR, 1.0, _KB_LEVEL),
    "sup_range": ("error", _sup_range, _ERROR, 1.0, None),
}


def builtin_deviation(name: str, alpha: float | None = None) -> DeviationFunctional:
    """The ``"deviation"`` measure ``name`` of ``CATALOGUE``: ``variance``,
    ``std_dev``, ``lower_semidev``, ``lr``, ``ur``, ``frd``, and ``es`` and
    ``esd``, which need ``alpha`` in ``[0, 1]``."""
    return _from_catalogue("deviation", name, alpha, None)


def builtin_error(name: str, p: float | None = None, alpha: float | None = None) -> DeviationFunctional:
    """The ``"error"`` measure ``name`` of ``CATALOGUE``: ``lp_norm`` (needs
    ``p``), ``kb`` (an asymmetric pinball-style error; needs ``alpha`` in
    ``(0, 1)``) and ``sup_range = 2 ||.||_inf``."""
    return _from_catalogue("error", name, alpha, p)


def _from_catalogue(kind: str, name: str, alpha, p) -> DeviationFunctional:
    """Build a catalogue entry; its parameter, if it takes one, is checked
    here and named in the label, as in ``esd(0.25)``, and a parameter it
    does not take is refused."""
    entry = CATALOGUE.get(name)
    if entry is None or entry[0] != kind:
        raise MeasureError(f"unknown {kind} measure {name!r}")
    _, closed_form, axioms, degree, param = entry
    label = name
    value = _parameter(name, param, alpha, p)
    if value is not None:
        closed_form, label = closed_form(value), f"{name}({value:g})"
    if callable(axioms):
        axioms = axioms(value)
    return DeviationFunctional(label=label, eval_fn=closed_form, axioms=axioms, homogeneity_degree=degree)


def _parameter(name: str, param, alpha, p) -> float | None:
    """``name``'s parameter ``param``, from ``alpha`` or ``p``, or None."""
    takes = param if param in (None, "p") else "alpha"
    for key, value in (("alpha", alpha), ("p", p)):
        if value is not None and key != takes:
            raise MeasureError(f"{name} takes no {key}")
    if param is None:
        return None
    if param == "p":
        if p is None:
            raise MeasureError(f"{name} requires the exponent p")
        return float(p)
    if alpha is None:
        raise MeasureError(f"{name} requires an alpha level")
    (noun, closed), a = param, float(alpha)
    if not (0.0 <= a <= 1.0 if closed else 0.0 < a < 1.0):
        raise MeasureError(f"{noun} level must lie in {'[0, 1]' if closed else '(0, 1)'}, got {a}")
    return a


# ---------------------------------------------------------------------------
# Axiom audits
# ---------------------------------------------------------------------------

#: Largest gap ``check_axioms`` lets an axiom show and still pass.
AXIOM_TOL = 1e-8


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    passed: bool
    trials: int
    worst_gap: float
    counterexample: dict | None = None


# Each witness draws one sampled case for its axiom and returns the positions
# to evaluate, the gap of the case as a function of their values, and the
# positions and scalars that replay it.

def _nonnegative(space, rng):
    x = market.sample_positions(rng, space)
    c = rng.uniform(-market.SAMPLE_RANGE, market.SAMPLE_RANGE)
    moves = np.ptp(x) > 1e-6  # off the constants, where the value must be positive
    gap = lambda v, v_const: max(0.0, -v, AXIOM_TOL * 2 if moves and v <= AXIOM_TOL else 0.0, abs(v_const))
    return [x, np.full(space.n, c)], gap, {"x": x.tolist(), "c": float(c)}


def _translation_insensitive(space, rng):
    x = market.sample_positions(rng, space)
    c = rng.uniform(-2 * market.SAMPLE_RANGE, 2 * market.SAMPLE_RANGE)
    return [x + c, x], lambda shifted, v: abs(shifted - v), {"x": x.tolist(), "c": float(c)}


def _positive_homogeneous(space, rng):
    x = market.sample_positions(rng, space)
    lam = rng.uniform(0.1, 5.0)
    gap = lambda scaled, base: abs(scaled - lam * base) / max(1.0, lam * abs(base))
    return [lam * x, x], gap, {"x": x.tolist(), "lam": float(lam)}


def _convex(space, rng):
    x, y = market.sample_positions(rng, space, 2)
    lam = rng.uniform(0.0, 1.0)
    gap = lambda mix, vx, vy: max(0.0, mix - (lam * vx + (1 - lam) * vy))
    return [lam * x + (1 - lam) * y, x, y], gap, {"x": x.tolist(), "y": y.tolist(), "lam": float(lam)}


def _comonotone_additive(space, rng):
    x, y = market.sample_comonotone_pair(rng, space, scale=market.SAMPLE_RANGE)
    return [x + y, x, y], lambda total, vx, vy: abs(total - vx - vy), {"x": x.tolist(), "y": y.tolist()}


def _law_invariant(space, rng):
    x = market.sample_positions(rng, space)
    perm = rng.permutation(space.n)
    return [x[perm], x], lambda permuted, v: abs(permuted - v), {"x": x.tolist(), "perm": perm.tolist()}


def _lower_range_dominated(space, rng):
    x = market.sample_positions(rng, space)
    bound = market.expectation(space, x) - float(np.min(x))
    return [x], lambda v: max(0.0, v - bound), {"x": x.tolist()}


#: One witness per ``AxiomFlags`` field.
WITNESSES = {
    "nonnegative": _nonnegative,
    "translation_insensitive": _translation_insensitive,
    "positive_homogeneous": _positive_homogeneous,
    "convex": _convex,
    "comonotone_additive": _comonotone_additive,
    "law_invariant": _law_invariant,
    "lower_range_dominated": _lower_range_dominated,
}


def check_axioms(
    D: DeviationFunctional,
    space: MarketSpace,
    trials: int = 200,
    seed: int = 0,
) -> list[AxiomReport]:
    """Sampled audit of every axiom declared ``True`` on ``D``, in
    ``AxiomFlags`` order, each by its ``WITNESSES`` entry; law invariance
    only on a uniform space.

    An axiom's ``trials`` cases are drawn in turn from one generator, and
    ``D`` is asked all their positions as one batch.  Reports carry the
    worst violation gap (a NaN gap, from ``inf - inf``, is skipped), and an
    axiom passes when it is at most ``AXIOM_TOL``; a returned failure
    includes a replayable counterexample, the first trial at the worst gap.
    """
    rng = np.random.default_rng(seed)
    reports: list[AxiomReport] = []
    for axiom in (f.name for f in fields(AxiomFlags)):
        if getattr(D.axioms, axiom) is not True or (axiom == "law_invariant" and not space.is_uniform()):
            continue
        cases = [WITNESSES[axiom](space, rng) for _ in range(trials)]
        rows = np.array([positions for positions, _, _ in cases]).reshape(-1, space.n)
        values = D.eval(space, rows).reshape(trials, -1).tolist() if trials else []
        worst, ce = 0.0, None
        for t, ((_, gap_of, payload), v) in enumerate(zip(cases, values)):
            gap = gap_of(*v)
            if gap > worst:
                worst = gap
                if gap > AXIOM_TOL:
                    ce = dict(payload, trial=t, seed=seed, gap=gap)
        reports.append(AxiomReport(axiom=axiom, passed=worst <= AXIOM_TOL, trials=trials,
                                   worst_gap=worst, counterexample=ce))
    return reports


# ---------------------------------------------------------------------------
# JSON measure descriptions
# ---------------------------------------------------------------------------

def measure_from_json(doc) -> DeviationFunctional:
    """Parse ``{"measure": name, "alpha"?: a}`` (or a bare name string); an
    error, and any other member, names the description's path."""
    doc = market.Field.of(doc, "measure")
    with doc.blame(MeasureError):
        if type(doc.value) is str:
            return builtin_deviation(doc.value)
        alpha = doc["alpha"].number() if "alpha" in doc else None
        D = builtin_deviation(doc["measure"].string(), alpha=alpha)
    doc.done()
    return D
