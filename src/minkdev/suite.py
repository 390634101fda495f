"""Cross-module invariant suite.

Each check compares two independent computational routes to the same
quantity — closed forms against gauge bisection, bisection against the
polar LP, set algebra against measure algebra — and returns a plain-data
report.  Criterion 3 compares the gauge of ``A + R`` with closed-form error
projections, so no route of the suite searches over constant shifts.
Criteria 6 and 7 audit axioms through ``deviations.check_axioms``
and draw no positions of their own.  Reports are deterministic for a
fixed seed (no timestamps, no wall-clock fields), which is what makes the
byte-identical determinism check meaningful; timings are returned
separately.

The registry at the bottom is consumed by the command-line ``suite``
command and by the acceptance test battery.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import numpy as np

from . import duality, market, sets
from .deviations import builtin_deviation, builtin_error, check_axioms, AxiomFlags, DeviationFunctional
from .duality import Polytope
from .gauge import GaugeOptions, deviation_from_set, gauge_table
from .market import MarketSpace
from .sets import AcceptanceSet, add_constants, ball_set, combine, sublevel_set

#: Solver options used by the suite: tight enough for the 1e-6/1e-7
#: comparisons below while keeping bisection call counts moderate.
SUITE_OPTS = GaugeOptions(tol_rel=1e-9, tol_abs=1e-13)

#: Extra-tight options for the dual-representation comparison, where the
#: LP side is exact to machine precision.
TIGHT_OPTS = GaugeOptions(tol_rel=1e-12, tol_abs=1e-14)

BINARY_SPACE = MarketSpace(np.array([0.25, 0.75]))


def _random_space(rng: np.random.Generator, n: int) -> MarketSpace:
    w = rng.uniform(0.5, 1.5, size=n)
    return MarketSpace(w / w.sum())


def _max_gap(a, b) -> float:
    """The largest ``|a - b|`` over two arrays of values, 0.0 when empty;
    equal entries, infinities included, give 0 and never ``inf - inf``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(np.subtract(a, b, out=np.zeros(a.shape), where=a != b)).max(initial=0.0))


def _round(x: float, digits: int = 12) -> float:
    """Round report floats; keeps reports stable across reruns and readable."""
    if math.isinf(x):
        return x
    return float(f"{x:.{digits}e}")


# ---------------------------------------------------------------------------
# Criterion 1: closed-form measures against their acceptance-set gauges
# ---------------------------------------------------------------------------

def check_closed_form_gauges(seed: int = 0) -> dict:
    """``k * gauge(Acc_k(D)) == D`` for the positively homogeneous catalogue."""
    rng = np.random.default_rng(seed)
    measures = [
        builtin_deviation("std_dev"),
        builtin_deviation("lr"),
        builtin_deviation("ur"),
        builtin_deviation("frd"),
        builtin_deviation("esd", alpha=0.1),
        builtin_deviation("esd", alpha=0.25),
    ]
    spaces = [BINARY_SPACE] + [_random_space(rng, int(n)) for n in rng.integers(3, 9, size=5)]
    levels = (0.5, 1.0, 3.0)
    max_gap = 0.0
    count = 0
    for space in spaces:
        X = market.sample_positions(rng, space, 100)
        cases = [(D, k) for D in measures for k in levels]
        table = gauge_table([sublevel_set(space, D, k) for D, k in cases], X, SUITE_OPTS)
        for (D, k), column in zip(cases, table):
            max_gap = max(max_gap, _max_gap([k * res.value for res in column], D.eval(space, X)))
            count += len(X)
    return {"criterion": "closed_form_gauges", "passed": max_gap < 1e-6,
            "max_gap": _round(max_gap), "comparisons": count, "seed": seed}


# ---------------------------------------------------------------------------
# Criterion 2: variance normalisation
# ---------------------------------------------------------------------------

def check_variance_normalisation(seed: int = 0) -> dict:
    """``gauge(Acc_k(variance)) == std_dev / sqrt(k)`` (degree-2 sub-level)."""
    rng = np.random.default_rng(seed)
    var = builtin_deviation("variance")
    sd = builtin_deviation("std_dev")
    space = _random_space(rng, 5)
    max_gap = 0.0
    for k in (1.0, 4.0):
        X = market.sample_positions(rng, space, 100)
        [column] = gauge_table([sublevel_set(space, var, k)], X, SUITE_OPTS)
        max_gap = max(max_gap, _max_gap([res.value for res in column], sd.eval(space, X) / math.sqrt(k)))
    return {"criterion": "variance_normalisation", "passed": max_gap < 1e-6,
            "max_gap": _round(max_gap), "seed": seed}


# ---------------------------------------------------------------------------
# Criterion 3: shift identity  gauge(A + R) == inf_c gauge(A, x - c), in closed form
# ---------------------------------------------------------------------------

#: Constants and near-constants, where the gauge of ``A + R`` is 0 or
#: tiny, asked after each set's random positions.
SHIFT_FIXED_POSITIONS = [np.full(4, 1.5), np.full(4, -2.0), np.zeros(4),
                         np.array([1.5, 1.5, 1.5, 1.5 + 1e-9]),
                         np.array([-3.0, -3.0 + 1e-7, -3.0, -3.0])]


def check_shift_identity(seed: int = 0) -> dict:
    """``gauge(A + R) = inf_c gauge(A, x - c)``, with the infimum in closed
    form, the error projection of the set's error measure (Rockafellar,
    Uryasev and Zabarankin, 2006 and 2008): the standard deviation over the
    unit ``p = 2`` ball, ``esd(0.1)`` over ``{kb(0.1) <= 1}`` and the full
    range over ``{||x||_inf <= 0.5}``.  Each ``add_constants`` set is asked
    as one ``gauge_table`` column at 50 sampled positions and
    ``SHIFT_FIXED_POSITIONS``; the closed forms never ask the set."""
    rng = np.random.default_rng(seed)
    space = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))
    cases = [(ball_set(space, p=2.0, radius=1.0), builtin_deviation("std_dev")),
             (sublevel_set(space, builtin_error("kb", alpha=0.1), 1.0), builtin_deviation("esd", alpha=0.1)),
             (sublevel_set(space, builtin_error("lp_norm", p=math.inf), 0.5), builtin_deviation("frd"))]
    gaps = []
    for A, D in cases:
        X = np.array([*market.sample_positions(rng, space, 50), *SHIFT_FIXED_POSITIONS])
        [column] = gauge_table([add_constants(A)], X, SUITE_OPTS)
        gaps.append(_max_gap([res.value for res in column], D.eval(space, X)))
    sigma_gap, esd_gap, range_gap = gaps
    return {"criterion": "shift_identity", "passed": max(gaps) < 1e-7,
            "max_gap": _round(max(gaps)), "max_sigma_gap": _round(sigma_gap),
            "max_esd_gap": _round(esd_gap), "max_range_gap": _round(range_gap), "seed": seed}


# ---------------------------------------------------------------------------
# Criteria 4-5: polar duality
# ---------------------------------------------------------------------------

def _random_polytopes(rng: np.random.Generator, count: int = 20):
    """Random convex polytopes (n in 2..4).  Three out of four contain 0 in
    the interior; every fourth has 0 as a vertex so that infinite gauges and
    unbounded support LPs are exercised as well."""
    polys = []
    for i in range(count):
        n = int(rng.integers(2, 5))
        space = _random_space(rng, n)
        k = n + int(rng.integers(2, 5))
        if i % 4 == 3:
            pts = rng.uniform(0.2, 3.0, size=(k, n))  # strictly positive cone
            pts = np.vstack([pts, np.zeros((1, n))])
        else:
            pts = rng.uniform(-3.0, 3.0, size=(k, n))
            pts = np.vstack([pts, 0.5 * np.eye(n), -0.5 * np.eye(n)])  # 0 interior
        polys.append(Polytope.from_vertices(space, pts))
    return polys


def check_dual_representation(seed: int = 0) -> dict:
    """Bisection gauge against polar support function on random polytopes."""
    rng = np.random.default_rng(seed)
    polys = _random_polytopes(rng, 20)
    max_gap = 0.0
    inf_agree = 0
    bad = 0
    for i, P in enumerate(polys):
        rep = duality.dual_representation_check(P, trials=100, seed=seed + 1000 + i, opts=TIGHT_OPTS)
        max_gap = max(max_gap, rep.max_gap)
        inf_agree += rep.infinite_agreements
        bad += rep.disagreements
    return {"criterion": "dual_representation", "passed": bad == 0 and max_gap < 1e-6,
            "max_gap": _round(max_gap), "infinite_agreements": inf_agree,
            "disagreements": bad, "seed": seed}


def check_bipolar(seed: int = 0) -> dict:
    """Bipolar (via the polar support LP) against conv(P U {0}) membership."""
    rng = np.random.default_rng(seed)
    polys = _random_polytopes(rng, 20)
    bad = 0
    trials = 0
    for i, P in enumerate(polys):
        rep = duality.bipolar_check(P, trials=500, seed=seed + 2000 + i)
        bad += rep.disagreements
        trials += rep.trials
    return {"criterion": "bipolar", "passed": bad == 0,
            "disagreements": bad, "trials": trials, "seed": seed}


# ---------------------------------------------------------------------------
# Criterion 6: comonotone additivity
# ---------------------------------------------------------------------------

def check_comonotone_additivity(seed: int = 0) -> dict:
    """Quantile-based measures are additive on comonotone pairs; the
    standard deviation is not (witness required).  Each measure is audited
    by ``check_axioms`` for this axiom alone, all at ``seed``, so every
    measure sees the same pairs."""
    space = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))

    def worst_gap(D: DeviationFunctional) -> float:
        [report] = check_axioms(replace(D, axioms=AxiomFlags(comonotone_additive=True)), space, 200, seed)
        return report.worst_gap

    max_gap = max(worst_gap(builtin_deviation(name, **kw))
                  for name, kw in (("esd", {"alpha": 0.1}), ("lr", {}), ("frd", {})))
    sigma_witness_gap = worst_gap(builtin_deviation("std_dev"))
    return {"criterion": "comonotone_additivity",
            "passed": max_gap < 1e-7 and sigma_witness_gap > 1e-3,
            "max_gap": _round(max_gap),
            "std_dev_witness_gap": _round(sigma_witness_gap), "seed": seed}


# ---------------------------------------------------------------------------
# Criterion 7: axiom propagation from admissible sets to their gauges
# ---------------------------------------------------------------------------

def _unit_set(space: MarketSpace, norms, axioms: AxiomFlags) -> AcceptanceSet:
    """``{ x : min_j N_j(x) <= 1 }`` for row-wise norms ``N_j`` that share
    ``axioms``: the union of their unit sub-level sets."""
    A, *rest = (sublevel_set(space, DeviationFunctional("generated", N, axioms), 1.0)
                for N in norms)
    for B in rest:
        A = combine("union", A, B)
    return A


def _admissible_set(rng: np.random.Generator, space: MarketSpace, convex: bool, law_invariant: bool) -> AcceptanceSet:
    """A random admissible acceptance set: the unit sub-level set of a
    weighted norm of the centred position (convex), or of the minimum of two
    such norms (star-shaped but generally non-convex).  Symmetric weights on
    a uniform space give law invariance."""
    def make(pick: int):
        p = [1.0, 2.0, math.inf][pick % 3]
        if law_invariant:
            w = np.full(space.n, float(rng.uniform(0.5, 2.0)))
        else:
            w = rng.uniform(0.5, 2.0, size=space.n)
        return lambda sp, x: market.lp_norm(sp, w * market.centred(sp, x), p)

    norms = [make(int(rng.integers(0, 3))) for _ in range(1 if convex else 2)]
    axioms = AxiomFlags(nonnegative=True, translation_insensitive=True, positive_homogeneous=True,
                        convex=True, law_invariant=law_invariant)
    return _unit_set(space, norms, axioms)


#: Trials ``check_axioms`` draws for each axiom of each of criterion 7's 20
#: sets.
TRIALS_PER_SET = 500


def check_axiom_propagation(seed: int = 0) -> dict:
    """Gauges of admissible sets, read as ``deviation_from_set``, are
    deviation measures that declare, and show, the axioms the set was built
    to give.  Each gauge is audited by ``check_axioms``: every declared
    axiom within ``AXIOM_TOL``, and zero on the constants within 1e-9."""
    rng = np.random.default_rng(seed)
    space = MarketSpace(np.full(4, 0.25))
    failures = 0
    worst = dict.fromkeys(("translation_insensitive", "positive_homogeneous", "convex", "law_invariant"), 0.0)
    for i in range(20):
        convex = i % 2 == 0
        law = i < 10
        D = deviation_from_set(_admissible_set(rng, space, convex=convex, law_invariant=law), TIGHT_OPTS)
        failures += D.axioms != AxiomFlags(nonnegative=True, translation_insensitive=True,
                                           positive_homogeneous=True, convex=convex or None,
                                           law_invariant=law or None)
        for r in check_axioms(D, space, TRIALS_PER_SET, int(rng.integers(2**32))):
            failures += not r.passed or (r.axiom == "nonnegative" and r.worst_gap > 1e-9)
            if r.axiom in worst:
                worst[r.axiom] = max(worst[r.axiom], r.worst_gap)
    return {"criterion": "axiom_propagation", "passed": failures == 0,
            "failures": failures, "max_translation_gap": _round(worst["translation_insensitive"]),
            "max_homogeneity_gap": _round(worst["positive_homogeneous"]),
            "max_subadditivity_gap": _round(worst["convex"]),
            "max_law_invariance_gap": _round(worst["law_invariant"]), "seed": seed}


# ---------------------------------------------------------------------------
# Criterion 8: gauge algebra over unions, intersections, scalings
# ---------------------------------------------------------------------------

def _star_body(rng: np.random.Generator, space: MarketSpace) -> AcceptanceSet:
    """Unit sub-level set of a random weighted p-norm (a convex star body),
    or of the min of two (non-convex but star-shaped)."""
    def norm(p: float, w: np.ndarray):
        if p == math.inf:
            return lambda sp, x: np.max(w * np.abs(x), axis=-1)
        return lambda sp, x: np.power(np.sum((w * np.abs(x)) ** p, axis=-1), 1.0 / p)

    norms = [norm([1.0, 2.0, math.inf][int(rng.integers(0, 3))], rng.uniform(0.4, 2.0, size=space.n))
             for _ in range(int(rng.integers(1, 3)))]
    return _unit_set(space, norms, AxiomFlags(nonnegative=True, positive_homogeneous=True, convex=True))


def check_gauge_algebra(seed: int = 0) -> dict:
    """``gauge(A u B) = min``, ``gauge(A n B) = max``, ``gauge(t A) = gauge(A)/t``."""
    rng = np.random.default_rng(seed)
    space = MarketSpace(np.full(3, 1.0 / 3.0))
    max_gap = 0.0
    for _ in range(100):
        A = _star_body(rng, space)
        B = _star_body(rng, space)
        U = combine("union", A, B)
        I = combine("intersection", A, B)
        t = float(rng.uniform(0.3, 3.0))
        S = sets.scale_set(A, t)
        X = market.sample_positions(rng, space, 5)
        table = gauge_table([A, B, U, I, S], X, SUITE_OPTS)
        ga, gb, gu, gi, gs = (np.array([res.value for res in column]) for column in table)
        max_gap = max(max_gap, _max_gap(gu, np.minimum(ga, gb)), _max_gap(gi, np.maximum(ga, gb)),
                      _max_gap(gs, ga / t))
    return {"criterion": "gauge_algebra", "passed": max_gap < 1e-7,
            "max_gap": _round(max_gap), "seed": seed}


# ---------------------------------------------------------------------------
# Criterion 9: boundary geometry on the binary market
# ---------------------------------------------------------------------------

def ray_profile(A: AcceptanceSet, rays: int = 720, opts: GaugeOptions = SUITE_OPTS):
    """Radial boundary profile: for each angle, the distance from the origin
    to the set boundary along that direction (``1 / gauge(direction)``).

    Only defined on two-outcome spaces.  Returns rows
    ``(theta, x0, x1, finite)``; infinite radii (directions along which the
    set is unbounded, e.g. the constants line) are marked non-finite and the
    coordinates are left empty.
    """
    if A.space.n != 2:
        raise sets.SetError("ray profiles require a two-outcome space")
    thetas = [2.0 * math.pi * j / rays for j in range(rays)]
    D = np.array([[math.cos(theta), math.sin(theta)] for theta in thetas]).reshape(rays, 2)
    [column] = gauge_table([A], D, opts)
    out = []
    for theta, d, res in zip(thetas, D, column):
        gval = res.value
        if gval <= 0.0 or math.isinf(gval):
            # gauge 0: the set is unbounded along d (infinite radius);
            # gauge inf: the ray never meets the set (radius 0).
            out.append((theta, 0.0, 0.0, False))
        else:
            r = 1.0 / gval
            out.append((theta, r * d[0], r * d[1], True))
    return out


def check_boundary_geometry(seed: int = 0) -> dict:
    """Known boundary landmarks of the unit acceptance sets on the binary
    market with probabilities (1/4, 3/4): the standard-deviation strip has
    coordinate half-width 4/sqrt(3) in |x0 - x1|, the range strip has
    half-width 1, and the lower-range triangle meets the x1-axis at 4/3."""
    space = BINARY_SPACE
    sd_set = sublevel_set(space, builtin_deviation("std_dev"), 1.0)
    frd_set = sublevel_set(space, builtin_deviation("frd"), 1.0)
    lr_set = sublevel_set(space, builtin_deviation("lr"), 1.0)
    rays = 720
    profiles = {name: ray_profile(A, rays) for name, A in
                (("std_dev", sd_set), ("frd", frd_set), ("lr", lr_set))}
    idx_down_diag = (rays * 7) // 8   # direction (1, -1)/sqrt(2)
    idx_up = rays // 4                # direction (0, 1)

    _, x0, x1, ok_sd = profiles["std_dev"][idx_down_diag]
    gap_sd = abs(abs(x0 - x1) - 4.0 / math.sqrt(3.0))
    _, x0, x1, ok_frd = profiles["frd"][idx_down_diag]
    gap_frd = abs(abs(x0 - x1) - 1.0)
    _, x0, x1, ok_lr = profiles["lr"][idx_up]
    gap_lr = max(abs(x0 - 0.0), abs(x1 - 4.0 / 3.0))

    passed = ok_sd and ok_frd and ok_lr and max(gap_sd, gap_frd, gap_lr) < 1e-4
    return {"criterion": "boundary_geometry", "passed": bool(passed),
            "std_dev_half_width_gap": _round(gap_sd),
            "frd_half_width_gap": _round(gap_frd),
            "lr_vertex_gap": _round(gap_lr), "seed": seed}


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

CRITERIA = {
    "closed_form_gauges": check_closed_form_gauges,
    "variance_normalisation": check_variance_normalisation,
    "shift_identity": check_shift_identity,
    "dual_representation": check_dual_representation,
    "bipolar": check_bipolar,
    "comonotone_additivity": check_comonotone_additivity,
    "axiom_propagation": check_axiom_propagation,
    "gauge_algebra": check_gauge_algebra,
    "boundary_geometry": check_boundary_geometry,
}


def run_suite(seed: int = 0, only: list[str] | None = None):
    """Run the registered checks; returns ``(reports, timings)``.

    ``reports`` is deterministic for a fixed seed; ``timings`` (seconds per
    check) is kept separate so reports can be compared byte-for-byte.
    """
    names = list(CRITERIA) if not only else [n for n in CRITERIA if n in only]
    unknown = set(only or []) - set(CRITERIA)
    if unknown:
        raise KeyError(f"unknown suite checks: {sorted(unknown)}")
    reports = []
    timings = {}
    for name in names:
        start = time.perf_counter()
        reports.append(CRITERIA[name](seed=seed))
        timings[name] = time.perf_counter() - start
    return reports, timings


def json_safe(obj):
    """Make a payload JSON-safe: numpy scalars/arrays to plain types,
    non-finite floats to their string spellings."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def canonical_report(reports) -> str:
    """Stable JSON serialisation used for byte-identity comparisons."""
    return json.dumps(json_safe(reports), sort_keys=True, separators=(",", ":"))
