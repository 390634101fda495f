"""Deviation and error measures against independent oracles.

The oracle function below is a deliberately naive reimplementation (a
Riemann sum of the step quantile) used to derive the frozen expected
values; the module under test must agree with them and
with the hand-computed constants.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkdev import deviations, market, suite
from minkdev.deviations import (
    AXIOM_TOL,
    CATALOGUE,
    AxiomFlags,
    AxiomReport,
    DeviationFunctional,
    MeasureError,
    builtin_deviation,
    builtin_error,
    check_axioms,
    expected_shortfall,
    measure_from_json,
)
from minkdev.duality import Polytope
from minkdev.gauge import deviation_from_set
from minkdev.market import MarketSpace
from minkdev.sets import audit_flags, sublevel_set

BINARY = MarketSpace(np.array([0.25, 0.75]))
SPACE4 = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))
UNIFORM4 = MarketSpace(np.full(4, 0.25))


# --- independent oracles -----------------------------------------------------

def oracle_es(space, x, alpha):
    """Riemann sum of the step quantile on a fine grid (independent route)."""
    ts = (np.arange(200_000) + 0.5) / 200_000 * alpha
    values = np.sort(x)
    cum = np.cumsum(space.probs[np.argsort(x, kind="stable")])
    q = values[np.searchsorted(cum, ts, side="left")]
    return -float(np.mean(q))


# --- closed forms, frozen values --------------------------------------------

def test_variance_and_std_dev_binary():
    var = builtin_deviation("variance")
    sd = builtin_deviation("std_dev")
    # binary closed form: p q (a - b)^2 with p q = 3/16
    x = np.array([0.0, 4.0 / math.sqrt(3.0)])
    assert var.eval(BINARY, x) == pytest.approx(1.0, abs=1e-14)
    assert sd.eval(BINARY, x) == pytest.approx(1.0, abs=1e-14)
    assert sd.eval(BINARY, np.array([1.0, 2.0])) == pytest.approx(math.sqrt(3.0) / 4.0)


def test_ranges_binary():
    x = np.array([0.0, 4.0 / 3.0])  # mean 1
    assert builtin_deviation("lr").eval(BINARY, x) == pytest.approx(1.0)
    assert builtin_deviation("ur").eval(BINARY, x) == pytest.approx(1.0 / 3.0)
    assert builtin_deviation("frd").eval(BINARY, x) == pytest.approx(4.0 / 3.0)


def test_lower_semidev():
    x = np.array([0.0, 4.0 / 3.0])  # centred: (-1, 1/3)
    # sqrt(1/4 * 1) = 1/2
    assert builtin_deviation("lower_semidev").eval(BINARY, x) == pytest.approx(0.5)


def test_expected_shortfall_exact_step_integration():
    x = np.array([0.0, 4.0 / 3.0])
    # alpha inside the first atom: ES = -(lowest value)
    assert expected_shortfall(BINARY, x, 0.1) == pytest.approx(0.0)
    # alpha = 0.5: integral = 0.25*0 + 0.25*(4/3) -> ES = -2/3
    assert expected_shortfall(BINARY, x, 0.5) == pytest.approx(-2.0 / 3.0)
    assert expected_shortfall(BINARY, x, 1.0) == pytest.approx(-1.0)  # = -mean
    assert expected_shortfall(BINARY, x, 0.0) == pytest.approx(0.0)  # = -ess inf
    with pytest.raises(MeasureError):
        expected_shortfall(BINARY, x, 1.5)


def test_expected_shortfall_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-3, 3, size=4)
        for alpha in (0.1, 0.3, 0.75):
            assert expected_shortfall(SPACE4, x, alpha) == pytest.approx(
                oracle_es(SPACE4, x, alpha), abs=1e-3
            )


def test_esd_frozen_values():
    x = np.array([0.0, 4.0 / 3.0])  # centred law: -1 w.p. 1/4, 1/3 w.p. 3/4
    esd = lambda a: builtin_deviation("esd", alpha=a).eval(BINARY, x)
    assert esd(0.1) == pytest.approx(1.0)
    assert esd(0.25) == pytest.approx(1.0)
    assert esd(0.5) == pytest.approx(1.0 / 3.0)  # -(0.25*(-1) + 0.25*(1/3))/0.5
    assert esd(1.0) == pytest.approx(0.0, abs=1e-14)
    # alpha = 0 degenerates to the lower range
    assert esd(0.0) == pytest.approx(builtin_deviation("lr").eval(BINARY, x))


def test_kb_error_frozen_value():
    kb = builtin_error("kb", alpha=0.1)
    # (1-a)/a = 9; E[9 X^- + X^+] on (-1, 1): 9*(1/4) + 3/4 = 3
    assert kb.eval(BINARY, np.array([-1.0, 1.0])) == pytest.approx(3.0)
    with pytest.raises(MeasureError):
        builtin_error("kb", alpha=1.0)


def test_sup_range_error():
    assert builtin_error("sup_range").eval(BINARY, np.array([-0.5, 2.0])) == pytest.approx(4.0)


# --- axiom audits -------------------------------------------------------------

#: Every deviation entry of the catalogue, ``es`` and ``esd`` at both ends of
#: their level interval and inside it.
CATALOGUE_DEVIATIONS = [builtin_deviation(name) for name in
                        ("variance", "std_dev", "lower_semidev", "lr", "ur", "frd")]
CATALOGUE_DEVIATIONS += [builtin_deviation(name, alpha=a) for name in ("es", "esd") for a in (0.0, 0.1, 0.5, 1.0)]


def test_check_axioms_passes_for_catalogue():
    # Every deviation entry, at every level it declares axioms for: esd(1) is
    # identically 0, so it declares nonnegative False and is not audited for
    # it.  The error measures stay out: they declare nonnegative though they
    # are not zero on the constants.
    names = {name for name, (kind, *_) in CATALOGUE.items() if kind == "deviation"}
    assert {D.label.split("(")[0] for D in CATALOGUE_DEVIATIONS} == names
    for space in (UNIFORM4, SPACE4):
        for D in CATALOGUE_DEVIATIONS:
            reports = check_axioms(D, space, trials=100, seed=0)
            assert reports, D.label
            assert all(r.passed for r in reports), (D.label, [r for r in reports if not r.passed])
    # esd(1)'s sub-level set is the whole space, and declares nothing it is not
    whole = sublevel_set(SPACE4, builtin_deviation("esd", alpha=1.0), 1.0)
    assert all(r.passed for r in audit_flags(whole, trials=60, seed=0))


def test_check_axioms_catches_a_planted_false_flag():
    sd = builtin_deviation("std_dev")
    lying = replace(sd, axioms=replace(sd.axioms, comonotone_additive=True))
    reports = check_axioms(lying, SPACE4, trials=200, seed=0)
    como = [r for r in reports if r.axiom == "comonotone_additive"]
    assert como and not como[0].passed
    assert como[0].counterexample is not None


def test_nonnegative_counterexample_carries_the_constant_it_evaluates():
    # an error measure is positive on the constants, so the gap comes from
    # the constant ``c`` the witness evaluates, which the payload must carry
    D = builtin_error("lp_norm", p=2.0)
    [report] = [r for r in check_axioms(D, SPACE4, trials=20) if r.axiom == "nonnegative"]
    assert not report.passed
    ce = report.counterexample
    assert ce["gap"] == abs(D.eval(SPACE4, np.full(4, ce["c"])))


# The audit one case at a time: each witness asks ``D`` its case's positions
# one by one, and returns the gap with the positions and scalars that replay
# it.  ``check_axioms`` must report exactly what this loop reports.

def _nonnegative(D, space, rng):
    x = market.sample_positions(rng, space)
    v = D.eval(space, x)
    off_constants = AXIOM_TOL * 2 if np.ptp(x) > 1e-6 and v <= AXIOM_TOL else 0.0  # must be positive there
    c = rng.uniform(-market.SAMPLE_RANGE, market.SAMPLE_RANGE)
    return max(0.0, -v, off_constants, abs(D.eval(space, np.full(space.n, c)))), {"x": x.tolist(), "c": float(c)}


def _translation_insensitive(D, space, rng):
    x = market.sample_positions(rng, space)
    c = rng.uniform(-2 * market.SAMPLE_RANGE, 2 * market.SAMPLE_RANGE)
    return abs(D.eval(space, x + c) - D.eval(space, x)), {"x": x.tolist(), "c": float(c)}


def _positive_homogeneous(D, space, rng):
    x = market.sample_positions(rng, space)
    lam = rng.uniform(0.1, 5.0)
    base = D.eval(space, x)
    gap = abs(D.eval(space, lam * x) - lam * base) / max(1.0, lam * abs(base))
    return gap, {"x": x.tolist(), "lam": float(lam)}


def _convex(D, space, rng):
    x, y = market.sample_positions(rng, space, 2)
    lam = rng.uniform(0.0, 1.0)
    lhs = D.eval(space, lam * x + (1 - lam) * y)
    rhs = lam * D.eval(space, x) + (1 - lam) * D.eval(space, y)
    return max(0.0, lhs - rhs), {"x": x.tolist(), "y": y.tolist(), "lam": float(lam)}


def _comonotone_additive(D, space, rng):
    x, y = market.sample_comonotone_pair(rng, space, scale=market.SAMPLE_RANGE)
    gap = abs(D.eval(space, x + y) - D.eval(space, x) - D.eval(space, y))
    return gap, {"x": x.tolist(), "y": y.tolist()}


def _law_invariant(D, space, rng):
    x = market.sample_positions(rng, space)
    perm = rng.permutation(space.n)
    return abs(D.eval(space, x[perm]) - D.eval(space, x)), {"x": x.tolist(), "perm": perm.tolist()}


def _lower_range_dominated(D, space, rng):
    x = market.sample_positions(rng, space)
    return max(0.0, D.eval(space, x) - (market.expectation(space, x) - float(np.min(x)))), {"x": x.tolist()}


REFERENCE_WITNESSES = {
    "nonnegative": _nonnegative,
    "translation_insensitive": _translation_insensitive,
    "positive_homogeneous": _positive_homogeneous,
    "convex": _convex,
    "comonotone_additive": _comonotone_additive,
    "law_invariant": _law_invariant,
    "lower_range_dominated": _lower_range_dominated,
}


def reference_check_axioms(
    D: DeviationFunctional,
    space: MarketSpace,
    trials: int = 200,
    seed: int = 0,
) -> list[AxiomReport]:
    """Sampled audit of every axiom declared ``True`` on ``D``, in
    ``AxiomFlags`` order, each by its ``REFERENCE_WITNESSES`` entry; law invariance
    only on a uniform space.

    Reports carry the worst violation gap, and an axiom passes when it is at
    most ``AXIOM_TOL``; a returned failure includes a replayable
    counterexample.
    """
    rng = np.random.default_rng(seed)
    reports: list[AxiomReport] = []
    for axiom in (f.name for f in fields(AxiomFlags)):
        if getattr(D.axioms, axiom) is not True or (axiom == "law_invariant" and not space.is_uniform()):
            continue
        worst = 0.0
        ce = None
        for t in range(trials):
            gap, payload = REFERENCE_WITNESSES[axiom](D, space, rng)
            if gap > worst:
                worst = gap
                if gap > AXIOM_TOL:
                    ce = dict(payload, trial=t, seed=seed, gap=gap)
        reports.append(AxiomReport(axiom=axiom, passed=worst <= AXIOM_TOL, trials=trials,
                                   worst_gap=worst, counterexample=ce))
    return reports



def _criterion_7_gauges():
    """The gauges of four sets built as criterion 7 builds them: convex or
    not, law-invariant or not."""
    rng = np.random.default_rng(5)
    return [deviation_from_set(suite._admissible_set(rng, UNIFORM4, convex=convex, law_invariant=law),
                               suite.TIGHT_OPTS)
            for convex in (True, False) for law in (True, False)]


def _half_space_gauge():
    """The gauge of ``{x : x_0 >= 0}``: 0 on that half-space, ``inf`` off it,
    so a case whose positions all lie off it has the gap ``inf - inf``."""
    D = deviation_from_set(Polytope.from_halfspaces(SPACE4, [[-1.0, 0.0, 0.0, 0.0]], [0.0]).as_acceptance_set())
    assert D.eval(SPACE4, [-1.0, 0.0, 0.0, 0.0]) == math.inf
    return D


def _audits():
    sd = builtin_deviation("std_dev")
    cases = [(D, space, 100) for space in (UNIFORM4, SPACE4) for D in CATALOGUE_DEVIATIONS]
    cases.append((replace(sd, axioms=replace(sd.axioms, comonotone_additive=True)), SPACE4, 200))
    cases += [(D, UNIFORM4, 30) for D in _criterion_7_gauges()]
    cases.append((_half_space_gauge(), SPACE4, 30))
    return cases


@pytest.mark.filterwarnings("error")
def test_check_axioms_reports_as_the_one_case_loop():
    for D, space, trials in _audits():
        for seed in (0, 8191):
            got = [vars(r) for r in check_axioms(D, space, trials, seed)]
            assert got == [vars(r) for r in reference_check_axioms(D, space, trials, seed)], D.label
    assert check_axioms(builtin_deviation("std_dev"), SPACE4, trials=0) == [
        AxiomReport(axiom, True, 0, 0.0) for axiom in
        ("nonnegative", "translation_insensitive", "positive_homogeneous", "convex")]


def test_check_axioms_asks_each_axiom_as_one_batch():
    sd = builtin_deviation("std_dev")
    shapes = []

    def recording(space, x):
        shapes.append(x.shape)
        return sd.eval_fn(space, x)

    every_axiom = AxiomFlags(**{f.name: True for f in fields(AxiomFlags)})
    D = replace(sd, eval_fn=recording, axioms=every_axiom)
    reports = check_axioms(D, UNIFORM4, trials=50, seed=0)
    assert [r.axiom for r in reports] == [f.name for f in fields(AxiomFlags)]
    # rows per case: 2, 2, 2, 3 (the mix and its ends), 3 (the sum and its
    # terms), 2 and 1
    assert shapes == [(50 * rows, 4) for rows in (2, 2, 2, 3, 3, 2, 1)]
    assert [vars(r) for r in reports] == [vars(r) for r in reference_check_axioms(D, UNIFORM4, 50, 0)]


def test_criterion_6_fails_when_a_measure_is_not_comonotone_additive(monkeypatch):
    kind, closed_form, *rest = CATALOGUE["frd"]
    sd = builtin_deviation("std_dev")
    perturbed = lambda space, x: closed_form(space, x) + 0.01 * sd.eval_fn(space, x)
    monkeypatch.setitem(deviations.CATALOGUE, "frd", (kind, perturbed, *rest))
    report = suite.check_comonotone_additivity(seed=0)
    assert report["passed"] is False and report["max_gap"] > 1e-3


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    st.floats(-20, 20),
)
def test_translation_insensitivity_property(values, shift):
    x = np.array(values)
    for name in ("std_dev", "lr", "frd"):
        D = builtin_deviation(name)
        assert D.eval(SPACE4, x + shift) == pytest.approx(D.eval(SPACE4, x), abs=1e-9)


# --- JSON parsing ---------------------------------------------------------------

def test_measure_from_json():
    D = measure_from_json({"measure": "esd", "alpha": 0.25})
    assert D.label == "esd(0.25)"
    assert measure_from_json("frd").label == "frd"
    with pytest.raises(MeasureError):
        measure_from_json({"measure": "nope"})


@pytest.mark.parametrize("name, alpha", [("es", 1.5), ("esd", -0.5)])
def test_a_shortfall_level_is_checked_when_the_measure_is_built(name, alpha):
    for a in (alpha, math.nan):
        with pytest.raises(MeasureError, match=rf"^shortfall level must lie in \[0, 1\], got {a}$"):
            builtin_deviation(name, alpha=a)
    with pytest.raises(MeasureError, match=r"^measure: shortfall level must lie in \[0, 1\]"):
        measure_from_json({"measure": name, "alpha": alpha})
    for a in (0.0, 1.0):
        assert builtin_deviation(name, alpha=a).label == f"{name}({a:g})"


@pytest.mark.parametrize("build, message", [
    (lambda: builtin_deviation("std_dev", alpha=0.3), "std_dev takes no alpha"),
    (lambda: builtin_error("sup_range", p=3.0), "sup_range takes no p"),
    (lambda: builtin_error("kb", p=2.0, alpha=0.2), "kb takes no p"),
    (lambda: builtin_error("lp_norm", p=2.0, alpha=0.2), "lp_norm takes no alpha"),
    (lambda: measure_from_json({"measure": "frd", "alpha": 0.5}), "measure: frd takes no alpha"),
], ids=["deviation", "error", "level-measure", "exponent-measure", "json"])
def test_a_parameter_the_measure_does_not_take_is_refused(build, message):
    with pytest.raises(MeasureError, match=f"^{message}$"):
        build()
