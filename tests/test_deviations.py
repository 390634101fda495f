"""Deviation and error measures against independent oracles.

The oracle function below is a deliberately naive reimplementation (a
Riemann sum of the step quantile) used to derive the frozen expected
values; the module under test must agree with them and
with the hand-computed constants.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkdev.deviations import (
    CATALOGUE,
    MeasureError,
    builtin_deviation,
    builtin_error,
    check_axioms,
    expected_shortfall,
    measure_from_json,
)
from minkdev.market import MarketSpace

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

def test_check_axioms_passes_for_catalogue():
    # Every deviation entry.  Two declarations are known to over-declare and
    # stay out: esd at alpha = 1 is identically 0 yet declares nonnegative,
    # and the error measures declare nonnegative though not zero on constants.
    measures = [builtin_deviation(name) for name in ("variance", "std_dev", "lower_semidev", "lr", "ur", "frd")]
    measures += [builtin_deviation(name, alpha=a) for name in ("es", "esd") for a in (0.0, 0.1, 0.5)]
    deviations = {name for name, (kind, *_) in CATALOGUE.items() if kind == "deviation"}
    assert {D.label.split("(")[0] for D in measures} == deviations
    for space in (UNIFORM4, SPACE4):
        for D in measures:
            reports = check_axioms(D, space, trials=100, seed=0)
            assert reports, D.label
            assert all(r.passed for r in reports), (D.label, [r for r in reports if not r.passed])


def test_check_axioms_catches_a_planted_false_flag():
    sd = builtin_deviation("std_dev")
    lying = replace(sd, axioms=replace(sd.axioms, comonotone_additive=True))
    reports = check_axioms(lying, SPACE4, trials=200, seed=0)
    como = [r for r in reports if r.axiom == "comonotone_additive"]
    assert como and not como[0].passed
    assert como[0].counterexample is not None


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
