"""Acceptance battery: ten cross-module criteria with pinned tolerances.

Criteria 1-9 each compare two independent computational routes on seeded
random data and carry both a numeric tolerance and a wall-clock budget;
criterion 10 reruns the whole battery with the same seed and demands a
byte-identical report, and the first run must also match the report
checked in under ``tests/data``.  One summary line is printed per criterion.
"""

import math
import time
from pathlib import Path

import pytest

from minkdev.suite import CRITERIA, canonical_report, run_suite

SEED = 0

#: ``canonical_report`` of the battery at ``SEED``, as generated before the
#: lockstep gauge table; any change to a reported number shows up here.
GOLDEN_REPORT = Path(__file__).parent / "data" / "suite_report_seed0.json"

#: The battery's report at a held-out seed where every criterion passes
#: too, generated the same way: a criterion whose random stream shifts only
#: at another seed than ``SEED`` shows up here.
HELD_OUT_SEED = 8191
GOLDEN_HELD_OUT = Path(__file__).parent / "data" / f"suite_report_seed{HELD_OUT_SEED}.json"

#: Wall-clock budgets in seconds, per criterion.
BUDGETS = {
    "closed_form_gauges": 10.0,
    "variance_normalisation": 5.0,
    "shift_identity": 10.0,
    "dual_representation": 20.0,
    "bipolar": 10.0,
    "comonotone_additivity": 5.0,
    "axiom_propagation": 60.0,
    "gauge_algebra": 10.0,
    "boundary_geometry": 5.0,
}


@pytest.fixture(scope="module")
def battery():
    """Run the full suite twice with the same seed (second run feeds the
    determinism criterion)."""
    first, timings = run_suite(seed=SEED)
    second, _ = run_suite(seed=SEED)
    reports = {r["criterion"]: r for r in first}
    return reports, timings, canonical_report(first), canonical_report(second)


def _summary(name, report, timings):
    status = "PASS" if report["passed"] else "FAIL"
    gaps = {k: v for k, v in report.items() if k not in ("criterion", "passed", "seed")}
    print(f"[acceptance] {name}: {status} ({gaps}, {timings[report['criterion']]:.2f}s)")


def test_criterion_01_closed_form_gauge_equality(battery):
    reports, timings, *_ = battery
    rep = reports["closed_form_gauges"]
    _summary("1 closed_form_gauges", rep, timings)
    assert rep["comparisons"] == 10800  # 6 measures x 6 spaces x 3 levels x 100 positions
    assert rep["max_gap"] < 1e-6
    assert timings["closed_form_gauges"] < BUDGETS["closed_form_gauges"]


def test_criterion_02_variance_normalisation(battery):
    reports, timings, *_ = battery
    rep = reports["variance_normalisation"]
    _summary("2 variance_normalisation", rep, timings)
    assert rep["max_gap"] < 1e-6
    assert timings["variance_normalisation"] < BUDGETS["variance_normalisation"]


def test_criterion_03_shift_identity(battery):
    reports, timings, *_ = battery
    rep = reports["shift_identity"]
    _summary("3 shift_identity", rep, timings)
    assert rep["max_gap"] < 1e-5
    assert rep["max_sigma_gap"] < 1e-7
    assert timings["shift_identity"] < BUDGETS["shift_identity"]


def test_criterion_04_dual_representation(battery):
    reports, timings, *_ = battery
    rep = reports["dual_representation"]
    _summary("4 dual_representation", rep, timings)
    assert rep["disagreements"] == 0
    assert rep["max_gap"] < 1e-6
    assert rep["infinite_agreements"] > 0  # cone polytopes exercise the inf/inf branch
    assert timings["dual_representation"] < BUDGETS["dual_representation"]


def test_criterion_05_bipolar_reconstruction(battery):
    reports, timings, *_ = battery
    rep = reports["bipolar"]
    _summary("5 bipolar", rep, timings)
    assert rep["trials"] == 10_000  # 20 polytopes x 500 samples
    assert rep["disagreements"] == 0
    assert timings["bipolar"] < BUDGETS["bipolar"]


def test_criterion_06_comonotone_additivity(battery):
    reports, timings, *_ = battery
    rep = reports["comonotone_additivity"]
    _summary("6 comonotone_additivity", rep, timings)
    assert rep["max_gap"] < 1e-7
    assert rep["std_dev_witness_gap"] > 1e-3
    assert timings["comonotone_additivity"] < BUDGETS["comonotone_additivity"]


def test_criterion_07_axiom_propagation(battery):
    reports, timings, *_ = battery
    rep = reports["axiom_propagation"]
    _summary("7 axiom_propagation", rep, timings)
    assert rep["failures"] == 0
    assert rep["max_translation_gap"] < 1e-6
    assert rep["max_homogeneity_gap"] < 1e-7
    assert timings["axiom_propagation"] < BUDGETS["axiom_propagation"]


def test_criterion_08_gauge_algebra(battery):
    reports, timings, *_ = battery
    rep = reports["gauge_algebra"]
    _summary("8 gauge_algebra", rep, timings)
    assert rep["max_gap"] < 1e-7
    assert timings["gauge_algebra"] < BUDGETS["gauge_algebra"]


def test_criterion_09_boundary_geometry(battery):
    reports, timings, *_ = battery
    rep = reports["boundary_geometry"]
    _summary("9 boundary_geometry", rep, timings)
    assert rep["std_dev_half_width_gap"] < 1e-4   # |x0 - x1| = 4/sqrt(3)
    assert rep["frd_half_width_gap"] < 1e-4       # |x0 - x1| = 1
    assert rep["lr_vertex_gap"] < 1e-4            # vertex (0, 4/3)
    assert timings["boundary_geometry"] < BUDGETS["boundary_geometry"]


def test_criterion_10_determinism(battery):
    _, timings, first_json, second_json = battery
    print("[acceptance] 10 determinism: "
          + ("PASS" if first_json == second_json else "FAIL")
          + f" ({len(first_json)} bytes)")
    assert first_json.encode() == second_json.encode()


def test_report_matches_golden(battery):
    _, _, first_json, _ = battery
    assert first_json.encode() == GOLDEN_REPORT.read_bytes()


def test_report_matches_golden_at_the_held_out_seed():
    reports, _ = run_suite(seed=HELD_OUT_SEED)
    assert canonical_report(reports).encode() == GOLDEN_HELD_OUT.read_bytes()


def test_every_registered_criterion_reported(battery):
    reports, *_ = battery
    assert set(reports) == set(CRITERIA)
    assert all(r["passed"] for r in reports.values()), {
        k: v for k, v in reports.items() if not v["passed"]
    }
