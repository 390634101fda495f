"""Mutation matrix: each planted defect must fail a suite criterion.

A mutant scales a ``CATALOGUE`` closed form, or a ball radius, by
``1 + 1e-3``, or changes a polytope oracle; it is planted with
``monkeypatch``.  ``PINNED`` names, per mutant, the criteria that catch it
through a route that does not call the mutated code.  The test runs only
those criteria, at seed 0, and requires one of them to fail.  ``UNPINNED``
lists the mutants that no criterion catches yet, each with the ROADMAP item
that will pin it, and is shown to change the answer of the code it mutates;
a change that pins one moves it to ``PINNED``, so the list only shrinks
(DeMillo, Lipton and Sayward, "Hints on test data selection:
help for the practicing programmer", IEEE Computer 11, 1978).
"""

import numpy as np
import pytest

from minkdev import deviations, suite
from minkdev.deviations import builtin_deviation, builtin_error
from minkdev.duality import Polytope
from minkdev.market import MarketSpace
from minkdev.suite import run_suite

SCALE = 1.0 + 1e-3
SPACE4 = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))


def _scaled(f):
    return lambda space, x: SCALE * f(space, x)


def _closed_form(name):
    """Scale ``CATALOGUE[name]``'s closed form; a parameterised one is a
    factory, so its products are scaled."""
    def plant(monkeypatch):
        kind, f, axioms, degree, param = deviations.CATALOGUE[name]
        mutant = _scaled(f) if param is None else lambda value: _scaled(f(value))
        monkeypatch.setitem(deviations.CATALOGUE, name, (kind, mutant, axioms, degree, param))
    return plant


def _ball_radius(monkeypatch):
    ball_set = suite.ball_set
    monkeypatch.setattr(suite, "ball_set", lambda space, p, radius=1.0, center=None:
                        ball_set(space, p, SCALE * radius, center))


def _orbit_sort_reversed(monkeypatch):
    def orbit_contains(self, x):
        x = np.asarray(x, dtype=float)
        pairing = self._excess(np.sort(x, axis=-1)[..., ::-1], normals=self._sorted_normals)
        inside = (pairing <= 0.0).all(axis=-1)
        return inside if x.ndim > 1 else bool(inside)
    monkeypatch.setattr(Polytope, "_orbit_contains", orbit_contains)


def _shift_interval_lo_raised(monkeypatch):
    shift_interval = Polytope._shift_interval

    def raised(self, x):
        lo, hi = shift_interval(self, x)
        return lo + 1e-3, hi
    monkeypatch.setattr(Polytope, "_shift_interval", raised)


MUTANTS = {
    **{name: _closed_form(name) for name in deviations.CATALOGUE},
    "ball_radius": _ball_radius,
    "orbit_sort_reversed": _orbit_sort_reversed,
    "shift_interval_lo_raised": _shift_interval_lo_raised,
}

#: The criteria that must catch each mutant, any one of them failing.
PINNED = {
    # the gauge of Acc_k(variance) against std_dev's closed form
    "variance": ("variance_normalisation",),
    # std_dev as the reference of criterion 2, and as the projection of the ball
    "std_dev": ("variance_normalisation", "shift_identity"),
    # the error projections of kb(0.1) and of the sup-norm ball
    "esd": ("shift_identity",),
    "frd": ("shift_identity",),
    # the sets whose projections they are
    "kb": ("shift_identity",),
    "lp_norm": ("shift_identity",),
    "ball_radius": ("shift_identity",),
}

#: The mutants no criterion catches yet, with the ROADMAP item that pins each.
UNPINNED = {
    # boundary_geometry catches lr, but at one landmark on one space
    "lr": "item 2",
    "ur": "item 2",
    "lower_semidev": "item 7",
    "es": "item 7",
    "sup_range": "item 7",
    "orbit_sort_reversed": "item 3",
    "shift_interval_lo_raised": "item 3",
}


#: The parameter each parameterised catalogue measure is built with.
PARAMETERS = {"es": {"alpha": 0.1}, "esd": {"alpha": 0.1}, "kb": {"alpha": 0.1}, "lp_norm": {"p": 2.0}}


def _answers():
    """What the mutated code answers on fixed seeded inputs: every catalogue
    measure, and a halfspace polytope's orbit membership and shift
    intervals."""
    rng = np.random.default_rng(17)
    X = rng.uniform(-2.0, 2.0, size=(50, 4))
    P = Polytope.from_halfspaces(SPACE4, rng.uniform(-1.0, 1.0, size=(8, 4)), np.ones(8))
    build = {"deviation": builtin_deviation, "error": builtin_error}
    values = [build[entry[0]](name, **PARAMETERS.get(name, {})).eval(SPACE4, X)
              for name, entry in deviations.CATALOGUE.items()]
    return [*values, P._orbit_contains(X), *P._shift_interval(X)]


def test_every_mutant_is_pinned_or_listed():
    assert sorted([*PINNED, *UNPINNED]) == sorted(MUTANTS)


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_mutant_fails_a_criterion(name, monkeypatch):
    MUTANTS[name](monkeypatch)
    reports, _ = run_suite(0, only=list(PINNED[name]))
    assert len(reports) == len(PINNED[name])
    assert not all(r["passed"] for r in reports), reports


@pytest.mark.parametrize("name", list(UNPINNED))
def test_unpinned_mutant_changes_what_it_mutates(name, monkeypatch):
    before = _answers()
    MUTANTS[name](monkeypatch)
    assert any(not np.array_equal(a, b) for a, b in zip(_answers(), before))
