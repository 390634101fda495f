"""Serve vertex-form work on at most ``MAX_ENUM_DIM`` outcomes and check
that scipy was never imported.

Usage: ``PYTHONPATH=src python tests/cold_start.py``

Imports ``minkdev`` and ``minkdev.cli``, runs ``dual_representation_check``
and ``bipolar_check`` on the polytope of ``data/vertex_scenario.json``, and
``minkdev eval`` and ``minkdev polar`` on that scenario (a vertex-form set
and its ``add_constants``).  It then asks for the hull facets of a cloud of
``CLOUD_POINTS`` points on the scenario's space, whose hull vertices are not
all found by the first probe of ``enumerate_facets``.  Exits 0 when every
step succeeded and neither ``scipy`` nor ``numpy.ma`` is in
``sys.modules``; otherwise prints what went wrong and exits 1.
``tests/test_duality.py`` runs it in a fresh process.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import minkdev  # noqa: F401
import minkdev.cli as cli
from minkdev import duality, market

SCENARIO = Path(__file__).resolve().parent / "data" / "vertex_scenario.json"
CLOUD_POINTS = 40


def main() -> int:
    doc = json.loads(SCENARIO.read_text(encoding="utf-8"))
    space = market.space_from_json(doc["space"])
    P = duality.Polytope.from_vertices(space, np.asarray(doc["polytope"]["vertices"], dtype=float))
    problems = []
    if space.n > duality.MAX_ENUM_DIM:
        problems.append(f"the scenario has {space.n} outcomes, above MAX_ENUM_DIM")
    for check in (duality.dual_representation_check, duality.bipolar_check):
        report = check(P, trials=40, seed=0)
        if not report.passed:
            problems.append(f"{check.__name__} failed: {report}")
    for command in ("eval", "polar"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--scenario", str(SCENARIO)])
        if code != cli.EXIT_OK:
            problems.append(f"minkdev {command} exited {code}")
    cloud = np.random.default_rng(0).normal(size=(CLOUD_POINTS, space.n))
    if duality.Polytope.from_vertices(space, cloud)._hull_facets is None:
        problems.append("the cloud got no hull facets")
    for module in ("scipy", "numpy.ma"):
        if module in sys.modules:
            problems.append(f"{module} was imported")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
