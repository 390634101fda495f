"""Command-line front end.

Usage (entry point ``minkdev``)::

    minkdev eval     --scenario scenario.json [--tol T] [--out file] [--format json|csv]
    minkdev boundary --scenario scenario.json [--tol T] [--rays 720] [--out file.csv] [--format csv|json]
    minkdev polar    --scenario scenario.json [--out file]
    minkdev check    --scenario scenario.json [--seed 0] [--out file]
    minkdev suite    [--seed 0] [--only name,name] [--out file]

``--tol`` sets the relative tolerance of the gauge bisection; it must be
finite and at least the float64 machine epsilon (about 2.2e-16), below which
bisection cannot narrow a bracket any further.  An option given to a
command whose usage line above does not show it is malformed input.

Scenario files are JSON documents with a mandatory schema version ``"v": 1``
and a ``"space"`` entry; the remaining keys depend on the command (see the
command functions).  Exit codes: 0 success, 1 a property or invariant check
failed, 2 malformed input, 3 a numerical failure (solver budget or
iteration cap).  Any other exception is a defect and propagates.

Output is deterministic for identical scenario and seed: no timestamps
enter the payload and floats are serialised via ``repr``.  Infinite values
appear as the JSON strings ``"inf"`` / ``"-inf"``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import duality, market, sets, suite
from .deviations import MeasureError, check_axioms, measure_from_json
from .duality import DualityError, Polytope
from .gauge import GaugeError, GaugeOptions, gauge_table
from .lp import LPError
from .market import MarketError
from .sets import SetError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


class InputError(ValueError):
    """Scenario or argument errors that map to exit code 2."""


#: The library's errors about its input, all mapped to exit code 2.
INPUT_ERRORS = (InputError, MarketError, SetError, MeasureError, DualityError)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation."""

    command: str  # eval | boundary | polar | check | suite
    scenario: str | None = None
    out: str | None = None
    seed: int = 0
    tol: float | None = None
    rays: int | None = None
    only: tuple[str, ...] = ()
    format: str = "json"


def _dump_json(payload) -> str:
    return json.dumps(suite.json_safe(payload), indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_scenario(path: str | None) -> dict:
    if not path:
        raise InputError("this command requires --scenario")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("v") != SCHEMA_VERSION:
        raise InputError(f'scenario must declare schema version "v": {SCHEMA_VERSION}')
    if "space" not in doc:
        raise InputError('scenario must contain a "space" entry')
    return doc


@contextmanager
def _parsing_scenario():
    """Turn a ``KeyError``, ``TypeError`` or ``ValueError`` raised while
    reading scenario fields (a missing key, ``"k": "abc"``) into an
    ``InputError``; the library's own input errors pass through unchanged."""
    try:
        yield
    except INPUT_ERRORS:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed scenario ({type(exc).__name__}: {exc})") from exc


def _gauge_options(config: RunConfig) -> GaugeOptions:
    if config.tol is not None:
        eps = float(np.finfo(float).eps)
        if not (math.isfinite(config.tol) and config.tol >= eps):
            raise InputError(f"--tol must be finite and at least machine epsilon ({eps!r}), "
                             f"got {config.tol}")
        return GaugeOptions(tol_rel=config.tol, tol_abs=min(config.tol, 1e-12))
    return GaugeOptions()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_eval(config: RunConfig) -> int:
    """Evaluate measures and set gauges on the scenario's positions."""
    doc = _load_scenario(config.scenario)
    with _parsing_scenario():
        space = market.space_from_json(doc["space"])
        positions = market.positions_from_json(space, doc.get("positions", {}))
        measures = [measure_from_json(m) for m in doc.get("measures", [])]
        set_docs = doc.get("sets", [])
        acc_sets = [sets.set_from_json(space, d) for d in set_docs]
    columns = [f"gauge({A.label or d.get('kind', 'set')})" for d, A in zip(set_docs, acc_sets)]
    labels = ["position"] + [D.label for D in measures] + columns
    repeated = sorted({k for k in labels if labels.count(k) > 1})
    if repeated:
        raise InputError(f'duplicate output columns {repeated}: give each set its own "label" '
                         "and list each measure once")
    names = sorted(positions)
    X = np.array([positions[name] for name in names], dtype=float).reshape(len(names), space.n)
    table = gauge_table(acc_sets, X, _gauge_options(config))

    rows = []
    for i, name in enumerate(names):
        entry = {"position": name}
        for D in measures:
            entry[D.label] = D.eval(space, positions[name])
        for key, column in zip(columns, table):
            entry[key] = column[i].value
        rows.append(entry)

    if config.format == "csv":
        keys = ["position"] + sorted({k for r in rows for k in r} - {"position"})
        lines = [",".join(keys)]
        for r in rows:
            lines.append(",".join(_format_cell(r.get(k, "")) for k in keys))
        _write("\n".join(lines) + "\n", config.out)
    else:
        _write(_dump_json({"v": SCHEMA_VERSION, "results": rows}), config.out)
    return EXIT_OK


def _format_cell(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.12g}"
    return str(v)


def cmd_boundary(config: RunConfig) -> int:
    """Write the radial boundary profile of a set on a two-outcome space."""
    doc = _load_scenario(config.scenario)
    with _parsing_scenario():
        space = market.space_from_json(doc["space"])
        if "set" not in doc:
            raise InputError('boundary scenarios need a "set" entry')
        A = sets.set_from_json(space, doc["set"])
        rays = config.rays if config.rays is not None else int(doc.get("rays", 720))
    if rays < 4:
        raise InputError(f"need at least 4 rays, got {rays}")
    profile = suite.ray_profile(A, rays, opts=_gauge_options(config))

    if config.format == "json":
        rows = [{"theta": t, "x0": x0, "x1": x1, "finite": fin}
                for t, x0, x1, fin in profile]
        _write(_dump_json({"v": SCHEMA_VERSION, "boundary": rows}), config.out)
    else:
        lines = ["theta,x0,x1,finite"]
        for t, x0, x1, fin in profile:
            if fin:
                lines.append(f"{t:.12g},{x0:.12g},{x1:.12g},1")
            else:
                lines.append(f"{t:.12g},,,0")
        _write("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def cmd_polar(config: RunConfig) -> int:
    """Compute the polar of a polytope (halfspace form, plus extreme points
    when the dimension permits enumeration)."""
    doc = _load_scenario(config.scenario)
    with _parsing_scenario():
        space = market.space_from_json(doc["space"])
        pdoc = doc.get("polytope")
        if not isinstance(pdoc, dict):
            raise InputError('polar scenarios need a "polytope" entry')
        if "vertices" in pdoc:
            P = Polytope.from_vertices(space, np.asarray(pdoc["vertices"], float))
        elif "rows" in pdoc:
            P = Polytope.from_halfspaces(space, np.asarray(pdoc["rows"], float),
                                         np.asarray(pdoc["rhs"], float))
        else:
            raise InputError('polytope needs "vertices" or "rows"/"rhs"')
    F = duality.polar(P)
    payload = {
        "v": SCHEMA_VERSION,
        "polar": {"rows": F.rows, "rhs": F.rhs},
    }
    if space.n <= duality.MAX_ENUM_DIM:
        try:
            payload["polar"]["extreme_points"] = duality.polar_vertices(F)
        except DualityError:
            pass  # unbounded polar: halfspace form is still exact
    _write(_dump_json(payload), config.out)
    return EXIT_OK


def cmd_check(config: RunConfig) -> int:
    """Run property falsifiers for sets (and axiom audits for measures)."""
    doc = _load_scenario(config.scenario)
    with _parsing_scenario():
        space = market.space_from_json(doc["space"])
        targets = doc.get("check", [])
    if not targets:
        raise InputError('check scenarios need a non-empty "check" list')
    reports = []
    any_failed = False
    for item in targets:
        with _parsing_scenario():
            trials = int(item.get("trials", 200))
            if "set" in item:
                A = sets.set_from_json(space, item["set"])
                props = list(item.get("properties") or ())
            elif "measure" in item:
                D = measure_from_json(item["measure"])
            else:
                raise InputError('each check entry needs a "set" or a "measure"')
        if "set" in item:
            if props:
                results = [sets.check_property(A, p, trials, config.seed) for p in props]
            else:
                results = sets.audit_flags(A, trials, config.seed)
            for r in results:
                any_failed = any_failed or not r.passed
                reports.append({"target": A.label or "set", "property": r.property,
                                "passed": r.passed, "trials": r.trials,
                                "counterexample": r.counterexample})
        else:
            for r in check_axioms(D, space, trials=trials, seed=config.seed):
                any_failed = any_failed or not r.passed
                reports.append({"target": D.label, "axiom": r.axiom, "passed": r.passed,
                                "trials": r.trials, "worst_gap": r.worst_gap,
                                "counterexample": r.counterexample})
    _write(_dump_json({"v": SCHEMA_VERSION, "reports": reports}), config.out)
    return EXIT_CHECK_FAILED if any_failed else EXIT_OK


def cmd_suite(config: RunConfig) -> int:
    """Run the cross-module invariant suite and write its JSON report."""
    try:
        reports, timings = suite.run_suite(seed=config.seed, only=list(config.only) or None)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    payload = {"v": SCHEMA_VERSION, "seed": config.seed, "reports": reports}
    _write(_dump_json(payload), config.out)
    # Human-readable digest (timings deliberately kept out of the payload so
    # that reruns with the same seed are byte-identical).
    for rep in reports:
        status = "pass" if rep.get("passed") else "FAIL"
        sys.stderr.write(f"{rep['criterion']:26s} {status}  ({timings[rep['criterion']]:.2f}s)\n")
    return EXIT_OK if all(r.get("passed") for r in reports) else EXIT_CHECK_FAILED


COMMANDS = {
    "eval": cmd_eval,
    "boundary": cmd_boundary,
    "polar": cmd_polar,
    "check": cmd_check,
    "suite": cmd_suite,
}

#: The commands that read each command-specific option.
OPTION_READERS = {
    "scenario": ("eval", "boundary", "polar", "check"),
    "seed": ("check", "suite"),
    "tol": ("eval", "boundary"),
    "rays": ("boundary",),
    "only": ("suite",),
    "format": ("eval", "boundary"),
}


def parse_args(argv=None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="minkdev",
        description="Deviation measures as gauges of acceptance sets on finite markets.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", help="path to a JSON scenario file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="seed for sampled checks (default 0)")
    parser.add_argument("--tol", type=float,
                        help="relative gauge tolerance, at least machine epsilon (eval, boundary)")
    parser.add_argument("--rays", type=int, help="ray count for boundary profiles")
    parser.add_argument("--only", help="comma-separated subset of suite checks")
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    ns = parser.parse_args(argv)
    for option, readers in OPTION_READERS.items():
        if getattr(ns, option) is not None and ns.command not in readers:
            raise InputError(f"--{option} is not an option of {ns.command} "
                             f"(only of {', '.join(readers)})")
    fmt = ns.format or ("csv" if ns.command == "boundary" else "json")
    only = tuple(s for s in (ns.only or "").split(",") if s)
    return RunConfig(command=ns.command, scenario=ns.scenario, out=ns.out,
                     seed=ns.seed or 0, tol=ns.tol, rays=ns.rays, only=only, format=fmt)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
        return COMMANDS[config.command](config)
    except SystemExit as exc:  # argparse error -> input error
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except (GaugeError, LPError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
