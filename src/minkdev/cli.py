"""Command-line front end.

Usage (entry point ``minkdev``)::

    minkdev eval     --scenario scenario.json [--tol T] [--out file] [--format json|csv]
    minkdev boundary --scenario scenario.json [--tol T] [--rays 720] [--out file.csv] [--format csv|json]
    minkdev polar    --scenario scenario.json [--out file]
    minkdev check    --scenario scenario.json [--seed 0] [--out file]
    minkdev suite    [--seed 0] [--only name,name] [--out file]

Options follow the command, and each command accepts only the options
its usage line above shows (``minkdev CMD --help`` lists them); any other
option, or one written before the command, is malformed input.  ``--tol``
sets the relative tolerance of the gauge bisection; it must be finite and
at least the float64 machine epsilon (about 2.2e-16), below which
bisection cannot narrow a bracket any further.

Scenario files are JSON documents with a mandatory schema version ``"v": 1``
and a ``"space"`` entry; the remaining keys depend on the command (see the
command functions), and ``market.Field`` reads every field.  ``"v"``,
``"rays"``, ``"trials"`` and ``"resolution"`` are JSON integers, the last three
at most ``MAX_RAYS``, ``MAX_TRIALS`` and ``sets.MAX_RESOLUTION``.
Exit codes: 0 success, 1 a property or invariant check failed, 2 malformed
input, 3 a numerical failure (the simplex iteration cap).  Any other
exception is a defect and propagates.

Output is deterministic for identical scenario and seed: no timestamps
enter the payload and floats are serialised via ``repr``.  Infinite values
appear as the JSON strings ``"inf"`` / ``"-inf"``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import duality, market, sets, suite
from .deviations import MeasureError, check_axioms, measure_from_json
from .duality import DualityError, Polytope
from .gauge import DEFAULT_OPTIONS, EPS, GaugeOptions, gauge_table
from .lp import LPError
from .market import MarketError
from .sets import SetError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3

#: Largest ``"rays"`` (or ``--rays``) and ``"trials"`` a scenario may ask for.
MAX_RAYS = 100_000
MAX_TRIALS = 100_000


class InputError(ValueError):
    """Scenario errors that map to exit code 2."""


#: The library's errors about its input, all mapped to exit code 2.
INPUT_ERRORS = (InputError, MarketError, SetError, MeasureError, DualityError)


def _dump_json(payload) -> str:
    return json.dumps(suite.json_safe(payload), indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scenario(path: str) -> market.Field:
    """Read the ``--scenario`` file: a JSON object with ``"v": 1``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = market.Field(json.load(fh))
        doc["v"].whole(SCHEMA_VERSION, SCHEMA_VERSION, "(the schema version)")
    except FileNotFoundError as exc:
        raise argparse.ArgumentTypeError(f"scenario file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise argparse.ArgumentTypeError(f"scenario is not valid JSON: {exc}") from exc
    except MarketError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return doc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_eval(config: argparse.Namespace) -> int:
    """Evaluate measures and set gauges on the scenario's positions."""
    doc = config.scenario
    space = market.space_from_json(doc["space"])
    positions = market.positions_from_json(space, doc.get("positions", {}))
    measures = [measure_from_json(m) for m in doc.get("measures", []).items()]
    set_docs = doc.get("sets", []).items()
    acc_sets = [sets.set_from_json(space, d) for d in set_docs]
    columns = [f"gauge({A.label or d['kind'].value})" for d, A in zip(set_docs, acc_sets)]
    labels = ["position"] + [D.label for D in measures] + columns
    repeated = sorted({k for k in labels if labels.count(k) > 1})
    if repeated:
        raise InputError(f'duplicate output columns {repeated}: give each set its own "label" '
                         "and list each measure once")
    names = sorted(positions)
    X = np.array([positions[name] for name in names], dtype=float).reshape(len(names), space.n)
    table = gauge_table(acc_sets, X, config.opts)

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


def cmd_boundary(config: argparse.Namespace) -> int:
    """Write the radial boundary profile of a set on a two-outcome space."""
    doc = config.scenario
    space = market.space_from_json(doc["space"])
    A = sets.set_from_json(space, doc["set"])
    rays = doc.get("rays", 720) if config.rays is None else market.Field(config.rays, "--rays")
    profile = suite.ray_profile(A, rays.whole(4, MAX_RAYS, "rays"), opts=config.opts)

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


def cmd_polar(config: argparse.Namespace) -> int:
    """Compute the polar of a polytope: its halfspaces, and its extreme points on few outcomes."""
    doc = config.scenario
    space = market.space_from_json(doc["space"])
    P = Polytope.from_json(space, doc["polytope"])
    F = duality.polar(P)
    payload = {
        "v": SCHEMA_VERSION,
        "polar": {"rows": F.rows, "rhs": F.rhs},
    }
    if space.n <= duality.MAX_ENUM_DIM:
        try:
            payload["polar"]["extreme_points"] = F.vertex_form()
        except DualityError:
            pass  # unbounded polar: halfspace form is still exact
    _write(_dump_json(payload), config.out)
    return EXIT_OK


def cmd_check(config: argparse.Namespace) -> int:
    """Run property falsifiers for sets (and axiom audits for measures)."""
    doc = config.scenario
    space = market.space_from_json(doc["space"])
    targets = doc.get("check", []).items()
    if not targets:
        raise InputError('check scenarios need a non-empty "check" list')
    reports = []
    for item in targets:
        trials = item.get("trials", 200).whole(1, MAX_TRIALS, "trials")
        if "set" in item:
            A = sets.set_from_json(space, item["set"])
            props = [p.string() for p in item.get("properties", []).items()]
            if props:
                results = [sets.check_property(A, p, trials, config.seed) for p in props]
            else:
                results = sets.audit_flags(A, trials, config.seed)
            reports += [{"target": A.label or "set", **vars(r)} for r in results]
        else:
            D = measure_from_json(item["measure"])
            reports += [{"target": D.label, **vars(r)} for r in check_axioms(D, space, trials, config.seed)]
    _write(_dump_json({"v": SCHEMA_VERSION, "reports": reports}), config.out)
    return EXIT_OK if all(r["passed"] for r in reports) else EXIT_CHECK_FAILED


def cmd_suite(config: argparse.Namespace) -> int:
    """Run the cross-module invariant suite and write its JSON report."""
    try:
        reports, timings = suite.run_suite(seed=config.seed, only=config.only or None)
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


def _tolerance(text: str) -> GaugeOptions:
    try:
        tol = float(text)
        return GaugeOptions(tol_rel=tol, tol_abs=min(tol, 1e-12))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be finite and at least machine epsilon ({EPS!r}), got {text}") from None


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _option(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several commands read."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


_SCENARIO = _option("--scenario", required=True, type=_scenario, metavar="scenario.json",
                    help="path to a JSON scenario file")
_TOL = _option("--tol", type=_tolerance, default=DEFAULT_OPTIONS, dest="opts", metavar="T",
               help="relative gauge tolerance, at least machine epsilon")
_SEED = _option("--seed", type=_seed, default=0, help="seed for sampled checks (default 0)")
_OUT = _option("--out", metavar="file", help="output path (default: stdout)")

#: Built once: building it takes longer than parsing with it.
_PARSER = argparse.ArgumentParser(
    prog="minkdev", description="Deviation measures as gauges of acceptance sets on finite markets.")
_COMMANDS = _PARSER.add_subparsers(required=True, metavar="command")


def _command(name: str, run, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = _COMMANDS.add_parser(name, parents=[*parents, _OUT], help=run.__doc__,
                                  description=run.__doc__)
    parser.set_defaults(run=run)
    return parser


_command("eval", cmd_eval, _SCENARIO, _TOL).add_argument(
    "--format", choices=("json", "csv"), default="json", help="output format (default: json)")
_BOUNDARY = _command("boundary", cmd_boundary, _SCENARIO, _TOL)
_BOUNDARY.add_argument("--rays", type=int, help='ray count (default: the scenario\'s "rays", else 720)')
_BOUNDARY.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default: csv)")
_command("polar", cmd_polar, _SCENARIO)
_command("check", cmd_check, _SCENARIO, _SEED)
_command("suite", cmd_suite, _SEED).add_argument(
    "--only", type=lambda text: [name for name in text.split(",") if name], metavar="name,name",
    help="comma-separated subset of suite checks")


def main(argv=None) -> int:
    try:
        config = _PARSER.parse_args(argv)
        return config.run(config)
    except SystemExit as exc:  # argparse error -> input error, --help -> 0
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except LPError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
