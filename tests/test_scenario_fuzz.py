"""Hostile scenarios: every malformed field exits 2, and nothing raises.

Each case takes one of four small scenarios, one per scenario-reading
command, and replaces one field, at any depth, by a value of the wrong kind
or size, or deletes it.  ``cli.main`` must answer 0 or 2; a traceback means
a reader let a bad value through to code that trusted it.  Numbers near the
float limit, such as ``1e308``, are well formed, and the numerics may
overflow on them with a ``RuntimeWarning`` and an answer of ``inf``; those
warnings are not what these cases check, so they do not fail them.
"""

import copy
import json
import random
import warnings

import pytest

from minkdev.cli import EXIT_INPUT_ERROR, EXIT_OK, main

BALL = {"kind": "ball", "p": 2, "radius": 1.0, "center": [0.0, 0.0]}
SUBLEVEL = {"kind": "sublevel", "measure": {"measure": "esd", "alpha": 0.25}, "k": 1.0}

BASES = {
    "eval": {
        "v": 1,
        "space": {"probs": [0.5, 0.5]},
        "positions": {"X": [1.0, -0.5], "Y": [0.0, 2.0]},
        "measures": [{"measure": "esd", "alpha": 0.1}, "std_dev"],
        "sets": [
            dict(SUBLEVEL, label="sublevel"),
            dict(BALL, label="ball"),
            {"kind": "halfspaces", "rows": [[1, 0], [0, 1], [-1, -1]], "rhs": [1, 1, 1],
             "label": "halfspaces"},
            {"kind": "vertices", "vertices": [[1, 0], [0, 1], [-1, -1]], "label": "vertices"},
            {"kind": "scale", "of": BALL, "factor": 2.0, "label": "scale"},
            {"kind": "combine", "op": "union", "of": [BALL, SUBLEVEL], "label": "combine"},
            {"kind": "add_constants", "of": BALL, "label": "add_constants"},
            {"kind": "star_hull", "of": BALL, "resolution": 16, "label": "star_hull"},
            {"kind": "law_invariant_hull", "of": BALL, "label": "law_invariant_hull"},
        ],
    },
    "boundary": {"v": 1, "space": {"probs": [0.25, 0.75]}, "set": SUBLEVEL, "rays": 8},
    "check": {
        "v": 1,
        "space": {"probs": [0.25, 0.75]},
        "check": [{"set": BALL, "properties": ["convex"], "trials": 5},
                  {"measure": {"measure": "esd", "alpha": 0.25}, "trials": 5}],
    },
    "polar": {"v": 1, "space": {"probs": [0.5, 0.5]},
              "polytope": {"vertices": [[2, 0], [0, 2], [-2, 0], [0, -2]]}},
}

#: What each field is set to in turn; ``DELETE`` removes it.
DELETE = object()
VALUES = [True, "2", 2.5, [], {}, None, [[1, 2], [3]], 1e308, 10**30, DELETE]


def paths(doc, prefix=()):
    """The path of every member and list entry of ``doc``, at any depth."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


CASES = [(command, path, value) for command, base in BASES.items()
         for path in paths(base) for value in VALUES]


def run(tmp_path, command, doc):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    return main([command, "--scenario", str(scenario), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", sorted(BASES))
def test_the_bases_exit_0(tmp_path, command):
    assert run(tmp_path, command, BASES[command]) == EXIT_OK


def test_one_field_mutations_exit_0_or_2(tmp_path, capsys):
    assert len(CASES) > 1000
    for command, path, value in random.Random(0).sample(CASES, 400):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run(tmp_path, command, mutated(BASES[command], path, value))
        assert code in (EXIT_OK, EXIT_INPUT_ERROR), (command, path, value)
        capsys.readouterr()


#: Wrong-typed fields: ``(command, path, value, the path the error names)``.
WRONG_TYPES = {
    "radius_true": ("eval", ("sets", 1, "radius"), True, "sets[1].radius"),
    "radius_string": ("eval", ("sets", 1, "radius"), "1.5", "sets[1].radius"),
    "p_string": ("eval", ("sets", 1, "p"), "2", "sets[1].p"),
    "factor_string": ("eval", ("sets", 4, "factor"), "2", "sets[4].factor"),
    "k_true": ("eval", ("sets", 0, "k"), True, "sets[0].k"),
    "alpha_string": ("eval", ("sets", 0, "measure", "alpha"), "0.1", "sets[0].measure.alpha"),
    "label_number": ("eval", ("sets", 0, "label"), 5, "sets[0].label"),
    "resolution_fraction": ("eval", ("sets", 7, "resolution"), 2.5, "sets[7].resolution"),
    "position_strings": ("eval", ("positions", "X"), ["1.5", True], "positions.X"),
    "properties_string": ("check", ("check", 0, "properties"), "convex", "check[0].properties"),
    "check_entry_number": ("check", ("check", 0), 5, "check[0]"),
}


@pytest.mark.parametrize("name", list(WRONG_TYPES), ids=list(WRONG_TYPES))
def test_wrong_typed_fields_exit_2_naming_their_path(tmp_path, capsys, name):
    command, path, value, shown = WRONG_TYPES[name]
    assert run(tmp_path, command, mutated(BASES[command], path, value)) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {shown}: ")
