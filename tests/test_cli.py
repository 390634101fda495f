"""Command-line interface: schemas, outputs, determinism, exit codes."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from minkdev import cli
from minkdev.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    main,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


EVAL_DOC = {
    "v": 1,
    "space": {"probs": [0.25, 0.75]},
    "positions": {"X": [0.0, 4.0 / 3.0], "C": [2.0, 2.0], "Y": [1.0, -1.0]},
    "measures": [{"measure": "std_dev"}, {"measure": "esd", "alpha": 0.1}],
    "sets": [
        {"kind": "sublevel", "measure": {"measure": "frd"}, "k": 1.0, "label": "frd1"},
        # the constants line (x0 = x1) in halfspace form under the weighted
        # pairing with probs (1/4, 3/4): infinite gauge off it
        {"kind": "halfspaces", "rows": [[3, -1], [-3, 1]], "rhs": [0, 0], "label": "line"},
    ],
}


def test_eval_json_with_infinity(tmp_path, capsys):
    scenario = write(tmp_path, "s.json", EVAL_DOC)
    assert main(["eval", "--scenario", scenario]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rows = {r["position"]: r for r in payload["results"]}
    assert rows["X"]["esd(0.1)"] == pytest.approx(1.0)
    assert rows["X"]["gauge(frd1)"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert rows["Y"]["gauge(line)"] == "inf"      # non-constant vs the constants line
    assert rows["C"]["gauge(line)"] == 0.0


def test_eval_csv_format(tmp_path):
    scenario = write(tmp_path, "s.json", EVAL_DOC)
    out = tmp_path / "table.csv"
    assert main(["eval", "--scenario", scenario, "--format", "csv", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("position,")
    assert len(lines) == 4


def test_eval_determinism(tmp_path):
    scenario = write(tmp_path, "s.json", EVAL_DOC)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", "--scenario", scenario, "--out", str(a)]) == EXIT_OK
    assert main(["eval", "--scenario", scenario, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_boundary_csv(tmp_path):
    doc = {
        "v": 1,
        "space": {"probs": [0.25, 0.75]},
        "set": {"kind": "sublevel", "measure": {"measure": "lr"}, "k": 1.0},
    }
    scenario = write(tmp_path, "b.json", doc)
    out = tmp_path / "profile.csv"
    assert main(["boundary", "--scenario", scenario, "--rays", "8", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,x0,x1,finite"
    assert len(lines) == 9
    # ray 2 of 8 is straight up: the lower-range triangle vertex (0, 4/3)
    theta, x0, x1, finite = lines[3].split(",")
    assert finite == "1"
    assert float(x0) == pytest.approx(0.0, abs=1e-9)
    assert float(x1) == pytest.approx(4.0 / 3.0, abs=1e-6)
    # rerun is byte-identical
    out2 = tmp_path / "profile2.csv"
    main(["boundary", "--scenario", scenario, "--rays", "8", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-16", "1e-20"])
@pytest.mark.parametrize("command", ["eval", "boundary"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    doc = dict(EVAL_DOC, set=EVAL_DOC["sets"][0])
    scenario = write(tmp_path, "s.json", doc)
    assert main([command, "--scenario", scenario, f"--tol={tol}"]) == EXIT_INPUT_ERROR
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "boundary"])
def test_tolerance_of_machine_epsilon_is_accepted(tmp_path, command):
    # the smallest tolerance bisection can reach: below it a bracket of two
    # adjacent floats would never settle
    doc = dict(EVAL_DOC, set=EVAL_DOC["sets"][0])
    scenario = write(tmp_path, "s.json", doc)
    out = tmp_path / "out"
    tol = repr(float(np.finfo(float).eps))
    assert main([command, "--scenario", scenario, f"--tol={tol}", "--out", str(out)]) == EXIT_OK


#: Each command's options, as the usage block of the ``cli`` docstring shows them.
USAGE = {command: set(re.findall(r"--\w+", line))
         for command, line in re.findall(r"^ +minkdev (\w+)(.*)$", cli.__doc__, re.M)}
OPTIONS = set().union(*USAGE.values())

#: A scenario every command that takes one reads without error.
ANY_COMMAND_DOC = dict(EVAL_DOC, set=EVAL_DOC["sets"][0],
                       polytope={"vertices": [[1, 0], [0, 1], [-1, -1]]},
                       check=[{"set": {"kind": "ball", "p": 2}, "trials": 5}])

#: The option pairs no usage line shows, each with a value.
REFUSED = [
    ("polar", ["--tol", "nan"]),
    ("polar", ["--tol", "1e-30"]),
    ("polar", ["--rays", "0"]),
    ("polar", ["--only", "foo"]),
    ("suite", ["--tol", "nan"]),
    ("suite", ["--rays", "8"]),
    ("check", ["--tol", "1e-9"]),
    ("eval", ["--rays", "8"]),
    ("eval", ["--only", "bipolar"]),
    ("boundary", ["--only", "bipolar"]),
    ("polar", ["--format", "csv"]),
    ("check", ["--format", "json"]),
    ("eval", ["--seed", "3"]),
    ("polar", ["--seed", "3"]),
    ("suite", ["--scenario", "s.json"]),
    ("check", ["--rays", "8"]),
    ("check", ["--only", "bipolar"]),
    ("boundary", ["--seed", "3"]),
    ("suite", ["--format", "json"]),
]


@pytest.mark.parametrize("command", sorted(USAGE))
def test_each_command_takes_the_options_its_usage_line_shows(tmp_path, capsys, command):
    assert len(USAGE) == 5 and len(OPTIONS) == 7
    assert main([command, "--help"]) == EXIT_OK
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"} == USAGE[command]
    scenario, out = write(tmp_path, "s.json", ANY_COMMAND_DOC), str(tmp_path / "out")
    values = {"--scenario": scenario, "--tol": "1e-9", "--seed": "3", "--rays": "8",
              "--only": "variance_normalisation", "--format": "json", "--out": out}
    # the suite runs one quick check, not in full
    base = ["--scenario", scenario] if command != "suite" else ["--only", "variance_normalisation"]
    for option in sorted(USAGE[command]):
        assert main([command, *base, option, values[option], "--out", out]) == EXIT_OK, option
    # the other pairs of the matrix are the refused cases below
    assert {option[0] for c, option in REFUSED if c == command} == OPTIONS - USAGE[command]


@pytest.mark.parametrize("command, option", REFUSED)
def test_options_a_command_does_not_read_exit_2(tmp_path, capsys, command, option):
    out = tmp_path / "out"
    scenario = []
    if command != "suite":  # the suite would run in full
        scenario = ["--scenario", write(tmp_path, "s.json", ANY_COMMAND_DOC)]
        assert main([command, *scenario, "--out", str(out)]) == EXIT_OK
    assert main([command, *scenario, *option, "--out", str(out)]) == EXIT_INPUT_ERROR
    assert option[0] in capsys.readouterr().err


def test_options_before_the_command_exit_2(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "suite"]) == EXIT_INPUT_ERROR
    assert not out.exists()


def test_boundary_rejects_zero_rays(tmp_path, capsys):
    scenario = write(tmp_path, "b.json", dict(EVAL_DOC, set=EVAL_DOC["sets"][0]))
    out = tmp_path / "profile.csv"
    assert main(["boundary", "--scenario", scenario, "--rays", "0", "--out", str(out)]) == EXIT_INPUT_ERROR
    assert "at least 4 rays" in capsys.readouterr().err
    assert not out.exists()


def test_eval_cells_equal_the_single_position_solver(tmp_path, capsys):
    from minkdev import market, sets
    from minkdev.gauge import GaugeOptions, minkowski_gauge

    doc = dict(EVAL_DOC, sets=EVAL_DOC["sets"] + [
        {"kind": "ball", "p": 3, "radius": 0.7, "label": "ball3"},
        {"kind": "star_hull", "of": {"kind": "ball", "p": 1, "center": [0.5, 0.0]},
         "label": "hull"},                                         # scalar-only
        {"kind": "vertices", "vertices": [[2, 0], [0, 2], [-2, 0], [0, -1]], "label": "kite"},
    ])
    assert main(["eval", "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_OK
    rows = {r["position"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    space = market.space_from_json(doc["space"])
    for d in doc["sets"]:
        A = sets.set_from_json(space, d)
        for name, x in doc["positions"].items():
            want = minkowski_gauge(A, np.array(x), GaugeOptions()).value
            got = rows[name][f"gauge({d['label']})"]
            assert got == ("inf" if math.isinf(want) else want), (d["label"], name)


def test_eval_rejects_duplicate_columns(tmp_path, capsys):
    # two unlabelled halfspace sets would both be reported as gauge(polytope)
    polytope = {"kind": "halfspaces", "rows": [[1, 0], [0, 1], [-1, -1]], "rhs": [1, 1, 1]}
    doc = dict(EVAL_DOC, sets=[polytope, dict(polytope, rhs=[2, 2, 2])])
    assert main(["eval", "--scenario", write(tmp_path, "dup.json", doc)]) == EXIT_INPUT_ERROR
    assert "duplicate" in capsys.readouterr().err
    doc = dict(EVAL_DOC, sets=[dict(polytope, label="a"), dict(polytope, label="b")])
    assert main(["eval", "--scenario", write(tmp_path, "ok.json", doc)]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert {"gauge(a)", "gauge(b)"} <= set(row)


def test_eval_labels_every_set_kind(tmp_path, capsys):
    ball = {"kind": "ball", "p": 2, "radius": 1.0}
    sublevel = {"kind": "sublevel", "measure": {"measure": "std_dev"}, "k": 1.0}
    labelled = {
        "scale": {"kind": "scale", "of": ball, "factor": 2.0},
        "combine": {"kind": "combine", "op": "union", "of": [ball, sublevel]},
        "add_constants": {"kind": "add_constants", "of": ball},
        "star_hull": {"kind": "star_hull", "of": ball, "resolution": 16},
        "law_invariant_hull": {"kind": "law_invariant_hull", "of": ball},
        "vertices": {"kind": "vertices", "vertices": [[1, 0], [0, 1], [-1, -1]]},
    }
    doc = {"v": 1, "space": {"probs": [0.5, 0.5]}, "positions": {"X": [1.0, -0.5]},
           "sets": [dict(d, label=kind) for kind, d in labelled.items()]}
    assert main(["eval", "--scenario", write(tmp_path, "l.json", doc)]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert set(row) == {"position"} | {f"gauge({kind})" for kind in labelled}
    assert row["gauge(scale)"] == pytest.approx(0.5 * math.sqrt(0.5 * 1.0 + 0.5 * 0.25))


def test_polar_command(tmp_path, capsys):
    doc = {
        "v": 1,
        "space": {"probs": [0.5, 0.5]},
        "polytope": {"vertices": [[2, 0], [0, 2], [-2, 0], [0, -2]]},
    }
    scenario = write(tmp_path, "p.json", doc)
    assert main(["polar", "--scenario", scenario]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["polar"]["rhs"] == [1.0, 1.0, 1.0, 1.0]
    pts = {tuple(np.round(p, 8)) for p in payload["polar"]["extreme_points"]}
    assert pts == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_check_command_pass_and_fail(tmp_path, capsys):
    good = {
        "v": 1,
        "space": {"probs": [0.25, 0.25, 0.25, 0.25]},
        "check": [{
            "set": {"kind": "sublevel", "measure": {"measure": "std_dev"}, "k": 1.0},
            "properties": ["star_shaped", "convex", "stable_scalar_add"],
            "trials": 50,
        }],
    }
    assert main(["check", "--scenario", write(tmp_path, "g.json", good)]) == EXIT_OK
    capsys.readouterr()

    bad = {
        "v": 1,
        "space": {"probs": [0.25, 0.25, 0.25, 0.25]},
        "check": [{
            "set": {"kind": "ball", "p": 2, "radius": 0.5, "center": [2, 0, 0, 1]},
            "properties": ["star_shaped"],
            "trials": 100,
        }],
    }
    assert main(["check", "--scenario", write(tmp_path, "b.json", bad)]) == EXIT_CHECK_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["passed"] is False
    assert payload["reports"][0]["counterexample"]



DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["check_scenario", "check_scenario_weighted"])
def test_check_report_matches_golden(name, capsys):
    # every property holds on one set and fails on another; default audits,
    # law invariance skipped on the weighted space; one measure's axioms
    assert main(["check", "--scenario", str(DATA / f"{name}.json"), "--seed", "0"]) == EXIT_CHECK_FAILED
    golden = DATA / f"{name.replace('scenario', 'report')}_seed0.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_polar_of_a_halfspace_scenario_matches_golden(capsys):
    # a negative rhs puts phase one of the boundedness check on artificials
    assert main(["polar", "--scenario", str(DATA / "halfspace_polar_scenario.json")]) == EXIT_OK
    assert capsys.readouterr().out == (DATA / "halfspace_polar_report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command, name", [
    ("eval", "eval_catalogue"),     # 8 sets at 3 positions: 24 cells, solved in lockstep
    ("eval", "eval_composite"),     # 10 composite sets at 1 position: each cell walks alone
    ("boundary", "boundary_lr"),    # 64 rays of the lower range's acceptance set
])
def test_eval_and_boundary_output_matches_golden(command, name, capsys):
    assert main([command, "--scenario", str(DATA / f"{name}_scenario.json")]) == EXIT_OK
    golden = DATA / f"{name}_report.{'csv' if command == 'boundary' else 'json'}"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_check_measure_axioms(tmp_path, capsys):
    doc = {
        "v": 1,
        "space": {"probs": [0.1, 0.2, 0.3, 0.4]},
        "check": [{"measure": {"measure": "esd", "alpha": 0.25}, "trials": 80}],
    }
    assert main(["check", "--scenario", write(tmp_path, "m.json", doc)]) == EXIT_OK


def test_suite_subset_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["suite", "--only", "variance_normalisation,comonotone_additivity", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert {r["criterion"] for r in payload["reports"]} == {
        "variance_normalisation", "comonotone_additivity"
    }


def test_input_errors(tmp_path):
    assert main(["eval"]) == EXIT_INPUT_ERROR                      # no scenario
    missing = str(tmp_path / "nope.json")
    assert main(["eval", "--scenario", missing]) == EXIT_INPUT_ERROR
    unversioned = write(tmp_path, "v0.json", {"space": {"probs": [0.5, 0.5]}})
    assert main(["eval", "--scenario", unversioned]) == EXIT_INPUT_ERROR
    nospace = write(tmp_path, "ns.json", {"v": 1})
    assert main(["eval", "--scenario", nospace]) == EXIT_INPUT_ERROR
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"v": 1, "space": "\u00e9"}'.encode("latin-1"))
    assert main(["eval", "--scenario", str(latin1)]) == EXIT_INPUT_ERROR
    assert main(["suite", "--only", "not_a_check"]) == EXIT_INPUT_ERROR
    assert main(["frobnicate"]) == EXIT_INPUT_ERROR                # unknown command


MALFORMED_SETS = {
    "k_not_a_number": {"kind": "sublevel", "measure": {"measure": "frd"}, "k": "abc"},
    "missing_measure": {"kind": "sublevel", "k": 1.0},
    "missing_of": {"kind": "add_constants"},
    "scale_missing_of": {"kind": "scale", "factor": 2.0},
}


@pytest.mark.parametrize("name", list(MALFORMED_SETS), ids=list(MALFORMED_SETS))
@pytest.mark.parametrize("command", ["eval", "boundary", "check"])
def test_malformed_scenario_fields_exit_2(tmp_path, capsys, command, name):
    doc = {"v": 1, "space": {"probs": [0.25, 0.75]}}
    bad = MALFORMED_SETS[name]
    if command == "eval":
        doc.update(positions={"X": [1.0, -1.0]}, sets=[bad])
    elif command == "boundary":
        doc.update(set=bad)
    else:
        doc.update(check=[{"set": bad}])
    assert main([command, "--scenario", write(tmp_path, "bad.json", doc)]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


NON_FINITE_SETS = {
    # 1 ** nan == 1: a NaN exponent would put [1, -1] on the unit sphere
    "ball_p_nan": {"kind": "ball", "p": math.nan, "label": "b"},
    # a null rhs entry reads as NaN, which would empty the set
    "halfspaces_null_rhs": {"kind": "halfspaces", "rows": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                            "rhs": [1.0, None, 1.0, 1.0], "label": "h"},
    "halfspaces_inf_row": {"kind": "halfspaces", "rows": [[1, 0], [-1, math.inf]],
                           "rhs": [1.0, 1.0], "label": "h"},
    "vertices_nan": {"kind": "vertices", "vertices": [[1, 0], [0, math.nan], [-1, -1]], "label": "v"},
}


@pytest.mark.parametrize("name", list(NON_FINITE_SETS), ids=list(NON_FINITE_SETS))
def test_eval_rejects_non_finite_set_data(tmp_path, capsys, name):
    doc = {"v": 1, "space": {"probs": [0.25, 0.75]}, "positions": {"X": [1.0, -1.0]},
           "sets": [NON_FINITE_SETS[name]]}
    assert main(["eval", "--scenario", write(tmp_path, "bad.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


NON_FINITE_POLYTOPES = {
    "nan_vertex": {"vertices": [[2, 0], [0, 2], [math.nan, 0], [0, -2]]},
    "inf_vertex": {"vertices": [[2, 0], [-math.inf, 2], [0, -2]]},
}


@pytest.mark.parametrize("name", list(NON_FINITE_POLYTOPES), ids=list(NON_FINITE_POLYTOPES))
def test_polar_rejects_non_finite_polytopes(tmp_path, capsys, name):
    doc = {"v": 1, "space": {"probs": [0.5, 0.5]}, "polytope": NON_FINITE_POLYTOPES[name]}
    assert main(["polar", "--scenario", write(tmp_path, "bad.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_malformed_check_entries_exit_2(tmp_path):
    base = {"v": 1, "space": {"probs": [0.25, 0.75]}}
    for entry in ({"measure": {"measure": "frd"}, "trials": "many"},
                  {"set": {"kind": "ball", "p": 2}, "properties": 5}):
        scenario = write(tmp_path, "bad.json", dict(base, check=[entry]))
        assert main(["check", "--scenario", scenario]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize("entry", [
    {"measure": {"measure": "std_dev"}, "trials": -3},
    {"measure": {"measure": "std_dev"}, "trials": 0},
    {"set": {"kind": "ball", "p": 2}, "trials": 0},
    {"set": {"kind": "ball", "p": 2}, "properties": ["convex"], "trials": -1},
], ids=["measure_negative", "measure_zero", "set_zero", "property_negative"])
def test_check_without_a_trial_exits_2(tmp_path, capsys, entry):
    doc = {"v": 1, "space": {"probs": [0.25, 0.75]}, "check": [entry]}
    assert main(["check", "--scenario", write(tmp_path, "t.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "trials" in captured.err


NON_INTEGERS = {
    "v_true": ("polar", {"v": True, "polytope": {"vertices": [[1, 0], [0, 1], [-1, -1]]}}),
    "v_float": ("polar", {"v": 1.0, "polytope": {"vertices": [[1, 0], [0, 1], [-1, -1]]}}),
    "rays_float": ("boundary", {"set": {"kind": "ball", "p": 2}, "rays": 16.5}),
    "rays_string": ("boundary", {"set": {"kind": "ball", "p": 2}, "rays": "16"}),
    "trials_float": ("check", {"check": [{"set": {"kind": "ball", "p": 2}, "trials": 2.5}]}),
    "trials_true": ("check", {"check": [{"measure": {"measure": "std_dev"}, "trials": True}]}),
}


@pytest.mark.parametrize("name", list(NON_INTEGERS), ids=list(NON_INTEGERS))
def test_scenario_integers_must_be_json_integers(tmp_path, capsys, name):
    # 16.5 rays must not become 16, nor true one trial
    command, fields = NON_INTEGERS[name]
    doc = {"v": 1, "space": {"probs": [0.25, 0.75]}, **fields}
    assert main([command, "--scenario", write(tmp_path, "i.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_check_of_a_law_invariant_set_past_the_permutation_cap_exits_2(tmp_path, capsys):
    doc = {"v": 1, "space": {"probs": [1.0 / 9.0] * 9},
           "check": [{"set": {"kind": "sublevel", "measure": {"measure": "std_dev"}}, "trials": 1}]}
    assert main(["check", "--scenario", write(tmp_path, "t.json", doc)]) == EXIT_INPUT_ERROR
    assert "permutations" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-2147483648"])
@pytest.mark.parametrize("command", ["check", "suite"])
def test_negative_seed_exits_2(tmp_path, capsys, command, seed):
    doc = {"v": 1, "space": {"probs": [0.25, 0.75]},
           "check": [{"set": {"kind": "ball", "p": 2}, "trials": 5}]}
    args = (["--scenario", write(tmp_path, "s.json", doc)] if command == "check"
            else ["--only", "variance_normalisation"])
    out = tmp_path / "out"
    assert main([command, *args, f"--seed={seed}", "--out", str(out)]) == EXIT_INPUT_ERROR
    assert "--seed" in capsys.readouterr().err and not out.exists()


def test_defect_inside_a_command_propagates(tmp_path, monkeypatch):
    """Only input errors map to exit 2: a TypeError raised by the library,
    while the scenario is read or after, is a defect and must surface."""
    def broken(*args, **kwargs):
        raise TypeError("defect")

    monkeypatch.setattr("minkdev.cli.gauge_table", broken)
    with pytest.raises(TypeError, match="defect"):
        main(["eval", "--scenario", write(tmp_path, "s.json", EVAL_DOC)])
    monkeypatch.undo()
    monkeypatch.setattr("minkdev.sets.ball_set", broken)  # a constructor the reader calls
    doc = dict(EVAL_DOC, sets=[{"kind": "ball", "p": 2, "label": "b"}])
    with pytest.raises(TypeError, match="defect"):
        main(["eval", "--scenario", write(tmp_path, "b.json", doc)])


def test_eval_of_constants_over_a_huge_l2_ball(tmp_path, capsys):
    # the squared radius is past the float range; the ball holds every shift
    doc = dict(EVAL_DOC, sets=[{"kind": "add_constants", "label": "big",
                                "of": {"kind": "ball", "p": 2, "radius": 1e200}}])
    assert main(["eval", "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["results"]
    assert all(r["gauge(big)"] <= 1e-12 for r in rows)


def test_polar_refuses_a_polytope_in_both_forms(tmp_path, capsys):
    # an entry in both forms is ambiguous: neither form may silently win
    polytope = {"vertices": [[2, 0], [0, 2], [-2, 0], [0, -2]], "rows": "junk"}
    doc = {"v": 1, "space": {"probs": [0.5, 0.5]}, "polytope": polytope}
    assert main(["polar", "--scenario", write(tmp_path, "p.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: polytope: ")


def test_unknown_measure_error_names_its_path(tmp_path, capsys):
    doc = dict(EVAL_DOC, measures=["std_dev", "nope"])
    assert main(["eval", "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: measures[1]: unknown deviation measure 'nope'\n"


@pytest.mark.parametrize("command, doc, path, alpha", [
    ("eval", dict(EVAL_DOC, positions={}, sets=[{"kind": "sublevel", "measure": {"measure": "esd", "alpha": 2.0}}]),
     "sets[0].measure", 2.0),
    ("eval", dict(EVAL_DOC, measures=[{"measure": "esd", "alpha": -0.5}]), "measures[0]", -0.5),
    ("check", {"v": 1, "space": {"probs": [0.25, 0.75]}, "check": [{"measure": {"measure": "es", "alpha": 2.0}}]},
     "check[0].measure", 2.0),
], ids=["set", "measure", "check"])
def test_a_shortfall_level_out_of_range_exits_2_with_its_path(tmp_path, capsys, command, doc, path, alpha):
    # the level is checked when the measure is built, whether or not a
    # position ever evaluates it
    assert main([command, "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: shortfall level must lie in [0, 1], got {alpha}\n"


@pytest.mark.parametrize("command, doc, error", [
    ("eval", dict(EVAL_DOC, measures=[{"measure": "std_dev", "alpha": 0.3}]), "measures[0]: std_dev takes no alpha"),
    ("check", {"v": 1, "space": {"probs": [0.25, 0.75]}, "check": [{"measure": {"measure": "lr", "alpha": 0.3}}]},
     "check[0].measure: lr takes no alpha"),
], ids=["measure", "check"])
def test_a_level_for_a_measure_without_one_exits_2_with_its_path(tmp_path, capsys, command, doc, error):
    assert main([command, "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_polar_of_an_unbounded_halfspace_polytope_exits_2(tmp_path, capsys):
    # y0 <= 2 and |y1| <= 2 are unbounded toward y0 -> -inf: the polar of
    # their two corners would be wrong, so there is none
    doc = {"v": 1, "space": {"probs": [0.5, 0.5]}, "polytope": {"rows": [[1, 0], [0, 1], [0, -1]], "rhs": [1, 1, 1]}}
    assert main(["polar", "--scenario", write(tmp_path, "p.json", doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: polar takes a bounded polytope, and these halfspaces are unbounded\n"
    doc["polytope"] = {"rows": [[1, 0], [-1, 0], [0, 1], [0, -1]], "rhs": [1, 1, 1, 1]}
    assert main(["polar", "--scenario", write(tmp_path, "p.json", doc)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["polar"]["rhs"] == [1.0, 1.0, 1.0, 1.0]


def test_wrong_length_position_error_names_its_path(tmp_path, capsys):
    doc = dict(EVAL_DOC, positions={"X": [0.0, 1.0], "Y": [1.0, 2.0, 3.0]})
    assert main(["eval", "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: positions.Y: position must have 2 entries, got shape (3,)\n"


def test_negative_radius_error_names_its_path(tmp_path, capsys):
    # the path of the set whose constructor refused it, however deep
    ball = {"kind": "ball", "radius": -1}
    doc = dict(EVAL_DOC, sets=[{"kind": "ball"}, {"kind": "scale", "factor": 2.0, "of": ball}])
    assert main(["eval", "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: sets[1].of: radius must be finite and positive, got -1.0\n"


def test_eval_of_a_hull_at_the_float_limit(tmp_path, capsys):
    # the facet search squared coordinates up to 1e308 and kept NaN planes,
    # dividing inf by inf; it now scales the points first, so no plane is NaN
    doc = {"v": 1, "space": {"probs": [0.5, 0.5]}, "positions": {"x": [1e308, -0.5]},
           "sets": [{"kind": "vertices", "vertices": [[1e308, 0], [0, 1], [-1, -1]], "label": "hull"}]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--scenario", write(tmp_path, "s.json", doc)]) == EXIT_OK
    assert not [w for w in caught if "invalid value" in str(w.message)]
    assert json.loads(capsys.readouterr().out)["results"][0]["gauge(hull)"] >= 1.0
