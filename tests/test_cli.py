"""Command-line interface: schemas, outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

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
    # the smallest tolerance bisection can reach: below it a bracket never
    # settles and every cell spends its whole oracle budget
    doc = dict(EVAL_DOC, set=EVAL_DOC["sets"][0])
    scenario = write(tmp_path, "s.json", doc)
    out = tmp_path / "out"
    tol = repr(float(np.finfo(float).eps))
    assert main([command, "--scenario", scenario, f"--tol={tol}", "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command, option", [
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
])
def test_options_a_command_does_not_read_exit_2(tmp_path, capsys, command, option):
    doc = dict(EVAL_DOC, set=EVAL_DOC["sets"][0], polytope={"vertices": [[1, 0], [0, 1], [-1, -1]]},
               check=[{"set": {"kind": "ball", "p": 2}}])
    out = tmp_path / "out"
    scenario = []
    if command != "suite":  # the suite would run in full
        scenario = ["--scenario", write(tmp_path, "s.json", doc)]
        assert main([command, *scenario, "--out", str(out)]) == EXIT_OK
    assert main([command, *scenario, *option, "--out", str(out)]) == EXIT_INPUT_ERROR
    assert option[0] in capsys.readouterr().err


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


def test_malformed_check_entries_exit_2(tmp_path):
    base = {"v": 1, "space": {"probs": [0.25, 0.75]}}
    for entry in ({"measure": {"measure": "frd"}, "trials": "many"},
                  {"set": {"kind": "ball", "p": 2}, "properties": 5}):
        scenario = write(tmp_path, "bad.json", dict(base, check=[entry]))
        assert main(["check", "--scenario", scenario]) == EXIT_INPUT_ERROR


def test_defect_inside_a_command_propagates(tmp_path, monkeypatch):
    """Only input errors map to exit 2: a TypeError raised by the library
    after the scenario has been read is a defect and must surface."""
    def broken(*args, **kwargs):
        raise TypeError("defect")

    monkeypatch.setattr("minkdev.cli.gauge_table", broken)
    with pytest.raises(TypeError, match="defect"):
        main(["eval", "--scenario", write(tmp_path, "s.json", EVAL_DOC)])
