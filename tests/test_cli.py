"""Command-line interface: exit codes, JSON envelopes, piping, determinism."""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodelaunay import angles, cli, develop, origami, ribbon


L = "h=(12);v=(13)"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def l_files(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    iota = tmp_path / "matching.json"
    code, out, _ = run_cli(capsys, "origami", "build", "h=(12);v=(13)")
    assert code == 0
    graph.write_text(out)
    code, out, _ = run_cli(capsys, "origami", "matching", "h=(12);v=(13)")
    assert code == 0
    iota.write_text(json.dumps(json.loads(out)["matching"]))
    return graph, iota


def test_validate_ok(l_files, capsys):
    graph, _ = l_files
    code, out, _ = run_cli(capsys, "validate", str(graph))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_domain_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": ["a", "b", "c"], "faces": [
        {"id": "f", "boundary": ["a", "b", "c"]},
        {"id": "g", "boundary": ["a", "b", "a"]},
    ]}))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "input error" in err


def test_bad_permutation_is_input_error(capsys):
    code, _, err = run_cli(capsys, "origami", "build", "h=(1x);v=()")
    assert code == 2


def test_info_reports_topology(l_files, capsys):
    graph, _ = l_files
    code, out, _ = run_cli(capsys, "info", str(graph))
    assert code == 0
    assert json.loads(out) == {"V": 1, "E": 9, "F": 6, "chi": -2, "genus": 2, "rank_h1": 4}


def test_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "--json", "origami", "check", "h=(12);v=(13)")
    assert code == 0
    env = json.loads(out)
    assert set(env) == {"command", "seed", "result", "diagnostics"}
    assert env["result"]["genus"] == 2 and env["result"]["arboreal"] is True


def test_match_find_expect_some(capsys, tmp_path):
    graph = tmp_path / "escher.json"
    code, out, _ = run_cli(capsys, "origami", "build", "h=(12)(34)(56);v=(23)(45)(16)")
    graph.write_text(out)
    code, out, _ = run_cli(capsys, "match", "find", "--expect-some", str(graph))
    assert code == 1
    assert json.loads(out)["count"] == 0


def test_match_verify(l_files, capsys):
    graph, iota = l_files
    code, out, _ = run_cli(capsys, "match", "verify", str(graph), str(iota))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["involution"]


def test_region_report(l_files, capsys):
    graph, iota = l_files
    code, out, _ = run_cli(capsys, "region", str(graph), str(iota))
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] and report["dimension"] == 6


def test_region_rejects_an_unverified_matching(l_files, tmp_path, capsys):
    graph, iota_file = l_files
    iota = json.loads(iota_file.read_text())
    identity = {k: k for k in iota}
    swapped = dict(iota)
    keys = sorted(swapped)
    swapped[keys[0]], swapped[keys[4]] = swapped[keys[4]], swapped[keys[0]]
    cases = [
        (identity, "does not act as -1 on the basis cycle through ('f1+', 0)"),
        (swapped, "not Z/3-equivariant at f1+/1: got f1-/0, expected f1+/0; "
                  "not Z/3-equivariant at f1+/2: got f1-/1, expected f1+/1; "
                  "not Z/3-equivariant at f1-/1: got f1-/2, expected f1+/2"),
    ]
    bad = tmp_path / "bad.json"
    for data, problems in cases:
        bad.write_text(json.dumps(data))
        for flags in ([], ["--json"]):
            code, out, err = run_cli(capsys, *flags, "region", str(graph), str(bad))
            assert (code, out) == (1, "")
            assert err == f"error: build_polytope requires a verified matching: {problems}\n"


def test_holonomy_report(l_files, tmp_path, capsys):
    graph, _ = l_files
    from isodelaunay import origami

    theta = origami.equilateral_angles(origami.Origami.from_spec("h=(12);v=(13)"))
    angles_file = tmp_path / "angles.json"
    angles_file.write_text(json.dumps(ribbon.he_map_to_json(theta, float)))
    code, out, _ = run_cli(capsys, "holonomy", str(graph), str(angles_file))
    assert code == 0
    report = json.loads(out)
    assert report["trivial"] is True
    assert len(report["cycles"]) == 4


def test_develop_delaunay_pipeline(tmp_path, capsys):
    surface_file = tmp_path / "surface.json"
    svg_file = tmp_path / "surface.svg"
    code, out, _ = run_cli(
        capsys, "origami", "develop", "h=(12);v=(13)", "--equilateral", "--svg", str(svg_file)
    )
    assert code == 0
    surface_file.write_text(out)
    assert svg_file.read_text().startswith("<svg")
    code, out, _ = run_cli(capsys, "delaunay", "check", str(surface_file))
    assert code == 0
    assert json.loads(out)["delaunay"] is True


def test_delaunay_flip_roundtrip(tmp_path, capsys):
    from isodelaunay import develop, origami

    o = origami.Origami.from_spec("h=();v=()")
    g = origami.build_origami_graph(o)
    s = develop.develop(g, origami.standard_angles(o))
    squashed = develop.DevelopedSurface(
        g, {h: complex(p.real, p.imag * 0.5) for h, p in s.periods.items()}
    )
    surface_file = tmp_path / "squashed.json"
    surface_file.write_text(json.dumps(squashed.to_json()))
    code, out, _ = run_cli(capsys, "delaunay", "flip", str(surface_file))
    assert code == 0
    report = json.loads(out)
    assert report["flips"] == ["d1"]


def test_delaunay_flip_past_the_flip_cap_is_one_error_line(tmp_path, capsys):
    from isodelaunay import develop, origami

    h = "".join(f"({i},{i + 1})" for i in range(1, 96, 2))
    v = "".join(f"({i},{i + 1})" for i in range(2, 96, 2))
    o = origami.Origami.from_spec(f"h={h};v={v}")
    s = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o))
    # the 96-square staircase under (x, y) -> (x + 25.3 y, y) needs 1,248 flips
    sheared = develop.DevelopedSurface(
        s.graph, {k: complex(z.real + 25.3 * z.imag, z.imag) for k, z in s.periods.items()}
    )
    surface_file = tmp_path / "sheared.json"
    surface_file.write_text(json.dumps(sheared.to_json()))
    code, out, err = run_cli(capsys, "delaunay", "flip", str(surface_file))
    assert code == 1 and out == ""
    assert err.startswith("error: flip cap hit") and err.count("\n") == 1


def test_sum_command(tmp_path, capsys):
    torus_file = tmp_path / "torus.json"
    code, out, _ = run_cli(capsys, "origami", "build", "h=();v=()")
    torus_file.write_text(out)
    code, out, _ = run_cli(
        capsys, "sum", str(torus_file), "f1-/0", str(torus_file), "f1-/0"
    )
    assert code == 0
    summed = tmp_path / "sum.json"
    summed.write_text(out)
    code, out, _ = run_cli(capsys, "info", str(summed))
    assert code == 0
    assert json.loads(out)["rank_h1"] == 3


@pytest.mark.parametrize("keys", [("f9-/0", "f1-/0"), ("f1-/0", "f7+/2"), ("f1-/3", "f1-/0")])
def test_sum_with_a_half_edge_outside_the_graph_is_input_error(l_files, capsys, keys):
    graph, _ = l_files
    code, out, err = run_cli(capsys, "sum", str(graph), keys[0], str(graph), keys[1])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "8", "-3"])
def test_sweep_outside_its_bound_is_input_error(capsys, n):
    code, out, err = run_cli(capsys, "origami", "sweep", "--max-squares", n)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_the_sweep_takes_no_deadline(capsys):
    # the sweep's search is one pass per graph, and a truncated search once
    # read as "no matching" and reported false mismatches
    with pytest.raises(SystemExit) as ex:
        cli.run(["origami", "sweep", "--max-squares", "3", "--deadline", "0"])
    assert ex.value.code == 2
    assert "unrecognized arguments: --deadline 0" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "origami", "sweep", "--max-squares", "5")
    assert code == 0 and json.loads(out) == {"checked": 25, "mismatches": []}


@pytest.mark.parametrize("value", ["-1", "-0.5", "nan"])
def test_a_deadline_below_0_or_nan_is_input_error(l_files, capsys, value):
    graph, _ = l_files
    code, out, err = run_cli(capsys, "match", "find", str(graph), "--deadline", value)
    assert code == 2 and out == ""
    assert err == f"input error: --deadline must be at least 0, got {float(value)}\n"
    code, out, _ = run_cli(capsys, "match", "find", str(graph), "--deadline", "0")
    assert code == 0 and json.loads(out)["count"] <= 1


def test_reports_are_deterministic(l_files, capsys):
    graph, iota = l_files
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "--json", "--seed", "4", "region", str(graph), str(iota), "--samples", "3"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_shell_pipeline():
    pipeline = (
        f"{sys.executable} -m isodelaunay.cli origami build 'h=(12);v=(13)' | "
        f"{sys.executable} -m isodelaunay.cli match find"
    )
    proc = subprocess.run(pipeline, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] >= 1


def test_non_object_graph_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("5\n"))
    code, _, err = run_cli(capsys, "validate")
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1


def test_non_numeric_period_is_input_error(tmp_path, capsys):
    from isodelaunay import develop, origami

    o = origami.Origami.from_spec("h=();v=()")
    data = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o)).to_json()
    data["periods"][next(iter(data["periods"]))] = ["x", 0]
    surface_file = tmp_path / "surface.json"
    surface_file.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "delaunay", "check", str(surface_file))
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1


def test_empty_graph_is_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"edges": [], "faces": []}))
    code, out, _ = run_cli(capsys, "validate", str(empty))
    assert code == 1
    assert json.loads(out) == {"valid": False, "problems": ["graph has no faces"]}
    code, out, err = run_cli(capsys, "info", str(empty))
    assert code == 1
    assert out == "" and "graph has no faces" in err


def test_empty_surface_is_rejected(tmp_path, capsys):
    surface_file = tmp_path / "surface.json"
    surface_file.write_text(json.dumps({"graph": {"edges": [], "faces": []}, "periods": {}}))
    code, out, err = run_cli(capsys, "delaunay", "check", str(surface_file))
    assert code == 1
    assert out == "" and "no faces" in err and "max()" not in err


def test_non_string_face_id_is_one_error_line(tmp_path, capsys):
    graph = tmp_path / "int_id.json"
    graph.write_text(json.dumps({"edges": ["a", "b", "c"], "faces": [
        {"id": 1, "boundary": ["a", "b", "c"]},
        {"id": "g", "boundary": ["c", "b", "a"]},
    ]}))
    code, out, _ = run_cli(capsys, "validate", str(graph))
    assert code == 1
    assert json.loads(out) == {"valid": False, "problems": ["face id 1 is not a string"]}
    for argv in (("info", str(graph)), ("match", "find", str(graph))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: face id 1 is not a string\n")


@pytest.mark.parametrize("graph", [
    {"edges": ["a", "b", "c"], "faces": [{"id": "f", "boundary": "abc"},
                                         {"id": "g", "boundary": ["c", "b", "a"]}]},
    {"edges": "abc", "faces": [{"id": "f", "boundary": ["a", "b", "c"]},
                               {"id": "g", "boundary": ["c", "b", "a"]}]},
])
def test_string_edges_or_boundary_is_input_error(tmp_path, capsys, graph):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, "validate", str(graph_file))
    assert (code, out) == (2, "")
    assert err.startswith("input error: malformed graph JSON:") and err.count("\n") == 1
    surface_file = tmp_path / "surface.json"
    surface_file.write_text(json.dumps({"graph": graph, "periods": {}}))
    code, out, err = run_cli(capsys, "delaunay", "check", str(surface_file))
    assert (code, out) == (2, "")
    assert err.startswith("input error: malformed surface JSON:") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_period_is_one_input_error_line(tmp_path, capsys, bad):
    from isodelaunay import develop, origami

    o = origami.Origami.from_spec("h=();v=()")
    surface = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o)).to_json()
    surface["periods"]["f1-/0"][1] = bad
    surface_file = tmp_path / "surface.json"
    surface_file.write_text(json.dumps(surface))  # written as NaN or Infinity
    assert ("NaN" if bad != bad else "Infinity") in surface_file.read_text()
    for action in ("check", "flip"):
        code, out, err = run_cli(capsys, "delaunay", action, str(surface_file))
        assert (code, out) == (2, "")
        assert err == "input error: malformed surface JSON: non-finite period at f1-/0\n"


# the torus's half-edges f1-/0, f1-/1, f1-/2 pair with f1+/1, f1+/2, f1+/0
@pytest.mark.parametrize("periods,problem", [
    ({"f1+/0": [5.0, 0.0]}, "face 'f1+' does not close up (4.000e+00)"),
    ({"f1-/0": [0.0, 0.0], "f1-/1": [1.0, 0.0], "f1+/1": [0.0, 0.0], "f1+/2": [-1.0, 0.0]},
     "zero period at f1+/1"),
    ({"f1-/0": [0.75, -0.5], "f1-/1": [0.25, 0.5]}, "period mismatch across edge of f1+/1"),
])
def test_a_surface_that_fails_its_check_is_one_input_error_line(tmp_path, capsys, periods, problem):
    # the check reads half-edges in sorted order, so the order of the period
    # keys does not change the half-edge it names
    surface = _torus_surface_json()
    surface["periods"].update(periods)
    backwards = {**surface, "periods": dict(reversed(surface["periods"].items()))}
    surface_file = tmp_path / "surface.json"
    for data in (surface, backwards):
        surface_file.write_text(json.dumps(data))
        for action in ("check", "flip"):
            code, out, err = run_cli(capsys, "delaunay", action, str(surface_file))
            assert (code, out) == (2, "")
            assert err == f"input error: malformed surface JSON: {problem}\n"


def test_disconnected_surface_is_one_error_line(tmp_path, capsys):
    from isodelaunay import develop, origami

    o = origami.Origami.from_spec("h=();v=()")
    torus = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o)).to_json()
    # two tori side by side: every face closes and every edge pairs up, but
    # neither copy reaches the other
    surface = {
        "graph": {
            "edges": [p + e for p in "AB" for e in torus["graph"]["edges"]],
            "faces": [{"id": p + f["id"], "boundary": [p + e for e in f["boundary"]]}
                      for p in "AB" for f in torus["graph"]["faces"]],
        },
        "periods": {p + k: z for p in "AB" for k, z in torus["periods"].items()},
    }
    surface_file = tmp_path / "two_tori.json"
    surface_file.write_text(json.dumps(surface))
    bad_matching = tmp_path / "bad.json"
    bad_matching.write_text("5")
    for argv in (("delaunay", "check", str(surface_file)),
                 ("delaunay", "flip", str(surface_file)),
                 # the graph is read, and rejected, before the malformed second file
                 ("match", "verify", str(surface_file), str(bad_matching))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: graph is disconnected (2 of 4 faces reachable)\n"


MATCHING_COMMANDS = [("region", "{graph}", "{file}"), ("match", "verify", "{graph}", "{file}")]
ANGLE_COMMANDS = [
    ("holonomy", "{graph}", "{file}"),
    ("develop", "{graph}", "{file}"),
    ("info", "{graph}", "--angles", "{file}"),
]
BAD_MATCHINGS = ["5", '["f1-/0"]', '{"f1-/0": 1}', '{"f1-/0": null}', '{"f1-/0": "x"}']
BAD_ANGLES = ["5", "[1.0]", '{"f1-/0": null}', '{"f1-/0": "1.0"}', '{"f1-/0": true}',
              '{"f1-/0": 1' + "0" * 400 + "}", '{"f1/9": 1.0}']


@pytest.mark.parametrize(
    "command,payload",
    [(c, p) for c in MATCHING_COMMANDS for p in BAD_MATCHINGS]
    + [(c, p) for c in ANGLE_COMMANDS for p in BAD_ANGLES],
)
def test_malformed_matching_or_angles_is_input_error(l_files, tmp_path, capsys, command, payload):
    graph, _ = l_files
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    argv = [a.format(graph=graph, file=bad) for a in command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1


def _torus_surface_json():
    from isodelaunay import develop, origami

    o = origami.Origami.from_spec("h=();v=()")
    return develop.develop(origami.build_origami_graph(o), origami.standard_angles(o)).to_json()


def _check_surface_is_input_error(tmp_path, capsys, data):
    surface_file = tmp_path / "surface.json"
    surface_file.write_text(json.dumps(data))
    for action in ("check", "flip"):
        code, out, err = run_cli(capsys, "delaunay", action, str(surface_file))
        assert code == 2 and out == ""
        assert err.startswith("input error: malformed surface JSON:") and err.count("\n") == 1


def test_empty_periods_are_input_error(tmp_path, capsys):
    data = _torus_surface_json()
    data["periods"] = {}
    _check_surface_is_input_error(tmp_path, capsys, data)


def test_missing_period_keys_are_input_error(tmp_path, capsys):
    data = _torus_surface_json()
    del data["periods"]["f1-/1"]
    _check_surface_is_input_error(tmp_path, capsys, data)


def test_non_object_periods_are_input_error(tmp_path, capsys):
    data = _torus_surface_json()
    data["periods"] = list(data["periods"].values())
    _check_surface_is_input_error(tmp_path, capsys, data)


@pytest.mark.parametrize("period", [[5.0], [1, 2, 3], "x"])
def test_a_period_that_is_not_two_numbers_is_input_error(tmp_path, capsys, period):
    # a period is read by a strict unpack into its real and imaginary parts
    data = _torus_surface_json()
    data["periods"]["f1-/1"] = period
    _check_surface_is_input_error(tmp_path, capsys, data)


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(capsys):
    spec = "h=(12);v=(13)"
    calls = [["origami", "build"],  # no spec: argparse exits 2
             ["--json", "--seed", "5", "origami", "build", spec],
             ["--json", "origami", "build", spec]]
    results = []
    for argv in calls:
        try:
            code = cli.run(argv)
        except SystemExit as ex:
            code = ex.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0][0] == 2
    assert [json.loads(out)["seed"] for _, out, _ in results[1:]] == [5, 0]
    for argv, result in zip(calls, results):
        alone = subprocess.run([sys.executable, "-m", "isodelaunay.cli", *argv],
                               capture_output=True, text=True)
        assert result == (alone.returncode, alone.stdout, alone.stderr)


@pytest.mark.parametrize("command", ["region", "develop -o", "develop --svg",
                                     "origami develop", "sum"])
def test_an_unwritable_output_path_is_input_error(l_files, tmp_path, capsys, command):
    from isodelaunay import origami

    graph, iota = l_files
    theta = origami.standard_angles(origami.Origami.from_spec("h=(12);v=(13)"))
    angles_file = tmp_path / "angles.json"
    angles_file.write_text(json.dumps(ribbon.he_map_to_json(theta, float)))
    missing = str(tmp_path / "missing" / "out")
    argv = {
        "region": ["region", str(graph), str(iota), "--samples", "2", "-o", missing],
        "develop -o": ["develop", str(graph), str(angles_file), "-o", missing],
        "develop --svg": ["develop", str(graph), str(angles_file), "--svg", missing],
        "origami develop": ["origami", "develop", "h=(12);v=(13)", "--svg", missing],
        "sum": ["sum", str(graph), "f1-/0", str(graph), "f1-/0", "-o", missing],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"input error: cannot write {missing}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["region", "develop -o", "develop --svg",
                                     "origami develop", "sum"])
def test_an_empty_output_path_is_input_error_before_any_input_is_read(tmp_path, capsys, command):
    # no input file exists and the spec does not parse, so only a refusal
    # made before any input is read names the empty path
    absent = str(tmp_path / "absent.json")
    argv, flag = {
        "region": (["region", absent, absent, "--samples", "2", "-o", ""], "output"),
        "develop -o": (["develop", absent, absent, "-o", ""], "output"),
        "develop --svg": (["develop", absent, absent, "--svg", ""], "svg"),
        "origami develop": (["origami", "develop", "h=(1x);v=()", "--svg", ""], "svg"),
        "sum": (["sum", absent, "f1-/0", absent, "f1-/0", "-o", ""], "output"),
    }[command]
    assert run_cli(capsys, *argv) == (2, "", f"input error: --{flag} must not be empty\n")
    assert list(tmp_path.iterdir()) == []


def test_region_refuses_more_samples_than_its_bound(l_files, capsys, monkeypatch):
    # a report holds all its samples at once, so their count is bounded
    graph, iota = l_files
    over = str(cli.MAX_SAMPLES + 1)
    assert run_cli(capsys, "region", str(graph), str(iota), "--samples", over) == (
        2, "", f"input error: --samples must be at most {cli.MAX_SAMPLES}, got {over}\n")
    monkeypatch.setattr(cli, "MAX_SAMPLES", 2)
    code, out, _ = run_cli(capsys, "region", str(graph), str(iota), "--samples", "2")
    assert code == 0 and len(json.loads(out)["samples"]) == 2
    assert run_cli(capsys, "region", str(graph), str(iota), "--samples", "3")[0] == 2


def test_a_closed_stdout_ends_quietly():
    # `isodel ... | head` closes the pipe before the report is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "isodelaunay.cli", "origami", "build", L],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_region_streams_its_samples(l_files):
    # the report is encoded straight to stdout, and the samples share one
    # string per corner key, so the process's peak memory grows by less than
    # 3 times the bytes it prints (about 1.8 times on the L origami), not by
    # the whole indented string and its pieces besides (about 9.5 times) or
    # by a key string per corner of each sample (about 3.5 times).  The
    # child reads its peak from VmHWM: ru_maxrss keeps the high-water mark of
    # the process it was forked from across exec.  Its stdout is buffered,
    # as it is by default off a terminal
    graph, iota = l_files
    script = ("import sys\n"
              "from isodelaunay import cli\n"
              "def peak():\n"
              "    with open('/proc/self/status') as fh:\n"
              "        return int(next(x for x in fh if x.startswith('VmHWM:')).split()[1])\n"
              "before = peak()\n"
              "code = cli.run(sys.argv[1:])\n"
              "sys.stdout.flush()\n"
              "print(code, peak() - before, file=sys.stderr)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", script, "region", str(graph), str(iota),
                           "--samples", "3000"], capture_output=True, env=env, timeout=60)
    code, grown_kb = map(int, proc.stderr.split())
    assert code == 0 and len(json.loads(proc.stdout)["samples"]) == 3000
    assert grown_kb * 1024 < 3 * len(proc.stdout)


class _CountingStdout(io.StringIO):
    """A stdout that counts the writes made to it."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_a_report_takes_one_write_per_emit_tokens(l_files):
    # under an unbuffered stdout each write is a system call, so a report
    # goes out in chunks of cli.EMIT_TOKENS JSON tokens, and a newline, with
    # the bytes json.dump(report, indent=2, sort_keys=True) writes
    graph, iota = l_files
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        code = cli.run(["--json", "region", str(graph), str(iota), "--samples", "300"])
    text = out.getvalue()
    report = json.loads(text)
    assert code == 0 and json.dumps(report, indent=2, sort_keys=True) + "\n" == text
    tokens = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(report))
    assert tokens > 3 * cli.EMIT_TOKENS
    assert out.writes == -(-tokens // cli.EMIT_TOKENS) + 1


def _subcommands(parser=None, words=()) -> list[str]:
    """The words naming each command of the parser, such as ``match find``."""
    parser = parser or cli.build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(words)]
    return [c for name, p in subs[0].choices.items() for c in _subcommands(p, (*words, name))]


@pytest.mark.parametrize("command", _subcommands())
def test_the_envelope_names_the_subcommand(l_files, tmp_path, capsys, command):
    graph, iota = l_files
    o = origami.Origami.from_spec(L)
    theta = origami.standard_angles(o)
    angles_file = write_json(tmp_path / "angles.json", ribbon.he_map_to_json(theta, float))
    surface = write_json(tmp_path / "surface.json",
                         develop.develop(origami.build_origami_graph(o), theta).to_json())
    args = {
        "validate": [graph], "info": [graph], "holonomy": [graph, angles_file],
        "match find": [graph, "--limit", "1"], "match verify": [graph, iota],
        "region": [graph, iota], "develop": [graph, angles_file],
        "delaunay check": [surface], "delaunay flip": [surface],
        "origami build": [L], "origami check": [L], "origami matching": [L],
        "origami develop": [L], "origami sweep": ["--max-squares", "2"],
        "sum": [graph, "f1-/0", graph, "f1-/0"],
    }[command]
    _, out, err = run_cli(capsys, "--json", *command.split(), *map(str, args))
    assert err == "" and json.loads(out)["command"] == command


@pytest.mark.parametrize("flag, value", [("--samples", "-3"), ("--limit", "0"), ("--limit", "-1")])
def test_a_count_below_its_least_value_is_input_error(l_files, capsys, flag, value):
    graph, iota = l_files
    if flag == "--samples":
        argv = ["region", str(graph), str(iota), flag, value]
    else:
        argv = ["match", "find", str(graph), flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"input error: {flag} must be at least {1 if flag == '--limit' else 0}, got {value}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["develop", "holonomy"])
def test_a_tol_that_is_not_finite_or_is_below_0_is_input_error(l_files, tmp_path, capsys,
                                                               command, value):
    # a NaN tolerance let a surface that does not close through, and -1
    # reported an obstruction with residual 0
    from isodelaunay import origami

    graph, _ = l_files
    theta = origami.standard_angles(origami.Origami.from_spec("h=(12);v=(13)"))
    angles_file = tmp_path / "angles.json"
    angles_file.write_text(json.dumps(ribbon.he_map_to_json(theta, float)))
    code, out, err = run_cli(capsys, f"--tol={value}", command, str(graph), str(angles_file))
    assert code == 2 and out == ""
    assert err == f"input error: --tol must be a finite number at least 0, got {float(value)}\n"
    code, out, _ = run_cli(capsys, "--tol=0", command, str(graph), str(angles_file))
    assert code == 0 and out


def test_holonomy_of_exactly_1_is_trivial_at_tol_0(l_files, tmp_path, capsys):
    # the standard angles of the L origami give every basis cycle the
    # holonomy 1 exactly, which a tolerance of 0 accepts
    graph, _ = l_files
    theta = ribbon.he_map_to_json(origami.standard_angles(origami.Origami.from_spec(L)), float)
    angles_file = write_json(tmp_path / "angles.json", theta)
    code, out, _ = run_cli(capsys, "--tol=0", "holonomy", str(graph), str(angles_file))
    report = json.loads(out)
    assert code == 0 and report["trivial"] is True
    assert {(c["modulus"], c["phase"]) for c in report["cycles"]} == {(1.0, 0.0)}


def test_info_with_angles_reports_the_stratum(l_files, tmp_path, capsys):
    graph, _ = l_files
    o = origami.Origami.from_spec(L)
    for theta in (origami.standard_angles(o), origami.equilateral_angles(o)):
        angles_file = write_json(tmp_path / "angles.json", ribbon.he_map_to_json(theta, float))
        code, out, _ = run_cli(capsys, "info", str(graph), "--angles", str(angles_file))
        assert code == 0
        assert json.loads(out)["stratum"] == {"genus": 2, "zero_orders": [2]}


@pytest.mark.parametrize("command", ANGLE_COMMANDS)
@pytest.mark.parametrize("case, message", [
    ("zero", "corner of face 'f1-' outside (0, pi): [0.0, 0.0, 0.0]"),
    ("missing", "missing corner of face 'f2+'"),
])
def test_angles_that_fail_validation_are_one_error_line(l_files, tmp_path, capsys, command,
                                                        case, message):
    graph, _ = l_files
    theta = ribbon.he_map_to_json(origami.standard_angles(origami.Origami.from_spec(L)), float)
    if case == "zero":
        theta = dict.fromkeys(theta, 0.0)
    else:
        del theta["f2+/1"]
    bad = write_json(tmp_path / "bad.json", theta)
    code, out, err = run_cli(capsys, *[a.format(graph=graph, file=bad) for a in command])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_info_refuses_angles_whose_cone_angles_are_not_whole_turns(tmp_path, capsys):
    # two squares in one horizontal cylinder have two vertices; moving 0.1
    # between two corners of a face at different vertices keeps every face
    # valid but makes the cone angles 2 pi +- 0.1
    o = origami.Origami.from_spec("h=(12);v=()")
    g = origami.build_origami_graph(o)
    vertex = {c: k for k, orbit in enumerate(ribbon.vertex_orbits(g)) for c in orbit}
    assert vertex[("f1-", 0)] != vertex[("f1-", 2)]
    theta = origami.standard_angles(o)
    theta[("f1-", 0)] += 0.1
    theta[("f1-", 2)] -= 0.1
    angles.validate_angles(g, theta)
    graph = write_json(tmp_path / "graph.json", g.to_json())
    angles_file = write_json(tmp_path / "angles.json", ribbon.he_map_to_json(theta, float))
    code, out, err = run_cli(capsys, "info", str(graph), "--angles", str(angles_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: angles do not close up to integer cone angle at orbit of")


def test_output_files_hold_what_stdout_would(l_files, tmp_path, capsys):
    graph, iota = l_files
    theta = ribbon.he_map_to_json(origami.standard_angles(origami.Origami.from_spec(L)), float)
    angles_file = write_json(tmp_path / "angles.json", theta)
    for argv in (["develop", str(graph), str(angles_file)],
                 ["sum", str(graph), "f1-/0", str(graph), "f2+/1"]):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "--json", *argv, "-o", str(target))
        assert code == 0
        assert json.loads(out)["result"] == {"written": str(target)}
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0 and target.read_text() == json.dumps(json.loads(plain), sort_keys=True)
    samples = tmp_path / "samples"
    samples.mkdir()
    code, out, _ = run_cli(capsys, "--seed", "3", "region", str(graph), str(iota), "--samples", "2",
                           "-o", str(samples))
    assert code == 0
    assert sorted(p.name for p in samples.iterdir()) == ["sample_0000.json", "sample_0001.json"]
    assert [json.loads((samples / f"sample_{i:04d}.json").read_text())
            for i in range(2)] == json.loads(out)["samples"]


def test_develop_reports_a_holonomy_obstruction(tmp_path, capsys):
    # valid angles on the torus whose holonomy is not 1
    theta = {"f1-/0": 0.9, "f1-/1": 1.1, "f1-/2": math.pi - 2.0,
             "f1+/0": 0.7, "f1+/1": 1.4, "f1+/2": math.pi - 2.1}
    torus = origami.build_origami_graph(origami.Origami.from_spec("h=();v=()"))
    graph = write_json(tmp_path / "torus.json", torus.to_json())
    angles_file = write_json(tmp_path / "angles.json", theta)
    code, out, err = run_cli(capsys, "--json", "develop", str(graph), str(angles_file))
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert result["edge"] == "b1" and result["residual"] > 0.1
    residual = result["residual"]
    assert result["error"] == f"holonomy obstruction at edge 'b1' (residual {residual:.3e})"


def test_delaunay_check_reports_a_degenerate_surface(tmp_path, capsys):
    # (x, y) -> (x + 2 y, 0) keeps every face closed, every edge paired and
    # every period nonzero, and lays every triangle flat on one line
    data = _torus_surface_json()
    data["periods"] = {k: [re + 2 * im, 0.0] for k, (re, im) in data["periods"].items()}
    surface = write_json(tmp_path / "flat.json", data)
    code, out, err = run_cli(capsys, "delaunay", "check", str(surface))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"delaunay": False,
                               "degenerate": "degenerate corner f1-/0 (angle 0.000000)"}


@pytest.mark.parametrize("spec, message", [
    ("h=(01);v=()", "permutation symbols must be >= 1 in '(01)'"),
    ("h=(12)", "expected 'h=...;v=...', got 'h=(12)'"),
    ("h=(12);w=()", "expected 'h=...;v=...', got 'h=(12);w=()'"),
    ("h=(12);v=(12);v=(13)", "key 'v' given twice in 'h=(12);v=(12);v=(13)'"),
])
def test_a_bad_spec_is_one_input_error_line(capsys, spec, message):
    code, out, err = run_cli(capsys, "origami", "build", spec)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_validate_reports_duplicate_edge_ids(tmp_path, capsys):
    graph = write_json(tmp_path / "graph.json", {
        "edges": ["a", "b", "c", "a"],
        "faces": [{"id": f, "boundary": ["a", "b", "c"]} for f in "fg"],
    })
    code, out, _ = run_cli(capsys, "validate", str(graph))
    assert code == 1
    assert json.loads(out) == {"valid": False,
                               "problems": ["duplicate edge identifiers in edge list"]}


@pytest.mark.parametrize("case, problem", [
    ("domain", "domain of the map is not the full half-edge set"),
    ("image", "image ('z', 0) of ('f1-', 0) is not a half-edge"),
    ("bijection", "map is not a bijection on half-edges"),
])
def test_match_verify_names_a_map_that_is_no_matching(l_files, tmp_path, capsys, case, problem):
    graph, iota = l_files
    data = json.loads(iota.read_text())
    if case == "domain":
        del data["f2+/1"]
    elif case == "image":
        data["f1-/0"] = "z/0"
    else:
        data["f1-/0"] = data["f1-/1"]
    bad = write_json(tmp_path / "bad.json", data)
    code, out, _ = run_cli(capsys, "match", "verify", str(graph), str(bad))
    report = json.loads(out)
    assert (code, report["valid"]) == (1, False)
    assert report["problems"][0] == problem


# wrong types, non-finite numbers and an integer too large for a float
_BAD_VALUES = [None, True, "x", [], {}, 1.5, -1, math.nan, math.inf, -math.inf, 10**400]
_BAD_KEYS = ["", "f1+", "f1+/3", "f1+/x", "/0", "f9/0"]
# each command with the documents it reads: graph, angles, matching, surface
_FUZZED = [
    (["validate", "G"], "G"), (["info", "G", "--angles", "A"], "GA"), (["holonomy", "G", "A"], "GA"),
    (["match", "find", "G"], "G"), (["match", "verify", "G", "M"], "GM"),
    (["region", "G", "M", "--samples", "1"], "GM"), (["develop", "G", "A"], "GA"),
    (["delaunay", "check", "S"], "S"), (["delaunay", "flip", "S"], "S"),
    (["sum", "G", "f1+/0", "G", "f1-/1"], "G"),
]


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    o = origami.Origami.from_spec(L)
    g = origami.build_origami_graph(o)
    theta = origami.standard_angles(o)
    # sheared, so that delaunay flip has work to do
    surface = develop.develop(g, theta)
    periods = {h: complex(z.real + 1.3 * z.imag, z.imag) for h, z in surface.periods.items()}
    docs = {"G": g.to_json(), "A": ribbon.he_map_to_json(theta, float),
            "M": ribbon.he_map_to_json(origami.canonical_matching(o), ribbon.he_key),
            "S": develop.DevelopedSurface(g, periods).to_json()}
    return docs, tmp_path_factory.mktemp("fuzz")


def _mutated(data, doc):
    """A copy of the JSON document ``doc`` with one drawn change: the whole
    document, or one entry of one of its objects or lists, dropped or
    replaced by a bad value, or an object key replaced by a bad key."""
    doc = copy.deepcopy(doc)
    nodes, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        nodes += [(node, k) for k in keys]
        stack += [node[k] for k in keys if isinstance(node[k], (dict, list))]
    pick = data.draw(st.integers(-1, len(nodes) - 1))
    if pick < 0:
        return data.draw(st.sampled_from(_BAD_VALUES))
    node, k = nodes[pick]
    change = data.draw(st.sampled_from(["drop", "value", "key"]))
    if change == "drop":
        del node[k]
    elif change == "key" and isinstance(node, dict):
        node[data.draw(st.sampled_from(_BAD_KEYS))] = node.pop(k)
    else:
        node[k] = data.draw(st.sampled_from(_BAD_VALUES))
    return doc


@settings(derandomize=True, max_examples=120, deadline=None)  # about 0.3 s
@given(st.data())
def test_mutated_json_gives_an_exit_code_and_at_most_one_error_line(fuzz_documents, data):
    # a graph, angle, matching or surface document with one key dropped, one
    # value of a wrong type, NaN, infinite or too large for a float, or one
    # bad half-edge key; every run ends in exit 0, 1 or 2 with no exception
    docs, folder = fuzz_documents
    argv, reads = data.draw(st.sampled_from(_FUZZED))
    bad = data.draw(st.sampled_from(reads))
    for name in reads:
        doc = _mutated(data, docs[name]) if name == bad else docs[name]
        (folder / name).write_text(json.dumps(doc))
    argv = [str(folder / a) if a in docs else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
