"""Exact stdout and SVG bytes of CLI commands that depend on the face walks.

Developed periods and SVG layouts follow the spanning-tree walk, connected
sums and validation follow the connectivity walk, so a reordered walk shows
here even when every invariant still holds.  The region report without
samples is the certified equilateral optimum and the orbit-count dimension.
The holonomy reports print the cycle basis, and under non-constant angles
each phase pins the corner chain that phi gives for its cycle.
None of these commands calls LAPACK, so the bytes do not depend on the
linear-algebra build.

Rewrite the expected files under tests/data only for a deliberate change of
output:

    PYTHONPATH=src python tests/test_snapshots.py

``tools/output_digest.py`` hashes a wider set of CLI outputs and the exact
samples of the region pipeline into one digest, pinned in ``OUTPUT_DIGEST``
below; replace it, with what that script prints, under the same rule, or
when the script comes to cover more outputs and prints the new value on the
parent tree too.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from isodelaunay import cli, develop, origami, ribbon

DATA = Path(__file__).parent / "data"
L = "h=(12);v=(13)"
STAIRCASE_12 = "h=(1,2)(3,4)(5,6)(7,8)(9,10)(11,12);v=(2,3)(4,5)(6,7)(8,9)(10,11)"
SHEAR = 2.5
OUTPUT_DIGEST = "c98609acb669258328ad869f8fe4c9f9b1f06947b73eaee23033122e3c72ab9b"


def _run(argv, expect=0) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    assert code == expect, (argv, code)
    return buf.getvalue().encode()


def _develop(spec, tmp):
    svg = tmp / "surface.svg"
    out = _run(["--json", "origami", "develop", spec, "--equilateral", "--svg", str(svg)])
    return {"json": out, "svg": svg.read_bytes()}


def _flip_staircase(tmp):
    return {"json": _run(["--json", "delaunay", "flip", str(_sheared_staircase(tmp))])}


def _sheared_staircase(tmp):
    surface = json.loads(_run(["origami", "develop", STAIRCASE_12]))
    surface["periods"] = {
        k: [re + SHEAR * im, im] for k, (re, im) in surface["periods"].items()
    }
    path = tmp / "sheared.json"
    path.write_text(json.dumps(surface))
    return path


def _holonomy(graph, theta, tmp):
    graph_path, angles_path = tmp / "graph.json", tmp / "angles.json"
    graph_path.write_text(json.dumps(graph.to_json()))
    angles_path.write_text(json.dumps(ribbon.he_map_to_json(theta, float)))
    return {"json": _run(["--json", "holonomy", str(graph_path), str(angles_path)])}


def _holonomy_staircase(tmp):
    o = origami.Origami.from_spec(STAIRCASE_12)
    return _holonomy(origami.build_origami_graph(o), origami.standard_angles(o), tmp)


def _holonomy_flip_staircase(tmp):
    flipped = json.loads(_run(["delaunay", "flip", str(_sheared_staircase(tmp))]))
    surface = develop.DevelopedSurface.from_json(flipped)
    return _holonomy(surface.graph, develop.angles_of(surface), tmp)


def _sum_l(tmp):
    path = tmp / "l.json"
    path.write_bytes(_run(["origami", "build", L]))
    return {"json": _run(["--json", "sum", str(path), "f1-/0", str(path), "f2+/1"])}


def _region(spec, tmp):
    graph, iota = tmp / "graph.json", tmp / "matching.json"
    graph.write_bytes(_run(["origami", "build", spec]))
    iota.write_text(json.dumps(json.loads(_run(["origami", "matching", spec]))["matching"]))
    return {"json": _run(["--json", "region", str(graph), str(iota)])}


def _validate_disconnected(tmp):
    # a torus listed before an L: the count is taken from the first listed face
    graph = json.loads(_run(["origami", "build", L]))
    graph["edges"] = ["tb", "tl", "td"] + graph["edges"]
    graph["faces"] = [
        {"id": "t-", "boundary": ["tb", "tl", "td"]},
        {"id": "t+", "boundary": ["td", "tb", "tl"]},
    ] + graph["faces"]
    path = tmp / "torus_and_l.json"
    path.write_text(json.dumps(graph))
    return {"json": _run(["--json", "validate", str(path)], expect=1)}


CASES = {
    "develop_l": lambda tmp: _develop(L, tmp),
    "develop_staircase12": lambda tmp: _develop(STAIRCASE_12, tmp),
    "flip_staircase12": _flip_staircase,
    "holonomy_flip_staircase12": _holonomy_flip_staircase,
    "holonomy_staircase12": _holonomy_staircase,
    "region_l": lambda tmp: _region(L, tmp),
    "region_staircase12": lambda tmp: _region(STAIRCASE_12, tmp),
    "sum_l_l": _sum_l,
    "validate_disconnected": _validate_disconnected,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot(name, tmp_path):
    for suffix, data in CASES[name](tmp_path).items():
        assert data == (DATA / f"{name}.{suffix}").read_bytes(), f"{name}.{suffix}"



def test_output_digest():
    script = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, OUTPUT_DIGEST + "\n", "")


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in case(Path(tmp)).items():
                (DATA / f"{name}.{suffix}").write_bytes(data)
