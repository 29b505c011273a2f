"""Print one sha256 over the CLI outputs and an exact dump of the region pipeline.

Two trees that print the same digest give byte-identical outputs on these
inputs, so a change that must keep every output can be checked with one
comparison.  Run it from the root of the tree under test:

    PYTHONPATH=src python tools/output_digest.py [--dump FILE]

``--dump`` also writes the full text that is hashed, for ``diff`` or ``cmp``
against the dump of another tree.  The dump covers:

- the exit code, stdout and stderr of ``--json`` CLI commands (origami
  build/check/matching/develop with SVG, match find/verify, region with
  samples, develop, info, holonomy, delaunay flip/check, validate and sum)
  on five origamis, among them the 12-square staircase, and the files that
  ``region -o``, ``develop -o`` and ``sum -o`` write;
- ``origami sweep --max-squares 5``, plain and with ``--json``;
- for the first 24 region_pipeline inputs of seeds 1-3 (from
  bench/inputs.py): the ``float.hex`` of the analysis, of 20 samples, of
  the holonomy of every basis cycle at each sample, one ``holonomy`` call
  per cycle as the benchmark makes them, and of the developed first sample;
- for the first 12 flip_develop inputs of seed 1 (from bench/inputs.py):
  the ``float.hex`` of the periods of ``develop`` at standard angles, the
  flips, degenerate edges, faces and periods of ``make_delaunay`` after the
  workload's shear, ``is_geometric_delaunay``, and the ``float.hex`` of
  ``angles_of`` and of ``holonomies`` on the flipped graph's cycle basis;
- ``check_constant_holonomy`` (from tests/region_oracles.py) on three
  arboreal origamis, and the ``float.hex`` of the 20 samples it draws from
  ``open_polytope``;
- ``network`` on every transitive pair class with at most 6 squares;
- ``find_matchings(g, limit=3)`` on the graph of every geometrically simple
  class with at most 5 squares, each matching in ``he_key`` form in the
  order of its entries.

Samples draw only on ``random.Random``, whose stream Python keeps fixed, and
on float ``+``, ``*``, ``/`` and ``sqrt``, so the digest does not depend on
the installed numpy or linear-algebra build.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import inputs  # noqa: E402  (bench/inputs.py)
import region_oracles  # noqa: E402  (tests/region_oracles.py)
import workloads  # noqa: E402  (bench/workloads.py)
from isodelaunay import (angles, cli, develop, homology, matching, origami,  # noqa: E402
                         region, ribbon, surgery)

ORIGAMIS = [
    "h=();v=()",
    "h=(12);v=(13)",
    "h=(12)(3)(45);v=(1)(234)(5)",
    "h=(12)(34)(56);v=(23)(45)(16)",
    "h=(1,2)(3,4)(5,6)(7,8)(9,10)(11,12);v=(2,3)(4,5)(6,7)(8,9)(10,11)",
]
SHEAR = 2.5


def _cli(out: list[str], *argv: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(list(argv))
    out.append(f"$ {' '.join(argv)} -> {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    return stdout.getvalue()


def cli_outputs(out: list[str]) -> None:
    """Run the commands in the current directory, which holds their files."""
    Path("l.json").write_text(_cli([], "origami", "build", ORIGAMIS[1]))
    for i, spec in enumerate(ORIGAMIS):
        graph, eq, iota = Path(f"g{i}.json"), Path(f"eq{i}.json"), Path(f"m{i}.json")
        graph.write_text(_cli(out, "origami", "build", spec))
        _cli(out, "--json", "origami", "build", spec)
        _cli(out, "--json", "origami", "check", spec)
        canonical = json.loads(_cli(out, "--json", "origami", "matching", spec))
        for flags in ([], ["--equilateral"]):
            svg = Path("o.svg")
            _cli(out, "--json", "origami", "develop", spec, *flags, "--svg", str(svg))
            out.append(svg.read_text())
        _cli(out, "--json", "validate", str(graph))
        _cli(out, "--json", "match", "find", str(graph), "--limit", "3")
        if canonical["result"]["matching"] is not None:
            iota.write_text(json.dumps(canonical["result"]["matching"]))
            _cli(out, "--json", "match", "verify", str(graph), str(iota))
            _cli(out, "--json", "--seed", "4", "region", str(graph), str(iota), "--samples", "7")
            written = Path(f"samples{i}")
            written.mkdir()
            _cli(out, "--seed", "4", "region", str(graph), str(iota), "--samples", "3",
                 "-o", str(written))
            out.extend(p.read_text() for p in sorted(written.iterdir()))
        o = origami.Origami.from_spec(spec)
        eq.write_text(json.dumps(ribbon.he_map_to_json(origami.equilateral_angles(o), float)))
        _cli(out, "--json", "info", str(graph), "--angles", str(eq))
        _cli(out, "--json", "holonomy", str(graph), str(eq))
        svg = Path("d.svg")
        _cli(out, "--json", "develop", str(graph), str(eq), "--svg", str(svg))
        out.append(svg.read_text())
        _cli(out, "--json", "develop", str(graph), str(eq), "-o", "developed.json")
        out.append(Path("developed.json").read_text())
        surface = json.loads(_cli([], "origami", "develop", spec))
        surface["periods"] = {
            k: [re + SHEAR * im, im] for k, (re, im) in surface["periods"].items()
        }
        sheared = Path("sheared.json")
        sheared.write_text(json.dumps(surface))
        _cli(out, "--json", "delaunay", "check", str(sheared))
        flipped = json.loads(_cli(out, "--json", "delaunay", "flip", str(sheared)))["result"]
        sheared.write_text(json.dumps(flipped))
        _cli(out, "--json", "delaunay", "check", str(sheared))
        _cli(out, "--json", "sum", str(graph), "f1-/0", "l.json", "f2+/1")
        _cli(out, "--json", "sum", str(graph), "f1-/0", "l.json", "f2+/1", "-o", "sum.json")
        out.append(Path("sum.json").read_text())
    _cli(out, "origami", "sweep", "--max-squares", "5")
    _cli(out, "--json", "origami", "sweep", "--max-squares", "5")


def _hex(values) -> str:
    return " ".join(float(x).hex() for x in values)


def region_dump(out: list[str]) -> None:
    for seed in (1, 2, 3):
        for inp in inputs.region_inputs(seed)[:24]:
            parts = [(origami.build_origami_graph(o), origami.canonical_matching(o))
                     for o in inp.origamis]
            if inp.glue is None:
                g, iota = parts[0]
            else:
                (gl, il), (gr, ir) = parts
                g, iota = surgery.sum_matchings(gl, inp.glue[0], il, gr, inp.glue[1], ir)
            poly = region.build_polytope(g, iota)
            report = region.analyze(poly)
            out.append(f"{inp.specs} {inp.glue} dim={report.dimension} "
                       f"feasible={report.feasible} slack={report.slack.hex()}")
            out.append(_hex(report.interior_point[c] for c in poly.corners))
            samples = region.sample(poly, 20, seed=inp.sample_seed)
            out.extend(_hex(t[c] for c in poly.corners) for t in samples)
            basis = homology.cycle_basis(g)
            out.extend(_hex(x for alpha in basis
                            for x in angles.holonomy(g, t, alpha)) for t in samples)
            surface = develop.develop(g, samples[0])
            out.append(_hex(x for h in sorted(surface.periods)
                            for x in (surface.periods[h].real, surface.periods[h].imag)))


def _periods(surface: develop.DevelopedSurface) -> str:
    """Each period as its half-edge and ``float.hex`` parts, in the surface's order."""
    return " ".join(f"{f}/{k}:{z.real.hex()},{z.imag.hex()}"
                    for (f, k), z in surface.periods.items())


def flip_dump(out: list[str]) -> None:
    for inp in inputs.flip_inputs(1)[:12]:
        o = inp.origami
        surface = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o))
        out.append(f"{o.h} {o.v} shear={inp.shear.hex()}")
        out.append(_periods(surface))
        flipped, flips, degenerate = develop.make_delaunay(workloads.sheared(surface, inp.shear))
        out.append(f"flips={flips} degenerate={degenerate}")
        out.append(repr(flipped.graph.faces))
        out.append(_periods(flipped))
        out.append(f"delaunay={develop.is_geometric_delaunay(flipped)}")
        theta = develop.angles_of(flipped)
        out.append(" ".join(f"{f}/{k}:{a.hex()}" for (f, k), a in theta.items()))
        basis = homology.cycle_basis(flipped.graph)
        out.append(_hex(x for hol in angles.holonomies(flipped.graph, theta, basis)
                        for x in hol))


def holonomy_dump(out: list[str]) -> None:
    for spec in ORIGAMIS[:3]:
        o = origami.Origami.from_spec(spec)
        g, iota = origami.build_origami_graph(o), origami.canonical_matching(o)
        rep = region_oracles.check_constant_holonomy(g, iota, samples=20, seed=1)
        out.append(f"{spec} samples={rep['samples']} ok={rep['ok']} "
                   f"{_hex([rep['max_deviation'], rep['max_modulus_deviation']])}")
        # the samples it compares, drawn again from the same polytope and seed
        poly = region_oracles.open_polytope(g, iota)
        out.extend(_hex(t[c] for c in poly.corners) for t in region.sample(poly, 20, seed=1))


def network_dump(out: list[str]) -> None:
    for s in range(1, 7):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            net = origami.network(o)
            out.append(f"{o.h} {o.v} {net}")
            if s <= 5 and net.geometrically_simple:
                result = matching.find_matchings(origami.build_origami_graph(o), limit=3)
                out.append(f"complete={result.complete}")
                for iota in result.matchings:
                    out.append(" ".join(f"{ribbon.he_key(h)}:{ribbon.he_key(t)}"
                                        for h, t in iota.items()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", help="also write the hashed text to this file")
    args = parser.parse_args()
    out: list[str] = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative file names keep the temporary directory out of the dump
        os.chdir(tmp)
        try:
            cli_outputs(out)
        finally:
            os.chdir(here)
    region_dump(out)
    flip_dump(out)
    holonomy_dump(out)
    network_dump(out)
    text = "\n".join(out) + "\n"
    if args.dump:
        Path(args.dump).write_text(text)
    print(hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
