"""The three workloads: inputs, one timed op, and the checks on its answer.

An op calls only the library's public functions, each inside a span named
``<module>.<function>``.  ``check`` runs after the op's clock has stopped:
it applies the oracles and returns the op's counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from isodelaunay import angles, cli, develop, homology, matching, origami, region, ribbon, surgery

import inputs
import oracles


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], list]
    # a small input run before timing, so lazy set-up is paid outside the ops
    warmup_input: Callable[[int], object]
    op: Callable
    check: Callable
    surfaces: Callable[[object], int]
    # consecutive ops that make one full cycle of the input mix
    cycle: int


def _cli_json(rec, argv: list[str]) -> tuple[dict, int]:
    buf = io.StringIO()
    with rec.span("cli.run"), contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    text = buf.getvalue()
    if code != 0:
        raise oracles.OracleError(f"isodel {' '.join(argv)} exited with {code}")
    return json.loads(text), len(text.encode())


# ---------------------------------------------------------------------------
# region_pipeline


def region_op(rec, inp: inputs.RegionInput) -> dict:
    out = {"cli": [], "stdout_bytes": 0, "parts": []}
    for o, spec in zip(inp.origamis, inp.specs):
        for action in ("build", "matching"):
            envelope, size = _cli_json(rec, ["--json", "origami", action, spec])
            out["cli"].append(envelope)
            out["stdout_bytes"] += size
        with rec.span("origami.build_graph"):
            g = origami.build_origami_graph(o)
        with rec.span("origami.canonical_matching"):
            iota = origami.canonical_matching(o)
        out["parts"].append((g, iota))
    if inp.glue is None:
        g, iota = out["parts"][0]
    else:
        (gl, il), (gr, ir) = out["parts"]
        with rec.span("surgery.sum_matchings"):
            g, iota = surgery.sum_matchings(gl, inp.glue[0], il, gr, inp.glue[1], ir)
    with rec.span("ribbon.validate"):
        out["valid"] = ribbon.validate(g)
    with rec.span("ribbon.topology"):
        out["topology"] = ribbon.topology(g)
    with rec.span("homology.cycle_basis"):
        basis = homology.cycle_basis(g)
    with rec.span("matching.verify"):
        out["verified"] = matching.verify_matching(g, iota, basis)
    with rec.span("region.build_polytope"):
        poly = region.build_polytope(g, iota)
    with rec.span("region.analyze"):
        report = region.analyze(poly)
    with rec.span("region.sample"):
        samples = region.sample(poly, inputs.REGION_SAMPLES, seed=inp.sample_seed)
    holonomy = []
    for theta in samples:
        row = []
        for alpha in basis:
            with rec.span("angles.holonomy"):
                row.append(angles.holonomy(g, theta, alpha).value)
        holonomy.append(row)
    with rec.span("develop.develop"):
        surface = develop.develop(g, samples[0])
    with rec.span("develop.is_geometric_delaunay"):
        out["delaunay"] = develop.is_geometric_delaunay(surface)
    out.update(graph=g, iota=iota, basis=basis, poly=poly, report=report,
               samples=samples, holonomy=holonomy, surface=surface)
    return out


def region_check(inp: inputs.RegionInput, out: dict) -> dict:
    g, iota = out["graph"], out["iota"]
    for graph_env, matching_env, (part_graph, part_iota) in zip(
            out["cli"][0::2], out["cli"][1::2], out["parts"]):
        oracles.cli_graph(graph_env, part_graph.edges, part_graph.faces)
        oracles.cli_matching(matching_env, part_iota)
    if not (out["valid"] and out["verified"]):
        raise oracles.OracleError("graph or matching failed the library's own validation")
    oracles.h1_rank(g.faces, g.edges, len(out["basis"]))
    oracles.h1_rank(g.faces, g.edges, out["topology"]["rank_h1"])
    report, samples = out["report"], out["samples"]
    if not report.feasible:
        raise oracles.OracleError("region reported infeasible")
    oracles.optimum_slack(report.slack)
    oracles.dimension(g.faces, iota, report.dimension)
    oracles.points_in_region(g.faces, iota, [report.interior_point] + samples)
    dev = oracles.holonomy_constant(out["holonomy"])
    oracles.flat_surface(g.faces, out["surface"].periods)
    if out["delaunay"] is not True:
        raise oracles.OracleError("developed sample is not geometrically Delaunay")
    poly = out["poly"]
    return {
        "region.lp_rows": len(poly.eq_rows) + len(poly.ineq_rows),
        "region.lp_cols": poly.n_vars,
        "region.sample_yield": len(samples) / inputs.REGION_SAMPLES,
        "homology.rank": len(out["basis"]),
        "angles.holonomy.calls": len(samples) * len(out["basis"]),
        "angles.max_holonomy_dev": dev,
        "cli.stdout_bytes": out["stdout_bytes"],
    }


def region_warmup(seed: int) -> inputs.RegionInput:
    return inputs.region_input(6, random.Random(f"region_pipeline/warmup/{seed}"))


REGION = Workload(inputs.region_inputs, region_warmup, region_op, region_check,
                  lambda inp: 1, len(inputs.REGION_LADDER))


# ---------------------------------------------------------------------------
# origami_sweep


def sweep_op(rec, inp: inputs.SweepInput) -> dict:
    """The arboreal classification of ``isodel origami sweep``, step by step.

    Each class representative is relabeled by the input's permutation before
    it is classified, so the seed varies the labelings the search sees.
    """
    counts, checked, mismatches = [], 0, []
    found = complete = 0
    for s in range(1, inp.max_squares + 1):
        with rec.span("origami.enumerate"):
            classes = origami.transitive_pairs_up_to_relabeling(s)
        counts.append(len(classes))
        g_perm = inp.relabel[s - 1]
        for rep in classes:
            h, v = inputs.conjugate(rep.h, g_perm), inputs.conjugate(rep.v, g_perm)
            with rec.span("origami.Origami"):
                o = origami.Origami(h, v)
            with rec.span("origami.network"):
                net = origami.network(o)
            if not net.geometrically_simple:
                continue
            checked += 1
            with rec.span("origami.build_graph"):
                g = origami.build_origami_graph(o)
            with rec.span("origami.canonical_matching"):
                canonical = origami.canonical_matching(o)
            with rec.span("homology.cycle_basis"):
                basis = homology.cycle_basis(g)
            with rec.span("matching.verify"):
                canonical_ok = bool(matching.verify_matching(g, canonical, basis))
            with rec.span("matching.find"):
                result = matching.find_matchings(g, limit=1)
            exists = bool(result.matchings)
            found += exists
            complete += result.complete
            # the cycle-count identity, counted here rather than by the library
            identity = inputs.cycle_count(h) + inputs.cycle_count(v) == s + 1
            if not (net.arboreal == canonical_ok == identity == exists):
                mismatches.append({"h": h, "v": v, "arboreal": net.arboreal,
                                   "canonical": canonical_ok, "identity": identity,
                                   "exists": exists})
    return {"counts": counts, "checked": checked, "mismatches": mismatches,
            "found": found, "complete": complete}


def sweep_check(inp: inputs.SweepInput, out: dict) -> dict:
    oracles.sweep(out["counts"], out["checked"], out["mismatches"])
    return {
        "origami.classes": sum(out["counts"]),
        "matching.find.found_ratio": out["found"] / out["checked"],
        "matching.find.complete_ratio": out["complete"] / out["checked"],
    }


def sweep_warmup(seed: int) -> inputs.SweepInput:
    return inputs.sweep_input(random.Random(f"origami_sweep/warmup/{seed}"), max_squares=4)


SWEEP = Workload(inputs.sweep_inputs, sweep_warmup, sweep_op, sweep_check,
                 lambda inp: sum(oracles.CLASS_COUNTS[: inp.max_squares]), 1)


# ---------------------------------------------------------------------------
# flip_develop


def sheared(surface: develop.DevelopedSurface, t: float) -> develop.DevelopedSurface:
    """The surface under (x, y) -> (x + t y, y), applied to every period."""
    periods = {h: complex(z.real + t * z.imag, z.imag) for h, z in surface.periods.items()}
    return develop.DevelopedSurface(surface.graph, periods)


def flip_op(rec, inp: inputs.FlipInput) -> dict:
    with rec.span("origami.build_graph"):
        g = origami.build_origami_graph(inp.origami)
    with rec.span("origami.standard_angles"):
        theta = origami.standard_angles(inp.origami)
    with rec.span("develop.develop"):
        surface = develop.develop(g, theta)
    start = sheared(surface, inp.shear)
    with rec.span("develop.make_delaunay"):
        flipped, flips, degenerate = develop.make_delaunay(start)
    with rec.span("develop.is_geometric_delaunay"):
        is_delaunay = develop.is_geometric_delaunay(flipped)
    with rec.span("develop.angles_of"):
        flipped_angles = develop.angles_of(flipped)
    with rec.span("homology.cycle_basis"):
        basis = homology.cycle_basis(flipped.graph)
    with rec.span("angles.is_trivial_holonomy"):
        trivial = angles.is_trivial_holonomy(flipped.graph, flipped_angles, basis)
    return {"start": start, "flipped": flipped, "flips": flips, "degenerate": degenerate,
            "delaunay": is_delaunay, "trivial": trivial, "basis": basis}


def flip_check(inp: inputs.FlipInput, out: dict) -> dict:
    start, flipped = out["start"], out["flipped"]
    if out["delaunay"] is not True or out["trivial"] is not True:
        raise oracles.OracleError("flipped surface failed the library's Delaunay or holonomy check")
    oracles.flat_surface(flipped.graph.faces, flipped.periods)
    oracles.delaunay_surface(flipped.graph.faces, flipped.periods)
    before = oracles.area(start.graph.faces, start.periods)
    after = oracles.area(flipped.graph.faces, flipped.periods)
    if abs(after - before) > oracles.RESIDUAL_TOL * before:
        raise oracles.OracleError(f"flips changed the area from {before!r} to {after!r}")
    oracles.h1_rank(flipped.graph.faces, flipped.graph.edges, len(out["basis"]))
    return {
        "develop.flips": len(out["flips"]),
        "develop.degenerate_edges": len(out["degenerate"]),
        "homology.rank": len(out["basis"]),
        "angles.holonomy.calls": len(out["basis"]),
    }


def flip_warmup(seed: int) -> inputs.FlipInput:
    return inputs.flip_input(12, 3.5, random.Random(f"flip_develop/warmup/{seed}"))


FLIP = Workload(inputs.flip_inputs, flip_warmup, flip_op, flip_check, lambda inp: 1,
                inputs.FLIP_CYCLE)


WORKLOADS = {"region_pipeline": REGION, "origami_sweep": SWEEP, "flip_develop": FLIP}
