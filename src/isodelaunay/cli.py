"""Command-line front end.

Subcommands read graphs and angle data as JSON from files or stdin, so they
compose in pipelines.  Exit status: 0 success, 1 domain failure (for
example an invalid graph, or no matching with --expect-some), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import islice

from . import angles as angles_mod
from . import develop as develop_mod
from . import homology, matching as matching_mod
from . import origami as origami_mod
from . import region as region_mod
from . import ribbon, surgery

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

# the sweep enumerates every class of s squares up to this bound; s = 7 takes
# about 0.2 s (0.13 s of it enumerating its 4,163 classes, on a 2-core x86-64
# host), and each further square costs more than ten times as much
MAX_SWEEP_SQUARES = 7

# region holds every sample in memory until it prints them; on the 12-square
# staircase a sample is about 2.5 KB of JSON and 0.2 ms, so this bound prints
# 25 MB in about 2 s, and the process peaks near 61 MB (2-core x86-64 host)
MAX_SAMPLES = 10_000


# JSON tokens per write of a report: written one by one, each token is a
# system call under an unbuffered stdout (PYTHONUNBUFFERED=1), about 15,000
# for 128 KB
EMIT_TOKENS = 4096


class InputError(Exception):
    pass


def _read_json(path: str | None):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise InputError(f"cannot read JSON from {path or 'stdin'}: {ex}")


def _load_graph(path: str | None) -> ribbon.TriRibbonGraph:
    data = _read_json(path)
    if isinstance(data, dict) and "graph" in data and "faces" not in data:
        data = data["graph"]
    try:
        return ribbon.TriRibbonGraph.from_json(data)
    except (KeyError, TypeError) as ex:
        raise InputError(f"malformed graph JSON: {ex}")


def _load_half_edge_map(path: str, value_type, from_json, values: str):
    data = _read_json(path)
    if not isinstance(data, dict) or not all(
        isinstance(v, value_type) and not isinstance(v, bool) for v in data.values()
    ):
        raise InputError(f"{path}: expected an object mapping half-edge keys to {values}")
    try:
        return from_json(data)
    except (ValueError, OverflowError) as ex:
        raise InputError(str(ex))


def _load_angles(path: str) -> angles_mod.AngleAssignment:
    return _load_half_edge_map(path, (int, float), angles_mod.angles_from_json, "numbers")


def _load_matching(path: str) -> matching_mod.TriangleMatching:
    return _load_half_edge_map(path, str, matching_mod.matching_from_json, "half-edge keys")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an OSError, such as a missing directory, is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise InputError(f"cannot write {path}: {ex}")


def _written(args, result: dict) -> dict:
    """``result``, or with ``-o`` the path it was written to as sorted JSON."""
    if not args.output:
        return result
    _write(args.output, json.dumps(result, sort_keys=True))
    return {"written": args.output}


def cmd_validate(args) -> tuple[dict, int]:
    try:
        _load_graph(args.graph)
    except ribbon.InvalidGraphError as ex:
        return {"valid": False, "problems": ex.problems}, EXIT_DOMAIN
    return {"valid": True, "problems": []}, EXIT_OK


def cmd_info(args) -> tuple[dict, int]:
    g = _load_graph(args.graph)
    result = ribbon.topology(g)
    if args.angles:
        theta = _load_angles(args.angles)
        angles_mod.validate_angles(g, theta)
        sig = ribbon.stratum_signature(g, theta)
        result["stratum"] = {"genus": sig.genus, "zero_orders": list(sig.zero_orders)}
    return result, EXIT_OK


def cmd_holonomy(args) -> tuple[dict, int]:
    g = _load_graph(args.graph)
    theta = _load_angles(args.angles)
    angles_mod.validate_angles(g, theta)
    basis = homology.cycle_basis(g)
    hols = angles_mod.holonomies(g, theta, basis)
    values = [
        {
            "cycle": homology.chain_to_json(alpha),
            "value": [hol.value.real, hol.value.imag],
            "modulus": hol.modulus,
            "phase": hol.phase,
        }
        for alpha, hol in zip(basis, hols)
    ]
    trivial = all(hol.distance_to_one() <= args.tol for hol in hols)
    return {"cycles": values, "trivial": trivial}, EXIT_OK


def cmd_match_find(args) -> tuple[dict, int]:
    if args.limit is not None and args.limit < 1:
        raise InputError(f"--limit must be at least 1, got {args.limit}")
    if args.deadline is not None and not args.deadline >= 0:
        raise InputError(f"--deadline must be at least 0, got {args.deadline}")
    g = _load_graph(args.graph)
    res = matching_mod.find_matchings(g, limit=args.limit, deadline=args.deadline)
    result = {
        "count": len(res.matchings),
        "complete": res.complete,
        "matchings": [matching_mod.matching_to_json(m) for m in res.matchings],
    }
    return result, EXIT_DOMAIN if args.expect_some and not res.matchings else EXIT_OK


def cmd_match_verify(args) -> tuple[dict, int]:
    g = _load_graph(args.graph)
    iota = _load_matching(args.matching)
    report = matching_mod.verify_matching(g, iota)
    result = {"valid": report.ok, "involution": report.is_involution, "problems": report.problems}
    return result, EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_region(args) -> tuple[dict, int]:
    if args.samples < 0:
        raise InputError(f"--samples must be at least 0, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    g = _load_graph(args.graph)
    iota = _load_matching(args.matching)
    poly = region_mod.build_polytope(g, iota)
    report = region_mod.analyze(poly)
    result = {
        "feasible": report.feasible,
        "slack": report.slack,
        "dimension": report.dimension,
    }
    if args.samples:
        pts = region_mod.sample(poly, args.samples, seed=args.seed)
        # every sample has the polytope's corners: each key is formatted once
        # per report, and the samples share its string
        keys, corners = list(angles_mod.angles_to_json(pts[0])), sorted(pts[0])
        result["samples"] = [dict(zip(keys, map(t.__getitem__, corners))) for t in pts]
        if args.output:
            for i, t in enumerate(result["samples"]):
                _write(f"{args.output.rstrip('/')}/sample_{i:04d}.json",
                       json.dumps(t, sort_keys=True))
    return result, EXIT_OK


def _develop(args, g, theta) -> develop_mod.DevelopedSurface:
    """Develop ``theta`` on ``g``, writing the layout to ``--svg`` when it is given."""
    surface = develop_mod.develop(g, theta, tol=args.tol)
    if args.svg:
        _write(args.svg, develop_mod.to_svg(surface))
    return surface


def cmd_develop(args) -> tuple[dict, int]:
    g = _load_graph(args.graph)
    theta = _load_angles(args.angles)
    try:
        surface = _develop(args, g, theta)
    except develop_mod.HolonomyObstruction as ex:
        return {"error": str(ex), "edge": ex.edge, "residual": ex.residual}, EXIT_DOMAIN
    return _written(args, surface.to_json()), EXIT_OK


def cmd_delaunay(args) -> tuple[dict, int]:
    try:
        surface = develop_mod.DevelopedSurface.from_json(_read_json(args.surface))
        surface.check()
    except ribbon.InvalidGraphError:
        raise
    except (KeyError, TypeError, ValueError) as ex:
        raise InputError(f"malformed surface JSON: {ex}")
    if args.action == "check":
        try:
            ok = develop_mod.is_geometric_delaunay(surface, tol=args.tol)
        except develop_mod.DegenerateTriangleError as ex:
            return {"delaunay": False, "degenerate": str(ex)}, EXIT_DOMAIN
        return {"delaunay": ok}, EXIT_OK if ok else EXIT_DOMAIN
    # flip
    result_surface, flips, degenerate = develop_mod.make_delaunay(surface, tol=args.tol)
    return {**result_surface.to_json(), "flips": flips, "degenerate_edges": degenerate}, EXIT_OK


def _origami(args) -> tuple[origami_mod.Origami, ribbon.TriRibbonGraph]:
    """The origami of ``args.spec`` and its standard triangulation."""
    try:
        o = origami_mod.Origami.from_spec(args.spec)
    except ValueError as ex:
        raise InputError(str(ex))
    return o, origami_mod.build_origami_graph(o)


def cmd_origami_build(args) -> tuple[dict, int]:
    return _origami(args)[1].to_json(), EXIT_OK


def cmd_origami_check(args) -> tuple[dict, int]:
    o, g = _origami(args)
    net = origami_mod.network(o)
    sig = ribbon.stratum_signature(g, origami_mod.standard_angles(o))
    result = {
        "squares": o.squares,
        "genus": sig.genus,
        "zero_orders": list(sig.zero_orders),
        "horizontal_cylinders": len(net.horizontal),
        "vertical_cylinders": len(net.vertical),
        "geometrically_simple": net.geometrically_simple,
        "arboreal": net.arboreal,
    }
    return result, EXIT_OK


def cmd_origami_matching(args) -> tuple[dict, int]:
    o, g = _origami(args)
    iota = origami_mod.canonical_matching(o)
    report = matching_mod.verify_matching(g, iota)
    net = origami_mod.network(o)
    result = {
        "arboreal": net.arboreal,
        "canonical_matching_valid": report.ok,
        "matching": matching_mod.matching_to_json(iota) if report.ok else None,
    }
    return result, EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_origami_develop(args) -> tuple[dict, int]:
    o, g = _origami(args)
    theta = origami_mod.equilateral_angles(o) if args.equilateral else origami_mod.standard_angles(o)
    return _develop(args, g, theta).to_json(), EXIT_OK


def cmd_origami_sweep(args) -> tuple[dict, int]:
    if not 1 <= args.max_squares <= MAX_SWEEP_SQUARES:
        raise InputError(
            f"--max-squares must be in 1..{MAX_SWEEP_SQUARES}, got {args.max_squares}"
        )
    mismatches = []
    checked = 0
    for s in range(1, args.max_squares + 1):
        for o in origami_mod.transitive_pairs_up_to_relabeling(s):
            net = origami_mod.network(o)
            if not net.geometrically_simple:
                continue
            checked += 1
            g = origami_mod.build_origami_graph(o)
            canonical_ok = bool(matching_mod.verify_matching(g, origami_mod.canonical_matching(o)))
            exists = bool(matching_mod.find_matchings(g, limit=1).matchings)
            if not (net.arboreal == canonical_ok == exists):
                mismatches.append(
                    {
                        "h": list(o.h),
                        "v": list(o.v),
                        "arboreal": net.arboreal,
                        "canonical": canonical_ok,
                        "exists": exists,
                    }
                )
    return {"checked": checked, "mismatches": mismatches}, EXIT_DOMAIN if mismatches else EXIT_OK


def cmd_sum(args) -> tuple[dict, int]:
    left = _load_graph(args.left)
    right = _load_graph(args.right)
    try:
        h_left = ribbon.parse_he_key(args.left_half_edge)
        h_right = ribbon.parse_he_key(args.right_half_edge)
    except ValueError as ex:
        raise InputError(str(ex))
    for path, graph, h in ((args.left, left, h_left), (args.right, right, h_right)):
        if h[0] not in graph.face_ids:
            raise InputError(f"{path}: no face {h[0]!r} for half-edge {ribbon.he_key(h)}")
    return _written(args, surgery.connected_sum(left, h_left, right, h_right).to_json()), EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``parse_args`` leaves it unchanged and
    returns a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="isodel",
        description="Triangulated translation surfaces: ribbon graphs, holonomy, "
        "matchings, Delaunay angle regions.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable envelope")
    parser.add_argument("--tol", type=float, default=angles_mod.TOL, help="numerical tolerance")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check ribbon-graph invariants")
    p.add_argument("graph", nargs="?", help="graph JSON (default stdin)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="topology and optional stratum signature")
    p.add_argument("graph", nargs="?")
    p.add_argument("--angles", help="angle JSON for stratum signature")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("holonomy", help="holonomy on a cycle basis")
    p.add_argument("graph")
    p.add_argument("angles")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("match", help="triangle matchings")
    msub = p.add_subparsers(dest="action", required=True)
    pf = msub.add_parser("find")
    pf.add_argument("graph", nargs="?")
    pf.add_argument("--limit", type=int)
    pf.add_argument("--deadline", type=float)
    pf.add_argument("--expect-some", action="store_true", dest="expect_some")
    pf.set_defaults(func=cmd_match_find)
    pv = msub.add_parser("verify")
    pv.add_argument("graph")
    pv.add_argument("matching")
    pv.set_defaults(func=cmd_match_verify)

    p = sub.add_parser("region", help="feasibility, slack, dimension, samples")
    p.add_argument("graph")
    p.add_argument("matching")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("-o", "--output", help="directory for sample JSON files")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("develop", help="develop angles into periods")
    p.add_argument("graph")
    p.add_argument("angles")
    p.add_argument("--svg")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("delaunay", help="geometric Delaunay checks and flips")
    dsub = p.add_subparsers(dest="action", required=True)
    for name in ("check", "flip"):
        pd = dsub.add_parser(name)
        pd.add_argument("surface", nargs="?")
        pd.set_defaults(func=cmd_delaunay)

    p = sub.add_parser("origami", help="square-tiled surfaces")
    osub = p.add_subparsers(dest="action", required=True)
    for name, func in (("build", cmd_origami_build), ("check", cmd_origami_check),
                       ("matching", cmd_origami_matching), ("develop", cmd_origami_develop)):
        po = osub.add_parser(name)
        po.add_argument("spec", help='for example "h=(12);v=(13)"')
        po.set_defaults(func=func)
    po.add_argument("--equilateral", action="store_true")  # develop, the last of the four
    po.add_argument("--svg")
    ps = osub.add_parser("sweep")
    ps.add_argument("--max-squares", type=int, default=4, dest="max_squares")
    ps.set_defaults(func=cmd_origami_sweep)

    p = sub.add_parser("sum", help="connected sum of two graphs")
    p.add_argument("left")
    p.add_argument("left_half_edge")
    p.add_argument("right")
    p.add_argument("right_half_edge")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sum)

    return parser


def _emit(report) -> None:
    """Write ``report`` and a newline to stdout as ``json.dump`` would, in chunks."""
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    while chunk := "".join(islice(tokens, EMIT_TOKENS)):
        sys.stdout.write(chunk)
    sys.stdout.write("\n")


def run(argv: list[str] | None = None) -> int:
    """Run one command and print its report, or one error line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise InputError(f"--tol must be a finite number at least 0, got {args.tol}")
        for flag in ("output", "svg"):
            if getattr(args, flag, None) == "":
                raise InputError(f"--{flag} must not be empty")
        report, code = args.func(args)
    except InputError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except (develop_mod.FlipCapError, ValueError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        report = {"command": command, "seed": args.seed, "result": report, "diagnostics": []}
    _emit(report)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone, as in `isodel ... | head`: send what is
        # left to devnull so the flush at exit cannot fail again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DOMAIN
    sys.exit(code)


if __name__ == "__main__":
    main()
