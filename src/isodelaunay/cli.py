"""Command-line front end.

Subcommands read graphs and angle data as JSON from files or stdin, so they
compose in pipelines.  Exit status: 0 success, 1 domain failure (for
example an invalid graph, or no matching with --expect-some), 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

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
# about 0.4 s (0.25 s of it enumerating its 4,163 classes, on a 2-core x86-64
# host), and each further square costs more than ten times as much
MAX_SWEEP_SQUARES = 7


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


def _emit(args, command: str, result: dict) -> None:
    if args.json:
        result = {"command": command, "seed": args.seed, "result": result, "diagnostics": []}
    print(json.dumps(result, indent=2, sort_keys=True))


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError while writing ``path``, such as a missing directory, into an input error."""
    try:
        yield
    except OSError as ex:
        raise InputError(f"cannot write {path}: {ex}")


def _emit_or_write(args, command: str, result: dict) -> None:
    """Emit ``result``, or write it as sorted JSON to ``args.output`` and emit the path."""
    if args.output:
        with _writing(args.output), open(args.output, "w") as fh:
            json.dump(result, fh, sort_keys=True)
        result = {"written": args.output}
    _emit(args, command, result)


def cmd_validate(args) -> int:
    try:
        _load_graph(args.graph)
    except ribbon.InvalidGraphError as ex:
        _emit(args, "validate", {"valid": False, "problems": ex.problems})
        return EXIT_DOMAIN
    _emit(args, "validate", {"valid": True, "problems": []})
    return EXIT_OK


def cmd_info(args) -> int:
    g = _load_graph(args.graph)
    info = ribbon.topology(g)
    result = dict(info)
    if args.angles:
        theta = _load_angles(args.angles)
        angles_mod.validate_angles(g, theta)
        sig = ribbon.stratum_signature(g, theta)
        result["stratum"] = {"genus": sig.genus, "zero_orders": list(sig.zero_orders)}
    _emit(args, "info", result)
    return EXIT_OK


def cmd_holonomy(args) -> int:
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
    _emit(args, "holonomy", {"cycles": values, "trivial": trivial})
    return EXIT_OK


def cmd_match_find(args) -> int:
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
    _emit(args, "match find", result)
    if args.expect_some and not res.matchings:
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_match_verify(args) -> int:
    g = _load_graph(args.graph)
    iota = _load_matching(args.matching)
    report = matching_mod.verify_matching(g, iota)
    _emit(
        args,
        "match verify",
        {"valid": report.ok, "involution": report.is_involution, "problems": report.problems},
    )
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_region(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be at least 0, got {args.samples}")
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
        result["samples"] = [angles_mod.angles_to_json(t) for t in pts]
        if args.output:
            for i, t in enumerate(pts):
                path = f"{args.output.rstrip('/')}/sample_{i:04d}.json"
                with _writing(path), open(path, "w") as fh:
                    json.dump(angles_mod.angles_to_json(t), fh, sort_keys=True)
    _emit(args, "region", result)
    return EXIT_OK


def cmd_develop(args) -> int:
    g = _load_graph(args.graph)
    theta = _load_angles(args.angles)
    try:
        surface = develop_mod.develop(g, theta, tol=args.tol)
    except develop_mod.HolonomyObstruction as ex:
        _emit(args, "develop", {"error": str(ex), "edge": ex.edge, "residual": ex.residual})
        return EXIT_DOMAIN
    if args.svg:
        with _writing(args.svg):
            develop_mod.export_svg(surface, args.svg)
    _emit_or_write(args, "develop", surface.to_json())
    return EXIT_OK


def cmd_delaunay(args) -> int:
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
            _emit(args, "delaunay check", {"delaunay": False, "degenerate": str(ex)})
            return EXIT_DOMAIN
        _emit(args, "delaunay check", {"delaunay": ok})
        return EXIT_OK if ok else EXIT_DOMAIN
    # flip
    result_surface, flips, degenerate = develop_mod.make_delaunay(surface, tol=args.tol)
    out = result_surface.to_json()
    out["flips"] = flips
    out["degenerate_edges"] = degenerate
    _emit(args, "delaunay flip", out)
    return EXIT_OK


def _origami_from_args(args) -> origami_mod.Origami:
    try:
        return origami_mod.Origami.from_spec(args.spec)
    except ValueError as ex:
        raise InputError(str(ex))


def cmd_origami_build(args) -> int:
    o = _origami_from_args(args)
    g = origami_mod.build_origami_graph(o)
    _emit(args, "origami build", g.to_json())
    return EXIT_OK


def cmd_origami_check(args) -> int:
    o = _origami_from_args(args)
    g = origami_mod.build_origami_graph(o)
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
    _emit(args, "origami check", result)
    return EXIT_OK


def cmd_origami_matching(args) -> int:
    o = _origami_from_args(args)
    g = origami_mod.build_origami_graph(o)
    iota = origami_mod.canonical_matching(o)
    report = matching_mod.verify_matching(g, iota)
    net = origami_mod.network(o)
    result = {
        "arboreal": net.arboreal,
        "canonical_matching_valid": report.ok,
        "matching": matching_mod.matching_to_json(iota) if report.ok else None,
    }
    _emit(args, "origami matching", result)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_origami_develop(args) -> int:
    o = _origami_from_args(args)
    g = origami_mod.build_origami_graph(o)
    theta = (
        origami_mod.equilateral_angles(o)
        if args.equilateral
        else origami_mod.standard_angles(o)
    )
    surface = develop_mod.develop(g, theta, tol=args.tol)
    if args.svg:
        with _writing(args.svg):
            develop_mod.export_svg(surface, args.svg)
    _emit(args, "origami develop", surface.to_json())
    return EXIT_OK


def cmd_origami_sweep(args) -> int:
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
    _emit(args, "origami sweep", {"checked": checked, "mismatches": mismatches})
    return EXIT_OK if not mismatches else EXIT_DOMAIN


def cmd_sum(args) -> int:
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
    _emit_or_write(args, "sum", surgery.connected_sum(left, h_left, right, h_right).to_json())
    return EXIT_OK


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
    parser.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance")
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
    pf.add_argument("--limit", type=int, default=None)
    pf.add_argument("--deadline", type=float, default=None)
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
        pd.set_defaults(func=cmd_delaunay, action=name)

    p = sub.add_parser("origami", help="square-tiled surfaces")
    osub = p.add_subparsers(dest="action", required=True)
    pb = osub.add_parser("build")
    pb.add_argument("spec", help='for example "h=(12);v=(13)"')
    pb.set_defaults(func=cmd_origami_build)
    pc = osub.add_parser("check")
    pc.add_argument("spec")
    pc.set_defaults(func=cmd_origami_check)
    pm = osub.add_parser("matching")
    pm.add_argument("spec")
    pm.set_defaults(func=cmd_origami_matching)
    pdv = osub.add_parser("develop")
    pdv.add_argument("spec")
    pdv.add_argument("--equilateral", action="store_true")
    pdv.add_argument("--svg")
    pdv.set_defaults(func=cmd_origami_develop)
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


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise InputError(f"--tol must be a finite number at least 0, got {args.tol}")
        return args.func(args)
    except InputError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except (develop_mod.FlipCapError, ValueError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
