"""Tests of the benchmark's own code: generators, span arithmetic, oracles.

    python3 -m pytest bench -q
"""

import math
import random

import numpy as np
import pytest

from isodelaunay import origami

import clock
import inputs
import oracles
import run
import workloads
from spans import NullRecorder, Recorder, Span, per_op, self_times


def _transitive(h, v):
    seen, stack = {1}, [1]
    while stack:
        j = stack.pop()
        for k in (h[j - 1], v[j - 1]):
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == len(h)


def _is_permutation(p):
    return sorted(p) == list(range(1, len(p) + 1))


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("s", [1, 2, 5, 8, 16, 24])
def test_random_arboreal_is_arboreal(s):
    rng = random.Random(s)
    for _ in range(5):
        h, v = inputs.random_arboreal(s, rng)
        assert _is_permutation(h) and _is_permutation(v)
        assert _transitive(h, v)
        assert inputs.cycle_count(h) + inputs.cycle_count(v) == s + 1
        assert origami.network(origami.Origami(h, v)).arboreal


@pytest.mark.parametrize("s", [1, 3, 12, 48])
def test_random_transitive_is_transitive(s):
    rng = random.Random(s)
    for _ in range(3):
        h, v = inputs.random_transitive(s, rng)
        assert _is_permutation(h) and _is_permutation(v)
        assert _transitive(h, v)


def test_conjugate_relabels():
    rng = random.Random(0)
    h, v = inputs.random_transitive(7, rng)
    g = tuple(rng.sample(range(1, 8), 7))
    g_inv = tuple(g.index(x) + 1 for x in range(1, 8))
    h2 = inputs.conjugate(h, g)
    assert inputs.conjugate(h2, g_inv) == h
    assert all(h2[g[x - 1] - 1] == g[h[x - 1] - 1] for x in range(1, 8))
    assert inputs.cycle_count(h2) == inputs.cycle_count(h)


def test_spec_parses_back():
    rng = random.Random(3)
    for s in (1, 9, 12, 24):
        h, v = inputs.random_arboreal(s, rng)
        assert origami.Origami.from_spec(inputs.spec(h, v)) == origami.Origami(h, v)


def test_region_inputs_follow_the_ladder():
    pool = inputs.region_inputs(5)
    assert len(pool) == len(inputs.REGION_LADDER) * inputs.REGION_PASSES
    for i, inp in enumerate(pool):
        size = inputs.REGION_LADDER[i % len(inputs.REGION_LADDER)]
        assert (inp.glue is not None) == (i % 4 == 3)
        sizes = size if isinstance(size, tuple) else (size,)
        assert [o.squares for o in inp.origamis] == list(sizes)


def test_flip_inputs_shears_stay_clear_of_integers():
    pool = inputs.flip_inputs(2)
    for i, inp in enumerate(pool):
        assert 2.2 <= inp.shear <= 6.8
        assert 0.2 - 1e-12 <= inp.shear % 1.0 <= 0.8 + 1e-12
        assert int(inp.shear) == 2 + i % 5
        assert inp.origami.squares == (inputs.FLIP_SMALL if i % 6 == 5 else inputs.FLIP_LARGE)


@pytest.mark.parametrize("make", [inputs.region_inputs, inputs.flip_inputs, inputs.sweep_inputs])
def test_inputs_are_a_function_of_the_seed(make):
    assert inputs.digest(make(7)) == inputs.digest(make(7))
    assert inputs.digest(make(7)) != inputs.digest(make(8))


# ---------------------------------------------------------------------------
# spans


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] is covered
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 9.0, 12.0, 0, 0),  # runs past its parent: only [9, 10] counts
        Span("op", 20.0, 21.0, None, 1),
        Span("a", 20.25, 20.5, 5, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3, 0.75, 0.25])
    totals = per_op(spans)
    assert totals[0]["a"] == pytest.approx((2, 1))
    assert totals[1]["a"] == pytest.approx((0.25, 1))
    assert totals[1]["op"] == pytest.approx((0.75, 1))


def test_recorder_nests_spans_under_the_op():
    rec = Recorder()
    with rec.op(4):
        with rec.span("x"):
            with rec.span("y"):
                pass
        with rec.span("z"):
            pass
    names = [(s.name, s.parent, s.op) for s in rec.spans]
    assert names == [("op", None, 4), ("x", 0, 4), ("y", 1, 4), ("z", 0, 4)]
    assert all(s.end >= s.start for s in rec.spans)
    with NullRecorder().op(1), NullRecorder().span("x"):
        pass


def test_throughput_counts_whole_cycles():
    times = [3.0, 1.0, 1.0, 3.0, 1.0, 1.0, 3.0]
    surfaces = [1, 1, 2, 1, 1, 2, 1]
    # two whole cycles of three ops; the third cycle's first op is left out
    assert run.throughput(times, surfaces, 3) == pytest.approx(8 / 10)
    assert run.throughput(times[:2], surfaces[:2], 3) == pytest.approx(2 / 4)
    assert run.throughput(times, surfaces, 1) == pytest.approx(9 / 13)


def test_probe_scales_net_time_to_the_reference_speed(monkeypatch):
    probe = clock.Probe()
    ref = clock.REF_SLICE_S
    # one sample before the mark, two inside the interval; 1 s in the handler
    probe.slices = [9.0, 2 * ref, 4 * ref]
    probe.spent = 5.0
    monkeypatch.setattr(clock, "perf_counter", lambda: 11.0)
    interval = probe.since(clock.Mark(wall=1.0, slices=1, spent=4.0))
    assert interval.wall == 10.0
    assert interval.net == 9.0
    assert interval.slices == 2
    # the host ran at a third of the reference speed
    assert interval.seconds == pytest.approx(3.0)
    # no sample inside the interval: the latest one stands in
    assert probe.since(clock.Mark(wall=10.0, slices=3, spent=5.0)).seconds == pytest.approx(0.25)


def test_probe_samples_while_code_runs():
    probe = clock.Probe()
    probe.start()
    try:
        mark = probe.mark()
        deadline = clock.perf_counter() + 0.3
        while clock.perf_counter() < deadline:
            sum(range(1000))
        interval = probe.since(mark)
    finally:
        probe.stop()
    assert interval.slices >= 3
    assert 0 < interval.net < interval.wall
    assert interval.seconds > 0


def test_tail_is_never_below_the_median():
    assert run.tail([float(i) for i in range(50)]) == (39.0, 80.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


# ---------------------------------------------------------------------------
# oracles: each accepts the library's answer and rejects a perturbed one


@pytest.fixture(scope="module")
def region_out():
    inp = inputs.region_input(5, random.Random(11))
    return inp, workloads.region_op(NullRecorder(), inp)


@pytest.fixture(scope="module")
def sum_out():
    inp = inputs.region_input((3, 4), random.Random(12))
    return inp, workloads.region_op(NullRecorder(), inp)


def test_region_check_accepts_the_library(region_out, sum_out):
    for inp, out in (region_out, sum_out):
        counters = workloads.region_check(inp, out)
        assert counters["region.sample_yield"] == 1.0


def test_optimum_slack_rejects_a_perturbed_slack():
    oracles.optimum_slack(math.pi / 3)
    with pytest.raises(oracles.OracleError):
        oracles.optimum_slack(math.pi / 3 + 1e-4)


def test_dimension_rejects_a_perturbed_dimension(region_out):
    _, out = region_out
    g, dim = out["graph"], out["report"].dimension
    oracles.dimension(g.faces, out["iota"], dim)
    with pytest.raises(oracles.OracleError):
        oracles.dimension(g.faces, out["iota"], dim + 1)


def test_points_in_region_rejects_perturbed_samples(region_out):
    _, out = region_out
    g, iota, samples = out["graph"], out["iota"], out["samples"]
    assert oracles.points_in_region(g.faces, iota, samples) > 0
    corner = min(samples[0])
    moved = dict(samples[0])
    moved[corner] += 1e-6  # breaks its face sum
    with pytest.raises(oracles.OracleError, match="residual"):
        oracles.points_in_region(g.faces, iota, [moved])
    equilateral = dict.fromkeys(samples[0], math.pi / 3)
    oracles.points_in_region(g.faces, iota, [equilateral])
    # move along the equalities' null space until an inequality breaks
    idx = oracles.corner_index(g.faces)
    eq, _ = oracles.equality_system(g.faces, iota)
    direction = np.linalg.svd(eq)[2][-1]
    assert np.abs(eq @ direction).max() < 1e-12
    far = {c: math.pi / 3 + 10.0 * direction[idx[c]] for c in samples[0]}
    with pytest.raises(oracles.OracleError, match="inequality"):
        oracles.points_in_region(g.faces, iota, [far])


def test_holonomy_constant_rejects_a_perturbed_value(region_out):
    _, out = region_out
    values = out["holonomy"]
    assert oracles.holonomy_constant(values) <= oracles.HOLONOMY_TOL
    perturbed = [list(row) for row in values]
    perturbed[-1][0] += 1e-6
    with pytest.raises(oracles.OracleError):
        oracles.holonomy_constant(perturbed)


def test_cli_oracles_reject_perturbed_output(region_out):
    _, out = region_out
    graph_env, matching_env = out["cli"]
    g, iota = out["parts"][0]
    oracles.cli_graph(graph_env, g.edges, g.faces)
    oracles.cli_matching(matching_env, iota)
    faces = list(graph_env["result"]["faces"])
    bad_graph = dict(graph_env, result=dict(graph_env["result"], faces=faces[::-1]))
    with pytest.raises(oracles.OracleError):
        oracles.cli_graph(bad_graph, g.edges, g.faces)
    first = min(matching_env["result"]["matching"])
    bad_map = dict(matching_env["result"]["matching"], **{first: first})
    bad_matching = dict(matching_env, result=dict(matching_env["result"], matching=bad_map))
    with pytest.raises(oracles.OracleError):
        oracles.cli_matching(bad_matching, iota)


def test_region_check_rejects_a_perturbed_report(region_out):
    inp, out = region_out
    bad_report = type(out["report"])(True, out["report"].slack * 0.99,
                                     out["report"].interior_point, out["report"].dimension)
    with pytest.raises(oracles.OracleError):
        workloads.region_check(inp, dict(out, report=bad_report))
    with pytest.raises(oracles.OracleError):
        workloads.region_check(inp, dict(out, basis=out["basis"][:-1]))


def test_sweep_oracle_rejects_wrong_counts():
    inp = inputs.sweep_input(random.Random(1), max_squares=3)
    out = workloads.sweep_op(NullRecorder(), inp)
    assert workloads.sweep_check(inp, out)["origami.classes"] == 11
    oracles.sweep([1, 3, 7, 26, 97], 25, [])
    with pytest.raises(oracles.OracleError):
        oracles.sweep([1, 3, 7, 26, 96], 25, [])
    with pytest.raises(oracles.OracleError):
        oracles.sweep([1, 3, 7, 26, 97], 24, [])
    with pytest.raises(oracles.OracleError):
        oracles.sweep([1, 3, 7, 26, 97], 25, [{"h": (1,), "v": (1,)}])


@pytest.fixture(scope="module")
def flip_out():
    inp = inputs.flip_input(8, 3.4, random.Random(5))
    return inp, workloads.flip_op(NullRecorder(), inp)


def test_flip_check_accepts_the_library(flip_out):
    inp, out = flip_out
    counters = workloads.flip_check(inp, out)
    assert counters["develop.flips"] == len(out["flips"]) > 0


def test_flip_oracles_reject_perturbed_surfaces(flip_out):
    _, out = flip_out
    start, flipped = out["start"], out["flipped"]
    faces = flipped.graph.faces
    oracles.flat_surface(faces, flipped.periods)
    assert oracles.delaunay_surface(faces, flipped.periods) > 0
    # the sheared surface before any flip is flat but not Delaunay
    oracles.flat_surface(start.graph.faces, start.periods)
    with pytest.raises(oracles.OracleError):
        oracles.delaunay_surface(start.graph.faces, start.periods)
    moved = dict(flipped.periods)
    h = min(moved)
    moved[h] += 1e-5
    with pytest.raises(oracles.OracleError):
        oracles.flat_surface(faces, moved)
    with pytest.raises(oracles.OracleError):
        oracles.h1_rank(faces, flipped.graph.edges, len(out["basis"]) + 1)
